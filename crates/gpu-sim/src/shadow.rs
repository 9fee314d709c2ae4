//! Epoch-based shadow-memory sanitizer for the simulated device.
//!
//! SEPO's correctness argument rests on an access *discipline* over the
//! device heap (see `sepo-alloc`'s safety model): entries are plain-written
//! only while private to the inserting warp, made reachable by a single
//! Release CAS on a bucket head, and after that touched only through reads
//! or word atomics — until an iteration boundary evicts their page, after
//! which device code must never touch them again. Nothing in the simulator
//! *checks* that discipline; this module does.
//!
//! Data-structure code declares every logically-shared access through
//! [`crate::charge::Charge::access`] (sinks that don't care drop it, and
//! simulated costs are untouched). Declared events carry a [`ShadowAddr`] —
//! a *logical* address, independent of physical page reuse — plus an
//! [`AccessKind`], the issuing warp and lane. Each warp appends its events
//! in place to its participant shard's buffer (buffers are lent by the
//! sanitizer and keep their capacity from launch to launch). At launch
//! retirement the sanitizer hands the buffers to an idle pool worker
//! ([`crate::pool::WorkerPool::background`]), which replays them in slot
//! order against a per-address state machine while the launching thread
//! goes on to the next launch. At most one launch is in flight: the next
//! retirement, and every read of the verdict ([`ShadowSanitizer::report`],
//! [`ShadowSanitizer::finding_count`]) or host-side access, first waits for
//! it — running it on the waiting thread if no worker has started it, which
//! with an empty pool (`SEPO_WORKERS=0`) is always. A panic inside a replay
//! re-raises there, at that next wait, not inside the launch. The rules:
//!
//! * Each launch is one **epoch**. Two warps of the same epoch are
//!   logically concurrent (SIMT warps have no intra-launch ordering);
//!   different epochs are separated by a launch boundary, which the
//!   simulated device treats as a full synchronization point.
//! * A plain write makes the address *owned* by the writing warp for the
//!   rest of its epoch. Any plain access from another warp in the same
//!   epoch is a race ([`FindingKind::ConcurrentPlainAccess`]); an atomic
//!   from another warp in the same epoch is a mixed plain/atomic conflict
//!   ([`FindingKind::MixedPlainAtomic`]).
//! * An atomic or publishing CAS moves the address to *published*: from
//!   then on plain writes to it are mixed-access findings — published words
//!   may only be read or updated atomically.
//! * An [`AccessKind::Evicted`] event retires a page's logical identity.
//!   Any later *device* access to that page is a use-after-evict
//!   ([`FindingKind::UseAfterEvict`]). Host-side access (the eviction and
//!   rebuild machinery itself, declared with [`HOST_WARP`]) stays legal:
//!   iteration boundaries are quiescent, so the host may rewrite links of
//!   kept entries or read evicted images freely.
//!
//! The state is dense and eviction-scoped, so each access costs O(1):
//! bucket-head and bitmap-word cells live in `Vec`s indexed by their
//! number, and each page identity has one record — evicted flag, cursor
//! cell, marker cell, and entry cells indexed by `offset / 8` (every entry
//! layout is 8-aligned) — reached by a single lookup. An eviction drops the
//! page's cells (the evicted flag is checked first, so they would never be
//! read again), which keeps memory proportional to the resident pages.
//!
//! Zero findings under a deterministic schedule plus byte-identical replay
//! (`ExecMode::ParallelDeterministic`) means the *declared* access stream
//! of that schedule is race-free. Under `Parallel` mode the shards are
//! merged in slot order, not schedule order, so a cross-warp pair split
//! across shards can replay in the wrong order: racing runs report
//! spurious mixed plain/atomic findings (see DESIGN.md §10). The sanitizer
//! charges no simulated cost, so results are byte-identical with it on or
//! off; its wall-clock cost is measured by `perf/`
//! (`gpu_sim.shadow.tax_ratio`).

use crate::charge::Charge;
use crate::metrics::Counter;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// Logical address of a simulated-device word the discipline covers.
///
/// Heap-resident addresses ([`ShadowAddr::Entry`], [`ShadowAddr::HeapCursor`],
/// [`ShadowAddr::Page`]) are keyed by the page's *host identity* (the
/// monotone id the heap stamps at acquisition), not its physical index —
/// so a physical page recycled after eviction never aliases its previous
/// tenant, and "evicted" is a property of the logical page forever.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShadowAddr {
    /// A bucket-head word of the (single) hash table under test.
    BucketHead(u32),
    /// One 64-bit word of the driver's done-bitmap.
    BitmapWord(u32),
    /// A page's bump cursor, keyed by the page's host identity.
    HeapCursor(u64),
    /// An entry (its base word stands for the whole record), keyed by the
    /// owning page's host identity plus the entry's byte offset.
    Entry {
        /// Host identity of the owning page.
        page: u64,
        /// Entry base offset within the page.
        offset: u32,
    },
    /// A whole page's lifecycle marker (used with [`AccessKind::Evicted`]).
    Page(u64),
}

impl ShadowAddr {
    /// The page identity this address lives on, if heap-resident.
    fn page(&self) -> Option<u64> {
        match *self {
            ShadowAddr::Entry { page, .. }
            | ShadowAddr::HeapCursor(page)
            | ShadowAddr::Page(page) => Some(page),
            ShadowAddr::BucketHead(_) | ShadowAddr::BitmapWord(_) => None,
        }
    }
}

impl fmt::Display for ShadowAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ShadowAddr::BucketHead(b) => write!(f, "bucket-head[{b}]"),
            ShadowAddr::BitmapWord(w) => write!(f, "bitmap-word[{w}]"),
            ShadowAddr::HeapCursor(p) => write!(f, "heap-cursor[page #{p}]"),
            ShadowAddr::Entry { page, offset } => write!(f, "entry[page #{page} +{offset}]"),
            ShadowAddr::Page(p) => write!(f, "page[#{p}]"),
        }
    }
}

/// What kind of access a [`Charge::access`] declaration describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Non-atomic read.
    PlainRead,
    /// Non-atomic write (legal only while the address is warp-private).
    PlainWrite,
    /// Word atomic (load/RMW) that does not newly publish the address.
    Atomic,
    /// The Release CAS (or equivalent) that makes the address — and the
    /// data it points at — reachable by other warps.
    CasPublish,
    /// The page behind this address was evicted to the host heap; its
    /// logical identity is dead to device code from here on.
    Evicted,
}

impl fmt::Display for AccessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AccessKind::PlainRead => "plain read",
            AccessKind::PlainWrite => "plain write",
            AccessKind::Atomic => "atomic",
            AccessKind::CasPublish => "publishing CAS",
            AccessKind::Evicted => "evict",
        })
    }
}

/// Sentinel warp index for host-side (iteration-boundary) accesses: the
/// device is quiescent, so race rules do not apply and evicted pages are
/// legal to touch.
pub const HOST_WARP: u32 = u32::MAX;

/// Sentinel lane index for warp-level accesses (e.g. combiner flushes at
/// warp retirement, which act for the whole warp rather than one lane).
pub const WARP_LEVEL_LANE: u32 = crate::spec::WARP_SIZE as u32;

/// One declared access, as appended to a participant shard's buffer and
/// replayed after the launch retires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShadowEvent {
    /// Logical address accessed.
    pub addr: ShadowAddr,
    /// Kind of access.
    pub kind: AccessKind,
    /// Issuing warp ([`HOST_WARP`] for host-side machinery).
    pub warp: u32,
    /// Issuing lane ([`WARP_LEVEL_LANE`] for warp-retirement work).
    pub lane: u32,
}

/// Category of a sanitizer finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FindingKind {
    /// Plain access raced a same-epoch plain write from another warp
    /// without an intervening atomic publish.
    ConcurrentPlainAccess,
    /// Plain and atomic access mixed on the same word within an epoch, or
    /// a plain write to an already-published word.
    MixedPlainAtomic,
    /// Device access to a page after its eviction to the host heap.
    UseAfterEvict,
}

impl fmt::Display for FindingKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FindingKind::ConcurrentPlainAccess => "concurrent plain access",
            FindingKind::MixedPlainAtomic => "mixed plain/atomic access",
            FindingKind::UseAfterEvict => "use after evict",
        })
    }
}

/// A witness trace for one finding: which access, by whom, when.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Category.
    pub kind: FindingKind,
    /// Offending address.
    pub addr: ShadowAddr,
    /// The access that completed the violation.
    pub access: AccessKind,
    /// Issuing warp of the offending access.
    pub warp: u32,
    /// Issuing lane of the offending access.
    pub lane: u32,
    /// Launch epoch (1-based, counted per sanitizer).
    pub epoch: u64,
    /// SEPO driver iteration in force (0 outside a driver run).
    pub iteration: u32,
    /// What the shadow state knew about the address beforehand.
    pub prior: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} by warp {} lane {} on {} at iteration {} (epoch {}); prior: {}",
            self.kind,
            self.access,
            self.warp,
            self.lane,
            self.addr,
            self.iteration,
            self.epoch,
            self.prior
        )
    }
}

/// Aggregated sanitizer outcome: counts per category plus the first few
/// witness traces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SanitizerReport {
    /// Total declared accesses checked.
    pub events_checked: u64,
    /// Total findings across all categories.
    pub findings_total: u64,
    /// [`FindingKind::ConcurrentPlainAccess`] count.
    pub concurrent_plain: u64,
    /// [`FindingKind::MixedPlainAtomic`] count.
    pub mixed_plain_atomic: u64,
    /// [`FindingKind::UseAfterEvict`] count.
    pub use_after_evict: u64,
    /// First [`ShadowSanitizer::MAX_WITNESSES`] findings, in detection order.
    pub witnesses: Vec<Finding>,
}

impl fmt::Display for SanitizerReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} finding(s) over {} access(es) \
             (concurrent-plain {}, mixed-plain-atomic {}, use-after-evict {})",
            self.findings_total,
            self.events_checked,
            self.concurrent_plain,
            self.mixed_plain_atomic,
            self.use_after_evict
        )?;
        for w in &self.witnesses {
            write!(f, "\n  - {w}")?;
        }
        Ok(())
    }
}

/// Shadow state of one logical address.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum Cell {
    /// Never accessed since the last device reset.
    #[default]
    Fresh,
    /// Plain-written by `warp` during `epoch` and not yet published; private
    /// to that warp for the rest of the epoch.
    Owned { warp: u32, epoch: u64 },
    /// Published (or only ever touched atomically, or left behind by the
    /// host): shared, read/atomic access only.
    Published,
}

/// What the shadow state knew about an address before the access that
/// completed a violation; rendered into [`Finding::prior`].
#[derive(Debug, Clone, Copy)]
enum Prior {
    /// `warp` holds an unpublished plain write from this epoch.
    HeldBy(u32),
    Published,
    /// The page was evicted.
    Evicted(u64),
}

impl fmt::Display for Prior {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Prior::HeldBy(warp) => {
                write!(
                    f,
                    "warp {warp} holds an unpublished plain write from this epoch"
                )
            }
            Prior::Published => {
                f.write_str("address was published; published words allow only read/atomic access")
            }
            Prior::Evicted(p) => write!(f, "page #{p} was evicted to the host heap"),
        }
    }
}

impl Cell {
    /// Apply one device access by `warp` during `epoch`; returns the
    /// violation it completes, if any.
    fn step(&mut self, kind: AccessKind, warp: u32, epoch: u64) -> Option<(FindingKind, Prior)> {
        let rival = match *self {
            Cell::Owned { warp: w, epoch: e } if e == epoch && w != warp => Some(w),
            _ => None,
        };
        match kind {
            AccessKind::PlainWrite => {
                if let Some(w) = rival {
                    return Some((FindingKind::ConcurrentPlainAccess, Prior::HeldBy(w)));
                }
                if *self == Cell::Published {
                    return Some((FindingKind::MixedPlainAtomic, Prior::Published));
                }
                *self = Cell::Owned { warp, epoch };
                None
            }
            AccessKind::PlainRead => {
                rival.map(|w| (FindingKind::ConcurrentPlainAccess, Prior::HeldBy(w)))
            }
            AccessKind::Atomic | AccessKind::CasPublish => {
                *self = Cell::Published;
                rival.map(|w| (FindingKind::MixedPlainAtomic, Prior::HeldBy(w)))
            }
            AccessKind::Evicted => unreachable!("evictions retire pages, not cells"),
        }
    }
}

/// The cell at index `i`, growing `cells` with fresh cells to reach it.
#[inline]
fn cell_at(cells: &mut Vec<Cell>, i: usize) -> &mut Cell {
    if i >= cells.len() {
        cells.resize(i + 1, Cell::Fresh);
    }
    &mut cells[i]
}

/// Everything the sanitizer knows about one logical page.
#[derive(Debug, Default)]
struct PageShadow {
    /// The page was evicted; its cells are gone and stay gone.
    evicted: bool,
    cursor: Cell,
    marker: Cell,
    /// Entry cells by `offset / 8`.
    entries: Vec<Cell>,
}

/// One multiply: host identities are dense monotone counters, so this
/// spreads them evenly over the table's buckets at a fraction of SipHash's
/// cost. The heap mints the identities — none come from input — so
/// SipHash's resistance to crafted collisions buys nothing here.
#[derive(Debug, Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0.rotate_left(8) ^ u64::from(b));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// Where an address's shadow state lives.
enum Slot<'a> {
    Live(&'a mut Cell),
    /// The address lies on this evicted page.
    Evicted(u64),
}

/// The per-address shadow state, dense and eviction-scoped.
#[derive(Debug, Default)]
struct Cells {
    heads: Vec<Cell>,
    words: Vec<Cell>,
    /// One record per page identity (identities are never reused).
    pages: HashMap<u64, PageShadow, BuildHasherDefault<IdHasher>>,
}

impl Cells {
    #[inline]
    fn slot(&mut self, addr: ShadowAddr) -> Slot<'_> {
        let page = match addr {
            ShadowAddr::BucketHead(b) => return Slot::Live(cell_at(&mut self.heads, b as usize)),
            ShadowAddr::BitmapWord(w) => return Slot::Live(cell_at(&mut self.words, w as usize)),
            ShadowAddr::HeapCursor(p) | ShadowAddr::Page(p) | ShadowAddr::Entry { page: p, .. } => {
                p
            }
        };
        let rec = self.pages.entry(page).or_default();
        if rec.evicted {
            return Slot::Evicted(page);
        }
        Slot::Live(match addr {
            ShadowAddr::HeapCursor(_) => &mut rec.cursor,
            ShadowAddr::Page(_) => &mut rec.marker,
            ShadowAddr::Entry { offset, .. } => {
                debug_assert!(offset % 8 == 0, "entry bases are 8-aligned: {addr}");
                cell_at(&mut rec.entries, (offset / 8) as usize)
            }
            ShadowAddr::BucketHead(_) | ShadowAddr::BitmapWord(_) => unreachable!(),
        })
    }

    /// Retire `page`: drop its cells and mark it evicted for good.
    fn evict(&mut self, page: u64) {
        *self.pages.entry(page).or_default() = PageShadow {
            evicted: true,
            ..PageShadow::default()
        };
    }

    /// Drop every cell, keeping the evicted flags.
    fn reset(&mut self) {
        self.heads.clear();
        self.words.clear();
        self.pages.retain(|_, rec| rec.evicted);
    }

    /// Cells currently held: bucket heads, bitmap words, and the cells of
    /// pages not evicted.
    #[cfg(test)]
    fn live(&self) -> usize {
        let pages = self.pages.values().filter(|rec| !rec.evicted);
        self.heads.len() + self.words.len() + pages.map(|rec| 2 + rec.entries.len()).sum::<usize>()
    }
}

#[derive(Debug, Default)]
struct Inner {
    /// Launch counter; bumped once per ingested launch.
    epoch: u64,
    cells: Cells,
    events_checked: u64,
    concurrent_plain: u64,
    mixed_plain_atomic: u64,
    use_after_evict: u64,
    witnesses: Vec<Finding>,
}

impl Inner {
    /// Apply one launch's buffers back to back, as the next epoch.
    fn replay(&mut self, buffers: &[Vec<ShadowEvent>], iteration: u32) {
        self.epoch += 1;
        for &ev in buffers.iter().flatten() {
            self.apply(ev, iteration);
        }
    }

    fn findings_total(&self) -> u64 {
        self.concurrent_plain + self.mixed_plain_atomic + self.use_after_evict
    }

    fn finding(&mut self, kind: FindingKind, ev: ShadowEvent, iteration: u32, prior: Prior) {
        match kind {
            FindingKind::ConcurrentPlainAccess => self.concurrent_plain += 1,
            FindingKind::MixedPlainAtomic => self.mixed_plain_atomic += 1,
            FindingKind::UseAfterEvict => self.use_after_evict += 1,
        }
        if self.witnesses.len() < ShadowSanitizer::MAX_WITNESSES {
            self.witnesses.push(Finding {
                kind,
                addr: ev.addr,
                access: ev.kind,
                warp: ev.warp,
                lane: ev.lane,
                epoch: self.epoch,
                iteration,
                prior: prior.to_string(),
            });
        }
    }

    #[inline]
    fn apply(&mut self, ev: ShadowEvent, iteration: u32) {
        self.events_checked += 1;
        let host = ev.warp == HOST_WARP;

        if let AccessKind::Evicted = ev.kind {
            if let Some(p) = ev.addr.page() {
                self.cells.evict(p);
            }
            return;
        }
        let epoch = self.epoch;
        let verdict = match self.cells.slot(ev.addr) {
            // Host access to evicted data (eviction machinery, host queries
            // over stored images) is always legal.
            Slot::Evicted(p) => (!host).then_some((FindingKind::UseAfterEvict, Prior::Evicted(p))),
            // Iteration boundaries are quiescent: whatever the host leaves
            // behind is published state for the next epoch.
            Slot::Live(cell) if host => {
                *cell = Cell::Published;
                None
            }
            Slot::Live(cell) => cell.step(ev.kind, ev.warp, epoch),
        };
        if let Some((kind, prior)) = verdict {
            self.finding(kind, ev, iteration, prior);
        }
    }
}

mod state {
    use super::Inner;
    use crate::pool::{Background, WorkerPool};

    /// The shadow state, or the launch replay that owns it until joined.
    /// The fields are private to this module, so [`State::settled`] — which
    /// joins the pending replay first — is the only way to the state.
    pub(super) struct State {
        /// `None` while `replay` holds it, and for good once a replay
        /// panicked.
        inner: Option<Box<Inner>>,
        replay: Option<Background<Box<Inner>>>,
    }

    impl State {
        pub(super) fn new() -> Self {
            State {
                inner: Some(Box::default()),
                replay: None,
            }
        }

        /// Take the shadow state out, joining the replay that holds it (and
        /// re-raising that replay's panic).
        fn take(&mut self) -> Box<Inner> {
            match self.replay.take() {
                Some(replay) => replay.join(),
                None => self
                    .inner
                    .take()
                    .expect("an earlier shadow replay panicked; its state is lost"),
            }
        }

        /// The shadow state, once every ingested launch is replayed.
        pub(super) fn settled(&mut self) -> &mut Inner {
            let inner = self.take();
            self.inner.insert(inner)
        }

        /// Hand the settled state to `replay`, run on an idle pool worker;
        /// it owns the state until the next join.
        pub(super) fn replay_with<F>(&mut self, replay: F)
        where
            F: FnOnce(Box<Inner>) -> Box<Inner> + Send + 'static,
        {
            let inner = self.take();
            self.replay = Some(WorkerPool::global().background(move || replay(inner)));
        }
    }
}

/// The shadow-memory sanitizer. One instance covers one table/driver run;
/// attach it to an [`crate::executor::Executor`] via
/// [`crate::executor::Executor::with_shadow`] and it receives every
/// declared access once each launch retires.
pub struct ShadowSanitizer {
    state: parking_lot::Mutex<state::State>,
    /// Emptied per-slot event buffers, kept for the next launch. Apart from
    /// `state`, so lending buffers never waits on a replay.
    spare: Arc<parking_lot::Mutex<Vec<Vec<ShadowEvent>>>>,
    /// Driver-iteration label stamped onto findings (display only).
    iteration: AtomicU32,
}

impl fmt::Debug for ShadowSanitizer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut state = self.state.lock();
        let inner = state.settled();
        f.debug_struct("ShadowSanitizer")
            .field("epoch", &inner.epoch)
            .field("events_checked", &inner.events_checked)
            .field("findings", &inner.findings_total())
            .finish()
    }
}

impl Default for ShadowSanitizer {
    fn default() -> Self {
        Self::new()
    }
}

impl ShadowSanitizer {
    /// Witness traces retained per run (counts keep accumulating past this).
    pub const MAX_WITNESSES: usize = 8;

    pub fn new() -> Self {
        ShadowSanitizer {
            state: parking_lot::Mutex::new(state::State::new()),
            spare: Arc::default(),
            iteration: AtomicU32::new(0),
        }
    }

    /// Label subsequent findings with the driver iteration in force.
    pub fn set_iteration(&self, iteration: u32) {
        self.iteration.store(iteration, Ordering::Relaxed);
    }

    /// Merge one retired launch's declared accesses (in slot order) and
    /// advance the epoch. The executor hands over its per-slot buffers
    /// instead (`ingest_buffers`); this is the one-buffer form.
    pub fn ingest(&self, events: Vec<ShadowEvent>) {
        self.ingest_buffers(vec![events]);
    }

    /// `slots` empty event buffers for one launch's participant shards,
    /// with the capacity earlier launches grew them to.
    pub(crate) fn lend_buffers(&self, slots: usize) -> Vec<Vec<ShadowEvent>> {
        let mut spare = self.spare.lock();
        let keep = spare.len().saturating_sub(slots);
        let mut lent = spare.split_off(keep);
        lent.resize_with(slots, Vec::new);
        lent
    }

    /// [`ShadowSanitizer::ingest`] for a launch whose shards filled lent
    /// buffers. Waits for the previous launch's replay, then replays this
    /// one on an idle pool worker, in slot order under the iteration label
    /// in force now; the replay keeps the buffers, emptied, for the next
    /// launch.
    pub(crate) fn ingest_buffers(&self, mut buffers: Vec<Vec<ShadowEvent>>) {
        let iteration = self.iteration.load(Ordering::Relaxed);
        let spare = Arc::clone(&self.spare);
        self.state.lock().replay_with(move |mut inner| {
            inner.replay(&buffers, iteration);
            for buf in &mut buffers {
                buf.clear();
            }
            spare.lock().append(&mut buffers);
            inner
        });
    }

    /// Model a device reset during hard-fault recovery: the simulated
    /// device's memory (and hence all per-word shadow state) is rebuilt
    /// from the last iteration-boundary checkpoint, so every cell's
    /// ownership/publication history is dropped. The evicted-page identity
    /// set is kept — host identities are never reused, and pages evicted
    /// before the checkpoint stay evicted across the reset — as are the
    /// cumulative event and finding counters.
    pub fn device_reset(&self) {
        self.state.lock().settled().cells.reset();
    }

    /// Shadow cells currently held (see `Cells::live`).
    #[cfg(test)]
    fn live_cells(&self) -> usize {
        self.state.lock().settled().cells.live()
    }

    /// Declare one host-side access at the current epoch (race rules do not
    /// apply; see [`HOST_WARP`]).
    pub fn record_host(&self, addr: ShadowAddr, kind: AccessKind) {
        let iteration = self.iteration.load(Ordering::Relaxed);
        let ev = ShadowEvent {
            addr,
            kind,
            warp: HOST_WARP,
            lane: 0,
        };
        self.state.lock().settled().apply(ev, iteration);
    }

    /// A [`Charge`] sink that feeds [`ShadowSanitizer::record_host`] — hand
    /// it to iteration-boundary table operations (eviction, rebuilds) so
    /// host-side accesses are declared without race rules.
    pub fn host_charge(&self) -> HostCharge<'_> {
        HostCharge(self)
    }

    /// Total findings so far.
    pub fn finding_count(&self) -> u64 {
        self.state.lock().settled().findings_total()
    }

    /// Snapshot counts and witnesses.
    pub fn report(&self) -> SanitizerReport {
        let mut state = self.state.lock();
        let inner = state.settled();
        SanitizerReport {
            events_checked: inner.events_checked,
            findings_total: inner.findings_total(),
            concurrent_plain: inner.concurrent_plain,
            mixed_plain_atomic: inner.mixed_plain_atomic,
            use_after_evict: inner.use_after_evict,
            witnesses: inner.witnesses.clone(),
        }
    }
}

/// Host-side charge sink: declares accesses to a [`ShadowSanitizer`] under
/// [`HOST_WARP`] and discards all simulated costs (iteration-boundary work
/// is accounted elsewhere).
#[derive(Debug)]
pub struct HostCharge<'a>(&'a ShadowSanitizer);

impl Charge for HostCharge<'_> {
    #[inline]
    fn add(&mut self, _: Counter, _: u64) {}

    #[inline]
    fn access(&mut self, addr: ShadowAddr, kind: AccessKind) {
        self.0.record_host(addr, kind);
    }

    #[inline]
    fn leases(&mut self) -> Option<&mut crate::lease::BlockLeases> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{ExecMode, Executor};
    use crate::metrics::Metrics;
    use std::sync::Arc;

    fn dev(addr: ShadowAddr, kind: AccessKind, warp: u32, lane: u32) -> ShadowEvent {
        ShadowEvent {
            addr,
            kind,
            warp,
            lane,
        }
    }

    const ENTRY: ShadowAddr = ShadowAddr::Entry { page: 7, offset: 0 };
    const HEAD: ShadowAddr = ShadowAddr::BucketHead(3);

    #[test]
    fn disciplined_publish_sequence_is_clean() {
        let s = ShadowSanitizer::new();
        // Warp 0 fills a private entry and publishes it; warp 1 then reads
        // the chain through the head — the canonical insert discipline.
        s.ingest(vec![
            dev(ENTRY, AccessKind::PlainWrite, 0, 4),
            dev(HEAD, AccessKind::Atomic, 0, 4),
            dev(HEAD, AccessKind::CasPublish, 0, 4),
            dev(ENTRY, AccessKind::CasPublish, 0, 4),
            dev(HEAD, AccessKind::Atomic, 1, 0),
            dev(ENTRY, AccessKind::PlainRead, 1, 0),
            dev(ENTRY, AccessKind::Atomic, 1, 0),
        ]);
        assert_eq!(s.finding_count(), 0);
        assert_eq!(s.report().events_checked, 7);
    }

    #[test]
    fn concurrent_plain_writes_from_two_warps_are_a_race() {
        let s = ShadowSanitizer::new();
        s.ingest(vec![
            dev(ENTRY, AccessKind::PlainWrite, 0, 1),
            dev(ENTRY, AccessKind::PlainWrite, 2, 9),
        ]);
        let r = s.report();
        assert_eq!(r.concurrent_plain, 1);
        assert_eq!(r.witnesses[0].warp, 2);
        assert_eq!(r.witnesses[0].lane, 9);
    }

    #[test]
    fn same_warp_rewrites_its_private_entry_freely() {
        let s = ShadowSanitizer::new();
        s.ingest(vec![
            dev(ENTRY, AccessKind::PlainWrite, 0, 1),
            dev(ENTRY, AccessKind::PlainWrite, 0, 1),
            dev(ENTRY, AccessKind::PlainRead, 0, 5),
        ]);
        assert_eq!(s.finding_count(), 0);
    }

    #[test]
    fn launch_boundary_synchronizes_ownership() {
        let s = ShadowSanitizer::new();
        // An unpublished (abandoned) write in epoch 1 is not a race for
        // epoch-2 readers: the launch boundary orders them.
        s.ingest(vec![dev(ENTRY, AccessKind::PlainWrite, 0, 1)]);
        s.ingest(vec![dev(ENTRY, AccessKind::PlainRead, 5, 2)]);
        assert_eq!(s.finding_count(), 0);
    }

    #[test]
    fn plain_write_to_published_word_is_mixed_access() {
        let s = ShadowSanitizer::new();
        s.ingest(vec![
            dev(HEAD, AccessKind::CasPublish, 0, 0),
            dev(HEAD, AccessKind::PlainWrite, 1, 3),
        ]);
        let r = s.report();
        assert_eq!(r.mixed_plain_atomic, 1);
        assert_eq!(r.witnesses[0].kind, FindingKind::MixedPlainAtomic);
    }

    #[test]
    fn atomic_on_anothers_unpublished_write_is_mixed_access() {
        let s = ShadowSanitizer::new();
        s.ingest(vec![
            dev(ENTRY, AccessKind::PlainWrite, 0, 0),
            dev(ENTRY, AccessKind::Atomic, 3, 8),
        ]);
        assert_eq!(s.report().mixed_plain_atomic, 1);
    }

    #[test]
    fn device_touch_after_evict_is_flagged_but_host_touch_is_not() {
        let s = ShadowSanitizer::new();
        s.set_iteration(4);
        s.ingest(vec![
            dev(ENTRY, AccessKind::PlainWrite, 0, 0),
            dev(ENTRY, AccessKind::CasPublish, 0, 0),
        ]);
        s.record_host(ShadowAddr::Page(7), AccessKind::Evicted);
        s.record_host(ENTRY, AccessKind::PlainRead); // eviction machinery: fine
        assert_eq!(s.finding_count(), 0);
        s.ingest(vec![dev(ENTRY, AccessKind::PlainRead, 1, 6)]);
        let r = s.report();
        assert_eq!(r.use_after_evict, 1);
        let w = &r.witnesses[0];
        assert_eq!((w.warp, w.lane, w.iteration), (1, 6, 4));
        assert!(w.to_string().contains("use after evict"), "{w}");
    }

    #[test]
    fn host_rebuild_leaves_published_state_behind() {
        let s = ShadowSanitizer::new();
        // Host rewrites a kept entry's links between iterations; device
        // reads and atomics on it next epoch are legal, a plain write not.
        s.record_host(ENTRY, AccessKind::PlainWrite);
        s.ingest(vec![
            dev(ENTRY, AccessKind::PlainRead, 0, 0),
            dev(ENTRY, AccessKind::Atomic, 1, 1),
        ]);
        assert_eq!(s.finding_count(), 0);
        s.ingest(vec![dev(ENTRY, AccessKind::PlainWrite, 2, 2)]);
        assert_eq!(s.report().mixed_plain_atomic, 1);
    }

    #[test]
    fn device_reset_drops_cell_history_but_keeps_evictions() {
        let s = ShadowSanitizer::new();
        // Pre-reset: a published entry and an evicted page.
        s.ingest(vec![
            dev(ENTRY, AccessKind::PlainWrite, 0, 0),
            dev(ENTRY, AccessKind::CasPublish, 0, 0),
        ]);
        s.record_host(ShadowAddr::Page(9), AccessKind::Evicted);
        let events_before = s.report().events_checked;
        s.device_reset();
        // Replaying the insert's plain write to the (previously published)
        // entry is legal on the rebuilt device — no MixedPlainAtomic.
        s.ingest(vec![
            dev(ENTRY, AccessKind::PlainWrite, 0, 0),
            dev(ENTRY, AccessKind::CasPublish, 0, 0),
        ]);
        assert_eq!(s.finding_count(), 0);
        // But a device touch of a page evicted before the reset still fires.
        let gone = ShadowAddr::Entry { page: 9, offset: 0 };
        s.ingest(vec![dev(gone, AccessKind::PlainRead, 1, 1)]);
        assert_eq!(s.report().use_after_evict, 1);
        // Cumulative counters survived the reset.
        assert!(s.report().events_checked > events_before);
    }

    #[test]
    fn witness_list_is_capped_but_counts_are_not() {
        let s = ShadowSanitizer::new();
        let mut events = vec![dev(ENTRY, AccessKind::PlainWrite, 0, 0)];
        for i in 0..20 {
            events.push(dev(ENTRY, AccessKind::PlainWrite, 1 + i, 0));
        }
        s.ingest(events);
        let r = s.report();
        assert_eq!(r.findings_total, 20);
        assert_eq!(r.witnesses.len(), ShadowSanitizer::MAX_WITNESSES);
    }

    /// Negative test (ISSUE 4): a deliberately *broken* bucket-head publish
    /// — warp 0 stores the head with a plain write instead of a CAS — must
    /// be caught when warp 1 reads the same head in the same launch, with a
    /// warp/lane witness. Runs through the real executor so the event path
    /// (lane ctx → warp tally → shard merge → ingest) is the one under test.
    #[test]
    fn broken_bucket_head_publish_is_detected_through_the_executor() {
        let sanitizer = Arc::new(ShadowSanitizer::new());
        let m = Arc::new(Metrics::new());
        let e =
            Executor::new(ExecMode::ParallelDeterministic, m).with_shadow(Arc::clone(&sanitizer));
        // 64 tasks = 2 warps. Warp 0 "publishes" an entry with a plain
        // store to the bucket head; warp 1 loads the head atomically.
        e.launch(64, |lane| {
            let warp_0 = lane.task() < 32;
            if warp_0 {
                lane.access(
                    ShadowAddr::Entry { page: 1, offset: 0 },
                    AccessKind::PlainWrite,
                );
                lane.access(ShadowAddr::BucketHead(0), AccessKind::PlainWrite); // the bug
            } else {
                lane.access(ShadowAddr::BucketHead(0), AccessKind::Atomic);
            }
        });
        let r = sanitizer.report();
        assert!(r.findings_total >= 1, "broken publish must be flagged: {r}");
        assert!(r.mixed_plain_atomic >= 1, "{r}");
        let w = r
            .witnesses
            .iter()
            .find(|w| w.addr == ShadowAddr::BucketHead(0))
            .expect("a bucket-head witness");
        assert_eq!(w.warp, 1, "the atomic reader completes the violation");
        assert!(w.lane < 32);
    }

    #[test]
    fn correct_cas_publish_through_the_executor_is_clean() {
        let sanitizer = Arc::new(ShadowSanitizer::new());
        let m = Arc::new(Metrics::new());
        let e =
            Executor::new(ExecMode::ParallelDeterministic, m).with_shadow(Arc::clone(&sanitizer));
        e.launch(64, |lane| {
            let entry = ShadowAddr::Entry {
                page: 1,
                offset: lane.task() as u32 * 64,
            };
            lane.access(entry, AccessKind::PlainWrite);
            lane.access(ShadowAddr::BucketHead(0), AccessKind::Atomic);
            lane.access(ShadowAddr::BucketHead(0), AccessKind::CasPublish);
            lane.access(entry, AccessKind::CasPublish);
        });
        assert_eq!(sanitizer.finding_count(), 0);
    }

    /// The map-based state machine the dense state replaced, kept as the
    /// oracle: a `HashMap` of cells keyed by address (absent = fresh) and a
    /// `HashSet` of evicted page identities, both only ever growing.
    mod oracle {
        use super::super::*;
        use std::collections::{HashMap, HashSet};

        #[derive(Debug, Clone, Copy)]
        enum CellState {
            Owned { warp: u32, epoch: u64 },
            Published,
        }

        #[derive(Debug)]
        pub struct MapOracle {
            epoch: u64,
            iteration: u32,
            cells: HashMap<ShadowAddr, CellState>,
            evicted: HashSet<u64>,
            report: SanitizerReport,
        }

        impl MapOracle {
            pub fn new() -> Self {
                MapOracle {
                    epoch: 0,
                    iteration: 0,
                    cells: HashMap::new(),
                    evicted: HashSet::new(),
                    report: SanitizerReport {
                        events_checked: 0,
                        findings_total: 0,
                        concurrent_plain: 0,
                        mixed_plain_atomic: 0,
                        use_after_evict: 0,
                        witnesses: Vec::new(),
                    },
                }
            }

            pub fn set_iteration(&mut self, iteration: u32) {
                self.iteration = iteration;
            }

            pub fn ingest(&mut self, events: &[ShadowEvent]) {
                self.epoch += 1;
                for &ev in events {
                    self.apply(ev);
                }
            }

            pub fn record_host(&mut self, addr: ShadowAddr, kind: AccessKind) {
                self.apply(ShadowEvent {
                    addr,
                    kind,
                    warp: HOST_WARP,
                    lane: 0,
                });
            }

            pub fn device_reset(&mut self) {
                self.cells.clear();
            }

            pub fn report(&self) -> SanitizerReport {
                self.report.clone()
            }

            fn finding(&mut self, kind: FindingKind, ev: ShadowEvent, prior: String) {
                let r = &mut self.report;
                r.findings_total += 1;
                match kind {
                    FindingKind::ConcurrentPlainAccess => r.concurrent_plain += 1,
                    FindingKind::MixedPlainAtomic => r.mixed_plain_atomic += 1,
                    FindingKind::UseAfterEvict => r.use_after_evict += 1,
                }
                if r.witnesses.len() < ShadowSanitizer::MAX_WITNESSES {
                    r.witnesses.push(Finding {
                        kind,
                        addr: ev.addr,
                        access: ev.kind,
                        warp: ev.warp,
                        lane: ev.lane,
                        epoch: self.epoch,
                        iteration: self.iteration,
                        prior,
                    });
                }
            }

            fn apply(&mut self, ev: ShadowEvent) {
                self.report.events_checked += 1;
                let host = ev.warp == HOST_WARP;
                if let AccessKind::Evicted = ev.kind {
                    if let Some(p) = ev.addr.page() {
                        self.evicted.insert(p);
                    }
                    return;
                }
                if let Some(p) = ev.addr.page() {
                    if self.evicted.contains(&p) {
                        if !host {
                            let prior = format!("page #{p} was evicted to the host heap");
                            self.finding(FindingKind::UseAfterEvict, ev, prior);
                        }
                        return;
                    }
                }
                if host {
                    self.cells.insert(ev.addr, CellState::Published);
                    return;
                }
                let epoch = self.epoch;
                let held = |warp: u32| {
                    format!("warp {warp} holds an unpublished plain write from this epoch")
                };
                match (ev.kind, self.cells.get(&ev.addr).copied()) {
                    (AccessKind::PlainWrite, Some(CellState::Owned { warp, epoch: e }))
                        if e == epoch && warp != ev.warp =>
                    {
                        self.finding(FindingKind::ConcurrentPlainAccess, ev, held(warp));
                    }
                    (AccessKind::PlainWrite, Some(CellState::Published)) => {
                        let prior = "address was published; published words allow only \
                                     read/atomic access";
                        self.finding(FindingKind::MixedPlainAtomic, ev, prior.to_string());
                    }
                    (AccessKind::PlainWrite, _) => {
                        let owned = CellState::Owned {
                            warp: ev.warp,
                            epoch,
                        };
                        self.cells.insert(ev.addr, owned);
                    }
                    (AccessKind::PlainRead, state) => {
                        if let Some(CellState::Owned { warp, epoch: e }) = state {
                            if e == epoch && warp != ev.warp {
                                self.finding(FindingKind::ConcurrentPlainAccess, ev, held(warp));
                            }
                        }
                    }
                    (AccessKind::Atomic | AccessKind::CasPublish, state) => {
                        if let Some(CellState::Owned { warp, epoch: e }) = state {
                            if e == epoch && warp != ev.warp {
                                self.finding(FindingKind::MixedPlainAtomic, ev, held(warp));
                            }
                        }
                        self.cells.insert(ev.addr, CellState::Published);
                    }
                    (AccessKind::Evicted, _) => unreachable!("handled above"),
                }
            }
        }
    }

    /// One call on the sanitizer's public surface.
    #[derive(Debug, Clone)]
    enum Op {
        Launch(Vec<ShadowEvent>),
        Host(ShadowAddr, AccessKind),
        DeviceReset,
        Iteration(u32),
    }

    fn addr() -> impl Strategy<Value = ShadowAddr> {
        prop_oneof![
            1 => (0u32..3).prop_map(ShadowAddr::BucketHead),
            1 => (0u32..2).prop_map(ShadowAddr::BitmapWord),
            1 => (0u64..3).prop_map(ShadowAddr::HeapCursor),
            3 => (0u64..3, 0u32..4).prop_map(|(page, slot)| ShadowAddr::Entry {
                page,
                offset: slot * 8,
            }),
            1 => (0u64..3).prop_map(ShadowAddr::Page),
        ]
    }

    fn kind() -> impl Strategy<Value = AccessKind> {
        prop_oneof![
            3 => Just(AccessKind::PlainRead),
            3 => Just(AccessKind::PlainWrite),
            3 => Just(AccessKind::Atomic),
            3 => Just(AccessKind::CasPublish),
            1 => Just(AccessKind::Evicted),
        ]
    }

    fn op() -> impl Strategy<Value = Op> {
        let event = (addr(), kind(), 0u32..3, 0u32..WARP_LEVEL_LANE + 1)
            .prop_map(|(addr, kind, warp, lane)| dev(addr, kind, warp, lane));
        prop_oneof![
            6 => proptest::collection::vec(event, 0..12).prop_map(Op::Launch),
            3 => (addr(), kind()).prop_map(|(addr, kind)| Op::Host(addr, kind)),
            1 => Just(Op::DeviceReset),
            1 => (0u32..4).prop_map(Op::Iteration),
        ]
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The dense, eviction-scoped state and the map-based oracle agree
        /// on every report — counts, `events_checked`, and witnesses with
        /// their `prior` text, in order — after every call.
        #[test]
        fn dense_state_matches_the_map_oracle(ops in proptest::collection::vec(op(), 1..60)) {
            let s = ShadowSanitizer::new();
            let mut oracle = oracle::MapOracle::new();
            for op in ops {
                match op {
                    Op::Launch(events) => {
                        oracle.ingest(&events);
                        s.ingest(events);
                    }
                    Op::Host(addr, kind) => {
                        oracle.record_host(addr, kind);
                        s.record_host(addr, kind);
                    }
                    Op::DeviceReset => {
                        oracle.device_reset();
                        s.device_reset();
                    }
                    Op::Iteration(i) => {
                        oracle.set_iteration(i);
                        s.set_iteration(i);
                    }
                }
                prop_assert_eq!(s.report(), oracle.report());
            }
        }
    }

    /// Write and publish `entries` entries on each of `pages`, one launch
    /// per page, through the canonical insert discipline.
    fn fill_pages(s: &ShadowSanitizer, pages: std::ops::Range<u64>, entries: u32) {
        for page in pages {
            let mut events = vec![dev(ShadowAddr::HeapCursor(page), AccessKind::Atomic, 0, 0)];
            for e in 0..entries {
                let entry = ShadowAddr::Entry {
                    page,
                    offset: e * 48,
                };
                let head = ShadowAddr::BucketHead(e);
                events.extend([
                    dev(entry, AccessKind::PlainWrite, e, 1),
                    dev(head, AccessKind::Atomic, e, 1),
                    dev(head, AccessKind::CasPublish, e, 1),
                    dev(entry, AccessKind::CasPublish, e, 1),
                ]);
            }
            s.ingest(events);
        }
    }

    #[test]
    fn evicted_pages_release_their_cells_but_stay_evicted() {
        const PAGES: u64 = 64;
        const RESIDENT: u64 = 4;
        const ENTRIES: u32 = 16;
        let s = ShadowSanitizer::new();
        fill_pages(&s, 0..PAGES, ENTRIES);
        let full = s.live_cells();
        assert!(full > (PAGES * u64::from(ENTRIES)) as usize, "{full}");
        for page in RESIDENT..PAGES {
            s.record_host(ShadowAddr::Page(page), AccessKind::Evicted);
        }
        // Only the resident pages' cells (and the bucket heads) remain:
        // exactly what a run that never saw the evicted pages holds.
        let resident_only = ShadowSanitizer::new();
        fill_pages(&resident_only, 0..RESIDENT, ENTRIES);
        assert_eq!(s.live_cells(), resident_only.live_cells());
        assert!(s.live_cells() * 8 < full);
        assert_eq!(s.finding_count(), 0);

        // A later device touch of an evicted page is still caught.
        s.set_iteration(5);
        let gone = ShadowAddr::Entry {
            page: PAGES - 1,
            offset: 48,
        };
        s.ingest(vec![dev(gone, AccessKind::PlainRead, 3, 17)]);
        let r = s.report();
        assert_eq!(r.use_after_evict, 1);
        let w = &r.witnesses[0];
        assert_eq!((w.warp, w.lane, w.iteration), (3, 17, 5));
        assert_eq!(
            w.prior,
            format!("page #{} was evicted to the host heap", PAGES - 1)
        );
        // Touching it allocated nothing.
        assert_eq!(s.live_cells(), resident_only.live_cells());
    }

    #[test]
    fn a_warp_that_panics_before_retiring_declares_nothing() {
        let sanitizer = Arc::new(ShadowSanitizer::new());
        let m = Arc::new(Metrics::new());
        let e =
            Executor::new(ExecMode::ParallelDeterministic, m).with_shadow(Arc::clone(&sanitizer));
        // Warp 0 retires; warp 1's third lane panics after its first three
        // lanes declared, so only warp 0's 32 accesses reach the sanitizer.
        let err = e.try_launch(96, |lane| {
            lane.access(ShadowAddr::BitmapWord(0), AccessKind::Atomic);
            if lane.task() == 34 {
                panic!("lane 34 died");
            }
        });
        assert!(err.is_err());
        assert_eq!(sanitizer.report().events_checked, 32);
    }

    #[test]
    fn launch_buffers_keep_their_capacity() {
        let sanitizer = Arc::new(ShadowSanitizer::new());
        let m = Arc::new(Metrics::new());
        let e =
            Executor::new(ExecMode::ParallelDeterministic, m).with_shadow(Arc::clone(&sanitizer));
        let kernel = |lane: &mut crate::executor::LaneCtx<'_>| {
            lane.access(ShadowAddr::BitmapWord(0), AccessKind::Atomic);
        };
        e.launch(1_000, kernel);
        // After a settle, the launch's buffer is back, emptied, with its
        // capacity.
        assert_eq!(sanitizer.report().events_checked, 1_000);
        let lent = sanitizer.lend_buffers(1);
        let capacity = lent[0].capacity();
        assert!(lent[0].is_empty() && capacity >= 1_000, "{capacity}");
        sanitizer.ingest_buffers(lent);

        // The executor's cycle — lend at launch start, hand back at
        // retirement — allocates at most two buffer sets over 10 launches:
        // one filling, one still replaying. A fresh buffer has no capacity.
        let mut fresh = 0;
        for _ in 0..10 {
            let mut lent = sanitizer.lend_buffers(1);
            assert!(lent[0].is_empty());
            fresh += usize::from(lent[0].capacity() == 0);
            lent[0].resize(
                1_000,
                dev(ShadowAddr::BitmapWord(0), AccessKind::Atomic, 0, 0),
            );
            sanitizer.ingest_buffers(lent);
        }
        assert!(fresh <= 1, "{fresh} buffer sets allocated beyond the first");
        assert_eq!(sanitizer.report().events_checked, 11_000);
    }
}
