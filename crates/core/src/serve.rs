//! Online serving layer: epoch-snapshot point lookups and grouped scans
//! answered *while* SEPO iterations run.
//!
//! The SEPO driver is batch at heart — iterations of insert kernels,
//! iteration-boundary eviction, `finalize()`, then offline collection. The
//! paper's §IV-C "mental exercise" (millions of users hitting the table
//! under heavy traffic) needs a concurrent read path. The scheme here:
//!
//! - **Epochs.** At every quiescent iteration boundary (after all launches
//!   of the iteration retired, before the boundary's own eviction) the
//!   driver publishes an [`EpochSnapshot`] through the [`EpochPublisher`]
//!   wired into [`crate::DriverConfig::serving`]. It holds the bucket-head
//!   words and one image of each resident page, shared behind `Arc`; the
//!   boundary's eviction stores the `Mixed` and `Value` images as their
//!   host pages instead of copying those pages again.
//! - **Device-resident probes.** [`EpochSnapshot::batch_get`] dedups the
//!   batch, charges one bulk PCIe upload, and walks the snapshot's bucket
//!   chains with the live table's chain walker, in a batched kernel
//!   launched through a caller-supplied [`Executor`] — so lane accounting,
//!   deterministic scheduling, and seeded fault injection all apply.
//! - **Host fallthrough.** Keys (or partial aggregates) evicted to the
//!   host heap are answered from an incremental [`HostStore`] index that
//!   absorbs evicted pages as boundaries land them — no `finalize()`
//!   required. Every epoch carries a *watermark*: host entries indexed at
//!   or after it are invisible, so a reader pinned to epoch N never sees a
//!   partially applied later iteration. A key's several host entries
//!   resolve through the index's one fold, the fold host compaction
//!   ([`crate::compact`]) packs each key from. The finalized epoch reads
//!   the same index, which took the final flush before compaction replaced
//!   those pages, and the index built in one go by
//!   [`HostStore::of_finalized`] is the offline read path (`sepo query`).
//!
//! Reads never touch the live table: the driver's final image, iteration
//! trajectory, and metrics are byte-identical with serving on or off
//! (serving charges land on the serving executor's own metrics). Snapshot
//! capture is charged no simulated time: for `Mixed` and `Value` pages it
//! is the boundary eviction's own transfer, taken early.
//!
//! This module also owns [`QueryError`], the typed error surface shared
//! with the offline query paths (the collectors, the lookup phase).

use crate::chain::{self, ChainPages};
use crate::config::{Combiner, Organization};
use crate::entry::{combining, key_entry, value_node, ParsedEntry};
use crate::hash::{fnv1a, KeyMap};
use crate::results::{primary_entries, walk_value_chain};
use crate::table::SepoTable;
use gpu_sim::charge::{Charge, MetricsCharge, NoCharge, LINK_BYTES};
use gpu_sim::executor::Executor;
use gpu_sim::metrics::Counter;
use gpu_sim::sync::Relaxed;
use parking_lot::{Mutex, RwLock};
use sepo_alloc::{CorruptPage, DevHandle, HostLink, Link, ResidentPage, StampedPage, VerifiedPage};
use std::collections::HashMap;
use std::fmt;
use std::ops::ControlFlow;
use std::sync::Arc;

/// Typed errors for the query paths (serving, offline [`HostStore`] reads,
/// the SEPO lookup phase). Replaces the aborts the seed code used.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryError {
    /// The operation requires a finalized table (all pages evicted); the
    /// table still has resident pages that the host walk would miss.
    NotFinalized,
    /// The table's organization does not support this operation.
    WrongOrganization {
        expected: &'static str,
        actual: &'static str,
    },
    /// The query batch exceeds what the path can address.
    BatchTooLarge { len: usize, max: usize },
    /// A host-resident page failed checksum verification when a query
    /// path tried to read it (silent corruption caught at the read).
    CorruptPage {
        /// The serving epoch that hit the page; `None` for offline paths
        /// (finalized-table reads, the lookup phase).
        epoch: Option<u32>,
        /// Host id of the page whose bytes no longer match their stamp.
        host_id: u64,
    },
    /// A serving batch still had unresolved probe slots after `launches`
    /// launches: the serving executor's fault plan aborts every lane or
    /// kills every launch.
    ProbeExhausted {
        /// The serving epoch the batch read.
        epoch: u32,
        /// The probe launches spent: the serving layer's budget of 10,000.
        launches: u32,
    },
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::NotFinalized => write!(
                f,
                "table is not finalized: resident pages would be missed (run finalize() first)"
            ),
            QueryError::WrongOrganization { expected, actual } => {
                write!(f, "operation requires a {expected} table, got {actual}")
            }
            QueryError::BatchTooLarge { len, max } => {
                write!(f, "query batch of {len} exceeds the maximum of {max}")
            }
            QueryError::CorruptPage {
                epoch: Some(e),
                host_id,
            } => {
                write!(
                    f,
                    "epoch {e}: host page {host_id} failed checksum verification"
                )
            }
            QueryError::CorruptPage {
                epoch: None,
                host_id,
            } => write!(f, "host page {host_id} failed checksum verification"),
            QueryError::ProbeExhausted { epoch, launches } => write!(
                f,
                "epoch {epoch}: serving probe left slots unresolved after {launches} launches \
                 (the fault plan aborts every lane or kills every launch)"
            ),
        }
    }
}

impl std::error::Error for QueryError {}

impl From<CorruptPage> for QueryError {
    fn from(e: CorruptPage) -> QueryError {
        QueryError::CorruptPage {
            epoch: None,
            host_id: e.host_id,
        }
    }
}

impl QueryError {
    /// Stamp a serving epoch onto a [`QueryError::CorruptPage`] raised by
    /// the shared host-store internals (which do not know which epoch is
    /// reading).
    pub(crate) fn at_epoch(self, epoch: u32) -> QueryError {
        match self {
            QueryError::CorruptPage { host_id, .. } => QueryError::CorruptPage {
                epoch: Some(epoch),
                host_id,
            },
            other => other,
        }
    }
}

impl Organization {
    /// The combiner of a combining table; the typed refusal of a point
    /// lookup against any other organization.
    pub(crate) fn combiner(self) -> Result<Combiner, QueryError> {
        match self {
            Organization::Combining(c) => Ok(c),
            other => Err(QueryError::WrongOrganization {
                expected: "combining",
                actual: other.label(),
            }),
        }
    }

    /// The typed refusal of a grouped scan against anything but a
    /// multi-valued table.
    pub(crate) fn require_multivalued(self) -> Result<(), QueryError> {
        match self {
            Organization::MultiValued => Ok(()),
            other => Err(QueryError::WrongOrganization {
                expected: "multi-valued",
                actual: other.label(),
            }),
        }
    }
}

/// Guard a batch length against a path's addressing capacity.
pub(crate) fn ensure_batch_fits(len: usize, max: usize) -> Result<(), QueryError> {
    if len > max {
        return Err(QueryError::BatchTooLarge { len, max });
    }
    Ok(())
}

/// Maximum queries per [`EpochSnapshot::batch_get`] or
/// [`EpochSnapshot::batch_get_grouped`] call.
pub const MAX_BATCH: usize = 1 << 16;

/// Upper bound on probe launches per batch before the serving layer
/// concludes the fault plan is pathological and fails the batch with
/// [`QueryError::ProbeExhausted`].
const MAX_PROBE_ROUNDS: u32 = 10_000;

/// Result-word encoding for the probe kernel: bit 63 marks the slot
/// resolved, bit 62 marks the key found resident; the low 62 bits carry
/// the value. (The offline lookup phase affords 63 value bits; serving
/// spends one more on the resolved flag so aborted lanes can be retried.)
const PROBE_DONE: u64 = 1 << 63;
const PROBE_FOUND: u64 = 1 << 62;
const PROBE_VALUE_MASK: u64 = PROBE_FOUND - 1;

/// Per-unique-slot output of the grouped probe kernel: the resident
/// slice of the group plus the host-linked continuation to stitch on.
type GroupProbeSlot = Mutex<Option<(Vec<Vec<u8>>, HostLink)>>;

/// A consistent, immutable view of the table at one iteration boundary.
///
/// Holding an `Arc<EpochSnapshot>` pins the epoch: reads against it keep
/// answering from iteration N's state no matter how far the live run has
/// advanced. Snapshots are cheap to hold — resident pages are shared
/// buffers (the boundary's eviction stores the same buffers as its host
/// pages), host pages are shared with the incremental host index.
pub struct EpochSnapshot {
    iteration: u32,
    finalized: bool,
    organization: Organization,
    /// Raw bucket-head words, one per bucket (as in the live table).
    heads: Vec<u64>,
    /// The boundary's resident pages, in page order: each one's host
    /// identity at capture (the liveness token every link is
    /// checked against) and its used prefix.
    pages: Vec<ResidentPage>,
    /// The shared incremental host index.
    host: Arc<HostStore>,
    /// Host entries with sequence `< watermark` are visible to this epoch.
    watermark: u64,
}

impl fmt::Debug for EpochSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EpochSnapshot")
            .field("iteration", &self.iteration)
            .field("finalized", &self.finalized)
            .field("resident_pages", &self.pages.len())
            .field("watermark", &self.watermark)
            .finish()
    }
}

impl EpochSnapshot {
    /// The iteration boundary this snapshot was taken at (0 = before the
    /// first iteration).
    pub fn iteration(&self) -> u32 {
        self.iteration
    }

    /// True for the snapshot published after `finalize()` — every entry is
    /// on the host and the resident probe is a no-op.
    pub fn finalized(&self) -> bool {
        self.finalized
    }

    /// The table organization this epoch serves.
    pub fn organization(&self) -> Organization {
        self.organization
    }

    /// Host-index watermark: entries indexed at or after it are invisible.
    pub fn watermark(&self) -> u64 {
        self.watermark
    }

    /// The resident page images this epoch captured, in page order.
    pub(crate) fn resident(&self) -> &[ResidentPage] {
        &self.pages
    }

    fn page(&self, index: u32) -> Option<&ResidentPage> {
        let at = self.pages.binary_search_by_key(&index, |p| p.index);
        at.ok().map(|i| &self.pages[i])
    }

    /// The resident entry of `key`, after pricing the bucket-head read.
    fn probe_entry<C: Charge>(&self, key: &[u8], charge: &mut C) -> Option<DevHandle> {
        let (bucket, lens) = chain::place(key, fnv1a(key), self.heads.len());
        charge.device_bytes(8);
        let kind = self.organization.primary_layout().0;
        chain::find(self, self.heads[bucket], kind, key, lens, charge)
    }

    /// Resident partial aggregate for `key` (combining epochs).
    fn probe_combining<C: Charge>(&self, key: &[u8], charge: &mut C) -> Option<u64> {
        let e = self.probe_entry(key, charge)?;
        charge.device_bytes(8);
        self.word(e, combining::VALUE)
    }

    /// Resident portion of a multi-valued group: the values still on the
    /// device plus the host link where the chain continues off-device. A
    /// value node costs its hop, its length word and its value bytes.
    fn probe_grouped<C: Charge>(
        &self,
        key: &[u8],
        charge: &mut C,
    ) -> Option<(Vec<Vec<u8>>, HostLink)> {
        let k = self.probe_entry(key, charge)?;
        charge.device_bytes(LINK_BYTES);
        let head = self.word(k, key_entry::VALUE_HEAD)?;
        let mut values = Vec::new();
        let walked = chain::walk(self, head, charge, |node, charge| {
            let vlen = self.word(node, value_node::VLEN).map(|w| w & 0xFFFF_FFFF);
            let value = vlen.and_then(|n| self.bytes(node, value_node::VALUE, n as usize));
            let Some(value) = value else {
                return ControlFlow::Break(());
            };
            charge.device_bytes(8 + value.len() as u64);
            values.push(value.to_vec());
            ControlFlow::Continue(())
        });
        Some((values, walked.continue_value()?))
    }

    /// Deduplicate a batch: returns the unique key list and, per original
    /// query, the index of its unique representative. This is the serving
    /// analogue of the lookup phase's pending filter — duplicate keys in
    /// one batch resolve to one probe and therefore one combined answer.
    fn dedup<'q>(queries: &[&'q [u8]]) -> (Vec<&'q [u8]>, Vec<usize>) {
        let mut unique: Vec<&[u8]> = Vec::new();
        let mut index_of: HashMap<&[u8], usize> = HashMap::new();
        let mut slot_of = Vec::with_capacity(queries.len());
        for &q in queries {
            let u = *index_of.entry(q).or_insert_with(|| {
                unique.push(q);
                unique.len() - 1
            });
            slot_of.push(u);
        }
        (unique, slot_of)
    }

    /// Launch the probe kernel over `unique` keys through `executor`,
    /// retrying lanes aborted by transient faults and launches killed by
    /// hard faults until every slot resolves, or fails with
    /// [`QueryError::ProbeExhausted`] after [`MAX_PROBE_ROUNDS`] launches.
    /// `probe` must store a [`PROBE_DONE`]-tagged word into its slot.
    fn launch_probe<F>(
        &self,
        executor: &Executor,
        n_unique: usize,
        probe: F,
    ) -> Result<Vec<u64>, QueryError>
    where
        F: Fn(usize, &mut gpu_sim::executor::LaneCtx<'_>) -> u64 + Sync,
    {
        let results: Vec<Relaxed<u64>> = (0..n_unique).map(|_| Relaxed::new(0)).collect();
        let mut pending: Vec<u32> = (0..n_unique as u32).collect();
        let mut launches = 0;
        while !pending.is_empty() {
            if launches == MAX_PROBE_ROUNDS {
                return Err(QueryError::ProbeExhausted {
                    epoch: self.iteration,
                    launches,
                });
            }
            launches += 1;
            let launch = executor.try_launch(pending.len(), |lane| {
                let u = pending[lane.task()] as usize;
                let word = probe(u, lane);
                debug_assert!(word & PROBE_DONE != 0);
                results[u].set(word);
            });
            match launch {
                // Aborted lanes never ran: their slots stay unresolved and
                // are relaunched next round.
                Ok(_) => pending.retain(|&u| results[u as usize].get() & PROBE_DONE == 0),
                // A hard fault kills the launch before any lane runs; the
                // serving layer simply re-issues the whole batch.
                Err(e) if e.hard_fault().is_some() => {}
                Err(e) => std::panic::resume_unwind(e.into_panic()),
            }
        }
        Ok(results.iter().map(Relaxed::get).collect())
    }

    /// Answer a batch of point lookups against this epoch (combining
    /// tables): the batched probe kernel resolves device-resident partials,
    /// host-evicted partials fall through to the incremental host index,
    /// and the two sides merge through the table's combiner. Duplicate keys
    /// in the batch resolve to one probe — and one identical answer.
    pub fn batch_get(
        &self,
        executor: &Executor,
        queries: &[&[u8]],
    ) -> Result<Vec<Option<u64>>, QueryError> {
        let comb = self.organization.combiner()?;
        ensure_batch_fits(queries.len(), MAX_BATCH)?;
        self.ensure_host_intact()?;
        if queries.is_empty() {
            return Ok(Vec::new());
        }
        let (unique, slot_of) = Self::dedup(queries);
        self.charge_upload(executor, &unique);
        let words = self.launch_probe(executor, unique.len(), |u, lane| {
            let key = unique[u];
            lane.compute(40 + key.len() as u64);
            match self.probe_combining(key, lane) {
                Some(v) => {
                    assert!(
                        v <= PROBE_VALUE_MASK,
                        "serving restricts combining values to 62 bits"
                    );
                    PROBE_DONE | PROBE_FOUND | v
                }
                None => PROBE_DONE,
            }
        })?;
        self.charge_bulk(executor, unique.len() as u64 * 8);
        let mut host_bytes = 0u64;
        let mut merged: Vec<Option<u64>> = Vec::with_capacity(unique.len());
        let index = self.host.inner.read();
        for (key, &word) in unique.iter().zip(&words) {
            let dev = (word & PROBE_FOUND != 0).then_some(word & PROBE_VALUE_MASK);
            let host = index.words_under(key, self.watermark).and_then(|words| {
                host_bytes += self.entry_bytes(&words);
                HostIndex::combine(&words, comb)
            });
            merged.push(match (dev, host) {
                (Some(d), Some(h)) => Some(comb.apply(d, h)),
                (d, h) => d.or(h),
            });
        }
        self.charge_host_reads(executor, host_bytes);
        Ok(slot_of.into_iter().map(|u| merged[u]).collect())
    }

    /// Answer a batch of grouped scans against this epoch (multi-valued
    /// tables): the probe kernel collects the resident slice of each group,
    /// then the CPU side stitches on the host-linked continuation chain and
    /// any host-indexed key entries visible below the watermark. Value
    /// order follows chain order (newest first), matching the collectors.
    pub fn batch_get_grouped(
        &self,
        executor: &Executor,
        queries: &[&[u8]],
    ) -> Result<Vec<Option<Vec<Vec<u8>>>>, QueryError> {
        self.organization.require_multivalued()?;
        ensure_batch_fits(queries.len(), MAX_BATCH)?;
        self.ensure_host_intact()?;
        if queries.is_empty() {
            return Ok(Vec::new());
        }
        let (unique, slot_of) = Self::dedup(queries);
        self.charge_upload(executor, &unique);
        // Per-unique-slot resident probe results; each lane writes only its
        // own slot, so parallel scheduling stays deterministic.
        let resident: Vec<GroupProbeSlot> = (0..unique.len()).map(|_| Mutex::new(None)).collect();
        self.launch_probe(executor, unique.len(), |u, lane| {
            let key = unique[u];
            lane.compute(40 + key.len() as u64);
            *resident[u].lock() = self.probe_grouped(key, lane);
            PROBE_DONE
        })?;
        let mut host_bytes = 0u64;
        let mut down_bytes = 0u64;
        let mut merged: Vec<Option<Vec<Vec<u8>>>> = Vec::with_capacity(unique.len());
        let index = self.host.inner.read();
        let at_epoch = |e: CorruptPage| QueryError::from(e).at_epoch(self.iteration);
        let mut host_tail = Vec::new();
        for (key, slot) in unique.iter().zip(&resident) {
            host_tail.clear();
            if let Some(words) = index.words_under(key, self.watermark) {
                host_bytes += self.entry_bytes(&words);
                let tail = |v| host_tail.push(v);
                index
                    .values(&words, &mut host_bytes, tail)
                    .map_err(at_epoch)?;
            }
            // Not resident: the whole group (if any) lives on the host side.
            let (mut values, cont) = slot.lock().take().unwrap_or((Vec::new(), HostLink::NULL));
            let walked = index.walk(cont, &mut host_bytes, |v| values.push(v.to_vec()));
            walked.map_err(at_epoch)?;
            values.extend(host_tail.iter().map(|v| v.to_vec()));
            down_bytes += values.iter().map(|v| v.len() as u64 + 8).sum::<u64>();
            merged.push((!values.is_empty()).then_some(values));
        }
        self.charge_bulk(executor, down_bytes.max(unique.len() as u64 * 8));
        self.charge_host_reads(executor, host_bytes);
        Ok(slot_of.into_iter().map(|u| merged[u].clone()).collect())
    }

    /// Every key visible at this epoch — resident chain walk plus host
    /// index below the watermark — sorted and deduplicated. Harness
    /// support for oracles and query-load generation; the serving data
    /// path itself goes through [`EpochSnapshot::batch_get`].
    pub fn visible_keys(&self) -> Vec<Vec<u8>> {
        let (klen_field, key_field) = self.organization.primary_layout().0.key_fields();
        let mut keys: Vec<Vec<u8>> = Vec::new();
        for &head in self.heads.iter() {
            let _ = chain::walk(self, head, &mut NoCharge, |e, _| {
                let klen = self.word(e, klen_field).map(|lens| lens & 0xFFFF_FFFF);
                let key = klen.and_then(|n| self.bytes(e, key_field, n as usize));
                keys.extend(key.map(<[u8]>::to_vec));
                ControlFlow::<()>::Continue(())
            });
        }
        keys.extend(self.host.keys_under(self.watermark));
        keys.sort();
        keys.dedup();
        keys
    }

    /// Fail the batch typed when this epoch's watermark covers a host
    /// page that was quarantined at absorption: the page's entries are
    /// invisible to the index, so any answer could silently miss data.
    fn ensure_host_intact(&self) -> Result<(), QueryError> {
        let intact = self.host.inner.read().intact_under(self.watermark);
        intact.map_err(|e| QueryError::from(e).at_epoch(self.iteration))
    }

    /// Host-read bytes of a key's visible entries, given by their `words`:
    /// each entry's word, or one for the finalized epoch, which answers
    /// what compaction packed — one entry per key.
    fn entry_bytes(&self, words: &[u64]) -> u64 {
        let read = words.len().min(if self.finalized { 1 } else { usize::MAX });
        8 * read as u64
    }

    /// One bulk PCIe upload for the deduplicated key batch.
    fn charge_upload(&self, executor: &Executor, unique: &[&[u8]]) {
        let req_bytes: u64 = unique.iter().map(|k| k.len() as u64 + 8).sum();
        self.charge_bulk(executor, req_bytes);
    }

    /// One bulk PCIe transfer of `bytes` (a batch upload or the result
    /// download), charged on the serving executor's metrics — never the
    /// driver's.
    fn charge_bulk(&self, executor: &Executor, bytes: u64) {
        let mut bus = MetricsCharge(executor.metrics());
        bus.add(Counter::PcieBulkTransfers, 1);
        bus.add(Counter::PcieBulkBytes, bytes);
    }

    /// CPU-side traffic of the host-index fallthrough.
    fn charge_host_reads(&self, executor: &Executor, bytes: u64) {
        if bytes > 0 {
            MetricsCharge(executor.metrics()).add(Counter::StreamBytes, bytes);
        }
    }
}

/// An epoch's captured pages as a chain-walk page source: device traffic, and
/// no sanitizer declarations for this immutable host-side copy.
impl ChainPages for EpochSnapshot {
    fn host_id(&self, page: u32) -> Option<u64> {
        self.page(page).map(|p| p.host_id)
    }

    fn bytes(&self, e: DevHandle, field: u32, len: usize) -> Option<&[u8]> {
        let off = (e.offset() + field) as usize;
        self.page(e.page())?.data.get(off..off + len)
    }
}

/// One indexed host entry.
#[derive(Debug, Clone, Copy)]
struct HostEntryRef {
    /// Index-order sequence number; visible to an epoch iff `< watermark`.
    seq: u32,
    /// The same key's entry before it in index order, or [`NO_REF`].
    prev: u32,
    /// The word the fold reads, copied at absorption: a combining entry's
    /// partial aggregate, a key entry's value-head link (host-only).
    word: u64,
}

const NO_REF: u32 = u32::MAX;

/// The key index over absorbed host pages, and the one fold of a key's
/// several host entries ([`HostIndex::combine`], [`HostIndex::values`]).
#[derive(Default)]
pub(crate) struct HostIndex {
    /// Organization of the table being indexed (set at first absorption).
    organization: Option<Organization>,
    next_seq: u32,
    /// Per key: its first and last entry in `refs`.
    keys: KeyMap<(u32, u32)>,
    /// Every indexed entry; one key's entries chain back from its last.
    refs: Vec<HostEntryRef>,
    /// The absorbed page images, verified once at absorption. They share
    /// the evicted buffers, and an epoch's host reads are isolated from
    /// anything the live host heap does afterwards. Pages are immutable
    /// once evicted — a kept page evicted again with more content leaves
    /// under a *new* host id — so an id seen once is never re-read.
    pages: HashMap<u64, VerifiedPage>,
    /// Pages whose bytes failed checksum verification at absorption,
    /// with the sequence number they consumed. They are never indexed;
    /// any epoch whose watermark covers one fails its batches with
    /// [`QueryError::CorruptPage`] instead of silently dropping the
    /// page's entries from answers.
    corrupt: HashMap<u64, u32>,
}

impl HostIndex {
    /// Index `pages`, a finalized host image in host-id order; refuses the
    /// lowest damaged host id.
    pub(crate) fn of_image(
        org: Organization,
        pages: &[StampedPage],
    ) -> Result<HostIndex, CorruptPage> {
        let mut index = HostIndex::default();
        let watermark = index.absorb(org, pages);
        index.intact_under(watermark)?;
        Ok(index)
    }

    /// Absorb every page of `pages` (ascending host id) not indexed yet, in
    /// that order, and return the new watermark.
    fn absorb(&mut self, org: Organization, pages: &[StampedPage]) -> u64 {
        self.organization = Some(org);
        for page in pages {
            let host_id = page.host_id();
            if self.pages.contains_key(&host_id) || self.corrupt.contains_key(&host_id) {
                continue;
            }
            let seq = self.next_seq;
            self.next_seq += 1;
            let Ok(page) = page.verify() else {
                // The page's bytes no longer match the stamp they were
                // evicted with: quarantine rather than index damaged
                // data. It still consumes a sequence number, so epochs
                // published *before* this boundary stay readable.
                self.corrupt.insert(host_id, seq);
                continue;
            };
            for (_, parsed) in primary_entries(org, &page) {
                let (key, word) = match parsed {
                    ParsedEntry::Combining { key, value } => (key, value),
                    ParsedEntry::Key { key, value_head } => {
                        (key, Link::host_only(value_head).to_raw())
                    }
                    // Nothing folds a basic table's entries.
                    ParsedEntry::Basic { key, .. } => (key, 0),
                    ParsedEntry::Value { .. } => continue,
                };
                self.add_ref(key, seq, word);
            }
            self.pages.insert(host_id, page);
        }
        u64::from(self.next_seq)
    }

    fn add_ref(&mut self, key: &[u8], seq: u32, word: u64) {
        let (r, mut prev) = (self.refs.len() as u32, NO_REF);
        let update = |(_, last): &mut (u32, u32)| prev = std::mem::replace(last, r);
        self.keys.upsert(key, || (r, r), update);
        self.refs.push(HostEntryRef { seq, prev, word });
    }

    /// Distinct keys indexed.
    pub(crate) fn len(&self) -> usize {
        self.keys.len()
    }

    /// Host entries indexed.
    pub(crate) fn entries(&self) -> usize {
        self.refs.len()
    }

    /// Bytes of the indexed pages.
    pub(crate) fn page_bytes(&self) -> u64 {
        self.pages.values().map(|p| p.bytes().len() as u64).sum()
    }

    /// Every key, in the order of its first entry, with its last entry.
    pub(crate) fn keys(&self) -> impl Iterator<Item = (&[u8], u32)> + '_ {
        self.keys.iter().map(|(key, &(_, last))| (key, last))
    }

    /// The words of the entries from `last` back — one key's — below
    /// `watermark`, in index order, into `words`.
    pub(crate) fn words(&self, last: u32, watermark: u64, words: &mut Vec<u64>) {
        words.clear();
        let mut at = last;
        while let Some(r) = self.refs.get(at as usize) {
            if u64::from(r.seq) < watermark {
                words.push(r.word);
            }
            at = r.prev;
        }
        words.reverse();
    }

    /// `key`'s entry words below `watermark`, in index order; `None` for a
    /// key never indexed.
    fn words_under(&self, key: &[u8], watermark: u64) -> Option<Vec<u64>> {
        let &(_, last) = self.keys.get(key)?;
        let mut words = Vec::new();
        self.words(last, watermark, &mut words);
        Some(words)
    }

    /// The fold of a combining key's entries, given by their `words` in
    /// index order: the partial aggregates through `comb`.
    pub(crate) fn combine(words: &[u64], comb: Combiner) -> Option<u64> {
        words.iter().copied().reduce(|a, v| comb.apply(a, v))
    }

    /// The fold of a multi-valued key's entries, given by their `words` in
    /// index order: each entry's host-linked value chain, newest first,
    /// one after another, handed to `visit`. `bytes` accumulates the
    /// simulated CPU-side read traffic of the chains.
    pub(crate) fn values<'p>(
        &'p self,
        words: &[u64],
        bytes: &mut u64,
        mut visit: impl FnMut(&'p [u8]),
    ) -> Result<(), CorruptPage> {
        for &word in words {
            self.walk(Link::from_raw(word).host(), bytes, &mut visit)?;
        }
        Ok(())
    }

    /// Hand the host-linked value chain starting at `link` to `visit`.
    /// Pages a visible entry's chain references were evicted at the same
    /// boundary or earlier, so they are always absorbed by the time any
    /// epoch can see the entry; a quarantined page is not among them, so a
    /// chain crossing into one fails typed rather than truncating.
    fn walk<'p>(
        &'p self,
        link: HostLink,
        bytes: &mut u64,
        mut visit: impl FnMut(&'p [u8]),
    ) -> Result<(), CorruptPage> {
        walk_value_chain(
            link,
            |id| self.pages.get(&id),
            |value| {
                *bytes += (value_node::HEADER + value.len()) as u64;
                visit(value)
            },
        )
    }

    /// Refuses with the lowest-id corrupt page an epoch with `watermark`
    /// can see, if any.
    fn intact_under(&self, watermark: u64) -> Result<(), CorruptPage> {
        let visible = self.corrupt.iter();
        let visible = visible.filter(|(_, &seq)| u64::from(seq) < watermark);
        match visible.map(|(&host_id, _)| host_id).min() {
            Some(host_id) => Err(CorruptPage { host_id }),
            None => Ok(()),
        }
    }
}

/// The one host-side key index: key → every evicted entry stored under
/// it, over verified page images. The serving path grows it
/// incrementally — the publisher absorbs evicted pages at each iteration
/// boundary, and sequence numbers assigned in absorption order let each
/// epoch see exactly the entries that existed at its boundary
/// (`seq < watermark`). Offline readers index a finalized table in one go
/// with [`HostStore::of_finalized`] and see everything.
///
/// A key can own entries from several SEPO iterations. Every reader
/// resolves them through one fold: combining partials merge through the
/// table's combiner, and multi-valued chains concatenate in host-link
/// order, each newest first. In-run epochs fold at query time; host
/// compaction ([`crate::compact`]) packs each key's fold from the same
/// index, so a finalized table holds one entry per key.
pub struct HostStore {
    inner: RwLock<HostIndex>,
}

impl fmt::Debug for HostStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.read();
        f.debug_struct("HostStore")
            .field("pages", &inner.pages.len())
            .field("keys", &inner.keys.len())
            .field("next_seq", &inner.next_seq)
            .finish()
    }
}

impl HostStore {
    fn new() -> Self {
        HostStore {
            inner: RwLock::new(HostIndex::default()),
        }
    }

    /// Index a finalized table's whole host image — the CPU side of the
    /// paper's "eventually accessible from both CPU and GPU sides"
    /// (§III-B), serving point and grouped lookups straight from the
    /// evicted pages. Returns [`QueryError::NotFinalized`] while the table
    /// still has resident pages (the host walk would silently miss them)
    /// and [`QueryError::CorruptPage`] when a host page's bytes no longer
    /// match the stamp it was evicted with.
    pub fn of_finalized(table: &SepoTable) -> Result<HostStore, QueryError> {
        table.ensure_finalized()?;
        let org = table.config().organization;
        let index = HostIndex::of_image(org, &table.host_heap().pages())?;
        Ok(HostStore {
            inner: RwLock::new(index),
        })
    }

    /// Distinct keys indexed.
    pub fn len(&self) -> usize {
        self.inner.read().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Organization of the indexed table. Every `HostStore` handed out
    /// (or read through an epoch) has absorbed its table at least once.
    fn organization(&self) -> Organization {
        let org = self.inner.read().organization;
        org.expect("a HostStore is read only after its first absorption")
    }

    /// Combined value of `key` over everything indexed (combining tables):
    /// partial aggregates from different iterations merge through the
    /// table's combiner. Returns [`QueryError::WrongOrganization`] on
    /// non-combining tables.
    pub fn get_combined(&self, key: &[u8]) -> Result<Option<u64>, QueryError> {
        let comb = self.organization().combiner()?;
        let words = self.inner.read().words_under(key, u64::MAX);
        Ok(words.and_then(|words| HostIndex::combine(&words, comb)))
    }

    /// All values grouped under `key` over everything indexed
    /// (multi-valued tables), newest first within each originating
    /// iteration. Returns [`QueryError::WrongOrganization`] on
    /// non-multi-valued tables.
    pub fn get_grouped(&self, key: &[u8]) -> Result<Option<Vec<Vec<u8>>>, QueryError> {
        self.organization().require_multivalued()?;
        let inner = self.inner.read();
        let Some(words) = inner.words_under(key, u64::MAX) else {
            return Ok(None);
        };
        let mut values = Vec::new();
        inner.values(&words, &mut 0, |v| values.push(v.to_vec()))?;
        Ok(Some(values))
    }

    /// Absorb every host page the table has that we have not indexed yet,
    /// in ascending host-id order (deterministic sequence numbers), and
    /// return the new watermark. Called by the publisher at quiescent
    /// boundaries only — the host heap never changes mid-iteration, and
    /// hard-fault recovery replays boundaries with identical content, so
    /// skipping already-seen ids is safe. The last call takes the run's
    /// final flush, before compaction replaces the pages (see
    /// [`EpochPublisher::absorb_final_flush`]).
    fn absorb(&self, table: &SepoTable) -> u64 {
        let org = table.config().organization;
        self.inner.write().absorb(org, &table.host_heap().pages())
    }

    /// The watermark that sees every entry indexed so far.
    fn watermark(&self) -> u64 {
        u64::from(self.inner.read().next_seq)
    }

    /// Keys with at least one entry below `watermark`.
    fn keys_under(&self, watermark: u64) -> Vec<Vec<u8>> {
        let inner = self.inner.read();
        // A key's first entry is its earliest.
        let visible =
            |&(first, _): &(u32, u32)| u64::from(inner.refs[first as usize].seq) < watermark;
        inner
            .keys
            .iter()
            .filter(|(_, ends)| visible(ends))
            .map(|(key, _)| key.to_vec())
            .collect()
    }
}

/// Hook invoked with each freshly published epoch.
pub type EpochHook = Box<dyn Fn(&Arc<EpochSnapshot>) + Send + Sync>;

/// The driver-side publication point for epoch snapshots. Wire one into
/// [`crate::DriverConfig::serving`]; the driver publishes an epoch at every
/// quiescent iteration boundary (plus epoch 0 before the first iteration
/// and a finalized epoch after `finalize()`), and serving traffic reads
/// whatever [`EpochPublisher::current`] returns — or reacts to each epoch
/// through [`EpochPublisher::on_epoch`].
pub struct EpochPublisher {
    host: Arc<HostStore>,
    current: RwLock<Option<Arc<EpochSnapshot>>>,
    hook: RwLock<Option<EpochHook>>,
}

impl fmt::Debug for EpochPublisher {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EpochPublisher")
            .field(
                "current",
                &self.current.read().as_ref().map(|s| s.iteration),
            )
            .finish()
    }
}

impl Default for EpochPublisher {
    fn default() -> Self {
        Self::new()
    }
}

impl EpochPublisher {
    pub fn new() -> Self {
        EpochPublisher {
            host: Arc::new(HostStore::new()),
            current: RwLock::new(None),
            hook: RwLock::new(None),
        }
    }

    /// Register the hook invoked (synchronously, at the boundary) with
    /// every published epoch. Replaces any previous hook.
    pub fn on_epoch(&self, hook: impl Fn(&Arc<EpochSnapshot>) + Send + Sync + 'static) {
        *self.hook.write() = Some(Box::new(hook));
    }

    /// The most recently published epoch, if any.
    pub fn current(&self) -> Option<Arc<EpochSnapshot>> {
        self.current.read().clone()
    }

    /// Publish the epoch at a quiescent iteration boundary and return it.
    /// Driver-only: every launch of the iteration has retired and every
    /// earlier eviction is stored, so heads, resident pages, and the host
    /// heap are mutually consistent. Pure reads — the table, its metrics,
    /// and the driver's trajectory are untouched, which is what keeps
    /// serving-on runs byte-identical to serving-off runs. The captured
    /// page images are the ones the boundary's eviction then stores.
    ///
    /// The finalized epoch absorbs nothing: it reads the shared index with
    /// a watermark that sees everything indexed, the final flush included
    /// ([`EpochPublisher::absorb_final_flush`]). That is the fold
    /// compaction packs: a key gets a new host entry only after its
    /// previous one left the device, on a page acquired later (kept key
    /// pages take no new allocations), so the index holds each key's
    /// entries in host-id order.
    pub(crate) fn publish_boundary(
        &self,
        table: &SepoTable,
        iteration: u32,
        finalized: bool,
    ) -> Arc<EpochSnapshot> {
        let watermark = if finalized {
            self.host.watermark()
        } else {
            self.host.absorb(table)
        };
        let snap = Arc::new(EpochSnapshot {
            iteration,
            finalized,
            organization: table.config().organization,
            heads: table.snapshot_heads(),
            pages: table.heap().snapshot().resident,
            host: Arc::clone(&self.host),
            watermark,
        });
        *self.current.write() = Some(Arc::clone(&snap));
        if let Some(hook) = self.hook.read().as_ref() {
            hook(&snap);
        }
        snap
    }

    /// Index the run's final flush. Driver-only, after the last eviction
    /// and before host compaction replaces the pages it landed as.
    pub(crate) fn absorb_final_flush(&self, table: &SepoTable) {
        self.host.absorb(table);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TableConfig;
    use crate::entry;
    use crate::sepo::TaskResult;
    use crate::table::InsertStatus;
    use crate::{DriverConfig, SepoDriver};
    use gpu_sim::executor::ExecMode;
    use gpu_sim::metrics::Metrics;
    use gpu_sim::{FaultConfig, FaultKind, FaultPlan};
    use sepo_alloc::{PageKind, StampedPage};

    fn serving_exec() -> Executor {
        Executor::new(ExecMode::ParallelDeterministic, Arc::new(Metrics::new()))
    }

    fn table(org: Organization, pages: usize) -> SepoTable {
        let cfg = TableConfig::new(org)
            .with_buckets(128)
            .with_buckets_per_group(32)
            .with_page_size(1024);
        SepoTable::new(cfg, (pages * 1024) as u64, Arc::new(Metrics::new()))
    }

    fn key(i: u64) -> Vec<u8> {
        format!("key-{i:05}").into_bytes()
    }

    /// Drive 3·n combining inserts (3 emits per key, value 1 each) under a
    /// pressured heap with serving enabled; returns the populated table.
    fn run_combining_with_serving(
        n: u64,
        pages: usize,
        publisher: &Arc<EpochPublisher>,
    ) -> SepoTable {
        let t = table(Organization::Combining(Combiner::Add), pages);
        let exec = Executor::new(ExecMode::ParallelDeterministic, Arc::clone(t.metrics()));
        SepoDriver::new(&t, &exec)
            .with_config(DriverConfig {
                chunk_tasks: 64,
                audit: true,
                serving: Some(Arc::clone(publisher)),
                ..DriverConfig::default()
            })
            .run(
                3 * n as usize,
                |_| 16,
                |task, _start, lane| {
                    let k = key(task as u64 % n);
                    match t.insert_combining(&k, 1, lane) {
                        InsertStatus::Success => TaskResult::Done,
                        InsertStatus::Postponed => TaskResult::Postponed { next_pair: 0 },
                    }
                },
            );
        t
    }

    /// Drive `n` keys × `per_key` values (value `i` is the task number)
    /// into a multi-valued table of `pages` pages with serving enabled;
    /// returns the populated table.
    fn run_multivalued_with_serving(
        n: u64,
        per_key: u64,
        pages: usize,
        publisher: &Arc<EpochPublisher>,
    ) -> SepoTable {
        let t = table(Organization::MultiValued, pages);
        let exec = Executor::new(ExecMode::ParallelDeterministic, Arc::clone(t.metrics()));
        SepoDriver::new(&t, &exec)
            .with_config(DriverConfig {
                chunk_tasks: 64,
                audit: true,
                serving: Some(Arc::clone(publisher)),
                ..DriverConfig::default()
            })
            .run(
                (n * per_key) as usize,
                |_| 16,
                |task, _start, lane| {
                    let value = format!("value-{task:06}");
                    match t.insert_multivalued(&key(task as u64 % n), value.as_bytes(), lane) {
                        InsertStatus::Success => TaskResult::Done,
                        InsertStatus::Postponed => TaskResult::Postponed { next_pair: 0 },
                    }
                },
            );
        t
    }

    fn truth_of(t: &SepoTable) -> HashMap<Vec<u8>, u64> {
        t.collect_combining().into_iter().collect()
    }

    #[test]
    fn batch_too_large_is_typed() {
        assert_eq!(
            ensure_batch_fits(10, 4),
            Err(QueryError::BatchTooLarge { len: 10, max: 4 })
        );
        assert_eq!(ensure_batch_fits(4, 4), Ok(()));
        // The satellite-2 guard: a batch longer than u32 addressing.
        assert!(matches!(
            ensure_batch_fits(u32::MAX as usize + 1, u32::MAX as usize),
            Err(QueryError::BatchTooLarge { .. })
        ));
    }

    #[test]
    fn snapshot_batches_over_max_batch_are_refused() {
        let exec = serving_exec();
        let q: Vec<&[u8]> = vec![b"k"; MAX_BATCH + 1];
        let refused: Result<(), _> = Err(QueryError::BatchTooLarge {
            len: MAX_BATCH + 1,
            max: MAX_BATCH,
        });
        let publisher = Arc::new(EpochPublisher::default());
        let t = table(Organization::Combining(Combiner::Add), 16);
        publisher.publish_boundary(&t, 0, false);
        let snap = publisher.current().expect("epoch 0");
        assert_eq!(snap.batch_get(&exec, &q).map(|_| ()), refused);
        assert_eq!(
            snap.batch_get(&exec, &q[..MAX_BATCH]).map(|a| a.len()),
            Ok(MAX_BATCH)
        );
        let publisher = Arc::new(EpochPublisher::default());
        let t = table(Organization::MultiValued, 16);
        publisher.publish_boundary(&t, 0, false);
        let snap = publisher.current().expect("epoch 0");
        assert_eq!(snap.batch_get_grouped(&exec, &q).map(|_| ()), refused);
    }

    #[test]
    fn query_error_display_mentions_finalized() {
        // lookup_phase's legacy panic test greps for this word.
        assert!(QueryError::NotFinalized.to_string().contains("finalized"));
    }

    #[test]
    fn wrong_organization_is_typed_not_a_panic() {
        let publisher = Arc::new(EpochPublisher::default());
        let t = table(Organization::MultiValued, 16);
        publisher.publish_boundary(&t, 0, false);
        let snap = publisher.current().expect("epoch 0");
        let exec = serving_exec();
        let q: Vec<&[u8]> = vec![b"anything"];
        assert!(matches!(
            snap.batch_get(&exec, &q),
            Err(QueryError::WrongOrganization {
                expected: "combining",
                ..
            })
        ));
        let t2 = table(Organization::Combining(Combiner::Add), 16);
        let p2 = Arc::new(EpochPublisher::default());
        p2.publish_boundary(&t2, 0, false);
        let snap2 = p2.current().unwrap();
        assert!(matches!(
            snap2.batch_get_grouped(&exec, &q),
            Err(QueryError::WrongOrganization {
                expected: "multi-valued",
                ..
            })
        ));
    }

    #[test]
    fn epoch_zero_answers_nothing() {
        let publisher = Arc::new(EpochPublisher::default());
        let t = table(Organization::Combining(Combiner::Add), 16);
        publisher.publish_boundary(&t, 0, false);
        let snap = publisher.current().unwrap();
        let exec = serving_exec();
        let keys: Vec<Vec<u8>> = (0..32).map(key).collect();
        let q: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
        let ans = snap.batch_get(&exec, &q).unwrap();
        assert!(ans.iter().all(Option::is_none));
        assert!(snap.visible_keys().is_empty());
    }

    #[test]
    fn final_epoch_matches_collectors_and_pins_earlier_epochs() {
        let publisher = Arc::new(EpochPublisher::default());
        let epochs: Arc<Mutex<Vec<Arc<EpochSnapshot>>>> = Arc::default();
        {
            let epochs = Arc::clone(&epochs);
            publisher.on_epoch(move |s| epochs.lock().push(Arc::clone(s)));
        }
        let n = 200;
        let t = run_combining_with_serving(n, 4, &publisher);
        let seen = epochs.lock().clone();
        assert!(
            seen.len() >= 3,
            "pressured run should publish several epochs"
        );
        assert!(seen.last().unwrap().finalized());
        let exec = serving_exec();
        let truth = truth_of(&t);
        let keys: Vec<Vec<u8>> = (0..n).map(key).collect();
        let q: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
        let final_ans = seen.last().unwrap().batch_get(&exec, &q).unwrap();
        for (k, a) in keys.iter().zip(&final_ans) {
            assert_eq!(*a, truth.get(k).copied(), "final epoch diverges on {k:?}");
        }
        // Epochs are pinned: answers from an old epoch are monotone
        // partial sums, never exceeding the final truth.
        for snap in &seen {
            let ans = snap.batch_get(&exec, &q).unwrap();
            for (k, a) in keys.iter().zip(&ans) {
                if let Some(v) = a {
                    assert!(
                        *v <= truth[k],
                        "epoch {} overshoots truth on {k:?}",
                        snap.iteration()
                    );
                }
            }
        }
    }

    /// In a serving run every `Mixed` or `Value` page a boundary evicts
    /// lands in the host store as the image that boundary's epoch
    /// captured — the same allocation — and no `Key` page does (eviction
    /// rewrites key entries after the capture).
    #[test]
    fn boundary_eviction_stores_the_epochs_page_images() {
        for org in [
            Organization::Combining(Combiner::Add),
            Organization::MultiValued,
        ] {
            let publisher = Arc::new(EpochPublisher::default());
            let epochs: Arc<Mutex<Vec<Arc<EpochSnapshot>>>> = Arc::default();
            {
                let epochs = Arc::clone(&epochs);
                publisher.on_epoch(move |s| epochs.lock().push(Arc::clone(s)));
            }
            match org {
                Organization::MultiValued => run_multivalued_with_serving(40, 12, 4, &publisher),
                _ => run_combining_with_serving(200, 4, &publisher),
            };
            let index = publisher.host.inner.read();
            let (mut shared, mut key_pages) = (0, 0);
            for snap in epochs.lock().iter().filter(|s| !s.finalized()) {
                for rp in snap.resident() {
                    let stored = index.pages.get(&rp.host_id).map(|p| p.bytes().as_ptr());
                    let same = stored == Some(rp.data.as_ptr());
                    let what = format!(
                        "{} page {} at epoch {}",
                        org.label(),
                        rp.host_id,
                        snap.iteration()
                    );
                    if rp.kind == PageKind::Key {
                        assert!(!same, "{what}: a key page shares the epoch image");
                        key_pages += 1;
                    } else {
                        assert!(same, "{what}: evicted as a second copy");
                        shared += 1;
                    }
                }
            }
            assert!(
                shared > 0,
                "{}: no page was evicted at a boundary",
                org.label()
            );
            if org == Organization::MultiValued {
                assert!(key_pages > 0, "the run captured no key page");
            }
        }
    }

    /// The epoch probe prices a walk as the live table's
    /// `lookup_combining` does — one hop, with its link read, per
    /// entry — plus the bucket-head and value words it reads.
    #[test]
    fn epoch_probe_prices_hops_as_the_live_walk() {
        let t = table(Organization::Combining(Combiner::Add), 24);
        let n = 400;
        for i in 0..n {
            assert!(t
                .insert_combining(&key(i), i + 1, &mut gpu_sim::NoCharge)
                .is_success());
        }
        let snap = EpochPublisher::default().publish_boundary(&t, 1, false);
        let mut deepest = 0;
        for i in 0..n {
            let (live, epoch) = (Metrics::new(), Metrics::new());
            let want = t.lookup_combining(&key(i), &mut MetricsCharge(&live));
            let got = snap.probe_combining(&key(i), &mut MetricsCharge(&epoch));
            assert_eq!((got, want), (Some(i + 1), Some(i + 1)));
            let (live, epoch) = (live.snapshot(), epoch.snapshot());
            assert_eq!(epoch.chain_hops, live.chain_hops, "hops of key {i}");
            assert_eq!(
                epoch.device_bytes,
                live.device_bytes + 16,
                "key {i}: the head and value words on top of the live walk"
            );
            deepest = deepest.max(live.chain_hops);
        }
        assert!(deepest > 1, "no key sat behind another in its chain");
    }

    /// The multi-valued half of the pin: after one boundary that keeps key
    /// pages, a key chain walked through the live heap and through the
    /// epoch captured after it visits the same entries at the same hop
    /// count, and the epoch's value walk leaves the device at the host
    /// continuation eviction wrote into the key entry.
    #[test]
    fn epoch_value_walk_exits_where_eviction_continued_the_chain() {
        let cfg = TableConfig::new(Organization::MultiValued)
            .with_buckets(16)
            .with_buckets_per_group(16)
            .with_page_size(1024);
        let t = SepoTable::new(cfg, 8 * 1024, Arc::new(Metrics::new()));
        let n = 24;
        let insert = |i: u64| {
            let value = format!("value-{i:04}");
            t.insert_multivalued(&key(i % n), value.as_bytes(), &mut gpu_sim::NoCharge)
        };
        // Fill until a value postpones: its key is pending, so its page stays.
        let mut i = 0;
        while insert(i).is_success() {
            i += 1;
        }
        // Each key entry's value head names its newest node, which the
        // boundary evicts; the link is left as it is.
        let heads = t.snapshot_heads();
        let newest_before: HashMap<HostLink, HostLink> = (0..n)
            .filter_map(|i| {
                let k = key(i);
                let (bucket, lens) = chain::place(&k, fnv1a(&k), heads.len());
                let kind = entry::EntryKind::Key;
                let e = chain::find(&t, heads[bucket], kind, &k, lens, &mut gpu_sim::NoCharge)?;
                let head = Link::from_raw(t.heap().read_u64(e, key_entry::VALUE_HEAD));
                Some((t.heap().link_for(e).host(), head.host()))
            })
            .collect();
        assert!(
            t.end_iteration().kept_pages > 0,
            "the boundary kept no key page"
        );
        // New values on the kept keys link back to what eviction stored.
        for j in i..i + n {
            insert(j);
        }
        let snap = EpochPublisher::default().publish_boundary(&t, 1, false);
        let heads = t.snapshot_heads();
        let (mut resident, mut through_dead_link) = (0, 0);
        for i in 0..n {
            let k = key(i);
            let (bucket, lens) = chain::place(&k, fnv1a(&k), heads.len());
            let head = heads[bucket];
            let (live, epoch) = (Metrics::new(), Metrics::new());
            let on_heap = chain::find(
                &t,
                head,
                entry::EntryKind::Key,
                &k,
                lens,
                &mut MetricsCharge(&live),
            );
            let on_epoch = chain::find(
                &*snap,
                head,
                entry::EntryKind::Key,
                &k,
                lens,
                &mut MetricsCharge(&epoch),
            );
            assert_eq!(on_epoch, on_heap, "entry of key {i}");
            let hops = |m: &Metrics| m.snapshot().chain_hops;
            assert_eq!(hops(&epoch), hops(&live), "hops of key {i}");
            let Some(e) = on_heap else { continue };
            resident += 1;
            let (values, exit) = snap
                .probe_grouped(&k, &mut gpu_sim::NoCharge)
                .expect("resident");
            // A key entry from before the boundary continues where its
            // chain left the device; one made since has no continuation.
            let entry = t.heap().link_for(e).host();
            let want = newest_before.get(&entry).copied();
            assert_eq!(
                exit,
                want.unwrap_or(HostLink::NULL),
                "continuation of key {i}"
            );
            through_dead_link += usize::from(!values.is_empty() && !exit.is_null());
        }
        assert!(
            resident > 0 && through_dead_link > 0,
            "{resident} {through_dead_link}"
        );
    }

    /// A grouped probe costs the bucket-head word, one hop and the key
    /// bytes for the key entry, its value-head link, and per value node one
    /// hop (which pays the node's link) plus its length word and value
    /// bytes.
    #[test]
    fn grouped_probe_prices_each_value_node_once() {
        let t = table(Organization::MultiValued, 16);
        let k = b"grouped-key";
        let values: [&[u8]; 3] = [b"a", b"bcd", b"efghijkl"];
        for v in values {
            assert!(t
                .insert_multivalued(k, v, &mut gpu_sim::NoCharge)
                .is_success());
        }
        let snap = EpochPublisher::default().publish_boundary(&t, 1, false);
        let m = Metrics::new();
        let (got, cont) = snap
            .probe_grouped(k, &mut MetricsCharge(&m))
            .expect("resident");
        assert_eq!(got, [b"efghijkl".to_vec(), b"bcd".to_vec(), b"a".to_vec()]);
        assert!(cont.is_null());
        let value_bytes: u64 = values.iter().map(|v| LINK_BYTES + 8 + v.len() as u64).sum();
        let s = m.snapshot();
        assert_eq!(s.chain_hops, 1 + 3);
        let key_bytes = LINK_BYTES + k.len() as u64 + LINK_BYTES;
        assert_eq!(s.device_bytes, 8 + key_bytes + value_bytes);
    }

    #[test]
    fn duplicate_queries_in_a_batch_agree_and_combine_once() {
        let publisher = Arc::new(EpochPublisher::default());
        let n = 100;
        let t = run_combining_with_serving(n, 4, &publisher);
        let exec = serving_exec();
        let snap = publisher.current().expect("final epoch");
        let truth = truth_of(&t);
        let dup = key(17);
        let q: Vec<&[u8]> = std::iter::repeat_n(dup.as_slice(), 64).collect();
        let ans = snap.batch_get(&exec, &q).unwrap();
        assert_eq!(ans.len(), 64);
        let expected = truth.get(&dup).copied();
        for a in &ans {
            assert_eq!(*a, expected, "duplicate queries must agree, combining once");
        }
    }

    #[test]
    fn probe_retries_through_transient_lane_aborts() {
        let publisher = Arc::new(EpochPublisher::default());
        let n = 150;
        let t = run_combining_with_serving(n, 4, &publisher);
        let truth = truth_of(&t);
        let snap = publisher.current().unwrap();
        // A serving executor with an aggressive transient fault plan: every
        // slot must still resolve, to the same answers.
        let exec = Executor::new(ExecMode::ParallelDeterministic, Arc::new(Metrics::new()))
            .with_faults(Arc::new(FaultPlan::new(FaultConfig::standard(0xFA17))));
        let keys: Vec<Vec<u8>> = (0..n).map(key).collect();
        let q: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
        let ans = snap.batch_get(&exec, &q).unwrap();
        for (k, a) in keys.iter().zip(&ans) {
            assert_eq!(*a, truth.get(k).copied());
        }
    }

    #[test]
    fn probe_exhaustion_fails_both_batch_kinds_typed() {
        // One plan aborts every lane; the other kills every launch, which
        // the probe re-issues through its hard-fault arm.
        let plans = [
            FaultConfig::quiet(7).rate(FaultKind::LaneAbort, 1.0),
            FaultConfig::quiet(7).rate(FaultKind::DeviceLost, 1.0),
        ];
        let exhausted = QueryError::ProbeExhausted {
            epoch: 3,
            launches: MAX_PROBE_ROUNDS,
        };
        let q: Vec<&[u8]> = vec![b"k"];
        for plan in plans {
            let exec = Executor::new(ExecMode::ParallelDeterministic, Arc::new(Metrics::new()))
                .with_faults(Arc::new(FaultPlan::new(plan)));
            for org in [
                Organization::Combining(Combiner::Add),
                Organization::MultiValued,
            ] {
                let publisher = EpochPublisher::default();
                publisher.publish_boundary(&table(org, 16), 3, false);
                let snap = publisher.current().expect("epoch 3");
                let got = match org {
                    Organization::MultiValued => snap.batch_get_grouped(&exec, &q).map(|_| ()),
                    _ => snap.batch_get(&exec, &q).map(|_| ()),
                };
                assert_eq!(got, Err(exhausted), "{plan:?} on a {} table", org.label());
            }
        }
        let msg = exhausted.to_string();
        assert!(msg.contains("epoch 3") && msg.contains("10000"), "{msg}");
    }

    #[test]
    fn corrupt_host_pages_fail_batches_typed_with_epoch_and_page_id() {
        let publisher = Arc::new(EpochPublisher::default());
        let n = 100;
        let t = run_combining_with_serving(n, 4, &publisher);
        let good = publisher.current().expect("final epoch");
        let exec = serving_exec();
        let keys: Vec<Vec<u8>> = (0..n).map(key).collect();
        let q: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
        assert!(good.batch_get(&exec, &q).is_ok());
        // A silently corrupted page lands in the host heap under a fresh
        // id: its bytes no longer match its eviction-time stamp.
        let wrong_stamp = sepo_alloc::crc32c(b"damaged-bytes") ^ 1;
        t.host_heap().store(StampedPage::from_parts(
            9_999,
            PageKind::Mixed,
            b"damaged-bytes".to_vec(),
            wrong_stamp,
        ));
        publisher.publish_boundary(&t, 99, false);
        let bad = publisher.current().unwrap();
        let err = bad.batch_get(&exec, &q).unwrap_err();
        assert_eq!(
            err,
            QueryError::CorruptPage {
                epoch: Some(99),
                host_id: 9_999
            }
        );
        let msg = err.to_string();
        assert!(msg.contains("epoch 99") && msg.contains("9999"), "{msg}");
        // Epochs published before the corruption still answer: their
        // watermark does not cover the quarantined page.
        assert!(good.batch_get(&exec, &q).is_ok());
    }

    #[test]
    fn serving_charges_land_on_the_serving_metrics_only() {
        let publisher = Arc::new(EpochPublisher::default());
        let t = run_combining_with_serving(80, 4, &publisher);
        let driver_snapshot = t.metrics().snapshot();
        let serve_metrics = Arc::new(Metrics::new());
        let exec = Executor::new(ExecMode::ParallelDeterministic, Arc::clone(&serve_metrics));
        let snap = publisher.current().unwrap();
        let keys: Vec<Vec<u8>> = (0..80).map(key).collect();
        let q: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
        snap.batch_get(&exec, &q).unwrap();
        let after = serve_metrics.snapshot();
        assert!(after.pcie_bulk_transfers >= 2, "bulk up + bulk down");
        assert!(after.device_bytes > 0, "probe traffic is priced");
        assert_eq!(
            t.metrics().snapshot(),
            driver_snapshot,
            "serving must never charge the driver's metrics"
        );
    }

    /// Insert `pairs` directly (no driver) under memory pressure, one SEPO
    /// iteration per pass, then finalize.
    fn fill_and_finalize(t: &SepoTable, mut pairs: Vec<(Vec<u8>, Vec<u8>)>) {
        let mut ch = gpu_sim::NoCharge;
        let mut guard = 0;
        while !pairs.is_empty() {
            pairs.retain(|(k, v)| {
                let status = match t.config().organization {
                    Organization::Combining(_) => t.insert_combining(k, 1, &mut ch),
                    _ => t.insert_multivalued(k, v, &mut ch),
                };
                !status.is_success()
            });
            t.end_iteration();
            guard += 1;
            assert!(guard < 100);
        }
        t.finalize();
    }

    #[test]
    fn offline_combined_lookups_match_collectors() {
        let t = table(Organization::Combining(Combiner::Add), 3);
        // Two hits per key.
        fill_and_finalize(&t, (0..400).map(|i| (key(i / 2), Vec::new())).collect());
        let idx = HostStore::of_finalized(&t).unwrap();
        assert_eq!(idx.len(), 200);
        assert!(!idx.is_empty());
        for (k, v) in t.collect_combining() {
            assert_eq!(idx.get_combined(&k), Ok(Some(v)));
        }
        assert_eq!(idx.get_combined(b"absent"), Ok(None));
        assert!(matches!(
            idx.get_grouped(&key(0)),
            Err(QueryError::WrongOrganization {
                expected: "multi-valued",
                ..
            })
        ));
    }

    #[test]
    fn offline_grouped_lookups_match_collectors_in_order() {
        let t = table(Organization::MultiValued, 4);
        let pairs = (0..150).map(|i| (key(i % 25), format!("val-{i:04}").into_bytes()));
        fill_and_finalize(&t, pairs.collect());
        let idx = HostStore::of_finalized(&t).unwrap();
        let groups = t.collect_multivalued();
        assert_eq!(groups.len(), 25);
        for (k, vs) in groups {
            assert_eq!(idx.get_grouped(&k), Ok(Some(vs)));
        }
        assert_eq!(idx.get_grouped(b"absent"), Ok(None));
        assert!(matches!(
            idx.get_combined(&key(0)),
            Err(QueryError::WrongOrganization {
                expected: "combining",
                ..
            })
        ));
    }

    #[test]
    fn offline_index_refuses_an_unfinalized_table() {
        let t = table(Organization::Combining(Combiner::Add), 2);
        t.insert_combining(b"k", 1, &mut gpu_sim::NoCharge);
        assert!(matches!(
            HostStore::of_finalized(&t),
            Err(QueryError::NotFinalized)
        ));
        t.finalize();
        assert!(HostStore::of_finalized(&t).is_ok());
    }
}
