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
//!   wired into [`crate::DriverConfig::serving`]. The snapshot shares the
//!   same state a checkpoint captures — bucket-head words and
//!   resident-page images — but hands them out behind `Arc` instead of
//!   copying per reader.
//! - **Device-resident probes.** [`EpochSnapshot::batch_get`] dedups the
//!   batch, charges one bulk PCIe upload, and probes the snapshot's bucket
//!   chains with a batched kernel launched through a caller-supplied
//!   [`Executor`] — so `--sanitize`-style lane accounting, deterministic
//!   scheduling, and seeded fault injection all apply to serving traffic.
//! - **Host fallthrough.** Keys (or partial aggregates) evicted to the
//!   host heap are answered from an incremental [`HostStore`] index that
//!   absorbs evicted pages as boundaries land them — no `finalize()`
//!   required. Every epoch carries a *watermark*: host entries indexed at
//!   or after it are invisible, so a reader pinned to epoch N never sees a
//!   partially applied later iteration. The finalized epoch indexes the
//!   compacted host image ([`crate::compact`]) in a store of its own, and
//!   the same index, built in one go by [`HostStore::of_finalized`], is the
//!   offline read path over a finalized table (`sepo query`).
//!
//! Reads never touch the live table: the driver's final image, iteration
//! trajectory, and metrics are byte-identical with serving on or off
//! (serving charges land on the serving executor's own metrics). Snapshot
//! capture itself is treated as zero-cost aliasing of already-resident
//! state; a real
//! implementation would piggyback on the checkpoint DMA that PR 5 already
//! prices.
//!
//! This module also owns [`QueryError`], the typed error surface shared
//! with the offline query paths (the collectors, the lookup phase).

use crate::config::{Combiner, Organization};
use crate::entry::{self, combining, key_entry, value_node, EntryKind};
use crate::hash::{bucket_of, KeyMap};
use crate::results::{primary_entries, walk_value_chain};
use crate::table::SepoTable;
use gpu_sim::charge::{Charge, MetricsCharge};
use gpu_sim::executor::Executor;
use gpu_sim::metrics::Counter;
use gpu_sim::sync::Relaxed;
use parking_lot::{Mutex, RwLock};
use sepo_alloc::{CorruptPage, DevHandle, HostLink, Link, VerifiedPage};
use std::collections::HashMap;
use std::fmt;
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

/// Serving-layer tunables.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Maximum queries per [`EpochSnapshot::batch_get`] call.
    pub max_batch: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig { max_batch: 1 << 16 }
    }
}

/// Upper bound on probe relaunches per batch before the serving layer
/// concludes the fault plan is pathological and gives up.
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

/// An immutable resident-page image inside an epoch snapshot.
#[derive(Debug, Clone)]
struct SnapshotPage {
    /// Host identity of the physical page at capture time — the liveness
    /// token dual-pointer links are checked against.
    host_id: u64,
    /// Used prefix of the page at capture time.
    data: Arc<[u8]>,
}

/// A consistent, immutable view of the table at one iteration boundary.
///
/// Holding an `Arc<EpochSnapshot>` pins the epoch: reads against it keep
/// answering from iteration N's state no matter how far the live run has
/// advanced. Snapshots are cheap to hold — resident pages are shared
/// buffers, host pages are shared with the incremental host index.
pub struct EpochSnapshot {
    iteration: u32,
    finalized: bool,
    organization: Organization,
    n_buckets: usize,
    max_batch: usize,
    /// Raw bucket-head words (same representation as the live table).
    heads: Arc<[u64]>,
    /// Resident pages by physical page index.
    pages: Arc<HashMap<u32, SnapshotPage>>,
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

    fn page(&self, h: DevHandle) -> Option<&SnapshotPage> {
        self.pages.get(&h.page())
    }

    /// Dual-pointer liveness against the *snapshot*: the link's device side
    /// must name a captured page whose host identity still matches.
    fn link_live(&self, l: Link) -> bool {
        !l.dev.is_null()
            && self
                .page(l.dev)
                .is_some_and(|p| p.host_id == l.host.host_page())
    }

    fn read_u64(&self, e: DevHandle, field: u32) -> Option<u64> {
        let page = self.page(e)?;
        let off = (e.offset() + field) as usize;
        let bytes = page.data.get(off..off + 8)?;
        Some(u64::from_le_bytes(bytes.try_into().ok()?))
    }

    fn read_bytes(&self, e: DevHandle, field: u32, len: usize) -> Option<&[u8]> {
        let page = self.page(e)?;
        let off = (e.offset() + field) as usize;
        page.data.get(off..off + len)
    }

    /// The resident entries of the bucket chain headed by `head_raw`, in
    /// chain order, ending at the first dead link (or unreadable link word).
    fn chain(&self, head_raw: u64) -> impl Iterator<Item = DevHandle> + '_ {
        let first = DevHandle::from_raw(head_raw);
        std::iter::successors((!first.is_null()).then_some(first), move |&cur| {
            let next = Link {
                dev: DevHandle::from_raw(self.read_u64(cur, entry::NEXT_DEV)?),
                host: HostLink::from_raw(self.read_u64(cur, entry::NEXT_HOST)?),
            };
            self.link_live(next).then_some(next.dev)
        })
    }

    /// Walk the snapshot's bucket chain for `key`, mirroring the live
    /// table's `find_resident`: charge a hop and a header read per entry,
    /// compare lengths before bytes, stop at the first dead link. No shadow
    /// accesses are declared — the snapshot is an immutable host-side copy,
    /// not the live device heap the sanitizer tracks.
    fn probe_entry<C: Charge>(
        &self,
        key: &[u8],
        kind: EntryKind,
        charge: &mut C,
    ) -> Option<DevHandle> {
        let (klen_field, key_field) = kind.key_fields();
        charge.device_bytes(8);
        for cur in self.chain(self.heads[bucket_of(key, self.n_buckets)]) {
            charge.chain_hops(1);
            charge.device_bytes(16);
            let klen = (self.read_u64(cur, klen_field)? & 0xFFFF_FFFF) as usize;
            if klen == key.len() {
                charge.device_bytes(klen as u64);
                if self.read_bytes(cur, key_field, klen)? == key {
                    return Some(cur);
                }
            }
        }
        None
    }

    /// Resident partial aggregate for `key` (combining epochs).
    fn probe_combining<C: Charge>(&self, key: &[u8], charge: &mut C) -> Option<u64> {
        let e = self.probe_entry(key, EntryKind::Combining, charge)?;
        charge.device_bytes(8);
        self.read_u64(e, combining::VALUE)
    }

    /// Resident portion of a multi-valued group: the values still on the
    /// device plus the host link where the chain continues off-device.
    fn probe_grouped<C: Charge>(
        &self,
        key: &[u8],
        charge: &mut C,
    ) -> Option<(Vec<Vec<u8>>, HostLink)> {
        let k = self.probe_entry(key, EntryKind::Key, charge)?;
        charge.device_bytes(16);
        let mut values = Vec::new();
        let mut cont = HostLink::from_raw(self.read_u64(k, key_entry::VALUE_HOST_CONT)?);
        let mut cur_raw = self.read_u64(k, key_entry::VALUE_HEAD)?;
        while cur_raw != DevHandle::NULL.to_raw() {
            let node = DevHandle::from_raw(cur_raw);
            charge.chain_hops(1);
            charge.device_bytes(24);
            let vlen = (self.read_u64(node, value_node::VLEN)? & 0xFFFF_FFFF) as usize;
            charge.device_bytes(vlen as u64);
            values.push(self.read_bytes(node, value_node::VALUE, vlen)?.to_vec());
            let next = Link {
                dev: DevHandle::from_raw(self.read_u64(node, entry::NEXT_DEV)?),
                host: HostLink::from_raw(self.read_u64(node, entry::NEXT_HOST)?),
            };
            if !self.link_live(next) {
                // The chain continues (or ends) on the host side.
                cont = next.host;
                break;
            }
            cur_raw = next.dev.to_raw();
        }
        Some((values, cont))
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
    /// hard faults until every slot resolves. `probe` must store a
    /// [`PROBE_DONE`]-tagged word into its slot.
    fn launch_probe<F>(&self, executor: &Executor, n_unique: usize, probe: F) -> Vec<u64>
    where
        F: Fn(usize, &mut gpu_sim::executor::LaneCtx<'_>) -> u64 + Sync,
    {
        let results: Vec<Relaxed<u64>> = (0..n_unique).map(|_| Relaxed::new(0)).collect();
        let mut pending: Vec<u32> = (0..n_unique as u32).collect();
        let mut rounds = 0;
        while !pending.is_empty() {
            rounds += 1;
            assert!(
                rounds <= MAX_PROBE_ROUNDS,
                "serving probe failed to complete after {MAX_PROBE_ROUNDS} launches \
                 — fault plan aborts every lane"
            );
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
        results.iter().map(Relaxed::get).collect()
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
        ensure_batch_fits(queries.len(), self.max_batch)?;
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
        });
        self.charge_bulk(executor, unique.len() as u64 * 8);
        let mut host_bytes = 0u64;
        let mut merged: Vec<Option<u64>> = Vec::with_capacity(unique.len());
        for (key, &word) in unique.iter().zip(&words) {
            let dev = (word & PROBE_FOUND != 0).then_some(word & PROBE_VALUE_MASK);
            let host = self
                .host
                .combined_under(key, self.watermark, comb, &mut host_bytes)
                .map_err(|e| e.at_epoch(self.iteration))?;
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
        ensure_batch_fits(queries.len(), self.max_batch)?;
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
        });
        let mut host_bytes = 0u64;
        let mut down_bytes = 0u64;
        let mut merged: Vec<Option<Vec<Vec<u8>>>> = Vec::with_capacity(unique.len());
        for (key, slot) in unique.iter().zip(&resident) {
            let probed = slot.lock().take();
            let host_tail = self
                .host
                .grouped_under(key, self.watermark, &mut host_bytes)
                .map_err(|e| e.at_epoch(self.iteration))?;
            let (mut values, cont) = match probed {
                Some((v, c)) => (v, c),
                // Not resident: the whole group (if any) lives on the
                // host side.
                None => (Vec::new(), HostLink::NULL),
            };
            self.host
                .inner
                .read()
                .extend_chain(cont, &mut values, &mut host_bytes)
                .map_err(|e| e.at_epoch(self.iteration))?;
            values.extend(host_tail.unwrap_or_default());
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
            for cur in self.chain(head) {
                let Some(lens) = self.read_u64(cur, klen_field) else {
                    break;
                };
                let klen = (lens & 0xFFFF_FFFF) as usize;
                if let Some(key) = self.read_bytes(cur, key_field, klen) {
                    keys.push(key.to_vec());
                }
            }
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
        let intact = self.host.intact_under(self.watermark);
        intact.map_err(|e| QueryError::from(e).at_epoch(self.iteration))
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

/// Per-entry record in the incremental host index.
#[derive(Debug, Clone, Copy)]
struct HostEntryRef {
    /// Index-order sequence number; visible to an epoch iff `< watermark`.
    seq: u64,
    link: HostLink,
    /// The same key's next entry in index order, or [`NO_REF`].
    next: u32,
}

const NO_REF: u32 = u32::MAX;

#[derive(Default)]
struct HostStoreInner {
    /// Organization of the table being indexed (set at first absorption).
    organization: Option<Organization>,
    next_seq: u64,
    /// Per key: its first and last entry in `refs`.
    keys: KeyMap<(u32, u32)>,
    /// Every indexed entry; one key's entries chain in index (so `seq`)
    /// order.
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
    corrupt: HashMap<u64, u64>,
}

impl HostStoreInner {
    fn add_ref(&mut self, key: &[u8], seq: u64, link: HostLink) {
        let r = self.refs.len() as u32;
        self.refs.push(HostEntryRef {
            seq,
            link,
            next: NO_REF,
        });
        let refs = &mut self.refs;
        self.keys.upsert(
            key,
            || (r, r),
            |(_, last)| refs[std::mem::replace(last, r) as usize].next = r,
        );
    }

    /// `key`'s entries below `watermark`, in index order; `None` for a key
    /// never indexed.
    fn refs_under(
        &self,
        key: &[u8],
        watermark: u64,
    ) -> Option<impl Iterator<Item = &HostEntryRef> + '_> {
        let &(first, _) = self.keys.get(key)?;
        let chain = std::iter::successors(Some(&self.refs[first as usize]), |r| {
            self.refs.get(r.next as usize)
        });
        Some(chain.take_while(move |r| r.seq < watermark))
    }

    fn read_u64(&self, link: HostLink, field: u32) -> Result<u64, QueryError> {
        let word = self.pages.get(&link.host_page()).and_then(|page| {
            let off = (link.offset() + field) as usize;
            page.bytes().get(off..off + 8)?.try_into().ok()
        });
        // A link that lands on a quarantined (or vanished) page.
        let host_id = link.host_page();
        Ok(word
            .map(u64::from_le_bytes)
            .ok_or(CorruptPage { host_id })?)
    }

    /// Append the host-linked value chain starting at `link` to `out`.
    /// Pages a visible entry's chain references were evicted at the same
    /// boundary or earlier, so they are always absorbed by the time any
    /// epoch can see the entry; a quarantined page is not among them, so a
    /// chain crossing into one fails typed rather than truncating.
    fn extend_chain(
        &self,
        link: HostLink,
        out: &mut Vec<Vec<u8>>,
        bytes: &mut u64,
    ) -> Result<(), QueryError> {
        walk_value_chain(
            link,
            |id| self.pages.get(&id),
            |value| {
                *bytes += value.len() as u64 + 24;
                out.push(value.to_vec());
            },
        )
    }
}

/// The one host-side key index: key → host links of every evicted entry
/// stored under it, over verified page images. The serving path grows it
/// incrementally — the publisher absorbs evicted pages at each iteration
/// boundary, and sequence numbers assigned in absorption order let each
/// epoch see exactly the entries that existed at its boundary
/// (`seq < watermark`). Offline readers index a finalized table in one go
/// with [`HostStore::of_finalized`] and see everything.
///
/// A key can own entries from several SEPO iterations. Combining partials
/// merge at query time through the table's combiner — in-run epochs see
/// them; a finalized table holds one per key ([`crate::compact`]) — and
/// multi-valued chains concatenate, as the collectors concatenate them.
pub struct HostStore {
    inner: RwLock<HostStoreInner>,
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
            inner: RwLock::new(HostStoreInner::default()),
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
        let store = HostStore::new();
        let watermark = store.absorb(table);
        store.intact_under(watermark)?;
        Ok(store)
    }

    /// Distinct keys indexed.
    pub fn len(&self) -> usize {
        self.inner.read().keys.len()
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
        self.combined_under(key, u64::MAX, comb, &mut 0)
    }

    /// All values grouped under `key` over everything indexed
    /// (multi-valued tables), newest first within each originating
    /// iteration. Returns [`QueryError::WrongOrganization`] on
    /// non-multi-valued tables.
    pub fn get_grouped(&self, key: &[u8]) -> Result<Option<Vec<Vec<u8>>>, QueryError> {
        self.organization().require_multivalued()?;
        self.grouped_under(key, u64::MAX, &mut 0)
    }

    /// Absorb every host page the table has that we have not indexed yet,
    /// in ascending host-id order (deterministic sequence numbers), and
    /// return the new watermark. Called by the publisher at quiescent
    /// boundaries only — the host heap never changes mid-iteration, and
    /// hard-fault recovery replays boundaries with identical content, so
    /// skipping already-seen ids is safe. (Compaction replaces the pages
    /// after the last boundary; the finalized epoch reads them through a
    /// fresh store.)
    fn absorb(&self, table: &SepoTable) -> u64 {
        let org = table.config().organization;
        let mut inner = self.inner.write();
        inner.organization = Some(org);
        for page in table.host_heap().pages() {
            let host_id = page.host_id();
            if inner.pages.contains_key(&host_id) || inner.corrupt.contains_key(&host_id) {
                continue;
            }
            let seq = inner.next_seq;
            inner.next_seq += 1;
            let Ok(page) = page.verify() else {
                // The page's bytes no longer match the stamp they were
                // evicted with: quarantine rather than index damaged
                // data. It still consumes a sequence number, so epochs
                // published *before* this boundary stay readable.
                inner.corrupt.insert(host_id, seq);
                continue;
            };
            for (link, parsed) in primary_entries(org, &page) {
                if let Some(key) = parsed.key() {
                    inner.add_ref(key, seq, link);
                }
            }
            inner.pages.insert(host_id, page);
        }
        inner.next_seq
    }

    /// Combined host partial for `key` below `watermark` (combining
    /// tables). `bytes` accumulates simulated CPU-side read traffic.
    fn combined_under(
        &self,
        key: &[u8],
        watermark: u64,
        comb: Combiner,
        bytes: &mut u64,
    ) -> Result<Option<u64>, QueryError> {
        let inner = self.inner.read();
        let Some(refs) = inner.refs_under(key, watermark) else {
            return Ok(None);
        };
        let mut acc: Option<u64> = None;
        for r in refs {
            let v = inner.read_u64(r.link, combining::VALUE)?;
            *bytes += 8;
            acc = Some(match acc {
                None => v,
                Some(a) => comb.apply(a, v),
            });
        }
        Ok(acc)
    }

    /// Values of every host-indexed key entry for `key` below `watermark`
    /// (multi-valued tables; `None` for a key never evicted): each evicted
    /// key entry contributes its host-linked continuation chain, in
    /// eviction order — the order the collectors concatenate them in.
    fn grouped_under(
        &self,
        key: &[u8],
        watermark: u64,
        bytes: &mut u64,
    ) -> Result<Option<Vec<Vec<u8>>>, QueryError> {
        let inner = self.inner.read();
        let Some(refs) = inner.refs_under(key, watermark) else {
            return Ok(None);
        };
        let mut values = Vec::new();
        for r in refs {
            let cont = inner.read_u64(r.link, key_entry::VALUE_HOST_CONT)?;
            *bytes += 8;
            inner.extend_chain(HostLink::from_raw(cont), &mut values, bytes)?;
        }
        Ok(Some(values))
    }

    /// Refuses with the lowest-id corrupt page an epoch with `watermark`
    /// can see, if any. Batches against such an epoch fail typed: the
    /// quarantined page's entries are unrecoverable from the serving side,
    /// so any answer could silently miss data.
    fn intact_under(&self, watermark: u64) -> Result<(), CorruptPage> {
        let inner = self.inner.read();
        let visible = inner.corrupt.iter().filter(|(_, &seq)| seq < watermark);
        match visible.map(|(&host_id, _)| host_id).min() {
            Some(host_id) => Err(CorruptPage { host_id }),
            None => Ok(()),
        }
    }

    /// Keys with at least one entry below `watermark`.
    fn keys_under(&self, watermark: u64) -> Vec<Vec<u8>> {
        let inner = self.inner.read();
        // A key's first entry is its earliest.
        let visible = |&(first, _): &(u32, u32)| inner.refs[first as usize].seq < watermark;
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
    config: ServeConfig,
    host: Arc<HostStore>,
    current: RwLock<Option<Arc<EpochSnapshot>>>,
    hook: RwLock<Option<EpochHook>>,
}

impl fmt::Debug for EpochPublisher {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EpochPublisher")
            .field("config", &self.config)
            .field(
                "current",
                &self.current.read().as_ref().map(|s| s.iteration),
            )
            .finish()
    }
}

impl Default for EpochPublisher {
    fn default() -> Self {
        Self::new(ServeConfig::default())
    }
}

impl EpochPublisher {
    pub fn new(config: ServeConfig) -> Self {
        EpochPublisher {
            config,
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

    /// Publish the epoch at a quiescent iteration boundary. Driver-only:
    /// every launch of the iteration has retired and every earlier
    /// eviction is stored, so heads, resident pages, and the host heap are
    /// mutually consistent. Pure reads — the table, its metrics, and
    /// the driver's trajectory are untouched, which is what keeps
    /// serving-on runs byte-identical to serving-off runs.
    pub(crate) fn publish_boundary(&self, table: &SepoTable, iteration: u32, finalized: bool) {
        // The finalized epoch reads the compacted host image through a
        // store of its own: the shared one still indexes the partial
        // entries that compaction replaced, for the earlier epochs that
        // hold it.
        let host = if finalized {
            Arc::new(HostStore::new())
        } else {
            Arc::clone(&self.host)
        };
        let watermark = host.absorb(table);
        let heads: Arc<[u64]> = table.snapshot_heads().into();
        // Epoch-guard internals: capturing the boundary's resident pages.
        let heap = table.heap().snapshot();
        let pages: HashMap<u32, SnapshotPage> = heap
            .resident
            .into_iter()
            .map(|rp| {
                (
                    rp.index,
                    SnapshotPage {
                        host_id: rp.host_id,
                        data: rp.data.into(),
                    },
                )
            })
            .collect();
        let snap = Arc::new(EpochSnapshot {
            iteration,
            finalized,
            organization: table.config().organization,
            n_buckets: table.config().n_buckets,
            max_batch: self.config.max_batch,
            heads,
            pages: Arc::new(pages),
            host,
            watermark,
        });
        *self.current.write() = Some(Arc::clone(&snap));
        if let Some(hook) = self.hook.read().as_ref() {
            hook(&snap);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TableConfig;
    use crate::sepo::TaskResult;
    use crate::table::InsertStatus;
    use crate::{DriverConfig, SepoDriver};
    use gpu_sim::executor::ExecMode;
    use gpu_sim::metrics::Metrics;
    use gpu_sim::{FaultConfig, FaultPlan};
    use sepo_alloc::{PageKind, StampedPage};

    fn serving_exec() -> Executor {
        Executor::new(ExecMode::Deterministic, Arc::new(Metrics::new()))
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
        let exec = Executor::new(ExecMode::Deterministic, Arc::clone(t.metrics()));
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
        let exec = Executor::new(ExecMode::Deterministic, Arc::clone(&serve_metrics));
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
