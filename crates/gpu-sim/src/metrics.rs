//! Event counters feeding the cost model.
//!
//! The simulator never times real execution. Instead, every component
//! (executor, allocator, hash table, PCIe bus) counts the events it
//! performs — scalar work units, irregular device-memory bytes touched,
//! warp-divergence events, PCIe transactions — into a shared [`Metrics`]
//! sink. The cost model (see [`crate::cost`]) then converts a [`Snapshot`]
//! of these counters into simulated time. Because the counts are produced by
//! real execution of the real data structures, the reported behaviour
//! (iteration counts, postponements, transfer volumes) is genuine; only the
//! clock is modelled.

use std::sync::atomic::{AtomicU64, Ordering};

/// Shared atomic event counters. Cheap to clone via `Arc`; kernels flush
/// per-warp local tallies into it to keep host-side atomic traffic low.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Tasks (input records / map invocations) executed.
    pub tasks: AtomicU64,
    /// Abstract scalar work units charged by kernels (≈ useful ALU ops).
    pub compute_units: AtomicU64,
    /// Bytes of irregular (uncoalesced) device-memory traffic: hash-table
    /// chain walks, entry reads/writes, allocator metadata.
    pub device_bytes: AtomicU64,
    /// Bytes of streaming (coalesced) device-memory traffic: reading input
    /// records from the staging buffers.
    pub stream_bytes: AtomicU64,
    /// Hash-chain links traversed (also contributes to `device_bytes`;
    /// tracked separately for reporting).
    pub chain_hops: AtomicU64,
    /// Bytes of on-chip shared-memory traffic (block-combiner probes and
    /// slot updates) — far cheaper than `device_bytes`.
    pub smem_bytes: AtomicU64,
    /// Emits absorbed by a block combiner without touching the table.
    pub combiner_hits: AtomicU64,
    /// Combiner slots flushed into the table (one device atomic each).
    pub combiner_flushes: AtomicU64,
    /// Combiner slots displaced because their set of the tile was full.
    pub combiner_overflows: AtomicU64,
    /// Lost bucket-head CAS races (publish retries under real concurrency;
    /// identically zero in the deterministic modes).
    pub head_cas_retries: AtomicU64,
    /// Warp-divergence events: for each warp, one event per *extra* branch
    /// class beyond the first that the warp had to serially execute.
    pub divergence_events: AtomicU64,
    /// Allocation requests served by the page allocator.
    pub alloc_success: AtomicU64,
    /// Allocation requests declined (POSTPONE responses).
    pub alloc_postponed: AtomicU64,
    /// Bulk PCIe transfers initiated (large DMA copies).
    pub pcie_bulk_transfers: AtomicU64,
    /// Bytes moved by bulk PCIe transfers.
    pub pcie_bulk_bytes: AtomicU64,
    /// Small PCIe transactions (remote loads/stores to pinned host memory).
    pub pcie_small_transactions: AtomicU64,
    /// Bytes moved by small PCIe transactions.
    pub pcie_small_bytes: AtomicU64,
}

macro_rules! add_methods {
    ($($field:ident => $adder:ident),* $(,)?) => {
        impl Metrics {
            $(
                #[inline]
                pub fn $adder(&self, n: u64) {
                    self.$field.fetch_add(n, Ordering::Relaxed);
                }
            )*
        }
    };
}

add_methods! {
    tasks => add_tasks,
    compute_units => add_compute_units,
    device_bytes => add_device_bytes,
    stream_bytes => add_stream_bytes,
    chain_hops => add_chain_hops,
    smem_bytes => add_smem_bytes,
    combiner_hits => add_combiner_hits,
    combiner_flushes => add_combiner_flushes,
    combiner_overflows => add_combiner_overflows,
    head_cas_retries => add_head_cas_retries,
    divergence_events => add_divergence_events,
    alloc_success => add_alloc_success,
    alloc_postponed => add_alloc_postponed,
    pcie_bulk_transfers => add_pcie_bulk_transfers,
    pcie_bulk_bytes => add_pcie_bulk_bytes,
    pcie_small_transactions => add_pcie_small_transactions,
    pcie_small_bytes => add_pcie_small_bytes,
}

impl Metrics {
    /// Fresh, zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Capture a consistent-enough point-in-time copy. (Individual counters
    /// are read with relaxed ordering; callers snapshot only at quiescent
    /// points — between kernel launches — where no concurrent writers run.)
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            tasks: self.tasks.load(Ordering::Relaxed),
            compute_units: self.compute_units.load(Ordering::Relaxed),
            device_bytes: self.device_bytes.load(Ordering::Relaxed),
            stream_bytes: self.stream_bytes.load(Ordering::Relaxed),
            chain_hops: self.chain_hops.load(Ordering::Relaxed),
            smem_bytes: self.smem_bytes.load(Ordering::Relaxed),
            combiner_hits: self.combiner_hits.load(Ordering::Relaxed),
            combiner_flushes: self.combiner_flushes.load(Ordering::Relaxed),
            combiner_overflows: self.combiner_overflows.load(Ordering::Relaxed),
            head_cas_retries: self.head_cas_retries.load(Ordering::Relaxed),
            divergence_events: self.divergence_events.load(Ordering::Relaxed),
            alloc_success: self.alloc_success.load(Ordering::Relaxed),
            alloc_postponed: self.alloc_postponed.load(Ordering::Relaxed),
            pcie_bulk_transfers: self.pcie_bulk_transfers.load(Ordering::Relaxed),
            pcie_bulk_bytes: self.pcie_bulk_bytes.load(Ordering::Relaxed),
            pcie_small_transactions: self.pcie_small_transactions.load(Ordering::Relaxed),
            pcie_small_bytes: self.pcie_small_bytes.load(Ordering::Relaxed),
        }
    }

    /// Overwrite every counter with the values captured in `s`, rolling
    /// the sink back to a checkpointed state. Only meaningful at quiescent
    /// points (iteration boundaries during hard-fault recovery).
    pub fn restore(&self, s: &Snapshot) {
        self.tasks.store(s.tasks, Ordering::Relaxed);
        self.compute_units.store(s.compute_units, Ordering::Relaxed);
        self.device_bytes.store(s.device_bytes, Ordering::Relaxed);
        self.stream_bytes.store(s.stream_bytes, Ordering::Relaxed);
        self.chain_hops.store(s.chain_hops, Ordering::Relaxed);
        self.smem_bytes.store(s.smem_bytes, Ordering::Relaxed);
        self.combiner_hits.store(s.combiner_hits, Ordering::Relaxed);
        self.combiner_flushes
            .store(s.combiner_flushes, Ordering::Relaxed);
        self.combiner_overflows
            .store(s.combiner_overflows, Ordering::Relaxed);
        self.head_cas_retries
            .store(s.head_cas_retries, Ordering::Relaxed);
        self.divergence_events
            .store(s.divergence_events, Ordering::Relaxed);
        self.alloc_success.store(s.alloc_success, Ordering::Relaxed);
        self.alloc_postponed
            .store(s.alloc_postponed, Ordering::Relaxed);
        self.pcie_bulk_transfers
            .store(s.pcie_bulk_transfers, Ordering::Relaxed);
        self.pcie_bulk_bytes
            .store(s.pcie_bulk_bytes, Ordering::Relaxed);
        self.pcie_small_transactions
            .store(s.pcie_small_transactions, Ordering::Relaxed);
        self.pcie_small_bytes
            .store(s.pcie_small_bytes, Ordering::Relaxed);
    }

    /// Reset all counters to zero. Only meaningful at quiescent points.
    pub fn reset(&self) {
        self.tasks.store(0, Ordering::Relaxed);
        self.compute_units.store(0, Ordering::Relaxed);
        self.device_bytes.store(0, Ordering::Relaxed);
        self.stream_bytes.store(0, Ordering::Relaxed);
        self.chain_hops.store(0, Ordering::Relaxed);
        self.smem_bytes.store(0, Ordering::Relaxed);
        self.combiner_hits.store(0, Ordering::Relaxed);
        self.combiner_flushes.store(0, Ordering::Relaxed);
        self.combiner_overflows.store(0, Ordering::Relaxed);
        self.head_cas_retries.store(0, Ordering::Relaxed);
        self.divergence_events.store(0, Ordering::Relaxed);
        self.alloc_success.store(0, Ordering::Relaxed);
        self.alloc_postponed.store(0, Ordering::Relaxed);
        self.pcie_bulk_transfers.store(0, Ordering::Relaxed);
        self.pcie_bulk_bytes.store(0, Ordering::Relaxed);
        self.pcie_small_transactions.store(0, Ordering::Relaxed);
        self.pcie_small_bytes.store(0, Ordering::Relaxed);
    }
}

/// Plain-value copy of [`Metrics`] at a point in time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Snapshot {
    pub tasks: u64,
    pub compute_units: u64,
    pub device_bytes: u64,
    pub stream_bytes: u64,
    pub chain_hops: u64,
    pub smem_bytes: u64,
    pub combiner_hits: u64,
    pub combiner_flushes: u64,
    pub combiner_overflows: u64,
    pub head_cas_retries: u64,
    pub divergence_events: u64,
    pub alloc_success: u64,
    pub alloc_postponed: u64,
    pub pcie_bulk_transfers: u64,
    pub pcie_bulk_bytes: u64,
    pub pcie_small_transactions: u64,
    pub pcie_small_bytes: u64,
}

impl Snapshot {
    /// Field-wise difference `self - earlier`, saturating at zero. Used to
    /// attribute events to a phase bounded by two snapshots.
    pub fn delta(&self, earlier: &Snapshot) -> Snapshot {
        Snapshot {
            tasks: self.tasks.saturating_sub(earlier.tasks),
            compute_units: self.compute_units.saturating_sub(earlier.compute_units),
            device_bytes: self.device_bytes.saturating_sub(earlier.device_bytes),
            stream_bytes: self.stream_bytes.saturating_sub(earlier.stream_bytes),
            chain_hops: self.chain_hops.saturating_sub(earlier.chain_hops),
            smem_bytes: self.smem_bytes.saturating_sub(earlier.smem_bytes),
            combiner_hits: self.combiner_hits.saturating_sub(earlier.combiner_hits),
            combiner_flushes: self
                .combiner_flushes
                .saturating_sub(earlier.combiner_flushes),
            combiner_overflows: self
                .combiner_overflows
                .saturating_sub(earlier.combiner_overflows),
            head_cas_retries: self
                .head_cas_retries
                .saturating_sub(earlier.head_cas_retries),
            divergence_events: self
                .divergence_events
                .saturating_sub(earlier.divergence_events),
            alloc_success: self.alloc_success.saturating_sub(earlier.alloc_success),
            alloc_postponed: self.alloc_postponed.saturating_sub(earlier.alloc_postponed),
            pcie_bulk_transfers: self
                .pcie_bulk_transfers
                .saturating_sub(earlier.pcie_bulk_transfers),
            pcie_bulk_bytes: self.pcie_bulk_bytes.saturating_sub(earlier.pcie_bulk_bytes),
            pcie_small_transactions: self
                .pcie_small_transactions
                .saturating_sub(earlier.pcie_small_transactions),
            pcie_small_bytes: self
                .pcie_small_bytes
                .saturating_sub(earlier.pcie_small_bytes),
        }
    }
}

/// Histogram of per-location update counts, used by the cost model's
/// contention term.
///
/// Contended atomic updates serialize. How much that hurts depends on how
/// many updates land on the same location *concurrently*, which in a
/// throughput model is `n_loc / n_total * threads`. A location only contends
/// once its update count exceeds `n_total / threads`, so the same histogram
/// yields different penalties for a 10,240-thread GPU and an 8-thread CPU —
/// exactly the asymmetry the paper reports for Word Count (§VI-B).
#[derive(Debug, Clone, Default)]
pub struct ContentionHistogram {
    /// `(updates_per_location, number_of_locations_with_that_count)`,
    /// ascending by update count; locations with zero updates are omitted.
    buckets: Vec<(u64, u64)>,
    /// Total updates across all locations.
    total: u64,
}

impl ContentionHistogram {
    /// Build from raw per-location counts (zeros are skipped).
    pub fn from_counts<I: IntoIterator<Item = u64>>(counts: I) -> Self {
        let mut map = std::collections::BTreeMap::new();
        let mut total = 0u64;
        for c in counts {
            if c == 0 {
                continue;
            }
            *map.entry(c).or_insert(0u64) += 1;
            total += c;
        }
        ContentionHistogram {
            buckets: map.into_iter().collect(),
            total,
        }
    }

    /// Total updates recorded.
    pub fn total_updates(&self) -> u64 {
        self.total
    }

    /// Number of distinct locations updated at least once.
    pub fn locations(&self) -> u64 {
        self.buckets.iter().map(|&(_, n)| n).sum()
    }

    /// Σ over locations of `max(0, count - threshold)`: the number of
    /// updates that arrive while another update to the same location is (in
    /// expectation) in flight, i.e. the serialized excess.
    pub fn excess_above(&self, threshold: u64) -> u64 {
        self.buckets
            .iter()
            .map(|&(c, n)| c.saturating_sub(threshold).saturating_mul(n))
            .sum()
    }

    /// Largest per-location update count (0 when empty).
    pub fn max_count(&self) -> u64 {
        self.buckets.last().map(|&(c, _)| c).unwrap_or(0)
    }

    /// Add one more updated location with `count` updates (e.g. a central
    /// allocator's bump pointer, which every allocation touches).
    pub fn add_location(&mut self, count: u64) {
        if count == 0 {
            return;
        }
        match self.buckets.binary_search_by_key(&count, |&(c, _)| c) {
            Ok(i) => self.buckets[i].1 += 1,
            Err(i) => self.buckets.insert(i, (count, 1)),
        }
        self.total += count;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let m = Metrics::new();
        m.add_tasks(3);
        m.add_compute_units(100);
        m.add_device_bytes(64);
        m.add_chain_hops(2);
        let s = m.snapshot();
        assert_eq!(s.tasks, 3);
        assert_eq!(s.compute_units, 100);
        assert_eq!(s.device_bytes, 64);
        assert_eq!(s.chain_hops, 2);
        m.reset();
        assert_eq!(m.snapshot(), Snapshot::default());
    }

    #[test]
    fn restore_rolls_counters_back_to_a_snapshot() {
        let m = Metrics::new();
        m.add_tasks(10);
        m.add_device_bytes(640);
        m.add_alloc_success(4);
        let checkpoint = m.snapshot();
        m.add_tasks(99);
        m.add_pcie_bulk_bytes(1 << 20);
        m.restore(&checkpoint);
        assert_eq!(m.snapshot(), checkpoint);
    }

    #[test]
    fn snapshot_delta_attributes_phase() {
        let m = Metrics::new();
        m.add_tasks(5);
        let before = m.snapshot();
        m.add_tasks(7);
        m.add_pcie_bulk_bytes(1_000);
        let after = m.snapshot();
        let d = after.delta(&before);
        assert_eq!(d.tasks, 7);
        assert_eq!(d.pcie_bulk_bytes, 1_000);
    }

    #[test]
    fn concurrent_updates_are_all_counted() {
        let m = Arc::new(Metrics::new());
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let m = Arc::clone(&m);
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        m.add_compute_units(1);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(m.snapshot().compute_units, 80_000);
    }

    #[test]
    fn histogram_excess_matches_hand_computation() {
        // counts: one location with 10 updates, three with 2, five with 1.
        let counts = [10u64, 2, 2, 2, 1, 1, 1, 1, 1];
        let h = ContentionHistogram::from_counts(counts);
        assert_eq!(h.total_updates(), 21);
        assert_eq!(h.locations(), 9);
        assert_eq!(h.max_count(), 10);
        // threshold 1: (10-1) + 3*(2-1) = 12
        assert_eq!(h.excess_above(1), 12);
        // threshold 2: only the hot location: 8
        assert_eq!(h.excess_above(2), 8);
        // threshold >= max: no excess
        assert_eq!(h.excess_above(10), 0);
        assert_eq!(h.excess_above(u64::MAX), 0);
    }

    #[test]
    fn histogram_ignores_zero_counts() {
        let h = ContentionHistogram::from_counts([0u64, 0, 3]);
        assert_eq!(h.locations(), 1);
        assert_eq!(h.total_updates(), 3);
    }

    #[test]
    fn empty_histogram_is_benign() {
        let h = ContentionHistogram::from_counts(std::iter::empty::<u64>());
        assert_eq!(h.total_updates(), 0);
        assert_eq!(h.excess_above(0), 0);
        assert_eq!(h.max_count(), 0);
    }
}
