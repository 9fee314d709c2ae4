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

/// The counter table: the one place that says which event counters exist
/// and in which order. Each line generates a [`Counter`] variant and the
/// [`Snapshot`] field of the same position. The order is the checkpoint's
/// serialization order ([`Snapshot::words`]): adding, removing or
/// reordering a line changes the layout of the checkpoint file's
/// `SEPOCKP5` sections and must bump both checkpoint magics.
macro_rules! counters {
    ($($(#[$doc:meta])* $variant:ident => $field:ident;)*) => {
        /// One event counter; `as usize` is its index in [`Counter::ALL`].
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Counter {
            $($(#[$doc])* $variant,)*
        }

        impl Counter {
            /// Every counter, in declaration (= serialization) order.
            pub const ALL: [Counter; Counter::N] = [$(Counter::$variant),*];
            /// Number of counters.
            pub const N: usize = [$(Counter::$variant),*].len();
        }

        /// Plain-value copy of [`Metrics`] at a point in time.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct Snapshot {
            $($(#[$doc])* pub $field: u64,)*
        }

        impl Snapshot {
            /// The counters as words indexed by [`Counter`].
            pub fn words(&self) -> [u64; Counter::N] {
                [$(self.$field),*]
            }

            /// Inverse of [`Snapshot::words`].
            pub fn from_words(w: [u64; Counter::N]) -> Self {
                Snapshot { $($field: w[Counter::$variant as usize],)* }
            }
        }
    };
}

counters! {
    /// Tasks (input records / map invocations) executed.
    Tasks => tasks;
    /// Abstract scalar work units charged by kernels (≈ useful ALU ops).
    ComputeUnits => compute_units;
    /// Bytes of irregular (uncoalesced) device-memory traffic: hash-table
    /// chain walks, entry reads/writes, allocator metadata.
    DeviceBytes => device_bytes;
    /// Bytes of streaming (coalesced) device-memory traffic: reading input
    /// records from the staging buffers.
    StreamBytes => stream_bytes;
    /// Hash-chain links traversed (also contributes to `device_bytes`;
    /// tracked separately for reporting).
    ChainHops => chain_hops;
    /// Bytes of on-chip shared-memory traffic (block-combiner probes and
    /// slot updates) — far cheaper than `device_bytes`.
    SmemBytes => smem_bytes;
    /// Emits absorbed by a block combiner without touching the table.
    CombinerHits => combiner_hits;
    /// Combiner slots flushed into the table (one device atomic each).
    CombinerFlushes => combiner_flushes;
    /// Combiner slots displaced because their set of the tile was full.
    CombinerOverflows => combiner_overflows;
    /// Lost bucket-head CAS races (publish retries under real concurrency;
    /// identically zero in the deterministic modes).
    HeadCasRetries => head_cas_retries;
    /// Warp-divergence events: for each warp, one event per *extra* branch
    /// class beyond the first that the warp had to serially execute.
    DivergenceEvents => divergence_events;
    /// Allocation requests served by the page allocator.
    AllocSuccess => alloc_success;
    /// Allocation requests declined (POSTPONE responses).
    AllocPostponed => alloc_postponed;
    /// Bulk PCIe transfers initiated (large DMA copies).
    PcieBulkTransfers => pcie_bulk_transfers;
    /// Bytes moved by bulk PCIe transfers.
    PcieBulkBytes => pcie_bulk_bytes;
    /// Small PCIe transactions (remote loads/stores to pinned host memory).
    PcieSmallTransactions => pcie_small_transactions;
    /// Bytes moved by small PCIe transactions.
    PcieSmallBytes => pcie_small_bytes;
}

impl Snapshot {
    /// Field-wise difference `self - earlier`, saturating at zero. Used to
    /// attribute events to a phase bounded by two snapshots.
    pub fn delta(&self, earlier: &Snapshot) -> Snapshot {
        let mut w = self.words();
        for (v, e) in w.iter_mut().zip(earlier.words()) {
            *v = v.saturating_sub(e);
        }
        Snapshot::from_words(w)
    }
}

/// Shared atomic event counters. Cheap to clone via `Arc`; kernels flush
/// per-warp local tallies into it to keep host-side atomic traffic low.
///
/// Outside this crate a counter moves only through a [`Charge`] sink, the
/// door a kernel lane's events pass too:
///
/// ```
/// use gpu_sim::{Charge, Counter, Metrics, MetricsCharge};
/// let metrics = Metrics::new();
/// MetricsCharge(&metrics).add(Counter::AllocSuccess, 1);
/// assert_eq!(metrics.snapshot().alloc_success, 1);
/// ```
///
/// ```compile_fail
/// use gpu_sim::Metrics;
/// let metrics = Metrics::new();
/// metrics.add_alloc_success(1);
/// ```
///
/// [`Charge`]: crate::Charge
#[derive(Debug, Default)]
pub struct Metrics {
    counters: [AtomicU64; Counter::N],
}

impl Metrics {
    /// Fresh, zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    pub(crate) fn add(&self, counter: Counter, n: u64) {
        self.counters[counter as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Add every counter of `tally` (one launch's worth of events). Most
    /// launches touch a few counters; the rest cost no atomic.
    pub(crate) fn add_tally(&self, tally: &Tally) {
        for (counter, &n) in self.counters.iter().zip(&tally.0) {
            if n != 0 {
                counter.fetch_add(n, Ordering::Relaxed);
            }
        }
    }

    /// Capture a consistent-enough point-in-time copy. (Individual counters
    /// are read with relaxed ordering; callers snapshot only at quiescent
    /// points — between kernel launches — where no concurrent writers run.)
    pub fn snapshot(&self) -> Snapshot {
        Snapshot::from_words(std::array::from_fn(|i| {
            self.counters[i].load(Ordering::Relaxed)
        }))
    }

    /// Overwrite every counter with the values captured in `s`, rolling
    /// the sink back to a checkpointed state. Only meaningful at quiescent
    /// points (iteration boundaries during hard-fault recovery).
    pub fn restore(&self, s: &Snapshot) {
        for (counter, v) in self.counters.iter().zip(s.words()) {
            counter.store(v, Ordering::Relaxed);
        }
    }
}

/// Unsynchronized event tally indexed by [`Counter`]: what a warp, and then
/// a launch participant, accumulates before one flush into [`Metrics`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Tally([u64; Counter::N]);

impl Tally {
    #[inline]
    pub(crate) fn add(&mut self, counter: Counter, n: u64) {
        self.0[counter as usize] += n;
    }

    pub(crate) fn get(&self, counter: Counter) -> u64 {
        self.0[counter as usize]
    }

    /// Field-wise `self += other`.
    pub(crate) fn absorb(&mut self, other: &Tally) {
        for (a, b) in self.0.iter_mut().zip(other.0) {
            *a += b;
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
        m.add(Counter::Tasks, 3);
        m.add(Counter::ComputeUnits, 100);
        m.add(Counter::DeviceBytes, 64);
        m.add(Counter::ChainHops, 2);
        let s = m.snapshot();
        assert_eq!(s.tasks, 3);
        assert_eq!(s.compute_units, 100);
        assert_eq!(s.device_bytes, 64);
        assert_eq!(s.chain_hops, 2);
        m.restore(&Snapshot::default());
        assert_eq!(m.snapshot(), Snapshot::default());
    }

    /// Pins the counter order: it is the metric layout of a checkpoint
    /// section, so reordering the `counters!` list must fail here (and bump
    /// the checkpoint magics) instead of silently changing the format.
    #[test]
    fn snapshot_words_follow_the_declared_order() {
        let s = Snapshot {
            tasks: 1,
            compute_units: 2,
            device_bytes: 3,
            stream_bytes: 4,
            chain_hops: 5,
            smem_bytes: 6,
            combiner_hits: 7,
            combiner_flushes: 8,
            combiner_overflows: 9,
            head_cas_retries: 10,
            divergence_events: 11,
            alloc_success: 12,
            alloc_postponed: 13,
            pcie_bulk_transfers: 14,
            pcie_bulk_bytes: 15,
            pcie_small_transactions: 16,
            pcie_small_bytes: 17,
        };
        let expect: [u64; 17] = std::array::from_fn(|i| i as u64 + 1);
        assert_eq!(s.words(), expect);
        assert_eq!(Snapshot::from_words(s.words()), s);
    }

    #[test]
    fn tally_absorb_adds_fieldwise_and_flushes_like_per_counter_adds() {
        let mut a = Tally::default();
        let mut b = Tally::default();
        for (i, c) in Counter::ALL.into_iter().enumerate() {
            a.add(c, i as u64 + 1);
            b.add(c, 100 * (i as u64 + 1));
        }
        a.absorb(&b);
        for (i, c) in Counter::ALL.into_iter().enumerate() {
            assert_eq!(a.get(c), 101 * (i as u64 + 1));
        }

        let via_tally = Metrics::new();
        via_tally.add_tally(&a);
        via_tally.add_tally(&b);
        let via_adds = Metrics::new();
        for (i, c) in Counter::ALL.into_iter().enumerate() {
            via_adds.add(c, 201 * (i as u64 + 1));
        }
        assert_eq!(via_tally.snapshot(), via_adds.snapshot());
        assert_eq!(via_tally.snapshot().tasks, 201);
        assert_eq!(via_tally.snapshot().pcie_small_bytes, 201 * 17);
    }

    #[test]
    fn restore_rolls_counters_back_to_a_snapshot() {
        let m = Metrics::new();
        m.add(Counter::Tasks, 10);
        m.add(Counter::DeviceBytes, 640);
        m.add(Counter::AllocSuccess, 4);
        let checkpoint = m.snapshot();
        m.add(Counter::Tasks, 99);
        m.add(Counter::PcieBulkBytes, 1 << 20);
        m.restore(&checkpoint);
        assert_eq!(m.snapshot(), checkpoint);
    }

    #[test]
    fn snapshot_delta_attributes_phase() {
        let m = Metrics::new();
        m.add(Counter::Tasks, 5);
        let before = m.snapshot();
        m.add(Counter::Tasks, 7);
        m.add(Counter::PcieBulkBytes, 1_000);
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
                        m.add(Counter::ComputeUnits, 1);
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
