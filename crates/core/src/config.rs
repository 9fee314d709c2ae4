//! Table configuration.

use crate::entry::EntryKind;
use crate::shard::ShardSpec;
use sepo_alloc::PageKind;

/// How two KV pairs with the same key are handled (§IV-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Organization {
    /// Duplicate keys are stored as separate entries — for applications
    /// that do not require grouping.
    Basic,
    /// A per-key linked list of values: on-the-fly grouping without
    /// reduction (Inverted Index, MAP_GROUP MapReduce apps).
    MultiValued,
    /// Duplicate keys update the existing entry's 64-bit value through a
    /// [`Combiner`] — the paper's *combining* method with the reduce
    /// callback embedded in the insert (PVC, Word Count, Netflix, DNA).
    Combining(Combiner),
}

impl Organization {
    /// Short label used by reports.
    pub fn label(&self) -> &'static str {
        match self {
            Organization::Basic => "basic",
            Organization::MultiValued => "multi-valued",
            Organization::Combining(_) => "combining",
        }
    }

    /// How this organization's *primary* entries — the ones that carry a
    /// key — are laid out, and the kind of page they live on. Multi-valued
    /// value nodes sit on separate [`PageKind::Value`] pages and are only
    /// reached through their key's chain.
    pub fn primary_layout(&self) -> (EntryKind, PageKind) {
        match self {
            Organization::Basic => (EntryKind::Basic, PageKind::Mixed),
            Organization::MultiValued => (EntryKind::Key, PageKind::Key),
            Organization::Combining(_) => (EntryKind::Combining, PageKind::Mixed),
        }
    }
}

/// The aggregation applied when a duplicate key is inserted under the
/// combining organization. Values are 64-bit words; every evaluation
/// application's combine (counting, bit-set union, score accumulation)
/// fits. The operation must be commutative and associative: SEPO may apply
/// combines in any order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Combiner {
    /// Wrapping sum (counters: PVC, Word Count, Netflix score sums).
    Add,
    /// Bitwise OR (sets of edges: DNA Assembly).
    Or,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
}

impl Combiner {
    /// Combine the stored value with an incoming one.
    #[inline]
    pub fn apply(&self, stored: u64, incoming: u64) -> u64 {
        match self {
            Combiner::Add => stored.wrapping_add(incoming),
            Combiner::Or => stored | incoming,
            Combiner::Min => stored.min(incoming),
            Combiner::Max => stored.max(incoming),
        }
    }
}

/// Construction parameters for a [`SepoTable`](crate::table::SepoTable).
#[derive(Debug, Clone, PartialEq)]
pub struct TableConfig {
    /// Number of hash buckets. "Having a large number of array elements
    /// reduces lock contention among GPU threads" (§IV) — buckets are cheap
    /// (one word each) because entries are dynamically allocated.
    pub n_buckets: usize,
    /// Contiguous buckets per bucket group; each group allocates from its
    /// own page (§IV-A). Larger groups → fewer pages actively allocated
    /// from → less fragmentation but more allocator contention; the
    /// `ablation_group_size` bench sweeps this trade-off.
    pub buckets_per_group: usize,
    /// Page size of the device heap in bytes.
    pub page_size: usize,
    /// Bucket organization.
    pub organization: Organization,
    /// Basic method only: halt the computation when this fraction of bucket
    /// groups is postponing ("we observed acceptable performance with
    /// setting the threshold to 50%", §IV-C).
    pub halt_threshold: f64,
    /// Place the heap in *pinned CPU memory* instead of device memory — the
    /// alternative design evaluated in Fig. 7 (§VI-D): "we modified our
    /// dynamic memory allocator to pre-allocate its heap as a pinned CPU
    /// memory region … Everything else is kept in GPU memory (e.g. locks)".
    /// Entry reads/writes and chain walks are then priced as small PCIe
    /// transactions; bucket heads and counters stay device-resident. SEPO
    /// is unnecessary in this mode (CPU memory holds everything), so runs
    /// complete in one iteration.
    pub remote_heap: bool,
    /// Hash-prefix shard this table owns under multi-device execution
    /// (`None` = the unsharded table owns every key). When set, the insert
    /// paths silently accept-and-drop keys of other shards, so replicated
    /// multi-key tasks store each key on exactly its owner shard. See
    /// [`crate::shard`].
    pub shard: Option<ShardSpec>,
}

impl TableConfig {
    /// A configuration with the paper's defaults for the given organization.
    pub fn new(organization: Organization) -> Self {
        TableConfig {
            n_buckets: 1 << 16,
            buckets_per_group: 256,
            page_size: 64 * 1024,
            organization,
            halt_threshold: 0.5,
            remote_heap: false,
            shard: None,
        }
    }

    /// A configuration tuned to a heap of `heap_bytes`: the page size is
    /// chosen so the heap splits into a healthy number of pages, the bucket
    /// count tracks the expected entry count, and the bucket-group count
    /// stays below the page count (a group that can never obtain a page
    /// only produces spurious postponements).
    pub fn tuned(organization: Organization, heap_bytes: u64) -> Self {
        let heap_bytes = heap_bytes.max(4 * 1024);
        // Aim for ≥ 64 pages, within the [4 KiB, 64 KiB] page-size band.
        let page_size = (heap_bytes / 64)
            .next_power_of_two()
            .clamp(4 * 1024, 64 * 1024) as usize;
        let n_pages = (heap_bytes as usize / page_size).max(1);
        // ~1 bucket per expected 32 heap bytes: load factor stays around 1
        // even as the table outgrows the heap by a few iterations.
        let n_buckets = (heap_bytes as usize / 32)
            .next_power_of_two()
            .clamp(1 << 10, 1 << 22);
        // Each group can hold up to two current pages (key + value classes
        // in the multi-valued organization); keep groups ≤ pages/4 so the
        // group structure itself can never exhaust the pool.
        let n_groups = (n_pages / 4).max(1);
        TableConfig {
            n_buckets,
            buckets_per_group: n_buckets.div_ceil(n_groups),
            page_size,
            organization,
            halt_threshold: 0.5,
            remote_heap: false,
            shard: None,
        }
    }

    /// Override the bucket count (rounded up to at least one group).
    pub fn with_buckets(mut self, n: usize) -> Self {
        self.n_buckets = n.max(1);
        self
    }

    /// Override the bucket-group size.
    pub fn with_buckets_per_group(mut self, n: usize) -> Self {
        self.buckets_per_group = n.max(1);
        self
    }

    /// Override the page size.
    pub fn with_page_size(mut self, bytes: usize) -> Self {
        self.page_size = bytes;
        self
    }

    /// Place the heap in pinned CPU memory (the Fig. 7 alternative).
    pub fn with_remote_heap(mut self, remote: bool) -> Self {
        self.remote_heap = remote;
        self
    }

    /// Override the basic method's halt threshold.
    pub fn with_halt_threshold(mut self, t: f64) -> Self {
        self.halt_threshold = t.clamp(0.0, 1.0);
        self
    }

    /// Restrict the table to one hash-prefix shard of the key space
    /// (`None` restores unsharded ownership of every key).
    pub fn with_shard(mut self, shard: Option<ShardSpec>) -> Self {
        self.shard = shard;
        self
    }

    /// Does this table own hash `hash`? Unsharded tables own everything.
    #[inline]
    pub fn owns_hash(&self, hash: u64) -> bool {
        match &self.shard {
            None => true,
            Some(s) => s.owns_hash(hash),
        }
    }

    /// Number of bucket groups implied by this configuration.
    pub fn n_groups(&self) -> usize {
        self.n_buckets.div_ceil(self.buckets_per_group).max(1)
    }

    /// Group index of `bucket`.
    #[inline]
    pub fn group_of(&self, bucket: usize) -> usize {
        bucket / self.buckets_per_group
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn combiner_semantics() {
        assert_eq!(Combiner::Add.apply(3, 4), 7);
        assert_eq!(Combiner::Or.apply(0b101, 0b011), 0b111);
        assert_eq!(Combiner::Min.apply(9, 4), 4);
        assert_eq!(Combiner::Max.apply(9, 4), 9);
    }

    #[test]
    fn add_wraps_instead_of_panicking() {
        assert_eq!(Combiner::Add.apply(u64::MAX, 1), 0);
    }

    #[test]
    fn group_mapping_covers_all_buckets() {
        let cfg = TableConfig::new(Organization::Basic)
            .with_buckets(1000)
            .with_buckets_per_group(64);
        assert_eq!(cfg.n_groups(), 16); // ceil(1000/64)
        assert_eq!(cfg.group_of(0), 0);
        assert_eq!(cfg.group_of(63), 0);
        assert_eq!(cfg.group_of(64), 1);
        assert_eq!(cfg.group_of(999), 15);
    }

    #[test]
    fn builders_clamp_garbage() {
        let cfg = TableConfig::new(Organization::Basic)
            .with_buckets(0)
            .with_buckets_per_group(0)
            .with_halt_threshold(7.0);
        assert_eq!(cfg.n_buckets, 1);
        assert_eq!(cfg.buckets_per_group, 1);
        assert_eq!(cfg.halt_threshold, 1.0);
    }

    #[test]
    fn tuned_configs_are_sane_across_scales() {
        for heap in [1u64 << 12, 1 << 16, 1 << 20, 1 << 26, 1 << 32] {
            let cfg = TableConfig::tuned(Organization::Basic, heap);
            let n_pages = heap.max(4096) as usize / cfg.page_size;
            assert!(n_pages >= 1, "heap {heap}");
            assert!(
                cfg.n_groups() <= (n_pages / 2).max(1),
                "heap {heap}: {} groups for {} pages",
                cfg.n_groups(),
                n_pages
            );
            assert!(cfg.page_size >= 4 * 1024 && cfg.page_size <= 64 * 1024);
            assert!(cfg.n_buckets >= 1 << 10);
        }
    }

    #[test]
    fn organization_labels() {
        assert_eq!(Organization::Basic.label(), "basic");
        assert_eq!(Organization::MultiValued.label(), "multi-valued");
        assert_eq!(Organization::Combining(Combiner::Add).label(), "combining");
    }

    #[test]
    fn combiner_equality() {
        assert_eq!(Combiner::Add, Combiner::Add);
        assert_ne!(Combiner::Add, Combiner::Or);
    }
}
