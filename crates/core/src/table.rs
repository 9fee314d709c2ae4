//! The SEPO hash table: device-side structure and insert paths.
//!
//! Closed addressing with separate chaining (§IV): an array of bucket
//! heads, each the root of a linked list of dynamically allocated entries.
//! New entries are "always inserted at the head of the bucket linked list …
//! so that there is no need to traverse the linked list elements that might
//! no longer be in GPU memory" (§III-B). Inserts are lock-free: an entry is
//! fully written, then published with a Release CAS on the head; a lost
//! race triggers a re-walk for duplicate detection (combining /
//! multi-valued) before retrying.
//!
//! The insert methods return [`InsertStatus`]: `Postponed` is the SEPO
//! response — the requestor marks the record unprocessed and re-issues it
//! in a later iteration (§III).

use crate::chain::{self, ChainPages};
use crate::config::{Combiner, Organization, TableConfig};
use crate::entry::{self, basic, combining, key_entry, value_node, EntryKind};
use crate::hash::{bucket_for, fnv1a};
use crate::integrity::IntegrityState;
use gpu_sim::charge::{Charge, MetricsCharge, NoCharge};
use gpu_sim::metrics::{ContentionHistogram, Counter, Metrics};
use gpu_sim::shadow::{AccessKind, ShadowAddr};
use gpu_sim::sync::{Published, Relaxed};
use sepo_alloc::{DevHandle, GroupAllocator, Heap, HostHeap, HostLink, Link, PageClass};
use std::sync::Arc;

/// Result of an insert request under the SEPO model of computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertStatus {
    /// The pair was stored (or combined into an existing entry).
    Success,
    /// The table declined the request — re-issue it in a later iteration.
    Postponed,
}

impl InsertStatus {
    pub fn is_success(self) -> bool {
        matches!(self, InsertStatus::Success)
    }
}

/// The GPU-resident hash table plus its CPU-side evicted store.
///
/// Shared across kernel lanes via `Arc`; all hot-path methods take `&self`.
pub struct SepoTable {
    pub(crate) cfg: TableConfig,
    pub(crate) heap: Arc<Heap>,
    pub(crate) groups: GroupAllocator,
    pub(crate) buckets: Box<[Bucket]>,
    pub(crate) host: HostHeap,
    /// Integrity layer: checksum counters, the installed corruption plan,
    /// and the unrecovered-transfer witness slot.
    pub(crate) integrity: IntegrityState,
    metrics: Arc<Metrics>,
}

/// One bucket: the head of its chain and, on the same host cache line, the
/// insert-touch counter feeding the contention model — an insert updates
/// both, so it misses one line instead of two. Sixteen bytes aligned to
/// sixteen: four buckets share a line and none straddles two.
#[repr(align(16))]
pub(crate) struct Bucket {
    pub(crate) head: Published,
    touches: Relaxed<u32>,
}

const _: () = assert!(std::mem::size_of::<Bucket>() == 16);

const NULL_RAW: u64 = u64::MAX;

impl std::fmt::Debug for SepoTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SepoTable")
            .field("organization", &self.cfg.organization.label())
            .field("n_buckets", &self.cfg.n_buckets)
            .field("heap", &self.heap)
            .finish()
    }
}

impl SepoTable {
    /// Build a table whose heap spans `heap_bytes` of device memory.
    ///
    /// The bucket array and per-bucket counters are device structures too,
    /// but tiny next to the heap; callers that track device capacity
    /// precisely subtract them from the capacity and give the heap the
    /// rest, the paper's §IV-A sizing (see `examples/quickstart.rs`).
    pub fn new(cfg: TableConfig, heap_bytes: u64, metrics: Arc<Metrics>) -> Self {
        let heap = Arc::new(Heap::new(heap_bytes, cfg.page_size, Arc::clone(&metrics)));
        let (primary, primary_kind) = cfg.organization.primary_layout();
        let groups = GroupAllocator::new(Arc::clone(&heap), cfg.n_groups(), primary_kind)
            .with_dead_entries(
                entry::dead_entry(primary),
                entry::dead_entry(EntryKind::Value),
            );
        let buckets = (0..cfg.n_buckets)
            .map(|_| Bucket {
                head: Published::new(NULL_RAW),
                touches: Relaxed::new(0),
            })
            .collect();
        SepoTable {
            cfg,
            heap,
            groups,
            buckets,
            host: HostHeap::new(),
            integrity: IntegrityState::default(),
            metrics,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &TableConfig {
        &self.cfg
    }

    /// The device heap (capacity inspection, tests).
    pub fn heap(&self) -> &Arc<Heap> {
        &self.heap
    }

    /// The CPU-side store of evicted pages.
    pub fn host_heap(&self) -> &HostHeap {
        &self.host
    }

    /// The integrity layer (checksum counters, corruption-plan slot).
    pub fn integrity(&self) -> &IntegrityState {
        &self.integrity
    }

    /// The metrics sink.
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.metrics
    }

    /// Raw bucket-head words at a quiescent iteration boundary — the read
    /// shared by checkpoint capture and epoch-snapshot publication. Only
    /// meaningful between launches, when no kernel is mutating heads.
    pub(crate) fn snapshot_heads(&self) -> Vec<u64> {
        self.buckets.iter().map(|b| b.head.get()).collect()
    }

    /// Set every bucket head to a [`SepoTable::snapshot_heads`] word
    /// (checkpoint restore, quiescent). Panics on a bucket-count mismatch.
    pub(crate) fn restore_heads(&self, heads: &[u64]) {
        assert_eq!(heads.len(), self.buckets.len(), "bucket count mismatch");
        for (b, &h) in self.buckets.iter().zip(heads) {
            b.head.set(h);
        }
    }

    /// Fraction of bucket groups currently postponing allocations — the
    /// basic method's halt signal.
    pub fn fraction_failed(&self) -> f64 {
        self.groups.fraction_failed()
    }

    /// Histogram of per-bucket insert touches, for the contention term of
    /// the cost model.
    pub fn contention_histogram(&self) -> ContentionHistogram {
        ContentionHistogram::from_counts(self.buckets.iter().map(|b| b.touches.get() as u64))
    }

    /// Bucket-touch contention plus the allocator's per-group bump-pointer
    /// updates — the complete serialized-atomic profile of a run. With many
    /// bucket groups the allocator term is negligible (the design goal of
    /// §IV-A); with one group it degenerates to a MapCG-style central
    /// allocator hot spot.
    pub fn full_contention_histogram(&self) -> ContentionHistogram {
        let mut h = self.contention_histogram();
        for c in self.groups.alloc_counts() {
            h.add_location(c);
        }
        h
    }

    /// Page-cursor updates over the table's life: one per allocation
    /// outside thread blocks, far fewer where blocks lease page runs.
    pub fn cursor_updates(&self) -> u64 {
        self.groups.alloc_counts().iter().sum()
    }

    /// Lease run tails lost to racing claims and left in their pages as
    /// dead entries: `(count, bytes)`, part of the heap's waste.
    pub fn lost_run_tails(&self) -> (u64, u64) {
        self.groups.lost_tails()
    }

    /// Raw per-bucket touch counters, for checkpoint capture at a
    /// quiescent point.
    pub fn touch_counts(&self) -> Vec<u32> {
        self.buckets.iter().map(|b| b.touches.get()).collect()
    }

    /// Roll the per-bucket touch counters back to a checkpointed state
    /// (hard-fault recovery), so contention histograms of a resumed run
    /// match an unkilled one. Panics on a bucket-count mismatch.
    pub fn restore_touches(&self, counts: &[u32]) {
        assert_eq!(counts.len(), self.buckets.len(), "bucket count mismatch");
        for (b, &c) in self.buckets.iter().zip(counts) {
            b.touches.set(c);
        }
    }

    // ------------------------------------------------------------------
    // Shared chain machinery
    // ------------------------------------------------------------------

    #[inline]
    fn touch(&self, bucket: usize) {
        self.buckets[bucket].touches.fetch_add(1);
    }

    /// Logical shadow address of entry `e` for sanitizer declarations:
    /// keyed by the owning page's *host identity*, so a physical page
    /// recycled after eviction never aliases its previous tenant.
    #[inline]
    pub(crate) fn shadow_entry(&self, e: DevHandle) -> ShadowAddr {
        ShadowAddr::Entry {
            page: self.heap.host_id(e.page()),
            offset: e.offset(),
        }
    }

    #[inline]
    fn head_raw(&self, bucket: usize) -> u64 {
        self.buckets[bucket].head.observe()
    }

    /// Dual link naming the current head of `bucket` (NULL when empty).
    #[inline]
    pub(crate) fn head_link(&self, head_raw: u64) -> Link {
        if head_raw == NULL_RAW {
            Link::NULL
        } else {
            self.heap.link_for(DevHandle::from_raw(head_raw))
        }
    }

    /// Write the common prefix (dual next link) of an entry.
    #[inline]
    pub(crate) fn write_next(&self, e: DevHandle, next: Link) {
        self.heap.write_u64(e, entry::NEXT_DEV, next.dev.to_raw());
        self.heap.write_u64(e, entry::NEXT_HOST, next.host.to_raw());
    }

    /// Charge heap-entry traffic: device memory normally, small PCIe
    /// transactions when the heap is pinned in CPU memory (Fig. 7 mode).
    #[inline]
    fn charge_heap<C: Charge>(&self, charge: &mut C, bytes: u64, transactions: u64) {
        if self.cfg.remote_heap {
            self.charge_remote(transactions, bytes);
        } else {
            charge.device_bytes(bytes);
        }
    }

    /// Charge small PCIe transactions against the pinned remote heap. PCIe
    /// traffic is bus-global, not a per-warp cost — it bypasses the warp
    /// shards by design.
    fn charge_remote(&self, transactions: u64, bytes: u64) {
        let mut bus = MetricsCharge(&self.metrics);
        bus.add(Counter::PcieSmallTransactions, transactions);
        bus.add(Counter::PcieSmallBytes, bytes);
    }

    /// Abandon an unpublished allocation: stamp a tombstone carrying the
    /// region's size so page walkers skip it, and account the waste. See
    /// [`entry::TOMBSTONE`].
    fn abandon(&self, e: DevHandle, lens_off: u32, lens_word: u64, size: usize) {
        self.heap
            .write_u64(e, lens_off, lens_word | entry::TOMBSTONE);
        self.heap.note_waste(size as u64);
    }

    /// Publish `e` as the new head of `bucket` if the head is still
    /// `expect`; returns the observed head on failure. Declares the CAS —
    /// and, on success, the publication of `e` itself — to the sanitizer.
    #[inline]
    fn publish<C: Charge>(
        &self,
        bucket: usize,
        expect: u64,
        e: DevHandle,
        charge: &mut C,
    ) -> Result<(), u64> {
        match self.buckets[bucket].head.cas_publish(expect, e.to_raw()) {
            Ok(_) => {
                charge.access(
                    ShadowAddr::BucketHead(bucket as u32),
                    AccessKind::CasPublish,
                );
                charge.access(self.shadow_entry(e), AccessKind::CasPublish);
                Ok(())
            }
            Err(cur) => {
                charge.access(ShadowAddr::BucketHead(bucket as u32), AccessKind::Atomic);
                Err(cur)
            }
        }
    }

    // ------------------------------------------------------------------
    // Combining organization (§IV-B "combining method")
    // ------------------------------------------------------------------

    /// Insert `<key, value>` with on-the-fly combining. If the key is
    /// resident, its value is combined in place — no memory is allocated,
    /// which is why combining-method iterations keep absorbing duplicate
    /// keys even after the heap fills (§IV-C, Fig. 5c).
    pub fn insert_combining<C: Charge>(
        &self,
        key: &[u8],
        value: u64,
        charge: &mut C,
    ) -> InsertStatus {
        self.insert_combining_hashed(key, fnv1a(key), value, charge)
    }

    /// [`SepoTable::insert_combining`] with a precomputed [`fnv1a`] hash —
    /// the hash-once entry point: callers that already hashed the key (the
    /// emitter, the block combiner) thread the `u64` through instead of
    /// re-hashing the key bytes here.
    pub fn insert_combining_hashed<C: Charge>(
        &self,
        key: &[u8],
        hash: u64,
        value: u64,
        charge: &mut C,
    ) -> InsertStatus {
        // Sharded ownership filter: a foreign key belongs to another
        // shard's table; report success with zero charges so replicated
        // multi-key tasks complete identically on every shard while the
        // key is stored exactly once, on its owner.
        if !self.cfg.owns_hash(hash) {
            return InsertStatus::Success;
        }
        match self.insert_combining_entry(key, hash, value, charge) {
            Ok(_) => InsertStatus::Success,
            Err(()) => InsertStatus::Postponed,
        }
    }

    /// Combining insert that also names the resident entry the value landed
    /// in. The block combiner uses the handle to apply later deltas in place
    /// ([`SepoTable::combine_delta`]) without touching the bucket chain:
    /// the handle stays valid until the next iteration boundary, because
    /// eviction only runs between launches.
    pub(crate) fn insert_combining_entry<C: Charge>(
        &self,
        key: &[u8],
        hash: u64,
        value: u64,
        charge: &mut C,
    ) -> Result<DevHandle, ()> {
        let comb = match self.cfg.organization {
            Organization::Combining(c) => c,
            _ => panic!(
                "insert_combining on a {} table",
                self.cfg.organization.label()
            ),
        };
        let (bucket, lens) = chain::place(key, hash, self.cfg.n_buckets);
        self.touch(bucket);
        // Hash + bucket lookup + allocator bookkeeping: ~120 scalar ops
        // plus the per-byte hashing/compare work.
        charge.compute(120 + 2 * key.len() as u64);
        charge.device_bytes(16); // head read + touch counter

        let mut allocated: Option<DevHandle> = None;
        let size = combining::size(key.len());
        loop {
            let head_raw = self.head_raw(bucket);
            charge.access(ShadowAddr::BucketHead(bucket as u32), AccessKind::Atomic);
            if let Some(e) = chain::find(self, head_raw, EntryKind::Combining, key, lens, charge) {
                // Duplicate: combine atomically via the callback.
                charge.access(self.shadow_entry(e), AccessKind::Atomic);
                self.heap
                    .atomic_u64(e, combining::VALUE)
                    .update(|old| comb.apply(old, value));
                self.charge_heap(charge, 16, 2);
                if let Some(a) = allocated {
                    // We allocated speculatively and lost the race to a peer
                    // inserting the same key: tombstone the entry so the
                    // host page walk neither misparses nor double-counts it.
                    charge.access(self.shadow_entry(a), AccessKind::PlainWrite);
                    self.abandon(a, combining::KLEN, lens, size);
                }
                return Ok(e);
            }
            let e = match allocated {
                Some(e) => e,
                None => match self.alloc_primary(bucket, size, charge) {
                    Ok(e) => e,
                    Err(()) => return Err(()),
                },
            };
            // Fill the entry (next = current head) and publish.
            charge.access(self.shadow_entry(e), AccessKind::PlainWrite);
            self.write_next(e, self.head_link(head_raw));
            self.heap.write_u64(e, combining::VALUE, value);
            self.heap.write_u64(e, combining::KLEN, lens);
            self.heap
                .write(DevHandle::new(e.page(), e.offset() + combining::KEY), key);
            match self.publish(bucket, head_raw, e, charge) {
                Ok(()) => {
                    self.charge_heap(charge, size as u64, 1);
                    charge.device_bytes(8); // head CAS (device-resident)
                    return Ok(e);
                }
                Err(_) => {
                    // Head moved: keep the entry, re-walk for a duplicate,
                    // and retry with the new head.
                    charge.head_cas_retries(1);
                    allocated = Some(e);
                }
            }
        }
    }

    /// Apply an already-combined delta to a resident entry named by a prior
    /// [`SepoTable::insert_combining_entry`]. One device atomic regardless
    /// of how many emits the delta absorbed — the batched half of the block
    /// combiner's flush.
    pub(crate) fn combine_delta<C: Charge>(
        &self,
        e: DevHandle,
        delta: u64,
        comb: Combiner,
        charge: &mut C,
    ) {
        charge.access(self.shadow_entry(e), AccessKind::Atomic);
        self.heap
            .atomic_u64(e, combining::VALUE)
            .update(|old| comb.apply(old, delta));
        self.charge_heap(charge, 16, 2);
    }

    /// The resident combining entry of `key`.
    fn find_combining<C: Charge>(&self, key: &[u8], charge: &mut C) -> Option<DevHandle> {
        let (bucket, lens) = chain::place(key, fnv1a(key), self.cfg.n_buckets);
        let head_raw = self.head_raw(bucket);
        chain::find(self, head_raw, EntryKind::Combining, key, lens, charge)
    }

    /// Resident-side lookup of a combining key's current value (testing and
    /// intra-phase reads; evicted keys are not consulted).
    pub fn lookup_combining<C: Charge>(&self, key: &[u8], charge: &mut C) -> Option<u64> {
        let e = self.find_combining(key, charge)?;
        Some(self.heap.atomic_u64(e, combining::VALUE).observe())
    }

    /// Stable host link of a *resident* combining entry for `key` — its
    /// eventual CPU address, used by the access-trace instrumentation of
    /// the Table III experiment.
    pub fn resident_entry_host(&self, key: &[u8]) -> Option<sepo_alloc::HostLink> {
        let e = self.find_combining(key, &mut NoCharge)?;
        Some(self.heap.link_for(e).host)
    }

    // ------------------------------------------------------------------
    // Basic organization
    // ------------------------------------------------------------------

    /// Insert `<key, value>` as a fresh entry; duplicate keys coexist.
    pub fn insert_basic<C: Charge>(
        &self,
        key: &[u8],
        value: &[u8],
        charge: &mut C,
    ) -> InsertStatus {
        assert!(
            matches!(self.cfg.organization, Organization::Basic),
            "insert_basic on a {} table",
            self.cfg.organization.label()
        );
        assert!(
            (value.len() as u64) < (1 << 31),
            "basic values are capped below 2^31 bytes (tombstone bit)"
        );
        let hash = fnv1a(key);
        // Sharded ownership filter (see `insert_combining_hashed`).
        if !self.cfg.owns_hash(hash) {
            return InsertStatus::Success;
        }
        let bucket = bucket_for(hash, self.cfg.n_buckets);
        self.touch(bucket);
        charge.compute(120 + 2 * key.len() as u64 + value.len() as u64 / 4);
        charge.device_bytes(16);

        let size = basic::size(key.len(), value.len());
        let e = match self.alloc_primary(bucket, size, charge) {
            Ok(e) => e,
            Err(()) => return InsertStatus::Postponed,
        };
        charge.access(self.shadow_entry(e), AccessKind::PlainWrite);
        self.heap.write_u64(
            e,
            basic::LENS,
            key.len() as u64 | ((value.len() as u64) << 32),
        );
        let payload = DevHandle::new(e.page(), e.offset() + basic::PAYLOAD);
        self.heap.write(payload, key);
        self.heap.write(
            DevHandle::new(payload.page(), payload.offset() + key.len() as u32),
            value,
        );
        loop {
            let head_raw = self.head_raw(bucket);
            charge.access(ShadowAddr::BucketHead(bucket as u32), AccessKind::Atomic);
            charge.access(self.shadow_entry(e), AccessKind::PlainWrite);
            self.write_next(e, self.head_link(head_raw));
            if self.publish(bucket, head_raw, e, charge).is_ok() {
                self.charge_heap(charge, size as u64, 1);
                charge.device_bytes(8); // head CAS (device-resident)
                return InsertStatus::Success;
            }
            charge.head_cas_retries(1);
        }
    }

    // ------------------------------------------------------------------
    // Multi-valued organization (§IV-B, Fig. 3)
    // ------------------------------------------------------------------

    /// Insert `<key, value>`, grouping `value` under `key`'s value list.
    pub fn insert_multivalued<C: Charge>(
        &self,
        key: &[u8],
        value: &[u8],
        charge: &mut C,
    ) -> InsertStatus {
        assert!(
            matches!(self.cfg.organization, Organization::MultiValued),
            "insert_multivalued on a {} table",
            self.cfg.organization.label()
        );
        let hash = fnv1a(key);
        // Sharded ownership filter (see `insert_combining_hashed`).
        if !self.cfg.owns_hash(hash) {
            return InsertStatus::Success;
        }
        let (bucket, lens) = chain::place(key, hash, self.cfg.n_buckets);
        self.touch(bucket);
        charge.compute(120 + 2 * key.len() as u64 + value.len() as u64 / 4);
        charge.device_bytes(16);

        let group = self.cfg.group_of(bucket);
        let vsize = value_node::size(value.len());
        let mut allocated_key: Option<DevHandle> = None;
        loop {
            let head_raw = self.head_raw(bucket);
            charge.access(ShadowAddr::BucketHead(bucket as u32), AccessKind::Atomic);
            if let Some(k) = chain::find(self, head_raw, EntryKind::Key, key, lens, charge) {
                if let Some(a) = allocated_key {
                    charge.access(self.shadow_entry(a), AccessKind::PlainWrite);
                    self.abandon(a, key_entry::KLEN, lens, key_entry::size(key.len()));
                }
                return self.append_value(k, group, value, vsize, charge);
            }
            // Key absent: need a key entry plus its first value node.
            let ksize = key_entry::size(key.len());
            let k = match allocated_key {
                Some(k) => k,
                None => match self.alloc_class(group, PageClass::Primary, ksize, charge) {
                    Ok(k) => k,
                    Err(()) => return InsertStatus::Postponed,
                },
            };
            let v = match self.alloc_class(group, PageClass::Value, vsize, charge) {
                Ok(v) => v,
                Err(()) => {
                    // The key entry was carved out but can't be completed;
                    // tombstone it so key-page walks skip the region.
                    charge.access(self.shadow_entry(k), AccessKind::PlainWrite);
                    self.abandon(k, key_entry::KLEN, lens, ksize);
                    return InsertStatus::Postponed;
                }
            };
            // First value node of a brand-new key: no predecessor.
            charge.access(self.shadow_entry(v), AccessKind::PlainWrite);
            self.write_next(v, Link::NULL);
            self.heap.write_u64(v, value_node::VLEN, value.len() as u64);
            self.heap.write(
                DevHandle::new(v.page(), v.offset() + value_node::VALUE),
                value,
            );
            // Key entry.
            charge.access(self.shadow_entry(k), AccessKind::PlainWrite);
            self.write_next(k, self.head_link(head_raw));
            self.heap.write_u64(k, key_entry::VALUE_HEAD, v.to_raw());
            self.heap
                .write_u64(k, key_entry::VALUE_HOST_CONT, HostLink::NULL.to_raw());
            self.heap.write_u64(k, key_entry::FLAGS, 0);
            self.heap.write_u64(k, key_entry::KLEN, lens);
            self.heap
                .write(DevHandle::new(k.page(), k.offset() + key_entry::KEY), key);
            match self.publish(bucket, head_raw, k, charge) {
                Ok(()) => {
                    // Publishing the key also publishes its linked value.
                    charge.access(self.shadow_entry(v), AccessKind::CasPublish);
                    self.charge_heap(charge, (ksize + vsize) as u64, 2);
                    charge.device_bytes(8); // head CAS (device-resident)
                    return InsertStatus::Success;
                }
                Err(_) => {
                    // Keep the key entry for a retry, but the value node was
                    // linked assuming this key; it will be re-pointed if a
                    // peer inserted the key first (next loop iteration finds
                    // it and appends a *new* node — abandon this one).
                    charge.head_cas_retries(1);
                    charge.access(self.shadow_entry(v), AccessKind::PlainWrite);
                    self.abandon(v, value_node::VLEN, value.len() as u64, vsize);
                    allocated_key = Some(k);
                }
            }
        }
    }

    /// Append a value node to existing key entry `k`; on allocation failure
    /// mark the key pending (its page must stay resident, §IV-C) and
    /// postpone.
    fn append_value<C: Charge>(
        &self,
        k: DevHandle,
        group: usize,
        value: &[u8],
        vsize: usize,
        charge: &mut C,
    ) -> InsertStatus {
        let v = match self.alloc_class(group, PageClass::Value, vsize, charge) {
            Ok(v) => v,
            Err(()) => {
                charge.access(self.shadow_entry(k), AccessKind::Atomic);
                self.mark_pending(k);
                return InsertStatus::Postponed;
            }
        };
        charge.access(self.shadow_entry(v), AccessKind::PlainWrite);
        self.heap.write_u64(v, value_node::VLEN, value.len() as u64);
        self.heap.write(
            DevHandle::new(v.page(), v.offset() + value_node::VALUE),
            value,
        );
        let head = self.heap.atomic_u64(k, key_entry::VALUE_HEAD);
        loop {
            let old_raw = head.observe();
            charge.access(self.shadow_entry(k), AccessKind::Atomic);
            let next = if old_raw == NULL_RAW {
                // Chain continues in CPU memory (or is empty): link to the
                // key's host continuation.
                Link::host_only(HostLink::from_raw(
                    self.heap.read_u64(k, key_entry::VALUE_HOST_CONT),
                ))
            } else {
                self.heap.link_for(DevHandle::from_raw(old_raw))
            };
            charge.access(self.shadow_entry(v), AccessKind::PlainWrite);
            self.write_next(v, next);
            if head.cas_publish(old_raw, v.to_raw()).is_ok() {
                charge.access(self.shadow_entry(v), AccessKind::CasPublish);
                self.charge_heap(charge, vsize as u64 + 16, 3);
                return InsertStatus::Success;
            }
            charge.head_cas_retries(1);
        }
    }

    /// Mark key entry `k` pending: its page must survive this iteration's
    /// eviction. The per-entry flag dedups the per-page counter increment.
    fn mark_pending(&self, k: DevHandle) {
        let flags = self.heap.atomic_u64(k, key_entry::FLAGS);
        let prev = flags.update(|f| f | key_entry::FLAG_PENDING);
        if prev & key_entry::FLAG_PENDING == 0 {
            self.heap.add_pending_key(k.page());
        }
    }

    // ------------------------------------------------------------------
    // Allocation helpers
    // ------------------------------------------------------------------

    fn alloc_primary<C: Charge>(
        &self,
        bucket: usize,
        size: usize,
        charge: &mut C,
    ) -> Result<DevHandle, ()> {
        self.alloc_class(self.cfg.group_of(bucket), PageClass::Primary, size, charge)
    }

    fn alloc_class<C: Charge>(
        &self,
        group: usize,
        class: PageClass,
        size: usize,
        charge: &mut C,
    ) -> Result<DevHandle, ()> {
        self.groups
            .alloc_charged(group, class, size, charge)
            .map_err(|_| ())
    }
}

/// The live heap as a chain-walk page source: PCIe transactions when pinned in
/// CPU memory (Fig. 7 mode), and one sanitizer declaration per visited entry.
impl ChainPages for SepoTable {
    #[inline]
    fn host_id(&self, page: u32) -> Option<u64> {
        Some(self.heap.host_id(page))
    }

    #[inline]
    fn bytes(&self, e: DevHandle, field: u32, len: usize) -> Option<&[u8]> {
        let at = DevHandle::new(e.page(), e.offset() + field);
        Some(self.heap.read(at, len))
    }

    fn hop<C: Charge>(&self, e: DevHandle, charge: &mut C) {
        if self.cfg.remote_heap {
            self.charge_remote(1, 16);
        } else {
            charge.chain_hops(1);
        }
        charge.access(self.shadow_entry(e), AccessKind::PlainRead);
    }

    fn read<C: Charge>(&self, bytes: u64, charge: &mut C) {
        self.charge_heap(charge, bytes, 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Combiner;
    use gpu_sim::charge::NoCharge;
    use sepo_alloc::PageKind;

    fn table(org: Organization, heap_kb: usize) -> SepoTable {
        let cfg = TableConfig::new(org)
            .with_buckets(64)
            .with_buckets_per_group(16)
            .with_page_size(1024);
        SepoTable::new(cfg, (heap_kb * 1024) as u64, Arc::new(Metrics::new()))
    }

    /// A thread block's charge sink, by hand: its own page leases.
    #[derive(Default)]
    struct Block(gpu_sim::BlockLeases);

    impl Charge for Block {
        fn add(&mut self, _: Counter, _: u64) {}
        fn access(&mut self, _: ShadowAddr, _: AccessKind) {}
        fn leases(&mut self) -> Option<&mut gpu_sim::BlockLeases> {
            Some(&mut self.0)
        }
    }

    /// Keys on resident Key pages, by page walk.
    fn walked_keys(t: &SepoTable) -> Vec<Vec<u8>> {
        let heap = t.heap();
        let mut keys: Vec<Vec<u8>> = heap
            .resident_pages()
            .into_iter()
            .filter(|&p| heap.page_kind(p) == PageKind::Key)
            .flat_map(|p| entry::PageWalker::new(heap.page_bytes(p), EntryKind::Key))
            .map(|(_, e)| e.key().unwrap().to_vec())
            .collect();
        keys.sort();
        keys
    }

    /// Two blocks lease runs of one group's key and value pages, the way
    /// racing blocks interleave: `b`'s first allocations land past `a`'s
    /// runs, so `a`'s tails cannot go back and stay as dead entries. The
    /// page walk, the audit and host compaction see exactly the live
    /// entries, and the tails are heap waste.
    #[test]
    fn a_lost_lease_tail_is_invisible_to_walks_audit_and_compaction() {
        let cfg = TableConfig::new(Organization::MultiValued)
            .with_buckets(64)
            .with_buckets_per_group(64)
            .with_page_size(16 * 1024);
        let t = SepoTable::new(cfg, 8 * 16 * 1024, Arc::new(Metrics::new()));
        let mut audit = crate::audit::TableAudit::begin(&t);
        let (mut a, mut b) = (Block::default(), Block::default());
        let insert = |block: &mut Block, i: usize| {
            let (key, value) = (format!("key-{i}"), format!("value-{i}"));
            assert!(t
                .insert_multivalued(key.as_bytes(), value.as_bytes(), block)
                .is_success());
        };
        for i in 0..3 {
            insert(&mut a, i);
        }
        for i in 3..6 {
            insert(&mut b, i);
        }
        insert(&mut a, 6);
        let waste_before = t.heap().stats().wasted_bytes;
        t.groups.close_leases(&mut a);
        t.groups.close_leases(&mut b);
        assert!(a.0.is_empty() && b.0.is_empty());
        // `a` lost its tail on both page classes: each kind's used bytes
        // are its entries plus a tail, parked as a dead entry for the
        // group's next claim.
        let used = |kind| -> u64 {
            let heap = t.heap();
            let pages = heap.resident_pages().into_iter();
            let pages = pages.filter(|&p| heap.page_kind(p) == kind);
            pages.map(|p| heap.page_used(p) as u64).sum()
        };
        let entries = |size: fn(usize) -> usize, prefix: &str| -> u64 {
            (0..7)
                .map(|i| size(format!("{prefix}-{i}").len()) as u64)
                .sum()
        };
        let key_tail = used(PageKind::Key) - entries(key_entry::size, "key");
        let value_tail = used(PageKind::Value) - entries(value_node::size, "value");
        assert!(key_tail > 0 && value_tail > 0);
        assert_eq!(t.heap().stats().wasted_bytes, waste_before);
        assert_eq!(t.lost_run_tails(), (0, 0));

        let expect: Vec<Vec<u8>> = (0..7).map(|i| format!("key-{i}").into_bytes()).collect();
        assert_eq!(walked_keys(&t), expect);

        let done = crate::bitmap::Bitmap::new(7);
        (0..7).for_each(|i| done.set(i));
        let used = t.heap().stats().used_bytes;
        let resident = t.heap().resident_pages().len() as u64;
        let evict = t.end_iteration();
        audit.check_iteration(&t, &done, 0, used, &evict).unwrap();
        // No claim took the tails over: the iteration's end writes them
        // off, beside the free ends of the pages it evicted.
        let tails = key_tail + value_tail;
        assert_eq!(t.lost_run_tails(), (2, tails));
        let page_ends = resident * t.heap().page_size() as u64 - used;
        assert_eq!(
            t.heap().stats().wasted_bytes - waste_before,
            tails + page_ends
        );
        assert_eq!(
            t.heap().stats().used_bytes,
            0,
            "every page went to the host"
        );
        let compacted = t.compact_host().unwrap().expect("key entries to join");
        assert_eq!(compacted.keys, 7);
        audit.check_compacted(&t).unwrap();
        let mut got = t.collect_grouped();
        got.sort();
        let want: Vec<_> = (0..7)
            .map(|i| {
                let (k, v) = (format!("key-{i}"), format!("value-{i}"));
                (k.into_bytes(), vec![v.into_bytes()])
            })
            .collect();
        assert_eq!(got, want);
    }

    /// One launch under block hooks leaves every used prefix exactly as
    /// long as the entries carved from it: every lease tail went back.
    #[test]
    fn a_launch_leaves_page_used_equal_to_its_entries() {
        use gpu_sim::executor::{BlockHooks, ExecMode, Executor};
        let t = table(Organization::Combining(Combiner::Add), 256);
        let exec = Executor::new(ExecMode::ParallelDeterministic, Arc::clone(t.metrics()));
        let finish = |_: Option<&mut gpu_sim::Scratch>, mut c: &mut dyn Charge| {
            t.groups.close_leases(&mut c);
        };
        let hooks = BlockHooks {
            init: None,
            finish: &finish,
        };
        let n = 2_000;
        exec.try_launch_scoped(n, Some(&hooks), |lane| {
            let key = format!("k{}", lane.task());
            assert!(t.insert_combining(key.as_bytes(), 1, lane).is_success());
        })
        .unwrap();
        let used: usize = t
            .heap()
            .resident_pages()
            .iter()
            .map(|&p| t.heap().page_used(p))
            .sum();
        let entries: usize = (0..n).map(|i| combining::size(format!("k{i}").len())).sum();
        assert_eq!(used, entries);
        assert!(t.cursor_updates() < n as u64 / 4, "{}", t.cursor_updates());
    }

    #[test]
    fn combining_inserts_and_combines() {
        let t = table(Organization::Combining(Combiner::Add), 64);
        let mut c = NoCharge;
        assert!(t.insert_combining(b"url-a", 1, &mut c).is_success());
        assert!(t.insert_combining(b"url-a", 1, &mut c).is_success());
        assert!(t.insert_combining(b"url-b", 5, &mut c).is_success());
        assert_eq!(t.lookup_combining(b"url-a", &mut c), Some(2));
        assert_eq!(t.lookup_combining(b"url-b", &mut c), Some(5));
        assert_eq!(t.lookup_combining(b"url-c", &mut c), None);
    }

    #[test]
    fn combining_postpones_when_heap_full() {
        // Tiny heap: 1 page of 1KiB. Fill it with distinct keys, then expect
        // POSTPONE for new keys but SUCCESS for duplicates (Fig. 5c).
        let t = table(Organization::Combining(Combiner::Add), 1);
        let mut c = NoCharge;
        let mut stored = Vec::new();
        let mut postponed = false;
        for i in 0..100 {
            let key = format!("key-{i:04}");
            match t.insert_combining(key.as_bytes(), 1, &mut c) {
                InsertStatus::Success => stored.push(key),
                InsertStatus::Postponed => {
                    postponed = true;
                    break;
                }
            }
        }
        assert!(postponed, "1 KiB heap must fill");
        assert!(!stored.is_empty());
        // Duplicate keys still combine even though the heap is full.
        for key in &stored {
            assert!(t.insert_combining(key.as_bytes(), 1, &mut c).is_success());
            assert_eq!(t.lookup_combining(key.as_bytes(), &mut c), Some(2));
        }
        assert!(t.fraction_failed() > 0.0);
    }

    #[test]
    fn basic_keeps_duplicates_separate() {
        let t = table(Organization::Basic, 64);
        let mut c = NoCharge;
        assert!(t.insert_basic(b"k", b"v1", &mut c).is_success());
        assert!(t.insert_basic(b"k", b"v2", &mut c).is_success());
        // Both entries resident: walk the chain by hand through the heap.
        let bucket = crate::hash::bucket_of(b"k", t.cfg.n_buckets);
        let head = DevHandle::from_raw(t.buckets[bucket].head.observe());
        assert!(!head.is_null());
        let next_raw = t.heap.read_u64(head, entry::NEXT_DEV);
        assert_ne!(next_raw, NULL_RAW, "second entry links to first");
    }

    #[test]
    fn multivalued_groups_values_under_one_key() {
        let t = table(Organization::MultiValued, 64);
        let mut c = NoCharge;
        for v in [&b"a.html"[..], b"c.html", b"d.html"] {
            assert!(t
                .insert_multivalued(b"http://google.com", v, &mut c)
                .is_success());
        }
        assert!(t
            .insert_multivalued(b"http://other.com", b"x.html", &mut c)
            .is_success());
        // Exactly two key entries were allocated (Key pages), value nodes on
        // Value pages.
        let key_pages: Vec<_> = t
            .heap
            .resident_pages()
            .into_iter()
            .filter(|&p| t.heap.page_kind(p) == PageKind::Key)
            .collect();
        assert!(!key_pages.is_empty());
        let n_keys: usize = key_pages
            .iter()
            .map(|&p| entry::PageWalker::new(&t.heap.page_data(p), entry::EntryKind::Key).count())
            .sum();
        assert_eq!(n_keys, 2);
    }

    #[test]
    fn multivalued_postpone_marks_key_pending() {
        // Heap with 2 pages: key page + value page, both tiny.
        let t = table(Organization::MultiValued, 2);
        let mut c = NoCharge;
        // First insert takes both pages.
        assert!(t.insert_multivalued(b"key", b"v0", &mut c).is_success());
        // Fill the value page.
        let mut postponed = false;
        for i in 0..50 {
            let v = format!("value-{i:03}-padding-padding");
            if !t
                .insert_multivalued(b"key", v.as_bytes(), &mut c)
                .is_success()
            {
                postponed = true;
                break;
            }
        }
        assert!(postponed);
        // The key's page must now be pinned by a pending key.
        let key_page = t
            .heap
            .resident_pages()
            .into_iter()
            .find(|&p| t.heap.page_kind(p) == PageKind::Key)
            .unwrap();
        assert_eq!(t.heap.pending_keys(key_page), 1);
        // A second postponement does not double-count.
        assert!(!t
            .insert_multivalued(b"key", b"another-long-value-xxxx", &mut c)
            .is_success());
        assert_eq!(t.heap.pending_keys(key_page), 1);
    }

    /// A table whose every key shares one bucket, so each lookup walks
    /// every entry.
    fn one_bucket(org: Organization) -> SepoTable {
        let cfg = TableConfig::new(org)
            .with_buckets(1)
            .with_buckets_per_group(1)
            .with_page_size(1024);
        SepoTable::new(cfg, 64 * 1024, Arc::new(Metrics::new()))
    }

    /// Two distinct 16-byte keys whose tagged length words are equal: the
    /// first collision of a birthday search over 31-bit tags, which comes
    /// after about 2^16 keys.
    fn keys_with_one_tag() -> (Vec<u8>, Vec<u8>) {
        let mut seen = std::collections::HashMap::new();
        for i in 0u32..1 << 20 {
            let key = format!("{i:016}").into_bytes();
            if let Some(other) = seen.insert(entry::key_lens(&key), key.clone()) {
                return (other, key);
            }
        }
        panic!("no two of 2^20 keys share a tag");
    }

    #[test]
    fn keys_sharing_a_tag_stay_exact() {
        let (a, b) = keys_with_one_tag();
        assert_ne!(a, b);
        let mut c = NoCharge;

        let t = one_bucket(Organization::Combining(Combiner::Add));
        for round in 1..=3 {
            assert!(t.insert_combining(&a, round, &mut c).is_success());
            assert!(t.insert_combining(&b, 10 * round, &mut c).is_success());
        }
        assert_eq!(t.lookup_combining(&a, &mut c), Some(6));
        assert_eq!(t.lookup_combining(&b, &mut c), Some(60));
        t.finalize();
        let mut got = t.collect_combining();
        got.sort();
        assert_eq!(got, vec![(a.clone(), 6), (b.clone(), 60)]);

        let t = one_bucket(Organization::MultiValued);
        let mut want: Vec<(Vec<u8>, Vec<Vec<u8>>)> = vec![(a, Vec::new()), (b, Vec::new())];
        for round in 0..3 {
            for (key, values) in want.iter_mut() {
                let value = [&key[12..], format!("-{round}").as_bytes()].concat();
                assert!(t.insert_multivalued(key, &value, &mut c).is_success());
                values.push(value);
            }
        }
        t.finalize();
        let mut got = t.collect_multivalued();
        for (_, values) in got.iter_mut() {
            values.sort();
        }
        got.sort();
        assert_eq!(got, want);
    }

    #[test]
    fn a_non_matching_hop_charges_its_link_and_no_key_bytes() {
        let (a, b, absent) = (
            &b"AAAAAAAAAAAAAAAA"[..],
            &b"CCCCCCCCCCCCCCCC"[..],
            &b"GGGGGGGGGGGGGGGG"[..],
        );
        let tags = [a, b, absent].map(entry::key_lens);
        assert!(tags[0] != tags[1] && tags[1] != tags[2] && tags[0] != tags[2]);
        let t = one_bucket(Organization::Combining(Combiner::Add));
        assert!(t.insert_combining(a, 1, &mut NoCharge).is_success());
        assert!(t.insert_combining(b, 2, &mut NoCharge).is_success());
        // The chain is b -> a. Finding a passes b's entry on its length word.
        let m = Metrics::new();
        assert_eq!(t.lookup_combining(a, &mut MetricsCharge(&m)), Some(1));
        let s = m.snapshot();
        assert_eq!(s.chain_hops, 2);
        assert_eq!(s.device_bytes, 2 * 16 + a.len() as u64);
        // A miss reads two links and no key byte.
        let m = Metrics::new();
        assert_eq!(t.lookup_combining(absent, &mut MetricsCharge(&m)), None);
        let s = m.snapshot();
        assert_eq!((s.chain_hops, s.device_bytes), (2, 2 * 16));
    }

    #[test]
    fn wrong_organization_panics() {
        let t = table(Organization::Basic, 4);
        let mut c = NoCharge;
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            t.insert_combining(b"k", 1, &mut c)
        }));
        assert!(r.is_err());
    }

    #[test]
    fn contention_histogram_reflects_touches() {
        let t = table(Organization::Combining(Combiner::Add), 64);
        let mut c = NoCharge;
        for _ in 0..10 {
            t.insert_combining(b"hot", 1, &mut c);
        }
        t.insert_combining(b"cold", 1, &mut c);
        let h = t.contention_histogram();
        assert_eq!(h.total_updates(), 11);
        assert_eq!(h.max_count(), 10);
    }

    #[test]
    fn concurrent_combining_counts_exactly() {
        // The core lock-free-insert correctness test: N threads each add 1
        // to a small key set; totals must be exact.
        let t = Arc::new(table(Organization::Combining(Combiner::Add), 256));
        let keys: Vec<String> = (0..20).map(|i| format!("key-{i}")).collect();
        std::thread::scope(|s| {
            for _ in 0..8 {
                let t = Arc::clone(&t);
                let keys = &keys;
                s.spawn(move || {
                    let mut c = NoCharge;
                    for i in 0..5_000 {
                        let k = &keys[i % keys.len()];
                        assert!(t.insert_combining(k.as_bytes(), 1, &mut c).is_success());
                    }
                });
            }
        });
        let mut c = NoCharge;
        for k in &keys {
            assert_eq!(
                t.lookup_combining(k.as_bytes(), &mut c),
                Some(8 * 5_000 / 20),
                "miscount for {k}"
            );
        }
    }
}
