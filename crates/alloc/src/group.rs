//! Bucket-group allocation: distributing allocator load over pages.
//!
//! §IV-A: "we partition the hash table buckets into *bucket groups*, each
//! containing n contiguous buckets, and we allocate memory for each bucket
//! group from a different page. … instead of accessing one free-list
//! pointer, the accesses are distributed over multiple free-list pointers
//! (one per accessed page), reducing memory access contention."
//!
//! Each group owns up to two *current pages* — one per [`PageClass`]; the
//! multi-valued organization allocates keys and values from separate pages
//! (§IV-B) so they can be evicted independently. When a group's current
//! page fills, the group pulls a fresh page from the heap's pool; when the
//! pool is dry, the allocation is declined (POSTPONE) and the group is
//! marked *failed* — the basic method's halt policy watches the fraction of
//! failed groups (§IV-C, the 50% threshold).

use crate::heap::{Heap, PageKind};
use crate::layout::DevHandle;
use gpu_sim::charge::{Charge, MetricsCharge};
use gpu_sim::metrics::Counter;
use gpu_sim::shadow::{AccessKind, ShadowAddr};
use gpu_sim::sync::{Published, Relaxed};
use std::sync::Arc;

/// Which of a group's current pages an allocation draws from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageClass {
    /// Mixed entries (basic/combining) or key entries (multi-valued).
    Primary = 0,
    /// Value nodes (multi-valued only).
    Value = 1,
}

/// Outcome of a declined allocation. Mirrors the paper's POSTPONE response:
/// the requestor re-issues the request in a later iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Postpone;

const NO_PAGE: u64 = u64::MAX;

#[derive(Debug)]
struct Group {
    /// The page each [`PageClass`] bumps, or `NO_PAGE`. Published: it
    /// hands a page this group's lanes did not acquire themselves, and a
    /// lane that observes it must see the page's reset metadata.
    current: [Published; 2],
    /// 1 once an allocation of this iteration was postponed. Relaxed: a
    /// flag whose first setter counts the group in `failed_count`.
    failed: Relaxed<u8>,
    /// Successful allocations served by this group — each one an atomic
    /// bump on the group's current-page pointer, the location the paper
    /// distributes load over (§IV-A). Feeds the allocator-contention
    /// histogram. Relaxed: a statistics counter.
    allocs: Relaxed<u64>,
}

impl Group {
    fn new() -> Self {
        Group {
            current: [Published::new(NO_PAGE), Published::new(NO_PAGE)],
            failed: Relaxed::new(0),
            allocs: Relaxed::new(0),
        }
    }
}

/// Allocator front-end: one slot of current pages per bucket group.
#[derive(Debug)]
pub struct GroupAllocator {
    heap: Arc<Heap>,
    groups: Box<[Group]>,
    /// Groups whose `failed` flag is set. Relaxed: the halt policy reads
    /// it between launches.
    failed_count: Relaxed<u32>,
    /// Kind stamped on Primary-class pages (Mixed for basic/combining,
    /// Key for multi-valued).
    primary_kind: PageKind,
}

impl GroupAllocator {
    /// `n_groups` bucket groups allocating from `heap`. `primary_kind`
    /// selects what Primary-class pages hold.
    pub fn new(heap: Arc<Heap>, n_groups: usize, primary_kind: PageKind) -> Self {
        assert!(n_groups > 0, "at least one bucket group required");
        assert!(primary_kind == PageKind::Mixed || primary_kind == PageKind::Key);
        GroupAllocator {
            heap,
            groups: (0..n_groups).map(|_| Group::new()).collect(),
            failed_count: Relaxed::new(0),
            primary_kind,
        }
    }

    /// Number of bucket groups.
    pub fn n_groups(&self) -> usize {
        self.groups.len()
    }

    /// The heap this allocator draws pages from.
    pub fn heap(&self) -> &Arc<Heap> {
        &self.heap
    }

    fn kind_for(&self, class: PageClass) -> PageKind {
        match class {
            PageClass::Primary => self.primary_kind,
            PageClass::Value => PageKind::Value,
        }
    }

    /// Allocate `size` bytes for bucket group `group` from its `class`
    /// page. On success the returned handle addresses an exclusive,
    /// zero-initialized-by-recycling region; on `Err(Postpone)` the pool was
    /// exhausted and the group is marked failed.
    pub fn alloc(
        &self,
        group: usize,
        class: PageClass,
        size: usize,
    ) -> Result<DevHandle, Postpone> {
        self.alloc_charged(group, class, size, &mut gpu_sim::charge::NoCharge)
    }

    /// [`GroupAllocator::alloc`] declaring its bump-cursor atomics to the
    /// charge sink (the shadow sanitizer watches heap cursors; the bump is
    /// the access that both claims the region and, on a fresh page, marks
    /// the page's new logical identity live).
    pub fn alloc_charged<C: Charge>(
        &self,
        group: usize,
        class: PageClass,
        size: usize,
        charge: &mut C,
    ) -> Result<DevHandle, Postpone> {
        let g = &self.groups[group];
        let slot = &g.current[class as usize];
        // Bounded retries: each round either bumps successfully, installs a
        // fresh page, or observes pool exhaustion. A small bound guarantees
        // kernel-side termination even under pathological races.
        for _ in 0..16 {
            let cur = slot.observe();
            if cur == NO_PAGE {
                match self.install_fresh(slot, NO_PAGE, class) {
                    Some(_) => continue,
                    None => return self.postpone(g),
                }
            }
            let page = cur as u32;
            if let Some(offset) = self.heap.bump(page, size) {
                charge.access(
                    ShadowAddr::HeapCursor(self.heap.host_id(page)),
                    AccessKind::Atomic,
                );
                g.allocs.fetch_add(1);
                let mut heap_charge = MetricsCharge(self.heap.metrics());
                heap_charge.add(Counter::AllocSuccess, 1);
                // Touching the page's bump word is one irregular access.
                heap_charge.device_bytes(8);
                return Ok(DevHandle::new(page, offset));
            }
            // Current page full: swap in a fresh one.
            match self.install_fresh(slot, cur, class) {
                Some(_) => continue,
                None => return self.postpone(g),
            }
        }
        self.postpone(g)
    }

    /// Try to replace `expect` in `slot` with a freshly acquired page.
    /// Returns the page now in the slot, or `None` on pool exhaustion.
    fn install_fresh(&self, slot: &Published, expect: u64, class: PageClass) -> Option<u64> {
        let fresh = match self.heap.acquire_page(self.kind_for(class)) {
            Some(p) => p,
            None => {
                // Pool dry. If a peer already swapped in a new page, use it.
                let now = slot.observe();
                return if now != expect && now != NO_PAGE {
                    Some(now)
                } else {
                    None
                };
            }
        };
        // `Release` on success publishes the page this lane just reset.
        // Nothing is read through the word it replaces (a full page is
        // abandoned, `NO_PAGE` names none), so the success half needs no
        // `Acquire`; a failed install observes the winner's page.
        match slot.cas_publish(expect, fresh as u64) {
            Ok(_) => Some(fresh as u64),
            Err(other) => {
                // Lost the race; hand the page back untouched.
                self.heap.release_page(fresh);
                if other == NO_PAGE {
                    None
                } else {
                    Some(other)
                }
            }
        }
    }

    fn postpone(&self, g: &Group) -> Result<DevHandle, Postpone> {
        if g.failed.fetch_or(1) == 0 {
            self.failed_count.fetch_add(1);
        }
        MetricsCharge(self.heap.metrics()).add(Counter::AllocPostponed, 1);
        Err(Postpone)
    }

    /// Fraction of bucket groups whose allocations are currently being
    /// postponed — the basic method's halt signal (§IV-C).
    pub fn fraction_failed(&self) -> f64 {
        self.failed_count.get() as f64 / self.groups.len() as f64
    }

    /// Start a new iteration: forget failure flags and detach all current
    /// pages (after eviction the pages they referenced were released; kept
    /// pages simply stop receiving new allocations, accepting a little
    /// fragmentation as the paper does). Quiescent: between iterations.
    pub fn reset_iteration(&self) {
        for g in self.groups.iter() {
            g.failed.set(0);
            for slot in &g.current {
                slot.set(NO_PAGE);
            }
        }
        self.failed_count.set(0);
    }

    /// Successful allocations per group — the update profile of the
    /// allocator's distributed bump pointers. A MapCG-style central
    /// allocator is the degenerate single-group case.
    pub fn alloc_counts(&self) -> Vec<u64> {
        self.groups.iter().map(|g| g.allocs.get()).collect()
    }

    /// Roll the per-group allocation counters back to a checkpointed state
    /// (hard-fault recovery). The counters feed the contention histogram;
    /// restoring them keeps a resumed run's profile identical to an
    /// unkilled one. Panics on a group-count mismatch.
    pub fn restore_alloc_counts(&self, counts: &[u64]) {
        assert_eq!(counts.len(), self.groups.len(), "group count mismatch");
        for (g, &c) in self.groups.iter().zip(counts) {
            g.allocs.set(c);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::metrics::Metrics;

    fn setup(pages: usize, page_size: usize, groups: usize) -> (Arc<Heap>, GroupAllocator) {
        let heap = Arc::new(Heap::new(
            (pages * page_size) as u64,
            page_size,
            Arc::new(Metrics::new()),
        ));
        let ga = GroupAllocator::new(Arc::clone(&heap), groups, PageKind::Mixed);
        (heap, ga)
    }

    fn primary_page(ga: &GroupAllocator, group: usize) -> u64 {
        ga.groups[group].current[PageClass::Primary as usize].get()
    }

    #[test]
    fn first_alloc_installs_a_page() {
        let (heap, ga) = setup(4, 1024, 2);
        let h = ga.alloc(0, PageClass::Primary, 64).unwrap();
        assert_eq!(h.offset(), 0);
        assert_eq!(heap.free_pages(), 3);
        assert_ne!(primary_page(&ga, 0), NO_PAGE);
        assert_eq!(primary_page(&ga, 1), NO_PAGE);
    }

    #[test]
    fn groups_draw_from_distinct_pages() {
        let (_heap, ga) = setup(4, 1024, 2);
        let a = ga.alloc(0, PageClass::Primary, 64).unwrap();
        let b = ga.alloc(1, PageClass::Primary, 64).unwrap();
        assert_ne!(a.page(), b.page());
    }

    #[test]
    fn full_page_rolls_to_fresh_one() {
        let (_heap, ga) = setup(2, 1024, 1);
        let a = ga.alloc(0, PageClass::Primary, 600).unwrap();
        let b = ga.alloc(0, PageClass::Primary, 600).unwrap(); // doesn't fit page 1
        assert_ne!(a.page(), b.page());
    }

    #[test]
    fn exhaustion_postpones_and_marks_group() {
        let (_heap, ga) = setup(1, 1024, 2);
        ga.alloc(0, PageClass::Primary, 600).unwrap();
        assert_eq!(ga.fraction_failed(), 0.0);
        // Page full, pool empty => postpone.
        assert_eq!(ga.alloc(0, PageClass::Primary, 600), Err(Postpone));
        assert_eq!(ga.fraction_failed(), 0.5);
        // Repeat failure doesn't double-count.
        assert_eq!(ga.alloc(0, PageClass::Primary, 600), Err(Postpone));
        assert_eq!(ga.fraction_failed(), 0.5);
    }

    #[test]
    fn small_allocs_still_succeed_after_big_ones_postpone() {
        // The combining method relies on this: duplicate keys need no new
        // memory, and even fresh small entries can land in residual space.
        let (_heap, ga) = setup(1, 1024, 1);
        ga.alloc(0, PageClass::Primary, 600).unwrap();
        assert!(ga.alloc(0, PageClass::Primary, 600).is_err());
        assert!(ga.alloc(0, PageClass::Primary, 100).is_ok());
    }

    #[test]
    fn reset_iteration_clears_failures_and_pages() {
        let (heap, ga) = setup(1, 1024, 1);
        ga.alloc(0, PageClass::Primary, 600).unwrap();
        let _ = ga.alloc(0, PageClass::Primary, 600);
        assert_eq!(ga.fraction_failed(), 1.0);
        // Simulate eviction: release all resident pages, then reset.
        for p in heap.resident_pages() {
            heap.release_page(p);
        }
        ga.reset_iteration();
        assert_eq!(ga.fraction_failed(), 0.0);
        assert_eq!(primary_page(&ga, 0), NO_PAGE);
        assert!(ga.alloc(0, PageClass::Primary, 600).is_ok());
    }

    #[test]
    fn alloc_counts_restore_round_trips() {
        let (_heap, ga) = setup(8, 1024, 2);
        ga.alloc(0, PageClass::Primary, 64).unwrap();
        ga.alloc(0, PageClass::Primary, 64).unwrap();
        ga.alloc(1, PageClass::Primary, 64).unwrap();
        let saved = ga.alloc_counts();
        ga.alloc(1, PageClass::Primary, 64).unwrap();
        assert_ne!(ga.alloc_counts(), saved);
        ga.restore_alloc_counts(&saved);
        assert_eq!(ga.alloc_counts(), saved);
    }

    #[test]
    fn key_and_value_classes_use_separate_pages() {
        let heap = Arc::new(Heap::new(4 * 1024, 1024, Arc::new(Metrics::new())));
        let ga = GroupAllocator::new(Arc::clone(&heap), 1, PageKind::Key);
        let k = ga.alloc(0, PageClass::Primary, 64).unwrap();
        let v = ga.alloc(0, PageClass::Value, 64).unwrap();
        assert_ne!(k.page(), v.page());
        assert_eq!(heap.page_kind(k.page()), PageKind::Key);
        assert_eq!(heap.page_kind(v.page()), PageKind::Value);
    }

    #[test]
    fn metrics_count_success_and_postpone() {
        let metrics = Arc::new(Metrics::new());
        let heap = Arc::new(Heap::new(1024, 1024, Arc::clone(&metrics)));
        let ga = GroupAllocator::new(heap, 1, PageKind::Mixed);
        ga.alloc(0, PageClass::Primary, 600).unwrap();
        let _ = ga.alloc(0, PageClass::Primary, 600);
        let s = metrics.snapshot();
        assert_eq!(s.alloc_success, 1);
        assert_eq!(s.alloc_postponed, 1);
    }

    #[test]
    fn concurrent_allocs_across_groups_are_exclusive() {
        let (heap, ga) = setup(64, 4096, 8);
        let ga = Arc::new(ga);
        let handles = parking_lot::Mutex::new(Vec::new());
        std::thread::scope(|s| {
            for t in 0..8usize {
                let ga = Arc::clone(&ga);
                let handles = &handles;
                s.spawn(move || {
                    let mut local = Vec::new();
                    for i in 0..200 {
                        if let Ok(h) = ga.alloc((t + i) % 8, PageClass::Primary, 48) {
                            local.push(h);
                        }
                    }
                    handles.lock().extend(local);
                });
            }
        });
        let mut got = handles.into_inner();
        assert_eq!(got.len(), 1600, "plenty of space: nothing may postpone");
        got.sort_by_key(|h| (h.page(), h.offset()));
        for w in got.windows(2) {
            assert!(
                w[0].page() != w[1].page() || w[1].offset() - w[0].offset() >= 48,
                "overlapping handles {:?} {:?}",
                w[0],
                w[1]
            );
        }
        drop(ga);
        let _ = heap;
    }
}
