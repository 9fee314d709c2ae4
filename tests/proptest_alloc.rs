//! Property-based tests of the page allocator: exclusivity, alignment,
//! bounded capacity, and clean recycling across evictions.

use gpu_sim::metrics::Metrics;
use proptest::collection::vec;
use proptest::prelude::*;
use sepo_alloc::{GroupAllocator, Heap, PageClass, PageKind};
use std::collections::HashMap;
use std::sync::Arc;

fn setup(pages: usize, page_size: usize, groups: usize) -> GroupAllocator {
    let heap = Arc::new(Heap::new(
        (pages * page_size) as u64,
        page_size,
        Arc::new(Metrics::new()),
    ));
    GroupAllocator::new(heap, groups, PageKind::Mixed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Granted regions never overlap, are 8-aligned, and fit their page.
    #[test]
    fn allocations_are_exclusive_and_aligned(
        sizes in vec(1usize..200, 1..200),
        groups in 1usize..8,
    ) {
        let ga = setup(8, 2048, groups);
        let mut granted: HashMap<u32, Vec<(u32, usize)>> = HashMap::new();
        for (i, &size) in sizes.iter().enumerate() {
            if let Ok(h) = ga.alloc(i % groups, PageClass::Primary, size) {
                prop_assert_eq!(h.offset() % 8, 0, "unaligned grant");
                prop_assert!((h.offset() as usize) + size <= 2048, "grant exceeds page");
                granted.entry(h.page()).or_default().push((h.offset(), size));
            }
        }
        for regions in granted.values_mut() {
            regions.sort();
            for w in regions.windows(2) {
                let (off_a, len_a) = w[0];
                let (off_b, _) = w[1];
                prop_assert!(
                    off_a as usize + len_a <= off_b as usize,
                    "overlapping grants {:?} {:?}", w[0], w[1]
                );
            }
        }
    }

    /// Total granted bytes never exceed heap capacity, and postponement
    /// only begins after a meaningful fraction of the heap is used.
    #[test]
    fn capacity_is_respected(sizes in vec(8usize..120, 50..400)) {
        let pages = 4usize;
        let page_size = 1024usize;
        let ga = setup(pages, page_size, 2);
        let mut granted_bytes = 0usize;
        let mut first_postpone_at: Option<usize> = None;
        for (i, &size) in sizes.iter().enumerate() {
            match ga.alloc(i % 2, PageClass::Primary, size) {
                Ok(_) => granted_bytes += size,
                Err(_) => {
                    first_postpone_at.get_or_insert(granted_bytes);
                }
            }
        }
        prop_assert!(granted_bytes <= pages * page_size);
        if let Some(at) = first_postpone_at {
            // With 2 groups and max request 120B, at most ~2 partial pages
            // are stranded when the pool dries up.
            prop_assert!(
                at + 2 * 128 >= (pages - 2) * page_size,
                "postponed too early: only {at} bytes granted"
            );
        }
    }

    /// Release-and-reacquire restores full capacity (the SEPO iteration
    /// cycle never leaks pages).
    #[test]
    fn recycling_restores_capacity(rounds in 1usize..6, sizes in vec(8usize..100, 10..100)) {
        let ga = setup(4, 1024, 2);
        let heap = Arc::clone(ga.heap());
        for _ in 0..rounds {
            for (i, &size) in sizes.iter().enumerate() {
                let _ = ga.alloc(i % 2, PageClass::Primary, size);
            }
            for p in heap.resident_pages() {
                heap.release_page(p);
            }
            ga.reset_iteration();
            prop_assert_eq!(heap.free_pages(), 4, "page leak across iteration");
            prop_assert_eq!(ga.fraction_failed(), 0.0);
        }
    }

    /// Host ids are unique across every acquisition, forever — the
    /// dual-pointer scheme depends on it.
    #[test]
    fn host_ids_never_repeat(rounds in 1usize..20) {
        let heap = Heap::new(4 * 1024, 1024, Arc::new(Metrics::new()));
        let mut seen = std::collections::HashSet::new();
        for _ in 0..rounds {
            let mut held = Vec::new();
            while let Some(p) = heap.acquire_page(PageKind::Mixed) {
                prop_assert!(seen.insert(heap.host_id(p)), "host id reused");
                held.push(p);
            }
            for p in held {
                heap.release_page(p);
            }
        }
    }
}
