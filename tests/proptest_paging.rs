//! Property-based tests of the demand-paging simulator against a naive
//! reference LRU, plus the inclusion ("stack") property Table III's
//! monotonicity rests on.

use gpu_sim::paging::{AccessTrace, LruSimulator};
use gpu_sim::pcie::PcieBus;
use gpu_sim::spec::PcieSpec;
use gpu_sim::{Metrics, SimTime};
use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::VecDeque;
use std::sync::Arc;

/// Textbook O(n·capacity) LRU fault counter.
fn naive_lru(pages: &[u64], capacity: usize) -> (u64, u64) {
    let mut resident: VecDeque<u64> = VecDeque::new();
    let mut cold = 0u64;
    let mut replacements = 0u64;
    for &p in pages {
        if let Some(pos) = resident.iter().position(|&r| r == p) {
            resident.remove(pos);
            resident.push_back(p);
        } else {
            if resident.len() >= capacity {
                resident.pop_front();
                replacements += 1;
            } else {
                cold += 1;
            }
            resident.push_back(p);
        }
    }
    (cold, replacements)
}

fn trace_from(pages: &[u64], page_size: u64) -> AccessTrace {
    let mut t = AccessTrace::new();
    for &p in pages {
        t.record(p * page_size + p % 7); // arbitrary in-page offset
    }
    t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The heap-based simulator agrees with the naive reference exactly.
    #[test]
    fn matches_naive_lru(
        pages in vec(0u64..24, 1..400),
        capacity in 1u64..16,
    ) {
        let page_size = 4096u64;
        let trace = trace_from(&pages, page_size);
        let sim = LruSimulator::new(page_size, capacity * page_size);
        let out = sim.replay(&trace);
        let (cold, repl) = naive_lru(&pages, capacity as usize);
        prop_assert_eq!(out.cold_loads, cold);
        prop_assert_eq!(out.replacements, repl);
        prop_assert_eq!(out.accesses, pages.len() as u64);
    }

    /// LRU is a stack algorithm: more memory never faults more.
    #[test]
    fn replacements_monotone_in_memory(pages in vec(0u64..40, 1..400)) {
        let page_size = 4096u64;
        let trace = trace_from(&pages, page_size);
        let mut prev = u64::MAX;
        for capacity in 1..=12u64 {
            let out = LruSimulator::new(page_size, capacity * page_size).replay(&trace);
            prop_assert!(
                out.replacements <= prev,
                "capacity {capacity}: {} > {}", out.replacements, prev
            );
            prev = out.replacements;
        }
    }

    /// When everything fits, there are no replacements and cold loads equal
    /// the distinct page count.
    #[test]
    fn full_residency_never_replaces(pages in vec(0u64..16, 1..200)) {
        let page_size = 4096u64;
        let trace = trace_from(&pages, page_size);
        let out = LruSimulator::new(page_size, 16 * page_size).replay(&trace);
        prop_assert_eq!(out.replacements, 0);
        prop_assert_eq!(out.cold_loads, out.distinct_pages);
    }

    /// Only replacements cost transfer time (the paper's lower-bound
    /// arithmetic: the initially-resident set is free). Cold loads fill
    /// the free frames, never more, and a trace priced at zero is exactly
    /// one that replaced nothing.
    #[test]
    fn transfer_arithmetic(pages in vec(0u64..32, 1..300), capacity in 1u64..8) {
        let page_size = 8192u64;
        let trace = trace_from(&pages, page_size);
        let out = LruSimulator::new(page_size, capacity * page_size).replay(&trace);
        prop_assert_eq!(out.cold_loads, out.distinct_pages.min(capacity));
        let bus = PcieBus::new(PcieSpec::default(), Arc::new(Metrics::new()));
        let priced = bus.paged_transfer_time(out.replacements, page_size, true);
        prop_assert_eq!(priced == SimTime::ZERO, out.replacements == 0);
    }
}
