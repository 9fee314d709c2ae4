//! Demand-paging simulator (Table III methodology).
//!
//! The paper evaluates the "GPU with hardware demand paging" alternative by
//! instrumenting Page View Count to record its hash-table access pattern,
//! replaying that trace through an LRU page-replacement simulation for a
//! range of assumed free GPU memory sizes, and multiplying the replacement
//! count by the page size to get a *lower bound* on PCIe traffic (§VI-D).
//! This module is that simulation: [`AccessTrace`] records byte-granular
//! accesses, and [`LruSimulator`] replays them at a chosen page size and
//! resident capacity.

use std::collections::HashMap;

/// A recorded sequence of byte addresses accessed in the (virtual) hash
/// table heap. Page identity is derived at replay time so one trace serves
/// every page size in Table III.
#[derive(Debug, Clone, Default)]
pub struct AccessTrace {
    addresses: Vec<u64>,
}

impl AccessTrace {
    pub fn new() -> Self {
        Self::default()
    }

    /// Pre-size the trace buffer.
    pub fn with_capacity(n: usize) -> Self {
        AccessTrace {
            addresses: Vec::with_capacity(n),
        }
    }

    /// Record an access to byte address `addr`.
    #[inline]
    pub fn record(&mut self, addr: u64) {
        self.addresses.push(addr);
    }

    /// Number of recorded accesses.
    pub fn len(&self) -> usize {
        self.addresses.len()
    }

    pub fn is_empty(&self) -> bool {
        self.addresses.is_empty()
    }

    /// Iterate page ids for a given page size.
    pub fn pages(&self, page_size: u64) -> impl Iterator<Item = u64> + '_ {
        let ps = page_size.max(1);
        self.addresses.iter().map(move |&a| a / ps)
    }

    /// Highest byte address touched plus one (the trace's footprint bound).
    pub fn footprint(&self) -> u64 {
        self.addresses.iter().copied().max().map_or(0, |a| a + 1)
    }
}

/// Result of one LRU replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PagingOutcome {
    /// Pages faulted in while free frames remained (cold misses that fit).
    pub cold_loads: u64,
    /// Pages faulted in by evicting another page — the "page replacements"
    /// the paper multiplies by the page size.
    pub replacements: u64,
    /// Distinct pages in the trace.
    pub distinct_pages: u64,
    /// Total accesses replayed.
    pub accesses: u64,
}

/// LRU page-replacement simulator.
#[derive(Debug, Clone, Copy)]
pub struct LruSimulator {
    /// Page size in bytes.
    pub page_size: u64,
    /// Resident capacity in bytes (the "assumed physical GPU memory" column
    /// of Table III).
    pub capacity_bytes: u64,
}

impl LruSimulator {
    pub fn new(page_size: u64, capacity_bytes: u64) -> Self {
        LruSimulator {
            page_size,
            capacity_bytes,
        }
    }

    /// Resident capacity in whole pages (at least one). Rounded *up*: an
    /// assumed memory equal to the table's footprint must fit the table
    /// exactly (Table III's first row reports 0.00 s), even when the
    /// footprint is not page-aligned.
    pub fn capacity_pages(&self) -> u64 {
        self.capacity_bytes.div_ceil(self.page_size.max(1)).max(1)
    }

    /// Replay `trace` under LRU and report fault behaviour.
    ///
    /// Implementation: timestamp-based LRU. Each resident page stores the
    /// time of its last access; on replacement we evict the minimum. To keep
    /// replay O(n log n)-ish without a full ordered index, we maintain a
    /// monotone clock and a `HashMap<page, last_use>` plus a lazily-cleaned
    /// min-heap of `(last_use, page)` candidates.
    pub fn replay(&self, trace: &AccessTrace) -> PagingOutcome {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        let capacity = self.capacity_pages() as usize;
        let mut last_use: HashMap<u64, u64> = HashMap::new();
        let mut heap: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
        let mut distinct: HashMap<u64, ()> = HashMap::new();
        let mut clock = 0u64;
        let mut cold_loads = 0u64;
        let mut replacements = 0u64;

        for page in trace.pages(self.page_size) {
            clock += 1;
            distinct.entry(page).or_insert(());
            match last_use.get_mut(&page) {
                Some(t) => {
                    *t = clock;
                    heap.push(Reverse((clock, page)));
                }
                None => {
                    if last_use.len() >= capacity {
                        // Evict the true LRU page: pop heap entries until one
                        // matches the page's current last_use (stale entries
                        // are skipped).
                        loop {
                            let Reverse((t, victim)) = heap
                                .pop()
                                .expect("heap cannot be empty while resident set is at capacity");
                            if last_use.get(&victim) == Some(&t) {
                                last_use.remove(&victim);
                                break;
                            }
                        }
                        replacements += 1;
                    } else {
                        cold_loads += 1;
                    }
                    last_use.insert(page, clock);
                    heap.push(Reverse((clock, page)));
                }
            }
        }

        PagingOutcome {
            cold_loads,
            replacements,
            distinct_pages: distinct.len() as u64,
            accesses: clock,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace_of(pages: &[u64], page_size: u64) -> AccessTrace {
        let mut t = AccessTrace::new();
        for &p in pages {
            t.record(p * page_size);
        }
        t
    }

    #[test]
    fn everything_fits_no_replacements() {
        // Table III first row: table fits => 0.00s transfer time.
        let t = trace_of(&[0, 1, 2, 0, 1, 2, 2, 1, 0], 4096);
        let sim = LruSimulator::new(4096, 3 * 4096);
        let out = sim.replay(&t);
        assert_eq!(out.replacements, 0);
        assert_eq!(out.cold_loads, 3);
        assert_eq!(out.distinct_pages, 3);
    }

    #[test]
    fn classic_lru_eviction_order() {
        // Capacity 2; access 0,1,2: evicts 0. Then 0 again: evicts 1.
        let t = trace_of(&[0, 1, 2, 0], 4096);
        let sim = LruSimulator::new(4096, 2 * 4096);
        let out = sim.replay(&t);
        assert_eq!(out.cold_loads, 2);
        assert_eq!(out.replacements, 2);
    }

    #[test]
    fn recency_updates_protect_hot_pages() {
        // Capacity 2; access 0,1,0,2 — page 0 was refreshed, so 1 is evicted;
        // then 1 returns, evicting 2's LRU peer (0 is older now).
        let t = trace_of(&[0, 1, 0, 2, 1], 4096);
        let sim = LruSimulator::new(4096, 2 * 4096);
        let out = sim.replay(&t);
        // faults: 0 cold, 1 cold, 2 replaces 1, 1 replaces 0.
        assert_eq!(out.cold_loads, 2);
        assert_eq!(out.replacements, 2);
    }

    #[test]
    fn replacements_monotone_in_shrinking_memory() {
        // The structural property of Table III: less assumed memory => more
        // transfers (never fewer). LRU is a stack algorithm, so this holds
        // exactly.
        let mut t = AccessTrace::new();
        // Pseudo-random-ish walk over 64 pages.
        let mut x = 7u64;
        for _ in 0..20_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            t.record((x >> 33) % 64 * 4096);
        }
        let mut prev = None;
        for cap_pages in (8..=64).rev().step_by(8) {
            let out = LruSimulator::new(4096, cap_pages * 4096).replay(&t);
            if let Some(p) = prev {
                assert!(
                    out.replacements >= p,
                    "shrinking memory reduced faults: {} -> {}",
                    p,
                    out.replacements
                );
            }
            prev = Some(out.replacements);
        }
    }

    #[test]
    fn footprint_tracks_max_address() {
        let mut t = AccessTrace::new();
        assert_eq!(t.footprint(), 0);
        t.record(100);
        t.record(5000);
        assert_eq!(t.footprint(), 5001);
    }

    #[test]
    fn one_trace_many_page_sizes() {
        // The same trace replayed at 3 page sizes, as in Table III: bigger
        // pages => fewer distinct pages but each fault moves more bytes.
        let mut t = AccessTrace::new();
        for i in 0..1000u64 {
            t.record((i * 37) % 100_000);
        }
        let small = LruSimulator::new(4096, 8 * 4096).replay(&t);
        let large = LruSimulator::new(65536, 8 * 4096).replay(&t);
        assert!(large.distinct_pages < small.distinct_pages);
    }

    #[test]
    fn capacity_smaller_than_one_page_clamps() {
        let t = trace_of(&[0, 1, 0, 1], 4096);
        let sim = LruSimulator::new(4096, 100); // < one page
        assert_eq!(sim.capacity_pages(), 1);
        let out = sim.replay(&t);
        assert_eq!(out.cold_loads, 1);
        assert_eq!(out.replacements, 3);
    }
}
