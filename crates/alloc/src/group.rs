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
//!
//! # Block leases
//!
//! A group's page cursor is still one word that every allocating lane
//! updates. Beyond §IV-A, a thread block aggregates its own requests
//! first, through the lease table its charge sink carries
//! ([`Charge::leases`]): the first time a block allocates in a (group,
//! class) it bumps the cursor for that one entry; the second time one
//! cursor update claims a run of up to `LEASE_BYTES`, and later
//! allocations are carved from the run by a block-local bump. The run's
//! unused tail goes back with one CAS when the run cannot serve a request
//! and when the block retires ([`GroupAllocator::close_leases`]), so a
//! launch leaves every cursor exactly where one bump per allocation would
//! have: under the in-order executor every page and offset is the same.
//!
//! Racing blocks can keep a tail from going back: another block's claim
//! moves the cursor past it, or a fresh page replaces its page. The tail
//! is then marked as a dead entry ([`DeadEntry`]), which page walkers skip
//! like any tombstone, and parked in the group's spare slot for its class;
//! the group's next claim from a block takes it over before it touches
//! the cursor. A tail that finds the slot taken, is too short for the
//! request that takes it, or is still parked when the iteration ends is
//! lost: heap waste ([`GroupAllocator::lost_tails`]). Runs keep their
//! spare tail empty or at least [`MIN_TAIL`] long, so a dead entry always
//! fits. A sink without leases (host code, [`GroupAllocator::alloc`])
//! makes one cursor update per allocation: a run of exactly one entry.

use crate::heap::{Heap, PageKind};
use crate::layout::{align_up, DevHandle, MIN_TAIL, TOMBSTONE};
use gpu_sim::charge::{Charge, MetricsCharge};
use gpu_sim::lease::{BlockLeases, Lease};
use gpu_sim::metrics::Counter;
use gpu_sim::shadow::{AccessKind, ShadowAddr};
use gpu_sim::sync::{Published, Relaxed};
use std::sync::Arc;

/// Most bytes one lease claim takes from a page (less when less is left).
/// Measured on four spilling applications (EXPERIMENTS.md, "Block leases
/// under the racing executor"): 4 KiB takes the fewest cursor updates of
/// 1–4 KiB and, with parked tails, the lowest racing sim time; 8 KiB
/// claims whole pages and strands their tails.
const LEASE_BYTES: usize = 4096;

/// Which of a group's current pages an allocation draws from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageClass {
    /// Mixed entries (basic/combining) or key entries (multi-valued).
    Primary = 0,
    /// Value nodes (multi-valued only).
    Value = 1,
}

/// How a page class marks a region that holds no entry: a dead entry whose
/// length word, at `lens` from its start, holds the region's length less
/// `header`, tombstoned — the table's entry layout for that class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeadEntry {
    /// Offset of the length word.
    pub lens: u32,
    /// Bytes of the layout's header, which its length word does not count.
    pub header: u32,
}

impl DeadEntry {
    /// The tombstoned length word of a dead entry `len` bytes long.
    pub fn lens_word(self, len: u32) -> u64 {
        u64::from(len - self.header) | TOMBSTONE
    }
}

/// Outcome of a declined allocation. Mirrors the paper's POSTPONE response:
/// the requestor re-issues the request in a later iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Postpone;

const NO_PAGE: u64 = u64::MAX;

/// An empty spare slot.
const NO_TAIL: u64 = u64::MAX;

/// A parked run tail `[from, to)` of `page` as one word: page above two
/// 21-bit offsets (offsets stay below [`crate::layout::MAX_PAGE_SIZE`]).
fn pack_tail(page: u32, from: u32, to: u32) -> u64 {
    debug_assert!(page < 1 << 22 && to < 1 << 21);
    u64::from(page) << 42 | u64::from(from) << 21 | u64::from(to)
}

/// [`pack_tail`]'s `(page, from, to)`.
fn unpack_tail(word: u64) -> (u32, u32, u32) {
    let offset = |shift: u32| (word >> shift) as u32 & ((1 << 21) - 1);
    ((word >> 42) as u32, offset(21), offset(0))
}

#[derive(Debug)]
struct Group {
    /// The page each [`PageClass`] bumps, or `NO_PAGE`. Published: it
    /// hands a page this group's lanes did not acquire themselves, and a
    /// lane that observes it must see the page's reset metadata.
    current: [Published; 2],
    /// 1 once an allocation of this iteration was postponed. Relaxed: a
    /// flag whose first setter counts the group in `failed_count`.
    failed: Relaxed<u8>,
    /// Per [`PageClass`], a run tail that a racing claim kept from going
    /// back to its cursor, parked for the group's next claim (see
    /// [`pack_tail`]), or `NO_TAIL`. Published: the parker marks the tail
    /// dead before it parks it.
    spare: [Published; 2],
    /// Updates of this group's page cursors and spare slots: single-entry
    /// bumps, lease claims, tail returns and, when blocks race, tails
    /// parked and taken over (a carve from a block's run touches
    /// neither). The cursor is the location the paper distributes load
    /// over (§IV-A); this count feeds the allocator-contention histogram.
    /// Relaxed: a statistics counter.
    allocs: Relaxed<u64>,
}

impl Group {
    fn new() -> Self {
        Group {
            current: [Published::new(NO_PAGE), Published::new(NO_PAGE)],
            failed: Relaxed::new(0),
            spare: [Published::new(NO_TAIL), Published::new(NO_TAIL)],
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
    /// How each [`PageClass`] marks a run tail that could not go back;
    /// `None` until [`GroupAllocator::with_dead_entries`] (a racing block
    /// losing a tail then panics).
    dead: Option<[DeadEntry; 2]>,
    /// Run tails lost to a racing claim and left as dead entries, and
    /// their bytes, over the allocator's life (replays after a recovery
    /// included). Relaxed: statistics counters.
    lost_tails: Relaxed<u64>,
    lost_bytes: Relaxed<u64>,
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
            dead: None,
            lost_tails: Relaxed::new(0),
            lost_bytes: Relaxed::new(0),
        }
    }

    /// Mark lost run tails of Primary and Value pages as `primary` and
    /// `value` dead entries.
    pub fn with_dead_entries(mut self, primary: DeadEntry, value: DeadEntry) -> Self {
        assert!(primary.header as usize <= MIN_TAIL && value.header as usize <= MIN_TAIL);
        self.dead = Some([primary, value]);
        self
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

    /// [`GroupAllocator::alloc`] through `charge`: carved from the block's
    /// run when `charge` carries leases (see the module docs), declaring
    /// each cursor update to the charge sink (the shadow sanitizer watches
    /// heap cursors; the update is the access that both claims the region
    /// and, on a fresh page, marks the page's new logical identity live).
    pub fn alloc_charged<C: Charge>(
        &self,
        group: usize,
        class: PageClass,
        size: usize,
        charge: &mut C,
    ) -> Result<DevHandle, Postpone> {
        let key = (group as u32) << 1 | class as u32;
        let mut held = charge.leases().map(|leases| leases.take(key));
        if let Some(other) = held.filter(|l| l.key != key) {
            // The slot is another key's (or empty): close what it held.
            self.close(other, charge);
            held = Some(Lease::EMPTY);
        }
        let got = self.alloc_leased(group, class, align_up(size), key, held.as_mut(), charge);
        if let (Some(lease), Some(leases)) = (held, charge.leases()) {
            leases.put(key, lease);
        }
        got
    }

    /// Serve one request of `size` (aligned) bytes, updating `held`, the
    /// block's record of `key`, when there is a block.
    fn alloc_leased<C: Charge>(
        &self,
        group: usize,
        class: PageClass,
        size: usize,
        key: u32,
        mut held: Option<&mut Lease>,
        charge: &mut C,
    ) -> Result<DevHandle, Postpone> {
        if let Some(run) = held.as_deref_mut().filter(|l| l.is_open()) {
            let spare = (run.end - run.next) as usize;
            if spare == size || spare >= size + MIN_TAIL {
                let offset = run.next;
                run.next += size as u32;
                // The block-local bump: a shared-memory add, priced as
                // compute so that only cursor traffic depends on races.
                charge.compute(1);
                MetricsCharge(self.heap.metrics()).add(Counter::AllocSuccess, 1);
                return Ok(DevHandle::new(run.page, offset));
            }
            self.close(*run, charge);
            *run = Lease::without_run(key);
        }
        // A block's first request in this (group, class) takes just its
        // entry; from the second on, a claim takes a run.
        let want = match held.as_deref() {
            Some(l) if l.key == key => size.max(LEASE_BYTES),
            _ => size,
        };
        let block = held.is_some();
        let (page, offset, len) = self.claim(group, class, size, want, block, charge)?;
        MetricsCharge(self.heap.metrics()).add(Counter::AllocSuccess, 1);
        if let Some(l) = held {
            *l = Lease::without_run(key);
            if len as usize > size {
                l.page = page;
                l.next = offset + size as u32;
                l.end = offset + len;
            }
        }
        Ok(DevHandle::new(page, offset))
    }

    /// Claim between `size` and `want` bytes from `group`'s `class` page
    /// with one cursor update, installing fresh pages as pages fill:
    /// `(page, offset, len)` of the run. A `block` claim first takes over
    /// a tail parked in the group's spare slot; a sink without leases
    /// could not hand back what it leaves of one.
    fn claim<C: Charge>(
        &self,
        group: usize,
        class: PageClass,
        size: usize,
        want: usize,
        block: bool,
        charge: &mut C,
    ) -> Result<(u32, u32, u32), Postpone> {
        let g = &self.groups[group];
        // A plain read first: the slot is empty unless blocks race.
        if block && g.spare[class as usize].observe() != NO_TAIL {
            if let Some(tail) = self.take_spare(g, class, size, charge) {
                return Ok(tail);
            }
        }
        let slot = &g.current[class as usize];
        // Bounded retries: each round either claims successfully, installs
        // a fresh page, or observes pool exhaustion. A small bound
        // guarantees kernel-side termination even under pathological races.
        for _ in 0..16 {
            let cur = slot.observe();
            if cur == NO_PAGE {
                match self.install_fresh(slot, NO_PAGE, class) {
                    Some(_) => continue,
                    None => return self.postpone(g),
                }
            }
            let page = cur as u32;
            if let Some((offset, len)) = self.heap.claim(page, size, want) {
                self.cursor_update(g, page, charge);
                return Ok((page, offset, len));
            }
            // Current page full: swap in a fresh one.
            match self.install_fresh(slot, cur, class) {
                Some(_) => continue,
                None => return self.postpone(g),
            }
        }
        self.postpone(g)
    }

    /// Count and declare one update of `page`'s cursor by group `g`.
    fn cursor_update<C: Charge>(&self, g: &Group, page: u32, charge: &mut C) {
        charge.access(
            ShadowAddr::HeapCursor(self.heap.host_id(page)),
            AccessKind::Atomic,
        );
        g.allocs.fetch_add(1);
        // Touching the page's cursor word is one irregular access.
        MetricsCharge(self.heap.metrics()).device_bytes(8);
    }

    /// Take over the run tail parked in `g`'s `class` spare slot, if one
    /// is parked and can serve `size` bytes: `(page, offset, len)` of the
    /// run, as [`GroupAllocator::claim`] returns. A tail too short to
    /// serve the request is lost for good (parking it again would hand it
    /// from claim to claim).
    #[cold]
    fn take_spare<C: Charge>(
        &self,
        g: &Group,
        class: PageClass,
        size: usize,
        charge: &mut C,
    ) -> Option<(u32, u32, u32)> {
        let word = g.spare[class as usize].update(|_| NO_TAIL);
        if word == NO_TAIL {
            return None;
        }
        let (page, from, to) = unpack_tail(word);
        self.cursor_update(g, page, charge);
        let len = (to - from) as usize;
        if len == size || len >= size + MIN_TAIL {
            return Some((page, from, len as u32));
        }
        self.write_off(to - from);
        None
    }

    /// Give `lease`'s unused tail back to its page cursor — or park it
    /// for the group's next claim when racing blocks got there first: a
    /// claim has moved the cursor past the tail, or a fresh page has
    /// replaced the tail's page, whose cursor no claim reads any more. A
    /// record without a run, or with an empty tail, needs no cursor update.
    fn close<C: Charge>(&self, lease: Lease, charge: &mut C) {
        if !lease.is_open() || lease.next == lease.end {
            return;
        }
        let g = &self.groups[(lease.key >> 1) as usize];
        let class = (lease.key & 1) as usize;
        if g.current[class].observe() == u64::from(lease.page) {
            self.cursor_update(g, lease.page, charge);
            if self.heap.give_back(lease.page, lease.next, lease.end) {
                return;
            }
        }
        self.park(g, class, lease.page, lease.next, lease.end, charge);
    }

    /// Mark the tail `[from, to)` of `page` as a dead entry, so that page
    /// walkers skip it until a block carves entries from it, and park it
    /// in `g`'s spare slot for page class `class`; when the slot holds
    /// another tail, the tail is lost for good.
    #[cold]
    fn park<C: Charge>(
        &self,
        g: &Group,
        class: usize,
        page: u32,
        from: u32,
        to: u32,
        charge: &mut C,
    ) {
        let dead = self
            .dead
            .expect("a lost run tail needs a dead-entry layout")[class];
        self.heap.write_u64(
            DevHandle::new(page, from),
            dead.lens,
            dead.lens_word(to - from),
        );
        self.cursor_update(g, page, charge);
        if g.spare[class]
            .cas_publish(NO_TAIL, pack_tail(page, from, to))
            .is_err()
        {
            self.write_off(to - from);
        }
    }

    /// Count a run tail of `len` bytes that no allocation will use as
    /// heap waste.
    #[cold]
    fn write_off(&self, len: u32) {
        self.heap.note_waste(u64::from(len));
        self.lost_tails.fetch_add(1);
        self.lost_bytes.fetch_add(u64::from(len));
    }

    /// Close every lease of the block `charge` charges for, emptying its
    /// table: the block is retiring. A no-op for a sink without leases.
    pub fn close_leases<C: Charge>(&self, charge: &mut C) {
        while let Some(lease) = charge.leases().and_then(BlockLeases::pop) {
            self.close(lease, charge);
        }
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

    fn postpone<T>(&self, g: &Group) -> Result<T, Postpone> {
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
            // A tail still parked stays in its page as a dead entry.
            for slot in &g.spare {
                let word = slot.get();
                if word != NO_TAIL {
                    let (_, from, to) = unpack_tail(word);
                    self.write_off(to - from);
                    slot.set(NO_TAIL);
                }
            }
        }
        self.failed_count.set(0);
    }

    /// Cursor updates per group — the update profile of the allocator's
    /// distributed bump pointers: one per allocation without a block, far
    /// fewer with block leases.
    pub fn alloc_counts(&self) -> Vec<u64> {
        self.groups.iter().map(|g| g.allocs.get()).collect()
    }

    /// Run tails that racing claims kept from going back to their cursors,
    /// and their bytes: `(count, bytes)`. Both are 0 when blocks run one
    /// after another.
    pub fn lost_tails(&self) -> (u64, u64) {
        (self.lost_tails.get(), self.lost_bytes.get())
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

    /// A thread block's charge sink, by hand: its own lease table.
    #[derive(Default)]
    struct Block(gpu_sim::lease::BlockLeases);

    impl Charge for Block {
        fn add(&mut self, _: Counter, _: u64) {}
        fn access(&mut self, _: ShadowAddr, _: AccessKind) {}
        fn leases(&mut self) -> Option<&mut gpu_sim::lease::BlockLeases> {
            Some(&mut self.0)
        }
    }

    fn updates(ga: &GroupAllocator) -> u64 {
        ga.alloc_counts().iter().sum()
    }

    #[test]
    fn a_block_allocating_once_in_a_group_costs_one_cursor_update() {
        let (heap, ga) = setup(8, 16 * 1024, 2);
        let mut block = Block::default();
        let h = ga
            .alloc_charged(0, PageClass::Primary, 40, &mut block)
            .unwrap();
        ga.close_leases(&mut block);
        assert_eq!(updates(&ga), 1);
        assert!(block.0.is_empty());
        assert_eq!(heap.page_used(h.page()), 40);
    }

    #[test]
    fn a_block_allocating_many_times_costs_at_most_three_cursor_updates() {
        let (heap, ga) = setup(8, 16 * 1024, 2);
        let mut block = Block::default();
        let sizes = [40, 48, 56, 24, 64, 32, 40, 72, 48, 40];
        let handles: Vec<_> = sizes
            .iter()
            .map(|&n| {
                ga.alloc_charged(1, PageClass::Primary, n, &mut block)
                    .unwrap()
            })
            .collect();
        ga.close_leases(&mut block);
        // A bump for the first, a claim for the second, a return at the end.
        assert_eq!(updates(&ga), 3);
        // Carved back to back, exactly where one bump each would put them.
        let mut expect = 0;
        for (h, &n) in handles.iter().zip(&sizes) {
            assert_eq!((h.page(), h.offset()), (handles[0].page(), expect));
            expect += n as u32;
        }
        assert_eq!(heap.page_used(handles[0].page()), expect as usize);
        let s = heap.metrics().snapshot();
        assert_eq!(s.alloc_success, sizes.len() as u64);
        assert_eq!(s.device_bytes, 3 * 8, "8 bytes per cursor update");
    }

    #[test]
    fn a_run_never_keeps_a_tail_too_short_for_a_dead_entry() {
        let (heap, ga) = setup(8, 16 * 1024, 1);
        let mut block = Block::default();
        let mut alloc = |n| {
            ga.alloc_charged(0, PageClass::Primary, n, &mut block)
                .unwrap()
                .offset()
        };
        // A bump, then a run of LEASE_BYTES whose spare a 4000-byte carve
        // leaves at 56: carving 16 more would leave 40 < MIN_TAIL, so the
        // run goes back and a new claim serves the request in its place.
        assert_eq!([alloc(40), alloc(40), alloc(4000)], [0, 40, 80]);
        assert_eq!(alloc(16), 4080);
        ga.close_leases(&mut block);
        assert_eq!(updates(&ga), 5, "bump, claim, return, claim, return");
        assert_eq!(heap.page_used(0), 4096);
    }

    #[test]
    fn a_lease_matches_one_bump_per_allocation_across_page_ends() {
        // The same request stream with and without a block: every handle,
        // postponement and page head agrees, the block's only difference
        // being fewer cursor updates.
        let sizes: Vec<usize> = (0..400).map(|i| 24 + (i * 37 % 9) * 8).collect();
        let (plain_heap, plain) = setup(4, 4096, 1);
        let (leased_heap, leased) = setup(4, 4096, 1);
        let mut block = Block::default();
        for &n in &sizes {
            let a = plain.alloc(0, PageClass::Primary, n);
            let b = leased.alloc_charged(0, PageClass::Primary, n, &mut block);
            assert_eq!(a, b);
        }
        leased.close_leases(&mut block);
        for p in 0..4 {
            assert_eq!(plain_heap.page_used(p), leased_heap.page_used(p));
        }
        assert_eq!(plain_heap.stats(), leased_heap.stats());
        assert!(updates(&leased) < updates(&plain) / 4);
    }

    #[test]
    fn a_lost_tail_is_parked_for_the_next_claim_and_wasted_if_unused() {
        let dead = DeadEntry {
            lens: 16,
            header: 24,
        };
        let heap = Arc::new(Heap::new(4 * 16384, 16384, Arc::new(Metrics::new())));
        let ga = GroupAllocator::new(Arc::clone(&heap), 1, PageKind::Mixed)
            .with_dead_entries(dead, dead);
        let alloc = |block: &mut Block| ga.alloc_charged(0, PageClass::Primary, 40, block).unwrap();
        let (mut a, mut b, mut c) = (Block::default(), Block::default(), Block::default());
        let a1 = alloc(&mut a);
        let a2 = alloc(&mut a);
        // `b` bumps past `a`'s run, so `a`'s tail can no longer go back.
        let b1 = alloc(&mut b);
        assert_eq!((a1.offset(), a2.offset()), (0, 40));
        assert_eq!(b1.offset() as usize, 80 + LEASE_BYTES - 40);
        ga.close_leases(&mut a);
        let tail = (LEASE_BYTES - 40) as u32;
        // Parked as a dead entry, not yet waste.
        let dead_at = |offset| heap.read_u64(DevHandle::new(a1.page(), offset), 16);
        assert_eq!(dead_at(80), dead.lens_word(tail));
        assert_eq!(heap.stats().wasted_bytes, 0);
        // `c`'s first allocation takes the tail over instead of the cursor,
        // and `c` hands back what it left of it parked again.
        assert_eq!(alloc(&mut c).offset(), 80);
        ga.close_leases(&mut b);
        ga.close_leases(&mut c);
        assert_eq!(dead_at(120), dead.lens_word(tail - 40));
        assert_eq!(ga.lost_tails(), (0, 0));
        // Still parked when the iteration ends: waste.
        ga.reset_iteration();
        assert_eq!(ga.lost_tails(), (1, u64::from(tail - 40)));
        assert_eq!(heap.stats().wasted_bytes, u64::from(tail - 40));
        assert_eq!(heap.page_used(a1.page()), b1.offset() as usize + 40);
        // The next iteration starts on a fresh page, with no tail parked.
        let d1 = alloc(&mut Block::default());
        assert_ne!(d1.page(), a1.page());
        assert_eq!(d1.offset(), 0);
    }

    #[test]
    fn a_tail_on_a_replaced_page_is_parked_not_returned() {
        let dead = DeadEntry {
            lens: 16,
            header: 24,
        };
        let heap = Arc::new(Heap::new(4 * 16384, 16384, Arc::new(Metrics::new())));
        let ga = GroupAllocator::new(Arc::clone(&heap), 1, PageKind::Mixed)
            .with_dead_entries(dead, dead);
        let alloc = |block: &mut Block| ga.alloc_charged(0, PageClass::Primary, 40, block).unwrap();
        let first = ga.alloc(0, PageClass::Primary, 16384 - 1000).unwrap();
        let (mut a, mut b, mut c) = (Block::default(), Block::default(), Block::default());
        alloc(&mut a);
        // `a`'s run takes the rest of the page, so `b` finds it full and
        // installs a fresh page.
        assert_eq!(alloc(&mut a).offset(), 16384 - 960);
        assert_ne!(alloc(&mut b).page(), first.page());
        // The tail's cursor would take it back, but no claim reads that
        // cursor any more: `c` gets the tail from the spare slot.
        ga.close_leases(&mut a);
        assert_eq!(heap.page_used(first.page()), 16384);
        let c1 = alloc(&mut c);
        assert_eq!((c1.page(), c1.offset()), (first.page(), 16384 - 920));
    }

    #[test]
    fn a_tail_parked_behind_another_is_lost_at_once() {
        let dead = DeadEntry {
            lens: 16,
            header: 24,
        };
        let heap = Arc::new(Heap::new(4 * 16384, 16384, Arc::new(Metrics::new())));
        let ga = GroupAllocator::new(Arc::clone(&heap), 1, PageKind::Mixed)
            .with_dead_entries(dead, dead);
        let mut blocks: [Block; 3] = Default::default();
        // Every block opens a run, each one past the last.
        for block in &mut blocks {
            for _ in 0..2 {
                ga.alloc_charged(0, PageClass::Primary, 40, block).unwrap();
            }
        }
        let tail = (LEASE_BYTES - 40) as u64;
        ga.close_leases(&mut blocks[0]);
        assert_eq!(ga.lost_tails(), (0, 0), "parked");
        ga.close_leases(&mut blocks[1]);
        assert_eq!(ga.lost_tails(), (1, tail), "the slot was taken");
        // The last run's tail goes back to the cursor.
        ga.close_leases(&mut blocks[2]);
        assert_eq!(heap.page_used(0), 3 * 80 + 2 * tail as usize);
        ga.reset_iteration();
        assert_eq!(ga.lost_tails(), (2, 2 * tail));
        assert_eq!(heap.stats().wasted_bytes, 2 * tail);
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
