//! The device-side heap: a pre-allocated arena partitioned into pages.
//!
//! Reproduces the allocator of §IV-A: "The dynamic memory allocator … uses a
//! heap that is pre-allocated in GPU memory. The heap is partitioned into
//! pages, from which allocation requests are serviced." Pages are acquired
//! from a free pool, bump-allocated through a per-page cursor (the
//! per-page "free-list pointer" the paper distributes contention over), and
//! returned to the pool when the SEPO driver evicts them to CPU memory. One
//! cursor update either claims a single allocation or a run that a thread
//! block carves allocations from (`group`'s block leases); the run's
//! unused tail goes back with one CAS, or stays in the page as a dead
//! entry when a later claim has moved the cursor on.
//!
//! Every page acquisition stamps the page with a fresh, globally unique
//! **host page id** — the identity under which its bytes will eventually
//! live in CPU memory. This implements the paper's dual-pointer scheme: a
//! [`Link`] holds both the device handle and the host
//! link, and [`Link::is_live`] decides residency by checking that the
//! target page still carries the host id the link was created under.
//!
//! # Safety model
//!
//! The backing store is a `Box<[UnsafeCell<u64>]>`. All mutation goes
//! through raw pointers derived from it. Soundness rests on two invariants:
//!
//! 1. **Disjointness** — `claim` hands out non-overlapping `[offset,
//!    offset+len)` runs within a page (a bounded CAS loop; a tail given
//!    back is one no allocation was carved from), and
//!    pages are disjoint by construction. Plain writes target only the range
//!    returned by the caller's own allocation.
//! 2. **Publication** — entry bytes are fully written *before* the entry is
//!    published via a `Release` CAS on a chain head, and read only after an
//!    `Acquire` load of that head (the hash table enforces this). Fields
//!    mutated after publication (combine values, value-chain heads) are
//!    accessed exclusively through the `&Published` cell obtained from
//!    [`Heap::atomic_u64`], never through plain reads.
//!
//! Every shared word of the heap's own bookkeeping is a
//! [`gpu_sim::sync`] cell whose protocol its field states; quiescent code
//! (snapshot, restore, loading a saved table) uses the cells' `get`/`set`.

use crate::layout::{align_up, DevHandle, HostLink, Link, MAX_PAGE_SIZE, MIN_TAIL};
use gpu_sim::metrics::Metrics;
use gpu_sim::sync::{Published, Relaxed};
use parking_lot::Mutex;
use std::cell::UnsafeCell;
use std::io;
use std::sync::Arc;

/// What a page currently stores. The *multi-valued* organization keeps keys
/// and values on separate pages (§IV-B) so they can be evicted
/// independently; the other organizations use `Mixed` pages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum PageKind {
    /// In the free pool.
    Free = 0,
    /// Key+value entries (basic / combining organizations).
    Mixed = 1,
    /// Key entries only (multi-valued).
    Key = 2,
    /// Value nodes only (multi-valued).
    Value = 3,
}

impl PageKind {
    fn from_u8(v: u8) -> PageKind {
        match v {
            1 => PageKind::Mixed,
            2 => PageKind::Key,
            3 => PageKind::Value,
            _ => PageKind::Free,
        }
    }

    /// The byte this kind is persisted as (`SEPOHST3` / `SEPOCKP5` page
    /// records).
    pub fn tag(self) -> u8 {
        self as u8
    }

    /// The kind a persisted page record names. A stored page is never
    /// `Free`, so tag 0 is as malformed as an unknown one.
    pub fn from_tag(tag: u8) -> io::Result<PageKind> {
        match PageKind::from_u8(tag) {
            PageKind::Free => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unknown page kind tag {tag}"),
            )),
            kind => Ok(kind),
        }
    }
}

/// Sentinel host id meaning "page is free / not stamped".
const NO_HOST_ID: u64 = u64::MAX;

/// Per-page metadata.
#[derive(Debug)]
pub struct PageMeta {
    /// Bump offset: the next free byte, never past the page end. Relaxed:
    /// the range a bump grants is its caller's own until a bucket head
    /// publishes the entry written there.
    head: Relaxed<u32>,
    /// Host page id stamped at acquisition; `NO_HOST_ID` when free.
    /// Published: a lane that observes the id sees the page's reset
    /// metadata.
    host_id: Published,
    /// Current [`PageKind`] as `u8`. Relaxed: written before the host id
    /// publishes the page, and read by lanes that observed that id.
    kind: Relaxed<u8>,
    /// Count of *pending* keys on this page (multi-valued: keys that still
    /// have values to insert, which pin the page on the device, §IV-C).
    /// Relaxed: a counter read at the boundary, after the launches joined.
    pending_keys: Relaxed<u32>,
}

impl PageMeta {
    fn new() -> Self {
        PageMeta {
            head: Relaxed::new(0),
            host_id: Published::new(NO_HOST_ID),
            kind: Relaxed::new(PageKind::Free as u8),
            pending_keys: Relaxed::new(0),
        }
    }
}

/// The device heap. Shared across kernel threads via `Arc`.
pub struct Heap {
    backing: Box<[UnsafeCell<u64>]>,
    page_size: usize,
    pages: Box<[PageMeta]>,
    pool: Mutex<Vec<u32>>,
    /// Next host id to stamp. Relaxed: each `fetch_add` hands out a unique
    /// id, and the page's own `host_id` publishes it.
    next_host_id: Relaxed<u64>,
    /// Bytes allocated but abandoned (lost CAS races, partial iterations);
    /// the fragmentation the paper trades against allocator scalability.
    /// Relaxed, like `acquired_total`: statistics counters.
    wasted: Relaxed<u64>,
    acquired_total: Relaxed<u64>,
    metrics: Arc<Metrics>,
}

// SAFETY: all shared mutation goes through atomic cells or through disjoint
// ranges handed out by the bump allocator (see module docs).
unsafe impl Send for Heap {}
unsafe impl Sync for Heap {}

impl std::fmt::Debug for Heap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Heap")
            .field("page_size", &self.page_size)
            .field("n_pages", &self.pages.len())
            .field("free_pages", &self.free_pages())
            .finish()
    }
}

/// One resident page inside a [`HeapSnapshot`]: its full physical identity
/// (index, host id, kind, pending keys, bump head) plus the used prefix of its
/// bytes. Capturing raw values — not re-derived ones — is what lets a
/// restore reproduce the device heap *exactly*, so links embedded in
/// evicted entry bytes stay valid and a resumed run replays byte-identically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResidentPage {
    /// Page index within the heap.
    pub index: u32,
    /// Host id stamped at acquisition.
    pub host_id: u64,
    /// Page kind at capture time.
    pub kind: PageKind,
    /// Pending-key count (multi-valued).
    pub pending_keys: u32,
    /// Raw bump head at capture time.
    pub head: u32,
    /// The used prefix of the page's bytes, shared by every holder of the
    /// image (a checkpoint, a serving epoch, the host page evicted from it).
    pub data: Arc<[u8]>,
}

/// Physical snapshot of a [`Heap`] at a quiescent point (an iteration
/// boundary): the exact free-pool order, the per-page identity counters,
/// and the bytes of every resident page. [`Heap::restore`] rebuilds the
/// heap to this state bit-for-bit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeapSnapshot {
    /// Page size the heap was built with (restore sanity check).
    pub page_size: usize,
    /// Total page count (restore sanity check).
    pub total_pages: usize,
    /// The free pool, bottom of the stack first (acquisition pops the back).
    pub pool: Vec<u32>,
    /// Next host id to stamp.
    pub next_host_id: u64,
    /// Lifetime fragmentation-waste counter.
    pub wasted: u64,
    /// Lifetime pages-acquired counter.
    pub acquired_total: u64,
    /// Every resident (non-free) page, in index order.
    pub resident: Vec<ResidentPage>,
}

/// Point-in-time allocator statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HeapStats {
    pub total_pages: usize,
    pub free_pages: usize,
    /// Bytes bump-allocated on currently-resident pages.
    pub used_bytes: u64,
    /// Bytes abandoned to fragmentation/races over the heap's lifetime.
    pub wasted_bytes: u64,
    /// Pages acquired from the pool over the heap's lifetime.
    pub pages_acquired: u64,
}

impl Heap {
    /// Build a heap of `capacity_bytes` rounded down to whole pages of
    /// `page_size` bytes. `page_size` must be a multiple of 8 and at most
    /// [`MAX_PAGE_SIZE`]; at least one page must fit.
    pub fn new(capacity_bytes: u64, page_size: usize, metrics: Arc<Metrics>) -> Heap {
        assert!(page_size >= 64, "page size too small: {page_size}");
        assert!(
            page_size <= MAX_PAGE_SIZE,
            "page size exceeds {MAX_PAGE_SIZE}"
        );
        assert_eq!(page_size % 8, 0, "page size must be 8-byte aligned");
        let n_pages = (capacity_bytes as usize / page_size).max(1);
        let words = n_pages * page_size / 8;
        let backing: Box<[UnsafeCell<u64>]> = (0..words).map(|_| UnsafeCell::new(0)).collect();
        let pages: Box<[PageMeta]> = (0..n_pages).map(|_| PageMeta::new()).collect();
        let pool = Mutex::new((0..n_pages as u32).rev().collect());
        Heap {
            backing,
            page_size,
            pages,
            pool,
            next_host_id: Relaxed::new(0),
            wasted: Relaxed::new(0),
            acquired_total: Relaxed::new(0),
            metrics,
        }
    }

    /// Page size in bytes.
    #[inline]
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Total number of pages.
    #[inline]
    pub fn total_pages(&self) -> usize {
        self.pages.len()
    }

    /// Pages currently in the free pool.
    pub fn free_pages(&self) -> usize {
        self.pool.lock().len()
    }

    /// The metrics sink this heap reports into.
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.metrics
    }

    // ------------------------------------------------------------------
    // Page lifecycle
    // ------------------------------------------------------------------

    /// Acquire a free page for `kind`, stamping a fresh host id. Returns
    /// `None` when the pool is exhausted — the condition that ultimately
    /// surfaces as POSTPONE.
    pub fn acquire_page(&self, kind: PageKind) -> Option<u32> {
        debug_assert!(kind != PageKind::Free);
        let page = self.pool.lock().pop()?;
        let meta = &self.pages[page as usize];
        let host_id = self.next_host_id.fetch_add(1);
        meta.head.set(0);
        meta.pending_keys.set(0);
        meta.kind.set(kind as u8);
        meta.host_id.publish(host_id);
        self.acquired_total.fetch_add(1);
        Some(page)
    }

    /// Return `page` to the free pool. The caller must have evicted (or
    /// abandoned) its contents; any live `Link` into it goes dead, which
    /// [`Link::is_live`] detects via the host-id stamp.
    pub fn release_page(&self, page: u32) {
        let meta = &self.pages[page as usize];
        let used = meta.head.get().min(self.page_size as u32);
        let waste = self.page_size as u32 - used;
        self.wasted.fetch_add(waste as u64);
        // Quiescent, or a page the releasing lane never published.
        meta.host_id.set(NO_HOST_ID);
        meta.kind.set(PageKind::Free as u8);
        meta.head.set(0);
        self.pool.lock().push(page);
    }

    /// Claim a run of `page` with one cursor update: `max` bytes, or what
    /// is left of the page if less, but at least `min` (both rounded up to
    /// the alignment), and either exactly `min` or at least [`MIN_TAIL`]
    /// more. Returns `(offset, len)` of the run, or `None` when not even
    /// `min` fits. The head never overshoots the page size, so `page_used`
    /// is always the exact extent of what was claimed — page-walking
    /// eviction depends on that.
    pub fn claim(&self, page: u32, min: usize, max: usize) -> Option<(u32, u32)> {
        let min = align_up(min);
        if min > self.page_size {
            // An entry larger than a page can never be satisfied; report
            // "full" so the request surfaces as POSTPONE and the driver's
            // progress check produces a diagnosable abort.
            return None;
        }
        let (min, max) = (min as u32, align_up(max).max(min) as u32);
        let limit = self.page_size as u32;
        let mut len = 0;
        let head = self.pages[page as usize].head.fetch_update(|head| {
            let room = limit - head;
            if room < min {
                return None;
            }
            len = max.min(room);
            if len - min < MIN_TAIL as u32 {
                len = min;
            }
            Some(head + len)
        });
        head.ok().map(|offset| (offset, len))
    }

    /// Bump-allocate `size` bytes on `page`: a [`Heap::claim`] of exactly
    /// `size`. Returns the offset, or `None` if the page is full.
    pub fn bump(&self, page: u32, size: usize) -> Option<u32> {
        self.claim(page, size, size).map(|(offset, _)| offset)
    }

    /// Hand the unused tail `[from, to)` of a claimed run of `page` back
    /// to its cursor: one CAS, which fails when a later claim has moved
    /// the cursor past `to`.
    pub fn give_back(&self, page: u32, from: u32, to: u32) -> bool {
        let head = &self.pages[page as usize].head;
        head.compare_exchange(to, from).is_ok()
    }

    // ------------------------------------------------------------------
    // Metadata queries
    // ------------------------------------------------------------------

    /// Current host id of `page` (`u64::MAX` if free).
    #[inline]
    pub fn host_id(&self, page: u32) -> u64 {
        self.pages[page as usize].host_id.observe()
    }

    /// Kind of `page`.
    #[inline]
    pub fn page_kind(&self, page: u32) -> PageKind {
        PageKind::from_u8(self.pages[page as usize].kind.get())
    }

    /// Bytes bump-allocated on `page`, clamped to the page size.
    #[inline]
    pub fn page_used(&self, page: u32) -> usize {
        (self.pages[page as usize].head.get() as usize).min(self.page_size)
    }

    /// The dual-pointer link naming the entry at `dev` under the page's
    /// current host identity.
    #[inline]
    pub fn link_for(&self, dev: DevHandle) -> Link {
        Link {
            dev,
            host: HostLink::new(self.host_id(dev.page()), dev.offset()),
        }
    }

    /// Increment the pending-key count of `page` (multi-valued: a key on
    /// this page has values that could not yet be inserted).
    #[inline]
    pub fn add_pending_key(&self, page: u32) {
        self.pages[page as usize].pending_keys.fetch_add(1);
    }

    /// Pending-key count of `page`.
    #[inline]
    pub fn pending_keys(&self, page: u32) -> u32 {
        self.pages[page as usize].pending_keys.get()
    }

    /// Clear the pending-key count of `page` (start of a new iteration).
    #[inline]
    pub fn clear_pending_keys(&self, page: u32) {
        self.pages[page as usize].pending_keys.set(0);
    }

    /// Pages that are currently resident (not free), in index order.
    pub fn resident_pages(&self) -> Vec<u32> {
        (0..self.pages.len() as u32)
            .filter(|&p| self.host_id(p) != NO_HOST_ID)
            .collect()
    }

    /// Record `bytes` of fragmentation waste (e.g. an entry abandoned after
    /// losing an insert race).
    #[inline]
    pub fn note_waste(&self, bytes: u64) {
        self.wasted.fetch_add(bytes);
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> HeapStats {
        let free = self.free_pages();
        let used_bytes = self
            .resident_pages()
            .iter()
            .map(|&p| self.page_used(p) as u64)
            .sum();
        HeapStats {
            total_pages: self.pages.len(),
            free_pages: free,
            used_bytes,
            wasted_bytes: self.wasted.get(),
            pages_acquired: self.acquired_total.get(),
        }
    }

    // ------------------------------------------------------------------
    // Data access
    // ------------------------------------------------------------------

    #[inline]
    fn ptr_at(&self, page: u32, offset: u32) -> *mut u8 {
        debug_assert!((page as usize) < self.pages.len());
        debug_assert!((offset as usize) < self.page_size);
        let byte_index = page as usize * self.page_size + offset as usize;
        // SAFETY: index bounds checked above; UnsafeCell grants mutation.
        unsafe { (self.backing.as_ptr() as *mut u8).add(byte_index) }
    }

    /// Write `bytes` at `dev`. The caller must own `[dev, dev+len)` via a
    /// prior `bump` and must not have published the entry yet.
    #[inline]
    pub fn write(&self, dev: DevHandle, bytes: &[u8]) {
        debug_assert!(dev.offset() as usize + bytes.len() <= self.page_size);
        // SAFETY: exclusive range per the bump-allocation invariant.
        unsafe {
            std::ptr::copy_nonoverlapping(
                bytes.as_ptr(),
                self.ptr_at(dev.page(), dev.offset()),
                bytes.len(),
            );
        }
    }

    /// Write a little-endian `u64` at `dev + field_offset` (pre-publication
    /// initialization of header words).
    #[inline]
    pub fn write_u64(&self, dev: DevHandle, field_offset: u32, value: u64) {
        let off = dev.offset() + field_offset;
        debug_assert_eq!(off % 8, 0);
        // SAFETY: aligned, in-bounds, exclusive pre-publication.
        unsafe {
            (self.ptr_at(dev.page(), off) as *mut u64).write(value);
        }
    }

    /// Read `len` bytes at `dev`. Only sound for bytes that are immutable
    /// after publication (keys, lengths, value payloads of non-combining
    /// entries) — see the module safety notes.
    #[inline]
    pub fn read(&self, dev: DevHandle, len: usize) -> &[u8] {
        debug_assert!(dev.offset() as usize + len <= self.page_size);
        // SAFETY: published entries are immutable in these bytes.
        unsafe { std::slice::from_raw_parts(self.ptr_at(dev.page(), dev.offset()), len) }
    }

    /// Read a `u64` field of a published entry (immutable after publication).
    #[inline]
    pub fn read_u64(&self, dev: DevHandle, field_offset: u32) -> u64 {
        let off = dev.offset() + field_offset;
        debug_assert_eq!(off % 8, 0);
        // SAFETY: aligned, in-bounds, immutable after publication.
        unsafe { (self.ptr_at(dev.page(), off) as *const u64).read() }
    }

    /// Borrow the [`Published`] word embedded at `dev + field_offset`
    /// (combine values, value-chain heads — fields mutated after
    /// publication).
    #[inline]
    pub fn atomic_u64(&self, dev: DevHandle, field_offset: u32) -> &Published {
        let off = dev.offset() + field_offset;
        assert_eq!(off % 8, 0, "atomic field must be 8-byte aligned");
        assert!(off as usize + 8 <= self.page_size);
        // SAFETY: aligned and in-bounds; `Published` is a transparent
        // `AtomicU64`, which may alias the UnsafeCell storage because all
        // concurrent access to this word is atomic.
        unsafe { &*(self.ptr_at(dev.page(), off) as *const Published) }
    }

    /// Ensure future host ids start at or beyond `min` (restoring a saved
    /// table must not reuse ids its stored pages already occupy).
    /// Quiescent: called while a saved table loads, before any launch.
    pub fn advance_host_ids(&self, min: u64) {
        if self.next_host_id.get() < min {
            self.next_host_id.set(min);
        }
    }

    /// Reserve `n` consecutive host ids for pages built on the host (host
    /// compaction) and return the first. No device page ever carries them.
    pub fn reserve_host_ids(&self, n: u64) -> u64 {
        self.next_host_id.fetch_add(n)
    }

    /// Load a host page image back onto the device (the lookup phase's
    /// page-in path): acquires a fresh page, copies `data` into it, and
    /// marks exactly `data.len()` bytes used. Returns `None` when the pool
    /// is exhausted or the image exceeds the page size.
    pub fn load_page_image(&self, data: &[u8], kind: PageKind) -> Option<u32> {
        if data.len() > self.page_size {
            return None;
        }
        let page = self.acquire_page(kind)?;
        if !data.is_empty() {
            let off = self
                .bump(page, data.len())
                .expect("fresh page must fit its image");
            debug_assert_eq!(off, 0);
            self.write(DevHandle::new(page, 0), data);
            // `bump` aligns up; clamp the head to the exact image length so
            // entry walks stop at the true end.
            self.pages[page as usize].head.set(data.len() as u32);
        }
        Some(page)
    }

    /// Capture the heap's full physical state at a quiescent point. The
    /// pool order matters: a restored heap must hand out the same page
    /// indices in the same order so replayed allocations land identically.
    pub fn snapshot(&self) -> HeapSnapshot {
        let pool = self.pool.lock().clone();
        let resident = self
            .resident_pages()
            .into_iter()
            .map(|p| {
                let meta = &self.pages[p as usize];
                ResidentPage {
                    index: p,
                    host_id: meta.host_id.get(),
                    kind: self.page_kind(p),
                    pending_keys: meta.pending_keys.get(),
                    head: meta.head.get(),
                    data: self.page_data(p),
                }
            })
            .collect();
        HeapSnapshot {
            page_size: self.page_size,
            total_pages: self.pages.len(),
            pool,
            next_host_id: self.next_host_id.get(),
            wasted: self.wasted.get(),
            acquired_total: self.acquired_total.get(),
            resident,
        }
    }

    /// Rebuild the heap to a captured state (hard-fault recovery: the
    /// simulated device was lost and its memory is reconstructed from the
    /// last iteration-boundary checkpoint). Every page meta, the pool
    /// order, the host-id counter, and each resident page's bytes are
    /// restored exactly; free pages keep whatever bytes they hold, which a
    /// deterministic replay rewrites before reuse.
    ///
    /// Panics if `s` came from a differently-shaped heap.
    pub fn restore(&self, s: &HeapSnapshot) {
        assert_eq!(s.page_size, self.page_size, "snapshot page size mismatch");
        assert_eq!(
            s.total_pages,
            self.pages.len(),
            "snapshot page count mismatch"
        );
        for meta in self.pages.iter() {
            meta.head.set(0);
            meta.pending_keys.set(0);
            meta.kind.set(PageKind::Free as u8);
            meta.host_id.set(NO_HOST_ID);
        }
        for p in &s.resident {
            let meta = &self.pages[p.index as usize];
            if !p.data.is_empty() {
                // SAFETY: in-bounds (data is a used prefix captured from a
                // same-shape heap) and quiescent — no kernels in flight.
                unsafe {
                    std::ptr::copy_nonoverlapping(
                        p.data.as_ptr(),
                        self.ptr_at(p.index, 0),
                        p.data.len(),
                    );
                }
            }
            meta.head.set(p.head);
            meta.pending_keys.set(p.pending_keys);
            meta.kind.set(p.kind as u8);
            meta.host_id.set(p.host_id);
        }
        *self.pool.lock() = s.pool.clone();
        self.next_host_id.set(s.next_host_id);
        self.wasted.set(s.wasted);
        self.acquired_total.set(s.acquired_total);
    }

    /// The used prefix of `page`, borrowed (quiescent readers: no kernel
    /// may write the page while the borrow lives).
    pub fn page_bytes(&self, page: u32) -> &[u8] {
        self.read(DevHandle::new(page, 0), self.page_used(page))
    }

    /// Copy the used prefix of `page` out of the device, once, into a
    /// shareable image (eviction to the host store, snapshots).
    pub fn page_data(&self, page: u32) -> Arc<[u8]> {
        self.page_bytes(page).into()
    }

    /// Fault-injection hook: XOR one bit of `page`'s used prefix in place
    /// (a resting-page flip in simulated device DRAM). `bit` is taken
    /// modulo the used bit count; pages with no used bytes are left alone.
    /// Only sound at quiescent points (no kernels in flight) — the SEPO
    /// driver injects between launches, mirroring where real soft errors
    /// strike data at rest.
    pub fn corrupt_bit(&self, page: u32, bit: u64) {
        let used = self.page_used(page);
        if used == 0 {
            return;
        }
        let bit = (bit % (used as u64 * 8)) as usize;
        let off = (bit / 8) as u32;
        // SAFETY: in bounds (off < used <= page_size), quiescent per the
        // contract above.
        unsafe {
            let p = self.ptr_at(page, off);
            *p ^= 1 << (bit % 8);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn heap(pages: usize, page_size: usize) -> Heap {
        Heap::new(
            (pages * page_size) as u64,
            page_size,
            Arc::new(Metrics::new()),
        )
    }

    #[test]
    fn construction_partitions_capacity() {
        let h = heap(4, 1024);
        assert_eq!(h.total_pages(), 4);
        assert_eq!(h.free_pages(), 4);
        assert_eq!(h.page_size(), 1024);
    }

    #[test]
    fn acquire_stamps_monotone_host_ids() {
        let h = heap(3, 1024);
        let a = h.acquire_page(PageKind::Mixed).unwrap();
        let b = h.acquire_page(PageKind::Key).unwrap();
        assert_ne!(a, b);
        assert_eq!(h.host_id(a), 0);
        assert_eq!(h.host_id(b), 1);
        assert_eq!(h.page_kind(a), PageKind::Mixed);
        assert_eq!(h.page_kind(b), PageKind::Key);
        assert_eq!(h.free_pages(), 1);
    }

    #[test]
    fn pool_exhaustion_returns_none() {
        let h = heap(2, 1024);
        assert!(h.acquire_page(PageKind::Mixed).is_some());
        assert!(h.acquire_page(PageKind::Mixed).is_some());
        assert!(h.acquire_page(PageKind::Mixed).is_none());
    }

    #[test]
    fn release_recycles_with_fresh_identity() {
        let h = heap(1, 1024);
        let p = h.acquire_page(PageKind::Mixed).unwrap();
        let old_id = h.host_id(p);
        h.bump(p, 100).unwrap();
        h.release_page(p);
        assert_eq!(h.free_pages(), 1);
        let p2 = h.acquire_page(PageKind::Mixed).unwrap();
        assert_eq!(p, p2);
        assert_ne!(h.host_id(p2), old_id);
        assert_eq!(h.page_used(p2), 0);
    }

    #[test]
    fn corrupt_bit_flips_exactly_one_used_bit() {
        let h = heap(1, 256);
        let p = h.acquire_page(PageKind::Mixed).unwrap();
        let off = h.bump(p, 32).unwrap();
        h.write(DevHandle::new(p, off), &[0u8; 32]);
        let clean = h.page_data(p);
        h.corrupt_bit(p, 7 + 32 * 8); // wraps modulo the used bit count
        let dirty = h.page_data(p);
        assert_ne!(clean, dirty);
        let flipped: u32 = clean
            .iter()
            .zip(dirty.iter())
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(flipped, 1);
        // Empty pages are left alone (nothing to corrupt).
        let h2 = heap(1, 256);
        let p2 = h2.acquire_page(PageKind::Mixed).unwrap();
        h2.corrupt_bit(p2, 99);
        assert!(h2.page_data(p2).is_empty());
    }

    #[test]
    fn bump_is_disjoint_and_bounded() {
        let h = heap(1, 256);
        let p = h.acquire_page(PageKind::Mixed).unwrap();
        let a = h.bump(p, 100).unwrap();
        let b = h.bump(p, 100).unwrap();
        assert_eq!(a, 0);
        assert_eq!(b, 104); // 100 aligns to 104
        assert!(h.bump(p, 100).is_none()); // 208 + 104 > 256
        assert_eq!(h.page_used(p), 208); // head never overshoots
        assert!(h.bump(p, 40).is_some()); // smaller request still fits
    }

    #[test]
    fn bump_aligns_offsets() {
        let h = heap(1, 1024);
        let p = h.acquire_page(PageKind::Mixed).unwrap();
        let a = h.bump(p, 9).unwrap();
        let b = h.bump(p, 1).unwrap();
        assert_eq!(a % 8, 0);
        assert_eq!(b % 8, 0);
        assert_eq!(b, 16);
    }

    #[test]
    fn write_read_round_trip() {
        let h = heap(2, 1024);
        let p = h.acquire_page(PageKind::Mixed).unwrap();
        let off = h.bump(p, 16).unwrap();
        let dev = DevHandle::new(p, off);
        h.write(dev, b"hello sepo table");
        assert_eq!(h.read(dev, 16), b"hello sepo table");
        h.write_u64(dev, 8, 0xDEAD_BEEF);
        assert_eq!(h.read_u64(dev, 8), 0xDEAD_BEEF);
    }

    #[test]
    fn atomic_field_updates() {
        let h = heap(1, 1024);
        let p = h.acquire_page(PageKind::Mixed).unwrap();
        let off = h.bump(p, 8).unwrap();
        let dev = DevHandle::new(p, off);
        h.write_u64(dev, 0, 10);
        let a = h.atomic_u64(dev, 0);
        assert_eq!(a.update(|v| v + 5), 10);
        assert_eq!(h.read_u64(dev, 0), 15);
    }

    #[test]
    fn link_liveness_tracks_recycling() {
        let h = heap(1, 1024);
        let p = h.acquire_page(PageKind::Mixed).unwrap();
        let off = h.bump(p, 8).unwrap();
        let link = h.link_for(DevHandle::new(p, off));
        let live = |link: Link| link.is_live(|page| Some(h.host_id(page)));
        assert!(live(link));
        h.release_page(p);
        assert!(!live(link));
        // Recycled page gets a new id; the stale link stays dead.
        h.acquire_page(PageKind::Mixed).unwrap();
        assert!(!live(link));
        assert!(!live(Link::NULL));
    }

    #[test]
    fn pending_keys_count_and_clear() {
        let h = heap(1, 1024);
        let p = h.acquire_page(PageKind::Key).unwrap();
        assert_eq!(h.pending_keys(p), 0);
        h.add_pending_key(p);
        h.add_pending_key(p);
        assert_eq!(h.pending_keys(p), 2);
        h.clear_pending_keys(p);
        assert_eq!(h.pending_keys(p), 0);
    }

    #[test]
    fn stats_track_usage_and_waste() {
        let h = heap(2, 1024);
        let p = h.acquire_page(PageKind::Mixed).unwrap();
        h.bump(p, 100).unwrap();
        h.note_waste(24);
        let s = h.stats();
        assert_eq!(s.total_pages, 2);
        assert_eq!(s.free_pages, 1);
        assert_eq!(s.used_bytes, 104);
        assert_eq!(s.wasted_bytes, 24);
        assert_eq!(s.pages_acquired, 1);
        // Releasing a partially-used page counts its tail as waste.
        h.release_page(p);
        assert_eq!(h.stats().wasted_bytes, 24 + (1024 - 104));
    }

    #[test]
    fn page_data_snapshots_used_prefix() {
        let h = heap(1, 1024);
        let p = h.acquire_page(PageKind::Mixed).unwrap();
        let off = h.bump(p, 8).unwrap();
        h.write(DevHandle::new(p, off), b"abcdefgh");
        let data = h.page_data(p);
        assert_eq!(data.len(), 8);
        assert_eq!(&*data, b"abcdefgh");
    }

    #[test]
    fn concurrent_bumps_never_overlap() {
        let h = Arc::new(heap(4, 4096));
        let p = h.acquire_page(PageKind::Mixed).unwrap();
        let offsets = parking_lot::Mutex::new(Vec::new());
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    let mut local = Vec::new();
                    while let Some(off) = h.bump(p, 24) {
                        local.push(off);
                    }
                    offsets.lock().extend(local);
                });
            }
        });
        let mut all = offsets.into_inner();
        all.sort_unstable();
        // Every granted offset unique and stride-separated.
        for w in all.windows(2) {
            assert!(w[1] - w[0] >= 24);
        }
        assert!(all.len() <= 4096 / 24 + 1);
    }

    #[test]
    #[should_panic(expected = "page size")]
    fn rejects_tiny_pages() {
        let _ = Heap::new(1024, 8, Arc::new(Metrics::new()));
    }

    #[test]
    fn snapshot_restore_round_trips_physical_state() {
        let h = heap(4, 1024);
        let a = h.acquire_page(PageKind::Mixed).unwrap();
        let b = h.acquire_page(PageKind::Key).unwrap();
        let off = h.bump(a, 16).unwrap();
        h.write(DevHandle::new(a, off), b"checkpointed-a!!");
        h.bump(b, 8).unwrap();
        h.write(DevHandle::new(b, 0), b"keypage!");
        h.add_pending_key(b);
        h.note_waste(13);
        let snap = h.snapshot();

        // Diverge: churn pages, mutate bytes, advance ids.
        let c = h.acquire_page(PageKind::Value).unwrap();
        h.bump(c, 64).unwrap();
        h.write(DevHandle::new(a, off), b"clobbered-bytes!");
        h.release_page(a);
        h.acquire_page(PageKind::Mixed).unwrap();

        h.restore(&snap);
        assert_eq!(h.snapshot(), snap, "restore must be exact");
        assert_eq!(h.read(DevHandle::new(a, off), 16), b"checkpointed-a!!");
        assert_eq!(h.page_kind(b), PageKind::Key);
        assert_eq!(h.pending_keys(b), 1);
        assert_eq!(h.stats().wasted_bytes, 13);
    }

    #[test]
    fn restore_replays_the_same_acquisition_order_and_ids() {
        let h = heap(4, 1024);
        h.acquire_page(PageKind::Mixed).unwrap();
        let snap = h.snapshot();
        let first: Vec<(u32, u64)> = (0..3)
            .map(|_| {
                let p = h.acquire_page(PageKind::Mixed).unwrap();
                (p, h.host_id(p))
            })
            .collect();
        h.restore(&snap);
        let replay: Vec<(u32, u64)> = (0..3)
            .map(|_| {
                let p = h.acquire_page(PageKind::Mixed).unwrap();
                (p, h.host_id(p))
            })
            .collect();
        assert_eq!(first, replay, "pool order and host ids must replay");
    }

    #[test]
    #[should_panic(expected = "page count mismatch")]
    fn restore_rejects_mismatched_shapes() {
        let h = heap(2, 1024);
        let other = heap(3, 1024);
        h.restore(&other.snapshot());
    }

    #[test]
    fn load_page_image_round_trips() {
        let h = heap(2, 1024);
        let image = b"entry-bytes-go-here-12345".to_vec();
        let p = h.load_page_image(&image, PageKind::Mixed).unwrap();
        assert_eq!(h.page_used(p), image.len());
        assert_eq!(h.page_bytes(p), &image[..]);
        assert_eq!(h.page_kind(p), PageKind::Mixed);
        // Oversized images and exhausted pools are declined.
        assert!(h
            .load_page_image(&vec![0u8; 2048], PageKind::Mixed)
            .is_none());
        h.load_page_image(b"x", PageKind::Mixed).unwrap();
        assert!(h.load_page_image(b"y", PageKind::Mixed).is_none());
    }
}
