//! Handle and link encodings.
//!
//! The paper's hash table "stores a set of two pointers … where ordinarily
//! one would be used: one based on the location of contents in GPU memory
//! and another based on the eventual location of contents in CPU memory"
//! (§III-B). We carry both pointers in one packed 64-bit [`Link`] word of
//! `(host page id, offset, device page)`:
//!
//! * its host half ([`HostLink`], `(host page id, offset)`) addresses the
//!   entry *forever*. Every acquisition of a device page stamps it with a
//!   fresh, globally unique host page id — the identity under which that
//!   page's bytes will eventually live in CPU memory. Host ids are never
//!   reused;
//! * its device page, with the same offset, addresses the entry while its
//!   page is resident ([`DevHandle`]). Device pages are recycled across
//!   SEPO iterations, so the device half alone cannot tell a live target
//!   from a stale one. The host id does: an entry is resident iff its
//!   device page still carries the host id the link was created under
//!   ([`Link::is_live`]), whether the page was filled this iteration or
//!   kept resident across a boundary (multi-valued). So eviction rewrites
//!   no link: a link whose page left the device is dead on the device and
//!   still names the entry's host copy.
//!
//! Field widths, low bits first: [`DEV_PAGE_BITS`] of device page (the
//! all-ones value names no page: a host-only link), [`OFFSET_BITS`] of
//! offset in [`ALIGN`]-byte units (pages up to [`MAX_PAGE_SIZE`]), and
//! [`HOST_PAGE_BITS`] of host page id (the all-ones value is
//! [`Link::NULL`]'s). A heap holds at most [`MAX_DEVICE_PAGES`] pages and
//! stamps at most [`MAX_HOST_PAGES`] host ids over its life; both limits
//! are asserted where they are reached (`Heap::new`, page acquisition), so
//! a field never wraps.

/// The bytes of one stored link, which is also what a chain hop reads.
pub use gpu_sim::charge::LINK_BYTES;

/// Bits of a link's device page field.
pub const DEV_PAGE_BITS: u32 = 19;

/// Bits of a link's offset field, in [`ALIGN`]-byte units.
pub const OFFSET_BITS: u32 = 17;

/// Bits of a link's host page id field.
pub const HOST_PAGE_BITS: u32 = 28;

const _: () = assert!(DEV_PAGE_BITS + OFFSET_BITS + HOST_PAGE_BITS == 64);
const _: () = assert!(std::mem::size_of::<Link>() == LINK_BYTES as usize);

/// Maximum supported page size in bytes: 1 MiB.
pub const MAX_PAGE_SIZE: usize = ALIGN << OFFSET_BITS;

/// Most device pages one heap may have; the next page index is the
/// device field's "no page" value.
pub const MAX_DEVICE_PAGES: usize = NO_DEV_PAGE as usize;

/// Most host page ids one heap may stamp (ids `0..MAX_HOST_PAGES`); the
/// next id is the host half of [`Link::NULL`].
pub const MAX_HOST_PAGES: u64 = (1 << HOST_PAGE_BITS) - 1;

const NO_DEV_PAGE: u64 = (1 << DEV_PAGE_BITS) - 1;

/// Allocation alignment in bytes. Entry headers contain 64-bit atomics, so
/// every allocation starts 8-byte aligned and sizes round up to 8.
pub const ALIGN: usize = 8;

/// Round `n` up to the allocation alignment.
#[inline]
pub const fn align_up(n: usize) -> usize {
    (n + (ALIGN - 1)) & !(ALIGN - 1)
}

/// Tombstone marker: bit 63 of an entry's length word, which marks the
/// region as dead (`sepo_core::entry::TOMBSTONE` documents the entry
/// formats). The allocator writes one to mark a lost run tail.
pub const TOMBSTONE: u64 = 1 << 63;

/// A run's spare tail is either empty or at least this long, so a tail
/// that cannot go back to its page cursor always has room for one dead
/// entry of any layout. The longest entry header is a multi-valued key
/// entry's: its next link, its value-head link, a flags word and a length
/// word (`sepo_core::entry` asserts that no header is longer).
pub const MIN_TAIL: usize = 2 * LINK_BYTES as usize + 16;

/// Device-side handle: `(page index, byte offset)` of a resident entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DevHandle(u64);

impl DevHandle {
    /// The null handle (no entry).
    pub const NULL: DevHandle = DevHandle(u64::MAX);

    #[inline]
    pub fn new(page: u32, offset: u32) -> Self {
        debug_assert!(offset < MAX_PAGE_SIZE as u32);
        DevHandle(((page as u64) << 32) | offset as u64)
    }

    #[inline]
    pub fn page(self) -> u32 {
        (self.0 >> 32) as u32
    }

    #[inline]
    pub fn offset(self) -> u32 {
        self.0 as u32
    }

    #[inline]
    pub fn is_null(self) -> bool {
        self.0 == u64::MAX
    }
}

/// The host half of a [`Link`]: `(host page id, byte offset)`, the entry's
/// eventual CPU location. Ordered by page, then offset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HostLink(u64);

impl HostLink {
    pub const NULL: HostLink = HostLink(u64::MAX >> DEV_PAGE_BITS);

    #[inline]
    pub fn new(host_page: u64, offset: u32) -> Self {
        debug_assert!(host_page < MAX_HOST_PAGES, "host page id {host_page}");
        debug_assert!((offset as usize) < MAX_PAGE_SIZE && (offset as usize).is_multiple_of(ALIGN));
        HostLink((host_page << OFFSET_BITS) | (offset as usize / ALIGN) as u64)
    }

    #[inline]
    pub fn host_page(self) -> u64 {
        self.0 >> OFFSET_BITS
    }

    #[inline]
    pub fn offset(self) -> u32 {
        ((self.0 & ((1 << OFFSET_BITS) - 1)) as usize * ALIGN) as u32
    }

    #[inline]
    pub fn is_null(self) -> bool {
        self == HostLink::NULL
    }
}

/// The one pointer stored in entry `next` fields, value heads and chain
/// heads: a device page beside the host half, one word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Link(u64);

impl Link {
    pub const NULL: Link = Link(u64::MAX);

    /// The link naming the entry at `offset` of device page `dev_page`,
    /// which carries host id `host_page`.
    #[inline]
    pub fn new(host_page: u64, dev_page: u32, offset: u32) -> Self {
        debug_assert!((dev_page as u64) < NO_DEV_PAGE, "device page {dev_page}");
        Link((HostLink::new(host_page, offset).0 << DEV_PAGE_BITS) | dev_page as u64)
    }

    /// A link with no device half: its target is only in host memory.
    #[inline]
    pub fn host_only(host: HostLink) -> Self {
        Link((host.0 << DEV_PAGE_BITS) | NO_DEV_PAGE)
    }

    #[inline]
    pub fn is_null(self) -> bool {
        self == Link::NULL
    }

    /// The host half: where the target lives, or will live, in CPU memory.
    #[inline]
    pub fn host(self) -> HostLink {
        HostLink(self.0 >> DEV_PAGE_BITS)
    }

    /// The device half, meaningful while [`Link::is_live`] holds.
    #[inline]
    pub fn dev(self) -> DevHandle {
        DevHandle::new((self.0 & NO_DEV_PAGE) as u32, self.host().offset())
    }

    /// The residency rule: the target is still resident iff the link has a
    /// device half whose page still carries the host id the link was
    /// created under. `host_id` names the host id a device page carries
    /// now, `None` where the page is not held; a free heap page's id
    /// (`u64::MAX`) is above every host page a link can name.
    #[inline]
    pub fn is_live(self, host_id: impl FnOnce(u32) -> Option<u64>) -> bool {
        let page = self.0 & NO_DEV_PAGE;
        page != NO_DEV_PAGE && host_id(page as u32) == Some(self.host().host_page())
    }

    /// Raw packed representation (entry words and atomic head words).
    #[inline]
    pub const fn to_raw(self) -> u64 {
        self.0
    }

    #[inline]
    pub fn from_raw(raw: u64) -> Self {
        Link(raw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn align_up_rounds_to_eight() {
        assert_eq!(align_up(0), 0);
        assert_eq!(align_up(1), 8);
        assert_eq!(align_up(8), 8);
        assert_eq!(align_up(9), 16);
        assert_eq!(align_up(63), 64);
    }

    #[test]
    fn dev_handle_round_trips() {
        let h = DevHandle::new(12345, 67890);
        assert_eq!(h.page(), 12345);
        assert_eq!(h.offset(), 67890);
        assert!(!h.is_null());
        assert!(DevHandle::NULL.is_null());
    }

    #[test]
    fn host_links_order_by_page_then_offset() {
        // Monotone host ids make links comparable; the residency test relies
        // on page ordering dominating.
        let a = HostLink::new(5, 1000);
        let b = HostLink::new(6, 0);
        assert!(a < b);
    }

    /// Every field at its extremes round-trips through one word, and the
    /// three kinds of link — null, host-only, live — stay apart.
    #[test]
    fn links_round_trip_at_every_field_extreme() {
        let last_host = MAX_HOST_PAGES - 1;
        let last_dev = MAX_DEVICE_PAGES as u32 - 1;
        let last_offsets = [MAX_PAGE_SIZE - ALIGN, 1024 - ALIGN, 0];
        for host_page in [0, 1, last_host] {
            for dev_page in [0, 1, last_dev] {
                for offset in last_offsets.map(|o| o as u32) {
                    let link = Link::new(host_page, dev_page, offset);
                    let back = Link::from_raw(link.to_raw());
                    assert_eq!(back, link);
                    assert_eq!(back.host(), HostLink::new(host_page, offset));
                    assert_eq!(back.host().host_page(), host_page);
                    assert_eq!(back.host().offset(), offset);
                    assert_eq!(back.dev(), DevHandle::new(dev_page, offset));
                    assert!(!back.is_null() && !back.host().is_null());
                    // Live exactly while the device page carries the id.
                    let carries = |id: u64| move |p: u32| (p == dev_page).then_some(id);
                    assert!(back.is_live(carries(host_page)));
                    assert!(!back.is_live(carries(host_page ^ 1)));
                    assert!(!back.is_live(|_| None));
                    // The host-only twin names the same host entry, never
                    // a device page, and is not null.
                    let host_only = Link::host_only(back.host());
                    assert_eq!(host_only.host(), back.host());
                    assert!(!host_only.is_null() && host_only != back);
                    assert!(!host_only.is_live(|_| Some(host_page)));
                }
            }
        }
        assert!(Link::NULL.is_null() && Link::NULL.host().is_null());
        assert!(!Link::NULL.is_live(|_| Some(MAX_HOST_PAGES)));
        assert_eq!(Link::host_only(HostLink::NULL), Link::NULL);
        assert_eq!(Link::NULL.host().host_page(), MAX_HOST_PAGES);
    }
}
