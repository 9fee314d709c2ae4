//! Handle and link encodings.
//!
//! The paper's hash table "stores a set of two pointers … where ordinarily
//! one would be used: one based on the location of contents in GPU memory
//! and another based on the eventual location of contents in CPU memory"
//! (§III-B). We reproduce that with two packed 64-bit words:
//!
//! * [`DevHandle`] — `(device_page, offset)`: addresses the entry while its
//!   page is resident on the device. Device pages are recycled across SEPO
//!   iterations, so a `DevHandle` alone cannot tell a live target from a
//!   stale one.
//! * [`HostLink`] — `(host_page_id, offset)`: addresses the entry *forever*.
//!   Every acquisition of a device page stamps it with a fresh, globally
//!   unique host page id — the identity under which that page's bytes will
//!   eventually live in CPU memory. Host ids are never reused, which gives
//!   the residency test used during kernel chain walks: an entry is
//!   resident iff its device page still carries the host id the link was
//!   created under ([`Link::is_live`]), whether the page was filled this
//!   iteration or kept resident across a boundary (multi-valued).
//!
//! A stored [`Link`] is simply the pair. All entry offsets are 8-byte
//! aligned; page sizes are capped at 2^[`OFFSET_BITS`] bytes so offsets pack
//! into the low bits of a `HostLink`.

/// Bits reserved for the byte offset inside a `HostLink`. Caps page size at
/// 1 MiB, comfortably above the default 64 KiB.
pub const OFFSET_BITS: u32 = 20;

/// Maximum supported page size in bytes.
pub const MAX_PAGE_SIZE: usize = 1 << OFFSET_BITS;

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
/// entry of any layout (the longest entry header is 48 bytes).
pub const MIN_TAIL: usize = 48;

/// Device-side handle: `(page index, byte offset)` packed into a `u64`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DevHandle(u64);

impl DevHandle {
    /// The null handle (end of chain / empty bucket).
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

    /// Raw packed representation (for atomic head words).
    #[inline]
    pub const fn to_raw(self) -> u64 {
        self.0
    }

    #[inline]
    pub fn from_raw(raw: u64) -> Self {
        DevHandle(raw)
    }
}

/// Host-side (eventual CPU location) link: `(host_page_id, byte offset)`
/// packed into a `u64`. Host page ids are globally unique and monotone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HostLink(u64);

impl HostLink {
    pub const NULL: HostLink = HostLink(u64::MAX);

    #[inline]
    pub fn new(host_page: u64, offset: u32) -> Self {
        debug_assert!(offset < MAX_PAGE_SIZE as u32);
        debug_assert!(host_page < (1 << (64 - OFFSET_BITS)) - 1);
        HostLink((host_page << OFFSET_BITS) | offset as u64)
    }

    #[inline]
    pub fn host_page(self) -> u64 {
        self.0 >> OFFSET_BITS
    }

    #[inline]
    pub fn offset(self) -> u32 {
        (self.0 & ((1 << OFFSET_BITS) - 1)) as u32
    }

    #[inline]
    pub fn is_null(self) -> bool {
        self.0 == u64::MAX
    }

    #[inline]
    pub const fn to_raw(self) -> u64 {
        self.0
    }

    #[inline]
    pub fn from_raw(raw: u64) -> Self {
        HostLink(raw)
    }
}

/// The dual pointer stored in entry `next` fields and chain heads: the
/// device word for resident traversal, the host word for after eviction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Link {
    pub dev: DevHandle,
    pub host: HostLink,
}

impl Link {
    pub const NULL: Link = Link {
        dev: DevHandle::NULL,
        host: HostLink::NULL,
    };

    #[inline]
    pub fn is_null(self) -> bool {
        self.dev.is_null() && self.host.is_null()
    }

    /// The residency rule: the target is still resident iff the device half
    /// is non-null and its page still carries the host id the link was
    /// created under. `host_id` names the host id a device page carries
    /// now, `None` where the page is not held; a free heap page's id
    /// (`u64::MAX`) is above every host page a link can name.
    #[inline]
    pub fn is_live(self, host_id: impl FnOnce(u32) -> Option<u64>) -> bool {
        !self.dev.is_null() && host_id(self.dev.page()) == Some(self.host.host_page())
    }

    /// A link whose device half is dead (target evicted) but whose host half
    /// still names the entry's eventual CPU location.
    #[inline]
    pub fn host_only(host: HostLink) -> Self {
        Link {
            dev: DevHandle::NULL,
            host,
        }
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
        assert_eq!(DevHandle::from_raw(h.to_raw()), h);
    }

    #[test]
    fn dev_null_is_distinct() {
        assert!(DevHandle::NULL.is_null());
        assert!(!DevHandle::new(u32::MAX - 1, 0).is_null());
    }

    #[test]
    fn host_link_round_trips() {
        let l = HostLink::new(9_999_999, 1_048_575);
        assert_eq!(l.host_page(), 9_999_999);
        assert_eq!(l.offset(), 1_048_575);
        assert_eq!(HostLink::from_raw(l.to_raw()), l);
    }

    #[test]
    fn host_links_order_by_page_then_offset() {
        // Monotone host ids make links comparable; the residency test relies
        // on page ordering dominating.
        let a = HostLink::new(5, 1000);
        let b = HostLink::new(6, 0);
        assert!(a < b);
    }

    #[test]
    fn link_nullity() {
        assert!(Link::NULL.is_null());
        let l = Link::host_only(HostLink::new(3, 8));
        assert!(!l.is_null());
        assert!(l.dev.is_null());
        assert_eq!(l.host.host_page(), 3);
    }
}
