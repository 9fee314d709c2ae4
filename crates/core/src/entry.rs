//! On-page entry layouts.
//!
//! Entries are written into heap pages as packed, self-describing records so
//! that (a) kernels can traverse chains via the embedded dual links, and
//! (b) evicted pages can be *walked* sequentially on the CPU without any
//! index — result enumeration parses host pages front to back.
//!
//! All layouts start with the 16-byte dual link (`next_dev`, `next_host`)
//! and are 8-byte aligned overall. Little-endian throughout.
//!
//! ```text
//! combining entry           basic entry               key entry (multi-valued)   value node
//! 0  next_dev   u64         0  next_dev   u64         0  next_dev        u64     0  next_dev  u64
//! 8  next_host  u64         8  next_host  u64         8  next_host       u64     8  next_host u64
//! 16 value      u64 (at.)   16 klen u32 | vlen u32    16 value_head_dev  u64(at) 16 vlen u32 | pad
//! 24 klen u32 | tag         24 key bytes ‖ val bytes  24 value_host_cont u64     24 value bytes
//! 32 key bytes                                        32 flags           u64(at)
//!                                                     40 klen u32 | tag
//!                                                     48 key bytes
//! ```
//!
//! `(at.)` marks words mutated after publication; they are only ever
//! accessed through `Heap::atomic_u64`.
//!
//! The length word of a combining entry and of a key entry — the two
//! entries a chain walk looks a key up in — carries a 31-bit *tag* of the
//! key's hash in bits 32–62 ([`tagged_lens`]). A walk compares the whole
//! word against the one its key would carry and reads key bytes only when
//! the two are equal, so an entry holding another key of the same length
//! is rejected from the word the walk reads anyway. Basic entries keep
//! `vlen` there and are never walked for a key; value nodes carry no key.

use sepo_alloc::align_up;
use sepo_alloc::DeadEntry;

/// Field offsets shared by every entry type.
pub const NEXT_DEV: u32 = 0;
pub const NEXT_HOST: u32 = 8;

/// Tombstone marker: bit 63 of an entry's length word. An allocation that
/// was abandoned (value allocation failed after its key entry was carved
/// out; entry lost a publish race to a concurrent duplicate) is stamped
/// with its intended lengths plus this bit, so page walkers can skip the
/// region while still advancing by the correct size. Without tombstones,
/// abandoned regions would be parsed as garbage entries — or worse, a
/// fully-written but unpublished duplicate would be double-counted.
///
/// A block's page lease marks a run tail it could not give back to the
/// page cursor the same way: a dead entry of the page's layout spanning
/// the tail ([`dead_entry`]).
///
/// Consequence: value lengths are capped at 2^31-1 (the basic layout packs
/// `klen | vlen << 32` into the length word, so vlen shares the top half
/// with the tombstone bit), and a key tag has 31 bits (bits 32–62 of a
/// tagged length word, [`TAG_MASK`]). Every reader takes the key length
/// from the low 32 bits only.
pub use sepo_alloc::layout::TOMBSTONE;

/// Bits 32–62 of a tagged length word: the key tag.
pub const TAG_MASK: u64 = 0x7FFF_FFFF << 32;

/// The length word of a combining entry or a multi-valued key entry for a
/// `klen`-byte key whose [`fnv1a`](crate::hash::fnv1a) hash
/// [`mix`](crate::hash::mix)es to `mixed`: the key length in the low half
/// and the low 31 bits of `mixed` as the tag. The bucket index takes the
/// high bits of the same word
/// ([`bucket_of_mixed`](crate::hash::bucket_of_mixed)), so the keys of one
/// chain do not share tag bits. Every writer of such a word goes through
/// here.
#[inline]
pub fn tagged_lens(klen: usize, mixed: u64) -> u64 {
    debug_assert!(klen as u64 <= u32::MAX as u64, "key length exceeds 32 bits");
    klen as u64 | ((mixed << 32) & TAG_MASK)
}

/// [`tagged_lens`] for `key`, hashing it here — the host-side writers and
/// checkers, which hold the key but not its hash.
pub fn key_lens(key: &[u8]) -> u64 {
    tagged_lens(key.len(), crate::hash::mix(crate::hash::fnv1a(key)))
}

/// Combining entry field offsets and size.
pub mod combining {
    use super::*;
    pub const VALUE: u32 = 16;
    pub const KLEN: u32 = 24;
    pub const KEY: u32 = 32;
    pub const HEADER: usize = 32;

    /// Total on-page size for a key of `klen` bytes.
    pub fn size(klen: usize) -> usize {
        HEADER + align_up(klen)
    }
}

/// Basic entry field offsets and size.
pub mod basic {
    use super::*;
    pub const LENS: u32 = 16; // klen u32 | vlen u32
    pub const PAYLOAD: u32 = 24; // key then value, contiguous
    pub const HEADER: usize = 24;

    /// Total on-page size for a `klen`-byte key and `vlen`-byte value.
    pub fn size(klen: usize, vlen: usize) -> usize {
        HEADER + align_up(klen + vlen)
    }
}

/// Multi-valued key entry field offsets and size.
pub mod key_entry {
    use super::*;
    pub const VALUE_HEAD: u32 = 16;
    pub const VALUE_HOST_CONT: u32 = 24;
    pub const FLAGS: u32 = 32;
    pub const KLEN: u32 = 40;
    pub const KEY: u32 = 48;
    pub const HEADER: usize = 48;

    /// Flag bit: this key had a value postponed in the current iteration.
    pub const FLAG_PENDING: u64 = 1;

    pub fn size(klen: usize) -> usize {
        HEADER + align_up(klen)
    }
}

/// Multi-valued value node field offsets and size.
pub mod value_node {
    use super::*;
    pub const VLEN: u32 = 16;
    pub const VALUE: u32 = 24;
    pub const HEADER: usize = 24;

    pub fn size(vlen: usize) -> usize {
        HEADER + align_up(vlen)
    }
}

/// How a page of `kind` marks a region that holds no entry: a dead entry
/// whose length word, tombstoned, makes its size the region's length.
pub fn dead_entry(kind: EntryKind) -> DeadEntry {
    let (lens, header) = match kind {
        EntryKind::Combining => (combining::KLEN, combining::HEADER),
        EntryKind::Basic => (basic::LENS, basic::HEADER),
        EntryKind::Key => (key_entry::KLEN, key_entry::HEADER),
        EntryKind::Value => (value_node::VLEN, value_node::HEADER),
    };
    DeadEntry {
        lens,
        header: header as u32,
    }
}

/// A parsed view of one entry in a raw (host-side) page image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParsedEntry<'a> {
    Combining {
        key: &'a [u8],
        value: u64,
    },
    Basic {
        key: &'a [u8],
        value: &'a [u8],
    },
    Key {
        key: &'a [u8],
        /// Host link (raw) to the newest evicted value node of this key.
        value_host_cont: u64,
    },
    Value {
        value: &'a [u8],
        /// Host link (raw) to the next-older value node of the same key.
        next_host: u64,
    },
}

impl<'a> ParsedEntry<'a> {
    /// The key of a primary entry; value nodes carry none.
    pub fn key(&self) -> Option<&'a [u8]> {
        match *self {
            ParsedEntry::Combining { key, .. }
            | ParsedEntry::Basic { key, .. }
            | ParsedEntry::Key { key, .. } => Some(key),
            ParsedEntry::Value { .. } => None,
        }
    }
}

fn read_u64_at(page: &[u8], off: usize) -> Option<u64> {
    Some(u64::from_le_bytes(page.get(off..off + 8)?.try_into().ok()?))
}

/// Which entry type a page holds, for walking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntryKind {
    Combining,
    Basic,
    Key,
    Value,
}

impl EntryKind {
    /// Offsets of a primary entry's length word (key length in the low 32
    /// bits) and of its key bytes.
    #[inline]
    pub fn key_fields(self) -> (u32, u32) {
        match self {
            EntryKind::Combining => (combining::KLEN, combining::KEY),
            EntryKind::Basic => (basic::LENS, basic::PAYLOAD),
            EntryKind::Key => (key_entry::KLEN, key_entry::KEY),
            EntryKind::Value => unreachable!("value nodes carry no key"),
        }
    }
}

/// Parse the entry at `off` in `page`, returning the view (or `None` for a
/// tombstoned region) and the offset of the next entry. Outer `None` on
/// truncation (end of the used region).
pub fn parse_at(
    page: &[u8],
    off: usize,
    kind: EntryKind,
) -> Option<(Option<ParsedEntry<'_>>, usize)> {
    let lens_field = match kind {
        EntryKind::Combining => combining::KLEN,
        EntryKind::Basic => basic::LENS,
        EntryKind::Key => key_entry::KLEN,
        EntryKind::Value => value_node::VLEN,
    };
    let lens = read_u64_at(page, off + lens_field as usize)?;
    let dead = lens & TOMBSTONE != 0;
    let lens = lens & !TOMBSTONE;
    match kind {
        EntryKind::Combining => {
            let klen = (lens & 0xFFFF_FFFF) as usize;
            let size = combining::size(klen);
            if dead {
                return Some((None, off + size));
            }
            let key =
                page.get(off + combining::KEY as usize..off + combining::KEY as usize + klen)?;
            let value = read_u64_at(page, off + combining::VALUE as usize)?;
            Some((Some(ParsedEntry::Combining { key, value }), off + size))
        }
        EntryKind::Basic => {
            let klen = (lens & 0xFFFF_FFFF) as usize;
            let vlen = (lens >> 32) as usize;
            let size = basic::size(klen, vlen);
            if dead {
                return Some((None, off + size));
            }
            let p = off + basic::PAYLOAD as usize;
            let key = page.get(p..p + klen)?;
            let value = page.get(p + klen..p + klen + vlen)?;
            Some((Some(ParsedEntry::Basic { key, value }), off + size))
        }
        EntryKind::Key => {
            let klen = (lens & 0xFFFF_FFFF) as usize;
            let size = key_entry::size(klen);
            if dead {
                return Some((None, off + size));
            }
            let key =
                page.get(off + key_entry::KEY as usize..off + key_entry::KEY as usize + klen)?;
            let cont = read_u64_at(page, off + key_entry::VALUE_HOST_CONT as usize)?;
            Some((
                Some(ParsedEntry::Key {
                    key,
                    value_host_cont: cont,
                }),
                off + size,
            ))
        }
        EntryKind::Value => {
            let vlen = (lens & 0xFFFF_FFFF) as usize;
            let size = value_node::size(vlen);
            if dead {
                return Some((None, off + size));
            }
            let p = off + value_node::VALUE as usize;
            let value = page.get(p..p + vlen)?;
            let next_host = read_u64_at(page, off + NEXT_HOST as usize)?;
            Some((Some(ParsedEntry::Value { value, next_host }), off + size))
        }
    }
}

/// Iterator over the entries of a page image.
pub struct PageWalker<'a> {
    page: &'a [u8],
    pos: usize,
    kind: EntryKind,
}

impl<'a> PageWalker<'a> {
    /// Walk `page` (the *used* prefix of a page) as entries of `kind`.
    pub fn new(page: &'a [u8], kind: EntryKind) -> Self {
        PageWalker { page, pos: 0, kind }
    }
}

impl<'a> Iterator for PageWalker<'a> {
    type Item = (usize, ParsedEntry<'a>);

    fn next(&mut self) -> Option<Self::Item> {
        while self.pos < self.page.len() {
            let at = self.pos;
            let (entry, next) = parse_at(self.page, at, self.kind)?;
            self.pos = next;
            if let Some(entry) = entry {
                return Some((at, entry));
            }
            // Tombstoned region: skip and continue.
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn push_u64(v: &mut Vec<u8>, x: u64) {
        v.extend_from_slice(&x.to_le_bytes());
    }

    fn push_u32(v: &mut Vec<u8>, x: u32) {
        v.extend_from_slice(&x.to_le_bytes());
    }

    fn pad8(v: &mut Vec<u8>) {
        while !v.len().is_multiple_of(8) {
            v.push(0);
        }
    }

    #[test]
    fn sizes_are_aligned_and_minimal() {
        assert_eq!(combining::size(0), 32);
        assert_eq!(combining::size(1), 40);
        assert_eq!(combining::size(8), 40);
        assert_eq!(basic::size(3, 4), 24 + 8);
        assert_eq!(key_entry::size(5), 48 + 8);
        assert_eq!(value_node::size(16), 24 + 16);
    }

    #[test]
    fn walk_combining_page() {
        let mut page = Vec::new();
        for (key, value) in [(&b"ab"[..], 7u64), (&b"xyz"[..], 42)] {
            push_u64(&mut page, u64::MAX); // next_dev
            push_u64(&mut page, u64::MAX); // next_host
            push_u64(&mut page, value);
            push_u32(&mut page, key.len() as u32);
            push_u32(&mut page, 0);
            page.extend_from_slice(key);
            pad8(&mut page);
        }
        let got: Vec<_> = PageWalker::new(&page, EntryKind::Combining).collect();
        assert_eq!(got.len(), 2);
        assert_eq!(
            got[0].1,
            ParsedEntry::Combining {
                key: b"ab",
                value: 7
            }
        );
        assert_eq!(got[0].0, 0);
        assert_eq!(got[1].0, combining::size(2));
    }

    #[test]
    fn walk_basic_page() {
        let mut page = Vec::new();
        push_u64(&mut page, 0);
        push_u64(&mut page, 0);
        push_u32(&mut page, 3); // klen
        push_u32(&mut page, 5); // vlen
        page.extend_from_slice(b"keyvalue");
        pad8(&mut page);
        let got: Vec<_> = PageWalker::new(&page, EntryKind::Basic).collect();
        assert_eq!(got.len(), 1);
        assert_eq!(
            got[0].1,
            ParsedEntry::Basic {
                key: b"key",
                value: b"value"
            }
        );
    }

    #[test]
    fn walk_key_and_value_pages() {
        let mut kpage = Vec::new();
        push_u64(&mut kpage, u64::MAX);
        push_u64(&mut kpage, u64::MAX);
        push_u64(&mut kpage, u64::MAX); // value_head_dev
        push_u64(&mut kpage, 0xBEEF); // value_host_cont
        push_u64(&mut kpage, 0); // flags
        push_u32(&mut kpage, 4);
        push_u32(&mut kpage, 0);
        kpage.extend_from_slice(b"link");
        pad8(&mut kpage);
        let got: Vec<_> = PageWalker::new(&kpage, EntryKind::Key).collect();
        assert_eq!(
            got[0].1,
            ParsedEntry::Key {
                key: b"link",
                value_host_cont: 0xBEEF
            }
        );

        let mut vpage = Vec::new();
        push_u64(&mut vpage, u64::MAX);
        push_u64(&mut vpage, 0xCAFE); // next_host
        push_u32(&mut vpage, 6);
        push_u32(&mut vpage, 0);
        vpage.extend_from_slice(b"a.html");
        pad8(&mut vpage);
        let got: Vec<_> = PageWalker::new(&vpage, EntryKind::Value).collect();
        assert_eq!(
            got[0].1,
            ParsedEntry::Value {
                value: b"a.html",
                next_host: 0xCAFE
            }
        );
    }

    #[test]
    fn dead_entries_span_exactly_their_region() {
        use sepo_alloc::layout::MIN_TAIL;
        for kind in [
            EntryKind::Combining,
            EntryKind::Basic,
            EntryKind::Key,
            EntryKind::Value,
        ] {
            let dead = dead_entry(kind);
            assert!(dead.header as usize <= MIN_TAIL, "{kind:?}");
            for len in [MIN_TAIL, MIN_TAIL + 8, 4096] {
                let mut page = vec![0u8; len + 8];
                let word = dead.lens_word(len as u32);
                page[dead.lens as usize..][..8].copy_from_slice(&word.to_le_bytes());
                assert_eq!(
                    parse_at(&page, 0, kind),
                    Some((None, len)),
                    "{kind:?} {len}"
                );
            }
        }
    }

    #[test]
    fn truncated_page_stops_cleanly() {
        let mut page = Vec::new();
        push_u64(&mut page, 0);
        push_u64(&mut page, 0);
        // header cut short
        let got: Vec<_> = PageWalker::new(&page, EntryKind::Combining).collect();
        assert!(got.is_empty());
    }

    #[test]
    fn empty_page_yields_nothing() {
        let got: Vec<_> = PageWalker::new(&[], EntryKind::Basic).collect();
        assert!(got.is_empty());
    }
}
