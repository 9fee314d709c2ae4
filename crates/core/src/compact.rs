//! Host compaction: one host entry per key (§III-B).
//!
//! A key whose entry leaves the device in *k* iterations leaves *k* host
//! entries behind. A combining key gets a new partial aggregate each time
//! a multi-pair task emits it after its entry was evicted. A multi-valued
//! key gets a new key entry, with a value chain of its own, each time a
//! value arrives after its key page left: a key page with no pending key
//! is evicted, and the kept-page cap
//! ([`MAX_KEPT_FRACTION`](crate::evict::MAX_KEPT_FRACTION)) evicts pending
//! ones too. The paper keeps one entry per key in CPU memory, "eventually
//! accessible from both CPU and GPU sides"; compaction restores that once
//! the table is finalized, in the order the collectors report:
//!
//! * **combining** — every entry of a key folds through the table's
//!   [`Combiner`](crate::config::Combiner) into one entry, in
//!   first-eviction order;
//! * **multi-valued** — every key entry of a key becomes one key entry,
//!   placed where the key's first entry stood in host-link (host id, then
//!   offset) order. Its host-linked value chain yields the chains of the
//!   old entries one after another in that order, each newest first.
//!
//! The entries are written into freshly stamped pages — [`PageKind::Mixed`],
//! or [`PageKind::Value`] pages followed by [`PageKind::Key`] pages — with
//! new host ids, null device links, no tombstones and, as the device writes
//! them, key tags in the length words ([`key_lens`]), which replace the
//! host heap's pages. An image that already holds each key once, without
//! tombstones, is left as it is.
//!
//! The fold is a pure function of the host pages, read only through
//! [`StampedPage::verify`]: the compacted image is the same under every
//! exec mode, feature toggle, shard layout and kill + resume. It runs
//! once, over the whole host image, in [`SepoTable::compact_host`]: the
//! driver calls it after a run's final flush when host pages arrived in
//! more than one batch, and [`SepoTable::finalize`] and
//! [`SepoTable::save`] call it too, so every saved image is compacted and
//! [`SepoTable::load`] refuses one that is not. Compaction charges no
//! simulated time: it is the CPU-side merge the collectors used to
//! perform at read time, moved earlier.

use crate::config::Organization;
use crate::entry::{combining, key_entry, key_lens, parse_at, value_node, EntryKind, ParsedEntry};
use crate::hash::KeyMap;
use crate::results::primary_entries;
use crate::table::SepoTable;
use sepo_alloc::{CorruptPage, DevHandle, Heap, HostLink, PageKind, StampedPage, VerifiedPage};

/// What one compaction did to the host image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactReport {
    /// Host entries before (a multi-valued table's key entries): one per
    /// key per iteration that evicted it.
    pub entries: u64,
    /// Distinct keys — the host entries after.
    pub keys: u64,
    /// Host bytes before.
    pub bytes_before: u64,
    /// Host bytes after: `Σ combining::size(klen)` over the keys, or
    /// `Σ key_entry::size(klen)` plus `Σ value_node::size(vlen)` over the
    /// keys and their values.
    pub bytes_after: u64,
}

/// A table's host entries, folded to one per key.
struct HostFold {
    entries: u64,
    bytes: u64,
    keys: Folded,
}

enum Folded {
    /// Each key's combined value, in first-eviction order.
    Combining(KeyMap<u64>),
    Grouped(Box<Groups>),
}

impl HostFold {
    /// Fold `pages` — every host page of a combining or multi-valued table
    /// (a basic table's duplicates are data: nothing compacts it), in
    /// host-id order — refusing the first that fails its stamp.
    fn new(org: Organization, pages: &[StampedPage]) -> Result<Self, CorruptPage> {
        let pages = pages
            .iter()
            .map(StampedPage::verify)
            .collect::<Result<Vec<_>, _>>()?;
        let bytes = pages.iter().map(|p| p.bytes().len() as u64).sum();
        let (entries, keys) = match org {
            Organization::Combining(comb) => {
                let (mut entries, mut keys) = (0, KeyMap::default());
                for page in &pages {
                    for (_, e) in primary_entries(org, page) {
                        if let ParsedEntry::Combining { key, value } = e {
                            entries += 1;
                            keys.upsert(key, || value, |v| *v = comb.apply(*v, value));
                        }
                    }
                }
                (entries, Folded::Combining(keys))
            }
            Organization::MultiValued => {
                let groups = Box::new(Groups::new(pages)?);
                (groups.entries.len() as u64, Folded::Grouped(groups))
            }
            Organization::Basic => unreachable!("a basic table is never compacted"),
        };
        Ok(HostFold {
            entries,
            bytes,
            keys,
        })
    }

    fn report(&self) -> CompactReport {
        let (keys, bytes_after) = match &self.keys {
            Folded::Combining(keys) => {
                let sizes = keys.iter().map(|(key, _)| combining::size(key.len()));
                (keys.len(), sizes.sum::<usize>() as u64)
            }
            Folded::Grouped(groups) => (groups.keys.len(), groups.packed_bytes),
        };
        CompactReport {
            entries: self.entries,
            keys: keys as u64,
            bytes_before: self.bytes,
            bytes_after,
        }
    }

    /// The compacted entries packed into stamped pages of at most
    /// `page_size` bytes, under host ids `heap` reserves.
    fn pack(self, page_size: usize, heap: &Heap) -> Vec<StampedPage> {
        match self.keys {
            Folded::Combining(keys) => {
                let mut out = Packer::new(PageKind::Mixed, page_size, || heap.reserve_host_ids(1));
                for (key, &value) in keys.iter() {
                    let words = [NULL_DEV, NULL_HOST, value, key_lens(key)];
                    out.put(&words, key, combining::size(key.len()));
                }
                out.finish()
            }
            Folded::Grouped(groups) => (*groups).pack(page_size, heap),
        }
    }
}

/// A multi-valued table's key entries, grouped by key.
///
/// Key pages arrive in host-id order, so key entries arrive in host-link
/// order and a key's id in `keys` is its place in the compacted image.
/// Each entry's chain is walked across every value page, and its values
/// are copied, newest first, into one range of an arena.
#[derive(Default)]
struct Groups {
    /// Every key, and the index of its latest entry in `entries`.
    keys: KeyMap<u32>,
    /// Every key entry, in host-link order.
    entries: Vec<KeyRun>,
    /// Chain values: bytes, and each value's `(offset, length)` in them.
    bytes: Vec<u8>,
    values: Vec<(u32, u32)>,
    /// Bytes of the compacted image: every key's entry and every chain's
    /// nodes.
    packed_bytes: u64,
}

const NONE: u32 = u32::MAX;

/// One key entry: its chain, newest first, as [`Groups::values`]
/// `start..end`, and its key's entry before it (`NONE` for the first).
#[derive(Clone, Copy)]
struct KeyRun {
    prev: u32,
    start: u32,
    end: u32,
}

impl Groups {
    /// Group the key entries of `pages`, every host page in host-id order.
    fn new(pages: Vec<VerifiedPage>) -> Result<Self, CorruptPage> {
        let (key_pages, value_pages): (Vec<_>, Vec<_>) =
            pages.into_iter().partition(|p| p.kind() == PageKind::Key);
        let mut groups = Groups::default();
        for page in &key_pages {
            for (_, e) in primary_entries(Organization::MultiValued, page) {
                if let ParsedEntry::Key {
                    key,
                    value_host_cont,
                } = e
                {
                    let start = groups.values.len() as u32;
                    groups.walk(HostLink::from_raw(value_host_cont), &value_pages)?;
                    let (id, mut prev) = (groups.entries.len() as u32, NONE);
                    groups
                        .keys
                        .upsert(key, || id, |last| prev = std::mem::replace(last, id));
                    if prev == NONE {
                        groups.packed_bytes += key_entry::size(key.len()) as u64;
                    }
                    let end = groups.values.len() as u32;
                    groups.entries.push(KeyRun { prev, start, end });
                }
            }
        }
        Ok(groups)
    }

    /// Copy the chain from `link` into the arena, node by node, as the
    /// collectors walk it. A link to a page not among `pages` (sorted by
    /// host id) is refused by host id.
    fn walk(&mut self, mut link: HostLink, pages: &[VerifiedPage]) -> Result<(), CorruptPage> {
        // A chain's nodes mostly share pages with their neighbours.
        let mut last: Option<&VerifiedPage> = None;
        while !link.is_null() {
            let host_id = link.host_page();
            let page = match last {
                Some(page) if page.host_id() == host_id => page,
                _ => {
                    let at = pages.binary_search_by_key(&host_id, VerifiedPage::host_id);
                    let at = at.map_err(|_| CorruptPage { host_id })?;
                    last.insert(&pages[at])
                }
            };
            let Some((Some(ParsedEntry::Value { value, next_host }), _)) =
                parse_at(page.bytes(), link.offset() as usize, EntryKind::Value)
            else {
                break;
            };
            self.packed_bytes += value_node::size(value.len()) as u64;
            self.values
                .push((self.bytes.len() as u32, value.len() as u32));
            self.bytes.extend_from_slice(value);
            link = HostLink::from_raw(next_host);
        }
        Ok(())
    }

    /// One key entry per key, in the order of each key's first entry by
    /// host link, on key pages after the value pages that hold its chain:
    /// the old entries' chains one after another in host-link order.
    fn pack(self, page_size: usize, heap: &Heap) -> Vec<StampedPage> {
        // A chain is written oldest value first, so each node links to the
        // one written before it and the key entry to the last one.
        let next_id = || heap.reserve_host_ids(1);
        let mut value_pages = Packer::new(PageKind::Value, page_size, next_id);
        let mut key_pages = Packer::new(PageKind::Key, page_size, next_id);
        let mut heads = Vec::with_capacity(self.keys.len());
        for (_, &last) in self.keys.iter() {
            let mut next = HostLink::NULL;
            let mut entry = last;
            while entry != NONE {
                let run = self.entries[entry as usize];
                let values = &self.values[run.start as usize..run.end as usize];
                for &(at, len) in values.iter().rev() {
                    let value = &self.bytes[at as usize..(at + len) as usize];
                    let words = [NULL_DEV, next.to_raw(), u64::from(len)];
                    next = value_pages.put(&words, value, value_node::size(value.len()));
                }
                entry = run.prev;
            }
            heads.push(next);
        }
        for ((key, _), cont) in self.keys.iter().zip(heads) {
            let (head, flags, lens) = (NULL_DEV, 0, key_lens(key));
            let words = [NULL_DEV, NULL_HOST, head, cont.to_raw(), flags, lens];
            key_pages.put(&words, key, key_entry::size(key.len()));
        }
        let mut out = value_pages.finish();
        out.extend(key_pages.finish());
        out
    }
}

const NULL_DEV: u64 = DevHandle::NULL.to_raw();
const NULL_HOST: u64 = HostLink::NULL.to_raw();

/// Entries of one page kind laid back to back in pages of at most
/// `page_size` bytes, each page taking the host id `next_id` hands out.
struct Packer<F> {
    kind: PageKind,
    next_id: F,
    pages: Vec<StampedPage>,
    /// The page being filled — one buffer, reused for every page — its
    /// used bytes and host id.
    page: Vec<u8>,
    used: usize,
    id: u64,
}

impl<F: FnMut() -> u64> Packer<F> {
    fn new(kind: PageKind, page_size: usize, next_id: F) -> Self {
        Packer {
            kind,
            next_id,
            pages: Vec::new(),
            page: vec![0; page_size],
            used: 0,
            id: 0,
        }
    }

    /// Append an entry of `size` bytes — `words`, then `payload`, then
    /// zeros — and return its host link.
    fn put(&mut self, words: &[u64], payload: &[u8], size: usize) -> HostLink {
        if self.used == 0 || self.used + size > self.page.len() {
            self.seal();
            self.id = (self.next_id)();
        }
        let at = self.used;
        let entry = &mut self.page[at..at + size];
        let (fields, rest) = entry.split_at_mut(8 * words.len());
        for (field, w) in fields.chunks_exact_mut(8).zip(words) {
            field.copy_from_slice(&w.to_le_bytes());
        }
        let (value, padding) = rest.split_at_mut(payload.len());
        value.copy_from_slice(payload);
        padding.fill(0);
        self.used += size;
        HostLink::new(self.id, at as u32)
    }

    /// Stamp the page being filled, if any.
    fn seal(&mut self) {
        let used = std::mem::take(&mut self.used);
        if used > 0 {
            let data = &self.page[..used];
            self.pages
                .push(StampedPage::stamp(self.id, self.kind, data));
        }
    }

    fn finish(mut self) -> Vec<StampedPage> {
        self.seal();
        self.pages
    }
}

impl SepoTable {
    /// Fold every host entry of this finalized combining or multi-valued
    /// table into one entry per key (see the [module docs](crate::compact))
    /// and replace the host heap with the packed pages — when that removes
    /// anything: an image that already holds each key once, without
    /// tombstones, is left as it is (`Ok(None)`), as is a basic table's and
    /// one with resident pages (their entries link into the host pages). A
    /// page that fails its stamp, or a value chain that leaves the host
    /// image, is refused by host id and nothing changes.
    pub fn compact_host(&self) -> Result<Option<CompactReport>, CorruptPage> {
        let resident = self.heap.free_pages() != self.heap.total_pages();
        if self.cfg.organization == Organization::Basic || resident {
            return Ok(None);
        }
        let fold = HostFold::new(self.cfg.organization, &self.host.pages())?;
        let report = fold.report();
        if report.entries == report.keys && report.bytes_before == report.bytes_after {
            return Ok(None);
        }
        let pages = fold.pack(self.cfg.page_size, &self.heap);
        self.host.restore(&pages);
        Ok(Some(report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::TableAudit;
    use crate::config::{Combiner, TableConfig};
    use crate::entry::{parse_at, EntryKind};
    use gpu_sim::charge::NoCharge;
    use gpu_sim::metrics::Metrics;
    use std::collections::HashMap;
    use std::sync::Arc;

    fn table(comb: Combiner, pages: usize) -> SepoTable {
        let cfg = TableConfig::new(Organization::Combining(comb))
            .with_buckets(64)
            .with_buckets_per_group(16)
            .with_page_size(1024);
        SepoTable::new(cfg, (pages * 1024) as u64, Arc::new(Metrics::new()))
    }

    /// Insert `(key, value)` pairs, evicting after every `per_batch`, and
    /// flush without compacting. Every insert fits: the heap is ample.
    fn partials(t: &SepoTable, pairs: &[(&str, u64)], per_batch: usize) {
        for batch in pairs.chunks(per_batch) {
            for &(k, v) in batch {
                assert!(t
                    .insert_combining(k.as_bytes(), v, &mut NoCharge)
                    .is_success());
            }
            t.end_iteration();
        }
    }

    #[test]
    fn partials_fold_into_one_entry_per_key_in_first_eviction_order() {
        let t = table(Combiner::Add, 16);
        let pairs = [("b", 1), ("a", 2), ("b", 3), ("c", 4), ("a", 5), ("b", 6)];
        partials(&t, &pairs, 2);
        let before = t.host_footprint();
        let want = collector_fold(&t, Combiner::Add);
        let report = t.compact_host().unwrap().expect("duplicates to fold");
        assert_eq!((report.entries, report.keys), (6, 3));
        assert_eq!(report.bytes_before, before.1);
        assert_eq!(report.bytes_after, 3 * combining::size(1) as u64);
        assert_eq!(t.host_footprint(), (1, report.bytes_after));
        let sums: HashMap<Vec<u8>, u64> = want.iter().cloned().collect();
        assert_eq!(sums[&b"a"[..]], 7);
        assert_eq!(sums[&b"b"[..]], 10);
        assert_eq!(t.collect_combining(), want);
        // Null links, no tombstones: every byte parses as a live entry.
        let page = t.host_heap().pages()[0].verify().unwrap();
        let mut off = 0;
        while off < page.bytes().len() {
            let (entry, next) = parse_at(page.bytes(), off, EntryKind::Combining).unwrap();
            assert!(entry.is_some(), "tombstone at {off}");
            for word in [0, 8] {
                let raw = &page.bytes()[off + word..off + word + 8];
                assert_eq!(raw, &u64::MAX.to_le_bytes(), "link word {word} at {off}");
            }
            off = next;
        }
    }

    /// The merge the collectors performed before compaction existed: walk
    /// the pages in host-id order, first appearance fixes a key's place.
    fn collector_fold(t: &SepoTable, comb: Combiner) -> Vec<(Vec<u8>, u64)> {
        let mut at: HashMap<Vec<u8>, usize> = HashMap::new();
        let mut out: Vec<(Vec<u8>, u64)> = Vec::new();
        for page in t.host_heap().pages() {
            let page = page.verify().unwrap();
            for (_, e) in primary_entries(Organization::Combining(comb), &page) {
                let ParsedEntry::Combining { key, value } = e else {
                    continue;
                };
                match at.get(key) {
                    Some(&i) => out[i].1 = comb.apply(out[i].1, value),
                    None => {
                        at.insert(key.to_vec(), out.len());
                        out.push((key.to_vec(), value));
                    }
                }
            }
        }
        out
    }

    #[test]
    fn packing_respects_the_page_size_and_takes_fresh_ids() {
        let t = table(Combiner::Or, 64);
        let keys: Vec<String> = (0..300).map(|i| format!("key-{i:04}")).collect();
        let pairs: Vec<(&str, u64)> = keys
            .iter()
            .chain(&keys)
            .enumerate()
            .map(|(i, k)| (k.as_str(), i as u64))
            .collect();
        partials(&t, &pairs, 300);
        let want = collector_fold(&t, Combiner::Or);
        let old_max = t.host_heap().pages().last().unwrap().host_id();
        let report = t.compact_host().unwrap().unwrap();
        assert_eq!((report.entries, report.keys), (600, 300));
        let pages = t.host_heap().pages();
        assert_eq!(pages.len(), 12, "25 forty-byte entries per 1 KiB page");
        assert!(pages.iter().all(|p| p.host_id() > old_max));
        assert!(pages
            .iter()
            .all(|p| p.verify().unwrap().bytes().len() <= 1024));
        let got = t.collect_combining();
        assert_eq!(got, want);
        let index: HashMap<&[u8], usize> = keys
            .iter()
            .enumerate()
            .map(|(i, k)| (k.as_bytes(), i))
            .collect();
        for (k, v) in &got {
            let i = index[k.as_slice()] as u64;
            assert_eq!(*v, i | (300 + i), "Or unions both partials");
        }
    }

    #[test]
    fn a_compact_image_and_other_organizations_are_left_alone() {
        let t = table(Combiner::Or, 16);
        partials(&t, &[("x", 1), ("y", 2), ("z", 4)], 2);
        let pages = t.host_heap().pages();
        assert_eq!(t.compact_host(), Ok(None), "no key twice, nothing to drop");
        assert_eq!(t.host_heap().pages(), pages);

        let cfg = TableConfig::new(Organization::Basic)
            .with_buckets(16)
            .with_buckets_per_group(4)
            .with_page_size(1024);
        let basic = SepoTable::new(cfg, 4096, Arc::new(Metrics::new()));
        basic.insert_basic(b"k", b"v", &mut NoCharge);
        basic.end_iteration();
        basic.insert_basic(b"k", b"v", &mut NoCharge);
        basic.end_iteration();
        assert_eq!(basic.compact_host(), Ok(None));
        assert_eq!(basic.collect_basic().len(), 2, "duplicates are basic data");
    }

    #[test]
    fn a_damaged_page_is_refused_by_host_id_and_nothing_changes() {
        let t = table(Combiner::Add, 16);
        partials(&t, &[("a", 1), ("a", 2)], 1);
        let page = t.host_heap().pages().remove(1);
        let mut bytes = page.verify().unwrap().bytes().to_vec();
        bytes[20] ^= 1;
        let damaged = StampedPage::from_parts(page.host_id(), page.kind(), bytes, page.crc());
        t.host_heap().store(damaged);
        let pages = t.host_heap().pages();
        let err = t.compact_host().unwrap_err();
        assert_eq!(err.host_id, page.host_id());
        assert_eq!(t.host_heap().pages(), pages);
    }

    fn grouped_table(pages: usize) -> SepoTable {
        let cfg = TableConfig::new(Organization::MultiValued)
            .with_buckets(64)
            .with_buckets_per_group(16)
            .with_page_size(1024);
        SepoTable::new(cfg, (pages * 1024) as u64, Arc::new(Metrics::new()))
    }

    /// Insert `(key, value)` pairs into a multi-valued table; returns the
    /// values stored (the others were postponed).
    fn insert_grouped<'p>(t: &SepoTable, pairs: &[(&str, &'p str)]) -> Vec<&'p str> {
        let stored = pairs.iter().filter(|(k, v)| {
            t.insert_multivalued(k.as_bytes(), v.as_bytes(), &mut NoCharge)
                .is_success()
        });
        stored.map(|&(_, v)| v).collect()
    }

    fn strings(groups: &[(Vec<u8>, Vec<Vec<u8>>)]) -> Vec<(String, Vec<String>)> {
        let s = |b: &[u8]| String::from_utf8(b.to_vec()).unwrap();
        let group = |(k, vs): &(Vec<u8>, Vec<Vec<u8>>)| (s(k), vs.iter().map(|v| s(v)).collect());
        groups.iter().map(group).collect()
    }

    #[test]
    fn key_entries_join_into_one_chain_per_key_in_host_link_order() {
        let t = grouped_table(16);
        for batch in [
            [("b", "1"), ("a", "2")],
            [("b", "3"), ("c", "4")],
            [("a", "5"), ("b", "6")],
        ] {
            assert_eq!(insert_grouped(&t, &batch).len(), 2);
            t.end_iteration();
        }
        let before = t.host_footprint();
        // Uncompacted, each iteration's key page holds its own entries.
        assert_eq!(t.collect_multivalued().len(), 6);
        let report = t.compact_host().unwrap().expect("key entries to join");
        assert_eq!((report.entries, report.keys), (6, 3));
        assert_eq!(report.bytes_before, before.1);
        let after = 3 * key_entry::size(1) + 6 * value_node::size(1);
        assert_eq!(report.bytes_after, after as u64);
        assert_eq!(t.host_footprint(), (2, report.bytes_after));
        let kinds: Vec<PageKind> = t.host_heap().pages().iter().map(|p| p.kind()).collect();
        assert_eq!(kinds, [PageKind::Value, PageKind::Key]);
        let want = [
            ("b", vec!["1", "3", "6"]),
            ("a", vec!["2", "5"]),
            ("c", vec!["4"]),
        ];
        let want: Vec<(String, Vec<String>)> = want
            .iter()
            .map(|(k, vs)| (k.to_string(), vs.iter().map(|v| v.to_string()).collect()))
            .collect();
        assert_eq!(strings(&t.collect_multivalued()), want);
        TableAudit::begin(&t).check_compacted(&t).unwrap();
        assert_eq!(
            t.compact_host(),
            Ok(None),
            "a compacted image is left alone"
        );
    }

    #[test]
    fn a_kept_key_page_evicted_after_higher_ids_folds_in_host_link_order() {
        let t = grouped_table(8);
        // Three rounds of more values than the heap holds keep the sticky
        // key page on the device across three boundaries, so its chain
        // crosses three boundaries' value pages, all with higher ids.
        let rounds: Vec<Vec<String>> = (0..3)
            .map(|r| (0..400).map(|i| format!("value-{r}-{i:03}")).collect())
            .collect();
        let sticky: Vec<Vec<(&str, &str)>> = rounds
            .iter()
            .map(|vs| vs.iter().map(|v| ("sticky", v.as_str())).collect())
            .collect();
        let batches: [&[(&str, &str)]; 5] = [
            &sticky[0],
            &sticky[1],
            &sticky[2],
            &[("sticky", "late"), ("k1", "x"), ("k2", "y")],
            &[("k1", "z"), ("sticky", "later"), ("k2", "w")],
        ];
        let mut kept_values = Vec::new();
        for (i, batch) in batches.into_iter().enumerate() {
            let stored = insert_grouped(&t, batch);
            let postpones = stored.len() < batch.len();
            assert_eq!(postpones, i < 3, "only the sticky rounds postpone");
            if postpones {
                kept_values.push(stored);
            }
            t.end_iteration();
            if i < 3 {
                // The pending sticky key page stays, under a lower id than
                // the value pages evicted now; a later boundary evicts it.
                let kept = t.heap().resident_pages();
                assert_eq!(kept.len(), 1);
                let newest = t.host_heap().pages().last().unwrap().host_id();
                assert!(t.heap().host_id(kept[0]) < newest);
            }
        }
        t.finalize();
        // The kept entry's chain (newest first), then the later entry's.
        let mut sticky = vec!["late"];
        sticky.extend(kept_values.iter().rev().flat_map(|vs| vs.iter().rev()));
        sticky.push("later");
        let mut got = strings(&t.collect_multivalued());
        assert_eq!(
            got.remove(0),
            (
                "sticky".into(),
                sticky.iter().map(|v| v.to_string()).collect()
            )
        );
        got.sort();
        let pair = |k: &str, a: &str, b: &str| (k.to_string(), vec![a.to_string(), b.to_string()]);
        assert_eq!(got, [pair("k1", "x", "z"), pair("k2", "y", "w")]);
        TableAudit::begin(&t).check_compacted(&t).unwrap();
    }
}
