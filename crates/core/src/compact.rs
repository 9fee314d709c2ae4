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
//! new host ids, host-only links, no tombstones and, as the device writes
//! them, key tags in the length words ([`key_lens`]), which replace the
//! host heap's pages. An image that already holds each key once, without
//! tombstones, is left as it is.
//!
//! There is one fold of a key's host entries, and it lives with the one
//! key index, [`HostStore`](crate::serve::HostStore): compaction indexes
//! the host image as `HostStore::of_finalized` does, verifying every page
//! through [`StampedPage::verify`], and packs each key, in the order of
//! its first entry, from the fold the serving epochs and `sepo query` read
//! through. So the compacted image is a pure function of the host pages,
//! the same under every exec mode, feature toggle, shard layout and kill +
//! resume, and an in-run epoch's answer for a key is what compaction
//! packs for it. It runs once, over the whole host image, in
//! [`SepoTable::compact_host`]: the driver calls it after a run's final
//! flush when host pages arrived in more than one batch, and
//! [`SepoTable::finalize`] and [`SepoTable::save`] call it too, so every
//! saved image is compacted and [`SepoTable::load`] refuses one that is
//! not. Compaction charges no simulated time: it is the CPU-side merge the
//! collectors used to perform at read time, moved earlier.

use crate::config::Organization;
use crate::entry::{combining, key_entry, key_lens, value_node};
use crate::serve::HostIndex;
use crate::table::SepoTable;
use sepo_alloc::{CorruptPage, HostLink, Link, PageKind, StampedPage};
use std::cell::Cell;

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

/// Each key of `index`, a combining or multi-valued table's host image,
/// folded to one entry, in the order of the key's first entry, and packed
/// into stamped pages of at most `page_size` bytes under consecutive host
/// ids from `first_id` on: [`PageKind::Mixed`] pages, or
/// [`PageKind::Value`] pages with each key's chain back to back, followed
/// by the [`PageKind::Key`] pages. Returns the pages and the bytes of the
/// entries on them; a value chain that leaves the image is refused by host
/// id.
fn pack(
    index: &HostIndex,
    org: Organization,
    page_size: usize,
    first_id: u64,
) -> Result<(Vec<StampedPage>, u64), CorruptPage> {
    let id = Cell::new(first_id);
    let next_id = || id.replace(id.get() + 1);
    if let Organization::Combining(comb) = org {
        let mut out = Packer::new(PageKind::Mixed, page_size, next_id);
        let mut words = Vec::new();
        for (key, last) in index.keys() {
            index.words(last, u64::MAX, &mut words);
            let value = HostIndex::combine(&words, comb);
            let value = value.expect("an indexed key has an entry");
            let fields = [NULL, value, key_lens(key)];
            out.put(&fields, key, combining::size(key.len()));
        }
        return Ok(out.finish());
    }
    // A chain is written oldest value first, so each node links to the one
    // written before it and the key entry to the last one.
    let mut value_pages = Packer::new(PageKind::Value, page_size, next_id);
    let mut key_pages = Packer::new(PageKind::Key, page_size, next_id);
    let (mut words, mut values, mut heads) = (Vec::new(), Vec::new(), Vec::new());
    for (_, last) in index.keys() {
        index.words(last, u64::MAX, &mut words);
        values.clear();
        index.values(&words, &mut 0, |v| values.push(v))?;
        let mut next = HostLink::NULL;
        for value in values.iter().rev() {
            let fields = [host_only(next), value.len() as u64];
            next = value_pages.put(&fields, value, value_node::size(value.len()));
        }
        heads.push(next);
    }
    for ((key, _), head) in index.keys().zip(heads) {
        let fields = [NULL, host_only(head), 0, key_lens(key)];
        key_pages.put(&fields, key, key_entry::size(key.len()));
    }
    let (mut pages, value_bytes) = value_pages.finish();
    let (key_pages, key_bytes) = key_pages.finish();
    pages.extend(key_pages);
    Ok((pages, value_bytes + key_bytes))
}

/// The bytes [`pack`] writes for `index`: one entry per key and, for a
/// multi-valued table, one node per value of its chains. A value chain
/// that leaves the image is refused by host id.
fn packed_bytes(index: &HostIndex, org: Organization) -> Result<u64, CorruptPage> {
    let (mut bytes, mut words) = (0, Vec::new());
    for (key, last) in index.keys() {
        if org == Organization::MultiValued {
            bytes += key_entry::size(key.len()) as u64;
            index.words(last, u64::MAX, &mut words);
            index.values(&words, &mut 0, |v| {
                bytes += value_node::size(v.len()) as u64
            })?;
        } else {
            bytes += combining::size(key.len()) as u64;
        }
    }
    Ok(bytes)
}

/// Packed entries are host entries: their links carry no device half.
const NULL: u64 = Link::NULL.to_raw();

fn host_only(link: HostLink) -> u64 {
    Link::host_only(link).to_raw()
}

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
    /// Bytes of every entry put.
    bytes: u64,
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
            bytes: 0,
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
        self.bytes += size as u64;
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

    /// The stamped pages and the bytes of their entries.
    fn finish(mut self) -> (Vec<StampedPage>, u64) {
        self.seal();
        (self.pages, self.bytes)
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
    /// image, is refused by host id and nothing changes, the heap's next
    /// host id included.
    pub fn compact_host(&self) -> Result<Option<CompactReport>, CorruptPage> {
        let org = self.cfg.organization;
        let resident = self.heap.free_pages() != self.heap.total_pages();
        if org == Organization::Basic || resident {
            return Ok(None);
        }
        let index = HostIndex::of_image(org, &self.host.pages())?;
        let (entries, keys, bytes_before) = (index.entries(), index.len(), index.page_bytes());
        // One entry per key, and no bytes besides those entries and their
        // chains (no tombstone): packing would rewrite the image as it is.
        if entries == keys && packed_bytes(&index, org)? == bytes_before {
            return Ok(None);
        }
        // Pack under the host ids the heap hands out next, and reserve them
        // only when the packed image replaces the old one.
        let first_id = self.heap.snapshot().next_host_id;
        let (pages, bytes_after) = pack(&index, org, self.cfg.page_size, first_id)?;
        let report = CompactReport {
            entries: entries as u64,
            keys: keys as u64,
            bytes_before,
            bytes_after,
        };
        let reserved = self.heap.reserve_host_ids(pages.len() as u64);
        assert_eq!(
            reserved, first_id,
            "no host id is reserved while a table compacts"
        );
        self.host.restore(&pages);
        Ok(Some(report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::TableAudit;
    use crate::config::{Combiner, TableConfig};
    use crate::entry::{parse_at, EntryKind, ParsedEntry};
    use crate::results::primary_entries;
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
            let raw = &page.bytes()[off..off + 8];
            assert_eq!(raw, &u64::MAX.to_le_bytes(), "link word at {off}");
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
        assert_eq!(pages.len(), 10, "32 thirty-two-byte entries per 1 KiB page");
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
        let next_id = t.heap().snapshot().next_host_id;
        assert_eq!(t.compact_host(), Ok(None), "no key twice, nothing to drop");
        assert_eq!(t.host_heap().pages(), pages);
        assert_eq!(t.heap().snapshot().next_host_id, next_id);

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
        let next_id = t.heap().snapshot().next_host_id;
        let err = t.compact_host().unwrap_err();
        assert_eq!(err.host_id, page.host_id());
        assert_eq!(t.host_heap().pages(), pages);
        assert_eq!(t.heap().snapshot().next_host_id, next_id);
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
    fn a_chain_into_a_missing_page_is_refused_by_host_id_and_nothing_changes() {
        let t = grouped_table(16);
        for batch in [[("b", "1"), ("a", "2")], [("b", "3"), ("c", "4")]] {
            assert_eq!(insert_grouped(&t, &batch).len(), 2);
            t.end_iteration();
        }
        let mut pages = t.host_heap().pages();
        let missing = pages.iter().find(|p| p.kind() == PageKind::Value);
        let missing = missing.unwrap().host_id();
        pages.retain(|p| p.host_id() != missing);
        t.host_heap().restore(&pages);
        let next_id = t.heap().snapshot().next_host_id;
        assert_eq!(t.compact_host().unwrap_err().host_id, missing);
        assert_eq!(t.host_heap().pages(), pages);
        assert_eq!(t.heap().snapshot().next_host_id, next_id);
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
