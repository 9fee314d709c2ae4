//! Host compaction: one host entry per combining key (§III-B).
//!
//! A combining key whose entry is evicted in *k* iterations leaves *k*
//! partial aggregates on the host: a multi-pair task can emit the key again
//! after its entry left the device. The paper keeps one entry per key in
//! CPU memory, "eventually accessible from both CPU and GPU sides";
//! compaction restores that once the table is finalized. Every evicted
//! entry of a key folds through the table's [`Combiner`] into one entry,
//! written in first-eviction order — the order the collectors report — into
//! freshly stamped [`PageKind::Mixed`] pages with new host ids, null links
//! and no tombstones, which replace the host heap's pages.
//!
//! The fold is a pure function of the host pages in host-id order, read
//! only through [`StampedPage::verify`]: the compacted image is the same
//! under every exec mode, feature toggle, shard layout and kill + resume.
//! The driver's `Compactor` feeds the fold each boundary's committed
//! pages on a pool worker while the next iteration's launches run, so the
//! end of the run pays only for the last boundary's pages and the write;
//! [`SepoTable::finalize`] folds in line. Compaction charges no simulated
//! time: it is the CPU-side merge the collectors used to perform at read
//! time, moved earlier.

use crate::config::{Combiner, Organization};
use crate::entry::{combining, ParsedEntry};
use crate::hash::KeyMap;
use crate::results::primary_entries;
use crate::table::SepoTable;
use gpu_sim::pool::{Background, WorkerPool};
use sepo_alloc::{CorruptPage, DevHandle, HostHeap, HostLink, PageKind, StampedPage};

/// What one compaction did to the host image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactReport {
    /// Host entries before: one per key per iteration that evicted it.
    pub entries: u64,
    /// Distinct keys — the host entries after.
    pub keys: u64,
    /// Host bytes before.
    pub bytes_before: u64,
    /// Host bytes after: `Σ combining::size(klen)` over the keys.
    pub bytes_after: u64,
}

/// The running fold of a combining table's host entries: every distinct
/// key once, in first-eviction order, with its combined value.
pub(crate) struct HostFold {
    comb: Combiner,
    pages: u64,
    entries: u64,
    bytes: u64,
    /// Each key's combined value, in first-eviction order.
    keys: KeyMap<u64>,
}

impl HostFold {
    pub(crate) fn new(comb: Combiner) -> Self {
        HostFold {
            comb,
            pages: 0,
            entries: 0,
            bytes: 0,
            keys: KeyMap::default(),
        }
    }

    /// Fold `pages` — ascending host ids, all above any absorbed before —
    /// into the running result, refusing the first that fails its stamp.
    pub(crate) fn absorb(&mut self, pages: &[StampedPage]) -> Result<(), CorruptPage> {
        let org = Organization::Combining(self.comb);
        for page in pages {
            let page = page.verify()?;
            self.pages += 1;
            self.bytes += page.bytes().len() as u64;
            for (_, e) in primary_entries(org, &page) {
                if let ParsedEntry::Combining { key, value } = e {
                    self.add(key, value);
                }
            }
        }
        Ok(())
    }

    fn add(&mut self, key: &[u8], value: u64) {
        self.entries += 1;
        let comb = self.comb;
        self.keys
            .upsert(key, || value, |v| *v = comb.apply(*v, value));
    }

    /// Bytes of the compacted image.
    fn packed_bytes(&self) -> u64 {
        let sizes = self.keys.iter().map(|(key, _)| combining::size(key.len()));
        sizes.sum::<usize>() as u64
    }

    /// The compacted entries, in first-eviction order, packed into page
    /// images of at most `page_size` bytes.
    fn pack(&self, page_size: usize) -> Vec<Vec<u8>> {
        let mut images = Vec::new();
        let mut page: Vec<u8> = Vec::with_capacity(page_size);
        for (key, value) in self.keys.iter() {
            let size = combining::size(key.len());
            if page.len() + size > page_size {
                images.push(std::mem::replace(&mut page, Vec::with_capacity(page_size)));
            }
            let entry_end = page.len() + size;
            page.extend_from_slice(&DevHandle::NULL.to_raw().to_le_bytes());
            page.extend_from_slice(&HostLink::NULL.to_raw().to_le_bytes());
            page.extend_from_slice(&value.to_le_bytes());
            page.extend_from_slice(&(key.len() as u64).to_le_bytes());
            page.extend_from_slice(key);
            page.resize(entry_end, 0);
        }
        if !page.is_empty() {
            images.push(page);
        }
        images
    }
}

impl SepoTable {
    /// Fold every host entry of this finalized combining table into one
    /// entry per key (see the [module docs](crate::compact)) and replace
    /// the host heap with the packed pages — when that removes anything:
    /// an image that already holds each key once, without tombstones, is
    /// left as it is (`Ok(None)`), as is any other organization's. A page
    /// that fails its stamp is refused by host id and nothing changes.
    pub fn compact_host(&self) -> Result<Option<CompactReport>, CorruptPage> {
        let Organization::Combining(comb) = self.cfg.organization else {
            return Ok(None);
        };
        let mut fold = HostFold::new(comb);
        fold.absorb(&self.host.pages())?;
        Ok(self.apply_fold(&fold))
    }

    /// Replace the host heap with `fold` packed into fresh pages, unless
    /// that would remove nothing.
    fn apply_fold(&self, fold: &HostFold) -> Option<CompactReport> {
        assert_eq!(
            fold.pages,
            self.host.len() as u64,
            "host compaction must see every host page"
        );
        let report = CompactReport {
            entries: fold.entries,
            keys: fold.keys.len() as u64,
            bytes_before: fold.bytes,
            bytes_after: fold.packed_bytes(),
        };
        if report.entries == report.keys && report.bytes_before == report.bytes_after {
            return None;
        }
        let images = fold.pack(self.cfg.page_size);
        let first = self.heap.reserve_host_ids(images.len() as u64);
        let pages: Vec<StampedPage> = (first..)
            .zip(images)
            .map(|(id, data)| StampedPage::stamp(id, PageKind::Mixed, data))
            .collect();
        self.host.restore(&pages);
        Some(report)
    }
}

/// The driver's side of compaction. Boundaries hand it the pages they
/// committed (after the boundary's checkpoint, so a rollback never
/// retracts them); from the second batch on it folds them on a pool worker
/// — chained, each task owning the fold the previous one returned — while
/// the next iteration's launches run on the calling thread.
pub(crate) struct Compactor {
    comb: Combiner,
    /// Host ids below this have been committed.
    next_id: u64,
    /// Commits that brought at least one page.
    batches: u32,
    /// Committed pages not yet handed to the fold. The first batch waits
    /// for a second: one eviction batch holds each key once, so a run that
    /// evicts once never folds at all.
    held: Vec<StampedPage>,
    fold: Option<Background<Result<HostFold, CorruptPage>>>,
}

impl Compactor {
    pub(crate) fn new(comb: Combiner) -> Self {
        Compactor {
            comb,
            next_id: 0,
            batches: 0,
            held: Vec::new(),
            fold: None,
        }
    }

    /// Take the pages that reached `host` since the last commit. Host ids
    /// rise with every page acquisition and a combining boundary evicts
    /// every page, so each batch's ids lie above every earlier batch's; a
    /// replayed boundary re-evicts under ids not yet committed.
    pub(crate) fn commit(&mut self, host: &HostHeap) {
        let pages = host.pages_from(self.next_id);
        let Some(last) = pages.last() else {
            return;
        };
        self.next_id = last.host_id() + 1;
        self.batches += 1;
        self.held.extend(pages);
        if self.batches >= 2 {
            let prev = self.fold.take();
            let comb = self.comb;
            let pages = std::mem::take(&mut self.held);
            self.fold = Some(WorkerPool::global().background(move || {
                let mut fold = prev.map_or_else(|| Ok(HostFold::new(comb)), Background::join)?;
                fold.absorb(&pages)?;
                Ok(fold)
            }));
        }
    }

    /// Commit the final flush, wait for the fold and compact the table;
    /// `Ok(None)` when the run evicted only once or nothing would shrink.
    pub(crate) fn finish(
        mut self,
        table: &SepoTable,
    ) -> Result<Option<CompactReport>, CorruptPage> {
        self.commit(table.host_heap());
        match self.fold.take() {
            Some(fold) => Ok(table.apply_fold(&fold.join()?)),
            None => Ok(None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TableConfig;
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

    #[test]
    fn the_driver_fold_matches_the_inline_fold_across_batches() {
        let a = table(Combiner::Add, 16);
        let b = table(Combiner::Add, 16);
        let pairs: Vec<(String, u64)> = (0..90).map(|i| (format!("k{}", i % 25), i)).collect();
        let pairs: Vec<(&str, u64)> = pairs.iter().map(|(k, v)| (k.as_str(), *v)).collect();
        let mut compactor = Compactor::new(Combiner::Add);
        for batch in pairs.chunks(20) {
            for t in [&a, &b] {
                partials(t, batch, batch.len());
            }
            compactor.commit(b.host_heap());
        }
        let inline = a.compact_host().unwrap();
        let driven = compactor.finish(&b).unwrap();
        assert!(inline.is_some());
        assert_eq!(inline, driven);
        assert_eq!(a.host_heap().pages(), b.host_heap().pages());
    }
}
