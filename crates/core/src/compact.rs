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
//!   [`Combiner`] into one entry, in first-eviction order;
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
//! exec mode, feature toggle, shard layout and kill + resume, however the
//! pages were batched. The driver's `Compactor` feeds the fold each
//! boundary's committed pages on a pool worker while the next iteration's
//! launches run — a multi-valued fold walks each boundary's chains across
//! that boundary's value pages only, which it holds by `Arc`, and copies
//! their values into one arena — so the end of the run pays only for the
//! last batches, the packing and the stamps; [`SepoTable::finalize`] and
//! [`SepoTable::load`] fold in line. Compaction charges no simulated time:
//! it is the CPU-side merge the collectors used to perform at read time,
//! moved earlier.

use crate::config::{Combiner, Organization};
use crate::entry::{combining, key_entry, key_lens, parse_at, value_node, EntryKind, ParsedEntry};
use crate::hash::KeyMap;
use crate::results::primary_entries;
use crate::table::SepoTable;
use gpu_sim::pool::{Background, WorkerPool};
use sepo_alloc::{CorruptPage, DevHandle, Heap, HostLink, PageKind, StampedPage, VerifiedPage};
use std::collections::{HashMap, HashSet};

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

/// The running fold of a table's host entries.
pub(crate) struct HostFold {
    pages: u64,
    entries: u64,
    bytes: u64,
    keys: Folded,
}

enum Folded {
    /// Each key's combined value, in first-eviction order.
    Combining(Combiner, KeyMap<u64>),
    Grouped(Box<Groups>),
}

impl HostFold {
    /// An empty fold for a combining or multi-valued table (a basic
    /// table's duplicates are data: nothing compacts it).
    fn new(org: Organization) -> Self {
        let keys = match org {
            Organization::Combining(comb) => Folded::Combining(comb, KeyMap::default()),
            Organization::MultiValued => Folded::Grouped(Box::default()),
            Organization::Basic => unreachable!("a basic table is never compacted"),
        };
        HostFold {
            pages: 0,
            entries: 0,
            bytes: 0,
            keys,
        }
    }

    /// Fold `pages` — the host pages one or more boundaries stored —
    /// into the running result, refusing the first that fails its stamp.
    /// A combining table's pages arrive in host-id order (every boundary
    /// evicts every page); a multi-valued table's may come in any order,
    /// and `kept` holds the host continuations of the key entries still on
    /// the device after the last of those boundaries.
    pub(crate) fn absorb(
        &mut self,
        pages: &[StampedPage],
        kept: &[HostLink],
    ) -> Result<(), CorruptPage> {
        let pages = pages
            .iter()
            .map(StampedPage::verify)
            .collect::<Result<Vec<_>, _>>()?;
        self.pages += pages.len() as u64;
        self.bytes += pages.iter().map(|p| p.bytes().len() as u64).sum::<u64>();
        match &mut self.keys {
            Folded::Combining(comb, keys) => {
                let (comb, org) = (*comb, Organization::Combining(*comb));
                for page in &pages {
                    for (_, e) in primary_entries(org, page) {
                        if let ParsedEntry::Combining { key, value } = e {
                            self.entries += 1;
                            keys.upsert(key, || value, |v| *v = comb.apply(*v, value));
                        }
                    }
                }
            }
            Folded::Grouped(groups) => self.entries += groups.absorb(pages, kept)?,
        }
        Ok(())
    }

    fn report(&self) -> CompactReport {
        let (keys, bytes_after) = match &self.keys {
            Folded::Combining(_, keys) => {
                let sizes = keys.iter().map(|(key, _)| combining::size(key.len()));
                (keys.len(), sizes.sum::<usize>())
            }
            Folded::Grouped(groups) => (groups.keys.len(), groups.packed_bytes as usize),
        };
        CompactReport {
            entries: self.entries,
            keys: keys as u64,
            bytes_before: self.bytes,
            bytes_after: bytes_after as u64,
        }
    }

    /// The compacted entries packed into stamped pages of at most
    /// `page_size` bytes, under host ids `heap` reserves.
    fn pack(self, page_size: usize, heap: &Heap) -> Vec<StampedPage> {
        match self.keys {
            Folded::Combining(_, keys) => {
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

/// A multi-valued table's key entries, folded batch by batch.
///
/// A chain is prepend-only, so it runs from its newest batch back through
/// older ones, and value pages leave at the boundary that filled them. A
/// batch's chains are therefore walked only across the batch's own value
/// pages, each cut where it leaves them into a *segment*: its values,
/// copied into one arena, and its exit link. A chain enters older batches
/// only from a key entry that stayed on the device (a kept key page), and
/// every such entry's segment is cut at each boundary it sits through,
/// under the entry's host continuation at that boundary — which is where
/// the next boundary's segment of the same chain exits. A key entry's
/// chain is then a list of segments.
#[derive(Default)]
struct Groups {
    /// Every value page absorbed, shared with the host heap, and its
    /// `(host id, index)` sorted by host id.
    pages: Vec<VerifiedPage>,
    by_id: Vec<(u64, u32)>,
    segments: Vec<Segment>,
    /// The segments of kept key entries' chains, by the link they start at.
    heads: HashMap<u64, u32>,
    /// Segment values: bytes, and each value's `(offset, length)` in them.
    bytes: Vec<u8>,
    values: Vec<(u32, u32)>,
    /// Every key, in arrival order (not the collectors' order: a kept key
    /// page reaches the host boundaries after pages with higher ids).
    keys: KeyMap<()>,
    /// Every key entry absorbed.
    entries: Vec<KeyRun>,
    /// Each entry's chain as segment ids, entry after entry.
    chains: Vec<u32>,
    /// Bytes of the compacted image: every key's entry and every chain's
    /// nodes.
    packed_bytes: u64,
}

const NONE: u32 = u32::MAX;

/// A chain's run inside one batch: [`Groups::values`] `start..end`, newest
/// first, the bytes their nodes take, and the link its last node continues
/// to.
#[derive(Clone, Copy)]
struct Segment {
    start: u32,
    end: u32,
    bytes: u64,
    exit: HostLink,
}

/// One absorbed key entry: its host link (the collectors' order), its
/// key's id in [`Groups::keys`], and its chain, newest first, as the
/// segments [`Groups::chains`] `start..end`.
#[derive(Clone, Copy)]
struct KeyRun {
    at: HostLink,
    key: u32,
    start: u32,
    end: u32,
}

impl Groups {
    /// Absorb one batch of verified pages — with `kept`, the host
    /// continuations of the key entries still on the device — and return
    /// the key entries it held.
    fn absorb(&mut self, pages: Vec<VerifiedPage>, kept: &[HostLink]) -> Result<u64, CorruptPage> {
        let (key_pages, value_pages): (Vec<_>, Vec<_>) =
            pages.into_iter().partition(|p| p.kind() == PageKind::Key);
        let first = self.pages.len() as u32;
        for page in value_pages {
            self.by_id.push((page.host_id(), self.pages.len() as u32));
            self.pages.push(page);
        }
        // Value pages leave at the boundary that filled them, so batches
        // arrive in host-id order and this sort finds one run.
        self.by_id.sort_unstable();

        let mut held = 0;
        for page in &key_pages {
            for (at, e) in primary_entries(Organization::MultiValued, page) {
                if let ParsedEntry::Key {
                    key,
                    value_host_cont,
                } = e
                {
                    self.add_entry(at, key, HostLink::from_raw(value_host_cont), first)?;
                    held += 1;
                }
            }
        }
        for &cont in kept {
            if let Some(seg) = self.cut(cont, first)? {
                self.heads.insert(cont.to_raw(), seg);
            }
        }
        Ok(held)
    }

    /// Record the key entry at `at`, whose chain starts at `cont`.
    fn add_entry(
        &mut self,
        at: HostLink,
        key: &[u8],
        cont: HostLink,
        first: u32,
    ) -> Result<(), CorruptPage> {
        let start = self.chains.len() as u32;
        let mut link = cont;
        if let Some(seg) = self.cut(link, first)? {
            self.add_segment(seg);
            link = self.segments[seg as usize].exit;
        }
        // Older batches hold the chain only past a kept entry's segment
        // head; any other link is walked node by node, as the collectors
        // walk it.
        while !link.is_null() {
            let seg = match self.heads.get(&link.to_raw()) {
                Some(&seg) => seg,
                None => self.walk(link, 0)?,
            };
            self.add_segment(seg);
            link = self.segments[seg as usize].exit;
        }
        let id = self.keys.upsert(key, || (), |_| ());
        if id + 1 == self.keys.len() {
            self.packed_bytes += key_entry::size(key.len()) as u64;
        }
        self.entries.push(KeyRun {
            at,
            key: id as u32,
            start,
            end: self.chains.len() as u32,
        });
        Ok(())
    }

    fn add_segment(&mut self, seg: u32) {
        self.chains.push(seg);
        self.packed_bytes += self.segments[seg as usize].bytes;
    }

    /// Cut the run of the chain from `link` that lies on value pages
    /// `first..` into a new segment; `None` when `link` is null or on an
    /// older page.
    fn cut(&mut self, link: HostLink, first: u32) -> Result<Option<u32>, CorruptPage> {
        if link.is_null() {
            return Ok(None);
        }
        let host_id = link.host_page();
        match self.page_of(link).ok_or(CorruptPage { host_id })? {
            page if page < first => Ok(None),
            _ => self.walk(link, first).map(Some),
        }
    }

    /// Copy the chain from `link`, node by node, into a new segment that
    /// ends where the chain leaves value pages `first..` (or ends), and
    /// return its id. A link to a page the fold has not seen is refused by
    /// host id.
    fn walk(&mut self, mut link: HostLink, first: u32) -> Result<u32, CorruptPage> {
        let (start, mut bytes) = (self.values.len() as u32, 0);
        // A chain's nodes mostly share pages with their neighbours.
        let mut last = None;
        while !link.is_null() {
            let host_id = link.host_page();
            let page = match last {
                Some((id, page)) if id == host_id => page,
                _ => {
                    let page = self.page_of(link).ok_or(CorruptPage { host_id })?;
                    last.insert((host_id, page)).1
                }
            };
            if page < first {
                break;
            }
            let Some((Some(ParsedEntry::Value { value, next_host }), _)) = parse_at(
                self.pages[page as usize].bytes(),
                link.offset() as usize,
                EntryKind::Value,
            ) else {
                link = HostLink::NULL;
                break;
            };
            bytes += value_node::size(value.len()) as u64;
            self.values
                .push((self.bytes.len() as u32, value.len() as u32));
            self.bytes.extend_from_slice(value);
            link = HostLink::from_raw(next_host);
        }
        let end = self.values.len() as u32;
        self.segments.push(Segment {
            start,
            end,
            bytes,
            exit: link,
        });
        Ok(self.segments.len() as u32 - 1)
    }

    /// Index of the absorbed value page `link` lands on.
    fn page_of(&self, link: HostLink) -> Option<u32> {
        let host_id = link.host_page();
        let at = self.by_id.binary_search_by_key(&host_id, |&(id, _)| id);
        at.ok().map(|i| self.by_id[i].1)
    }

    /// One key entry per key, in the order of each key's first entry by
    /// host link, on key pages after the value pages that hold its chain:
    /// the old entries' chains one after another in host-link order.
    fn pack(mut self, page_size: usize, heap: &Heap) -> Vec<StampedPage> {
        // Batches arrive mostly in host-link order: a stable sort merges
        // their runs.
        self.entries.sort_by_key(|e| e.at);
        // Each key's entries as a list through `prev`, in host-link order,
        // and the keys in the order of their first entries.
        let mut last = vec![NONE; self.keys.len()];
        let mut prev = vec![NONE; self.entries.len()];
        let mut order = Vec::with_capacity(self.keys.len());
        for (i, e) in self.entries.iter().enumerate() {
            let key = e.key as usize;
            match last[key] {
                NONE => order.push(e.key),
                before => prev[i] = before,
            }
            last[key] = i as u32;
        }

        // A chain is written oldest value first, so each node links to the
        // one written before it and the key entry to the last one.
        let next_id = || heap.reserve_host_ids(1);
        let mut value_pages = Packer::new(PageKind::Value, page_size, next_id);
        let mut heads = Vec::with_capacity(order.len());
        for &key in &order {
            let mut next = HostLink::NULL;
            let mut entry = last[key as usize];
            while entry != NONE {
                let run = self.entries[entry as usize];
                for &seg in self.chains[run.start as usize..run.end as usize]
                    .iter()
                    .rev()
                {
                    let seg = self.segments[seg as usize];
                    let values = &self.values[seg.start as usize..seg.end as usize];
                    for &(at, len) in values.iter().rev() {
                        let value = &self.bytes[at as usize..(at + len) as usize];
                        let words = [NULL_DEV, next.to_raw(), u64::from(len)];
                        next = value_pages.put(&words, value, value_node::size(value.len()));
                    }
                }
                entry = prev[entry as usize];
            }
            heads.push(next);
        }
        let mut key_pages = Packer::new(PageKind::Key, page_size, next_id);
        for (&key, cont) in order.iter().zip(heads) {
            let key = self.keys.key(key as usize);
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
    /// The host continuations of the multi-valued key entries on resident
    /// key pages — the chains that reach the host heap from the device.
    /// Quiescent callers only.
    fn kept_conts(&self) -> Vec<HostLink> {
        let mut conts = Vec::new();
        for p in self.heap.resident_pages() {
            if self.heap.page_kind(p) == PageKind::Key {
                self.for_each_key_entry(p, |k| {
                    let cont =
                        HostLink::from_raw(self.heap.read_u64(k, key_entry::VALUE_HOST_CONT));
                    if !cont.is_null() {
                        conts.push(cont);
                    }
                });
            }
        }
        conts
    }

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
        let mut fold = HostFold::new(self.cfg.organization);
        fold.absorb(&self.host.pages(), &[])?;
        Ok(self.apply_fold(fold))
    }

    /// Replace the host heap with `fold` packed into fresh pages, unless
    /// that would remove nothing.
    fn apply_fold(&self, fold: HostFold) -> Option<CompactReport> {
        assert_eq!(
            fold.pages,
            self.host.len() as u64,
            "host compaction must see every host page"
        );
        let report = fold.report();
        if report.entries == report.keys && report.bytes_before == report.bytes_after {
            return None;
        }
        let pages = fold.pack(self.cfg.page_size, &self.heap);
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
    org: Organization,
    /// Host ids committed so far.
    seen: HashSet<u64>,
    /// Commits that brought at least one page.
    batches: u32,
    /// Committed pages not yet handed to the fold, and the host
    /// continuations of the key entries kept on the device at the last
    /// commit. The first batch waits for a second: one eviction batch holds
    /// each key once, so a run that evicts once never folds at all.
    held: Vec<StampedPage>,
    kept: Vec<HostLink>,
    fold: Option<Background<Result<HostFold, CorruptPage>>>,
}

impl Compactor {
    /// A compactor for a combining or multi-valued table; `None` for a
    /// basic one.
    pub(crate) fn new(org: Organization) -> Option<Self> {
        (org != Organization::Basic).then(|| Compactor {
            org,
            seen: HashSet::new(),
            batches: 0,
            held: Vec::new(),
            kept: Vec::new(),
            fold: None,
        })
    }

    /// Take the pages that reached `table`'s host heap since the last
    /// commit, and the host continuations of the key entries its device
    /// still holds. Host ids rise with every page acquisition, but a kept
    /// multi-valued key page is evicted boundaries after it took its id —
    /// below pages already committed — so the compactor remembers every id
    /// it took instead of a watermark. A replayed boundary re-evicts under
    /// ids not yet committed.
    pub(crate) fn commit(&mut self, table: &SepoTable) {
        let mut pages = table.host_heap().pages();
        pages.retain(|p| self.seen.insert(p.host_id()));
        if pages.is_empty() {
            return;
        }
        self.batches += 1;
        self.held.extend(pages);
        self.kept = table.kept_conts();
        if self.batches >= 2 {
            let prev = self.fold.take();
            let org = self.org;
            let (pages, kept) = (
                std::mem::take(&mut self.held),
                std::mem::take(&mut self.kept),
            );
            self.fold = Some(WorkerPool::global().background(move || {
                let mut fold = prev.map_or_else(|| Ok(HostFold::new(org)), Background::join)?;
                fold.absorb(&pages, &kept)?;
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
        self.commit(table);
        let Some(fold) = self.fold.take() else {
            return Ok(None);
        };
        let fold = fold.join()?;
        Ok(table.apply_fold(fold))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::TableAudit;
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
        let mut compactor = Compactor::new(Organization::Combining(Combiner::Add)).unwrap();
        for batch in pairs.chunks(20) {
            for t in [&a, &b] {
                partials(t, batch, batch.len());
            }
            compactor.commit(&b);
        }
        let inline = a.compact_host().unwrap();
        let driven = compactor.finish(&b).unwrap();
        assert!(inline.is_some());
        assert_eq!(inline, driven);
        assert_eq!(a.host_heap().pages(), b.host_heap().pages());
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
    fn a_kept_key_page_committed_after_higher_ids_folds_like_the_inline_fold() {
        let (a, b) = (grouped_table(8), grouped_table(8));
        let mut compactor = Compactor::new(Organization::MultiValued).unwrap();
        // Three rounds of more values than the heap holds keep the sticky
        // key page on the device across three boundaries, so its chain
        // reaches the host in a segment per fold.
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
            for t in [&a, &b] {
                let stored = insert_grouped(t, batch);
                let postpones = stored.len() < batch.len();
                assert_eq!(postpones, i < 3, "only the sticky rounds postpone");
                if postpones && std::ptr::eq(t, &b) {
                    kept_values.push(stored);
                }
                t.end_iteration();
            }
            if i < 3 {
                // The pending sticky key page stays, under a lower id than
                // the value pages committed now; a later boundary commits
                // it.
                let kept = b.heap().resident_pages();
                assert_eq!(kept.len(), 1);
                let newest = b.host_heap().pages().last().unwrap().host_id();
                assert!(b.heap().host_id(kept[0]) < newest);
            }
            compactor.commit(&b);
        }
        a.finalize();
        b.evict_boundary(&mut NoCharge, true, None);
        let driven = compactor.finish(&b).unwrap();
        assert_eq!(a.host_heap().pages(), b.host_heap().pages());
        let report = driven.expect("sticky, k1 and k2 each own two entries");
        assert_eq!((report.entries, report.keys), (6, 3));
        // The kept entry's chain (newest first), then the later entry's.
        let mut sticky = vec!["late"];
        sticky.extend(kept_values.iter().rev().flat_map(|vs| vs.iter().rev()));
        sticky.push("later");
        let mut got = strings(&b.collect_multivalued());
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
        TableAudit::begin(&b).check_compacted(&b).unwrap();
    }
}
