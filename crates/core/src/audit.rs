//! Cross-layer invariant audit.
//!
//! The SEPO stack spreads one logical fact — "which bytes live where" —
//! across four layers: the driver's done-bitmap, the table's bucket
//! structure, the page heap's accounting, and the host heap of evicted
//! images. Each layer is tested in isolation; [`TableAudit`] checks that
//! they *agree with each other* at the only moments agreement is defined:
//! iteration boundaries, where the driver guarantees quiescence.
//!
//! Checks performed between iterations:
//!
//! * **bitmap vs. driver** — the done-bitmap's set-bit count equals the
//!   number of tasks the driver no longer considers pending (and never
//!   exceeds the bitmap length; see [`crate::bitmap::Bitmap::count_set`]).
//! * **heap page accounting** — free pages plus resident pages equal the
//!   pool size; no resident page's bump head exceeds the page size; every
//!   resident page carries a distinct host id.
//! * **eviction byte conservation** — bytes evicted plus bytes kept equal
//!   the bytes resident before the eviction, and exactly the kept bytes
//!   remain resident afterwards.
//! * **host-heap growth** — the CPU-side store gains exactly one page and
//!   exactly `evicted_bytes` bytes per evicted page (host ids are unique
//!   per acquisition, so nothing is silently replaced). Eviction stores
//!   every page before it returns, so the books balance exactly at every
//!   boundary.
//! * **key tags** — every live combining or key entry still on the device
//!   (the multi-valued key pages a boundary keeps) carries its key's tag
//!   in its length word ([`key_lens`]); an entry without it is invisible to
//!   every chain walk, and its key would be stored twice.
//!
//! After host compaction ([`crate::compact`]), which follows the final
//! eviction's check, [`TableAudit::check_compacted`] checks the
//! one-entry-per-key image itself, combining or multi-valued, key tags
//! included: device-written pages and compaction-packed pages alike.
//!
//! A violation is a *bug*, not an environmental condition, so the driver
//! panics on one; [`TableAudit`] itself reports
//! [`AuditViolation`] values so tests can assert on specific checks.

use crate::bitmap::Bitmap;
use crate::config::Organization;
use crate::entry::{combining, key_lens, parse_at, EntryKind, PageWalker, ParsedEntry};
use crate::evict::EvictReport;
use crate::table::SepoTable;
use sepo_alloc::{HostLink, PageKind, StampedPage, VerifiedPage, ALIGN};
use std::collections::HashSet;
use std::fmt;

/// One failed invariant: which check, and the numbers that broke it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditViolation {
    /// Name of the failed check (stable, test-friendly).
    pub check: &'static str,
    /// Human-readable detail with the observed values.
    pub detail: String,
}

impl fmt::Display for AuditViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invariant '{}' violated: {}", self.check, self.detail)
    }
}

impl std::error::Error for AuditViolation {}

macro_rules! ensure {
    ($cond:expr, $check:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err(AuditViolation {
                check: $check,
                detail: format!($($fmt)+),
            });
        }
    };
}

/// Cross-layer invariant checker for one SEPO run.
///
/// Construct with [`TableAudit::begin`] before the first iteration (it
/// baselines the host heap so pre-existing pages — e.g. a restored image —
/// are not misattributed to this run's evictions), then call
/// [`TableAudit::check_iteration`] after every iteration-boundary eviction
/// and [`TableAudit::check_final`] after `finalize()`.
#[derive(Debug)]
pub struct TableAudit {
    host_pages_baseline: usize,
    host_bytes_baseline: u64,
    cum_evicted_pages: usize,
    cum_evicted_bytes: u64,
    iterations_checked: u64,
}

impl TableAudit {
    /// Start auditing `table`, baselining its host heap.
    pub fn begin(table: &SepoTable) -> Self {
        TableAudit {
            host_pages_baseline: table.host_heap().len(),
            host_bytes_baseline: table.host_heap().total_bytes(),
            cum_evicted_pages: 0,
            cum_evicted_bytes: 0,
            iterations_checked: 0,
        }
    }

    /// Iteration boundaries successfully checked so far.
    pub fn iterations_checked(&self) -> u64 {
        self.iterations_checked
    }

    /// Structural checks valid at any quiescent point: heap page
    /// accounting, host-id uniqueness, and the key tags of the resident
    /// combining and key entries.
    pub fn check_structure(&self, table: &SepoTable) -> Result<(), AuditViolation> {
        let heap = table.heap();
        let resident = heap.resident_pages();
        let free = heap.free_pages();
        let total = heap.total_pages();
        ensure!(
            free + resident.len() == total,
            "heap-page-accounting",
            "free ({free}) + resident ({}) != total ({total})",
            resident.len()
        );
        let page_size = heap.page_size();
        let mut ids = HashSet::with_capacity(resident.len());
        for &p in &resident {
            let used = heap.page_used(p);
            ensure!(
                used <= page_size,
                "page-bump-bound",
                "page {p} reports {used} used bytes on a {page_size}-byte page"
            );
            let id = heap.host_id(p);
            ensure!(
                ids.insert(id),
                "host-id-uniqueness",
                "host id {id} stamped on two resident pages"
            );
        }
        let org = table.config().organization;
        if org != Organization::Basic {
            let (primary, primary_page) = org.primary_layout();
            for &p in &resident {
                if heap.page_kind(p) != primary_page {
                    continue;
                }
                let bytes = heap.page_bytes(p);
                for (off, entry) in PageWalker::new(bytes, primary) {
                    let key = entry.key().expect("primary entries carry keys");
                    ensure!(
                        carries_tag(bytes, off, primary, key),
                        "resident-key-tags",
                        "the entry of key {:?} at resident page {p} (host id {}) offset {off} \
                         lacks its key tag",
                        String::from_utf8_lossy(key),
                        heap.host_id(p)
                    );
                }
            }
        }
        Ok(())
    }

    /// Full between-iterations check.
    ///
    /// * `done` / `pending_after` — the driver's bitmap and the pending set
    ///   it derived from it;
    /// * `used_before_evict` — `heap().stats().used_bytes` captured
    ///   immediately before `end_iteration()`;
    /// * `evict` — that eviction's report.
    pub fn check_iteration(
        &mut self,
        table: &SepoTable,
        done: &Bitmap,
        pending_after: usize,
        used_before_evict: u64,
        evict: &EvictReport,
    ) -> Result<(), AuditViolation> {
        let set = done.count_set();
        ensure!(
            set <= done.len(),
            "bitmap-bound",
            "{set} bits set in a bitmap of {} bits",
            done.len()
        );
        ensure!(
            set + pending_after == done.len(),
            "bitmap-vs-pending",
            "{set} done bits + {pending_after} pending tasks != {} tasks",
            done.len()
        );
        self.check_eviction(table, used_before_evict, evict)?;
        self.iterations_checked += 1;
        Ok(())
    }

    /// Check the run-ending `finalize()` eviction (no bitmap check: the
    /// run may have stopped at the iteration cap with tasks pending).
    pub fn check_final(
        &mut self,
        table: &SepoTable,
        used_before_evict: u64,
        evict: &EvictReport,
    ) -> Result<(), AuditViolation> {
        self.check_eviction(table, used_before_evict, evict)
    }

    fn check_eviction(
        &mut self,
        table: &SepoTable,
        used_before_evict: u64,
        evict: &EvictReport,
    ) -> Result<(), AuditViolation> {
        ensure!(
            evict.evicted_bytes + evict.kept_bytes == used_before_evict,
            "eviction-byte-conservation",
            "evicted ({}) + kept ({}) != resident before eviction ({used_before_evict})",
            evict.evicted_bytes,
            evict.kept_bytes
        );
        let used_after = table.heap().stats().used_bytes;
        ensure!(
            used_after == evict.kept_bytes,
            "post-eviction-residency",
            "{used_after} bytes resident after eviction, but the report kept {}",
            evict.kept_bytes
        );
        self.cum_evicted_pages += evict.evicted_pages;
        self.cum_evicted_bytes += evict.evicted_bytes;
        let host_pages = table.host_heap().len() - self.host_pages_baseline;
        ensure!(
            host_pages == self.cum_evicted_pages,
            "host-heap-page-growth",
            "host heap grew by {host_pages} pages, but {} were evicted",
            self.cum_evicted_pages
        );
        let host_bytes = table.host_heap().total_bytes() - self.host_bytes_baseline;
        ensure!(
            host_bytes == self.cum_evicted_bytes,
            "host-heap-byte-growth",
            "host heap grew by {host_bytes} bytes, but {} were evicted",
            self.cum_evicted_bytes
        );
        self.check_structure(table)
    }

    /// Check a host image after compaction ([`crate::compact`]): every
    /// page is of the organization's kinds, no key has two entries, every
    /// entry carries its key's tag, no region of any page is a tombstone,
    /// and the host bytes are exactly the entries' sizes. A multi-valued
    /// image must also reach every value node through exactly one key's
    /// chain. A basic table is never compacted; its image passes as it is.
    pub fn check_compacted(&self, table: &SepoTable) -> Result<(), AuditViolation> {
        let org = table.config().organization;
        if org == Organization::Basic {
            return Ok(());
        }
        let pages = table.host_heap().pages();
        let pages = pages.iter().map(StampedPage::verify);
        let pages = pages
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| AuditViolation {
                check: "compacted-page-stamp",
                detail: e.to_string(),
            })?;
        let (primary, primary_page) = org.primary_layout();
        // Every primary entry takes at least a combining entry's header.
        let primary_bytes: usize = pages
            .iter()
            .filter(|p| p.kind() == primary_page)
            .map(|p| p.bytes().len())
            .sum();
        let mut keys = HashSet::with_capacity(primary_bytes / combining::HEADER);
        let mut heads = Vec::new();
        // Value pages in host-id order, with a mark per 8-byte slot that a
        // reached node covers.
        let mut values: Vec<(&VerifiedPage, Vec<bool>)> = Vec::new();
        let (mut key_bytes, mut entry_bytes, mut value_bytes) = (0u64, 0u64, 0u64);
        for page in &pages {
            match page.kind() {
                k if k == primary_page => {}
                PageKind::Value if org == Organization::MultiValued => {
                    value_bytes += page.bytes().len() as u64;
                    values.push((page, vec![false; page.bytes().len() / ALIGN]));
                    continue;
                }
                k => {
                    return Err(AuditViolation {
                        check: "compacted-page-kind",
                        detail: format!("host page {} is a {k:?} page", page.host_id()),
                    })
                }
            }
            let bytes = page.bytes();
            key_bytes += bytes.len() as u64;
            let mut off = 0;
            while let Some((entry, next)) = parse_at(bytes, off, primary) {
                let Some(entry) = entry else {
                    return Err(tombstone(page, off));
                };
                let key = entry.key().expect("primary entries carry keys");
                ensure!(
                    keys.insert(key),
                    "compacted-one-entry-per-key",
                    "key {:?} has a second entry on host page {}",
                    String::from_utf8_lossy(key),
                    page.host_id()
                );
                ensure!(
                    carries_tag(bytes, off, primary, key),
                    "compacted-key-tags",
                    "the entry of key {:?} at host page {} offset {off} lacks its key tag",
                    String::from_utf8_lossy(key),
                    page.host_id()
                );
                if let ParsedEntry::Key { value_head, .. } = entry {
                    heads.push((page.host_id(), off, value_head));
                }
                entry_bytes += (next - off) as u64;
                off = next;
            }
        }
        ensure!(
            key_bytes == entry_bytes,
            "compacted-byte-count",
            "host pages hold {key_bytes} bytes, but their {} entries take {entry_bytes}",
            keys.len()
        );
        // Walk every chain, marking the slots each node covers: a node
        // reached twice, or a link to no node, meets a mark or no node.
        let mut last = None;
        for (host_id, off, mut link) in heads {
            let unreached = |link: HostLink| AuditViolation {
                check: "compacted-chains-reach-each-value-once",
                detail: format!(
                    "the chain of the key entry at host page {host_id} offset {off} reaches \
                     host page {} offset {}, where no unreached value node starts",
                    link.host_page(),
                    link.offset()
                ),
            };
            while !link.is_null() {
                let id = link.host_page();
                let page = match last {
                    Some((last_id, i)) if last_id == id => Some(i),
                    _ => values.binary_search_by_key(&id, |(p, _)| p.host_id()).ok(),
                };
                let Some(i) = page else {
                    return Err(unreached(link));
                };
                last = Some((id, i));
                let (page, marks) = &mut values[i];
                let at = link.offset() as usize;
                let Some((entry, end)) = parse_at(page.bytes(), at, EntryKind::Value) else {
                    return Err(unreached(link));
                };
                let Some(ParsedEntry::Value { next, .. }) = entry else {
                    return Err(tombstone(page, at));
                };
                match marks.get_mut(at / ALIGN..end.div_ceil(ALIGN)) {
                    Some(m) if at.is_multiple_of(ALIGN) && !m.contains(&true) => m.fill(true),
                    _ => return Err(unreached(link)),
                }
                entry_bytes += (end - at) as u64;
                link = next;
            }
        }
        if entry_bytes == key_bytes + value_bytes {
            return Ok(());
        }
        // Some value bytes no chain reached: name the first such node.
        for (page, marks) in &values {
            let mut off = 0;
            while let Some((entry, next)) = parse_at(page.bytes(), off, EntryKind::Value) {
                if entry.is_none() {
                    return Err(tombstone(page, off));
                }
                ensure!(
                    marks[off / ALIGN],
                    "compacted-no-orphan-values",
                    "no key's chain reaches the value node at host page {} offset {off}",
                    page.host_id()
                );
                off = next;
            }
        }
        Err(AuditViolation {
            check: "compacted-byte-count",
            detail: format!(
                "host pages hold {} bytes, but their entries take {entry_bytes}",
                key_bytes + value_bytes
            ),
        })
    }
}

/// Whether the `kind` entry at `off` of `bytes`, holding `key`, carries
/// its key's tagged length word ([`key_lens`]).
fn carries_tag(bytes: &[u8], off: usize, kind: EntryKind, key: &[u8]) -> bool {
    let at = off + kind.key_fields().0 as usize;
    bytes.get(at..at + 8) == Some(&key_lens(key).to_le_bytes()[..])
}

fn tombstone(page: &VerifiedPage, off: usize) -> AuditViolation {
    AuditViolation {
        check: "compacted-no-tombstones",
        detail: format!(
            "host page {} holds a tombstone at offset {off}",
            page.host_id()
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Combiner, Organization, TableConfig};
    use gpu_sim::charge::NoCharge;
    use gpu_sim::metrics::Metrics;
    use sepo_alloc::{PageKind, StampedPage};
    use std::sync::Arc;

    fn table(org: Organization, pages: usize) -> SepoTable {
        let cfg = TableConfig::new(org)
            .with_buckets(64)
            .with_buckets_per_group(16)
            .with_page_size(1024);
        SepoTable::new(cfg, (pages * 1024) as u64, Arc::new(Metrics::new()))
    }

    #[test]
    fn clean_iteration_passes_every_check() {
        let t = table(Organization::Combining(Combiner::Add), 8);
        let mut audit = TableAudit::begin(&t);
        let mut c = NoCharge;
        for i in 0..40 {
            assert!(t
                .insert_combining(format!("k{i}").as_bytes(), 1, &mut c)
                .is_success());
        }
        let done = Bitmap::new(40);
        for i in 0..40 {
            done.set(i);
        }
        let used_before = t.heap().stats().used_bytes;
        assert!(used_before > 0);
        let evict = t.end_iteration();
        audit
            .check_iteration(&t, &done, 0, used_before, &evict)
            .unwrap();
        assert_eq!(audit.iterations_checked(), 1);
        let used = t.heap().stats().used_bytes;
        let fin = t.finalize();
        audit.check_final(&t, used, &fin).unwrap();
    }

    #[test]
    fn bitmap_pending_mismatch_is_reported() {
        let t = table(Organization::Combining(Combiner::Add), 8);
        let mut audit = TableAudit::begin(&t);
        let done = Bitmap::new(10);
        done.set(0);
        // 1 done + 5 pending != 10 tasks.
        let evict = EvictReport::default();
        let v = audit.check_iteration(&t, &done, 5, 0, &evict).unwrap_err();
        assert_eq!(v.check, "bitmap-vs-pending");
        assert_eq!(audit.iterations_checked(), 0);
    }

    #[test]
    fn conservation_mismatch_is_reported() {
        let t = table(Organization::Combining(Combiner::Add), 8);
        let mut audit = TableAudit::begin(&t);
        let done = Bitmap::new(4);
        for i in 0..4 {
            done.set(i);
        }
        // Claim 100 bytes were resident, but report nothing moved or kept.
        let evict = EvictReport::default();
        let v = audit
            .check_iteration(&t, &done, 0, 100, &evict)
            .unwrap_err();
        assert_eq!(v.check, "eviction-byte-conservation");
        assert!(v.to_string().contains("eviction-byte-conservation"));
    }

    #[test]
    fn host_growth_mismatch_is_reported() {
        let t = table(Organization::Combining(Combiner::Add), 8);
        let mut audit = TableAudit::begin(&t);
        // Stuff a page into the host heap behind the audit's back.
        let page = StampedPage::stamp(999, PageKind::Mixed, vec![0u8; 16]);
        t.host_heap().store(page);
        let done = Bitmap::new(0);
        let v = audit
            .check_iteration(&t, &done, 0, 0, &EvictReport::default())
            .unwrap_err();
        assert_eq!(v.check, "host-heap-page-growth");
    }

    #[test]
    fn baseline_tolerates_preexisting_host_pages() {
        let t = table(Organization::Combining(Combiner::Add), 8);
        // A restored image present *before* the audit begins is fine.
        t.host_heap()
            .store(StampedPage::stamp(7, PageKind::Mixed, vec![1u8; 8]));
        let mut audit = TableAudit::begin(&t);
        let done = Bitmap::new(0);
        audit
            .check_iteration(&t, &done, 0, 0, &EvictReport::default())
            .unwrap();
    }

    /// Evict `k` under two iterations, so the host holds two entries for it.
    fn two_partials(t: &SepoTable) {
        for _ in 0..2 {
            assert!(t.insert_combining(b"k", 1, &mut NoCharge).is_success());
            t.end_iteration();
        }
    }

    #[test]
    fn compacted_image_passes_and_partials_or_tombstones_do_not() {
        let audit = TableAudit::begin(&table(Organization::Combining(Combiner::Add), 8));
        let t = table(Organization::Combining(Combiner::Add), 8);
        two_partials(&t);
        let v = audit.check_compacted(&t).unwrap_err();
        assert_eq!(v.check, "compacted-one-entry-per-key");
        assert!(t.compact_host().unwrap().is_some());
        audit.check_compacted(&t).unwrap();

        // A lone tombstoned region: right size, dead entry.
        let mut page = vec![0xFFu8; crate::entry::combining::VALUE as usize];
        page.extend_from_slice(&0u64.to_le_bytes());
        page.extend_from_slice(&(1u64 | crate::entry::TOMBSTONE).to_le_bytes());
        page.extend_from_slice(&[b'x', 0, 0, 0, 0, 0, 0, 0]);
        let dead = table(Organization::Combining(Combiner::Add), 8);
        dead.host_heap()
            .store(StampedPage::stamp(3, PageKind::Mixed, page));
        let v = audit.check_compacted(&dead).unwrap_err();
        assert_eq!(v.check, "compacted-no-tombstones");
    }

    /// A multi-valued table whose key page the boundary kept on the
    /// device: one key, its value page filled until a value postponed.
    fn kept_key_page() -> (SepoTable, u32) {
        let t = table(Organization::MultiValued, 2);
        assert!(t
            .insert_multivalued(b"key", b"v0", &mut NoCharge)
            .is_success());
        for i in 0..60 {
            let v = format!("value-{i:03}-padding-padding");
            if !t
                .insert_multivalued(b"key", v.as_bytes(), &mut NoCharge)
                .is_success()
            {
                break;
            }
        }
        assert!(t.end_iteration().kept_pages > 0, "pending key page kept");
        let kept = t.heap().resident_pages();
        let page = kept
            .into_iter()
            .find(|&p| t.heap().page_kind(p) == PageKind::Key);
        (t, page.expect("a resident key page"))
    }

    #[test]
    fn an_entry_without_its_key_tag_fails_the_audit() {
        let audit = TableAudit::begin(&table(Organization::Combining(Combiner::Add), 8));
        // One eviction: the host image is the device-written pages as they
        // left the device.
        let t = table(Organization::Combining(Combiner::Add), 8);
        for i in 0..10 {
            let key = format!("key-{i}");
            assert!(t
                .insert_combining(key.as_bytes(), 1, &mut NoCharge)
                .is_success());
        }
        t.finalize();
        assert_eq!(audit.check_compacted(&t).map_err(|v| v.check), Ok(()));
        mutate(&t, PageKind::Mixed, |b| {
            b[combining::KLEN as usize + 4] ^= 1;
        });
        let v = audit.check_compacted(&t).unwrap_err();
        assert_eq!(v.check, "compacted-key-tags");
        assert!(v.detail.contains("offset 0"), "{v}");

        // A key entry the boundary kept on the device.
        let (t, page) = kept_key_page();
        audit.check_structure(&t).unwrap();
        let k = sepo_alloc::DevHandle::new(page, 0);
        let klen = crate::entry::key_entry::KLEN;
        let lens = t.heap().read_u64(k, klen);
        t.heap().write_u64(k, klen, lens & !crate::entry::TAG_MASK);
        let v = audit.check_structure(&t).unwrap_err();
        assert_eq!(v.check, "resident-key-tags");
    }

    #[test]
    fn multivalued_kept_pages_satisfy_conservation() {
        let t = table(Organization::MultiValued, 2);
        let mut audit = TableAudit::begin(&t);
        let mut c = NoCharge;
        assert!(t.insert_multivalued(b"key", b"v0", &mut c).is_success());
        for i in 0..60 {
            let v = format!("value-{i:03}-padding-padding");
            if !t
                .insert_multivalued(b"key", v.as_bytes(), &mut c)
                .is_success()
            {
                break;
            }
        }
        let done = Bitmap::new(0);
        let used_before = t.heap().stats().used_bytes;
        let evict = t.end_iteration();
        assert!(evict.kept_pages > 0, "pending key page must be kept");
        audit
            .check_iteration(&t, &done, 0, used_before, &evict)
            .unwrap();
        let used = t.heap().stats().used_bytes;
        let fin = t.finalize();
        audit.check_final(&t, used, &fin).unwrap();
    }

    /// A multi-valued table whose keys each own entries from two
    /// iterations, compacted: two value nodes per key, one key page.
    fn compacted_groups() -> SepoTable {
        let t = table(Organization::MultiValued, 8);
        for round in 0..2 {
            for key in ["a", "b", "c"] {
                let value = format!("{key}{round}");
                assert!(t
                    .insert_multivalued(key.as_bytes(), value.as_bytes(), &mut NoCharge)
                    .is_success());
            }
            t.end_iteration();
        }
        assert!(t.compact_host().unwrap().is_some());
        t
    }

    /// Replace `t`'s first host page of `kind` with `edit` of its bytes,
    /// stamped afresh under the same id.
    fn mutate(t: &SepoTable, kind: PageKind, edit: impl FnOnce(&mut Vec<u8>)) {
        let page = t.host_heap().pages().into_iter().find(|p| p.kind() == kind);
        let page = page.expect("a page of that kind");
        let mut bytes = page.verify().unwrap().bytes().to_vec();
        edit(&mut bytes);
        t.host_heap()
            .store(StampedPage::stamp(page.host_id(), kind, bytes));
    }

    /// A value node with no successor: `vlen` bytes of `fill`, the length
    /// word ORed with `flags`.
    fn value_node(fill: u8, flags: u64) -> Vec<u8> {
        let mut node = vec![0xFF; crate::entry::value_node::VLEN as usize];
        node.extend_from_slice(&(1 | flags).to_le_bytes());
        node.extend_from_slice(&[fill, 0, 0, 0, 0, 0, 0, 0]);
        node
    }

    #[test]
    fn compacted_multivalued_image_passes_and_each_mutation_fails() {
        let audit = TableAudit::begin(&table(Organization::MultiValued, 8));
        let check = |t: &SepoTable| audit.check_compacted(t).map_err(|v| v.check);
        let t = compacted_groups();
        assert_eq!(check(&t), Ok(()));
        let groups = t.collect_multivalued();
        assert_eq!(groups.len(), 3);
        assert!(groups.iter().all(|(_, vs)| vs.len() == 2));

        let dup = compacted_groups();
        mutate(&dup, PageKind::Key, |b| {
            let first = b[..crate::entry::key_entry::size(1)].to_vec();
            b.extend_from_slice(&first);
        });
        assert_eq!(check(&dup), Err("compacted-one-entry-per-key"));

        let dead = compacted_groups();
        mutate(&dead, PageKind::Value, |b| {
            b.extend_from_slice(&value_node(b'x', crate::entry::TOMBSTONE))
        });
        assert_eq!(check(&dead), Err("compacted-no-tombstones"));

        let orphan = compacted_groups();
        mutate(&orphan, PageKind::Value, |b| {
            b.extend_from_slice(&value_node(b'x', 0))
        });
        assert_eq!(check(&orphan), Err("compacted-no-orphan-values"));

        // A chain stepping onto a tombstone, and two chains sharing a node.
        let cut = compacted_groups();
        mutate(&cut, PageKind::Value, |b| {
            let vlen = crate::entry::value_node::VLEN as usize;
            b[vlen..vlen + 8].copy_from_slice(&(1 | crate::entry::TOMBSTONE).to_le_bytes())
        });
        assert_eq!(check(&cut), Err("compacted-no-tombstones"));
        let shared = compacted_groups();
        mutate(&shared, PageKind::Key, |b| {
            let size = crate::entry::key_entry::size(1);
            let cont = crate::entry::key_entry::VALUE_HEAD as usize;
            let first: [u8; 8] = b[cont..cont + 8].try_into().unwrap();
            b[size + cont..size + cont + 8].copy_from_slice(&first);
        });
        assert_eq!(
            check(&shared),
            Err("compacted-chains-reach-each-value-once")
        );
    }
}
