//! Final result enumeration from the CPU-side store.
//!
//! After [`SepoTable::finalize`](crate::table::SepoTable::finalize) the
//! whole table lives in the host heap. Entries are self-describing, so
//! basic and combining results are enumerated by *walking pages* front to
//! back — no chain traversal and no extra index, matching how the paper's
//! applications consume the copied-back heap. Multi-valued results walk key
//! pages and then follow each key's host-linked value chain, which remains
//! intact across evictions thanks to the dual-pointer scheme: the host half
//! of every link word. A finalized
//! combining or multi-valued table holds each key once ([`crate::compact`]),
//! so no collector merges anything.
//!
//! Every host-side reader comes through here: page bytes are only reachable
//! via [`StampedPage::verify`](sepo_alloc::StampedPage::verify), primary
//! entries via `primary_entries`, value chains via `walk_value_chain`.

use crate::config::Organization;
use crate::entry::{parse_at, EntryKind, PageWalker, ParsedEntry};
use crate::serve::QueryError;
use crate::table::SepoTable;
use sepo_alloc::{CorruptPage, HostLink, VerifiedPage};

/// Owned multi-valued result: a key with every value inserted for it.
pub type GroupedPair = (Vec<u8>, Vec<Vec<u8>>);

/// The primary (key-carrying) entries of one verified host page under
/// `org`, each with the host link that names it. Pages of another kind —
/// a multi-valued table's value pages — yield nothing.
pub(crate) fn primary_entries(
    org: Organization,
    page: &VerifiedPage,
) -> impl Iterator<Item = (HostLink, ParsedEntry<'_>)> {
    let (entry_kind, page_kind) = org.primary_layout();
    let bytes = if page.kind() == page_kind {
        page.bytes()
    } else {
        &[]
    };
    let host_id = page.host_id();
    PageWalker::new(bytes, entry_kind).map(move |(off, e)| (HostLink::new(host_id, off as u32), e))
}

/// Walk the host-linked value chain starting at `link`, newest to oldest,
/// handing each value to `visit`. `page_of` resolves a host id to its
/// verified page; a link to a page it does not know — never evicted, or
/// quarantined for a bad checksum — is a typed [`CorruptPage`], not a
/// shorter group.
pub(crate) fn walk_value_chain<'p>(
    mut link: HostLink,
    page_of: impl Fn(u64) -> Option<&'p VerifiedPage>,
    mut visit: impl FnMut(&'p [u8]),
) -> Result<(), CorruptPage> {
    // A chain's nodes mostly share pages with their neighbours.
    let mut last: Option<&'p VerifiedPage> = None;
    while !link.is_null() {
        let host_id = link.host_page();
        let page = match last {
            Some(page) if page.host_id() == host_id => page,
            _ => page_of(host_id).ok_or(CorruptPage { host_id })?,
        };
        last = Some(page);
        let Some((Some(ParsedEntry::Value { value, next }), _)) =
            parse_at(page.bytes(), link.offset() as usize, EntryKind::Value)
        else {
            break;
        };
        visit(value);
        link = next;
    }
    Ok(())
}

impl SepoTable {
    /// Refuses while pages are still resident: a host-side read would
    /// silently miss them.
    pub(crate) fn ensure_finalized(&self) -> Result<(), QueryError> {
        if self.heap.free_pages() != self.heap.total_pages() {
            return Err(QueryError::NotFinalized);
        }
        Ok(())
    }

    /// Every host page of this *finalized* table, verified, in host-id
    /// (eviction) order — the door all offline readers share. Names the
    /// first page whose bytes no longer match their stamp.
    pub(crate) fn finalized_host_pages(&self) -> Result<Vec<VerifiedPage>, QueryError> {
        self.ensure_finalized()?;
        let verified: Result<Vec<_>, _> = self.host.pages().iter().map(|p| p.verify()).collect();
        verified.map_err(QueryError::from)
    }

    /// [`SepoTable::finalized_host_pages`] for the infallible collectors:
    /// panics with the typed error's text.
    fn host_pages_or_panic(&self, caller: &str) -> Vec<VerifiedPage> {
        self.finalized_host_pages()
            .unwrap_or_else(|e| panic!("{caller}: {e}"))
    }

    /// Collect `(key, combined value)` pairs of a combining table, in
    /// first-eviction order: a page walk, because a finalized combining
    /// table holds each key once ([`crate::compact`] folded the partial
    /// aggregates of keys evicted in several iterations).
    ///
    /// Requires `finalize()`; panics if pages are still resident (that
    /// would silently drop data) or a host page fails verification.
    pub fn collect_combining(&self) -> Vec<(Vec<u8>, u64)> {
        let org = self.cfg.organization;
        assert!(
            matches!(org, Organization::Combining(_)),
            "collect_combining on a {} table",
            org.label()
        );
        let mut out = Vec::new();
        for page in self.host_pages_or_panic("collect_combining") {
            for (_, e) in primary_entries(org, &page) {
                if let ParsedEntry::Combining { key, value } = e {
                    out.push((key.to_vec(), value));
                }
            }
        }
        out
    }

    /// Collect raw `(key, value)` pairs of a basic table (duplicates
    /// preserved).
    pub fn collect_basic(&self) -> Vec<(Vec<u8>, Vec<u8>)> {
        let mut out = Vec::new();
        for page in self.host_pages_or_panic("collect_basic") {
            for (_, e) in primary_entries(Organization::Basic, &page) {
                if let ParsedEntry::Basic { key, value } = e {
                    out.push((key.to_vec(), value.to_vec()));
                }
            }
        }
        out
    }

    /// Collect `(key, values)` groups of a multi-valued table, in the
    /// order of the key pages: a page walk plus one chain walk per key,
    /// because a finalized multi-valued table holds each key once
    /// ([`crate::compact`] joined the entries of keys evicted in several
    /// iterations into one chain). Value order within a key is newest-first
    /// (chains are prepend-only).
    ///
    /// Requires `finalize()`; panics if pages are still resident or a host
    /// page fails verification.
    pub fn collect_multivalued(&self) -> Vec<GroupedPair> {
        let pages = self.host_pages_or_panic("collect_multivalued");
        // Pages arrive in host-id order, so a chain link resolves by search.
        let page_of = |id: u64| {
            let at = pages.binary_search_by_key(&id, VerifiedPage::host_id);
            at.ok().map(|i| &pages[i])
        };
        let mut out: Vec<GroupedPair> = Vec::new();
        for page in &pages {
            for (_, e) in primary_entries(Organization::MultiValued, page) {
                if let ParsedEntry::Key { key, value_head } = e {
                    let mut values = Vec::new();
                    walk_value_chain(value_head, page_of, |v| values.push(v.to_vec()))
                        .unwrap_or_else(|e| panic!("collect_multivalued: {e}"));
                    out.push((key.to_vec(), values));
                }
            }
        }
        out
    }

    /// Total distinct host pages + bytes the table occupies in CPU memory.
    pub fn host_footprint(&self) -> (usize, u64) {
        (self.host.len(), self.host.total_bytes())
    }

    /// Convenience for tests and examples: collect whichever result shape
    /// matches the organization, normalized to grouped form (combining
    /// values rendered as 8-byte LE).
    pub fn collect_grouped(&self) -> Vec<GroupedPair> {
        match self.cfg.organization {
            Organization::Basic => self
                .collect_basic()
                .into_iter()
                .map(|(k, v)| (k, vec![v]))
                .collect(),
            Organization::Combining(_) => self
                .collect_combining()
                .into_iter()
                .map(|(k, v)| (k, vec![v.to_le_bytes().to_vec()]))
                .collect(),
            Organization::MultiValued => self.collect_multivalued(),
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::config::{Combiner, Organization, TableConfig};
    use crate::table::SepoTable;
    use gpu_sim::charge::NoCharge;
    use gpu_sim::metrics::Metrics;
    use std::collections::HashMap;
    use std::sync::Arc;

    fn table(org: Organization, pages: usize) -> SepoTable {
        let cfg = TableConfig::new(org)
            .with_buckets(64)
            .with_buckets_per_group(16)
            .with_page_size(1024);
        SepoTable::new(cfg, (pages * 1024) as u64, Arc::new(Metrics::new()))
    }

    #[test]
    fn combining_results_round_trip() {
        let t = table(Organization::Combining(Combiner::Add), 16);
        let mut c = NoCharge;
        for i in 0..30u64 {
            for _ in 0..=(i % 3) {
                t.insert_combining(format!("url-{i}").as_bytes(), 1, &mut c);
            }
        }
        t.finalize();
        let got: HashMap<Vec<u8>, u64> = t.collect_combining().into_iter().collect();
        assert_eq!(got.len(), 30);
        for i in 0..30u64 {
            assert_eq!(got[format!("url-{i}").as_bytes()], i % 3 + 1);
        }
    }

    #[test]
    fn combining_results_span_iterations_without_duplicates() {
        // Force multiple evictions; each key must appear exactly once in
        // the final results (the combining invariant).
        let t = table(Organization::Combining(Combiner::Add), 2);
        let mut c = NoCharge;
        let mut remaining: Vec<u64> = (0..200).collect();
        let mut guard = 0;
        while !remaining.is_empty() {
            let mut next = Vec::new();
            for &i in &remaining {
                if !t
                    .insert_combining(format!("key-{i:05}").as_bytes(), 1, &mut c)
                    .is_success()
                {
                    next.push(i);
                }
            }
            t.end_iteration();
            remaining = next;
            guard += 1;
            assert!(guard < 100, "no progress");
        }
        t.finalize();
        let results = t.collect_combining();
        assert_eq!(results.len(), 200, "every key exactly once");
        let mut seen = std::collections::HashSet::new();
        for (k, v) in results {
            assert_eq!(v, 1);
            assert!(seen.insert(k), "duplicate key across iterations");
        }
    }

    #[test]
    fn basic_results_preserve_duplicates() {
        let t = table(Organization::Basic, 16);
        let mut c = NoCharge;
        t.insert_basic(b"k", b"v1", &mut c);
        t.insert_basic(b"k", b"v2", &mut c);
        t.insert_basic(b"j", b"w", &mut c);
        t.finalize();
        let mut got = t.collect_basic();
        got.sort();
        assert_eq!(
            got,
            vec![
                (b"j".to_vec(), b"w".to_vec()),
                (b"k".to_vec(), b"v1".to_vec()),
                (b"k".to_vec(), b"v2".to_vec()),
            ]
        );
    }

    #[test]
    fn multivalued_results_group_all_values() {
        let t = table(Organization::MultiValued, 32);
        let mut c = NoCharge;
        for (k, v) in [
            ("google.com", "a.html"),
            ("google.com", "c.html"),
            ("google.com", "d.html"),
            ("rust-lang.org", "x.html"),
        ] {
            assert!(t
                .insert_multivalued(k.as_bytes(), v.as_bytes(), &mut c)
                .is_success());
        }
        t.finalize();
        let mut got = t.collect_multivalued();
        got.sort();
        assert_eq!(got.len(), 2);
        let (k0, mut v0) = got[0].clone();
        v0.sort();
        assert_eq!(k0, b"google.com");
        assert_eq!(
            v0,
            vec![b"a.html".to_vec(), b"c.html".to_vec(), b"d.html".to_vec()]
        );
        assert_eq!(got[1].0, b"rust-lang.org");
        assert_eq!(got[1].1, vec![b"x.html".to_vec()]);
    }

    #[test]
    fn multivalued_chains_survive_multiple_evictions() {
        // One key accumulating values across several forced iterations; the
        // host-linked chain must stitch them all together.
        let t = table(Organization::MultiValued, 2);
        let mut c = NoCharge;
        let mut inserted = Vec::new();
        let mut pending: Vec<String> = (0..40)
            .map(|i| format!("value-{i:03}-padding-pad"))
            .collect();
        let mut guard = 0;
        while !pending.is_empty() {
            let mut next = Vec::new();
            for v in pending {
                if t.insert_multivalued(b"key", v.as_bytes(), &mut c)
                    .is_success()
                {
                    inserted.push(v);
                } else {
                    next.push(v);
                }
            }
            t.end_iteration();
            pending = next;
            guard += 1;
            assert!(guard < 50, "no progress");
        }
        t.finalize();
        let got = t.collect_multivalued();
        assert_eq!(got.len(), 1, "one key entry despite many iterations");
        let mut vals: Vec<String> = got[0]
            .1
            .iter()
            .map(|v| String::from_utf8(v.clone()).unwrap())
            .collect();
        vals.sort();
        inserted.sort();
        assert_eq!(vals, inserted);
    }

    #[test]
    #[should_panic(expected = "finalize")]
    fn collecting_before_finalize_panics() {
        let t = table(Organization::Combining(Combiner::Add), 4);
        let mut c = NoCharge;
        t.insert_combining(b"k", 1, &mut c);
        let _ = t.collect_combining();
    }

    #[test]
    fn grouped_collection_normalizes_all_organizations() {
        let t = table(Organization::Combining(Combiner::Add), 8);
        let mut c = NoCharge;
        t.insert_combining(b"k", 7, &mut c);
        t.finalize();
        let got = t.collect_grouped();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].1[0], 7u64.to_le_bytes().to_vec());
    }
}
