//! SEPO lookups on a larger-than-memory table — the paper's "mental
//! exercise" (§IV-C), carried out.
//!
//! "The SEPO model can also be used for *lookup* operations on
//! larger-than-memory hash tables when subsequent phases use/analyze the
//! results … Under our SEPO model of computation, a larger-than-memory
//! hash table will postpone certain operations (i.e., insert or lookup) if
//! they attempt to access non-resident portions of the hash table. Such
//! operations are postponed until the requested portions become resident"
//! (§IV-C, §VIII).
//!
//! Where the insert phase iterates over the *input*, the lookup phase
//! iterates over the *table*: the host-resident pages are streamed back to
//! the device in batches that fit the heap; each round launches a kernel
//! over the still-pending queries, which complete when their key is found
//! in the resident segment and postpone otherwise. A query that survives
//! every segment is definitively absent. A finalized combining table holds
//! each key once ([`crate::compact`]), so the entry a query finds is its
//! whole answer — the merged value, never one iteration's partial. With
//! Zipf-skewed queries most of the work finishes in the first rounds — the
//! same graceful-degradation economics as the insert side.

use crate::bitmap::Bitmap;
use crate::entry::EntryKind;
use crate::hash::bucket_of;
use crate::serve::{ensure_batch_fits, QueryError};
use crate::table::SepoTable;
use gpu_sim::charge::{Charge, MetricsCharge};
use gpu_sim::executor::Executor;
use gpu_sim::metrics::{Counter, Snapshot};
use gpu_sim::sync::Relaxed;
use sepo_alloc::{PageKind, VerifiedPage};

/// Per-round accounting of a lookup phase.
#[derive(Debug, Clone)]
pub struct LookupRound {
    /// 1-based round number.
    pub round: u32,
    /// Host pages loaded onto the device this round.
    pub pages_loaded: usize,
    /// Bytes streamed host → device this round (bulk PCIe).
    pub loaded_bytes: u64,
    /// Queries attempted this round.
    pub queries_attempted: u64,
    /// Queries that found their key this round.
    pub queries_completed: u64,
    /// Kernel metrics delta for this round.
    pub kernel: Snapshot,
}

/// Outcome of a lookup phase.
#[derive(Debug)]
pub struct LookupOutcome {
    /// Per-round accounting.
    pub rounds: Vec<LookupRound>,
    /// Per-query results, in query order (`None` = key absent).
    pub results: Vec<Option<u64>>,
}

impl LookupOutcome {
    pub fn n_rounds(&self) -> u32 {
        self.rounds.len() as u32
    }

    /// Total bytes streamed back to the device over the phase.
    pub fn total_loaded_bytes(&self) -> u64 {
        self.rounds.iter().map(|r| r.loaded_bytes).sum()
    }

    /// Queries that found their key.
    pub fn hits(&self) -> usize {
        self.results.iter().filter(|r| r.is_some()).count()
    }
}

/// Result slot encoding: bit 63 = found, low bits = value (values are
/// restricted to 63 bits during the lookup phase).
const FOUND: u64 = 1 << 63;

impl SepoTable {
    /// Run a SEPO lookup phase over `queries` against this *finalized*
    /// combining table. The device heap (empty after `finalize`) is used as
    /// the staging area for table segments.
    ///
    /// Panics if the table is not finalized or not a combining table, or if
    /// any stored value uses bit 63. [`SepoTable::try_lookup_phase`]
    /// reports the same conditions as typed [`QueryError`]s instead.
    pub fn lookup_phase(&self, executor: &Executor, queries: &[&[u8]]) -> LookupOutcome {
        self.try_lookup_phase(executor, queries)
            .unwrap_or_else(|e| panic!("lookup_phase: {e}"))
    }

    /// [`SepoTable::lookup_phase`] with a typed error surface: rejects
    /// non-combining organizations, unfinalized tables, and batches whose
    /// length exceeds the phase's `u32` query indexing (the pending-query
    /// vector would silently alias indices past 2^32 otherwise).
    pub fn try_lookup_phase(
        &self,
        executor: &Executor,
        queries: &[&[u8]],
    ) -> Result<LookupOutcome, QueryError> {
        self.cfg.organization.combiner()?;
        // Only verified bytes are paged back in: a damaged host page fails
        // the phase typed instead of answering from it.
        let host_pages: Vec<VerifiedPage> = self
            .finalized_host_pages()?
            .into_iter()
            .filter(|p| p.kind() == PageKind::Mixed)
            .collect();
        ensure_batch_fits(queries.len(), u32::MAX as usize)?;

        let pending = Bitmap::new(queries.len());
        let results: Box<[Relaxed<u64>]> = (0..queries.len()).map(|_| Relaxed::new(0)).collect();

        let mut rounds = Vec::new();
        let mut cursor = 0usize;
        let mut pending_queries: Vec<u32> = (0..queries.len() as u32).collect();

        while cursor < host_pages.len() && !pending_queries.is_empty() {
            let round_no = rounds.len() as u32 + 1;
            // 1. Page in as many table segments as the heap holds.
            let mut loaded = Vec::new();
            let mut loaded_bytes = 0u64;
            while cursor < host_pages.len() {
                let data = host_pages[cursor].bytes();
                match self.heap.load_page_image(data, PageKind::Mixed) {
                    Some(p) => {
                        loaded.push(p);
                        loaded_bytes += data.len() as u64;
                        cursor += 1;
                    }
                    None => break, // heap full: this round's segment is set
                }
            }
            assert!(
                !loaded.is_empty(),
                "device heap cannot hold a single table page"
            );
            let mut bus = MetricsCharge(self.heap.metrics());
            bus.add(Counter::PcieBulkTransfers, 1);
            bus.add(Counter::PcieBulkBytes, loaded_bytes);

            // 2. Rebuild bucket chains over the loaded entries (their
            //    embedded links referred to the *original* device layout).
            self.rebuild_chains_over(&loaded);

            // 3. One kernel over the pending queries.
            let before = self.metrics().snapshot();
            let attempted = pending_queries.len() as u64;
            executor.launch(pending_queries.len(), |lane| {
                let q = pending_queries[lane.task()] as usize;
                let key = queries[q];
                lane.compute(40 + key.len() as u64);
                if let Some(v) = self.lookup_combining(key, lane) {
                    assert_eq!(v & FOUND, 0, "values must fit in 63 bits for lookup_phase");
                    results[q].set(v | FOUND);
                    pending.set(q);
                }
            });
            let kernel = self.metrics().snapshot().delta(&before);

            // 4. Unload the segment.
            for p in loaded.iter() {
                self.heap.release_page(*p);
            }
            self.reset_heads();

            let next_pending: Vec<u32> = pending_queries
                .iter()
                .copied()
                .filter(|&q| !pending.get(q as usize))
                .collect();
            rounds.push(LookupRound {
                round: round_no,
                pages_loaded: loaded.len(),
                loaded_bytes,
                queries_attempted: attempted,
                queries_completed: attempted - next_pending.len() as u64,
                kernel,
            });
            pending_queries = next_pending;
        }

        let results = results
            .iter()
            .map(|r| {
                let v = r.get();
                (v & FOUND != 0).then_some(v & !FOUND)
            })
            .collect();
        Ok(LookupOutcome { rounds, results })
    }

    /// Prepend every (non-tombstoned) combining entry of the loaded pages
    /// into the bucket chains, rewriting the copies' link words (key bytes,
    /// tagged length words and values are untouched, so `lookup_combining`
    /// works as-is).
    fn rebuild_chains_over(&self, pages: &[u32]) {
        let bucket = |key: &[u8]| bucket_of(key, self.cfg.n_buckets);
        for &p in pages {
            for (e, b) in self.live_entries(p, EntryKind::Combining, bucket) {
                self.prepend_resident(b, e);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Combiner, Organization, TableConfig};
    use crate::entry::PageWalker;
    use gpu_sim::charge::NoCharge;
    use gpu_sim::executor::ExecMode;
    use gpu_sim::metrics::Metrics;
    use std::sync::Arc;

    /// Build a finalized combining table with `n` keys, forcing several
    /// insert-side SEPO iterations through a tiny heap.
    fn populated(n: usize, pages: usize) -> SepoTable {
        let cfg = TableConfig::new(Organization::Combining(Combiner::Add))
            .with_buckets(128)
            .with_buckets_per_group(32)
            .with_page_size(1024);
        let t = SepoTable::new(cfg, (pages * 1024) as u64, Arc::new(Metrics::new()));
        let mut ch = NoCharge;
        let mut pending: Vec<usize> = (0..n).collect();
        let mut guard = 0;
        while !pending.is_empty() {
            pending.retain(|&i| {
                !t.insert_combining(format!("key-{i:05}").as_bytes(), i as u64 + 1, &mut ch)
                    .is_success()
            });
            t.end_iteration();
            guard += 1;
            assert!(guard < 100);
        }
        t.finalize();
        t
    }

    fn exec(t: &SepoTable) -> Executor {
        Executor::new(ExecMode::ParallelDeterministic, Arc::clone(t.metrics()))
    }

    #[test]
    fn finds_every_key_across_segments() {
        let t = populated(300, 4); // table spans several 4-page segments
        let e = exec(&t);
        let owned: Vec<String> = (0..300).map(|i| format!("key-{i:05}")).collect();
        let queries: Vec<&[u8]> = owned.iter().map(|s| s.as_bytes()).collect();
        let out = t.lookup_phase(&e, &queries);
        assert!(out.n_rounds() > 1, "table must span multiple segments");
        assert_eq!(out.hits(), 300);
        for (i, r) in out.results.iter().enumerate() {
            assert_eq!(*r, Some(i as u64 + 1), "wrong value for key {i}");
        }
    }

    #[test]
    fn absent_keys_resolve_to_none_after_full_scan() {
        let t = populated(100, 4);
        let e = exec(&t);
        let owned: Vec<String> = (0..50)
            .map(|i| {
                if i % 2 == 0 {
                    format!("key-{i:05}")
                } else {
                    format!("missing-{i:05}")
                }
            })
            .collect();
        let queries: Vec<&[u8]> = owned.iter().map(|s| s.as_bytes()).collect();
        let out = t.lookup_phase(&e, &queries);
        for (i, r) in out.results.iter().enumerate() {
            if i % 2 == 0 {
                assert!(r.is_some(), "present key {i} not found");
            } else {
                assert_eq!(*r, None, "phantom hit for missing key {i}");
            }
        }
    }

    #[test]
    fn pending_queries_shrink_each_round() {
        let t = populated(400, 4);
        let e = exec(&t);
        let owned: Vec<String> = (0..400).map(|i| format!("key-{i:05}")).collect();
        let queries: Vec<&[u8]> = owned.iter().map(|s| s.as_bytes()).collect();
        let out = t.lookup_phase(&e, &queries);
        for w in out.rounds.windows(2) {
            assert!(w[1].queries_attempted < w[0].queries_attempted);
        }
        // Loaded bytes equal the table's host footprint (each page visits
        // the device exactly once).
        let (_, table_bytes) = t.host_footprint();
        assert_eq!(out.total_loaded_bytes(), table_bytes);
    }

    #[test]
    fn lookup_leaves_the_table_reusable() {
        let t = populated(100, 4);
        let e = exec(&t);
        let owned: Vec<String> = (0..100).map(|i| format!("key-{i:05}")).collect();
        let queries: Vec<&[u8]> = owned.iter().map(|s| s.as_bytes()).collect();
        let _ = t.lookup_phase(&e, &queries);
        // Heap is free again and the host store still collects correctly.
        assert_eq!(t.heap().free_pages(), t.heap().total_pages());
        assert_eq!(t.collect_combining().len(), 100);
        // A second lookup phase works identically.
        let again = t.lookup_phase(&e, &queries);
        assert_eq!(again.hits(), 100);
    }

    #[test]
    #[should_panic(expected = "finalized")]
    fn rejects_unfinalized_tables() {
        let cfg = TableConfig::new(Organization::Combining(Combiner::Add))
            .with_buckets(32)
            .with_buckets_per_group(8)
            .with_page_size(1024);
        let t = SepoTable::new(cfg, 4 * 1024, Arc::new(Metrics::new()));
        let mut ch = NoCharge;
        t.insert_combining(b"k", 1, &mut ch);
        let e = exec(&t);
        let _ = t.lookup_phase(&e, &[b"k"]);
    }

    #[test]
    fn try_lookup_phase_returns_typed_errors() {
        // Unfinalized: typed, not a panic.
        let cfg = TableConfig::new(Organization::Combining(Combiner::Add))
            .with_buckets(32)
            .with_buckets_per_group(8)
            .with_page_size(1024);
        let t = SepoTable::new(cfg, 4 * 1024, Arc::new(Metrics::new()));
        let mut ch = NoCharge;
        t.insert_combining(b"k", 1, &mut ch);
        let e = exec(&t);
        assert!(matches!(
            t.try_lookup_phase(&e, &[b"k"]),
            Err(QueryError::NotFinalized)
        ));
        // Wrong organization: typed as well.
        let mv = SepoTable::new(
            TableConfig::new(Organization::MultiValued)
                .with_buckets(32)
                .with_buckets_per_group(8)
                .with_page_size(1024),
            4 * 1024,
            Arc::new(Metrics::new()),
        );
        mv.finalize();
        let e2 = exec(&mv);
        assert!(matches!(
            mv.try_lookup_phase(&e2, &[b"k"]),
            Err(QueryError::WrongOrganization {
                expected: "combining",
                ..
            })
        ));
        // And a well-formed call still resolves.
        t.finalize();
        let out = t.try_lookup_phase(&e, &[b"k", b"absent"]).unwrap();
        assert_eq!(out.results, vec![Some(1), None]);
    }

    #[test]
    fn keys_evicted_in_several_iterations_answer_their_merged_value() {
        // Every key is inserted once per pass and each pass is evicted:
        // five partials per key before finalize compacts them.
        let cfg = TableConfig::new(Organization::Combining(Combiner::Add))
            .with_buckets(128)
            .with_buckets_per_group(32)
            .with_page_size(1024);
        let t = SepoTable::new(cfg, 8 * 1024, Arc::new(Metrics::new()));
        for pass in 1..=5u64 {
            for i in 0..60u64 {
                let key = format!("key-{i:05}");
                assert!(t
                    .insert_combining(key.as_bytes(), pass * i, &mut NoCharge)
                    .is_success());
            }
            t.end_iteration();
        }
        t.finalize();
        let e = exec(&t);
        let owned: Vec<String> = (0..60).map(|i| format!("key-{i:05}")).collect();
        let queries: Vec<&[u8]> = owned.iter().map(|s| s.as_bytes()).collect();
        let out = t.lookup_phase(&e, &queries);
        for (i, r) in out.results.iter().enumerate() {
            assert_eq!(*r, Some(15 * i as u64), "key {i} answered a partial");
        }
    }

    /// An image saved before entries carried key tags: a finalized
    /// combining image with bits 32–62 of every length word cleared, under
    /// the `SEPOHST2` magic of that build. The chain rebuild keeps each
    /// paged-in copy's length word, so such an image is refused at load,
    /// typed and naming both magics, before any lookup could miss its keys.
    #[test]
    fn an_image_without_key_tags_is_refused_at_load() {
        let t = populated(300, 4);
        for page in t.host_heap().pages() {
            let mut bytes = page.verify().unwrap().bytes().to_vec();
            let offsets: Vec<usize> = PageWalker::new(&bytes, EntryKind::Combining)
                .map(|(off, _)| off)
                .collect();
            for off in offsets {
                let at = off + crate::entry::combining::KLEN as usize;
                let lens = u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
                let untagged = lens & !crate::entry::TAG_MASK;
                bytes[at..at + 8].copy_from_slice(&untagged.to_le_bytes());
            }
            let page = sepo_alloc::StampedPage::stamp(page.host_id(), page.kind(), bytes);
            t.host_heap().store(page);
        }
        let audit = crate::audit::TableAudit::begin(&t);
        let v = audit.check_compacted(&t).unwrap_err();
        assert_eq!(v.check, "compacted-key-tags", "the tags are gone");

        let mut image = Vec::new();
        t.save(&mut image).unwrap();
        image.truncate(image.len() - 4);
        image[..8].copy_from_slice(b"SEPOHST2");
        sepo_alloc::codec::append_trailer(&mut image);
        let err =
            SepoTable::load(&mut image.as_slice(), 4 * 1024, Arc::clone(t.metrics())).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert_eq!(err.to_string(), "not a SEPOHST3 image (magic SEPOHST2)");
    }

    #[test]
    fn duplicate_queries_in_one_batch_agree() {
        // The pending filter and result slots are per-query-index: N
        // duplicates of one key must all resolve, to the same value,
        // combining exactly once (the table holds one aggregate).
        let t = populated(50, 4);
        let e = exec(&t);
        let dup: &[u8] = b"key-00017";
        let queries: Vec<&[u8]> = std::iter::repeat_n(dup, 32).collect();
        let out = t.lookup_phase(&e, &queries);
        assert_eq!(out.hits(), 32);
        for r in &out.results {
            assert_eq!(*r, Some(18), "duplicate queries must agree");
        }
    }
}
