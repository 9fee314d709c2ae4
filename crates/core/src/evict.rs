//! Iteration boundaries: halting, eviction, and restart (§IV-C, Fig. 5).
//!
//! At the end of a SEPO iteration the driver calls [`SepoTable::end_iteration`],
//! which applies one policy — only *key* pages may stay — that reads per
//! organization as:
//!
//! * **basic / combining** — no key pages exist: copy the entire resident
//!   heap to CPU memory, free every page back to the pool, and reset all
//!   bucket heads (all resident entries left the device).
//! * **multi-valued** — copy out all *value* pages and those *key* pages
//!   with no pending keys; key pages holding keys that still have values to
//!   insert stay resident so next iteration's appends find them. Before
//!   copying, every key entry's `value_host_cont` is advanced to the host
//!   link of its current value-chain head (whose nodes are all being
//!   evicted), and the device-side head is cleared; afterwards the bucket
//!   chains are rebuilt to contain exactly the kept key entries.
//!
//! [`SepoTable::finalize`] evicts everything that remains (kept pages
//! included) once the run is complete, leaving the whole table addressable
//! from CPU memory, one entry per key for combining and multi-valued
//! tables ([`crate::compact`]). Until then a multi-valued key can own
//! several host key entries: a key page evicted without pending keys, or
//! past the kept-page cap, leaves its keys to fresh entries next iteration.
//!
//! These routines require quiescence — no kernels in flight — which the
//! SEPO driver guarantees by running them between launches.

use crate::entry::{key_entry, EntryKind, PageWalker};
use crate::hash::bucket_of;
use crate::integrity::{self, TransferFailure, MAX_TRANSFER_RETRANSMITS};
use crate::table::SepoTable;
use gpu_sim::charge::{Charge, NoCharge};
use gpu_sim::faults::{FaultKind, FaultPlan};
use gpu_sim::shadow::{AccessKind, ShadowAddr};
use sepo_alloc::{DevHandle, PageKind, ResidentPage, StampedPage};
use std::sync::Arc;

/// Multi-valued method only: cap on the fraction of heap pages that may be
/// *kept* resident across an iteration because they hold pending keys. The
/// paper keeps every such page (§IV-C), which livelocks once pending key
/// pages cover the whole heap (no page left for value nodes); evicting a
/// pending key page is safe — a duplicate key entry is created next
/// iteration and host compaction joins the groups by key — so beyond the
/// cap the pages with the fewest pending keys are evicted. 0.25 keeps the
/// hottest keys resident (the paper's intent) while leaving most of the
/// heap for value pages, guaranteeing forward progress.
pub const MAX_KEPT_FRACTION: f64 = 0.25;

/// What an eviction moved and kept.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvictReport {
    /// Pages copied to CPU memory and freed.
    pub evicted_pages: usize,
    /// Bytes copied over the (simulated) PCIe bus.
    pub evicted_bytes: u64,
    /// Key pages kept resident because they hold pending keys.
    pub kept_pages: usize,
    /// Bytes still resident on kept pages.
    pub kept_bytes: u64,
}

impl EvictReport {
    fn absorb(&mut self, other: EvictReport) {
        self.evicted_pages += other.evicted_pages;
        self.evicted_bytes += other.evicted_bytes;
        self.kept_pages += other.kept_pages;
        self.kept_bytes += other.kept_bytes;
    }
}

impl SepoTable {
    /// End-of-iteration eviction per the table's organization. Quiescent
    /// callers only.
    pub fn end_iteration(&self) -> EvictReport {
        self.evict_boundary(&mut NoCharge, false, None, &[])
    }

    /// Evict everything that remains (kept pages included), then compact a
    /// combining or multi-valued table's host image to one entry per key
    /// ([`SepoTable::compact_host`]). Call once after the last iteration;
    /// afterwards the result collectors see the full table in the host
    /// heap. A host page that fails its stamp is left in place, uncompacted,
    /// for every reader to refuse by host id.
    pub fn finalize(&self) -> EvictReport {
        let report = self.evict_boundary(&mut NoCharge, true, None, &[]);
        let _ = self.compact_host();
        report
    }

    /// Model one page image crossing the PCIe bus under the integrity
    /// layer: stamp a CRC32C from the pristine bytes, then — under a
    /// `corrupt` plan — draw in-flight bit flips, *materialize*
    /// each one, prove the stamp catches it, and retransmit up to
    /// [`MAX_TRANSFER_RETRANSMITS`] times. Exhausting the retransmit
    /// budget records an unrecovered-transfer witness the driver surfaces
    /// as `SepoError::CorruptTransfer`. The pristine image is what lands
    /// host-side on success, so recovered runs stay byte-identical to
    /// corruption-free ones.
    fn wire_page(
        &self,
        host_id: u64,
        kind: PageKind,
        data: Arc<[u8]>,
        corrupt: Option<&FaultPlan>,
    ) -> StampedPage {
        let page = StampedPage::stamp(host_id, kind, Arc::clone(&data));
        self.integrity.note_stamped();
        if let Some(plan) = corrupt {
            let mut retransmits = 0;
            while let Some(hit) = plan.draw(FaultKind::PcieBitFlip) {
                // Materialize the damage and verify the stamp detects it
                // (CRC32C catches all single-bit errors by construction).
                let damaged = integrity::flip_bit(&data, hit.entropy);
                let landed = StampedPage::from_parts(host_id, kind, damaged, page.crc());
                assert!(
                    data.is_empty() || landed.verify().is_err(),
                    "single-bit flip must never pass checksum verification"
                );
                if retransmits >= MAX_TRANSFER_RETRANSMITS {
                    self.integrity.note_failure(TransferFailure {
                        host_id,
                        error: hit,
                    });
                    break;
                }
                retransmits += 1;
                self.integrity.note_retransmit();
            }
        }
        page
    }

    /// Copy one page off the device under its stamped identity into the
    /// host heap — or, for a `Mixed` or `Value` page, store its `captured`
    /// image (step 1 of the eviction rewrites key pages after a capture) —
    /// and release it. Declares the page's logical identity evicted
    /// *before* the release, while the identity is still readable.
    fn evict_page<C: Charge>(
        &self,
        p: u32,
        charge: &mut C,
        corrupt: Option<&FaultPlan>,
        captured: &[ResidentPage],
    ) -> EvictReport {
        let host_id = self.heap.host_id(p);
        charge.access(ShadowAddr::Page(host_id), AccessKind::Evicted);
        let kind = self.heap.page_kind(p);
        let at = captured.binary_search_by_key(&p, |rp| rp.index);
        let data = match at.map(|i| &captured[i]) {
            Ok(rp) if kind != PageKind::Key && rp.host_id == host_id => {
                debug_assert!(
                    *rp.data == *self.heap.page_bytes(p),
                    "the captured image of page {p} (host id {host_id}) is stale"
                );
                Arc::clone(&rp.data)
            }
            _ => self.heap.page_data(p),
        };
        let bytes = data.len() as u64;
        self.host
            .store(self.wire_page(host_id, kind, data, corrupt));
        self.heap.release_page(p);
        EvictReport {
            evicted_pages: 1,
            evicted_bytes: bytes,
            ..Default::default()
        }
    }

    /// The one eviction entry point behind [`SepoTable::end_iteration`] and
    /// [`SepoTable::finalize`] (`force` evicts kept pages too): the policy of
    /// Fig. 5, for every organization.
    ///
    /// Host-side accesses — page evictions, kept-entry link rewrites — are
    /// declared to `charge`. The SEPO driver passes the shadow sanitizer's
    /// host sink here so evicted pages are retired in the shadow map (later
    /// device touches become use-after-evict findings) while the eviction
    /// machinery's own writes stay exempt from race rules (the device is
    /// quiescent).
    ///
    /// Every evicted page is stamped and stored in the host heap before
    /// this returns; under a `corrupt` plan (one that draws silent
    /// corruption) its transfer also draws seeded in-flight bit flips.
    /// Whether its DMA is *priced* as hidden behind the next iteration's
    /// kernels is a benchmark-layer decision (`SepoOutcome::evict_overlap`);
    /// the eviction itself is one path.
    /// `captured` holds page images taken at this point, in page order (the
    /// serving epoch just published, or nothing); their `Mixed` and `Value`
    /// pages are stored as those images instead of copied again.
    pub fn evict_boundary<C: Charge>(
        &self,
        charge: &mut C,
        force: bool,
        corrupt: Option<&FaultPlan>,
        captured: &[ResidentPage],
    ) -> EvictReport {
        let mut report = EvictReport::default();
        let resident = self.heap.resident_pages();
        let key_pages: Vec<u32> = resident
            .iter()
            .copied()
            .filter(|&p| self.heap.page_kind(p) == PageKind::Key)
            .collect();
        let other_pages: Vec<u32> = resident
            .iter()
            .copied()
            .filter(|&p| self.heap.page_kind(p) != PageKind::Key)
            .collect();

        // 1. Advance every key entry's host continuation past the value
        //    nodes that are about to leave the device, and clear its
        //    device-side value head. Must happen before any page is copied
        //    so the host images carry the final continuations.
        for &p in &key_pages {
            for (k, ()) in self.live_entries(p, EntryKind::Key, |_| ()) {
                charge.access(self.shadow_entry(k), AccessKind::PlainWrite);
                let head_raw = self.heap.read_u64(k, key_entry::VALUE_HEAD);
                if head_raw != u64::MAX {
                    let head = DevHandle::from_raw(head_raw);
                    let cont = self.heap.link_for(head).host;
                    self.heap
                        .write_u64(k, key_entry::VALUE_HOST_CONT, cont.to_raw());
                    self.heap.write_u64(k, key_entry::VALUE_HEAD, u64::MAX);
                }
                // Pending flags are per-iteration state.
                self.heap.write_u64(k, key_entry::FLAGS, 0);
            }
        }

        // 2. Value pages — and the mixed pages of basic / combining tables,
        //    which have no key pages, so for them this is the whole
        //    eviction — always leave.
        for &p in &other_pages {
            report.absorb(self.evict_page(p, charge, corrupt, captured));
        }

        // 3. Key pages leave unless they hold pending keys (or we are
        //    finalizing). Keeping is capped at [`MAX_KEPT_FRACTION`] of the
        //    heap — beyond that, pages with the fewest pending keys are
        //    evicted anyway (their keys reappear as duplicates that host
        //    compaction joins) so
        //    value allocation always has pages to draw from.
        let max_kept = if force {
            0
        } else {
            // At least one page may always be kept: tiny test heaps must
            // still honour the paper's keep-pending-keys behaviour.
            ((self.heap.total_pages() as f64 * MAX_KEPT_FRACTION).ceil() as usize).max(1)
        };
        let mut candidates: Vec<u32> = key_pages
            .iter()
            .copied()
            .filter(|&p| !force && self.heap.pending_keys(p) > 0)
            .collect();
        candidates.sort_by_key(|&p| std::cmp::Reverse(self.heap.pending_keys(p)));
        let kept: Vec<u32> = candidates.into_iter().take(max_kept).collect();
        for &p in &key_pages {
            if kept.contains(&p) {
                self.heap.clear_pending_keys(p);
                report.kept_pages += 1;
                report.kept_bytes += self.heap.page_used(p) as u64;
            } else {
                report.absorb(self.evict_page(p, charge, corrupt, captured));
            }
        }

        // 4. Rebuild bucket chains over exactly the kept key entries so next
        //    iteration's lookups see them through resident links.
        self.reset_heads();
        let bucket = |key: &[u8]| bucket_of(key, self.cfg.n_buckets);
        for &p in &kept {
            for (k, b) in self.live_entries(p, EntryKind::Key, bucket) {
                charge.access(self.shadow_entry(k), AccessKind::PlainWrite);
                self.prepend_resident(b, k);
            }
        }
        self.groups.reset_iteration();
        report
    }

    /// The complete, non-tombstoned entries of resident page `p` walked as
    /// `kind`, each with `of` its key, collected before the caller writes
    /// into the page (quiescent).
    pub(crate) fn live_entries<T>(
        &self,
        p: u32,
        kind: EntryKind,
        of: impl Fn(&[u8]) -> T,
    ) -> Vec<(DevHandle, T)> {
        PageWalker::new(self.heap.page_bytes(p), kind)
            .filter_map(|(off, e)| Some((DevHandle::new(p, off as u32), of(e.key()?))))
            .collect()
    }

    /// Make resident entry `e` the head of `bucket`'s chain, rewriting its
    /// link words to point at the previous head (quiescent: eviction's
    /// chain rebuild and the lookup phase's, over paged-in copies).
    pub(crate) fn prepend_resident(&self, bucket: usize, e: DevHandle) {
        self.write_next(e, self.head_link(self.buckets[bucket].head.get()));
        self.buckets[bucket].head.set(e.to_raw());
    }

    /// Empty every bucket chain (quiescent).
    pub(crate) fn reset_heads(&self) {
        for b in self.buckets.iter() {
            b.head.set(u64::MAX);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Combiner, Organization, TableConfig};
    use gpu_sim::charge::NoCharge;
    use gpu_sim::metrics::Metrics;
    use std::sync::Arc;

    fn table(org: Organization, pages: usize) -> SepoTable {
        let cfg = TableConfig::new(org)
            .with_buckets(64)
            .with_buckets_per_group(16)
            .with_page_size(1024);
        SepoTable::new(cfg, (pages * 1024) as u64, Arc::new(Metrics::new()))
    }

    #[test]
    fn evict_all_frees_heap_and_resets_heads() {
        let t = table(Organization::Combining(Combiner::Add), 8);
        let mut c = NoCharge;
        for i in 0..20 {
            assert!(t
                .insert_combining(format!("k{i}").as_bytes(), 1, &mut c)
                .is_success());
        }
        let before_free = t.heap().free_pages();
        let report = t.end_iteration();
        assert!(report.evicted_pages > 0);
        assert!(report.evicted_bytes > 0);
        assert_eq!(report.kept_pages, 0);
        assert_eq!(t.heap().free_pages(), t.heap().total_pages());
        assert!(t.heap().free_pages() > before_free);
        // Heads reset: previously-stored keys are no longer resident.
        assert_eq!(t.lookup_combining(b"k0", &mut c), None);
        // Host heap now holds the evicted pages.
        assert_eq!(t.host_heap().len(), report.evicted_pages);
    }

    #[test]
    fn combining_insert_after_eviction_starts_fresh_entry() {
        let t = table(Organization::Combining(Combiner::Add), 8);
        let mut c = NoCharge;
        t.insert_combining(b"url", 3, &mut c);
        t.end_iteration();
        // Same key re-inserted post-eviction gets a fresh resident entry.
        assert!(t.insert_combining(b"url", 4, &mut c).is_success());
        assert_eq!(t.lookup_combining(b"url", &mut c), Some(4));
    }

    #[test]
    fn multivalued_eviction_keeps_pending_key_pages() {
        let t = table(Organization::MultiValued, 2);
        let mut c = NoCharge;
        assert!(t.insert_multivalued(b"key", b"v0", &mut c).is_success());
        // Exhaust value space to force a pending mark.
        let mut pending = false;
        for i in 0..60 {
            let v = format!("value-{i:03}-padding-padding");
            if !t
                .insert_multivalued(b"key", v.as_bytes(), &mut c)
                .is_success()
            {
                pending = true;
                break;
            }
        }
        assert!(pending);
        let report = t.end_iteration();
        assert_eq!(report.kept_pages, 1, "pending key page must stay");
        assert!(report.evicted_pages >= 1, "value page must leave");
        // The key is still resident and appendable next iteration.
        assert!(t.insert_multivalued(b"key", b"v-next", &mut c).is_success());
    }

    #[test]
    fn multivalued_eviction_releases_non_pending_key_pages() {
        let t = table(Organization::MultiValued, 8);
        let mut c = NoCharge;
        for i in 0..5 {
            assert!(t
                .insert_multivalued(format!("key-{i}").as_bytes(), b"v", &mut c)
                .is_success());
        }
        let report = t.end_iteration();
        assert_eq!(report.kept_pages, 0);
        assert_eq!(t.heap().free_pages(), t.heap().total_pages());
    }

    #[test]
    fn finalize_evicts_kept_pages_too() {
        let t = table(Organization::MultiValued, 2);
        let mut c = NoCharge;
        t.insert_multivalued(b"key", b"v0", &mut c);
        for i in 0..60 {
            let v = format!("value-{i:03}-padding-padding");
            if !t
                .insert_multivalued(b"key", v.as_bytes(), &mut c)
                .is_success()
            {
                break;
            }
        }
        t.end_iteration();
        assert!(t.heap().free_pages() < t.heap().total_pages());
        let report = t.finalize();
        assert!(report.evicted_pages >= 1);
        assert_eq!(t.heap().free_pages(), t.heap().total_pages());
    }

    #[test]
    fn kept_keys_remain_findable_across_iterations() {
        let t = table(Organization::MultiValued, 2);
        let mut c = NoCharge;
        t.insert_multivalued(b"sticky", b"v0", &mut c);
        for i in 0..60 {
            let v = format!("value-{i:03}-padding-padding");
            if !t
                .insert_multivalued(b"sticky", v.as_bytes(), &mut c)
                .is_success()
            {
                break;
            }
        }
        t.end_iteration();
        // Next iteration: the key must be found (no duplicate key entry).
        assert!(t.insert_multivalued(b"sticky", b"v1", &mut c).is_success());
        let key_pages: Vec<u32> = t
            .heap()
            .resident_pages()
            .into_iter()
            .filter(|&p| t.heap().page_kind(p) == PageKind::Key)
            .collect();
        let n_keys: usize = key_pages
            .iter()
            .map(|&p| PageWalker::new(t.heap().page_bytes(p), EntryKind::Key).count())
            .sum();
        assert_eq!(n_keys, 1, "exactly one key entry for the sticky key");
    }

    /// ISSUE negative test: a kernel that holds a device handle across an
    /// iteration boundary and dereferences it after the page was evicted
    /// must produce a use-after-evict finding with a usable witness.
    #[test]
    fn device_read_after_evict_is_reported_with_witness() {
        use gpu_sim::shadow::{AccessKind, FindingKind, ShadowAddr, ShadowSanitizer};
        use gpu_sim::{Charge, ExecMode, Executor};

        let t = table(Organization::Combining(Combiner::Add), 8);
        let sz = Arc::new(ShadowSanitizer::new());
        let exec = Executor::new(ExecMode::ParallelDeterministic, Arc::new(Metrics::new()))
            .with_shadow(sz.clone());

        sz.set_iteration(1);
        let keys: Vec<String> = (0..64).map(|i| format!("key-{i:02}")).collect();
        exec.launch(keys.len(), |ctx| {
            let k = keys[ctx.task()].as_bytes().to_vec();
            assert!(t.insert_combining(&k, 1, ctx).is_success());
        });
        assert_eq!(sz.finding_count(), 0, "disciplined inserts are clean");

        // A buggy kernel squirrels away a handle to a resident page...
        let page = t.heap().resident_pages()[0];
        let stale = ShadowAddr::Page(t.heap().host_id(page));

        // ...the iteration boundary evicts everything...
        t.evict_boundary(&mut sz.host_charge(), false, None, &[]);

        // ...and the next launch dereferences the stale handle.
        sz.set_iteration(2);
        exec.launch(40, |ctx| {
            if ctx.task() == 38 {
                ctx.access(stale, AccessKind::PlainRead);
            }
        });

        let report = sz.report();
        assert!(report.use_after_evict >= 1, "stale read must be flagged");
        let w = report
            .witnesses
            .iter()
            .find(|w| w.kind == FindingKind::UseAfterEvict)
            .expect("use-after-evict witness present");
        assert_eq!(w.addr, stale);
        assert_eq!(w.warp, 1, "task 38 runs in the second warp");
        assert_eq!(w.lane, 6, "task 38 is lane 6 of its warp");
        assert_eq!(w.iteration, 2);
    }

    /// The host is allowed to keep touching evicted identities (that is the
    /// whole point of eviction) — only device accesses are findings.
    #[test]
    fn host_access_after_evict_is_legal() {
        use gpu_sim::shadow::{AccessKind, ShadowAddr, ShadowSanitizer};

        let t = table(Organization::Combining(Combiner::Add), 8);
        let mut c = NoCharge;
        assert!(t.insert_combining(b"solo", 1, &mut c).is_success());
        let page = t.heap().resident_pages()[0];
        let addr = ShadowAddr::Page(t.heap().host_id(page));

        let sz = ShadowSanitizer::new();
        t.evict_boundary(&mut sz.host_charge(), false, None, &[]);
        sz.record_host(addr, AccessKind::PlainRead);
        assert_eq!(sz.finding_count(), 0);
    }
}
