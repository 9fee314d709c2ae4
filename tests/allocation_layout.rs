//! Where allocation puts every entry, pinned: four applications run under
//! `ParallelDeterministic` at 1/16384 of paper size on heaps that spill
//! for several iterations, and each run's host pages (as evicted, before
//! the save compacts them), its saved `SEPOHST4` image, its iteration
//! count and its allocation outcomes must keep the constants below.
//!
//! The four runs cover the allocator's callers: DNA Assembly inserts from
//! the direct combining kernel, Patent Citation allocates key entries and
//! value nodes from separate pages, Inverted Index emits several pairs per
//! task, and Netflix goes through the block combiner. A change to how the
//! allocator hands out page space (how many atomics a block spends on a
//! page cursor, say) must leave every number here as it is.

use gpu_sim::executor::{ExecMode, Executor};
use gpu_sim::metrics::Metrics;
use sepo_apps::{run_app, AppConfig};
use sepo_core::crc32c;
use sepo_datagen::App;
use std::sync::Arc;

/// Table I's fourth dataset at 1/16384 of paper size, on a 64 KiB heap:
/// 16 pages of 4 KiB in four bucket groups.
const DATASET: usize = 3;
const SCALE: u64 = 16_384;
const HEAP: u64 = 64 * 1024;

/// What one run pins.
#[derive(Debug, PartialEq, Eq)]
struct Pinned {
    iterations: u32,
    alloc_success: u64,
    alloc_postponed: u64,
    /// Host pages at the end of the run, in host-id order: their count
    /// and the CRC32C of their ids and bytes back to back.
    host_pages: (usize, u32),
    /// `(length, CRC32C before the trailer)` of the saved image.
    image: (usize, u32),
}

fn pinned(app: App, combiner: bool) -> Pinned {
    let ds = app.generate(DATASET, SCALE);
    let metrics = Arc::new(Metrics::new());
    let exec = Executor::new(ExecMode::ParallelDeterministic, Arc::clone(&metrics));
    let cfg = AppConfig::new(HEAP).with_combiner(combiner);
    let run = run_app(app, &ds, &cfg, &exec);
    let s = metrics.snapshot();
    let pages = run.table.host_heap().pages();
    let mut raw = Vec::new();
    for page in &pages {
        raw.extend_from_slice(&page.host_id().to_le_bytes());
        raw.extend_from_slice(page.verify().unwrap().bytes());
    }
    let mut image = Vec::new();
    run.table.save(&mut image).unwrap();
    Pinned {
        iterations: run.iterations(),
        alloc_success: s.alloc_success,
        alloc_postponed: s.alloc_postponed,
        host_pages: (pages.len(), crc32c(&raw)),
        image: (image.len(), crc32c(&image[..image.len() - 4])),
    }
}

fn check(app: App, combiner: bool, expect: Pinned) {
    let got = pinned(app, combiner);
    assert!(got.iterations >= 3, "{}: the heap must spill", app.name());
    assert_eq!(got, expect, "{}", app.name());
}

#[test]
fn dna_assembly_direct_combining_kernel() {
    let expect = Pinned {
        iterations: 9,
        alloc_success: 13_022,
        alloc_postponed: 22_241,
        host_pages: (74, 1_825_234_233),
        image: (302_515, 2_473_194_619),
    };
    check(App::DnaAssembly, false, expect);
}

#[test]
fn patent_citation_key_and_value_pages() {
    let expect = Pinned {
        iterations: 5,
        alloc_success: 8_647,
        alloc_postponed: 11_876,
        host_pages: (50, 3_594_809_045),
        image: (199_403, 1_958_564_591),
    };
    check(App::PatentCitation, false, expect);
}

#[test]
fn inverted_index_multi_pair_tasks() {
    let expect = Pinned {
        iterations: 7,
        alloc_success: 5_029,
        alloc_postponed: 416,
        host_pages: (48, 205_620_909),
        image: (193_273, 2_124_292_024),
    };
    check(App::InvertedIndex, false, expect);
}

#[test]
fn netflix_block_combiner() {
    let expect = Pinned {
        iterations: 5,
        alloc_success: 6_479,
        alloc_postponed: 2_900,
        host_pages: (20, 3_370_970_924),
        image: (80_997, 3_683_382_450),
    };
    check(App::Netflix, true, expect);
}
