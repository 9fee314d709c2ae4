//! What every application computes, pinned: all seven run under
//! `ParallelDeterministic` at 1/16384 of paper size on heaps that spill
//! for several iterations, and the CRC32C of each run's
//! [`canonical_image`] (its sorted pairs or groups, independent of page
//! layout, eviction timing and iteration count) must keep the constants
//! below.
//!
//! `tests/allocation_layout.rs` pins where entries land, so a change to
//! the entry layout re-records it; this file pins what the table holds,
//! so such a change must leave every number here as it is.

use gpu_sim::executor::{ExecMode, Executor};
use gpu_sim::metrics::Metrics;
use sepo_apps::{run_app, AppConfig};
use sepo_core::{canonical_image, crc32c};
use sepo_datagen::App;
use std::sync::Arc;

/// Table I's fourth dataset at 1/16384 of paper size. The four runs of
/// `tests/allocation_layout.rs` keep its 64 KiB heap; Page View Count and
/// Word Count, whose tables are smaller, run on 8 KiB.
const DATASET: usize = 3;
const SCALE: u64 = 16_384;
const HEAP: u64 = 64 * 1024;
const SMALL_HEAP: u64 = 8 * 1024;

/// `(iterations, length, CRC32C)` of one run's canonical image.
fn digest(app: App, heap: u64, combiner: bool) -> (u32, usize, u32) {
    let ds = app.generate(DATASET, SCALE);
    let metrics = Arc::new(Metrics::new());
    let exec = Executor::new(ExecMode::ParallelDeterministic, metrics);
    let cfg = AppConfig::new(heap).with_combiner(combiner);
    let run = run_app(app, &ds, &cfg, &exec);
    let image = canonical_image(&[&run.table]);
    (run.iterations(), image.len(), crc32c(&image))
}

fn check(app: App, heap: u64, combiner: bool, expect: (usize, u32)) {
    let (iterations, len, crc) = digest(app, heap, combiner);
    assert!(iterations >= 3, "{}: the heap must spill", app.name());
    assert_eq!((len, crc), expect, "{}", app.name());
}

#[test]
fn dna_assembly() {
    check(App::DnaAssembly, HEAP, false, (210_872, 3_682_767_322));
}

#[test]
fn patent_citation() {
    check(App::PatentCitation, HEAP, false, (94_704, 3_730_676_881));
}

#[test]
fn inverted_index() {
    check(App::InvertedIndex, HEAP, false, (121_647, 1_583_080_580));
}

#[test]
fn netflix() {
    check(App::Netflix, HEAP, true, (56_452, 4_057_425_064));
}

#[test]
fn page_view_count() {
    check(App::PageViewCount, SMALL_HEAP, false, (55_624, 877_083_500));
}

#[test]
fn geo_location() {
    check(App::GeoLocation, HEAP, false, (79_850, 1_284_357_095));
}

#[test]
fn word_count() {
    check(App::WordCount, SMALL_HEAP, true, (7_852, 1_663_363_684));
}
