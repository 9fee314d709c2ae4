//! Edge cases across the public API surface: degenerate inputs, extreme
//! keys/values, empty runs — things a downstream user will hit on day one.

use gpu_sim::executor::{ExecMode, Executor};
use gpu_sim::metrics::Metrics;
use gpu_sim::NoCharge;
use sepo_core::{
    Combiner, HostStore, InsertStatus, Organization, SepoDriver, SepoTable, TableConfig, TaskResult,
};
use std::sync::Arc;

fn table(org: Organization, heap: u64) -> SepoTable {
    SepoTable::new(
        TableConfig::tuned(org, heap),
        heap,
        Arc::new(Metrics::new()),
    )
}

#[test]
fn empty_driver_run_finishes_immediately() {
    let t = table(Organization::Combining(Combiner::Add), 64 * 1024);
    let e = Executor::new(ExecMode::ParallelDeterministic, Arc::clone(t.metrics()));
    let outcome = SepoDriver::new(&t, &e).run(0, |_| 0, |_, _, _| TaskResult::Done);
    assert_eq!(outcome.n_iterations(), 0);
    assert!(outcome.is_complete());
    assert!(t.collect_combining().is_empty());
}

#[test]
fn empty_key_and_empty_value_are_legal() {
    let t = table(Organization::Combining(Combiner::Add), 64 * 1024);
    let mut ch = NoCharge;
    assert!(t.insert_combining(b"", 5, &mut ch).is_success());
    assert!(t.insert_combining(b"", 7, &mut ch).is_success());
    assert_eq!(t.lookup_combining(b"", &mut ch), Some(12));

    let b = table(Organization::Basic, 64 * 1024);
    assert!(b.insert_basic(b"", b"", &mut ch).is_success());
    b.finalize();
    assert_eq!(b.collect_basic(), vec![(vec![], vec![])]);

    let m = table(Organization::MultiValued, 64 * 1024);
    assert!(m.insert_multivalued(b"k", b"", &mut ch).is_success());
    assert!(m.insert_multivalued(b"", b"v", &mut ch).is_success());
    m.finalize();
    let got = m.collect_multivalued();
    assert_eq!(got.len(), 2);
}

#[test]
fn long_keys_and_values_round_trip() {
    // Keys near the page-size limit (the Inverted Index footnote-4 case:
    // "URLs that are between 5 and thousands of characters").
    let t = table(Organization::Combining(Combiner::Add), 1 << 20);
    let mut ch = NoCharge;
    let long_key = vec![b'u'; 3000];
    assert!(t.insert_combining(&long_key, 1, &mut ch).is_success());
    assert_eq!(t.lookup_combining(&long_key, &mut ch), Some(1));

    let m = table(Organization::MultiValued, 1 << 20);
    let long_val = vec![b'v'; 2500];
    assert!(m
        .insert_multivalued(b"key", &long_val, &mut ch)
        .is_success());
    m.finalize();
    assert_eq!(m.collect_multivalued()[0].1[0], long_val);
}

#[test]
fn key_larger_than_any_page_postpones_forever_but_driver_detects_it() {
    let cfg = TableConfig::new(Organization::Combining(Combiner::Add))
        .with_buckets(16)
        .with_buckets_per_group(4)
        .with_page_size(1024);
    let t = SepoTable::new(cfg, 4 * 1024, Arc::new(Metrics::new()));
    let mut ch = NoCharge;
    let giant = vec![b'x'; 2000];
    assert_eq!(
        t.insert_combining(&giant, 1, &mut ch),
        InsertStatus::Postponed
    );
}

#[test]
fn binary_keys_with_all_byte_values() {
    let t = table(Organization::Combining(Combiner::Add), 1 << 20);
    let mut ch = NoCharge;
    for b in 0..=255u8 {
        let key = [b, 0, b, 255, b];
        assert!(t.insert_combining(&key, b as u64, &mut ch).is_success());
    }
    t.finalize();
    assert_eq!(t.collect_combining().len(), 256);
}

#[test]
fn combiner_variants_behave_distinctly() {
    let mut ch = NoCharge;
    for (comb, a, b, want) in [
        (Combiner::Add, 3u64, 4u64, 7u64),
        (Combiner::Or, 0b101, 0b010, 0b111),
    ] {
        let t = table(Organization::Combining(comb), 64 * 1024);
        t.insert_combining(b"k", a, &mut ch);
        t.insert_combining(b"k", b, &mut ch);
        assert_eq!(t.lookup_combining(b"k", &mut ch), Some(want), "{comb:?}");
    }
}

#[test]
fn host_index_on_empty_table() {
    let t = table(Organization::Combining(Combiner::Add), 64 * 1024);
    t.finalize();
    let idx = HostStore::of_finalized(&t).unwrap();
    assert!(idx.is_empty());
    assert_eq!(idx.get_combined(b"anything"), Ok(None));
}

#[test]
fn lookup_phase_with_no_queries_or_empty_table() {
    let t = table(Organization::Combining(Combiner::Add), 64 * 1024);
    let mut ch = NoCharge;
    t.insert_combining(b"k", 1, &mut ch);
    t.finalize();
    let e = Executor::new(ExecMode::ParallelDeterministic, Arc::clone(t.metrics()));
    let out = t.lookup_phase(&e, &[]);
    assert_eq!(out.hits(), 0);
    assert!(out.results.is_empty());

    // Empty table: one round over zero host pages never runs.
    let empty = table(Organization::Combining(Combiner::Add), 64 * 1024);
    empty.finalize();
    let out = empty.lookup_phase(&e, &[b"k"]);
    assert_eq!(out.results, vec![None]);
    assert_eq!(out.n_rounds(), 0);
}

#[test]
fn datasets_with_single_record() {
    use sepo_datagen::Dataset;
    let mut ds = Dataset::new();
    ds.push_record(b"GET http://only.example.com/ 200 1\n");
    let metrics = Arc::new(Metrics::new());
    let exec = Executor::new(ExecMode::ParallelDeterministic, Arc::clone(&metrics));
    let run = sepo_apps::pvc::run(&ds, &sepo_apps::AppConfig::new(1 << 20), &exec);
    assert_eq!(run.iterations(), 1);
    assert_eq!(run.table.collect_combining().len(), 1);
}

#[test]
fn driver_handles_tasks_that_do_nothing() {
    // Malformed records (the apps' parse-failure path) complete without
    // inserting anything.
    let t = table(Organization::Combining(Combiner::Add), 64 * 1024);
    let e = Executor::new(ExecMode::ParallelDeterministic, Arc::clone(t.metrics()));
    let outcome = SepoDriver::new(&t, &e).run(100, |_| 8, |_, _, _| TaskResult::Done);
    assert_eq!(outcome.n_iterations(), 1);
    assert!(outcome.is_complete());
    t.collect_combining();
}
