//! Invariants of the SEPO model itself (§III-B), verified end to end
//! through the driver.

use gpu_sim::executor::{ExecMode, Executor};
use gpu_sim::metrics::Metrics;
use proptest::collection::vec;
use proptest::prelude::*;
use sepo_alloc::PageKind;
use sepo_core::entry::{EntryKind, PageWalker, ParsedEntry};
use sepo_core::{
    Combiner, DriverConfig, InsertStatus, Organization, SepoDriver, SepoTable, TableConfig,
    TaskResult,
};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

fn table(org: Organization, pages: usize) -> SepoTable {
    let cfg = TableConfig::new(org)
        .with_buckets(64)
        .with_buckets_per_group(16)
        .with_page_size(1024);
    SepoTable::new(cfg, (pages * 1024) as u64, Arc::new(Metrics::new()))
}

fn drive_combining(t: &SepoTable, records: &[Vec<u8>]) -> sepo_core::SepoOutcome {
    let exec = Executor::new(ExecMode::ParallelDeterministic, Arc::clone(t.metrics()));
    SepoDriver::new(t, &exec).run(
        records.len(),
        |i| records[i].len() as u64,
        |i, _start, lane| match t.insert_combining(&records[i], 1, lane) {
            InsertStatus::Success => TaskResult::Done,
            InsertStatus::Postponed => TaskResult::Postponed { next_pair: 0 },
        },
    )
}

/// §III-B's combining invariant: with one pair per record, each distinct
/// key is stored in *exactly one* host entry — "all pairs (generated from
/// the input) with the same keys will have already been successfully
/// inserted/combined" before eviction.
#[test]
fn combining_single_pair_tasks_yield_one_entry_per_key() {
    let t = table(Organization::Combining(Combiner::Add), 2);
    let records: Vec<Vec<u8>> = (0..600)
        .map(|i| format!("key-{:04}", i % 150).into_bytes())
        .collect();
    let outcome = drive_combining(&t, &records);
    assert!(outcome.n_iterations() > 1, "needs memory pressure");
    assert_eq!(
        outcome.compaction, None,
        "host compaction had nothing to fold"
    );
    // Count raw host entries per key.
    let mut entry_count: HashMap<Vec<u8>, u32> = HashMap::new();
    for page in t.host_heap().pages() {
        assert_eq!(page.kind(), PageKind::Mixed);
        let page = page.verify().expect("clean run");
        for (_, e) in PageWalker::new(page.bytes(), EntryKind::Combining) {
            if let ParsedEntry::Combining { key, .. } = e {
                *entry_count.entry(key.to_vec()).or_insert(0) += 1;
            }
        }
    }
    assert_eq!(entry_count.len(), 150);
    for (k, n) in entry_count {
        assert_eq!(
            n,
            1,
            "key {} has {} host entries",
            String::from_utf8_lossy(&k),
            n
        );
    }
}

/// The driver's restart discipline: tasks attempted per iteration strictly
/// decrease, and every task is attempted at least once per iteration while
/// pending.
#[test]
fn pending_set_shrinks_monotonically() {
    let t = table(Organization::Combining(Combiner::Add), 2);
    let records: Vec<Vec<u8>> = (0..500).map(|i| format!("k{i:05}").into_bytes()).collect();
    let outcome = drive_combining(&t, &records);
    assert!(outcome.n_iterations() >= 3);
    let attempts: Vec<u64> = outcome
        .iterations
        .iter()
        .map(|i| i.tasks_attempted)
        .collect();
    for w in attempts.windows(2) {
        assert!(w[1] < w[0], "pending set failed to shrink: {attempts:?}");
    }
    // Completions sum to the task count.
    let done: u64 = outcome.iterations.iter().map(|i| i.tasks_completed).sum();
    assert_eq!(done, 500);
}

/// Eviction accounting: bytes shipped to the host equal the host heap's
/// stored volume before host compaction — the audit checks every
/// boundary's `EvictReport` against the host heap, and the compaction
/// report starts from the same total — and the device ends empty. After
/// compaction the host holds exactly one entry's bytes per key.
#[test]
fn eviction_accounting_balances() {
    let t = table(Organization::Combining(Combiner::Add), 3);
    // Three pairs per record over 150 keys: keys recur across iterations.
    let keys: Vec<Vec<u8>> = (0..150)
        .map(|i| format!("key-{i:05}").into_bytes())
        .collect();
    let exec = Executor::new(ExecMode::ParallelDeterministic, Arc::clone(t.metrics()));
    let outcome = SepoDriver::new(&t, &exec)
        .with_config(DriverConfig {
            audit: true,
            ..DriverConfig::default()
        })
        .run(
            400,
            |_| 24,
            |i, start, lane| {
                for p in start..3 {
                    let key = &keys[(i * 7 + p as usize * 31) % keys.len()];
                    if !t.insert_combining(key, 1, lane).is_success() {
                        return TaskResult::Postponed { next_pair: p };
                    }
                }
                TaskResult::Done
            },
        );
    let shipped = outcome.total_evicted_bytes();
    let compaction = outcome.compaction.expect("recurring keys leave partials");
    assert_eq!(
        shipped, compaction.bytes_before,
        "bytes shipped != bytes stored host-side"
    );
    let (_, stored) = t.host_footprint();
    let collected = t.collect_combining();
    assert_eq!(collected.len(), keys.len());
    let packed: usize = collected
        .iter()
        .map(|(k, _)| sepo_core::entry::combining::size(k.len()))
        .sum();
    assert_eq!(stored, packed as u64);
    assert_eq!(stored, compaction.bytes_after);
    assert!(stored < shipped);
    assert_eq!(t.heap().free_pages(), t.heap().total_pages());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// SEPO is order- and pressure-oblivious: any heap size produces the
    /// same final results as an unbounded one (the §III requirement that
    /// tasks tolerate arbitrary processing order).
    #[test]
    fn results_invariant_under_heap_size(
        keys in vec(0u16..300, 50..400),
        pages in 2usize..20,
    ) {
        let records: Vec<Vec<u8>> =
            keys.iter().map(|k| format!("key-{k:04}").into_bytes()).collect();
        let small = table(Organization::Combining(Combiner::Add), pages);
        drive_combining(&small, &records);
        let big = table(Organization::Combining(Combiner::Add), 512);
        let big_outcome = drive_combining(&big, &records);
        prop_assert_eq!(big_outcome.n_iterations(), 1);
        let mut a = small.collect_combining();
        let mut b = big.collect_combining();
        a.sort();
        b.sort();
        prop_assert_eq!(a, b);
    }

    /// The multi-valued organization never loses or duplicates a value,
    /// whatever mixture of keys arrives.
    #[test]
    fn multivalued_conserves_values(keys in vec(0u8..30, 20..250)) {
        let t = table(Organization::MultiValued, 4);
        let records: Vec<(Vec<u8>, Vec<u8>)> = keys
            .iter()
            .enumerate()
            .map(|(i, k)| {
                (format!("key-{k:02}").into_bytes(), format!("value-{i:05}").into_bytes())
            })
            .collect();
        let exec = Executor::new(ExecMode::ParallelDeterministic, Arc::clone(t.metrics()));
        SepoDriver::new(&t, &exec).run(
            records.len(),
            |_| 16,
            |i, _start, lane| {
                let (k, v) = &records[i];
                match t.insert_multivalued(k, v, lane) {
                    InsertStatus::Success => TaskResult::Done,
                    InsertStatus::Postponed => TaskResult::Postponed { next_pair: 0 },
                }
            },
        );
        let got: HashSet<(Vec<u8>, Vec<u8>)> = t
            .collect_multivalued()
            .into_iter()
            .flat_map(|(k, vs)| vs.into_iter().map(move |v| (k.clone(), v)))
            .collect();
        let want: HashSet<(Vec<u8>, Vec<u8>)> = records.into_iter().collect();
        prop_assert_eq!(got, want);
    }
}
