//! Driver-level properties: results must be invariant under every knob the
//! SEPO driver exposes — chunk size, halt threshold, executor mode — since
//! none of them may change *what* is computed, only *when*.

use gpu_sim::executor::{ExecMode, Executor};
use gpu_sim::metrics::Metrics;
use proptest::collection::vec;
use proptest::prelude::*;
use sepo_core::{
    Combiner, DriverConfig, InsertStatus, Organization, SepoDriver, SepoTable, TableConfig,
    TaskResult,
};
use std::collections::HashMap;
use std::sync::Arc;

fn run_with(
    records: &[Vec<u8>],
    pages: usize,
    chunk_tasks: usize,
    threshold: f64,
    org: Organization,
    mode: ExecMode,
) -> Vec<(Vec<u8>, u64)> {
    let cfg = TableConfig::new(org)
        .with_buckets(64)
        .with_buckets_per_group(16)
        .with_page_size(1024)
        .with_halt_threshold(threshold);
    let table = SepoTable::new(cfg, (pages * 1024) as u64, Arc::new(Metrics::new()));
    let exec = Executor::new(mode, Arc::clone(table.metrics()));
    SepoDriver::new(&table, &exec)
        .with_config(DriverConfig {
            chunk_tasks,
            audit: true,
            ..DriverConfig::default()
        })
        .run(
            records.len(),
            |i| records[i].len() as u64,
            |i, _start, lane| match table.insert_combining(&records[i], 1, lane) {
                InsertStatus::Success => TaskResult::Done,
                InsertStatus::Postponed => TaskResult::Postponed { next_pair: 0 },
            },
        );
    let mut out = table.collect_combining();
    out.sort();
    out
}

fn records_from(keys: &[u16]) -> Vec<Vec<u8>> {
    keys.iter()
        .map(|k| format!("key-{k:04}").into_bytes())
        .collect()
}

fn model(records: &[Vec<u8>]) -> Vec<(Vec<u8>, u64)> {
    let mut m: HashMap<Vec<u8>, u64> = HashMap::new();
    for r in records {
        *m.entry(r.clone()).or_insert(0) += 1;
    }
    let mut v: Vec<_> = m.into_iter().collect();
    v.sort();
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Chunk size never changes the results.
    #[test]
    fn results_invariant_under_chunk_size(
        keys in vec(0u16..200, 50..300),
        chunk in 1usize..128,
    ) {
        let records = records_from(&keys);
        let got = run_with(
            &records, 3, chunk, 0.5,
            Organization::Combining(Combiner::Add),
            ExecMode::ParallelDeterministic,
        );
        prop_assert_eq!(got, model(&records));
    }

    /// Parallel execution computes the same results as deterministic.
    #[test]
    fn results_invariant_under_parallelism(
        keys in vec(0u16..150, 50..250),
        workers in 2usize..8,
    ) {
        let records = records_from(&keys);
        let det = run_with(
            &records, 3, 64, 0.5,
            Organization::Combining(Combiner::Add),
            ExecMode::ParallelDeterministic,
        );
        let par = run_with(
            &records, 3, 64, 0.5,
            Organization::Combining(Combiner::Add),
            ExecMode::Parallel { workers },
        );
        prop_assert_eq!(det, par);
    }

    /// The basic method's halt threshold affects scheduling only: the final
    /// multiset of stored pairs is identical at any threshold.
    #[test]
    fn basic_results_invariant_under_threshold(
        keys in vec(0u16..300, 50..250),
        threshold in 0.0f64..1.0,
        chunk in 4usize..64,
    ) {
        let records = records_from(&keys);
        let run_basic = |thr: f64| {
            let cfg = TableConfig::new(Organization::Basic)
                .with_buckets(64)
                .with_buckets_per_group(16)
                .with_page_size(1024)
                .with_halt_threshold(thr);
            let table = SepoTable::new(cfg, 3 * 1024, Arc::new(Metrics::new()));
            let exec = Executor::new(ExecMode::ParallelDeterministic, Arc::clone(table.metrics()));
            SepoDriver::new(&table, &exec)
                .with_config(DriverConfig { chunk_tasks: chunk, audit: true, ..DriverConfig::default() })
                .run(
                    records.len(),
                    |_| 16,
                    |i, _start, lane| match table.insert_basic(&records[i], b"v", lane) {
                        InsertStatus::Success => TaskResult::Done,
                        InsertStatus::Postponed => TaskResult::Postponed { next_pair: 0 },
                    },
                );
            let mut out = table.collect_basic();
            out.sort();
            out
        };
        prop_assert_eq!(run_basic(threshold), run_basic(0.5));
    }
}
