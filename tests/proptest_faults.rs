//! Properties of the failure paths: the concurrent bitmap at 64-bit word
//! boundaries, and graceful degradation of `SepoDriver::try_run` under
//! randomized transient fault plans — a run either completes with exactly
//! the right counts or returns a typed `SepoError`; it never panics, never
//! loses a key, never double-counts one.

use gpu_sim::executor::{ExecMode, Executor};
use gpu_sim::metrics::Metrics;
use gpu_sim::{FaultConfig, FaultKind, FaultPlan};
use proptest::collection::vec;
use proptest::prelude::*;
use sepo_core::{
    Bitmap, Combiner, DriverConfig, InsertStatus, Organization, SepoDriver, SepoError, SepoTable,
    TableConfig, TaskResult,
};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Bits set concurrently from several threads are all observed, and
    /// `count_set`/`unset_indices` agree at lengths straddling the 64-bit
    /// word boundary (the tail-masking edge).
    #[test]
    fn bitmap_word_boundary_under_concurrent_setters(
        words in 0usize..4,
        tail in 0usize..65,
        picks in vec(0usize..1024, 0..200),
        threads in 2usize..6,
    ) {
        let len = words * 64 + tail;
        let bitmap = Arc::new(Bitmap::new(len));
        let targets: Vec<usize> = if len == 0 {
            Vec::new()
        } else {
            picks.iter().map(|&p| p % len).collect()
        };
        std::thread::scope(|s| {
            for t in 0..threads {
                let bitmap = Arc::clone(&bitmap);
                let slice: Vec<usize> = targets
                    .iter()
                    .copied()
                    .skip(t)
                    .step_by(threads)
                    .collect();
                s.spawn(move || {
                    for i in slice {
                        bitmap.set(i);
                    }
                });
            }
        });
        let distinct: HashSet<usize> = targets.into_iter().collect();
        prop_assert_eq!(bitmap.count_set(), distinct.len());
        let unset = bitmap.unset_indices();
        prop_assert_eq!(unset.len(), len - distinct.len());
        for &i in &unset {
            prop_assert!(i < len, "unset index {} out of bounds {}", i, len);
            prop_assert!(!distinct.contains(&i));
            prop_assert!(!bitmap.get(i));
        }
        for &i in &distinct {
            prop_assert!(bitmap.get(i));
        }
        prop_assert_eq!(bitmap.count_set() == bitmap.len(), distinct.len() == len);
    }

    /// Under a random transient fault plan, `try_run` either completes
    /// with exactly-once semantics or reports a typed error — with the
    /// cross-layer audit verifying every iteration boundary along the way.
    #[test]
    fn try_run_degrades_gracefully_under_random_faults(
        keys in vec(0u16..200, 30..200),
        seed in any::<u64>(),
        abort_rate in 0.0f64..0.5,
        pages in 3usize..8,
    ) {
        let records: Vec<Vec<u8>> = keys
            .iter()
            .map(|k| format!("key-{k:04}").into_bytes())
            .collect();
        let cfg = TableConfig::new(Organization::Combining(Combiner::Add))
            .with_buckets(64)
            .with_buckets_per_group(16)
            .with_page_size(1024);
        let table = SepoTable::new(cfg, (pages * 1024) as u64, Arc::new(Metrics::new()));
        let config = FaultConfig::quiet(seed).rate(FaultKind::LaneAbort, abort_rate);
        let plan = Arc::new(FaultPlan::new(config));
        let exec = Executor::new(ExecMode::ParallelDeterministic, Arc::clone(table.metrics()))
            .with_faults(Arc::clone(&plan));
        let result = SepoDriver::new(&table, &exec)
            .with_config(DriverConfig {
                chunk_tasks: 64,
                audit: true,
                ..DriverConfig::default()
            })
            .try_run(
                records.len(),
                |i| records[i].len() as u64,
                |i, _start, lane| match table.insert_combining(&records[i], 1, lane) {
                    InsertStatus::Success => TaskResult::Done,
                    InsertStatus::Postponed => TaskResult::Postponed { next_pair: 0 },
                },
            );
        match result {
            Ok(outcome) => {
                prop_assert!(outcome.is_complete());
                let mut model: HashMap<Vec<u8>, u64> = HashMap::new();
                for r in &records {
                    *model.entry(r.clone()).or_insert(0) += 1;
                }
                let got: HashMap<Vec<u8>, u64> =
                    table.collect_combining().into_iter().collect();
                prop_assert_eq!(got, model, "a key was lost or double-counted");
                if plan.total_injected() == 0 {
                    // No faults fired: the clean run must finish in one
                    // iteration on a heap this large or iterate normally.
                    prop_assert!(outcome.n_iterations() >= 1);
                }
            }
            // The only acceptable typed failure under pure lane aborts is
            // an exhausted retry budget; anything else is a real bug.
            Err(SepoError::FaultBudgetExhausted { pending, .. }) => {
                prop_assert!(pending > 0);
            }
            Err(e) => return Err(TestCaseError::fail(format!("unexpected error: {e}"))),
        }
    }

    /// The same fault seed yields byte-identical behaviour: iteration
    /// counts, per-iteration completions, injected-fault counts, and the
    /// final table contents all match across two runs.
    #[test]
    fn fixed_fault_seed_reproduces_runs(
        keys in vec(0u16..150, 30..150),
        seed in any::<u64>(),
    ) {
        let records: Vec<Vec<u8>> = keys
            .iter()
            .map(|k| format!("key-{k:04}").into_bytes())
            .collect();
        let run = || {
            let cfg = TableConfig::new(Organization::Combining(Combiner::Add))
                .with_buckets(64)
                .with_buckets_per_group(16)
                .with_page_size(1024);
            let table = SepoTable::new(cfg, 4 * 1024, Arc::new(Metrics::new()));
            let config = FaultConfig::quiet(seed).rate(FaultKind::LaneAbort, 0.15);
            let plan = Arc::new(FaultPlan::new(config));
            let exec = Executor::new(
                ExecMode::ParallelDeterministic,
                Arc::clone(table.metrics()),
            )
            .with_faults(Arc::clone(&plan));
            let outcome = SepoDriver::new(&table, &exec)
                .with_config(DriverConfig {
                    chunk_tasks: 64,
                    audit: true,
                    ..DriverConfig::default()
                })
                .try_run(
                    records.len(),
                    |_| 16,
                    |i, _start, lane| match table.insert_combining(&records[i], 1, lane) {
                        InsertStatus::Success => TaskResult::Done,
                        InsertStatus::Postponed => TaskResult::Postponed { next_pair: 0 },
                    },
                )
                .expect("0.15 abort rate must not exhaust an 8-retry budget");
            let completions: Vec<u64> = outcome
                .iterations
                .iter()
                .map(|i| i.tasks_completed)
                .collect();
            let mut contents = table.collect_combining();
            contents.sort();
            (
                outcome.n_iterations(),
                completions,
                plan.total_injected(),
                plan.draws(FaultKind::LaneAbort),
                contents,
            )
        };
        prop_assert_eq!(run(), run());
    }
}
