//! `ParallelDeterministic` must reproduce itself exactly in everything the
//! repo reports, across executions and inside concurrent harness cells.
//!
//! The bench harness defaults to `ParallelDeterministic` (independent cells
//! run concurrently on the worker pool, each cell's warps inline and in
//! order), so every figure and table rests on this equivalence. The run
//! under test is a forced-eviction PVC run — a small heap pushes it through
//! multiple SEPO iterations, exercising postponement, eviction, and the
//! iteration driver, not just a single happy-path pass.
//!
//! Racing `Parallel` launches promise less — only what depends on a thread
//! block's own lanes — and the block combiner's counters are exactly that;
//! the last test here pins them across worker counts.

use gpu_sim::executor::{ExecMode, Executor};
use gpu_sim::metrics::{Metrics, Snapshot};
use sepo_apps::{pvc, wordcount, AppConfig};
use sepo_datagen::App;
use std::sync::Arc;

/// Everything a bench binary would report from one run, in comparable form.
#[derive(Debug, Clone, PartialEq)]
struct RunReport {
    metrics: Snapshot,
    iterations: u32,
    /// Full per-iteration accounting (kernel snapshots, eviction reports),
    /// compared via its derived Debug rendering: any drifting counter
    /// anywhere in the structure shows up as a string mismatch.
    outcome: String,
    table_stats: String,
    host_footprint: (usize, u64),
}

/// Multi-iteration PVC run: 8 KiB heap forces repeated postpone/evict
/// cycles (same shape as the timing tests in `sepo-bench`).
fn forced_eviction_run(mode: ExecMode) -> RunReport {
    let ds = App::PageViewCount.generate(0, 8192);
    let metrics = Arc::new(Metrics::new());
    let exec = Executor::new(mode, Arc::clone(&metrics));
    let run = pvc::run(&ds, &AppConfig::new(8 * 1024), &exec);
    assert!(
        run.iterations() > 1,
        "the regression run must force evictions (got {} iteration)",
        run.iterations()
    );
    RunReport {
        metrics: metrics.snapshot(),
        iterations: run.iterations(),
        outcome: format!("{:?}", run.outcome),
        table_stats: format!("{:?}", run.table.table_stats()),
        host_footprint: run.table.host_footprint(),
    }
}

#[test]
fn parallel_deterministic_matches_deterministic_across_executions() {
    let reference = forced_eviction_run(ExecMode::ParallelDeterministic);
    // Repeated executions catch run-to-run nondeterminism (e.g. pool state
    // leaking between launches).
    for round in 0..3 {
        let again = forced_eviction_run(ExecMode::ParallelDeterministic);
        assert_eq!(again, reference, "drifted on round {round}");
    }
}

#[test]
fn equivalence_holds_inside_concurrent_harness_cells() {
    // The bench harness runs cells concurrently via the pool's scope; each
    // cell must still reproduce the single-threaded numbers exactly.
    let reference = forced_eviction_run(ExecMode::ParallelDeterministic);
    let reports: Vec<_> = (0..4).map(|_| std::sync::Mutex::new(None)).collect();
    gpu_sim::pool::scope(|s| {
        for slot in &reports {
            s.spawn(move || {
                *slot.lock().unwrap() = Some(forced_eviction_run(ExecMode::ParallelDeterministic));
            });
        }
    });
    for (i, slot) in reports.iter().enumerate() {
        let report = slot.lock().unwrap().take().expect("cell completed");
        assert_eq!(report, reference, "concurrent cell {i} diverged");
    }
}

#[test]
fn block_combiner_counters_do_not_depend_on_worker_count() {
    // Zipf Word Count on an ample heap: no first touch ever postpones, so
    // what a tile absorbs, displaces and flushes is a function of its own
    // block's emit sequence. Blocks are claimed whole and never split
    // across participants (the tail block of a launch is merely short), so
    // racing launches must report the counters of the in-order run.
    let ds = sepo_datagen::text::generate(
        &sepo_datagen::text::TextConfig {
            target_bytes: 256 * 1024,
            vocab_size: 3_000,
            ..Default::default()
        },
        17,
    );
    let counters = |mode| {
        let metrics = Arc::new(Metrics::new());
        let exec = Executor::new(mode, Arc::clone(&metrics));
        let cfg = AppConfig::new(4 << 20).with_combiner(true);
        let run = wordcount::run(&ds, &cfg, &exec);
        assert_eq!(run.iterations(), 1, "the heap must be ample");
        let s = metrics.snapshot();
        (
            s.combiner_hits,
            s.combiner_flushes,
            s.combiner_overflows,
            s.smem_bytes,
        )
    };
    let reference = counters(ExecMode::ParallelDeterministic);
    assert!(reference.0 > 0, "the combiner must absorb emits");
    for workers in [1, 2, 4] {
        assert_eq!(
            counters(ExecMode::Parallel { workers }),
            reference,
            "Parallel {{ workers: {workers} }} diverged"
        );
    }
}
