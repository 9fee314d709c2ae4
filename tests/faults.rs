//! Graceful degradation at application scope: every paper app runs with
//! the cross-layer audit on, injected faults never change *what* is
//! computed, and a fixed fault seed reproduces a run byte-for-byte.

use gpu_sim::executor::{ExecMode, Executor};
use gpu_sim::metrics::Metrics;
use gpu_sim::{FaultConfig, FaultKind, FaultPlan, SystemSpec};
use sepo_apps::{run_app, AppConfig, AppRun};
use sepo_datagen::App;
use std::collections::HashMap;
use std::sync::Arc;

/// Normalized results: key -> sorted values.
fn normalized(run: &AppRun) -> HashMap<Vec<u8>, Vec<Vec<u8>>> {
    run.table
        .collect_grouped()
        .into_iter()
        .map(|(k, mut vs)| {
            vs.sort();
            (k, vs)
        })
        .collect()
}

fn audited_run(app: App, ds: &sepo_datagen::Dataset, heap: u64, mode: ExecMode) -> AppRun {
    let exec = Executor::new(mode, Arc::new(Metrics::new()));
    run_app(app, ds, &AppConfig::new(heap).with_audit(true), &exec)
}

#[test]
fn every_app_passes_the_audit_under_memory_pressure() {
    // Tiny heap forces multiple iterations (and therefore many audited
    // boundaries) for most apps; the audit panics on any violation.
    for app in App::ALL {
        let ds = app.generate(0, 32_768);
        let run = audited_run(app, &ds, 24 * 1024, ExecMode::ParallelDeterministic);
        assert!(run.outcome.is_complete(), "{}", app.name());
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "minutes under debug; exercised by the release CI pass"
)]
fn every_app_passes_the_audit_at_default_scale() {
    // The acceptance configuration: all seven paper apps at the default
    // 1/256 scale with the paper's heap fraction, audit on.
    let spec = SystemSpec::scaled(256);
    let heap = (spec.device.memory_bytes as f64 * 0.45) as u64;
    for app in App::ALL {
        let ds = app.generate(0, 256);
        let run = audited_run(app, &ds, heap, ExecMode::ParallelDeterministic);
        assert!(run.outcome.is_complete(), "{}", app.name());
    }
}

fn faulted_pvc(seed: u64) -> (AppRun, u64, u64) {
    let ds = App::PageViewCount.generate(0, 32_768);
    // The standard rates rarely fire on a dataset this small; raise the
    // lane-abort rate so the reproducibility claim covers real injections.
    let plan = Arc::new(FaultPlan::new(
        FaultConfig::standard(seed).rate(FaultKind::LaneAbort, 0.1),
    ));
    let exec = Executor::new(ExecMode::ParallelDeterministic, Arc::new(Metrics::new()))
        .with_faults(Arc::clone(&plan));
    let run = run_app(
        App::PageViewCount,
        &ds,
        &AppConfig::new(24 * 1024).with_audit(true),
        &exec,
    );
    (run, plan.total_injected(), plan.draws(FaultKind::LaneAbort))
}

/// Serialize the outcome fields a results file would carry; key order is
/// insertion order, so equal strings mean equal JSON bytes.
fn outcome_json(run: &AppRun) -> String {
    let iters: Vec<serde_json::Value> = run
        .outcome
        .iterations
        .iter()
        .map(|i| {
            serde_json::json!({
                "iteration": i.iteration,
                "tasks_attempted": i.tasks_attempted,
                "tasks_completed": i.tasks_completed,
                "input_bytes": i.input_bytes,
                "evicted_bytes": i.evict.evicted_bytes,
                "kept_bytes": i.evict.kept_bytes,
            })
        })
        .collect();
    serde_json::to_string(&serde_json::json!({
        "iterations": iters,
        "total_tasks": run.outcome.total_tasks,
        "pending_tasks": run.outcome.pending_tasks,
        "total_evicted_bytes": run.outcome.total_evicted_bytes(),
    }))
    .unwrap()
}

#[test]
fn fixed_fault_seed_reproduces_iterations_and_results_json() {
    let (a, a_injected, a_draws) = faulted_pvc(0xDEAD_BEEF);
    let (b, b_injected, b_draws) = faulted_pvc(0xDEAD_BEEF);
    assert!(a_injected > 0, "the plan must actually inject faults");
    assert_eq!(a_injected, b_injected);
    assert_eq!(a_draws, b_draws);
    assert_eq!(a.iterations(), b.iterations());
    assert_eq!(outcome_json(&a), outcome_json(&b));
    assert_eq!(normalized(&a), normalized(&b));
}

#[test]
fn injected_faults_never_change_the_results() {
    // A clean run and a heavily-faulted run of the same workload must
    // agree on the final table exactly — faults cost iterations, not
    // correctness.
    let ds = App::WordCount.generate(0, 32_768);
    let clean = audited_run(
        App::WordCount,
        &ds,
        24 * 1024,
        ExecMode::ParallelDeterministic,
    );
    let plan = Arc::new(FaultPlan::new(
        FaultConfig::quiet(99).rate(FaultKind::LaneAbort, 0.2),
    ));
    let exec = Executor::new(ExecMode::ParallelDeterministic, Arc::new(Metrics::new()))
        .with_faults(Arc::clone(&plan));
    let faulted = run_app(
        App::WordCount,
        &ds,
        &AppConfig::new(24 * 1024).with_audit(true),
        &exec,
    );
    assert!(plan.total_injected() > 0);
    assert!(
        faulted.iterations() >= clean.iterations(),
        "faults may only add iterations"
    );
    assert_eq!(normalized(&clean), normalized(&faulted));
}
