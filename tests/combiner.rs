//! The block combiner must be invisible in everything but traffic: for all
//! seven paper applications, a run with the combiner on produces the exact
//! results JSON, iteration count, and per-iteration accounting of a run
//! with it off — under `ParallelDeterministic`, with the cross-layer audit
//! on, and under seeded fault injection. Only the combining-organization
//! apps route through the combiner at all; the others must be untouched
//! by the flag.

use gpu_sim::executor::{ExecMode, Executor};
use gpu_sim::metrics::Metrics;
use gpu_sim::{FaultConfig, FaultPlan};
use sepo_apps::{run_app, AppConfig, AppRun};
use sepo_datagen::App;
use std::sync::Arc;

/// Results as the canonical JSON string the repo's result files use:
/// sorted keys, values sorted within each key.
fn results_json(run: &AppRun) -> String {
    let mut grouped = run.table.collect_grouped();
    for (_, vs) in grouped.iter_mut() {
        vs.sort();
    }
    grouped.sort();
    let mut map = serde_json::Map::new();
    for (k, vs) in grouped {
        map.insert(
            String::from_utf8_lossy(&k).into_owned(),
            serde_json::json!(vs
                .iter()
                .map(|v| String::from_utf8_lossy(v).into_owned())
                .collect::<Vec<_>>()),
        );
    }
    serde_json::to_string(&serde_json::Value::Object(map)).expect("serialize results")
}

struct Observed {
    results: String,
    iterations: u32,
    /// Per-iteration accounting (task counts, chunking, evictions) via a
    /// Debug rendering that excludes the kernel metric deltas — those
    /// legitimately shrink with the combiner on; nothing else may move.
    outcome: String,
}

/// Render the outcome without each iteration's `kernel` metrics snapshot.
fn outcome_sans_metrics(run: &AppRun) -> String {
    use std::fmt::Write;
    let o = &run.outcome;
    let mut s = String::new();
    for it in &o.iterations {
        write!(
            s,
            "iter {} attempted {} completed {} input {} chunks {} evict {:?} halted {}; ",
            it.iteration,
            it.tasks_attempted,
            it.tasks_completed,
            it.input_bytes,
            it.chunks,
            it.evict,
            it.halted_early
        )
        .unwrap();
    }
    write!(
        s,
        "total {} final_evict {:?} pending {}",
        o.total_tasks, o.final_evict, o.pending_tasks
    )
    .unwrap();
    s
}

fn observed_run(
    app: App,
    ds: &sepo_datagen::Dataset,
    combiner: bool,
    faults: Option<u64>,
) -> Observed {
    let metrics = Arc::new(Metrics::new());
    let mut exec = Executor::new(ExecMode::ParallelDeterministic, Arc::clone(&metrics));
    if let Some(seed) = faults {
        exec = exec.with_faults(Arc::new(FaultPlan::new(FaultConfig::standard(seed))));
    }
    let cfg = AppConfig::new(48 * 1024)
        .with_audit(true)
        .with_combiner(combiner);
    let run = run_app(app, ds, &cfg, &exec);
    assert!(run.outcome.is_complete(), "{}", app.name());
    Observed {
        results: results_json(&run),
        iterations: run.iterations(),
        outcome: outcome_sans_metrics(&run),
    }
}

#[test]
fn combiner_is_invisible_in_results_for_every_app() {
    // 48 KiB heap: forces multiple SEPO iterations for most apps, so the
    // equality also covers postponement bookkeeping and resume points.
    for app in App::ALL {
        let ds = app.generate(0, 32_768);
        let off = observed_run(app, &ds, false, None);
        let on = observed_run(app, &ds, true, None);
        assert_eq!(
            on.results,
            off.results,
            "{}: combiner changed the results JSON",
            app.name()
        );
        assert_eq!(
            on.iterations,
            off.iterations,
            "{}: combiner changed the iteration count",
            app.name()
        );
        assert_eq!(
            on.outcome,
            off.outcome,
            "{}: combiner shifted per-iteration accounting",
            app.name()
        );
    }
}

#[test]
fn combiner_is_invisible_under_seeded_faults() {
    // Injected lane aborts hit the same draws either way: first touches go
    // through the real insert path inline, so the fault sequence — and
    // everything downstream of it — must be identical.
    for app in App::ALL {
        let ds = app.generate(0, 32_768);
        let off = observed_run(app, &ds, false, Some(1234));
        let on = observed_run(app, &ds, true, Some(1234));
        assert_eq!(
            on.results,
            off.results,
            "{}: combiner changed faulted results",
            app.name()
        );
        assert_eq!(
            on.iterations,
            off.iterations,
            "{}: combiner changed faulted iteration count",
            app.name()
        );
        assert_eq!(
            on.outcome,
            off.outcome,
            "{}: combiner shifted faulted accounting",
            app.name()
        );
    }
}

#[test]
fn combiner_absorbs_traffic_on_the_combining_apps() {
    // Sanity that the flag is actually wired: Word Count (Zipf text) must
    // register combiner activity when on, and none when off.
    let ds = App::WordCount.generate(0, 32_768);
    for (combiner, expect_hits) in [(false, false), (true, true)] {
        let metrics = Arc::new(Metrics::new());
        let exec = Executor::new(ExecMode::ParallelDeterministic, Arc::clone(&metrics));
        let cfg = AppConfig::new(1 << 20).with_combiner(combiner);
        let _ = run_app(App::WordCount, &ds, &cfg, &exec);
        let s = metrics.snapshot();
        assert_eq!(
            s.combiner_hits + s.combiner_flushes > 0,
            expect_hits,
            "combiner={combiner} hits={} flushes={}",
            s.combiner_hits,
            s.combiner_flushes
        );
    }
}
