//! The block combiner must be invisible in everything but traffic: for all
//! seven paper applications, a run with the combiner on produces the exact
//! results JSON, iteration count, and per-iteration accounting of a run
//! with it off — under `ParallelDeterministic`, with the cross-layer audit
//! on, and under seeded fault injection. Only the MAP_REDUCE mappers (Word
//! Count and Netflix) route through the combiner at all; the others must
//! be untouched by the flag. On skewed Word Count it must also pay for
//! itself: fewer bucket touches and chain hops, no thrashing, bounded
//! shared memory.

use gpu_sim::executor::{ExecMode, Executor};
use gpu_sim::metrics::{Metrics, Snapshot};
use gpu_sim::{FaultConfig, FaultPlan};
use sepo_apps::{run_app, wordcount, AppConfig, AppRun};
use sepo_datagen::text::{self, TextConfig};
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

/// What the combiner did to the hash table's traffic in one Word Count run.
struct Traffic {
    results: String,
    iterations: u32,
    /// Inserts that reached a bucket (the contention histogram's total).
    bucket_touches: u64,
    snapshot: Snapshot,
}

#[test]
fn combiner_absorbs_traffic_on_the_combining_apps() {
    // Word Count over Zipf text with few distinct words (§VI-B), so the
    // hottest words fill whole thread blocks; the heap is ample, so both
    // runs finish in one iteration and the comparison isolates insert
    // traffic from eviction.
    let ds = text::generate(
        &TextConfig {
            target_bytes: 256 * 1024,
            vocab_size: 3_000,
            ..Default::default()
        },
        17,
    );
    let emits: u64 = wordcount::reference(&ds).values().sum();
    let [off, on] = [false, true].map(|combiner| {
        let metrics = Arc::new(Metrics::new());
        let exec = Executor::new(ExecMode::ParallelDeterministic, Arc::clone(&metrics));
        let cfg = AppConfig::new(4 << 20).with_combiner(combiner);
        let run = run_app(App::WordCount, &ds, &cfg, &exec);
        Traffic {
            results: results_json(&run),
            iterations: run.iterations(),
            bucket_touches: run.table.contention_histogram().total_updates(),
            snapshot: metrics.snapshot(),
        }
    });
    let (s, off_s) = (&on.snapshot, &off.snapshot);

    assert_eq!(on.results, off.results, "combiner changed the results");
    assert_eq!(on.iterations, off.iterations, "combiner changed iterations");
    assert_eq!(
        off_s.combiner_hits + off_s.combiner_flushes + off_s.combiner_overflows,
        0,
        "combiner activity with the combiner off"
    );
    assert!(
        on.bucket_touches < off.bucket_touches,
        "bucket touches did not fall: {} on vs {} off",
        on.bucket_touches,
        off.bucket_touches
    );
    assert!(
        s.chain_hops <= off_s.chain_hops,
        "chain hops rose: {} on vs {} off",
        s.chain_hops,
        off_s.chain_hops
    );
    assert!(
        s.combiner_hits * 10 >= emits,
        "{} of {emits} emits absorbed in-block, under 10%",
        s.combiner_hits
    );
    // A displaced slot costs an admit and a flush for nothing; displacing
    // more slots than emits are absorbed is thrashing.
    assert!(
        s.combiner_overflows < s.combiner_hits,
        "combiner thrashes: {} overflows vs {} hits",
        s.combiner_overflows,
        s.combiner_hits
    );
    // A full 8-way set probe (64 B) plus an admit with its key, with room
    // to spare; a whole-buffer walk costs about twice this.
    assert!(
        s.smem_bytes <= 128 * emits,
        "{} B of shared-memory traffic over {emits} emits, over 128 B each",
        s.smem_bytes
    );
}

#[test]
fn netflix_routes_through_the_combiner_and_dna_and_pvc_do_not() {
    // At the 48 KiB heap of the identity tests above: Netflix iterates, so
    // resumed tasks skip the pairs they stored before through the emitter.
    for (app, reaches) in [
        (App::Netflix, true),
        (App::DnaAssembly, false),
        (App::PageViewCount, false),
    ] {
        let ds = app.generate(0, 32_768);
        let [off, on] = [false, true].map(|combiner| {
            let metrics = Arc::new(Metrics::new());
            let exec = Executor::new(ExecMode::ParallelDeterministic, Arc::clone(&metrics));
            let cfg = AppConfig::new(48 * 1024).with_combiner(combiner);
            let run = run_app(app, &ds, &cfg, &exec);
            (run.iterations(), results_json(&run), metrics.snapshot())
        });
        assert_eq!(on.1, off.1, "{}: combiner changed the results", app.name());
        assert_eq!(on.0, off.0, "{}: combiner changed iterations", app.name());
        let (s, off_s) = (&on.2, &off.2);
        assert_eq!(
            s.combiner_hits > 0 && s.combiner_flushes > 0,
            reaches,
            "{}: {} hits, {} flushes",
            app.name(),
            s.combiner_hits,
            s.combiner_flushes
        );
        if reaches {
            assert!(on.0 > 1, "{}: one iteration resumes nothing", app.name());
        } else {
            // Never reached, the tile charges nothing: the whole snapshot
            // is the combiner-off run's.
            assert_eq!(s, off_s, "{}: untouched tile moved a counter", app.name());
        }
    }
}
