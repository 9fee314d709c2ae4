//! Seeded chaos harness: kill every application mid-run, resume it from
//! the last iteration-boundary checkpoint, and prove the recovery left no
//! trace.
//!
//! For each of the seven §VI applications this runs an unkilled baseline
//! (parallel-deterministic executor, audit and sanitizer on) and then a
//! chaos run with hard device faults injected at elevated per-launch
//! rates and in-memory checkpointing enabled.
//! Seeds are swept until at least one hard fault actually strikes, so the
//! comparison always covers a real kill-and-resume. The recovered run must
//! match the baseline **byte for byte**: saved table image, per-iteration
//! completion trajectory, and the full metrics snapshot.
//!
//! Writes `results/BENCH_chaos.json` recording per-app
//! recovery counts, replayed iterations, checkpoint sizes, and wall-clock
//! overhead, and exits non-zero if any app's recovery is not invisible.

use gpu_sim::{FaultConfig, FaultPlan, HardFaultConfig};
use sepo_bench::harness::{
    instrumented_run, require, standard_config, standard_executor, BenchRun, REGRESSION_SCALE,
};
use sepo_core::CheckpointPolicy;
use sepo_datagen::{App, Dataset};

/// Records per app — the tests' forced multi-iteration scale.
const SCALE: u64 = REGRESSION_SCALE;
/// Device heap small enough that every app needs several iterations, so
/// kills land both before and after eviction boundaries.
const HEAP_BYTES: u64 = 96 << 10;
/// Tasks per kernel launch. The scaled datasets hold a few hundred to a
/// few thousand records, so the default chunk (8192) would mean one
/// launch — one kill-point — per iteration. Chunking small gives every
/// run dozens of kill-points spread across each iteration's interior.
const CHUNK_TASKS: usize = 32;
/// Per-launch hard-fault rates. Higher than `HardFaultConfig::standard`
/// (the CLI's long-haul mix) so these short runs reliably see several
/// kills per seed.
const DEVICE_LOSS_RATE: f64 = 0.05;
const POISONED_LAUNCH_RATE: f64 = 0.02;
/// Seeds tried per app before giving up on provoking a hard fault. At the
/// above per-launch rates a multi-chunk run is overwhelmingly likely to
/// be struck, so the sweep almost always stops at the first seed.
const MAX_SEED_TRIES: u64 = 20;
/// First chaos seed per app (successive tries increment from here).
const BASE_SEED: u64 = 0x5EED_C0DE;

/// One audited + sanitized run. `chaos_seed` arms hard faults (quiet
/// transient rates, elevated hard rates) plus in-memory checkpointing.
fn run_once(app: App, ds: &Dataset, chaos_seed: Option<u64>) -> BenchRun {
    let faults = chaos_seed.map(|seed| {
        FaultPlan::new(FaultConfig::quiet(seed)).with_hard(HardFaultConfig {
            seed,
            device_loss_rate: DEVICE_LOSS_RATE,
            poisoned_launch_rate: POISONED_LAUNCH_RATE,
        })
    });
    let exec = standard_executor(faults);
    let mut cfg = standard_config(HEAP_BYTES, CHUNK_TASKS);
    if chaos_seed.is_some() {
        cfg = cfg
            .with_checkpoint(CheckpointPolicy::Memory)
            .with_max_recoveries(10_000);
    }
    instrumented_run(app, ds, &cfg, &exec)
}

fn main() {
    let mut rows = Vec::new();
    let mut failed = false;
    let mut total_recoveries = 0u32;
    let mut total_replays = 0u32;

    for app in App::ALL {
        let ds = app.generate(0, SCALE);
        let baseline = run_once(app, &ds, None);

        // Sweep seeds until a hard fault actually kills the run at least
        // once; an unkilled chaos run would prove nothing.
        let mut chaos = None;
        let mut seed_tries = 0u64;
        for t in 0..MAX_SEED_TRIES {
            let seed = BASE_SEED + t;
            let run = run_once(app, &ds, Some(seed));
            seed_tries = t + 1;
            if run.run.outcome.recovery.recoveries >= 1 {
                chaos = Some((seed, run));
                break;
            }
        }
        let Some((seed, chaos)) = chaos else {
            eprintln!(
                "FAIL: {}: no hard fault struck in {MAX_SEED_TRIES} seeds",
                app.name()
            );
            failed = true;
            continue;
        };

        let image_ok = require(
            app.name(),
            "resumed table image identical",
            chaos.image == baseline.image,
        );
        let traj_ok = require(
            app.name(),
            "resumed trajectory identical",
            chaos.trajectory == baseline.trajectory,
        );
        let metrics_ok = require(
            app.name(),
            "resumed metrics snapshot identical",
            chaos.snapshot == baseline.snapshot,
        );
        failed |= !(image_ok && traj_ok && metrics_ok);

        let recovery = &chaos.run.outcome.recovery;
        let overhead = chaos.secs / baseline.secs.max(1e-9);
        total_recoveries += recovery.recoveries;
        total_replays += recovery.replayed_iterations;
        println!(
            "{:>15}: {:>2} recoveries, {:>2} iterations replayed ({} clean), \
             {:>3} checkpoints ({} B latest), {:.2}x wall vs unkilled, seed {seed:#x}",
            app.name(),
            recovery.recoveries,
            recovery.replayed_iterations,
            chaos.iterations(),
            recovery.checkpoints_taken,
            recovery.checkpoint_bytes,
            overhead,
        );
        rows.push(serde_json::json!({
            "app": app.name(),
            "seed": seed,
            "seed_tries": seed_tries,
            "iterations": chaos.iterations(),
            "recoveries": recovery.recoveries,
            "replayed_iterations": recovery.replayed_iterations,
            "checkpoints_taken": recovery.checkpoints_taken,
            "checkpoint_bytes": recovery.checkpoint_bytes,
            "image_bytes": baseline.image.len(),
            "baseline_secs": baseline.secs,
            "chaos_secs": chaos.secs,
            "wall_overhead": overhead,
            "image_identical": image_ok,
            "trajectory_identical": traj_ok,
            "metrics_identical": metrics_ok,
        }));
    }

    let report = serde_json::json!({
        "bench": "seeded chaos: hard-fault kill + checkpoint resume, all apps",
        "scale": SCALE,
        "heap_bytes": HEAP_BYTES,
        "chunk_tasks": CHUNK_TASKS,
        "device_loss_rate": DEVICE_LOSS_RATE,
        "poisoned_launch_rate": POISONED_LAUNCH_RATE,
        "checkpoint_policy": "memory, every iteration boundary",
        "apps": rows,
        "total_recoveries": total_recoveries,
        "total_replayed_iterations": total_replays,
        "all_identical": !failed,
    });
    sepo_bench::write_json("BENCH_chaos", &report);
    println!(
        "\n{} recoveries across {} apps, {} iterations replayed; wrote results/BENCH_chaos.json",
        total_recoveries,
        App::ALL.len(),
        total_replays
    );
    if failed {
        std::process::exit(1);
    }
}
