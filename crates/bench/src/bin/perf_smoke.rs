//! Launch-throughput smoke check, tracked from PR to PR.
//!
//! Measures empty-kernel launch throughput of the pool-backed executor and
//! compares it against a faithful reproduction of the pre-pool executor
//! (one `std::thread::scope` spawn/join set per launch, one warp claimed
//! per `fetch_add`, five shared-atomic metric updates per warp). Writes
//! `results/BENCH_gpu_sim.json` so the perf trajectory
//! is machine-readable.

use gpu_sim::executor::{ExecMode, Executor};
use gpu_sim::metrics::Metrics;
use gpu_sim::spec::WARP_SIZE;
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Tasks per launch: enough warps (32) that the old claim loop is
/// exercised, small enough that fixed per-launch cost dominates.
const TASKS: usize = 1_024;
/// Launches per measurement.
const LAUNCHES: usize = 300;

/// The executor as it was before the worker pool: spawn worker threads for
/// every launch, claim one warp per `fetch_add`, account every warp with
/// shared atomic read-modify-writes.
fn spawn_per_launch_reference(n_tasks: usize, workers: usize, metrics: &Metrics) {
    let n_warps = n_tasks.div_ceil(WARP_SIZE);
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| {
                loop {
                    let w = cursor.fetch_add(1, Ordering::Relaxed);
                    if w >= n_warps {
                        break;
                    }
                    for lane in 0..WARP_SIZE.min(n_tasks - w * WARP_SIZE) {
                        black_box(w * WARP_SIZE + lane);
                    }
                    // The five per-warp shared-counter updates the old
                    // executor performed.
                    metrics.add_compute_units(1);
                    metrics.add_stream_bytes(0);
                    metrics.add_device_bytes(0);
                    metrics.add_chain_hops(0);
                    metrics.add_divergence_events(0);
                }
            });
        }
    });
    metrics.add_tasks(n_tasks as u64);
}

struct Measurement {
    launches_per_sec: f64,
    tasks_per_sec: f64,
}

fn measure(mut launch: impl FnMut()) -> Measurement {
    // Warm-up (first pool use, thread caches).
    for _ in 0..10 {
        launch();
    }
    let start = Instant::now();
    for _ in 0..LAUNCHES {
        launch();
    }
    let secs = start.elapsed().as_secs_f64();
    Measurement {
        launches_per_sec: LAUNCHES as f64 / secs,
        tasks_per_sec: (LAUNCHES * TASKS) as f64 / secs,
    }
}

fn main() {
    let pool = gpu_sim::pool::WorkerPool::global();
    let workers = pool.workers();

    let old_metrics = Metrics::new();
    let old = measure(|| spawn_per_launch_reference(TASKS, workers.max(1), &old_metrics));

    let mut rows = Vec::new();
    let mut pooled = Vec::new();
    for (mode, label) in [
        (ExecMode::ParallelDeterministic, "parallel_deterministic"),
        (ExecMode::Parallel { workers: 0 }, "parallel"),
    ] {
        let exec = Executor::new(mode, Arc::new(Metrics::new()));
        let m = measure(|| {
            exec.launch(TASKS, |ctx| {
                black_box(ctx.task());
            });
        });
        println!(
            "{label:>24}: {:>12.0} launches/s {:>14.0} tasks/s ({:.1}x vs spawn-per-launch)",
            m.launches_per_sec,
            m.tasks_per_sec,
            m.launches_per_sec / old.launches_per_sec,
        );
        rows.push(serde_json::json!({
            "mode": label,
            "launches_per_sec": m.launches_per_sec,
            "tasks_per_sec": m.tasks_per_sec,
            "speedup_vs_spawn_per_launch": m.launches_per_sec / old.launches_per_sec,
        }));
        pooled.push(m);
    }
    println!(
        "{:>24}: {:>12.0} launches/s {:>14.0} tasks/s (pre-pool reference, {} workers)",
        "spawn_per_launch",
        old.launches_per_sec,
        old.tasks_per_sec,
        workers.max(1)
    );

    let best = pooled
        .iter()
        .map(|m| m.launches_per_sec)
        .fold(0.0_f64, f64::max);
    let report = serde_json::json!({
        "bench": "empty-kernel launch throughput",
        "tasks_per_launch": TASKS,
        "launches": LAUNCHES,
        "pool_workers": workers,
        "available_parallelism": sepo_bench::host_parallelism(),
        "single_cpu_warning": sepo_bench::single_cpu_warning("perf_smoke"),
        "pool_startups": gpu_sim::pool::startup_count(),
        "threads_spawned": gpu_sim::pool::threads_spawned(),
        "modes": rows,
        "spawn_per_launch_reference": serde_json::json!({
            "launches_per_sec": old.launches_per_sec,
            "tasks_per_sec": old.tasks_per_sec,
        }),
        "best_speedup_vs_spawn_per_launch": best / old.launches_per_sec,
    });
    sepo_bench::write_json("BENCH_gpu_sim", &report);
    println!("\nwrote results/BENCH_gpu_sim.json");
    if best / old.launches_per_sec < 5.0 {
        eprintln!(
            "WARNING: pooled executor under 5x the spawn-per-launch reference ({:.1}x)",
            best / old.launches_per_sec
        );
        std::process::exit(1);
    }
}
