//! Multi-device weak-scaling bench: hash-prefix sharding across N
//! simulated devices with the host-side batching router.
//!
//! For each of the seven §VI applications this runs an unsharded baseline
//! and then the same workload sharded across {1, 2, 4, 8} simulated
//! devices — every run under the parallel-deterministic executor with the
//! cross-layer audit, the shadow sanitizer, and seeded transient faults
//! on (per-shard seeds, so every device sees its own fault stream). Each
//! shard keeps the full single-device heap, so adding devices is weak
//! scaling: per-shard table pressure drops, iteration counts fall, and
//! the sharded makespan (per-iteration max across shards, see
//! [`sepo_bench::sharded_total_time`]) beats the single-device clock.
//!
//! Two gates make this a regression harness rather than a report:
//!
//! - **Image identity.** Every shard count's merged canonical image
//!   ([`sepo_core::canonical_image`]) must equal the unsharded baseline's
//!   — the router plus per-shard ownership filters must be lossless and
//!   duplicate-free. Any divergence exits non-zero.
//! - **Ownership audit.** `run_app_sharded` panics if any shard's table
//!   holds a key outside its hash-prefix slice.
//!
//! Writes `results/BENCH_shards.json` with per-app,
//! per-shard-count simulated totals and speedups, stamped with the host's
//! `available_parallelism` (shards run on real threads; a 1-CPU host
//! serializes them, which changes wall-clock but not simulated time).

use gpu_sim::executor::Executor;
use gpu_sim::spec::SystemSpec;
use gpu_sim::{FaultConfig, FaultPlan};
use sepo_apps::sharded::{run_app_sharded, unsharded_image};
use sepo_bench::harness::{
    instrumented_run, require, standard_config, standard_executor, REGRESSION_SCALE,
};
use sepo_bench::{gpu_total_time, sharded_total_time};
use sepo_datagen::App;

/// Records per app — the regression harnesses' shared scale.
const SCALE: u64 = REGRESSION_SCALE;
/// Per-device heap. Small enough that the unsharded run needs several
/// iterations on every app, so sharding has pressure to relieve.
const HEAP_BYTES: u64 = 48 << 10;
/// Tasks per kernel launch.
const CHUNK_TASKS: usize = 512;
/// Base transient-fault seed; shard i of a run draws from seed ^ i.
const FAULT_SEED: u64 = 0x5AAD_ED01;
/// The weak-scaling sweep.
const SHARD_COUNTS: [u32; 4] = [1, 2, 4, 8];

fn shard_executors(n: u32) -> Vec<Executor> {
    (0..n)
        .map(|i| {
            standard_executor(Some(FaultPlan::new(FaultConfig::standard(
                FAULT_SEED ^ u64::from(i),
            ))))
        })
        .collect()
}

fn main() {
    let spec = SystemSpec::scaled(SCALE);
    let cpu_warning = sepo_bench::single_cpu_warning("shards");
    let mut rows = Vec::new();
    let mut failed = false;
    let mut speedup_at_4 = Vec::new();

    for app in App::ALL {
        let ds = app.generate(0, SCALE);

        // Unsharded baseline: same executor mix, one device.
        let exec = standard_executor(Some(FaultPlan::new(FaultConfig::standard(FAULT_SEED))));
        let cfg = standard_config(HEAP_BYTES, CHUNK_TASKS);
        let baseline = instrumented_run(app, &ds, &cfg, &exec);
        let baseline_t = gpu_total_time(
            &baseline.run.outcome,
            &baseline.run.table.contention_histogram(),
            &spec,
        );
        let want = unsharded_image(&baseline.run);

        let mut sweep = Vec::new();
        for n in SHARD_COUNTS {
            let cfgs: Vec<_> = (0..n)
                .map(|_| standard_config(HEAP_BYTES, CHUNK_TASKS))
                .collect();
            let execs = shard_executors(n);
            let sharded = run_app_sharded(app, &ds, &cfgs, &execs);

            let image_ok = require(
                app.name(),
                &format!("merged image at {n} shards identical to unsharded"),
                sharded.image == want,
            );
            failed |= !image_ok;

            let parts: Vec<_> = sharded
                .shards
                .iter()
                .map(|r| (&r.outcome, r.table.contention_histogram()))
                .collect();
            let refs: Vec<_> = parts.iter().map(|(o, h)| (*o, h)).collect();
            let timing = sharded_total_time(&refs, &spec);
            let speedup = baseline_t.total.as_secs_f64() / timing.total.as_secs_f64().max(1e-12);
            if n == 4 {
                speedup_at_4.push((app, speedup));
            }
            println!(
                "{:>15} x{n}: {:>2} boundary iterations, {:>5} routed records, \
                 {:.6}s simulated ({speedup:.2}x vs 1 device){}",
                app.name(),
                timing.iterations,
                sharded.routed_records.iter().sum::<usize>(),
                timing.total.as_secs_f64(),
                if image_ok { "" } else { "  <-- DIVERGED" },
            );
            sweep.push(serde_json::json!({
                "shards": n,
                "iterations_makespan": timing.iterations,
                "iterations_per_shard": sharded.shards.iter().map(|r| r.iterations()).collect::<Vec<_>>(),
                "routed_records": sharded.routed_records,
                "simulated_seconds": timing.total.as_secs_f64(),
                "kernel_seconds": timing.kernel.as_secs_f64(),
                "transfer_seconds": timing.transfers.as_secs_f64(),
                "speedup_vs_unsharded": speedup,
                "image_identical": image_ok,
            }));
        }
        rows.push(serde_json::json!({
            "app": app.name(),
            "unsharded_iterations": baseline.iterations(),
            "unsharded_seconds": baseline_t.total.as_secs_f64(),
            "sweep": sweep,
        }));
    }

    let faster_at_4 = speedup_at_4.iter().filter(|(_, s)| *s > 1.0).count();
    println!(
        "\n{faster_at_4}/{} apps faster than a single device at 4 shards",
        App::ALL.len()
    );
    let report = serde_json::json!({
        "bench": "multi-device sharded execution: hash-prefix weak scaling",
        "scale": SCALE,
        "heap_bytes_per_shard": HEAP_BYTES,
        "chunk_tasks": CHUNK_TASKS,
        "fault_seed": FAULT_SEED,
        "shard_counts": SHARD_COUNTS,
        "available_parallelism": sepo_bench::host_parallelism(),
        "single_cpu_warning": cpu_warning,
        "apps": rows,
        "apps_faster_at_4_shards": faster_at_4,
        "all_identical": !failed,
    });
    sepo_bench::write_json("BENCH_shards", &report);
    println!("wrote results/BENCH_shards.json");
    if failed {
        std::process::exit(1);
    }
}
