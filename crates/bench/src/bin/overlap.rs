//! Async eviction/compute overlap bench: per-app simulated-time savings
//! from draining eviction DMA behind the next iteration's kernels.
//!
//! For each of the seven §VI applications this runs the same workload
//! twice — synchronous boundaries and the double-buffered eviction pipe
//! (`--evict-overlap`) — under the parallel-deterministic executor with
//! the cross-layer audit, the shadow sanitizer, and seeded transient
//! faults all on. The two runs must be **byte-identical** in results:
//! saved table image, per-iteration completion trajectory, and iteration
//! count. Only the simulated-time pricing may differ: the overlapped run
//! composes each iteration's pipelined upload/kernel segment with the
//! previous boundary's eviction DMA via the BigKernel makespan recurrence
//! instead of strictly alternating them.
//!
//! Writes `results/BENCH_overlap.json` recording, per
//! app, the serial and overlapped simulated totals and the saving, and
//! exits non-zero if any app's results diverge between the two modes.

use gpu_sim::spec::SystemSpec;
use gpu_sim::{FaultConfig, FaultPlan};
use sepo_bench::harness::{
    instrumented_run, require, standard_config, standard_executor, BenchRun, REGRESSION_SCALE,
};
use sepo_bench::{gpu_total_time, GpuTiming};
use sepo_datagen::{App, Dataset};

/// Records per app — small enough to run in CI, large enough that the
/// tight heap below forces several eviction boundaries per app.
const SCALE: u64 = REGRESSION_SCALE;
/// Device heap small enough that every app needs several iterations, so
/// every run has eviction DMA worth hiding.
const HEAP_BYTES: u64 = 48 << 10;
/// Tasks per kernel launch (several chunks per iteration at this scale).
const CHUNK_TASKS: usize = 512;
/// Seed for the standard transient fault mix (alloc failures, PCIe
/// errors, lane aborts) — the identity claim must hold under fire.
const FAULT_SEED: u64 = 0x00EE_71A9;

fn run_once(app: App, ds: &Dataset, spec: &SystemSpec, overlap: bool) -> (BenchRun, GpuTiming) {
    let exec = standard_executor(Some(FaultPlan::new(FaultConfig::standard(FAULT_SEED))));
    let cfg = standard_config(HEAP_BYTES, CHUNK_TASKS).with_evict_overlap(overlap);
    let bench = instrumented_run(app, ds, &cfg, &exec);
    let timing = gpu_total_time(
        &bench.run.outcome,
        &bench.run.table.contention_histogram(),
        spec,
    );
    (bench, timing)
}

fn main() {
    let spec = SystemSpec::scaled(SCALE);
    let mut rows = Vec::new();
    let mut failed = false;

    for app in App::ALL {
        let ds = app.generate(0, SCALE);
        let (serial, serial_t) = run_once(app, &ds, &spec, false);
        let (overlap, overlap_t) = run_once(app, &ds, &spec, true);

        let image_ok = require(
            app.name(),
            "overlapped table image identical",
            overlap.image == serial.image,
        );
        let traj_ok = require(
            app.name(),
            "overlapped trajectory identical",
            overlap.trajectory == serial.trajectory,
        );
        let iters_ok = require(
            app.name(),
            "overlapped iteration count identical",
            overlap.iterations() == serial.iterations(),
        );
        failed |= !(image_ok && traj_ok && iters_ok);

        let serial_secs = serial_t.total.as_secs_f64();
        let overlap_secs = overlap_t.total.as_secs_f64();
        let saved = serial_secs - overlap_secs;
        let saved_pct = 100.0 * saved / serial_secs.max(1e-12);
        let evicted_bytes = serial.run.outcome.total_evicted_bytes();
        println!(
            "{:>15}: {:>2} iterations, {:>9} B evicted, serial {:.6}s \
             -> overlapped {:.6}s ({saved_pct:.1}% saved)",
            app.name(),
            serial.iterations(),
            evicted_bytes,
            serial_secs,
            overlap_secs,
        );
        rows.push(serde_json::json!({
            "app": app.name(),
            "iterations": serial.iterations(),
            "evicted_bytes": evicted_bytes,
            "serial_seconds": serial_secs,
            "overlap_seconds": overlap_secs,
            "serial_transfer_seconds": serial_t.transfers.as_secs_f64(),
            "overlap_transfer_seconds": overlap_t.transfers.as_secs_f64(),
            "saved_seconds": saved,
            "saved_pct": saved_pct,
            "image_identical": image_ok,
            "trajectory_identical": traj_ok,
            "iterations_identical": iters_ok,
        }));
    }

    let report = serde_json::json!({
        "bench": "async eviction/compute overlap: serial vs pipelined boundary DMA",
        "scale": SCALE,
        "heap_bytes": HEAP_BYTES,
        "chunk_tasks": CHUNK_TASKS,
        "fault_seed": FAULT_SEED,
        "apps": rows,
        "all_identical": !failed,
    });
    sepo_bench::write_json("BENCH_overlap", &report);
    println!("\nwrote results/BENCH_overlap.json");
    if failed {
        std::process::exit(1);
    }
}
