//! End-to-end data-integrity bench: seeded silent corruption swept over
//! every application, with detection-rate and recovery-overhead gates.
//!
//! For each of the seven §VI applications, at 1 and 4 shards, this runs a
//! corruption-free reference and then corruption runs at two rate tiers
//! (in-flight PCIe bit flips, resting device-page flips, disk byte flips
//! on checkpoint images). Seeds are swept until at least one flip actually
//! strikes, so every comparison covers real injected damage. Checkpoints
//! go to disk (a sharded SEPOCKS3 file at 4 shards) so the disk-flip path
//! is exercised too.
//!
//! Three gates make this a regression harness rather than a report:
//!
//! - **100% detection.** Every injected flip must be caught by a CRC32C
//!   verification: retransmits + boundary-scrub detections + checkpoint
//!   image rewrites must equal the number of flips the plan injected.
//!   Each draw damages a distinct artifact (one transfer attempt, one
//!   resting page per window, one image write attempt), so the counts
//!   match one-to-one when nothing escapes.
//! - **Byte-identical recovery.** The recovered run's saved table image
//!   (and, unsharded, its completion trajectory) must equal the
//!   corruption-free reference byte for byte. An escaped flip anywhere
//!   would diverge it.
//! - **Zero undetected corruption.** Implied by the two above; any gate
//!   failure exits non-zero.
//!
//! Writes `results/BENCH_integrity.json` with per-app,
//! per-shard-count, per-tier injection/detection counts, recovery actions,
//! and wall-clock overhead versus the clean reference.

use gpu_sim::executor::Executor;
use gpu_sim::{CorruptionConfig, CorruptionKind, FaultConfig, FaultPlan};
use sepo_apps::sharded::{run_app_sharded, unsharded_image};
use sepo_bench::harness::{
    instrumented_run, require, standard_config, standard_executor, BenchRun, REGRESSION_SCALE,
};
use sepo_core::{CheckpointPolicy, RecoveryStats, ShardedCheckpointFile};
use sepo_datagen::{App, Dataset};
use std::sync::Arc;
use std::time::Instant;

/// Records per app — the regression harnesses' shared scale.
const SCALE: u64 = REGRESSION_SCALE;
/// Device heap small enough that every app evicts across several
/// iterations, so all three corruption sites see traffic.
const HEAP_BYTES: u64 = 96 << 10;
/// Tasks per kernel launch.
const CHUNK_TASKS: usize = 32;
/// The rate sweep: (label, pcie bit-flip, resting page-flip, disk
/// byte-flip) per-draw probabilities. The low tier mirrors
/// [`CorruptionConfig::standard`]; the high tier is hostile enough that
/// every app sees several flips per seed.
const TIERS: [(&str, f64, f64, f64); 2] = [
    ("standard", 0.05, 0.01, 0.05),
    ("elevated", 0.20, 0.08, 0.25),
];
/// Shard counts under test (`1` is exactly the single-device path).
const SHARD_COUNTS: [u32; 2] = [1, 4];
/// Seeds tried per (app, shards, tier) before giving up on provoking a
/// flip. At these rates the first seed almost always strikes.
const MAX_SEED_TRIES: u64 = 20;
/// First corruption seed (successive tries increment from here).
const BASE_SEED: u64 = 0xB17_F11B;

/// A corruption plan at one tier; shard i draws from `seed ^ i`.
fn corruption_plan(seed: u64, tier: &(&str, f64, f64, f64)) -> FaultPlan {
    FaultPlan::new(FaultConfig::quiet(seed)).with_corruption(CorruptionConfig {
        seed,
        pcie_bit_flip_rate: tier.1,
        resting_page_flip_rate: tier.2,
        disk_byte_flip_rate: tier.3,
    })
}

/// Sum the recovery stats the integrity gates read across shards.
fn fold_recovery<'a>(stats: impl Iterator<Item = &'a RecoveryStats>) -> RecoveryStats {
    let mut total = RecoveryStats::default();
    for s in stats {
        total.retransmits += s.retransmits;
        total.corruptions_detected += s.corruptions_detected;
        total.integrity_restores += s.integrity_restores;
        total.checkpoint_rewrites += s.checkpoint_rewrites;
        total.scrubbed_pages += s.scrubbed_pages;
    }
    total
}

/// Flips detected by a CRC check, by recovery action. One-to-one with
/// injections when nothing escapes: each PCIe flip damages one transfer
/// attempt (one retransmit), each resting flip one page per scrub window
/// (one detection), each disk flip one image write attempt (one rewrite).
fn detections(rec: &RecoveryStats) -> u64 {
    rec.retransmits + rec.corruptions_detected + u64::from(rec.checkpoint_rewrites)
}

struct CorruptRun {
    image: Vec<u8>,
    trajectory: Option<Vec<u64>>,
    recovery: RecoveryStats,
    injected: u64,
    by_kind: [u64; 3],
    secs: f64,
}

/// One corruption run at `n` shards. Returns `None` when the seed never
/// injected a flip (the sweep moves on).
fn corrupt_run(
    app: App,
    ds: &Dataset,
    n: u32,
    seed: u64,
    tier: &(&str, f64, f64, f64),
    ckp_path: &std::path::Path,
) -> Option<CorruptRun> {
    let start = Instant::now();
    let (image, trajectory, recovery, plans) = if n == 1 {
        let exec = standard_executor(Some(corruption_plan(seed, tier)));
        let cfg = standard_config(HEAP_BYTES, CHUNK_TASKS)
            .with_checkpoint(CheckpointPolicy::Disk(ckp_path.into()))
            .with_max_recoveries(10_000);
        let run = instrumented_run(app, ds, &cfg, &exec);
        let plan = Arc::clone(exec.faults().expect("plan installed"));
        (
            unsharded_image(&run.run),
            Some(run.trajectory),
            run.run.outcome.recovery,
            vec![plan],
        )
    } else {
        let file = Arc::new(ShardedCheckpointFile::new(ckp_path.into(), n));
        let execs: Vec<Executor> = (0..n)
            .map(|i| standard_executor(Some(corruption_plan(seed ^ u64::from(i), tier))))
            .collect();
        let cfgs: Vec<_> = (0..n)
            .map(|i| {
                standard_config(HEAP_BYTES, CHUNK_TASKS)
                    .with_checkpoint(CheckpointPolicy::SharedDisk(Arc::clone(&file), i))
                    .with_max_recoveries(10_000)
            })
            .collect();
        let sharded = run_app_sharded(app, ds, &cfgs, &execs);
        let recovery = fold_recovery(sharded.shards.iter().map(|r| &r.outcome.recovery));
        let plans: Vec<_> = execs
            .iter()
            .map(|e| Arc::clone(e.faults().expect("plan installed")))
            .collect();
        (sharded.image, None, recovery, plans)
    };
    let secs = start.elapsed().as_secs_f64();
    let injected: u64 = plans.iter().map(|p| p.total_corruption_injected()).sum();
    if injected == 0 {
        return None;
    }
    let kind = |k: CorruptionKind| plans.iter().map(|p| p.corruption_injected(k)).sum();
    Some(CorruptRun {
        image,
        trajectory,
        recovery,
        injected,
        by_kind: [
            kind(CorruptionKind::PcieBitFlip),
            kind(CorruptionKind::RestingPageFlip),
            kind(CorruptionKind::DiskByteFlip),
        ],
        secs,
    })
}

/// Corruption-free reference at `n` shards: merged canonical image,
/// trajectory (unsharded only), and wall-clock.
fn reference_run(app: App, ds: &Dataset, n: u32) -> (Vec<u8>, Option<Vec<u64>>, f64) {
    let start = Instant::now();
    if n == 1 {
        let exec = standard_executor(None);
        let cfg = standard_config(HEAP_BYTES, CHUNK_TASKS);
        let run: BenchRun = instrumented_run(app, ds, &cfg, &exec);
        let img = unsharded_image(&run.run);
        (img, Some(run.trajectory), start.elapsed().as_secs_f64())
    } else {
        let execs: Vec<Executor> = (0..n).map(|_| standard_executor(None)).collect();
        let cfgs: Vec<_> = (0..n)
            .map(|_| standard_config(HEAP_BYTES, CHUNK_TASKS))
            .collect();
        let sharded = run_app_sharded(app, ds, &cfgs, &execs);
        (sharded.image, None, start.elapsed().as_secs_f64())
    }
}

fn main() {
    let cpu_warning = sepo_bench::single_cpu_warning("integrity");
    let tmp = std::env::temp_dir().join(format!("sepo-integrity-{}", std::process::id()));
    std::fs::create_dir_all(&tmp).expect("create checkpoint scratch dir");
    let mut rows = Vec::new();
    let mut failed = false;
    let mut total_injected = 0u64;
    let mut total_detected = 0u64;

    for app in App::ALL {
        let ds = app.generate(0, SCALE);
        for n in SHARD_COUNTS {
            let (ref_image, ref_traj, ref_secs) = reference_run(app, &ds, n);
            for (t, tier) in TIERS.iter().enumerate() {
                let ckp_path = tmp.join(format!("{}-x{n}-{}.ckp", app.name(), tier.0));
                // Sweep seeds until a flip actually strikes; a flip-free
                // run would prove nothing about detection.
                let mut struck = None;
                let mut seed_tries = 0u64;
                for s in 0..MAX_SEED_TRIES {
                    let seed = BASE_SEED + (t as u64) * MAX_SEED_TRIES + s;
                    seed_tries = s + 1;
                    if let Some(run) = corrupt_run(app, &ds, n, seed, tier, &ckp_path) {
                        struck = Some((seed, run));
                        break;
                    }
                }
                let Some((seed, run)) = struck else {
                    eprintln!(
                        "FAIL: {} x{n} {}: no flip struck in {MAX_SEED_TRIES} seeds",
                        app.name(),
                        tier.0
                    );
                    failed = true;
                    continue;
                };

                let detected = detections(&run.recovery);
                let gate = format!("x{n} {}", tier.0);
                let detect_ok = require(
                    app.name(),
                    &format!("{gate}: every injected flip detected"),
                    detected == run.injected,
                );
                let image_ok = require(
                    app.name(),
                    &format!("{gate}: recovered image identical to corruption-free"),
                    run.image == ref_image,
                );
                let traj_ok = require(
                    app.name(),
                    &format!("{gate}: recovered trajectory identical"),
                    run.trajectory == ref_traj || run.trajectory.is_none(),
                );
                failed |= !(detect_ok && image_ok && traj_ok);
                total_injected += run.injected;
                total_detected += detected;

                let overhead = run.secs / ref_secs.max(1e-9);
                println!(
                    "{:>15} x{n} {:>8}: {:>3} flips injected ({} pcie, {} resting, {} disk), \
                     {:>3} detected: {} retransmits, {} restores, {} rewrites; \
                     {:.2}x wall vs clean, seed {seed:#x}{}",
                    app.name(),
                    tier.0,
                    run.injected,
                    run.by_kind[0],
                    run.by_kind[1],
                    run.by_kind[2],
                    detected,
                    run.recovery.retransmits,
                    run.recovery.integrity_restores,
                    run.recovery.checkpoint_rewrites,
                    overhead,
                    if detect_ok && image_ok && traj_ok {
                        ""
                    } else {
                        "  <-- FAILED"
                    },
                );
                rows.push(serde_json::json!({
                    "app": app.name(),
                    "shards": n,
                    "tier": tier.0,
                    "rate_pcie": tier.1,
                    "rate_resting": tier.2,
                    "rate_disk": tier.3,
                    "seed": seed,
                    "seed_tries": seed_tries,
                    "injected": run.injected,
                    "injected_pcie": run.by_kind[0],
                    "injected_resting": run.by_kind[1],
                    "injected_disk": run.by_kind[2],
                    "detected": detected,
                    "detection_rate": detected as f64 / run.injected as f64,
                    "retransmits": run.recovery.retransmits,
                    "integrity_restores": run.recovery.integrity_restores,
                    "checkpoint_rewrites": run.recovery.checkpoint_rewrites,
                    "scrubbed_pages": run.recovery.scrubbed_pages,
                    "reference_secs": ref_secs,
                    "corrupt_secs": run.secs,
                    "wall_overhead": overhead,
                    "image_identical": image_ok,
                    "trajectory_identical": traj_ok,
                }));
            }
        }
    }
    let _ = std::fs::remove_dir_all(&tmp);

    let report = serde_json::json!({
        "bench": "end-to-end data integrity: seeded silent corruption, all apps",
        "scale": SCALE,
        "heap_bytes": HEAP_BYTES,
        "chunk_tasks": CHUNK_TASKS,
        "tiers": TIERS.iter().map(|(name, p, r, d)| serde_json::json!({
            "tier": *name, "pcie": *p, "resting": *r, "disk": *d,
        })).collect::<Vec<_>>(),
        "shard_counts": SHARD_COUNTS,
        "checkpoint_policy": "disk (SEPOCKP3; sharded SEPOCKS3), every iteration boundary",
        "available_parallelism": sepo_bench::host_parallelism(),
        "single_cpu_warning": cpu_warning,
        "runs": rows,
        "total_injected": total_injected,
        "total_detected": total_detected,
        "undetected": total_injected - total_detected.min(total_injected),
        "all_detected_and_identical": !failed,
    });
    sepo_bench::write_json("BENCH_integrity", &report);
    println!(
        "\n{total_detected}/{total_injected} injected flips detected across {} apps; \
         wrote results/BENCH_integrity.json",
        App::ALL.len()
    );
    if failed {
        std::process::exit(1);
    }
}
