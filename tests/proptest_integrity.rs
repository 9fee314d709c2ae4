//! End-to-end data-integrity properties: seeded silent corruption layered
//! under the transient fault mix and hard DeviceLost/poisoned-launch
//! chaos, over the seven paper applications at 1 and 4 shards.
//!
//! The pinned invariant: a run whose fault plan draws corruption either
//! recovers to a final image (and, unsharded, a completion trajectory)
//! **byte-identical** to a corruption-free run of the same workload, or
//! fails loudly with a typed witness. With in-memory checkpointing armed
//! the recovery path always has a repair source, so every case here must
//! take the first branch — any divergence means a flip escaped CRC32C
//! detection somewhere in the PCIe/resting/disk pipeline. With checkpoints
//! on disk every flip is also *counted*: detections equal injections one
//! to one.

use gpu_sim::executor::{ExecMode, Executor};
use gpu_sim::metrics::Metrics;
use gpu_sim::{FaultConfig, FaultKind, FaultPlan, ShadowSanitizer};
use proptest::prelude::*;
use sepo_apps::sharded::run_app_sharded;
use sepo_apps::{run_app, AppConfig};
use sepo_core::{CheckpointFile, CheckpointPolicy, RecoveryStats};
use sepo_datagen::{App, Dataset};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Records-per-app scale divisor: the datasets hold a few hundred to a few
/// thousand records.
const SCALE: u64 = 16_384;
/// Device heap small enough that every app evicts across iterations.
const HEAP: u64 = 96 << 10;
/// Tasks per launch: small, so kills and flips land mid-iteration too.
const CHUNK_TASKS: usize = 32;
/// Per-launch kill rates when chaos is layered on.
const HARD_RATES: (f64, f64) = (0.05, 0.02);

/// What to layer onto a run besides the workload itself.
#[derive(Clone, Copy, Debug, Default)]
struct Layers<'a> {
    transient_seed: Option<u64>,
    chaos_seed: Option<u64>,
    /// (seed, pcie bit-flip rate, resting page-flip rate, disk byte-flip
    /// rate).
    corrupt: Option<(u64, f64, f64, f64)>,
    /// Checkpoint file (`SEPOCKS3`, a section per shard). Without one
    /// chaos and corruption checkpoint in memory, where the disk stream has
    /// no image write to strike.
    disk: Option<&'a Path>,
}

impl Layers<'_> {
    fn armed(&self) -> bool {
        self.transient_seed.is_some() || self.chaos_seed.is_some() || self.corrupt.is_some()
    }

    fn plan(&self) -> FaultPlan {
        let base = match self.transient_seed {
            Some(seed) => FaultConfig::standard(seed),
            None => FaultConfig::quiet(0),
        };
        let mut plan = FaultPlan::new(base);
        if let Some(seed) = self.chaos_seed {
            plan = plan.with(
                FaultConfig::quiet(seed)
                    .rate(FaultKind::DeviceLost, HARD_RATES.0)
                    .rate(FaultKind::PoisonedLaunch, HARD_RATES.1),
            );
        }
        if let Some((seed, pcie, resting, disk)) = self.corrupt {
            plan = plan.with(
                FaultConfig::quiet(seed)
                    .rate(FaultKind::PcieBitFlip, pcie)
                    .rate(FaultKind::RestingPageFlip, resting)
                    .rate(FaultKind::DiskByteFlip, disk),
            );
        }
        plan
    }
}

/// What one run left behind.
struct Observed {
    /// Saved table image unsharded, merged canonical image sharded.
    image: Vec<u8>,
    /// Per-iteration completed tasks; empty for a sharded run.
    trajectory: Vec<u64>,
    /// Flips the fault plans injected, summed over shards.
    injected: u64,
    /// Of `injected`, the flips that struck a checkpoint image write.
    disk_flips: u64,
    /// Flips a CRC32C check caught, summed over shards.
    detected: u64,
}

/// Flips caught, by recovery action. One-to-one with injections when
/// nothing escapes: each PCIe flip damages one transfer attempt (one
/// retransmit), each resting flip one page per scrub window (one
/// detection), each disk flip one image write attempt (one rewrite).
fn detected(rec: &RecoveryStats) -> u64 {
    rec.retransmits + rec.corruptions_detected + u64::from(rec.checkpoint_rewrites)
}

/// Flips the executors' plans injected: of every kind, or of one.
fn injected(execs: &[Executor], kind: Option<FaultKind>) -> u64 {
    let kinds = kind
        .as_ref()
        .map_or(&FaultKind::CORRUPTION[..], std::slice::from_ref);
    execs
        .iter()
        .filter_map(|e| e.faults())
        .map(|p| kinds.iter().map(|&k| p.injected(k)).sum::<u64>())
        .sum()
}

fn executor(layers: Layers) -> Executor {
    let mut exec = Executor::new(ExecMode::ParallelDeterministic, Arc::new(Metrics::new()))
        .with_shadow(Arc::new(ShadowSanitizer::new()));
    if layers.armed() {
        exec = exec.with_faults(Arc::new(layers.plan()));
    }
    exec
}

/// The shared app config; chaos and corruption arm in-memory
/// checkpointing so every detected fault has a repair source.
fn config(layers: Layers) -> AppConfig {
    let mut cfg = AppConfig::new(HEAP).with_audit(true).with_sanitize(true);
    cfg.driver.chunk_tasks = CHUNK_TASKS;
    if layers.chaos_seed.is_some() || layers.corrupt.is_some() {
        cfg = cfg
            .with_checkpoint(CheckpointPolicy::Memory)
            .with_max_recoveries(10_000);
    }
    cfg
}

/// Run `app` unsharded.
fn run_once(app: App, ds: &Dataset, layers: Layers) -> Observed {
    let execs = [executor(layers)];
    let mut cfg = config(layers);
    if let Some(path) = layers.disk {
        let file = Arc::new(CheckpointFile::new(path.into(), 1));
        cfg = cfg.with_checkpoint(CheckpointPolicy::Disk(file, 0));
    }
    let run = run_app(app, ds, &cfg, &execs[0]);
    let mut image = Vec::new();
    run.table.save(&mut image).expect("save table image");
    Observed {
        image,
        trajectory: run
            .outcome
            .iterations
            .iter()
            .map(|i| i.tasks_completed)
            .collect(),
        injected: injected(&execs, None),
        disk_flips: injected(&execs, Some(FaultKind::DiskByteFlip)),
        detected: detected(&run.outcome.recovery),
    }
}

/// Run `app` at `n` shards; shard i layers seeds `^ i` and, with a disk
/// checkpoint, writes section i of one shared file.
fn run_sharded(app: App, ds: &Dataset, n: u32, layers: Layers) -> Observed {
    let layered = |i: u32| Layers {
        transient_seed: layers.transient_seed.map(|s| s ^ u64::from(i)),
        chaos_seed: layers.chaos_seed.map(|s| s ^ u64::from(i)),
        corrupt: layers
            .corrupt
            .map(|(s, p, r, d)| (s ^ u64::from(i), p, r, d)),
        ..layers
    };
    let file = layers
        .disk
        .map(|path| Arc::new(CheckpointFile::new(path.into(), n)));
    let execs: Vec<Executor> = (0..n).map(|i| executor(layered(i))).collect();
    let cfgs: Vec<AppConfig> = (0..n)
        .map(|i| match &file {
            Some(file) => {
                config(layered(i)).with_checkpoint(CheckpointPolicy::Disk(Arc::clone(file), i))
            }
            None => config(layered(i)),
        })
        .collect();
    let sharded = run_app_sharded(app, ds, &cfgs, &execs);
    Observed {
        image: sharded.image,
        trajectory: Vec::new(),
        injected: injected(&execs, None),
        disk_flips: injected(&execs, Some(FaultKind::DiskByteFlip)),
        detected: sharded
            .shards
            .iter()
            .map(|r| detected(&r.outcome.recovery))
            .sum(),
    }
}

/// Every app, 1 and 4 shards, hostile fixed rates with chaos and the
/// transient mix layered under the corruption: recovery must be invisible
/// byte-for-byte, and the sweep as a whole must see real flips.
#[test]
fn all_apps_recover_byte_identical_under_layered_corruption() {
    let mut total_injected = 0u64;
    for app in App::ALL {
        let ds = app.generate(0, SCALE);
        let clean = Layers {
            transient_seed: Some(0xA5),
            ..Layers::default()
        };
        let dirty = Layers {
            corrupt: Some((0xD1A6, 0.20, 0.08, 0.0)),
            chaos_seed: Some(0xC4A5),
            ..clean
        };

        let reference = run_once(app, &ds, clean);
        let recovered = run_once(app, &ds, dirty);
        total_injected += recovered.injected;
        assert_eq!(
            recovered.image,
            reference.image,
            "{}: recovered image diverged from corruption-free",
            app.name()
        );
        assert_eq!(
            recovered.trajectory,
            reference.trajectory,
            "{}: trajectory diverged",
            app.name()
        );

        let reference = run_sharded(app, &ds, 4, clean);
        let recovered = run_sharded(app, &ds, 4, dirty);
        total_injected += recovered.injected;
        assert_eq!(
            recovered.image,
            reference.image,
            "{}: sharded merged image diverged under corruption",
            app.name()
        );
    }
    assert!(
        total_injected > 0,
        "the hostile rates must inject at least one flip across the sweep"
    );
}

/// Removes a scratch directory when dropped, so a failing test cleans up
/// too.
struct ScratchDir(PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Every app at 1 and 4 shards under a quiet transient stream, with
/// checkpoints on disk so all three corruption sites see traffic, at the
/// standard rates and at an elevated tier. Per cell, seeds are swept until
/// a flip strikes (a flip-free run proves nothing); then every injected
/// flip must be detected exactly once, and the recovered run must match the
/// corruption-free one in image and, at one shard, trajectory. The sweep
/// as a whole must strike checkpoint image writes.
#[test]
fn every_flip_is_detected_once_with_checkpoints_on_disk() {
    /// (tier, pcie bit-flip, resting page-flip, disk byte-flip) rates; the
    /// first is `FaultConfig::corruption`.
    const TIERS: [(&str, f64, f64, f64); 2] = [
        ("standard", 0.05, 0.01, 0.05),
        ("elevated", 0.20, 0.08, 0.25),
    ];
    const MAX_SEED_TRIES: u64 = 20;
    const BASE_SEED: u64 = 0xB17_F11B;
    fn run_at(app: App, ds: &Dataset, n: u32, layers: Layers) -> Observed {
        if n == 1 {
            run_once(app, ds, layers)
        } else {
            run_sharded(app, ds, n, layers)
        }
    }

    let dir = ScratchDir(std::env::temp_dir().join(format!(
        "sepo-integrity-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    )));
    std::fs::create_dir_all(&dir.0).expect("create checkpoint dir");
    let mut disk_flips = 0;
    for app in App::ALL {
        let ds = app.generate(0, SCALE);
        for n in [1, 4] {
            let clean = run_at(app, &ds, n, Layers::default());
            for (t, (tier, pcie, resting, disk)) in (0u64..).zip(TIERS) {
                let cell = format!("{} x{n} {tier}", app.name());
                let path = dir.0.join(format!("{}-x{n}-{tier}.ckp", app.name()));
                let (seed, dirty) = (0..MAX_SEED_TRIES)
                    .map(|s| BASE_SEED + t * MAX_SEED_TRIES + s)
                    .find_map(|seed| {
                        let layers = Layers {
                            corrupt: Some((seed, pcie, resting, disk)),
                            disk: Some(&path),
                            ..Layers::default()
                        };
                        let run = run_at(app, &ds, n, layers);
                        (run.injected > 0).then_some((seed, run))
                    })
                    .unwrap_or_else(|| panic!("{cell}: no flip struck in {MAX_SEED_TRIES} seeds"));
                assert_eq!(
                    dirty.detected, dirty.injected,
                    "{cell}: detections must equal flips injected (seed {seed:#x})"
                );
                assert_eq!(
                    dirty.image, clean.image,
                    "{cell}: recovered image diverged (seed {seed:#x})"
                );
                assert_eq!(
                    dirty.trajectory, clean.trajectory,
                    "{cell}: recovered trajectory diverged (seed {seed:#x})"
                );
                disk_flips += dirty.disk_flips;
            }
        }
    }
    assert!(disk_flips > 0, "no flip struck a checkpoint image write");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Random app, random corruption seed and rates, chaos and the
    /// transient mix randomly layered under it: the unsharded run must
    /// recover byte-identically to its corruption-free twin.
    #[test]
    fn corruption_recovery_is_invisible_under_random_layers(
        app_idx in 0usize..7,
        seed in any::<u64>(),
        pcie in 0.0f64..0.3,
        resting in 0.0f64..0.1,
        with_transient in any::<bool>(),
        with_chaos in any::<bool>(),
    ) {
        let app = App::ALL[app_idx];
        let ds = app.generate(0, SCALE);
        let clean = Layers {
            transient_seed: with_transient.then_some(seed ^ 0x7A),
            ..Layers::default()
        };
        let dirty = Layers {
            corrupt: Some((seed, pcie, resting, 0.0)),
            chaos_seed: with_chaos.then_some(seed ^ 0xC4),
            ..clean
        };
        let reference = run_once(app, &ds, clean);
        let recovered = run_once(app, &ds, dirty);
        prop_assert_eq!(recovered.image, reference.image, "{}: image diverged", app.name());
        prop_assert_eq!(
            recovered.trajectory,
            reference.trajectory,
            "{}: trajectory diverged",
            app.name()
        );
    }

    /// The same invariant across 4 shards with per-shard derived seeds:
    /// the merged canonical image must match the corruption-free merge.
    #[test]
    fn sharded_corruption_recovery_is_invisible(
        app_idx in 0usize..7,
        seed in any::<u64>(),
        pcie in 0.0f64..0.3,
        resting in 0.0f64..0.1,
        with_chaos in any::<bool>(),
    ) {
        let app = App::ALL[app_idx];
        let ds = app.generate(0, SCALE);
        let clean = Layers::default();
        let dirty = Layers {
            corrupt: Some((seed, pcie, resting, 0.0)),
            chaos_seed: with_chaos.then_some(seed ^ 0xC4),
            ..clean
        };
        let reference = run_sharded(app, &ds, 4, clean);
        let recovered = run_sharded(app, &ds, 4, dirty);
        prop_assert_eq!(
            recovered.image,
            reference.image,
            "{}: merged image diverged",
            app.name()
        );
    }
}
