//! Multi-device sharded execution, end to end: every shard count merges to
//! the one-device canonical image, hard-fault recovery on a single shard
//! must be invisible (per-shard images, trajectories, and the merged
//! canonical image all byte-identical to an unkilled run), and the
//! SEPOCKS3 checkpoint file must carry a restorable section for every
//! shard.

use gpu_sim::executor::{ExecMode, Executor};
use gpu_sim::metrics::Metrics;
use gpu_sim::{FaultConfig, FaultKind, FaultPlan, ShadowSanitizer};
use sepo_apps::sharded::{run_app_sharded, unsharded_image, ShardedAppRun};
use sepo_apps::AppConfig;
use sepo_core::{CheckpointFile, CheckpointPolicy};
use sepo_datagen::{App, Dataset};
use std::sync::Arc;

/// Per-shard device heap, small enough that every shard of the scaled
/// datasets runs several iterations (so checkpoints and kills land at and
/// between real boundaries).
const HEAP: u64 = 24 << 10;
/// Tasks per launch: small, so each iteration holds many kill-points.
const CHUNK: usize = 32;
/// Shards under test.
const N: u32 = 4;
/// Per-launch device-loss rate for the chaos shard (elevated, so a short
/// run is reliably struck within a few seeds).
const DEVICE_LOSS_RATE: f64 = 0.08;

fn executor(faults: Option<FaultPlan>) -> Executor {
    let mut exec = Executor::new(ExecMode::ParallelDeterministic, Arc::new(Metrics::new()));
    if let Some(plan) = faults {
        exec = exec.with_faults(Arc::new(plan));
    }
    exec.with_shadow(Arc::new(ShadowSanitizer::new()))
}

fn base_cfg(policy: CheckpointPolicy) -> AppConfig {
    let mut cfg = AppConfig::new(HEAP)
        .with_audit(true)
        .with_sanitize(true)
        .with_checkpoint(policy)
        .with_max_recoveries(10_000);
    cfg.driver.chunk_tasks = CHUNK;
    cfg
}

/// Run `app` over `N` shards; shard `chaos` (if any) additionally draws
/// hard device-loss faults from `seed`. All shards share the same quiet
/// transient stream so chaos is the only difference between runs.
fn run_sharded(app: App, ds: &Dataset, chaos: Option<(u32, u64)>) -> ShardedAppRun {
    let cfgs: Vec<AppConfig> = (0..N).map(|_| base_cfg(CheckpointPolicy::Memory)).collect();
    let execs: Vec<Executor> = (0..N)
        .map(|i| {
            let plan = FaultPlan::new(FaultConfig::quiet(7));
            let plan = match chaos {
                Some((shard, seed)) if shard == i => plan
                    .with(FaultConfig::quiet(seed).rate(FaultKind::DeviceLost, DEVICE_LOSS_RATE)),
                _ => plan,
            };
            executor(Some(plan))
        })
        .collect();
    run_app_sharded(app, ds, &cfgs, &execs)
}

fn shard_image(run: &sepo_apps::AppRun) -> Vec<u8> {
    let mut image = Vec::new();
    run.table.save(&mut image).expect("save shard image");
    image
}

fn trajectory(run: &sepo_apps::AppRun) -> Vec<u64> {
    run.outcome
        .iterations
        .iter()
        .map(|i| i.tasks_completed)
        .collect()
}

/// Weak scaling is lossless: all seven apps at 2, 4 and 8 shards, each
/// shard keeping the one-device heap and drawing its own standard transient
/// fault stream (`seed ^ shard`), merge to the canonical image of the
/// one-device run — the router and the per-shard ownership filters drop
/// and duplicate nothing.
#[test]
fn every_shard_count_merges_to_the_one_device_image() {
    const SEED: u64 = 0x5AAD_ED01;
    // A heap the one-device run spills out of, so sharding relieves real
    // table pressure.
    let mut cfg = AppConfig::new(48 << 10)
        .with_audit(true)
        .with_sanitize(true);
    cfg.driver.chunk_tasks = 512;
    let faulted = |seed| executor(Some(FaultPlan::new(FaultConfig::standard(seed))));
    for app in App::ALL {
        let ds = app.generate(0, 16_384);
        let want = unsharded_image(&sepo_apps::run_app(app, &ds, &cfg, &faulted(SEED)));
        for n in [2u32, 4, 8] {
            let cfgs = vec![cfg.clone(); n as usize];
            let execs: Vec<Executor> = (0..n).map(|i| faulted(SEED ^ u64::from(i))).collect();
            let sharded = run_app_sharded(app, &ds, &cfgs, &execs);
            assert_eq!(
                sharded.image,
                want,
                "{}: merged image at {n} shards diverged from one device",
                app.name()
            );
        }
    }
}

/// Kill one shard's device mid-run (seeded `DeviceLost`); the resumed run
/// must be byte-identical — on the killed shard's own image and
/// trajectory, on every untouched shard, and on the merged canonical
/// image.
#[test]
fn killing_one_shards_device_resumes_byte_identically() {
    const CHAOS_SHARD: u32 = 1;
    let app = App::InvertedIndex;
    let ds = app.generate(0, 8_192);
    let baseline = run_sharded(app, &ds, None);
    assert!(
        baseline.shards[CHAOS_SHARD as usize].iterations() > 1,
        "the chaos shard must run several iterations for kills to land mid-run"
    );

    // Sweep seeds until the chaos shard is actually struck at least once.
    let mut struck = None;
    for seed in 0xD1ED_0000u64..0xD1ED_0014 {
        let run = run_sharded(app, &ds, Some((CHAOS_SHARD, seed)));
        if run.shards[CHAOS_SHARD as usize].outcome.recovery.recoveries >= 1 {
            struck = Some((seed, run));
            break;
        }
    }
    let (seed, chaos) = struck.expect("a device loss struck the chaos shard within the seed sweep");

    assert_eq!(
        chaos.image, baseline.image,
        "merged canonical image diverged after recovery (seed {seed:#x})"
    );
    for (i, (c, b)) in chaos.shards.iter().zip(baseline.shards.iter()).enumerate() {
        assert_eq!(
            shard_image(c),
            shard_image(b),
            "shard {i} table image diverged (seed {seed:#x})"
        );
        assert_eq!(
            trajectory(c),
            trajectory(b),
            "shard {i} trajectory diverged (seed {seed:#x})"
        );
        if i != CHAOS_SHARD as usize {
            assert_eq!(
                c.outcome.recovery.recoveries, 0,
                "shard {i} was never armed with hard faults"
            );
        }
    }
}

/// A sharded run writing through one `CheckpointFile` leaves a
/// SEPOCKS3 file with a readable section per shard, each sized to its
/// shard's routed task count — the state a cross-process resume restores
/// shard by shard.
#[test]
fn shared_disk_checkpoint_carries_a_section_per_shard() {
    let app = App::InvertedIndex;
    let ds = app.generate(0, 8_192);
    let path = std::env::temp_dir().join(format!(
        "sepo-sharded-ckp-{}-{:?}.sepockp",
        std::process::id(),
        std::thread::current().id()
    ));
    let file = Arc::new(CheckpointFile::new(path.clone(), N));
    let cfgs: Vec<AppConfig> = (0..N)
        .map(|i| base_cfg(CheckpointPolicy::Disk(Arc::clone(&file), i)))
        .collect();
    let execs: Vec<Executor> = (0..N).map(|_| executor(None)).collect();
    let run = run_app_sharded(app, &ds, &cfgs, &execs);
    for (i, shard) in run.shards.iter().enumerate() {
        assert!(
            shard.outcome.recovery.checkpoints_taken >= 1,
            "shard {i} must take at least one boundary checkpoint"
        );
    }

    let sections = CheckpointFile::read(&path).expect("read SEPOCKS3 file back");
    std::fs::remove_file(&path).ok();
    assert_eq!(sections.len(), N as usize, "one section per shard");
    for (i, (section, shard)) in sections.iter().zip(run.shards.iter()).enumerate() {
        let ckp = section
            .as_ref()
            .unwrap_or_else(|| panic!("shard {i} never wrote its section"));
        assert_eq!(
            ckp.n_tasks(),
            run.routed_records[i] as u64,
            "shard {i} section must cover exactly its routed records"
        );
        assert!(
            ckp.iteration() >= 1 && ckp.iteration() <= shard.iterations(),
            "shard {i} section captured at iteration {} of {}",
            ckp.iteration(),
            shard.iterations()
        );
    }
}

/// One shard is the unsharded run: for every app under a multi-iteration
/// heap, `run_app_sharded` with a single executor must equal `run_app` in
/// saved table image, trajectory, metrics `Snapshot` and `RecoveryStats` —
/// the gate `sepo run` leans on to send `--shards 1` through the sharded
/// entry point.
#[test]
fn one_shard_equals_the_unsharded_run_in_every_observable() {
    for app in App::ALL {
        let ds = app.generate(0, 8_192);
        // A quarter of the input (floored so multi-valued pages still fit
        // an entry) makes even the smallest scaled datasets spill.
        let mut cfg = base_cfg(CheckpointPolicy::Memory);
        cfg.heap_bytes = HEAP.min(ds.size_bytes() / 4).max(12 << 10);
        let plain_exec = executor(None);
        let plain = sepo_apps::run_app(app, &ds, &cfg, &plain_exec);
        assert!(
            plain.iterations() > 1,
            "{} must iterate under a {}-byte heap",
            app.name(),
            cfg.heap_bytes
        );
        let shard_exec = [executor(None)];
        let sharded = run_app_sharded(app, &ds, std::slice::from_ref(&cfg), &shard_exec);
        let shard = &sharded.shards[0];
        assert_eq!(sharded.routed_records, [ds.len()], "{}", app.name());
        assert_eq!(
            shard_image(shard),
            shard_image(&plain),
            "{}: saved image diverged",
            app.name()
        );
        assert_eq!(
            shard.outcome.iterations,
            plain.outcome.iterations,
            "{}: trajectory diverged",
            app.name()
        );
        assert_eq!(shard.outcome.final_evict, plain.outcome.final_evict);
        assert_eq!(
            shard_exec[0].metrics().snapshot(),
            plain_exec.metrics().snapshot(),
            "{}: metrics diverged",
            app.name()
        );
        assert_eq!(
            shard.outcome.recovery,
            plain.outcome.recovery,
            "{}: recovery accounting diverged",
            app.name()
        );
    }
}
