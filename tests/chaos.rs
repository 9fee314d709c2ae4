//! End-to-end hard-fault recovery properties over the seven paper
//! applications: a run killed mid-flight by seeded device loss or launch
//! poisoning and resumed from its last iteration-boundary checkpoint must
//! be **indistinguishable** from a run that was never killed — saved table
//! image, per-iteration completion trajectory, and full metrics snapshot,
//! all byte-for-byte — under the parallel-deterministic executor with the
//! cross-layer audit and the shadow sanitizer on.

use gpu_sim::executor::{ExecMode, Executor};
use gpu_sim::metrics::{Metrics, Snapshot};
use gpu_sim::{FaultConfig, FaultKind, FaultPlan, ShadowSanitizer};
use proptest::prelude::*;
use sepo_apps::{run_app, AppConfig};
use sepo_core::{CheckpointPolicy, IterationStats, RecoveryStats};
use sepo_datagen::App;
use std::sync::Arc;

/// Tasks per launch: small, so every iteration holds many kill-points and
/// a kill routinely lands mid-iteration with partial progress to discard.
const CHUNK_TASKS: usize = 32;
/// Per-launch kill rates for the chaos runs (device loss / poisoning).
const HARD_RATES: (f64, f64) = (0.05, 0.02);

/// The hard-fault plan of a chaos run under `seed`.
fn hard_config(seed: u64) -> FaultConfig {
    FaultConfig::quiet(seed)
        .rate(FaultKind::DeviceLost, HARD_RATES.0)
        .rate(FaultKind::PoisonedLaunch, HARD_RATES.1)
}

/// The iteration, among an unkilled run's `iterations`, in which a chaos
/// run under `seed` (no transient faults) takes its first kill. Hard faults
/// draw once per launch, so up to that kill the chaos run launches exactly
/// what the unkilled run did.
fn first_killed_iteration(seed: u64, iterations: &[IterationStats]) -> Option<&IterationStats> {
    let plan = FaultPlan::new(hard_config(seed));
    let launches: u32 = iterations.iter().map(|it| it.chunks).sum();
    let kill = (0..launches).find(|_| plan.draw_hard().is_some())?;
    let mut launched = 0;
    iterations.iter().find(|it| {
        launched += it.chunks;
        kill < launched
    })
}

/// What a run leaves to compare: the saved table image, the per-iteration
/// completion trajectory and the full metrics snapshot, plus the
/// iterations themselves and the recovery accounting.
struct Observed {
    image: Vec<u8>,
    trajectory: Vec<u64>,
    snapshot: Snapshot,
    iterations: Vec<IterationStats>,
    recovery: RecoveryStats,
}

/// Run `app` once. `transient_seed` arms the standard transient fault mix
/// (shared by both runs of a comparison); `hard_seed` additionally arms
/// hard kills plus in-memory checkpointing so the run survives them;
/// `evict_overlap` sets the eviction-pricing bit, which must not change
/// the run.
fn run_once(
    app: App,
    heap: u64,
    transient_seed: Option<u64>,
    hard_seed: Option<u64>,
    evict_overlap: bool,
) -> Observed {
    let ds = app.generate(0, 16_384);
    let metrics = Arc::new(Metrics::new());
    let mut exec = Executor::new(ExecMode::ParallelDeterministic, Arc::clone(&metrics));
    let base = match transient_seed {
        Some(seed) => FaultConfig::standard(seed),
        None => FaultConfig::quiet(0),
    };
    if let Some(seed) = hard_seed {
        exec = exec.with_faults(Arc::new(FaultPlan::new(base).with(hard_config(seed))));
    } else if transient_seed.is_some() {
        exec = exec.with_faults(Arc::new(FaultPlan::new(base)));
    }
    exec = exec.with_shadow(Arc::new(ShadowSanitizer::new()));
    let mut cfg = AppConfig::new(heap)
        .with_audit(true)
        .with_sanitize(true)
        .with_evict_overlap(evict_overlap);
    cfg.driver.chunk_tasks = CHUNK_TASKS;
    if hard_seed.is_some() {
        cfg = cfg
            .with_checkpoint(CheckpointPolicy::Memory)
            .with_max_recoveries(10_000);
    }
    let run = run_app(app, &ds, &cfg, &exec);
    let mut image = Vec::new();
    run.table.save(&mut image).expect("save table image");
    let iterations = run.outcome.iterations;
    Observed {
        image,
        trajectory: iterations.iter().map(|i| i.tasks_completed).collect(),
        snapshot: metrics.snapshot(),
        iterations,
        recovery: run.outcome.recovery,
    }
}

/// All seven apps on a heap small enough for several iterations: sweep
/// chaos seeds until the run is actually killed at least once, then demand
/// the recovered run matches the unkilled one byte for byte. Patent
/// Citation runs on a heap so small that an iteration stops at the first
/// launch that stores nothing, and its sweep only takes a seed whose first
/// kill lands in such an iteration: the replay must stop at the same
/// launch.
#[test]
fn all_apps_resume_byte_identical_after_hard_kills() {
    for app in App::ALL {
        let stops_early = app == App::PatentCitation;
        let heap = if stops_early { 12 << 10 } else { 96 << 10 };
        let base = run_once(app, heap, None, None, false);
        assert_eq!(base.recovery, RecoveryStats::default(), "{}", app.name());
        if stops_early {
            assert!(base.iterations.iter().any(|it| it.halted_early));
        }
        let mut killed = false;
        for seed in 0xC0DE..0xC0DE + 10u64 {
            if stops_early
                && !first_killed_iteration(seed, &base.iterations).is_some_and(|it| it.halted_early)
            {
                continue;
            }
            let chaos = run_once(app, heap, None, Some(seed), false);
            let rec = chaos.recovery;
            assert_eq!(
                chaos.image,
                base.image,
                "{}: resumed image differs (seed {seed:#x}, {} recoveries)",
                app.name(),
                rec.recoveries
            );
            assert_eq!(
                chaos.trajectory,
                base.trajectory,
                "{}: trajectory differs",
                app.name()
            );
            assert_eq!(
                chaos.snapshot,
                base.snapshot,
                "{}: metrics differ",
                app.name()
            );
            assert!(rec.checkpoints_taken > 0, "{}", app.name());
            if rec.recoveries >= 1 {
                killed = true;
                break;
            }
        }
        assert!(
            killed,
            "{}: no hard fault struck in 10 seeds — chaos harness unplugged",
            app.name()
        );
    }
}

/// Device loss in a run priced with overlapped eviction: the boundary
/// before each kill stored its evicted pages synchronously (the pricing
/// bit changes nothing about the run), so the killed-and-resumed run must
/// match an unkilled run with the bit *off*, byte for byte.
#[test]
fn device_lost_with_eviction_dma_in_flight_resumes_byte_identical() {
    for app in [App::WordCount, App::InvertedIndex, App::PageViewCount] {
        let base = run_once(app, 96 << 10, None, None, false);
        assert_eq!(base.recovery, RecoveryStats::default(), "{}", app.name());
        let mut killed = false;
        for seed in 0xD0A..0xD0A + 10u64 {
            let chaos = run_once(app, 96 << 10, None, Some(seed), true);
            let rec = chaos.recovery;
            assert_eq!(
                chaos.image,
                base.image,
                "{}: resumed overlap image differs (seed {seed:#x}, {} recoveries)",
                app.name(),
                rec.recoveries
            );
            assert_eq!(
                chaos.trajectory,
                base.trajectory,
                "{}: trajectory differs",
                app.name()
            );
            assert_eq!(
                chaos.snapshot,
                base.snapshot,
                "{}: metrics differ",
                app.name()
            );
            if rec.recoveries >= 1 {
                killed = true;
                break;
            }
        }
        assert!(
            killed,
            "{}: no hard fault struck in 10 seeds — chaos harness unplugged",
            app.name()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// The same property with transient faults (standard rates) layered
    /// under the hard kills: the checkpointed transient draw stream makes
    /// the resumed run replay the killed attempt's lane aborts exactly, so
    /// it still matches a never-killed run that drew the same transient
    /// plan — however many kills struck.
    #[test]
    fn resume_matches_unkilled_under_transient_faults(
        seed in any::<u64>(),
        heap_kb in 64u64..192,
    ) {
        for app in App::ALL {
            let heap = heap_kb << 10;
            let base = run_once(app, heap, Some(seed), None, false);
            let chaos = run_once(app, heap, Some(seed), Some(seed), false);
            prop_assert_eq!(
                &chaos.image,
                &base.image,
                "{}: resumed image differs ({} recoveries)",
                app.name(),
                chaos.recovery.recoveries
            );
            prop_assert_eq!(&chaos.trajectory, &base.trajectory, "{}: trajectory differs", app.name());
            prop_assert_eq!(&chaos.snapshot, &base.snapshot, "{}: metrics differ", app.name());
        }
    }

    /// The eviction-pricing bit under the standard transient fault mix:
    /// results (image, trajectory, iteration count) and the table's own
    /// metrics must be byte-identical with it on or off.
    #[test]
    fn overlap_matches_synchronous_under_transient_faults(
        seed in any::<u64>(),
        heap_kb in 64u64..192,
    ) {
        for app in App::ALL {
            let heap = heap_kb << 10;
            let sync = run_once(app, heap, Some(seed), None, false);
            let overlap = run_once(app, heap, Some(seed), None, true);
            prop_assert_eq!(&overlap.image, &sync.image, "{}: overlap image differs", app.name());
            prop_assert_eq!(
                overlap.trajectory.len(),
                sync.trajectory.len(),
                "{}: iteration count differs",
                app.name()
            );
            prop_assert_eq!(&overlap.trajectory, &sync.trajectory, "{}: trajectory differs", app.name());
            prop_assert_eq!(&overlap.snapshot, &sync.snapshot, "{}: metrics differ", app.name());
        }
    }
}
