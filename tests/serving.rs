//! End-to-end serving properties over the seven paper applications: epoch
//! snapshots answered under live SEPO iterations (parallel-deterministic
//! executor, audit and sanitizer on, seeded faults on both the run and the
//! serving path) must
//!
//! - leave the run untouched — saved image, trajectory and driver
//!   metrics byte-identical to a serving-off run,
//! - answer the finalized epoch exactly as the app's CPU `reference`
//!   oracle,
//! - never regress between epochs (partial aggregates grow monotonically,
//!   groups never lose values),
//! - survive hard-fault kill + checkpoint resume with the same epoch
//!   sequence and the same answers, and
//! - give duplicate queries in one batch one identical answer, agreeing
//!   with the offline lookup phase.

use gpu_sim::executor::{ExecMode, Executor};
use gpu_sim::metrics::{Metrics, Snapshot};
use gpu_sim::{FaultConfig, FaultKind, FaultPlan, ShadowSanitizer};
use proptest::prelude::*;
use sepo_apps::{run_app, AppConfig};
use sepo_core::{CheckpointPolicy, Combiner, EpochPublisher, Organization};
use sepo_datagen::{App, Dataset};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

const SCALE: u64 = 16_384;
const HEAP: u64 = 96 << 10;
/// Small launches: several kill-points and epochs per run.
const CHUNK_TASKS: usize = 32;

/// CPU oracle for the combining apps.
fn reference_combined(app: App, ds: &Dataset) -> Option<HashMap<Vec<u8>, u64>> {
    Some(match app {
        App::WordCount => sepo_apps::wordcount::reference(ds),
        App::PageViewCount => sepo_apps::pvc::reference(ds),
        App::DnaAssembly => sepo_apps::dna::reference(ds),
        App::Netflix => sepo_apps::netflix::reference(ds),
        _ => return None,
    })
}

/// CPU oracle for the multi-valued apps.
fn reference_grouped(app: App, ds: &Dataset) -> Option<HashMap<Vec<u8>, Vec<Vec<u8>>>> {
    Some(match app {
        App::InvertedIndex => sepo_apps::inverted_index::reference(ds),
        App::PatentCitation => sepo_apps::patent::reference(ds),
        App::GeoLocation => sepo_apps::geoloc::reference(ds),
        _ => return None,
    })
}

/// The full oracle key set, sorted (a deterministic query load).
fn oracle_keys(app: App, ds: &Dataset) -> Vec<Vec<u8>> {
    let mut keys: Vec<Vec<u8>> = match (reference_combined(app, ds), reference_grouped(app, ds)) {
        (Some(m), _) => m.into_keys().collect(),
        (_, Some(m)) => m.into_keys().collect(),
        _ => unreachable!("every paper app has a reference oracle"),
    };
    keys.sort();
    keys
}

/// Per published epoch: (iteration, per-key grouped answers).
type GroupedEpoch = (u32, Vec<Option<Vec<Vec<u8>>>>);

/// What one serving-enabled run produced.
struct ServingRun {
    image: Vec<u8>,
    trajectory: Vec<u64>,
    /// The driver executor's metrics (serving charges its own).
    snapshot: Snapshot,
    /// Per published epoch: (iteration, per-key combined answers).
    combined_epochs: Vec<(u32, Vec<Option<u64>>)>,
    grouped_epochs: Vec<GroupedEpoch>,
    organization: Organization,
    recoveries: u32,
}

/// One audited + sanitized run with serving wired in: the epoch hook
/// queries the whole oracle key set at every published boundary through a
/// separate serving executor (its own metrics and fault stream).
fn run_serving(
    app: App,
    ds: &Dataset,
    fault_seed: Option<u64>,
    chaos_seed: Option<u64>,
    keys: &[Vec<u8>],
) -> ServingRun {
    let metrics = Arc::new(Metrics::new());
    let mut exec = Executor::new(ExecMode::ParallelDeterministic, Arc::clone(&metrics))
        .with_shadow(Arc::new(ShadowSanitizer::new()));
    let chaos = chaos_seed.map(|seed| {
        FaultConfig::quiet(seed)
            .rate(FaultKind::DeviceLost, 0.05)
            .rate(FaultKind::PoisonedLaunch, 0.02)
    });
    let mut configs = [fault_seed.map(FaultConfig::standard), chaos]
        .into_iter()
        .flatten();
    if let Some(first) = configs.next() {
        let plan = configs.fold(FaultPlan::new(first), FaultPlan::with);
        exec = exec.with_faults(Arc::new(plan));
    }

    let publisher = Arc::new(EpochPublisher::default());
    let serve_exec = {
        let mut e = Executor::new(ExecMode::ParallelDeterministic, Arc::new(Metrics::new()));
        if let Some(seed) = fault_seed {
            // The serving path retries its own, distinct fault stream.
            e = e.with_faults(Arc::new(FaultPlan::new(FaultConfig::standard(
                seed ^ 0x5E17,
            ))));
        }
        Arc::new(e)
    };
    type Epochs = (
        Vec<(u32, Vec<Option<u64>>)>,
        Vec<(u32, Vec<Option<Vec<Vec<u8>>>>)>,
    );
    let epochs: Arc<Mutex<Epochs>> = Arc::default();
    {
        let epochs = Arc::clone(&epochs);
        let exec = Arc::clone(&serve_exec);
        let keys = keys.to_vec();
        publisher.on_epoch(move |snap| {
            let q: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
            let mut rec = epochs.lock().unwrap();
            match snap.organization() {
                Organization::Combining(_) => rec
                    .0
                    .push((snap.iteration(), snap.batch_get(&exec, &q).expect("serve"))),
                Organization::MultiValued => rec.1.push((
                    snap.iteration(),
                    snap.batch_get_grouped(&exec, &q).expect("serve"),
                )),
                Organization::Basic => {}
            }
        });
    }

    let mut cfg = AppConfig::new(HEAP)
        .with_audit(true)
        .with_sanitize(true)
        .with_serving(Arc::clone(&publisher));
    cfg.driver.chunk_tasks = CHUNK_TASKS;
    if chaos_seed.is_some() {
        cfg = cfg
            .with_checkpoint(CheckpointPolicy::Memory)
            .with_max_recoveries(10_000);
    }
    let run = run_app(app, ds, &cfg, &exec);
    let mut image = Vec::new();
    run.table.save(&mut image).expect("save table image");
    let (combined_epochs, grouped_epochs) = {
        let mut rec = epochs.lock().unwrap();
        (std::mem::take(&mut rec.0), std::mem::take(&mut rec.1))
    };
    ServingRun {
        image,
        trajectory: run
            .outcome
            .iterations
            .iter()
            .map(|i| i.tasks_completed)
            .collect(),
        snapshot: metrics.snapshot(),
        combined_epochs,
        grouped_epochs,
        organization: run.table.config().organization,
        recoveries: run.outcome.recovery.recoveries,
    }
}

/// A serving-off run of the same configuration: the byte-identity baseline
/// (image, trajectory, metrics).
fn run_plain(app: App, ds: &Dataset, fault_seed: Option<u64>) -> (Vec<u8>, Vec<u64>, Snapshot) {
    let metrics = Arc::new(Metrics::new());
    let mut exec = Executor::new(ExecMode::ParallelDeterministic, Arc::clone(&metrics))
        .with_shadow(Arc::new(ShadowSanitizer::new()));
    if let Some(seed) = fault_seed {
        exec = exec.with_faults(Arc::new(FaultPlan::new(FaultConfig::standard(seed))));
    }
    let mut cfg = AppConfig::new(HEAP).with_audit(true).with_sanitize(true);
    cfg.driver.chunk_tasks = CHUNK_TASKS;
    let run = run_app(app, ds, &cfg, &exec);
    let mut image = Vec::new();
    run.table.save(&mut image).expect("save table image");
    (
        image,
        run.outcome
            .iterations
            .iter()
            .map(|i| i.tasks_completed)
            .collect(),
        metrics.snapshot(),
    )
}

/// Assert the recorded epoch trail is sound: monotone growth between
/// epochs and exact CPU-oracle agreement at the finalized epoch.
fn assert_epochs_sound(app: App, ds: &Dataset, keys: &[Vec<u8>], run: &ServingRun) {
    match run.organization {
        Organization::Combining(comb) => {
            let epochs = &run.combined_epochs;
            assert!(!epochs.is_empty(), "{}: no epochs published", app.name());
            // Monotone: sums only rise and bit sets only gain bits.
            for pair in epochs.windows(2) {
                for (k, (a, b)) in keys.iter().zip(pair[0].1.iter().zip(&pair[1].1)) {
                    match (a, b) {
                        (Some(x), Some(y)) => {
                            let ok = match comb {
                                Combiner::Add => y >= x,
                                Combiner::Or => y & x == *x,
                            };
                            assert!(
                                ok,
                                "{}: key {:?} regressed between epochs {} and {}",
                                app.name(),
                                String::from_utf8_lossy(k),
                                pair[0].0,
                                pair[1].0
                            );
                        }
                        (Some(_), None) => panic!(
                            "{}: key {:?} vanished between epochs {} and {}",
                            app.name(),
                            String::from_utf8_lossy(k),
                            pair[0].0,
                            pair[1].0
                        ),
                        _ => {}
                    }
                }
            }
            let truth = reference_combined(app, ds).expect("combining oracle");
            let (_, final_ans) = epochs.last().unwrap();
            for (k, a) in keys.iter().zip(final_ans) {
                assert_eq!(
                    *a,
                    truth.get(k).copied(),
                    "{}: final epoch diverges from the CPU oracle on {:?}",
                    app.name(),
                    String::from_utf8_lossy(k)
                );
            }
        }
        Organization::MultiValued => {
            let epochs = &run.grouped_epochs;
            assert!(!epochs.is_empty(), "{}: no epochs published", app.name());
            for pair in epochs.windows(2) {
                for (k, (a, b)) in keys.iter().zip(pair[0].1.iter().zip(&pair[1].1)) {
                    let na = a.as_ref().map_or(0, Vec::len);
                    let nb = b.as_ref().map_or(0, Vec::len);
                    assert!(
                        nb >= na,
                        "{}: group {:?} lost values between epochs {} and {}",
                        app.name(),
                        String::from_utf8_lossy(k),
                        pair[0].0,
                        pair[1].0
                    );
                }
            }
            let truth = reference_grouped(app, ds).expect("grouped oracle");
            let (_, final_ans) = epochs.last().unwrap();
            for (k, a) in keys.iter().zip(final_ans) {
                let mut got = a.clone().unwrap_or_default();
                got.sort();
                let mut want = truth.get(k).cloned().unwrap_or_default();
                want.sort();
                assert_eq!(
                    got,
                    want,
                    "{}: final epoch diverges from the CPU oracle on {:?}",
                    app.name(),
                    String::from_utf8_lossy(k)
                );
            }
        }
        Organization::Basic => {}
    }
}

/// All seven apps: serving answers every epoch from the oracle key set,
/// matches the CPU reference at the finalized epoch, and leaves the run's
/// image, trajectory and metrics byte-identical to a serving-off run.
#[test]
fn all_apps_serve_the_oracle_and_stay_invisible() {
    for app in App::ALL {
        let ds = app.generate(0, SCALE);
        let keys = oracle_keys(app, &ds);
        let serving = run_serving(app, &ds, None, None, &keys);
        assert_epochs_sound(app, &ds, &keys, &serving);
        let (image_off, traj_off, snapshot_off) = run_plain(app, &ds, None);
        assert_eq!(
            serving.image,
            image_off,
            "{}: serving perturbed the table image",
            app.name()
        );
        assert_eq!(
            serving.trajectory,
            traj_off,
            "{}: serving perturbed the iteration trajectory",
            app.name()
        );
        assert_eq!(
            serving.snapshot,
            snapshot_off,
            "{}: serving charged the driver's metrics",
            app.name()
        );
    }
}

/// Hard-fault chaos under serving: kill the run mid-flight, resume it from
/// in-memory checkpoints, and require the *same epoch sequence with the
/// same answers* as an unkilled serving run — killed iterations must never
/// publish. Seeds are swept until a kill actually lands.
#[test]
fn killed_and_resumed_serving_reads_are_consistent() {
    let app = App::WordCount;
    let ds = app.generate(0, SCALE);
    let keys = oracle_keys(app, &ds);
    let baseline = run_serving(app, &ds, None, None, &keys);
    let mut struck = None;
    for t in 0..20u64 {
        let chaos = run_serving(app, &ds, None, Some(0x5EED_0C0DE + t), &keys);
        if chaos.recoveries >= 1 {
            struck = Some(chaos);
            break;
        }
    }
    let chaos = struck.expect("no hard fault struck in 20 seeds");
    assert_eq!(
        chaos.image, baseline.image,
        "resumed serving run's table image differs"
    );
    assert_eq!(
        chaos.combined_epochs, baseline.combined_epochs,
        "epoch answer sequence differs after kill + resume"
    );
    assert_epochs_sound(app, &ds, &keys, &chaos);
}

/// Duplicate queries in one batch: the serving dedup and the offline
/// lookup phase's pending filter must agree — N duplicates of a key give N
/// copies of one answer, combining the key exactly once, on both paths.
/// Netflix emits a pair per rater pair of a movie, so at half the shared
/// heap its keys recur across iterations and the host held partials before
/// compaction folded them.
#[test]
fn duplicate_queries_agree_across_serving_and_lookup_phase() {
    let app = App::Netflix;
    let ds = app.generate(0, SCALE);
    let keys = oracle_keys(app, &ds);
    let truth = reference_combined(app, &ds).expect("combining oracle");

    let metrics = Arc::new(Metrics::new());
    let exec = Executor::new(ExecMode::ParallelDeterministic, Arc::clone(&metrics));
    let publisher = Arc::new(EpochPublisher::default());
    let mut cfg = AppConfig::new(HEAP / 2)
        .with_audit(true)
        .with_serving(Arc::clone(&publisher));
    cfg.driver.chunk_tasks = CHUNK_TASKS;
    let run = run_app(app, &ds, &cfg, &exec);
    assert!(
        run.outcome.compaction.is_some(),
        "the fixture must leave partial aggregates to fold"
    );

    let dup = keys[keys.len() / 2].clone();
    let absent = b"absent-key".to_vec();
    let mut owned: Vec<Vec<u8>> = Vec::new();
    for _ in 0..16 {
        owned.push(dup.clone());
        owned.push(absent.clone());
    }
    let queries: Vec<&[u8]> = owned.iter().map(Vec::as_slice).collect();

    let snap = publisher.current().expect("finalized epoch");
    assert!(snap.finalized());
    let serve_exec = Executor::new(ExecMode::ParallelDeterministic, Arc::new(Metrics::new()));
    let served = snap.batch_get(&serve_exec, &queries).expect("serve");
    let looked = run
        .table
        .try_lookup_phase(&exec, &queries)
        .expect("lookup phase");
    assert_eq!(served, looked.results, "serving and lookup phase disagree");
    let expect = truth.get(&dup).copied();
    assert!(expect.is_some(), "fixture key must exist");
    for pair in served.chunks(2) {
        assert_eq!(
            pair[0], expect,
            "duplicates must all see the combined-once value"
        );
        assert_eq!(pair[1], None);
    }
}

/// The finalized epoch answers every group in the collectors' value order,
/// unsorted, on multi-valued runs whose heap keeps key pages across
/// boundaries: a key's several host entries fold in compaction's order.
#[test]
fn finalized_groups_keep_the_collectors_value_order() {
    for (app, scale, heap) in [
        (App::InvertedIndex, SCALE, HEAP * 2 / 3),
        (App::PatentCitation, 4096, HEAP / 6),
    ] {
        let ds = app.generate(0, scale);
        let exec = Executor::new(ExecMode::ParallelDeterministic, Arc::new(Metrics::new()));
        let publisher = Arc::new(EpochPublisher::default());
        let mut cfg = AppConfig::new(heap).with_serving(Arc::clone(&publisher));
        cfg.driver.chunk_tasks = CHUNK_TASKS;
        let run = run_app(app, &ds, &cfg, &exec);
        let kept = run.outcome.iterations.iter().map(|i| i.evict.kept_pages);
        assert!(
            kept.sum::<usize>() > 0,
            "{}: no key page was kept",
            app.name()
        );
        let folded = run
            .outcome
            .compaction
            .expect("several host entries to fold");
        assert!(
            folded.entries > folded.keys,
            "{}: no key entry to fold",
            app.name()
        );
        let snap = publisher.current().expect("finalized epoch");
        assert!(snap.finalized());
        let serve_exec = Executor::new(ExecMode::ParallelDeterministic, Arc::new(Metrics::new()));
        let groups = run.table.collect_multivalued();
        let keys: Vec<&[u8]> = groups.iter().map(|(k, _)| k.as_slice()).collect();
        let served = snap.batch_get_grouped(&serve_exec, &keys).expect("serve");
        for ((key, want), got) in groups.iter().zip(served) {
            assert_eq!(
                got.as_ref(),
                Some(want),
                "{}: group {:?} differs from the collectors",
                app.name(),
                String::from_utf8_lossy(key)
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// The mixed insert+query property under randomized seeded fault
    /// plans: transient lane aborts on *both* the run and the serving
    /// path never change an answer, the finalized epoch still matches the
    /// CPU oracle, and serving stays invisible to the fault-afflicted run.
    #[test]
    fn mixed_load_matches_cpu_oracle_under_seeded_faults(seed in any::<u64>()) {
        for app in App::ALL {
            let ds = app.generate(0, SCALE);
            let keys = oracle_keys(app, &ds);
            let serving = run_serving(app, &ds, Some(seed), None, &keys);
            assert_epochs_sound(app, &ds, &keys, &serving);
            let (image_off, traj_off, _) = run_plain(app, &ds, Some(seed));
            prop_assert_eq!(
                &serving.image,
                &image_off,
                "{}: serving perturbed the faulted run's image",
                app.name()
            );
            prop_assert_eq!(
                &serving.trajectory,
                &traj_off,
                "{}: serving perturbed the faulted run's trajectory",
                app.name()
            );
        }
    }
}
