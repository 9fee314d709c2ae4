//! End-to-end shadow-memory sanitizer properties over the seven paper
//! applications: under the parallel-deterministic executor with the
//! cross-layer audit, seeded fault injection, and the sanitizer all on,
//! every app completes with **zero findings** — and because declaring
//! accesses charges no simulated cost, the saved table image and the
//! iteration trajectory are byte-identical with the sanitizer off.

use gpu_sim::executor::{ExecMode, Executor};
use gpu_sim::metrics::Metrics;
use gpu_sim::shadow::{AccessKind, FindingKind, ShadowAddr};
use gpu_sim::{Charge, FaultConfig, FaultPlan, ShadowSanitizer};
use proptest::prelude::*;
use sepo_apps::{run_app, AppConfig};
use sepo_core::{
    Combiner, DriverConfig, InsertStatus, Organization, SepoDriver, SepoError, SepoTable,
    TableConfig, TaskResult,
};
use sepo_datagen::App;
use std::sync::Arc;

/// Run `app` once; `sanitize` toggles the shadow sanitizer. Returns the
/// sanitizer (present only when on), the saved table image, and the
/// per-iteration completion trajectory.
fn run_once(
    app: App,
    heap: u64,
    fault_seed: Option<u64>,
    sanitize: bool,
) -> (Option<Arc<ShadowSanitizer>>, Vec<u8>, Vec<u64>) {
    let ds = app.generate(0, 16_384);
    let metrics = Arc::new(Metrics::new());
    let mut exec = Executor::new(ExecMode::ParallelDeterministic, Arc::clone(&metrics));
    if let Some(seed) = fault_seed {
        exec = exec.with_faults(Arc::new(FaultPlan::new(FaultConfig::standard(seed))));
    }
    let shadow = sanitize.then(|| Arc::new(ShadowSanitizer::new()));
    if let Some(sz) = &shadow {
        exec = exec.with_shadow(Arc::clone(sz));
    }
    let cfg = AppConfig::new(heap)
        .with_audit(true)
        .with_sanitize(sanitize);
    let run = run_app(app, &ds, &cfg, &exec);
    let mut image = Vec::new();
    run.table.save(&mut image).expect("save table image");
    let trajectory: Vec<u64> = run
        .outcome
        .iterations
        .iter()
        .map(|i| i.tasks_completed)
        .collect();
    (shadow, image, trajectory)
}

/// All seven apps, audit + sanitizer on, heap small enough that several
/// apps need multiple iterations (so iteration-boundary eviction and the
/// use-after-evict machinery are exercised): zero findings everywhere,
/// and results identical to a sanitizer-off run.
#[test]
fn all_apps_sanitize_clean_and_identical() {
    for app in App::ALL {
        let (shadow, image_on, traj_on) = run_once(app, 96 << 10, None, true);
        let sz = shadow.expect("sanitizer attached");
        let report = sz.report();
        assert_eq!(
            report.findings_total,
            0,
            "{}: sanitizer found violations: {report}",
            app.name()
        );
        assert!(
            report.events_checked > 0,
            "{}: no accesses declared — instrumentation unplugged",
            app.name()
        );
        let (_, image_off, traj_off) = run_once(app, 96 << 10, None, false);
        assert_eq!(
            image_on,
            image_off,
            "{}: table image differs with sanitizer on vs off",
            app.name()
        );
        assert_eq!(
            traj_on,
            traj_off,
            "{}: iteration trajectory differs with sanitizer on vs off",
            app.name()
        );
    }
}

/// A publish-discipline break planted in the *middle* launch of iteration 2
/// fails the run at iteration 2's boundary, with the witness the launch
/// produced. 192 tasks in chunks of 64 give each iteration three launches:
/// iteration 1 inserts every key and postpones its second pair, iteration 2
/// re-runs all tasks in order, and in its middle launch (tasks 64..128)
/// task 69 (warp 0, lane 5) and task 107 (warp 1, lane 11) plain-write a
/// bucket head iteration 1 published. A third launch retires after the
/// violating one, so the boundary's verdict must see a launch's findings
/// however its replay was scheduled.
#[test]
fn a_violation_in_a_middle_launch_fails_its_own_boundary() {
    const TASKS: usize = 192;
    let cfg = TableConfig::new(Organization::Combining(Combiner::Add))
        .with_buckets(64)
        .with_buckets_per_group(16)
        .with_page_size(1024);
    let table = SepoTable::new(cfg, 64 * 1024, Arc::new(Metrics::new()));
    let sanitizer = Arc::new(ShadowSanitizer::new());
    let exec = Executor::new(ExecMode::ParallelDeterministic, Arc::clone(table.metrics()))
        .with_shadow(Arc::clone(&sanitizer));
    let config = DriverConfig {
        chunk_tasks: 64,
        audit: true,
        sanitize: true,
        ..DriverConfig::default()
    };
    let keys: Vec<String> = (0..TASKS).map(|t| format!("key-{t}")).collect();
    let err = SepoDriver::new(&table, &exec)
        .with_config(config)
        .try_run(
            TASKS,
            |_| 16,
            |task, start, lane| {
                if start == 0 {
                    return match table.insert_combining(keys[task].as_bytes(), 1, lane) {
                        InsertStatus::Success => TaskResult::Postponed { next_pair: 1 },
                        InsertStatus::Postponed => TaskResult::Postponed { next_pair: 0 },
                    };
                }
                if task == 69 || task == 107 {
                    lane.access(ShadowAddr::BucketHead(0), AccessKind::PlainWrite);
                }
                TaskResult::Done
            },
        )
        .unwrap_err();
    let SepoError::SanitizerFailed { iteration, report } = &err else {
        panic!("expected SanitizerFailed, got {err}");
    };
    assert_eq!(*iteration, Some(2), "{err}");
    let settled = sanitizer.report();
    assert_eq!(*report, settled.to_string(), "the verdict saw every launch");
    let w = &settled.witnesses[0];
    assert_eq!(w.addr, ShadowAddr::BucketHead(0));
    assert_eq!(w.kind, FindingKind::MixedPlainAtomic, "{w}");
    assert_eq!((w.warp, w.lane, w.epoch, w.iteration), (0, 5, 5, 2), "{w}");
    assert_eq!(settled.findings_total, 2, "{settled}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The same property under randomized seeded fault plans and heap
    /// sizes: transient lane aborts and retries never provoke a sanitizer
    /// finding, and the sanitizer never perturbs the (fault-afflicted)
    /// run's results.
    #[test]
    fn apps_sanitize_clean_under_seeded_faults(
        seed in any::<u64>(),
        heap_kb in 64u64..256,
    ) {
        for app in App::ALL {
            let heap = heap_kb << 10;
            let (shadow, image_on, traj_on) = run_once(app, heap, Some(seed), true);
            let sz = shadow.expect("sanitizer attached");
            prop_assert_eq!(
                sz.finding_count(),
                0,
                "{}: findings under faults: {}",
                app.name(),
                sz.report()
            );
            let (_, image_off, traj_off) = run_once(app, heap, Some(seed), false);
            prop_assert_eq!(
                &image_on,
                &image_off,
                "{}: image differs with sanitizer on vs off under faults",
                app.name()
            );
            prop_assert_eq!(
                &traj_on,
                &traj_off,
                "{}: trajectory differs with sanitizer on vs off under faults",
                app.name()
            );
        }
    }
}
