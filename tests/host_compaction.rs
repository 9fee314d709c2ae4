//! Host compaction end to end: after a run that iterates at least three
//! times, each of the four combining applications holds one host entry per
//! key, and the §IV-C lookup phase answers every query — present or
//! absent — with exactly the CPU oracle's merged value. Before compaction
//! the lookup phase answered a key evicted in several iterations with the
//! first partial aggregate it paged in. Patent Citation, a multi-valued
//! table, holds one key entry per key whose chain carries every citing
//! patent. Runs killed by hard faults and resumed from checkpoints compact
//! to the unkilled run's image.

use gpu_sim::executor::{ExecMode, Executor};
use gpu_sim::metrics::Metrics;
use gpu_sim::{FaultConfig, FaultKind, FaultPlan};
use sepo_alloc::PageKind;
use sepo_apps::{run_app, AppConfig};
use sepo_core::entry::{EntryKind, PageWalker};
use sepo_core::{CheckpointPolicy, CompactReport};
use sepo_datagen::App;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Each combining app with a (scale divisor, device heap) that makes it
/// iterate at least three times.
const CASES: [(App, u64, u64); 4] = [
    (App::WordCount, 16_384, 8 << 10),
    (App::PageViewCount, 8_192, 4 << 10),
    (App::DnaAssembly, 16_384, 32 << 10),
    (App::Netflix, 16_384, 48 << 10),
];

fn reference(app: App, ds: &sepo_datagen::Dataset) -> HashMap<Vec<u8>, u64> {
    match app {
        App::WordCount => sepo_apps::wordcount::reference(ds),
        App::PageViewCount => sepo_apps::pvc::reference(ds),
        App::DnaAssembly => sepo_apps::dna::reference(ds),
        App::Netflix => sepo_apps::netflix::reference(ds),
        other => panic!("{} is not a combining app", other.name()),
    }
}

#[test]
fn lookup_phase_answers_the_oracle_on_every_combining_app() {
    for (app, scale, heap) in CASES {
        let name = app.name();
        let ds = app.generate(0, scale);
        let exec = Executor::new(ExecMode::ParallelDeterministic, Arc::new(Metrics::new()));
        let run = run_app(app, &ds, &AppConfig::new(heap).with_audit(true), &exec);
        assert!(
            run.iterations() >= 3,
            "{name}: {} iterations",
            run.iterations()
        );
        // PVC emits one pair per record, so its keys never recur; every
        // other app left partials for compaction to fold.
        assert_eq!(
            run.outcome.compaction.is_some(),
            app != App::PageViewCount,
            "{name}: {:?}",
            run.outcome.compaction
        );

        let truth = reference(app, &ds);
        let mut seen = HashSet::new();
        for page in run.table.host_heap().pages() {
            let page = page.verify().expect("clean run");
            for (_, e) in PageWalker::new(page.bytes(), EntryKind::Combining) {
                let key = e.key().expect("combining entries carry keys");
                assert!(
                    seen.insert(key.to_vec()),
                    "{name}: key {:?} has two host entries",
                    String::from_utf8_lossy(key)
                );
            }
        }
        assert_eq!(seen.len(), truth.len(), "{name}: host keys vs oracle");

        let mut owned: Vec<Vec<u8>> = truth.keys().cloned().collect();
        owned.sort();
        owned.extend((0..64).map(|i| format!("absent-{i}").into_bytes()));
        let queries: Vec<&[u8]> = owned.iter().map(Vec::as_slice).collect();
        let out = run
            .table
            .try_lookup_phase(&exec, &queries)
            .expect("lookup phase");
        for (key, got) in owned.iter().zip(&out.results) {
            assert_eq!(
                *got,
                truth.get(key).copied(),
                "{name}: lookup of {:?}",
                String::from_utf8_lossy(key)
            );
        }
    }
}

/// One audited run of `app` on dataset `ds` with a `heap`-byte device,
/// killed by `hard` faults and resumed from in-memory checkpoints when
/// given. Returns the run, its saved image and the recoveries spent.
fn checkpointed_run(
    app: App,
    ds: &sepo_datagen::Dataset,
    heap: u64,
    hard: Option<FaultConfig>,
) -> (sepo_apps::AppRun, Vec<u8>, u32) {
    let mut exec = Executor::new(ExecMode::ParallelDeterministic, Arc::new(Metrics::new()));
    let mut cfg = AppConfig::new(heap).with_audit(true);
    cfg.driver.chunk_tasks = 32;
    if let Some(config) = hard {
        exec = exec.with_faults(Arc::new(FaultPlan::new(config)));
        cfg = cfg
            .with_checkpoint(CheckpointPolicy::Memory)
            .with_max_recoveries(10_000);
    }
    let run = run_app(app, ds, &cfg, &exec);
    let mut image = Vec::new();
    run.table.save(&mut image).expect("save table image");
    let recoveries = run.outcome.recovery.recoveries;
    (run, image, recoveries)
}

/// One Netflix run whose keys recur over several iterations, killed by
/// seeded hard faults and resumed from in-memory checkpoints when
/// `hard_seed` is set. Returns the saved image, the compaction report and
/// the recoveries spent.
fn netflix_run(hard_seed: Option<u64>) -> (Vec<u8>, Option<CompactReport>, u32) {
    let ds = App::Netflix.generate(0, 16_384);
    let hard = hard_seed.map(|seed| {
        FaultConfig::quiet(seed)
            .rate(FaultKind::DeviceLost, 0.05)
            .rate(FaultKind::PoisonedLaunch, 0.02)
    });
    let (run, image, recoveries) = checkpointed_run(App::Netflix, &ds, 48 << 10, hard);
    (image, run.outcome.compaction, recoveries)
}

/// The compactor folds only pages a checkpoint has made permanent, so a
/// run killed and resumed any number of times compacts to the image of
/// the run that was never killed.
#[test]
fn kill_and_resume_compacts_to_the_unkilled_image() {
    let (image, compaction, _) = netflix_run(None);
    assert!(compaction.is_some(), "the fixture must fold partials");
    let struck = (0..10u64).find_map(|i| {
        let (c_image, c_compaction, recoveries) = netflix_run(Some(0xC0DE + i));
        assert_eq!(c_image, image, "resumed image differs (seed {i})");
        assert_eq!(c_compaction, compaction);
        (recoveries >= 1).then_some(recoveries)
    });
    assert!(struck.is_some(), "no hard fault struck in 10 seeds");
}

/// Patent Citation on dataset #4 at 1/16384 with a 64 KiB device iterates
/// eight times; popular patents' key entries leave the device before their
/// last citations arrive, so keys own entries from several iterations
/// until compaction joins them. Afterwards every key has one key entry
/// whose chain holds exactly the oracle's citing patents, and a run killed
/// by the `--chaos-seed` fault mix and resumed from checkpoints saves the
/// same image byte for byte.
#[test]
fn patent_citation_holds_one_key_entry_per_key_with_every_citation() {
    let ds = App::PatentCitation.generate(3, 16_384);
    let (run, image, _) = checkpointed_run(App::PatentCitation, &ds, 64 << 10, None);
    assert!(run.iterations() >= 3, "{} iterations", run.iterations());
    let report = run.outcome.compaction.expect("keys re-entered the device");
    assert!(report.entries > report.keys, "{report:?}");

    let truth = sepo_apps::patent::reference(&ds);
    let mut keys = HashSet::new();
    for page in run.table.host_heap().pages() {
        let page = page.verify().expect("clean run");
        if page.kind() != PageKind::Key {
            continue;
        }
        for (_, e) in PageWalker::new(page.bytes(), EntryKind::Key) {
            let key = e.key().expect("key entries carry keys");
            assert!(
                keys.insert(key.to_vec()),
                "key {key:?} has two host key entries"
            );
        }
    }
    assert_eq!(keys.len() as u64, report.keys);
    assert_eq!(keys.len(), truth.len(), "host keys vs oracle");
    let groups = run.table.collect_multivalued();
    assert_eq!(groups.len(), truth.len());
    for (key, mut citing) in groups {
        citing.sort();
        assert_eq!(truth.get(&key), Some(&citing), "citations of {key:?}");
    }

    let struck = (0..10u64).find_map(|seed| {
        let chaos = Some(FaultConfig::chaos(142 + seed));
        let (_, c_image, recoveries) = checkpointed_run(App::PatentCitation, &ds, 64 << 10, chaos);
        assert_eq!(
            c_image,
            image,
            "resumed image differs (chaos seed {})",
            142 + seed
        );
        (recoveries >= 1).then_some(recoveries)
    });
    assert!(struck.is_some(), "no hard fault struck in 10 seeds");
}
