//! The paper's evaluation claims (§VI), asserted on the JSON the `paper`
//! binary writes.
//!
//! Averages depend on the scale (Figure 6's mean speedup is 3.52x at
//! 1/256 and 2.59x at 1/4096), so these tests pin the paper's *shapes*:
//! who beats whom, by roughly how much, and where the curves cross. They
//! run at 1/4096, where one application × dataset sweep takes seconds, and
//! every sweep-priced claim reads that one sweep.

use gpu_sim::{ExecMode, Executor, Metrics};
use sepo_baselines::run_mapcg;
use sepo_bench::paper::{self, Sweep};
use sepo_datagen::App;
use serde_json::Value;
use std::sync::{Arc, OnceLock};

const SCALE: u64 = 4096;

fn sweep() -> &'static Sweep {
    static SWEEP: OnceLock<Sweep> = OnceLock::new();
    SWEEP.get_or_init(|| Sweep::run(SCALE))
}

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    match v {
        Value::Object(m) => m
            .get(&key.to_string())
            .unwrap_or_else(|| panic!("no `{key}` in {v:?}")),
        _ => panic!("`{key}` looked up in a non-object {v:?}"),
    }
}

fn rows(v: &Value) -> &[Value] {
    match field(v, "rows") {
        Value::Array(rows) => rows,
        other => panic!("`rows` is not an array: {other:?}"),
    }
}

fn num(v: &Value, key: &str) -> f64 {
    match field(v, key) {
        Value::U64(x) => *x as f64,
        Value::I64(x) => *x as f64,
        Value::F64(x) => *x,
        other => panic!("`{key}` is not a number: {other:?}"),
    }
}

fn app(v: &Value) -> &str {
    match field(v, "app") {
        Value::String(s) => s,
        other => panic!("`app` is not a string: {other:?}"),
    }
}

/// The row of `app` in an artifact with one row per application.
fn row_of<'a>(rows: &'a [Value], name: &str) -> &'a Value {
    rows.iter()
        .find(|r| app(r) == name)
        .unwrap_or_else(|| panic!("no row for {name}"))
}

#[test]
fn figure7_sepo_beats_pinned_everywhere_and_pinned_often_loses_to_the_cpu() {
    let fig = paper::figure7(sweep()).json;
    let rows = rows(&fig);
    assert_eq!(rows.len(), 7);
    // "In four out of seven applications, the CPU pinned memory version …
    // performs worse than the CPU-based multi-threaded implementations."
    let below = rows
        .iter()
        .filter(|r| num(r, "pinned_speedup") < 1.0)
        .count();
    assert_eq!(num(&fig, "pinned_below_cpu"), below as f64);
    assert!(below >= 4, "pinned below the CPU baseline on {below}/7");
    // "Still significantly outperforms the version that allocates the heap
    // in CPU pinned memory."
    for r in rows {
        let margin = num(r, "sepo_speedup") / num(r, "pinned_speedup");
        assert!(margin > 1.0, "{}: SEPO/pinned = {margin:.2}", app(r));
    }
}

#[test]
fn figure6_iterations_never_fall_as_the_dataset_grows() {
    let fig = paper::figure6(sweep()).json;
    let rows = rows(&fig);
    assert_eq!(rows.len(), 28);
    for per_app in rows.chunks(4) {
        let iterations: Vec<f64> = per_app.iter().map(|r| num(r, "iterations")).collect();
        assert!(
            iterations.windows(2).all(|w| w[0] <= w[1]),
            "{}: iterations {iterations:?} over datasets #1..#4",
            app(&per_app[0])
        );
    }
}

#[test]
fn table2_word_count_is_near_parity_and_allocator_bound_apps_win_twice() {
    let table = paper::table2(sweep()).json;
    let rows = rows(&table);
    // Both runtimes are bucket-contention bound on Word Count (paper:
    // 1.05x).
    let wc = num(row_of(rows, "Word Count (MapReduce)"), "speedup");
    assert!(
        (1.0 / 1.5..=1.5).contains(&wc),
        "Word Count vs MapCG = {wc:.2}x"
    );
    // MapCG's central allocator serializes every insert (paper: 2.42x and
    // 2.55x).
    for name in ["Patent Citation (MapReduce)", "Geo Location (MapReduce)"] {
        let s = num(row_of(rows, name), "speedup");
        assert!(s >= 2.0, "{name} vs MapCG = {s:.2}x");
    }
}

#[test]
fn mapcg_fails_on_every_larger_dataset_whose_table_outgrows_one_pass() {
    // "MapCG is unable to support a larger-than-memory hash table" (§VI-C):
    // the paper has it fail beyond the smallest dataset. Here it fails on
    // five of the nine larger cells. Word Count's table fits the heap on
    // every dataset (SEPO needs one pass there too), and at this scale
    // Geo Location #2 fits MapCG's single bucket group, which wastes less
    // of the heap than SEPO's per-group pages (EXPERIMENTS.md, Known
    // deviation 6).
    let fits = [
        (App::WordCount, [true, true, true]),
        (App::PatentCitation, [false, false, false]),
        (App::GeoLocation, [true, false, false]),
    ];
    let sweep = sweep();
    for (app, fits) in fits {
        for (idx, fits) in (1..4).zip(fits) {
            let ds = app.generate(idx, SCALE);
            let exec = Executor::new(ExecMode::ParallelDeterministic, Arc::new(Metrics::new()));
            let mapcg = run_mapcg(app, &ds, sweep.heap, &exec);
            assert_eq!(
                mapcg.is_ok(),
                fits,
                "{} #{}: MapCG {mapcg:?}",
                app.name(),
                idx + 1
            );
            // Where MapCG runs out of memory, SEPO iterates and finishes.
            let sepo_iterations = sweep.cell(app, idx).outcome.n_iterations();
            assert!(
                fits || sepo_iterations > 1,
                "{} #{}: MapCG failed where SEPO needed {sepo_iterations} pass",
                app.name(),
                idx + 1
            );
        }
    }
}

#[test]
fn table3_4kb_paging_overtakes_sepo_below_2x_oversubscription_and_sepo_grows_gently() {
    let table = paper::table3(SCALE).json;
    let rows = rows(&table);
    let memory = |r: &Value| num(r, "assumed_memory_bytes");
    let sepo = |r: &Value| num(r, "sepo_seconds");
    let paged_4kb = |r: &Value| match field(r, "transfers") {
        Value::Array(t) => num(&t[2], "seconds"),
        other => panic!("`transfers` is not an array: {other:?}"),
    };
    // The ladder starts at full residency; oversubscription is the
    // footprint over the assumed memory.
    let footprint = memory(&rows[0]);
    let crossing = rows
        .iter()
        .find(|r| paged_4kb(r) > sepo(r))
        .expect("4 KB paging never overtakes the SEPO total");
    let oversubscription = footprint / memory(crossing);
    assert!(
        oversubscription > 1.0 && oversubscription <= 2.0,
        "4 KB paging overtakes SEPO at {oversubscription:.2}x oversubscription"
    );
    // The SEPO column grows gently over the whole ladder (paper: 1.22 s →
    // 2.02 s).
    let growth = sepo(rows.last().unwrap()) / sepo(&rows[0]);
    assert!(
        (1.0..1.5).contains(&growth),
        "SEPO total grows {growth:.2}x"
    );
}

#[test]
fn lookup_phase_on_an_eighth_of_the_table_costs_at_most_1_5x_full_residency() {
    // At 1/4096 the 64 KiB heap floor makes the 1/2, 1/4 and 1/8 rows
    // identical, so this claim runs at the default scale.
    let lookup = paper::lookup_phase(256).json;
    let rows = rows(&lookup);
    let cost = num(&rows[3], "sim_seconds") / num(&rows[0], "sim_seconds");
    assert!(
        num(&rows[3], "heap_bytes") * 8.0 <= num(&rows[0], "heap_bytes"),
        "the last row stages through an eighth of the table"
    );
    assert!(cost <= 1.5, "1/8 heap costs {cost:.2}x full residency");
}
