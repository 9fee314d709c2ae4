//! Ablation B — the basic method's halt threshold (§IV-C).
//!
//! "The computation is allowed to continue until the requests from 50% of
//! the bucket groups are being postponed … We observed acceptable
//! performance with setting the threshold to 50%."
//!
//! Sweep the threshold on a basic-organization workload. A low threshold
//! halts eagerly: many short iterations, each paying the fixed eviction
//! and restart cost on a barely-used heap. A high threshold drags each
//! pass to the end of the input while most inserts postpone: wasted input
//! streaming and kernel time. The sweet spot sits in the middle.

use gpu_sim::executor::{ExecMode, Executor};
use gpu_sim::metrics::Metrics;
use sepo_bench::report::fmt_bytes;
use sepo_bench::{device_heap, gpu_total_time, scale, system, Table};
use sepo_core::config::{Organization, TableConfig};
use sepo_core::sepo::{DriverConfig, SepoDriver, TaskResult};
use sepo_core::table::{InsertStatus, SepoTable};
use sepo_datagen::{weblog, Dataset};
use std::sync::Arc;

/// A basic-method workload: store every request line keyed by URL (no
/// grouping — e.g. building a raw request index).
fn run_basic(
    ds: &Dataset,
    heap: u64,
    threshold: f64,
) -> (sepo_core::SepoOutcome, SepoTable, Arc<Metrics>) {
    let metrics = Arc::new(Metrics::new());
    let exec = Executor::new(ExecMode::ParallelDeterministic, Arc::clone(&metrics));
    let cfg = TableConfig::tuned(Organization::Basic, heap).with_halt_threshold(threshold);
    let table = SepoTable::new(cfg, heap, Arc::clone(&metrics));
    let outcome = {
        let driver = SepoDriver::new(&table, &exec).with_config(DriverConfig {
            chunk_tasks: 2048,
            ..DriverConfig::default()
        });
        driver.run(
            ds.len(),
            |t| ds.record_bytes(t),
            |t, _start, lane| {
                use gpu_sim::Charge;
                let rec = ds.record(t);
                lane.compute(6 * rec.len() as u64);
                let Some(url) = weblog::parse_url(rec) else {
                    return TaskResult::Done;
                };
                match table.insert_basic(url, rec, lane) {
                    InsertStatus::Success => TaskResult::Done,
                    InsertStatus::Postponed => TaskResult::Postponed { next_pair: 0 },
                }
            },
        )
    };
    (outcome, table, metrics)
}

fn main() {
    let spec = system();
    let scale = scale();
    let heap = device_heap(&spec);
    // Basic method stores every record: the table is ~as large as the
    // input, so a dataset a few times the heap exercises the halt policy.
    let ds = weblog::generate(
        &weblog::WeblogConfig {
            target_bytes: heap * 3,
            ..Default::default()
        },
        2024,
    );

    let mut table = Table::new(
        "Ablation B (SS IV-C): basic-method halt threshold",
        &[
            "Threshold",
            "Iterations",
            "Early halts",
            "Re-streamed input",
            "Postponed inserts",
            "Total (sim)",
        ],
    );
    let mut json = Vec::new();
    for threshold in [0.05, 0.25, 0.5, 0.75, 1.0] {
        let (outcome, t, metrics) = run_basic(&ds, heap, threshold);
        let hist = t.full_contention_histogram();
        let timing = gpu_total_time(&outcome, &hist, &spec);
        let halts = outcome.iterations.iter().filter(|i| i.halted_early).count();
        let restreamed = outcome.total_input_bytes().saturating_sub(ds.size_bytes());
        let postponed = metrics.snapshot().alloc_postponed;
        table.row(vec![
            format!("{:.0}%", threshold * 100.0),
            timing.iterations.to_string(),
            halts.to_string(),
            fmt_bytes(restreamed),
            postponed.to_string(),
            timing.total.to_string(),
        ]);
        json.push(serde_json::json!({
            "threshold": threshold,
            "iterations": timing.iterations,
            "early_halts": halts,
            "restreamed_bytes": restreamed,
            "postponed": postponed,
            "total_seconds": timing.total.as_secs_f64(),
        }));
    }
    table.note(format!(
        "scale = 1/{scale}; basic-method web-log store, input = 3x heap ({})",
        fmt_bytes(ds.size_bytes())
    ));
    table.note("the paper runs with 50%: low thresholds churn iterations, high ones waste postponed passes");
    table.print();
    sepo_bench::write_json(
        "ablation_threshold",
        &serde_json::json!({ "scale": scale, "rows": json }),
    );
}
