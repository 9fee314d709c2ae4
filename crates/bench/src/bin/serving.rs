//! Online-serving bench: epoch-snapshot point lookups under live SEPO
//! iterations, all seven §VI applications.
//!
//! For each app this runs a serving-off baseline (parallel-deterministic
//! executor, audit and sanitizer on) and then the identical run with an
//! [`sepo_core::EpochPublisher`] wired in. At every published epoch the
//! harness fires a Zipf-skewed mixed query load (point lookups on
//! combining tables, grouped scans on multi-valued ones, one absent key
//! in five) through a separate serving executor and prices each batch
//! from the serving executor's own metrics delta: probe-kernel time at
//! device rates plus the bulk PCIe uploads/downloads the batch charged.
//!
//! Two gates make this a regression harness rather than a report:
//!
//! - **Byte-identity.** The serving run's saved table image, iteration
//!   trajectory, and driver metrics snapshot must equal the baseline's —
//!   serving must be observationally free.
//! - **Oracle.** The finalized epoch must answer every key exactly as the
//!   offline collectors do.
//!
//! Writes `results/BENCH_serving.json` with p50/p99
//! simulated per-query latency per app, and exits non-zero on any
//! divergence.

use gpu_sim::cost::GpuCostModel;
use gpu_sim::executor::{ExecMode, Executor};
use gpu_sim::metrics::{ContentionHistogram, Metrics};
use gpu_sim::pcie::PcieBus;
use gpu_sim::SystemSpec;
use sepo_bench::harness::{
    instrumented_run, require, standard_config, standard_executor, BenchRun, REGRESSION_SCALE,
};
use sepo_core::{EpochPublisher, Organization, SepoTable};
use sepo_datagen::{App, Dataset, Rng, Zipf};
use std::sync::{Arc, Mutex};

/// Records per app — the scale the repo's regression harnesses share.
const SCALE: u64 = REGRESSION_SCALE;
/// Device heap small enough that every app runs several iterations, so
/// serving sees epochs with state split across device and host.
const HEAP_BYTES: u64 = 96 << 10;
/// Tasks per kernel launch (several launches per iteration).
const CHUNK_TASKS: usize = 32;
/// Query batches fired at each published epoch.
const BATCHES_PER_EPOCH: usize = 8;
/// Queries per batch (dedup shrinks the probe to the unique keys).
const BATCH: usize = 256;
/// Zipf skew of the query mix (the paper's skewed-workload setting).
const ZIPF_S: f64 = 0.9;
/// Base seed for the per-epoch query generators.
const QUERY_SEED: u64 = 0x5E17_BEEF;

fn empty_hist() -> ContentionHistogram {
    ContentionHistogram::from_counts(std::iter::empty::<u64>())
}

struct ServeLoad {
    /// Per-batch mean per-query simulated latency, in seconds.
    per_query_secs: Vec<f64>,
    epochs: u32,
    queries: u64,
    hits: u64,
    errors: Vec<String>,
}

/// One audited + sanitized run; `publisher` arms epoch publication.
fn run_once(app: App, ds: &Dataset, publisher: Option<&Arc<EpochPublisher>>) -> BenchRun {
    let exec = standard_executor(None);
    let mut cfg = standard_config(HEAP_BYTES, CHUNK_TASKS);
    if let Some(p) = publisher {
        cfg = cfg.with_serving(Arc::clone(p));
    }
    instrumented_run(app, ds, &cfg, &exec)
}

/// Hook body: fire the epoch's query batches and price each one from the
/// serving executor's metrics delta.
#[allow(clippy::too_many_arguments)]
fn serve_epoch(
    snap: &sepo_core::EpochSnapshot,
    exec: &Executor,
    serve_metrics: &Metrics,
    gpu: &GpuCostModel,
    bus: &PcieBus,
    load: &mut ServeLoad,
) {
    load.epochs += 1;
    let keys = snap.visible_keys();
    if keys.is_empty() {
        return;
    }
    let mut rng = Rng::new(QUERY_SEED ^ u64::from(snap.iteration()));
    let zipf = Zipf::new(keys.len(), ZIPF_S);
    for _ in 0..BATCHES_PER_EPOCH {
        let owned: Vec<Vec<u8>> = (0..BATCH)
            .map(|i| {
                if i % 5 == 4 {
                    format!("absent-{i}").into_bytes()
                } else {
                    keys[zipf.sample(&mut rng)].clone()
                }
            })
            .collect();
        let queries: Vec<&[u8]> = owned.iter().map(Vec::as_slice).collect();
        let before = serve_metrics.snapshot();
        let hits = match snap.organization() {
            Organization::Combining(_) => match snap.batch_get(exec, &queries) {
                Ok(ans) => ans.iter().filter(|a| a.is_some()).count(),
                Err(e) => {
                    load.errors.push(format!("epoch {}: {e}", snap.iteration()));
                    continue;
                }
            },
            Organization::MultiValued => match snap.batch_get_grouped(exec, &queries) {
                Ok(ans) => ans.iter().filter(|a| a.is_some()).count(),
                Err(e) => {
                    load.errors.push(format!("epoch {}: {e}", snap.iteration()));
                    continue;
                }
            },
            Organization::Basic => return,
        };
        let d = serve_metrics.snapshot().delta(&before);
        // Price the batch: probe-kernel time at device rates plus the bulk
        // transfers it charged (each with its own initiation latency).
        let lat0 = bus.bulk_transfer_time(0);
        let t = gpu.kernel_time(&d, &empty_hist())
            + bus.bulk_transfer_time(d.pcie_bulk_bytes)
            + lat0 * d.pcie_bulk_transfers.saturating_sub(1);
        load.per_query_secs.push(t.as_secs_f64() / BATCH as f64);
        load.queries += queries.len() as u64;
        load.hits += hits as u64;
    }
}

/// Finalized-epoch oracle: every key the offline collectors report must
/// answer identically from the last published epoch.
fn final_oracle(
    table: &SepoTable,
    publisher: &EpochPublisher,
    exec: &Executor,
) -> Result<usize, String> {
    let snap = publisher.current().ok_or("no epoch published")?;
    if !snap.finalized() {
        return Err("last epoch is not the finalized one".into());
    }
    let mut checked = 0usize;
    match snap.organization() {
        Organization::Combining(_) => {
            let truth = table.collect_combining();
            for chunk in truth.chunks(4096) {
                let q: Vec<&[u8]> = chunk.iter().map(|(k, _)| k.as_slice()).collect();
                let ans = snap.batch_get(exec, &q).map_err(|e| e.to_string())?;
                for ((k, v), a) in chunk.iter().zip(&ans) {
                    if *a != Some(*v) {
                        return Err(format!(
                            "key {:?}: epoch says {a:?}, collectors say {v}",
                            String::from_utf8_lossy(k)
                        ));
                    }
                    checked += 1;
                }
            }
        }
        Organization::MultiValued => {
            let truth = table.collect_multivalued();
            for chunk in truth.chunks(1024) {
                let q: Vec<&[u8]> = chunk.iter().map(|(k, _)| k.as_slice()).collect();
                let ans = snap
                    .batch_get_grouped(exec, &q)
                    .map_err(|e| e.to_string())?;
                for ((k, vs), a) in chunk.iter().zip(&ans) {
                    let mut want = vs.clone();
                    want.sort();
                    let mut got = a.clone().unwrap_or_default();
                    got.sort();
                    if got != want {
                        return Err(format!(
                            "key {:?}: grouped answer diverges",
                            String::from_utf8_lossy(k)
                        ));
                    }
                    checked += 1;
                }
            }
        }
        Organization::Basic => {}
    }
    Ok(checked)
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

fn main() {
    let spec = SystemSpec::scaled(SCALE);
    let mut rows = Vec::new();
    let mut failed = false;
    let mut total_queries = 0u64;

    for app in App::ALL {
        let ds = app.generate(0, SCALE);
        let baseline = run_once(app, &ds, None);

        // The serving run: the table must be rebuilt from scratch so the
        // comparison is run-against-run, not table-against-itself.
        let publisher = Arc::new(EpochPublisher::default());
        let serve_metrics = Arc::new(Metrics::new());
        let serve_exec = Arc::new(Executor::new(
            ExecMode::ParallelDeterministic,
            Arc::clone(&serve_metrics),
        ));
        let load = Arc::new(Mutex::new(ServeLoad {
            per_query_secs: Vec::new(),
            epochs: 0,
            queries: 0,
            hits: 0,
            errors: Vec::new(),
        }));
        {
            let load = Arc::clone(&load);
            let exec = Arc::clone(&serve_exec);
            let metrics = Arc::clone(&serve_metrics);
            let gpu = GpuCostModel::new(spec.device.clone());
            let bus = PcieBus::new(spec.pcie.clone(), Arc::new(Metrics::new()));
            publisher.on_epoch(move |snap| {
                serve_epoch(snap, &exec, &metrics, &gpu, &bus, &mut load.lock().unwrap());
            });
        }

        let ds2 = app.generate(0, SCALE);
        let serving = run_once(app, &ds2, Some(&publisher));

        let image_ok = require(
            app.name(),
            "serving run's table image identical",
            serving.image == baseline.image,
        );
        let traj_ok = require(
            app.name(),
            "serving run's trajectory identical",
            serving.trajectory == baseline.trajectory,
        );
        let metrics_ok = require(
            app.name(),
            "serving left the driver's metrics untouched",
            serving.snapshot == baseline.snapshot,
        );

        let oracle = final_oracle(&serving.run.table, &publisher, &serve_exec);
        let (oracle_ok, oracle_keys) = match &oracle {
            Ok(n) => (true, *n),
            Err(e) => {
                eprintln!("FAIL: {}: final-epoch oracle: {e}", app.name());
                (false, 0)
            }
        };

        let st = load.lock().unwrap();
        for e in &st.errors {
            eprintln!("FAIL: {}: serving error: {e}", app.name());
        }
        let clean = image_ok && traj_ok && metrics_ok && oracle_ok && st.errors.is_empty();
        failed |= !clean;

        let mut lat = st.per_query_secs.clone();
        lat.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let p50_us = percentile(&lat, 0.50) * 1e6;
        let p99_us = percentile(&lat, 0.99) * 1e6;
        total_queries += st.queries;
        let serve_snap = serve_metrics.snapshot();
        println!(
            "{:>15}: {:>2} epochs, {:>5} queries ({:>5} hits), \
             p50 {:>7.3}us  p99 {:>7.3}us per query, oracle over {} keys: {}",
            app.name(),
            st.epochs,
            st.queries,
            st.hits,
            p50_us,
            p99_us,
            oracle_keys,
            if clean { "ok" } else { "FAILED" },
        );
        rows.push(serde_json::json!({
            "app": app.name(),
            "iterations": baseline.iterations(),
            "epochs": st.epochs,
            "batches": lat.len(),
            "queries": st.queries,
            "hits": st.hits,
            "p50_query_latency_us": p50_us,
            "p99_query_latency_us": p99_us,
            "serving_bulk_transfers": serve_snap.pcie_bulk_transfers,
            "serving_bulk_bytes": serve_snap.pcie_bulk_bytes,
            "oracle_keys_checked": oracle_keys,
            "image_identical": image_ok,
            "trajectory_identical": traj_ok,
            "metrics_identical": metrics_ok,
            "oracle_ok": oracle_ok,
        }));
    }

    let report = serde_json::json!({
        "bench": "online serving: epoch-snapshot lookups under live SEPO iterations",
        "scale": SCALE,
        "heap_bytes": HEAP_BYTES,
        "chunk_tasks": CHUNK_TASKS,
        "batches_per_epoch": BATCHES_PER_EPOCH,
        "batch_queries": BATCH,
        "zipf_s": ZIPF_S,
        "query_seed": QUERY_SEED,
        "apps": rows,
        "total_queries": total_queries,
        "all_identical_and_oracle_ok": !failed,
    });
    sepo_bench::write_json("BENCH_serving", &report);
    println!(
        "\n{} queries served across {} apps; wrote results/BENCH_serving.json",
        total_queries,
        App::ALL.len()
    );
    if failed {
        std::process::exit(1);
    }
}
