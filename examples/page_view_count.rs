//! Page View Count — the paper's running example (§III-B), end to end.
//!
//! Generates a synthetic web log, runs the PVC application on the SEPO
//! substrate with a deliberately small device heap (several iterations),
//! verifies the counts against a sequential oracle, and prints the top
//! URLs plus the simulated GPU-vs-CPU timing the way Figure 6 does.
//!
//! Run: `cargo run --release --example page_view_count`

use sepo::gpu_sim::{
    self,
    executor::{ExecMode, Executor},
    metrics::Metrics,
    spec::SystemSpec,
};
use sepo::sepo_apps::{pvc, AppConfig};
use sepo::sepo_baselines::run_cpu_app;
use sepo::sepo_datagen::weblog::{generate, WeblogConfig};
use sepo::sepo_datagen::App;
use std::sync::Arc;

fn main() {
    // ~4 MB of synthetic web log, Zipf-popular URLs.
    let ds = generate(
        &WeblogConfig {
            target_bytes: 4 << 20,
            ..Default::default()
        },
        42,
    );
    println!("input: {} bytes, {} requests", ds.size_bytes(), ds.len());

    // A 256 KiB heap: the URL table will outgrow it several times over.
    let heap = 256 * 1024;
    let metrics = Arc::new(Metrics::new());
    let exec = Executor::new(ExecMode::Parallel { workers: 0 }, Arc::clone(&metrics));
    let run = pvc::run(&ds, &AppConfig::new(heap), &exec);
    println!(
        "SEPO run: {} iterations, {} bytes evicted to CPU memory",
        run.iterations(),
        run.outcome.total_evicted_bytes()
    );

    // Exactness check against the sequential oracle.
    let mut counts = run.table.collect_combining();
    let oracle = pvc::reference(&ds);
    assert_eq!(counts.len(), oracle.len());
    for (url, n) in &counts {
        assert_eq!(oracle[url], *n);
    }
    println!("verified: {} distinct URLs, all counts exact", counts.len());

    counts.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
    println!("top URLs:");
    for (url, n) in counts.iter().take(5) {
        println!("  {:>7} hits  {}", n, String::from_utf8_lossy(url));
    }

    // Simulated timing (the evaluation harness does this for every app —
    // see `cargo run -p sepo-bench --bin paper figure6`).
    let spec = SystemSpec::paper();
    let gpu_model = gpu_sim::GpuCostModel::new(spec.device.clone());
    let hist = run.table.full_contention_histogram();
    let mut kernel_time = gpu_sim::SimTime::ZERO;
    for it in &run.outcome.iterations {
        kernel_time += gpu_model.kernel_time(&it.kernel, &hist);
    }
    let cpu = run_cpu_app(App::PageViewCount, &ds);
    let cpu_model = gpu_sim::CpuCostModel::new(spec.host.clone());
    let cpu_time = cpu_model.phase_time(&cpu.snapshot, &cpu.contention);
    println!(
        "simulated kernel time {kernel_time} vs CPU baseline {cpu_time} \
         (transfers excluded here; the bench harness adds them)"
    );
}
