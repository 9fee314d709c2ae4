//! Ablation D — BigKernel-style transfer/compute overlap (§V, \[10\]).
//!
//! The runtime streams input chunks with double buffering so uploads hide
//! behind kernels. This ablation re-prices the same recorded runs with and
//! without the overlap (`pipelined_total` vs `serial_total`) across chunk
//! sizes, quantifying what the pipelining buys and how the chunk size
//! moves the trade-off (tiny chunks amortize poorly over per-transfer
//! latency; huge chunks leave nothing to overlap).
//!
//! A second section prices the *eviction* direction the same way: each
//! iteration's pipelined upload/kernel segment composed with its boundary
//! eviction DMA, either strictly alternating (the synchronous boundary) or
//! with each eviction draining behind the next segment (how a run with
//! `--evict-overlap on` is priced) — the same recurrence, run device→host.

use gpu_sim::clock::SimTime;
use gpu_sim::cost::GpuCostModel;
use gpu_sim::executor::{ExecMode, Executor};
use gpu_sim::metrics::{ContentionHistogram, Metrics};
use gpu_sim::pcie::PcieBus;
use gpu_sim::pipeline::{pipelined_total, serial_total};
use sepo_apps::{pvc, AppConfig};
use sepo_bench::{device_heap, scale, system, Table};
use sepo_datagen::App;
use std::sync::Arc;

fn main() {
    let spec = system();
    let scale = scale();
    let heap = device_heap(&spec);
    let ds = App::PageViewCount.generate(3, scale);
    let gpu = GpuCostModel::new(spec.device.clone());
    let bus = PcieBus::new(spec.pcie.clone(), Arc::new(Metrics::new()));
    let empty = ContentionHistogram::from_counts(std::iter::empty::<u64>());

    let mut table = Table::new(
        "Ablation D (SS V): BigKernel pipelining benefit (PVC dataset #4)",
        &[
            "Chunk (tasks)",
            "Chunks",
            "Pipelined (sim)",
            "Serial (sim)",
            "Saved",
        ],
    );
    let mut evict_table = Table::new(
        "Ablation D2 (SS V): eviction-direction overlap benefit (PVC dataset #4)",
        &[
            "Chunk (tasks)",
            "Boundaries",
            "Overlapped (sim)",
            "Serial (sim)",
            "Saved",
        ],
    );
    let mut json = Vec::new();
    let mut evict_json = Vec::new();
    for chunk_tasks in [1usize << 10, 1 << 12, 1 << 14, 1 << 16] {
        let metrics = Arc::new(Metrics::new());
        let exec = Executor::new(ExecMode::ParallelDeterministic, Arc::clone(&metrics));
        let mut cfg = AppConfig::new(heap);
        cfg.driver.chunk_tasks = chunk_tasks;
        let run = pvc::run(&ds, &cfg, &exec);
        // Price every iteration's chunk schedule both ways.
        let mut piped = SimTime::ZERO;
        let mut serial = SimTime::ZERO;
        let mut n_chunks = 0u32;
        for iter in &run.outcome.iterations {
            let k = gpu.kernel_time(&iter.kernel, &empty);
            let chunks = iter.chunks.max(1) as usize;
            n_chunks += iter.chunks;
            let uploads = vec![bus.bulk_transfer_time(iter.input_bytes / chunks as u64); chunks];
            let kernels = vec![k / chunks as u64; chunks];
            piped += pipelined_total(&uploads, &kernels);
            serial += serial_total(&uploads, &kernels);
        }
        let saved = serial - piped;
        table.row(vec![
            chunk_tasks.to_string(),
            n_chunks.to_string(),
            piped.to_string(),
            serial.to_string(),
            format!(
                "{saved} ({:.0}%)",
                100.0 * saved.as_secs_f64() / serial.as_secs_f64().max(1e-12)
            ),
        ]);
        json.push(serde_json::json!({
            "chunk_tasks": chunk_tasks,
            "chunks": n_chunks,
            "pipelined_seconds": piped.as_secs_f64(),
            "serial_seconds": serial.as_secs_f64(),
        }));
    }

    // Eviction direction: a heap tight enough to force several eviction
    // boundaries mid-run (a heap that fits everything only evicts at the
    // final boundary, which has no following segment to hide behind). The
    // recurrence is the same one, with whole iteration segments as the
    // "transfer" lane and boundary evictions as the "compute" lane.
    let tight_heap = heap / 64;
    for chunk_tasks in [1usize << 10, 1 << 12, 1 << 14, 1 << 16] {
        let metrics = Arc::new(Metrics::new());
        let exec = Executor::new(ExecMode::ParallelDeterministic, Arc::clone(&metrics));
        let mut cfg = AppConfig::new(tight_heap);
        cfg.driver.chunk_tasks = chunk_tasks;
        let run = pvc::run(&ds, &cfg, &exec);
        let mut segments = Vec::new();
        let mut evictions = Vec::new();
        for iter in &run.outcome.iterations {
            let k = gpu.kernel_time(&iter.kernel, &empty);
            let chunks = iter.chunks.max(1) as usize;
            let uploads = vec![bus.bulk_transfer_time(iter.input_bytes / chunks as u64); chunks];
            let kernels = vec![k / chunks as u64; chunks];
            segments.push(pipelined_total(&uploads, &kernels));
            evictions.push(if iter.evict.evicted_bytes > 0 {
                bus.bulk_transfer_time(iter.evict.evicted_bytes)
            } else {
                SimTime::ZERO
            });
        }
        let boundaries = evictions.iter().filter(|e| **e > SimTime::ZERO).count();
        let evict_overlapped = pipelined_total(&segments, &evictions);
        let evict_serial = serial_total(&segments, &evictions);
        let evict_saved = evict_serial - evict_overlapped;
        evict_table.row(vec![
            chunk_tasks.to_string(),
            boundaries.to_string(),
            evict_overlapped.to_string(),
            evict_serial.to_string(),
            format!(
                "{evict_saved} ({:.0}%)",
                100.0 * evict_saved.as_secs_f64() / evict_serial.as_secs_f64().max(1e-12)
            ),
        ]);
        evict_json.push(serde_json::json!({
            "chunk_tasks": chunk_tasks,
            "eviction_boundaries": boundaries,
            "pipelined_seconds": evict_overlapped.as_secs_f64(),
            "serial_seconds": evict_serial.as_secs_f64(),
        }));
    }
    table.note(format!(
        "scale = 1/{scale}; transfer/kernel schedule re-priced with and without overlap"
    ));
    table.print();
    evict_table.note(format!(
        "heap tightened to 1/64 to force mid-run boundaries; eviction DMA \
         priced as overlapped (drained behind the next iteration's segment) \
         vs strictly alternating; heap = {tight_heap} B"
    ));
    evict_table.print();
    sepo_bench::write_json(
        "ablation_pipeline",
        &serde_json::json!({
            "scale": scale,
            "rows": json,
            "eviction_rows": evict_json,
        }),
    );
}
