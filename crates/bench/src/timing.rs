//! Assembling simulated end-to-end times from run accounting.
//!
//! The paper's execution times "include the input data transfer from CPU to
//! GPU and transfer of the hash table from GPU to CPU" (§VI-B); the GPU
//! total therefore composes, per SEPO iteration, the BigKernel-pipelined
//! overlap of input chunk uploads with kernel execution, plus the
//! iteration-boundary heap eviction transfer, plus (once per run) the
//! serialized-atomic contention penalty.

use gpu_sim::clock::SimTime;
use gpu_sim::cost::{CpuCostModel, GpuCostModel};
use gpu_sim::metrics::{ContentionHistogram, Metrics, Snapshot};
use gpu_sim::pcie::PcieBus;
use gpu_sim::pipeline::{pipelined_total, serial_total};
use gpu_sim::spec::SystemSpec;
use sepo_core::sepo::SepoOutcome;
use std::sync::Arc;

/// Breakdown of a simulated GPU run.
#[derive(Debug, Clone, Copy)]
pub struct GpuTiming {
    /// End-to-end simulated time.
    pub total: SimTime,
    /// Kernel execution (compute/memory/divergence), all iterations.
    pub kernel: SimTime,
    /// Input upload time hidden or exposed by the pipeline, plus eviction
    /// and final result downloads.
    pub transfers: SimTime,
    /// Serialized-atomic contention penalty.
    pub contention: SimTime,
    /// SEPO iterations.
    pub iterations: u32,
}

pub(crate) fn empty_hist() -> ContentionHistogram {
    ContentionHistogram::from_counts(std::iter::empty::<u64>())
}

/// Per-iteration simulated costs of one device's SEPO run: the
/// upload/kernel segment of its chunks, pipelined and serial, the boundary
/// eviction DMA, and the raw kernel time, plus the final result download.
pub(crate) struct IterationCosts {
    pub(crate) segments: Vec<SimTime>,
    pub(crate) serial_segments: Vec<SimTime>,
    pub(crate) evictions: Vec<SimTime>,
    kernels: Vec<SimTime>,
    final_download: SimTime,
}

pub(crate) fn iteration_costs(outcome: &SepoOutcome, spec: &SystemSpec) -> IterationCosts {
    let gpu = GpuCostModel::new(spec.device.clone());
    let bus = PcieBus::new(spec.pcie.clone(), Arc::new(Metrics::new()));
    let n = outcome.iterations.len();
    let mut costs = IterationCosts {
        segments: Vec::with_capacity(n),
        serial_segments: Vec::with_capacity(n),
        evictions: Vec::with_capacity(n),
        kernels: Vec::with_capacity(n),
        final_download: SimTime::ZERO,
    };
    for iter in &outcome.iterations {
        let k = gpu.kernel_time(&iter.kernel, &empty_hist());
        costs.kernels.push(k);
        let chunks = iter.chunks.max(1) as usize;
        let per_chunk_upload = bus.bulk_transfer_time(iter.input_bytes / chunks as u64);
        let per_chunk_kernel = k / chunks as u64;
        let uploads = vec![per_chunk_upload; chunks];
        let kernels = vec![per_chunk_kernel; chunks];
        costs.segments.push(pipelined_total(&uploads, &kernels));
        costs.serial_segments.push(serial_total(&uploads, &kernels));
        costs.evictions.push(if iter.evict.evicted_bytes > 0 {
            bus.bulk_transfer_time(iter.evict.evicted_bytes)
        } else {
            SimTime::ZERO
        });
    }
    if outcome.final_evict.evicted_bytes > 0 {
        costs.final_download = bus.bulk_transfer_time(outcome.final_evict.evicted_bytes);
    }
    costs
}

/// Simulated end-to-end time of a SEPO GPU run: the sharded clock over one
/// device.
pub fn gpu_total_time(
    outcome: &SepoOutcome,
    contention: &ContentionHistogram,
    spec: &SystemSpec,
) -> GpuTiming {
    sharded_total_time(&[(outcome, contention)], spec)
}

/// Simulated end-to-end time of a hash-prefix-sharded run across N
/// simulated devices.
///
/// Shards execute concurrently (each is its own device + bus) and
/// synchronize at iteration boundaries — the router hands every shard its
/// iteration-i batch before any shard starts iteration i+1 — so the
/// sharded clock is the per-iteration **makespan max** across shards of
/// that iteration's pipelined segment plus boundary eviction, composed
/// across iterations exactly like the single-device case (serial or
/// `evict_overlap`-pipelined). A shard that finished early contributes
/// zero to later iterations. The final result download and the
/// serialized-atomic contention penalty happen concurrently per device,
/// so they too enter as maxima.
pub fn sharded_total_time(
    shards: &[(&SepoOutcome, &ContentionHistogram)],
    spec: &SystemSpec,
) -> GpuTiming {
    assert!(!shards.is_empty(), "at least one shard");
    let gpu = GpuCostModel::new(spec.device.clone());
    let per_shard: Vec<IterationCosts> = shards
        .iter()
        .map(|(o, _)| iteration_costs(o, spec))
        .collect();
    let n_iters = per_shard.iter().map(|c| c.segments.len()).max().unwrap();
    let max_at = |field: fn(&IterationCosts) -> &[SimTime], i: usize| {
        per_shard
            .iter()
            .map(|c| field(c).get(i).copied().unwrap_or(SimTime::ZERO))
            .max()
            .unwrap_or(SimTime::ZERO)
    };
    let segments: Vec<SimTime> = (0..n_iters).map(|i| max_at(|c| &c.segments, i)).collect();
    let evictions: Vec<SimTime> = (0..n_iters).map(|i| max_at(|c| &c.evictions, i)).collect();
    let kernel_total = (0..n_iters).fold(SimTime::ZERO, |acc, i| acc + max_at(|c| &c.kernels, i));
    let evict_overlap = shards.iter().all(|(o, _)| o.evict_overlap);
    // Compose each iteration's pipelined upload/kernel segment with its
    // boundary eviction. Synchronous boundaries alternate strictly:
    // segment, eviction, segment, … A run priced with `evict_overlap`
    // assumes boundary i's DMA drains behind segment i+1, which is exactly
    // the BigKernel makespan recurrence with segments as the "transfer"
    // lane and evictions as the "compute" lane:
    // s_1 + Σ max(s_i, e_{i-1}) + e_n.
    let body = if evict_overlap {
        pipelined_total(&segments, &evictions)
    } else {
        serial_total(&segments, &evictions)
    };
    let final_download = per_shard
        .iter()
        .map(|c| c.final_download)
        .max()
        .unwrap_or(SimTime::ZERO);
    let contention_t = shards
        .iter()
        .map(|(_, h)| gpu.contention_time(h))
        .max()
        .unwrap_or(SimTime::ZERO);
    let transfer_total = (body - kernel_total) + final_download;
    let total = body + final_download + contention_t;
    GpuTiming {
        total,
        kernel: kernel_total,
        transfers: transfer_total,
        contention: contention_t,
        iterations: n_iters as u32,
    }
}

/// Simulated time of a CPU multi-threaded run (no transfers, host rates,
/// 8-thread contention threshold).
pub fn cpu_total_time(
    snapshot: &Snapshot,
    contention: &ContentionHistogram,
    spec: &SystemSpec,
) -> SimTime {
    CpuCostModel::new(spec.host.clone()).phase_time(snapshot, contention)
}

/// Simulated time of a single-pass GPU run described only by its event
/// snapshot (used for the MapCG baseline, which has no SEPO iteration
/// structure): pipelined input upload overlapping the kernel, one result
/// download, plus contention.
pub fn single_pass_gpu_time(
    snapshot: &Snapshot,
    contention: &ContentionHistogram,
    input_bytes: u64,
    output_bytes: u64,
    spec: &SystemSpec,
) -> SimTime {
    let gpu = GpuCostModel::new(spec.device.clone());
    let bus = PcieBus::new(spec.pcie.clone(), Arc::new(Metrics::new()));
    let kernel = gpu.kernel_time(snapshot, &empty_hist());
    let upload = bus.bulk_transfer_time(input_bytes);
    let download = bus.bulk_transfer_time(output_bytes);
    upload.max(kernel) + download + gpu.contention_time(contention)
}

/// Simulated time of a pinned-CPU-memory-heap run (Fig. 7): kernels at GPU
/// rates, heap traffic as small PCIe transactions, input uploaded once.
pub fn pinned_total_time(
    snapshot: &Snapshot,
    contention: &ContentionHistogram,
    input_bytes: u64,
    spec: &SystemSpec,
) -> SimTime {
    let gpu = GpuCostModel::new(spec.device.clone());
    let bus = PcieBus::new(spec.pcie.clone(), Arc::new(Metrics::new()));
    // Kernel-side work without the remote traffic (which the snapshot
    // already routed into the pcie_small counters).
    let kernel = gpu.kernel_time(snapshot, &empty_hist());
    // Remote heap accesses: GPU memory-level parallelism keeps on the
    // order of a hundred small transactions in flight across the bus.
    let remote = bus.small_transactions_time(
        snapshot.pcie_small_transactions,
        snapshot.pcie_small_bytes,
        96,
    );
    let upload = bus.bulk_transfer_time(input_bytes);
    let contention_t = gpu.contention_time(contention);
    upload.max(kernel) + remote + contention_t
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::executor::{ExecMode, Executor};
    use sepo_apps::{pvc, AppConfig};
    use sepo_datagen::App;

    fn small_run_cfg(heap: u64, overlap: bool) -> (SepoOutcome, ContentionHistogram, u64) {
        let ds = App::PageViewCount.generate(0, 8192);
        let metrics = Arc::new(Metrics::new());
        let exec = Executor::new(ExecMode::ParallelDeterministic, Arc::clone(&metrics));
        let run = pvc::run(
            &ds,
            &AppConfig::new(heap).with_evict_overlap(overlap),
            &exec,
        );
        let hist = run.table.contention_histogram();
        (run.outcome, hist, ds.size_bytes())
    }

    fn small_run(heap: u64) -> (SepoOutcome, ContentionHistogram, u64) {
        small_run_cfg(heap, false)
    }

    #[test]
    fn gpu_timing_composes_positive_terms() {
        let spec = SystemSpec::scaled(8192);
        // One pass, then the multi-iteration (evicting) trajectory.
        for heap in [1 << 20, 8 * 1024] {
            let (outcome, hist, _) = small_run(heap);
            let t = gpu_total_time(&outcome, &hist, &spec);
            assert!(t.total > SimTime::ZERO);
            assert!(t.kernel > SimTime::ZERO);
            assert!(t.transfers > SimTime::ZERO);
            assert_eq!(t.total, t.kernel + t.transfers + t.contention);
            assert_eq!(t.iterations, outcome.n_iterations());
        }
    }

    #[test]
    fn more_iterations_cost_more_time() {
        let spec = SystemSpec::scaled(8192);
        let (one_pass, h1, _) = small_run(4 << 20);
        let (multi, h2, _) = small_run(8 * 1024);
        assert!(multi.n_iterations() > one_pass.n_iterations());
        let t1 = gpu_total_time(&one_pass, &h1, &spec);
        let t2 = gpu_total_time(&multi, &h2, &spec);
        assert!(
            t2.total > t1.total,
            "extra SEPO iterations must cost simulated time: {} vs {}",
            t2.total,
            t1.total
        );
    }

    #[test]
    fn overlapped_eviction_prices_below_serial_on_identical_trajectories() {
        let spec = SystemSpec::scaled(8192);
        let (serial, hs, _) = small_run_cfg(8 * 1024, false);
        let (overlap, ho, _) = small_run_cfg(8 * 1024, true);
        assert!(serial.n_iterations() > 1, "the fixture must evict");
        assert_eq!(
            serial.iterations, overlap.iterations,
            "the pricing bit must not change the trajectory it prices"
        );
        let ts = gpu_total_time(&serial, &hs, &spec);
        let to = gpu_total_time(&overlap, &ho, &spec);
        assert_eq!(ts.kernel, to.kernel);
        assert!(
            to.total < ts.total,
            "hiding eviction DMA behind compute must save simulated time: \
             {} vs {}",
            to.total,
            ts.total
        );
        // The saving is bounded by what was eligible for hiding: the
        // overlapped makespan can never drop below the segments alone.
        assert!(to.total >= ts.kernel);
    }

    #[test]
    fn identical_shards_share_one_makespan() {
        // Two devices doing exactly the same work in parallel finish when
        // either one would alone: the per-iteration max of equals.
        let spec = SystemSpec::scaled(8192);
        let (outcome, hist, _) = small_run(8 * 1024);
        let single = gpu_total_time(&outcome, &hist, &spec);
        let two = sharded_total_time(&[(&outcome, &hist), (&outcome, &hist)], &spec);
        assert_eq!(two.total, single.total);
    }

    #[test]
    fn uneven_shards_price_at_the_slowest() {
        // A fast shard (fewer iterations) rides along for free; the
        // makespan equals the slow shard's own total.
        let spec = SystemSpec::scaled(8192);
        let (slow, hs, _) = small_run(8 * 1024);
        let (fast, hf, _) = small_run(4 << 20);
        assert!(slow.n_iterations() > fast.n_iterations());
        let slow_alone = gpu_total_time(&slow, &hs, &spec);
        let both = sharded_total_time(&[(&slow, &hs), (&fast, &hf)], &spec);
        assert_eq!(both.iterations, slow_alone.iterations);
        assert!(both.total >= slow_alone.total);
        // The fast shard only adds where its per-iteration cost exceeds
        // the slow one's — bounded by its own single-device total.
        let fast_alone = gpu_total_time(&fast, &hf, &spec);
        assert!(both.total <= slow_alone.total + fast_alone.total);
    }

    #[test]
    fn graceful_degradation_not_cliff() {
        // The headline claim: multi-iteration runs degrade gracefully —
        // the multi-iteration total stays within a small multiple of the
        // single-pass total, far from the order-of-magnitude cliff of the
        // alternatives.
        let spec = SystemSpec::scaled(8192);
        let (one_pass, h1, _) = small_run(4 << 20);
        let (multi, h2, _) = small_run(8 * 1024);
        let t1 = gpu_total_time(&one_pass, &h1, &spec).total;
        let t2 = gpu_total_time(&multi, &h2, &spec).total;
        let ratio = t2.ratio(t1);
        assert!(
            ratio < 6.0,
            "degradation must be graceful, got {ratio:.1}x over {} iterations",
            multi.n_iterations()
        );
    }
}
