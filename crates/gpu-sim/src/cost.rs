//! Cost model: event counts → simulated time.
//!
//! A kernel launch (or a CPU processing phase) is summarized by a
//! [`Snapshot`] delta plus a [`ContentionHistogram`]; the model converts
//! them to time as
//!
//! ```text
//! t = max(t_compute, t_memory) + t_divergence + t_contention
//! ```
//!
//! * `t_compute`  — scalar work at the engine's derated throughput,
//! * `t_memory`   — streaming traffic at coalesced bandwidth plus irregular
//!   traffic at random-access bandwidth (compute and memory overlap on both
//!   engines, hence the `max`),
//! * `t_divergence` — GPU only: serialized warp replays,
//! * `t_contention` — serialized atomic rounds on hot locations; the
//!   threshold at which a location becomes hot is `total / threads`, which
//!   is what makes the 10,240-thread GPU suffer contention on workloads
//!   (Word Count, §VI-B) where the 8-thread CPU does not.
//!
//! PCIe transfer time is *not* part of kernel time: transfers are costed by
//! [`crate::pcie::PcieBus`] and composed with kernel times by the pipeline
//! model ([`crate::pipeline`]), mirroring how BigKernel overlaps transfers
//! with computation.

use crate::clock::SimTime;
use crate::metrics::{ContentionHistogram, Snapshot};
use crate::spec::{DeviceSpec, HostSpec};

/// Fraction of peak device bandwidth achieved by coalesced streaming reads.
const GPU_STREAM_EFFICIENCY: f64 = 0.75;
/// Fraction of peak host bandwidth achieved by sequential streaming reads.
const CPU_STREAM_EFFICIENCY: f64 = 0.80;
/// On-chip shared memory bandwidth relative to peak DRAM bandwidth. Kepler
/// SMX shared memory sustains several times the device's DRAM rate with no
/// coalescing concerns, which is what makes block-combiner probes close to
/// free next to the device atomics they replace.
const GPU_SMEM_BANDWIDTH_RATIO: f64 = 8.0;

/// Converts event counts into simulated durations for the GPU device.
#[derive(Debug, Clone)]
pub struct GpuCostModel {
    spec: DeviceSpec,
}

impl GpuCostModel {
    pub fn new(spec: DeviceSpec) -> Self {
        GpuCostModel { spec }
    }

    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// Simulated duration of a kernel phase described by `s` (a snapshot
    /// *delta* covering just that phase) and the contention profile of the
    /// atomic updates the phase performed.
    pub fn kernel_time(&self, s: &Snapshot, contention: &ContentionHistogram) -> SimTime {
        let t_compute = s.compute_units as f64 / self.spec.compute_ops_per_sec();
        let t_stream =
            s.stream_bytes as f64 / (self.spec.mem_bandwidth as f64 * GPU_STREAM_EFFICIENCY);
        let t_irregular = s.device_bytes as f64 / self.spec.random_access_bandwidth();
        let t_smem =
            s.smem_bytes as f64 / (self.spec.mem_bandwidth as f64 * GPU_SMEM_BANDWIDTH_RATIO);
        let t_mem = t_stream + t_irregular + t_smem;
        let t_div = s.divergence_events as f64 * self.spec.divergence_ns / 1e9;
        let t_contention = self.contention_time(contention).as_secs_f64();
        SimTime::from_secs_f64(t_compute.max(t_mem) + t_div + t_contention)
    }

    /// Serialized-atomic penalty for the given update profile on this
    /// device's thread count.
    pub fn contention_time(&self, contention: &ContentionHistogram) -> SimTime {
        let total = contention.total_updates();
        if total == 0 {
            return SimTime::ZERO;
        }
        let threshold = (total / self.spec.resident_threads as u64).max(1);
        let excess = contention.excess_above(threshold);
        SimTime::from_secs_f64(excess as f64 * self.spec.atomic_conflict_ns / 1e9)
    }
}

/// Converts event counts into simulated durations for the host CPU.
#[derive(Debug, Clone)]
pub struct CpuCostModel {
    spec: HostSpec,
}

impl CpuCostModel {
    pub fn new(spec: HostSpec) -> Self {
        CpuCostModel { spec }
    }

    pub fn spec(&self) -> &HostSpec {
        &self.spec
    }

    /// Simulated duration of a multi-threaded CPU phase. Divergence events,
    /// if present in the snapshot, are ignored: CPUs have no warps.
    pub fn phase_time(&self, s: &Snapshot, contention: &ContentionHistogram) -> SimTime {
        let t_compute = s.compute_units as f64 / self.spec.compute_ops_per_sec();
        let t_stream =
            s.stream_bytes as f64 / (self.spec.mem_bandwidth as f64 * CPU_STREAM_EFFICIENCY);
        let t_irregular = s.device_bytes as f64 / self.spec.random_access_bandwidth();
        let t_mem = t_stream + t_irregular;
        let t_contention = self.contention_time(contention).as_secs_f64();
        SimTime::from_secs_f64(t_compute.max(t_mem) + t_contention)
    }

    /// Serialized penalty of contended lock/CAS rounds on the CPU's thread
    /// count.
    pub fn contention_time(&self, contention: &ContentionHistogram) -> SimTime {
        let total = contention.total_updates();
        if total == 0 {
            return SimTime::ZERO;
        }
        let threshold = (total / self.spec.threads as u64).max(1);
        let excess = contention.excess_above(threshold);
        SimTime::from_secs_f64(excess as f64 * self.spec.atomic_conflict_ns / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::ContentionHistogram;

    fn empty_contention() -> ContentionHistogram {
        ContentionHistogram::from_counts(std::iter::empty::<u64>())
    }

    #[test]
    fn compute_bound_kernel_scales_with_units() {
        let m = GpuCostModel::new(DeviceSpec::default());
        let mut s = Snapshot {
            compute_units: 1_260_000_000_000, // exactly 1 second of GPU compute
            ..Default::default()
        };
        let t = m.kernel_time(&s, &empty_contention());
        assert!((t.as_secs_f64() - 1.0).abs() < 1e-9, "{t}");
        s.compute_units *= 2;
        let t2 = m.kernel_time(&s, &empty_contention());
        assert!((t2.as_secs_f64() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn memory_and_compute_overlap_via_max() {
        let m = GpuCostModel::new(DeviceSpec::default());
        let mut s = Snapshot {
            compute_units: 1_260_000_000_000, // 1 s compute
            device_bytes: 4_200_000_000,      // 0.1 s irregular at 42 GB/s
            ..Default::default()
        };
        let t = m.kernel_time(&s, &empty_contention());
        assert!((t.as_secs_f64() - 1.0).abs() < 1e-6, "{t}");
        // Flip: memory-dominated.
        s.compute_units = 0;
        s.device_bytes = 42_000_000_000; // 1 s
        let t = m.kernel_time(&s, &empty_contention());
        assert!((t.as_secs_f64() - 1.0).abs() < 1e-6, "{t}");
    }

    #[test]
    fn smem_traffic_is_far_cheaper_than_device_traffic() {
        let m = GpuCostModel::new(DeviceSpec::default());
        let smem = Snapshot {
            smem_bytes: 1_000_000_000,
            ..Default::default()
        };
        let dev = Snapshot {
            device_bytes: 1_000_000_000,
            ..Default::default()
        };
        let t_smem = m.kernel_time(&smem, &empty_contention());
        let t_dev = m.kernel_time(&dev, &empty_contention());
        assert!(t_smem > SimTime::ZERO);
        assert!(
            t_dev.ratio(t_smem) > 5.0,
            "smem={t_smem} dev={t_dev} ratio={}",
            t_dev.ratio(t_smem)
        );
    }

    #[test]
    fn divergence_adds_serial_time() {
        let m = GpuCostModel::new(DeviceSpec::default());
        let s = Snapshot {
            divergence_events: 1_000_000,
            ..Default::default()
        };
        let t = m.kernel_time(&s, &empty_contention());
        let expected = 1e6 * DeviceSpec::default().divergence_ns / 1e9;
        assert!((t.as_secs_f64() - expected).abs() < 1e-9);
    }

    #[test]
    fn gpu_contention_threshold_depends_on_thread_count() {
        // One location takes 50% of 1M updates: hot for 10,240 GPU threads
        // (threshold 97) but also for 8 CPU threads (threshold 125k) — the
        // *excess* differs by the threshold subtraction.
        let counts: Vec<u64> = std::iter::once(500_000u64)
            .chain(std::iter::repeat_n(1, 500_000))
            .collect();
        let h = ContentionHistogram::from_counts(counts);
        let gpu = GpuCostModel::new(DeviceSpec::default());
        let cpu = CpuCostModel::new(HostSpec::default());
        let t_gpu = gpu.contention_time(&h);
        let t_cpu = cpu.contention_time(&h);
        // GPU excess ≈ 500k - 97; CPU excess ≈ 500k - 125k = 375k, but CPU
        // per-round cost is higher; the *relative* penalty (vs a no-hot-key
        // profile) is what the harness exercises. Both must be nonzero here.
        assert!(t_gpu > SimTime::ZERO);
        assert!(t_cpu > SimTime::ZERO);
    }

    #[test]
    fn uniform_profile_contends_on_gpu_before_cpu() {
        // 1M updates over 5k locations (200 each). GPU threshold:
        // 1M/10240 = 97 → excess (200-97)*5000. CPU threshold: 125k → none.
        let h = ContentionHistogram::from_counts(vec![200u64; 5_000]);
        let gpu = GpuCostModel::new(DeviceSpec::default());
        let cpu = CpuCostModel::new(HostSpec::default());
        assert!(gpu.contention_time(&h) > SimTime::ZERO);
        assert_eq!(cpu.contention_time(&h), SimTime::ZERO);
    }

    #[test]
    fn cpu_ignores_divergence() {
        let m = CpuCostModel::new(HostSpec::default());
        let s = Snapshot {
            divergence_events: 1_000_000_000,
            ..Default::default()
        };
        assert_eq!(m.phase_time(&s, &empty_contention()), SimTime::ZERO);
    }

    #[test]
    fn gpu_beats_cpu_on_identical_regular_work() {
        // The paper's premise: for regular, contention-free work the GPU's
        // raw rates win by a large factor.
        let s = Snapshot {
            compute_units: 10_000_000_000,
            stream_bytes: 2_000_000_000,
            device_bytes: 500_000_000,
            ..Default::default()
        };
        let gpu = GpuCostModel::new(DeviceSpec::default()).kernel_time(&s, &empty_contention());
        let cpu = CpuCostModel::new(HostSpec::default()).phase_time(&s, &empty_contention());
        assert!(
            cpu.ratio(gpu) > 5.0,
            "cpu={cpu} gpu={gpu} ratio={}",
            cpu.ratio(gpu)
        );
    }

    #[test]
    fn zero_snapshot_costs_zero() {
        let gpu = GpuCostModel::new(DeviceSpec::default());
        let cpu = CpuCostModel::new(HostSpec::default());
        let s = Snapshot::default();
        assert_eq!(gpu.kernel_time(&s, &empty_contention()), SimTime::ZERO);
        assert_eq!(cpu.phase_time(&s, &empty_contention()), SimTime::ZERO);
    }
}
