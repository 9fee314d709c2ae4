//! Hardware specifications for the simulated system.
//!
//! Default values are calibrated to the testbed of the SEPO paper (§VI-A):
//! an Nvidia GeForce GTX 780ti (2,880 CUDA cores @ 875 MHz, 3 GB GDDR5 @
//! 336 GB/s) connected over PCIe Gen3 x16 to a 3.8 GHz quad-core Intel Xeon
//! E5 with 8 hardware threads and 16 GB of quad-channel DDR3-1800.
//!
//! A global [`scale`](SystemSpec::scaled) knob shrinks *capacities* (device
//! memory, host memory) together with the dataset sizes used by the
//! evaluation harness so that the experiments run in seconds while keeping
//! the paper's regime — a hash table that grows to several times the size of
//! device memory. Rates (bandwidths, frequencies) are never scaled: only
//! sizes are, so time *ratios* between configurations are preserved.

/// Number of lanes in a warp. Fixed at 32, as on all Nvidia GPUs including
/// the GTX 780ti used by the paper.
pub const WARP_SIZE: usize = 32;

/// Warps per thread block: 8 warps = 256 threads, the launch geometry
/// [`DeviceSpec::resident_threads`] assumes (four such blocks resident per
/// SMX). A block is the executor's scheduling unit and the scope of a
/// kernel's shared-memory scratch state.
pub const BLOCK_WARPS: usize = 8;

/// Specification of the simulated GPU device.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceSpec {
    /// Total number of scalar cores (2,880 for the GTX 780ti).
    pub cores: u32,
    /// Core clock in Hz (875 MHz).
    pub clock_hz: u64,
    /// Total device memory in bytes (3 GB).
    pub memory_bytes: u64,
    /// Peak device memory bandwidth in bytes/second (336 GB/s).
    pub mem_bandwidth: u64,
    /// Fraction of peak memory bandwidth achievable by the irregular,
    /// pointer-chasing accesses of a chained hash table. Hash-table walks
    /// defeat coalescing, so effective bandwidth is a small fraction of
    /// peak; 1/8 is in line with published measurements of random access on
    /// Kepler-class parts.
    pub random_access_efficiency: f64,
    /// Number of resident threads the kernels are launched with. The paper
    /// tunes this per application ("configured to run with the number of GPU
    /// threads that result in the best execution time"); 10,240 — four
    /// thread blocks of 256 threads per SMX on 10 SMXs — is a representative
    /// operating point for Kepler and is what the cost model's contention
    /// term uses.
    pub resident_threads: u32,
    /// Serialized throughput cost of one contended atomic, in nanoseconds.
    /// GPU atomics to the same address serialize in the L2 atomic units at
    /// roughly 200-300 M ops/s on Kepler-class parts — ~4 ns per op once a
    /// location is hot.
    pub atomic_conflict_ns: f64,
    /// Extra cost charged per warp-divergence event (one event = one extra
    /// branch class executed by a warp), in nanoseconds. A divergent warp
    /// replays its long switch-case body once per distinct class — for the
    /// parse-heavy kernels modelled here that replay is several hundred
    /// nanoseconds of serialized work per class (the effect §VI-B blames
    /// for Inverted Index's poor GPU showing).
    pub divergence_ns: f64,
}

impl Default for DeviceSpec {
    fn default() -> Self {
        DeviceSpec {
            cores: 2_880,
            clock_hz: 875_000_000,
            memory_bytes: 3 * GB,
            mem_bandwidth: 336 * GB,
            random_access_efficiency: 0.125,
            resident_threads: 10_240,
            atomic_conflict_ns: 4.0,
            divergence_ns: 400.0,
        }
    }
}

impl DeviceSpec {
    /// Aggregate scalar throughput in operations/second, derated by a factor
    /// accounting for instruction mix (the simple parse/hash/insert kernels
    /// of Big Data analytics retire well below one useful op per core per
    /// cycle; 0.5 is the derate used throughout).
    pub fn compute_ops_per_sec(&self) -> f64 {
        self.cores as f64 * self.clock_hz as f64 * 0.5
    }

    /// Effective bandwidth (bytes/s) for irregular hash-table traffic.
    pub fn random_access_bandwidth(&self) -> f64 {
        self.mem_bandwidth as f64 * self.random_access_efficiency
    }
}

/// Specification of the host CPU.
#[derive(Debug, Clone, PartialEq)]
pub struct HostSpec {
    /// Physical cores (4 on the paper's Xeon E5).
    pub cores: u32,
    /// Hardware threads (8 with hyper-threading).
    pub threads: u32,
    /// Clock in Hz (3.8 GHz).
    pub clock_hz: u64,
    /// Host memory size in bytes (16 GB).
    pub memory_bytes: u64,
    /// Peak host memory bandwidth in bytes/second (~57.6 GB/s for
    /// quad-channel DDR3-1800; the paper quotes 115 GB/s for Skylake in its
    /// motivation but the testbed is older).
    pub mem_bandwidth: u64,
    /// Fraction of peak bandwidth achieved by pointer-chasing hash-table
    /// accesses on the CPU. CPUs have large caches and out-of-order cores,
    /// so they tolerate irregularity better than GPUs: 0.35 vs the GPU's
    /// 0.125.
    pub random_access_efficiency: f64,
    /// Serialized cost of one contended atomic/lock round on the CPU, in
    /// nanoseconds (cache-line ping-pong between cores).
    pub atomic_conflict_ns: f64,
    /// Useful ops per hardware-thread cycle on branchy parse/insert code.
    /// Hyper-threads share ports and the code is branch/latency bound:
    /// 8 threads on 4 cores sustain ~0.9 useful ops/cycle/core.
    pub ops_per_cycle_per_thread: f64,
}

impl Default for HostSpec {
    fn default() -> Self {
        HostSpec {
            cores: 4,
            threads: 8,
            clock_hz: 3_800_000_000,
            memory_bytes: 16 * GB,
            mem_bandwidth: 57_600_000_000,
            random_access_efficiency: 0.35,
            atomic_conflict_ns: 60.0,
            ops_per_cycle_per_thread: 0.45,
        }
    }
}

impl HostSpec {
    /// Aggregate scalar throughput in operations/second across all hardware
    /// threads.
    pub fn compute_ops_per_sec(&self) -> f64 {
        self.threads as f64 * self.clock_hz as f64 * self.ops_per_cycle_per_thread
    }

    /// Effective bandwidth for irregular hash-table traffic on the host.
    pub fn random_access_bandwidth(&self) -> f64 {
        self.mem_bandwidth as f64 * self.random_access_efficiency
    }
}

/// Specification of the PCIe interconnect between host and device.
#[derive(Debug, Clone, PartialEq)]
pub struct PcieSpec {
    /// Effective bandwidth for large, pipelined DMA transfers, bytes/s.
    /// PCIe Gen3 x16 peaks at 15.75 GB/s; ~12 GB/s is the sustained figure
    /// for large cudaMemcpy transfers of the era.
    pub bulk_bandwidth: u64,
    /// Effective bandwidth for small (sub-page) transactions, bytes/s.
    /// Small transfers cannot amortize the protocol overhead; effective
    /// throughput collapses by a factor of ~5 even with deep memory-level
    /// parallelism across outstanding requests. This is the
    /// term that makes the pinned-memory alternative of Fig. 7 lose: "the
    /// data is transferred over many small PCIe transactions, which is much
    /// costlier than a few bulky PCIe transactions" (§VI-D).
    pub small_bandwidth: u64,
    /// Fixed per-transaction initiation latency in nanoseconds (driver +
    /// DMA engine + protocol round trip); ~1.2 µs for the era's stacks.
    pub transaction_latency_ns: u64,
}

impl Default for PcieSpec {
    fn default() -> Self {
        PcieSpec {
            bulk_bandwidth: 12 * GB,
            small_bandwidth: 2_400_000_000,
            transaction_latency_ns: 1_200,
        }
    }
}

const GB: u64 = 1_000_000_000;

/// Complete system specification: device + host + interconnect.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SystemSpec {
    pub device: DeviceSpec,
    pub host: HostSpec,
    pub pcie: PcieSpec,
    /// Capacity scale divisor applied by [`SystemSpec::scaled`]; 1 means
    /// paper-scale capacities.
    pub scale: u64,
}

impl SystemSpec {
    /// Paper-testbed specification at full scale.
    pub fn paper() -> Self {
        SystemSpec {
            scale: 1,
            ..Default::default()
        }
    }

    /// Return a copy with all *capacities* divided by `scale` (rates are
    /// untouched). The evaluation harness divides dataset sizes by the same
    /// factor, preserving the ratio of hash-table size to device memory that
    /// drives SEPO's iteration behaviour.
    pub fn scaled(scale: u64) -> Self {
        let scale = scale.max(1);
        let mut s = SystemSpec::paper();
        s.scale = scale;
        s.device.memory_bytes /= scale;
        s.host.memory_bytes /= scale;
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_testbed() {
        let s = SystemSpec::paper();
        assert_eq!(s.device.cores, 2_880);
        assert_eq!(s.device.clock_hz, 875_000_000);
        assert_eq!(s.device.memory_bytes, 3 * GB);
        assert_eq!(s.device.mem_bandwidth, 336 * GB);
        assert_eq!(s.host.threads, 8);
        assert_eq!(s.host.clock_hz, 3_800_000_000);
        assert_eq!(s.scale, 1);
    }

    #[test]
    fn gpu_outclasses_cpu_on_raw_rates() {
        // The premise of the paper's motivation (§II): order-of-magnitude
        // more compute and ~6x the memory bandwidth on the GPU side.
        let s = SystemSpec::paper();
        let gpu = s.device.compute_ops_per_sec();
        let cpu = s.host.compute_ops_per_sec();
        assert!(gpu / cpu > 10.0, "gpu/cpu = {}", gpu / cpu);
        assert!(s.device.mem_bandwidth > 5 * s.host.mem_bandwidth);
    }

    #[test]
    fn scaling_divides_capacities_only() {
        let s = SystemSpec::scaled(256);
        let p = SystemSpec::paper();
        assert_eq!(s.device.memory_bytes, p.device.memory_bytes / 256);
        assert_eq!(s.host.memory_bytes, p.host.memory_bytes / 256);
        // Rates untouched.
        assert_eq!(s.device.mem_bandwidth, p.device.mem_bandwidth);
        assert_eq!(s.pcie.bulk_bandwidth, p.pcie.bulk_bandwidth);
        assert_eq!(s.scale, 256);
    }

    #[test]
    fn scale_zero_clamps_to_one() {
        assert_eq!(SystemSpec::scaled(0).scale, 1);
    }

    #[test]
    fn random_access_derates_gpu_more_than_cpu() {
        let s = SystemSpec::paper();
        assert!(s.device.random_access_efficiency < s.host.random_access_efficiency);
        // But absolute GPU random-access bandwidth still beats the CPU's.
        assert!(s.device.random_access_bandwidth() > s.host.random_access_bandwidth());
    }

    #[test]
    fn small_pcie_transactions_are_much_slower() {
        let p = PcieSpec::default();
        assert!(p.bulk_bandwidth / p.small_bandwidth >= 4);
    }
}
