//! # sepo-bench — the evaluation harness (§VI)
//!
//! Regenerates every table and figure of the paper from real runs of the
//! system and its baselines. [`paper`] holds one function per artifact;
//! the `paper` binary runs them (all, or those named on its command line)
//! and writes `results/<name>.json`:
//!
//! | artifact | what it reproduces |
//! |---|---|
//! | `table1` | Table I — dataset inventory |
//! | `figure6` | Fig. 6 — speedup over CPU multi-threaded / Phoenix++, iteration counts |
//! | `table2` | Table II — speedup over MapCG |
//! | `figure7` | Fig. 7 — SEPO vs pinned-CPU-memory heap |
//! | `table3` | Table III — demand-paging lower bounds vs SEPO total time |
//! | `lookup_phase` | §IV-C SEPO lookups on a larger-than-memory table |
//! | `sensitivity` | the Fig. 6 runs re-priced under other GPUs and buses |
//! | `related_stadium` | §VII Stadium-hashing-like comparator |
//! | `ablation_group_size` | §IV-A bucket-group trade-off |
//! | `ablation_threshold` | §IV-C halt-threshold (50%) choice |
//! | `ablation_wc_keys` | §VI-B Word Count distinct-key sensitivity |
//! | `ablation_pipeline` | BigKernel overlap vs serial transfers |
//!
//! All reported durations are **simulated** ([`gpu_sim::SimTime`]) —
//! deterministic functions of counted events through the calibrated cost
//! models — while iteration counts, postponements and transfer volumes come
//! from real execution. The binary's `SEPO_SCALE` (default 256) sets the
//! 1/N capacity/dataset scale. The root package's `tests/paper_claims.rs`
//! pins the paper's shapes on these functions' JSON; byte-identity invariants of a feature
//! against its "off" run are tier-1 tests too; wall-clock figures come from
//! the repo benchmark (`perf/`).

pub mod harness;
pub mod paper;
pub mod report;
pub mod timing;

pub use harness::{host_parallelism, single_cpu_warning};
pub use report::{write_json, Table};
pub use timing::{
    cpu_total_time, gpu_total_time, pinned_total_time, sharded_total_time, GpuTiming,
};

use gpu_sim::spec::SystemSpec;

/// The capacity/dataset scale divisor (`SEPO_SCALE`, default 256).
pub fn scale() -> u64 {
    std::env::var("SEPO_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&s| s >= 1)
        .unwrap_or(256)
}

/// Fraction of device memory available to the hash-table heap after the
/// bucket array, locks, staging buffers and bitmaps take their share
/// (paper fn. 8: "its memory is shared among different data structures and
/// thus each data structure is given a smaller space").
pub const HEAP_FRACTION: f64 = 0.45;

/// Device heap bytes for the active scale.
pub fn device_heap(spec: &SystemSpec) -> u64 {
    (spec.device.memory_bytes as f64 * HEAP_FRACTION) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_reads_env_with_default() {
        if std::env::var("SEPO_SCALE").is_err() {
            assert_eq!(scale(), 256);
        }
    }

    #[test]
    fn device_heap_is_a_real_fraction() {
        let spec = SystemSpec::scaled(256);
        let heap = device_heap(&spec);
        assert!(heap > 0);
        assert!(heap < spec.device.memory_bytes);
    }
}
