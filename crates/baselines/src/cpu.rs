//! CPU multi-threaded baseline for the four stand-alone applications.
//!
//! Fig. 6's baseline: "The CPU-based versions use a hash table design
//! similar to our GPU-based hash table design except that they do not use
//! the SEPO model of computation given that the entire hash table fits in
//! CPU memory" (§VI-B). We therefore run the *same* application code and
//! the *same* chained hash table, but with a heap sized to host memory (so
//! no insert is ever postponed and the run completes in one pass), and
//! price the recorded events with the host cost model — 8 hardware threads,
//! host memory rates, host contention threshold, no PCIe transfers and no
//! divergence.

use gpu_sim::executor::{ExecMode, Executor};
use gpu_sim::metrics::{ContentionHistogram, Metrics, Snapshot};
use sepo_apps::{run_app, AppConfig};
use sepo_datagen::{App, Dataset};
use std::sync::Arc;

/// Event record of a baseline run, priced later by the harness.
pub struct BaselineRun {
    /// All events of the processing phase.
    pub snapshot: Snapshot,
    /// Per-bucket update profile for the contention term.
    pub contention: ContentionHistogram,
    /// Number of distinct result keys (verification/reporting).
    pub result_keys: usize,
}

/// Heap size that guarantees single-pass execution: comfortably larger
/// than any hash table the dataset can produce.
pub fn ample_heap(dataset: &Dataset) -> u64 {
    (dataset.size_bytes() * 8).max(16 << 20)
}

/// Run `app` on the CPU baseline (shared chained hash table, no SEPO).
pub fn run_cpu_app(app: App, dataset: &Dataset) -> BaselineRun {
    let metrics = Arc::new(Metrics::new());
    let executor =
        Executor::new(ExecMode::ParallelDeterministic, Arc::clone(&metrics)).without_leases();
    let cfg = AppConfig::new(ample_heap(dataset));
    let run = run_app(app, dataset, &cfg, &executor);
    assert_eq!(
        run.iterations(),
        1,
        "CPU baseline must never postpone: heap sized too small"
    );
    let contention = run.table.full_contention_histogram();
    let result_keys = run.table.collect_grouped().len();
    BaselineRun {
        snapshot: metrics.snapshot(),
        contention,
        result_keys,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_pass_and_events_recorded() {
        let ds = App::PageViewCount.generate(0, 16_384);
        let run = run_cpu_app(App::PageViewCount, &ds);
        assert!(run.snapshot.compute_units > 0);
        assert!(run.snapshot.device_bytes > 0);
        assert_eq!(run.snapshot.alloc_postponed, 0, "no SEPO on the CPU");
        assert!(run.result_keys > 0);
        assert!(run.contention.total_updates() > 0);
    }

    #[test]
    fn cpu_baseline_matches_reference_counts() {
        let ds = App::PageViewCount.generate(0, 32_768);
        let reference = sepo_apps::pvc::reference(&ds);
        let run = run_cpu_app(App::PageViewCount, &ds);
        assert_eq!(run.result_keys, reference.len());
    }

    #[test]
    fn all_standalone_apps_run() {
        for app in [
            App::InvertedIndex,
            App::PageViewCount,
            App::DnaAssembly,
            App::Netflix,
        ] {
            let ds = app.generate(0, 32_768);
            let run = run_cpu_app(app, &ds);
            assert!(run.result_keys > 0, "{}", app.name());
        }
    }
}
