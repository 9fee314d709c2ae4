//! Pinned-CPU-memory hash table baseline (Fig. 7, §VI-D).
//!
//! "We modified our dynamic memory allocator to pre-allocate its heap as a
//! pinned CPU memory region … The heap is allocated sufficiently large so
//! that the hash table's entire content can fit in it." GPU threads then
//! reach every entry over the PCIe bus with small remote transactions;
//! SEPO is never engaged (nothing postpones) but each chain hop, key
//! compare, entry write and combine crosses the interconnect — "the data
//! is transferred over many small PCIe transactions, which is much costlier
//! than a few bulky PCIe transactions."
//!
//! Implementation: the same applications run with a table override whose
//! [`TableConfig::remote_heap`] is set; the table prices heap traffic as
//! `pcie_small_*` events which the harness converts to time with the
//! small-transaction bus model.

use gpu_sim::executor::{ExecMode, Executor};
use gpu_sim::metrics::{ContentionHistogram, Metrics, Snapshot};
use sepo_apps::sharded::organization_of;
use sepo_apps::{run_app, AppConfig};
use sepo_core::TableConfig;
use sepo_datagen::{App, Dataset};
use std::sync::Arc;

/// Outcome of a pinned-heap run.
pub struct PinnedRun {
    pub snapshot: Snapshot,
    pub contention: ContentionHistogram,
    /// SEPO iterations — always 1: the CPU-resident heap never fills.
    pub iterations: u32,
}

/// Run `app` with its hash-table heap pinned in CPU memory.
pub fn run_pinned(app: App, dataset: &Dataset) -> PinnedRun {
    let metrics = Arc::new(Metrics::new());
    let executor = Executor::new(ExecMode::ParallelDeterministic, Arc::clone(&metrics));
    // "Sufficiently large so that the hash table's entire content can fit."
    let heap = crate::cpu::ample_heap(dataset);
    let table = TableConfig::tuned(organization_of(app), heap).with_remote_heap(true);
    let cfg = AppConfig::new(heap).with_table(table);
    let run = run_app(app, dataset, &cfg, &executor);
    assert_eq!(run.iterations(), 1, "pinned heap must never fill");
    PinnedRun {
        snapshot: metrics.snapshot(),
        contention: run.table.full_contention_histogram(),
        iterations: run.iterations(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heap_traffic_crosses_pcie() {
        let ds = App::PageViewCount.generate(0, 32_768);
        let run = run_pinned(App::PageViewCount, &ds);
        assert!(run.snapshot.pcie_small_transactions > 0);
        assert!(run.snapshot.pcie_small_bytes > 0);
        assert_eq!(run.iterations, 1);
    }

    #[test]
    fn remote_traffic_tracks_table_traffic_of_device_run() {
        // The pinned variant does the same table work; its small-PCIe bytes
        // should be on the order of the device run's heap bytes.
        let ds = App::PageViewCount.generate(0, 32_768);
        let pinned = run_pinned(App::PageViewCount, &ds);
        let cpu_like = crate::cpu::run_cpu_app(App::PageViewCount, &ds);
        let remote = pinned.snapshot.pcie_small_bytes as f64;
        let device = cpu_like.snapshot.device_bytes as f64;
        assert!(
            remote > device * 0.3 && remote < device * 3.0,
            "remote {remote} vs device {device}"
        );
    }

    #[test]
    fn every_app_runs_pinned() {
        for app in App::ALL {
            let ds = app.generate(0, 65_536);
            let run = run_pinned(app, &ds);
            assert!(
                run.snapshot.pcie_small_transactions > 0,
                "{} produced no remote traffic",
                app.name()
            );
        }
    }
}
