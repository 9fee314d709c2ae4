//! Demand-paging alternative (Table III, §VI-D).
//!
//! Reproduces the paper's methodology exactly: instrument PVC to record its
//! hash-table access pattern, replay the trace through an LRU
//! page-replacement simulation for a ladder of assumed free GPU memory
//! sizes, and convert the replacement count into a *lower-bound* PCIe
//! transfer time ("this data transfer time is only one of the overheads
//! associated with demand paging").

use gpu_sim::clock::SimTime;
use gpu_sim::executor::{ExecMode, Executor};
use gpu_sim::metrics::Metrics;
use gpu_sim::paging::{AccessTrace, LruSimulator};
use gpu_sim::pcie::PcieBus;
use parking_lot::Mutex;
use sepo_apps::{pvc, AppConfig};
use sepo_datagen::Dataset;
use std::sync::Arc;

/// One Table III row.
#[derive(Debug, Clone)]
pub struct PagingRow {
    /// "Assumed physical GPU memory" in bytes.
    pub assumed_memory: u64,
    /// Lower-bound data transfer time per page size, in the paper's column
    /// order: (page_size_bytes, transfer_time).
    pub transfer_times: Vec<(u64, SimTime)>,
}

/// Record PVC's hash-table access trace with a heap large enough that the
/// full table is built in one pass (the trace a demand-paging GPU would
/// exhibit over an unbounded virtual table).
pub fn record_pvc_trace(dataset: &Dataset) -> (AccessTrace, u64) {
    use sepo_core::config::{Combiner, Organization, TableConfig};
    let metrics = Arc::new(Metrics::new());
    let executor = Executor::new(ExecMode::ParallelDeterministic, Arc::clone(&metrics));
    let heap = crate::cpu::ample_heap(dataset);
    // Packed layout for the virtual table the trace addresses: small pages
    // and few bucket groups, so nearly every page fills before the next is
    // opened and virtual addresses stay dense (the paper's trace addresses
    // one contiguous 1.2 GB table).
    let organization = Organization::Combining(Combiner::Add);
    let mut table = TableConfig::tuned(organization, heap).with_page_size(4096);
    table.buckets_per_group = table.n_buckets.div_ceil(8);
    let cfg = AppConfig::new(heap).with_table(table);
    let trace = Mutex::new(AccessTrace::with_capacity(dataset.len()));
    let run = pvc::run_with_trace(dataset, &cfg, &executor, Some(&trace));
    assert_eq!(
        run.iterations(),
        1,
        "trace run must not be perturbed by SEPO"
    );
    let (_, table_bytes) = run.table.host_footprint();
    (trace.into_inner(), table_bytes)
}

/// Replay `trace` for each `(assumed_memory, page_sizes)` combination and
/// produce Table III's transfer-time matrix.
pub fn paging_lower_bounds(
    trace: &AccessTrace,
    assumed_memories: &[u64],
    page_sizes: &[u64],
    bus: &PcieBus,
) -> Vec<PagingRow> {
    assumed_memories
        .iter()
        .map(|&mem| {
            let transfer_times = page_sizes
                .iter()
                .map(|&ps| {
                    let out = LruSimulator::new(ps, mem).replay(trace);
                    let t = bus.paged_transfer_time(out.replacements, ps, true);
                    (ps, t)
                })
                .collect();
            PagingRow {
                assumed_memory: mem,
                transfer_times,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::spec::PcieSpec;
    use sepo_datagen::weblog::{generate, WeblogConfig};

    fn bus() -> PcieBus {
        PcieBus::new(PcieSpec::default(), Arc::new(Metrics::new()))
    }

    fn log() -> Dataset {
        generate(
            &WeblogConfig {
                target_bytes: 120_000,
                n_urls: Some(2_000),
                ..Default::default()
            },
            77,
        )
    }

    #[test]
    fn trace_covers_table_footprint() {
        let ds = log();
        let (trace, table_bytes) = record_pvc_trace(&ds);
        assert_eq!(trace.len(), ds.len());
        // The trace's address footprint is within the table's size.
        assert!(trace.footprint() <= table_bytes * 2);
        assert!(trace.footprint() > table_bytes / 4);
    }

    #[test]
    fn table3_shape_holds() {
        // Shrinking assumed memory monotonically increases transfer time;
        // when everything fits, transfer time is zero; larger pages cost
        // more than smaller pages at equal fault counts.
        let ds = log();
        let (trace, _) = record_pvc_trace(&ds);
        let footprint = trace.footprint();
        let memories: Vec<u64> = (1..=5).rev().map(|i| footprint * i / 5).collect();
        // Page sizes scaled to the test table's ~100 KiB footprint the same
        // way Table III's 1 MB/128 KB/4 KB relate to its 1.2 GB table.
        let rows = paging_lower_bounds(&trace, &memories, &[16384, 4096, 1024], &bus());
        assert_eq!(rows.len(), 5);
        // Row 0: table fits entirely => no transfers at any page size.
        for &(_, t) in &rows[0].transfer_times {
            assert_eq!(t, SimTime::ZERO);
        }
        // Monotone in memory per page size.
        for col in 0..3 {
            for w in rows.windows(2) {
                assert!(
                    w[1].transfer_times[col].1 >= w[0].transfer_times[col].1,
                    "less memory must not transfer less"
                );
            }
        }
        // At the smallest memory, bigger pages move more data.
        let last = &rows[4].transfer_times;
        assert!(last[0].1 >= last[2].1, "bigger pages must move more data");
    }
}
