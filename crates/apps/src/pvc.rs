//! Page View Count: the paper's running example (§III-B).
//!
//! Reads a web log, extracts the URL of each request, and inserts
//! `<url, 1>` with the *combining* method — the table keeps `<url, n>`
//! after `n` inserts. One record emits one pair, so this is the cleanest
//! SEPO workload: a postponed record simply retries whole next iteration.

use crate::common::{combine_into, run_kernel, AppConfig, AppRun};
use gpu_sim::executor::Executor;
use gpu_sim::paging::AccessTrace;
use gpu_sim::Charge;
use parking_lot::Mutex;
use sepo_core::config::{Combiner, Organization};
use sepo_core::sepo::TaskResult;
use sepo_core::table::{InsertStatus, SepoTable};
use sepo_datagen::weblog::parse_url;
use sepo_datagen::Dataset;
use std::collections::HashMap;

/// Run PVC over `dataset` on the SEPO substrate.
pub fn run(dataset: &Dataset, cfg: &AppConfig, executor: &Executor) -> AppRun {
    run_with_trace(dataset, cfg, executor, None)
}

/// Run PVC, optionally recording the byte-granular hash-table access trace
/// used by the Table III demand-paging experiment ("we instrumented the
/// code of PVC to record the access pattern to the hash table", §VI-D).
///
/// The trace records, per insert, the *virtual* address the key's entry
/// occupies in a hypothetical single flat table — derived from the entry's
/// stable host link, so the trace is identical to what a non-SEPO table of
/// unlimited memory would exhibit.
pub fn run_with_trace(
    dataset: &Dataset,
    cfg: &AppConfig,
    executor: &Executor,
    trace: Option<&Mutex<AccessTrace>>,
) -> AppRun {
    run_kernel(
        dataset,
        cfg,
        executor,
        Organization::Combining(Combiner::Add),
        |table, t, _start, lane| {
            let record = dataset.record(t);
            lane.compute(8 * record.len() as u64); // scan + field parse
            let Some(url) = parse_url(record) else {
                return TaskResult::Done; // malformed line: skip
            };
            match table.insert_combining(url, 1, lane) {
                InsertStatus::Success => {
                    if let Some(tr) = trace {
                        // Virtual flat-table address of the entry.
                        if let Some(addr) = virtual_addr(table, url) {
                            tr.lock().record(addr);
                        }
                    }
                    TaskResult::Done
                }
                InsertStatus::Postponed => TaskResult::Postponed { next_pair: 0 },
            }
        },
    )
}

/// Flat virtual address of `url`'s entry: host page id × page size + offset.
/// Host page ids are dense and stable, so this is the address the entry
/// would occupy in one contiguous, never-evicted table — what a
/// demand-paging GPU would page over.
fn virtual_addr(table: &SepoTable, url: &[u8]) -> Option<u64> {
    let host = table.resident_entry_host(url)?;
    Some(host.host_page() * table.config().page_size as u64 + host.offset() as u64)
}

/// Sequential reference implementation (verification oracle).
pub fn reference(dataset: &Dataset) -> HashMap<Vec<u8>, u64> {
    let mut counts = HashMap::new();
    for rec in dataset.records() {
        if let Some(url) = parse_url(rec) {
            combine_into(&mut counts, url, 1, Combiner::Add);
        }
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::test_executor;
    use sepo_datagen::weblog::{generate, WeblogConfig};

    fn small_log() -> Dataset {
        generate(
            &WeblogConfig {
                target_bytes: 60_000,
                n_urls: Some(400),
                ..Default::default()
            },
            11,
        )
    }

    #[test]
    fn matches_reference_with_ample_memory() {
        let ds = small_log();
        let (exec, _) = test_executor();
        let run = run(&ds, &AppConfig::new(1 << 20), &exec);
        assert_eq!(run.iterations(), 1);
        let got: HashMap<Vec<u8>, u64> = run.table.collect_combining().into_iter().collect();
        assert_eq!(got, reference(&ds));
    }

    #[test]
    fn matches_reference_under_memory_pressure() {
        let ds = small_log();
        let (exec, _) = test_executor();
        // Tiny heap: forces several SEPO iterations.
        let run = run(&ds, &AppConfig::new(16 * 1024), &exec);
        assert!(run.iterations() > 1, "16 KiB heap must iterate");
        let got: HashMap<Vec<u8>, u64> = run.table.collect_combining().into_iter().collect();
        assert_eq!(got, reference(&ds));
    }

    #[test]
    fn trace_records_one_access_per_request() {
        let ds = small_log();
        let (exec, _) = test_executor();
        let trace = Mutex::new(AccessTrace::new());
        let run = run_with_trace(&ds, &AppConfig::new(1 << 20), &exec, Some(&trace));
        assert_eq!(run.iterations(), 1);
        let trace = trace.into_inner();
        assert_eq!(trace.len(), ds.len(), "every successful insert traced");
        assert!(trace.footprint() > 0);
    }
}
