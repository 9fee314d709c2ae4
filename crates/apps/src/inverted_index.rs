//! Inverted Index: multi-valued grouping with heavy divergence (§IV-B).
//!
//! Takes HTML pages and outputs a 1:N mapping from hyperlinks (keys) to the
//! pages containing them (values) — the paper's Fig. 3 example. One task
//! (page) emits one pair per link, resuming mid-page after postponement.
//!
//! The paper notes Inverted Index "has a long switch-case block in its core
//! logic, which causes a high degree of thread divergence in GPUs" (§VI-B).
//! The kernel models that by declaring a branch class per parser path
//! (derived from page structure), so warps whose lanes parse structurally
//! different pages serialize.

use crate::common::{run_kernel, AppConfig, AppRun};
use gpu_sim::executor::Executor;
use gpu_sim::Charge;
use sepo_core::config::Organization;
use sepo_datagen::html::parse_page;
use sepo_datagen::Dataset;
use sepo_mapreduce::Emitter;
use std::collections::HashMap;

/// Run Inverted Index over `dataset` on the SEPO substrate.
pub fn run(dataset: &Dataset, cfg: &AppConfig, executor: &Executor) -> AppRun {
    run_kernel(
        dataset,
        cfg,
        executor,
        Organization::MultiValued,
        |table, t, start, lane| {
            let record = dataset.record(t);
            // HTML scanning is branch-heavy: ~6 units per byte, plus a
            // divergent dispatch whose path depends on page structure.
            lane.compute(12 * record.len() as u64);
            let (path, links) = parse_page(record);
            lane.branch_class((links.len() % 16) as u32);
            let mut emitter = Emitter::new(table, lane, start);
            for link in links {
                if !emitter.emit_grouped(link, &path) {
                    break;
                }
            }
            emitter.finish()
        },
    )
}

/// Sequential reference implementation (verification oracle). Values are
/// returned sorted per key.
pub fn reference(dataset: &Dataset) -> HashMap<Vec<u8>, Vec<Vec<u8>>> {
    let mut index: HashMap<Vec<u8>, Vec<Vec<u8>>> = HashMap::new();
    for rec in dataset.records() {
        let (path, links) = parse_page(rec);
        for link in links {
            index.entry(link.to_vec()).or_default().push(path.clone());
        }
    }
    for v in index.values_mut() {
        v.sort();
    }
    index
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::test_executor;
    use sepo_datagen::html::{generate, HtmlConfig};

    fn corpus(bytes: u64) -> Dataset {
        generate(
            &HtmlConfig {
                target_bytes: bytes,
                n_links: Some(300),
                ..Default::default()
            },
            21,
        )
    }

    fn normalized(run: &AppRun) -> HashMap<Vec<u8>, Vec<Vec<u8>>> {
        run.table
            .collect_multivalued()
            .into_iter()
            .map(|(k, mut vs)| {
                vs.sort();
                (k, vs)
            })
            .collect()
    }

    #[test]
    fn matches_reference_with_ample_memory() {
        let ds = corpus(80_000);
        let (exec, _) = test_executor();
        let run = run(&ds, &AppConfig::new(1 << 21), &exec);
        assert_eq!(run.iterations(), 1);
        assert_eq!(normalized(&run), reference(&ds));
    }

    #[test]
    fn matches_reference_under_memory_pressure() {
        let ds = corpus(120_000);
        let (exec, _) = test_executor();
        let run = run(&ds, &AppConfig::new(24 * 1024), &exec);
        assert!(run.iterations() > 1, "24 KiB heap must iterate");
        assert_eq!(normalized(&run), reference(&ds));
    }

    #[test]
    fn records_divergence() {
        let ds = corpus(60_000);
        let (exec, metrics) = test_executor();
        let _ = run(&ds, &AppConfig::new(1 << 21), &exec);
        assert!(
            metrics.snapshot().divergence_events > 0,
            "structurally varied pages must diverge"
        );
    }
}
