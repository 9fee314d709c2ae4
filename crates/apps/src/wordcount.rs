//! Word Count (MapReduce): the contention-bound workload (§VI-B).
//!
//! "Counts the number of occurrences of each word in a document. Each KV
//! pair … is of the form <word, 1>. The application uses the MAP_REDUCE
//! mode." Built on the §V MapReduce runtime: the map function tokenizes
//! its record and emits `<word, 1>`; the reduce/combine callback is
//! addition, embedded in the insert.
//!
//! The small distinct-key universe of natural text concentrates updates on
//! few buckets; with thousands of GPU threads those atomic combines
//! serialize — why Word Count "does not perform as well on GPUs" (§VI-B).
//! The `ablation_wc_keys` bench reproduces the paper's observation that
//! artificially increasing the number of distinct keys recovers the lost
//! performance.

use crate::common::{combine_into, run_mapper, AppConfig, AppRun};
use gpu_sim::executor::Executor;
use gpu_sim::Charge;
use sepo_core::config::Combiner;
use sepo_datagen::Dataset;
use sepo_mapreduce::{Emitter, Mode};
use std::collections::HashMap;

/// Tokenize a record into words (ASCII whitespace separated). Shared with
/// the shard router and the Phoenix++ baseline, which must enumerate
/// exactly the keys the mapper emits.
pub fn words(record: &[u8]) -> impl Iterator<Item = &[u8]> {
    record
        .split(|&b| b == b' ' || b == b'\n' || b == b'\t' || b == b'\r')
        .filter(|w| !w.is_empty())
}

/// The Word Count mapper.
fn mapper(record: &[u8], out: &mut Emitter<'_, '_>) {
    out.lane().compute(8 * record.len() as u64);
    for w in words(record) {
        if !out.emit_combining(w, 1) {
            return;
        }
    }
}

/// Run Word Count over `dataset` through the MapReduce runtime.
pub fn run(dataset: &Dataset, cfg: &AppConfig, executor: &Executor) -> AppRun {
    run_mapper(
        dataset,
        cfg,
        executor,
        Mode::MapReduce(Combiner::Add),
        mapper,
    )
}

/// Sequential reference implementation (verification oracle).
pub fn reference(dataset: &Dataset) -> HashMap<Vec<u8>, u64> {
    let mut counts = HashMap::new();
    for rec in dataset.records() {
        for w in words(rec) {
            combine_into(&mut counts, w, 1, Combiner::Add);
        }
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::test_executor;
    use sepo_datagen::text::{generate, TextConfig};

    fn docs(bytes: u64, vocab: usize) -> Dataset {
        generate(
            &TextConfig {
                target_bytes: bytes,
                vocab_size: vocab,
                ..Default::default()
            },
            51,
        )
    }

    #[test]
    fn matches_reference_with_ample_memory() {
        let ds = docs(50_000, 3_000);
        let (exec, _) = test_executor();
        let run = run(&ds, &AppConfig::new(1 << 20), &exec);
        assert_eq!(run.iterations(), 1);
        let got: HashMap<Vec<u8>, u64> = run.table.collect_combining().into_iter().collect();
        assert_eq!(got, reference(&ds));
    }

    #[test]
    fn matches_reference_under_memory_pressure() {
        // Large vocabulary + tiny heap: force iterations while tasks emit
        // many pairs each (the resume-mid-task path).
        let ds = docs(80_000, 30_000);
        let (exec, _) = test_executor();
        let run = run(&ds, &AppConfig::new(32 * 1024), &exec);
        assert!(run.iterations() > 1);
        let got: HashMap<Vec<u8>, u64> = run.table.collect_combining().into_iter().collect();
        assert_eq!(got, reference(&ds));
    }

    #[test]
    fn contention_profile_is_hot() {
        let ds = docs(60_000, 3_000);
        let (exec, _) = test_executor();
        let run = run(&ds, &AppConfig::new(1 << 20), &exec);
        let h = run.table.contention_histogram();
        // The hottest bucket absorbs a large multiple of the mean — the
        // §VI-B contention signature.
        let mean = h.total_updates() / h.locations().max(1);
        assert!(
            h.max_count() > 10 * mean,
            "max {} mean {mean}",
            h.max_count()
        );
    }
}
