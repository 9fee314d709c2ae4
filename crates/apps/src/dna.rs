//! DNA Assembly: k-mer graph construction (§VI-A).
//!
//! "Merges fragments of a DNA sequence to reconstruct a larger sequence
//! \[Meraculous\]. Each KV pair … is of the form <part of the DNA fragment,
//! edges of the fragment>. The application uses the combining method."
//!
//! Each read decomposes into its k-mers; for every k-mer occurrence the
//! kernel inserts `<k-mer, edge bits>` where the edge bits encode the
//! observed predecessor/successor bases, combined with bitwise OR — the
//! de Bruijn graph edge set accumulates across overlapping reads.

use crate::common::{combine_into, run_kernel, AppConfig, AppRun};
use gpu_sim::executor::Executor;
use gpu_sim::Charge;
use sepo_core::config::{Combiner, Organization};
use sepo_core::sepo::TaskResult;
use sepo_core::table::InsertStatus;
use sepo_datagen::dna::edge_bits;
use sepo_datagen::Dataset;
use std::collections::HashMap;

/// k-mer length. 16 bases fit GPU-friendly fixed-size keys while keeping
/// collision probability negligible for our genome sizes.
pub const K: usize = 16;

/// Run DNA Assembly (k-mer graph construction) over `dataset`.
pub fn run(dataset: &Dataset, cfg: &AppConfig, executor: &Executor) -> AppRun {
    run_kernel(
        dataset,
        cfg,
        executor,
        Organization::Combining(Combiner::Or),
        |table, t, start, lane| {
            let record = dataset.record(t);
            let read = record.strip_suffix(b"\n").unwrap_or(record);
            lane.compute(6 * read.len() as u64);
            if read.len() < K {
                return TaskResult::Done;
            }
            // Pair i = k-mer starting at base i; resume where we left.
            let n_kmers = read.len() - K + 1;
            for i in (start as usize)..n_kmers {
                let kmer = &read[i..i + K];
                let prev = (i > 0).then(|| read[i - 1]);
                let next = (i + K < read.len()).then(|| read[i + K]);
                let bits = edge_bits(prev, next);
                match table.insert_combining(kmer, bits, lane) {
                    InsertStatus::Success => {}
                    InsertStatus::Postponed => {
                        return TaskResult::Postponed {
                            next_pair: i as u32,
                        };
                    }
                }
            }
            TaskResult::Done
        },
    )
}

/// Sequential reference implementation (verification oracle).
pub fn reference(dataset: &Dataset) -> HashMap<Vec<u8>, u64> {
    let mut graph: HashMap<Vec<u8>, u64> = HashMap::new();
    for record in dataset.records() {
        let read = record.strip_suffix(b"\n").unwrap_or(record);
        if read.len() < K {
            continue;
        }
        for i in 0..=read.len() - K {
            let prev = (i > 0).then(|| read[i - 1]);
            let next = (i + K < read.len()).then(|| read[i + K]);
            combine_into(
                &mut graph,
                &read[i..i + K],
                edge_bits(prev, next),
                Combiner::Or,
            );
        }
    }
    graph
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::test_executor;
    use sepo_datagen::dna::{generate, DnaConfig};

    fn reads(bytes: u64) -> Dataset {
        generate(
            &DnaConfig {
                target_bytes: bytes,
                coverage: 6.0,
                error_rate: 0.0,
                ..Default::default()
            },
            31,
        )
    }

    #[test]
    fn matches_reference_with_ample_memory() {
        let ds = reads(30_000);
        let (exec, _) = test_executor();
        let run = run(&ds, &AppConfig::new(4 << 20), &exec);
        assert_eq!(run.iterations(), 1);
        let got: HashMap<Vec<u8>, u64> = run.table.collect_combining().into_iter().collect();
        assert_eq!(got, reference(&ds));
    }

    #[test]
    fn matches_reference_under_memory_pressure() {
        let ds = reads(40_000);
        let (exec, _) = test_executor();
        let run = run(&ds, &AppConfig::new(64 * 1024), &exec);
        assert!(run.iterations() > 1);
        let got: HashMap<Vec<u8>, u64> = run.table.collect_combining().into_iter().collect();
        assert_eq!(got, reference(&ds));
    }

    #[test]
    fn interior_kmers_have_both_edges() {
        let ds = reads(20_000);
        let g = reference(&ds);
        // With coverage, most k-mers should eventually see both a
        // predecessor and a successor.
        let both = g
            .values()
            .filter(|&&b| b & 0xF != 0 && (b >> 4) & 0xF != 0)
            .count();
        assert!(both * 2 > g.len(), "{both}/{}", g.len());
    }
}
