//! Netflix: user-pair similarity scoring (§VI-A).
//!
//! "Calculates a similarity score between each pair of users based on
//! their movie preferences \[3\]. Each KV pair … is of the form
//! <userA&userB, similarity score between two users for a movie>. The
//! application uses the combining method."
//!
//! One task is one movie record; it emits a pair for every two users who
//! rated the movie (k·(k−1)/2 pairs), combined by addition across movies.

use crate::common::{run_kernel, AppConfig, AppRun};
use gpu_sim::executor::Executor;
use gpu_sim::Charge;
use sepo_core::config::{Combiner, Organization};
use sepo_core::sepo::TaskResult;
use sepo_core::table::InsertStatus;
use sepo_datagen::ratings::{pair_key, parse_movie, similarity};
use sepo_datagen::Dataset;
use std::collections::HashMap;

/// Run Netflix over `dataset` on the SEPO substrate.
pub fn run(dataset: &Dataset, cfg: &AppConfig, executor: &Executor) -> AppRun {
    run_kernel(
        dataset,
        cfg,
        executor,
        Organization::Combining(Combiner::Add),
        |table, t, start, lane| {
            let record = dataset.record(t);
            lane.compute(8 * record.len() as u64);
            let Some((_movie, raters)) = parse_movie(record) else {
                return TaskResult::Done;
            };
            // Deterministic pair enumeration order: (i, j), j > i.
            let mut pair_idx = 0u32;
            for i in 0..raters.len() {
                for j in i + 1..raters.len() {
                    if pair_idx >= start {
                        let (ua, ra) = raters[i];
                        let (ub, rb) = raters[j];
                        let key = pair_key(ua, ub);
                        lane.compute(30);
                        match table.insert_combining(&key, similarity(ra, rb), lane) {
                            InsertStatus::Success => {}
                            InsertStatus::Postponed => {
                                return TaskResult::Postponed {
                                    next_pair: pair_idx,
                                };
                            }
                        }
                    }
                    pair_idx += 1;
                }
            }
            TaskResult::Done
        },
    )
}

/// Sequential reference implementation (verification oracle). Keys are the
/// 16-byte order-normalized pair keys.
pub fn reference(dataset: &Dataset) -> HashMap<Vec<u8>, u64> {
    let mut scores: HashMap<Vec<u8>, u64> = HashMap::new();
    for record in dataset.records() {
        let Some((_m, raters)) = parse_movie(record) else {
            continue;
        };
        for i in 0..raters.len() {
            for j in i + 1..raters.len() {
                let (ua, ra) = raters[i];
                let (ub, rb) = raters[j];
                *scores.entry(pair_key(ua, ub).to_vec()).or_insert(0) += similarity(ra, rb);
            }
        }
    }
    scores
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::test_executor;
    use sepo_datagen::ratings::{generate, RatingsConfig};

    fn movies(bytes: u64) -> Dataset {
        generate(
            &RatingsConfig {
                target_bytes: bytes,
                n_users: Some(300),
                ..Default::default()
            },
            41,
        )
    }

    #[test]
    fn matches_reference_with_ample_memory() {
        let ds = movies(40_000);
        let (exec, _) = test_executor();
        let run = run(&ds, &AppConfig::new(4 << 20), &exec);
        assert_eq!(run.iterations(), 1);
        let got: HashMap<Vec<u8>, u64> = run.table.collect_combining().into_iter().collect();
        assert_eq!(got, reference(&ds));
    }

    #[test]
    fn matches_reference_under_memory_pressure() {
        let ds = movies(60_000);
        let (exec, _) = test_executor();
        let run = run(&ds, &AppConfig::new(48 * 1024), &exec);
        assert!(run.iterations() > 1);
        let got: HashMap<Vec<u8>, u64> = run.table.collect_combining().into_iter().collect();
        assert_eq!(got, reference(&ds));
    }

    #[test]
    fn pair_counts_are_quadratic_per_movie() {
        // Sanity on task decomposition: a movie with k raters contributes
        // k(k-1)/2 pair emissions.
        let ds = movies(20_000);
        let mut total_pairs = 0usize;
        for rec in ds.records() {
            let (_, raters) = parse_movie(rec).unwrap();
            total_pairs += raters.len() * (raters.len() - 1) / 2;
        }
        assert!(total_pairs > ds.len(), "pairs must outnumber records");
    }
}
