//! Netflix: user-pair similarity scoring (§VI-A).
//!
//! "Calculates a similarity score between each pair of users based on
//! their movie preferences \[3\]. Each KV pair … is of the form
//! <userA&userB, similarity score between two users for a movie>. The
//! application uses the combining method."
//!
//! One task is one movie record; it emits a pair for every two users who
//! rated the movie (k·(k−1)/2 pairs), combined by addition across movies.

use crate::common::{combine_into, run_mapper, AppConfig, AppRun};
use gpu_sim::executor::Executor;
use gpu_sim::Charge;
use sepo_core::config::Combiner;
use sepo_datagen::ratings::{pair_key, parse_movie, similarity};
use sepo_datagen::Dataset;
use sepo_mapreduce::{Emitter, Mode};
use std::collections::HashMap;

/// The Netflix mapper: every pair goes through the emitter, so pairs of a
/// hot user reach the block combiner and a resumed task skips the pairs it
/// stored before. Building a pair costs 30 compute units, charged only on
/// the pairs this attempt stores.
fn mapper(record: &[u8], out: &mut Emitter<'_, '_>) {
    out.lane().compute(8 * record.len() as u64);
    let Some((_movie, raters)) = parse_movie(record) else {
        return;
    };
    // Deterministic pair enumeration order: (i, j), j > i.
    for (i, &(ua, ra)) in raters.iter().enumerate() {
        for &(ub, rb) in &raters[i + 1..] {
            if out.will_attempt() {
                out.lane().compute(30);
            }
            if !out.emit_combining(&pair_key(ua, ub), similarity(ra, rb)) {
                return;
            }
        }
    }
}

/// Run Netflix over `dataset` through the MapReduce runtime.
pub fn run(dataset: &Dataset, cfg: &AppConfig, executor: &Executor) -> AppRun {
    run_mapper(
        dataset,
        cfg,
        executor,
        Mode::MapReduce(Combiner::Add),
        mapper,
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
        for (i, &(ua, ra)) in raters.iter().enumerate() {
            for &(ub, rb) in &raters[i + 1..] {
                let score = similarity(ra, rb);
                combine_into(&mut scores, &pair_key(ua, ub), score, Combiner::Add);
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
