//! Phoenix++-like CPU MapReduce baseline.
//!
//! Fig. 6 compares the three MapReduce applications "against the
//! corresponding CPU-based applications developed using Phoenix++, a
//! state-of-the-art MapReduce runtime for multi-core CPUs \[12\]". The
//! architecture that makes Phoenix++ strong — and that we reproduce — is
//! *thread-local combining containers*: each worker thread maps its shard
//! of the input into a private hash map (combining on the fly), and the
//! per-thread maps are merged afterwards. No shared buckets, no contended
//! atomics; the price is the merge phase and duplicated keys across
//! threads.

use gpu_sim::charge::{Charge, MetricsCharge};
use gpu_sim::metrics::{ContentionHistogram, Metrics, Snapshot};
use sepo_apps::wordcount;
use sepo_datagen::{geo, patents, App, Dataset};
use std::collections::HashMap;
use std::sync::Arc;

/// Worker threads (the paper's Xeon exposes 8 hardware threads).
pub const THREADS: usize = 8;

/// Outcome of a Phoenix++-style run.
pub struct PhoenixRun {
    /// All counted events (map + merge phases).
    pub snapshot: Snapshot,
    /// Contention profile — empty: thread-local containers don't contend.
    pub contention: ContentionHistogram,
    /// Distinct result keys after the merge.
    pub result_keys: usize,
}

enum Shards {
    Reduce(Vec<HashMap<Vec<u8>, u64>>),
    Group(Vec<HashMap<Vec<u8>, Vec<Vec<u8>>>>),
}

/// Run `app` (one of the three MapReduce applications) Phoenix++-style.
pub fn run_phoenix(app: App, dataset: &Dataset) -> PhoenixRun {
    assert!(
        App::MAPREDUCE.contains(&app),
        "{} is not a MapReduce application",
        app.name()
    );
    let metrics = Arc::new(Metrics::new());
    // Map phase: each worker combines into a private container. Work is
    // executed for real on the shared worker pool; events are charged with
    // the same per-byte constants as the GPU kernels so the engines are
    // compared on identical work.
    let shards = std::sync::Mutex::new(match app {
        App::WordCount => Shards::Reduce(Vec::new()),
        _ => Shards::Group(Vec::new()),
    });
    gpu_sim::pool::scope(|s| {
        for t in 0..THREADS {
            let metrics = Arc::clone(&metrics);
            let shards = &shards;
            s.spawn(move || {
                let mut charge = MetricsCharge(&metrics);
                match app {
                    App::WordCount => {
                        let mut local: HashMap<Vec<u8>, u64> = HashMap::new();
                        for i in (t..dataset.len()).step_by(THREADS) {
                            let rec = dataset.record(i);
                            charge.compute(8 * rec.len() as u64);
                            for w in wordcount::words(rec) {
                                // Hash + probe + combine in host memory.
                                charge.compute(100 + 2 * w.len() as u64);
                                charge.device_bytes(64 + w.len() as u64);
                                *local.entry(w.to_vec()).or_insert(0) += 1;
                            }
                        }
                        if let Shards::Reduce(v) = &mut *shards.lock().unwrap() {
                            v.push(local);
                        }
                    }
                    App::PatentCitation | App::GeoLocation => {
                        let mut local: HashMap<Vec<u8>, Vec<Vec<u8>>> = HashMap::new();
                        for i in (t..dataset.len()).step_by(THREADS) {
                            let rec = dataset.record(i);
                            charge.compute(6 * rec.len() as u64);
                            let kv = if app == App::PatentCitation {
                                patents::parse_citation(rec).map(|(citing, cited)| (cited, citing))
                            } else {
                                geo::parse_article(rec).map(|(article, loc)| (loc, article))
                            };
                            if let Some((k, v)) = kv {
                                charge.compute(120 + 2 * k.len() as u64);
                                charge.device_bytes(96 + k.len() as u64 + v.len() as u64);
                                local.entry(k.to_vec()).or_default().push(v.to_vec());
                            }
                        }
                        if let Shards::Group(v) = &mut *shards.lock().unwrap() {
                            v.push(local);
                        }
                    }
                    _ => unreachable!(),
                }
            });
        }
    });

    // Merge phase (sequential in Phoenix++'s final step; charged as host
    // memory traffic over the shard contents).
    let mut charge = MetricsCharge(&metrics);
    let result_keys = match shards.into_inner().unwrap() {
        Shards::Reduce(locals) => {
            let mut merged: HashMap<Vec<u8>, u64> = HashMap::new();
            for local in locals {
                for (k, v) in local {
                    charge.compute(80);
                    charge.device_bytes(64 + k.len() as u64);
                    *merged.entry(k).or_insert(0) += v;
                }
            }
            merged.len()
        }
        Shards::Group(locals) => {
            let mut merged: HashMap<Vec<u8>, Vec<Vec<u8>>> = HashMap::new();
            for local in locals {
                for (k, mut vs) in local {
                    charge.compute(80);
                    charge.device_bytes(64 + k.len() as u64 + 16 * vs.len() as u64);
                    merged.entry(k).or_default().append(&mut vs);
                }
            }
            merged.len()
        }
    };

    PhoenixRun {
        snapshot: metrics.snapshot(),
        contention: ContentionHistogram::from_counts(std::iter::empty::<u64>()),
        result_keys,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_count_matches_reference() {
        let ds = App::WordCount.generate(0, 16_384);
        let run = run_phoenix(App::WordCount, &ds);
        let reference = wordcount::reference(&ds);
        assert_eq!(run.result_keys, reference.len());
        assert!(run.snapshot.compute_units > 0);
        assert_eq!(run.contention.total_updates(), 0, "no shared contention");
    }

    #[test]
    fn word_count_tokenizes_like_the_app() {
        // Tabs and CRLF line ends separate words in the app's mapper, so
        // they must in the baseline too.
        let mut ds = Dataset::new();
        ds.push_record(b"a\tb\r\n");
        ds.push_record(b"b c\r\n");
        ds.push_record(b"c\td\te\n");
        let run = run_phoenix(App::WordCount, &ds);
        assert_eq!(run.result_keys, wordcount::reference(&ds).len());
    }

    #[test]
    fn group_apps_match_reference() {
        for app in [App::PatentCitation, App::GeoLocation] {
            let ds = app.generate(0, 32_768);
            let run = run_phoenix(app, &ds);
            let expected = match app {
                App::PatentCitation => sepo_apps::patent::reference(&ds).len(),
                _ => sepo_apps::geoloc::reference(&ds).len(),
            };
            assert_eq!(run.result_keys, expected, "{}", app.name());
        }
    }

    #[test]
    #[should_panic(expected = "not a MapReduce application")]
    fn rejects_standalone_apps() {
        let ds = App::PageViewCount.generate(0, 65_536);
        let _ = run_phoenix(App::PageViewCount, &ds);
    }
}
