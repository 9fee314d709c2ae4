//! Geo Location (MapReduce): grouping articles by place (§VI-A).
//!
//! "Groups Wikipedia articles based on the geographic location from which
//! they have been created. Each KV pair … is of the form <geographic
//! location string, article ID>. The application uses the MAP_GROUP mode."

use crate::common::{run_mapper, AppConfig, AppRun};
use gpu_sim::executor::Executor;
use gpu_sim::Charge;
use sepo_datagen::geo::parse_article;
use sepo_datagen::Dataset;
use sepo_mapreduce::{Emitter, Mode};
use std::collections::HashMap;

/// The Geo Location mapper.
fn mapper(record: &[u8], out: &mut Emitter<'_, '_>) {
    out.lane().compute(6 * record.len() as u64);
    if let Some((article, location)) = parse_article(record) {
        out.emit_grouped(location, article);
    }
}

/// Run Geo Location over `dataset` through the MapReduce runtime.
pub fn run(dataset: &Dataset, cfg: &AppConfig, executor: &Executor) -> AppRun {
    run_mapper(dataset, cfg, executor, Mode::MapGroup, mapper)
}

/// Sequential reference implementation: location → sorted article ids.
pub fn reference(dataset: &Dataset) -> HashMap<Vec<u8>, Vec<Vec<u8>>> {
    let mut groups: HashMap<Vec<u8>, Vec<Vec<u8>>> = HashMap::new();
    for rec in dataset.records() {
        if let Some((article, location)) = parse_article(rec) {
            groups
                .entry(location.to_vec())
                .or_default()
                .push(article.to_vec());
        }
    }
    for v in groups.values_mut() {
        v.sort();
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::test_executor;
    use sepo_datagen::geo::{generate, GeoConfig};

    fn articles(bytes: u64) -> Dataset {
        generate(
            &GeoConfig {
                target_bytes: bytes,
                n_places: Some(400),
                ..Default::default()
            },
            71,
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
        let ds = articles(30_000);
        let (exec, _) = test_executor();
        let run = run(&ds, &AppConfig::new(2 << 20), &exec);
        assert_eq!(run.iterations(), 1);
        assert_eq!(normalized(&run), reference(&ds));
    }

    #[test]
    fn matches_reference_under_memory_pressure() {
        let ds = articles(60_000);
        let (exec, _) = test_executor();
        let run = run(&ds, &AppConfig::new(32 * 1024), &exec);
        assert!(run.iterations() > 1);
        assert_eq!(normalized(&run), reference(&ds));
    }

    #[test]
    fn group_sizes_are_skewed() {
        let ds = articles(40_000);
        let r = reference(&ds);
        let max = r.values().map(|v| v.len()).max().unwrap();
        let mean = r.values().map(|v| v.len()).sum::<usize>() / r.len();
        assert!(max > 5 * mean, "max {max} mean {mean}");
    }
}
