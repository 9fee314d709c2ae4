//! Patent Citation (MapReduce): reverse citation directory (§VI-A).
//!
//! "Produces a reverse patent citation directory — similar to what Google
//! Scholar offers by the 'cited by' functionality. Each KV pair … is of
//! the form <the cited patent, the citing patent>. The application uses
//! the MAP_GROUP mode." One record = one citation edge; the runtime groups
//! all citing patents under each cited patent with the multi-valued
//! organization.

use crate::common::{run_mapper, AppConfig, AppRun};
use gpu_sim::executor::Executor;
use gpu_sim::Charge;
use sepo_datagen::patents::parse_citation;
use sepo_datagen::Dataset;
use sepo_mapreduce::{Emitter, Mode};
use std::collections::HashMap;

/// The Patent Citation mapper.
fn mapper(record: &[u8], out: &mut Emitter<'_, '_>) {
    out.lane().compute(6 * record.len() as u64);
    if let Some((citing, cited)) = parse_citation(record) {
        out.emit_grouped(cited, citing);
    }
}

/// Run Patent Citation over `dataset` through the MapReduce runtime.
pub fn run(dataset: &Dataset, cfg: &AppConfig, executor: &Executor) -> AppRun {
    run_mapper(dataset, cfg, executor, Mode::MapGroup, mapper)
}

/// Sequential reference implementation: cited → sorted list of citing.
pub fn reference(dataset: &Dataset) -> HashMap<Vec<u8>, Vec<Vec<u8>>> {
    let mut dir: HashMap<Vec<u8>, Vec<Vec<u8>>> = HashMap::new();
    for rec in dataset.records() {
        if let Some((citing, cited)) = parse_citation(rec) {
            dir.entry(cited.to_vec()).or_default().push(citing.to_vec());
        }
    }
    for v in dir.values_mut() {
        v.sort();
    }
    dir
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::test_executor;
    use sepo_datagen::patents::{generate, PatentsConfig};

    fn citations(bytes: u64) -> Dataset {
        generate(
            &PatentsConfig {
                target_bytes: bytes,
                n_patents: Some(800),
                ..Default::default()
            },
            61,
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
        let ds = citations(30_000);
        let (exec, _) = test_executor();
        let run = run(&ds, &AppConfig::new(2 << 20), &exec);
        assert_eq!(run.iterations(), 1);
        assert_eq!(normalized(&run), reference(&ds));
    }

    #[test]
    fn matches_reference_under_memory_pressure() {
        let ds = citations(50_000);
        let (exec, _) = test_executor();
        let run = run(&ds, &AppConfig::new(32 * 1024), &exec);
        assert!(run.iterations() > 1);
        assert_eq!(normalized(&run), reference(&ds));
    }

    #[test]
    fn popular_patents_accumulate_many_citers() {
        let ds = citations(40_000);
        let r = reference(&ds);
        assert!(r.values().any(|v| v.len() > 20));
    }
}
