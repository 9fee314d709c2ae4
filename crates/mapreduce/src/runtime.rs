//! The MapReduce runtime (§V).
//!
//! "We developed a MapReduce runtime that uses BigKernel as the input
//! memory manager, our hash table as the KV store, and a few more lines of
//! code to schedule map and reduce phases." The runtime:
//!
//! * takes the application's *input data partitioner* output (record
//!   boundaries over the raw input),
//! * streams records to the device in chunks (modelled by the SEPO
//!   driver's per-chunk accounting, priced with the pipeline model),
//! * invokes one *map* instance per record, whose emitted KV pairs go into
//!   the SEPO hash table,
//! * in **MAP_REDUCE** mode uses the *combining* organization with the
//!   application's reduce/combine callback, embedding the reduce phase in
//!   the map phase ("this saves memory and improves performance" \[12\]);
//! * in **MAP_GROUP** mode uses the *multi-valued* organization to group
//!   (without reducing) all values per key.
//!
//! Because the KV store is the SEPO table, the runtime processes inputs
//! whose KV volume exceeds device memory — "the first GPU-based MapReduce
//! runtime capable of processing data larger than what GPU memory can
//! hold" (§V).

use crate::emitter::Emitter;
use crate::partitioner::Partition;
use gpu_sim::executor::Executor;
use gpu_sim::metrics::Metrics;
use sepo_core::config::{Combiner, Organization, TableConfig};
use sepo_core::sepo::{DriverConfig, SepoDriver, SepoOutcome};
use sepo_core::table::SepoTable;
use std::sync::Arc;

/// Runtime mode (§V): with or without a reduce phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `<key, value>` output via an embedded reduce/combine callback.
    MapReduce(Combiner),
    /// `<key, values>` output: group without reducing.
    MapGroup,
}

impl Mode {
    fn organization(self) -> Organization {
        match self {
            Mode::MapReduce(c) => Organization::Combining(c),
            Mode::MapGroup => Organization::MultiValued,
        }
    }
}

/// A MapReduce application: one `map` invocation per input record.
///
/// The map function re-emits every pair on every attempt; the emitter makes
/// re-execution after postponement idempotent. The `reduce` is the
/// combiner carried by [`Mode::MapReduce`].
pub trait Mapper: Sync {
    /// Emit the KV pairs of `record` through `out`.
    fn map(&self, record: &[u8], out: &mut Emitter<'_, '_, '_>);
}

impl<F> Mapper for F
where
    F: Fn(&[u8], &mut Emitter<'_, '_, '_>) + Sync,
{
    fn map(&self, record: &[u8], out: &mut Emitter<'_, '_, '_>) {
        self(record, out)
    }
}

impl Mapper for &dyn Mapper {
    fn map(&self, record: &[u8], out: &mut Emitter<'_, '_, '_>) {
        (**self).map(record, out)
    }
}

/// Job configuration.
#[derive(Debug, Clone)]
pub struct JobConfig {
    pub mode: Mode,
    /// Hash-table shape.
    pub table: TableConfig,
    /// Device heap bytes available to the KV store.
    pub heap_bytes: u64,
    /// SEPO driver knobs.
    pub driver: DriverConfig,
}

impl JobConfig {
    /// Defaults for `mode` with a heap of `heap_bytes`; the table shape is
    /// tuned to the heap size.
    pub fn new(mode: Mode, heap_bytes: u64) -> Self {
        JobConfig {
            mode,
            table: TableConfig::tuned(mode.organization(), heap_bytes),
            heap_bytes,
            driver: DriverConfig::default(),
        }
    }

    pub fn with_table(mut self, table: TableConfig) -> Self {
        assert_eq!(
            std::mem::discriminant(&table.organization),
            std::mem::discriminant(&self.mode.organization()),
            "table organization must match the job mode"
        );
        self.table = table;
        self
    }
}

/// A finished job: the SEPO outcome plus the finalized table for result
/// collection.
pub struct JobOutput {
    pub outcome: SepoOutcome,
    pub table: SepoTable,
}

impl JobOutput {
    /// MAP_REDUCE results.
    pub fn reduced(&self) -> Vec<(Vec<u8>, u64)> {
        self.table.collect_combining()
    }

    /// MAP_GROUP results.
    pub fn grouped(&self) -> Vec<(Vec<u8>, Vec<Vec<u8>>)> {
        self.table.collect_multivalued()
    }
}

/// Run `mapper` over the partitioned `input` on `executor`.
pub fn run_job<M: Mapper>(
    input: &[u8],
    partition: &Partition,
    mapper: &M,
    cfg: JobConfig,
    executor: &Executor,
    metrics: Arc<Metrics>,
) -> JobOutput {
    let table = SepoTable::new(cfg.table.clone(), cfg.heap_bytes, metrics);
    let outcome = {
        let driver = SepoDriver::new(&table, executor).with_config(cfg.driver.clone());
        driver.run(
            partition.len(),
            |t| partition.record_bytes(t),
            |t, start, lane| {
                let record = partition.record(input, t);
                let mut emitter = Emitter::new(&table, lane, start);
                mapper.map(record, &mut emitter);
                emitter.finish()
            },
        )
    };
    JobOutput { outcome, table }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partitioner;
    use gpu_sim::executor::ExecMode;
    use std::collections::HashMap;

    fn exec() -> (Executor, Arc<Metrics>) {
        let m = Arc::new(Metrics::new());
        (
            Executor::new(ExecMode::ParallelDeterministic, Arc::clone(&m)),
            m,
        )
    }

    #[test]
    fn word_count_end_to_end() {
        let input = b"the cat sat\nthe cat ran\nthe end\n".to_vec();
        let partition = partitioner::by_lines(&input);
        let (e, m) = exec();
        let out = run_job(
            &input,
            &partition,
            &|record: &[u8], out: &mut Emitter<'_, '_, '_>| {
                for w in record.split(|&b| b == b' ' || b == b'\n') {
                    if !w.is_empty() && !out.emit_combining(w, 1) {
                        return;
                    }
                }
            },
            JobConfig::new(Mode::MapReduce(Combiner::Add), 64 * 1024),
            &e,
            m,
        );
        assert_eq!(out.outcome.n_iterations(), 1);
        let got: HashMap<Vec<u8>, u64> = out.reduced().into_iter().collect();
        assert_eq!(got[&b"the".to_vec()], 3);
        assert_eq!(got[&b"cat".to_vec()], 2);
        assert_eq!(got[&b"end".to_vec()], 1);
        assert_eq!(got.len(), 5);
    }

    #[test]
    fn map_group_end_to_end() {
        let input = b"x a\ny b\nx c\nx d\n".to_vec();
        let partition = partitioner::by_lines(&input);
        let (e, m) = exec();
        let out = run_job(
            &input,
            &partition,
            &|record: &[u8], out: &mut Emitter<'_, '_, '_>| {
                let rec = record.strip_suffix(b"\n").unwrap_or(record);
                let sp = rec.iter().position(|&b| b == b' ').unwrap();
                out.emit_grouped(&rec[..sp], &rec[sp + 1..]);
            },
            JobConfig::new(Mode::MapGroup, 64 * 1024),
            &e,
            m,
        );
        let mut got = out.grouped();
        got.sort();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].0, b"x");
        let mut xs = got[0].1.clone();
        xs.sort();
        assert_eq!(xs, vec![b"a".to_vec(), b"c".to_vec(), b"d".to_vec()]);
        assert_eq!(got[1].0, b"y");
    }

    #[test]
    fn larger_than_memory_job_iterates_and_stays_exact() {
        // KV volume far beyond the 4 KiB heap: the job must need several
        // SEPO iterations yet produce exact counts.
        let mut input = Vec::new();
        for i in 0..600 {
            input.extend_from_slice(format!("word-{:03} filler\n", i % 300).as_bytes());
        }
        let partition = partitioner::by_lines(&input);
        let (e, m) = exec();
        let cfg = JobConfig::new(Mode::MapReduce(Combiner::Add), 4 * 1024).with_table(
            TableConfig::new(Organization::Combining(Combiner::Add))
                .with_buckets(128)
                .with_buckets_per_group(32)
                .with_page_size(1024),
        );
        let out = run_job(
            &input,
            &partition,
            &|record: &[u8], out: &mut Emitter<'_, '_, '_>| {
                for w in record.split(|&b| b == b' ' || b == b'\n') {
                    if !w.is_empty() && !out.emit_combining(w, 1) {
                        return;
                    }
                }
            },
            cfg,
            &e,
            m,
        );
        assert!(out.outcome.n_iterations() > 1, "must exceed device memory");
        let got: HashMap<Vec<u8>, u64> = out.reduced().into_iter().collect();
        assert_eq!(got.len(), 301); // 300 word-### plus "filler"
        assert_eq!(got[&b"filler".to_vec()], 600);
        for i in 0..300 {
            assert_eq!(got[format!("word-{i:03}").as_bytes()], 2);
        }
    }

    #[test]
    #[should_panic(expected = "organization must match")]
    fn mismatched_table_organization_rejected() {
        let _ = JobConfig::new(Mode::MapGroup, 1024)
            .with_table(TableConfig::new(Organization::Combining(Combiner::Add)));
    }
}
