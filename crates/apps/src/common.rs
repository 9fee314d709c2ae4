//! Shared application harness types.

use gpu_sim::executor::{Executor, LaneCtx};
use sepo_core::config::{Combiner, Organization, TableConfig};
use sepo_core::sepo::{DriverConfig, SepoDriver, SepoOutcome, TaskResult};
use sepo_core::table::SepoTable;
use sepo_datagen::Dataset;
use sepo_mapreduce::{Emitter, Mode};
use std::collections::HashMap;

/// Result of running one application on the SEPO substrate: the iteration
/// accounting plus the finalized table holding the results in host memory.
pub struct AppRun {
    pub outcome: SepoOutcome,
    pub table: SepoTable,
}

impl AppRun {
    /// Number of SEPO iterations the run needed (the Fig. 6 bar labels).
    pub fn iterations(&self) -> u32 {
        self.outcome.n_iterations()
    }
}

/// Per-run knobs shared by every application.
#[derive(Debug, Clone)]
pub struct AppConfig {
    /// Device heap bytes available to the hash table.
    pub heap_bytes: u64,
    /// SEPO driver knobs (chunking).
    pub driver: DriverConfig,
    /// Explicit table shape; `None` tunes one from `heap_bytes`. The
    /// organization must match what the application uses.
    pub table: Option<TableConfig>,
}

impl AppConfig {
    pub fn new(heap_bytes: u64) -> Self {
        AppConfig {
            heap_bytes,
            driver: DriverConfig::default(),
            table: None,
        }
    }

    /// Override the table shape (ablations, trace recording).
    pub fn with_table(mut self, table: TableConfig) -> Self {
        self.table = Some(table);
        self
    }

    /// Resolve the table configuration for an app using `organization`.
    pub fn table_config(&self, organization: Organization) -> TableConfig {
        let cfg = self
            .table
            .clone()
            .unwrap_or_else(|| TableConfig::tuned(organization, self.heap_bytes));
        assert_eq!(
            std::mem::discriminant(&cfg.organization),
            std::mem::discriminant(&organization),
            "table override organization must match the application"
        );
        cfg
    }

    /// Run the cross-layer [`sepo_core::TableAudit`] at every iteration
    /// boundary (the CLI's `--audit`).
    pub fn with_audit(mut self, audit: bool) -> Self {
        self.driver.audit = audit;
        self
    }

    /// Attach the thread-block software combiner (the CLI's `--combiner`,
    /// default on there). Only combining-organization apps are affected;
    /// results are byte-identical either way.
    pub fn with_combiner(mut self, on: bool) -> Self {
        self.driver.combiner = on.then(sepo_core::CombinerConfig::default);
        self
    }

    /// Check declared device accesses against the shadow-memory sanitizer
    /// (the CLI's `--sanitize`). The executor must carry a sanitizer
    /// ([`Executor::with_shadow`]); results are byte-identical either way.
    pub fn with_sanitize(mut self, on: bool) -> Self {
        self.driver.sanitize = on;
        self
    }

    /// Checkpoint at iteration boundaries for hard-fault recovery (the
    /// CLI's `--checkpoint` / `--chaos-seed`). Resumed runs are
    /// byte-identical to unkilled ones.
    pub fn with_checkpoint(mut self, policy: sepo_core::CheckpointPolicy) -> Self {
        self.driver.checkpoint = policy;
        self
    }

    /// Hard faults survived per run before
    /// [`sepo_core::SepoError::DeviceLost`].
    pub fn with_max_recoveries(mut self, n: u32) -> Self {
        self.driver.max_recoveries = n;
        self
    }

    /// Price boundary eviction DMA as hidden behind the next iteration's
    /// kernels; the run is identical (the CLI's `--evict-overlap`).
    pub fn with_evict_overlap(mut self, on: bool) -> Self {
        self.driver.evict_overlap = on;
        self
    }

    /// Verify every finalized host page's CRC32C stamp at the end of the
    /// run (the CLI's `--scrub`). Forced on whenever the executor's fault
    /// plan draws corruption; this flag extends it to clean runs.
    pub fn with_scrub(mut self, on: bool) -> Self {
        self.driver.scrub = on;
        self
    }

    /// Publish epoch snapshots through `publisher` at every iteration
    /// boundary (the CLI's `--serve`): online point lookups and grouped
    /// scans read against them while the run progresses, without
    /// perturbing the run's results or metrics.
    pub fn with_serving(mut self, publisher: std::sync::Arc<sepo_core::EpochPublisher>) -> Self {
        self.driver.serving = Some(publisher);
        self
    }
}

/// The shared body of every app: build `cfg`'s table for
/// `organization` on `executor`'s metrics and run
/// `kernel(table, task, start_pair, lane)` over every record of `dataset`.
/// The driver finalizes inside its guarded boundary, so the returned table
/// already holds the full result in host memory.
pub(crate) fn run_kernel<K>(
    dataset: &Dataset,
    cfg: &AppConfig,
    executor: &Executor,
    organization: Organization,
    kernel: K,
) -> AppRun
where
    K: Fn(&SepoTable, usize, u32, &mut LaneCtx<'_>) -> TaskResult + Sync,
{
    let table = SepoTable::new(
        cfg.table_config(organization),
        cfg.heap_bytes,
        executor.metrics().clone(),
    );
    let outcome = SepoDriver::new(&table, executor)
        .with_config(cfg.driver.clone())
        .run(
            dataset.len(),
            |t| dataset.record_bytes(t),
            |t, start, lane| kernel(&table, t, start, lane),
        );
    AppRun { outcome, table }
}

/// The §V MapReduce runtime: run `map` over every record of `dataset`,
/// one map task per record, storing its pairs in `cfg`'s table for `mode`.
/// Each task attempt maps its record through a fresh [`Emitter`] resuming
/// at the task's saved progress, so map functions re-emit every pair and
/// stay exact across SEPO iterations — including map output larger than
/// device memory.
pub fn run_mapper(
    dataset: &Dataset,
    cfg: &AppConfig,
    executor: &Executor,
    mode: Mode,
    map: impl Fn(&[u8], &mut Emitter<'_, '_>) + Sync,
) -> AppRun {
    run_kernel(
        dataset,
        cfg,
        executor,
        mode.organization(),
        |table, t, start, lane| {
            let mut emitter = Emitter::new(table, lane, start);
            map(dataset.record(t), &mut emitter);
            emitter.finish()
        },
    )
}

/// Combine `value` into `map[key]` with `comb` — the sequential oracles'
/// combining insert. The key is looked up first and copied only when new,
/// so an oracle allocates once per distinct key, not once per pair.
pub(crate) fn combine_into(
    map: &mut HashMap<Vec<u8>, u64>,
    key: &[u8],
    value: u64,
    comb: Combiner,
) {
    match map.get_mut(key) {
        Some(stored) => *stored = comb.apply(*stored, value),
        None => {
            map.insert(key.to_vec(), value);
        }
    }
}

/// Convenience: a deterministic executor + metrics pair for tests.
pub fn test_executor() -> (Executor, std::sync::Arc<gpu_sim::metrics::Metrics>) {
    let m = std::sync::Arc::new(gpu_sim::metrics::Metrics::new());
    (
        Executor::new(
            gpu_sim::executor::ExecMode::ParallelDeterministic,
            m.clone(),
        ),
        m,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One record per line, terminator included.
    fn lines(text: &str) -> Dataset {
        let mut ds = Dataset::new();
        for line in text.split_inclusive('\n') {
            ds.push_record(line.as_bytes());
        }
        ds
    }

    fn count_words(record: &[u8], out: &mut Emitter<'_, '_>) {
        for w in record.split(|&b| b == b' ' || b == b'\n') {
            if !w.is_empty() && !out.emit_combining(w, 1) {
                return;
            }
        }
    }

    #[test]
    fn word_count_end_to_end() {
        let ds = lines("the cat sat\nthe cat ran\nthe end\n");
        let (e, _) = test_executor();
        let cfg = AppConfig::new(64 * 1024);
        let run = run_mapper(&ds, &cfg, &e, Mode::MapReduce(Combiner::Add), count_words);
        assert_eq!(run.iterations(), 1);
        let got: HashMap<Vec<u8>, u64> = run.table.collect_combining().into_iter().collect();
        assert_eq!(got[&b"the".to_vec()], 3);
        assert_eq!(got[&b"cat".to_vec()], 2);
        assert_eq!(got[&b"end".to_vec()], 1);
        assert_eq!(got.len(), 5);
    }

    #[test]
    fn map_group_end_to_end() {
        let ds = lines("x a\ny b\nx c\nx d\n");
        let (e, _) = test_executor();
        let cfg = AppConfig::new(64 * 1024);
        let run = run_mapper(&ds, &cfg, &e, Mode::MapGroup, |record, out| {
            let rec = record.strip_suffix(b"\n").unwrap_or(record);
            let sp = rec.iter().position(|&b| b == b' ').unwrap();
            out.emit_grouped(&rec[..sp], &rec[sp + 1..]);
        });
        let mut got = run.table.collect_multivalued();
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
        let mut ds = Dataset::new();
        for i in 0..600 {
            ds.push_record(format!("word-{:03} filler\n", i % 300).as_bytes());
        }
        let (e, _) = test_executor();
        let cfg = AppConfig::new(4 * 1024).with_table(
            TableConfig::new(Organization::Combining(Combiner::Add))
                .with_buckets(128)
                .with_buckets_per_group(32)
                .with_page_size(1024),
        );
        let run = run_mapper(&ds, &cfg, &e, Mode::MapReduce(Combiner::Add), count_words);
        assert!(run.iterations() > 1, "must exceed device memory");
        let got: HashMap<Vec<u8>, u64> = run.table.collect_combining().into_iter().collect();
        assert_eq!(got.len(), 301); // 300 word-### plus "filler"
        assert_eq!(got[&b"filler".to_vec()], 600);
        for i in 0..300 {
            assert_eq!(got[format!("word-{i:03}").as_bytes()], 2);
        }
    }

    #[test]
    #[should_panic(expected = "organization must match")]
    fn mismatched_table_organization_rejected() {
        let cfg = AppConfig::new(1024)
            .with_table(TableConfig::new(Organization::Combining(Combiner::Add)));
        let _ = cfg.table_config(Mode::MapGroup.organization());
    }

    #[test]
    fn app_config_builders() {
        let c = AppConfig::new(1024)
            .with_audit(true)
            .with_sanitize(true)
            .with_checkpoint(sepo_core::CheckpointPolicy::Memory)
            .with_max_recoveries(42)
            .with_evict_overlap(true)
            .with_scrub(true)
            .with_serving(std::sync::Arc::new(sepo_core::EpochPublisher::default()))
            .with_combiner(true);
        assert_eq!(c.heap_bytes, 1024);
        assert!(c.driver.audit);
        assert!(c.driver.sanitize);
        assert!(matches!(
            c.driver.checkpoint,
            sepo_core::CheckpointPolicy::Memory
        ));
        assert_eq!(c.driver.max_recoveries, 42);
        assert!(c.driver.evict_overlap);
        assert!(c.driver.scrub);
        assert!(c.driver.serving.is_some());
        assert_eq!(
            c.driver.combiner,
            Some(sepo_core::CombinerConfig::default())
        );
        assert_eq!(c.with_combiner(false).driver.combiner, None);
    }

    #[test]
    fn a_table_override_keeps_its_remote_heap() {
        let org = Organization::Combining(sepo_core::Combiner::Add);
        let table = TableConfig::tuned(org, 1 << 20).with_remote_heap(true);
        let cfg = AppConfig::new(1 << 20).with_table(table.clone());
        assert_eq!(cfg.table_config(org), table);
    }
}
