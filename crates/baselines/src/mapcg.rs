//! MapCG-like GPU MapReduce baseline (Table II, §VI-C).
//!
//! MapCG \[7\] also stores map output in a GPU hash table, but differs from
//! the SEPO runtime in the two ways the paper's comparison exposes:
//!
//! 1. **In-memory only** — "MapCG is unable to support a larger-than-memory
//!    hash table, and thus the execution fails when there is no more free
//!    memory to store newly inserted KV pairs." A postponement here is an
//!    out-of-memory failure, not a retry.
//! 2. **Centralized allocation** — MapCG carves map output from one global
//!    atomically-bumped region, so *every* allocation serializes on a
//!    single location, where the SEPO allocator spreads the load over
//!    per-bucket-group pages (§IV-A). We realize this by configuring the
//!    table with a single bucket group (one current-page bump pointer),
//!    without block leases so that the pointer takes one update per
//!    allocation, and by adding that word to the contention profile.
//!
//! Because the Table II comparison ran on small inputs where "our hash
//! table was, effectively, not using the SEPO model", both runtimes execute
//! a single pass; what differs is allocation contention — negligible for
//! Word Count (few distinct keys ⇒ few allocations) and dominant for the
//! MAP_GROUP applications (one value-node allocation per record).

use gpu_sim::executor::Executor;
use gpu_sim::metrics::{ContentionHistogram, Snapshot};
use sepo_apps::sharded::organization_of;
use sepo_apps::{run_app, AppConfig};
use sepo_core::config::TableConfig;
use sepo_datagen::{App, Dataset};
use std::fmt;

/// MapCG ran out of device memory: the job cannot complete.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutOfMemory {
    /// Inserts that could not be stored.
    pub failed_inserts: u64,
}

impl fmt::Display for OutOfMemory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "MapCG out of device memory: {} inserts failed (no larger-than-memory support)",
            self.failed_inserts
        )
    }
}

impl std::error::Error for OutOfMemory {}

/// Serialized cost of one allocation through MapCG's lock-protected
/// central allocator, in nanoseconds. Every allocation passes through one
/// critical section (lock acquire, bump, release — several dependent
/// atomic rounds), so the whole allocation stream serializes at this rate;
/// the SEPO allocator's distributed pages avoid this by construction
/// (§IV-A).
pub const MAPCG_ALLOC_SERIAL_NS: u64 = 20;

/// Outcome of a successful MapCG run.
#[derive(Debug)]
pub struct MapCgRun {
    pub snapshot: Snapshot,
    /// Bucket contention plus the central allocator's bump word.
    pub contention: ContentionHistogram,
    /// Fully-serialized time spent in the central allocator's critical
    /// section ([`MAPCG_ALLOC_SERIAL_NS`] per allocation).
    pub alloc_serial: gpu_sim::SimTime,
    /// Bytes of results the runtime must download.
    pub output_bytes: u64,
    pub result_keys: usize,
}

/// Run `app` on the MapCG-like runtime with `heap_bytes` of device memory.
pub fn run_mapcg(
    app: App,
    dataset: &Dataset,
    heap_bytes: u64,
    executor: &Executor,
) -> Result<MapCgRun, OutOfMemory> {
    assert!(
        App::MAPREDUCE.contains(&app),
        "{} is not a MapReduce application",
        app.name()
    );
    // Single bucket group == single active allocation pointer (MapCG's
    // global bump allocator).
    let mut table = TableConfig::tuned(organization_of(app), heap_bytes);
    table.buckets_per_group = table.n_buckets;
    let mut cfg = AppConfig::new(heap_bytes).with_table(table);
    // One pass only: any postponement is MapCG's OOM failure. The driver
    // would otherwise iterate; cap it so a full heap aborts quickly.
    cfg.driver.max_iterations = 1;
    let before = executor.metrics().snapshot();
    let run = run_app(app, dataset, &cfg, &executor.clone().without_leases());
    let after = executor.metrics().snapshot();
    let snapshot = after.delta(&before);
    if !run.outcome.is_complete() || snapshot.alloc_postponed > 0 {
        return Err(OutOfMemory {
            failed_inserts: snapshot.alloc_postponed.max(1),
        });
    }
    // With a single bucket group and no block leases, the allocator's
    // cursor appears in the full contention histogram as one location
    // carrying every allocation — MapCG's central free-pointer hot spot.
    let contention = run.table.full_contention_histogram();
    let alloc_serial = gpu_sim::SimTime::from_nanos(snapshot.alloc_success * MAPCG_ALLOC_SERIAL_NS);
    let (_, output_bytes) = run.table.host_footprint();
    let result_keys = run.table.collect_grouped().len();
    Ok(MapCgRun {
        snapshot,
        contention,
        alloc_serial,
        output_bytes,
        result_keys,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::executor::ExecMode;
    use gpu_sim::metrics::Metrics;
    use std::sync::Arc;

    fn exec() -> Executor {
        Executor::new(ExecMode::ParallelDeterministic, Arc::new(Metrics::new()))
    }

    #[test]
    fn small_inputs_succeed_and_match_reference() {
        let ds = App::WordCount.generate(0, 16_384);
        let e = exec();
        let run = run_mapcg(App::WordCount, &ds, 8 << 20, &e).expect("fits in memory");
        assert_eq!(run.result_keys, sepo_apps::wordcount::reference(&ds).len());
        assert!(run.snapshot.alloc_success > 0);
    }

    #[test]
    fn allocator_word_dominates_contention_for_group_apps() {
        let ds = App::PatentCitation.generate(0, 32_768);
        let e = exec();
        let run = run_mapcg(App::PatentCitation, &ds, 8 << 20, &e).unwrap();
        // The allocator location's count equals total allocations, which
        // for MAP_GROUP is at least one per record — the histogram's max.
        assert!(run.contention.max_count() >= ds.len() as u64);
    }

    #[test]
    fn large_input_fails_with_oom() {
        let ds = App::GeoLocation.generate(0, 8_192);
        let e = exec();
        let err = run_mapcg(App::GeoLocation, &ds, 8 * 1024, &e).unwrap_err();
        assert!(err.to_string().contains("out of device memory"));
    }
}
