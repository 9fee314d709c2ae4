//! Shared scaffolding for the regression bench binaries.
//!
//! The `chaos`, `serving` and `shards` bins all follow the same
//! shape: run the seven §VI applications at the regression scale under the
//! parallel-deterministic executor with the cross-layer audit and the
//! shadow sanitizer on, capture a byte-comparable artifact bundle per run,
//! and exit non-zero when two runs that must be identical are not. This
//! module holds that shape once.

use gpu_sim::executor::{ExecMode, Executor};
use gpu_sim::metrics::{Metrics, Snapshot};
use gpu_sim::{FaultPlan, ShadowSanitizer};
use sepo_apps::{run_app, AppConfig, AppRun};
use sepo_datagen::{App, Dataset};
use std::sync::Arc;
use std::time::Instant;

/// Records-per-app scale divisor shared by the regression bins: small
/// enough for CI, large enough that the tight heaps they pick force
/// several SEPO iterations per app.
pub const REGRESSION_SCALE: u64 = 16_384;

/// The artifact bundle the identity gates compare: saved table image,
/// per-iteration completion trajectory, full metrics snapshot.
pub struct BenchRun {
    pub run: AppRun,
    pub image: Vec<u8>,
    pub trajectory: Vec<u64>,
    pub snapshot: Snapshot,
    /// Wall-clock (not simulated) seconds the run took.
    pub secs: f64,
}

impl BenchRun {
    pub fn iterations(&self) -> u32 {
        self.run.iterations()
    }
}

/// The regression executor: parallel-deterministic, shadow sanitizer
/// attached, optional fault plan. Fresh metrics; read them back via
/// [`Executor::metrics`].
pub fn standard_executor(faults: Option<FaultPlan>) -> Executor {
    let metrics = Arc::new(Metrics::new());
    let mut exec = Executor::new(ExecMode::ParallelDeterministic, metrics)
        .with_shadow(Arc::new(ShadowSanitizer::new()));
    if let Some(plan) = faults {
        exec = exec.with_faults(Arc::new(plan));
    }
    exec
}

/// The regression app config: audit + sanitize on, explicit heap/chunking.
pub fn standard_config(heap_bytes: u64, chunk_tasks: usize) -> AppConfig {
    AppConfig::new(heap_bytes)
        .with_chunk_tasks(chunk_tasks)
        .with_audit(true)
        .with_sanitize(true)
}

/// Run `app` and capture the identity-gate artifact bundle.
pub fn instrumented_run(app: App, ds: &Dataset, cfg: &AppConfig, exec: &Executor) -> BenchRun {
    let start = Instant::now();
    let run = run_app(app, ds, cfg, exec);
    let secs = start.elapsed().as_secs_f64();
    let mut image = Vec::new();
    run.table.save(&mut image).expect("save table image");
    BenchRun {
        trajectory: trajectory_of(&run),
        snapshot: exec.metrics().snapshot(),
        secs,
        image,
        run,
    }
}

/// Per-iteration completed-task counts — the trajectory the identity gates
/// compare.
pub fn trajectory_of(run: &AppRun) -> Vec<u64> {
    run.outcome
        .iterations
        .iter()
        .map(|i| i.tasks_completed)
        .collect()
}

/// Gate helper: prints the standard `FAIL:` line when `ok` is false and
/// passes `ok` through, so call sites read
/// `failed |= !require(app.name(), "table image identical", image_ok)`.
pub fn require(app: &str, what: &str, ok: bool) -> bool {
    if !ok {
        eprintln!("FAIL: {app}: {what}");
    }
    ok
}

/// CPUs the host exposes (1 when the query fails). Stamped into bench
/// reports so a single-CPU container's timings are interpretable.
pub fn host_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Warn (visibly, on stderr) when the host exposes a single CPU: wall-clock
/// comparisons and parallel-shard overlap are meaningless there. Returns
/// the warning for stamping into the report, `None` on multi-CPU hosts.
pub fn single_cpu_warning(bench: &str) -> Option<String> {
    if host_parallelism() > 1 {
        return None;
    }
    let warning = format!(
        "{bench}: host exposes 1 CPU; wall-clock figures reflect serialized \
         execution (simulated times are unaffected)"
    );
    eprintln!("WARN: {warning}");
    Some(warning)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instrumented_run_captures_consistent_artifacts() {
        let ds = App::PageViewCount.generate(0, 65_536);
        let exec = standard_executor(None);
        let cfg = standard_config(1 << 20, 512);
        let a = instrumented_run(App::PageViewCount, &ds, &cfg, &exec);
        assert_eq!(a.trajectory.len(), a.iterations() as usize);
        assert!(!a.image.is_empty());
        // A second identical run must be byte-identical — the property all
        // the regression bins build on.
        let exec2 = standard_executor(None);
        let b = instrumented_run(App::PageViewCount, &ds, &cfg, &exec2);
        assert_eq!(a.image, b.image);
        assert_eq!(a.trajectory, b.trajectory);
        assert_eq!(a.snapshot, b.snapshot);
    }

    #[test]
    fn require_passes_ok_through() {
        assert!(require("app", "gate", true));
        assert!(!require("app", "gate", false));
    }

    #[test]
    fn host_parallelism_is_positive() {
        assert!(host_parallelism() >= 1);
        // On a multi-CPU host the warning is None; on 1 CPU it names the
        // bench. Either way the call must not panic.
        let w = single_cpu_warning("test-bench");
        assert_eq!(w.is_some(), host_parallelism() == 1);
    }
}
