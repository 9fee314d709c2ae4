//! Small helpers the bench binaries and the repo benchmark (`perf/`) share:
//! the per-iteration trajectory of a run, and the host stamp (CPU count,
//! single-CPU warning) written beside wall-clock figures.

use sepo_apps::AppRun;

/// Per-iteration completed-task counts — the trajectory two runs that must
/// be identical are compared on.
pub fn trajectory_of(run: &AppRun) -> Vec<u64> {
    run.outcome
        .iterations
        .iter()
        .map(|i| i.tasks_completed)
        .collect()
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
    fn host_parallelism_is_positive() {
        assert!(host_parallelism() >= 1);
        // On a multi-CPU host the warning is None; on 1 CPU it names the
        // bench. Either way the call must not panic.
        let w = single_cpu_warning("test-bench");
        assert_eq!(w.is_some(), host_parallelism() == 1);
    }
}
