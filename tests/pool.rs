//! Worker-pool lifecycle, observed through the public executor API.
//!
//! These tests run in one integration-test process that only ever touches
//! the *global* pool (never a private one), so the process-wide spawn
//! counters are meaningful here: after the first launch warms the pool up,
//! no amount of further launching may start another pool or spawn another
//! thread. (The unit tests in `gpu-sim` exercise private pools and
//! therefore cannot assert on these counters.)

use gpu_sim::executor::{ExecMode, Executor};
use gpu_sim::metrics::Metrics;
use gpu_sim::pool;
use gpu_sim::Charge;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn exec(mode: ExecMode) -> Executor {
    Executor::new(mode, Arc::new(Metrics::new()))
}

#[test]
fn every_task_runs_exactly_once_under_parallel_deterministic() {
    let e = exec(ExecMode::ParallelDeterministic);
    let n = 10_000;
    let hits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
    e.launch(n, |ctx| {
        hits[ctx.task()].fetch_add(1, Ordering::Relaxed);
    });
    assert!(
        hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
        "every task must run exactly once"
    );
}

#[test]
fn launches_reuse_the_pool_without_spawning_threads() {
    // Warm-up: the first use of any executor starts the global pool.
    exec(ExecMode::Parallel { workers: 0 }).launch(1_000, |ctx| ctx.compute(1));
    let startups = pool::startup_count();
    let spawned = pool::threads_spawned();
    assert_eq!(startups, 1, "exactly one pool start-up per process");

    // ≥100 further launches across both pool-facing modes: the per-launch
    // path must not create threads (this is the property that makes a
    // figure6 run — thousands of launches — cost one thread-pool startup).
    for round in 0..60 {
        let e = exec(ExecMode::Parallel { workers: 0 });
        e.launch(500 + round, |ctx| ctx.compute(1));
        let e = exec(ExecMode::ParallelDeterministic);
        e.launch(500 + round, |ctx| ctx.compute(1));
    }
    assert_eq!(pool::startup_count(), startups, "no second pool start-up");
    assert_eq!(
        pool::threads_spawned(),
        spawned,
        "launches must never spawn threads"
    );
}

#[test]
fn kernel_panic_surfaces_as_launch_error_and_pool_survives() {
    let metrics = Arc::new(Metrics::new());
    let e = Executor::new(ExecMode::Parallel { workers: 0 }, Arc::clone(&metrics));
    let err = e
        .try_launch(4_096, |ctx| {
            if ctx.task() == 1234 {
                panic!("injected kernel fault");
            }
            ctx.compute(1);
        })
        .expect_err("panicking kernel must fail the launch");
    assert_eq!(err.message(), "injected kernel fault");
    // Failed launches credit no tasks...
    assert_eq!(metrics.snapshot().tasks, 0);
    // ...and the pool is not poisoned: both modes still work afterwards.
    for mode in [
        ExecMode::Parallel { workers: 0 },
        ExecMode::ParallelDeterministic,
    ] {
        let e = exec(mode);
        let stats = e.launch(2_000, |ctx| ctx.compute(1));
        assert_eq!(stats.tasks, 2_000);
    }
}
