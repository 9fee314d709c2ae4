//! Shared persistent worker pool.
//!
//! A SEPO run issues thousands of small launches — one per driver chunk
//! per iteration — so spawning threads per launch would dominate launch
//! overhead. The pool keeps one lazily-started, process-wide set of parked
//! workers instead:
//!
//! * [`WorkerPool::global`] starts the workers on first use (count from
//!   `SEPO_WORKERS`, default `available_parallelism - 1` so the submitting
//!   thread is the remaining participant) and never again — see
//!   [`startup_count`] / [`threads_spawned`], which tests use to pin the
//!   "exactly one start-up, no per-launch spawns" property.
//! * A *job* ([`Work`]) is a range of units claimed in chunks from a shared
//!   cursor. The **submitting thread always participates** — it claims
//!   chunks like any worker — so progress never depends on pool capacity
//!   and nested submissions (a job whose units themselves submit jobs)
//!   cannot deadlock.
//! * Each participant gets a distinct *slot* index, which callers use for
//!   lock-free per-participant state (e.g. the executor's metric shards).
//! * A panic inside a unit is caught, the job is still drained to
//!   completion (remaining units run; the pool is never poisoned), and the
//!   first payload is handed back to the submitter, which re-raises it.
//! * [`scope`] layers structured task-parallelism on top: `FnOnce` tasks
//!   that may borrow from the caller's stack, executed by pool workers,
//!   with the caller helping and then blocking until all complete. The
//!   bench harness uses it to run independent (app × dataset) cells
//!   concurrently while each cell stays internally deterministic.
//! * [`WorkerPool::background`] hands one owned `FnOnce` to an idle worker
//!   while the submitter carries on; [`Background::join`] takes its result
//!   (running it on the joining thread if no worker has). The shadow
//!   sanitizer replays a retired launch's events this way while the next
//!   launch runs on the calling thread.

use std::any::Any;
use std::collections::VecDeque;
use std::ops::Range;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// A unit-range computation executable by pool participants.
///
/// `run_units` is called with disjoint sub-ranges of `0..n_units` (the
/// ranges partition the whole job across participants) and the caller's
/// participant `slot`, unique within the job while that participant works.
pub trait Work: Sync {
    fn run_units(&self, units: Range<usize>, slot: usize);
}

/// Erased, lifetime-less pointer to the submitter's [`Work`] object.
///
/// Safety contract: the submitter keeps the object alive and un-moved until
/// the job completes (it blocks in [`WorkerPool::run`] until every claimed
/// unit has finished), and no participant dereferences the pointer after
/// claiming past the end of the unit range.
#[derive(Clone, Copy)]
struct WorkPtr(*const (dyn Work + 'static));

unsafe impl Send for WorkPtr {}
unsafe impl Sync for WorkPtr {}

/// First panic payload captured from a job's units.
struct JobStatus {
    completed: bool,
    panic: Option<Box<dyn Any + Send + 'static>>,
}

/// One submitted job: claim cursor, completion latch, panic slot.
struct JobCore {
    work: WorkPtr,
    n_units: usize,
    chunk: usize,
    /// Next unclaimed unit.
    next: AtomicUsize,
    /// Units finished (run or skipped by a panicking chunk).
    done: AtomicUsize,
    /// Next participant slot to hand out.
    slots: AtomicUsize,
    /// Slots available; participants beyond this do not join.
    max_slots: usize,
    status: Mutex<JobStatus>,
    completed_cv: Condvar,
}

impl JobCore {
    fn exhausted(&self) -> bool {
        self.next.load(Ordering::Relaxed) >= self.n_units
    }

    /// Claim and run chunks until the cursor passes the end. Returns
    /// whether this thread got a slot (i.e. was eligible to work).
    fn participate(&self) -> bool {
        let slot = self.slots.fetch_add(1, Ordering::Relaxed);
        if slot >= self.max_slots {
            return false;
        }
        loop {
            let start = self.next.fetch_add(self.chunk, Ordering::Relaxed);
            if start >= self.n_units {
                return true;
            }
            let end = (start + self.chunk).min(self.n_units);
            let work = unsafe { &*self.work.0 };
            let outcome =
                std::panic::catch_unwind(AssertUnwindSafe(|| work.run_units(start..end, slot)));
            if let Err(payload) = outcome {
                let mut status = self.status.lock().unwrap();
                status.panic.get_or_insert(payload);
            }
            self.finish_units(end - start);
        }
    }

    /// Credit `n` finished units; the last one trips the completion latch.
    ///
    /// The `Release`/`Acquire` pair on `done` makes every participant's
    /// writes (kernel effects, per-slot shards) visible to whichever thread
    /// observes completion, and the mutex hand-off extends that to the
    /// waiting submitter.
    fn finish_units(&self, n: usize) {
        if self.done.fetch_add(n, Ordering::AcqRel) + n == self.n_units {
            let mut status = self.status.lock().unwrap();
            status.completed = true;
            self.completed_cv.notify_all();
        }
    }

    /// Block until all units finished; surface the first panic payload.
    fn wait(&self) -> Result<(), Box<dyn Any + Send + 'static>> {
        let mut status = self.status.lock().unwrap();
        while !status.completed {
            status = self.completed_cv.wait(status).unwrap();
        }
        match status.panic.take() {
            Some(payload) => Err(payload),
            None => Ok(()),
        }
    }
}

/// Queue shared between submitters and workers.
struct PoolShared {
    queue: Mutex<VecDeque<Arc<JobCore>>>,
    work_ready: Condvar,
}

impl PoolShared {
    /// Worker side: block until a job with unclaimed units is available,
    /// pruning exhausted entries while scanning.
    fn next_job(&self) -> Arc<JobCore> {
        let mut queue = self.queue.lock().unwrap();
        loop {
            queue.retain(|j| !j.exhausted());
            if let Some(job) = queue.iter().find(|j| !j.exhausted()) {
                return Arc::clone(job);
            }
            queue = self.work_ready.wait(queue).unwrap();
        }
    }

    fn submit(&self, job: Arc<JobCore>) {
        let mut queue = self.queue.lock().unwrap();
        queue.retain(|j| !j.exhausted());
        queue.push_back(job);
        drop(queue);
        self.work_ready.notify_all();
    }
}

/// Times a pool has been started process-wide (1 after first parallel use).
static STARTUPS: AtomicUsize = AtomicUsize::new(0);
/// Worker threads ever spawned process-wide.
static THREADS_SPAWNED: AtomicUsize = AtomicUsize::new(0);

/// Process-wide count of pool start-ups; tests assert it stays at 1.
pub fn startup_count() -> usize {
    STARTUPS.load(Ordering::Relaxed)
}

/// Process-wide count of worker threads ever spawned; tests assert it does
/// not grow with launch count.
pub fn threads_spawned() -> usize {
    THREADS_SPAWNED.load(Ordering::Relaxed)
}

/// The persistent worker pool. One global instance serves the whole
/// process; see the module docs.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    workers: usize,
}

static GLOBAL: OnceLock<WorkerPool> = OnceLock::new();

impl WorkerPool {
    /// The process-wide pool, started on first call.
    ///
    /// Thread count: `SEPO_WORKERS` if set (a value of 0 keeps the pool
    /// empty — every job runs entirely on its submitting thread), otherwise
    /// `available_parallelism() - 1`, the submitter being the +1.
    pub fn global() -> &'static WorkerPool {
        GLOBAL.get_or_init(|| {
            let workers = match std::env::var("SEPO_WORKERS") {
                Ok(v) => v
                    .parse::<usize>()
                    .unwrap_or_else(|_| panic!("SEPO_WORKERS must be a number, got {v:?}")),
                Err(_) => std::thread::available_parallelism()
                    .map(|n| n.get().saturating_sub(1))
                    .unwrap_or(3)
                    .max(1),
            };
            WorkerPool::start(workers)
        })
    }

    /// Start a pool with `workers` parked threads (0 = submitter-only).
    fn start(workers: usize) -> WorkerPool {
        STARTUPS.fetch_add(1, Ordering::Relaxed);
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(VecDeque::new()),
            work_ready: Condvar::new(),
        });
        for i in 0..workers {
            let shared = Arc::clone(&shared);
            THREADS_SPAWNED.fetch_add(1, Ordering::Relaxed);
            std::thread::Builder::new()
                .name(format!("sepo-pool-{i}"))
                .spawn(move || loop {
                    let job = shared.next_job();
                    job.participate();
                })
                .expect("failed to spawn pool worker");
        }
        WorkerPool { shared, workers }
    }

    /// Pool worker threads (not counting submitting threads).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Maximum participants a job can have: every worker plus the
    /// submitter. Size per-slot state with this.
    pub fn max_participants(&self) -> usize {
        self.workers + 1
    }

    /// Run `work` over `0..n_units` in chunks of `chunk`, with at most
    /// `max_slots` participants, blocking until every unit has finished.
    ///
    /// The calling thread participates. A panic from any unit is re-raised
    /// here after the job drains; the pool itself is unaffected. `max_slots`
    /// is clamped to [`Self::max_participants`] (callers size per-slot state
    /// with whichever bound they pass).
    pub fn run(
        &self,
        n_units: usize,
        chunk: usize,
        max_slots: usize,
        work: &(dyn Work + '_),
    ) -> Result<(), Box<dyn Any + Send + 'static>> {
        if n_units == 0 {
            return Ok(());
        }
        let chunk = chunk.max(1);
        let max_slots = max_slots.clamp(1, self.max_participants());
        // Fast path: nothing to share — run inline, zero synchronization.
        if max_slots == 1 || n_units <= chunk {
            return std::panic::catch_unwind(AssertUnwindSafe(|| work.run_units(0..n_units, 0)));
        }
        // Erase the borrow: `job.wait()` below keeps `work` alive past the
        // last dereference (see `WorkPtr`).
        let work_static: *const (dyn Work + 'static) =
            unsafe { std::mem::transmute(work as *const (dyn Work + '_)) };
        let job = Arc::new(JobCore {
            work: WorkPtr(work_static),
            n_units,
            chunk,
            next: AtomicUsize::new(0),
            done: AtomicUsize::new(0),
            slots: AtomicUsize::new(0),
            max_slots,
            status: Mutex::new(JobStatus {
                completed: false,
                panic: None,
            }),
            completed_cv: Condvar::new(),
        });
        self.shared.submit(Arc::clone(&job));
        job.participate();
        job.wait()
    }

    /// Queue `f` for the first idle worker and return at once. The task
    /// owns everything it touches, so nothing waits on it until
    /// [`Background::join`]; with no idle worker (or an empty pool) the
    /// joining thread runs it.
    pub fn background<T, F>(&self, f: F) -> Background<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let task = Arc::new(BackgroundTask {
            f: Mutex::new(Some(Box::new(f))),
            out: Mutex::new(None),
        });
        let task_ptr: *const BackgroundTask<T> = Arc::as_ptr(&task);
        let job = single_unit_job(task_ptr);
        self.shared.submit(Arc::clone(&job));
        Background { task, job }
    }
}

/// A one-unit job over `work`, which the caller keeps alive until the job
/// completes.
fn single_unit_job(work: *const (dyn Work + 'static)) -> Arc<JobCore> {
    Arc::new(JobCore {
        work: WorkPtr(work),
        n_units: 1,
        chunk: 1,
        next: AtomicUsize::new(0),
        done: AtomicUsize::new(0),
        slots: AtomicUsize::new(0),
        max_slots: 1,
        status: Mutex::new(JobStatus {
            completed: false,
            panic: None,
        }),
        completed_cv: Condvar::new(),
    })
}

/// The task behind a [`Background`] handle and the slot for its result.
struct BackgroundTask<T> {
    f: Mutex<Option<Box<dyn FnOnce() -> T + Send + 'static>>>,
    out: Mutex<Option<T>>,
}

impl<T: Send> Work for BackgroundTask<T> {
    fn run_units(&self, _units: Range<usize>, _slot: usize) {
        let f = self.f.lock().unwrap().take();
        let out = f.expect("background task ran twice")();
        *self.out.lock().unwrap() = Some(out);
    }
}

/// A task running on the pool; see [`WorkerPool::background`]. Dropping
/// the handle waits for the task, so the job never outlives its closure.
pub struct Background<T: Send + 'static> {
    task: Arc<BackgroundTask<T>>,
    job: Arc<JobCore>,
}

impl<T: Send + 'static> Background<T> {
    /// Wait for the task — running it here if no worker has started it —
    /// and return its result, re-raising its panic.
    pub fn join(self) -> T {
        self.job.participate();
        if let Err(payload) = self.job.wait() {
            std::panic::resume_unwind(payload);
        }
        let out = self.task.out.lock().unwrap().take();
        out.expect("a completed background task left its result")
    }
}

impl<T: Send + 'static> Drop for Background<T> {
    fn drop(&mut self) {
        // `join` already drained the job; otherwise finish it before the
        // closure it points at can go away.
        self.job.participate();
        let _ = self.job.wait();
    }
}

/// A single `FnOnce` task adapted to [`Work`] (one unit).
struct ScopeTask {
    f: Mutex<Option<Box<dyn FnOnce() + Send + 'static>>>,
}

impl Work for ScopeTask {
    fn run_units(&self, _units: Range<usize>, _slot: usize) {
        let f = self.f.lock().unwrap().take().expect("scope task ran twice");
        f();
    }
}

/// Handle for spawning borrowed tasks onto the pool; see [`scope`].
pub struct Scope<'env> {
    pool: &'static WorkerPool,
    /// Keeps each task's closure and job alive until [`Scope::wait_all`].
    jobs: Mutex<Vec<(Arc<ScopeTask>, Arc<JobCore>)>>,
    _env: std::marker::PhantomData<&'env mut &'env ()>,
}

impl<'env> Scope<'env> {
    /// Submit `f` to the pool. It may borrow from the enclosing [`scope`]
    /// call's environment; it starts as soon as a worker (or the caller, at
    /// scope exit) picks it up.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'env,
    {
        let boxed: Box<dyn FnOnce() + Send + 'env> = Box::new(f);
        // Lifetime erasure, made sound by the scope guard: wait_all runs
        // (even on panic) before 'env ends.
        let boxed: Box<dyn FnOnce() + Send + 'static> = unsafe { std::mem::transmute(boxed) };
        let task = Arc::new(ScopeTask {
            f: Mutex::new(Some(boxed)),
        });
        let task_ptr: *const ScopeTask = Arc::as_ptr(&task);
        let job = single_unit_job(task_ptr);
        self.pool.shared.submit(Arc::clone(&job));
        self.jobs.lock().unwrap().push((task, job));
    }

    /// Help run unstarted tasks, then block until every task finished.
    /// Returns the first panic payload, if any.
    fn wait_all(&self) -> Option<Box<dyn Any + Send + 'static>> {
        let mut first_panic = None;
        loop {
            // New tasks may be spawned by tasks; drain until stable.
            let batch: Vec<_> = std::mem::take(&mut *self.jobs.lock().unwrap());
            if batch.is_empty() {
                return first_panic;
            }
            for (_task, job) in &batch {
                // Claim it ourselves if no worker has; then wait.
                job.participate();
                if let Err(payload) = job.wait() {
                    first_panic.get_or_insert(payload);
                }
            }
        }
    }
}

/// Runs `wait_all` even when the scope body panics, so borrowed tasks can
/// never outlive their borrows.
struct ScopeGuard<'s, 'env>(&'s Scope<'env>);

impl Drop for ScopeGuard<'_, '_> {
    fn drop(&mut self) {
        self.0.wait_all();
    }
}

/// Structured task parallelism on the shared pool, mirroring
/// `std::thread::scope`: tasks may borrow from the caller, the call blocks
/// until all tasks finish, and a task panic is re-raised at the end.
///
/// Unlike spawning scoped threads, tasks run on the persistent workers —
/// no threads are created — and the caller lends a hand, so it works (as
/// pure inline execution) even with an empty pool.
pub fn scope<'env, F, R>(f: F) -> R
where
    F: FnOnce(&Scope<'env>) -> R,
{
    let s = Scope {
        pool: WorkerPool::global(),
        jobs: Mutex::new(Vec::new()),
        _env: std::marker::PhantomData,
    };
    let result = {
        let guard = ScopeGuard(&s);
        let result = f(&s);
        std::mem::forget(guard); // success path: wait explicitly below
        result
    };
    if let Some(payload) = s.wait_all() {
        std::panic::resume_unwind(payload);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    /// Private pools for tests that need a known worker count without
    /// touching the global one.
    fn pool(workers: usize) -> WorkerPool {
        WorkerPool::start(workers)
    }

    struct CountUnits {
        hits: Vec<AtomicU64>,
        slots_seen: Mutex<Vec<usize>>,
    }

    impl Work for CountUnits {
        fn run_units(&self, units: Range<usize>, slot: usize) {
            self.slots_seen.lock().unwrap().push(slot);
            for u in units {
                self.hits[u].fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    fn count_work(n: usize) -> CountUnits {
        CountUnits {
            hits: (0..n).map(|_| AtomicU64::new(0)).collect(),
            slots_seen: Mutex::new(Vec::new()),
        }
    }

    #[test]
    fn every_unit_runs_exactly_once() {
        let p = pool(3);
        for &(n, chunk) in &[(1usize, 1usize), (97, 4), (1000, 7), (64, 64), (10, 100)] {
            let work = count_work(n);
            p.run(n, chunk, p.max_participants(), &work).unwrap();
            assert!(
                work.hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "n={n} chunk={chunk}"
            );
        }
    }

    #[test]
    fn slots_stay_within_bound() {
        let p = pool(3);
        let work = count_work(500);
        p.run(500, 1, p.max_participants(), &work).unwrap();
        let slots = work.slots_seen.lock().unwrap();
        assert!(slots.iter().all(|&s| s < p.max_participants()));
    }

    #[test]
    fn zero_workers_runs_inline() {
        let p = pool(0);
        let work = count_work(100);
        let caller = std::thread::current().id();
        struct OnCaller<'a>(&'a CountUnits, std::thread::ThreadId);
        impl Work for OnCaller<'_> {
            fn run_units(&self, units: Range<usize>, slot: usize) {
                assert_eq!(std::thread::current().id(), self.1);
                self.0.run_units(units, slot);
            }
        }
        p.run(100, 8, p.max_participants(), &OnCaller(&work, caller))
            .unwrap();
        assert!(work.hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn panic_propagates_and_pool_survives() {
        let p = pool(2);
        struct Bomb;
        impl Work for Bomb {
            fn run_units(&self, units: Range<usize>, _slot: usize) {
                if units.contains(&13) {
                    panic!("unit 13 exploded");
                }
            }
        }
        let err = p.run(64, 1, p.max_participants(), &Bomb).unwrap_err();
        let msg = err.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "unit 13 exploded");
        // The same pool keeps working afterwards.
        let work = count_work(200);
        p.run(200, 4, p.max_participants(), &work).unwrap();
        assert!(work.hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn many_jobs_reuse_the_same_threads() {
        // Thread-count stability is asserted against the global pool in
        // tests/pool.rs (unit tests here create private pools concurrently,
        // so the process-wide spawn counter is not stable). This covers the
        // reuse correctness: 150 launches through one pool, all exact.
        let p = pool(2);
        for round in 0..150 {
            let n = 50 + round % 13;
            let work = count_work(n);
            p.run(n, 3, p.max_participants(), &work).unwrap();
            assert!(work.hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        }
    }

    #[test]
    fn concurrent_submitters_share_the_pool() {
        let p = std::sync::Arc::new(pool(3));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let p = std::sync::Arc::clone(&p);
                s.spawn(move || {
                    for _ in 0..20 {
                        let work = count_work(300);
                        p.run(300, 8, p.max_participants(), &work).unwrap();
                        assert!(work.hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
                    }
                });
            }
        });
    }

    #[test]
    fn scope_runs_borrowed_tasks() {
        let data = [1u64, 2, 3, 4, 5, 6, 7, 8];
        let total = AtomicU64::new(0);
        scope(|s| {
            for chunk in data.chunks(3) {
                let total = &total;
                s.spawn(move || {
                    total.fetch_add(chunk.iter().sum::<u64>(), Ordering::Relaxed);
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 36);
    }

    #[test]
    fn scope_propagates_task_panic() {
        let r = std::panic::catch_unwind(|| {
            scope(|s| {
                s.spawn(|| {});
                s.spawn(|| panic!("task died"));
                s.spawn(|| {});
            });
        });
        let err = r.unwrap_err();
        let msg = err.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "task died");
        // The global pool still works.
        let total = AtomicU64::new(0);
        scope(|s| {
            for _ in 0..8 {
                let total = &total;
                s.spawn(move || {
                    total.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn background_tasks_chain_results_and_run_on_the_joiner_without_workers() {
        for workers in [0, 1, 2] {
            let p = pool(workers);
            // Each task owns the previous result: a chain of folds.
            let mut acc = p.background(|| vec![0u64]);
            for i in 1..20u64 {
                let prev = acc.join();
                acc = p.background(move || {
                    let mut v = prev;
                    v.push(i);
                    v
                });
            }
            assert_eq!(acc.join(), (0..20).collect::<Vec<u64>>());
        }
        let empty = pool(0);
        let joiner = std::thread::current().id();
        assert_eq!(
            empty.background(move || std::thread::current().id()).join(),
            joiner
        );
    }

    #[test]
    fn background_panic_reraises_at_join_and_drop_waits() {
        let p = pool(1);
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| {
            p.background(|| -> u32 { panic!("fold failed") }).join()
        }))
        .unwrap_err();
        assert_eq!(err.downcast_ref::<&str>().copied(), Some("fold failed"));
        let ran = Arc::new(AtomicU64::new(0));
        let flag = Arc::clone(&ran);
        drop(p.background(move || flag.store(1, Ordering::Relaxed)));
        assert_eq!(ran.load(Ordering::Relaxed), 1, "drop waits for the task");
    }

    #[test]
    fn nested_scopes_do_not_deadlock() {
        let total = AtomicU64::new(0);
        scope(|outer| {
            for _ in 0..4 {
                let total = &total;
                outer.spawn(move || {
                    scope(|inner| {
                        for _ in 0..4 {
                            inner.spawn(move || {
                                total.fetch_add(1, Ordering::Relaxed);
                            });
                        }
                    });
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn nested_job_submission_does_not_deadlock() {
        // Units of an outer job submit inner jobs to the same pool; the
        // submitter-participates rule keeps everything moving even when
        // all workers are stuck inside outer units.
        let p = std::sync::Arc::new(pool(2));
        struct Outer {
            pool: std::sync::Arc<WorkerPool>,
            total: AtomicU64,
        }
        impl Work for Outer {
            fn run_units(&self, units: Range<usize>, _slot: usize) {
                for _ in units {
                    let inner = AtomicU64::new(0);
                    struct Inner<'a>(&'a AtomicU64);
                    impl Work for Inner<'_> {
                        fn run_units(&self, units: Range<usize>, _slot: usize) {
                            self.0.fetch_add(units.len() as u64, Ordering::Relaxed);
                        }
                    }
                    self.pool
                        .run(32, 4, self.pool.max_participants(), &Inner(&inner))
                        .unwrap();
                    self.total
                        .fetch_add(inner.load(Ordering::Relaxed), Ordering::Relaxed);
                }
            }
        }
        let outer = Outer {
            pool: std::sync::Arc::clone(&p),
            total: AtomicU64::new(0),
        };
        p.run(8, 1, p.max_participants(), &outer).unwrap();
        assert_eq!(outer.total.load(Ordering::Relaxed), 8 * 32);
    }
}
