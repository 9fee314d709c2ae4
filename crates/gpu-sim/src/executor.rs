//! SIMT-style kernel executor.
//!
//! Kernels are Rust closures invoked once per *task* (≈ one input record,
//! the granularity at which SEPO postpones work). Tasks are grouped into
//! warps of [`WARP_SIZE`] consecutive lanes (the unit of divergence and of
//! event tallies), and warps into thread blocks of [`BLOCK_WARPS`]
//! consecutive warps — the scheduling unit of the simulated GPU and the
//! scope of a kernel's shared-memory state ([`BlockHooks`]: its page
//! leases and any scratch state). A block's warps always run back to back
//! on one participant; the last block of a launch may be short.
//!
//! * In [`ExecMode::Parallel`], blocks are executed concurrently by the
//!   process-wide persistent [`pool`] (no threads are spawned
//!   per launch; whole blocks are claimed in adaptive chunks, so anything
//!   that depends only on a block's own lanes — scratch-state counters
//!   included — does not depend on the worker count). The data structures
//!   the kernel touches (hash table, allocator, bitmaps) therefore
//!   experience *real* concurrency — real atomics, real races over page
//!   space — which is what makes the postponement behaviour genuine rather
//!   than scripted.
//! * In [`ExecMode::ParallelDeterministic`], blocks run in ascending order
//!   on the calling thread, so reported iteration counts, transfer volumes
//!   and every per-launch event count are byte-identical *by construction*.
//!   The surrounding harness may run independent simulations
//!   (separate tables, separate [`Metrics`]) concurrently on the pool via
//!   [`pool::scope`]. True warp-racing cannot keep
//!   counts like `chain_hops` bit-stable (they depend on chain insertion
//!   order), so parallelism is hoisted to the between-simulations level
//!   where there is no shared mutable state to race on.
//!
//! Lanes report events through [`LaneCtx`]; per-warp tallies accumulate
//! into a per-participant *shard* and each shard is flushed to the shared
//! [`Metrics`] **once per launch**, so the shared counters see a handful of
//! atomic adds per launch instead of five per warp.

use crate::charge::Charge;
use crate::faults::{FaultDraw, FaultPlan};
use crate::lease::BlockLeases;
use crate::metrics::{Counter, Metrics, Tally};
use crate::pool::{self, Work, WorkerPool};
use crate::shadow::{AccessKind, ShadowAddr, ShadowEvent, ShadowSanitizer, WARP_LEVEL_LANE};
use crate::spec::{BLOCK_WARPS, WARP_SIZE};
use std::any::Any;
use std::cell::UnsafeCell;
use std::collections::BTreeSet;
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

/// How kernel launches are executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Execute thread blocks concurrently on the shared worker pool
    /// (`workers` caps this launch's participants; 0 = every pool worker
    /// plus the submitting thread). Results are exact, but event
    /// *schedules* (and schedule-dependent counts such as chain hops) vary
    /// run to run.
    Parallel { workers: usize },
    /// Execute blocks (and the warps inside them) sequentially in ascending
    /// order on the calling thread (bit-reproducible results); the harness
    /// parallelizes across independent simulations instead of within a
    /// launch. This is the evaluation
    /// harness's default: paper numbers stay exactly reproducible while
    /// wall-clock time drops with available cores.
    ParallelDeterministic,
}

impl Default for ExecMode {
    fn default() -> Self {
        ExecMode::Parallel { workers: 0 }
    }
}

/// The warp in flight on one participant: its event tally, folded into the
/// participant's shard when the warp retires. One per shard, reused warp
/// after warp.
#[derive(Debug, Default)]
struct WarpLocal {
    tally: Tally,
    branch_classes: BTreeSet<u32>,
    /// This warp's index within the launch (stamps shadow events).
    warp_index: u32,
    /// The shard's declared-access buffer, which warps append to in place;
    /// `None` unless a sanitizer is attached, so unsanitized launches never
    /// allocate or push.
    shadow: Option<Vec<ShadowEvent>>,
}

impl WarpLocal {
    /// Start warp `warp_index` with an empty tally. Shadow events past
    /// `retired` belong to a warp that panicked before retiring; they go,
    /// as its tally did.
    fn start(&mut self, warp_index: u32, retired: usize) {
        self.tally = Tally::default();
        self.branch_classes.clear();
        self.warp_index = warp_index;
        if let Some(log) = self.shadow.as_mut() {
            log.truncate(retired);
        }
    }

    /// Buffer one declared shadow access made by `lane` of this warp.
    #[inline]
    fn declare(&mut self, addr: ShadowAddr, kind: AccessKind, lane: u32) {
        if let Some(log) = self.shadow.as_mut() {
            log.push(ShadowEvent {
                addr,
                kind,
                warp: self.warp_index,
                lane,
            });
        }
    }
}

/// Thread-block hooks: the software analogue of a kernel's `__shared__`
/// memory. Under hooks every block gets a [`BlockLeases`] table, which the
/// allocator reaches through [`Charge::leases`], and the scratch state
/// `init` builds, if any, which the lanes of its (≤ [`BLOCK_WARPS`]) warps
/// reach through [`LaneCtx::scratch_parts`]. `finish` runs when the block's
/// last warp retires — before the launch returns, hence before any
/// iteration-boundary bookkeeping (eviction, audits, postponement rescans)
/// the caller performs after the launch. It must close every lease: the
/// executor panics if the table is not empty after it.
pub struct BlockHooks<'s> {
    /// Build one block's scratch state; `None` keeps only the leases.
    pub init: Option<&'s (dyn Fn() -> Box<Scratch> + Sync)>,
    /// Retire the block: drain its scratch state and close its leases,
    /// charging the work to the tally of the block's last warp.
    pub finish: &'s (dyn Fn(Option<&mut Scratch>, &mut dyn Charge) + Sync),
}

/// A block's scratch state, whatever type its hooks build.
pub type Scratch = dyn Any + Send;

impl fmt::Debug for BlockHooks<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("BlockHooks { .. }")
    }
}

/// One block's shared state while its warps run. Lives on the running
/// participant's stack: only `init`'s scratch state is allocated.
#[derive(Debug, Default)]
struct BlockState {
    /// `None` on an [`Executor::without_leases`] executor.
    leases: Option<BlockLeases>,
    scratch: Option<Box<Scratch>>,
}

/// Handle through which a kernel lane reports its simulated-cost events.
#[derive(Debug)]
pub struct LaneCtx<'w> {
    task: usize,
    warp: &'w mut WarpLocal,
    block: Option<&'w mut BlockState>,
}

/// Charge sink borrowing only a lane's warp tally and its block's leases —
/// what [`LaneCtx::scratch_parts`] hands out so scratch state and the
/// charge sink can be used simultaneously.
#[derive(Debug)]
pub struct WarpCharge<'a> {
    warp: &'a mut WarpLocal,
    leases: Option<&'a mut BlockLeases>,
}

impl Charge for WarpCharge<'_> {
    #[inline]
    fn add(&mut self, counter: Counter, n: u64) {
        self.warp.tally.add(counter, n);
    }

    #[inline]
    fn access(&mut self, addr: ShadowAddr, kind: AccessKind) {
        self.warp.declare(addr, kind, WARP_LEVEL_LANE);
    }

    #[inline]
    fn leases(&mut self) -> Option<&mut BlockLeases> {
        self.leases.as_deref_mut()
    }
}

impl LaneCtx<'_> {
    /// Global task index of this lane.
    #[inline]
    pub fn task(&self) -> usize {
        self.task
    }

    /// Record `bytes` of coalesced streaming reads (input records).
    #[inline]
    pub fn read_stream(&mut self, bytes: u64) {
        self.warp.tally.add(Counter::StreamBytes, bytes);
    }

    /// Declare the branch class this lane took at a divergent branch.
    /// Distinct classes within one warp serialize.
    #[inline]
    pub fn branch_class(&mut self, class: u32) {
        self.warp.branch_classes.insert(class);
    }

    /// Split this lane into its block's scratch state (when the launch's
    /// [`BlockHooks`] build one) and a charge sink over the warp tally and
    /// the block's leases. The split borrows disjoint fields, so a lane
    /// can update scratch state while charging costs.
    #[inline]
    pub fn scratch_parts(&mut self) -> (Option<&mut Scratch>, WarpCharge<'_>) {
        let (scratch, leases) = match self.block.as_deref_mut() {
            Some(block) => (block.scratch.as_deref_mut(), block.leases.as_mut()),
            None => (None, None),
        };
        let charge = WarpCharge {
            warp: self.warp,
            leases,
        };
        (scratch, charge)
    }
}

impl Charge for LaneCtx<'_> {
    #[inline]
    fn add(&mut self, counter: Counter, n: u64) {
        self.warp.tally.add(counter, n);
    }

    #[inline]
    fn access(&mut self, addr: ShadowAddr, kind: AccessKind) {
        self.warp
            .declare(addr, kind, (self.task % WARP_SIZE) as u32);
    }

    #[inline]
    fn leases(&mut self) -> Option<&mut BlockLeases> {
        self.block.as_deref_mut()?.leases.as_mut()
    }
}

/// Statistics returned by a kernel launch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaunchStats {
    /// Tasks executed by this launch.
    pub tasks: u64,
    /// Warps the tasks were grouped into.
    pub warps: u64,
    /// Divergence events recorded by this launch.
    pub divergence_events: u64,
    /// Lanes whose task was skipped by an injected fault (the task's work
    /// never ran; the caller sees it as still unprocessed).
    pub lanes_aborted: u64,
}

/// Why a launch failed.
enum LaunchFailure {
    /// A kernel lane panicked; carries the first panic payload. The launch
    /// still drained (every remaining warp ran) and the pool is unaffected.
    Panic(Box<dyn Any + Send + 'static>),
    /// A hard fault ([`FaultDraw`]) killed the launch before it
    /// started: no lane ran, no state was touched, no metrics were charged.
    Hard(FaultDraw),
}

/// A launch failed: either a kernel panicked mid-launch, or a hard device
/// fault killed the launch before it started (see
/// [`LaunchError::hard_fault`]).
pub struct LaunchError {
    failure: LaunchFailure,
}

impl LaunchError {
    fn panic(payload: Box<dyn Any + Send + 'static>) -> Self {
        LaunchError {
            failure: LaunchFailure::Panic(payload),
        }
    }

    fn hard(fault: FaultDraw) -> Self {
        LaunchError {
            failure: LaunchFailure::Hard(fault),
        }
    }

    /// Best-effort view of the failure message.
    pub fn message(&self) -> &str {
        match &self.failure {
            LaunchFailure::Panic(payload) => {
                if let Some(s) = payload.downcast_ref::<&str>() {
                    s
                } else if let Some(s) = payload.downcast_ref::<String>() {
                    s
                } else {
                    "kernel panicked with a non-string payload"
                }
            }
            LaunchFailure::Hard(fault) => fault.kind.label(),
        }
    }

    /// The hard fault that killed this launch, when the failure was a hard
    /// fault rather than a kernel panic. A hard-faulted launch never ran:
    /// callers holding a checkpoint can rebuild device state and retry.
    pub fn hard_fault(&self) -> Option<FaultDraw> {
        match &self.failure {
            LaunchFailure::Hard(fault) => Some(*fault),
            LaunchFailure::Panic(_) => None,
        }
    }

    /// A payload for re-raising: the original panic payload, or for hard
    /// faults a descriptive message (hard faults should normally be handled
    /// through [`LaunchError::hard_fault`] instead of re-raised).
    pub fn into_panic(self) -> Box<dyn Any + Send + 'static> {
        match self.failure {
            LaunchFailure::Panic(payload) => payload,
            LaunchFailure::Hard(fault) => Box::new(format!("unrecovered hard fault: {fault}")),
        }
    }
}

impl fmt::Debug for LaunchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.failure {
            LaunchFailure::Panic(_) => write!(f, "LaunchError(panic: {:?})", self.message()),
            LaunchFailure::Hard(fault) => write!(f, "LaunchError(hard: {fault})"),
        }
    }
}

impl fmt::Display for LaunchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.failure {
            LaunchFailure::Panic(_) => write!(f, "kernel panicked: {}", self.message()),
            LaunchFailure::Hard(fault) => write!(f, "hard device fault: {fault}"),
        }
    }
}

impl std::error::Error for LaunchError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match &self.failure {
            LaunchFailure::Hard(fault) => Some(fault),
            LaunchFailure::Panic(_) => None,
        }
    }
}

/// Per-participant event accumulator: one per pool slot, written without
/// synchronization, flushed to [`Metrics`] once per launch.
#[derive(Debug, Default)]
struct Shard {
    tally: Tally,
    lanes_aborted: u64,
    /// The warp in flight; its shadow buffer holds this shard's declared
    /// accesses in warp-retirement order.
    warp: WarpLocal,
    /// Shadow events recorded by retired warps.
    retired: usize,
}

impl Shard {
    /// A shard whose warps append declared accesses to `shadow`, if given.
    fn new(shadow: Option<Vec<ShadowEvent>>) -> Self {
        Shard {
            warp: WarpLocal {
                shadow,
                ..WarpLocal::default()
            },
            ..Shard::default()
        }
    }

    /// Fold the in-flight warp into the shard.
    fn retire_warp(&mut self) {
        let warp = &mut self.warp;
        warp.tally.add(
            Counter::DivergenceEvents,
            (warp.branch_classes.len() as u64).saturating_sub(1),
        );
        self.tally.absorb(&warp.tally);
        self.retired = warp.shadow.as_ref().map_or(0, Vec::len);
    }

    /// The declared accesses of every retired warp.
    fn into_shadow(self) -> Option<Vec<ShadowEvent>> {
        let mut log = self.warp.shadow?;
        log.truncate(self.retired);
        Some(log)
    }
}

/// Pool job for one launch: thread blocks are the units; each participant
/// owns the shard indexed by its slot.
struct KernelJob<'k, K> {
    kernel: &'k K,
    n_tasks: usize,
    faults: Option<&'k FaultPlan>,
    hooks: Option<&'k BlockHooks<'k>>,
    /// Give blocks under hooks page leases ([`Executor::without_leases`]).
    leases: bool,
    shards: Vec<UnsafeCell<Shard>>,
}

// Soundness: the pool hands each participant a distinct slot, and a shard
// is only touched through its owner's slot index, so `UnsafeCell` access
// is exclusive. The pool's completion latch orders all shard writes before
// the submitter reads them back.
unsafe impl<K: Sync> Sync for KernelJob<'_, K> {}

impl<K: Fn(&mut LaneCtx<'_>) + Sync> Work for KernelJob<'_, K> {
    fn run_units(&self, blocks: Range<usize>, slot: usize) {
        // SAFETY: the pool hands each participant a distinct slot (see the
        // `Sync` impl above), so this is the only reference to the shard.
        let shard = unsafe { &mut *self.shards[slot].get() };
        let n_warps = self.n_tasks.div_ceil(WARP_SIZE);
        for block in blocks {
            // One block state per block, shared by its warps in turn and
            // drained when the last of them retires — so every lease is
            // closed and every scratch effect lands before the launch
            // returns.
            let mut state = self.hooks.map(|hooks| BlockState {
                leases: self.leases.then(BlockLeases::default),
                scratch: hooks.init.map(|init| init()),
            });
            let warps = block * BLOCK_WARPS..((block + 1) * BLOCK_WARPS).min(n_warps);
            for warp in warps.clone() {
                self.run_warp(warp, state.as_mut(), warp + 1 == warps.end, shard);
            }
        }
    }
}

impl<K: Fn(&mut LaneCtx<'_>) + Sync> KernelJob<'_, K> {
    /// Execute one warp's lanes serially, folding its tally into `shard`.
    /// Lanes killed by the fault plan skip their kernel invocation — the
    /// task runs nothing and stays unprocessed from the caller's point of
    /// view. `retires_block` marks the block's last warp: its retirement
    /// runs the `finish` hook, after its last lane (aborted or not) and
    /// before its tally is folded.
    fn run_warp(
        &self,
        warp: usize,
        mut block: Option<&mut BlockState>,
        retires_block: bool,
        shard: &mut Shard,
    ) {
        shard.warp.start(warp as u32, shard.retired);
        let start = warp * WARP_SIZE;
        let end = (start + WARP_SIZE).min(self.n_tasks);
        for task in start..end {
            if let Some(plan) = self.faults {
                if plan.should_abort_lane() {
                    shard.lanes_aborted += 1;
                    continue;
                }
            }
            let mut ctx = LaneCtx {
                task,
                warp: &mut shard.warp,
                block: block.as_deref_mut(),
            };
            (self.kernel)(&mut ctx);
        }
        if let (true, Some(hooks), Some(block)) = (retires_block, self.hooks, block) {
            let mut charge = WarpCharge {
                warp: &mut shard.warp,
                leases: block.leases.as_mut(),
            };
            (hooks.finish)(block.scratch.as_deref_mut(), &mut charge);
            assert!(
                block.leases.as_ref().is_none_or(BlockLeases::is_empty),
                "a block retired with its page leases open"
            );
        }
        shard.retire_warp();
    }
}

/// The kernel executor. Cheap to clone; clones share the metrics sink (and
/// the fault plan, when one is attached).
#[derive(Debug, Clone)]
pub struct Executor {
    mode: ExecMode,
    metrics: Arc<Metrics>,
    faults: Option<Arc<FaultPlan>>,
    shadow: Option<Arc<ShadowSanitizer>>,
    /// Blocks under hooks get page leases ([`Executor::without_leases`]).
    leases: bool,
}

impl Executor {
    pub fn new(mode: ExecMode, metrics: Arc<Metrics>) -> Self {
        Executor {
            mode,
            metrics,
            faults: None,
            shadow: None,
            leases: true,
        }
    }

    /// Give blocks under [`BlockHooks`] no page leases (they keep their
    /// scratch state): every allocation updates its page cursor. The
    /// machines the baselines model run so — a CPU has no block-shared
    /// memory to carve allocations from (§VI-B), and MapCG allocates from
    /// one central free pointer (§VI-C).
    pub fn without_leases(mut self) -> Self {
        self.leases = false;
        self
    }

    /// Attach a fault plan: lanes may abort before running their task
    /// (counted in [`LaunchStats::lanes_aborted`]). Under the deterministic
    /// modes the abort pattern is a pure function of the plan's seed.
    pub fn with_faults(mut self, plan: Arc<FaultPlan>) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Attach a shadow-memory sanitizer: every access the kernel declares
    /// through [`crate::charge::Charge::access`] is appended to its
    /// participant shard's buffer (lent by the sanitizer). When the launch
    /// retires the buffers go back to the sanitizer, which replays them in
    /// shard slot order on an idle pool worker while the next launch runs;
    /// any read of its verdict waits for that replay. Declared accesses
    /// charge no simulated cost, so attaching a sanitizer never changes
    /// results or metrics.
    pub fn with_shadow(mut self, sanitizer: Arc<ShadowSanitizer>) -> Self {
        self.shadow = Some(sanitizer);
        self
    }

    /// The shadow sanitizer in force, if any.
    pub fn shadow(&self) -> Option<&Arc<ShadowSanitizer>> {
        self.shadow.as_ref()
    }

    /// The fault plan in force, if any.
    pub fn faults(&self) -> Option<&Arc<FaultPlan>> {
        self.faults.as_ref()
    }

    /// The metrics sink launches report into.
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.metrics
    }

    /// Launch `kernel` over `n_tasks` tasks. Blocks until all warps retire.
    /// A kernel panic is re-raised on the calling thread (the launch drains
    /// first; see [`Executor::try_launch`]).
    ///
    /// The kernel runs once per task and may freely share `Sync` state
    /// (hash table, allocator, bitmap) across lanes.
    pub fn launch<K>(&self, n_tasks: usize, kernel: K) -> LaunchStats
    where
        K: Fn(&mut LaneCtx<'_>) + Sync,
    {
        self.try_launch(n_tasks, kernel)
            .unwrap_or_else(|e| std::panic::resume_unwind(e.into_panic()))
    }

    /// Like [`Executor::launch`], but a kernel panic is returned as a
    /// [`LaunchError`] instead of unwinding. The launch always drains:
    /// every block not in the panicking chunk still executes, and the worker
    /// pool remains fully usable.
    pub fn try_launch<K>(&self, n_tasks: usize, kernel: K) -> Result<LaunchStats, LaunchError>
    where
        K: Fn(&mut LaneCtx<'_>) + Sync,
    {
        self.try_launch_scoped(n_tasks, None, kernel)
    }

    /// [`Executor::try_launch`] with thread-block hooks attached: each
    /// block gets its own lease table and scratch state (`hooks.init`),
    /// which the lanes of its warps reach through [`Charge::leases`] and
    /// [`LaneCtx::scratch_parts`], drained by `hooks.finish` when the
    /// block's last warp retires — strictly before this call returns.
    pub fn try_launch_scoped<K>(
        &self,
        n_tasks: usize,
        hooks: Option<&BlockHooks<'_>>,
        kernel: K,
    ) -> Result<LaunchStats, LaunchError>
    where
        K: Fn(&mut LaneCtx<'_>) + Sync,
    {
        if n_tasks == 0 {
            return Ok(LaunchStats {
                tasks: 0,
                warps: 0,
                divergence_events: 0,
                lanes_aborted: 0,
            });
        }
        // Hard faults strike before the launch starts: a killed launch runs
        // no lane, charges no metrics, and touches no shared state, so the
        // caller's last iteration-boundary checkpoint is still exact.
        if let Some(plan) = self.faults.as_deref() {
            if let Some(fault) = plan.draw_hard() {
                return Err(LaunchError::hard(fault));
            }
        }
        let n_warps = n_tasks.div_ceil(WARP_SIZE);
        let n_blocks = n_warps.div_ceil(BLOCK_WARPS);
        let (max_slots, chunk) = match self.mode {
            ExecMode::ParallelDeterministic => (1, n_blocks),
            ExecMode::Parallel { workers } => {
                let pool = WorkerPool::global();
                let cap = if workers == 0 {
                    pool.max_participants()
                } else {
                    workers.clamp(1, pool.max_participants())
                };
                // Adaptive chunking: ~8 claims per participant amortizes
                // the claim cursor without starving the tail of the launch.
                (cap, (n_blocks / (cap * 8)).max(1))
            }
        };
        let mut buffers = self
            .shadow
            .as_ref()
            .map(|sanitizer| sanitizer.lend_buffers(max_slots).into_iter());
        let job = KernelJob {
            kernel: &kernel,
            n_tasks,
            faults: self.faults.as_deref(),
            hooks,
            leases: self.leases,
            shards: (0..max_slots)
                .map(|_| UnsafeCell::new(Shard::new(buffers.as_mut().and_then(Iterator::next))))
                .collect(),
        };
        let outcome = pool::WorkerPool::global().run(n_blocks, chunk, max_slots, &job);

        // Flush whatever completed warps recorded — also on panic, so a
        // failed launch still accounts the work it did.
        let mut tally = Tally::default();
        let mut lanes_aborted = 0;
        let mut logs = Vec::new();
        for cell in job.shards {
            let shard = cell.into_inner();
            tally.absorb(&shard.tally);
            lanes_aborted += shard.lanes_aborted;
            logs.extend(shard.into_shadow());
        }
        if let Some(sanitizer) = &self.shadow {
            sanitizer.ingest_buffers(logs);
        }
        self.metrics.add_tally(&tally);

        outcome.map_err(LaunchError::panic)?;
        // Aborted lanes never ran their task; only executed tasks count.
        let executed = n_tasks as u64 - lanes_aborted;
        self.metrics.add(Counter::Tasks, executed);
        Ok(LaunchStats {
            tasks: executed,
            warps: n_warps as u64,
            divergence_events: tally.get(Counter::DivergenceEvents),
            lanes_aborted,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lease::Lease;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn exec(mode: ExecMode) -> (Executor, Arc<Metrics>) {
        let m = Arc::new(Metrics::new());
        (Executor::new(mode, Arc::clone(&m)), m)
    }

    #[test]
    fn every_task_runs_exactly_once_parallel() {
        let (e, _) = exec(ExecMode::Parallel { workers: 4 });
        let n = 1_000;
        let hits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        e.launch(n, |ctx| {
            hits[ctx.task()].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn every_task_runs_exactly_once_deterministic() {
        let (e, _) = exec(ExecMode::ParallelDeterministic);
        let n = 97; // not a multiple of warp size
        let hits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        let stats = e.launch(n, |ctx| {
            hits[ctx.task()].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        assert_eq!(stats.tasks, 97);
        assert_eq!(stats.warps, 4); // ceil(97/32)
    }

    #[test]
    fn parallel_deterministic_runs_in_task_order() {
        let (e, _) = exec(ExecMode::ParallelDeterministic);
        let order = parking_lot::Mutex::new(Vec::new());
        e.launch(100, |ctx| {
            order.lock().push(ctx.task());
        });
        let order = order.into_inner();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn charges_flow_into_metrics() {
        let (e, m) = exec(ExecMode::ParallelDeterministic);
        e.launch(10, |ctx| {
            ctx.compute(5);
            ctx.read_stream(100);
            ctx.device_bytes(8);
            ctx.chain_hops(2);
        });
        let s = m.snapshot();
        assert_eq!(s.tasks, 10);
        assert_eq!(s.compute_units, 50);
        assert_eq!(s.stream_bytes, 1_000);
        assert_eq!(s.chain_hops, 20);
        assert_eq!(s.device_bytes, 80 + 20 * 16);
    }

    #[test]
    fn uniform_branch_class_causes_no_divergence() {
        let (e, m) = exec(ExecMode::ParallelDeterministic);
        let stats = e.launch(64, |ctx| ctx.branch_class(7));
        assert_eq!(stats.divergence_events, 0);
        assert_eq!(m.snapshot().divergence_events, 0);
    }

    #[test]
    fn divergence_counts_extra_classes_per_warp() {
        let (e, m) = exec(ExecMode::ParallelDeterministic);
        // Lanes alternate between 4 classes: each full warp sees 4 distinct
        // classes => 3 events per warp; 2 warps => 6.
        let stats = e.launch(64, |ctx| ctx.branch_class((ctx.task() % 4) as u32));
        assert_eq!(stats.divergence_events, 6);
        assert_eq!(m.snapshot().divergence_events, 6);
    }

    #[test]
    fn divergence_respects_warp_boundaries() {
        let (e, _) = exec(ExecMode::ParallelDeterministic);
        // Class = warp index: uniform within each warp => no divergence.
        let stats = e.launch(320, |ctx| ctx.branch_class((ctx.task() / WARP_SIZE) as u32));
        assert_eq!(stats.divergence_events, 0);
    }

    #[test]
    fn empty_launch_is_a_noop() {
        let (e, m) = exec(ExecMode::Parallel { workers: 4 });
        let stats = e.launch(0, |_| panic!("kernel must not run"));
        assert_eq!(stats.tasks, 0);
        assert_eq!(m.snapshot().tasks, 0);
    }

    #[test]
    fn parallel_and_deterministic_agree_on_aggregates() {
        let run = |mode| {
            let (e, m) = exec(mode);
            e.launch(10_000, |ctx| {
                ctx.compute((ctx.task() % 7) as u64);
                ctx.branch_class((ctx.task() % 3) as u32);
            });
            m.snapshot()
        };
        let par = run(ExecMode::Parallel { workers: 8 });
        let det = run(ExecMode::ParallelDeterministic);
        assert_eq!(par.compute_units, det.compute_units);
        assert_eq!(par.divergence_events, det.divergence_events);
        assert_eq!(par.tasks, det.tasks);
    }

    #[test]
    fn parallel_deterministic_snapshots_are_byte_identical() {
        let run = |mode| {
            let (e, m) = exec(mode);
            for round in 0..5 {
                e.launch(3_000 + round * 7, |ctx| {
                    ctx.compute((ctx.task() % 11) as u64);
                    ctx.read_stream(24);
                    ctx.device_bytes((ctx.task() % 3) as u64 * 16);
                    ctx.branch_class((ctx.task() % 2) as u32);
                });
            }
            m.snapshot()
        };
        assert_eq!(
            run(ExecMode::ParallelDeterministic),
            run(ExecMode::ParallelDeterministic)
        );
    }

    #[test]
    fn try_launch_reports_kernel_panic_and_executor_survives() {
        let (e, m) = exec(ExecMode::Parallel { workers: 4 });
        let err = e
            .try_launch(1_000, |ctx| {
                if ctx.task() == 517 {
                    panic!("lane 517 died");
                }
                ctx.compute(1);
            })
            .unwrap_err();
        assert_eq!(err.message(), "lane 517 died");
        // `tasks` is only credited on success.
        assert_eq!(m.snapshot().tasks, 0);
        // The executor (and the shared pool behind it) keeps working.
        let stats = e.launch(1_000, |ctx| ctx.compute(1));
        assert_eq!(stats.tasks, 1_000);
        assert_eq!(m.snapshot().tasks, 1_000);
    }

    #[test]
    fn launch_unwinds_with_original_payload() {
        let (e, _) = exec(ExecMode::ParallelDeterministic);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            e.launch(10, |_| panic!("boom-{}", 42));
        }))
        .unwrap_err();
        // The payload type depends on how rustc lowers the format string
        // (`&'static str` when const-foldable, `String` otherwise) — accept
        // either, but the text must be the kernel's own.
        let text = caught
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| caught.downcast_ref::<String>().map(String::as_str));
        assert_eq!(text, Some("boom-42"));
    }

    #[test]
    fn lane_aborts_skip_tasks_deterministically() {
        use crate::faults::{FaultConfig, FaultKind, FaultPlan};
        let run = |seed| {
            let m = Arc::new(Metrics::new());
            let plan = Arc::new(FaultPlan::new(
                FaultConfig::quiet(seed).rate(FaultKind::LaneAbort, 0.2),
            ));
            let e = Executor::new(ExecMode::ParallelDeterministic, Arc::clone(&m))
                .with_faults(Arc::clone(&plan));
            let n = 4_000;
            let hits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
            let stats = e.launch(n, |ctx| {
                hits[ctx.task()].fetch_add(1, Ordering::Relaxed);
            });
            let ran: Vec<usize> = hits
                .iter()
                .enumerate()
                .filter(|(_, h)| h.load(Ordering::Relaxed) == 1)
                .map(|(i, _)| i)
                .collect();
            assert_eq!(stats.tasks as usize, ran.len());
            assert_eq!(stats.lanes_aborted as usize, n - ran.len());
            assert!(stats.lanes_aborted > 0, "20% abort rate must fire");
            // Only executed tasks reach the metrics sink.
            assert_eq!(m.snapshot().tasks, stats.tasks);
            ran
        };
        // Same seed => identical abort pattern; different seed => different.
        assert_eq!(run(77), run(77));
        assert_ne!(run(77), run(78));
    }

    #[test]
    fn hard_fault_kills_the_launch_before_anything_runs() {
        use crate::faults::{FaultConfig, FaultKind, FaultPlan};
        let m = Arc::new(Metrics::new());
        let plan = Arc::new(
            FaultPlan::new(FaultConfig::quiet(1))
                .with(FaultConfig::quiet(3).rate(FaultKind::DeviceLost, 1.0)),
        );
        let e = Executor::new(ExecMode::ParallelDeterministic, Arc::clone(&m))
            .with_faults(Arc::clone(&plan));
        let ran = AtomicU64::new(0);
        let err = e
            .try_launch(100, |_| {
                ran.fetch_add(1, Ordering::Relaxed);
            })
            .unwrap_err();
        let fault = err.hard_fault().expect("must be a hard fault");
        assert_eq!(fault.kind, FaultKind::DeviceLost);
        assert_eq!(ran.load(Ordering::Relaxed), 0, "no lane may run");
        assert_eq!(m.snapshot(), crate::metrics::Snapshot::default());
        assert_eq!(plan.injected(FaultKind::DeviceLost), 1);
    }

    #[test]
    fn kernel_panics_are_not_hard_faults() {
        let (e, _) = exec(ExecMode::ParallelDeterministic);
        let err = e.try_launch(10, |_| panic!("plain panic")).unwrap_err();
        assert!(err.hard_fault().is_none());
        assert_eq!(err.message(), "plain panic");
    }

    #[test]
    fn no_fault_plan_means_no_aborts() {
        let (e, _) = exec(ExecMode::ParallelDeterministic);
        let stats = e.launch(100, |_| {});
        assert_eq!(stats.lanes_aborted, 0);
        assert_eq!(stats.tasks, 100);
    }

    /// Launch `n` counting lanes under `exec` with block hooks that
    /// record, per block, how many lanes ran before `finish` fired. Every
    /// lane leaves a record in its block's lease table; `finish` takes
    /// them all.
    /// Returns (inits, lanes seen by each finish in block order, stats).
    fn scoped_counting_launch(e: &Executor, n: usize) -> (u64, Vec<u64>, LaunchStats) {
        let inits = AtomicU64::new(0);
        let finished = parking_lot::Mutex::new(Vec::new());
        let init = || -> Box<dyn Any + Send> {
            inits.fetch_add(1, Ordering::Relaxed);
            Box::new((usize::MAX, 0u64))
        };
        let finish = |state: Option<&mut Scratch>, charge: &mut dyn Charge| {
            let state = state.expect("init built a scratch state");
            let &(first_task, lanes) = state.downcast_ref::<(usize, u64)>().unwrap();
            finished.lock().push((first_task, lanes));
            // Drain the block's accumulated lane count as flushes.
            charge.combiner_flushes(lanes);
            let leases = charge.leases().expect("hooks give every block leases");
            while leases.pop().is_some() {}
        };
        let hooks = BlockHooks {
            init: Some(&init),
            finish: &finish,
        };
        let stats = e
            .try_launch_scoped(n, Some(&hooks), |ctx| {
                let task = ctx.task();
                let key = (task % 7) as u32;
                ctx.leases().unwrap().put(key, Lease::without_run(key));
                let (scratch, mut charge) = ctx.scratch_parts();
                assert_eq!(charge.leases().unwrap().take(key), Lease::without_run(key));
                charge.leases().unwrap().put(key, Lease::without_run(key));
                let state = scratch.unwrap().downcast_mut::<(usize, u64)>().unwrap();
                state.0 = state.0.min(task);
                state.1 += 1;
                charge.combiner_hits(1);
                charge.smem_bytes(8);
            })
            .unwrap();
        let mut finished = finished.into_inner();
        finished.sort_unstable();
        let lanes = finished.into_iter().map(|(_, lanes)| lanes).collect();
        (inits.load(Ordering::Relaxed), lanes, stats)
    }

    #[test]
    fn block_scratch_init_and_finish_run_once_per_block() {
        let block = WARP_SIZE * BLOCK_WARPS;
        for mode in [
            ExecMode::ParallelDeterministic,
            ExecMode::Parallel { workers: 4 },
        ] {
            // 2 full blocks + a short tail block of 3 warps (the last one
            // 4 lanes wide); then a launch smaller than one warp.
            for n in [2 * block + 2 * WARP_SIZE + 4, 5] {
                let (e, m) = exec(mode);
                let (inits, lanes, stats) = scoped_counting_launch(&e, n);
                let n_blocks = n.div_ceil(WARP_SIZE).div_ceil(BLOCK_WARPS);
                assert_eq!(stats.tasks, n as u64);
                assert_eq!(stats.warps, n.div_ceil(WARP_SIZE) as u64);
                assert_eq!(inits, n_blocks as u64);
                // finish fired once per block, after the block's last lane:
                // it saw every lane of its own block and no other's.
                let expect: Vec<u64> = (0..n_blocks)
                    .map(|b| (n - b * block).min(block) as u64)
                    .collect();
                assert_eq!(lanes, expect, "{mode:?} n={n}");
                let s = m.snapshot();
                assert_eq!(s.combiner_hits, n as u64);
                assert_eq!(s.smem_bytes, 8 * n as u64);
                // finish's charges landed in the same launch's flush.
                assert_eq!(s.combiner_flushes, n as u64);
            }
        }
    }

    #[test]
    fn block_scratch_finishes_when_faults_kill_lanes_of_the_last_warp() {
        use crate::faults::{FaultConfig, FaultKind, FaultPlan};
        // Every lane aborts: no kernel lane ever runs, yet each block's
        // scratch state is still created and drained exactly once.
        let m = Arc::new(Metrics::new());
        let plan = Arc::new(FaultPlan::new(
            FaultConfig::quiet(5).rate(FaultKind::LaneAbort, 1.0),
        ));
        let e = Executor::new(ExecMode::ParallelDeterministic, Arc::clone(&m)).with_faults(plan);
        let n = WARP_SIZE * BLOCK_WARPS + 40; // 2 blocks, the tail 2 warps
        let (inits, lanes, stats) = scoped_counting_launch(&e, n);
        assert_eq!(stats.lanes_aborted, n as u64);
        assert_eq!(inits, 2);
        assert_eq!(lanes, vec![0, 0]);

        // A partial abort rate kills some lanes of the last warp; finish
        // still runs after the survivors, seeing exactly the lanes that ran.
        let m = Arc::new(Metrics::new());
        let plan = Arc::new(FaultPlan::new(
            FaultConfig::quiet(5).rate(FaultKind::LaneAbort, 0.5),
        ));
        let e = Executor::new(ExecMode::ParallelDeterministic, Arc::clone(&m)).with_faults(plan);
        let (inits, lanes, stats) = scoped_counting_launch(&e, n);
        assert!(stats.lanes_aborted > 0 && stats.tasks > 0);
        assert_eq!(inits, 2);
        assert_eq!(lanes.len(), 2);
        assert_eq!(lanes.iter().sum::<u64>(), stats.tasks);
        assert_eq!(m.snapshot().combiner_flushes, stats.tasks);
    }

    #[test]
    fn plain_launch_has_no_scratch_and_no_leases() {
        let (e, _) = exec(ExecMode::ParallelDeterministic);
        e.launch(10, |ctx| {
            assert!(ctx.leases().is_none());
            let (scratch, mut charge) = ctx.scratch_parts();
            assert!(scratch.is_none());
            assert!(charge.leases().is_none());
        });
    }

    #[test]
    fn a_block_retiring_with_an_open_lease_fails_the_launch() {
        let (e, _) = exec(ExecMode::ParallelDeterministic);
        let finish = |_: Option<&mut Scratch>, _: &mut dyn Charge| {};
        let hooks = BlockHooks {
            init: None,
            finish: &finish,
        };
        let err = e
            .try_launch_scoped(40, Some(&hooks), |ctx| {
                let (scratch, mut charge) = ctx.scratch_parts();
                assert!(scratch.is_none(), "no init, no scratch state");
                charge.leases().unwrap().put(1, Lease::without_run(1));
            })
            .unwrap_err();
        assert_eq!(err.message(), "a block retired with its page leases open");
    }

    #[test]
    fn divergence_is_tracked_in_u64_at_scale() {
        // Many warps, each with one divergence event: totals flow through
        // u64 shards end to end (no usize round-trip).
        let (e, m) = exec(ExecMode::Parallel { workers: 0 });
        let stats = e.launch(WARP_SIZE * 4_096, |ctx| {
            ctx.branch_class((ctx.task() % 2) as u32)
        });
        assert_eq!(stats.divergence_events, 4_096);
        assert_eq!(m.snapshot().divergence_events, 4_096);
    }
}
