//! The SEPO iteration driver (§III-B, §IV-C, Fig. 5).
//!
//! The driver owns the requestor side of the SEPO contract: it tracks which
//! input records have been processed (the bitmap of §III-B, generalized
//! with a per-task *pair progress* counter so one task may emit several KV
//! pairs and resume mid-task after a postponement), launches kernels over
//! the pending set in BigKernel-sized chunks, applies the per-organization
//! halt policy, triggers eviction at iteration boundaries, and repeats
//! until every record is processed.
//!
//! Halt policy, per Fig. 5 with one addition:
//! * **basic** — halt as soon as the fraction of postponing bucket groups
//!   reaches the configured threshold (default 50%), because entries of
//!   *any* key need fresh memory;
//! * **multi-valued / combining** — no threshold: duplicate-key work still
//!   succeeds with a full heap (combining updates in place; multi-valued
//!   marks which keys are pending), so Fig. 5 runs the pass to the end of
//!   the input;
//! * **every organization** — end the iteration after a launch in which no
//!   task completed or moved its resume pair, unless the fault plan aborted
//!   every lane of it. This departs from Fig. 5: past that launch the rest
//!   of the input would only upload and postpone. Multi-valued loses the
//!   pending-key marks the skipped records would have set, so a few more
//!   of its key pages leave the device and host compaction joins the extra
//!   key entries.

use crate::audit::TableAudit;
use crate::bitmap::Bitmap;
use crate::checkpoint::{Checkpoint, CheckpointPolicy};
use crate::combiner::{CombinerConfig, WarpCombiner};
use crate::compact::CompactReport;
use crate::config::Organization;
use crate::evict::EvictReport;
use crate::serve::{EpochPublisher, EpochSnapshot};
use crate::table::SepoTable;
use gpu_sim::charge::Charge;
use gpu_sim::executor::{BlockHooks, Executor, LaneCtx, Scratch};
use gpu_sim::metrics::Snapshot;
use gpu_sim::sync::Relaxed;
use gpu_sim::{FaultDraw, FaultKind, FaultPlan, NoCharge, ShadowSanitizer};
use sepo_alloc::{crc32c, ResidentPage};
use std::fmt;
use std::io;
use std::sync::Arc;

/// Result of processing one task (input record) in a kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskResult {
    /// Every KV pair of the task is stored.
    Done,
    /// The table postponed the pair with index `next_pair`; earlier pairs
    /// are stored. The task will resume at `next_pair` next iteration.
    Postponed {
        /// Pair index to resume from.
        next_pair: u32,
    },
}

/// Per-iteration accounting, consumed by the benchmark harness.
#[derive(Debug, Clone, PartialEq)]
pub struct IterationStats {
    /// 1-based iteration number.
    pub iteration: u32,
    /// Tasks attempted this iteration (pending tasks in launched chunks).
    pub tasks_attempted: u64,
    /// Tasks that completed this iteration.
    pub tasks_completed: u64,
    /// Input bytes streamed to the device this iteration.
    pub input_bytes: u64,
    /// Chunks launched (each one upload + one kernel in the pipeline).
    pub chunks: u32,
    /// Metrics delta covering this iteration's kernels.
    pub kernel: Snapshot,
    /// What the iteration-boundary eviction moved.
    pub evict: EvictReport,
    /// Did the iteration stop before the end of its pending set? The basic
    /// method's halt threshold fired, or (any organization) a launch stored
    /// nothing.
    pub halted_early: bool,
}

/// Hard-fault recovery accounting for one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Hard device faults survived by restoring a checkpoint.
    pub recoveries: u32,
    /// Iterations whose partial work was discarded and re-run after a
    /// restore (each recovery replays exactly the killed iteration).
    pub replayed_iterations: u32,
    /// Checkpoints captured over the run (one per iteration boundary plus
    /// the pre-run baseline when checkpointing is on).
    pub checkpoints_taken: u32,
    /// `SEPOCKP5` footprint of the latest checkpoint, in bytes.
    pub checkpoint_bytes: u64,
    /// In-flight eviction corruptions detected by the transfer checksum
    /// and repaired by retransmitting the page.
    pub retransmits: u64,
    /// Resting-page corruptions detected by the boundary scrub (each one
    /// was repaired by a checkpoint restore or failed the run loudly).
    pub corruptions_detected: u64,
    /// Resting-page corruptions repaired by restoring the last checkpoint.
    pub integrity_restores: u32,
    /// Checkpoint images that failed read-back verification (a disk byte
    /// flipped in flight) and were rewritten until they verified.
    pub checkpoint_rewrites: u32,
    /// Host pages whose eviction stamp was re-verified clean by the
    /// end-of-run scrub ([`DriverConfig::scrub`], forced on whenever the
    /// fault plan draws corruption).
    pub scrubbed_pages: u64,
}

/// Complete accounting for one SEPO run.
#[derive(Debug, Clone)]
pub struct SepoOutcome {
    /// Per-iteration statistics, in order.
    pub iterations: Vec<IterationStats>,
    /// Total tasks processed.
    pub total_tasks: u64,
    /// Eviction performed by the final `finalize()` (flushing pages kept
    /// beyond the last iteration).
    pub final_evict: EvictReport,
    /// Tasks still pending when the run stopped. Non-zero only when the
    /// iteration cap was reached — how the MapCG baseline's out-of-memory
    /// failure surfaces.
    pub pending_tasks: u64,
    /// Hard-fault recovery accounting ([`DriverConfig::checkpoint`]). All
    /// zero when checkpointing is off and no hard fault struck.
    pub recovery: RecoveryStats,
    /// Is this run's boundary-eviction DMA priced as hidden behind the next
    /// iteration's kernels? Copied from [`DriverConfig::evict_overlap`];
    /// the benchmark layer's makespan model is its only reader.
    pub evict_overlap: bool,
    /// What host compaction folded at the end of the run ([`crate::compact`]):
    /// `None` unless a combining or multi-valued table's host pages arrived
    /// in more than one batch and some key had several host entries (or a
    /// tombstone had to go).
    pub compaction: Option<CompactReport>,
}

impl SepoOutcome {
    /// Number of iterations the run needed — the number printed on top of
    /// the Fig. 6 bars.
    pub fn n_iterations(&self) -> u32 {
        self.iterations.len() as u32
    }

    /// Did every task complete?
    pub fn is_complete(&self) -> bool {
        self.pending_tasks == 0
    }

    /// Total bytes evicted to CPU memory over the whole run.
    pub fn total_evicted_bytes(&self) -> u64 {
        self.iterations
            .iter()
            .map(|i| i.evict.evicted_bytes)
            .sum::<u64>()
            + self.final_evict.evicted_bytes
    }

    /// Total input bytes streamed (counts re-streams of postponed records).
    pub fn total_input_bytes(&self) -> u64 {
        self.iterations.iter().map(|i| i.input_bytes).sum()
    }
}

/// Why a SEPO run could not complete. Returned by
/// [`SepoDriver::try_run`]; [`SepoDriver::run`] converts
/// [`SepoError::IterationCapExceeded`] back into its (incomplete)
/// [`SepoOutcome`] and panics on the other variants with their message.
#[derive(Debug)]
pub enum SepoError {
    /// An iteration stored nothing and injected faults cannot explain it:
    /// the configuration can never terminate (e.g. entries larger than a
    /// heap page).
    NoProgress {
        /// 1-based iteration that made no progress.
        iteration: u32,
        /// Tasks still pending at that point.
        pending: u64,
    },
    /// The run stopped at [`DriverConfig::max_iterations`] with tasks
    /// still pending. Carries the accounting gathered so far — how the
    /// MapCG baseline's out-of-memory failure surfaces.
    IterationCapExceeded {
        /// The incomplete run's accounting (`pending_tasks > 0`).
        outcome: Box<SepoOutcome>,
    },
    /// More than [`MAX_FAULT_RETRIES`] consecutive iterations made no
    /// progress while the fault plan was aborting lanes: the injected
    /// fault rate is too high to ever finish.
    FaultBudgetExhausted {
        /// 1-based iteration at which the budget ran out.
        iteration: u32,
        /// Tasks still pending at that point.
        pending: u64,
        /// Consecutive zero-progress, fault-afflicted iterations seen.
        stalled_iterations: u32,
    },
    /// A hard device fault ([`FaultKind::HARD`]) killed a launch and
    /// the run could not recover: checkpointing was off
    /// ([`DriverConfig::checkpoint`]), or the fault struck more than
    /// [`DriverConfig::max_recoveries`] times. The underlying
    /// [`FaultDraw`] is exposed through [`std::error::Error::source`].
    DeviceLost {
        /// 1-based iteration whose launch was killed.
        at_iteration: u32,
        /// Tasks still pending at that point.
        pending: u64,
        /// Recoveries performed before giving up.
        recoveries: u32,
        /// The fault that killed the launch.
        source: FaultDraw,
    },
    /// Writing the iteration-boundary checkpoint to the
    /// [`CheckpointPolicy::Disk`] file failed. The underlying
    /// [`io::Error`] is exposed through [`std::error::Error::source`].
    CheckpointIo {
        /// Completed iterations at the failed checkpoint.
        at_iteration: u32,
        /// The failed filesystem operation.
        source: io::Error,
    },
    /// An eviction transfer failed checksum verification on every one of
    /// its [`MAX_TRANSFER_RETRANSMITS`](crate::MAX_TRANSFER_RETRANSMITS)
    /// retransmit attempts. The corruption draw behind the final attempt
    /// is exposed through [`std::error::Error::source`].
    CorruptTransfer {
        /// 1-based iteration whose boundary eviction failed.
        at_iteration: u32,
        /// Host id of the page whose transfer kept failing verification.
        host_id: u64,
        /// The corruption draw that condemned the final attempt.
        source: FaultDraw,
    },
    /// Silent corruption of a resting page was detected by a checksum
    /// scrub (at an iteration boundary, or end-of-run for host pages) or by
    /// host compaction's read of a host page, and could not be repaired:
    /// checkpointing was off, or the recovery budget was already spent.
    CorruptPage {
        /// 1-based iteration at which the scrub detected the damage (one
        /// past the last iteration for the end-of-run host scrub).
        at_iteration: u32,
        /// Host id of the damaged page.
        host_id: u64,
        /// Recoveries performed before the unrepairable detection.
        recoveries: u32,
    },
    /// An iteration-boundary checkpoint image kept failing read-back
    /// verification: a disk byte flipped in flight on every rewrite
    /// attempt, so no trustworthy checkpoint exists. The underlying
    /// [`io::Error`] is exposed through [`std::error::Error::source`].
    CorruptCheckpoint {
        /// Completed iterations at the failed checkpoint.
        at_iteration: u32,
        /// The exhausted-rewrites verification error.
        source: io::Error,
    },
    /// The cross-layer [`TableAudit`] ([`DriverConfig::audit`]) found the
    /// layers disagreeing after an eviction — a bug, not an environmental
    /// condition.
    AuditFailed {
        /// 1-based iteration whose boundary failed; `None` at `finalize`.
        iteration: Option<u32>,
        /// The rendered [`crate::AuditViolation`].
        report: String,
    },
    /// The shadow-memory sanitizer ([`DriverConfig::sanitize`]) recorded
    /// publish-discipline findings by this boundary.
    SanitizerFailed {
        /// 1-based iteration whose boundary failed; `None` at `finalize`.
        iteration: Option<u32>,
        /// The rendered [`gpu_sim::SanitizerReport`], witnesses included.
        report: String,
    },
}

/// "iteration N", or "finalize" for the run-ending eviction.
fn boundary_name(iteration: Option<u32>) -> String {
    iteration.map_or_else(|| "finalize".into(), |i| format!("iteration {i}"))
}

impl fmt::Display for SepoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SepoError::NoProgress { iteration, pending } => write!(
                f,
                "SEPO iteration {iteration} stored nothing ({pending} tasks \
                 pending): the heap cannot hold a single new entry"
            ),
            SepoError::IterationCapExceeded { outcome } => write!(
                f,
                "SEPO stopped at the {}-iteration cap with {} tasks pending",
                outcome.n_iterations(),
                outcome.pending_tasks
            ),
            SepoError::FaultBudgetExhausted {
                iteration,
                pending,
                stalled_iterations,
            } => write!(
                f,
                "SEPO gave up at iteration {iteration} after \
                 {stalled_iterations} consecutive fault-stalled iterations \
                 ({pending} tasks pending)"
            ),
            SepoError::DeviceLost {
                at_iteration,
                pending,
                recoveries,
                source,
            } => write!(
                f,
                "device lost at iteration {at_iteration} ({pending} tasks \
                 pending, {recoveries} recoveries used): {source}"
            ),
            SepoError::CheckpointIo {
                at_iteration,
                source,
            } => write!(
                f,
                "checkpoint after iteration {at_iteration} failed: {source}"
            ),
            SepoError::CorruptTransfer {
                at_iteration,
                host_id,
                source,
            } => write!(
                f,
                "eviction transfer of host page {host_id} at iteration \
                 {at_iteration} failed checksum verification on every \
                 retransmit: {source}"
            ),
            SepoError::CorruptPage {
                at_iteration,
                host_id,
                recoveries,
            } => write!(
                f,
                "silent corruption of page {host_id} detected at iteration \
                 {at_iteration} ({recoveries} recoveries used) with no \
                 checkpoint left to repair from"
            ),
            SepoError::CorruptCheckpoint {
                at_iteration,
                source,
            } => write!(
                f,
                "checkpoint after iteration {at_iteration} failed \
                 verification: {source}"
            ),
            SepoError::AuditFailed { iteration, report } => {
                write!(
                    f,
                    "SEPO audit failed at {}: {report}",
                    boundary_name(*iteration)
                )
            }
            SepoError::SanitizerFailed { iteration, report } => write!(
                f,
                "SEPO sanitizer failed at {}: {report}",
                boundary_name(*iteration)
            ),
        }
    }
}

impl std::error::Error for SepoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SepoError::DeviceLost { source, .. } => Some(source),
            SepoError::CheckpointIo { source, .. } => Some(source),
            SepoError::CorruptTransfer { source, .. } => Some(source),
            SepoError::CorruptCheckpoint { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Consecutive zero-progress iterations tolerated while injected faults
/// are aborting lanes, before [`SepoError::FaultBudgetExhausted`].
/// Iterations that make progress reset the count; zero-progress iterations
/// *without* fault activity fail immediately as [`SepoError::NoProgress`].
pub const MAX_FAULT_RETRIES: u32 = 8;

/// Driver configuration.
#[derive(Debug, Clone)]
pub struct DriverConfig {
    /// Tasks per kernel launch (one BigKernel chunk).
    pub chunk_tasks: usize,
    /// Stop (returning an incomplete [`SepoOutcome`]) once this many
    /// iterations have run without completing every task. The MapCG
    /// baseline sets 1 to model a runtime with no larger-than-memory
    /// support.
    pub max_iterations: u32,
    /// Run the [`TableAudit`] cross-layer invariant checks at every
    /// iteration boundary (and after `finalize()`), failing the run with
    /// [`SepoError::AuditFailed`] on a violation. Off by default; enabled
    /// by the CLI's `--audit` flag and unconditionally in tests.
    pub audit: bool,
    /// Attach a thread-block software combiner ([`WarpCombiner`]) in front
    /// of the table. Only effective for the combining organization;
    /// duplicate emits within a block fold into a shared-memory-style tile
    /// and flush as one device atomic per cached key at block retirement —
    /// strictly before iteration-boundary bookkeeping, so results and
    /// resume points are byte-identical with the combiner on or off. `None`
    /// (the default) keeps the paper's direct insert path; the CLI turns it
    /// on.
    pub combiner: Option<CombinerConfig>,
    /// Check every declared device access against the shadow-memory
    /// sanitizer ([`gpu_sim::shadow`]), failing the run with
    /// [`SepoError::SanitizerFailed`] at the next iteration boundary if any
    /// access violated the publish discipline (concurrent plain access,
    /// plain/atomic mixing, use-after-evict). Requires a
    /// sanitizer attached to the executor via [`Executor::with_shadow`].
    /// Declaring accesses charges no simulated cost, so results are
    /// byte-identical with this on or off. Off by default; enabled by the
    /// CLI's `--sanitize` flag and unconditionally in tests.
    pub sanitize: bool,
    /// Iteration-boundary checkpointing for hard-fault recovery. With a
    /// policy other than [`CheckpointPolicy::Off`], the driver captures a
    /// [`Checkpoint`] at every quiescent boundary; a hard device fault
    /// ([`FaultKind::HARD`]) then restores the last checkpoint and
    /// replays the killed iteration instead of failing the run. Restored
    /// runs are byte-identical to unkilled ones. Off by default; the CLI's
    /// `--checkpoint <path>` / `--chaos-seed` flags turn it on.
    pub checkpoint: CheckpointPolicy,
    /// Hard faults survived per run before the driver gives up with
    /// [`SepoError::DeviceLost`]. Irrelevant while `checkpoint` is off (the
    /// first hard fault is then fatal).
    pub max_recoveries: u32,
    /// Price boundary eviction DMA as hidden behind the next iteration's
    /// kernels; the run is identical. The driver only copies this into
    /// [`SepoOutcome::evict_overlap`], where the benchmark layer's makespan
    /// model ([`gpu_sim::pipelined_total`]) reads it. Off by default; the
    /// CLI's `--evict-overlap on` turns it on.
    pub evict_overlap: bool,
    /// Online serving: when set, the driver publishes an
    /// [`crate::serve::EpochSnapshot`] through this publisher at every
    /// quiescent iteration boundary (plus epoch 0 before the first
    /// iteration and a finalized epoch after `finalize()`). Publication is
    /// pure reads against checkpoint-grade boundary state — the final
    /// table image, trajectories, and metrics are byte-identical with
    /// serving on or off. `None` (the default) skips publication; the
    /// CLI's `--serve` flag wires one in.
    pub serving: Option<Arc<EpochPublisher>>,
    /// End-of-run integrity scrub: after `finalize()`, re-verify every
    /// host-resident page against the CRC32C stamp it was evicted with,
    /// failing the run with [`SepoError::CorruptPage`] on a mismatch.
    /// Forced on whenever the executor's fault plan draws corruption
    /// (there is something to detect); this flag additionally enables it
    /// on corruption-free runs as a paranoia check. Off by default; the
    /// CLI's `--scrub` flag turns it on.
    pub scrub: bool,
}

impl Default for DriverConfig {
    fn default() -> Self {
        DriverConfig {
            chunk_tasks: 8 * 1024,
            max_iterations: 10_000,
            audit: false,
            combiner: None,
            sanitize: false,
            checkpoint: CheckpointPolicy::Off,
            max_recoveries: 8,
            evict_overlap: false,
            serving: None,
            scrub: false,
        }
    }
}

/// The SEPO driver. Borrows the table and executor for one run.
pub struct SepoDriver<'a> {
    pub table: &'a SepoTable,
    pub executor: &'a Executor,
    pub config: DriverConfig,
}

impl<'a> SepoDriver<'a> {
    pub fn new(table: &'a SepoTable, executor: &'a Executor) -> Self {
        SepoDriver {
            table,
            executor,
            config: DriverConfig::default(),
        }
    }

    pub fn with_config(mut self, config: DriverConfig) -> Self {
        self.config = config;
        self
    }

    /// Process `n_tasks` tasks to completion, panicking on unrecoverable
    /// conditions.
    ///
    /// A thin wrapper over [`SepoDriver::try_run`]: an
    /// [`SepoError::IterationCapExceeded`] is unwrapped back into its
    /// incomplete [`SepoOutcome`] (the MapCG baseline inspects
    /// `pending_tasks`); the other errors — a configuration that can never
    /// make progress, an exhausted fault budget, a failed audit or
    /// sanitizer verdict — panic with the typed error's message.
    pub fn run<B, K>(&self, n_tasks: usize, task_bytes: B, kernel: K) -> SepoOutcome
    where
        B: Fn(usize) -> u64 + Sync,
        K: Fn(usize, u32, &mut LaneCtx<'_>) -> TaskResult + Sync,
    {
        match self.try_run(n_tasks, task_bytes, kernel) {
            Ok(outcome) => outcome,
            Err(SepoError::IterationCapExceeded { outcome }) => *outcome,
            Err(e) => panic!("{e}"),
        }
    }

    /// Process `n_tasks` tasks to completion, reporting unrecoverable
    /// conditions as a typed [`SepoError`] instead of panicking.
    ///
    /// `task_bytes(t)` is the input volume of task `t` (for transfer
    /// accounting); `kernel(t, start_pair, lane)` processes task `t`
    /// beginning at pair `start_pair`, inserting into the driver's table,
    /// and reports [`TaskResult`].
    ///
    /// Transient injected faults (see [`gpu_sim::FaultPlan`]) degrade
    /// gracefully: an aborted lane simply leaves its task pending, and the
    /// next iteration retries it — paying simulated time, never losing
    /// work. Only when [`MAX_FAULT_RETRIES`] consecutive iterations stall
    /// with fault activity does the run give up with
    /// [`SepoError::FaultBudgetExhausted`].
    ///
    /// Hard injected faults (device loss, poisoned launches) kill a whole
    /// launch and are **not** retried in place. With
    /// [`DriverConfig::checkpoint`] enabled the driver restores the last
    /// iteration-boundary checkpoint and replays the killed iteration —
    /// producing an outcome byte-identical to an unkilled run — up to
    /// [`DriverConfig::max_recoveries`] times; otherwise (or beyond that
    /// budget) the run fails with [`SepoError::DeviceLost`].
    pub fn try_run<B, K>(
        &self,
        n_tasks: usize,
        task_bytes: B,
        kernel: K,
    ) -> Result<SepoOutcome, SepoError>
    where
        B: Fn(usize) -> u64 + Sync,
        K: Fn(usize, u32, &mut LaneCtx<'_>) -> TaskResult + Sync,
    {
        // Block hooks: each thread block gets its page leases and, when the
        // combiner is on, its own tile; both are drained when the block
        // retires — i.e. before a launch returns, hence before any
        // postponement bookkeeping or eviction observes the table.
        let combiner = match self.table.config().organization {
            Organization::Combining(comb) => self.config.combiner.map(|cc| (comb, cc)),
            _ => None,
        };
        let table = self.table;
        let tile = combiner
            .map(|(comb, cc)| move || -> Box<Scratch> { Box::new(WarpCombiner::new(comb, cc)) });
        let retire = move |scratch: Option<&mut Scratch>, mut charge: &mut dyn Charge| {
            if let Some(wc) = scratch.and_then(|s| s.downcast_mut::<WarpCombiner>()) {
                wc.flush(table, &mut charge);
            }
            table.groups.close_leases(&mut charge);
        };
        let hooks = BlockHooks {
            init: tile.as_ref().map(|tile| tile as _),
            finish: &retire,
        };

        // The paper's loop: launch over the pending set, postpone what does
        // not fit, evict at the boundary, repeat. An abandoned iteration
        // (hard fault, resting corruption) re-enters through `rollback`.
        let mut run = Run::begin(self, n_tasks)?;
        while !run.pending.is_empty() && run.iter_no() <= self.config.max_iterations {
            let attempt = run
                .open_iteration()
                .and_then(|()| run.launch(&task_bytes, &kernel, &hooks));
            match attempt {
                Ok(launched) => run.boundary(launched)?,
                Err(cause) => run.rollback(cause)?,
            }
        }
        run.finish()
    }
}

/// Why an iteration is abandoned and the run rewinds to the last boundary
/// checkpoint. The two causes keep separate recovery budgets.
enum Rollback {
    /// A hard device fault killed one of the iteration's launches.
    DeviceLost(FaultDraw),
    /// The pre-launch scrub found a damaged resting page (its host id).
    CorruptPage(u64),
}

/// What one iteration's launches did, handed to [`Run::boundary`].
struct Launched {
    /// Table metrics before the first launch.
    before: Snapshot,
    input_bytes: u64,
    chunks: u32,
    attempted: u64,
    lanes_aborted: u64,
    halted_early: bool,
}

/// The state of one [`SepoDriver::try_run`]; each step of its loop is a
/// method here. The boundary order — publish → evict → verdicts →
/// checkpoint → re-stamp — is fixed by the quiescence invariant.
struct Run<'d> {
    table: &'d SepoTable,
    executor: &'d Executor,
    config: &'d DriverConfig,
    /// The executor's fault plan; checkpoints capture and restore its lane
    /// counters.
    faults: Option<&'d FaultPlan>,
    /// The same plan, when it draws silent corruption: handed to eviction
    /// (in-flight flips), the resting-page window and checkpoint writes.
    corrupt: Option<&'d FaultPlan>,
    done: Bitmap,
    /// Per-task resume pair; a lane writes only its own task's word.
    progress: Box<[Relaxed<u32>]>,
    pending: Vec<u32>,
    iterations: Vec<IterationStats>,
    fault_stalls: u32,
    recovery: RecoveryStats,
    retransmits_baseline: u64,
    /// The last quiescent boundary, under [`DriverConfig::checkpoint`].
    checkpoint: Option<Checkpoint>,
    /// Kernels declare their accesses through the lane's charge sink and
    /// the executor forwards them; the driver only stamps the iteration
    /// number, routes eviction's host-side accesses, and reads the verdict.
    shadow: Option<Arc<ShadowSanitizer>>,
    findings_baseline: u64,
    audit: Option<TableAudit>,
    /// `(page, host id, CRC32C)` of every resident device page with used
    /// bytes, stamped at the last quiescent boundary.
    resting: Vec<(u32, u64, u32)>,
    /// The table held host pages when the run began: a batch of its own
    /// for host compaction.
    inherited_pages: bool,
}

impl<'d> Run<'d> {
    /// Set up the run and take the pre-run baseline: checkpoint 0 (so a
    /// kill during iteration 1 recovers too) and serving epoch 0.
    fn begin(driver: &'d SepoDriver<'_>, n_tasks: usize) -> Result<Self, SepoError> {
        let (table, executor, config) = (driver.table, driver.executor, &driver.config);
        let audit = config.audit.then(|| TableAudit::begin(table));
        let faults = executor.faults().map(Arc::as_ref);
        let shadow = config.sanitize.then(|| {
            let sz = executor.shadow().cloned();
            sz.expect("DriverConfig::sanitize requires Executor::with_shadow")
        });
        let mut run = Run {
            table,
            executor,
            config,
            faults,
            corrupt: faults.filter(|p| p.has_corruption()),
            done: Bitmap::new(n_tasks),
            progress: (0..n_tasks).map(|_| Relaxed::new(0)).collect(),
            pending: (0..n_tasks as u32).collect(),
            iterations: Vec::new(),
            fault_stalls: 0,
            recovery: RecoveryStats::default(),
            retransmits_baseline: table.integrity().retransmits(),
            checkpoint: None,
            findings_baseline: shadow.as_ref().map_or(0, |sz| sz.finding_count()),
            shadow,
            audit,
            resting: Vec::new(),
            inherited_pages: !table.host_heap().is_empty(),
        };
        run.stamp_resting();
        run.take_checkpoint()?;
        run.publish(0, false);
        Ok(run)
    }

    /// 1-based number of the iteration about to run (or running).
    fn iter_no(&self) -> u32 {
        self.iterations.len() as u32 + 1
    }

    /// Serving: publish a boundary's epoch ([`DriverConfig::serving`]).
    fn publish(&self, iteration: u32, finalized: bool) -> Option<Arc<EpochSnapshot>> {
        let publisher = self.config.serving.as_ref()?;
        Some(publisher.publish_boundary(self.table, iteration, finalized))
    }

    /// Stamp the resident pages: this quiescent point starts the next
    /// resting window. A no-op unless the plan draws corruption.
    fn stamp_resting(&mut self) {
        if self.corrupt.is_none() {
            return;
        }
        let heap = self.table.heap();
        self.resting = heap
            .resident_pages()
            .into_iter()
            .filter(|&p| heap.page_used(p) > 0)
            .map(|p| (p, heap.host_id(p), crc32c(heap.page_bytes(p))))
            .collect();
    }

    /// Capture a boundary checkpoint per [`DriverConfig::checkpoint`],
    /// writing it through to disk under [`CheckpointPolicy::Disk`].
    fn take_checkpoint(&mut self) -> Result<(), SepoError> {
        if !self.config.checkpoint.is_enabled() {
            return Ok(());
        }
        let ckp = Checkpoint::capture(
            self.table,
            &self.done,
            &self.progress,
            &self.iterations,
            self.fault_stalls,
            self.faults,
        );
        let at_iteration = ckp.iteration();
        let typed = |source: io::Error| match source.kind() {
            io::ErrorKind::InvalidData => SepoError::CorruptCheckpoint {
                at_iteration,
                source,
            },
            _ => SepoError::CheckpointIo {
                at_iteration,
                source,
            },
        };
        // The corruption plan rides along so on-disk writes draw seeded
        // disk byte flips; the write path reads the image back, verifies
        // its checksum trailer, and rewrites (bounded) until the landed
        // bytes are trustworthy.
        if let CheckpointPolicy::Disk(file, shard) = &self.config.checkpoint {
            self.recovery.checkpoint_rewrites +=
                file.update(*shard, &ckp, self.corrupt).map_err(typed)?;
        }
        self.recovery.checkpoints_taken += 1;
        self.checkpoint = Some(ckp);
        Ok(())
    }

    /// Open the iteration: stamp its number on the sanitizer, then close the
    /// silent-corruption window. Resident pages rested untouched since the
    /// last quiescent boundary, so draw seeded resting flips over them and
    /// scrub every stamp before any kernel can consume damaged bytes.
    fn open_iteration(&mut self) -> Result<(), Rollback> {
        if let Some(sz) = &self.shadow {
            sz.set_iteration(self.iter_no());
        }
        let Some(plan) = self.corrupt else {
            return Ok(());
        };
        let heap = self.table.heap();
        for &(page, _, _) in &self.resting {
            if let Some(hit) = plan.draw(FaultKind::RestingPageFlip) {
                heap.corrupt_bit(page, hit.entropy);
            }
        }
        let mut witness = None;
        for &(page, host_id, crc) in &self.resting {
            if crc32c(heap.page_bytes(page)) != crc {
                self.recovery.corruptions_detected += 1;
                witness.get_or_insert(host_id);
            }
        }
        witness.map_or(Ok(()), |host_id| Err(Rollback::CorruptPage(host_id)))
    }

    /// Launch kernels over the pending set, one BigKernel chunk at a time.
    /// A lane aborted by the fault plan never runs its task, so the task's
    /// done bit stays clear and it retries next iteration. A *hard* fault
    /// kills the whole launch before any lane runs and abandons the
    /// iteration.
    fn launch<B, K>(
        &self,
        task_bytes: &B,
        kernel: &K,
        hooks: &BlockHooks<'_>,
    ) -> Result<Launched, Rollback>
    where
        B: Fn(usize) -> u64 + Sync,
        K: Fn(usize, u32, &mut LaneCtx<'_>) -> TaskResult + Sync,
    {
        let is_basic = matches!(self.table.config().organization, Organization::Basic);
        let halt_threshold = self.table.config().halt_threshold;
        let (done, progress) = (&self.done, &self.progress);
        let mut l = Launched {
            before: self.table.metrics().snapshot(),
            input_bytes: 0,
            chunks: 0,
            attempted: 0,
            lanes_aborted: 0,
            halted_early: false,
        };
        for chunk in self.pending.chunks(self.config.chunk_tasks.max(1)) {
            // Stream the chunk's records to the device.
            l.input_bytes += chunk.iter().map(|&t| task_bytes(t as usize)).sum::<u64>();
            l.chunks += 1;
            l.attempted += chunk.len() as u64;
            let resume: Vec<u32> = chunk.iter().map(|&t| progress[t as usize].get()).collect();
            let launch = |lane: &mut LaneCtx<'_>| {
                let t = chunk[lane.task()] as usize;
                lane.read_stream(task_bytes(t));
                let start = progress[t].get();
                match kernel(t, start, lane) {
                    TaskResult::Done => done.set_charged(t, lane),
                    TaskResult::Postponed { next_pair } => {
                        progress[t].set(next_pair);
                    }
                }
            };
            let stats = match self
                .executor
                .try_launch_scoped(chunk.len(), Some(hooks), launch)
            {
                Ok(stats) => stats,
                Err(e) => match e.hard_fault() {
                    Some(fault) => return Err(Rollback::DeviceLost(fault)),
                    // Kernel panics keep their historical unwinding
                    // behaviour; only hard device faults are recovered.
                    None => std::panic::resume_unwind(e.into_panic()),
                },
            };
            l.lanes_aborted += stats.lanes_aborted;
            if is_basic && self.table.fraction_failed() >= halt_threshold {
                // §IV-C: halt, evict, restart from the first postponed
                // record (the boundary's pending-set rescan realizes that).
                l.halted_early = true;
                break;
            }
            // Any organization: a launch in which no task completed or
            // moved its resume pair stored nothing, so the heap is spent and
            // the rest of the pending set would only upload and postpone.
            // A launch whose every lane the fault plan aborted ran nothing
            // and proves nothing.
            let stored = chunk
                .iter()
                .zip(&resume)
                .any(|(&t, &start)| done.get(t as usize) || progress[t as usize].get() != start);
            if !stored && stats.lanes_aborted < chunk.len() as u64 {
                l.halted_early = true;
                break;
            }
        }
        Ok(l)
    }

    /// Rebuild the device (and driver) state of the last quiescent
    /// boundary and recompute `pending` from the bitmap — or fail with the
    /// cause's typed error when checkpointing is off or its budget is
    /// spent. The abandoned iteration's partial writes are a strict prefix
    /// of what its replay will write, so the resumed run is byte-identical
    /// to an undisturbed one; it re-enters the loop above every publish,
    /// so an abandoned iteration never publishes an epoch.
    fn rollback(&mut self, cause: Rollback) -> Result<(), SepoError> {
        let used = match cause {
            Rollback::DeviceLost(_) => self.recovery.recoveries,
            Rollback::CorruptPage(_) => self.recovery.integrity_restores,
        };
        let budget = self.config.max_recoveries;
        let Some(ckp) = self.checkpoint.as_ref().filter(|_| used < budget) else {
            let at_iteration = self.iter_no();
            return Err(match cause {
                Rollback::DeviceLost(source) => SepoError::DeviceLost {
                    at_iteration,
                    pending: self.pending.len() as u64,
                    recoveries: used,
                    source,
                },
                Rollback::CorruptPage(host_id) => SepoError::CorruptPage {
                    at_iteration,
                    host_id,
                    recoveries: used,
                },
            });
        };
        ckp.restore(
            self.table,
            &self.done,
            &self.progress,
            &mut self.iterations,
            &mut self.fault_stalls,
            self.faults,
        );
        if let Some(sz) = &self.shadow {
            // The replay re-publishes the device cells the abandoned
            // iteration touched; forget their shadow history (the evicted
            // set and finding counts survive).
            sz.device_reset();
        }
        match cause {
            Rollback::DeviceLost(_) => {
                self.recovery.recoveries += 1;
                self.recovery.replayed_iterations += 1;
            }
            Rollback::CorruptPage(_) => self.recovery.integrity_restores += 1,
        }
        self.stamp_resting();
        let unset = self.done.unset_indices();
        self.pending = unset.into_iter().map(|t| t as u32).collect();
        Ok(())
    }

    /// Surface the integrity state's first-wins witness — an eviction
    /// transfer that failed verification on every retransmit — before
    /// anything downstream consumes the page.
    fn transfer_verdict(&self, at_iteration: u32) -> Result<(), SepoError> {
        match self.table.integrity().take_failure() {
            Some(fail) => Err(SepoError::CorruptTransfer {
                at_iteration,
                host_id: fail.host_id,
                source: fail.error,
            }),
            None => Ok(()),
        }
    }

    /// Evict and judge: the boundary eviction (`pending_after` tasks remain)
    /// or, with `None`, the run-ending `finalize` — then the transfer,
    /// audit and sanitizer verdicts. `captured` are the page images of
    /// the epoch published at this boundary, if any.
    fn evict(
        &mut self,
        at_iteration: u32,
        pending_after: Option<usize>,
        captured: &[ResidentPage],
    ) -> Result<EvictReport, SepoError> {
        let force = pending_after.is_none();
        let iteration = pending_after.map(|_| at_iteration);
        let table = self.table;
        let used_before = self.audit.as_ref().map(|_| table.heap().stats().used_bytes);
        let report = match &self.shadow {
            Some(sz) => table.evict_boundary(&mut sz.host_charge(), force, self.corrupt, captured),
            None => table.evict_boundary(&mut NoCharge, force, self.corrupt, captured),
        };
        self.transfer_verdict(at_iteration)?;
        if let (Some(a), Some(used_before)) = (self.audit.as_mut(), used_before) {
            let verdict = match pending_after {
                Some(n) => a.check_iteration(table, &self.done, n, used_before, &report),
                None => a.check_final(table, used_before, &report),
            };
            verdict.map_err(|v| SepoError::AuditFailed {
                iteration,
                report: v.to_string(),
            })?;
        }
        match &self.shadow {
            Some(sz) if sz.finding_count() > self.findings_baseline => {
                Err(SepoError::SanitizerFailed {
                    iteration,
                    report: sz.report().to_string(),
                })
            }
            _ => Ok(report),
        }
    }

    /// The iteration boundary: every launch of the iteration has retired
    /// and the device is quiescent.
    fn boundary(&mut self, l: Launched) -> Result<(), SepoError> {
        let iter_no = self.iter_no();
        // Publish the epoch before eviction rearranges residency; the
        // eviction stores the epoch's page images as its host pages.
        let epoch = self.publish(iter_no, false);
        let next_pending: Vec<u32> = self
            .pending
            .iter()
            .copied()
            .filter(|&t| !self.done.get(t as usize))
            .collect();
        let captured = epoch.as_deref().map_or(&[][..], EpochSnapshot::resident);
        let evict = self.evict(iter_no, Some(next_pending.len()), captured)?;
        let kernel = self.table.metrics().snapshot().delta(&l.before);
        let tasks_completed = (self.pending.len() - next_pending.len()) as u64;
        // Progress check: an iteration may complete no whole task yet
        // still advance (multi-pair tasks storing a prefix of their
        // pairs); what must never happen is an iteration in which not a
        // single allocation succeeded — that configuration can never
        // terminate. Exception: injected lane aborts legitimately
        // produce empty iterations, which are retried up to
        // `MAX_FAULT_RETRIES` consecutive times.
        if tasks_completed > 0 || kernel.alloc_success > 0 || next_pending.is_empty() {
            self.fault_stalls = 0;
        } else if l.lanes_aborted > 0 {
            self.fault_stalls += 1;
            if self.fault_stalls > MAX_FAULT_RETRIES {
                return Err(SepoError::FaultBudgetExhausted {
                    iteration: iter_no,
                    pending: next_pending.len() as u64,
                    stalled_iterations: self.fault_stalls,
                });
            }
        } else {
            return Err(SepoError::NoProgress {
                iteration: iter_no,
                pending: next_pending.len() as u64,
            });
        }
        self.iterations.push(IterationStats {
            iteration: iter_no,
            tasks_attempted: l.attempted,
            tasks_completed,
            input_bytes: l.input_bytes,
            chunks: l.chunks,
            kernel,
            evict,
            halted_early: l.halted_early,
        });
        self.pending = next_pending;
        self.take_checkpoint()?;
        self.stamp_resting();
        Ok(())
    }

    /// Host compaction: when host pages arrived in more than one batch —
    /// the pages the run began with, each surviving boundary that evicted,
    /// the final flush — replace them with one entry per key, then audit
    /// the result. One batch holds each key once, so a run that evicts
    /// once never folds. A damaged page the fold meets fails the run with
    /// its host id.
    fn compact(
        &self,
        at_iteration: u32,
        final_evict: &EvictReport,
    ) -> Result<Option<CompactReport>, SepoError> {
        let evicted = |e: &EvictReport| usize::from(e.evicted_pages > 0);
        let boundaries: usize = self.iterations.iter().map(|it| evicted(&it.evict)).sum();
        if usize::from(self.inherited_pages) + boundaries + evicted(final_evict) < 2 {
            return Ok(None);
        }
        let report = self
            .table
            .compact_host()
            .map_err(|corrupt| SepoError::CorruptPage {
                at_iteration,
                host_id: corrupt.host_id,
                recoveries: self.recovery.integrity_restores,
            })?;
        if let (Some(a), Some(_)) = (&self.audit, report) {
            a.check_compacted(self.table)
                .map_err(|v| SepoError::AuditFailed {
                    iteration: None,
                    report: v.to_string(),
                })?;
        }
        Ok(report)
    }

    /// Final flush, host compaction, end-of-run scrub and the finalized
    /// epoch.
    fn finish(mut self) -> Result<SepoOutcome, SepoError> {
        let at_iteration = self.iter_no();
        let final_evict = self.evict(at_iteration, None, &[])?;
        // The shared host index takes the final flush before compaction
        // replaces those pages; the finalized epoch reads that index.
        if let Some(publisher) = &self.config.serving {
            publisher.absorb_final_flush(self.table);
        }
        let compaction = self.compact(at_iteration, &final_evict)?;
        // End-of-run scrub — the one place a run re-checks stamps: every
        // page now lives in the host store; walk them all and re-verify the
        // CRC32C stamp each carried out of the device. Always on under
        // seeded corruption, opt-in otherwise.
        if self.corrupt.is_some() || self.config.scrub {
            for page in self.table.host_heap().pages() {
                if let Err(corrupt) = page.verify() {
                    return Err(SepoError::CorruptPage {
                        at_iteration,
                        host_id: corrupt.host_id,
                        recoveries: self.recovery.integrity_restores,
                    });
                }
                self.table.integrity().note_verified();
                self.recovery.scrubbed_pages += 1;
            }
        }
        self.recovery.retransmits =
            self.table.integrity().retransmits() - self.retransmits_baseline;
        self.recovery.checkpoint_bytes =
            self.checkpoint.as_ref().map_or(0, Checkpoint::encoded_size);
        // Everything is on the host now, so the finalized epoch's reads
        // resolve entirely through the incremental index.
        self.publish(at_iteration, true);
        let outcome = SepoOutcome {
            iterations: std::mem::take(&mut self.iterations),
            total_tasks: self.done.len() as u64,
            final_evict,
            pending_tasks: self.pending.len() as u64,
            recovery: self.recovery,
            evict_overlap: self.config.evict_overlap,
            compaction,
        };
        if outcome.pending_tasks > 0 {
            return Err(SepoError::IterationCapExceeded {
                outcome: Box::new(outcome),
            });
        }
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::CheckpointFile;
    use crate::config::{Combiner, Organization, TableConfig};
    use crate::table::InsertStatus;
    use gpu_sim::executor::ExecMode;
    use gpu_sim::metrics::Metrics;
    use std::collections::HashMap;
    use std::sync::Arc;

    fn exec(metrics: &Arc<Metrics>) -> Executor {
        Executor::new(ExecMode::ParallelDeterministic, Arc::clone(metrics))
            .with_shadow(Arc::new(gpu_sim::ShadowSanitizer::new()))
    }

    /// Every driver test runs with the cross-layer audit *and* the shadow
    /// sanitizer on: a run that completes has zero sanitizer findings (the
    /// driver panics at the first boundary with findings).
    fn audited() -> DriverConfig {
        DriverConfig {
            audit: true,
            sanitize: true,
            ..DriverConfig::default()
        }
    }

    fn small_table(org: Organization, pages: usize) -> SepoTable {
        let cfg = TableConfig::new(org)
            .with_buckets(128)
            .with_buckets_per_group(32)
            .with_page_size(1024);
        SepoTable::new(cfg, (pages * 1024) as u64, Arc::new(Metrics::new()))
    }

    #[test]
    fn single_iteration_when_everything_fits() {
        let t = small_table(Organization::Combining(Combiner::Add), 64);
        let e = exec(t.metrics());
        let keys: Vec<String> = (0..100).map(|i| format!("key-{i}")).collect();
        let outcome = SepoDriver::new(&t, &e).with_config(audited()).run(
            keys.len(),
            |_| 16,
            |task, _start, lane| match t.insert_combining(keys[task].as_bytes(), 1, lane) {
                crate::table::InsertStatus::Success => TaskResult::Done,
                crate::table::InsertStatus::Postponed => TaskResult::Postponed { next_pair: 0 },
            },
        );
        assert_eq!(outcome.n_iterations(), 1);
        assert_eq!(outcome.total_tasks, 100);
        assert_eq!(t.collect_combining().len(), 100);
    }

    #[test]
    fn multiple_iterations_with_tiny_heap() {
        let t = small_table(Organization::Combining(Combiner::Add), 4);
        let e = exec(t.metrics());
        let keys: Vec<String> = (0..400).map(|i| format!("key-{i:05}")).collect();
        let outcome = SepoDriver::new(&t, &e).with_config(audited()).run(
            keys.len(),
            |_| 16,
            |task, _start, lane| match t.insert_combining(keys[task].as_bytes(), 1, lane) {
                crate::table::InsertStatus::Success => TaskResult::Done,
                crate::table::InsertStatus::Postponed => TaskResult::Postponed { next_pair: 0 },
            },
        );
        assert!(
            outcome.n_iterations() > 1,
            "4 KiB heap cannot fit 400 keys in one pass"
        );
        // Every key stored exactly once with count 1.
        let got: HashMap<Vec<u8>, u64> = t.collect_combining().into_iter().collect();
        assert_eq!(got.len(), 400);
        assert!(got.values().all(|&v| v == 1));
        // Later iterations attempted strictly fewer tasks.
        let attempts: Vec<u64> = outcome
            .iterations
            .iter()
            .map(|i| i.tasks_attempted)
            .collect();
        for w in attempts.windows(2) {
            assert!(w[1] < w[0]);
        }
        // Evictions moved bytes every iteration.
        assert!(outcome.total_evicted_bytes() > 0);
        assert!(outcome.total_input_bytes() >= 400 * 16);
    }

    #[test]
    fn duplicates_combine_across_postponements_exactly_once() {
        // Records: 10 copies of each of 120 keys, interleaved. Even with
        // forced iterations, each key's final count must be exactly 10.
        let t = small_table(Organization::Combining(Combiner::Add), 4);
        let e = exec(t.metrics());
        let records: Vec<String> = (0..1200).map(|i| format!("key-{:04}", i % 120)).collect();
        SepoDriver::new(&t, &e).with_config(audited()).run(
            records.len(),
            |_| 16,
            |task, _start, lane| match t.insert_combining(records[task].as_bytes(), 1, lane) {
                crate::table::InsertStatus::Success => TaskResult::Done,
                crate::table::InsertStatus::Postponed => TaskResult::Postponed { next_pair: 0 },
            },
        );
        let got: HashMap<Vec<u8>, u64> = t.collect_combining().into_iter().collect();
        assert_eq!(got.len(), 120);
        for (k, v) in got {
            assert_eq!(v, 10, "bad count for {}", String::from_utf8_lossy(&k));
        }
    }

    #[test]
    fn basic_method_halts_at_threshold() {
        let t = small_table(Organization::Basic, 4);
        let e = exec(t.metrics());
        let outcome = SepoDriver::new(&t, &e)
            .with_config(DriverConfig {
                chunk_tasks: 32,
                max_iterations: 1000,
                audit: true,
                sanitize: true,
                ..DriverConfig::default()
            })
            .run(
                600,
                |_| 32,
                |task, _start, lane| {
                    let key = format!("key-{task:05}");
                    match t.insert_basic(key.as_bytes(), b"value-payload", lane) {
                        crate::table::InsertStatus::Success => TaskResult::Done,
                        crate::table::InsertStatus::Postponed => {
                            TaskResult::Postponed { next_pair: 0 }
                        }
                    }
                },
            );
        assert!(outcome.n_iterations() > 1);
        assert!(
            outcome.iterations[..outcome.iterations.len() - 1]
                .iter()
                .any(|i| i.halted_early),
            "the basic method must halt early at the 50% threshold"
        );
        assert_eq!(t.collect_basic().len(), 600);
    }

    #[test]
    fn multi_pair_tasks_resume_at_saved_progress() {
        // Each task inserts 5 pairs; with a tiny heap, tasks postpone
        // mid-way and must not re-insert earlier pairs.
        let t = small_table(Organization::Combining(Combiner::Add), 4);
        let e = exec(t.metrics());
        let n_tasks = 120usize;
        SepoDriver::new(&t, &e).with_config(audited()).run(
            n_tasks,
            |_| 80,
            |task, start, lane| {
                for pair in start..5 {
                    let key = format!("task{task:04}-pair{pair}");
                    match t.insert_combining(key.as_bytes(), 1, lane) {
                        crate::table::InsertStatus::Success => {}
                        crate::table::InsertStatus::Postponed => {
                            return TaskResult::Postponed { next_pair: pair };
                        }
                    }
                }
                TaskResult::Done
            },
        );
        let got: HashMap<Vec<u8>, u64> = t.collect_combining().into_iter().collect();
        assert_eq!(got.len(), n_tasks * 5);
        assert!(
            got.values().all(|&v| v == 1),
            "a pair was inserted more than once: progress tracking broken"
        );
    }

    #[test]
    fn multivalued_driver_run_groups_everything() {
        let t = small_table(Organization::MultiValued, 6);
        let e = exec(t.metrics());
        // 30 keys x 8 values, far exceeding 6 KiB.
        let records: Vec<(String, String)> = (0..240)
            .map(|i| (format!("key-{:02}", i % 30), format!("value-{i:04}-pad")))
            .collect();
        let outcome = SepoDriver::new(&t, &e).with_config(audited()).run(
            records.len(),
            |_| 24,
            |task, _start, lane| {
                let (k, v) = &records[task];
                match t.insert_multivalued(k.as_bytes(), v.as_bytes(), lane) {
                    crate::table::InsertStatus::Success => TaskResult::Done,
                    crate::table::InsertStatus::Postponed => TaskResult::Postponed { next_pair: 0 },
                }
            },
        );
        assert!(outcome.n_iterations() >= 1);
        let got = t.collect_multivalued();
        assert_eq!(got.len(), 30, "one group per distinct key");
        let total: usize = got.iter().map(|(_, vs)| vs.len()).sum();
        assert_eq!(total, 240, "every value grouped exactly once");
    }

    /// Split a run's kernel-call log into its launches. Iteration `i` made
    /// `tasks_attempted` calls in launches of `chunk` tasks, and each logged
    /// call says whether its task stored a pair. Returns, per iteration,
    /// whether each launch stored anything.
    fn stored_per_launch(outcome: &SepoOutcome, log: &[bool], chunk: usize) -> Vec<Vec<bool>> {
        let mut calls = log.iter().copied();
        let launches: Vec<Vec<bool>> = outcome
            .iterations
            .iter()
            .map(|it| {
                let calls: Vec<bool> = calls.by_ref().take(it.tasks_attempted as usize).collect();
                let stored: Vec<bool> = calls.chunks(chunk).map(|c| c.contains(&true)).collect();
                assert_eq!(
                    stored.len(),
                    it.chunks as usize,
                    "iteration {}",
                    it.iteration
                );
                stored
            })
            .collect();
        assert_eq!(
            calls.next(),
            None,
            "every logged call belongs to an iteration"
        );
        launches
    }

    /// Tasks pending when each iteration opened.
    fn pending_at_open(outcome: &SepoOutcome) -> Vec<u64> {
        let mut pending = outcome.total_tasks;
        outcome
            .iterations
            .iter()
            .map(|it| {
                let open = pending;
                pending -= it.tasks_completed;
                open
            })
            .collect()
    }

    #[test]
    fn multivalued_iteration_ends_at_the_first_launch_that_stores_nothing() {
        const CHUNK: usize = 16;
        const PAIRS: u32 = 3;
        let t = small_table(Organization::MultiValued, 6);
        let e = exec(t.metrics());
        let pair = |task: usize, p: u32| {
            let key = format!("key-{:02}", (task * 7 + p as usize) % 30);
            (key, format!("value-{task:04}-{p}-pad"))
        };
        let n_tasks = 200;
        let log = parking_lot::Mutex::new(Vec::new());
        let outcome = SepoDriver::new(&t, &e)
            .with_config(DriverConfig {
                chunk_tasks: CHUNK,
                ..audited()
            })
            .run(
                n_tasks,
                |_| 64,
                |task, start, lane| {
                    let mut result = TaskResult::Done;
                    for p in start..PAIRS {
                        let (k, v) = pair(task, p);
                        match t.insert_multivalued(k.as_bytes(), v.as_bytes(), lane) {
                            crate::table::InsertStatus::Success => {}
                            crate::table::InsertStatus::Postponed => {
                                result = TaskResult::Postponed { next_pair: p };
                                break;
                            }
                        }
                    }
                    log.lock()
                        .push(result != TaskResult::Postponed { next_pair: start });
                    result
                },
            );

        // The result is the reference grouping.
        let mut reference: HashMap<Vec<u8>, Vec<Vec<u8>>> = HashMap::new();
        for task in 0..n_tasks {
            for p in 0..PAIRS {
                let (k, v) = pair(task, p);
                reference
                    .entry(k.into_bytes())
                    .or_default()
                    .push(v.into_bytes());
            }
        }
        let mut got: HashMap<Vec<u8>, Vec<Vec<u8>>> = t.collect_multivalued().into_iter().collect();
        for values in got.values_mut().chain(reference.values_mut()) {
            values.sort();
        }
        assert_eq!(got, reference);

        // Every launch but an iteration's last stored something; the last
        // stored nothing exactly when the iteration halted early, and then
        // the rest of the pending set was left unattempted.
        let launches = stored_per_launch(&outcome, &log.lock(), CHUNK);
        let pending = pending_at_open(&outcome);
        for ((it, stored), &open) in outcome.iterations.iter().zip(&launches).zip(&pending) {
            let (last, earlier) = stored.split_last().expect("an iteration launches");
            assert!(
                earlier.iter().all(|&s| s),
                "iteration {} launched after a launch that stored nothing",
                it.iteration
            );
            assert_eq!(it.halted_early, !last, "iteration {}", it.iteration);
            if !it.halted_early {
                assert_eq!(it.tasks_attempted, open, "iteration {}", it.iteration);
            }
        }
        assert!(
            outcome
                .iterations
                .iter()
                .zip(&pending)
                .any(|(it, &open)| it.halted_early && it.tasks_attempted < open),
            "the tight heap must end some iteration before its pending set"
        );
    }

    #[test]
    fn combining_dna_attempts_every_pending_task_each_iteration() {
        // Reads of a small genome at 24x coverage: every launch meets k-mers
        // already resident and combines them in place, so the stored-nothing
        // rule never ends an iteration even when the heap is tight.
        const K: usize = 12;
        const READ: usize = 40;
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        let genome: Vec<u8> = (0..400).map(|_| b"ACGT"[next() % 4]).collect();
        let reads: Vec<&[u8]> = (0..240)
            .map(|_| {
                let at = next() % (genome.len() - READ);
                &genome[at..at + READ]
            })
            .collect();
        let t = small_table(Organization::Combining(Combiner::Or), 4);
        let e = exec(t.metrics());
        let outcome = SepoDriver::new(&t, &e)
            .with_config(DriverConfig {
                chunk_tasks: 32,
                ..audited()
            })
            .run(
                reads.len(),
                |t| reads[t].len() as u64,
                |task, start, lane| {
                    let read = reads[task];
                    for i in start as usize..=READ - K {
                        let bit = 1u64 << (i % 64);
                        match t.insert_combining(&read[i..i + K], bit, lane) {
                            crate::table::InsertStatus::Success => {}
                            crate::table::InsertStatus::Postponed => {
                                return TaskResult::Postponed {
                                    next_pair: i as u32,
                                };
                            }
                        }
                    }
                    TaskResult::Done
                },
            );
        assert!(outcome.n_iterations() > 1, "the heap must be tight");
        for (it, open) in outcome.iterations.iter().zip(pending_at_open(&outcome)) {
            assert!(!it.halted_early, "iteration {}", it.iteration);
            assert_eq!(it.tasks_attempted, open, "iteration {}", it.iteration);
        }
        let mut reference: HashMap<Vec<u8>, u64> = HashMap::new();
        for read in &reads {
            for i in 0..=READ - K {
                *reference.entry(read[i..i + K].to_vec()).or_default() |= 1u64 << (i % 64);
            }
        }
        let got: HashMap<Vec<u8>, u64> = t.collect_combining().into_iter().collect();
        assert_eq!(got, reference);
    }

    /// Heap of one page, entries bigger than the page: no progress ever.
    fn impossible_table() -> SepoTable {
        let cfg = TableConfig::new(Organization::Basic)
            .with_buckets(4)
            .with_buckets_per_group(4)
            .with_page_size(64);
        SepoTable::new(cfg, 64, Arc::new(Metrics::new()))
    }

    fn oversized_insert(
        t: &SepoTable,
    ) -> impl Fn(usize, u32, &mut LaneCtx<'_>) -> TaskResult + Sync + '_ {
        |_task, _start, lane| {
            let big = [7u8; 128];
            match t.insert_basic(b"key", &big, lane) {
                crate::table::InsertStatus::Success => TaskResult::Done,
                crate::table::InsertStatus::Postponed => TaskResult::Postponed { next_pair: 0 },
            }
        }
    }

    #[test]
    fn impossible_configuration_reports_no_progress() {
        let t = impossible_table();
        let e = exec(t.metrics());
        let err = SepoDriver::new(&t, &e)
            .with_config(audited())
            .try_run(4, |_| 8, oversized_insert(&t))
            .unwrap_err();
        match err {
            SepoError::NoProgress { iteration, pending } => {
                assert_eq!(iteration, 1);
                assert_eq!(pending, 4);
            }
            other => panic!("expected NoProgress, got {other}"),
        }
    }

    #[test]
    #[should_panic(expected = "cannot hold a single new entry")]
    fn impossible_configuration_aborts() {
        // The panicking wrapper preserves the historical abort behaviour.
        let t = impossible_table();
        let e = exec(t.metrics());
        SepoDriver::new(&t, &e).run(4, |_| 8, oversized_insert(&t));
    }

    /// A kernel that plain-writes one bucket head from every warp breaks
    /// the publish discipline; the verdict step turns the findings into a
    /// typed error naming the boundary and carrying the rendered report.
    #[test]
    fn sanitizer_findings_are_a_typed_error_naming_the_boundary() {
        use gpu_sim::shadow::{AccessKind, ShadowAddr};
        let t = small_table(Organization::Combining(Combiner::Add), 4);
        let e = exec(t.metrics());
        let err = SepoDriver::new(&t, &e)
            .with_config(audited())
            .try_run(
                64,
                |_| 8,
                |_task, _start, lane| {
                    lane.access(ShadowAddr::BucketHead(0), AccessKind::PlainWrite);
                    TaskResult::Done
                },
            )
            .unwrap_err();
        let SepoError::SanitizerFailed { iteration, report } = &err else {
            panic!("expected SanitizerFailed, got {err}");
        };
        assert_eq!(*iteration, Some(1));
        assert!(report.contains("bucket"), "witness missing from: {report}");
        assert!(err
            .to_string()
            .starts_with("SEPO sanitizer failed at iteration 1: "));
    }

    /// A kernel that evicts behind the driver's back leaves the host heap
    /// holding pages the audit never saw evicted; the boundary's verdict is
    /// a typed error, and `run` still panics with the same text.
    #[test]
    fn audit_violations_are_a_typed_error_and_run_still_panics_with_the_text() {
        fn rogue(t: &SepoTable) -> impl Fn(usize, u32, &mut LaneCtx<'_>) -> TaskResult + Sync + '_ {
            |task, _start, lane| {
                t.insert_combining(format!("key-{task}").as_bytes(), 1, lane);
                if task == 7 {
                    t.end_iteration();
                }
                TaskResult::Done
            }
        }
        let config = DriverConfig {
            audit: true,
            ..DriverConfig::default()
        };
        let t = small_table(Organization::Combining(Combiner::Add), 64);
        let e = exec(t.metrics());
        let err = SepoDriver::new(&t, &e)
            .with_config(config.clone())
            .try_run(8, |_| 8, rogue(&t))
            .unwrap_err();
        let SepoError::AuditFailed { iteration, report } = &err else {
            panic!("expected AuditFailed, got {err}");
        };
        assert_eq!(*iteration, Some(1));
        assert!(report.contains("invariant '"), "unrendered: {report}");
        let message = err.to_string();
        assert!(message.starts_with("SEPO audit failed at iteration 1: invariant '"));

        let t = small_table(Organization::Combining(Combiner::Add), 64);
        let e = exec(t.metrics());
        let driver = SepoDriver::new(&t, &e).with_config(config);
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            driver.run(8, |_| 8, rogue(&t));
        }))
        .unwrap_err();
        assert_eq!(panic.downcast_ref::<String>(), Some(&message));
    }

    #[test]
    fn iteration_cap_is_a_typed_error_with_the_partial_outcome() {
        let t = small_table(Organization::Combining(Combiner::Add), 4);
        let e = exec(t.metrics());
        let keys: Vec<String> = (0..400).map(|i| format!("key-{i:05}")).collect();
        let insert = |task: usize, _start: u32, lane: &mut LaneCtx<'_>| match t.insert_combining(
            keys[task].as_bytes(),
            1,
            lane,
        ) {
            crate::table::InsertStatus::Success => TaskResult::Done,
            crate::table::InsertStatus::Postponed => TaskResult::Postponed { next_pair: 0 },
        };
        let err = SepoDriver::new(&t, &e)
            .with_config(DriverConfig {
                max_iterations: 1,
                audit: true,
                sanitize: true,
                ..DriverConfig::default()
            })
            .try_run(keys.len(), |_| 16, insert)
            .unwrap_err();
        let SepoError::IterationCapExceeded { outcome } = err else {
            panic!("expected IterationCapExceeded");
        };
        assert_eq!(outcome.n_iterations(), 1);
        assert!(outcome.pending_tasks > 0);
        assert!(!outcome.is_complete());
    }

    #[test]
    fn run_unwraps_the_iteration_cap_into_an_incomplete_outcome() {
        // MapCG-style usage: `run` must NOT panic on a capped run.
        let t = small_table(Organization::Combining(Combiner::Add), 4);
        let e = exec(t.metrics());
        let keys: Vec<String> = (0..400).map(|i| format!("key-{i:05}")).collect();
        let outcome = SepoDriver::new(&t, &e)
            .with_config(DriverConfig {
                max_iterations: 1,
                audit: true,
                sanitize: true,
                ..DriverConfig::default()
            })
            .run(
                keys.len(),
                |_| 16,
                |task, _start, lane| match t.insert_combining(keys[task].as_bytes(), 1, lane) {
                    crate::table::InsertStatus::Success => TaskResult::Done,
                    crate::table::InsertStatus::Postponed => TaskResult::Postponed { next_pair: 0 },
                },
            );
        assert_eq!(outcome.n_iterations(), 1);
        assert!(outcome.pending_tasks > 0);
    }

    #[test]
    fn transient_lane_aborts_retry_and_complete_with_exact_counts() {
        use gpu_sim::{FaultConfig, FaultPlan};
        // 10% lane aborts: tasks skipped by a fault stay pending and are
        // retried; every key must still land exactly once.
        let t = small_table(Organization::Combining(Combiner::Add), 64);
        let plan = Arc::new(FaultPlan::new(
            FaultConfig::quiet(0xFA17).rate(FaultKind::LaneAbort, 0.10),
        ));
        let e = Executor::new(ExecMode::ParallelDeterministic, Arc::clone(t.metrics()))
            .with_faults(Arc::clone(&plan))
            .with_shadow(Arc::new(gpu_sim::ShadowSanitizer::new()));
        let keys: Vec<String> = (0..300).map(|i| format!("key-{i:05}")).collect();
        let outcome = SepoDriver::new(&t, &e)
            .with_config(audited())
            .try_run(
                keys.len(),
                |_| 16,
                |task, _start, lane| match t.insert_combining(keys[task].as_bytes(), 1, lane) {
                    crate::table::InsertStatus::Success => TaskResult::Done,
                    crate::table::InsertStatus::Postponed => TaskResult::Postponed { next_pair: 0 },
                },
            )
            .unwrap();
        assert!(outcome.is_complete());
        assert!(
            outcome.n_iterations() > 1,
            "aborted lanes must force extra iterations"
        );
        assert!(plan.total_injected() > 0);
        let got: HashMap<Vec<u8>, u64> = t.collect_combining().into_iter().collect();
        assert_eq!(got.len(), 300);
        assert!(got.values().all(|&v| v == 1), "no key may double-count");
    }

    #[test]
    fn certain_lane_aborts_exhaust_the_fault_budget() {
        use gpu_sim::{FaultConfig, FaultPlan};
        let t = small_table(Organization::Combining(Combiner::Add), 64);
        let plan = Arc::new(FaultPlan::new(
            FaultConfig::quiet(1).rate(FaultKind::LaneAbort, 1.0),
        ));
        let e = Executor::new(ExecMode::ParallelDeterministic, Arc::clone(t.metrics()))
            .with_faults(plan)
            .with_shadow(Arc::new(gpu_sim::ShadowSanitizer::new()));
        let err = SepoDriver::new(&t, &e)
            .with_config(DriverConfig {
                audit: true,
                sanitize: true,
                ..DriverConfig::default()
            })
            .try_run(
                50,
                |_| 16,
                |task, _start, lane| {
                    let key = format!("key-{task}");
                    match t.insert_combining(key.as_bytes(), 1, lane) {
                        crate::table::InsertStatus::Success => TaskResult::Done,
                        crate::table::InsertStatus::Postponed => {
                            TaskResult::Postponed { next_pair: 0 }
                        }
                    }
                },
            )
            .unwrap_err();
        let SepoError::FaultBudgetExhausted {
            iteration,
            pending,
            stalled_iterations,
        } = err
        else {
            panic!("expected FaultBudgetExhausted");
        };
        assert_eq!(iteration, 9, "8 retries then the 9th stall gives up");
        assert_eq!(pending, 50, "no task may be lost");
        assert_eq!(stalled_iterations, 9);
    }

    #[test]
    fn a_launch_whose_lanes_all_aborted_does_not_end_the_iteration() {
        use gpu_sim::{FaultConfig, FaultPlan};
        // One task per launch and three lanes in four aborted: most
        // launches run nothing. Each must be passed over, not read as a
        // spent heap. Ending the iteration there would turn aborts into
        // stalled iterations and, nine in a row, into
        // `FaultBudgetExhausted`.
        let t = small_table(Organization::Combining(Combiner::Add), 64);
        let plan = Arc::new(FaultPlan::new(
            FaultConfig::quiet(0xAB07).rate(FaultKind::LaneAbort, 0.75),
        ));
        let e = Executor::new(ExecMode::ParallelDeterministic, Arc::clone(t.metrics()))
            .with_faults(Arc::clone(&plan))
            .with_shadow(Arc::new(gpu_sim::ShadowSanitizer::new()));
        let keys: Vec<String> = (0..40).map(|i| format!("key-{i:03}")).collect();
        let outcome = SepoDriver::new(&t, &e)
            .with_config(DriverConfig {
                chunk_tasks: 1,
                ..audited()
            })
            .try_run(
                keys.len(),
                |_| 16,
                |task, _start, lane| match t.insert_combining(keys[task].as_bytes(), 1, lane) {
                    crate::table::InsertStatus::Success => TaskResult::Done,
                    crate::table::InsertStatus::Postponed => TaskResult::Postponed { next_pair: 0 },
                },
            )
            .unwrap();
        assert!(outcome.is_complete());
        assert!(plan.injected(FaultKind::LaneAbort) > 0);
        for (it, open) in outcome.iterations.iter().zip(pending_at_open(&outcome)) {
            assert!(!it.halted_early, "iteration {}", it.iteration);
            assert_eq!(it.tasks_attempted, open, "iteration {}", it.iteration);
        }
        let got: HashMap<Vec<u8>, u64> = t.collect_combining().into_iter().collect();
        assert_eq!(got.len(), keys.len());
        assert!(got.values().all(|&v| v == 1));
    }

    fn hard_plan(device_loss_rate: f64, poisoned_launch_rate: f64, seed: u64) -> Arc<FaultPlan> {
        let config = gpu_sim::FaultConfig::quiet(seed)
            .rate(FaultKind::DeviceLost, device_loss_rate)
            .rate(FaultKind::PoisonedLaunch, poisoned_launch_rate);
        Arc::new(FaultPlan::new(config))
    }

    #[test]
    fn device_lost_without_checkpointing_is_fatal_and_source_chained() {
        let t = small_table(Organization::Combining(Combiner::Add), 64);
        let e = Executor::new(ExecMode::ParallelDeterministic, Arc::clone(t.metrics()))
            .with_faults(hard_plan(1.0, 0.0, 3))
            .with_shadow(Arc::new(gpu_sim::ShadowSanitizer::new()));
        let err = SepoDriver::new(&t, &e)
            .with_config(audited())
            .try_run(
                50,
                |_| 16,
                |task, _start, lane| {
                    let key = format!("key-{task}");
                    match t.insert_combining(key.as_bytes(), 1, lane) {
                        crate::table::InsertStatus::Success => TaskResult::Done,
                        crate::table::InsertStatus::Postponed => {
                            TaskResult::Postponed { next_pair: 0 }
                        }
                    }
                },
            )
            .unwrap_err();
        let SepoError::DeviceLost {
            at_iteration,
            pending,
            recoveries,
            ..
        } = &err
        else {
            panic!("expected DeviceLost, got {err}");
        };
        assert_eq!(*at_iteration, 1);
        assert_eq!(*pending, 50, "no task may be lost");
        assert_eq!(*recoveries, 0);
        assert!(err.to_string().contains("iteration 1"));
        let source = std::error::Error::source(&err).expect("DeviceLost chains its hard fault");
        assert!(
            source.to_string().contains("hard-fault draw"),
            "unexpected source: {source}"
        );
    }

    #[test]
    fn certain_hard_faults_exhaust_the_recovery_budget() {
        let t = small_table(Organization::Combining(Combiner::Add), 64);
        let e = Executor::new(ExecMode::ParallelDeterministic, Arc::clone(t.metrics()))
            .with_faults(hard_plan(1.0, 0.0, 4))
            .with_shadow(Arc::new(gpu_sim::ShadowSanitizer::new()));
        let err = SepoDriver::new(&t, &e)
            .with_config(DriverConfig {
                checkpoint: CheckpointPolicy::Memory,
                max_recoveries: 3,
                audit: true,
                sanitize: true,
                ..DriverConfig::default()
            })
            .try_run(
                50,
                |_| 16,
                |task, _start, lane| {
                    let key = format!("key-{task}");
                    match t.insert_combining(key.as_bytes(), 1, lane) {
                        crate::table::InsertStatus::Success => TaskResult::Done,
                        crate::table::InsertStatus::Postponed => {
                            TaskResult::Postponed { next_pair: 0 }
                        }
                    }
                },
            )
            .unwrap_err();
        let SepoError::DeviceLost { recoveries, .. } = err else {
            panic!("expected DeviceLost");
        };
        assert_eq!(recoveries, 3, "all three recoveries used before giving up");
    }

    #[test]
    fn checkpoint_io_failures_are_typed_and_source_chained() {
        let t = small_table(Organization::Combining(Combiner::Add), 64);
        let e = exec(t.metrics());
        let err = SepoDriver::new(&t, &e)
            .with_config(DriverConfig {
                checkpoint: CheckpointPolicy::Disk(
                    Arc::new(CheckpointFile::new(
                        "/nonexistent-sepo-dir/run.ckp".into(),
                        1,
                    )),
                    0,
                ),
                audit: true,
                sanitize: true,
                ..DriverConfig::default()
            })
            .try_run(
                10,
                |_| 16,
                |task, _start, lane| {
                    let key = format!("key-{task}");
                    match t.insert_combining(key.as_bytes(), 1, lane) {
                        crate::table::InsertStatus::Success => TaskResult::Done,
                        crate::table::InsertStatus::Postponed => {
                            TaskResult::Postponed { next_pair: 0 }
                        }
                    }
                },
            )
            .unwrap_err();
        let SepoError::CheckpointIo { at_iteration, .. } = &err else {
            panic!("expected CheckpointIo, got {err}");
        };
        assert_eq!(*at_iteration, 0, "the pre-run baseline checkpoint fails");
        assert!(std::error::Error::source(&err).is_some());
    }

    /// Run the 400-key combining workload with the given config and return
    /// (outcome, final table image, metrics snapshot).
    fn overlap_fixture(config: DriverConfig) -> (SepoOutcome, Vec<u8>, Snapshot) {
        let t = small_table(Organization::Combining(Combiner::Add), 4);
        let e = exec(t.metrics());
        let keys: Vec<String> = (0..400).map(|i| format!("key-{i:05}")).collect();
        let outcome = SepoDriver::new(&t, &e)
            .with_config(config)
            .try_run(
                keys.len(),
                |_| 16,
                |task, _start, lane| match t.insert_combining(keys[task].as_bytes(), 1, lane) {
                    crate::table::InsertStatus::Success => TaskResult::Done,
                    crate::table::InsertStatus::Postponed => TaskResult::Postponed { next_pair: 0 },
                },
            )
            .unwrap();
        let mut img = Vec::new();
        t.save(&mut img).unwrap();
        (outcome, img, t.metrics().snapshot())
    }

    /// `evict_overlap` is a pricing assumption, not a second eviction path:
    /// the run — trajectory, final flush, image, metrics, recovery
    /// accounting — is the same with it on or off, and only the outcome's
    /// copy of the bit differs.
    #[test]
    fn evict_overlap_prices_but_does_not_change_the_run() {
        let checkpointed = DriverConfig {
            checkpoint: CheckpointPolicy::Memory,
            ..audited()
        };
        let (sync, sync_img, sync_metrics) = overlap_fixture(checkpointed.clone());
        let (priced, priced_img, priced_metrics) = overlap_fixture(DriverConfig {
            evict_overlap: true,
            ..checkpointed
        });
        assert!(sync.n_iterations() > 1, "the fixture must force evictions");
        assert!(sync.recovery.checkpoints_taken > 1);
        assert!(!sync.evict_overlap);
        assert!(priced.evict_overlap);
        assert_eq!(sync.iterations, priced.iterations);
        assert_eq!(sync.final_evict, priced.final_evict);
        assert_eq!(sync_img, priced_img, "result images must be byte-identical");
        assert_eq!(sync_metrics, priced_metrics);
        assert_eq!(sync.recovery, priced.recovery);
    }

    #[test]
    fn serving_on_matches_serving_off_byte_for_byte() {
        let (off, off_img, off_metrics) = overlap_fixture(audited());
        // The serving run actually issues queries at every epoch, through
        // a serving executor with its own metrics.
        let publisher = Arc::new(crate::serve::EpochPublisher::default());
        let serve_exec = Arc::new(Executor::new(
            ExecMode::ParallelDeterministic,
            Arc::new(Metrics::new()),
        ));
        {
            let serve_exec = Arc::clone(&serve_exec);
            let keys: Vec<Vec<u8>> = (0..400)
                .map(|i| format!("key-{i:05}").into_bytes())
                .collect();
            publisher.on_epoch(move |snap| {
                let q: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
                snap.batch_get(&serve_exec, &q).expect("epoch batch");
            });
        }
        let (on, on_img, on_metrics) = overlap_fixture(DriverConfig {
            serving: Some(Arc::clone(&publisher)),
            ..audited()
        });
        assert!(off.n_iterations() > 1, "the fixture must force evictions");
        assert!(
            publisher.current().is_some_and(|s| s.finalized()),
            "a finalized epoch must be published"
        );
        assert_eq!(
            off.iterations, on.iterations,
            "serving must not change the iteration trajectory"
        );
        assert_eq!(off.final_evict, on.final_evict);
        assert_eq!(off_img, on_img, "result images must be byte-identical");
        assert_eq!(
            off_metrics, on_metrics,
            "serving charges its own executor's metrics, never the driver's"
        );
    }

    #[test]
    fn killed_and_resumed_serving_reads_are_consistent() {
        // DeviceLost kill + checkpoint resume mid-serving: every epoch the
        // chaos run publishes must carry the same iteration number and the
        // same snapshot answers as the unkilled run — a reader pinned to
        // any epoch never observes a partially applied (or replayed)
        // iteration.
        type EpochReads = Vec<(u32, Vec<Option<u64>>)>;
        fn run(with_faults: bool) -> (EpochReads, Vec<u8>) {
            let t = small_table(Organization::Combining(Combiner::Add), 4);
            let mut e = Executor::new(ExecMode::ParallelDeterministic, Arc::clone(t.metrics()))
                .with_shadow(Arc::new(gpu_sim::ShadowSanitizer::new()));
            if with_faults {
                e = e.with_faults(hard_plan(0.15, 0.05, 0xC0FFEE));
            }
            let publisher = Arc::new(crate::serve::EpochPublisher::default());
            let reads: Arc<parking_lot::Mutex<EpochReads>> = Arc::default();
            {
                let serve_exec =
                    Executor::new(ExecMode::ParallelDeterministic, Arc::new(Metrics::new()));
                let reads = Arc::clone(&reads);
                let keys: Vec<Vec<u8>> = (0..400)
                    .step_by(7)
                    .map(|i| format!("key-{i:05}").into_bytes())
                    .collect();
                publisher.on_epoch(move |snap| {
                    let q: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
                    let ans = snap.batch_get(&serve_exec, &q).expect("epoch batch");
                    reads.lock().push((snap.iteration(), ans));
                });
            }
            let keys: Vec<String> = (0..400).map(|i| format!("key-{i:05}")).collect();
            SepoDriver::new(&t, &e)
                .with_config(DriverConfig {
                    chunk_tasks: 64,
                    audit: true,
                    sanitize: true,
                    checkpoint: CheckpointPolicy::Memory,
                    max_recoveries: 10_000,
                    serving: Some(Arc::clone(&publisher)),
                    ..DriverConfig::default()
                })
                .try_run(
                    keys.len(),
                    |_| 16,
                    |task, _start, lane| match t.insert_combining(keys[task].as_bytes(), 1, lane) {
                        crate::table::InsertStatus::Success => TaskResult::Done,
                        crate::table::InsertStatus::Postponed => {
                            TaskResult::Postponed { next_pair: 0 }
                        }
                    },
                )
                .unwrap();
            let mut img = Vec::new();
            t.save(&mut img).unwrap();
            let reads = std::mem::take(&mut *reads.lock());
            (reads, img)
        }
        let (base_reads, base_img) = run(false);
        let (chaos_reads, chaos_img) = run(true);
        assert_eq!(base_img, chaos_img, "result images must be byte-identical");
        assert_eq!(
            base_reads, chaos_reads,
            "kill+resume must publish the same epochs with the same answers"
        );
        // Killed iterations never publish: epoch numbers are strictly
        // increasing with no repeats.
        for w in chaos_reads.windows(2) {
            assert!(w[1].0 > w[0].0, "epoch {} republished", w[1].0);
        }
    }

    #[test]
    fn killed_and_resumed_runs_match_unkilled_byte_for_byte() {
        fn insert(
            t: &SepoTable,
        ) -> impl Fn(usize, u32, &mut LaneCtx<'_>) -> TaskResult + Sync + '_ {
            move |task, _start, lane| {
                let key = format!("key-{task:05}");
                match t.insert_combining(key.as_bytes(), 1, lane) {
                    crate::table::InsertStatus::Success => TaskResult::Done,
                    crate::table::InsertStatus::Postponed => TaskResult::Postponed { next_pair: 0 },
                }
            }
        }

        // Baseline: no hard faults, no checkpointing.
        let t1 = small_table(Organization::Combining(Combiner::Add), 4);
        let e1 = exec(t1.metrics());
        let base = SepoDriver::new(&t1, &e1)
            .with_config(DriverConfig {
                chunk_tasks: 64,
                audit: true,
                sanitize: true,
                ..DriverConfig::default()
            })
            .try_run(400, |_| 16, insert(&t1))
            .unwrap();

        // Chaos: seeded hard faults kill launches mid-run; checkpoints
        // resume them.
        let t2 = small_table(Organization::Combining(Combiner::Add), 4);
        let e2 = Executor::new(ExecMode::ParallelDeterministic, Arc::clone(t2.metrics()))
            .with_faults(hard_plan(0.15, 0.05, 0xC0FFEE))
            .with_shadow(Arc::new(gpu_sim::ShadowSanitizer::new()));
        let chaos = SepoDriver::new(&t2, &e2)
            .with_config(DriverConfig {
                chunk_tasks: 64,
                audit: true,
                sanitize: true,
                checkpoint: CheckpointPolicy::Memory,
                max_recoveries: 10_000,
                ..DriverConfig::default()
            })
            .try_run(400, |_| 16, insert(&t2))
            .unwrap();

        assert!(
            chaos.recovery.recoveries > 0,
            "the seed must kill at least one launch for this test to bite"
        );
        assert_eq!(
            base.iterations, chaos.iterations,
            "resumed trajectory must be identical to the unkilled one"
        );
        assert_eq!(base.final_evict, chaos.final_evict);
        assert_eq!(
            t1.metrics().snapshot(),
            t2.metrics().snapshot(),
            "metrics must not double-count replayed work"
        );
        let mut img1 = Vec::new();
        let mut img2 = Vec::new();
        t1.save(&mut img1).unwrap();
        t2.save(&mut img2).unwrap();
        assert_eq!(img1, img2, "result images must be byte-identical");
    }

    fn corruption_plan(seed: u64, pcie: f64, resting: f64, disk: f64) -> Arc<FaultPlan> {
        let config = gpu_sim::FaultConfig::quiet(seed)
            .rate(FaultKind::PcieBitFlip, pcie)
            .rate(FaultKind::RestingPageFlip, resting)
            .rate(FaultKind::DiskByteFlip, disk);
        Arc::new(FaultPlan::new(config))
    }

    /// Run the 30-key multivalued grouping workload with `plan` installed
    /// and return (result of try_run, final image on success). Multivalued
    /// keeps pending-key pages resident across boundaries (Basic/Combining
    /// evict everything), so this is the workload where resting flips have
    /// live device bytes to strike.
    fn corrupted_run_mv(
        plan: Option<Arc<FaultPlan>>,
        config: DriverConfig,
    ) -> (Result<SepoOutcome, SepoError>, Vec<u8>) {
        let t = small_table(Organization::MultiValued, 6);
        let mut e = Executor::new(ExecMode::ParallelDeterministic, Arc::clone(t.metrics()))
            .with_shadow(Arc::new(gpu_sim::ShadowSanitizer::new()));
        if let Some(plan) = plan {
            e = e.with_faults(plan);
        }
        let records: Vec<(String, String)> = (0..240)
            .map(|i| (format!("key-{:02}", i % 30), format!("value-{i:04}-pad")))
            .collect();
        let res = SepoDriver::new(&t, &e).with_config(config).try_run(
            records.len(),
            |_| 24,
            |task, _start, lane| {
                let (k, v) = &records[task];
                match t.insert_multivalued(k.as_bytes(), v.as_bytes(), lane) {
                    crate::table::InsertStatus::Success => TaskResult::Done,
                    crate::table::InsertStatus::Postponed => TaskResult::Postponed { next_pair: 0 },
                }
            },
        );
        let mut img = Vec::new();
        if res.is_ok() {
            t.save(&mut img).unwrap();
        }
        (res, img)
    }

    /// Run the 400-key combining workload with `plan` installed and
    /// return (result of try_run, final image on success).
    fn corrupted_run(
        plan: Option<Arc<FaultPlan>>,
        config: DriverConfig,
    ) -> (Result<SepoOutcome, SepoError>, Vec<u8>) {
        let t = small_table(Organization::Combining(Combiner::Add), 4);
        let mut e = Executor::new(ExecMode::ParallelDeterministic, Arc::clone(t.metrics()))
            .with_shadow(Arc::new(gpu_sim::ShadowSanitizer::new()));
        if let Some(plan) = plan {
            e = e.with_faults(plan);
        }
        let keys: Vec<String> = (0..400).map(|i| format!("key-{i:05}")).collect();
        let res = SepoDriver::new(&t, &e).with_config(config).try_run(
            keys.len(),
            |_| 16,
            |task, _start, lane| match t.insert_combining(keys[task].as_bytes(), 1, lane) {
                crate::table::InsertStatus::Success => TaskResult::Done,
                crate::table::InsertStatus::Postponed => TaskResult::Postponed { next_pair: 0 },
            },
        );
        let mut img = Vec::new();
        if res.is_ok() {
            t.save(&mut img).unwrap();
        }
        (res, img)
    }

    #[test]
    fn seeded_corruption_recovers_byte_identical_to_a_clean_run() {
        let (clean, clean_img) = corrupted_run(None, audited());
        let clean = clean.unwrap();
        let plan = corruption_plan(0xC0DE, 0.05, 0.02, 0.0);
        let (dirty, dirty_img) = corrupted_run(
            Some(Arc::clone(&plan)),
            DriverConfig {
                checkpoint: CheckpointPolicy::Memory,
                max_recoveries: 10_000,
                ..audited()
            },
        );
        let dirty = dirty.unwrap();
        assert!(
            plan.total_injected() > 0,
            "the seed must inject at least one flip for this test to bite"
        );
        assert!(
            dirty.recovery.retransmits + u64::from(dirty.recovery.integrity_restores) > 0,
            "at least one injected flip must have needed repair: {:?}",
            dirty.recovery
        );
        assert!(
            dirty.recovery.scrubbed_pages > 0,
            "the end-of-run scrub walks every host page"
        );
        assert_eq!(
            clean.iterations, dirty.iterations,
            "repaired corruption must not change the iteration trajectory"
        );
        assert_eq!(clean.final_evict, dirty.final_evict);
        assert_eq!(clean_img, dirty_img, "result images must be byte-identical");
    }

    #[test]
    fn resting_flips_are_repaired_from_the_boundary_checkpoint() {
        let (clean, clean_img) = corrupted_run_mv(None, audited());
        let clean = clean.unwrap();
        let plan = corruption_plan(3, 0.0, 0.25, 0.0);
        let (dirty, dirty_img) = corrupted_run_mv(
            Some(Arc::clone(&plan)),
            DriverConfig {
                checkpoint: CheckpointPolicy::Memory,
                max_recoveries: 10_000,
                ..audited()
            },
        );
        let dirty = dirty.unwrap();
        assert!(
            plan.injected(FaultKind::RestingPageFlip) > 0,
            "kept multivalued pages must give resting flips a target"
        );
        assert!(dirty.recovery.corruptions_detected > 0);
        assert_eq!(
            u64::from(dirty.recovery.integrity_restores),
            dirty.recovery.corruptions_detected,
            "every detected resting flip is repaired by a checkpoint restore"
        );
        assert_eq!(clean.iterations, dirty.iterations);
        assert_eq!(clean_img, dirty_img, "repair must be byte-exact");
    }

    #[test]
    fn resting_corruption_without_checkpointing_fails_loudly_with_a_witness() {
        // Certain resting flips, no checkpoint: the boundary scrub detects
        // the damage and has nothing to repair from — the run must fail
        // with the page and iteration, never complete divergent.
        let plan = corruption_plan(7, 0.0, 1.0, 0.0);
        let (res, _) = corrupted_run_mv(Some(plan), audited());
        let err = res.expect_err("undetected corruption would be silent wrongness");
        let SepoError::CorruptPage {
            at_iteration,
            host_id,
            recoveries,
        } = err
        else {
            panic!("expected CorruptPage, got {err}");
        };
        assert!(at_iteration >= 1);
        assert_eq!(recoveries, 0);
        let msg = err.to_string();
        assert!(
            msg.contains(&format!("page {host_id}"))
                && msg.contains(&format!("iteration {at_iteration}")),
            "witness missing from: {msg}"
        );
    }

    #[test]
    fn exhausted_retransmits_surface_corrupt_transfer_with_source() {
        // Certain in-flight flips: every retransmit of the first evicted
        // page fails verification too, so the bounded retry gives up and
        // the driver reports the transfer witness.
        let plan = corruption_plan(11, 1.0, 0.0, 0.0);
        let (res, _) = corrupted_run(Some(plan), audited());
        let err = res.expect_err("a never-clean transfer cannot succeed");
        let SepoError::CorruptTransfer {
            at_iteration,
            host_id,
            ..
        } = &err
        else {
            panic!("expected CorruptTransfer, got {err}");
        };
        assert!(*at_iteration >= 1);
        assert!(err.to_string().contains(&format!("host page {host_id}")));
        let source = std::error::Error::source(&err).expect("chains the corruption draw");
        assert!(
            source.to_string().contains("corruption draw"),
            "unexpected source: {source}"
        );
    }

    #[test]
    fn disk_flips_on_checkpoints_are_caught_and_rewritten() {
        let dir = std::env::temp_dir().join(format!("sepo-ckp-corrupt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.ckp");
        let (clean, clean_img) = corrupted_run(None, audited());
        let plan = corruption_plan(5, 0.0, 0.0, 0.4);
        let (dirty, dirty_img) = corrupted_run(
            Some(Arc::clone(&plan)),
            DriverConfig {
                checkpoint: CheckpointPolicy::Disk(
                    Arc::new(CheckpointFile::new(path.clone(), 1)),
                    0,
                ),
                ..audited()
            },
        );
        let dirty = dirty.unwrap();
        assert!(
            dirty.recovery.checkpoint_rewrites > 0,
            "a 0.4 disk-flip rate over every boundary must strike at least once"
        );
        assert_eq!(
            u64::from(dirty.recovery.checkpoint_rewrites),
            plan.injected(FaultKind::DiskByteFlip),
            "every injected disk flip must be caught by read-back verification"
        );
        // The landed checkpoint is trustworthy despite the flips.
        assert!(matches!(
            CheckpointFile::read(&path).as_deref(),
            Ok([Some(_)])
        ));
        assert_eq!(clean.unwrap().iterations, dirty.iterations);
        assert_eq!(clean_img, dirty_img);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Host compaction reads every host page through its stamp. A table
    /// that carries a damaged page into a run whose keys recur fails the
    /// run typed, naming the page, and leaves the host pages as they were.
    #[test]
    fn compaction_refuses_a_damaged_host_page_with_its_id() {
        let t = small_table(Organization::Combining(Combiner::Add), 4);
        let e = exec(t.metrics());
        let keys: Vec<String> = (0..400).map(|i| format!("key-{i:05}")).collect();
        let insert = |task: usize, _start: u32, lane: &mut LaneCtx<'_>| match t.insert_combining(
            keys[task].as_bytes(),
            1,
            lane,
        ) {
            crate::table::InsertStatus::Success => TaskResult::Done,
            crate::table::InsertStatus::Postponed => TaskResult::Postponed { next_pair: 0 },
        };
        let driver = SepoDriver::new(&t, &e).with_config(audited());
        let first = driver.try_run(keys.len(), |_| 16, insert).unwrap();
        assert_eq!(first.compaction, None, "unique keys: nothing to fold");
        let page = t.host_heap().pages().remove(0);
        let mut bytes = page.verify().unwrap().bytes().to_vec();
        bytes[20] ^= 0x10;
        let damaged =
            sepo_alloc::StampedPage::from_parts(page.host_id(), page.kind(), bytes, page.crc());
        t.host_heap().store(damaged);
        let before = t.host_heap().pages();

        let err = driver.try_run(keys.len(), |_| 16, insert).unwrap_err();
        let SepoError::CorruptPage {
            host_id,
            recoveries,
            ..
        } = err
        else {
            panic!("expected CorruptPage, got {err}");
        };
        assert_eq!(host_id, page.host_id());
        assert_eq!(recoveries, 0);
        let after = t.host_heap().pages();
        assert_eq!(before, after[..before.len()], "compaction wrote nothing");
    }

    /// Drive `records` into `t` through `insert` in two runs of 60. Each
    /// evicts once, at its only boundary; only the second begins over
    /// host pages, and only it compacts.
    fn two_runs(
        t: &SepoTable,
        records: &[(String, String)],
        insert: impl Fn(&(String, String), &mut LaneCtx<'_>) -> InsertStatus + Sync,
    ) {
        let e = exec(t.metrics());
        let driver = SepoDriver::new(t, &e).with_config(audited());
        for (run, part) in records.chunks(60).enumerate() {
            let outcome = driver.run(
                part.len(),
                |_| 16,
                |task, _, lane| match insert(&part[task], lane) {
                    InsertStatus::Success => TaskResult::Done,
                    InsertStatus::Postponed => TaskResult::Postponed { next_pair: 0 },
                },
            );
            let evicted: Vec<usize> = outcome
                .iterations
                .iter()
                .map(|it| it.evict.evicted_pages)
                .collect();
            assert!(matches!(evicted[..], [n] if n > 0), "{evicted:?}");
            assert_eq!(outcome.final_evict.evicted_pages, 0);
            assert_eq!(outcome.compaction.is_some(), run == 1, "run {run}");
        }
    }

    /// The host pages a table holds when a run begins are a batch of their
    /// own: a run over them whose own boundaries evict only once still
    /// ends with one entry per key, for both organizations that compact.
    #[test]
    fn inherited_host_pages_count_as_a_batch() {
        let records: Vec<(String, String)> = (0..120)
            .map(|i| (format!("key-{:02}", i % 30), format!("v{i}")))
            .collect();

        let t = small_table(Organization::Combining(Combiner::Add), 64);
        two_runs(&t, &records, |(k, _), lane| {
            t.insert_combining(k.as_bytes(), 1, lane)
        });
        let mut want: HashMap<Vec<u8>, u64> = HashMap::new();
        for (k, _) in &records {
            *want.entry(k.clone().into_bytes()).or_default() += 1;
        }
        let got = t.collect_combining();
        assert_eq!(got.len(), 30, "one host entry per key");
        assert_eq!(got.into_iter().collect::<HashMap<_, _>>(), want);

        let t = small_table(Organization::MultiValued, 64);
        two_runs(&t, &records, |(k, v), lane| {
            t.insert_multivalued(k.as_bytes(), v.as_bytes(), lane)
        });
        let mut want: HashMap<Vec<u8>, Vec<Vec<u8>>> = HashMap::new();
        for (k, v) in &records {
            let values = want.entry(k.clone().into_bytes()).or_default();
            values.push(v.clone().into_bytes());
        }
        let got = t.collect_multivalued();
        assert_eq!(got.len(), 30, "one host key entry per key");
        let mut got: HashMap<_, _> = got.into_iter().collect();
        for values in got.values_mut().chain(want.values_mut()) {
            values.sort();
        }
        assert_eq!(got, want);
        TableAudit::begin(&t).check_compacted(&t).unwrap();
    }

    #[test]
    fn scrub_flag_verifies_host_pages_on_clean_runs() {
        let (res, _) = corrupted_run(
            None,
            DriverConfig {
                scrub: true,
                ..audited()
            },
        );
        let outcome = res.unwrap();
        assert!(
            outcome.recovery.scrubbed_pages > 0,
            "the opt-in scrub must walk the finalized host pages"
        );
        assert_eq!(outcome.recovery.corruptions_detected, 0);
    }
}
