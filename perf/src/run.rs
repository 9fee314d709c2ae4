//! One repetition of a workload, and the untraced end-to-end measurement.

use crate::serve::{ServeLoad, ServeStats};
use crate::setup::{Guards, Setup};
use crate::spec::Workload;
use crate::stats::{fastest_quarter_mean, Calibrator, QUIET_SHARE};
use crate::trace::{snapshot_counts, Tracer};
use crate::verify::{against_oracle, Tally};
use gpu_sim::executor::ExecMode;
use gpu_sim::Snapshot;
use sepo_apps::{run_app, AppRun};
use sepo_bench::GpuTiming;
use std::sync::Arc;
use std::time::Instant;

/// What rides on the run's epoch publisher.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Load {
    /// No publisher: the CLI-default run.
    None,
    /// Publisher with a hook that only stamps boundaries.
    Stamps,
    /// Publisher with the mixed query load of `serve_mixed`.
    Queries,
}

/// One finished `run_app`.
pub struct Rep {
    pub run: AppRun,
    /// Host seconds of `run_app`, serving-hook time subtracted.
    pub wall_secs: f64,
    /// The run executor's metrics.
    pub snapshot: Snapshot,
    pub serve: Option<ServeStats>,
    /// Transient faults the run's fault plan injected (each forces a retry).
    pub faults_injected: u64,
}

/// The byte-comparable bundle repetitions of one workload must agree on.
#[derive(PartialEq, Eq)]
pub struct Artifacts {
    pub image: Vec<u8>,
    pub trajectory: Vec<u64>,
    pub snapshot: Snapshot,
}

impl Rep {
    pub fn artifacts(&self) -> Artifacts {
        let mut image = Vec::new();
        self.run
            .table
            .save(&mut image)
            .expect("writing a table image to memory cannot fail");
        Artifacts {
            image,
            trajectory: sepo_bench::harness::trajectory_of(&self.run),
            snapshot: self.snapshot,
        }
    }

    /// Simulated end-to-end time of the run.
    pub fn sim(&self, setup: &Setup) -> GpuTiming {
        let hist = self.run.table.full_contention_histogram();
        sepo_bench::gpu_total_time(&self.run.outcome, &hist, &setup.spec)
    }
}

/// Run the workload's app once under `guards`, inside a `run` span.
pub fn run_once(
    setup: &Setup,
    guards: Guards,
    heap_bytes: u64,
    mode: ExecMode,
    load: Load,
    tracer: &Arc<Tracer>,
) -> Rep {
    let span = tracer.begin("run");
    let (mut cfg, exec) = setup.run_config(guards, heap_bytes, mode);
    let serve_load = (load != Load::None).then(|| {
        ServeLoad::new(
            load == Load::Queries,
            Arc::clone(&setup.oracle),
            &setup.spec,
            setup.seed,
            Arc::clone(exec.metrics()),
            Arc::clone(tracer),
        )
    });
    if let Some(l) = &serve_load {
        cfg = cfg.with_serving(Arc::clone(&l.publisher));
    }
    let start = Instant::now();
    let run = run_app(setup.workload.app(), &setup.dataset, &cfg, &exec);
    let raw_secs = start.elapsed().as_secs_f64();
    let serve = serve_load.map(ServeLoad::finish);
    let rep = Rep {
        run,
        wall_secs: raw_secs - serve.as_ref().map_or(0.0, |s| s.hook_secs),
        snapshot: exec.metrics().snapshot(),
        serve,
        faults_injected: exec.faults().map_or(0, |p| p.total_injected()),
    };
    let mut counts = snapshot_counts(&rep.snapshot);
    counts.push(("records", setup.dataset.len() as u64));
    counts.push(("input_bytes", setup.dataset.size_bytes()));
    tracer.end(span, counts);
    rep
}

/// The load a workload's own runs carry.
pub fn own_load(w: Workload) -> Load {
    if w.serves() {
        Load::Queries
    } else {
        Load::None
    }
}

/// Options of one `perf run`.
#[derive(Debug, Clone)]
pub struct Options {
    pub seed: u64,
    /// Measure until this much time has passed…
    pub seconds: f64,
    /// …or, when set, for exactly this many timed repetitions.
    pub reps: Option<usize>,
    pub quick: bool,
}

/// Timed repetitions of a workload.
pub struct Timed {
    /// Wall seconds of each timed repetition.
    pub walls: Vec<f64>,
    /// The slower of the two calibrations around each repetition
    /// (millions of hops per second).
    pub calibs: Vec<f64>,
    /// The last repetition, for the metrics that are the same on every one.
    pub last: Rep,
    /// Serving samples of the timed repetitions.
    pub serve: Vec<ServeStats>,
    /// `VmHWM` once the first timed repetition was checked: set-up, two
    /// runs and their verification, before allocator drift over the later
    /// repetitions (and the extra set-ups) blurs it.
    pub peak_rss_mb: f64,
    pub tally: Tally,
}

impl Timed {
    /// The run's wall figure: see [`fastest_quarter_mean`] for why not the
    /// median.
    pub fn wall_secs(&self) -> f64 {
        fastest_quarter_mean(&self.walls)
    }

    /// The host's quiet speed as this run saw it.
    pub fn calib_mops(&self) -> f64 {
        self.calibs.iter().copied().fold(0.0, f64::max)
    }

    /// Repetitions around which the calibration loop ran at less than
    /// [`QUIET_SHARE`] of the run's best.
    pub fn noisy_reps(&self) -> usize {
        let quiet = QUIET_SHARE * self.calib_mops();
        self.calibs.iter().filter(|&&c| c < quiet).count()
    }
}

/// Fewest timed repetitions of an end-to-end run, however slow the host.
pub const MIN_REPS: usize = 5;

/// One discarded warm-up, then timed repetitions until `opts` says stop
/// (`--reps` of them, or at least `min_reps` and until `--seconds` have
/// passed). Every repetition is checked against the oracle and must be
/// byte-identical (image, trajectory, metrics) to the warm-up. A cache-
/// sensitive calibration loop brackets every repetition. `between` runs
/// after each repetition, inside the time budget, with the share of the
/// budget used so far.
pub fn timed_reps(
    setup: &Setup,
    opts: &Options,
    min_reps: usize,
    mut between: impl FnMut(f64),
) -> Timed {
    let w = setup.workload;
    let off = Arc::new(Tracer::new(w.name(), false));
    let once = || {
        run_once(
            setup,
            w.guards(),
            setup.heap_bytes,
            ExecMode::ParallelDeterministic,
            own_load(w),
            &off,
        )
    };
    let mut tally = Tally::default();
    let mut serve = Vec::new();
    let mut check = |mut rep: Rep, reference: Option<&Artifacts>| -> Rep {
        tally.absorb(against_oracle(&rep.run.table, &setup.oracle, &off));
        if let Some(s) = rep.serve.take() {
            tally.absorb(s.tally);
            // The warm-up's samples were taken cold; keep the timed ones.
            if reference.is_some() {
                serve.push(s);
            }
        }
        if let Some(reference) = reference {
            let got = rep.artifacts();
            tally.check(got.image == reference.image, || {
                "table image differs between repetitions".into()
            });
            tally.check(got.trajectory == reference.trajectory, || {
                "trajectory differs between repetitions".into()
            });
            tally.check(got.snapshot == reference.snapshot, || {
                "metrics differ between repetitions".into()
            });
        }
        rep
    };

    let warm = check(once(), None);
    let reference = warm.artifacts();
    drop(warm);

    let target_reps = opts.reps.unwrap_or(usize::MAX);
    let min_reps = opts.reps.unwrap_or(min_reps);
    let start = Instant::now();
    let calibrator = Calibrator::new();
    let mut walls = Vec::new();
    let mut calibs = Vec::new();
    let mut last = None;
    let mut peak_rss_mb = 0.0;
    while walls.len() < target_reps
        && (walls.len() < min_reps || start.elapsed().as_secs_f64() < opts.seconds)
    {
        let before = calibrator.mops();
        let rep = once();
        let after = calibrator.mops();
        walls.push(rep.wall_secs);
        calibs.push(before.min(after));
        last = Some(check(rep, Some(&reference)));
        if walls.len() == 1 {
            peak_rss_mb = read_peak_rss_mb();
        }
        between(start.elapsed().as_secs_f64() / opts.seconds.max(f64::MIN_POSITIVE));
    }
    Timed {
        walls,
        calibs,
        last: last.expect("at least one timed repetition"),
        serve,
        peak_rss_mb,
        tally,
    }
}

/// Peak resident set of this process in MB (`VmHWM`), 0 where `/proc` does
/// not say.
pub fn read_peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
