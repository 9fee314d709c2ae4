//! Workload inputs: dataset, oracle, CPU baseline, run configuration.
//!
//! Dataset configurations are the Table-I dataset #4 ones of
//! `App::generate`, reseeded from `--seed`, so the same seed gives the same
//! inputs and another seed gives another dataset of the same shape.

use crate::spec::Workload;
use crate::trace::Tracer;
use gpu_sim::executor::{ExecMode, Executor};
use gpu_sim::{FaultConfig, FaultPlan, Metrics, ShadowSanitizer, SimTime, SystemSpec};
use sepo_apps::AppConfig;
use sepo_core::CheckpointPolicy;
use sepo_datagen::{dna, patents, ratings, text, App, Dataset};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Dataset and device scale of the `--quick` smoke: the repo's regression
/// scale, where every workload takes milliseconds.
pub const QUICK_SCALE: u64 = 16_384;

impl Workload {
    pub fn app(self) -> App {
        match self {
            Workload::FitSkew => App::WordCount,
            Workload::SpillChain => App::DnaAssembly,
            Workload::SpillGuarded => App::PatentCitation,
            Workload::ServeMixed => App::Netflix,
        }
    }

    /// Divisor applied to the paper's dataset and device sizes. Chosen so
    /// one repetition takes about half a second on the reference host: the
    /// driver gives every run of every workload some 35 s including the
    /// set-ups, and the host's slow spells last seconds, so a run is better
    /// served by fifteen short repetitions than by five long ones.
    pub fn scale(self, quick: bool) -> u64 {
        if quick {
            return QUICK_SCALE;
        }
        match self {
            Workload::FitSkew => 256,
            Workload::SpillChain => 1024,
            Workload::SpillGuarded => 512,
            Workload::ServeMixed => 1024,
        }
    }

    /// Guard settings of the workload's own runs.
    pub fn guards(self) -> Guards {
        match self {
            Workload::SpillGuarded => Guards::ALL_ON,
            _ => Guards::OFF,
        }
    }

    pub fn serves(self) -> bool {
        self == Workload::ServeMixed
    }

    /// Generate the workload's dataset (#4 of Table I at `scale`).
    pub fn generate(self, seed: u64, scale: u64) -> Dataset {
        let app = self.app();
        let bytes = app.dataset_bytes(3, scale);
        // Distinct streams per workload even under one `--seed`.
        let seed = seed ^ ((app as u64 + 1) << 32);
        match self {
            Workload::FitSkew => text::generate(
                &text::TextConfig {
                    target_bytes: bytes,
                    vocab_size: ((bytes / 500) as usize).clamp(500, 40_000),
                    ..Default::default()
                },
                seed,
            ),
            Workload::SpillChain => dna::generate(
                &dna::DnaConfig {
                    target_bytes: bytes,
                    coverage: 64.0,
                    error_rate: 0.0,
                    ..Default::default()
                },
                seed,
            ),
            Workload::SpillGuarded => patents::generate(
                &patents::PatentsConfig {
                    target_bytes: bytes,
                    ..Default::default()
                },
                seed,
            ),
            Workload::ServeMixed => ratings::generate(
                &ratings::RatingsConfig {
                    target_bytes: bytes,
                    raters_per_movie: 8,
                    n_users: Some(((bytes / 20_000) as usize).max(64)),
                    zipf_exponent: 1.0,
                },
                seed,
            ),
        }
    }
}

/// The guard toggles of one run. `spill_guarded` runs with all of them on;
/// the traced pass flips one at a time to price each guard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Guards {
    pub audit: bool,
    pub sanitize: bool,
    pub checkpoint: bool,
    pub scrub: bool,
    pub evict_overlap: bool,
    pub faults: bool,
}

impl Guards {
    pub const OFF: Guards = Guards {
        audit: false,
        sanitize: false,
        checkpoint: false,
        scrub: false,
        evict_overlap: false,
        faults: false,
    };
    pub const ALL_ON: Guards = Guards {
        audit: true,
        sanitize: true,
        checkpoint: true,
        scrub: true,
        evict_overlap: true,
        faults: true,
    };
}

/// What a correct run must produce, from the apps' sequential references.
pub enum Oracle {
    Combining(HashMap<Vec<u8>, u64>),
    Grouped(HashMap<Vec<u8>, Vec<Vec<u8>>>),
}

impl Oracle {
    fn of(w: Workload, ds: &Dataset) -> Oracle {
        match w {
            Workload::FitSkew => Oracle::Combining(sepo_apps::wordcount::reference(ds)),
            Workload::SpillChain => Oracle::Combining(sepo_apps::dna::reference(ds)),
            Workload::SpillGuarded => Oracle::Grouped(sepo_apps::patent::reference(ds)),
            Workload::ServeMixed => Oracle::Combining(sepo_apps::netflix::reference(ds)),
        }
    }

    /// Distinct result keys, sorted so every use of them is deterministic.
    pub fn sorted_keys(&self) -> Vec<&[u8]> {
        let mut keys: Vec<&[u8]> = match self {
            Oracle::Combining(m) => m.keys().map(Vec::as_slice).collect(),
            Oracle::Grouped(m) => m.keys().map(Vec::as_slice).collect(),
        };
        keys.sort_unstable();
        keys
    }
}

/// Everything a workload needs before its first timed repetition.
pub struct Setup {
    pub workload: Workload,
    pub seed: u64,
    pub scale: u64,
    pub spec: SystemSpec,
    pub heap_bytes: u64,
    pub dataset: Dataset,
    pub oracle: Arc<Oracle>,
    /// Simulated time of the CPU multi-threaded / Phoenix++ baseline.
    pub cpu_sim: SimTime,
    /// Host seconds the whole set-up took, and its datagen part.
    pub secs: f64,
    pub datagen_secs: f64,
}

impl Setup {
    /// Generate inputs, compute the oracle, run the CPU baseline and start
    /// the executor's worker pool.
    pub fn build(w: Workload, seed: u64, quick: bool, tracer: &Tracer) -> Setup {
        let start = Instant::now();
        let scale = w.scale(quick);
        let spec = SystemSpec::scaled(scale);
        let app = w.app();
        let dataset = tracer.span("setup.datagen", || w.generate(seed, scale));
        let datagen_secs = start.elapsed().as_secs_f64();
        let oracle = tracer.span("setup.oracle", || Oracle::of(w, &dataset));
        let cpu_sim = tracer.span("setup.baseline", || {
            if App::MAPREDUCE.contains(&app) {
                let p = sepo_baselines::run_phoenix(app, &dataset);
                sepo_bench::cpu_total_time(&p.snapshot, &p.contention, &spec)
            } else {
                let b = sepo_baselines::run_cpu_app(app, &dataset);
                sepo_bench::cpu_total_time(&b.snapshot, &b.contention, &spec)
            }
        });
        // The first launch starts the shared worker pool.
        executor(ExecMode::ParallelDeterministic).launch(1, |_| {});
        Setup {
            workload: w,
            seed,
            scale,
            heap_bytes: sepo_bench::device_heap(&spec),
            spec,
            dataset,
            oracle: Arc::new(oracle),
            cpu_sim,
            secs: start.elapsed().as_secs_f64(),
            datagen_secs,
        }
    }

    /// The app configuration and executor of one run under `guards`. CLI
    /// defaults otherwise: combiner on.
    pub fn run_config(
        &self,
        guards: Guards,
        heap_bytes: u64,
        mode: ExecMode,
    ) -> (AppConfig, Executor) {
        let mut exec = executor(mode);
        if guards.faults {
            let plan = FaultPlan::new(FaultConfig::standard(self.seed ^ 0xFA17));
            exec = exec.with_faults(Arc::new(plan));
        }
        if guards.sanitize {
            exec = exec.with_shadow(Arc::new(ShadowSanitizer::new()));
        }
        let cfg = AppConfig::new(heap_bytes)
            .with_combiner(true)
            .with_audit(guards.audit)
            .with_sanitize(guards.sanitize)
            .with_scrub(guards.scrub)
            .with_evict_overlap(guards.evict_overlap)
            .with_checkpoint(if guards.checkpoint {
                CheckpointPolicy::Memory
            } else {
                CheckpointPolicy::Off
            });
        (cfg, exec)
    }
}

/// A fresh executor on fresh metrics.
pub fn executor(mode: ExecMode) -> Executor {
    Executor::new(mode, Arc::new(Metrics::new()))
}
