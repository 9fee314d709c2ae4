//! The traced run: every per-layer metric of one workload.
//!
//! Counts come from `Metrics::snapshot()`, `SepoOutcome.iterations[*]`,
//! `HeapStats`, `RecoveryStats` and `IntegrityState` of the workload's own
//! traced run. `*_ns` / `*_per_s` figures come from timing a layer's public
//! functions directly on the workload's own keys (a *micro-drive*).
//! `*.tax_ratio` is the wall of a run with that one guard on over the wall
//! with it off, the other guards as the workload sets them. Simulated
//! shares come from `GpuCostModel::kernel_time` on a `Snapshot` with every
//! other field zeroed. Every extra run is checked against the oracle too.

use crate::report::{Kind, Report};
use crate::run::{own_load, run_once, timed_reps, Artifacts, Load, Options, Rep};
use crate::serve::{iteration_walls, lookup_phase, ServeStats, BATCH};
use crate::setup::{executor, Guards, Setup};
use crate::spec::Workload;
use crate::stats::{median, percentile_or_max};
use crate::trace::Tracer;
use crate::verify::against_oracle;
use gpu_sim::executor::ExecMode;
use gpu_sim::{ContentionHistogram, GpuCostModel, Metrics, NoCharge, Snapshot};
use sepo_alloc::{GroupAllocator, Heap, PageClass, PageKind};
use sepo_apps::sharded::{organization_of, unsharded_image};
use sepo_apps::{run_app_sharded, ShardRouter};
use sepo_core::{
    canonical_image, crc32c, Combiner, CombinerConfig, Organization, SepoTable, TableConfig,
    WarpCombiner,
};
use sepo_datagen::{Rng, Zipf};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Keys a micro-drive works over (all of them in `--quick`).
const MICRO_KEYS: usize = 200_000;
/// Emits the combiner micro-drive streams, in warp-sized flush groups.
const COMBINER_EMITS: usize = 1_000_000;
/// Lanes x emits per lane of one simulated warp (32 x a 12-word line).
const WARP_EMITS: usize = 384;
/// Queries of the lookup phase.
const LOOKUP_QUERIES: usize = 1_000_000;
/// Alternations of variant and plain run behind every wall ratio.
const PAIRS: usize = 2;

fn secs_of<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// How one run differs from another: guards, heap bytes, executor mode and
/// what rides on the publisher.
type Shape = (Guards, u64, ExecMode, Load);

struct Ctx<'a> {
    setup: &'a Setup,
    tracer: &'a Arc<Tracer>,
    quick: bool,
    /// Wall of the untraced repetitions: the base of every ratio.
    base_wall: f64,
    /// Simulated end-to-end time of the plain run, in microseconds.
    base_sim_us: f64,
    /// Artifacts every other run of the workload must reproduce.
    reference: Artifacts,
    r: Report,
}

impl Ctx<'_> {
    /// One more run of the workload's app inside a span named `span`,
    /// checked against the oracle; where the run has the plain run's shape
    /// its image and trajectory must equal the reference (guards, serving
    /// and tracing never change results).
    fn extra_run(
        &mut self,
        span: &str,
        guards: Guards,
        heap: u64,
        mode: ExecMode,
        load: Load,
    ) -> Rep {
        let open = self.tracer.begin(span);
        let rep = run_once(self.setup, guards, heap, mode, load, self.tracer);
        self.tracer.end(open, Vec::new());
        self.r.tally.absorb(against_oracle(
            &rep.run.table,
            &self.setup.oracle,
            self.tracer,
        ));
        if let Some(s) = &rep.serve {
            self.r.tally.absorb(s.tally);
        }
        // Warp-racing runs, other heap sizes and injected lane aborts change
        // which task lands on which page; only runs of the plain run's shape
        // are held to its image.
        let same_shape = mode == ExecMode::ParallelDeterministic
            && heap == self.setup.heap_bytes
            && guards.faults == self.setup.workload.guards().faults;
        if same_shape {
            let got = rep.artifacts();
            self.r.tally.check(got.image == self.reference.image, || {
                format!("{span}: table image differs from the plain run")
            });
            self.r
                .tally
                .check(got.trajectory == self.reference.trajectory, || {
                    format!("{span}: trajectory differs from the plain run")
                });
        }
        rep
    }

    /// The workload's own run under `guards`.
    fn plain(&self, guards: Guards) -> Shape {
        let mode = ExecMode::ParallelDeterministic;
        (
            guards,
            self.setup.heap_bytes,
            mode,
            own_load(self.setup.workload),
        )
    }

    /// A variant of the run next to the plain run it is a variant of: the
    /// two are run alternately, [`PAIRS`] times, and each side keeps its
    /// fastest wall, so a slow spell of the host hits both sides or neither.
    /// Returns the variant's last run, its wall and the plain wall.
    fn paired(&mut self, span: &str, variant: Shape, plain: Shape) -> (Rep, f64, f64) {
        let mut walls = (f64::MAX, f64::MAX);
        let mut last = None;
        for _ in 0..PAIRS {
            let (guards, heap, mode, load) = plain;
            let rep = self.extra_run("plain", guards, heap, mode, load);
            walls.1 = walls.1.min(rep.wall_secs);
            let (guards, heap, mode, load) = variant;
            let rep = self.extra_run(span, guards, heap, mode, load);
            walls.0 = walls.0.min(rep.wall_secs);
            last = Some(rep);
        }
        (last.expect("PAIRS is at least one"), walls.0, walls.1)
    }

    fn micro<R>(&self, layer: &str, f: impl FnOnce() -> R) -> R {
        self.tracer.span(format!("micro.{layer}"), f)
    }
}

pub fn per_layer(w: Workload, opts: &Options, trace_to: &Path) -> Report {
    let tracer = Arc::new(Tracer::new(w.name(), true));
    let root = tracer.begin("workload");
    let setup = Setup::build(w, opts.seed, opts.quick, &tracer);

    // Untraced repetitions first: the base every ratio divides by.
    let untraced = Options {
        reps: Some(opts.reps.unwrap_or(if opts.quick { 1 } else { 5 })),
        ..opts.clone()
    };
    let timed = timed_reps(&setup, &untraced, 0, |_| {});
    let (calib_mops, noisy_reps, untraced_reps) =
        (timed.calib_mops(), timed.noisy_reps(), timed.walls.len());
    let mut ctx = Ctx {
        setup: &setup,
        tracer: &tracer,
        quick: opts.quick,
        base_wall: timed.wall_secs(),
        base_sim_us: timed.last.sim(&setup).total.as_secs_f64() * 1e6,
        reference: timed.last.artifacts(),
        r: Report::new(w, Kind::PerLayer),
    };
    ctx.r.tally = timed.tally;
    drop(timed.last);

    // The traced run: the workload's own load, or a publisher that only
    // stamps iteration boundaries.
    let load = if w.serves() {
        Load::Queries
    } else {
        Load::Stamps
    };
    let shape = (
        w.guards(),
        setup.heap_bytes,
        ExecMode::ParallelDeterministic,
        load,
    );
    let (traced, traced_wall, plain_wall) = ctx.paired("traced", shape, ctx.plain(w.guards()));
    ctx.r
        .tally
        .check(traced.snapshot == ctx.reference.snapshot, || {
            "traced run's metrics differ from the untraced runs'".into()
        });
    let trace_overhead = traced_wall / plain_wall;

    counts(&mut ctx, &traced);
    // Serving samples pool over the untraced repetitions and the traced
    // run, so the tail percentiles have enough samples beyond them.
    let samples: Vec<&ServeStats> = timed.serve.iter().chain(traced.serve.as_ref()).collect();
    serving(&mut ctx, &traced, &samples, trace_overhead);
    micro_drives(&mut ctx, &traced);
    guard_taxes(&mut ctx);
    sharding(&mut ctx, &traced);

    ctx.r.put("host.calib_mops", calib_mops);
    ctx.r.put("host.noisy_reps", noisy_reps as f64);
    ctx.r.put("host.trace_overhead_ratio", trace_overhead);
    ctx.r.note("seed", opts.seed as f64, "count");
    ctx.r.note("scale", setup.scale as f64, "count");
    ctx.r.note("untraced_reps", untraced_reps as f64, "count");
    ctx.r.note("untraced_wall_s", ctx.base_wall, "s");

    let report = ctx.r;
    tracer.end(root, Vec::new());
    match tracer.write_jsonl(trace_to) {
        Ok(()) => eprintln!(
            "{}: {} spans -> {}",
            w.name(),
            tracer.spans().len(),
            trace_to.display()
        ),
        Err(e) => eprintln!("{}: could not write {}: {e}", w.name(), trace_to.display()),
    }
    report
}

/// Simulated microseconds of each kernel-time term on its own: the sum of
/// the per-iteration kernel deltas (what `gpu_total_time` prices) with every
/// field but one zeroed.
fn sim_shares(rep: &Rep, gpu: &GpuCostModel) -> [(&'static str, f64); 5] {
    type Field = fn(&mut Snapshot) -> &mut u64;
    let terms: [(&str, Field); 5] = [
        ("gpu_sim.cost.sim_compute_us", |s| &mut s.compute_units),
        ("gpu_sim.cost.sim_stream_us", |s| &mut s.stream_bytes),
        ("gpu_sim.cost.sim_irregular_us", |s| &mut s.device_bytes),
        ("gpu_sim.cost.sim_smem_us", |s| &mut s.smem_bytes),
        ("gpu_sim.cost.sim_divergence_us", |s| {
            &mut s.divergence_events
        }),
    ];
    let empty = ContentionHistogram::default();
    terms.map(|(name, field)| {
        let mut only = Snapshot::default();
        for it in &rep.run.outcome.iterations {
            let mut kernel = it.kernel;
            *field(&mut only) += *field(&mut kernel);
        }
        (name, gpu.kernel_time(&only, &empty).as_secs_f64() * 1e6)
    })
}

/// Everything read off the traced run's counters.
fn counts(ctx: &mut Ctx<'_>, t: &Rep) {
    let setup = ctx.setup;
    let s = &t.snapshot;
    let out = &t.run.outcome;
    let table = &t.run.table;
    let records = setup.dataset.len() as f64;
    let input_bytes = setup.dataset.size_bytes() as f64;
    // Every emit either touched a bucket (an insert attempt, re-issues
    // included) or was absorbed by a warp combiner.
    let touches = table.contention_histogram();
    let emits = (touches.total_updates() + s.combiner_hits) as f64;
    let sim = t.sim(setup);
    let us = |t: gpu_sim::SimTime| t.as_secs_f64() * 1e6;

    let shares = sim_shares(t, &GpuCostModel::new(setup.spec.device.clone()));
    let r = &mut ctx.r;

    r.put(
        "datagen.gen_mb_per_s",
        input_bytes / 1e6 / setup.datagen_secs,
    );
    r.put("baselines.cpu_sim_us", us(setup.cpu_sim));

    r.put("apps.emits", emits);
    r.put("apps.ns_per_emit", ratio(ctx.base_wall * 1e9, emits));
    r.put(
        "apps.stream_bytes_per_record",
        s.stream_bytes as f64 / records,
    );
    r.put(
        "apps.divergence_per_record",
        s.divergence_events as f64 / records,
    );
    for (name, us) in shares {
        r.put(name, us);
    }
    r.put("gpu_sim.cost.sim_contention_us", us(sim.contention));
    r.put("gpu_sim.cost.sim_transfer_us", us(sim.transfers));

    let stats = table.table_stats();
    r.put(
        "core.table.chain_hops_per_emit",
        ratio(s.chain_hops as f64, emits),
    );
    r.put(
        "core.table.device_bytes_per_emit",
        ratio(s.device_bytes as f64, emits),
    );
    r.put("core.table.load_factor", stats.load_factor);
    r.put("core.table.mean_chain", stats.mean_chain);
    r.put("core.table.max_chain", stats.max_chain as f64);
    r.put(
        "core.table.hottest_bucket_touches",
        touches.max_count() as f64,
    );
    r.put("core.table.head_cas_retries", s.head_cas_retries as f64);

    r.put(
        "core.combiner.hit_share",
        ratio(s.combiner_hits as f64, emits),
    );
    r.put(
        "core.combiner.overflows_per_hit",
        ratio(s.combiner_overflows as f64, s.combiner_hits as f64),
    );
    r.put("core.combiner.flushes", s.combiner_flushes as f64);
    r.put(
        "core.combiner.smem_bytes_per_emit",
        ratio(s.smem_bytes as f64, emits),
    );

    let heap = table.heap().stats();
    let acquired_bytes = heap.pages_acquired as f64 * table.heap().page_size() as f64;
    r.put(
        "alloc.group.postponed_share",
        ratio(
            s.alloc_postponed as f64,
            (s.alloc_success + s.alloc_postponed) as f64,
        ),
    );
    r.put(
        "alloc.heap.wasted_share",
        ratio(heap.wasted_bytes as f64, acquired_bytes),
    );
    r.put("alloc.heap.pages_acquired", heap.pages_acquired as f64);
    r.put("alloc.hostheap.pages", table.host_heap().len() as f64);

    let attempted: u64 = out.iterations.iter().map(|i| i.tasks_attempted).sum();
    let launches: u64 = out.iterations.iter().map(|i| u64::from(i.chunks)).sum();
    r.put("core.sepo.iterations", f64::from(out.n_iterations()));
    r.put(
        "core.sepo.reissue_ratio",
        ratio(attempted as f64, out.total_tasks as f64),
    );
    r.put("core.sepo.launches", launches as f64);
    let stamps = &t
        .serve
        .as_ref()
        .expect("the traced run carries a publisher")
        .stamps;
    let iter_ms: Vec<f64> = iteration_walls(stamps, out.iterations.len())
        .iter()
        .map(|s| s * 1e3)
        .collect();
    r.put("core.sepo.iter_wall_ms_p50", median(&iter_ms));
    r.put(
        "core.sepo.iter_wall_ms_max",
        iter_ms.iter().copied().fold(0.0, f64::max),
    );

    let evicted_pages: usize = out
        .iterations
        .iter()
        .map(|i| i.evict.evicted_pages)
        .sum::<usize>()
        + out.final_evict.evicted_pages;
    let kept_max = out
        .iterations
        .iter()
        .map(|i| i.evict.kept_pages)
        .max()
        .unwrap_or(0);
    r.put(
        "core.evict.bytes_per_input_byte",
        out.total_evicted_bytes() as f64 / input_bytes,
    );
    r.put("core.evict.pages", evicted_pages as f64);
    r.put("core.evict.kept_pages_max", kept_max as f64);
    r.put(
        "core.integrity.pages_stamped",
        table.integrity().pages_stamped() as f64,
    );
    r.put(
        "core.integrity.pages_verified",
        table.integrity().pages_verified() as f64,
    );
    // The driver charges no PCIe counters; these are the transfers
    // `gpu_total_time` prices: one upload per chunk, one download per
    // boundary that evicted anything, one for the final result.
    let downloads = out
        .iterations
        .iter()
        .filter(|i| i.evict.evicted_bytes > 0)
        .count()
        + usize::from(out.final_evict.evicted_bytes > 0);
    r.put(
        "gpu_sim.pcie.bulk_transfers",
        (launches as usize + downloads) as f64,
    );
    r.put(
        "gpu_sim.pcie.bulk_bytes",
        (out.total_input_bytes() + out.total_evicted_bytes()) as f64,
    );

    r.put(
        "core.checkpoint.taken",
        f64::from(out.recovery.checkpoints_taken),
    );
    r.put(
        "core.checkpoint.bytes_per_image_byte",
        out.recovery.checkpoint_bytes as f64 / ctx.reference.image.len() as f64,
    );
    r.put("gpu_sim.faults.retries", t.faults_injected as f64);
}

/// Metrics only a workload that serves reads has; the others report 0.
pub const READ_SIDE: [&str; 13] = [
    "serve_wall_queries_per_s",
    "serve_wall_batch_p50_us",
    "serve_wall_batch_p95_us",
    "serve_sim_query_p99_ns",
    "lookup_wall_queries_per_s",
    "core.serve.batch_p99_us",
    "core.serve.device_answer_share",
    "core.serve.dedup_ratio",
    "core.serve.sim_batch_us_p50",
    "core.lookup.rounds",
    "core.lookup.loaded_bytes_per_query",
    "core.lookup.hit_share",
    "core.lookup.partial_share",
];

/// The read side: serving latencies, the publisher's tax, the lookup phase.
fn serving(ctx: &mut Ctx<'_>, traced: &Rep, samples: &[&ServeStats], trace_overhead: f64) {
    let w = ctx.setup.workload;
    if !w.serves() {
        for name in READ_SIDE {
            ctx.r.put(name, 0.0);
        }
        // Publisher on with zero queries over publisher off: exactly the
        // traced run of a non-serving workload over the plain run.
        ctx.r.put("core.serve.tax_ratio", trace_overhead);
        return;
    }

    let own = traced.serve.as_ref().expect("the serving workload serves");
    let batch_us: Vec<f64> = samples
        .iter()
        .flat_map(|s| &s.batch_secs)
        .map(|s| s * 1e6)
        .collect();
    let sim_us: Vec<f64> = samples
        .iter()
        .flat_map(|s| &s.batch_sim_secs)
        .map(|s| s * 1e6)
        .collect();
    let sim_query_ns: Vec<f64> = sim_us.iter().map(|us| us * 1e3 / BATCH as f64).collect();
    let queries: u64 = samples.iter().map(|s| s.queries).sum();
    let busy_secs = batch_us.iter().sum::<f64>() / 1e6;
    let m = own.metrics;
    let r = &mut ctx.r;
    r.put("serve_wall_queries_per_s", queries as f64 / busy_secs);
    r.put("serve_wall_batch_p50_us", median(&batch_us));
    r.put(
        "serve_wall_batch_p95_us",
        percentile_or_max(&batch_us, 95.0),
    );
    r.put(
        "core.serve.batch_p99_us",
        percentile_or_max(&batch_us, 99.0),
    );
    r.put(
        "serve_sim_query_p99_ns",
        percentile_or_max(&sim_query_ns, 99.0),
    );
    r.put("core.serve.sim_batch_us_p50", median(&sim_us));
    r.put(
        "core.serve.device_answer_share",
        ratio(
            m.device_bytes as f64,
            (m.device_bytes + m.stream_bytes) as f64,
        ),
    );
    r.put(
        "core.serve.dedup_ratio",
        ratio(m.tasks as f64, own.queries as f64),
    );
    r.note("serve_batch_samples", batch_us.len() as f64, "count");

    let (guards, heap, mode, _) = ctx.plain(w.guards());
    let on = (guards, heap, mode, Load::Stamps);
    let off = (guards, heap, mode, Load::None);
    let (_, on_wall, off_wall) = ctx.paired("toggle.serve", on, off);
    ctx.r.put("core.serve.tax_ratio", on_wall / off_wall);

    let n = if ctx.quick { 10_000 } else { LOOKUP_QUERIES };
    let out = lookup_phase(
        &traced.run.table,
        &ctx.setup.oracle,
        n,
        ctx.setup.seed,
        ctx.tracer,
    );
    ctx.r.tally.absorb(out.tally);
    let r = &mut ctx.r;
    r.put("lookup_wall_queries_per_s", out.queries as f64 / out.secs);
    r.put("core.lookup.rounds", f64::from(out.rounds));
    r.put(
        "core.lookup.loaded_bytes_per_query",
        out.loaded_bytes as f64 / out.queries as f64,
    );
    r.put(
        "core.lookup.hit_share",
        out.hits as f64 / out.queries as f64,
    );
    r.put(
        "core.lookup.partial_share",
        ratio(out.partial as f64, out.hits as f64),
    );
}

/// A table of `org` with room for `keys` twice over, on private metrics.
fn micro_table(org: Organization, keys: &[&[u8]]) -> SepoTable {
    let bytes: usize = keys.iter().map(|k| k.len() + 96).sum();
    let heap = (2 * bytes as u64).max(4 << 20);
    SepoTable::new(
        TableConfig::tuned(org, heap),
        heap,
        Arc::new(Metrics::new()),
    )
}

/// Time each layer's public functions on the workload's own keys.
fn micro_drives(ctx: &mut Ctx<'_>, traced: &Rep) {
    let setup = ctx.setup;
    let all_keys = setup.oracle.sorted_keys();
    // An even stride through the sorted keys: a deterministic sample.
    let cap = if ctx.quick {
        all_keys.len()
    } else {
        MICRO_KEYS
    };
    let stride = all_keys.len().div_ceil(cap).max(1);
    let keys: Vec<&[u8]> = all_keys.iter().step_by(stride).copied().collect();
    let n = keys.len() as f64;
    let absent: Vec<Vec<u8>> = keys.iter().map(|k| [k, &b"~absent"[..]].concat()).collect();
    let org = organization_of(setup.workload.app());

    // core.hash: fnv1a over the keys, enough passes to hash ~64 MB.
    let key_bytes: usize = keys.iter().map(|k| k.len()).sum();
    let passes = (64 << 20) / key_bytes.max(1) + 1;
    let (_, secs) = ctx.micro("core.hash", || {
        secs_of(|| {
            for _ in 0..passes {
                for k in &keys {
                    black_box(sepo_core::hash::fnv1a(black_box(k)));
                }
            }
        })
    });
    ctx.r.put(
        "core.hash.fnv1a_gb_per_s",
        (passes * key_bytes) as f64 / 1e9 / secs,
    );

    // core.integrity: CRC32C over the input bytes, page-sized pieces.
    let data = &setup.dataset.bytes[..setup.dataset.bytes.len().min(32 << 20)];
    let (_, secs) = ctx.micro("core.integrity", || {
        secs_of(|| {
            for page in data.chunks(64 << 10) {
                black_box(crc32c(black_box(page)));
            }
        })
    });
    ctx.r.put(
        "core.integrity.crc32c_gb_per_s",
        data.len() as f64 / 1e9 / secs,
    );

    // core.table: first inserts, duplicate inserts, probes, then the
    // eviction of what was built.
    let (new_ns, dup_ns, hit_ns, miss_ns, evict_mb_per_s) = ctx.micro("core.table", || {
        let table = micro_table(org, &keys);
        let mut ch = NoCharge;
        let insert = |ch: &mut NoCharge| {
            for k in &keys {
                let status = match org {
                    Organization::MultiValued => table.insert_multivalued(k, b"v", ch),
                    Organization::Combining(_) => table.insert_combining(k, 1, ch),
                    Organization::Basic => table.insert_basic(k, b"v", ch),
                };
                assert!(
                    status.is_success(),
                    "the micro table is sized to never postpone"
                );
            }
        };
        let (_, new_secs) = secs_of(|| insert(&mut ch));
        let (_, dup_secs) = secs_of(|| insert(&mut ch));
        // Probes walk a combining table over the same keys: the one chain
        // walk every organization shares, and the only public probe.
        let probe_table = match org {
            Organization::Combining(_) => None,
            _ => {
                let t = micro_table(Organization::Combining(Combiner::Add), &keys);
                for k in &keys {
                    assert!(t.insert_combining(k, 1, &mut ch).is_success());
                }
                Some(t)
            }
        };
        let probed = probe_table.as_ref().unwrap_or(&table);
        let (hits, hit_secs) = secs_of(|| {
            keys.iter()
                .filter(|k| probed.lookup_combining(k, &mut ch).is_some())
                .count()
        });
        let (misses, miss_secs) = secs_of(|| {
            absent
                .iter()
                .filter(|k| probed.lookup_combining(k, &mut ch).is_none())
                .count()
        });
        assert_eq!(
            (hits, misses),
            (keys.len(), keys.len()),
            "micro probes answer wrongly"
        );
        let (report, evict_secs) = secs_of(|| table.end_iteration());
        (
            new_secs * 1e9 / n,
            dup_secs * 1e9 / n,
            hit_secs * 1e9 / n,
            miss_secs * 1e9 / n,
            report.evicted_bytes as f64 / 1e6 / evict_secs,
        )
    });
    ctx.r.put("core.table.insert_new_ns", new_ns);
    ctx.r.put("core.table.insert_dup_ns", dup_ns);
    ctx.r.put("core.table.probe_hit_ns", hit_ns);
    ctx.r.put("core.table.probe_miss_ns", miss_ns);
    ctx.r
        .put("core.evict.end_iteration_mb_per_s", evict_mb_per_s);

    // core.combiner: only where the run reached it (MAP_REDUCE emitters).
    let reached = traced.snapshot.combiner_hits + traced.snapshot.combiner_flushes > 0;
    let emit_ns = if reached {
        ctx.micro("core.combiner", || {
            let table = micro_table(Organization::Combining(Combiner::Add), &keys);
            let zipf = Zipf::new(keys.len(), 1.05);
            let mut rng = Rng::new(setup.seed ^ 0xC0B1);
            let emits = if ctx.quick { 20_000 } else { COMBINER_EMITS };
            let stream: Vec<usize> = (0..emits).map(|_| zipf.sample(&mut rng)).collect();
            let mut ch = NoCharge;
            let (_, secs) = secs_of(|| {
                for warp in stream.chunks(WARP_EMITS) {
                    let mut combiner = WarpCombiner::new(Combiner::Add, CombinerConfig::default());
                    for &i in warp {
                        let key = keys[i];
                        let status =
                            combiner.emit(&table, key, sepo_core::hash::fnv1a(key), 1, &mut ch);
                        assert!(status.is_success());
                    }
                    combiner.flush(&table, &mut ch);
                }
            });
            secs * 1e9 / emits as f64
        })
    } else {
        0.0
    };
    ctx.r.put("core.combiner.emit_ns", emit_ns);

    // alloc.group: bump allocations round-robin over the groups until the
    // pool runs dry.
    let alloc_ns = ctx.micro("alloc.group", || {
        let heap = Arc::new(Heap::new(
            if ctx.quick { 1 << 20 } else { 16 << 20 },
            64 << 10,
            Arc::new(Metrics::new()),
        ));
        let n_groups = heap.total_pages() / 4;
        let groups = GroupAllocator::new(Arc::clone(&heap), n_groups, PageKind::Mixed);
        let (allocs, secs) = secs_of(|| {
            let mut done = 0u64;
            while groups
                .alloc(done as usize % n_groups, PageClass::Primary, 48)
                .is_ok()
            {
                done += 1;
            }
            done
        });
        secs * 1e9 / allocs as f64
    });
    ctx.r.put("alloc.group.alloc_ns", alloc_ns);

    // gpu_sim.executor: serving-sized launches, then one big empty kernel.
    let (launches_per_s, task_ns) = ctx.micro("gpu_sim.executor", || {
        let exec = executor(ExecMode::ParallelDeterministic);
        let launches = if ctx.quick { 200 } else { 4_000 };
        let (_, secs) = secs_of(|| {
            for _ in 0..launches {
                black_box(exec.launch(BATCH, |lane| {
                    black_box(lane.task());
                }));
            }
        });
        let tasks = if ctx.quick { 1 << 14 } else { 1 << 21 };
        let (_, big) = secs_of(|| {
            exec.launch(tasks, |lane| {
                black_box(lane.task());
            })
        });
        (launches as f64 / secs, big * 1e9 / tasks as f64)
    });
    ctx.r.put("gpu_sim.executor.launches_per_s", launches_per_s);
    ctx.r.put("gpu_sim.executor.empty_task_ns", task_ns);

    // gpu_sim.pool: the same run with warps racing on every core. The
    // sanitizer is off on both sides: under real races it reports mixed
    // plain/atomic accesses on multi-valued tables and the driver panics.
    let w = setup.workload;
    let heap = setup.heap_bytes;
    let unsanitized = Guards {
        sanitize: false,
        ..w.guards()
    };
    let workers = sepo_bench::host_parallelism();
    let racing = (
        unsanitized,
        heap,
        ExecMode::Parallel { workers },
        own_load(w),
    );
    let (_, racing_wall, plain) = ctx.paired("micro.gpu_sim.pool", racing, ctx.plain(unsanitized));
    ctx.r
        .put("gpu_sim.pool.parallel_speedup", plain / racing_wall);

    // core.sepo: the same run with a heap nothing spills from.
    let ample = sepo_baselines::ample_heap(&setup.dataset);
    let roomy = (
        w.guards(),
        ample,
        ExecMode::ParallelDeterministic,
        own_load(w),
    );
    let (_, roomy_wall, plain) = ctx.paired("micro.core.sepo", roomy, ctx.plain(w.guards()));
    ctx.r
        .put("core.sepo.spill_overhead_ratio", plain / roomy_wall);
}

/// Price each guard: flip it alone, the rest as the workload runs them.
fn guard_taxes(ctx: &mut Ctx<'_>) {
    let w = ctx.setup.workload;
    let base = w.guards();
    let heap = ctx.setup.heap_bytes;
    type Flip = fn(&mut Guards) -> &mut bool;
    let guards: [(&str, &str, Flip); 6] = [
        ("audit", "core.audit.tax_ratio", |g| &mut g.audit),
        ("sanitize", "gpu_sim.shadow.tax_ratio", |g| &mut g.sanitize),
        ("checkpoint", "core.checkpoint.tax_ratio", |g| {
            &mut g.checkpoint
        }),
        ("scrub", "core.integrity.scrub_tax_ratio", |g| &mut g.scrub),
        ("evict_overlap", "gpu_sim.evict_pipe.tax_ratio", |g| {
            &mut g.evict_overlap
        }),
        ("faults", "gpu_sim.faults.tax_ratio", |g| &mut g.faults),
    ];
    let base_sim = ctx.base_sim_us;
    for (guard, metric, field) in guards {
        let mut flipped = base;
        let was_on = *field(&mut flipped);
        *field(&mut flipped) = !was_on;
        let variant = (flipped, heap, ExecMode::ParallelDeterministic, own_load(w));
        let (rep, flipped_wall, plain) =
            ctx.paired(&format!("toggle.{guard}"), variant, ctx.plain(base));
        let (on, off) = if was_on {
            (plain, flipped_wall)
        } else {
            (flipped_wall, plain)
        };
        ctx.r.put(metric, on / off);
        if guard == "evict_overlap" {
            let flipped_sim = rep.sim(ctx.setup).total.as_secs_f64() * 1e6;
            let (sim_on, sim_off) = if was_on {
                (base_sim, flipped_sim)
            } else {
                (flipped_sim, base_sim)
            };
            ctx.r
                .put("gpu_sim.evict_pipe.sim_saved_share", 1.0 - sim_on / sim_off);
        }
    }
}

/// The sharded twin of the run: one shard (the path ROADMAP wants `run_app`
/// collapsed onto) and four.
fn sharding(ctx: &mut Ctx<'_>, traced: &Rep) {
    let setup = ctx.setup;
    let w = setup.workload;
    let app = w.app();
    let records = setup.dataset.len() as f64;
    let sharded = |ctx: &Ctx<'_>, shards: usize| {
        ctx.tracer.span(format!("micro.apps.sharded.{shards}"), || {
            let (cfgs, execs): (Vec<_>, Vec<_>) = (0..shards)
                .map(|_| {
                    setup.run_config(
                        w.guards(),
                        setup.heap_bytes,
                        ExecMode::ParallelDeterministic,
                    )
                })
                .unzip();
            secs_of(|| run_app_sharded(app, &setup.dataset, &cfgs, &execs))
        })
    };

    let (image, image_secs) = ctx.micro("core.shard", || {
        secs_of(|| canonical_image(&[&traced.run.table]))
    });
    ctx.r.put(
        "core.shard.canonical_image_mb_per_s",
        image.len() as f64 / 1e6 / image_secs,
    );
    debug_assert_eq!(image, unsharded_image(&traced.run));

    let (guards, heap, mode, load) = ctx.plain(w.guards());
    let plain = ctx.extra_run("plain", guards, heap, mode, load).wall_secs;
    let (one, one_secs) = sharded(ctx, 1);
    ctx.r.tally.check(one.image == image, || {
        "1-shard canonical image differs from run_app's".into()
    });
    ctx.r.put("apps.sharded.wall_ratio_1", one_secs / plain);
    drop(one);

    let (four, _) = sharded(ctx, 4);
    ctx.r.tally.check(four.image == image, || {
        "4-shard canonical image differs from run_app's".into()
    });
    let hists: Vec<ContentionHistogram> = four
        .shards
        .iter()
        .map(|s| s.table.full_contention_histogram())
        .collect();
    let pairs: Vec<_> = four
        .shards
        .iter()
        .zip(&hists)
        .map(|(s, h)| (&s.outcome, h))
        .collect();
    let sim4 = sepo_bench::sharded_total_time(&pairs, &setup.spec);
    ctx.r.put(
        "apps.sharded.sim_speedup_4",
        traced.sim(setup).total.ratio(sim4.total),
    );
    ctx.r.put(
        "apps.sharded.replication_ratio",
        four.routed_records.iter().sum::<usize>() as f64 / records,
    );

    let router = ShardRouter::new(app, 4);
    let (split, split_secs) = ctx.micro("apps.sharded.split", || {
        secs_of(|| router.split_dataset(&setup.dataset))
    });
    black_box(split);
    ctx.r
        .put("apps.sharded.split_records_per_s", records / split_secs);
}
