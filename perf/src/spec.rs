//! The benchmark's registry: workloads, end-to-end metrics, per-layer
//! metrics, and the prediction each per-layer metric is held to.
//!
//! `BENCHMARK.json` is rendered from these tables (`perf manifest`) and a
//! test keeps the committed file equal to the rendering, so the names the
//! driver reads and the names the harness prints cannot drift apart.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// The four workloads. Each stresses different layers; `why` is the line
/// `BENCHMARK.json` carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    FitSkew,
    SpillChain,
    SpillGuarded,
    ServeMixed,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::FitSkew,
        Workload::SpillChain,
        Workload::SpillGuarded,
        Workload::ServeMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::FitSkew => "fit_skew",
            Workload::SpillChain => "spill_chain",
            Workload::SpillGuarded => "spill_guarded",
            Workload::ServeMixed => "serve_mixed",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn why(self) -> &'static str {
        match self {
            Workload::FitSkew => {
                "Word Count, Zipf vocabulary, table fits the heap: 1 iteration, so time is \
                 tokenise/emit, fnv1a, warp combiner and combine-in-place on hot buckets"
            }
            Workload::SpillChain => {
                "DNA Assembly, table ~8x the heap, 8 iterations: chain-walk insert, group \
                 allocation and postponement, eviction capture, CRC32C and host adoption"
            }
            Workload::SpillGuarded => {
                "Patent Citation, multi-valued, spilling, every guard on (audit, sanitizer, \
                 checkpoint, scrub, evict-overlap, seeded transient faults): the guarded path"
            }
            Workload::ServeMixed => {
                "Netflix, spilling, with epoch-snapshot serving at every boundary (Zipf 0.9, one \
                 absent key in five) and a lookup phase: reads beside writes"
            }
        }
    }
}

/// A metric a user of the system would see. Reported by every workload in
/// the untraced run.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before
    /// a change counts as a regression. For the `exact` metrics the bound
    /// only has to cover the spread across `--seed` values (the driver
    /// varies the seed); on one seed they repeat bit-exactly.
    pub bound: f64,
    /// Simulated-time or count metric: identical on every run of one seed,
    /// so `perf compare` on same-seed files allows no worsening at all.
    pub exact: bool,
    pub why: &'static str,
}

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        exact: false,
        why: "datagen + oracle + CPU baseline + executor start, over the set-ups spread through a \
              run; work moved out of the timed span shows here",
    },
    EndToEnd {
        name: "wall_records_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        exact: false,
        why: "input records / host wall of run_app (serving-hook time subtracted on serve_mixed): \
              what the Rust hot paths cost",
    },
    EndToEnd {
        name: "sim_total_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.03,
        exact: true,
        why: "gpu_total_time(..).total: the simulated clock that reproduces the paper's figures",
    },
    EndToEnd {
        name: "sim_speedup_vs_cpu",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.03,
        exact: true,
        why: "simulated CPU / Phoenix++ baseline over sim_total_us, the Fig. 6 quantity; the repo \
              holds no per-dataset paper values, so the model is unvalidated at this granularity",
    },
    EndToEnd {
        name: "host_bytes_per_input_byte",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.05,
        exact: true,
        why: "host_footprint() bytes / input bytes: space the finished table takes in CPU memory",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
        exact: false,
        why: "VmHWM of the workload's process once the first timed repetition was checked: host \
              memory the simulator needs",
    },
];

/// A metric of one layer, reported by every workload in the traced run.
#[derive(Debug, Clone, Copy)]
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// `Some(0.0)`: a count or simulated time that repeats exactly on one
    /// seed; `Some(b)`: a wall-clock figure `perf compare` holds to bound
    /// `b`; `None`: a micro-timing or ratio reported for attribution only.
    pub bound: Option<f64>,
    /// The (user-visible metric, workload) pairs a change to this layer is
    /// predicted to move. `"*"` as the workload means every workload. Empty
    /// only for the user-visible read-side metrics themselves (see
    /// [`is_user_visible`]).
    pub moves: &'static [(&'static str, &'static str)],
    /// Workloads on which the prediction is *no change*.
    pub flat_on: &'static [&'static str],
}

/// The metrics of one layer (a module of this repo, or a few that act as
/// one): they share a prediction.
struct Group {
    moves: &'static [(&'static str, &'static str)],
    flat_on: &'static [&'static str],
    metrics: &'static [Metric],
}

/// Name, unit, direction, bound (see [`Layer::bound`]).
type Metric = (&'static str, &'static str, Better, Option<f64>);

use Better::{Higher, Lower};

const EXACT: Option<f64> = Some(0.0);
const WALL: Option<f64> = Some(0.25);
const INFO: Option<f64> = None;

const FIT: &str = "fit_skew";
const CHAIN: &str = "spill_chain";
const GUARDED: &str = "spill_guarded";
const SERVE: &str = "serve_mixed";
const NOT_SERVING: &[&str] = &[FIT, CHAIN, GUARDED];
const UNGUARDED: &[&str] = &[FIT, CHAIN, SERVE];

const WALL_RPS: &str = "wall_records_per_s";
const SIM: &str = "sim_total_us";

/// Layers are this repo's modules; the prefix of a name is the module.
const GROUPS: &[Group] = &[
    // datagen
    Group {
        moves: &[("setup_s", "*")],
        flat_on: &[],
        metrics: &[("datagen.gen_mb_per_s", "MB/s", Higher, INFO)],
    },
    // apps + mapreduce
    Group {
        moves: &[(WALL_RPS, FIT), (SIM, FIT)],
        flat_on: &[CHAIN],
        metrics: &[
            ("apps.emits", "count", Lower, EXACT),
            ("apps.ns_per_emit", "ns", Lower, INFO),
            ("apps.stream_bytes_per_record", "B", Lower, EXACT),
            ("apps.divergence_per_record", "count", Lower, EXACT),
            ("gpu_sim.cost.sim_compute_us", "us", Lower, EXACT),
            ("gpu_sim.cost.sim_stream_us", "us", Lower, EXACT),
            ("gpu_sim.cost.sim_divergence_us", "us", Lower, EXACT),
        ],
    },
    // core.hash
    Group {
        moves: &[(WALL_RPS, FIT)],
        flat_on: &[SERVE],
        metrics: &[("core.hash.fnv1a_gb_per_s", "GB/s", Higher, INFO)],
    },
    // core.table
    Group {
        moves: &[
            (WALL_RPS, CHAIN),
            (SIM, CHAIN),
            ("serve_wall_batch_p50_us", SERVE),
            ("serve_sim_query_p99_ns", SERVE),
            ("lookup_wall_queries_per_s", SERVE),
        ],
        flat_on: &[FIT],
        metrics: &[
            ("core.table.insert_new_ns", "ns", Lower, INFO),
            ("core.table.insert_dup_ns", "ns", Lower, INFO),
            ("core.table.probe_hit_ns", "ns", Lower, INFO),
            ("core.table.probe_miss_ns", "ns", Lower, INFO),
            ("core.table.chain_hops_per_emit", "count", Lower, EXACT),
            ("core.table.device_bytes_per_emit", "B", Lower, EXACT),
            ("core.table.load_factor", "ratio", Lower, EXACT),
            ("core.table.mean_chain", "count", Lower, EXACT),
            ("core.table.max_chain", "count", Lower, EXACT),
            ("core.table.hottest_bucket_touches", "count", Lower, EXACT),
            ("core.table.head_cas_retries", "count", Lower, EXACT),
            ("gpu_sim.cost.sim_irregular_us", "us", Lower, EXACT),
            ("gpu_sim.cost.sim_contention_us", "us", Lower, EXACT),
        ],
    },
    // core.combiner
    Group {
        moves: &[(WALL_RPS, FIT), (SIM, FIT)],
        flat_on: &[CHAIN, GUARDED, SERVE],
        metrics: &[
            ("core.combiner.hit_share", "ratio", Higher, EXACT),
            ("core.combiner.overflows_per_hit", "ratio", Lower, EXACT),
            ("core.combiner.flushes", "count", Lower, EXACT),
            ("core.combiner.emit_ns", "ns", Lower, INFO),
            ("core.combiner.smem_bytes_per_emit", "B", Lower, EXACT),
            ("gpu_sim.cost.sim_smem_us", "us", Lower, EXACT),
        ],
    },
    // alloc
    Group {
        moves: &[
            (WALL_RPS, CHAIN),
            (SIM, CHAIN),
            ("host_bytes_per_input_byte", CHAIN),
            (WALL_RPS, GUARDED),
            (SIM, GUARDED),
        ],
        flat_on: &[FIT],
        metrics: &[
            ("alloc.group.alloc_ns", "ns", Lower, INFO),
            ("alloc.group.postponed_share", "ratio", Lower, EXACT),
            ("alloc.heap.wasted_share", "ratio", Lower, EXACT),
            ("alloc.heap.pages_acquired", "count", Lower, EXACT),
            ("alloc.hostheap.pages", "count", Lower, EXACT),
        ],
    },
    // core.sepo (driver, bitmap)
    Group {
        moves: &[
            (WALL_RPS, CHAIN),
            (SIM, CHAIN),
            (WALL_RPS, GUARDED),
            (WALL_RPS, SERVE),
        ],
        flat_on: &[FIT],
        metrics: &[
            ("core.sepo.iterations", "count", Lower, EXACT),
            ("core.sepo.reissue_ratio", "ratio", Lower, EXACT),
            ("core.sepo.launches", "count", Lower, EXACT),
            ("core.sepo.iter_wall_ms_p50", "ms", Lower, INFO),
            ("core.sepo.iter_wall_ms_max", "ms", Lower, INFO),
            ("core.sepo.spill_overhead_ratio", "ratio", Lower, INFO),
        ],
    },
    // core.evict + core.integrity + gpu_sim.pcie
    Group {
        moves: &[(WALL_RPS, SERVE), (SIM, SERVE), (WALL_RPS, CHAIN)],
        flat_on: &[FIT],
        metrics: &[
            ("core.evict.bytes_per_input_byte", "ratio", Lower, EXACT),
            ("core.evict.pages", "count", Lower, EXACT),
            ("core.evict.kept_pages_max", "count", Lower, EXACT),
            ("core.evict.end_iteration_mb_per_s", "MB/s", Higher, INFO),
            ("core.integrity.crc32c_gb_per_s", "GB/s", Higher, INFO),
            ("core.integrity.pages_stamped", "count", Lower, EXACT),
            ("core.integrity.pages_verified", "count", Lower, EXACT),
            ("gpu_sim.pcie.bulk_transfers", "count", Lower, EXACT),
            ("gpu_sim.pcie.bulk_bytes", "B", Lower, EXACT),
            ("gpu_sim.cost.sim_transfer_us", "us", Lower, EXACT),
        ],
    },
    // guards: audit, sanitizer, scrub, transient faults
    Group {
        moves: &[(WALL_RPS, GUARDED)],
        flat_on: UNGUARDED,
        metrics: &[
            ("core.audit.tax_ratio", "ratio", Lower, INFO),
            ("gpu_sim.shadow.tax_ratio", "ratio", Lower, INFO),
            ("core.integrity.scrub_tax_ratio", "ratio", Lower, INFO),
            ("gpu_sim.faults.tax_ratio", "ratio", Lower, INFO),
            ("gpu_sim.faults.retries", "count", Lower, EXACT),
        ],
    },
    // guards: checkpoint (holds a snapshot, so memory too)
    Group {
        moves: &[(WALL_RPS, GUARDED), ("peak_rss_mb", GUARDED)],
        flat_on: UNGUARDED,
        metrics: &[
            ("core.checkpoint.tax_ratio", "ratio", Lower, INFO),
            ("core.checkpoint.taken", "count", Lower, EXACT),
            (
                "core.checkpoint.bytes_per_image_byte",
                "ratio",
                Lower,
                EXACT,
            ),
        ],
    },
    // guards: eviction pipe (changes the simulated clock too)
    Group {
        moves: &[(WALL_RPS, GUARDED), (SIM, GUARDED)],
        flat_on: UNGUARDED,
        metrics: &[
            ("gpu_sim.evict_pipe.tax_ratio", "ratio", Lower, INFO),
            ("gpu_sim.evict_pipe.sim_saved_share", "ratio", Higher, EXACT),
        ],
    },
    // gpu_sim.executor
    Group {
        moves: &[("serve_wall_batch_p50_us", SERVE)],
        flat_on: &[CHAIN],
        metrics: &[
            ("gpu_sim.executor.launches_per_s", "1/s", Higher, INFO),
            ("gpu_sim.executor.empty_task_ns", "ns", Lower, INFO),
        ],
    },
    // The read-side metrics a user sees on `serve_mixed`. The driver's
    // contract wants every end-to-end metric from every workload, and three
    // workloads serve no reads, so these ride in the per-layer list; `perf
    // compare` still holds them to a bound. They are targets of `moves`,
    // not layer metrics, so they move nothing themselves.
    Group {
        moves: &[],
        flat_on: NOT_SERVING,
        metrics: &[
            ("serve_wall_queries_per_s", "1/s", Higher, WALL),
            ("serve_wall_batch_p50_us", "us", Lower, WALL),
            ("serve_wall_batch_p95_us", "us", Lower, WALL),
            ("serve_sim_query_p99_ns", "ns", Lower, EXACT),
            ("lookup_wall_queries_per_s", "1/s", Higher, WALL),
        ],
    },
    // core.serve
    Group {
        moves: &[
            ("serve_wall_queries_per_s", SERVE),
            ("serve_wall_batch_p50_us", SERVE),
            ("serve_sim_query_p99_ns", SERVE),
            (WALL_RPS, SERVE),
        ],
        flat_on: NOT_SERVING,
        metrics: &[
            ("core.serve.batch_p99_us", "us", Lower, INFO),
            ("core.serve.device_answer_share", "ratio", Higher, EXACT),
            ("core.serve.dedup_ratio", "ratio", Lower, EXACT),
            ("core.serve.tax_ratio", "ratio", Lower, INFO),
            ("core.serve.sim_batch_us_p50", "us", Lower, EXACT),
        ],
    },
    // core.lookup
    Group {
        moves: &[("lookup_wall_queries_per_s", SERVE)],
        flat_on: NOT_SERVING,
        metrics: &[
            ("core.lookup.rounds", "count", Lower, EXACT),
            ("core.lookup.loaded_bytes_per_query", "B", Lower, EXACT),
            ("core.lookup.hit_share", "ratio", Higher, EXACT),
            ("core.lookup.partial_share", "ratio", Lower, EXACT),
        ],
    },
    // apps.sharded + core.shard
    Group {
        moves: &[(WALL_RPS, "*")],
        flat_on: &[],
        metrics: &[
            ("apps.sharded.wall_ratio_1", "ratio", Lower, INFO),
            ("apps.sharded.split_records_per_s", "1/s", Higher, INFO),
            ("apps.sharded.replication_ratio", "ratio", Lower, EXACT),
            ("apps.sharded.sim_speedup_4", "ratio", Higher, EXACT),
            ("core.shard.canonical_image_mb_per_s", "MB/s", Higher, INFO),
        ],
    },
    // baselines
    Group {
        moves: &[("sim_speedup_vs_cpu", "*"), ("setup_s", "*")],
        flat_on: &[],
        metrics: &[("baselines.cpu_sim_us", "us", Lower, EXACT)],
    },
    // host and gpu_sim.pool: interpretation only
    Group {
        moves: &[(WALL_RPS, "*")],
        flat_on: &[],
        metrics: &[
            ("gpu_sim.pool.parallel_speedup", "ratio", Higher, INFO),
            ("host.calib_mops", "1/us", Higher, INFO),
            ("host.noisy_reps", "count", Lower, INFO),
            ("host.trace_overhead_ratio", "ratio", Lower, INFO),
        ],
    },
];

/// Every per-layer metric, registry order.
pub fn per_layer() -> impl Iterator<Item = Layer> {
    GROUPS.iter().flat_map(|g| {
        g.metrics.iter().map(|&(name, unit, better, bound)| Layer {
            name,
            unit,
            better,
            bound,
            moves: g.moves,
            flat_on: g.flat_on,
        })
    })
}

/// A metric a user of the system sees: every end-to-end metric, plus the
/// per-layer entries named without a module prefix (the read-side metrics
/// of `serve_mixed`).
pub fn is_user_visible(name: &str) -> bool {
    END_TO_END.iter().any(|m| m.name == name)
        || per_layer().any(|m| m.name == name && !name.contains('.'))
}

/// Seconds one driver run measures for (`run_seconds` in `BENCHMARK.json`
/// and the default of `--seconds`).
pub const RUN_SECONDS: u64 = 20;

/// The registry as text, one metric a line: what each end-to-end metric is
/// and, for each per-layer metric, the prediction it is held to.
pub fn describe() -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for w in Workload::ALL {
        let _ = writeln!(out, "workload   {:<38} {}", w.name(), w.why());
    }
    for m in END_TO_END {
        let bound = if m.exact {
            format!("exact on one seed, {:.0}% across seeds", m.bound * 100.0)
        } else {
            format!("{:.0}%", m.bound * 100.0)
        };
        let _ = writeln!(
            out,
            "end_to_end {:<38} {:<6} {:<6} bound {bound}: {}",
            m.name,
            m.unit,
            m.better.label(),
            m.why
        );
    }
    for m in per_layer() {
        let kind = if is_user_visible(m.name) {
            "user"
        } else {
            "layer"
        };
        let moves: Vec<String> = m.moves.iter().map(|(e, w)| format!("{e}@{w}")).collect();
        let _ = writeln!(
            out,
            "{kind:<10} {:<38} {:<6} {:<6} moves [{}] flat on [{}]",
            m.name,
            m.unit,
            m.better.label(),
            moves.join(" "),
            m.flat_on.join(" ")
        );
    }
    out
}

/// Render `BENCHMARK.json` from the registry.
pub fn manifest() -> String {
    use serde_json::{json, Value};
    let workloads: Vec<Value> = Workload::ALL
        .iter()
        .map(|w| json!({ "name": w.name(), "why": w.why() }))
        .collect();
    let end_to_end: Vec<Value> = END_TO_END
        .iter()
        .map(|m| {
            json!({
                "name": m.name,
                "unit": m.unit,
                "better": m.better.label(),
                "bound": m.bound,
            })
        })
        .collect();
    let per_layer: Vec<Value> = per_layer()
        .map(|m| json!({ "name": m.name, "unit": m.unit, "better": m.better.label() }))
        .collect();
    let doc = json!({
        "command": [
            "cargo", "run", "--release", "--quiet", "--offline",
            "--manifest-path", "perf/Cargo.toml", "--", "run",
        ],
        "paths": ["perf"],
        "run_seconds": RUN_SECONDS,
        "workloads": workloads,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
    });
    let mut out = serde_json::to_string_pretty(&doc).expect("the stub serializer is total");
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_units_and_limits_meet_the_contract() {
        assert!((2..=8).contains(&Workload::ALL.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&per_layer().count()));
        let mut seen = std::collections::HashSet::new();
        for w in Workload::ALL {
            assert!(name_ok(w.name()), "{}", w.name());
            assert!(
                w.why().len() <= 200 && !w.why().contains('\n'),
                "{}",
                w.name()
            );
            assert!(seen.insert(w.name()), "{} used twice", w.name());
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        for m in END_TO_END {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(seen.insert(m.name), "{} used twice", m.name);
        }
        for m in per_layer() {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(seen.insert(m.name), "{} used twice", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, widest, "setup_s carries the largest bound");
        assert!(manifest().len() <= 64 * 1024);
    }

    #[test]
    fn every_layer_metric_declares_what_it_moves() {
        for m in per_layer() {
            assert_eq!(
                m.moves.is_empty(),
                is_user_visible(m.name),
                "{}: a layer metric moves something, a user-visible one is the target",
                m.name
            );
            for (metric, workload) in m.moves {
                assert!(
                    is_user_visible(metric),
                    "{}: {metric} is not a user-visible metric",
                    m.name
                );
                assert!(
                    *workload == "*" || Workload::parse(workload).is_some(),
                    "{}: unknown workload {workload}",
                    m.name
                );
            }
            for workload in m.flat_on {
                assert!(Workload::parse(workload).is_some(), "{}", m.name);
                assert!(
                    !m.moves.iter().any(|(_, w)| w == workload),
                    "{} both moves and is flat on {workload}",
                    m.name
                );
            }
        }
    }

    #[test]
    fn committed_manifest_matches_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            manifest(),
            "regenerate with `perf manifest > BENCHMARK.json`"
        );
    }
}
