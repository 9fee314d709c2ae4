//! Every table, figure and ablation of the evaluation (§VI), one function
//! per artifact.
//!
//! Figures 6 and 7, Table II and the hardware-sensitivity study all price
//! the same runs: the seven applications on the four Table I datasets at
//! the default device heap. [`Sweep`] executes that matrix once; the
//! functions that take a `&Sweep` only re-price its cells, and start no
//! SEPO or CPU-baseline run of their own. The other artifacts take the
//! scale divisor and run what they sweep.
//!
//! Each function returns an [`Artifact`]: the text the `paper` binary
//! prints and the JSON it writes to `results/<name>.json`. Nothing here
//! reads `SEPO_SCALE` or touches the filesystem, so the paper-claims test
//! asserts on exactly what the binary writes.

use crate::report::{fmt_bytes, fmt_speedup, BarChart, Table};
use crate::timing::{empty_hist, pinned_total_time, single_pass_gpu_time};
use crate::{cpu_total_time, device_heap, gpu_total_time, GpuTiming};
use gpu_sim::clock::SimTime;
use gpu_sim::cost::GpuCostModel;
use gpu_sim::executor::{ExecMode, Executor};
use gpu_sim::metrics::{ContentionHistogram, Metrics, Snapshot};
use gpu_sim::pcie::PcieBus;
use gpu_sim::pipeline::{pipelined_total, serial_total};
use gpu_sim::spec::SystemSpec;
use sepo_apps::{run_app, AppConfig, AppRun};
use sepo_baselines::stadium::{StadiumTable, KEY_CAP, SLOT_BYTES};
use sepo_baselines::{
    paging_lower_bounds, record_pvc_trace, run_cpu_app, run_mapcg, run_phoenix, run_pinned,
};
use sepo_core::config::{Combiner, Organization, TableConfig};
use sepo_core::sepo::{DriverConfig, SepoDriver, SepoOutcome, TaskResult};
use sepo_core::table::{InsertStatus, SepoTable};
use sepo_datagen::text::TextConfig;
use sepo_datagen::{weblog, App, Dataset, Rng, Zipf};
use serde_json::{json, Value};
use std::sync::{Arc, Mutex};

/// One paper artifact: what the `paper` binary prints, and what it writes
/// to `results/<name>.json`.
pub struct Artifact {
    pub text: String,
    pub json: Value,
}

/// What an artifact is computed from.
pub enum Input {
    /// The scale divisor: the artifact runs its own sweep.
    Scale(fn(u64) -> Artifact),
    /// The shared application × dataset [`Sweep`].
    Sweep(fn(&Sweep) -> Artifact),
}

/// Every artifact, by the name of its `results/` file, in the order the
/// `paper` binary runs them.
pub const ARTIFACTS: [(&str, Input); 12] = [
    ("table1", Input::Scale(table1)),
    ("figure6", Input::Sweep(figure6)),
    ("table2", Input::Sweep(table2)),
    ("figure7", Input::Sweep(figure7)),
    ("table3", Input::Scale(table3)),
    ("lookup_phase", Input::Scale(lookup_phase)),
    ("sensitivity", Input::Sweep(sensitivity)),
    ("related_stadium", Input::Scale(related_stadium)),
    ("ablation_group_size", Input::Scale(ablation_group_size)),
    ("ablation_threshold", Input::Scale(ablation_threshold)),
    ("ablation_wc_keys", Input::Scale(ablation_wc_keys)),
    ("ablation_pipeline", Input::Scale(ablation_pipeline)),
];

/// A fresh executor with its own metrics. Every run owns one, so its
/// numbers do not depend on what runs beside it.
fn executor() -> Executor {
    Executor::new(ExecMode::ParallelDeterministic, Arc::new(Metrics::new()))
}

/// Run `app` on the SEPO table and price it end to end under `spec`.
pub fn sepo_run(app: App, ds: &Dataset, cfg: &AppConfig, spec: &SystemSpec) -> (AppRun, GpuTiming) {
    let run = run_app(app, ds, cfg, &executor());
    let timing = gpu_total_time(&run.outcome, &run.table.full_contention_histogram(), spec);
    (run, timing)
}

/// The CPU baseline's events and contention profile for `app` on `ds`:
/// Phoenix++ for the MapReduce applications, the 8-thread shared hash
/// table for the stand-alone ones (§VI-B).
pub fn cpu_baseline(app: App, ds: &Dataset) -> (Snapshot, ContentionHistogram) {
    if App::MAPREDUCE.contains(&app) {
        let p = run_phoenix(app, ds);
        (p.snapshot, p.contention)
    } else {
        let b = run_cpu_app(app, ds);
        (b.snapshot, b.contention)
    }
}

/// What pricing needs of one application × dataset run; the table itself
/// is dropped as soon as the run ends.
pub struct Cell {
    pub outcome: SepoOutcome,
    /// The SEPO run's bucket and allocator contention.
    pub contention: ContentionHistogram,
    /// The CPU baseline's events and contention ([`cpu_baseline`]).
    pub cpu: (Snapshot, ContentionHistogram),
    pub input_bytes: u64,
    /// Bytes of the finished table in CPU memory.
    pub host_bytes: u64,
}

impl Cell {
    /// The SEPO run's simulated time under `spec`.
    pub fn gpu_time(&self, spec: &SystemSpec) -> GpuTiming {
        gpu_total_time(&self.outcome, &self.contention, spec)
    }

    /// The CPU baseline's simulated time under `spec`.
    pub fn cpu_time(&self, spec: &SystemSpec) -> SimTime {
        cpu_total_time(&self.cpu.0, &self.cpu.1, spec)
    }
}

/// The seven applications on the four Table I datasets, run once at one
/// scale with the default device heap.
pub struct Sweep {
    pub spec: SystemSpec,
    pub heap: u64,
    /// `App::ALL` order, datasets #1..#4 within each application.
    cells: Vec<Cell>,
}

impl Sweep {
    /// Run every cell. Cells are independent and each owns its executor,
    /// so they fan out on the shared worker pool with numbers that do not
    /// depend on the fan-out.
    pub fn run(scale: u64) -> Self {
        let spec = SystemSpec::scaled(scale);
        let heap = device_heap(&spec);
        let slots: Mutex<Vec<Option<Cell>>> =
            Mutex::new((0..App::ALL.len() * 4).map(|_| None).collect());
        gpu_sim::pool::scope(|s| {
            for (a, app) in App::ALL.into_iter().enumerate() {
                for idx in 0..4 {
                    let slots = &slots;
                    s.spawn(move || {
                        let ds = app.generate(idx, scale);
                        let run = run_app(app, &ds, &AppConfig::new(heap), &executor());
                        let cell = Cell {
                            contention: run.table.full_contention_histogram(),
                            host_bytes: run.table.host_footprint().1,
                            outcome: run.outcome,
                            cpu: cpu_baseline(app, &ds),
                            input_bytes: ds.size_bytes(),
                        };
                        slots.lock().expect("no sweep cell panicked")[a * 4 + idx] = Some(cell);
                    });
                }
            }
        });
        let cells = slots
            .into_inner()
            .expect("no sweep cell panicked")
            .into_iter()
            .map(|c| c.expect("every sweep cell computed"))
            .collect();
        Sweep { spec, heap, cells }
    }

    pub fn scale(&self) -> u64 {
        self.spec.scale
    }

    /// The run of `app` on dataset `#idx + 1`.
    pub fn cell(&self, app: App, idx: usize) -> &Cell {
        let a = App::ALL
            .iter()
            .position(|&x| x == app)
            .expect("App::ALL lists every app");
        &self.cells[a * 4 + idx]
    }
}

/// Table I — the paper's dataset ladder beside the scaled datasets the
/// generators produce, with record counts.
pub fn table1(scale: u64) -> Artifact {
    let mut table = Table::new(
        "Table I: input dataset sizes",
        &[
            "Application",
            "Dataset #1",
            "Dataset #2",
            "Dataset #3",
            "Dataset #4",
            "Generated (#1..#4, scaled)",
        ],
    );
    let mut rows = Vec::new();
    for app in App::ALL {
        let paper = app.table1_mb();
        let mut generated = Vec::new();
        let mut gen_cells = Vec::new();
        for idx in 0..4 {
            let ds = app.generate(idx, scale);
            gen_cells.push(format!("{} ({} rec)", fmt_bytes(ds.size_bytes()), ds.len()));
            generated.push(json!({
                "dataset": idx + 1,
                "bytes": ds.size_bytes(),
                "records": ds.len(),
            }));
        }
        let mut cells = vec![app.name().to_string()];
        cells.extend(
            paper
                .iter()
                .map(|&mb| format!("{:.1} GB", mb as f64 / 1000.0)),
        );
        cells.push(gen_cells.join(", "));
        table.row(cells);
        rows.push(json!({
            "app": app.name(),
            "paper_mb": paper,
            "generated": generated,
        }));
    }
    table.note(format!(
        "scale = 1/{scale}: generated sizes are paper sizes / {scale}"
    ));
    Artifact {
        text: table.render(),
        json: json!({ "scale": scale, "rows": rows }),
    }
}

/// Figure 6 — speedup over the CPU multi-threaded implementations, with
/// the SEPO iteration count on each bar. "For the last three, the
/// baseline is Phoenix++."
///
/// Expected shape: healthy speedups for Netflix, DNA Assembly, PVC, Patent
/// Citation and Geo Location; Inverted Index held back by warp divergence;
/// Word Count held back by duplicate-key contention; speedups degrade
/// gracefully (not collapse) as larger datasets force more SEPO
/// iterations. Figure 6 reports simulated time only.
pub fn figure6(sweep: &Sweep) -> Artifact {
    let spec = &sweep.spec;
    let scale = sweep.scale();
    let mut table = Table::new(
        "Figure 6: speedup over CPU multi-threaded implementation",
        &[
            "Application",
            "Dataset",
            "Input",
            "Iterations",
            "GPU (sim)",
            "CPU (sim)",
            "Speedup",
        ],
    );
    let mut rows = Vec::new();
    let mut speedups = Vec::new();
    let mut chart = BarChart::new("Figure 6 (rendered): speedup bars, iteration counts on top")
        .with_reference(1.0);
    for app in App::ALL {
        let mut bars = Vec::new();
        for idx in 0..4 {
            let cell = sweep.cell(app, idx);
            let gpu = cell.gpu_time(spec);
            let cpu = cell.cpu_time(spec);
            let speedup = cpu.ratio(gpu.total);
            speedups.push(speedup);
            table.row(vec![
                app.name().to_string(),
                format!("#{}", idx + 1),
                fmt_bytes(cell.input_bytes),
                gpu.iterations.to_string(),
                gpu.total.to_string(),
                cpu.to_string(),
                fmt_speedup(speedup),
            ]);
            bars.push((
                format!("#{}", idx + 1),
                speedup,
                format!("({} iter)", gpu.iterations),
            ));
            rows.push(json!({
                "app": app.name(),
                "dataset": idx + 1,
                "input_bytes": cell.input_bytes,
                "iterations": gpu.iterations,
                "gpu_seconds": gpu.total.as_secs_f64(),
                "gpu_kernel_seconds": gpu.kernel.as_secs_f64(),
                "gpu_transfer_seconds": gpu.transfers.as_secs_f64(),
                "gpu_contention_seconds": gpu.contention.as_secs_f64(),
                "cpu_seconds": cpu.as_secs_f64(),
                "speedup": speedup,
            }));
        }
        chart.group(app.name(), bars);
    }
    let avg = speedups.iter().sum::<f64>() / speedups.len() as f64;
    table.note(format!("scale = 1/{scale} (capacities and datasets)"));
    table.note(format!("device heap = {}", fmt_bytes(sweep.heap)));
    table.note(format!(
        "average speedup = {avg:.2} (paper reports 3.5 on average)"
    ));
    Artifact {
        text: format!("{}\n{}", chart.render(), table.render()),
        json: json!({
            "scale": scale,
            "average_speedup": avg,
            "rows": rows,
        }),
    }
}

/// Table II — speedup over MapCG on the smallest datasets (§VI-C), where
/// both runtimes fit in device memory: "the comparison with MapCG only
/// evaluates the efficiency of the basic design of our hash table,
/// including dynamic memory allocation and synchronization."
///
/// Paper results: Word Count 1.05X, Patent Citation 2.42X, Geo Location
/// 2.55X — parity where both runtimes are bucket-contention bound, a >2x
/// win where MapCG's centralized allocator serializes every insert.
pub fn table2(sweep: &Sweep) -> Artifact {
    let spec = &sweep.spec;
    let scale = sweep.scale();
    let paper = [1.05, 2.42, 2.55];
    let mut table = Table::new(
        "Table II: speedups over MapCG",
        &[
            "Application",
            "Input",
            "Ours (sim)",
            "MapCG (sim)",
            "Speedup",
            "Paper",
        ],
    );
    let mut rows = Vec::new();
    for (app, paper_x) in App::MAPREDUCE.into_iter().zip(paper) {
        let cell = sweep.cell(app, 0);
        let [iteration] = cell.outcome.iterations.as_slice() else {
            panic!("{}: Table II requires the in-memory regime", app.name());
        };
        // Both runtimes priced as one pass; only the hash-table design
        // differs.
        let ours = single_pass_gpu_time(
            &iteration.kernel,
            &cell.contention,
            cell.input_bytes,
            cell.host_bytes,
            spec,
        );
        let ds = app.generate(0, scale);
        let (mapcg_cell, speedup_cell, mapcg_secs, speedup) =
            match run_mapcg(app, &ds, sweep.heap, &executor()) {
                Ok(mc) => {
                    let t = single_pass_gpu_time(
                        &mc.snapshot,
                        &mc.contention,
                        cell.input_bytes,
                        mc.output_bytes,
                        spec,
                    ) + mc.alloc_serial;
                    let s = t.ratio(ours);
                    (t.to_string(), fmt_speedup(s), t.as_secs_f64(), s)
                }
                Err(e) => (format!("FAILED: {e}"), "-".into(), f64::NAN, f64::NAN),
            };
        table.row(vec![
            app.name().to_string(),
            fmt_bytes(cell.input_bytes),
            ours.to_string(),
            mapcg_cell,
            speedup_cell,
            fmt_speedup(paper_x),
        ]);
        rows.push(json!({
            "app": app.name(),
            "input_bytes": cell.input_bytes,
            "ours_seconds": ours.as_secs_f64(),
            "mapcg_seconds": mapcg_secs,
            "speedup": speedup,
            "paper_speedup": paper_x,
        }));
    }
    table.note(format!(
        "scale = 1/{scale}; smallest datasets (in-memory regime, SEPO inactive)"
    ));
    table.note(
        "MapCG modelled: in-memory-only KV store with a single centralized allocation pointer",
    );
    Artifact {
        text: table.render(),
        json: json!({ "scale": scale, "rows": rows }),
    }
}

/// Figure 7 — SEPO vs the pinned-CPU-memory heap on dataset #4 (§VI-D),
/// both as speedup over the CPU baseline. The paper finds the SEPO table
/// "still significantly outperforms the version that allocates the heap
/// in CPU pinned memory. Worse, in four out of seven applications, the CPU
/// pinned memory version … performs worse than the CPU-based
/// multi-threaded implementations" — every hash-table access becomes a
/// small PCIe transaction.
pub fn figure7(sweep: &Sweep) -> Artifact {
    let spec = &sweep.spec;
    let scale = sweep.scale();
    let mut table = Table::new(
        "Figure 7: speedups compared to the pinned version (dataset #4)",
        &[
            "Application",
            "SEPO iters",
            "SEPO speedup",
            "Pinned speedup",
            "SEPO/pinned",
        ],
    );
    let mut rows = Vec::new();
    let mut pinned_below_cpu = 0;
    let mut chart =
        BarChart::new("Figure 7 (rendered): speedup over the CPU baseline").with_reference(1.0);
    for app in App::ALL {
        let cell = sweep.cell(app, 3);
        let sepo_t = cell.gpu_time(spec);
        let cpu_t = cell.cpu_time(spec);
        let pinned = run_pinned(app, &app.generate(3, scale));
        let pinned_t =
            pinned_total_time(&pinned.snapshot, &pinned.contention, cell.input_bytes, spec);
        let sepo_speedup = cpu_t.ratio(sepo_t.total);
        let pinned_speedup = cpu_t.ratio(pinned_t);
        if pinned_speedup < 1.0 {
            pinned_below_cpu += 1;
        }
        table.row(vec![
            app.name().to_string(),
            sepo_t.iterations.to_string(),
            fmt_speedup(sepo_speedup),
            fmt_speedup(pinned_speedup),
            fmt_speedup(pinned_t.ratio(sepo_t.total)),
        ]);
        chart.group(
            app.name(),
            vec![
                (
                    "SEPO".into(),
                    sepo_speedup,
                    format!("({} iter)", sepo_t.iterations),
                ),
                ("pinned".into(), pinned_speedup, String::new()),
            ],
        );
        rows.push(json!({
            "app": app.name(),
            "iterations": sepo_t.iterations,
            "sepo_seconds": sepo_t.total.as_secs_f64(),
            "pinned_seconds": pinned_t.as_secs_f64(),
            "cpu_seconds": cpu_t.as_secs_f64(),
            "sepo_speedup": sepo_speedup,
            "pinned_speedup": pinned_speedup,
        }));
    }
    table.note(format!(
        "scale = 1/{scale}; dataset #4 for every application"
    ));
    table.note(format!(
        "pinned version slower than the CPU baseline for {pinned_below_cpu}/7 applications \
         (paper: 4/7)"
    ));
    Artifact {
        text: format!("{}\n{}", table.render(), chart.render()),
        json: json!({ "scale": scale, "pinned_below_cpu": pinned_below_cpu, "rows": rows }),
    }
}

/// Table III — demand-paging lower bound vs the SEPO hash table (§VI-D),
/// by the paper's method: record PVC's hash-table access pattern, replay
/// it through LRU page replacement for a descending ladder of assumed free
/// GPU memory, multiply replacements by page size for a lower-bound PCIe
/// transfer time, and beside it run PVC *with our hash table* given the
/// same memory.
///
/// Shape to reproduce: everything is 0 at full residency; as memory
/// shrinks the 1 MB-page column explodes, 4 KB pages are far cheaper but
/// still overtake the SEPO total once the table is ~1.5x larger than
/// memory, and the SEPO column grows only gently (1.22 s → 2.02 s in the
/// paper).
pub fn table3(scale: u64) -> Artifact {
    let spec = SystemSpec::scaled(scale);
    // The paper's trace populates a 1.2 GB table; dataset #4 of PVC at the
    // active scale produces the equivalent scaled table.
    let ds = App::PageViewCount.generate(3, scale);
    let (trace, table_bytes) = record_pvc_trace(&ds);
    // Memory ladder mirroring the paper's 1200 → 400 MB in steps of 100 MB,
    // expressed as fractions of the traced table footprint.
    let footprint = trace.footprint().max(1);
    let memories: Vec<u64> = (4..=12).rev().map(|i| footprint * i / 12).collect();
    // The paper's literal page sizes: 1 MB, 128 KB and the hardware 4 KB
    // page. Pages are physical constants and are NOT scaled — which is why
    // at high scale the 1 MB column thrashes catastrophically (it does at
    // paper scale too: 2148 s in the paper's last row).
    let page_sizes = [1_048_576, 131_072, 4_096];
    let bus = PcieBus::new(spec.pcie.clone(), Arc::new(Metrics::new()));
    let ladder = paging_lower_bounds(&trace, &memories, &page_sizes, &bus);

    let mut headers = vec!["Assumed GPU memory".to_string()];
    headers.extend(page_sizes.map(|p| format!("Transfer ({})", fmt_bytes(p))));
    headers.push("Total exec with our hash table".into());
    let headers: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut table = Table::new(
        "Table III: demand-paging lower-bound transfer time vs our hash table (PVC)",
        &headers,
    );
    let mut rows = Vec::new();
    for row in &ladder {
        let cfg = AppConfig::new(row.assumed_memory);
        let (_, sepo) = sepo_run(App::PageViewCount, &ds, &cfg, &spec);
        let mut cells = vec![fmt_bytes(row.assumed_memory)];
        cells.extend(row.transfer_times.iter().map(|(_, t)| t.to_string()));
        cells.push(format!("{} ({} iters)", sepo.total, sepo.iterations));
        table.row(cells);
        rows.push(json!({
            "assumed_memory_bytes": row.assumed_memory,
            "transfers": row.transfer_times.iter().map(|(ps, t)| {
                json!({ "page_size": ps, "seconds": t.as_secs_f64() })
            }).collect::<Vec<_>>(),
            "sepo_seconds": sepo.total.as_secs_f64(),
            "sepo_iterations": sepo.iterations,
        }));
    }
    table.note(format!(
        "scale = 1/{scale}; PVC dataset #4; traced table = {}",
        fmt_bytes(table_bytes)
    ));
    table.note("transfer times are lower bounds (wire time only), as in the paper");
    Artifact {
        text: table.render(),
        json: json!({ "scale": scale, "table_bytes": table_bytes, "rows": rows }),
    }
}

/// Extension — SEPO lookups on a larger-than-memory table. The paper
/// leaves lookup-side SEPO "to the reader as a mental exercise" (§IV-C);
/// `sepo_core::lookup` streams the host-resident table back through the
/// device heap in segments and completes pending queries as their keys
/// become resident. Sweeps the heap for a fixed PVC table and a
/// Zipf-skewed query mix: the lookup-side graceful-degradation story.
pub fn lookup_phase(scale: u64) -> Artifact {
    let spec = SystemSpec::scaled(scale);
    let ds = App::PageViewCount.generate(1, scale);
    let build_cfg = AppConfig::new(64 << 20);
    let build = run_app(App::PageViewCount, &ds, &build_cfg, &executor());
    let (_, table_bytes) = build.table.host_footprint();
    drop(build);

    // Zipf-skewed query mix over the URL universe (80% present, 20% absent).
    let mut rng = Rng::new(4242);
    let n_urls = ds.len() / 3; // matches the generator's derivation
    let zipf = Zipf::new(n_urls.max(1), 0.9);
    let owned: Vec<String> = (0..20_000)
        .map(|i| {
            if i % 5 == 4 {
                format!("http://absent.example.com/{i}")
            } else {
                weblog::url(zipf.sample(&mut rng))
            }
        })
        .collect();
    let queries: Vec<&[u8]> = owned.iter().map(|s| s.as_bytes()).collect();

    let gpu = GpuCostModel::new(spec.device.clone());
    let bus = PcieBus::new(spec.pcie.clone(), Arc::new(Metrics::new()));
    let mut table = Table::new(
        "Extension: SEPO lookup phase vs device-heap size (PVC table)",
        &["Heap / table", "Rounds", "Paged-in", "Hits", "Sim time"],
    );
    let mut rows = Vec::new();
    for divisor in [1u64, 2, 4, 8] {
        let heap = (table_bytes / divisor).max(64 * 1024);
        // Rebuild the table with this heap so the lookup phase stages
        // through it (contents identical; the build side may iterate).
        let exec = executor();
        let run = run_app(App::PageViewCount, &ds, &AppConfig::new(heap), &exec);
        let out = run.table.lookup_phase(&exec, &queries);
        // Per round: the paged-in transfer overlapped with the lookup
        // kernel, plus a launch.
        let total = out.rounds.iter().fold(SimTime::ZERO, |acc, r| {
            let load = bus.bulk_transfer_time(r.loaded_bytes);
            let kernel = gpu.kernel_time(&r.kernel, &empty_hist());
            acc + load.max(kernel) + SimTime::from_nanos(1_200)
        });
        table.row(vec![
            format!("{} / {}", fmt_bytes(heap), fmt_bytes(table_bytes)),
            out.n_rounds().to_string(),
            fmt_bytes(out.total_loaded_bytes()),
            format!("{}/{}", out.hits(), queries.len()),
            total.to_string(),
        ]);
        rows.push(json!({
            "heap_bytes": heap,
            "rounds": out.n_rounds(),
            "loaded_bytes": out.total_loaded_bytes(),
            "hits": out.hits(),
            "sim_seconds": total.as_secs_f64(),
        }));
    }
    table.note(format!(
        "scale = 1/{scale}; 20k Zipf-skewed queries, 20% absent"
    ));
    table.note("queries postpone until their table segment is paged in (SS IV-C mental exercise)");
    Artifact {
        text: table.render(),
        json: json!({ "scale": scale, "rows": rows }),
    }
}

/// A named hardware variant: how it changes the paper testbed's spec.
type Variant = (&'static str, fn(&mut SystemSpec));

/// Extension — hardware sensitivity of the SEPO trade-off. Re-prices the
/// sweep's PVC #2 (one pass) and DNA #4 (heavily oversubscribed) runs
/// under a Pascal-class GPU and a ladder of interconnects; event counts do
/// not depend on the hardware. Measured shape: a faster GPU alone moves
/// almost nothing (these kernels are memory- and transfer-bound); a faster
/// interconnect helps dramatically where transfers dominate (PVC: +82% at
/// NVLink-class rates) and modestly where device-memory traffic dominates
/// (DNA: +10%).
pub fn sensitivity(sweep: &Sweep) -> Artifact {
    let scale = sweep.scale();
    let cases = [(App::PageViewCount, 1), (App::DnaAssembly, 3)];
    let variants: [Variant; 5] = [
        ("paper testbed (GTX 780ti, PCIe3 x16)", |_| {}),
        ("Pascal-class GPU (2x compute, same bus)", |s| {
            s.device.cores = 3_584;
            s.device.clock_hz = 1_600_000_000;
            s.device.mem_bandwidth = 320_000_000_000;
        }),
        ("PCIe4 x16 bus (2x bulk bandwidth)", |s| {
            s.pcie.bulk_bandwidth *= 2;
            s.pcie.small_bandwidth *= 2;
        }),
        ("PCIe5-class bus (4x)", |s| {
            s.pcie.bulk_bandwidth *= 4;
            s.pcie.small_bandwidth *= 4;
            s.pcie.transaction_latency_ns /= 2;
        }),
        ("NVLink-class interconnect (8x, low latency)", |s| {
            s.pcie.bulk_bandwidth *= 8;
            s.pcie.small_bandwidth *= 8;
            s.pcie.transaction_latency_ns /= 4;
        }),
    ];
    let mut table = Table::new(
        "Extension: hardware sensitivity (same runs, re-priced)",
        &[
            "Hardware variant",
            "PVC #2 speedup (1 pass)",
            "DNA #4 speedup (multi-iter)",
        ],
    );
    let mut rows = Vec::new();
    for (name, apply) in variants {
        let mut spec = sweep.spec.clone();
        apply(&mut spec);
        let mut cells = vec![name.to_string()];
        let mut row = serde_json::Map::new();
        row.insert("variant".into(), name.into());
        for (app, idx) in cases {
            let cell = sweep.cell(app, idx);
            let gpu = cell.gpu_time(&spec);
            let s = cell.cpu_time(&spec).ratio(gpu.total);
            cells.push(format!("{} ({} iter)", fmt_speedup(s), gpu.iterations));
            row.insert(format!("{}_speedup", app.name()), json!(s));
        }
        table.row(cells);
        rows.push(Value::Object(row));
    }
    table.note(format!(
        "scale = 1/{scale}; identical executions, only the cost-model rates change"
    ));
    table.note("faster GPUs alone move nothing; faster buses move transfer-bound apps (PVC) far more than device-memory-bound ones (DNA)");
    Artifact {
        text: table.render(),
        json: json!({ "scale": scale, "rows": rows }),
    }
}

/// Related work (§VII) — Stadium hashing vs the SEPO table on PVC #2.
/// "Unlike our solution, neither Stadium hashing nor Mega-KV handle
/// key-value pairs with duplicate keys … They both store pairs with
/// duplicate keys as if they are pairs with different keys." A
/// Stadium-like table stores one fixed-size pinned-CPU slot per
/// *occurrence* and pays a small PCIe transaction per insert; the SEPO
/// table combines occurrences in device memory and ships a compact table
/// once.
pub fn related_stadium(scale: u64) -> Artifact {
    let spec = SystemSpec::scaled(scale);
    let heap = device_heap(&spec);
    let ds = App::PageViewCount.generate(1, scale);
    let n_requests = ds.len();

    // SEPO: combine on the fly, ship once.
    let (run, sepo_time) = sepo_run(App::PageViewCount, &ds, &AppConfig::new(heap), &spec);
    let (_, sepo_bytes) = run.table.host_footprint();
    let distinct = run.table.collect_combining().len();

    // Stadium: one slot per occurrence, the capacity sized for every
    // occurrence at load factor 0.7 — the design cannot know duplicates
    // will collapse.
    let st_metrics = Arc::new(Metrics::new());
    let st = StadiumTable::new((n_requests as f64 / 0.7) as usize, Arc::clone(&st_metrics));
    let mut stored = 0u64;
    for rec in ds.records() {
        if let Some(url) = weblog::parse_url(rec) {
            if url.len() <= KEY_CAP && st.insert(url, 1).is_ok() {
                stored += 1;
            }
        }
    }
    // Index probes at device rates, slot writes as small PCIe.
    let gpu = GpuCostModel::new(spec.device.clone());
    let bus = PcieBus::new(spec.pcie.clone(), Arc::new(Metrics::new()));
    let snap = st_metrics.snapshot();
    let st_kernel = gpu.kernel_time(&snap, &empty_hist());
    let st_remote =
        bus.small_transactions_time(snap.pcie_small_transactions, snap.pcie_small_bytes, 96);
    let st_time = bus.bulk_transfer_time(ds.size_bytes()).max(st_kernel) + st_remote;

    let mut table = Table::new(
        "Related work (SS VII): Stadium-hashing-like table vs the SEPO table (PVC inserts)",
        &["", "SEPO table", "Stadium-like"],
    );
    let rows: [[String; 3]; 6] = [
        [
            "items stored".into(),
            format!("{distinct} combined entries"),
            format!("{stored} slots (one per occurrence)"),
        ],
        [
            "host memory".into(),
            fmt_bytes(sepo_bytes),
            fmt_bytes(st.host_bytes()),
        ],
        [
            "device memory".into(),
            fmt_bytes(heap),
            format!("{} (fingerprint board)", fmt_bytes(st.device_bytes())),
        ],
        [
            "small PCIe transactions".into(),
            "0 (bulk evictions only)".into(),
            snap.pcie_small_transactions.to_string(),
        ],
        [
            "grouping / combining".into(),
            "on the fly".into(),
            "none (post-pass required)".into(),
        ],
        [
            "sim time (insert phase)".into(),
            sepo_time.total.to_string(),
            st_time.to_string(),
        ],
    ];
    for row in rows {
        table.row(row.to_vec());
    }
    table.note(format!(
        "scale = 1/{scale}; PVC dataset #2: {n_requests} requests over {distinct} distinct URLs"
    ));
    table.note(format!(
        "Stadium's fixed {SLOT_BYTES}-byte slots + per-occurrence storage cost {:.1}x the SEPO table's host bytes",
        st.host_bytes() as f64 / sepo_bytes.max(1) as f64
    ));
    Artifact {
        text: table.render(),
        json: json!({
            "scale": scale,
            "requests": n_requests,
            "distinct": distinct,
            "sepo_host_bytes": sepo_bytes,
            "stadium_host_bytes": st.host_bytes(),
            "stadium_small_transactions": snap.pcie_small_transactions,
            "sepo_seconds": sepo_time.total.as_secs_f64(),
            "stadium_seconds": st_time.as_secs_f64(),
        }),
    }
}

/// Ablation A — the bucket-group size trade-off (§IV-A): "having several
/// pages to allocate memory from improves the performance of the memory
/// allocator, it increases the potential for memory fragmentation".
/// Sweeps buckets per group for PVC #3: small groups minimise allocator
/// contention but strand partly filled pages; one giant group is the
/// MapCG-like case whose single pointer serializes every allocation.
pub fn ablation_group_size(scale: u64) -> Artifact {
    let spec = SystemSpec::scaled(scale);
    let heap = device_heap(&spec);
    let ds = App::PageViewCount.generate(2, scale);
    // Fine 4 KiB pages give the scaled heap a page population comparable
    // (relative to group counts) to the paper's GB-scale heap.
    let base =
        TableConfig::tuned(Organization::Combining(Combiner::Add), heap).with_page_size(4096);
    let n_buckets = base.n_buckets;
    let n_pages = heap as usize / 4096;

    let mut table = Table::new(
        "Ablation A (SS IV-A): bucket-group size vs contention and fragmentation",
        &[
            "Buckets/group",
            "Groups",
            "Iterations",
            "Wasted bytes",
            "Contention",
            "Total (sim)",
        ],
    );
    let mut rows = Vec::new();
    for target_groups in [n_pages / 2, n_pages / 4, 64, 16, 4, 1] {
        let bpg = n_buckets.div_ceil(target_groups.max(1));
        let cfg = base.clone().with_buckets_per_group(bpg);
        let groups = cfg.n_groups();
        let app_cfg = AppConfig::new(heap).with_table(cfg);
        let (run, t) = sepo_run(App::PageViewCount, &ds, &app_cfg, &spec);
        let wasted = run.table.heap().stats().wasted_bytes;
        table.row(vec![
            bpg.to_string(),
            groups.to_string(),
            t.iterations.to_string(),
            fmt_bytes(wasted),
            t.contention.to_string(),
            t.total.to_string(),
        ]);
        rows.push(json!({
            "buckets_per_group": bpg,
            "groups": groups,
            "iterations": t.iterations,
            "wasted_bytes": wasted,
            "contention_seconds": t.contention.as_secs_f64(),
            "total_seconds": t.total.as_secs_f64(),
        }));
    }
    table.note(format!(
        "scale = 1/{scale}; PVC dataset #3; heap = {}",
        fmt_bytes(heap)
    ));
    table.note("fewer groups -> less fragmentation waste but one hotter allocation pointer");
    Artifact {
        text: table.render(),
        json: json!({ "scale": scale, "rows": rows }),
    }
}

/// A basic-method workload: store every request line keyed by URL (no
/// grouping — e.g. building a raw request index).
fn run_basic(ds: &Dataset, heap: u64, threshold: f64) -> (SepoOutcome, SepoTable, Arc<Metrics>) {
    let metrics = Arc::new(Metrics::new());
    let exec = Executor::new(ExecMode::ParallelDeterministic, Arc::clone(&metrics));
    let cfg = TableConfig::tuned(Organization::Basic, heap).with_halt_threshold(threshold);
    let table = SepoTable::new(cfg, heap, Arc::clone(&metrics));
    let outcome = SepoDriver::new(&table, &exec)
        .with_config(DriverConfig {
            chunk_tasks: 2048,
            ..DriverConfig::default()
        })
        .run(
            ds.len(),
            |t| ds.record_bytes(t),
            |t, _start, lane| {
                use gpu_sim::Charge;
                let rec = ds.record(t);
                lane.compute(6 * rec.len() as u64);
                let Some(url) = weblog::parse_url(rec) else {
                    return TaskResult::Done;
                };
                match table.insert_basic(url, rec, lane) {
                    InsertStatus::Success => TaskResult::Done,
                    InsertStatus::Postponed => TaskResult::Postponed { next_pair: 0 },
                }
            },
        );
    (outcome, table, metrics)
}

/// Ablation B — the basic method's halt threshold (§IV-C): "the
/// computation is allowed to continue until the requests from 50% of the
/// bucket groups are being postponed". A low threshold halts eagerly (many
/// short iterations, each paying the fixed eviction and restart cost); a
/// high one drags each pass to the end of the input while most inserts
/// postpone.
pub fn ablation_threshold(scale: u64) -> Artifact {
    let spec = SystemSpec::scaled(scale);
    let heap = device_heap(&spec);
    // The basic method stores every record: the table is about as large as
    // the input, so an input a few times the heap exercises the halt
    // policy.
    let ds = weblog::generate(
        &weblog::WeblogConfig {
            target_bytes: heap * 3,
            ..Default::default()
        },
        2024,
    );
    let mut table = Table::new(
        "Ablation B (SS IV-C): basic-method halt threshold",
        &[
            "Threshold",
            "Iterations",
            "Early halts",
            "Re-streamed input",
            "Postponed inserts",
            "Total (sim)",
        ],
    );
    let mut rows = Vec::new();
    for threshold in [0.05, 0.25, 0.5, 0.75, 1.0] {
        let (outcome, t, metrics) = run_basic(&ds, heap, threshold);
        let timing = gpu_total_time(&outcome, &t.full_contention_histogram(), &spec);
        let halts = outcome.iterations.iter().filter(|i| i.halted_early).count();
        let restreamed = outcome.total_input_bytes().saturating_sub(ds.size_bytes());
        let postponed = metrics.snapshot().alloc_postponed;
        table.row(vec![
            format!("{:.0}%", threshold * 100.0),
            timing.iterations.to_string(),
            halts.to_string(),
            fmt_bytes(restreamed),
            postponed.to_string(),
            timing.total.to_string(),
        ]);
        rows.push(json!({
            "threshold": threshold,
            "iterations": timing.iterations,
            "early_halts": halts,
            "restreamed_bytes": restreamed,
            "postponed": postponed,
            "total_seconds": timing.total.as_secs_f64(),
        }));
    }
    table.note(format!(
        "scale = 1/{scale}; basic-method web-log store, input = 3x heap ({})",
        fmt_bytes(ds.size_bytes())
    ));
    table.note("the paper runs with 50%: low thresholds churn iterations, high ones waste postponed passes");
    Artifact {
        text: table.render(),
        json: json!({ "scale": scale, "rows": rows }),
    }
}

/// Ablation C — Word Count's distinct-key sensitivity (§VI-B): "when we
/// artificially increased the number of distinct keys in the input
/// dataset of Word Count … performance quickly improved." Sweeps the
/// vocabulary at the dataset #2 volume: larger vocabularies spread the
/// combining atomics over more buckets. Phoenix++ (thread-local maps) is
/// nearly insensitive to the vocabulary — the paper's implied control.
pub fn ablation_wc_keys(scale: u64) -> Artifact {
    let spec = SystemSpec::scaled(scale);
    let heap = device_heap(&spec);
    let input_bytes = App::WordCount.dataset_bytes(1, scale);
    let mut table = Table::new(
        "Ablation C (SS VI-B): Word Count distinct-key sensitivity",
        &[
            "Vocabulary",
            "GPU contention",
            "GPU (sim)",
            "Phoenix++ (sim)",
            "Speedup",
        ],
    );
    let mut rows = Vec::new();
    for vocab in [500usize, 2_000, 8_000, 32_000, 128_000] {
        let text = TextConfig {
            target_bytes: input_bytes,
            vocab_size: vocab,
            ..Default::default()
        };
        let ds = sepo_datagen::text::generate(&text, 777);
        let (_, gpu) = sepo_run(App::WordCount, &ds, &AppConfig::new(heap), &spec);
        let (snapshot, contention) = cpu_baseline(App::WordCount, &ds);
        let cpu = cpu_total_time(&snapshot, &contention, &spec);
        let speedup = cpu.ratio(gpu.total);
        table.row(vec![
            vocab.to_string(),
            gpu.contention.to_string(),
            gpu.total.to_string(),
            cpu.to_string(),
            fmt_speedup(speedup),
        ]);
        rows.push(json!({
            "vocab": vocab,
            "gpu_contention_seconds": gpu.contention.as_secs_f64(),
            "gpu_seconds": gpu.total.as_secs_f64(),
            "cpu_seconds": cpu.as_secs_f64(),
            "speedup": speedup,
        }));
    }
    table.note(format!(
        "scale = 1/{scale}; fixed input volume (dataset #2), vocabulary swept"
    ));
    table.note("paper: 'performance quickly improved' as distinct keys were added");
    Artifact {
        text: table.render(),
        json: json!({ "scale": scale, "rows": rows }),
    }
}

/// The simulated time of a run's iterations: per iteration, its chunk
/// uploads and kernels composed pipelined and serially, and its boundary
/// eviction.
fn iteration_schedule(run: &AppRun, spec: &SystemSpec) -> Vec<(SimTime, SimTime, SimTime)> {
    let gpu = GpuCostModel::new(spec.device.clone());
    let bus = PcieBus::new(spec.pcie.clone(), Arc::new(Metrics::new()));
    run.outcome
        .iterations
        .iter()
        .map(|iter| {
            let k = gpu.kernel_time(&iter.kernel, &empty_hist());
            let chunks = iter.chunks.max(1) as usize;
            let uploads = vec![bus.bulk_transfer_time(iter.input_bytes / chunks as u64); chunks];
            let kernels = vec![k / chunks as u64; chunks];
            let evict = if iter.evict.evicted_bytes > 0 {
                bus.bulk_transfer_time(iter.evict.evicted_bytes)
            } else {
                SimTime::ZERO
            };
            (
                pipelined_total(&uploads, &kernels),
                serial_total(&uploads, &kernels),
                evict,
            )
        })
        .collect()
}

/// `saved` as text with its share of `serial`.
fn fmt_saved(saved: SimTime, serial: SimTime) -> String {
    format!(
        "{saved} ({:.0}%)",
        100.0 * saved.as_secs_f64() / serial.as_secs_f64().max(1e-12)
    )
}

/// Ablation D — BigKernel-style transfer/compute overlap (§V, \[10\]).
/// Re-prices the same PVC #4 runs with and without double-buffered input
/// uploads across chunk sizes (tiny chunks amortize poorly over
/// per-transfer latency; huge chunks leave nothing to overlap). A second
/// table prices the eviction direction the same way: each iteration's
/// segment composed with its boundary eviction either strictly
/// alternating or with the eviction draining behind the next segment (how
/// a run with `--evict-overlap on` is priced).
pub fn ablation_pipeline(scale: u64) -> Artifact {
    let spec = SystemSpec::scaled(scale);
    let heap = device_heap(&spec);
    // A heap tight enough to force several mid-run eviction boundaries (a
    // heap that fits everything only evicts at the final boundary, which
    // has no following segment to hide behind).
    let tight_heap = heap / 64;
    let ds = App::PageViewCount.generate(3, scale);
    let run_with = |heap: u64, chunk_tasks: usize| {
        let mut cfg = AppConfig::new(heap);
        cfg.driver.chunk_tasks = chunk_tasks;
        let run = run_app(App::PageViewCount, &ds, &cfg, &executor());
        let schedule = iteration_schedule(&run, &spec);
        (run, schedule)
    };
    let mut table = Table::new(
        "Ablation D (SS V): BigKernel pipelining benefit (PVC dataset #4)",
        &[
            "Chunk (tasks)",
            "Chunks",
            "Pipelined (sim)",
            "Serial (sim)",
            "Saved",
        ],
    );
    let mut evict_table = Table::new(
        "Ablation D2 (SS V): eviction-direction overlap benefit (PVC dataset #4)",
        &[
            "Chunk (tasks)",
            "Boundaries",
            "Overlapped (sim)",
            "Serial (sim)",
            "Saved",
        ],
    );
    let mut rows = Vec::new();
    let mut evict_rows = Vec::new();
    for chunk_tasks in [1usize << 10, 1 << 12, 1 << 14, 1 << 16] {
        let (run, schedule) = run_with(heap, chunk_tasks);
        let n_chunks: u32 = run.outcome.iterations.iter().map(|i| i.chunks).sum();
        let piped = schedule.iter().fold(SimTime::ZERO, |acc, s| acc + s.0);
        let serial = schedule.iter().fold(SimTime::ZERO, |acc, s| acc + s.1);
        table.row(vec![
            chunk_tasks.to_string(),
            n_chunks.to_string(),
            piped.to_string(),
            serial.to_string(),
            fmt_saved(serial - piped, serial),
        ]);
        rows.push(json!({
            "chunk_tasks": chunk_tasks,
            "chunks": n_chunks,
            "pipelined_seconds": piped.as_secs_f64(),
            "serial_seconds": serial.as_secs_f64(),
        }));

        // Whole iteration segments are the "transfer" lane and boundary
        // evictions the "compute" lane of the same recurrence.
        let (_, schedule) = run_with(tight_heap, chunk_tasks);
        let segments: Vec<SimTime> = schedule.iter().map(|s| s.0).collect();
        let evictions: Vec<SimTime> = schedule.iter().map(|s| s.2).collect();
        let boundaries = evictions.iter().filter(|e| **e > SimTime::ZERO).count();
        let overlapped = pipelined_total(&segments, &evictions);
        let serial = serial_total(&segments, &evictions);
        evict_table.row(vec![
            chunk_tasks.to_string(),
            boundaries.to_string(),
            overlapped.to_string(),
            serial.to_string(),
            fmt_saved(serial - overlapped, serial),
        ]);
        evict_rows.push(json!({
            "chunk_tasks": chunk_tasks,
            "eviction_boundaries": boundaries,
            "pipelined_seconds": overlapped.as_secs_f64(),
            "serial_seconds": serial.as_secs_f64(),
        }));
    }
    table.note(format!(
        "scale = 1/{scale}; transfer/kernel schedule re-priced with and without overlap"
    ));
    evict_table.note(format!(
        "heap tightened to 1/64 to force mid-run boundaries; eviction DMA \
         priced as overlapped (drained behind the next iteration's segment) \
         vs strictly alternating; heap = {tight_heap} B"
    ));
    Artifact {
        text: format!("{}\n{}", table.render(), evict_table.render()),
        json: json!({
            "scale": scale,
            "rows": rows,
            "eviction_rows": evict_rows,
        }),
    }
}
