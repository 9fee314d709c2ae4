//! `perf` — the repo benchmark.
//!
//! ```text
//! perf run [--workload W] [--seed N] [--seconds S] [--reps N]
//!          [--trace 0|1] [--quick]
//! perf compare A B
//! perf manifest        # BENCHMARK.json, rendered from the registry
//! perf metrics         # every metric: unit, direction, bound, prediction
//! ```
//!
//! `run` generates a workload's inputs from `--seed`, runs it, checks every
//! output against the apps' `reference()` oracles, and prints every metric
//! as a `<workload> <metric> <value> <unit>` line, then one JSON object
//! (`correct`, `attempted`, `failed`, `metrics`) as the last line. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` the run
//! records spans around each call into a layer, reports the per-layer ones,
//! and writes the spans as JSON lines to `perf-trace/<workload>.jsonl`
//! beside the executable (under the build's target directory, so never
//! committed). Without `--workload`, each workload runs in a child process
//! of its own, so `peak_rss_mb` is per workload.
//!
//! See `README.md` beside this package for the metric and workload tables.

mod compare;
mod layers;
mod measure;
mod report;
mod run;
mod serve;
mod setup;
mod spec;
mod stats;
mod trace;
mod verify;

use report::Report;
use run::Options;
use spec::Workload;
use std::path::PathBuf;
use std::process::ExitCode;

struct RunArgs {
    workload: Option<Workload>,
    opts: Options,
    trace: bool,
}

fn usage() -> String {
    "usage: perf run [--workload W] [--seed N] [--seconds S] [--reps N] [--trace 0|1] [--quick]\n       perf compare A B\n       perf manifest\n       perf metrics"
        .to_string()
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut out = RunArgs {
        workload: None,
        opts: Options {
            seed: 1,
            seconds: spec::RUN_SECONDS as f64,
            reps: None,
            quick: false,
        },
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            out.opts.quick = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        let number = |what: &str| format!("{flag}: {value:?} is not {what}");
        match flag.as_str() {
            "--workload" => {
                out.workload = Some(Workload::parse(value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?}; one of {}", names.join(", "))
                })?);
            }
            "--seed" => out.opts.seed = value.parse().map_err(|_| number("a seed"))?,
            "--seconds" => {
                out.opts.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| number("a number of seconds"))?;
            }
            "--reps" => {
                out.opts.reps = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|&n: &usize| n >= 1)
                        .ok_or_else(|| number("a repetition count"))?,
                );
            }
            "--trace" => {
                out.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(number("0 or 1")),
                };
            }
            _ => return Err(format!("unknown flag {flag}\n{}", usage())),
        }
    }
    Ok(out)
}

fn trace_path(w: Workload) -> PathBuf {
    let dir = std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(PathBuf::from))
        .unwrap_or_else(|| PathBuf::from("target"));
    dir.join("perf-trace").join(format!("{}.jsonl", w.name()))
}

/// Output of a helper command's first line, or "unknown".
fn first_line_of(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// One `# host {json}` line: what a reader needs to interpret the numbers.
fn host_stamp(w: Workload, opts: &Options) -> String {
    let stamp = serde_json::json!({
        "schema_version": 1u64,
        "git_rev": first_line_of("git", &["rev-parse", "--short", "HEAD"]),
        "rustc": first_line_of("rustc", &["-V"]),
        "available_parallelism": sepo_bench::host_parallelism(),
        "single_cpu_warning": sepo_bench::single_cpu_warning("perf"),
        "calib_mops": stats::Calibrator::new().mops(),
        "workload": w.name(),
        "seed": opts.seed,
        "scale": w.scale(opts.quick),
        "quick": opts.quick,
    });
    let text = serde_json::to_string(&stamp).expect("the stub serializer is total");
    format!("# host {text}")
}

fn run_one(w: Workload, args: &RunArgs) -> ExitCode {
    println!("{}", host_stamp(w, &args.opts));
    let report: Report = if args.trace {
        layers::per_layer(w, &args.opts, &trace_path(w))
    } else {
        measure::end_to_end(w, &args.opts)
    };
    print!("{}", report.render());
    if report.tally.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Every workload, each in a child process of its own.
fn run_all(raw: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot find this executable to start the workloads: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut failed = false;
    for w in Workload::ALL {
        let status = std::process::Command::new(&exe)
            .arg("run")
            .args(raw)
            .args(["--workload", w.name()])
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("{}: {s}", w.name());
                failed = true;
            }
            Err(e) => {
                eprintln!("{}: could not start: {e}", w.name());
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => match parse_run(&args[1..]) {
            Ok(parsed) => match parsed.workload {
                Some(w) => run_one(w, &parsed),
                None => run_all(&args[1..]),
            },
            Err(e) => {
                eprintln!("{e}");
                ExitCode::from(2)
            }
        },
        Some("compare") if args.len() == 3 => compare::run(&args[1], &args[2]),
        Some("manifest") => {
            print!("{}", spec::manifest());
            ExitCode::SUCCESS
        }
        Some("metrics") => {
            print!("{}", spec::describe());
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!("{}", usage());
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use report::Kind;
    use setup::Guards;

    /// The `--quick` smoke: every workload, end to end and traced, at the
    /// repo's regression scale with one repetition. Checks the correctness
    /// gate, that every registered metric is reported, and that the "flat
    /// on" predictions hold at baseline.
    #[test]
    fn quick_smoke_runs_every_workload_end_to_end_and_traced() {
        let opts = Options {
            seed: 1,
            seconds: 0.0,
            reps: Some(1),
            quick: true,
        };
        for w in Workload::ALL {
            let e2e = measure::end_to_end(w, &opts);
            assert!(e2e.tally.attempted > 0, "{}", w.name());
            assert_eq!(e2e.tally.failed, 0, "{}", w.name());
            e2e.render(); // panics on a metric never reported
            for (name, _) in Kind::EndToEnd.metrics() {
                assert!(e2e.get(name).unwrap() > 0.0, "{} {name} is 0", w.name());
            }

            let trace = trace_path(w).with_extension("test.jsonl");
            let layers = layers::per_layer(w, &opts, &trace);
            assert_eq!(layers.tally.failed, 0, "{}", w.name());
            layers.render();
            let zero = |name: &str| assert_eq!(layers.get(name), Some(0.0), "{} {name}", w.name());
            if w == Workload::FitSkew {
                assert_eq!(layers.get("core.sepo.iterations"), Some(1.0));
                assert!(layers.get("core.combiner.hit_share").unwrap() > 0.0);
                assert!(layers.get("core.combiner.emit_ns").unwrap() > 0.0);
            } else {
                for m in spec::per_layer().filter(|m| m.name.starts_with("core.combiner.")) {
                    zero(m.name);
                }
                zero("gpu_sim.cost.sim_smem_us");
            }
            if w.guards() == Guards::OFF {
                zero("core.checkpoint.taken");
                zero("core.checkpoint.bytes_per_image_byte");
                zero("gpu_sim.faults.retries");
            } else {
                assert!(layers.get("core.checkpoint.taken").unwrap() > 0.0);
            }
            if w.serves() {
                assert!(layers.get("serve_wall_queries_per_s").unwrap() > 0.0);
                assert!(layers.get("lookup_wall_queries_per_s").unwrap() > 0.0);
            } else {
                for name in layers::READ_SIDE {
                    zero(name);
                }
            }

            let spans = std::fs::read_to_string(&trace).expect("the traced run wrote its spans");
            for name in [
                "workload",
                "setup.datagen",
                "setup.oracle",
                "setup.baseline",
                "run",
                "iter.1",
                "finalize",
                "verify.collect",
                "verify.compare",
                "micro.core.table",
                "toggle.audit",
            ] {
                assert!(
                    spans.contains(&format!("\"name\":\"{name}\"")),
                    "{}: no {name} span",
                    w.name()
                );
            }
            assert_eq!(spans.contains("\"name\":\"serve.batch\""), w.serves());
            assert_eq!(spans.contains("\"name\":\"lookup.phase\""), w.serves());
        }
    }

    #[test]
    fn run_flags_parse_the_driver_command_line() {
        let args: Vec<String> = "--workload spill_chain --seed 7 --seconds 3 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let parsed = parse_run(&args).unwrap();
        assert_eq!(parsed.workload, Some(Workload::SpillChain));
        assert_eq!(
            (parsed.opts.seed, parsed.opts.seconds, parsed.trace),
            (7, 3.0, true)
        );
        assert!(parse_run(&["--workload".into(), "nope".into()]).is_err());
        assert!(parse_run(&["--trace".into(), "2".into()]).is_err());
        assert!(parse_run(&["--seed".into()]).is_err());
    }
}
