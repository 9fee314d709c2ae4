//! `perf compare A B`: hold B to A by the benchmark's own bounds.
//!
//! A and B are flat files of `<workload> <metric> <value> <unit>` lines —
//! the output of one or more `perf run`s, concatenated (the vendored
//! `serde_json` has no parser, and the flat lines are the primary output
//! anyway). Per (metric, workload) the medians over each file are compared:
//!
//! - `ok` — B's median is no worse than A's by more than the bound;
//! - `regressed` — it is;
//! - `unresolved` — the run-to-run spread (quartile distance over median)
//!   within either file is wider than the bound, so the files cannot say;
//! - `info` — a per-layer figure reported for attribution, held to nothing;
//! - `missing` — one file lacks the pair.
//!
//! Simulated-time and count metrics repeat exactly on one seed, so they are
//! held to a bound of zero: compare files made with the same seeds.

use crate::spec::{per_layer, Better, Workload, END_TO_END};
use crate::stats::{median, quartile_spread};
use std::collections::HashMap;
use std::process::ExitCode;

type Samples = HashMap<(String, String), Vec<f64>>;

fn parse(text: &str) -> Samples {
    let mut out = Samples::new();
    for line in text.lines().filter(|l| !l.starts_with('#')) {
        let fields: Vec<&str> = line.split_whitespace().collect();
        // Comments and host stamps (`# …`), the JSON line and anything else
        // that is not a four-field metric line are skipped.
        let [workload, metric, value, _unit] = fields[..] else {
            continue;
        };
        if let Ok(v) = value.parse::<f64>() {
            out.entry((workload.to_string(), metric.to_string()))
                .or_default()
                .push(v);
        }
    }
    out
}

/// How much worse `b` is than `a`, as a share of `a` (negative: better).
fn worsening(better: Better, a: f64, b: f64) -> f64 {
    let delta = match better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    };
    if a == 0.0 {
        // From nothing to something: infinitely worse when it is a cost.
        return if delta > 0.0 { f64::INFINITY } else { 0.0 };
    }
    delta / a.abs()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
    Info,
    Missing,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
            Verdict::Info => "info",
            Verdict::Missing => "missing",
        }
    }
}

/// Judge one (metric, workload) pair. `bound` of `None` is an attribution
/// figure; `Some(0.0)` an exact one, whose spread across seeds is input
/// variety, not noise, and is not held against it.
pub fn judge(better: Better, bound: Option<f64>, a: &[f64], b: &[f64]) -> Verdict {
    if a.is_empty() || b.is_empty() {
        return Verdict::Missing;
    }
    let Some(bound) = bound else {
        return Verdict::Info;
    };
    if bound > 0.0 {
        let wide = |v: &[f64]| quartile_spread(v).is_some_and(|s| s > bound);
        if wide(a) || wide(b) {
            return Verdict::Unresolved;
        }
    }
    if worsening(better, median(a), median(b)) > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

pub fn run(path_a: &str, path_b: &str) -> ExitCode {
    let read = |path: &str| {
        std::fs::read_to_string(path)
            .map(|text| parse(&text))
            .map_err(|e| eprintln!("{path}: {e}"))
    };
    let (Ok(a), Ok(b)) = (read(path_a), read(path_b)) else {
        return ExitCode::from(2);
    };
    let e2e = END_TO_END
        .iter()
        .map(|m| (m.name, m.better, Some(if m.exact { 0.0 } else { m.bound })));
    let layers = per_layer().map(|m| (m.name, m.better, m.bound));
    let mut bad = 0;
    let none = Vec::new();
    for (name, better, bound) in e2e.chain(layers) {
        for w in Workload::ALL {
            let key = (w.name().to_string(), name.to_string());
            let (va, vb) = (a.get(&key).unwrap_or(&none), b.get(&key).unwrap_or(&none));
            if va.is_empty() && vb.is_empty() {
                // A traced-only file has no end-to-end lines and the
                // reverse; pairs neither file carries are not reported.
                continue;
            }
            let verdict = judge(better, bound, va, vb);
            bad += usize::from(matches!(verdict, Verdict::Regressed | Verdict::Unresolved));
            let med = |v: &[f64]| if v.is_empty() { f64::NAN } else { median(v) };
            let spread = |v: &[f64]| {
                quartile_spread(v).map_or("-".to_string(), |s| format!("{:.2}%", s * 100.0))
            };
            println!(
                "{:<10} {:<13} {:<38} a={:<14} b={:<14} worse={:>+7.2}% bound={} spread_a={} spread_b={}",
                verdict.label(),
                w.name(),
                name,
                med(va),
                med(vb),
                worsening(better, med(va), med(vb)) * 100.0,
                bound.map_or("-".to_string(), |x| format!("{:.0}%", x * 100.0)),
                spread(va),
                spread(vb),
            );
        }
    }
    if bad == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!("{bad} regressed or unresolved");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_keeps_only_metric_lines() {
        let s = parse(
            "# host {\"a\":1}\n# a b 3 c\nfit_skew setup_s 1.5 s\nfit_skew setup_s 2.5 s\n\
             {\"correct\":true}\nspill_chain sim_total_us 7 us\nnot a metric line at all\n",
        );
        assert_eq!(s[&("fit_skew".into(), "setup_s".into())], vec![1.5, 2.5]);
        assert_eq!(s[&("spill_chain".into(), "sim_total_us".into())], vec![7.0]);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        use Better::{Higher, Lower};
        // Within the bound either way.
        assert_eq!(judge(Lower, Some(0.10), &[100.0], &[109.0]), Verdict::Ok);
        assert_eq!(
            judge(Lower, Some(0.10), &[100.0], &[111.0]),
            Verdict::Regressed
        );
        assert_eq!(
            judge(Higher, Some(0.10), &[100.0], &[89.0]),
            Verdict::Regressed
        );
        assert_eq!(judge(Higher, Some(0.10), &[100.0], &[150.0]), Verdict::Ok);
        // Exact metrics allow no worsening, and a seed spread is not noise.
        assert_eq!(judge(Lower, Some(0.0), &[5.0], &[5.0]), Verdict::Ok);
        assert_eq!(
            judge(Lower, Some(0.0), &[5.0], &[5.000001]),
            Verdict::Regressed
        );
        let seeds = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(judge(Lower, Some(0.0), &seeds, &seeds), Verdict::Ok);
        // A spread wider than the bound cannot resolve a 10 % question.
        let noisy = [80.0, 90.0, 100.0, 110.0, 120.0];
        assert_eq!(
            judge(Lower, Some(0.10), &noisy, &[100.0]),
            Verdict::Unresolved
        );
        assert_eq!(judge(Lower, None, &noisy, &[500.0]), Verdict::Info);
        assert_eq!(judge(Lower, Some(0.1), &[], &[1.0]), Verdict::Missing);
        // A count that was zero and is not any more got worse.
        assert_eq!(judge(Lower, Some(0.0), &[0.0], &[3.0]), Verdict::Regressed);
        assert_eq!(judge(Lower, Some(0.0), &[0.0], &[0.0]), Verdict::Ok);
    }
}
