//! `sepo-lint` — source-discipline gate for the SEPO workspace, built on
//! the `sepo-analyze` token engine.
//!
//! The engine lexes every workspace source file (comments, strings, raw
//! strings, char literals, attributes, and `#[cfg(test)]` extents all
//! resolved structurally — see `lexer.rs`) and runs the rule set declared
//! in `rules/mod.rs`:
//!
//! - five per-file rules ported from the old line-regex checker
//!   (relaxed-ordering, wall-clock, metrics-direct, io-unwrap,
//!   cross-shard-direct), now matching token structure
//!   so banned patterns quoted in strings, comments, or test bodies never
//!   fire;
//! - three cross-file analyses: acquire/release pairing on the
//!   table-state atomics, Charge-hook liveness, and the stale-escape
//!   audit (`rules/pairing.rs`, `rules/charge.rs`, `rules/escapes.rs`).
//!
//! Output formats: human (the legacy `file:line: [rule] message` lines),
//! `--format json`, and `--format sarif` (SARIF 2.1.0 with full rule
//! metadata). Findings listed in the committed baseline
//! (`crates/lint/baseline.txt`) do not gate; the exit code is 0 iff no
//! non-baseline finding exists. `--explain <rule>` prints a rule's full
//! documentation, scope, and escape marker from the declarative table.
//!
//! The crate is zero-dependency on purpose: it must never constrain the
//! workspace build graph.

mod lexer;
mod report;
mod rules;

use report::{render_json, render_sarif, Baseline, Finding};
use rules::{spec, RuleSpec, RULES};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Format {
    Human,
    Json,
    Sarif,
}

struct Cli {
    root: PathBuf,
    format: Format,
    output: Option<PathBuf>,
    baseline: Option<PathBuf>,
    no_baseline: bool,
    explain: Option<String>,
    list_rules: bool,
}

const USAGE: &str = "\
usage: sepo-lint [options]

  --root <dir>        workspace root (default: the workspace this binary
                      was built from)
  --format <fmt>      human | json | sarif        (default: human)
  --output <file>     write the report to <file> instead of stdout
  --baseline <file>   baseline of accepted findings
                      (default: <root>/crates/lint/baseline.txt)
  --no-baseline       gate on every finding, ignoring the baseline
  --explain <rule>    print one rule's documentation and exit
  --list-rules        list every rule with severity and summary
";

fn parse_args(args: &[String]) -> Result<Cli, String> {
    // CARGO_MANIFEST_DIR = <workspace>/crates/lint at compile time; the
    // binary lints the workspace it was built from regardless of cwd.
    let mut cli = Cli {
        root: Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join(".."),
        format: Format::Human,
        output: None,
        baseline: None,
        no_baseline: false,
        explain: None,
        list_rules: false,
    };
    let mut i = 0usize;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--root" => cli.root = PathBuf::from(value(&mut i, "--root")?),
            "--format" => {
                cli.format = match value(&mut i, "--format")?.as_str() {
                    "human" => Format::Human,
                    "json" => Format::Json,
                    "sarif" => Format::Sarif,
                    other => return Err(format!("unknown format `{other}`")),
                }
            }
            "--output" => cli.output = Some(PathBuf::from(value(&mut i, "--output")?)),
            "--baseline" => cli.baseline = Some(PathBuf::from(value(&mut i, "--baseline")?)),
            "--no-baseline" => cli.no_baseline = true,
            "--explain" => cli.explain = Some(value(&mut i, "--explain")?),
            "--list-rules" => cli.list_rules = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
        i += 1;
    }
    Ok(cli)
}

/// The text `--explain <rule>` prints: everything the declarative table
/// knows about one rule.
fn explain_text(r: &RuleSpec) -> String {
    let escape = match r.escape {
        Some(m) => format!("// lint: {m} (<why>) on the line or the line above"),
        None => "none (the rule admits no escape)".to_string(),
    };
    format!(
        "{} [{}]\n  {}\n\n{}\n\n  scope:  {}\n  escape: {}\n",
        r.slug,
        r.severity.sarif_level(),
        r.summary,
        r.doc,
        r.scope.describe(),
        escape
    )
}

fn emit(cli: &Cli, text: &str) -> Result<(), String> {
    match &cli.output {
        Some(path) => {
            std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
        }
        None => {
            print!("{text}");
            Ok(())
        }
    }
}

fn run(cli: &Cli) -> Result<ExitCode, String> {
    if cli.list_rules {
        let mut out = String::new();
        for r in RULES {
            out.push_str(&format!(
                "{:<24} {:<8} {}\n",
                r.slug,
                r.severity.sarif_level(),
                r.summary
            ));
        }
        emit(cli, &out)?;
        return Ok(ExitCode::SUCCESS);
    }
    if let Some(slug) = &cli.explain {
        let r = spec(slug).ok_or_else(|| {
            format!(
                "unknown rule `{slug}`; known rules: {}",
                RULES.iter().map(|r| r.slug).collect::<Vec<_>>().join(", ")
            )
        })?;
        emit(cli, &explain_text(r))?;
        return Ok(ExitCode::SUCCESS);
    }

    let files = rules::load_workspace(&cli.root)
        .map_err(|e| format!("cannot read workspace at {}: {e}", cli.root.display()))?;
    let findings = rules::analyze(&files);

    let baseline = if cli.no_baseline {
        Baseline::default()
    } else {
        let path = cli
            .baseline
            .clone()
            .unwrap_or_else(|| cli.root.join("crates/lint/baseline.txt"));
        match std::fs::read_to_string(&path) {
            Ok(text) => Baseline::parse(&text),
            Err(_) => Baseline::default(), // no baseline file: gate everything
        }
    };
    let gating: Vec<&Finding> = findings.iter().filter(|f| !baseline.contains(f)).collect();

    match cli.format {
        Format::Json => emit(cli, &render_json(&findings))?,
        Format::Sarif => emit(cli, &render_sarif(&findings))?,
        Format::Human => {
            let mut out = String::new();
            for f in &gating {
                out.push_str(&format!("{f}\n"));
            }
            let baselined = findings.len() - gating.len();
            for entry in baseline.stale(&findings) {
                out.push_str(&format!(
                    "sepo-lint: note: baseline entry `{entry}` matches no \
                     finding; remove it\n"
                ));
            }
            if gating.is_empty() {
                if baselined > 0 {
                    out.push_str(&format!("sepo-lint: clean ({baselined} baselined)\n"));
                } else {
                    out.push_str("sepo-lint: clean\n");
                }
            } else {
                out.push_str(&format!("sepo-lint: {} finding(s)\n", gating.len()));
            }
            emit(cli, &out)?;
        }
    }
    Ok(if gating.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_args(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("sepo-lint: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&cli) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("sepo-lint: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rules::{analyze, load_tree, SourceFile};

    const BAD: &str = include_str!("../fixtures/bad_patterns.rs");
    const GOOD: &str = include_str!("../fixtures/good_patterns.rs");
    const QUIET: &str = include_str!("../fixtures/token/quiet.rs");
    const LOUD: &str = include_str!("../fixtures/token/loud.rs");
    const PARITY_GOLDEN: &str = include_str!("../fixtures/parity_golden.txt");

    fn workspace_root() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..")
    }

    fn fixture_dir(name: &str) -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("fixtures")
            .join(name)
    }

    /// Analyze one pretend file through the full pipeline.
    fn analyze_one(rel: &str, content: &str) -> Vec<Finding> {
        analyze(&[SourceFile::new(rel, content)])
    }

    fn rules_of(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.rule).collect()
    }

    // ------------------------------------------------------------------
    // The analyzer runs clean on the live workspace (satellite 6).
    // ------------------------------------------------------------------

    #[test]
    fn workspace_is_clean() {
        let files = rules::load_workspace(&workspace_root()).expect("workspace readable");
        let findings = analyze(&files);
        let baseline_path = workspace_root().join("crates/lint/baseline.txt");
        let baseline = Baseline::parse(
            &std::fs::read_to_string(&baseline_path).expect("baseline.txt present"),
        );
        let gating: Vec<&Finding> = findings.iter().filter(|f| !baseline.contains(f)).collect();
        assert!(
            gating.is_empty(),
            "workspace must analyze clean (non-baseline findings):\n{}",
            gating
                .iter()
                .map(|f| f.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
        assert!(
            baseline.stale(&findings).is_empty(),
            "baseline entries must match live findings"
        );
    }

    // ------------------------------------------------------------------
    // Port parity: the frozen fixture tree must produce exactly the
    // findings the old line-regex engine produced (satellite 2).
    // ------------------------------------------------------------------

    #[test]
    fn parity_with_the_legacy_engine_on_the_frozen_tree() {
        const LEGACY_RULES: &[&str] = &[
            "relaxed-ordering",
            "wall-clock",
            "metrics-direct",
            "io-unwrap",
            "cross-shard-direct",
        ];
        let files = load_tree(&fixture_dir("parity")).expect("parity tree readable");
        assert!(files.len() >= 6, "parity tree loads the frozen files");
        let mut keys: Vec<String> = analyze(&files)
            .iter()
            .filter(|f| LEGACY_RULES.contains(&f.rule))
            .map(Finding::key)
            .collect();
        keys.sort();
        let golden: Vec<&str> = PARITY_GOLDEN
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .collect();
        assert_eq!(keys, golden, "token engine diverges from the frozen golden");
    }

    // ------------------------------------------------------------------
    // Legacy fixtures still behave (ported from the old engine's tests).
    // ------------------------------------------------------------------

    #[test]
    fn bad_fixture_trips_relaxed_metrics_and_clock_rules() {
        let findings = analyze_one("crates/core/src/table.rs", BAD);
        let rules = rules_of(&findings);
        assert!(rules.contains(&"relaxed-ordering"), "{findings:?}");
        assert!(rules.contains(&"metrics-direct"), "{findings:?}");
        assert!(rules.contains(&"wall-clock"), "{findings:?}");
        for f in &findings {
            assert!(f.line >= 1, "line number missing in {f}");
        }
    }

    #[test]
    fn good_fixture_is_clean_including_the_stale_escape_audit() {
        // checkpoint.rs is in scope for all three annotated rules, so
        // every escape in the fixture suppresses a live finding.
        let findings = analyze_one("crates/core/src/checkpoint.rs", GOOD);
        assert!(findings.is_empty(), "{findings:?}");
    }

    // ------------------------------------------------------------------
    // Token awareness: the false-positive classes of the line scanner
    // are structurally gone (satellite 1).
    // ------------------------------------------------------------------

    #[test]
    fn quiet_fixture_produces_zero_findings_under_every_scoped_path() {
        for rel in [
            "crates/core/src/table.rs",
            "crates/core/src/checkpoint.rs",
            "crates/core/src/evict.rs",
            "crates/core/src/serve.rs",
            "crates/cli/src/main.rs",
        ] {
            let findings = analyze_one(rel, QUIET);
            assert!(
                findings.is_empty(),
                "{rel}: patterns in strings/comments/test bodies must not fire:\n{}",
                findings
                    .iter()
                    .map(|f| f.to_string())
                    .collect::<Vec<_>>()
                    .join("\n")
            );
        }
    }

    #[test]
    fn loud_fixture_flags_every_live_twin() {
        let findings = analyze_one("crates/core/src/checkpoint.rs", LOUD);
        let count = |slug: &str| rules_of(&findings).iter().filter(|r| **r == slug).count();
        assert_eq!(count("relaxed-ordering"), 2, "{findings:?}");
        assert_eq!(count("wall-clock"), 2, "{findings:?}");
        assert_eq!(count("metrics-direct"), 2, "{findings:?}");
        assert_eq!(count("io-unwrap"), 2, "{findings:?}");
        assert_eq!(count("cross-shard-direct"), 1, "{findings:?}");
        assert_eq!(findings.len(), 9, "{findings:?}");
        // The post-test-module offence is live again — the old scanner's
        // "everything after the first #[cfg(test)]" blind spot is gone.
        let last = findings.iter().map(|f| f.line).max().unwrap();
        assert!(
            LOUD.lines().count() - last < 4,
            "the relaxed load after the closed test module must be flagged"
        );
    }

    // ------------------------------------------------------------------
    // Cross-file analyses on their fixture trees (tentpole acceptance:
    // each has a seeded negative that fails and a positive that passes).
    // ------------------------------------------------------------------

    #[test]
    fn pairing_fixture_bad_fails_and_good_passes() {
        let bad = analyze(&load_tree(&fixture_dir("pairing/bad")).unwrap());
        assert_eq!(
            rules_of(&bad),
            vec!["acquire-release-pairing"; 2],
            "{bad:?}"
        );
        let good = analyze(&load_tree(&fixture_dir("pairing/good")).unwrap());
        assert!(
            good.is_empty(),
            "cross-file + alias pairing must hold: {good:?}"
        );
    }

    #[test]
    fn liveness_fixture_bad_fails_and_good_passes() {
        let bad = analyze(&load_tree(&fixture_dir("liveness/bad")).unwrap());
        assert_eq!(rules_of(&bad), vec!["charge-hook-liveness"], "{bad:?}");
        assert!(bad[0].message.contains("`ghost_hits`"));
        let good = analyze(&load_tree(&fixture_dir("liveness/good")).unwrap());
        assert!(good.is_empty(), "{good:?}");
    }

    #[test]
    fn stale_escape_fixture_bad_fails_and_good_passes() {
        let bad = analyze(&load_tree(&fixture_dir("stale/bad")).unwrap());
        let count = |slug: &str| rules_of(&bad).iter().filter(|r| **r == slug).count();
        assert_eq!(count("stale-escape"), 2, "{bad:?}");
        assert_eq!(count("relaxed-ordering"), 1, "{bad:?}");
        assert_eq!(bad.len(), 3, "{bad:?}");
        let good = analyze(&load_tree(&fixture_dir("stale/good")).unwrap());
        assert!(good.is_empty(), "{good:?}");
    }

    // ------------------------------------------------------------------
    // Charge parse on the real source (ported from the old tests).
    // ------------------------------------------------------------------

    #[test]
    fn charge_liveness_passes_on_the_real_charge_rs() {
        let files = rules::load_workspace(&workspace_root()).unwrap();
        let findings = rules::charge::check(&files);
        assert!(findings.is_empty(), "{findings:?}");
        assert!(
            files.iter().any(|f| f.rel == rules::charge::CHARGE_SRC),
            "workspace scan must include charge.rs"
        );
    }

    // ------------------------------------------------------------------
    // CLI surface: explain, list-rules, argument parsing, baseline gate.
    // ------------------------------------------------------------------

    #[test]
    fn explain_covers_every_rule() {
        for r in RULES {
            let text = explain_text(r);
            assert!(text.contains(r.slug));
            assert!(text.contains(r.summary));
            assert!(text.contains("scope:"));
            if let Some(m) = r.escape {
                assert!(text.contains(m), "{}: escape marker missing", r.slug);
            }
        }
    }

    #[test]
    fn args_parse_and_reject_unknowns() {
        let args = |v: &[&str]| parse_args(&v.iter().map(|s| s.to_string()).collect::<Vec<_>>());
        let cli = args(&["--format", "sarif", "--output", "x.sarif", "--no-baseline"]).unwrap();
        assert_eq!(cli.format, Format::Sarif);
        assert_eq!(cli.output.as_deref(), Some(Path::new("x.sarif")));
        assert!(cli.no_baseline);
        assert!(args(&["--format", "xml"]).is_err());
        assert!(args(&["--frobnicate"]).is_err());
        assert!(args(&["--explain"]).is_err(), "flag without a value");
        let cli = args(&["--explain", "relaxed-ordering"]).unwrap();
        assert_eq!(cli.explain.as_deref(), Some("relaxed-ordering"));
    }

    #[test]
    fn baseline_suppresses_gating_but_not_reporting() {
        let findings = vec![Finding {
            file: "crates/core/src/table.rs".to_string(),
            line: 7,
            rule: "relaxed-ordering",
            message: "m".to_string(),
        }];
        let bl = Baseline::parse("crates/core/src/table.rs:7:relaxed-ordering\n");
        let gating: Vec<&Finding> = findings.iter().filter(|f| !bl.contains(f)).collect();
        assert!(gating.is_empty(), "baselined finding must not gate");
        // But the finding still appears in machine reports.
        assert!(render_json(&findings).contains("relaxed-ordering"));
        assert!(render_sarif(&findings).contains("relaxed-ordering"));
    }
}
