//! The per-file rules, ported from the old line-regex scanner onto the
//! token stream. Escapes and `#[cfg(test)]` scoping are structural:
//! a banned pattern only fires on real code tokens outside attribute
//! spans and test extents, and an escape only counts when it appears in
//! an actual comment on the offending line or the line above.

use super::escapes::Registry;
use super::{spec, SourceFile};
use crate::lexer::{Tok, TokKind};
use crate::report::Finding;

fn is_ident(t: &Tok, s: &str) -> bool {
    t.kind == TokKind::Ident && t.text == s
}

fn is_punct(t: &Tok, s: &str) -> bool {
    t.kind == TokKind::Punct && t.text == s
}

/// Does `toks[i..]` start with `::` (two colon puncts)?
fn is_path_sep(toks: &[&Tok], i: usize) -> bool {
    i + 1 < toks.len() && is_punct(toks[i], ":") && is_punct(toks[i + 1], ":")
}

/// `A::B` with `A` at `i`.
fn path2(toks: &[&Tok], i: usize, a: &str, b: &str) -> bool {
    is_ident(toks[i], a)
        && is_path_sep(toks, i + 1)
        && i + 3 < toks.len()
        && is_ident(toks[i + 3], b)
}

/// `.name(` with the dot at `i - 1` and `name` at `i`.
fn method_call(toks: &[&Tok], i: usize, name: &str) -> bool {
    i >= 1
        && is_punct(toks[i - 1], ".")
        && is_ident(toks[i], name)
        && i + 1 < toks.len()
        && is_punct(toks[i + 1], "(")
}

/// Emit a finding unless the rule's escape marker covers `line`.
#[allow(clippy::too_many_arguments)]
fn emit(
    out: &mut Vec<Finding>,
    escapes: &mut Registry,
    rel: &str,
    line: usize,
    slug: &'static str,
    message: &str,
) {
    if let Some(marker) = spec(slug).and_then(|s| s.escape) {
        if escapes.suppresses(rel, line, marker) {
            return;
        }
    }
    out.push(Finding {
        file: rel.to_string(),
        line,
        rule: slug,
        message: message.to_string(),
    });
}

/// Run every per-file rule over one lexed file.
pub fn check(file: &SourceFile, escapes: &mut Registry) -> Vec<Finding> {
    let rel = file.rel.as_str();
    let applies = |slug: &str| spec(slug).is_some_and(|s| s.scope.applies(rel));
    let relaxed = applies("relaxed-ordering");
    let clock = applies("wall-clock");
    let metrics = applies("metrics-direct");
    let io = applies("io-unwrap");
    let shard = applies("cross-shard-direct");

    let toks: Vec<&Tok> = file.lx.toks.iter().filter(|t| !t.in_attr).collect();
    let mut out = Vec::new();

    for i in 0..toks.len() {
        let t = toks[i];
        if t.in_test {
            continue;
        }
        if relaxed && path2(&toks, i, "Ordering", "Relaxed") {
            emit(
                &mut out,
                escapes,
                rel,
                t.line,
                "relaxed-ordering",
                "Ordering::Relaxed on table state without a \
                 `// lint: relaxed-ok (<why>)` annotation",
            );
        }
        if clock && (path2(&toks, i, "Instant", "now") || path2(&toks, i, "SystemTime", "now")) {
            emit(
                &mut out,
                escapes,
                rel,
                t.line,
                "wall-clock",
                "wall-clock read in a simulated crate; use SimTime \
                 or move the timing to the bench/cli layer",
            );
        }
        if metrics
            && is_ident(t, "metrics")
            && (
                // metrics().add_* — through the accessor…
                (i + 4 < toks.len()
                    && is_punct(toks[i + 1], "(")
                    && is_punct(toks[i + 2], ")")
                    && is_punct(toks[i + 3], ".")
                    && toks[i + 4].kind == TokKind::Ident
                    && toks[i + 4].text.starts_with("add_"))
                // …or metrics.add_* — through a binding/field.
                || (i + 2 < toks.len()
                    && is_punct(toks[i + 1], ".")
                    && toks[i + 2].kind == TokKind::Ident
                    && toks[i + 2].text.starts_with("add_"))
            )
        {
            emit(
                &mut out,
                escapes,
                rel,
                t.line,
                "metrics-direct",
                "direct metrics mutation in a simulated crate; charge \
                 through a Charge sink, or annotate quiescent host-side \
                 accounting with `// lint: metrics-direct-ok (<why>)`",
            );
        }
        if io && (method_call(&toks, i, "unwrap") || method_call(&toks, i, "expect")) {
            emit(
                &mut out,
                escapes,
                rel,
                t.line,
                "io-unwrap",
                "panic on the persistence/checkpoint IO path; \
                 propagate io::Result (or annotate a deliberate \
                 infallible case with `// lint: unwrap-ok (<why>)`)",
            );
        }
        if shard
            && i >= 1
            && is_punct(toks[i - 1], ".")
            && is_ident(t, "shards")
            && i + 1 < toks.len()
            && is_punct(toks[i + 1], "[")
        {
            emit(
                &mut out,
                escapes,
                rel,
                t.line,
                "cross-shard-direct",
                "direct index into one shard's state outside the \
                 router/merge paths; go through the ShardRouter, the \
                 canonical merge, or the routed ShardedSnapshot view \
                 (or annotate a deliberate access with \
                 `// lint: shard-ok (<why>)`)",
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::escapes::Registry;

    /// Analyze one pretend file: per-file rules plus the stale-escape
    /// audit over that file.
    pub(crate) fn check_one(rel: &str, content: &str) -> Vec<Finding> {
        let files = vec![SourceFile::new(rel, content)];
        let mut escapes = Registry::collect(&files);
        let mut out = check(&files[0], &mut escapes);
        out.extend(escapes.stale_findings(&files));
        out
    }

    fn rules_of(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn scoping_rules_by_path() {
        // Outside the table files, Relaxed is not this analyzer's business…
        let relaxed = "let x = a.load(Ordering::Relaxed);\n";
        assert!(check_one("crates/core/src/sepo.rs", relaxed).is_empty());
        // …and outside simulated crates, neither are clocks or metrics.
        let clocky = "let t = Instant::now();\nm.metrics().add_compute_units(1);\n";
        assert!(check_one("crates/bench/src/lib.rs", clocky).is_empty());
        assert!(!check_one("crates/core/src/sepo.rs", clocky).is_empty());
    }

    #[test]
    fn same_line_and_line_above_annotations_both_count() {
        let same = "w.store(0, Ordering::Relaxed); // lint: relaxed-ok (reset)\n";
        assert!(check_one("crates/core/src/bitmap.rs", same).is_empty());
        let above = "// lint: relaxed-ok (reset)\nw.store(0, Ordering::Relaxed);\n";
        assert!(check_one("crates/core/src/bitmap.rs", above).is_empty());
        let far = "// lint: relaxed-ok (reset)\nlet pad = 0;\nw.store(0, Ordering::Relaxed);\n";
        let findings = check_one("crates/core/src/bitmap.rs", far);
        // The annotation two lines up neither suppresses nor stays quiet:
        // the offence fires and the escape is reported stale.
        assert_eq!(
            rules_of(&findings),
            vec!["relaxed-ordering", "stale-escape"]
        );
    }

    #[test]
    fn io_unwrap_flagged_only_in_scoped_files_outside_tests() {
        let panicky = "w.write_all(b\"x\").unwrap();\nr.read_exact(&mut m).expect(\"magic\");\n";
        for rel in [
            "crates/core/src/persist.rs",
            "crates/core/src/checkpoint.rs",
        ] {
            let hits = rules_of(&check_one(rel, panicky))
                .iter()
                .filter(|r| **r == "io-unwrap")
                .count();
            assert_eq!(hits, 2, "{rel}: both panicking calls must be flagged");
        }
        assert!(!rules_of(&check_one("crates/core/src/table.rs", panicky)).contains(&"io-unwrap"));
        let annotated =
            "// lint: unwrap-ok (Vec<u8> writes are infallible)\nbuf.write_all(b\"x\").unwrap();\n";
        assert!(check_one("crates/core/src/persist.rs", annotated).is_empty());
    }

    #[test]
    fn io_unwrap_exempts_the_test_extent() {
        let src = "\
fn save(w: &mut impl std::io::Write) {
    w.write_all(b\"x\").unwrap();
}

#[cfg(test)]
mod tests {
    fn round_trip() {
        save(&mut Vec::new()).unwrap();
    }
}
";
        let findings = check_one("crates/core/src/checkpoint.rs", src);
        assert_eq!(rules_of(&findings), vec!["io-unwrap"], "{findings:?}");
        assert_eq!(findings[0].line, 2, "only the non-test unwrap counts");
    }

    #[test]
    fn cross_shard_index_flagged_everywhere_but_router_and_merge() {
        let direct = "let t = &run.shards[2].table;\n";
        for rel in [
            "crates/cli/src/main.rs",
            "crates/bench/src/bin/figure6.rs",
            "crates/core/src/sepo.rs",
        ] {
            assert_eq!(
                rules_of(&check_one(rel, direct)),
                vec!["cross-shard-direct"],
                "{rel}: a direct shard index must be flagged"
            );
        }
        for rel in ["crates/core/src/shard.rs", "crates/apps/src/sharded.rs"] {
            assert!(check_one(rel, direct).is_empty(), "{rel} is exempt");
        }
        // Iterating every shard is the sanctioned whole-view access.
        let iterate = "for r in run.shards.iter() {\n";
        assert!(check_one("crates/cli/src/main.rs", iterate).is_empty());
        let same = "let t = &run.shards[0].table; // lint: shard-ok (keyless home)\n";
        assert!(check_one("crates/cli/src/main.rs", same).is_empty());
    }

    #[test]
    fn metrics_patterns_both_shapes() {
        let accessor = "t.metrics().add_compute_units(1);\n";
        let binding = "metrics.add_device_bytes(64);\n";
        for src in [accessor, binding] {
            assert_eq!(
                rules_of(&check_one("crates/core/src/lookup.rs", src)),
                vec!["metrics-direct"]
            );
        }
        // A non-metrics receiver does not fire the binding shape.
        let other = "m.add_device_bytes(64);\n";
        assert!(check_one("crates/core/src/lookup.rs", other).is_empty());
    }
}
