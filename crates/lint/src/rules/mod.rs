//! Rule registry and workspace analysis driver for `sepo-analyze`.
//!
//! Every rule is declared once in [`RULES`]: slug, severity, the escape
//! marker that may silence it, the **declarative scope** deciding which
//! files it applies to, and the documentation printed by `--explain`.
//! The per-rule `*_SCOPED_FILES` const arrays of the old checker are
//! gone — rules, `--explain`, and the SARIF rule metadata all read this
//! one table.

pub mod charge;
pub mod escapes;
pub mod line_rules;
pub mod pairing;

use crate::lexer::{self, Lexed};
use crate::report::Finding;
use std::path::{Path, PathBuf};

/// Which files a rule applies to.
#[derive(Debug, Clone, Copy)]
pub enum Scope {
    /// Exactly these workspace-relative files.
    Files(&'static [&'static str]),
    /// Every `.rs` file under these crate prefixes.
    Crates(&'static [&'static str]),
    /// Every scanned file except these (allow-listed) files.
    AllFilesExcept(&'static [&'static str]),
    /// Cross-file analysis over the whole workspace.
    Workspace,
}

impl Scope {
    /// Does the rule apply to the file at workspace-relative path `rel`?
    pub fn applies(&self, rel: &str) -> bool {
        match self {
            Scope::Files(fs) => fs.contains(&rel),
            Scope::Crates(cs) => cs.iter().any(|c| rel.starts_with(c)),
            Scope::AllFilesExcept(fs) => !fs.contains(&rel),
            Scope::Workspace => true,
        }
    }

    /// Human rendering for `--explain`.
    pub fn describe(&self) -> String {
        match self {
            Scope::Files(fs) => format!("files: {}", fs.join(", ")),
            Scope::Crates(cs) => format!("crates: {}", cs.join(", ")),
            Scope::AllFilesExcept(fs) => {
                format!("all scanned files except: {}", fs.join(", "))
            }
            Scope::Workspace => "whole workspace (cross-file analysis)".to_string(),
        }
    }
}

/// Finding severity; maps onto the SARIF `level`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    Error,
    Warning,
}

impl Severity {
    pub fn sarif_level(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
        }
    }
}

/// One rule's complete declaration.
#[derive(Debug)]
pub struct RuleSpec {
    pub slug: &'static str,
    /// One-line summary (SARIF shortDescription, `--list-rules`).
    pub summary: &'static str,
    pub severity: Severity,
    /// Escape marker (`// lint: <marker> (<why>)`) that silences the rule
    /// on the same line or the line above, if the rule admits one.
    pub escape: Option<&'static str>,
    pub scope: Scope,
    /// Full documentation printed by `--explain <slug>`.
    pub doc: &'static str,
}

/// Files whose atomics are the shared table state: `Ordering::Relaxed`
/// there needs an allowlist comment, and Release publishes / Acquire
/// loads there must pair up across the workspace.
const TABLE_STATE_FILES: &[&str] = &[
    "crates/core/src/table.rs",
    "crates/core/src/bitmap.rs",
    "crates/core/src/evict.rs",
    "crates/core/src/lookup.rs",
    "crates/core/src/checkpoint.rs",
];

/// Files the acquire/release pairing analysis audits. A superset of the
/// table-state files: the host-heap page-identity atomics and the warp
/// pool's completion latch follow the same publish/observe protocol.
const PAIRING_FILES: &[&str] = &[
    "crates/core/src/table.rs",
    "crates/core/src/bitmap.rs",
    "crates/core/src/evict.rs",
    "crates/core/src/lookup.rs",
    "crates/alloc/src/heap.rs",
    "crates/gpu-sim/src/pool.rs",
];

/// Crates whose code runs on (or next to) the simulated device.
const SIMULATED_CRATES: &[&str] = &[
    "crates/core/",
    "crates/alloc/",
    "crates/apps/",
    "crates/mapreduce/",
];

/// The complete rule table. Order is stable: it fixes SARIF rule indices.
pub const RULES: &[RuleSpec] = &[
    RuleSpec {
        slug: "relaxed-ordering",
        summary: "Ordering::Relaxed on table-state atomics needs an allowlist comment",
        severity: Severity::Error,
        escape: Some("relaxed-ok"),
        scope: Scope::Files(TABLE_STATE_FILES),
        doc: "`Ordering::Relaxed` on the table/bitmap/evict/lookup/checkpoint \
              atomics is only sound on statistics counters and at quiescent \
              iteration boundaries; every use must carry a \
              `// lint: relaxed-ok (<why>)` comment on the same line or the \
              line above. The token engine matches the `Ordering::Relaxed` \
              path structurally, so the text inside strings, comments, and \
              `#[cfg(test)]` extents never fires.",
    },
    RuleSpec {
        slug: "wall-clock",
        summary: "wall-clock read in a simulated crate",
        severity: Severity::Error,
        escape: None,
        scope: Scope::Crates(SIMULATED_CRATES),
        doc: "`Instant::now` / `SystemTime::now` inside simulated crates \
              (core, alloc, apps, mapreduce) make results machine-dependent. \
              Simulated paths must use `SimTime`; timing belongs in the \
              bench/cli layer. No escape marker exists on purpose: there is \
              no sound reason to read the wall clock on a simulated path.",
    },
    RuleSpec {
        slug: "metrics-direct",
        summary: "direct metrics mutation in a simulated crate",
        severity: Severity::Error,
        escape: Some("metrics-direct-ok"),
        scope: Scope::Crates(SIMULATED_CRATES),
        doc: "Kernel-side events must flow through a `Charge` sink \
              (warp-local, flushed once per launch); a direct \
              `metrics().add_*` / `metrics.add_*` mutation bypasses the \
              warp batching and the sanitizer. Only quiescent host-side \
              accounting may write metrics directly, and must say so with \
              `// lint: metrics-direct-ok (<why>)`.",
    },
    RuleSpec {
        slug: "io-unwrap",
        summary: "panic on the persistence/checkpoint IO path",
        severity: Severity::Error,
        escape: Some("unwrap-ok"),
        scope: Scope::Files(&[
            "crates/core/src/persist.rs",
            "crates/core/src/checkpoint.rs",
        ]),
        doc: "`.unwrap()` / `.expect(` on the persistence and checkpoint IO \
              paths turns a reportable `SepoError::CheckpointIo` into an \
              abort mid-recovery. Everything must propagate `io::Result`; a \
              deliberate infallible case needs a \
              `// lint: unwrap-ok (<why>)` comment. `#[cfg(test)]` extents \
              are exempt (tests unwrap freely).",
    },
    RuleSpec {
        slug: "cross-shard-direct",
        summary: "direct index into one shard's state outside the router/merge paths",
        severity: Severity::Error,
        escape: Some("shard-ok"),
        scope: Scope::AllFilesExcept(&["crates/core/src/shard.rs", "crates/apps/src/sharded.rs"]),
        doc: "Each shard's `SepoTable` and device state belong to that \
              shard alone; host code must reach another shard's data through \
              the `ShardRouter`, the canonical merge, or the routed \
              `ShardedSnapshot` view. A direct `.shards[` index would \
              silently bypass the hash-prefix ownership discipline. \
              Iterating all shards (`.shards.iter()`) is fine; a deliberate \
              direct index needs a `// lint: shard-ok (<why>)` comment.",
    },
    RuleSpec {
        slug: "acquire-release-pairing",
        summary: "Release publish / Acquire load with no matching other side",
        severity: Severity::Error,
        escape: None,
        scope: Scope::Files(PAIRING_FILES),
        doc: "Every `Ordering::Release`/`AcqRel` publish on the table-state, \
              host-heap-identity, and pool-latch atomics must have a \
              matching `Acquire` load site for the same field somewhere in \
              the workspace (and vice versa) — an orphaned Release means \
              readers can observe the publication without its preceding \
              writes, and an orphaned Acquire synchronizes with nothing. \
              Sites are grouped by the atomic's field name; locals bound \
              with `let x = …some_call(…)` resolve to the call that \
              produced the atomic (e.g. `heap.atomic_u64`), so a publish \
              in `table.rs` can pair with a load in `evict.rs`. `AcqRel` \
              read-modify-writes pair with themselves.",
    },
    RuleSpec {
        slug: "charge-hook-liveness",
        summary: "a Charge trait hook with no non-test call site",
        severity: Severity::Error,
        escape: None,
        scope: Scope::Workspace,
        doc: "Every method of the `Charge` trait must be invoked from at \
              least one non-test call site outside `charge.rs` — a dead \
              hook means the charges it was meant to carry silently vanish \
              from the cost model, and an unused provided method is \
              invisible to the compiler. The analyzer re-parses the trait's \
              method set on every run. (Forwarding needs no rule: a sink \
              implements the trait's two required methods, `add` and \
              `access`, or it does not compile.)",
    },
    RuleSpec {
        slug: "stale-escape",
        summary: "a `// lint: <slug>-ok` escape that suppresses nothing",
        severity: Severity::Warning,
        escape: None,
        scope: Scope::Workspace,
        doc: "Escape comments are an inventory of deliberate exceptions; \
              the inventory must not rot. Any `// lint: <marker>` comment \
              that no longer suppresses a finding — the code moved, the \
              rule's scope changed, or the marker names no known rule — is \
              itself a finding. Fix by deleting the stale annotation (or \
              restoring the code it was meant to cover).",
    },
];

/// Look up a rule by slug.
pub fn spec(slug: &str) -> Option<&'static RuleSpec> {
    RULES.iter().find(|r| r.slug == slug)
}

/// A lexed workspace source file.
pub struct SourceFile {
    /// Workspace-relative path, forward slashes.
    pub rel: String,
    pub lx: Lexed,
}

impl SourceFile {
    pub fn new(rel: &str, content: &str) -> Self {
        SourceFile {
            rel: rel.to_string(),
            lx: lexer::lex(content),
        }
    }
}

/// Run every analysis over an already-lexed file set.
pub fn analyze(files: &[SourceFile]) -> Vec<Finding> {
    let mut escapes = escapes::Registry::collect(files);
    let mut findings = Vec::new();
    for f in files {
        findings.extend(line_rules::check(f, &mut escapes));
    }
    findings.extend(charge::check(files));
    findings.extend(pairing::check(files));
    findings.extend(escapes.stale_findings(files));
    findings
        .sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    findings
}

/// Recursively collect `.rs` files under `dir`.
fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            rs_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Load and lex every workspace source file under `root/crates/*/src`.
/// The analyzer does not scan itself: the lint crate's rule strings and
/// fixtures would trip every pattern.
pub fn load_workspace(root: &Path) -> std::io::Result<Vec<SourceFile>> {
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<_> = std::fs::read_dir(&crates_dir)?
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();

    let mut files = Vec::new();
    for crate_dir in crate_dirs {
        if crate_dir.file_name().is_some_and(|n| n == "lint") {
            continue;
        }
        let mut paths = Vec::new();
        rs_files(&crate_dir.join("src"), &mut paths);
        for path in paths {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            let content = std::fs::read_to_string(&path)?;
            files.push(SourceFile::new(&rel, &content));
        }
    }
    Ok(files)
}

/// Load and lex every `.rs` file under `root`, paths relative to `root`.
/// Fixture trees mirror the workspace layout, so the relative paths feed
/// the same scope table as a real scan.
#[cfg(test)]
pub fn load_tree(root: &Path) -> std::io::Result<Vec<SourceFile>> {
    let mut paths = Vec::new();
    rs_files(root, &mut paths);
    let mut files = Vec::new();
    for path in paths {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let content = std::fs::read_to_string(&path)?;
        files.push(SourceFile::new(&rel, &content));
    }
    Ok(files)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_rule_slug_is_unique_and_documented() {
        for (i, r) in RULES.iter().enumerate() {
            assert!(!r.doc.is_empty(), "{} has no doc", r.slug);
            assert!(!r.summary.is_empty(), "{} has no summary", r.slug);
            assert!(
                RULES.iter().skip(i + 1).all(|o| o.slug != r.slug),
                "duplicate slug {}",
                r.slug
            );
        }
        assert_eq!(RULES.len(), 8, "5 per-file rules + 3 cross-file analyses");
    }

    #[test]
    fn scope_table_drives_rule_applicability() {
        let relaxed = spec("relaxed-ordering").unwrap();
        assert!(relaxed.scope.applies("crates/core/src/table.rs"));
        assert!(!relaxed.scope.applies("crates/core/src/sepo.rs"));
        let clock = spec("wall-clock").unwrap();
        assert!(clock.scope.applies("crates/apps/src/common.rs"));
        assert!(!clock.scope.applies("crates/bench/src/lib.rs"));
        let shard = spec("cross-shard-direct").unwrap();
        assert!(shard.scope.applies("crates/cli/src/main.rs"));
        assert!(!shard.scope.applies("crates/apps/src/sharded.rs"));
    }

    #[test]
    fn escape_markers_are_declared_only_once_per_marker() {
        let mut seen = Vec::new();
        for r in RULES.iter().filter_map(|r| r.escape) {
            assert!(!seen.contains(&r), "marker {r} reused");
            seen.push(r);
        }
        assert_eq!(seen.len(), 4);
    }
}
