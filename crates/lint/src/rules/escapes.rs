//! Escape-comment registry and the stale-escape audit.
//!
//! An escape is a `// lint: <marker> (<why>)` comment on the offending
//! line or the line above. The registry collects every marker in the
//! workspace up front; rules consult [`Registry::suppresses`] when a
//! pattern fires, which marks the escape *used*. After all rules run,
//! [`Registry::stale_findings`] reports every escape that suppressed
//! nothing — so the inventory of deliberate exceptions cannot rot.

use super::{SourceFile, RULES};
use crate::report::Finding;

/// One escape marker found in a comment.
#[derive(Debug)]
struct Escape {
    file: String,
    line: usize,
    marker: String,
    used: bool,
}

/// All escape markers in the scanned file set, with usage tracking.
#[derive(Debug, Default)]
pub struct Registry {
    escapes: Vec<Escape>,
}

/// Extract every `lint: <marker>` marker from one comment's text.
fn markers_in(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut rest = text;
    while let Some(pos) = rest.find("lint:") {
        rest = &rest[pos + "lint:".len()..];
        let trimmed = rest.trim_start();
        let marker: String = trimmed
            .chars()
            .take_while(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || *c == '-')
            .collect();
        if !marker.is_empty() {
            out.push(marker);
        }
    }
    out
}

impl Registry {
    /// Scan every file's comments for escape markers.
    pub fn collect(files: &[SourceFile]) -> Registry {
        let mut escapes = Vec::new();
        for f in files {
            for (line, text) in f.lx.comments() {
                for marker in markers_in(text) {
                    escapes.push(Escape {
                        file: f.rel.clone(),
                        line,
                        marker,
                        used: false,
                    });
                }
            }
        }
        Registry { escapes }
    }

    /// Does an escape with `marker` cover a finding on `line` of `file`
    /// (same line or the line above)? Marks the escape used.
    pub fn suppresses(&mut self, file: &str, line: usize, marker: &str) -> bool {
        for cand in [line, line.saturating_sub(1)] {
            if cand == 0 {
                continue;
            }
            if let Some(e) = self
                .escapes
                .iter_mut()
                .find(|e| e.file == file && e.line == cand && e.marker == marker)
            {
                e.used = true;
                return true;
            }
        }
        false
    }

    /// Report every escape that suppressed nothing. Runs after all other
    /// rules so usage is complete.
    pub fn stale_findings(&self, files: &[SourceFile]) -> Vec<Finding> {
        let known: Vec<&str> = RULES.iter().filter_map(|r| r.escape).collect();
        self.escapes
            .iter()
            .filter(|e| !e.used)
            .map(|e| {
                let in_test = files
                    .iter()
                    .find(|f| f.rel == e.file)
                    .is_some_and(|f| f.lx.line_in_test(e.line));
                let message = if !known.contains(&e.marker.as_str()) {
                    format!(
                        "unknown escape marker `lint: {}` — no rule defines it; \
                         remove it or use one of: {}",
                        e.marker,
                        known.join(", ")
                    )
                } else if in_test {
                    format!(
                        "escape `lint: {}` sits inside a #[cfg(test)] extent, \
                         where rules never fire; remove the stale annotation",
                        e.marker
                    )
                } else {
                    format!(
                        "escape `lint: {}` suppresses no finding here; the code \
                         it covered moved or the rule no longer applies — \
                         remove the stale annotation",
                        e.marker
                    )
                };
                Finding {
                    file: e.file.clone(),
                    line: e.line,
                    rule: "stale-escape",
                    message,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markers_parsed_from_comment_text() {
        assert_eq!(
            markers_in("// lint: relaxed-ok (statistics counter)"),
            vec!["relaxed-ok"]
        );
        assert_eq!(
            markers_in("/* lint: unwrap-ok (x) and lint: shard-ok */"),
            vec!["unwrap-ok", "shard-ok"]
        );
        assert!(markers_in("// plain comment").is_empty());
    }

    #[test]
    fn suppression_marks_used_and_prefers_same_line() {
        let files = vec![SourceFile::new(
            "crates/core/src/table.rs",
            "// lint: relaxed-ok (above)\nx(); // lint: relaxed-ok (same)\n",
        )];
        let mut reg = Registry::collect(&files);
        assert!(reg.suppresses("crates/core/src/table.rs", 2, "relaxed-ok"));
        // The same-line escape (line 2) was consumed; line 1 stays stale.
        let stale = reg.stale_findings(&files);
        assert_eq!(stale.len(), 1);
        assert_eq!(stale[0].line, 1);
    }

    #[test]
    fn unknown_markers_are_called_out() {
        let files = vec![SourceFile::new(
            "crates/core/src/table.rs",
            "x(); // lint: warp-ok (no such rule)\n",
        )];
        let reg = Registry::collect(&files);
        let stale = reg.stale_findings(&files);
        assert_eq!(stale.len(), 1);
        assert!(stale[0].message.contains("unknown escape marker"));
    }
}
