//! Charge-trait analysis: hook liveness.
//!
//! The rule re-parses the `Charge` trait's method set from the token
//! stream on every run, so a hook added to the trait is covered the
//! moment it is declared — no hand-maintained method list. (That every
//! sink forwards every hook is the compiler's job: the trait's two
//! required methods have no default body.)

use super::SourceFile;
use crate::lexer::{Tok, TokKind};
use crate::report::Finding;

/// The one file where the `Charge` trait lives.
pub const CHARGE_SRC: &str = "crates/gpu-sim/src/charge.rs";

fn is_ident(t: &Tok, s: &str) -> bool {
    t.kind == TokKind::Ident && t.text == s
}

fn is_punct(t: &Tok, s: &str) -> bool {
    t.kind == TokKind::Punct && t.text == s
}

/// One trait method: name and declaration line.
#[derive(Debug)]
struct Method {
    name: String,
    line: usize,
}

/// Collect `fn` names declared at brace depth 1 of the block opening at
/// `toks[start..]` (the first `{` at or after `start`).
fn fns_in_block(toks: &[&Tok], start: usize) -> Vec<Method> {
    let mut methods = Vec::new();
    let mut depth = 0usize;
    let mut opened = false;
    let mut i = start;
    while i < toks.len() {
        let t = toks[i];
        if is_punct(t, "{") {
            opened = true;
            depth += 1;
        } else if is_punct(t, "}") {
            depth = depth.saturating_sub(1);
            if opened && depth == 0 {
                break;
            }
        } else if opened && depth == 1 && is_ident(t, "fn") {
            if let Some(name_tok) = toks.get(i + 1).filter(|t| t.kind == TokKind::Ident) {
                methods.push(Method {
                    name: name_tok.text.clone(),
                    line: name_tok.line,
                });
            }
        }
        i += 1;
    }
    methods
}

/// Methods declared (or defaulted) by `pub trait Charge`.
fn trait_methods(toks: &[&Tok]) -> Vec<Method> {
    for i in 0..toks.len() {
        if is_ident(toks[i], "trait")
            && toks.get(i + 1).is_some_and(|t| is_ident(t, "Charge"))
            && i > 0
            && is_ident(toks[i - 1], "pub")
        {
            return fns_in_block(toks, i + 2);
        }
    }
    Vec::new()
}

/// Does any file other than `charge.rs` contain a non-test `.name(`
/// method call?
fn has_live_call_site(files: &[SourceFile], name: &str) -> bool {
    files.iter().any(|f| {
        if f.rel == CHARGE_SRC {
            return false;
        }
        let toks: Vec<&Tok> =
            f.lx.toks
                .iter()
                .filter(|t| !t.in_attr && !t.in_test)
                .collect();
        (1..toks.len()).any(|i| {
            is_punct(toks[i - 1], ".")
                && is_ident(toks[i], name)
                && toks.get(i + 1).is_some_and(|t| is_punct(t, "("))
        })
    })
}

/// Run the liveness analysis. No-op when the file set does not include
/// `charge.rs` (fixture trees for other rules).
pub fn check(files: &[SourceFile]) -> Vec<Finding> {
    let Some(charge) = files.iter().find(|f| f.rel == CHARGE_SRC) else {
        return Vec::new();
    };
    let toks: Vec<&Tok> = charge
        .lx
        .toks
        .iter()
        .filter(|t| !t.in_attr && !t.in_test)
        .collect();
    let mut out = Vec::new();

    let traitm = trait_methods(&toks);
    if traitm.is_empty() {
        out.push(Finding {
            file: CHARGE_SRC.to_string(),
            line: 0,
            rule: "charge-hook-liveness",
            message: "cannot locate `pub trait Charge`".to_string(),
        });
        return out;
    }
    for m in &traitm {
        if !has_live_call_site(files, &m.name) {
            out.push(Finding {
                file: CHARGE_SRC.to_string(),
                line: m.line,
                rule: "charge-hook-liveness",
                message: format!(
                    "Charge hook `{}` has no non-test call site outside \
                     charge.rs; a dead hook silently drops its charges from \
                     the cost model — wire it in or remove it",
                    m.name
                ),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const TRAIT: &str = "\
pub trait Charge {
    fn compute(&mut self, u: u64);
    fn device_bytes(&mut self, b: u64) {}
}
";

    fn check_src(charge_src: &str, other: &[(&str, &str)]) -> Vec<Finding> {
        let mut files = vec![SourceFile::new(CHARGE_SRC, charge_src)];
        for (rel, content) in other {
            files.push(SourceFile::new(rel, content));
        }
        check(&files)
    }

    #[test]
    fn live_hooks_are_clean() {
        let live = "fn k(c: &mut dyn Charge) { c.compute(1); c.device_bytes(64); }\n";
        let findings = check_src(TRAIT, &[("crates/core/src/table.rs", live)]);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn missing_trait_is_an_error_not_a_pass() {
        let findings = check_src("fn nothing() {}\n", &[]);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("pub trait Charge"));
    }

    #[test]
    fn hook_with_only_test_call_sites_is_dead() {
        let test_only = "\
fn other() {}

#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        let mut c = S;
        c.device_bytes(64);
    }
}
";
        let live = "fn k(c: &mut dyn Charge) { c.compute(1); }\n";
        let findings = check_src(
            TRAIT,
            &[
                ("crates/core/src/table.rs", live),
                ("crates/core/src/evict.rs", test_only),
            ],
        );
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, "charge-hook-liveness");
        assert_eq!(findings[0].line, 3, "anchored at the hook's declaration");
        assert!(findings[0].message.contains("`device_bytes`"));
    }

    #[test]
    fn calls_inside_charge_rs_itself_do_not_count_as_live() {
        // Forwarding impls and the trait's own shorthands call the hooks —
        // those self-calls must not satisfy liveness.
        let src = format!("{TRAIT}fn f(c: &mut S) {{ c.compute(1); c.device_bytes(1); }}\n");
        let findings = check_src(&src, &[]);
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert!(findings.iter().all(|f| f.rule == "charge-hook-liveness"));
    }

    #[test]
    fn absent_charge_file_means_no_charge_findings() {
        let files = vec![SourceFile::new("crates/core/src/table.rs", "fn f() {}\n")];
        assert!(check(&files).is_empty());
    }
}
