//! The correctness gate: every check counts into `attempted` / `failed`.

use crate::setup::Oracle;
use crate::trace::Tracer;
use sepo_core::SepoTable;

/// Tally of correctness checks. `failed / attempted` is the failed share a
/// run reports; any failure makes the run exit 1.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Record one check; reports the first few failures on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 5 {
                eprintln!("FAIL: {}", what());
            }
        }
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Compare a finalized table's collected output with the oracle, one check
/// per key on either side (`verify.collect` and `verify.compare` spans).
pub fn against_oracle(table: &SepoTable, oracle: &Oracle, tracer: &Tracer) -> Tally {
    let mut tally = Tally::default();
    let show = |k: &[u8]| String::from_utf8_lossy(k).into_owned();
    match oracle {
        Oracle::Combining(want) => {
            let got = tracer.span("verify.collect", || table.collect_combining());
            let span = tracer.begin("verify.compare");
            for (k, v) in &got {
                tally.check(want.get(k) == Some(v), || {
                    format!("key {:?}: got {v}, oracle {:?}", show(k), want.get(k))
                });
            }
            // Keys are unique in `got`, so any oracle key not matched
            // above is missing from the table.
            for _ in got.len()..want.len() {
                tally.check(false, || "an oracle key is missing from the table".into());
            }
            tracer.end(span, vec![("keys", got.len() as u64)]);
        }
        Oracle::Grouped(want) => {
            let got = tracer.span("verify.collect", || table.collect_multivalued());
            let span = tracer.begin("verify.compare");
            for (k, values) in &got {
                let mut values = values.clone();
                values.sort();
                tally.check(want.get(k) == Some(&values), || {
                    format!("key {:?}: grouped values differ from the oracle", show(k))
                });
            }
            for _ in got.len()..want.len() {
                tally.check(false, || "an oracle key is missing from the table".into());
            }
            tracer.end(span, vec![("keys", got.len() as u64)]);
        }
    }
    tally
}
