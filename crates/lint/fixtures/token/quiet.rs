// Token-engine fixture: every banned pattern, placed where the old line
// scanner misread it — string literals, raw strings, doc comments,
// nested block comments, and `#[cfg(test)]` bodies. The analyzer must
// report ZERO findings for this file under ANY scoped pretend path.

//! Module docs may mention Instant::now() and SystemTime::now() freely,
//! and even head.load(Ordering::Relaxed).

/// Doc comments cite `metrics().add_compute_units(1)` and `.unwrap()`
/// without consequence.
fn string_literals() -> &'static str {
    "timed with Instant::now(); see run.shards[0]"
}

fn raw_string_literals() -> String {
    let s = r#"w.write_all(b"x").unwrap(); r.read_exact(&mut m).expect("magic")"#;
    let b = br##"Instant::now() inside a "# raw byte string"##;
    format!("{s}{b:?}")
}

/* A block comment /* with a nested comment */ may describe
   run.shards[2].table, Ordering::Relaxed, and SystemTime::now()
   without tripping anything. */
fn char_literals(c: char) -> bool {
    // The double-quote char literal must not open a string: everything
    // after it stays real code, and real code here is clean.
    c == '"' || c == '\'' || c == 'x'
}

#[cfg(test)]
mod tests {
    // Inside the test extent every rule is off.
    fn everything_goes() {
        let x = head.load(Ordering::Relaxed);
        let t = Instant::now();
        let s = SystemTime::now();
        m.metrics().add_compute_units(1);
        w.write_all(b"x").unwrap();
        r.read_exact(&mut m).expect("magic");
        let one = &run.shards[1].table;
    }
}
