//! Plain-text table rendering and JSON result persistence.
//!
//! Every regeneration binary prints a fixed-width table mirroring the
//! paper's layout and writes the same data as JSON under `results/` so
//! EXPERIMENTS.md can reference machine-readable numbers.

use serde_json::Serialize;
use std::fmt::Write as _;
use std::path::Path;

/// A simple fixed-width text table.
#[derive(Debug, Clone)]
pub struct Table {
    pub title: String,
    pub headers: Vec<String>,
    pub rows: Vec<Vec<String>>,
    /// Free-form notes printed under the table (scale, substitutions).
    pub notes: Vec<String>,
}

impl Table {
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width must match headers"
        );
        self.rows.push(cells);
    }

    pub fn note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    /// Render as fixed-width text.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let line = |out: &mut String, cells: &[String]| {
            let mut s = String::from("|");
            for (i, c) in cells.iter().enumerate() {
                let _ = write!(s, " {:width$} |", c, width = widths[i]);
            }
            let _ = writeln!(out, "{s}");
        };
        line(&mut out, &self.headers);
        let total: usize = widths.iter().map(|w| w + 3).sum::<usize>() + 1;
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            line(&mut out, row);
        }
        for note in &self.notes {
            let _ = writeln!(out, "  note: {note}");
        }
        out
    }

    /// Print to stdout.
    pub fn print(&self) {
        println!("{}", self.render());
    }
}

/// Serialize `value` to `results/<name>.json` (creating the directory).
/// Failures are reported but non-fatal: the printed table is the primary
/// artifact.
pub fn write_json<T: Serialize>(name: &str, value: &T) {
    let dir = Path::new("results");
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("warning: cannot create {}: {e}", dir.display());
        return;
    }
    let path = dir.join(format!("{name}.json"));
    match serde_json::to_string_pretty(value) {
        Ok(json) => {
            if let Err(e) = std::fs::write(&path, json) {
                eprintln!("warning: cannot write {}: {e}", path.display());
            } else {
                eprintln!("results written to {}", path.display());
            }
        }
        Err(e) => eprintln!("warning: cannot serialize {name}: {e}"),
    }
}

/// An ASCII bar chart — the textual rendering of the paper's figures.
/// Bars are grouped (one group per application, one bar per dataset) and
/// annotated, like Fig. 6's iteration counts atop the bars.
/// One bar: (label, value, annotation).
pub type Bar = (String, f64, String);

#[derive(Debug, Clone)]
pub struct BarChart {
    pub title: String,
    /// (group label, bars).
    pub groups: Vec<(String, Vec<Bar>)>,
    /// A horizontal reference line (e.g. speedup = 1.0).
    pub reference: Option<f64>,
}

impl BarChart {
    pub fn new(title: impl Into<String>) -> Self {
        BarChart {
            title: title.into(),
            groups: Vec::new(),
            reference: None,
        }
    }

    pub fn with_reference(mut self, r: f64) -> Self {
        self.reference = Some(r);
        self
    }

    pub fn group(&mut self, label: impl Into<String>, bars: Vec<Bar>) {
        self.groups.push((label.into(), bars));
    }

    /// Render with horizontal bars scaled to the maximum value.
    pub fn render(&self) -> String {
        const WIDTH: usize = 48;
        let max = self
            .groups
            .iter()
            .flat_map(|(_, bars)| bars.iter().map(|&(_, v, _)| v))
            .fold(0.0f64, f64::max)
            .max(1e-12);
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        for (glabel, bars) in &self.groups {
            let _ = writeln!(out, "{glabel}");
            for (blabel, value, note) in bars {
                let filled = ((value / max) * WIDTH as f64).round() as usize;
                let mut bar: String = "#".repeat(filled.min(WIDTH));
                if let Some(r) = self.reference {
                    let at = ((r / max) * WIDTH as f64).round() as usize;
                    if at < WIDTH {
                        while bar.len() <= at {
                            bar.push(' ');
                        }
                        // Mark the reference line position.
                        bar.replace_range(at..at + 1, "|");
                    }
                }
                let _ = writeln!(
                    out,
                    "  {blabel:>4} {bar:<w$} {value:>6.2} {note}",
                    w = WIDTH + 1
                );
            }
        }
        if let Some(r) = self.reference {
            let _ = writeln!(out, "  ('|' marks {r:.1})");
        }
        out
    }

    pub fn print(&self) {
        println!("{}", self.render());
    }
}

/// Format a ratio as the paper prints speedups (e.g. `2.42X`).
pub fn fmt_speedup(x: f64) -> String {
    format!("{x:.2}X")
}

/// Format a byte count in the unit Table I uses.
pub fn fmt_bytes(b: u64) -> String {
    if b >= 1_000_000_000 {
        format!("{:.1} GB", b as f64 / 1e9)
    } else if b >= 1_000_000 {
        format!("{:.1} MB", b as f64 / 1e6)
    } else if b >= 1_000 {
        format!("{:.1} KB", b as f64 / 1e3)
    } else {
        format!("{b} B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("Demo", &["App", "Speedup"]);
        t.row(vec!["Page View Count".into(), "3.50X".into()]);
        t.row(vec!["WC".into(), "1.05X".into()]);
        t.note("scale = 256");
        let s = t.render();
        assert!(s.contains("== Demo =="));
        assert!(s.contains("| Page View Count | 3.50X   |"));
        assert!(s.contains("note: scale = 256"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_rows_rejected() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn bar_chart_renders_scaled_bars() {
        let mut c = BarChart::new("Speedups").with_reference(1.0);
        c.group(
            "PVC",
            vec![
                ("#1".into(), 4.0, "(1)".into()),
                ("#4".into(), 2.0, "(4)".into()),
            ],
        );
        let s = c.render();
        assert!(s.contains("== Speedups =="));
        assert!(s.contains("PVC"));
        // The 4.0 bar is twice the 2.0 bar.
        let lines: Vec<&str> = s.lines().collect();
        let count = |l: &str| l.chars().filter(|&ch| ch == '#').count();
        let b1 = lines.iter().find(|l| l.contains("#1")).unwrap();
        let b4 = lines.iter().find(|l| l.contains("#4")).unwrap();
        assert!(count(b1) >= 2 * count(b4) - 2);
        assert!(s.contains("'|' marks 1.0"));
    }

    #[test]
    fn empty_chart_is_harmless() {
        let c = BarChart::new("empty");
        assert!(c.render().contains("empty"));
    }

    #[test]
    fn written_json_keeps_key_insertion_order() {
        let name = "write_json_roundtrip_tmp";
        write_json(name, &serde_json::json!({"b": 1, "a": 2}));
        let path = std::path::PathBuf::from(format!("results/{name}.json"));
        let written = std::fs::read(&path).expect("results copy written");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir("results"); // only if the test created it
        assert_eq!(String::from_utf8_lossy(&written).find("\"b\""), Some(4));
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_speedup(2.4231), "2.42X");
        assert_eq!(fmt_bytes(5_800_000_000), "5.8 GB");
        assert_eq!(fmt_bytes(22_656_250), "22.7 MB");
        assert_eq!(fmt_bytes(900), "900 B");
    }
}
