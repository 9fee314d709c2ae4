//! What one run of one workload reports, and how it is printed.

use crate::spec::{per_layer, Workload, END_TO_END};
use crate::verify::Tally;
use std::fmt::Write as _;

/// Which metric list a run reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    EndToEnd,
    PerLayer,
}

impl Kind {
    /// `(name, unit)` of every metric of this kind, registry order.
    pub fn metrics(self) -> Vec<(&'static str, &'static str)> {
        match self {
            Kind::EndToEnd => END_TO_END.iter().map(|m| (m.name, m.unit)).collect(),
            Kind::PerLayer => per_layer().map(|m| (m.name, m.unit)).collect(),
        }
    }
}

pub struct Report {
    pub workload: Workload,
    pub kind: Kind,
    values: Vec<(&'static str, f64)>,
    /// `<workload> <key> <value> <unit>` lines beyond the registry: seed,
    /// repetition counts, min/max — context for a reader, ignored by
    /// `perf compare` unless both files carry them.
    notes: Vec<(String, f64, &'static str)>,
    pub tally: Tally,
}

impl Report {
    pub fn new(workload: Workload, kind: Kind) -> Self {
        Report {
            workload,
            kind,
            values: Vec::new(),
            notes: Vec::new(),
            tally: Tally::default(),
        }
    }

    /// Record a registry metric. Panics on a name the registry lacks or on
    /// a second value for one name: both are harness bugs.
    pub fn put(&mut self, name: &str, value: f64) {
        let (name, _) = self
            .kind
            .metrics()
            .into_iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("{name} is not a registered {:?} metric", self.kind));
        assert!(self.get(name).is_none(), "{name} reported twice");
        assert!(value.is_finite(), "{name} is not finite: {value}");
        self.values.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    pub fn note(&mut self, key: impl Into<String>, value: f64, unit: &'static str) {
        self.notes.push((key.into(), value, unit));
    }

    /// The flat lines and, last, the one JSON object the driver reads.
    /// Panics when a registry metric of this kind was never `put`.
    pub fn render(&self) -> String {
        let w = self.workload.name();
        let mut out = String::new();
        for (key, value, unit) in &self.notes {
            let _ = writeln!(out, "{w} {key} {value} {unit}");
        }
        let mut metrics = serde_json::Map::new();
        for (name, unit) in self.kind.metrics() {
            let value = self
                .get(name)
                .unwrap_or_else(|| panic!("{w} never reported {name}"));
            let _ = writeln!(out, "{w} {name} {value} {unit}");
            metrics.insert(
                name.to_string(),
                serde_json::json!({ "value": value, "unit": unit }),
            );
        }
        let share = self.tally.failed as f64 / self.tally.attempted.max(1) as f64;
        let _ = writeln!(out, "{w} failed_share {share} ratio");
        let last = serde_json::json!({
            "correct": self.tally.failed == 0,
            "attempted": self.tally.attempted,
            "failed": self.tally.failed,
            "metrics": metrics,
        });
        out.push_str(&serde_json::to_string(&last).expect("the stub serializer is total"));
        out.push('\n');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_ends_with_the_contract_object() {
        let mut r = Report::new(Workload::FitSkew, Kind::EndToEnd);
        for (i, (name, _)) in Kind::EndToEnd.metrics().into_iter().enumerate() {
            r.put(name, 1.5 + i as f64);
        }
        r.tally.check(true, String::new);
        let text = r.render();
        assert!(text.contains("fit_skew setup_s 1.5 s\n"));
        assert!(text.contains("fit_skew failed_share 0 ratio\n"));
        let last = text.lines().last().unwrap();
        assert!(last.starts_with(r#"{"correct":true,"attempted":1,"failed":0,"metrics":{"setup_s":{"value":1.5,"unit":"s"}"#));
    }

    #[test]
    #[should_panic(expected = "never reported")]
    fn a_missing_metric_is_a_harness_bug() {
        Report::new(Workload::FitSkew, Kind::EndToEnd).render();
    }
}
