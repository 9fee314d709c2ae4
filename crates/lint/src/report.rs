//! Finding type, output renderers (human / JSON / SARIF 2.1.0), and the
//! committed-baseline support. Everything is hand-rolled: the lint crate
//! stays zero-dependency by design.

use crate::rules::{spec, RULES};
use std::collections::BTreeSet;
use std::fmt;

/// One analysis finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path, forward slashes.
    pub file: String,
    /// 1-based line; 0 for file-level findings (no line anchor).
    pub line: usize,
    pub rule: &'static str,
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

impl Finding {
    /// The baseline key: `file:line:rule`.
    pub fn key(&self) -> String {
        format!("{}:{}:{}", self.file, self.line, self.rule)
    }

    fn level(&self) -> &'static str {
        spec(self.rule).map_or("error", |s| s.severity.sarif_level())
    }
}

/// Escape a string for embedding in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render findings as a plain JSON report.
pub fn render_json(findings: &[Finding]) -> String {
    let mut out = String::from("{\n  \"engine\": \"sepo-analyze\",\n  \"findings\": [");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \
             \"level\": \"{}\", \"message\": \"{}\"}}",
            json_escape(&f.file),
            f.line,
            f.rule,
            f.level(),
            json_escape(&f.message)
        ));
    }
    if !findings.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

/// Render findings as a SARIF 2.1.0 log with the full rule metadata.
pub fn render_sarif(findings: &[Finding]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(
        "  \"$schema\": \"https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json\",\n",
    );
    out.push_str("  \"version\": \"2.1.0\",\n");
    out.push_str("  \"runs\": [\n    {\n      \"tool\": {\n        \"driver\": {\n");
    out.push_str("          \"name\": \"sepo-analyze\",\n");
    out.push_str("          \"rules\": [");
    for (i, r) in RULES.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n            {{\"id\": \"{}\", \
             \"shortDescription\": {{\"text\": \"{}\"}}, \
             \"defaultConfiguration\": {{\"level\": \"{}\"}}}}",
            r.slug,
            json_escape(r.summary),
            r.severity.sarif_level()
        ));
    }
    out.push_str("\n          ]\n        }\n      },\n");
    out.push_str("      \"results\": [");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let rule_index = RULES
            .iter()
            .position(|r| r.slug == f.rule)
            .unwrap_or(usize::MAX);
        let region = if f.line > 0 {
            format!(", \"region\": {{\"startLine\": {}}}", f.line)
        } else {
            String::new()
        };
        out.push_str(&format!(
            "\n        {{\"ruleId\": \"{}\", \"ruleIndex\": {}, \
             \"level\": \"{}\", \"message\": {{\"text\": \"{}\"}}, \
             \"locations\": [{{\"physicalLocation\": \
             {{\"artifactLocation\": {{\"uri\": \"{}\"}}{}}}}}]}}",
            f.rule,
            rule_index,
            f.level(),
            json_escape(&f.message),
            json_escape(&f.file),
            region
        ));
    }
    if !findings.is_empty() {
        out.push_str("\n      ");
    }
    out.push_str("]\n    }\n  ]\n}\n");
    out
}

/// The committed baseline: findings accepted as pre-existing. One
/// `file:line:rule` key per line; `#` starts a comment.
#[derive(Debug, Default)]
pub struct Baseline {
    entries: BTreeSet<String>,
}

impl Baseline {
    pub fn parse(text: &str) -> Baseline {
        let entries = text
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .map(str::to_string)
            .collect();
        Baseline { entries }
    }

    pub fn contains(&self, f: &Finding) -> bool {
        self.entries.contains(&f.key())
    }

    /// Baseline entries that match no current finding (fixed findings
    /// whose entries should be removed).
    pub fn stale(&self, findings: &[Finding]) -> Vec<&str> {
        let live: BTreeSet<String> = findings.iter().map(Finding::key).collect();
        self.entries
            .iter()
            .filter(|e| !live.contains(*e))
            .map(String::as_str)
            .collect()
    }

    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    #[cfg(test)]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// A deliberately tiny JSON parser used by the tests to assert the
/// renderers emit well-formed JSON with the SARIF 2.1.0 shape. Not used
/// at runtime.
#[cfg(test)]
pub(crate) mod testjson {
    use std::collections::BTreeMap;

    #[derive(Debug, Clone, PartialEq)]
    pub enum Json {
        Null,
        Bool(bool),
        Num(f64),
        Str(String),
        Arr(Vec<Json>),
        Obj(BTreeMap<String, Json>),
    }

    impl Json {
        pub fn get(&self, key: &str) -> Option<&Json> {
            match self {
                Json::Obj(m) => m.get(key),
                _ => None,
            }
        }

        pub fn idx(&self, i: usize) -> Option<&Json> {
            match self {
                Json::Arr(v) => v.get(i),
                _ => None,
            }
        }

        pub fn as_str(&self) -> Option<&str> {
            match self {
                Json::Str(s) => Some(s),
                _ => None,
            }
        }

        pub fn as_num(&self) -> Option<f64> {
            match self {
                Json::Num(n) => Some(*n),
                _ => None,
            }
        }

        pub fn as_arr(&self) -> Option<&[Json]> {
            match self {
                Json::Arr(v) => Some(v),
                _ => None,
            }
        }
    }

    pub fn parse(src: &str) -> Result<Json, String> {
        let b: Vec<char> = src.chars().collect();
        let mut i = 0usize;
        let v = value(&b, &mut i)?;
        skip_ws(&b, &mut i);
        if i != b.len() {
            return Err(format!("trailing data at {i}"));
        }
        Ok(v)
    }

    fn skip_ws(b: &[char], i: &mut usize) {
        while *i < b.len() && b[*i].is_whitespace() {
            *i += 1;
        }
    }

    fn value(b: &[char], i: &mut usize) -> Result<Json, String> {
        skip_ws(b, i);
        match b.get(*i) {
            Some('{') => {
                *i += 1;
                let mut m = BTreeMap::new();
                skip_ws(b, i);
                if b.get(*i) == Some(&'}') {
                    *i += 1;
                    return Ok(Json::Obj(m));
                }
                loop {
                    skip_ws(b, i);
                    let k = match value(b, i)? {
                        Json::Str(s) => s,
                        other => return Err(format!("non-string key {other:?}")),
                    };
                    skip_ws(b, i);
                    if b.get(*i) != Some(&':') {
                        return Err(format!("expected ':' at {i}"));
                    }
                    *i += 1;
                    m.insert(k, value(b, i)?);
                    skip_ws(b, i);
                    match b.get(*i) {
                        Some(',') => *i += 1,
                        Some('}') => {
                            *i += 1;
                            return Ok(Json::Obj(m));
                        }
                        other => return Err(format!("expected ',' or '}}', got {other:?}")),
                    }
                }
            }
            Some('[') => {
                *i += 1;
                let mut v = Vec::new();
                skip_ws(b, i);
                if b.get(*i) == Some(&']') {
                    *i += 1;
                    return Ok(Json::Arr(v));
                }
                loop {
                    v.push(value(b, i)?);
                    skip_ws(b, i);
                    match b.get(*i) {
                        Some(',') => *i += 1,
                        Some(']') => {
                            *i += 1;
                            return Ok(Json::Arr(v));
                        }
                        other => return Err(format!("expected ',' or ']', got {other:?}")),
                    }
                }
            }
            Some('"') => {
                *i += 1;
                let mut s = String::new();
                while *i < b.len() && b[*i] != '"' {
                    if b[*i] == '\\' {
                        *i += 1;
                        match b.get(*i) {
                            Some('n') => s.push('\n'),
                            Some('t') => s.push('\t'),
                            Some('r') => s.push('\r'),
                            Some('u') => {
                                let hex: String = b[*i + 1..*i + 5].iter().collect();
                                let code =
                                    u32::from_str_radix(&hex, 16).map_err(|e| e.to_string())?;
                                s.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                                *i += 4;
                            }
                            Some(c) => s.push(*c),
                            None => return Err("dangling escape".to_string()),
                        }
                    } else {
                        s.push(b[*i]);
                    }
                    *i += 1;
                }
                if b.get(*i) != Some(&'"') {
                    return Err("unterminated string".to_string());
                }
                *i += 1;
                Ok(Json::Str(s))
            }
            Some('t') if b[*i..].starts_with(&['t', 'r', 'u', 'e']) => {
                *i += 4;
                Ok(Json::Bool(true))
            }
            Some('f') if b[*i..].starts_with(&['f', 'a', 'l', 's', 'e']) => {
                *i += 5;
                Ok(Json::Bool(false))
            }
            Some('n') if b[*i..].starts_with(&['n', 'u', 'l', 'l']) => {
                *i += 4;
                Ok(Json::Null)
            }
            Some(c) if c.is_ascii_digit() || *c == '-' => {
                let start = *i;
                *i += 1;
                while *i < b.len()
                    && (b[*i].is_ascii_digit()
                        || b[*i] == '.'
                        || b[*i] == 'e'
                        || b[*i] == 'E'
                        || b[*i] == '+'
                        || b[*i] == '-')
                {
                    *i += 1;
                }
                let s: String = b[start..*i].iter().collect();
                s.parse().map(Json::Num).map_err(|e| e.to_string())
            }
            other => Err(format!("unexpected {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testjson::parse;
    use super::*;

    fn sample() -> Vec<Finding> {
        vec![
            Finding {
                file: "crates/core/src/table.rs".to_string(),
                line: 42,
                rule: "relaxed-ordering",
                message: "a \"quoted\" message".to_string(),
            },
            Finding {
                file: "crates/gpu-sim/src/charge.rs".to_string(),
                line: 0,
                rule: "charge-hook-liveness",
                message: "cannot locate `pub trait Charge`".to_string(),
            },
        ]
    }

    #[test]
    fn human_format_matches_the_legacy_line_shape() {
        let f = &sample()[0];
        assert_eq!(
            f.to_string(),
            "crates/core/src/table.rs:42: [relaxed-ordering] a \"quoted\" message"
        );
    }

    #[test]
    fn json_report_is_well_formed_and_complete() {
        let doc = parse(&render_json(&sample())).expect("valid JSON");
        assert_eq!(doc.get("engine").unwrap().as_str(), Some("sepo-analyze"));
        let findings = doc.get("findings").unwrap().as_arr().unwrap();
        assert_eq!(findings.len(), 2);
        assert_eq!(
            findings[0].get("rule").unwrap().as_str(),
            Some("relaxed-ordering")
        );
        assert_eq!(findings[0].get("line").unwrap().as_num(), Some(42.0));
        assert_eq!(
            findings[0].get("message").unwrap().as_str(),
            Some("a \"quoted\" message")
        );
        // And the empty report is valid too.
        let empty = parse(&render_json(&[])).expect("valid JSON");
        assert_eq!(empty.get("findings").unwrap().as_arr().unwrap().len(), 0);
    }

    #[test]
    fn sarif_has_the_2_1_0_shape() {
        let doc = parse(&render_sarif(&sample())).expect("valid JSON");
        assert_eq!(doc.get("version").unwrap().as_str(), Some("2.1.0"));
        assert!(doc
            .get("$schema")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("sarif-schema-2.1.0"));
        let run = doc.get("runs").unwrap().idx(0).unwrap();
        let driver = run.get("tool").unwrap().get("driver").unwrap();
        assert_eq!(driver.get("name").unwrap().as_str(), Some("sepo-analyze"));
        let rules = driver.get("rules").unwrap().as_arr().unwrap();
        assert_eq!(rules.len(), RULES.len());
        for (i, r) in RULES.iter().enumerate() {
            assert_eq!(rules[i].get("id").unwrap().as_str(), Some(r.slug));
            assert_eq!(
                rules[i]
                    .get("defaultConfiguration")
                    .unwrap()
                    .get("level")
                    .unwrap()
                    .as_str(),
                Some(r.severity.sarif_level())
            );
        }
        let results = run.get("results").unwrap().as_arr().unwrap();
        assert_eq!(results.len(), 2);
        let r0 = &results[0];
        assert_eq!(r0.get("ruleId").unwrap().as_str(), Some("relaxed-ordering"));
        assert_eq!(r0.get("ruleIndex").unwrap().as_num(), Some(0.0));
        assert_eq!(r0.get("level").unwrap().as_str(), Some("error"));
        let loc = r0.idx_loc().expect("physicalLocation");
        assert_eq!(
            loc.get("artifactLocation")
                .unwrap()
                .get("uri")
                .unwrap()
                .as_str(),
            Some("crates/core/src/table.rs")
        );
        assert_eq!(
            loc.get("region")
                .unwrap()
                .get("startLine")
                .unwrap()
                .as_num(),
            Some(42.0)
        );
        // Line-0 findings omit the region entirely.
        let loc1 = results[1].idx_loc().unwrap();
        assert!(loc1.get("region").is_none());
    }

    impl testjson::Json {
        /// results[i].locations[0].physicalLocation, for the test above.
        fn idx_loc(&self) -> Option<&testjson::Json> {
            self.get("locations")?.idx(0)?.get("physicalLocation")
        }
    }

    #[test]
    fn baseline_parses_matches_and_reports_stale_entries() {
        let text = "\
# accepted pre-existing findings
crates/core/src/table.rs:42:relaxed-ordering

crates/core/src/old.rs:7:io-unwrap
";
        let bl = Baseline::parse(text);
        assert_eq!(bl.len(), 2);
        let findings = sample();
        assert!(bl.contains(&findings[0]));
        assert!(!bl.contains(&findings[1]));
        assert_eq!(
            bl.stale(&findings),
            vec!["crates/core/src/old.rs:7:io-unwrap"]
        );
        assert!(Baseline::parse("# only comments\n").is_empty());
    }
}
