//! Finding collection and the two output formats: human text and
//! SARIF-lite JSON for CI annotation.

use std::fmt::Write as _;

use crate::rules::{find, MALFORMED_SUPPRESSION};

/// One reported finding, after suppression filtering. Every finding
/// fails the run.
#[derive(Debug, Clone)]
pub struct Finding {
    pub rule: &'static str,
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    /// 1-based line.
    pub line: usize,
    pub message: String,
    /// Trimmed source line.
    pub snippet: String,
}

/// The result of an analysis run.
#[derive(Debug, Default)]
pub struct Report {
    /// All findings, sorted by (path, line, rule).
    pub findings: Vec<Finding>,
    /// Files scanned.
    pub files_scanned: usize,
    /// Findings silenced by inline `analyze:allow` annotations.
    pub suppressed: usize,
}

impl Report {
    /// Renders the human-readable report.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            let _ = writeln!(
                out,
                "{}:{}: {}: {}\n    > {}",
                f.path, f.line, f.rule, f.message, f.snippet
            );
        }
        let _ = writeln!(
            out,
            "dlpic-analyze: {} file(s) scanned, {} finding(s), {} suppressed by inline allows",
            self.files_scanned,
            self.findings.len(),
            self.suppressed
        );
        out
    }

    /// Renders SARIF-lite JSON: the minimal subset of SARIF 2.1.0 that CI
    /// annotators consume (tool + rules + results with one physical
    /// location each).
    pub fn to_json(&self) -> String {
        let mut rules_seen: Vec<&str> = self.findings.iter().map(|f| f.rule).collect();
        rules_seen.sort_unstable();
        rules_seen.dedup();
        let rules = rules_seen
            .iter()
            .map(|r| {
                format!(
                    "{{\"id\":{},\"shortDescription\":{{\"text\":{}}}}}",
                    json_str(r),
                    json_str(find(r).unwrap_or(&MALFORMED_SUPPRESSION).description)
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        let results = self
            .findings
            .iter()
            .map(|f| {
                format!(
                    "{{\"ruleId\":{},\"level\":\"error\",\"message\":{{\"text\":{}}},\
                     \"locations\":[{{\"physicalLocation\":{{\"artifactLocation\":{{\"uri\":{}}},\
                     \"region\":{{\"startLine\":{},\"snippet\":{{\"text\":{}}}}}}}}}]}}",
                    json_str(f.rule),
                    json_str(&f.message),
                    json_str(&f.path),
                    f.line,
                    json_str(&f.snippet)
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{{\"version\":\"2.1.0\",\"runs\":[{{\"tool\":{{\"driver\":{{\"name\":\"dlpic-analyze\",\
             \"rules\":[{rules}]}}}},\"results\":[{results}],\
             \"properties\":{{\"filesScanned\":{},\"suppressed\":{}}}}}]}}",
            self.files_scanned, self.suppressed
        )
    }
}

/// JSON string escaping (std-only; the analyzer deliberately has zero
/// dependencies, including on the workspace's own json module).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deny_count_ignores_baselined_and_json_is_escaped() {
        let finding = Finding {
            rule: "no-wallclock-in-engine",
            path: "src/x.rs".to_string(),
            line: 3,
            message: "msg with \"quotes\" and\nnewline".to_string(),
            snippet: "let x = y;".to_string(),
        };
        let report = Report {
            findings: vec![finding.clone(), finding],
            files_scanned: 2,
            suppressed: 1,
        };
        let json = report.to_json();
        assert!(json.contains("\\\"quotes\\\""));
        assert!(json.contains("\\n"));
        assert!(json.contains("\"suppressed\":1"));
        let text = report.to_text();
        assert!(text.contains("src/x.rs:3: no-wallclock-in-engine: msg"));
        assert!(text.contains("2 finding(s)"));
    }
}
