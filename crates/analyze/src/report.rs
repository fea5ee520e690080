//! Finding collection, the committed baseline, and the two output
//! formats: human text and SARIF-lite JSON for CI annotation.

use std::fmt::Write as _;

use crate::config::{rule_description, Level};

/// One reported finding, after suppression filtering.
#[derive(Debug, Clone)]
pub struct Finding {
    pub rule: String,
    pub level: Level,
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    /// 1-based line.
    pub line: usize,
    pub message: String,
    /// Trimmed source line (the baseline fingerprint).
    pub snippet: String,
    /// True when a committed baseline entry covers this finding: it is
    /// reported but does not fail `--deny`.
    pub baselined: bool,
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
    /// Deny-level findings not covered by the baseline — what `--deny`
    /// fails on.
    pub fn deny_count(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.level == Level::Deny && !f.baselined)
            .count()
    }

    /// Renders the human-readable report.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            let tag = if f.baselined {
                "baselined".to_string()
            } else {
                f.level.to_string()
            };
            let _ = writeln!(
                out,
                "{}:{}: {}[{}]: {}\n    > {}",
                f.path, f.line, tag, f.rule, f.message, f.snippet
            );
        }
        let deny = self.deny_count();
        let warn = self
            .findings
            .iter()
            .filter(|f| f.level == Level::Warn && !f.baselined)
            .count();
        let baselined = self.findings.iter().filter(|f| f.baselined).count();
        let _ = writeln!(
            out,
            "dlpic-analyze: {} file(s) scanned, {} finding(s) ({} deny, {} warn, {} baselined), {} suppressed by inline allows",
            self.files_scanned,
            self.findings.len(),
            deny,
            warn,
            baselined,
            self.suppressed
        );
        out
    }

    /// Renders SARIF-lite JSON: the minimal subset of SARIF 2.1.0 that CI
    /// annotators consume (tool + rules + results with one physical
    /// location each).
    pub fn to_json(&self) -> String {
        let mut rules_seen: Vec<&str> = self.findings.iter().map(|f| f.rule.as_str()).collect();
        rules_seen.sort_unstable();
        rules_seen.dedup();
        let rules = rules_seen
            .iter()
            .map(|r| {
                format!(
                    "{{\"id\":{},\"shortDescription\":{{\"text\":{}}}}}",
                    json_str(r),
                    json_str(rule_description(r))
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        let results = self
            .findings
            .iter()
            .map(|f| {
                let level = if f.baselined {
                    "note"
                } else {
                    match f.level {
                        Level::Deny => "error",
                        Level::Warn => "warning",
                        Level::Allow => "none",
                    }
                };
                format!(
                    "{{\"ruleId\":{},\"level\":{},\"baselined\":{},\"message\":{{\"text\":{}}},\
                     \"locations\":[{{\"physicalLocation\":{{\"artifactLocation\":{{\"uri\":{}}},\
                     \"region\":{{\"startLine\":{},\"snippet\":{{\"text\":{}}}}}}}}}]}}",
                    json_str(&f.rule),
                    json_str(level),
                    f.baselined,
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
             \"properties\":{{\"filesScanned\":{},\"suppressed\":{},\"denyFindings\":{}}}}}]}}",
            self.files_scanned,
            self.suppressed,
            self.deny_count()
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

/// The committed baseline: one entry per known, justified finding. An
/// entry matches a finding by rule + path + trimmed source line, so the
/// baseline survives unrelated edits that shift line numbers but goes
/// stale (and starts failing) when the flagged code itself changes.
#[derive(Debug, Default)]
pub struct Baseline {
    entries: Vec<(String, String, String)>,
}

impl Baseline {
    /// Parses the baseline format: `#` comments and blank lines ignored,
    /// entries are `rule<TAB>path<TAB>trimmed-source-line`.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut entries = Vec::new();
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.trim_end();
            if line.trim().is_empty() || line.trim_start().starts_with('#') {
                continue;
            }
            let mut parts = line.splitn(3, '\t');
            match (parts.next(), parts.next(), parts.next()) {
                (Some(rule), Some(path), Some(snippet)) => {
                    entries.push((rule.to_string(), path.to_string(), snippet.to_string()));
                }
                _ => {
                    return Err(format!(
                        "baseline line {}: want rule<TAB>path<TAB>snippet",
                        idx + 1
                    ))
                }
            }
        }
        Ok(Self { entries })
    }

    /// True when the baseline covers this finding.
    pub fn covers(&self, rule: &str, path: &str, snippet: &str) -> bool {
        self.entries
            .iter()
            .any(|(r, p, s)| r == rule && p == path && s == snippet)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entries are recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Serializes `findings` as a fresh baseline file.
    pub fn render(findings: &[Finding]) -> String {
        let mut out = String::from(
            "# dlpic-analyze baseline — known findings excluded from --deny.\n\
             # One entry per line: rule<TAB>path<TAB>trimmed-source-line.\n\
             # Regenerate with: dlpic-analyze --write-baseline <this file>\n",
        );
        for f in findings {
            let _ = writeln!(out, "{}\t{}\t{}", f.rule, f.path, f.snippet);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(rule: &str, baselined: bool) -> Finding {
        Finding {
            rule: rule.to_string(),
            level: Level::Deny,
            path: "src/x.rs".to_string(),
            line: 3,
            message: "msg with \"quotes\" and\nnewline".to_string(),
            snippet: "let x = y;".to_string(),
            baselined,
        }
    }

    #[test]
    fn baseline_round_trip_and_matching() {
        let text = Baseline::render(&[finding("rule-a", false)]);
        let b = Baseline::parse(&text).unwrap();
        assert_eq!(b.len(), 1);
        assert!(b.covers("rule-a", "src/x.rs", "let x = y;"));
        assert!(
            !b.covers("rule-a", "src/x.rs", "let x = z;"),
            "stale entry stops covering"
        );
        assert!(Baseline::parse("garbage without tabs\n").is_err());
        assert!(Baseline::parse("# only comments\n\n").unwrap().is_empty());
    }

    #[test]
    fn deny_count_ignores_baselined_and_json_is_escaped() {
        let report = Report {
            findings: vec![finding("rule-a", false), finding("rule-a", true)],
            files_scanned: 2,
            suppressed: 1,
        };
        assert_eq!(report.deny_count(), 1);
        let json = report.to_json();
        assert!(json.contains("\\\"quotes\\\""));
        assert!(json.contains("\\n"));
        assert!(json.contains("\"denyFindings\":1"));
        let text = report.to_text();
        assert!(text.contains("baselined[rule-a]"));
        assert!(text.contains("1 deny"));
    }
}
