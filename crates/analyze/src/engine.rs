//! The analysis driver: walk the tree, run the rules in scope per file,
//! apply inline suppressions, and assemble the sorted [`Report`].

use std::fs;
use std::path::{Path, PathBuf};

use crate::config::Config;
use crate::reach::ReachIndex;
use crate::report::{Finding, Report};
use crate::rules::MALFORMED_SUPPRESSION;
use crate::source::SourceFile;

/// Recursively collects every `.rs` file under `root` that the config
/// does not exclude, as workspace-relative `/`-separated paths, sorted —
/// scan order (and therefore report order) is deterministic by
/// construction.
fn collect_files(root: &Path, config: &Config) -> Result<Vec<String>, String> {
    let mut out = Vec::new();
    walk(root, root, config, &mut out)?;
    out.sort();
    Ok(out)
}

fn walk(root: &Path, dir: &Path, config: &Config, out: &mut Vec<String>) -> Result<(), String> {
    let entries = fs::read_dir(dir).map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
        let path = entry.path();
        let rel = relative(root, &path);
        if config.is_excluded(&rel) {
            continue;
        }
        let ty = entry
            .file_type()
            .map_err(|e| format!("file_type {}: {e}", path.display()))?;
        if ty.is_dir() {
            // Skip hidden directories (.git is also in the exclude list).
            if entry.file_name().to_string_lossy().starts_with('.') {
                continue;
            }
            walk(root, &path, config, out)?;
        } else if ty.is_file() && rel.ends_with(".rs") {
            out.push(rel);
        }
    }
    Ok(())
}

fn relative(root: &Path, path: &Path) -> String {
    let rel: PathBuf = path.strip_prefix(root).unwrap_or(path).to_path_buf();
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join("/")
}

/// Runs the rules in scope, and the malformed-suppression check, on one
/// file and files the surviving hits in `report`; `reach` is the tree's
/// identifier index for `pub-reach`.
fn check_file(file: &SourceFile, reach: &ReachIndex, config: &Config, report: &mut Report) {
    for rule in config.rules_for(&file.path).chain([&MALFORMED_SUPPRESSION]) {
        let mut hits = Vec::new();
        (rule.check)(file, reach, &mut hits);
        for hit in hits {
            if file.is_allowed(rule.name, hit.line) {
                report.suppressed += 1;
                continue;
            }
            report.findings.push(Finding {
                rule: rule.name,
                path: file.path.clone(),
                line: hit.line,
                message: hit.message,
                snippet: file.snippet(hit.line).to_string(),
            });
        }
    }
}

/// Analyzes the whole tree under `root`: every rule, `pub-reach` included
/// (its identifier index is built over all scanned files first).
pub fn analyze_tree(root: &Path, config: &Config) -> Result<Report, String> {
    let mut files = Vec::new();
    for rel in collect_files(root, config)? {
        let abs = root.join(&rel);
        let source =
            fs::read_to_string(&abs).map_err(|e| format!("read {}: {e}", abs.display()))?;
        files.push(SourceFile::parse(&rel, &source));
    }
    let reach = ReachIndex::build(&files);
    let mut report = Report::default();
    for file in &files {
        check_file(file, &reach, config, &mut report);
        report.files_scanned += 1;
    }
    report
        .findings
        .sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suppression_and_levels_flow_through() {
        let src = "\
            use std::collections::HashMap;\n\
            // analyze:allow(no-hashmap-iter-in-state): transient cache, never serialized\n\
            type Cache = HashMap<String, u32>;\n\
            // analyze:allow(oops\n";
        let file = SourceFile::parse("state.rs", src);
        let cfg = Config::all_paths();
        let mut report = Report::default();
        check_file(&file, &ReachIndex::default(), &cfg, &mut report);
        // Line 1 fires, line 3 is suppressed, line 4 is malformed.
        assert_eq!(report.suppressed, 1);
        let rules: Vec<&str> = report.findings.iter().map(|f| f.rule).collect();
        assert_eq!(
            rules,
            vec!["no-hashmap-iter-in-state", "malformed-suppression"],
            "{:?}",
            report.findings
        );
    }
}
