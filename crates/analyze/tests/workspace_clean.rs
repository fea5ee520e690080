//! The gate the CI `static-analysis` job enforces, as a plain test: the
//! workspace itself must have no findings under the repo-default rules.

use std::path::PathBuf;

use dlpic_analyze::config::Config;
use dlpic_analyze::engine::analyze_tree;

#[test]
fn workspace_is_clean() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = analyze_tree(&root, &Config::repo_default()).expect("workspace scan");
    assert!(
        report.files_scanned > 100,
        "scan looks truncated: only {} files (wrong root?)",
        report.files_scanned
    );
    assert!(
        report.findings.is_empty(),
        "workspace has findings:\n{}",
        report.to_text()
    );
}
