//! The fixture corpus: one positive (`bad`) and one negative (`good`)
//! case per shipped rule, plus the malformed-suppression pair. A case is a
//! single file (`<rule>/bad.rs`) or, for the cross-file `pub-reach`, a
//! small tree (`pub-reach/bad/`). Each `bad` case must fire its rule the
//! expected number of times and each `good` case must stay silent — both
//! under the single rule and under the full rule set, so fixtures also
//! prove the rules do not interfere with each other. Every case runs
//! through [`analyze_tree`], the production entry point.

use std::path::PathBuf;

use dlpic_analyze::config::Config;
use dlpic_analyze::engine::analyze_tree;
use dlpic_analyze::report::Report;
use dlpic_analyze::rules::{Rule, RULES};

/// Analyzes fixture case `which` (`bad` or `good`) of `dir` with `rules`,
/// each scoped to every path: the tree `tests/fixtures/<dir>/<which>/`
/// when it exists, else the file `tests/fixtures/<dir>/<which>.rs` alone.
fn analyze_case(dir: &str, which: &str, rules: &[Rule]) -> Report {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(dir);
    let mut cfg = Config {
        rules: rules
            .iter()
            .map(|&rule| Rule {
                paths: &["**"],
                ..rule
            })
            .collect(),
        exclude: Vec::new(),
    };
    let tree = dir.join(which);
    let root = if tree.is_dir() {
        tree
    } else {
        let other = if which == "bad" { "good" } else { "bad" };
        cfg.exclude = vec![format!("{other}.rs"), format!("{other}/**")];
        dir
    };
    analyze_tree(&root, &cfg).unwrap_or_else(|e| panic!("{}: {e}", root.display()))
}

/// Analyzes a fixture case with only `rule` in scope; pass `None` to run
/// the full table.
fn analyze(dir: &str, which: &str, only: Option<&str>) -> Report {
    let rules: Vec<Rule> = RULES
        .iter()
        .filter(|rule| only.is_none_or(|name| rule.name == name))
        .copied()
        .collect();
    analyze_case(dir, which, &rules)
}

/// Expected finding count of each rule's `bad` case.
fn expected_hits(rule: &str) -> usize {
    match rule {
        "no-hashmap-iter-in-state" => 2, // the `use` and the field type
        "no-wallclock-in-engine" => 2,   // Instant::now + SystemTime::now
        "no-panic-in-request-path" => 4, // unwrap, panic!, expect, unreachable!
        "safety-comment-required" => 2,  // unsafe fn + unsafe block
        "no-alloc-in-hot-loop" => 4,     // with_capacity, format!, to_vec, Box::new
        "phase-constants-only" => 2,     // string literal + computed tag
        "no-weight-clone" => 4,          // bundle, self.model_1d, net, the Option<Bundle> field
        "no-unbounded-spin" => 3,        // while, loop, while inside a for
        "pub-reach" => 4,                // own file, `pub use`, integration test, unit test
        other => panic!("no fixture expectation for `{other}`"),
    }
}

#[test]
fn every_rule_fires_on_its_bad_fixture() {
    for rule in RULES.map(|r| r.name) {
        let report = analyze(rule, "bad", Some(rule));
        assert_eq!(
            report.findings.len(),
            expected_hits(rule),
            "{rule}/bad.rs findings:\n{}",
            report.to_text()
        );
        assert!(
            report.findings.iter().all(|f| f.rule == rule),
            "{rule}/bad.rs produced foreign findings:\n{}",
            report.to_text()
        );
    }
}

#[test]
fn every_good_fixture_is_silent_under_its_rule() {
    for rule in RULES.map(|r| r.name) {
        let report = analyze(rule, "good", Some(rule));
        assert!(
            report.findings.is_empty(),
            "{rule}/good.rs should be clean:\n{}",
            report.to_text()
        );
    }
}

#[test]
fn good_fixtures_survive_the_full_rule_set() {
    // Cross-rule interference check: a negative case for one rule must
    // not trip any *other* rule either.
    for rule in RULES.map(|r| r.name) {
        let report = analyze(rule, "good", None);
        assert!(
            report.findings.is_empty(),
            "{rule}/good.rs fails under the full rule set:\n{}",
            report.to_text()
        );
    }
}

#[test]
fn wallclock_good_fixture_is_suppressed_not_unflagged() {
    // The negative wallclock case contains a real `Instant::now()` behind
    // an inline allow — prove the suppression (not rule blindness) is
    // what keeps it clean.
    let report = analyze("no-wallclock-in-engine", "good", None);
    assert_eq!(report.suppressed, 1, "{}", report.to_text());
}

#[test]
fn pub_reach_good_fixture_is_suppressed_not_unflagged() {
    // The oracle in the negative tree is named by no other file: the
    // reasoned allow, not a blind spot, keeps it clean.
    let report = analyze("pub-reach", "good", None);
    assert_eq!(report.suppressed, 1, "{}", report.to_text());
}

#[test]
fn malformed_suppressions_are_deny_findings() {
    // Even with no rule in scope, a typo'd `analyze:allow` — bad syntax,
    // no reason, or a rule name the table does not have — is a finding:
    // it can never silently suppress nothing.
    let report = analyze_case("malformed-suppression", "bad", &[]);
    assert_eq!(report.findings.len(), 3, "{}", report.to_text());
    assert!(report
        .findings
        .iter()
        .all(|f| f.rule == "malformed-suppression"));

    let good = analyze("malformed-suppression", "good", None);
    assert!(good.findings.is_empty(), "{}", good.to_text());
}
