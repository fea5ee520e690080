//! The fixture corpus: one positive (`bad.rs`) and one negative
//! (`good.rs`) case per shipped rule, plus the malformed-suppression
//! pair. Each `bad.rs` must fire its rule the expected number of times
//! and each `good.rs` must stay silent — both under the single rule and
//! under the full rule set, so fixtures also prove the rules do not
//! interfere with each other.

use std::fs;
use std::path::PathBuf;

use dlpic_analyze::config::{Config, Level, RULE_NAMES};
use dlpic_analyze::engine::analyze_source;
use dlpic_analyze::report::{Baseline, Report};
use dlpic_analyze::source::SourceFile;

/// Loads `tests/fixtures/<dir>/<which>.rs` as a parsed [`SourceFile`].
fn fixture(dir: &str, which: &str) -> SourceFile {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(dir)
        .join(format!("{which}.rs"));
    let source =
        fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    SourceFile::parse(&format!("fixtures/{dir}/{which}.rs"), &source)
}

/// Analyzes `file` with only `rule` active (every other rule at allow);
/// pass `None` to run the full rule set.
fn analyze(file: &SourceFile, only: Option<&str>) -> Report {
    let mut cfg = Config::all_paths();
    if let Some(rule) = only {
        for (name, rc) in cfg.rules.iter_mut() {
            rc.level = if name == rule {
                Level::Deny
            } else {
                Level::Allow
            };
        }
    }
    let mut report = Report::default();
    analyze_source(file, &cfg, &Baseline::default(), &mut report);
    report
}

/// Expected finding count of each rule's `bad.rs`.
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
        other => panic!("no fixture expectation for `{other}`"),
    }
}

#[test]
fn every_rule_fires_on_its_bad_fixture() {
    for rule in RULE_NAMES {
        let report = analyze(&fixture(rule, "bad"), Some(rule));
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
        assert_eq!(report.deny_count(), expected_hits(rule));
    }
}

#[test]
fn every_good_fixture_is_silent_under_its_rule() {
    for rule in RULE_NAMES {
        let report = analyze(&fixture(rule, "good"), Some(rule));
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
    for rule in RULE_NAMES {
        let report = analyze(&fixture(rule, "good"), None);
        assert_eq!(
            report.deny_count(),
            0,
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
    let report = analyze(&fixture("no-wallclock-in-engine", "good"), None);
    assert_eq!(report.suppressed, 1, "{}", report.to_text());
}

#[test]
fn malformed_suppressions_are_deny_findings() {
    // Even with every rule switched off, a typo'd `analyze:allow` is a
    // deny-level finding — it can never silently suppress nothing.
    let mut cfg = Config::all_paths();
    for rc in cfg.rules.values_mut() {
        rc.level = Level::Allow;
    }
    let mut report = Report::default();
    analyze_source(
        &fixture("malformed-suppression", "bad"),
        &cfg,
        &Baseline::default(),
        &mut report,
    );
    assert_eq!(report.findings.len(), 2, "{}", report.to_text());
    assert!(report
        .findings
        .iter()
        .all(|f| f.rule == "malformed-suppression"));
    assert_eq!(report.deny_count(), 2);

    let good = analyze(&fixture("malformed-suppression", "good"), None);
    assert_eq!(good.deny_count(), 0, "{}", good.to_text());
}

#[test]
fn baseline_covers_bad_fixture_findings() {
    // Round-trip: render a baseline from the hashmap fixture's findings,
    // re-analyze against it, and the same findings stop counting toward
    // --deny while still being reported.
    let file = fixture("no-hashmap-iter-in-state", "bad");
    let first = analyze(&file, Some("no-hashmap-iter-in-state"));
    let baseline = Baseline::parse(&Baseline::render(&first.findings)).expect("round-trip");
    assert_eq!(baseline.len(), first.findings.len());

    let mut cfg = Config::all_paths();
    for (name, rc) in cfg.rules.iter_mut() {
        rc.level = if name == "no-hashmap-iter-in-state" {
            Level::Deny
        } else {
            Level::Allow
        };
    }
    let mut second = Report::default();
    analyze_source(&file, &cfg, &baseline, &mut second);
    assert_eq!(second.findings.len(), first.findings.len());
    assert!(second.findings.iter().all(|f| f.baselined));
    assert_eq!(second.deny_count(), 0);
}
