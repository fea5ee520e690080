//! The fixture corpus: one positive (`bad`) and one negative (`good`)
//! case per shipped rule, plus the malformed-suppression pair. A case is a
//! single file (`<rule>/bad.rs`) or, for the cross-file `pub-reach`, a
//! small tree (`pub-reach/bad/`). Each `bad` case must fire its rule the
//! expected number of times and each `good` case must stay silent — both
//! under the single rule and under the full rule set, so fixtures also
//! prove the rules do not interfere with each other. Every case runs
//! through [`analyze_tree`], the production entry point.

use std::path::PathBuf;

use dlpic_analyze::analyze_tree;
use dlpic_analyze::config::{Config, Level, RULE_NAMES};
use dlpic_analyze::report::{Baseline, Report};

/// Every shipped rule at `deny` on every path, nothing excluded.
fn all_paths() -> Config {
    let mut cfg = Config::repo_default();
    for rc in cfg.rules.values_mut() {
        rc.paths = vec!["**".to_string()];
    }
    cfg.exclude.clear();
    cfg
}

/// Analyzes fixture case `which` (`bad` or `good`) of `dir` under `cfg`:
/// the tree `tests/fixtures/<dir>/<which>/` when it exists, else the
/// file `tests/fixtures/<dir>/<which>.rs` alone.
fn analyze_case(dir: &str, which: &str, mut cfg: Config, baseline: &Baseline) -> Report {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(dir);
    let tree = dir.join(which);
    let root = if tree.is_dir() {
        tree
    } else {
        let other = if which == "bad" { "good" } else { "bad" };
        cfg.exclude = vec![format!("{other}.rs"), format!("{other}/**")];
        dir
    };
    analyze_tree(&root, &cfg, baseline).unwrap_or_else(|e| panic!("{}: {e}", root.display()))
}

/// Analyzes a fixture case with only `rule` active (every other rule at
/// allow); pass `None` to run the full rule set.
fn analyze(dir: &str, which: &str, only: Option<&str>) -> Report {
    let mut cfg = all_paths();
    if let Some(rule) = only {
        for (name, rc) in cfg.rules.iter_mut() {
            rc.level = if name == rule {
                Level::Deny
            } else {
                Level::Allow
            };
        }
    }
    analyze_case(dir, which, cfg, &Baseline::default())
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
    for rule in RULE_NAMES {
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
        assert_eq!(report.deny_count(), expected_hits(rule));
    }
}

#[test]
fn every_good_fixture_is_silent_under_its_rule() {
    for rule in RULE_NAMES {
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
    for rule in RULE_NAMES {
        let report = analyze(rule, "good", None);
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
    // Even with every rule switched off, a typo'd `analyze:allow` is a
    // deny-level finding — it can never silently suppress nothing.
    let mut cfg = all_paths();
    for rc in cfg.rules.values_mut() {
        rc.level = Level::Allow;
    }
    let report = analyze_case("malformed-suppression", "bad", cfg, &Baseline::default());
    assert_eq!(report.findings.len(), 2, "{}", report.to_text());
    assert!(report
        .findings
        .iter()
        .all(|f| f.rule == "malformed-suppression"));
    assert_eq!(report.deny_count(), 2);

    let good = analyze("malformed-suppression", "good", None);
    assert_eq!(good.deny_count(), 0, "{}", good.to_text());
}

#[test]
fn baseline_covers_bad_fixture_findings() {
    // Round-trip: render a baseline from the hashmap fixture's findings,
    // re-analyze against it, and the same findings stop counting toward
    // --deny while still being reported.
    let rule = "no-hashmap-iter-in-state";
    let first = analyze(rule, "bad", Some(rule));
    let baseline = Baseline::parse(&Baseline::render(&first.findings)).expect("round-trip");
    assert_eq!(baseline.len(), first.findings.len());

    let mut cfg = all_paths();
    for (name, rc) in cfg.rules.iter_mut() {
        rc.level = if name == rule {
            Level::Deny
        } else {
            Level::Allow
        };
    }
    let second = analyze_case(rule, "bad", cfg, &baseline);
    assert_eq!(second.findings.len(), first.findings.len());
    assert!(second.findings.iter().all(|f| f.baselined));
    assert_eq!(second.deny_count(), 0);
}
