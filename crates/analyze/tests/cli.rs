//! The `dlpic-analyze` binary as CI runs it: its exit code is the gate.
//! 0 on a clean tree, 2 on any finding, 1 (with the usage line) on an
//! argument it does not take.

use std::process::{Command, Output};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dlpic-analyze"))
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("spawn dlpic-analyze")
}

#[test]
fn clean_tree_exits_0() {
    let out = run(&["--root", "tests/fixtures/pub-reach/good"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains("0 finding(s), 1 suppressed"), "{stdout}");
}

#[test]
fn findings_exit_2_and_are_reported_as_json() {
    let out = run(&["--root", "tests/fixtures/pub-reach/bad", "--format", "json"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(2), "{stdout}");
    assert_eq!(
        stdout.matches("\"ruleId\":\"pub-reach\"").count(),
        4,
        "{stdout}"
    );
    assert_eq!(stdout.matches("\"ruleId\"").count(), 4, "{stdout}");
}

#[test]
fn removed_flags_exit_1_with_usage() {
    for args in [
        &["--baseline", "x"][..],
        &["--deny"],
        &["--set", "pub-reach.level=allow"],
    ] {
        let out = run(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.contains("usage: dlpic-analyze"),
            "{args:?}: {stderr}"
        );
    }
}
