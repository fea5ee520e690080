//! The `repro` binary's command line, driven as a process. No test here
//! trains a model or runs a row: each one stops at the argument check or
//! at the output directory, before the first row starts.

use std::path::PathBuf;
use std::process::{Command, Output};

/// Runs `repro` with `args` in `dir`, with `DLPIC_SCALE` unset.
fn repro(dir: &std::path::Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .current_dir(dir)
        .env_remove("DLPIC_SCALE")
        .output()
        .expect("spawn repro")
}

/// A fresh, empty directory for one test.
fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dlpic-repro-cli-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn an_unknown_row_exits_2_with_the_row_names() {
    let dir = temp_dir("row");
    let out = repro(&dir, &["--scale", "smoke", "--rows", "fig4,fig7"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    let err = stderr(&out);
    assert!(err.contains("unknown row `fig7`"), "{err}");
    for row in [
        "table1",
        "fig4",
        "fig5",
        "fig6",
        "spectral",
        "ext2d",
        "perf-dist",
        "ablation-binning",
        "ablation-physics",
        "ablation-arch",
        "ablation-grid",
        "ablation-data",
        "ablation-temporal",
    ] {
        assert!(err.contains(row), "usage does not list `{row}`:\n{err}");
    }
    assert!(
        !dir.join("out").exists(),
        "a refused command line wrote out/"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_unknown_scale_exits_2() {
    let dir = temp_dir("scale");
    let out = repro(&dir, &["--scale", "huge"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(stderr(&out).contains("unknown scale `huge`"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// The rows run in table order whatever order they are named in. A
/// file named `out` stops the run at the output directory, after the
/// plan is printed and before the first row builds anything.
#[test]
fn rows_run_in_table_order() {
    let dir = temp_dir("order");
    std::fs::write(dir.join("out"), b"not a directory").unwrap();
    let out = repro(&dir, &["--scale", "smoke", "--rows", "fig5,fig4"]);
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(
        err.contains("repro [smoke scale]: rows fig4, fig5\n"),
        "{err}"
    );
    assert!(out.stdout.is_empty(), "a row ran");
    let _ = std::fs::remove_dir_all(&dir);
}
