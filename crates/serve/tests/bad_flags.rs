//! Out-of-range numeric flags of the two binaries exit with the usage
//! line and status 2 — no panic, no silently wrapped value. Every case
//! fails in argument parsing, so no server is started.

use std::io::Read;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Runs `binary` with `args` and returns its exit code and stderr; kills
/// it and fails if it is still running after ten seconds (an accepted
/// flag would start serving).
fn run(binary: &str, args: &[&str]) -> (Option<i32>, String) {
    let mut child = Command::new(binary)
        .args(args)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn");
    let deadline = Instant::now() + Duration::from_secs(10);
    let status = loop {
        if let Some(status) = child.try_wait().expect("wait") {
            break status;
        }
        if Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("{args:?} was accepted: the process kept running");
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .expect("stderr")
        .read_to_string(&mut stderr)
        .expect("read stderr");
    (status.code(), stderr)
}

fn assert_usage(binary: &str, name: &str, args: &[&str]) {
    let (code, stderr) = run(binary, args);
    assert_eq!(code, Some(2), "{args:?}: {stderr}");
    assert!(
        stderr.contains(&format!("usage: {name}")),
        "{args:?}: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
}

#[test]
fn serve_rejects_out_of_range_cooldowns_and_budgets() {
    let serve = env!("CARGO_BIN_EXE_dlpic-serve");
    for flag in [
        ["--breaker-cooldown", "inf"],
        ["--breaker-cooldown", "1e300"],
        ["--breaker-cooldown", "nan"],
        ["--breaker-cooldown", "-1"],
        ["--memory-budget", "20000000000G"],
    ] {
        let args = ["--listen", "127.0.0.1:0", flag[0], flag[1]];
        assert_usage(serve, "dlpic-serve", &args);
    }
}

#[test]
fn cli_rejects_non_finite_timeouts() {
    let cli = env!("CARGO_BIN_EXE_dlpic-cli");
    for timeout in ["nan", "inf"] {
        let args = ["health", "--addr", "127.0.0.1:1", "--timeout", timeout];
        assert_usage(cli, "dlpic-cli", &args);
    }
}
