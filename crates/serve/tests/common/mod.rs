//! The harness the serve process tests share: a spawned `dlpic-serve`
//! daemon that dies with its handle, a `dlpic-cli` runner, a per-test
//! temp directory and the history of a run summary.

// Each test binary compiles this module and uses only part of it.
#![allow(dead_code)]

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use dlpic_repro::engine::json::Json;
use dlpic_repro::engine::EnergyHistory;

/// Kills the daemon on drop so a failing assert can't leak a process.
pub struct Daemon {
    child: Child,
    pub addr: String,
}

impl Daemon {
    pub fn spawn(extra: &[&str]) -> Self {
        Self::spawn_under(&[], extra).expect("spawn dlpic-serve")
    }

    /// [`Self::spawn`] with the daemon launched through a wrapper command
    /// (`taskset -c 0`, say); `Err` when the wrapper cannot be run.
    pub fn spawn_under(wrapper: &[&str], extra: &[&str]) -> std::io::Result<Self> {
        let serve = env!("CARGO_BIN_EXE_dlpic-serve");
        let mut command = match wrapper.split_first() {
            Some((program, args)) => {
                let mut command = Command::new(program);
                command.args(args).arg(serve);
                command
            }
            None => Command::new(serve),
        };
        let mut child = command
            .args(["--listen", "127.0.0.1:0", "--spool-interval", "1"])
            .args(extra)
            .stdout(Stdio::piped())
            .spawn()?;
        let stdout = child.stdout.take().expect("stdout");
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .expect("read ready line");
        let addr = line
            .strip_prefix("listening ")
            .unwrap_or_else(|| panic!("unexpected ready line {line:?}"))
            .trim()
            .to_string();
        Ok(Self { child, addr })
    }

    /// Waits for a drained daemon to exit on its own, with a kill-backed
    /// deadline so the test cannot hang.
    pub fn wait_timeout_drop(mut self) -> std::io::Result<()> {
        for _ in 0..200 {
            if self.child.try_wait()?.is_some() {
                std::mem::forget(self);
                return Ok(());
            }
            std::thread::sleep(Duration::from_millis(25));
        }
        Ok(()) // Drop kills it.
    }

    pub fn kill(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        std::mem::forget(self);
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Runs `dlpic-cli` with `args`, asserts it succeeded, returns its stdout.
pub fn cli(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_dlpic-cli"))
        .args(args)
        .output()
        .expect("run dlpic-cli");
    assert!(
        out.status.success(),
        "dlpic-cli {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("cli output is UTF-8")
}

/// A fresh (removed, not created) temp directory unique to this test
/// binary, process and `tag`.
pub fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "dlpic-{}-{}-{tag}",
        env!("CARGO_CRATE_NAME"),
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The energy history a run summary carries.
pub fn history_of(summary: &Json) -> EnergyHistory {
    EnergyHistory::from_json_value(summary.field("history").expect("summary history"))
        .expect("history parses")
}
