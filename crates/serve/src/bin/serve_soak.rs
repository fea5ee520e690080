//! Chaos soak for the serve tier: the overload-governance contract under
//! real process churn. One budgeted `dlpic-serve` daemon (spawned as a
//! subprocess from the sibling binary) is hit with a job burst sized to
//! overflow both the memory budget and the backlog cap, then SIGKILLed
//! and `--resume`d repeatedly while the accepted jobs are mid-flight,
//! and finally fed a poison spec to trip the circuit breaker. The
//! invariants asserted throughout:
//!
//! * every rejection is a structured protocol error (`overloaded` /
//!   `quota-exceeded` / `circuit-open`) carrying `retry_after_ms` where
//!   retry can help — never a dropped connection or a panic;
//! * the spool stays consistent at every kill point (manifest parses,
//!   no leaked atomic-write temp files);
//! * every accepted job finishes `done` and bit-identical to a solo
//!   `Engine::run`, no matter how many kill/resume cycles interleaved;
//! * the breaker quarantines the poison spec after its failure budget.
//!
//! Usage:
//!
//! * `serve_soak` — full soak: paper-scale fleet, 5 kill/resume cycles.
//! * `serve_soak --quick` — CI-sized: smoke-scale fleet, 3 cycles.
//!
//! Prints a one-line JSON summary on success; exits nonzero (via panic)
//! on any violated invariant.

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use dlpic_repro::core::Scale;
use dlpic_repro::engine::json::Json;
use dlpic_repro::engine::{estimate_session, Backend, EnergyHistory, Engine, SweepSpec};
use dlpic_serve::client::Client;
use dlpic_serve::job::JobRequest;
use dlpic_serve::ServeError;

/// The soak daemon's knobs: budget for ~4 co-resident DL sessions, a
/// 6-slot backlog, a hair-trigger breaker with a cooldown longer than
/// the soak (half-open behaviour is covered by the overload tests).
const BUDGET_SESSIONS: usize = 4;
const MAX_QUEUED: usize = 6;
const POISON_SEED: u64 = 13;

struct Params {
    scale: Scale,
    burst: usize,
    steps: usize,
    cycles: usize,
}

impl Params {
    fn new(quick: bool) -> Self {
        if quick {
            // Smoke fleets step fast in release: the step budget keeps
            // runs in flight through the submit loop and the kill cycles.
            Params {
                scale: Scale::Smoke,
                burst: 16,
                steps: 8000,
                cycles: 3,
            }
        } else {
            Params {
                scale: Scale::Paper,
                burst: 32,
                steps: 600,
                cycles: 5,
            }
        }
    }

    fn job(&self, seed: u64) -> JobRequest {
        JobRequest::sweep(
            SweepSpec::grid("two_stream", self.scale).seeds([seed]),
            Backend::Dl1D,
        )
        .with_steps(self.steps)
    }
}

/// The shipped daemon binary sits next to this one in the target dir.
fn sibling(name: &str) -> PathBuf {
    let mut path = std::env::current_exe().expect("current_exe");
    path.pop();
    if path.ends_with("deps") {
        path.pop();
    }
    let path = path.join(name);
    assert!(
        path.exists(),
        "{} not found — build the daemon first (cargo build --release -p dlpic-serve)",
        path.display()
    );
    path
}

/// Kills the daemon on drop so a failed invariant can't leak a process.
struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    fn spawn(args: &[&str]) -> Self {
        let mut child = Command::new(sibling("dlpic-serve"))
            .args(["--listen", "127.0.0.1:0"])
            .args(args)
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn dlpic-serve");
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
        Self { child, addr }
    }

    fn kill(mut self) {
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

/// Spool consistency at a rest point: the manifest parses, every job
/// directory is known to it, and no `.tmp` from an interrupted atomic
/// write survived.
fn check_spool(spool: &std::path::Path) {
    let manifest = std::fs::read_to_string(spool.join("meta.json")).expect("manifest readable");
    let doc = Json::parse(&manifest).expect("manifest is JSON");
    let known: Vec<String> = doc
        .field("jobs")
        .and_then(Json::as_arr)
        .expect("manifest jobs")
        .iter()
        .map(|j| {
            j.field("id")
                .and_then(Json::as_str)
                .expect("id")
                .to_string()
        })
        .collect();
    for entry in std::fs::read_dir(spool).expect("read spool") {
        let entry = entry.expect("entry");
        let name = entry.file_name().into_string().expect("utf-8 name");
        assert!(!name.ends_with(".tmp"), "leaked atomic-write temp {name}");
        if entry.file_type().expect("file type").is_dir() {
            assert!(known.contains(&name), "orphan job dir {name} survived gc");
        }
    }
}

/// (done, total steps) across a job's runs.
fn job_progress(client: &mut Client, job: &str) -> (bool, usize) {
    let doc = client.status(Some(job)).expect("status");
    let runs = doc.field("jobs").and_then(Json::as_arr).expect("jobs")[0]
        .field("runs")
        .and_then(Json::as_arr)
        .expect("runs");
    let done = runs
        .iter()
        .all(|r| r.field("state").and_then(Json::as_str).expect("state") == "done");
    let steps = runs
        .iter()
        .map(|r| {
            r.field("steps_done")
                .and_then(Json::as_usize)
                .expect("steps")
        })
        .sum();
    (done, steps)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let p = Params::new(quick);

    let spool = std::env::temp_dir().join(format!("dlpic-soak-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&spool);
    let spool_arg = spool.display().to_string();

    let est = estimate_session(&p.job(0).expand().expect("expand")[0], Backend::Dl1D).total();
    let budget = (BUDGET_SESSIONS * est).to_string();
    let max_queued = MAX_QUEUED.to_string();
    let inject = format!("seed={POISON_SEED}=panic@1");
    let daemon_args = |resume: bool| {
        let spool_flag = if resume { "--resume" } else { "--spool" };
        vec![
            spool_flag,
            &spool_arg,
            "--spool-interval",
            "4",
            "--max-sessions",
            "16",
            "--memory-budget",
            &budget,
            "--max-queued",
            &max_queued,
            "--breaker-threshold",
            "1",
            "--breaker-cooldown",
            "600",
            "--inject",
            &inject,
        ]
    };
    let mut daemon = Daemon::spawn(&daemon_args(false));
    eprintln!(
        "soak: daemon on {} (budget {budget} B = {BUDGET_SESSIONS} sessions, backlog {MAX_QUEUED})",
        daemon.addr
    );

    // --- Phase 1: overload burst. Poison seed 13 is excluded from the
    // burst range so the injected fault only ever hits the poison job.
    let mut client = Client::connect(&daemon.addr).expect("connect");
    let mut accepted: Vec<(u64, String)> = Vec::new();
    let mut rejected = 0usize;
    for seed in 200..200 + p.burst as u64 {
        match client.submit(&p.job(seed), "soak") {
            Ok((id, runs)) => {
                assert_eq!(runs, 1);
                accepted.push((seed, id));
            }
            Err(ServeError::Protocol(e)) => {
                assert_eq!(
                    e.code, "overloaded",
                    "burst rejection must be the structured overload code, got {e}"
                );
                let advice = e
                    .retry_after_ms
                    .expect("overload rejection must carry retry_after_ms");
                assert!((100..=10_000).contains(&advice), "advice {advice}ms");
                rejected += 1;
            }
            Err(other) => panic!("seed {seed}: unstructured rejection {other}"),
        }
    }
    assert!(
        rejected > 0,
        "a {}-job burst must overflow a {MAX_QUEUED}-slot backlog over {BUDGET_SESSIONS} budgeted sessions",
        p.burst
    );
    assert!(
        accepted.len() >= BUDGET_SESSIONS,
        "the budget admits at least its own capacity"
    );
    eprintln!(
        "soak: burst of {} -> {} accepted, {rejected} shed with retry advice",
        p.burst,
        accepted.len()
    );

    // --- Phase 2: kill/resume cycles while the accepted jobs run.
    let deadline = Instant::now() + Duration::from_secs(600);
    let mut watermark = 0usize;
    let mut cycles_done = 0usize;
    for cycle in 0..p.cycles {
        let (all_done, advanced) = loop {
            assert!(Instant::now() < deadline, "cycle {cycle}: no progress");
            let mut done = true;
            let mut total = 0usize;
            for (_, id) in &accepted {
                let (job_done, steps) = job_progress(&mut client, id);
                done &= job_done;
                total += steps;
            }
            if done || total > watermark + accepted.len() {
                watermark = total;
                break (done, total);
            }
            std::thread::sleep(Duration::from_millis(2));
        };
        if all_done {
            eprintln!("soak: fleet drained after {cycle} kill cycles ({advanced} steps)");
            break;
        }
        daemon.kill();
        check_spool(&spool);
        daemon = Daemon::spawn(&daemon_args(true));
        client = Client::connect(&daemon.addr).expect("reconnect");
        cycles_done += 1;
        eprintln!(
            "soak: cycle {cycle}: killed at {advanced} fleet steps, resumed on {}",
            daemon.addr
        );
    }

    // --- Phase 3: completion and bit-identity against solo runs.
    let mut engine = Engine::new();
    for (seed, id) in &accepted {
        let results = client
            .wait_for(id, Duration::from_millis(10))
            .expect("wait for accepted job");
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].state, "done", "seed {seed}");
        let served =
            EnergyHistory::from_json_value(results[0].summary.field("history").expect("history"))
                .expect("history parses");
        let spec = &p.job(*seed).expand().expect("expand")[0];
        let solo = engine.run(spec, Backend::Dl1D).expect("solo run");
        assert!(
            served == solo.history,
            "seed {seed}: served history differs from solo after {cycles_done} kill cycles"
        );
    }
    eprintln!(
        "soak: all {} accepted jobs bit-identical to solo across {cycles_done} kill/resume cycles",
        accepted.len()
    );

    // --- Phase 4: the breaker quarantines the poison spec. The injected
    // panic fails the first attempt; with threshold 1 the next submit of
    // the same spec must be refused outright.
    let poison = p.job(POISON_SEED).with_steps(50);
    let (poison_id, _) = client.submit(&poison, "soak").expect("poison submit");
    let results = client
        .wait_for(&poison_id, Duration::from_millis(10))
        .expect("wait for poison job");
    assert_eq!(
        results[0].state, "failed",
        "injected panic must fail the run"
    );
    match client.submit(&poison, "soak") {
        Err(ServeError::Protocol(e)) => {
            assert_eq!(e.code, "circuit-open", "got {e}");
            assert!(
                e.retry_after_ms.is_some(),
                "circuit-open carries cooldown advice"
            );
        }
        other => panic!("poison resubmit must trip the breaker, got {other:?}"),
    }
    eprintln!("soak: breaker quarantined the poison spec after 1 failure");

    // --- Summary from the daemon's own meters.
    let health = client.health().expect("health");
    let status = client.status(None).expect("status");
    let p99 = status
        .field("wave_latency")
        .and_then(|w| w.field("p99_ms"))
        .and_then(Json::as_f64)
        .expect("wave latency p99");
    let trips = health
        .field("breaker_trips")
        .and_then(Json::as_usize)
        .expect("breaker_trips");
    assert!(trips >= 1);
    println!(
        "{{\"quick\":{quick},\"burst\":{},\"accepted\":{},\"rejected\":{rejected},\"kill_cycles\":{cycles_done},\"breaker_trips\":{trips},\"wave_p99_ms\":{p99:.3}}}",
        p.burst,
        accepted.len()
    );

    client.drain().expect("drain");
    daemon.kill();
    let _ = std::fs::remove_dir_all(&spool);
}
