//! Fault containment: one sick run must never poison the fleet. A
//! panicking solver, a diverging (NaN) DL run, a blown deadline, a
//! stalled watcher, a corrupt spool file — each is contained to the run
//! (or subscriber) that owns it, reported as structured state, and every
//! healthy neighbour finishes bit-identical to a solo `Engine::run`.

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use dlpic_repro::core::Scale;
use dlpic_repro::engine::json::Json;
use dlpic_repro::engine::{Backend, EnergyHistory, Engine, FaultKind, FaultPlan, SweepSpec};
use dlpic_serve::client::{Backoff, Client};
use dlpic_serve::job::JobRequest;
use dlpic_serve::protocol::WatchPolicy;
use dlpic_serve::server::{ServeConfig, Server};
use dlpic_serve::ServeError;

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("dlpic-fault-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn history_of(summary: &Json) -> EnergyHistory {
    EnergyHistory::from_json_value(summary.field("history").expect("summary history"))
        .expect("history parses")
}

fn run_states(client: &mut Client, job: &str) -> Vec<(String, usize, Option<String>)> {
    let doc = client.status(Some(job)).expect("status");
    doc.field("jobs").and_then(Json::as_arr).expect("jobs")[0]
        .field("runs")
        .and_then(Json::as_arr)
        .expect("runs")
        .iter()
        .map(|r| {
            (
                r.field("state").and_then(Json::as_str).unwrap().to_string(),
                r.field("steps_done").and_then(Json::as_usize).unwrap(),
                r.field("error")
                    .ok()
                    .and_then(|e| e.as_str().ok())
                    .map(str::to_string),
            )
        })
        .collect()
}

/// The tentpole contract, in-process: a fleet with one panicking run and
/// one diverging run finishes; both sick runs report structured failures
/// with partial results; both healthy runs are bit-identical to solo.
#[test]
fn sick_fleet_is_contained_and_healthy_runs_match_solo() {
    let plan = FaultPlan::new().rule("v0=0.12", FaultKind::Panic, 5).rule(
        "v0=0.16",
        FaultKind::NanField,
        10,
    );
    let server = Server::start_with_engine(ServeConfig::default(), Engine::new().with_faults(plan))
        .expect("start");
    let mut client = Client::connect(server.addr()).expect("connect");

    let sweep = SweepSpec::grid("two_stream", Scale::Smoke).axis("v0", [0.1, 0.12, 0.14, 0.16]);
    let job = JobRequest::sweep(sweep, Backend::Dl1D).with_steps(40);
    let (id, runs) = client.submit(&job, "alice").expect("submit");
    assert_eq!(runs, 4);
    let results = client
        .wait_for(&id, Duration::from_millis(5))
        .expect("wait");
    assert_eq!(results.len(), 4, "failed runs still surface results");

    let solo_specs = job.expand().expect("expand");
    for (k, result) in results.iter().enumerate() {
        assert_eq!(result.run, k);
        assert_eq!(result.name, solo_specs[k].name);
    }

    // The two sick runs are failed with a typed story and partial data.
    assert_eq!(results[1].state, "failed");
    let error = results[1].summary.field("error").unwrap().as_str().unwrap();
    assert!(error.contains("solver panicked"), "{error}");
    assert!(error.contains("injected fault"), "{error}");
    assert_eq!(
        results[1].summary.field("partial").ok(),
        Some(&Json::Bool(true))
    );
    assert_eq!(results[3].state, "failed");
    let error = results[3].summary.field("error").unwrap().as_str().unwrap();
    assert!(error.contains("diverged at step"), "{error}");
    assert!(error.contains("field energy"), "{error}");
    // Partial: the NaN landed at step 10, well short of the 40 budget.
    assert!(history_of(&results[3].summary).len() < 40);

    // Status mirrors the error so pollers see it without fetching results.
    let states = run_states(&mut client, &id);
    assert_eq!(states[1].0, "failed");
    assert!(states[1].2.as_deref().unwrap().contains("panicked"));
    assert_eq!(states[3].0, "failed");
    assert!(states[3].2.as_deref().unwrap().contains("diverged"));

    // The healthy neighbours are bit-identical to solo engine runs even
    // though they shared inference batches with the sick ones.
    for k in [0usize, 2] {
        assert_eq!(results[k].state, "done", "run {k}");
        let solo = Engine::new()
            .run(&solo_specs[k], Backend::Dl1D)
            .expect("solo");
        assert_eq!(history_of(&results[k].summary), solo.history, "run {k}");
    }

    client.drain().expect("drain");
    server.wait();
}

#[test]
fn deadline_steps_fails_the_run_with_partial_result() {
    let server = Server::start(ServeConfig::default()).expect("start");
    let mut client = Client::connect(server.addr()).expect("connect");

    let sweep = SweepSpec::grid("two_stream", Scale::Smoke).seeds([1]);
    let job = JobRequest {
        deadline_steps: Some(6),
        ..JobRequest::sweep(sweep, Backend::Traditional1D).with_steps(200_000)
    };
    let (id, _) = client.submit(&job, "alice").expect("submit");
    let results = client
        .wait_for(&id, Duration::from_millis(5))
        .expect("wait");
    assert_eq!(results.len(), 1);
    assert_eq!(results[0].state, "failed");
    let error = results[0].summary.field("error").unwrap().as_str().unwrap();
    assert!(error.contains("deadline exceeded"), "{error}");
    assert_eq!(
        results[0].summary.field("partial").ok(),
        Some(&Json::Bool(true))
    );
    let steps = results[0]
        .summary
        .field("steps")
        .and_then(Json::as_usize)
        .expect("steps");
    assert!((6..200_000).contains(&steps), "stopped at the deadline");

    client.drain().expect("drain");
    server.wait();
}

/// Decimation is deterministic: a subscriber registered before the first
/// step sees exactly every Nth row, in order, and the terminal control
/// events always land.
#[test]
fn decimate_policy_streams_every_nth_row_and_controls_always_land() {
    let server = Server::start(ServeConfig::default().max_sessions(1)).expect("start");
    let mut client = Client::connect(server.addr()).expect("connect");

    // The blocker holds the only slot until the subscription is live.
    let blocker = JobRequest::sweep(
        SweepSpec::grid("two_stream", Scale::Smoke).seeds([9]),
        Backend::Traditional1D,
    )
    .with_steps(200_000);
    let (blocker_id, _) = client.submit(&blocker, "blocker").expect("submit blocker");
    let watched = JobRequest::sweep(
        SweepSpec::grid("two_stream", Scale::Smoke).seeds([3]),
        Backend::Traditional1D,
    )
    .with_steps(400);
    let (job, _) = client.submit(&watched, "alice").expect("submit");

    let (watch_addr, watch_job) = (server.addr().to_string(), job.clone());
    let watcher = std::thread::spawn(move || {
        let mut samples = Vec::new();
        let (mut run_done, mut job_done) = (0usize, 0usize);
        let mut client = Client::connect(&watch_addr).expect("watch connect");
        client
            .watch_with(
                &watch_job,
                WatchPolicy::Decimate(5),
                64,
                |event| match event.field("event").and_then(Json::as_str).unwrap() {
                    "sample" => {
                        samples.push(event.field("step").and_then(Json::as_usize).expect("step"))
                    }
                    "run_done" => run_done += 1,
                    "job_done" => job_done += 1,
                    other => panic!("unexpected event kind {other}"),
                },
            )
            .expect("watch");
        (samples, run_done, job_done)
    });

    // Release the slot only once the subscription (with its policy) shows
    // up in status.
    loop {
        let doc = client.status(Some(&job)).expect("status");
        let stats = doc.field("jobs").and_then(Json::as_arr).expect("jobs")[0]
            .field("watch_stats")
            .and_then(Json::as_arr)
            .expect("watch_stats")
            .to_vec();
        if !stats.is_empty() {
            assert_eq!(
                stats[0].field("policy").and_then(Json::as_str),
                Ok("decimate:5")
            );
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    client.cancel(&blocker_id).expect("cancel blocker");

    let (samples, run_done, job_done) = watcher.join().expect("watcher thread");
    assert_eq!(run_done, 1, "run_done is control traffic, never shed");
    assert_eq!(job_done, 1, "job_done is control traffic, never shed");
    let expected: Vec<usize> = (0..400).step_by(5).collect();
    assert_eq!(samples, expected, "exactly every 5th row, in order");

    client.drain().expect("drain");
    server.wait();
}

/// A watcher that stops reading loses samples — observably, via
/// `watch_stats.dropped` — but never wedges the scheduler, and still
/// receives the terminal control events once it resumes.
#[test]
fn drop_oldest_sheds_samples_observably_and_never_blocks_the_run() {
    let server = Server::start(ServeConfig::default()).expect("start");
    let mut client = Client::connect(server.addr()).expect("connect");

    let job = JobRequest::sweep(
        SweepSpec::grid("two_stream", Scale::Smoke).seeds([4]),
        Backend::Traditional1D,
    )
    .with_steps(500_000);
    let (id, _) = client.submit(&job, "alice").expect("submit");

    // The watcher parks on the first sample until released, so its
    // capacity-1 queue must shed while it sleeps.
    let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
    let (watch_addr, watch_job) = (server.addr().to_string(), id.clone());
    let watcher = std::thread::spawn(move || {
        let mut samples = Vec::new();
        let mut job_done = 0usize;
        let mut parked = false;
        let mut client = Client::connect(&watch_addr).expect("watch connect");
        client
            .watch_with(&watch_job, WatchPolicy::DropOldest, 1, |event| match event
                .field("event")
                .and_then(Json::as_str)
                .unwrap()
            {
                "sample" => {
                    if !parked {
                        parked = true;
                        release_rx.recv().expect("release");
                    }
                    samples.push(event.field("step").and_then(Json::as_usize).expect("step"));
                }
                "job_done" => job_done += 1,
                _ => {}
            })
            .expect("watch");
        (samples, job_done)
    });

    // Shed samples become visible accounting, not silence.
    let deadline = std::time::Instant::now() + Duration::from_secs(120);
    loop {
        assert!(
            std::time::Instant::now() < deadline,
            "no drops recorded; backpressure never engaged"
        );
        let doc = client.status(Some(&id)).expect("status");
        let job_doc = &doc.field("jobs").and_then(Json::as_arr).expect("jobs")[0];
        let runs = job_doc.field("runs").and_then(Json::as_arr).expect("runs");
        assert_ne!(
            runs[0].field("state").and_then(Json::as_str).unwrap(),
            "done",
            "budget too small: the run outpaced the backpressure window"
        );
        let stats = job_doc
            .field("watch_stats")
            .and_then(Json::as_arr)
            .expect("watch_stats")
            .to_vec();
        if !stats.is_empty() {
            let dropped = stats[0].field("dropped").and_then(Json::as_usize).unwrap();
            let queued = stats[0]
                .field("queued_total")
                .and_then(Json::as_usize)
                .unwrap();
            if dropped >= 1 {
                assert!(queued >= 1);
                break;
            }
        }
        std::thread::sleep(Duration::from_millis(5));
    }

    client.cancel(&id).expect("cancel");
    release_tx.send(()).expect("release watcher");
    let (samples, job_done) = watcher.join().expect("watcher thread");
    assert_eq!(job_done, 1, "control events survive a full queue");
    for pair in samples.windows(2) {
        assert!(pair[0] < pair[1], "drop_oldest must preserve order");
    }

    client.drain().expect("drain");
    server.wait();
}

/// A corrupt checkpoint quarantines nothing when the manifest still has
/// the spec: that run restarts from step 0 (with a warning) and the rest
/// of the fleet resumes from its checkpoints — all bit-identical.
#[test]
fn corrupt_checkpoint_restarts_that_run_and_spares_the_rest() {
    let spool = temp_dir("ckpt");
    let server = Server::start(
        ServeConfig::default()
            .spool(&spool)
            .spool_interval(1)
            .max_sessions(2),
    )
    .expect("start");
    let mut client = Client::connect(server.addr()).expect("connect");

    let sweep = SweepSpec::grid("two_stream", Scale::Smoke).seeds([1, 2]);
    let job = JobRequest::sweep(sweep.clone(), Backend::Traditional1D).with_steps(20_000);
    let (id, _) = client.submit(&job, "alice").expect("submit");
    loop {
        let states = run_states(&mut client, &id);
        assert!(
            states.iter().all(|(s, _, _)| s != "done"),
            "a run finished before the drain; raise the budget"
        );
        if states.iter().all(|(_, steps, _)| *steps >= 1) {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    client.drain().expect("drain");
    server.wait();

    // Garbage where run 0's checkpoint should be.
    let ckpt = spool.join(&id).join("run-0.ckpt.json");
    assert!(ckpt.exists(), "spool_interval=1 must have checkpointed");
    std::fs::write(&ckpt, b"{ this is not a checkpoint").expect("corrupt");

    let server = Server::start(ServeConfig::default().resume(&spool)).expect("resume");
    let mut client = Client::connect(server.addr()).expect("connect");
    let results = client
        .wait_for(&id, Duration::from_millis(5))
        .expect("wait after resume");
    assert_eq!(results.len(), 2);
    let mut solo_specs = job.expand().expect("expand");
    for (result, spec) in results.iter().zip(&mut solo_specs) {
        assert_eq!(result.state, "done", "{}", spec.name);
        let solo = Engine::new()
            .run(spec, Backend::Traditional1D)
            .expect("solo");
        assert_eq!(
            history_of(&result.summary),
            solo.history,
            "{}: restarted/resumed history differs from the uninterrupted run",
            spec.name
        );
    }

    client.drain().expect("drain");
    server.wait();
    let _ = std::fs::remove_dir_all(&spool);
}

/// With a spool the daemon keeps a finished summary in `run-<k>.done.json`
/// only: the `result` op serves what the file holds (so a rewritten file
/// shows through, live and after `--resume`), and a file that has become
/// unreadable is a structured error on that run, not a panic or a hang.
#[test]
fn spooled_results_are_served_from_the_done_file() {
    let spool = temp_dir("held-once");
    let server =
        Server::start(ServeConfig::default().spool(&spool).max_sessions(2)).expect("start");
    let mut client = Client::connect(server.addr()).expect("connect");
    let sweep = SweepSpec::grid("two_stream", Scale::Smoke).seeds([1, 2]);
    let job = JobRequest::sweep(sweep, Backend::Traditional1D).with_steps(8);
    let (id, _) = client.submit(&job, "alice").expect("submit");
    let live = client
        .wait_for(&id, Duration::from_millis(5))
        .expect("wait");
    assert_eq!(history_of(&live[0].summary).len(), 9);

    let done = spool.join(&id).join("run-0.done.json");
    let on_disk = Json::parse(&std::fs::read_to_string(&done).expect("done file")).expect("json");
    assert_eq!(on_disk, live[0].summary);
    std::fs::write(&done, br#"{"steps":3,"marker":"from-disk"}"#).expect("rewrite");
    let served = client.results(&id, Some(0)).expect("run 0");
    assert_eq!(
        served[0].summary.field("marker").and_then(Json::as_str),
        Ok("from-disk")
    );

    client.drain().expect("drain");
    server.wait();
    let server = Server::start(ServeConfig::default().resume(&spool)).expect("resume");
    let mut client = Client::connect(server.addr()).expect("connect");
    assert_eq!(run_states(&mut client, &id)[0], ("done".into(), 3, None));
    let all = client.results(&id, None).expect("all results");
    assert_eq!(all.len(), 2);
    assert_eq!(all[1].summary, live[1].summary);

    std::fs::write(&done, b"][").expect("corrupt");
    let err = client
        .results(&id, Some(0))
        .expect_err("unreadable stored result");
    let ServeError::Protocol(proto) = err else {
        panic!("expected protocol error, got {err}");
    };
    assert_eq!(proto.code, "server-error");
    assert_eq!(client.results(&id, Some(1)).expect("sibling").len(), 1);
    client.drain().expect("drain");
    server.wait();
    let _ = std::fs::remove_dir_all(&spool);
}

/// A corrupt result file for a finished run cannot be re-derived: that
/// run is quarantined as `failed` with an error naming the problem,
/// while its sibling's result stays readable and the server serves on.
#[test]
fn corrupt_result_quarantines_the_run_and_spares_its_sibling() {
    let spool = temp_dir("result");
    let server =
        Server::start(ServeConfig::default().spool(&spool).max_sessions(2)).expect("start");
    let mut client = Client::connect(server.addr()).expect("connect");

    let sweep = SweepSpec::grid("two_stream", Scale::Smoke).seeds([1, 2]);
    let job = JobRequest::sweep(sweep, Backend::Traditional1D).with_steps(8);
    let (id, _) = client.submit(&job, "alice").expect("submit");
    client
        .wait_for(&id, Duration::from_millis(5))
        .expect("wait");
    client.drain().expect("drain");
    server.wait();

    std::fs::write(spool.join(&id).join("run-0.done.json"), b"][").expect("corrupt");

    let server = Server::start(ServeConfig::default().resume(&spool)).expect("resume");
    let mut client = Client::connect(server.addr()).expect("connect");
    let states = run_states(&mut client, &id);
    assert_eq!(states[0].0, "failed");
    assert!(
        states[0].2.as_deref().unwrap().contains("unrecoverable"),
        "{:?}",
        states[0].2
    );
    assert_eq!(states[1].0, "done");
    let sibling = client.results(&id, Some(1)).expect("sibling result");
    assert_eq!(sibling.len(), 1);
    let err = client
        .results(&id, Some(0))
        .expect_err("quarantined run has no result");
    let ServeError::Protocol(proto) = err else {
        panic!("expected protocol error, got {err}");
    };
    assert_eq!(proto.code, "not-finished");

    // The quarantine is contained: new work still runs.
    let follow_up = JobRequest::sweep(
        SweepSpec::grid("two_stream", Scale::Smoke).seeds([7]),
        Backend::Traditional1D,
    )
    .with_steps(4);
    let (id2, _) = client.submit(&follow_up, "alice").expect("submit");
    let results = client
        .wait_for(&id2, Duration::from_millis(5))
        .expect("wait");
    assert_eq!(results[0].state, "done");

    client.drain().expect("drain");
    server.wait();
    let _ = std::fs::remove_dir_all(&spool);
}

#[test]
fn job_key_makes_submit_idempotent_per_tenant() {
    let server = Server::start(ServeConfig::default()).expect("start");
    let mut client = Client::connect(server.addr()).expect("connect");

    let job = JobRequest::sweep(
        SweepSpec::grid("two_stream", Scale::Smoke).seeds([1, 2]),
        Backend::Traditional1D,
    )
    .with_steps(6);
    let (id_a, runs_a, deduped) = client
        .submit_keyed(&job, "alice", Some("nightly"))
        .expect("submit");
    assert!(!deduped);
    assert_eq!(runs_a, 2);

    // Same tenant + key: the retry is absorbed, pointing at the original.
    let (id_replay, runs_replay, deduped) = client
        .submit_keyed(&job, "alice", Some("nightly"))
        .expect("replay");
    assert!(deduped, "second submit with the same key must dedupe");
    assert_eq!(id_replay, id_a);
    assert_eq!(runs_replay, 2);

    // The key is scoped to the tenant; another key is another job.
    let (id_bob, _, deduped) = client
        .submit_keyed(&job, "bob", Some("nightly"))
        .expect("other tenant");
    assert!(!deduped);
    assert_ne!(id_bob, id_a);
    let (id_other, _, deduped) = client
        .submit_keyed(&job, "alice", Some("weekly"))
        .expect("other key");
    assert!(!deduped);
    assert_ne!(id_other, id_a);

    for id in [&id_a, &id_bob, &id_other] {
        client.wait_for(id, Duration::from_millis(5)).expect("wait");
    }
    client.drain().expect("drain");
    server.wait();
}

/// A server that accepts but never answers must cost a bounded wait, not
/// a hang: the configured read deadline surfaces as the typed `Timeout`.
#[test]
fn read_timeout_surfaces_as_typed_timeout() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let mut client =
        Client::connect_with(&addr, Some(Duration::from_millis(200))).expect("connect");
    let started = std::time::Instant::now();
    let err = client.status(None).expect_err("no reply must time out");
    assert!(matches!(err, ServeError::Timeout), "got {err}");
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "timeout must be bounded"
    );
    drop(listener);
}

/// `wait_for_retry` rides out a full server restart: the poll fails while
/// the server is down, reconnects with backoff against the same address,
/// and returns results from the resumed fleet.
///
/// Twenty restarts in a row, because the failure this guards against is a
/// race: a connection accepted in the instant before the drain used to
/// keep its (detached) handler, which went on answering `status` for a
/// scheduler that no longer existed — the run forever `active`, the
/// waiter never erroring into its retry path. A drain now hangs up on
/// every connection. The first nineteen rounds cancel the job once the
/// waiter has crossed the restart; the last lets it finish and checks the
/// history against the direct run.
#[test]
fn wait_for_retry_survives_a_server_restart() {
    const ROUNDS: usize = 20;
    let job = JobRequest::sweep(
        SweepSpec::grid("two_stream", Scale::Smoke).seeds([5]),
        Backend::Traditional1D,
    )
    .with_steps(20_000);
    for round in 0..ROUNDS {
        let spool = temp_dir(&format!("retry-{round}"));
        let socket =
            std::env::temp_dir().join(format!("dlpic-retry-{}-{round}.sock", std::process::id()));
        let _ = std::fs::remove_file(&socket);
        let listen = format!("unix:{}", socket.display());

        let server = Server::start(
            ServeConfig::default()
                .listen(listen.as_str())
                .spool(&spool)
                .spool_interval(1),
        )
        .expect("start");
        let mut client = Client::connect(server.addr()).expect("connect");
        let (id, _) = client.submit(&job, "alice").expect("submit");
        loop {
            let states = run_states(&mut client, &id);
            assert!(states.iter().all(|(s, _, _)| s != "done"), "budget");
            if states.iter().all(|(_, steps, _)| *steps >= 1) {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }

        let (waiter_listen, waiter_id) = (listen.clone(), id.clone());
        let waiter = std::thread::spawn(move || {
            let mut client = Client::connect(&waiter_listen).expect("waiter connect");
            client.wait_for_retry(&waiter_id, Duration::from_millis(10), Backoff::attempts(30))
        });

        // Take the server down mid-poll, then bring it back on the same
        // address from the spool.
        client.drain().expect("drain");
        server.wait();
        std::thread::sleep(Duration::from_millis(if round + 1 == ROUNDS {
            300
        } else {
            30
        }));
        let server = Server::start(
            ServeConfig::default()
                .listen(listen.as_str())
                .resume(&spool),
        )
        .expect("resume");
        let mut client = Client::connect(server.addr()).expect("connect");
        let last = round + 1 == ROUNDS;
        if !last {
            client.cancel(&id).expect("cancel");
        }

        let results = waiter
            .join()
            .expect("waiter thread")
            .unwrap_or_else(|e| panic!("round {round}: wait_for_retry: {e}"));
        if last {
            assert_eq!(results.len(), 1);
            assert_eq!(results[0].state, "done");
            let solo = Engine::new()
                .run(&job.expand().expect("expand")[0], Backend::Traditional1D)
                .expect("solo");
            assert_eq!(history_of(&results[0].summary), solo.history);
        }

        client.drain().expect("drain");
        server.wait();
        let _ = std::fs::remove_dir_all(&spool);
        let _ = std::fs::remove_file(&socket);
    }
}

// ---------------------------------------------------------------------
// Process-level acceptance: the shipped binaries, a sick fleet, SIGKILL,
// a corrupted checkpoint, and a `--resume` that puts it all back.
// ---------------------------------------------------------------------

/// Kills the daemon on drop so a failing assert can't leak a process.
struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    fn spawn(extra: &[&str]) -> Self {
        let mut child = Command::new(env!("CARGO_BIN_EXE_dlpic-serve"))
            .args(["--listen", "127.0.0.1:0", "--spool-interval", "1"])
            .args(extra)
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

fn cli(args: &[&str]) -> String {
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

#[test]
fn sick_fleet_survives_sigkill_and_corrupt_checkpoint_end_to_end() {
    let spool = temp_dir("e2e");
    let spool_arg = spool.display().to_string();
    let inject = "v0=0.12=panic@5;v0=0.16=nan@10";

    let daemon = Daemon::spawn(&["--spool", &spool_arg, "--inject", inject]);

    let sweep = SweepSpec::grid("two_stream", Scale::Smoke).axis("v0", [0.1, 0.12, 0.14, 0.16]);
    let job_req = JobRequest::sweep(sweep, Backend::Dl1D).with_steps(300);
    let job_json = job_req.to_json_value().to_compact();
    let submitted = cli(&[
        "submit",
        "--addr",
        &daemon.addr,
        "--tenant",
        "e2e",
        "--job-key",
        "accept-1",
        "--job",
        &job_json,
    ]);
    let submitted = Json::parse(submitted.trim()).expect("submit output is JSON");
    let job = submitted
        .field("job")
        .and_then(Json::as_str)
        .expect("job id")
        .to_string();

    // A replayed submit (same tenant + key) is absorbed, not duplicated.
    let replay = cli(&[
        "submit",
        "--addr",
        &daemon.addr,
        "--tenant",
        "e2e",
        "--job-key",
        "accept-1",
        "--job",
        &job_json,
    ]);
    let replay = Json::parse(replay.trim()).expect("replay output is JSON");
    assert_eq!(replay.field("job").and_then(Json::as_str), Ok(&*job));
    assert_eq!(replay.field("deduped"), Ok(&Json::Bool(true)));

    // Wait until both sick runs have failed and both healthy runs have
    // real progress — then pull the plug with no goodbye.
    let mut client = Client::connect(&daemon.addr).expect("connect");
    loop {
        let states = run_states(&mut client, &job);
        assert!(
            states.iter().all(|(s, _, _)| s != "done"),
            "a healthy run finished before the kill; raise the budget"
        );
        let sick_failed = states[1].0 == "failed" && states[3].0 == "failed";
        let healthy_moving = states[0].1 >= 3 && states[2].1 >= 3;
        if sick_failed && healthy_moving {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    daemon.kill();

    // Vandalize one healthy run's checkpoint before the restart.
    let ckpt = spool.join(&job).join("run-2.ckpt.json");
    assert!(ckpt.exists(), "healthy run 2 must have checkpointed");
    std::fs::write(&ckpt, b"\x00\xff garbage").expect("corrupt");

    let daemon = Daemon::spawn(&["--resume", &spool_arg, "--inject", inject]);
    let mut client = Client::connect(&daemon.addr).expect("reconnect");
    let results = client
        .wait_for(&job, Duration::from_millis(10))
        .expect("wait after resume");
    assert_eq!(results.len(), 4);

    // Sick runs: still failed, with their structured stories intact
    // across the crash (loaded back from the spool, not recomputed).
    assert_eq!(results[1].state, "failed");
    let error = results[1].summary.field("error").unwrap().as_str().unwrap();
    assert!(error.contains("solver panicked"), "{error}");
    assert_eq!(results[3].state, "failed");
    let error = results[3].summary.field("error").unwrap().as_str().unwrap();
    assert!(error.contains("diverged at step"), "{error}");

    // Healthy runs: done and bit-identical to solo — run 0 resumed from
    // its checkpoint, run 2 restarted from step 0 after the corruption.
    let solo_specs = job_req.expand().expect("expand");
    for k in [0usize, 2] {
        assert_eq!(results[k].state, "done", "run {k}");
        let solo = Engine::new()
            .run(&solo_specs[k], Backend::Dl1D)
            .expect("solo");
        assert_eq!(
            history_of(&results[k].summary),
            solo.history,
            "run {k}: history differs from the uninterrupted run"
        );
    }

    cli(&["drain", "--addr", &daemon.addr]);
    daemon.kill();
    let _ = std::fs::remove_dir_all(&spool);
}

/// Spool-GC invariants that must hold at every rest point: the directory
/// holds exactly the manifest plus one directory per manifest job (no
/// orphans from pruned/cancelled work) and no leaked `.tmp` files from
/// interrupted atomic writes.
fn assert_spool_invariants(spool: &std::path::Path) {
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
                .expect("job id")
                .to_string()
        })
        .collect();
    for entry in std::fs::read_dir(spool).expect("read spool") {
        let entry = entry.expect("entry");
        let name = entry.file_name().into_string().expect("utf-8 name");
        assert!(!name.ends_with(".tmp"), "leaked atomic-write temp {name}");
        if entry.file_type().expect("file type").is_dir() {
            assert!(known.contains(&name), "orphan job dir {name} survived gc");
            for file in std::fs::read_dir(entry.path()).expect("job dir") {
                let file = file
                    .expect("entry")
                    .file_name()
                    .into_string()
                    .expect("utf-8");
                assert!(
                    !file.ends_with(".tmp"),
                    "leaked atomic-write temp {name}/{file}"
                );
            }
        } else {
            assert_eq!(name, "meta.json", "unexpected stray file {name}");
        }
    }
}

/// The restart story under sustained abuse: a mixed healthy/sick fleet
/// is SIGKILLed mid-flight and `--resume`d five times in a row. After
/// every cycle the spool obeys its GC invariants and the sick run's
/// quarantine survives verbatim; after the last cycle the healthy runs
/// finish bit-identical to uninterrupted solo runs — five partial
/// replays composed exactly, losing and corrupting nothing.
#[test]
fn five_sigkill_resume_cycles_compose_bit_identically() {
    let spool = temp_dir("soak");
    let spool_arg = spool.display().to_string();
    let inject = "v0=0.12=panic@5";
    let sweep = SweepSpec::grid("two_stream", Scale::Smoke).axis("v0", [0.1, 0.12, 0.14, 0.16]);
    // Long enough that no healthy run can finish inside five short
    // observe-then-kill windows (smoke DL runs step fast even in debug).
    let job_req = JobRequest::sweep(sweep, Backend::Dl1D).with_steps(4000);

    // `--spool-interval 4` (last flag wins) keeps checkpoint I/O from
    // dominating a 4000-step fleet while still bounding replay per kill.
    let daemon = Daemon::spawn(&[
        "--spool",
        &spool_arg,
        "--inject",
        inject,
        "--spool-interval",
        "4",
    ]);
    let (job, runs) = Client::connect(&daemon.addr)
        .expect("connect")
        .submit(&job_req, "soak")
        .expect("submit");
    assert_eq!(runs, 4);

    let mut watermark = [0usize; 4];
    let mut daemon = daemon;
    for cycle in 0..5 {
        // Let every healthy run advance past its last observed progress
        // (and the sick run reach quarantine) before pulling the plug.
        let deadline = std::time::Instant::now() + Duration::from_secs(120);
        let mut client = Client::connect(&daemon.addr).expect("reconnect");
        loop {
            assert!(
                std::time::Instant::now() < deadline,
                "cycle {cycle}: fleet made no progress"
            );
            let states = run_states(&mut client, &job);
            assert!(
                states.iter().all(|(s, _, _)| s != "done"),
                "cycle {cycle}: a healthy run finished early; raise the step budget"
            );
            let healthy_moved = [0usize, 2, 3]
                .iter()
                .all(|&k| states[k].1 > watermark[k] + 1);
            if healthy_moved && states[1].0 == "failed" {
                for (k, (_, steps, _)) in states.iter().enumerate() {
                    watermark[k] = *steps;
                }
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        daemon.kill();

        // At rest: the spool is consistent after an uncoordinated kill.
        assert_spool_invariants(&spool);

        daemon = Daemon::spawn(&[
            "--resume",
            &spool_arg,
            "--inject",
            inject,
            "--spool-interval",
            "4",
        ]);
        let mut client = Client::connect(&daemon.addr).expect("reconnect");
        let states = run_states(&mut client, &job);
        assert_eq!(
            states[1].0, "failed",
            "cycle {cycle}: quarantine must survive the restart"
        );
        assert!(
            states[1].2.as_deref().unwrap().contains("solver panicked"),
            "cycle {cycle}: structured error lost: {:?}",
            states[1].2
        );
    }

    // Let the final incarnation run the fleet to completion.
    let mut client = Client::connect(&daemon.addr).expect("connect");
    let results = client
        .wait_for(&job, Duration::from_millis(10))
        .expect("wait after final resume");
    assert_eq!(results.len(), 4);
    let solo_specs = job_req.expand().expect("expand");
    for k in [0usize, 2, 3] {
        assert_eq!(results[k].state, "done", "run {k}");
        let solo = Engine::new()
            .run(&solo_specs[k], Backend::Dl1D)
            .expect("solo");
        assert_eq!(
            history_of(&results[k].summary),
            solo.history,
            "run {k}: five kill/resume cycles diverged from the uninterrupted run"
        );
    }
    assert_eq!(results[1].state, "failed");

    cli(&["drain", "--addr", &daemon.addr]);
    daemon.kill();
    assert_spool_invariants(&spool);
    let _ = std::fs::remove_dir_all(&spool);
}
