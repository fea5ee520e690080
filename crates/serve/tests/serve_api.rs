//! In-process contracts of the serving daemon: submitted jobs produce
//! histories bit-identical to solo `Engine::run` calls, watch streams
//! every new diagnostics row exactly once, stop policies end runs early
//! with `stopped` state, bad sweeps are rejected at submit time, cancel
//! leaves the server serving, and the tenant round-robin is observable
//! through `finish_seq`.

use std::time::Duration;

use dlpic_repro::core::Scale;
use dlpic_repro::engine::json::Json;
use dlpic_repro::engine::{self, Backend, Engine, SweepSpec};
use dlpic_serve::client::Client;
use dlpic_serve::job::{JobRequest, StopPolicy};
use dlpic_serve::server::{ServeConfig, Server};
use dlpic_serve::ServeError;

mod common;
use common::history_of;

fn spec(scenario: &str, n_steps: usize, seed: u64) -> engine::ScenarioSpec {
    let mut spec = engine::scenario(scenario, Scale::Smoke).expect("registry");
    spec.n_steps = n_steps;
    spec.seed = seed;
    spec.name = format!("{scenario}[seed={seed}]");
    spec
}

#[test]
fn submitted_scenario_matches_solo_engine_run_bit_exactly() {
    let server = Server::start(ServeConfig::default()).expect("start");
    let mut client = Client::connect(server.addr()).expect("connect");

    let spec = spec("two_stream", 8, 42);
    let solo = Engine::new().run(&spec, Backend::Dl1D).expect("solo");

    let (job, runs) = client
        .submit(&JobRequest::scenario(spec, Backend::Dl1D), "alice")
        .expect("submit");
    assert_eq!(runs, 1);
    let results = client
        .wait_for(&job, Duration::from_millis(5))
        .expect("wait");
    assert_eq!(results.len(), 1);
    assert_eq!(results[0].state, "done");
    assert_eq!(
        history_of(&results[0].summary),
        solo.history,
        "served history must be bit-identical to the solo run"
    );

    client.drain().expect("drain");
    server.wait();
}

#[test]
fn submitted_sweep_expands_and_matches_solo_runs() {
    let server = Server::start(ServeConfig::default()).expect("start");
    let mut client = Client::connect(server.addr()).expect("connect");

    let sweep = SweepSpec::grid("two_stream", Scale::Smoke)
        .axis("v0", [0.15, 0.2])
        .seeds([7, 8]);
    let job = JobRequest::sweep(sweep.clone(), Backend::Traditional1D).with_steps(10);
    let (id, runs) = client.submit(&job, "alice").expect("submit");
    assert_eq!(runs, 4);

    let results = client
        .wait_for(&id, Duration::from_millis(5))
        .expect("wait");
    let mut solo_specs = sweep.specs().expect("sweep expands");
    for spec in &mut solo_specs {
        spec.n_steps = 10;
    }
    assert_eq!(results.len(), solo_specs.len());
    for (result, spec) in results.iter().zip(&solo_specs) {
        assert_eq!(result.name, spec.name);
        assert_eq!(result.state, "done");
        let solo = Engine::new()
            .run(spec, Backend::Traditional1D)
            .expect("solo");
        assert_eq!(history_of(&result.summary), solo.history, "{}", spec.name);
    }

    client.drain().expect("drain");
    server.wait();
}

#[test]
fn watch_streams_each_row_once_then_run_done_and_job_done() {
    let server = Server::start(ServeConfig::default().max_sessions(1)).expect("start");
    let mut client = Client::connect(server.addr()).expect("connect");

    // A blocker holds the only slot so the watched job cannot step (or
    // finish) before the watch subscription is registered — without it
    // the subscription races the run on a loaded machine.
    let (blocker, _) = client
        .submit(
            &JobRequest::scenario(spec("two_stream", 200_000, 9), Backend::Traditional1D),
            "blocker",
        )
        .expect("submit blocker");
    let (job, _) = client
        .submit(
            &JobRequest::scenario(spec("two_stream", 400, 3), Backend::Traditional1D),
            "alice",
        )
        .expect("submit");

    let (watch_addr, watch_job) = (server.addr().to_string(), job.clone());
    let watcher = std::thread::spawn(move || {
        let mut samples = Vec::new();
        let mut run_done = 0usize;
        let mut job_done = 0usize;
        let mut client = Client::connect(&watch_addr).expect("watch connect");
        client
            .watch(&watch_job, |event| {
                match event.field("event").and_then(Json::as_str).unwrap() {
                    "sample" => {
                        samples.push(event.field("step").and_then(Json::as_usize).expect("step"))
                    }
                    "run_done" => run_done += 1,
                    "job_done" => job_done += 1,
                    other => panic!("unexpected event kind {other}"),
                }
            })
            .expect("watch");
        (samples, run_done, job_done)
    });

    // Release the slot only once `status` shows the subscription landed.
    loop {
        let doc = client.status(Some(&job)).expect("status");
        let watchers = doc.field("jobs").and_then(Json::as_arr).expect("jobs")[0]
            .field("watchers")
            .and_then(Json::as_usize)
            .expect("watchers");
        if watchers >= 1 {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    client.cancel(&blocker).expect("cancel blocker");

    let (samples, run_done, job_done) = watcher.join().expect("watcher thread");
    assert_eq!(run_done, 1);
    assert_eq!(job_done, 1);
    // The subscription predates the run's first step, so the stream is
    // the complete history: row 0 through the final row, in order, each
    // exactly once.
    assert_eq!(
        samples.first().copied(),
        Some(0),
        "stream must start at row 0"
    );
    for pair in samples.windows(2) {
        assert_eq!(pair[1], pair[0] + 1, "gap or duplicate in stream");
    }
    assert_eq!(*samples.last().unwrap(), 399);

    client.drain().expect("drain");
    server.wait();
}

#[test]
fn time_stop_policy_ends_runs_early_with_stopped_state() {
    let server = Server::start(ServeConfig::default()).expect("start");
    let mut client = Client::connect(server.addr()).expect("connect");

    let job = JobRequest {
        stop: Some(StopPolicy::Time { t: 0.5 }),
        ..JobRequest::scenario(spec("two_stream", 500, 1), Backend::Traditional1D)
    };
    let (id, _) = client.submit(&job, "alice").expect("submit");
    let results = client
        .wait_for(&id, Duration::from_millis(5))
        .expect("wait");
    assert_eq!(results.len(), 1);
    assert_eq!(results[0].state, "stopped");
    let steps = results[0]
        .summary
        .field("steps")
        .and_then(Json::as_usize)
        .expect("steps");
    assert!(steps < 500, "policy should fire well before the budget");
    assert!(steps > 0);
    let history = history_of(&results[0].summary);
    assert!(*history.times.last().expect("rows") >= 0.5);

    client.drain().expect("drain");
    server.wait();
}

#[test]
fn bad_sweep_axis_is_rejected_at_submit_with_known_names() {
    let server = Server::start(ServeConfig::default()).expect("start");
    let mut client = Client::connect(server.addr()).expect("connect");

    let sweep = SweepSpec::grid("two_stream", Scale::Smoke).axis("warp_factor", [9.0]);
    let err = client
        .submit(&JobRequest::sweep(sweep, Backend::Traditional1D), "alice")
        .expect_err("bogus axis must be rejected");
    let ServeError::Protocol(proto) = err else {
        panic!("expected a protocol rejection, got {err}");
    };
    assert_eq!(proto.code, "bad-job");
    assert!(proto.message.contains("warp_factor"), "{}", proto.message);
    assert!(
        proto.message.contains("not a sweepable parameter"),
        "{}",
        proto.message
    );
    // The rejection names the valid axes so the client can self-correct.
    assert!(proto.message.contains("v0"), "{}", proto.message);

    // The connection and the server both survive the rejection.
    let (id, _) = client
        .submit(
            &JobRequest::scenario(spec("two_stream", 4, 1), Backend::Traditional1D),
            "alice",
        )
        .expect("server still serves");
    client
        .wait_for(&id, Duration::from_millis(5))
        .expect("wait");
    client.drain().expect("drain");
    server.wait();
}

#[test]
fn cancel_finalizes_runs_and_server_keeps_serving() {
    let server = Server::start(ServeConfig::default().max_sessions(1)).expect("start");
    let mut client = Client::connect(server.addr()).expect("connect");

    // Two sizable runs: one active, one queued when the cancel lands.
    let sweep = SweepSpec::grid("two_stream", Scale::Smoke).seeds([1, 2]);
    let job = JobRequest::sweep(sweep, Backend::Traditional1D).with_steps(200_000);
    let (id, runs) = client.submit(&job, "alice").expect("submit");
    assert_eq!(runs, 2);
    let cancelled = client.cancel(&id).expect("cancel");
    assert_eq!(cancelled, 2);

    let doc = client.status(Some(&id)).expect("status");
    let jobs = doc.field("jobs").and_then(Json::as_arr).expect("jobs");
    let runs = jobs[0].field("runs").and_then(Json::as_arr).expect("runs");
    for run in runs {
        assert_eq!(
            run.field("state").and_then(Json::as_str).expect("state"),
            "cancelled"
        );
    }

    // Subsequent jobs still run to completion.
    let (id, _) = client
        .submit(
            &JobRequest::scenario(spec("two_stream", 4, 9), Backend::Traditional1D),
            "alice",
        )
        .expect("submit after cancel");
    let results = client
        .wait_for(&id, Duration::from_millis(5))
        .expect("wait");
    assert_eq!(results[0].state, "done");

    client.drain().expect("drain");
    server.wait();
}

/// With one slot and tenant `a` holding a two-run job, a later one-run
/// job from tenant `b` must finish before `a`'s second run: admission
/// rotates across tenants, not submission order. `finish_seq` makes the
/// order a stored fact rather than a timing guess.
#[test]
fn admission_round_robins_across_tenants() {
    let server = Server::start(ServeConfig::default().max_sessions(1)).expect("start");
    let mut client = Client::connect(server.addr()).expect("connect");

    let sweep_a = SweepSpec::grid("two_stream", Scale::Smoke).seeds([1, 2]);
    let job_a = JobRequest::sweep(sweep_a, Backend::Traditional1D).with_steps(30_000);
    let (id_a, _) = client.submit(&job_a, "a").expect("submit a");
    // Wait until a's first run is admitted so b queues behind a live run.
    loop {
        let doc = client.status(Some(&id_a)).expect("status");
        let state = doc.field("jobs").unwrap().as_arr().unwrap()[0]
            .field("runs")
            .unwrap()
            .as_arr()
            .unwrap()[0]
            .field("state")
            .and_then(Json::as_str)
            .unwrap()
            .to_string();
        assert_ne!(state, "done", "budget too small for the race window");
        if state == "active" {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    let job_b = JobRequest::scenario(spec("two_stream", 30_000, 5), Backend::Traditional1D);
    let (id_b, _) = client.submit(&job_b, "b").expect("submit b");

    client.wait_for(&id_a, Duration::from_millis(5)).expect("a");
    client.wait_for(&id_b, Duration::from_millis(5)).expect("b");

    let seq = |doc: &Json, run: usize| -> u64 {
        doc.field("jobs").unwrap().as_arr().unwrap()[0]
            .field("runs")
            .unwrap()
            .as_arr()
            .unwrap()[run]
            .field("finish_seq")
            .and_then(Json::as_usize)
            .expect("finished runs carry finish_seq") as u64
    };
    let status_a = client.status(Some(&id_a)).expect("status a");
    let status_b = client.status(Some(&id_b)).expect("status b");
    assert!(
        seq(&status_b, 0) < seq(&status_a, 1),
        "tenant b's only run must finish before tenant a's second run \
         (b={}, a[1]={})",
        seq(&status_b, 0),
        seq(&status_a, 1)
    );

    client.drain().expect("drain");
    server.wait();
}

#[test]
fn unix_socket_transport_serves_requests() {
    let path = std::env::temp_dir().join(format!("dlpic-serve-test-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let server = Server::start(ServeConfig::default().listen(format!("unix:{}", path.display())))
        .expect("start on unix socket");
    let mut client = Client::connect(server.addr()).expect("connect");
    let (id, _) = client
        .submit(
            &JobRequest::scenario(spec("two_stream", 4, 1), Backend::Traditional1D),
            "alice",
        )
        .expect("submit");
    let results = client
        .wait_for(&id, Duration::from_millis(5))
        .expect("wait");
    assert_eq!(results[0].state, "done");
    client.drain().expect("drain");
    server.wait();
    let _ = std::fs::remove_file(&path);
}
