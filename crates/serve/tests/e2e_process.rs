//! Process-level end-to-end: a real `dlpic-serve` daemon on loopback, a
//! sweep submitted through the real `dlpic-cli` binary, live sample
//! streaming, then `SIGKILL` mid-run — no drain, no goodbye — and a
//! `--resume` restart whose final histories are bit-identical to
//! uninterrupted solo runs. This is the crash-consistency story the spool
//! exists for, exercised through the shipped binaries.

use std::time::Duration;

use dlpic_repro::core::{pool, Scale};
use dlpic_repro::engine::json::Json;
use dlpic_repro::engine::{Backend, EnergyHistory, Engine, SweepSpec};
use dlpic_serve::client::Client;
use dlpic_serve::job::JobRequest;

mod common;
use common::{cli, Daemon};

const STEPS: usize = 300;

fn sweep_job() -> JobRequest {
    let sweep = SweepSpec::grid("two_stream", Scale::Smoke).axis("v0", [0.12, 0.16]);
    JobRequest::sweep(sweep, Backend::Dl1D).with_steps(STEPS)
}

#[test]
fn killed_daemon_resumes_from_spool_bit_identically() {
    let spool = std::env::temp_dir().join(format!("dlpic-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&spool);
    let spool_arg = spool.display().to_string();

    let daemon = Daemon::spawn(&["--spool", &spool_arg]);

    // Submit the sweep through the real CLI.
    let submitted = cli(&[
        "submit",
        "--addr",
        &daemon.addr,
        "--tenant",
        "e2e",
        "--job",
        &sweep_job().to_json_value().to_compact(),
    ]);
    let submitted = Json::parse(submitted.trim()).expect("submit output is JSON");
    let job = submitted
        .field("job")
        .and_then(Json::as_str)
        .expect("job id")
        .to_string();
    assert_eq!(submitted.field("runs").and_then(Json::as_usize), Ok(2));

    // A live watcher sees samples streaming while the run is in flight.
    // The count is shared so the kill below can wait until at least one
    // sample actually arrived — on a loaded box the watcher thread may
    // register its subscription well after the runs start stepping.
    let streamed = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
    let (watch_addr, watch_job) = (daemon.addr.clone(), job.clone());
    let watcher = {
        let streamed = std::sync::Arc::clone(&streamed);
        std::thread::spawn(move || {
            let mut client = Client::connect(&watch_addr).expect("watch connect");
            // The kill severs the stream mid-watch; count what arrived.
            let _ = client.watch(&watch_job, |event| {
                if event.field("event").and_then(Json::as_str) == Ok("sample") {
                    streamed.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                }
            });
        })
    };

    // Let both runs make real progress and the watcher see it stream,
    // then pull the plug.
    let mut client = Client::connect(&daemon.addr).expect("connect");
    loop {
        let doc = client.status(Some(&job)).expect("status");
        let runs = doc.field("jobs").and_then(Json::as_arr).expect("jobs")[0]
            .field("runs")
            .and_then(Json::as_arr)
            .expect("runs")
            .to_vec();
        let progressed = runs
            .iter()
            .all(|r| r.field("steps_done").and_then(Json::as_usize).unwrap() >= 3);
        let done = runs
            .iter()
            .any(|r| r.field("state").and_then(Json::as_str).unwrap() == "done");
        assert!(!done, "a run finished before the kill; raise STEPS");
        if progressed && streamed.load(std::sync::atomic::Ordering::Relaxed) >= 1 {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    daemon.kill();
    watcher.join().expect("watcher thread");
    let streamed = streamed.load(std::sync::atomic::Ordering::Relaxed);
    assert!(streamed >= 1, "watch saw no samples before the kill");

    // The spool shows in-flight work, not a clean shutdown.
    let manifest = std::fs::read_to_string(spool.join("meta.json")).expect("manifest");
    assert!(
        manifest.contains("\"active\"") || manifest.contains("\"queued\""),
        "manifest should record interrupted runs: {manifest}"
    );

    // Restart from the spool and let the sweep finish.
    let daemon = Daemon::spawn(&["--resume", &spool_arg]);
    let mut client = Client::connect(&daemon.addr).expect("reconnect");
    let results = client
        .wait_for(&job, Duration::from_millis(10))
        .expect("wait after resume");
    assert_eq!(results.len(), 2);

    // Bit-identical to solo runs of the same expanded specs.
    let mut solo_specs = sweep_job().expand().expect("expand");
    solo_specs.sort_by(|a, b| a.name.cmp(&b.name));
    let mut got: Vec<_> = results
        .iter()
        .map(|r| {
            (
                r.name.clone(),
                EnergyHistory::from_json_value(r.summary.field("history").unwrap())
                    .expect("history parses"),
            )
        })
        .collect();
    got.sort_by(|a, b| a.0.cmp(&b.0));
    for ((name, served), spec) in got.iter().zip(&solo_specs) {
        assert_eq!(name, &spec.name);
        let solo = Engine::new().run(spec, Backend::Dl1D).expect("solo");
        assert_eq!(
            served, &solo.history,
            "{name}: resumed history differs from the uninterrupted run"
        );
    }

    // The CLI's status/result views work against the resumed daemon.
    let status = cli(&["status", "--addr", &daemon.addr, &job]);
    assert!(status.contains("\"done\""), "{status}");
    let printed = cli(&["result", "--addr", &daemon.addr, &job, "0"]);
    let printed = Json::parse(printed.trim()).expect("result output is JSON");
    assert_eq!(printed.field("state").and_then(Json::as_str), Ok("done"));

    cli(&["drain", "--addr", &daemon.addr]);
    let _ = daemon.wait_timeout_drop();
    let _ = std::fs::remove_dir_all(&spool);
}

/// A 16-run DL job at the paper's scale — one cohort of two 8-row panels,
/// a 25 MB model: every wave's prepare and inference go through the
/// scheduler's worker team — ships histories equal to the direct runs,
/// whether the daemon has every core of the machine or, pinned by
/// `taskset`, exactly one (`available_threads() == 1`: no helper thread,
/// every part inline). `status` says which it was.
#[test]
fn served_histories_equal_direct_runs_on_the_team_and_on_one_core() {
    let seeds: Vec<u64> = (1..=16).collect();
    let job = JobRequest::sweep(
        SweepSpec::grid("two_stream", Scale::Paper).seeds(seeds),
        Backend::Dl1D,
    )
    .with_steps(3);
    let direct: Vec<(String, EnergyHistory)> = job
        .expand()
        .expect("expand")
        .iter()
        .map(|spec| {
            let solo = Engine::new().run(spec, Backend::Dl1D).expect("direct run");
            (spec.name.clone(), solo.history)
        })
        .collect();

    let pinned: &[&str] = &["taskset", "-c", "0"];
    for (wrapper, want_threads) in [(&[][..], pool::available_threads()), (pinned, 1)] {
        let daemon = match Daemon::spawn_under(wrapper, &[]) {
            Ok(daemon) => daemon,
            Err(e) => {
                eprintln!("skipping the {wrapper:?} half: cannot run the wrapper ({e})");
                continue;
            }
        };
        let mut client = Client::connect(&daemon.addr).expect("connect");
        let (id, runs) = client.submit(&job, "e2e").expect("submit");
        assert_eq!(runs, 16);
        let results = client
            .wait_for(&id, Duration::from_millis(10))
            .expect("wait");
        assert_eq!(results.len(), 16);
        for (result, (name, history)) in results.iter().zip(&direct) {
            assert_eq!(&result.name, name);
            assert_eq!(result.state, "done");
            let served = EnergyHistory::from_json_value(result.summary.field("history").unwrap())
                .expect("history parses");
            assert_eq!(&served, history, "{name} under {wrapper:?}");
        }
        let status = client.status(None).expect("status");
        assert_eq!(
            status.field("wave_threads").and_then(Json::as_usize),
            Ok(want_threads),
            "under {wrapper:?}"
        );
        let health = client.health().expect("health");
        assert_eq!(
            health.field("wave_threads").and_then(Json::as_usize),
            Ok(want_threads)
        );
        client.drain().expect("drain");
        let _ = daemon.wait_timeout_drop();
    }
}
