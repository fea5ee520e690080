//! Spool manifest back-compat: the version-1 `meta.json` committed under
//! `tests/fixtures/spool_v1/` must keep loading — and writing back what it
//! loaded must reproduce it byte for byte — whatever happens to the code
//! that reads and writes manifests. A manifest of a version this build
//! does not know is refused as `bad-spool`, naming the file, instead of
//! being misread.
//!
//! The fixture holds two jobs: a two-run `v0` sweep (one run done, one
//! queued with its spec) and a keyed single-scenario job whose run failed.
//! To re-record it after an *intended* format change (bump
//! `MANIFEST_VERSION` and keep reading version 1):
//! `cargo test -p dlpic-serve --test spool_compat -- --ignored regenerate`.

use std::path::PathBuf;

use dlpic_repro::engine::json::Json;
use dlpic_serve::job::JobRequest;
use dlpic_serve::spool::{Spool, SpoolJob, SpoolRun};
use dlpic_serve::ServeError;

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/spool_v1")
}

fn temp_spool(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dlpic-spool-compat-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn job(text: &str) -> JobRequest {
    JobRequest::from_json_value(&Json::parse(text).expect("job json")).expect("job request")
}

/// The manifest the fixture records: `(next_job, jobs)`.
fn recorded() -> (u64, Vec<SpoolJob>) {
    let sweep = job(
        r#"{"backend":"dl-1d","sweep":{"scenario":"two_stream","scale":"smoke",
            "axes":[{"name":"v0","values":[0.12,0.16]}]},"steps":40}"#,
    );
    let specs = sweep.expand().expect("sweep expands");
    let runs = specs
        .into_iter()
        .zip(["done", "queued"])
        .map(|(spec, state)| SpoolRun {
            name: spec.name.clone(),
            state: state.into(),
            spec: Some(spec),
            error: None,
        })
        .collect();
    let single = job(
        r#"{"backend":"traditional-1d","sweep":{"scenario":"cold_beam","scale":"smoke",
            "axes":[{"name":"ppc","values":[4]}]},"steps":20,"deadline_steps":10}"#,
    );
    let failed = single.expand().expect("one run").remove(0).name;
    let jobs = vec![
        SpoolJob {
            id: "job-0001".into(),
            tenant: "alice".into(),
            request: sweep,
            job_key: None,
            runs,
        },
        SpoolJob {
            id: "job-0002".into(),
            tenant: "bob".into(),
            request: single,
            job_key: Some("nightly-7".into()),
            runs: vec![SpoolRun {
                name: failed,
                state: "failed".into(),
                spec: None,
                error: Some("deadline exceeded".into()),
            }],
        },
    ];
    (3, jobs)
}

fn read_fixture() -> String {
    let path = fixture_dir().join("meta.json");
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn v1_manifest_fixture_loads_and_writes_back_byte_for_byte() {
    let (next_job, jobs) = Spool::open(fixture_dir())
        .unwrap()
        .load_manifest()
        .expect("the v1 fixture loads");
    assert_eq!(next_job, 3);
    let ids: Vec<&str> = jobs.iter().map(|j| j.id.as_str()).collect();
    assert_eq!(ids, ["job-0001", "job-0002"]);
    let states: Vec<&str> = jobs[0].runs.iter().map(|r| r.state.as_str()).collect();
    assert_eq!(states, ["done", "queued"]);
    assert!(jobs[0].runs.iter().all(|r| r.spec.is_some()));
    assert_eq!(jobs[1].job_key.as_deref(), Some("nightly-7"));
    assert_eq!(jobs[1].runs[0].error.as_deref(), Some("deadline exceeded"));
    assert_eq!(jobs[1].request.deadline_steps, Some(10));

    let dir = temp_spool("rewrite");
    let spool = Spool::open(&dir).unwrap();
    spool.save_manifest(next_job, &jobs).unwrap();
    let rewritten = std::fs::read_to_string(dir.join("meta.json")).unwrap();
    assert_eq!(rewritten, read_fixture(), "the writer drifted from v1");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Loads `text` as a spool manifest and expects `bad-spool` naming the
/// file and mentioning `needle`.
fn assert_refused(tag: &str, text: &str, needle: &str) {
    let dir = temp_spool(tag);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("meta.json"), text).unwrap();
    match Spool::open(&dir).unwrap().load_manifest() {
        Err(ServeError::Protocol(e)) => {
            assert_eq!(e.code, "bad-spool", "{tag}: {e:?}");
            assert!(e.message.contains("meta.json"), "{tag}: {}", e.message);
            assert!(e.message.contains(needle), "{tag}: {}", e.message);
        }
        other => panic!("{tag}: expected bad-spool, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Rewrites the fixture's one occurrence of `from`.
fn fixture_with(from: &str, to: &str) -> String {
    let fixture = read_fixture();
    assert_eq!(fixture.matches(from).count(), 1, "fixture layout changed");
    fixture.replace(from, to)
}

#[test]
fn unknown_manifest_version_is_refused_naming_the_file() {
    let v1 = "\"version\": 1,";
    assert_refused("v2", &fixture_with(v1, "\"version\": 2,"), "version");
    assert_refused("none", &fixture_with(v1, ""), "version");
}

/// A run state that names no lifecycle phase, and a malformed job entry,
/// are refused like a bad version — not re-queued, not reported under
/// the entry's own code without the file.
#[test]
fn bad_run_state_and_bad_job_entry_are_refused_naming_the_file() {
    let queued = "\"state\": \"queued\"";
    assert_refused(
        "state",
        &fixture_with(queued, "\"state\": \"bogus\""),
        "job 0: run 1: unknown state `bogus`",
    );
    assert_refused(
        "axis",
        &fixture_with("\"name\": \"v0\",", ""),
        "job 0: request: bad-job",
    );
}

#[test]
#[ignore = "re-records the committed fixture"]
fn regenerate() {
    let (next_job, jobs) = recorded();
    let dir = fixture_dir();
    std::fs::create_dir_all(&dir).unwrap();
    Spool::open(&dir)
        .unwrap()
        .save_manifest(next_job, &jobs)
        .unwrap();
}
