//! Overload governance: budgeted admission, bounded backlog with
//! structured load shedding, per-tenant quotas, poison-job circuit
//! breakers, and spool retention. The through-line: an overloaded or
//! poisoned server *degrades* — every rejection is a typed error with
//! retry advice, every accepted job still finishes bit-identical to a
//! solo `Engine::run`, and the scheduler never wedges or OOMs.
//!
//! These tests run at `Scale::Smoke` so they stay fast in debug builds;
//! the release-mode `serve_soak` bench harness drives the same machinery
//! at paper scale.

use std::time::Duration;

use dlpic_repro::core::Scale;
use dlpic_repro::engine::json::Json;
use dlpic_repro::engine::{
    estimate_session, Backend, EnergyHistory, Engine, FaultKind, FaultPlan, SweepSpec,
};
use dlpic_serve::client::{Backoff, Client};
use dlpic_serve::job::JobRequest;
use dlpic_serve::server::{ServeConfig, Server};
use dlpic_serve::ServeError;

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("dlpic-overload-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn history_of(summary: &Json) -> EnergyHistory {
    EnergyHistory::from_json_value(summary.field("history").expect("summary history"))
        .expect("history parses")
}

fn proto_code(err: &ServeError) -> String {
    match err {
        ServeError::Protocol(e) => e.code.clone(),
        other => panic!("expected a protocol rejection, got {other}"),
    }
}

/// One seed's single-run DL job at smoke scale.
fn dl_job(seed: u64, steps: usize) -> JobRequest {
    JobRequest::sweep(
        SweepSpec::grid("two_stream", Scale::Smoke).seeds([seed]),
        Backend::Dl1D,
    )
    .with_steps(steps)
}

/// The tentpole acceptance story: a memory budget sized for ~4 DL
/// sessions plus a small backlog cap, hit with a 32-job burst. Expected:
/// a bounded prefix is accepted, everything else is shed with a
/// structured `overloaded` rejection carrying `retry_after_ms`, the
/// budget occupancy never exceeds its limit at any observed instant, and
/// every accepted job finishes bit-identical to a solo engine run.
#[test]
fn burst_is_shed_structurally_and_accepted_jobs_match_solo() {
    let probe = dl_job(0, 10).expand().expect("expand")[0].clone();
    let est = estimate_session(&probe, Backend::Dl1D).total();
    let budget = est * 4;
    let server = Server::start(
        ServeConfig::default()
            .max_sessions(16)
            .memory_budget(budget)
            .max_queued(6)
            .tenant_max_queued(100),
    )
    .expect("start");
    let mut client = Client::connect(server.addr()).expect("connect");

    // Long enough that no run finishes during the submit loop — the
    // backlog genuinely fills instead of draining between submits.
    let steps = 3000;
    let mut accepted: Vec<(String, u64)> = Vec::new();
    let mut rejected = 0usize;
    for seed in 0..32u64 {
        match client.submit(&dl_job(seed, steps), "burst") {
            Ok((id, runs)) => {
                assert_eq!(runs, 1);
                accepted.push((id, seed));
            }
            Err(err) => {
                assert_eq!(proto_code(&err), "overloaded");
                assert!(
                    err.retry_after_ms().is_some(),
                    "overload rejections must advise a retry interval"
                );
                rejected += 1;
            }
        }
    }
    assert!(!accepted.is_empty(), "the server must accept what fits");
    assert!(
        rejected > 0,
        "a 32-job burst must overflow a 6-slot backlog"
    );
    assert!(
        accepted.len() <= 6 + 16,
        "acceptance is bounded by backlog + budget, got {}",
        accepted.len()
    );

    // While the fleet drains: the budget invariant holds at every
    // observed instant, and active concurrency respects the budget.
    let deadline = std::time::Instant::now() + Duration::from_secs(300);
    loop {
        assert!(std::time::Instant::now() < deadline, "fleet never drained");
        let doc = client.status(None).expect("status");
        let budget_doc = doc.field("budget").expect("budget");
        let active_bytes = budget_doc
            .field("active_bytes")
            .and_then(Json::as_usize)
            .expect("active_bytes");
        let limit = budget_doc
            .field("limit_bytes")
            .and_then(Json::as_usize)
            .expect("limit_bytes");
        assert_eq!(limit, budget);
        assert!(
            active_bytes <= limit,
            "budget overshoot: {active_bytes} > {limit}"
        );
        let active_runs = doc
            .field("active_runs")
            .and_then(Json::as_usize)
            .expect("active_runs");
        assert!(
            active_runs <= 4,
            "budget admits at most 4, saw {active_runs}"
        );
        let queued = doc
            .field("queued_runs")
            .and_then(Json::as_usize)
            .expect("queued_runs");
        assert!(queued <= 6, "backlog cap breached: {queued}");
        if active_runs == 0 && queued == 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }

    // Per-tenant backlog accounting surfaced the burst tenant.
    let doc = client.status(None).expect("status");
    let backlog = doc
        .field("backlog")
        .and_then(Json::as_arr)
        .expect("backlog");
    assert!(backlog
        .iter()
        .any(|b| b.field("tenant").and_then(Json::as_str) == Ok("burst")));

    // Wave latency histogram populated; p99 is a positive upper bound.
    let latency = doc.field("wave_latency").expect("wave_latency");
    assert!(latency.field("count").and_then(Json::as_usize).unwrap() > 0);
    assert!(latency.field("p99_ms").and_then(Json::as_f64).unwrap() > 0.0);

    // Every accepted job is bit-identical to its solo run.
    for (id, seed) in &accepted {
        let results = client.wait_for(id, Duration::from_millis(2)).expect("wait");
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].state, "done", "{id}");
        let spec = dl_job(*seed, steps).expand().expect("expand")[0].clone();
        let solo = Engine::new().run(&spec, Backend::Dl1D).expect("solo");
        assert_eq!(
            history_of(&results[0].summary),
            solo.history,
            "seed {seed}: served history differs from solo"
        );
    }

    client.drain().expect("drain");
    server.wait();
}

/// A single run whose estimate exceeds the whole budget can never be
/// admitted: permanent `quota-exceeded`, no retry advice.
#[test]
fn run_larger_than_the_whole_budget_is_permanently_rejected() {
    let server = Server::start(ServeConfig::default().memory_budget(1)).expect("start");
    let mut client = Client::connect(server.addr()).expect("connect");
    let err = client
        .submit(&dl_job(1, 10), "alice")
        .expect_err("1-byte budget fits nothing");
    assert_eq!(proto_code(&err), "quota-exceeded");
    assert!(
        err.retry_after_ms().is_none(),
        "a permanent rejection must not advise retrying"
    );
    client.drain().expect("drain");
    server.wait();
}

/// Tenant quotas isolate noisy neighbours: one tenant filling its queue
/// gets `quota-exceeded` while another tenant still submits freely.
#[test]
fn tenant_quota_rejects_the_hog_but_not_the_neighbour() {
    let server = Server::start(
        ServeConfig::default()
            .max_sessions(1)
            .max_queued(100)
            .tenant_max_queued(2),
    )
    .expect("start");
    let mut client = Client::connect(server.addr()).expect("connect");

    // The blocker occupies the only session, so later submissions stay
    // queued and the quota arithmetic is deterministic.
    let blocker = JobRequest::sweep(
        SweepSpec::grid("two_stream", Scale::Smoke).seeds([99]),
        Backend::Traditional1D,
    )
    .with_steps(500_000);
    let (blocker_id, _) = client.submit(&blocker, "blocker").expect("blocker");

    let (a1, _) = client.submit(&dl_job(1, 8), "hog").expect("first fits");
    let (a2, _) = client.submit(&dl_job(2, 8), "hog").expect("second fits");
    let err = client
        .submit(&dl_job(3, 8), "hog")
        .expect_err("third breaches the tenant quota");
    assert_eq!(proto_code(&err), "quota-exceeded");
    assert!(err.retry_after_ms().is_some());

    let (b1, _) = client
        .submit(&dl_job(4, 8), "neighbour")
        .expect("the neighbour tenant is unaffected");

    for id in [&blocker_id, &a1, &a2, &b1] {
        client.cancel(id).expect("cancel");
    }
    client.drain().expect("drain");
    server.wait();
}

/// The circuit breaker quarantines a poison spec: after K consecutive
/// failures, resubmissions are rejected `circuit-open` with retry
/// advice, health reports the open circuit, and healthy specs keep
/// running to bit-identical completion throughout.
#[test]
fn breaker_quarantines_poison_spec_after_k_failures() {
    let plan = FaultPlan::new().rule("seed=13", FaultKind::Panic, 1);
    let server = Server::start_with_engine(
        ServeConfig {
            breaker_threshold: 2,
            breaker_cooldown: Duration::from_secs(600),
            ..ServeConfig::default()
        },
        Engine::new().with_faults(plan),
    )
    .expect("start");
    let mut client = Client::connect(server.addr()).expect("connect");

    // K = 2 consecutive failures of the same spec fingerprint.
    for attempt in 0..2 {
        let (id, _) = client
            .submit(&dl_job(13, 40), "mallory")
            .unwrap_or_else(|e| panic!("attempt {attempt} should be accepted: {e}"));
        client
            .wait_for(&id, Duration::from_millis(2))
            .expect("wait");
        let doc = client.status(Some(&id)).expect("status");
        let state = doc.field("jobs").and_then(Json::as_arr).expect("jobs")[0]
            .field("runs")
            .and_then(Json::as_arr)
            .expect("runs")[0]
            .field("state")
            .and_then(Json::as_str)
            .expect("state")
            .to_string();
        assert_eq!(state, "failed", "attempt {attempt}");
    }

    // The third submit of the same spec is shed at the door.
    let err = client
        .submit(&dl_job(13, 40), "mallory")
        .expect_err("the circuit must be open");
    assert_eq!(proto_code(&err), "circuit-open");
    assert!(
        err.retry_after_ms().is_some(),
        "circuit-open carries the remaining cooldown"
    );

    // Health reports the quarantine.
    let health = client.health().expect("health");
    assert_eq!(health.field("live"), Ok(&Json::Bool(true)));
    assert_eq!(health.field("ready"), Ok(&Json::Bool(true)));
    assert_eq!(
        health.field("circuits_open").and_then(Json::as_usize),
        Ok(1)
    );
    assert!(
        health
            .field("breaker_trips")
            .and_then(Json::as_usize)
            .unwrap()
            >= 1
    );

    // A healthy spec — different fingerprint — is unaffected and exact.
    let (id, _) = client.submit(&dl_job(1, 40), "alice").expect("healthy");
    let results = client
        .wait_for(&id, Duration::from_millis(2))
        .expect("wait");
    assert_eq!(results[0].state, "done");
    let spec = dl_job(1, 40).expand().expect("expand")[0].clone();
    let solo = Engine::new().run(&spec, Backend::Dl1D).expect("solo");
    assert_eq!(history_of(&results[0].summary), solo.history);

    client.drain().expect("drain");
    server.wait();
}

/// Half-open behaviour: after the cooldown one trial run is admitted;
/// its failure re-opens the circuit immediately. Runs already queued
/// when the circuit opens are shed at the admission gate without ever
/// getting a session.
#[test]
fn breaker_half_opens_after_cooldown_and_sheds_queued_runs() {
    let plan = FaultPlan::new().rule("seed=13", FaultKind::Panic, 1);
    let server = Server::start_with_engine(
        ServeConfig {
            breaker_threshold: 1,
            breaker_cooldown: Duration::from_secs(2),
            ..ServeConfig::default().max_sessions(1)
        },
        Engine::new().with_faults(plan),
    )
    .expect("start");
    let mut client = Client::connect(server.addr()).expect("connect");

    // A blocker pins the only session so both poison copies are accepted
    // while the circuit is still closed and sit queued together. Once
    // released: the first poison run fails and trips the breaker
    // (threshold 1); the second — same fingerprint, already queued — is
    // shed at the admission gate with a `circuit-open` run failure.
    let blocker = JobRequest::sweep(
        SweepSpec::grid("two_stream", Scale::Smoke).seeds([99]),
        Backend::Traditional1D,
    )
    .with_steps(500_000);
    let (blocker_id, _) = client.submit(&blocker, "blocker").expect("blocker");
    let (first, _) = client.submit(&dl_job(13, 40), "mallory").expect("first");
    let (second, _) = client.submit(&dl_job(13, 40), "mallory").expect("second");
    client.cancel(&blocker_id).expect("release the session");
    for id in [&first, &second] {
        client.wait_for(id, Duration::from_millis(2)).expect("wait");
    }
    let doc = client.status(Some(&second)).expect("status");
    let run = doc.field("jobs").and_then(Json::as_arr).expect("jobs")[0]
        .field("runs")
        .and_then(Json::as_arr)
        .expect("runs")[0]
        .clone();
    assert_eq!(run.field("state").and_then(Json::as_str), Ok("failed"));
    let error = run.field("error").and_then(Json::as_str).expect("error");
    assert!(
        error.contains("circuit-open"),
        "queued poison must be shed by the breaker, got: {error}"
    );

    // Submitting while open is rejected …
    let err = client
        .submit(&dl_job(13, 40), "mallory")
        .expect_err("open circuit");
    assert_eq!(proto_code(&err), "circuit-open");

    // … but after the cooldown one trial is admitted (half-open), and
    // its failure re-opens the circuit at once.
    std::thread::sleep(Duration::from_millis(2500));
    let (trial, _) = client
        .submit(&dl_job(13, 40), "mallory")
        .expect("half-open admits one trial");
    client
        .wait_for(&trial, Duration::from_millis(2))
        .expect("wait");
    let err = client
        .submit(&dl_job(13, 40), "mallory")
        .expect_err("re-opened after the trial failed");
    assert_eq!(proto_code(&err), "circuit-open");

    client.drain().expect("drain");
    server.wait();
}

/// `submit_keyed_retry` cooperates with shedding: it sleeps out the
/// advised interval (plus bounded jitter) and lands the job once
/// capacity frees up.
#[test]
fn cooperative_retry_lands_after_backlog_drains() {
    let server = Server::start(
        ServeConfig::default()
            .max_sessions(1)
            .max_queued(1)
            .tenant_max_queued(100),
    )
    .expect("start");
    let mut client = Client::connect(server.addr()).expect("connect");

    // Fill the slot and the 1-deep queue with short jobs, then retry a
    // third into the full backlog; it must land once the queue drains.
    let (first, _) = client
        .submit(&dl_job(1, 60), "alice")
        .expect("fills the session");
    let (second, _) = client
        .submit(&dl_job(2, 60), "alice")
        .expect("fills the queue");
    let (third, _, deduped) = client
        .submit_keyed_retry(
            &dl_job(3, 8),
            "alice",
            Some("retry-1"),
            Backoff::attempts(40),
        )
        .expect("cooperative retry must eventually land");
    assert!(!deduped);

    for id in [&first, &second, &third] {
        let results = client.wait_for(id, Duration::from_millis(2)).expect("wait");
        assert_eq!(results[0].state, "done", "{id}");
    }
    client.drain().expect("drain");
    server.wait();
}

/// Spool retention: `prune` keeps the newest N finished jobs per tenant,
/// garbage-collects the evicted spool directories, and a pruned job's
/// idempotency key is forgotten (a resubmit schedules fresh work).
#[test]
fn prune_retains_newest_finished_jobs_and_gcs_the_spool() {
    let spool = temp_dir("prune");
    let server = Server::start(ServeConfig::default().spool(&spool)).expect("start");
    let mut client = Client::connect(server.addr()).expect("connect");

    let mut ids = Vec::new();
    for seed in 0..3u64 {
        let (id, _, _) = client
            .submit_keyed(&dl_job(seed, 6), "alice", Some(&format!("k{seed}")))
            .expect("submit");
        client
            .wait_for(&id, Duration::from_millis(2))
            .expect("wait");
        ids.push(id);
    }
    let (bob_id, _) = client.submit(&dl_job(9, 6), "bob").expect("bob");
    client
        .wait_for(&bob_id, Duration::from_millis(2))
        .expect("wait");

    // Keep the newest finished job per tenant: alice sheds 2, bob keeps 1.
    let pruned = client.prune(Some(1)).expect("prune");
    assert_eq!(pruned, 2);
    let doc = client.status(None).expect("status");
    let remaining: Vec<String> = doc
        .field("jobs")
        .and_then(Json::as_arr)
        .expect("jobs")
        .iter()
        .map(|j| j.field("job").and_then(Json::as_str).unwrap().to_string())
        .collect();
    assert_eq!(remaining, vec![ids[2].clone(), bob_id.clone()]);

    // The spool garbage-collected the evicted job directories.
    for id in &ids[..2] {
        assert!(!spool.join(id).exists(), "{id} must be GC'd from the spool");
    }
    assert!(spool.join(&ids[2]).exists());
    assert!(spool.join(&bob_id).exists());

    // A pruned job's key is forgotten: the resubmit is fresh, not deduped.
    let (refreshed, _, deduped) = client
        .submit_keyed(&dl_job(0, 6), "alice", Some("k0"))
        .expect("resubmit");
    assert!(!deduped, "retention evicts idempotency keys with the job");
    assert!(!ids.contains(&refreshed));
    client
        .wait_for(&refreshed, Duration::from_millis(2))
        .expect("wait");

    client.drain().expect("drain");
    server.wait();
    let _ = std::fs::remove_dir_all(&spool);
}

/// Automatic retention via `--spool-retain`: the scheduler prunes on its
/// own as jobs finish; no operator call needed. `prune` with neither a
/// `keep` nor a configured retention is a structured error.
#[test]
fn spool_retain_auto_prunes_and_unconfigured_prune_is_rejected() {
    let spool = temp_dir("retain");
    let server =
        Server::start(ServeConfig::default().spool(&spool).spool_retain(1)).expect("start");
    let mut client = Client::connect(server.addr()).expect("connect");

    for seed in 0..3u64 {
        let (id, _) = client.submit(&dl_job(seed, 6), "alice").expect("submit");
        client
            .wait_for(&id, Duration::from_millis(2))
            .expect("wait");
    }
    // The scheduler prunes on its next pass; poll briefly.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let doc = client.status(None).expect("status");
        let n = doc
            .field("jobs")
            .and_then(Json::as_arr)
            .expect("jobs")
            .len();
        if n == 1 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "auto-retention never pruned; {n} jobs remain"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    client.drain().expect("drain");
    server.wait();
    let _ = std::fs::remove_dir_all(&spool);

    // Without --spool-retain, prune requires an explicit keep.
    let server = Server::start(ServeConfig::default()).expect("start");
    let mut client = Client::connect(server.addr()).expect("connect");
    let err = client.prune(None).expect_err("no retention configured");
    match err {
        ServeError::Protocol(e) => assert_eq!(e.code, "bad-request"),
        other => panic!("expected protocol error, got {other}"),
    }
    client.drain().expect("drain");
    server.wait();
}

/// Cohort-aware budget admission: three DL runs of the same (scenario,
/// scale) read one shared untrained weight allocation, so a budget sized
/// for **one** weight copy plus three private estimates admits all three
/// concurrently — per-copy accounting (three full estimates) would not
/// fit. The budget doc reports the sharing: one distinct model, its
/// weights charged once, and the saved bytes; occupancy never exceeds
/// the limit at any observed instant.
#[test]
fn cohort_budget_charges_shared_weights_once() {
    // The probe must carry the same step count as the submitted job —
    // the history estimate scales with steps.
    let probe = dl_job(0, 3000).expand().expect("expand")[0].clone();
    let est = estimate_session(&probe, Backend::Dl1D);
    let (total, weights) = (est.total(), est.shared_weight_bytes);
    assert!(weights > 0, "a DL session must carry weight bytes");
    let budget = 3 * (total - weights) + weights;
    assert!(
        3 * total > budget,
        "per-copy accounting must overflow this budget, or the test proves nothing"
    );
    let server = Server::start(
        ServeConfig::default()
            .max_sessions(3)
            .memory_budget(budget)
            .max_queued(100)
            .tenant_max_queued(100),
    )
    .expect("start");
    let mut client = Client::connect(server.addr()).expect("connect");
    let job = JobRequest::sweep(
        SweepSpec::grid("two_stream", Scale::Smoke).seeds([1, 2, 3]),
        Backend::Dl1D,
    )
    .with_steps(3000);
    let (id, runs) = client.submit(&job, "cohort").expect("submit");
    assert_eq!(runs, 3);

    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    loop {
        assert!(
            std::time::Instant::now() < deadline,
            "three cohort members never went active together — weight \
             sharing is not being credited at admission"
        );
        let doc = client.status(None).expect("status");
        let budget_doc = doc.field("budget").expect("budget");
        let active_bytes = budget_doc
            .field("active_bytes")
            .and_then(Json::as_usize)
            .expect("active_bytes");
        assert!(
            active_bytes <= budget,
            "budget overshoot: {active_bytes} > {budget}"
        );
        let active_runs = doc
            .field("active_runs")
            .and_then(Json::as_usize)
            .expect("active_runs");
        if active_runs == 3 {
            // Occupancy is exactly three private shares plus one weight
            // copy, and the breakdown names the sharing.
            assert_eq!(active_bytes, budget);
            assert_eq!(
                budget_doc
                    .field("distinct_models")
                    .and_then(Json::as_usize)
                    .expect("distinct_models"),
                1
            );
            assert_eq!(
                budget_doc
                    .field("active_weight_bytes")
                    .and_then(Json::as_usize)
                    .expect("active_weight_bytes"),
                weights
            );
            assert_eq!(
                budget_doc
                    .field("weight_sharing_saved_bytes")
                    .and_then(Json::as_usize)
                    .expect("weight_sharing_saved_bytes"),
                2 * weights
            );
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    client.cancel(&id).expect("cancel");
    client.drain().expect("drain");
    server.wait();
}
