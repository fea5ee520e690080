//! The request handlers: one thread per connection reads request lines
//! and answers each from the control-plane table. Handlers never block
//! the scheduler for longer than a control-plane update: submissions
//! only append to the table, and a watch subscribes a queue the
//! scheduler fans events into.

use std::io::BufReader;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dlpic_repro::core::pool;
use dlpic_repro::engine::json::{obj, Json};

use crate::job::JobRequest;
use crate::protocol::{self, ProtoError, Request, WatchPolicy};
use crate::server::Inner;
use crate::table::{
    job_done_event, run_accounting, tenants, JobEntry, PendingRun, Phase, RunAccounting, RunEntry,
    Shared, StoredResult, SubQueue,
};
use crate::transport::{write_line, Conn};

/// Serves one connection until the client hangs up (or a drain hangs up
/// on it).
pub(crate) fn handle_connection(conn: Conn, inner: &Arc<Inner>) -> std::io::Result<()> {
    let mut reader = BufReader::new(conn.try_clone()?);
    let mut writer = conn;
    while let Some(line) = protocol::read_line(&mut reader)? {
        let request = line.and_then(|text| protocol::parse_request(&text));
        match request {
            Err(e) => write_line(&mut writer, &protocol::error_response(&e))?,
            Ok(request) => handle_request(request, inner, &mut writer)?,
        }
    }
    Ok(())
}

/// Answers one request with one response line — except `watch`, which
/// streams its events after the acknowledgement.
fn handle_request(request: Request, inner: &Arc<Inner>, writer: &mut Conn) -> std::io::Result<()> {
    let response = match request {
        Request::Submit {
            tenant,
            job,
            job_key,
        } => submit(inner, tenant, *job, job_key),
        Request::Status { job } => status(inner, job.as_deref()),
        Request::Cancel { job } => cancel(inner, &job),
        Request::Drain => {
            let mut sh = inner.shared.lock().unwrap();
            sh.draining = true;
            inner.wake.notify_all();
            drop(sh);
            Ok(vec![("draining", Json::Bool(true))])
        }
        Request::Result { job, run } => results(inner, &job, run),
        Request::Health => health(inner),
        Request::Prune { keep } => prune(inner, keep),
        Request::Watch { job, policy, queue } => return watch(inner, &job, policy, queue, writer),
    };
    let line = match response {
        Ok(fields) => protocol::ok_response(fields),
        Err(e) => protocol::error_response(&e),
    };
    write_line(writer, &line)
}

pub(crate) fn submit(
    inner: &Arc<Inner>,
    tenant: String,
    job: JobRequest,
    job_key: Option<String>,
) -> Result<Vec<(&'static str, Json)>, ProtoError> {
    let specs = job.expand()?;
    let mut sh = inner.shared.lock().unwrap();
    // Idempotent submit: the same (tenant, job_key) maps to the already
    // accepted job, so a client retrying a submit whose response was lost
    // cannot double-schedule. Checked before the drain gate — the job the
    // key names was accepted, and pointing at it is always safe.
    if let Some(key) = &job_key {
        if let Some(existing) = sh
            .jobs
            .iter()
            .find(|j| j.tenant == tenant && j.job_key.as_deref() == Some(key.as_str()))
        {
            return Ok(vec![
                ("job", Json::Str(existing.id.clone())),
                ("runs", Json::Num(existing.runs.len() as f64)),
                ("deduped", Json::Bool(true)),
            ]);
        }
    }
    if sh.draining || sh.stopped {
        return Err(ProtoError::new("draining", "server is draining"));
    }
    // Overload governance, cheapest check first. Every rejection is
    // structured; the retryable ones carry `retry_after_ms`.
    let backend = job.backend;
    let estimates: Vec<RunAccounting> = specs
        .iter()
        .map(|spec| run_accounting(&inner.profiler, backend, spec))
        .collect();
    // 1. Circuit breaker: a quarantined spec is rejected up front so the
    //    client backs off instead of queueing work the scheduler would
    //    shed at admission anyway.
    let now = Instant::now();
    let open = estimates
        .iter()
        .filter_map(|a| sh.breakers.open_remaining(&a.fingerprint, now))
        .max();
    if let Some(remaining) = open {
        return Err(ProtoError::new(
            "circuit-open",
            format!(
                "spec quarantined after {} consecutive failures; retry after cooldown",
                sh.breakers.threshold()
            ),
        )
        .with_retry_after(remaining.as_millis() as u64));
    }
    // 2. A single run that cannot fit the whole budget — on an
    //    unbudgeted daemon, the host's physical memory — can never be
    //    admitted: permanent rejection, no retry advice. The check uses
    //    the solo cost (private estimate plus its own weight copy): a
    //    run is only cheaper when its weights are already resident, which
    //    cannot be relied on at submit time.
    let ceiling = match inner.config.memory_budget {
        Some(budget) => Some((budget, "the memory budget")),
        None => inner
            .host_memory
            .map(|bytes| (bytes, "the host's physical memory")),
    };
    if let Some((limit, what)) = ceiling {
        if let Some(a) = estimates
            .iter()
            .find(|a| a.est_bytes.saturating_add(a.weight_bytes) > limit)
        {
            let est = a.est_bytes.saturating_add(a.weight_bytes);
            return Err(ProtoError::new(
                "quota-exceeded",
                format!("run needs ~{est} bytes but {what} is {limit} bytes"),
            ));
        }
    }
    // 3. Bounded backlog, global then per-tenant.
    let queued = sh.runs(Phase::Queued).count();
    if queued + specs.len() > inner.config.max_queued {
        let retry = sh.retry_after_ms();
        return Err(ProtoError::new(
            "overloaded",
            format!(
                "backlog full: {queued} queued + {} new > {} cap",
                specs.len(),
                inner.config.max_queued
            ),
        )
        .with_retry_after(retry));
    }
    let tenant_queued = sh.tenant_queued(&tenant);
    if tenant_queued + specs.len() > inner.config.tenant_max_queued {
        let retry = sh.retry_after_ms();
        return Err(ProtoError::new(
            "quota-exceeded",
            format!(
                "tenant backlog full: {tenant_queued} queued + {} new > {} cap",
                specs.len(),
                inner.config.tenant_max_queued
            ),
        )
        .with_retry_after(retry));
    }
    let id = format!("job-{:04}", sh.next_job);
    sh.next_job += 1;
    let runs = specs
        .into_iter()
        .zip(estimates)
        .map(|(spec, acct)| {
            let entry = RunEntry::new(spec.name.clone(), Phase::Queued, spec.n_steps, acct);
            RunEntry {
                pending: Some(PendingRun::Fresh(spec)),
                ..entry
            }
        })
        .collect::<Vec<_>>();
    let n_runs = runs.len();
    sh.jobs.push(JobEntry {
        id: id.clone(),
        tenant,
        request: job,
        job_key,
        submitted: Instant::now(),
        runs,
        subscribers: Vec::new(),
    });
    inner.wake.notify_all();
    Ok(vec![
        ("job", Json::Str(id)),
        ("runs", Json::Num(n_runs as f64)),
    ])
}

fn status(inner: &Arc<Inner>, job: Option<&str>) -> Result<Vec<(&'static str, Json)>, ProtoError> {
    let sh = inner.shared.lock().unwrap();
    let jobs: Vec<&JobEntry> = match job {
        Some(id) => vec![find_job(&sh, id)?],
        None => sh.jobs.iter().collect(),
    };
    let jobs_json = jobs
        .into_iter()
        .map(|job| {
            obj(vec![
                ("job", Json::Str(job.id.clone())),
                ("tenant", Json::Str(job.tenant.clone())),
                // Registered watch subscriptions. Lets a client confirm a
                // subscription landed before acting on it (tests rely on
                // this to sequence watch-then-release deterministically).
                ("watchers", Json::Num(job.subscribers.len() as f64)),
                // Per-subscriber queue accounting: shed samples are
                // observable, not silent.
                (
                    "watch_stats",
                    Json::Arr(
                        job.subscribers
                            .iter()
                            .map(|q| {
                                let (depth, queued_total, dropped, decimated) = q.stats();
                                obj(vec![
                                    ("policy", Json::Str(q.policy.wire())),
                                    ("capacity", Json::Num(q.capacity as f64)),
                                    ("depth", Json::Num(depth as f64)),
                                    ("queued_total", Json::Num(queued_total as f64)),
                                    ("dropped", Json::Num(dropped as f64)),
                                    ("decimated", Json::Num(decimated as f64)),
                                ])
                            })
                            .collect(),
                    ),
                ),
                (
                    "runs",
                    Json::Arr(
                        job.runs
                            .iter()
                            .enumerate()
                            .map(|(k, run)| {
                                let mut fields = vec![
                                    ("run", Json::Num(k as f64)),
                                    ("name", Json::Str(run.name.clone())),
                                    ("state", Json::Str(run.phase.name().into())),
                                    ("steps_done", Json::Num(run.steps_done as f64)),
                                    ("steps_total", Json::Num(run.steps_total as f64)),
                                ];
                                if let Some(seq) = run.finish_seq {
                                    fields.push(("finish_seq", Json::Num(seq as f64)));
                                }
                                if let Some(error) = &run.error {
                                    fields.push(("error", Json::Str(error.clone())));
                                }
                                obj(fields)
                            })
                            .collect(),
                    ),
                ),
            ])
        })
        .collect();
    Ok(vec![
        ("draining", Json::Bool(sh.draining)),
        ("stepping_seconds", Json::Num(sh.stepping_seconds)),
        (
            "queued_runs",
            Json::Num(sh.runs(Phase::Queued).count() as f64),
        ),
        (
            "active_runs",
            Json::Num(sh.runs(Phase::Active).count() as f64),
        ),
        ("backlog", backlog_json(&sh)),
        ("budget", budget_json(inner, &sh)),
        ("wave_latency", sh.wave_latency.to_json()),
        ("wave_threads", wave_threads()),
        ("jobs", Json::Arr(jobs_json)),
    ])
}

/// The worker-team members the scheduler's waves run on — the cores the
/// daemon was given. The first thing to look at when `wave_latency` reads
/// slow: "the daemon had one core" is an answer.
fn wave_threads() -> Json {
    Json::Num(pool::team().size() as f64)
}

/// Per-tenant backlog depth: every tenant in the table, with its queued
/// and active run counts — an operator reads which tenant the pressure
/// comes from straight off `status`.
fn backlog_json(sh: &Shared) -> Json {
    Json::Arr(
        tenants(&sh.jobs)
            .into_iter()
            .map(|tenant| {
                let (mut queued, mut active) = (0usize, 0usize);
                for run in sh
                    .jobs
                    .iter()
                    .filter(|j| j.tenant == tenant)
                    .flat_map(|j| &j.runs)
                {
                    match run.phase {
                        Phase::Queued => queued += 1,
                        Phase::Active => active += 1,
                        _ => {}
                    }
                }
                obj(vec![
                    ("tenant", Json::Str(tenant.into())),
                    ("queued", Json::Num(queued as f64)),
                    ("active", Json::Num(active as f64)),
                ])
            })
            .collect(),
    )
}

/// Budget occupancy: the configured limit (null when unbudgeted), the
/// bytes currently charged by stepping runs (cohort-aware — each shared
/// weight allocation counted once) and waiting in queue, plus the
/// shared-weight breakdown: how many distinct model allocations are
/// resident, their total bytes, and how many bytes weight sharing is
/// saving versus per-run copies.
fn budget_json(inner: &Inner, sh: &Shared) -> Json {
    let (distinct_models, weight_bytes) = sh.active_weight_stats();
    let per_copy: usize = sh.runs(Phase::Active).map(|r| r.acct.weight_bytes).sum();
    obj(vec![
        (
            "limit_bytes",
            inner
                .config
                .memory_budget
                .map_or(Json::Null, |b| Json::Num(b as f64)),
        ),
        ("active_bytes", Json::Num(sh.active_bytes() as f64)),
        ("queued_bytes", Json::Num(sh.queued_bytes() as f64)),
        ("distinct_models", Json::Num(distinct_models as f64)),
        ("active_weight_bytes", Json::Num(weight_bytes as f64)),
        (
            "weight_sharing_saved_bytes",
            Json::Num(per_copy.saturating_sub(weight_bytes) as f64),
        ),
    ])
}

/// The `health` op: liveness/readiness plus the load signals a client or
/// balancer needs to decide whether to send work here — session and
/// backlog occupancy, budget occupancy, breaker state, and the wave
/// latency distribution with the number of cores those waves ran on.
fn health(inner: &Arc<Inner>) -> Result<Vec<(&'static str, Json)>, ProtoError> {
    let sh = inner.shared.lock().unwrap();
    let active = sh.runs(Phase::Active).count();
    let queued = sh.runs(Phase::Queued).count();
    let max_sessions = inner.config.max_sessions;
    Ok(vec![
        ("live", Json::Bool(true)),
        ("ready", Json::Bool(!sh.draining && !sh.stopped)),
        ("draining", Json::Bool(sh.draining)),
        ("active_runs", Json::Num(active as f64)),
        ("max_sessions", Json::Num(max_sessions as f64)),
        ("load", Json::Num(active as f64 / max_sessions as f64)),
        ("queued_runs", Json::Num(queued as f64)),
        ("max_queued", Json::Num(inner.config.max_queued as f64)),
        ("budget", budget_json(inner, &sh)),
        (
            "circuits_open",
            Json::Num(sh.breakers.open_count(Instant::now()) as f64),
        ),
        ("breaker_trips", Json::Num(sh.breakers.total_trips() as f64)),
        ("wave_latency", sh.wave_latency.to_json()),
        ("wave_threads", wave_threads()),
    ])
}

/// The `prune` op: ask the scheduler for a retention pass keeping the
/// newest `keep` finished jobs per tenant (falling back to the server's
/// `--spool-retain`). Blocks until the pass ran so the reported count is
/// exact.
fn prune(inner: &Arc<Inner>, keep: Option<usize>) -> Result<Vec<(&'static str, Json)>, ProtoError> {
    let Some(keep) = keep.or(inner.config.spool_retain) else {
        return Err(ProtoError::new(
            "bad-request",
            "no retention configured: pass `keep` or start the server with --spool-retain",
        ));
    };
    let mut sh = inner.shared.lock().unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    // Serialize concurrent prunes: wait until any in-flight request was
    // consumed and its result claimed before posting ours.
    while sh.prune_request.is_some() || sh.prune_result.is_some() {
        if sh.draining || sh.stopped {
            return Err(ProtoError::new("draining", "server is draining"));
        }
        if Instant::now() >= deadline {
            return Err(ProtoError::new("server-error", "prune timed out"));
        }
        let (guard, _) = inner
            .wake
            .wait_timeout(sh, Duration::from_millis(100))
            .unwrap();
        sh = guard;
    }
    if sh.draining || sh.stopped {
        return Err(ProtoError::new("draining", "server is draining"));
    }
    sh.prune_request = Some(keep);
    inner.wake.notify_all();
    loop {
        if let Some(pruned) = sh.prune_result.take() {
            inner.wake.notify_all();
            return Ok(vec![
                ("pruned", Json::Num(pruned as f64)),
                ("keep", Json::Num(keep as f64)),
            ]);
        }
        if sh.stopped || (sh.draining && sh.prune_request.is_some()) {
            // The scheduler exited (or will exit) without serving us.
            sh.prune_request = None;
            return Err(ProtoError::new("draining", "server is draining"));
        }
        if Instant::now() >= deadline {
            sh.prune_request = None;
            return Err(ProtoError::new("server-error", "prune timed out"));
        }
        let (guard, _) = inner
            .wake
            .wait_timeout(sh, Duration::from_millis(100))
            .unwrap();
        sh = guard;
    }
}

/// The `cancel` op: finalises every unfinished run of the job as
/// `cancelled`. Queued runs are done with; the scheduler drops the
/// sessions of active ones on its next pass.
pub(crate) fn cancel(
    inner: &Arc<Inner>,
    id: &str,
) -> Result<Vec<(&'static str, Json)>, ProtoError> {
    let mut sh = inner.shared.lock().unwrap();
    let j = sh
        .jobs
        .iter()
        .position(|j| j.id == id)
        .ok_or_else(|| unknown_job(id))?;
    let cancelled = (0..sh.jobs[j].runs.len())
        .filter(|&k| sh.finalize(j, k, Phase::Cancelled, None, false))
        .count();
    inner.wake.notify_all();
    Ok(vec![
        ("job", Json::Str(id.into())),
        ("cancelled", Json::Num(cancelled as f64)),
    ])
}

fn results(
    inner: &Arc<Inner>,
    id: &str,
    run: Option<usize>,
) -> Result<Vec<(&'static str, Json)>, ProtoError> {
    // Under the lock: which runs have a summary, and the summaries held
    // in RAM. Spooled ones (`None` here) are read after it is released —
    // a `done` file is written once, before its run turns `Spooled`.
    let found: Vec<(usize, String, &'static str, Option<Json>)> = {
        let sh = inner.shared.lock().unwrap();
        let job = find_job(&sh, id)?;
        let indices = match run {
            Some(k) if k >= job.runs.len() => {
                return Err(ProtoError::new(
                    "unknown-run",
                    format!("{id} has {} runs", job.runs.len()),
                ));
            }
            Some(k) => k..k + 1,
            None => 0..job.runs.len(),
        };
        let mut found = Vec::new();
        for k in indices {
            let entry = &job.runs[k];
            let held = match &entry.result {
                StoredResult::Held(result) => Some(result.clone()),
                StoredResult::Spooled => None,
                StoredResult::None if run.is_some() => {
                    return Err(ProtoError::new(
                        "not-finished",
                        format!("{id} run {k} is {}", entry.phase.name()),
                    ));
                }
                StoredResult::None => continue,
            };
            found.push((k, entry.name.clone(), entry.phase.name(), held));
        }
        found
    };
    let mut results = Vec::with_capacity(found.len());
    for (k, name, state, held) in found {
        let summary = match held {
            Some(summary) => summary,
            None => inner
                .spool
                .as_ref()
                .ok_or_else(|| "no spool configured".to_string())
                .and_then(|spool| spool.read_result(id, k).map_err(|e| e.to_string()))
                .map_err(|e| {
                    ProtoError::new("server-error", format!("{id} run {k}: stored result: {e}"))
                })?,
        };
        results.push(obj(vec![
            ("run", Json::Num(k as f64)),
            ("name", Json::Str(name)),
            ("state", Json::Str(state.into())),
            ("summary", summary),
        ]));
    }
    Ok(vec![
        ("job", Json::Str(id.into())),
        ("results", Json::Arr(results)),
    ])
}

fn watch(
    inner: &Arc<Inner>,
    id: &str,
    policy: WatchPolicy,
    queue: usize,
    writer: &mut Conn,
) -> std::io::Result<()> {
    let subscription = {
        let mut sh = inner.shared.lock().unwrap();
        let Some(job) = sh.jobs.iter_mut().find(|j| j.id == id) else {
            drop(sh);
            return write_line(writer, &protocol::error_response(&unknown_job(id)));
        };
        if job.is_final() {
            let id = job.id.clone();
            drop(sh);
            write_line(
                writer,
                &protocol::ok_response(vec![("watching", Json::Str(id.clone()))]),
            )?;
            return write_line(writer, &job_done_event(&id));
        }
        let q = Arc::new(SubQueue::new(policy, queue));
        job.subscribers.push(Arc::clone(&q));
        q
    };
    write_line(
        writer,
        &protocol::ok_response(vec![
            ("watching", Json::Str(id.into())),
            ("policy", Json::Str(policy.wire())),
        ]),
    )?;
    // Forward events at the client's pace until the scheduler closes the
    // queue (job done or server drained) or the client goes away. A dead
    // client closes its own queue so the scheduler stops feeding it.
    while let Some(line) = subscription.pop() {
        if write_line(writer, &line).is_err() {
            subscription.close();
            break;
        }
    }
    Ok(())
}

fn find_job<'a>(sh: &'a Shared, id: &str) -> Result<&'a JobEntry, ProtoError> {
    sh.jobs
        .iter()
        .find(|j| j.id == id)
        .ok_or_else(|| unknown_job(id))
}

fn unknown_job(id: &str) -> ProtoError {
    ProtoError::new("unknown-job", format!("no job `{id}`"))
}
