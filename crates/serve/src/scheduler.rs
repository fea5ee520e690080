//! The scheduler thread: admission, lock-free session builds, lockstep
//! waves, and the post-wave control-plane pass that streams samples,
//! applies stop policies and deadlines, finalises finished runs and
//! flushes the spool.

use std::sync::Arc;
use std::time::Duration;

use dlpic_repro::engine::json::{obj, Json};
use dlpic_repro::engine::{EnergyHistory, Engine, RunSummary, Session, WaveBatch};

use crate::admission::{admit, Admission};
use crate::error::ServeError;
use crate::job::StopEval;
use crate::protocol::{self, ProtoError};
use crate::server::{lock_conns, Inner};
use crate::spool::{SpoolJob, SpoolRun};
use crate::table::{tenants, PendingRun, Phase, Shared, StoredResult};

/// A session the scheduler is stepping, with its control-plane address.
struct ActiveRun {
    job: usize,
    run: usize,
    session: Session,
    /// History rows already streamed to watchers.
    emitted: usize,
    stop: Option<StopEval>,
}

pub(crate) struct Scheduler {
    inner: Arc<Inner>,
    engine: Engine,
    active: Vec<ActiveRun>,
    batch: WaveBatch,
    waves_since_flush: usize,
}

impl Scheduler {
    pub(crate) fn new(inner: Arc<Inner>, engine: Engine) -> Self {
        Self {
            inner,
            engine,
            active: Vec::new(),
            batch: WaveBatch::new(),
            waves_since_flush: 0,
        }
    }

    pub(crate) fn run(mut self) {
        // A local handle so mutex guards don't pin `self` borrowed.
        let inner = Arc::clone(&self.inner);
        loop {
            // Control-plane sync: cancellations, drain, admission.
            let admissions = {
                let mut sh = inner.shared.lock().unwrap();
                self.sweep_cancelled(&sh);
                // Retention runs here — on the scheduler thread — because
                // active-run bookkeeping holds indices into `sh.jobs` that
                // must be remapped in the same critical section.
                if let Some(keep) = sh.prune_request.take() {
                    let pruned = self.apply_retention(&mut sh, keep);
                    self.flush_spool(&sh);
                    // Retention also releases the model-registry cache:
                    // an operator pruning jobs wants the memory back, and
                    // sessions still stepping keep their own `Arc`s.
                    if let Some(registry) = self.engine.registry() {
                        registry.lock().unwrap_or_else(|p| p.into_inner()).prune();
                    }
                    sh.prune_result = Some(pruned);
                    inner.wake.notify_all();
                }
                if let Some(retain) = inner.config.spool_retain {
                    if self.apply_retention(&mut sh, retain) > 0 {
                        self.flush_spool(&sh);
                    }
                }
                if sh.draining {
                    self.flush_spool(&sh);
                    for job in &mut sh.jobs {
                        for q in &job.subscribers {
                            q.close();
                        }
                        job.subscribers.clear();
                    }
                    sh.stopped = true;
                    inner.wake.notify_all();
                    drop(sh);
                    // Nobody is left to serve them. `stopped` was set
                    // first, so a connection accepted from here on is
                    // hung up on by the acceptor instead.
                    for (_, conn) in lock_conns(&inner).iter() {
                        conn.hang_up();
                    }
                    return;
                }
                let admissions = admit(&mut sh, &inner.config, self.active.len());
                if self.active.is_empty() && admissions.is_empty() {
                    // Idle: nothing runs, nothing to admit — sleep until
                    // a handler wakes us (timeout as a safety net).
                    let _ = inner
                        .wake
                        .wait_timeout(sh, Duration::from_millis(200))
                        .unwrap();
                    continue;
                }
                admissions
            };

            // Build admitted sessions without holding the lock (model
            // setup is the expensive part of a DL run's lifecycle).
            for admission in admissions {
                self.build(admission);
            }

            // One lockstep wave across every active session.
            let t0 = std::time::Instant::now();
            self.step_wave();

            // Publish progress, stream samples, finalize, flush.
            let mut sh = inner.shared.lock().unwrap();
            self.publish_wave(&mut sh);
            if self.waves_since_flush >= inner.config.spool_interval {
                self.flush_spool(&sh);
                self.waves_since_flush = 0;
            }
            let elapsed = t0.elapsed();
            sh.stepping_seconds += elapsed.as_secs_f64();
            sh.wave_latency.record(elapsed);
        }
    }

    /// Steps every active session once, unlocked.
    fn step_wave(&mut self) {
        let mut refs: Vec<&mut Session> = self.active.iter_mut().map(|a| &mut a.session).collect();
        self.batch.step_wave(&mut refs);
        self.waves_since_flush += 1;
    }

    /// One retention pass: per tenant, keep the newest `keep` *finished*
    /// jobs (insertion order is id order) and drop the rest from the
    /// table; the next manifest flush garbage-collects their spool
    /// directories. In-flight jobs are never touched, so no `ActiveRun`
    /// can reference a removed entry — remaining active indices are
    /// remapped over the holes. Returns how many jobs were pruned.
    ///
    /// A pruned job forgets everything about itself, including its
    /// `job_key` — a later resubmit with the same key schedules fresh
    /// work instead of deduping.
    fn apply_retention(&mut self, sh: &mut Shared, keep: usize) -> usize {
        let mut drop_idx: Vec<usize> = Vec::new();
        for tenant in tenants(&sh.jobs) {
            let finished: Vec<usize> = sh
                .jobs
                .iter()
                .enumerate()
                .filter(|(_, j)| j.tenant == tenant && j.is_final())
                .map(|(i, _)| i)
                .collect();
            if finished.len() > keep {
                drop_idx.extend_from_slice(&finished[..finished.len() - keep]);
            }
        }
        if drop_idx.is_empty() {
            return 0;
        }
        drop_idx.sort_unstable();
        let mut idx = 0usize;
        sh.jobs.retain(|_| {
            let dropped = drop_idx.binary_search(&idx).is_ok();
            idx += 1;
            !dropped
        });
        for a in &mut self.active {
            a.job -= drop_idx.partition_point(|&d| d < a.job);
        }
        drop_idx.len()
    }

    /// Builds one admitted session (engine work, lock-free) and
    /// activates it, or records the failure. Construction runs inside
    /// `catch_unwind`, so a panicking solver build fails one run, not the
    /// scheduler thread.
    fn build(&mut self, admission: Admission) {
        let Admission {
            job,
            run,
            pending,
            backend,
            stop,
        } = admission;
        let built = contained(|| match &pending {
            PendingRun::Fresh(spec) => self.engine.start(spec, backend),
            PendingRun::Resume(ckpt) => self.engine.resume(ckpt),
        })
        .map_err(|panic| ServeError::Protocol(ProtoError::new("server-error", panic)))
        .and_then(|r| r.map_err(ServeError::from));
        match built {
            Ok(session) => {
                // Rows restored from a checkpoint were already streamed
                // before the restart; only new rows go out.
                let emitted = session.history().len();
                self.active.push(ActiveRun {
                    job,
                    run,
                    session,
                    emitted,
                    stop,
                });
            }
            Err(e) => {
                let mut sh = self.inner.shared.lock().unwrap();
                sh.finalize(job, run, Phase::Failed, Some(e.to_string()), true);
            }
        }
    }

    /// Drops the sessions of runs a handler cancelled (`cancel` already
    /// finalised them), with their spool files.
    fn sweep_cancelled(&mut self, sh: &Shared) {
        self.active.retain(|a| {
            let job = &sh.jobs[a.job];
            if job.runs[a.run].phase != Phase::Cancelled {
                return true;
            }
            if let Some(spool) = &self.inner.spool {
                spool.remove_run(&job.id, a.run);
            }
            false
        });
    }

    /// Post-wave control-plane update: progress counters, sample
    /// streaming, stop policies, fault quarantine, deadline enforcement,
    /// and finalization of finished runs.
    fn publish_wave(&mut self, sh: &mut Shared) {
        let mut finished: Vec<(usize, Phase, Option<String>)> = Vec::new();
        for (i, a) in self.active.iter_mut().enumerate() {
            let job = &mut sh.jobs[a.job];
            job.runs[a.run].steps_done = a.session.steps_done();
            if !job.subscribers.is_empty() {
                let history = a.session.history();
                while a.emitted < history.len() {
                    let line =
                        sample_event(&job.id, a.run, &job.runs[a.run].name, history, a.emitted);
                    job.publish_sample(&line, a.emitted);
                    a.emitted += 1;
                }
            } else {
                a.emitted = a.session.history().len();
            }
            // Cancelled while this wave stepped: the cancel stands, and
            // the next sweep drops the session.
            if job.runs[a.run].phase.is_final() {
                continue;
            }
            let stopped = a
                .stop
                .as_mut()
                .is_some_and(|s| s.should_stop(a.session.history()));
            let deadline = {
                let req = &job.request;
                let over_steps = req
                    .deadline_steps
                    .is_some_and(|d| a.session.steps_done() >= d);
                let over_wall = req
                    .deadline_seconds
                    .is_some_and(|d| job.submitted.elapsed().as_secs_f64() > d);
                if over_steps {
                    Some(format!(
                        "deadline exceeded: {} steps without finishing",
                        a.session.steps_done()
                    ))
                } else if over_wall {
                    Some(format!(
                        "deadline exceeded: job ran past {} wall seconds",
                        req.deadline_seconds.unwrap_or(0.0)
                    ))
                } else {
                    None
                }
            };
            // Quarantine beats completion beats deadline beats stop: a
            // faulted run is failed even if its step counter looks done.
            if let Some(fault) = a.session.fault() {
                finished.push((i, Phase::Failed, Some(fault.to_string())));
            } else if a.session.is_complete() {
                finished.push((i, Phase::Done, None));
            } else if let Some(why) = deadline {
                finished.push((i, Phase::Failed, Some(why)));
            } else if stopped {
                finished.push((i, Phase::Stopped, None));
            }
        }
        // Finalize back-to-front so indices stay valid across removal.
        for (i, phase, error) in finished.iter().rev() {
            let a = self.active.remove(*i);
            // `finish` is fault-aware: a quarantined session's summary is
            // built from its recorded history only — the solver state is
            // never touched again.
            let summary = a.session.finish();
            let mut result = summary_to_json(&summary);
            if let (Phase::Failed, Json::Obj(fields)) = (*phase, &mut result) {
                fields.push(("error".into(), Json::Str(error.clone().unwrap_or_default())));
                fields.push(("partial".into(), Json::Bool(true)));
            }
            // Once the spool holds the summary the daemon drops its tree.
            let stored = match &self.inner.spool {
                Some(spool)
                    if spool
                        .write_result(&sh.jobs[a.job].id, a.run, &result)
                        .is_ok() =>
                {
                    StoredResult::Spooled
                }
                _ => StoredResult::Held(result),
            };
            let entry = &mut sh.jobs[a.job].runs[a.run];
            entry.steps_done = summary.steps;
            entry.result = stored;
            sh.finalize(a.job, a.run, *phase, error.clone(), true);
        }
        if !finished.is_empty() {
            self.flush_spool(sh);
            self.waves_since_flush = 0;
        }
    }

    /// Writes every active checkpoint and the manifest — the durable
    /// snapshot `--resume` restarts from.
    fn flush_spool(&self, sh: &Shared) {
        let Some(spool) = &self.inner.spool else {
            return;
        };
        for a in &self.active {
            let _ = spool.write_checkpoint(&sh.jobs[a.job].id, a.run, &a.session.checkpoint());
        }
        let jobs: Vec<SpoolJob> = sh
            .jobs
            .iter()
            .enumerate()
            .map(|(j, job)| SpoolJob {
                id: job.id.clone(),
                tenant: job.tenant.clone(),
                request: job.request.clone(),
                job_key: job.job_key.clone(),
                runs: job
                    .runs
                    .iter()
                    .enumerate()
                    .map(|(k, run)| SpoolRun {
                        name: run.name.clone(),
                        state: run.phase.name().into(),
                        // Queued runs resume from this spec; active runs
                        // keep it as the no-checkpoint-yet fallback.
                        spec: match &run.pending {
                            Some(PendingRun::Fresh(spec)) => Some(spec.clone()),
                            Some(PendingRun::Resume(ckpt)) => Some(ckpt.spec.clone()),
                            None => self
                                .active
                                .iter()
                                .find(|a| (a.job, a.run) == (j, k))
                                .map(|a| a.session.spec().clone()),
                        },
                        error: run.error.clone(),
                    })
                    .collect(),
            })
            .collect();
        let _ = spool.save_manifest(sh.next_job, &jobs);
        spool.gc(&jobs);
    }
}

/// The panic payload as text, for fault records.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".into()
    }
}

/// Runs `f` with panics contained to an `Err(message)`.
fn contained<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(panic_message)
}

fn sample_event(job: &str, run: usize, name: &str, history: &EnergyHistory, row: usize) -> String {
    let amps: Vec<f64> = history.mode_amps.iter().map(|m| m[row]).collect();
    protocol::event(
        "sample",
        vec![
            ("job", Json::Str(job.into())),
            ("run", Json::Num(run as f64)),
            ("name", Json::Str(name.into())),
            ("step", Json::Num(row as f64)),
            ("time", Json::Num(history.times[row])),
            ("kinetic", Json::Num(history.kinetic[row])),
            ("field", Json::Num(history.field[row])),
            ("momentum", Json::Num(history.momentum[row])),
            ("mode_amps", Json::num_arr(&amps)),
        ],
    )
}

/// The stored form of a finished run: identity, scalars, and the full
/// history (bit-exact through JSON — the restart tests diff this against
/// solo runs).
fn summary_to_json(summary: &RunSummary) -> Json {
    obj(vec![
        ("scenario", Json::Str(summary.scenario.clone())),
        ("backend", Json::Str(summary.backend.clone())),
        ("steps", Json::Num(summary.steps as f64)),
        ("t_end", Json::Num(summary.t_end)),
        ("wall_seconds", Json::Num(summary.wall_seconds)),
        ("history", summary.history.to_json_value()),
        (
            "extras",
            obj(summary
                .extras
                .iter()
                .map(|(k, v)| (k.as_str(), Json::Num(*v)))
                .collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use std::sync::{Condvar, Mutex};
    use std::time::Instant;

    use dlpic_repro::core::Scale;
    use dlpic_repro::engine::{Backend, ScenarioSpec, SweepSpec};

    use super::*;
    use crate::handlers::cancel;
    use crate::job::JobRequest;
    use crate::protocol::WatchPolicy;
    use crate::server::ServeConfig;
    use crate::table::{run_accounting, JobEntry, RunEntry, SubQueue};

    /// A scheduler over an in-memory table: no socket, no spool.
    fn scheduler(config: ServeConfig) -> Scheduler {
        let engine = Engine::new();
        let inner = Arc::new(Inner {
            shared: Mutex::new(Shared::new(&config)),
            config,
            wake: Condvar::new(),
            spool: None,
            profiler: engine.weight_profiler(),
            conns: Mutex::new(Vec::new()),
        });
        Scheduler::new(inner, engine)
    }

    fn two_stream(steps: usize) -> ScenarioSpec {
        let mut spec = SweepSpec::grid("two_stream", Scale::Smoke)
            .seeds([1])
            .specs()
            .unwrap()
            .remove(0);
        spec.n_steps = steps;
        spec
    }

    /// Appends job `job-<n>`: one queued traditional run of `spec` for
    /// `tenant`, watched by the returned queue.
    fn push_job(inner: &Inner, tenant: &str, spec: ScenarioSpec) -> Arc<SubQueue> {
        let mut sh = inner.shared.lock().unwrap();
        let backend = Backend::Traditional1D;
        let acct = run_accounting(&inner.profiler, backend, &spec);
        let entry = RunEntry::new(spec.name.clone(), Phase::Queued, spec.n_steps, acct);
        let run = RunEntry {
            pending: Some(PendingRun::Fresh(spec.clone())),
            ..entry
        };
        let watcher = Arc::new(SubQueue::new(WatchPolicy::default(), 4096));
        let id = format!("job-{}", sh.jobs.len());
        sh.jobs.push(JobEntry {
            id,
            tenant: tenant.into(),
            request: JobRequest::scenario(spec, backend),
            job_key: None,
            submitted: Instant::now(),
            runs: vec![run],
            subscribers: vec![Arc::clone(&watcher)],
        });
        watcher
    }

    /// Admits what fits beside the sessions already stepping and builds
    /// it; returns the admitted job indices in admission order.
    fn admit_and_build(s: &mut Scheduler) -> Vec<usize> {
        let inner = Arc::clone(&s.inner);
        let admissions = admit(
            &mut inner.shared.lock().unwrap(),
            &inner.config,
            s.active.len(),
        );
        let jobs = admissions.iter().map(|a| a.job).collect();
        for a in admissions {
            s.build(a);
        }
        jobs
    }

    #[test]
    fn a_cancel_during_the_last_wave_stands() {
        let mut s = scheduler(ServeConfig::default());
        let inner = Arc::clone(&s.inner);
        push_job(&inner, "a", two_stream(1));
        admit_and_build(&mut s);
        // The run steps its only step unlocked, while a handler cancels it.
        s.step_wave();
        assert!(s.active[0].session.is_complete());
        cancel(&inner, "job-0").unwrap();

        let mut sh = inner.shared.lock().unwrap();
        s.publish_wave(&mut sh);
        let run = &sh.jobs[0].runs[0];
        assert_eq!(run.phase, Phase::Cancelled);
        assert_eq!(run.finish_seq, Some(0));
        assert!(matches!(run.result, StoredResult::None));
        assert_eq!(sh.finish_counter, 1);
        s.sweep_cancelled(&sh);
        assert!(s.active.is_empty());
    }

    /// The four finalisers — build failure, wave finish, circuit-open
    /// shed, cancel — number runs once each, without gaps, and send
    /// `run_failed` exactly for the failed ones.
    #[test]
    fn every_finaliser_numbers_each_run_once_and_names_failures() {
        let config = ServeConfig {
            breaker_threshold: 1,
            breaker_cooldown: Duration::from_secs(600),
            ..ServeConfig::default().max_sessions(2)
        };
        let mut s = scheduler(config);
        let inner = Arc::clone(&s.inner);
        let mut poison = two_stream(5);
        poison.name.clear(); // fails validation when built
        let watchers = [
            push_job(&inner, "a", poison.clone()),
            push_job(&inner, "b", two_stream(1)),
            push_job(&inner, "a", poison),
            push_job(&inner, "b", two_stream(1000)),
            push_job(&inner, "a", two_stream(1000)),
        ];

        // Job 0 fails to build and opens its circuit; job 1 finishes.
        assert_eq!(admit_and_build(&mut s), [0, 1]);
        s.step_wave();
        s.publish_wave(&mut inner.shared.lock().unwrap());
        // Job 2 is shed at the open circuit on tenant a's turn, so b's
        // job 3 goes before a's job 4.
        assert_eq!(admit_and_build(&mut s), [3, 4]);
        cancel(&inner, "job-3").unwrap();
        cancel(&inner, "job-4").unwrap();

        let sh = inner.shared.lock().unwrap();
        let runs: Vec<&RunEntry> = sh.jobs.iter().map(|j| &j.runs[0]).collect();
        let phases: Vec<Phase> = runs.iter().map(|r| r.phase).collect();
        use Phase::{Cancelled, Done, Failed};
        assert_eq!(phases, [Failed, Done, Failed, Cancelled, Cancelled]);
        assert!(runs[2]
            .error
            .as_deref()
            .unwrap()
            .starts_with("circuit-open"));
        let mut seqs: Vec<u64> = runs.iter().map(|r| r.finish_seq.unwrap()).collect();
        seqs.sort_unstable();
        assert_eq!(seqs, [0, 1, 2, 3, 4]);
        assert_eq!(sh.finish_counter, 5);
        for (run, watcher) in runs.iter().zip(&watchers) {
            let kinds: Vec<String> = std::iter::from_fn(|| watcher.pop())
                .map(|line| {
                    let event = Json::parse(&line).unwrap();
                    event.field("event").unwrap().as_str().unwrap().to_string()
                })
                .filter(|kind| kind != "sample")
                .collect();
            let outcome = if run.phase == Failed {
                "run_failed"
            } else {
                "run_done"
            };
            assert_eq!(kinds, [outcome, "job_done"], "{}", run.name);
        }
    }
}
