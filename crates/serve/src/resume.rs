//! Spool resume: rebuilds the job table from a spool manifest.

use std::time::Instant;

use dlpic_repro::engine::json::Json;
use dlpic_repro::engine::WeightProfiler;

use crate::spool::{Spool, SpoolJob, SpoolRun};
use crate::table::{
    run_accounting, JobEntry, PendingRun, Phase, RunAccounting, RunEntry, StoredResult,
};

/// Rehydrates one manifest job: finished runs reload their stored
/// summaries, in-flight runs re-queue from their checkpoint (or from
/// step 0 via the embedded spec when the kill landed before their first
/// flush), queued runs re-queue from their spec.
///
/// Self-healing: a truncated or corrupt per-run file never aborts the
/// resume. A bad checkpoint restarts that run from step 0 when its spec
/// survived (with a warning), else quarantines just that run as `failed`;
/// a bad result file quarantines likewise. Every other run resumes
/// untouched.
pub(crate) fn load_spooled_job(
    spool: &Spool,
    job: SpoolJob,
    profiler: &WeightProfiler,
) -> JobEntry {
    let backend = job.request.backend;
    // Budget/breaker bookkeeping for reloaded runs: recompute from the
    // stored spec when it survived (final runs without one charge 0 bytes
    // and carry an empty fingerprint — neither is consulted again).
    let final_run = |run: &SpoolRun, phase: Phase| -> RunEntry {
        let acct = run.spec.as_ref().map_or_else(RunAccounting::default, |s| {
            run_accounting(profiler, backend, s)
        });
        let steps_total = run.spec.as_ref().map_or(0, |s| s.n_steps);
        RunEntry::new(run.name.clone(), phase, steps_total, acct)
    };
    let quarantine = |run: &SpoolRun, k: usize, why: String| -> RunEntry {
        eprintln!("warning: spool: {} run {k} quarantined: {why}", job.id);
        RunEntry {
            error: Some(format!("unrecoverable after restart: {why}")),
            ..final_run(run, Phase::Failed)
        }
    };
    let mut runs = Vec::with_capacity(job.runs.len());
    for (k, run) in job.runs.iter().enumerate() {
        // `Spool::load_manifest` refuses any state that names no phase.
        let entry = match Phase::parse(&run.state).unwrap_or(Phase::Queued) {
            phase @ (Phase::Done | Phase::Stopped) => match spool.read_result(&job.id, k) {
                Ok(result) => {
                    let steps = result.field("steps").and_then(Json::as_usize).unwrap_or(0);
                    let entry = final_run(run, phase);
                    RunEntry {
                        steps_done: steps,
                        steps_total: steps.max(entry.steps_total),
                        // Validated and counted; the tree is dropped
                        // here and stays on disk only.
                        result: StoredResult::Spooled,
                        ..entry
                    }
                }
                Err(e) => quarantine(run, k, format!("corrupt result file: {e}")),
            },
            phase @ (Phase::Cancelled | Phase::Failed) => RunEntry {
                // Failed runs may have a stored partial summary.
                result: match spool.read_result(&job.id, k) {
                    Ok(_) => StoredResult::Spooled,
                    Err(_) => StoredResult::None,
                },
                error: run.error.clone(),
                ..final_run(run, phase)
            },
            // Active and queued runs both re-queue; an active run prefers
            // its checkpoint and falls back to a fresh start.
            Phase::Active | Phase::Queued => {
                let recovered: Result<(PendingRun, usize), String> = if spool
                    .has_checkpoint(&job.id, k)
                {
                    match spool.read_checkpoint(&job.id, k) {
                        Ok(ckpt) => {
                            let done = ckpt.steps_done;
                            Ok((PendingRun::Resume(Box::new(ckpt)), done))
                        }
                        Err(e) => match run.spec.clone() {
                            Some(spec) => {
                                eprintln!(
                                    "warning: spool: {} run {k}: corrupt checkpoint \
                                         ({e}); restarting from step 0",
                                    job.id
                                );
                                Ok((PendingRun::Fresh(spec), 0))
                            }
                            None => Err(format!("corrupt checkpoint and no spec to restart: {e}")),
                        },
                    }
                } else {
                    match run.spec.clone() {
                        Some(spec) => Ok((PendingRun::Fresh(spec), 0)),
                        None => Err("neither checkpoint nor spec on disk".into()),
                    }
                };
                match recovered {
                    Ok((pending, steps_done)) => {
                        let spec = match &pending {
                            PendingRun::Resume(c) => &c.spec,
                            PendingRun::Fresh(s) => s,
                        };
                        let acct = run_accounting(profiler, backend, spec);
                        let entry =
                            RunEntry::new(run.name.clone(), Phase::Queued, spec.n_steps, acct);
                        RunEntry {
                            steps_done,
                            pending: Some(pending),
                            ..entry
                        }
                    }
                    Err(why) => quarantine(run, k, why),
                }
            }
        };
        runs.push(entry);
    }
    JobEntry {
        id: job.id,
        tenant: job.tenant,
        request: job.request,
        job_key: job.job_key,
        submitted: Instant::now(),
        runs,
        subscribers: Vec::new(),
    }
}
