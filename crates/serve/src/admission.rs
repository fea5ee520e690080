//! Admission: which queued runs get a session next. A pass over the
//! control-plane table alone — round-robin across tenants, the session
//! cap, the memory budget and the circuit breakers — so it runs and is
//! tested without an engine or a socket.

use std::time::Instant;

use dlpic_repro::engine::Backend;

use crate::job::StopEval;
use crate::server::ServeConfig;
use crate::table::{tenants, PendingRun, Phase, Shared};

/// One admitted run on its way to a session: its control-plane address,
/// what to build, and everything else of its job the build needs — read
/// under the admission lock, so building takes no lock at all.
pub(crate) struct Admission {
    pub(crate) job: usize,
    pub(crate) run: usize,
    pub(crate) pending: PendingRun,
    pub(crate) backend: Backend,
    pub(crate) stop: Option<StopEval>,
}

/// Admits queued runs round-robin across tenants until the session
/// cap — or the memory budget — is reached. Marks them `Active` in
/// the control plane and returns what to build. Queued runs whose
/// spec's circuit is open are failed here (`circuit-open`) without
/// consuming a session slot. `stepping` sessions already hold a slot.
pub(crate) fn admit(sh: &mut Shared, config: &ServeConfig, stepping: usize) -> Vec<Admission> {
    let now = Instant::now();
    let mut admissions = Vec::new();
    while stepping + admissions.len() < config.max_sessions {
        // The rotation: distinct tenants with queued work, in job
        // order; serve the one after the last-served tenant.
        let queued = tenants(
            sh.jobs
                .iter()
                .filter(|j| j.runs.iter().any(|r| r.phase == Phase::Queued)),
        );
        if queued.is_empty() {
            break;
        }
        let start = sh
            .last_tenant
            .as_deref()
            .and_then(|last| queued.iter().position(|t| *t == last))
            .map_or(0, |pos| (pos + 1) % queued.len());
        let tenant = queued[start].to_string();
        let slot = sh.jobs.iter().enumerate().find_map(|(j, job)| {
            if job.tenant != tenant {
                return None;
            }
            job.runs
                .iter()
                .position(|r| r.phase == Phase::Queued)
                .map(|k| (j, k))
        });
        let Some((j, k)) = slot else { break };
        // A quarantined spec fails at the admission gate: the run
        // never gets a session, so a poison job resubmitted in a
        // loop cannot occupy scheduler waves during its cooldown.
        let fingerprint = &sh.jobs[j].runs[k].acct.fingerprint;
        if let Some(remaining) = sh.breakers.open_remaining(fingerprint, now) {
            let error = format!(
                "circuit-open: spec quarantined for another {:.1}s",
                remaining.as_secs_f64()
            );
            sh.finalize(j, k, Phase::Failed, Some(error), false);
            // The tenant used its rotation turn on a shed run.
            sh.last_tenant = Some(tenant);
            continue;
        }
        // Budgeted admission: the next candidate must fit in the
        // remaining budget, else admission pauses until an active
        // run frees its estimate (head-of-line, so a large run
        // cannot starve behind a stream of small ones). A lone run
        // bigger than the whole budget is admitted anyway when
        // nothing else is stepping — submit-time checks reject such
        // specs, but a spool resumed under a tighter budget must
        // still make progress.
        if let Some(budget) = config.memory_budget {
            let used = sh.active_bytes();
            // Incremental cost: the private estimate always, the
            // shared weight allocation only when no active run
            // already holds the same weight key — a cohort member
            // joining resident weights is cheap by exactly the
            // weights' size.
            let acct = &sh.jobs[j].runs[k].acct;
            let weights_resident = acct.weight_key.as_deref().is_some_and(|key| {
                sh.runs(Phase::Active)
                    .any(|r| r.acct.weight_key.as_deref() == Some(key))
            });
            let need = acct.est_bytes
                + if weights_resident {
                    0
                } else {
                    acct.weight_bytes
                };
            if used > 0 && used + need > budget {
                break;
            }
        }
        let run = &mut sh.jobs[j].runs[k];
        run.phase = Phase::Active;
        let pending = run
            .pending
            .take()
            // analyze:allow(no-panic-in-request-path): scheduler-thread invariant — a Queued run always carries its pending work (set at submit and at spool resume), and this loop is the only taker
            .unwrap_or_else(|| unreachable!("queued run without pending work"));
        let request = &sh.jobs[j].request;
        admissions.push(Admission {
            job: j,
            run: k,
            pending,
            backend: request.backend,
            stop: request.stop.as_ref().map(|p| p.evaluator()),
        });
        sh.last_tenant = Some(tenant);
    }
    admissions
}
