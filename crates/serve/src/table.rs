//! The control plane: the job/run table behind the `Shared` mutex, the
//! bounded watch queues the scheduler fans events into, and
//! [`Shared::finalize`], the one place a run reaches its final state.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use dlpic_repro::engine::json::Json;
use dlpic_repro::engine::{estimate_session, Backend, Checkpoint, ScenarioSpec, WeightProfiler};

use crate::job::{spec_fingerprint, JobRequest};
use crate::protocol::{self, WatchPolicy};
use crate::server::ServeConfig;
use crate::stats::{CircuitBreakers, LatencyHistogram};

/// Lifecycle of one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Phase {
    Queued,
    Active,
    Done,
    Stopped,
    Cancelled,
    Failed,
}

impl Phase {
    const ALL: [Self; 6] = [
        Self::Queued,
        Self::Active,
        Self::Done,
        Self::Stopped,
        Self::Cancelled,
        Self::Failed,
    ];

    /// The wire and spool name (`status` `state`, manifest `state`).
    pub(crate) fn name(self) -> &'static str {
        match self {
            Self::Queued => "queued",
            Self::Active => "active",
            Self::Done => "done",
            Self::Stopped => "stopped",
            Self::Cancelled => "cancelled",
            Self::Failed => "failed",
        }
    }

    /// The phase [`Self::name`] names, if any.
    pub(crate) fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|p| p.name() == name)
    }

    pub(crate) fn is_final(self) -> bool {
        matches!(
            self,
            Self::Done | Self::Stopped | Self::Cancelled | Self::Failed
        )
    }
}

/// What the scheduler admits: a fresh spec, or a spooled checkpoint.
pub(crate) enum PendingRun {
    Fresh(ScenarioSpec),
    Resume(Box<Checkpoint>),
}

/// Where a finished run's summary (its whole history) is kept — once.
pub(crate) enum StoredResult {
    /// Not finished, or final without a summary (cancelled, quarantined).
    None,
    /// In RAM: the only copy (no spool, or the spool write failed).
    Held(Json),
    /// In the spool's `run-<k>.done.json`; the `results` op reads it on
    /// demand, outside the `Shared` lock.
    Spooled,
}

pub(crate) struct RunEntry {
    pub(crate) name: String,
    pub(crate) phase: Phase,
    pub(crate) steps_done: usize,
    pub(crate) steps_total: usize,
    pub(crate) pending: Option<PendingRun>,
    pub(crate) result: StoredResult,
    pub(crate) error: Option<String>,
    /// Global completion order (fairness is observable, not a timing
    /// guess): the n-th run to reach a final state gets n.
    pub(crate) finish_seq: Option<u64>,
    pub(crate) acct: RunAccounting,
}

impl RunEntry {
    /// A run in `phase` with no step done, nothing pending, no result and
    /// no error; callers set the rest with struct-update syntax.
    pub(crate) fn new(name: String, phase: Phase, steps_total: usize, acct: RunAccounting) -> Self {
        Self {
            name,
            phase,
            steps_done: 0,
            steps_total,
            pending: None,
            result: StoredResult::None,
            error: None,
            finish_seq: None,
            acct,
        }
    }
}

/// Budget and breaker bookkeeping of one run under the server's weight
/// profiler: the private estimate, the shared-weight charge, and the keys
/// both are filed under. The default (all zero, no keys) is what a final
/// run reloaded without its spec carries: nothing left to charge, and a
/// fingerprint no breaker is consulted on.
#[derive(Default)]
pub(crate) struct RunAccounting {
    /// The run's *private* resource estimate charged against the memory
    /// budget while it steps: [`estimate_session`] total minus the
    /// shared-weight slice when `weight_key` is `Some` (the weights are
    /// charged separately, once per distinct key), the full total for a
    /// model-free run.
    pub(crate) est_bytes: usize,
    /// Bytes of the shared weight allocation this run reads, charged
    /// **once per distinct `weight_key`** across all active runs. 0 when
    /// `weight_key` is `None`.
    pub(crate) weight_bytes: usize,
    /// The engine's weight-sharing fingerprint
    /// ([`WeightProfiler::profile`]):
    /// active runs with equal keys read one allocation. `None` for
    /// model-free backends.
    pub(crate) weight_key: Option<String>,
    /// Circuit-breaker key ([`spec_fingerprint`]).
    pub(crate) fingerprint: String,
}

pub(crate) fn run_accounting(
    profiler: &WeightProfiler,
    backend: Backend,
    spec: &ScenarioSpec,
) -> RunAccounting {
    let est = estimate_session(spec, backend);
    let fingerprint = spec_fingerprint(backend, spec);
    match profiler.profile(spec, backend) {
        Some((key, bytes)) => RunAccounting {
            est_bytes: est.total() - est.shared_weight_bytes,
            weight_bytes: bytes,
            weight_key: Some(key),
            fingerprint,
        },
        None => RunAccounting {
            est_bytes: est.total(),
            weight_bytes: 0,
            weight_key: None,
            fingerprint,
        },
    }
}

/// One watch subscriber's bounded event queue. The scheduler pushes under
/// its control-plane pass; the subscriber's connection thread pops and
/// writes to the socket at the client's pace. When the client is slower
/// than the fleet, the queue sheds *samples* by its [`WatchPolicy`] —
/// control events (`run_done`, `run_failed`, `job_done`) always land, so
/// a slow watcher loses resolution, never outcomes, and a stalled one
/// bounds its memory here instead of in an unbounded channel or the OS
/// socket buffer.
pub(crate) struct SubQueue {
    pub(crate) policy: WatchPolicy,
    pub(crate) capacity: usize,
    state: Mutex<SubState>,
    ready: Condvar,
}

struct SubState {
    items: VecDeque<String>,
    closed: bool,
    queued_total: u64,
    dropped: u64,
    decimated: u64,
}

impl SubQueue {
    pub(crate) fn new(policy: WatchPolicy, capacity: usize) -> Self {
        Self {
            policy,
            capacity: capacity.max(1),
            state: Mutex::new(SubState {
                items: VecDeque::new(),
                closed: false,
                queued_total: 0,
                dropped: 0,
                decimated: 0,
            }),
            ready: Condvar::new(),
        }
    }

    /// Enqueues one sample line for history row `row`, shedding by
    /// policy: decimation keeps every Nth row, and a full queue evicts
    /// its oldest sample.
    fn push_sample(&self, line: &str, row: usize) {
        let mut st = self.state.lock().unwrap();
        if st.closed {
            return;
        }
        if let WatchPolicy::Decimate(n) = self.policy {
            if !row.is_multiple_of(n) {
                st.decimated += 1;
                return;
            }
        }
        if st.items.len() >= self.capacity {
            st.items.pop_front();
            st.dropped += 1;
        }
        st.items.push_back(line.to_string());
        st.queued_total += 1;
        self.ready.notify_one();
    }

    /// Enqueues a control event; never shed (outcomes must arrive).
    fn push_control(&self, line: &str) {
        let mut st = self.state.lock().unwrap();
        if st.closed {
            return;
        }
        st.items.push_back(line.to_string());
        st.queued_total += 1;
        self.ready.notify_one();
    }

    /// Blocks for the next line; `None` once closed and drained.
    pub(crate) fn pop(&self) -> Option<String> {
        let mut st = self.state.lock().unwrap();
        loop {
            if let Some(line) = st.items.pop_front() {
                return Some(line);
            }
            if st.closed {
                return None;
            }
            st = self.ready.wait(st).unwrap();
        }
    }

    /// Marks the queue finished; queued lines still drain via [`Self::pop`].
    pub(crate) fn close(&self) {
        self.state.lock().unwrap().closed = true;
        self.ready.notify_all();
    }

    fn is_closed(&self) -> bool {
        self.state.lock().unwrap().closed
    }

    /// `(depth, queued_total, dropped, decimated)` for `status`.
    pub(crate) fn stats(&self) -> (usize, u64, u64, u64) {
        let st = self.state.lock().unwrap();
        (st.items.len(), st.queued_total, st.dropped, st.decimated)
    }
}

pub(crate) struct JobEntry {
    pub(crate) id: String,
    pub(crate) tenant: String,
    pub(crate) request: JobRequest,
    /// Client-supplied idempotency key (resubmits dedupe against it).
    pub(crate) job_key: Option<String>,
    /// When this job entered the table (or re-entered it on resume) —
    /// the epoch `deadline_seconds` is measured from.
    pub(crate) submitted: Instant,
    pub(crate) runs: Vec<RunEntry>,
    pub(crate) subscribers: Vec<Arc<SubQueue>>,
}

impl JobEntry {
    pub(crate) fn is_final(&self) -> bool {
        self.runs.iter().all(|r| r.phase.is_final())
    }

    fn publish_control(&mut self, line: &str) {
        self.subscribers.retain(|q| !q.is_closed());
        for q in &self.subscribers {
            q.push_control(line);
        }
    }

    pub(crate) fn publish_sample(&mut self, line: &str, row: usize) {
        for q in &self.subscribers {
            q.push_sample(line, row);
        }
    }
}

/// The distinct tenants of `jobs`, in job order.
pub(crate) fn tenants<'a>(jobs: impl IntoIterator<Item = &'a JobEntry>) -> Vec<&'a str> {
    let mut tenants: Vec<&str> = Vec::new();
    for job in jobs {
        if !tenants.contains(&job.tenant.as_str()) {
            tenants.push(&job.tenant);
        }
    }
    tenants
}

/// The last event of every watch: the job's runs are all final.
pub(crate) fn job_done_event(job: &str) -> String {
    protocol::event("job_done", vec![("job", Json::Str(job.into()))])
}

/// A run's final event: `run_done`, or for a failed run `run_failed`
/// with the stored error — a distinct kind so dashboards and retry logic
/// can react without string-matching states.
fn run_event(job: &str, k: usize, run: &RunEntry) -> String {
    let mut fields = vec![
        ("job", Json::Str(job.into())),
        ("run", Json::Num(k as f64)),
        ("name", Json::Str(run.name.clone())),
        ("state", Json::Str(run.phase.name().into())),
        ("steps", Json::Num(run.steps_done as f64)),
    ];
    if run.phase != Phase::Failed {
        return protocol::event("run_done", fields);
    }
    fields.push(("error", Json::Str(run.error.clone().unwrap_or_default())));
    protocol::event("run_failed", fields)
}

pub(crate) struct Shared {
    pub(crate) jobs: Vec<JobEntry>,
    pub(crate) next_job: u64,
    /// Tenant admitted last, for round-robin fairness.
    pub(crate) last_tenant: Option<String>,
    /// Monotonic counter handed to runs as they reach a final state.
    pub(crate) finish_counter: u64,
    /// Cumulative seconds the scheduler spent stepping waves and doing
    /// post-wave work (streaming, finalizing, spooling) — the serving
    /// tier's whole per-step cost, excluding session construction and
    /// idle waits. The benchmark's `serve.*.stepping_s_per_job` and
    /// `idle_share` read it.
    pub(crate) stepping_seconds: f64,
    /// Per-wave latency distribution (same interval `stepping_seconds`
    /// accumulates); `status`/`health` surface it.
    pub(crate) wave_latency: LatencyHistogram,
    /// Poison-job circuit breakers, keyed by spec fingerprint. The
    /// scheduler records outcomes; `submit` consults them.
    pub(crate) breakers: CircuitBreakers,
    /// A handler asking the scheduler for a retention pass: `Some(keep)`
    /// until the scheduler picks it up, then the pruned count lands in
    /// `prune_result`. Funneled through the scheduler because active-run
    /// bookkeeping holds indices into `jobs`.
    pub(crate) prune_request: Option<usize>,
    pub(crate) prune_result: Option<usize>,
    pub(crate) draining: bool,
    pub(crate) stopped: bool,
}

impl Shared {
    /// An empty table with the configured breakers.
    pub(crate) fn new(config: &ServeConfig) -> Self {
        Self {
            jobs: Vec::new(),
            next_job: 1,
            last_tenant: None,
            finish_counter: 0,
            stepping_seconds: 0.0,
            wave_latency: LatencyHistogram::default(),
            breakers: CircuitBreakers::new(config.breaker_threshold, config.breaker_cooldown),
            prune_request: None,
            prune_result: None,
            draining: false,
            stopped: false,
        }
    }

    /// Every run in `phase`, in job order.
    pub(crate) fn runs(&self, phase: Phase) -> impl Iterator<Item = &RunEntry> + '_ {
        self.jobs
            .iter()
            .flat_map(|j| &j.runs)
            .filter(move |r| r.phase == phase)
    }

    pub(crate) fn tenant_queued(&self, tenant: &str) -> usize {
        self.jobs
            .iter()
            .filter(|j| j.tenant == tenant)
            .flat_map(|j| &j.runs)
            .filter(|r| r.phase == Phase::Queued)
            .count()
    }

    /// Bytes charged against the memory budget right now: every `Active`
    /// run's private estimate, plus each distinct shared weight
    /// allocation **once** — N cohort members over one model charge N
    /// private estimates and one weight copy, matching what the engine
    /// actually allocates.
    pub(crate) fn active_bytes(&self) -> usize {
        let private: usize = self.runs(Phase::Active).map(|r| r.acct.est_bytes).sum();
        private + self.active_weight_stats().1
    }

    /// Distinct shared weight allocations read by active runs:
    /// `(distinct_models, weight_bytes)` with each allocation counted
    /// once.
    pub(crate) fn active_weight_stats(&self) -> (usize, usize) {
        let mut seen: Vec<&str> = Vec::new();
        let mut bytes = 0usize;
        for r in self.runs(Phase::Active) {
            if let Some(key) = r.acct.weight_key.as_deref() {
                if !seen.contains(&key) {
                    seen.push(key);
                    bytes += r.acct.weight_bytes;
                }
            }
        }
        (seen.len(), bytes)
    }

    /// Waiting bytes, counted pessimistically (each queued run charged
    /// its weights as if nothing were shared — what admission would cost
    /// in the worst case).
    pub(crate) fn queued_bytes(&self) -> usize {
        self.runs(Phase::Queued)
            .map(|r| r.acct.est_bytes + r.acct.weight_bytes)
            .sum()
    }

    /// Retry advice for shed load: roughly one backlog's worth of waves
    /// at the recently observed wave latency, clamped to [100 ms, 10 s].
    /// Before any wave has run the histogram is empty and the estimate
    /// falls back to a flat 500 ms.
    pub(crate) fn retry_after_ms(&self) -> u64 {
        let mean = self.wave_latency.mean_ms();
        if mean <= 0.0 {
            return 500;
        }
        let eta = mean * (self.runs(Phase::Queued).count() as f64 + 1.0);
        eta.clamp(100.0, 10_000.0) as u64
    }

    /// Moves run `k` of job `j` to the final `phase` with `error`: hands
    /// it the next `finish_seq`, feeds the breaker when `feed_breaker`,
    /// publishes its `run_done`/`run_failed` event, and once every run of
    /// the job is final sends `job_done` and releases the watchers (their
    /// queues drain, then their handlers exit).
    ///
    /// `feed_breaker` is set where the outcome is evidence about the spec
    /// (a build or a run: a failure counts towards opening its circuit,
    /// anything else closes it) and clear where the outcome was decided
    /// about the run instead (shed at an open circuit, cancelled).
    ///
    /// A run that is already final is left untouched and `false`
    /// returned: a `cancel` can take the lock while the scheduler steps
    /// the run's last wave unlocked, and the cancel stands.
    pub(crate) fn finalize(
        &mut self,
        j: usize,
        k: usize,
        phase: Phase,
        error: Option<String>,
        feed_breaker: bool,
    ) -> bool {
        let job = &mut self.jobs[j];
        let run = &mut job.runs[k];
        if run.phase.is_final() {
            return false;
        }
        run.phase = phase;
        run.pending = None;
        run.error = error;
        run.finish_seq = Some(self.finish_counter);
        self.finish_counter += 1;
        if feed_breaker && phase == Phase::Failed {
            self.breakers
                .record_failure(&run.acct.fingerprint, Instant::now());
        } else if feed_breaker {
            self.breakers.record_success(&run.acct.fingerprint);
        }
        let line = run_event(&job.id, k, run);
        job.publish_control(&line);
        if job.is_final() {
            job.publish_control(&job_done_event(&job.id));
            for q in &job.subscribers {
                q.close();
            }
            job.subscribers.clear();
        }
        true
    }
}
