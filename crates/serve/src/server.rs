//! The daemon: one acceptor thread, one handler thread per connection,
//! and one **scheduler** thread that owns every live [`Session`].
//!
//! The scheduler is the only thread that touches solver state, so the
//! engine's single-threaded determinism story carries over unchanged: it
//! admits queued runs (round-robin across tenants, capped at
//! `max_sessions`), steps every admitted session in lockstep waves
//! through [`WaveBatch`] — co-resident DL runs share one batched
//! inference per wave, exactly like an [`Ensemble`](dlpic_repro::engine::Ensemble),
//! prepared and solved on the engine's worker team (every core the
//! machine has; `status` and `health` report it as `wave_threads`) —
//! then briefly takes the control-plane lock to publish progress,
//! stream new diagnostics rows to watchers, evaluate early-stop
//! policies and finalize finished runs. Checkpoints flush to the spool
//! every `spool_interval` waves and on drain, so a killed server resumes
//! bit-identically (the engine re-runs the at-most-`spool_interval`
//! trailing waves deterministically).
//!
//! Connection handlers never block the scheduler for longer than a
//! control-plane update: submissions only append to the job table, and
//! watch subscriptions are `mpsc` senders the scheduler fans samples
//! into.

use std::collections::VecDeque;
use std::io::{BufReader, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use dlpic_repro::core::pool;
use dlpic_repro::engine::json::{obj, Json};
use dlpic_repro::engine::{
    estimate_session, Backend, Checkpoint, Engine, RunSummary, ScenarioSpec, Session, WaveBatch,
    WeightProfiler,
};

use crate::error::ServeError;
use crate::job::{spec_fingerprint, JobRequest, StopEval};
use crate::protocol::{self, ProtoError, Request, WatchPolicy};
use crate::spool::{Spool, SpoolJob, SpoolRun};
use crate::stats::{CircuitBreakers, LatencyHistogram};

// ---------------------------------------------------------------------
// Configuration.
// ---------------------------------------------------------------------

/// Server configuration; build with the fluent setters.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// `host:port` for TCP, or `unix:<path>` for a Unix socket. Port 0
    /// binds an ephemeral port (the bound address is
    /// [`Server::addr`]).
    pub listen: String,
    /// Durable state directory; `None` serves from memory only.
    pub spool: Option<PathBuf>,
    /// Reload a previous fleet from the spool manifest before serving.
    pub resume: bool,
    /// Admission cap: at most this many sessions step concurrently.
    pub max_sessions: usize,
    /// Waves between spool flushes (checkpoints + manifest).
    pub spool_interval: usize,
    /// Budgeted admission: upper bound (bytes) on the summed resource
    /// estimate of concurrently *stepping* runs. `None` disables the
    /// budget and admission is capped by `max_sessions` alone.
    pub memory_budget: Option<usize>,
    /// Backlog cap: at most this many runs may sit queued across all
    /// tenants; past it `submit` sheds load with a structured
    /// `overloaded` rejection carrying `retry_after_ms`.
    pub max_queued: usize,
    /// Per-tenant backlog cap; past it `submit` rejects that tenant with
    /// `quota-exceeded` while other tenants keep submitting.
    pub tenant_max_queued: usize,
    /// Circuit breaker: consecutive failed runs of one spec fingerprint
    /// before its circuit opens (0 disables the breaker).
    pub breaker_threshold: usize,
    /// How long an open circuit rejects resubmissions before half-opening.
    pub breaker_cooldown: Duration,
    /// Spool retention: keep at most this many *finished* jobs per tenant
    /// in the table/manifest; older ones are pruned on the scheduler's
    /// retention pass. `None` keeps everything (the `prune` op then needs
    /// an explicit `keep`).
    pub spool_retain: Option<usize>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            listen: "127.0.0.1:0".into(),
            spool: None,
            resume: false,
            max_sessions: 16,
            spool_interval: 32,
            memory_budget: None,
            max_queued: 1024,
            tenant_max_queued: 256,
            breaker_threshold: 3,
            breaker_cooldown: Duration::from_secs(60),
            spool_retain: None,
        }
    }
}

impl ServeConfig {
    /// Sets the listen address (`host:port` or `unix:<path>`).
    pub fn listen(mut self, addr: impl Into<String>) -> Self {
        self.listen = addr.into();
        self
    }

    /// Enables the spool directory.
    pub fn spool(mut self, dir: impl Into<PathBuf>) -> Self {
        self.spool = Some(dir.into());
        self
    }

    /// Resumes a previous fleet from the spool manifest.
    pub fn resume(mut self, dir: impl Into<PathBuf>) -> Self {
        self.spool = Some(dir.into());
        self.resume = true;
        self
    }

    /// Sets the admission cap.
    pub fn max_sessions(mut self, n: usize) -> Self {
        self.max_sessions = n.max(1);
        self
    }

    /// Sets the spool flush interval in waves.
    pub fn spool_interval(mut self, waves: usize) -> Self {
        self.spool_interval = waves.max(1);
        self
    }

    /// Caps the summed resource estimate of concurrently stepping runs.
    pub fn memory_budget(mut self, bytes: usize) -> Self {
        self.memory_budget = Some(bytes);
        self
    }

    /// Caps the global queued-run backlog.
    pub fn max_queued(mut self, runs: usize) -> Self {
        self.max_queued = runs.max(1);
        self
    }

    /// Caps each tenant's queued-run backlog.
    pub fn tenant_max_queued(mut self, runs: usize) -> Self {
        self.tenant_max_queued = runs.max(1);
        self
    }

    /// Sets the circuit-breaker trip threshold (0 disables) and cooldown.
    pub fn breaker(mut self, threshold: usize, cooldown: Duration) -> Self {
        self.breaker_threshold = threshold;
        self.breaker_cooldown = cooldown;
        self
    }

    /// Keeps at most `jobs` finished jobs per tenant in spool/table.
    pub fn spool_retain(mut self, jobs: usize) -> Self {
        self.spool_retain = Some(jobs);
        self
    }
}

// ---------------------------------------------------------------------
// Control-plane state (behind the mutex).
// ---------------------------------------------------------------------

/// Lifecycle of one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Queued,
    Active,
    Done,
    Stopped,
    Cancelled,
    Failed,
}

impl Phase {
    fn name(self) -> &'static str {
        match self {
            Self::Queued => "queued",
            Self::Active => "active",
            Self::Done => "done",
            Self::Stopped => "stopped",
            Self::Cancelled => "cancelled",
            Self::Failed => "failed",
        }
    }

    fn is_final(self) -> bool {
        matches!(
            self,
            Self::Done | Self::Stopped | Self::Cancelled | Self::Failed
        )
    }
}

/// What the scheduler admits: a fresh spec, or a spooled checkpoint.
enum PendingRun {
    Fresh(ScenarioSpec),
    Resume(Box<Checkpoint>),
}

/// Where a finished run's summary (its whole history) is kept — once.
enum StoredResult {
    /// Not finished, or final without a summary (cancelled, quarantined).
    None,
    /// In RAM: the only copy (no spool, or the spool write failed).
    Held(Json),
    /// In the spool's `run-<k>.done.json`; the `results` op reads it on
    /// demand, outside the `Shared` lock.
    Spooled,
}

struct RunEntry {
    name: String,
    phase: Phase,
    steps_done: usize,
    steps_total: usize,
    pending: Option<PendingRun>,
    result: StoredResult,
    error: Option<String>,
    /// Global completion order (fairness is observable, not a timing
    /// guess): the n-th run to reach a final state gets n.
    finish_seq: Option<u64>,
    /// The run's *private* resource estimate charged against the memory
    /// budget while it steps: [`estimate_session`] total minus the
    /// shared-weight slice when `weight_key` is `Some` (the weights are
    /// charged separately, once per distinct key), the full total when
    /// the run owns its model. 0 for final runs reloaded without a spec
    /// (nothing left to charge).
    est_bytes: usize,
    /// Bytes of the shared weight allocation this run reads, charged
    /// **once per distinct `weight_key`** across all active runs. 0 when
    /// `weight_key` is `None`.
    weight_bytes: usize,
    /// The engine's weight-sharing fingerprint
    /// ([`WeightProfiler::profile`]):
    /// active runs with equal keys read one allocation. `None` for
    /// model-free backends and per-copy models.
    weight_key: Option<String>,
    /// Circuit-breaker key ([`spec_fingerprint`]); empty when the spec is
    /// gone (final runs reloaded from results only).
    fingerprint: String,
}

/// Budget and breaker bookkeeping of one run under the server's weight
/// profiler: the private estimate, the shared-weight charge, and the keys
/// both are filed under.
struct RunAccounting {
    est_bytes: usize,
    weight_bytes: usize,
    weight_key: Option<String>,
    fingerprint: String,
}

fn run_accounting(
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
struct SubQueue {
    policy: WatchPolicy,
    capacity: usize,
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
    fn new(policy: WatchPolicy, capacity: usize) -> Self {
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
    fn pop(&self) -> Option<String> {
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

    /// Marks the queue finished; queued lines still drain via [`pop`].
    fn close(&self) {
        self.state.lock().unwrap().closed = true;
        self.ready.notify_all();
    }

    fn is_closed(&self) -> bool {
        self.state.lock().unwrap().closed
    }

    /// `(depth, queued_total, dropped, decimated)` for `status`.
    fn stats(&self) -> (usize, u64, u64, u64) {
        let st = self.state.lock().unwrap();
        (st.items.len(), st.queued_total, st.dropped, st.decimated)
    }
}

struct JobEntry {
    id: String,
    tenant: String,
    request: JobRequest,
    /// Client-supplied idempotency key (resubmits dedupe against it).
    job_key: Option<String>,
    /// When this job entered the table (or re-entered it on resume) —
    /// the epoch `deadline_seconds` is measured from.
    submitted: Instant,
    runs: Vec<RunEntry>,
    subscribers: Vec<Arc<SubQueue>>,
}

impl JobEntry {
    fn is_final(&self) -> bool {
        self.runs.iter().all(|r| r.phase.is_final())
    }

    fn publish_control(&mut self, line: &str) {
        self.subscribers.retain(|q| !q.is_closed());
        for q in &self.subscribers {
            q.push_control(line);
        }
    }

    fn publish_sample(&mut self, line: &str, row: usize) {
        for q in &self.subscribers {
            q.push_sample(line, row);
        }
    }
}

struct Shared {
    jobs: Vec<JobEntry>,
    next_job: u64,
    /// Tenant admitted last, for round-robin fairness.
    last_tenant: Option<String>,
    /// Monotonic counter handed to runs as they reach a final state.
    finish_counter: u64,
    /// Cumulative seconds the scheduler spent stepping waves and doing
    /// post-wave work (streaming, finalizing, spooling) — the serving
    /// tier's whole per-step cost, excluding session construction and
    /// idle waits. The benchmark's `serve.*.stepping_s_per_job` and
    /// `idle_share` read it.
    stepping_seconds: f64,
    /// Per-wave latency distribution (same interval `stepping_seconds`
    /// accumulates); `status`/`health` surface it.
    wave_latency: LatencyHistogram,
    /// Poison-job circuit breakers, keyed by spec fingerprint. The
    /// scheduler records outcomes; `submit` consults them.
    breakers: CircuitBreakers,
    /// A handler asking the scheduler for a retention pass: `Some(keep)`
    /// until the scheduler picks it up, then the pruned count lands in
    /// `prune_result`. Funneled through the scheduler because active-run
    /// bookkeeping holds indices into `jobs`.
    prune_request: Option<usize>,
    prune_result: Option<usize>,
    draining: bool,
    stopped: bool,
}

impl Shared {
    fn queued_runs(&self) -> usize {
        self.jobs
            .iter()
            .flat_map(|j| &j.runs)
            .filter(|r| r.phase == Phase::Queued)
            .count()
    }

    fn active_runs(&self) -> usize {
        self.jobs
            .iter()
            .flat_map(|j| &j.runs)
            .filter(|r| r.phase == Phase::Active)
            .count()
    }

    fn tenant_queued(&self, tenant: &str) -> usize {
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
    fn active_bytes(&self) -> usize {
        let private: usize = self
            .jobs
            .iter()
            .flat_map(|j| &j.runs)
            .filter(|r| r.phase == Phase::Active)
            .map(|r| r.est_bytes)
            .sum();
        private + self.active_weight_stats().1
    }

    /// Distinct shared weight allocations read by active runs:
    /// `(distinct_models, weight_bytes)` with each allocation counted
    /// once.
    fn active_weight_stats(&self) -> (usize, usize) {
        let mut seen: Vec<&str> = Vec::new();
        let mut bytes = 0usize;
        for r in self
            .jobs
            .iter()
            .flat_map(|j| &j.runs)
            .filter(|r| r.phase == Phase::Active)
        {
            if let Some(key) = r.weight_key.as_deref() {
                if !seen.contains(&key) {
                    seen.push(key);
                    bytes += r.weight_bytes;
                }
            }
        }
        (seen.len(), bytes)
    }

    /// Waiting bytes, counted pessimistically (each queued run charged
    /// its weights as if nothing were shared — what admission would cost
    /// in the worst case).
    fn queued_bytes(&self) -> usize {
        self.jobs
            .iter()
            .flat_map(|j| &j.runs)
            .filter(|r| r.phase == Phase::Queued)
            .map(|r| r.est_bytes + r.weight_bytes)
            .sum()
    }

    /// Retry advice for shed load: roughly one backlog's worth of waves
    /// at the recently observed wave latency, clamped to [100 ms, 10 s].
    /// Before any wave has run the histogram is empty and the estimate
    /// falls back to a flat 500 ms.
    fn retry_after_ms(&self) -> u64 {
        let mean = self.wave_latency.mean_ms();
        if mean <= 0.0 {
            return 500;
        }
        let eta = mean * (self.queued_runs() as f64 + 1.0);
        eta.clamp(100.0, 10_000.0) as u64
    }
}

struct Inner {
    shared: Mutex<Shared>,
    wake: Condvar,
    max_sessions: usize,
    spool_interval: usize,
    spool: Option<Spool>,
    memory_budget: Option<usize>,
    max_queued: usize,
    tenant_max_queued: usize,
    spool_retain: Option<usize>,
    /// Snapshot of the engine's weight-sharing configuration, so request
    /// handlers account submissions without the engine (which the
    /// scheduler thread owns).
    profiler: WeightProfiler,
    /// A handle on every open client connection, by accept order, so a
    /// drain can hang up on them: handler threads are detached and would
    /// otherwise outlive the server, answering for a scheduler that is
    /// gone. A handler removes its entry when it exits.
    conns: Mutex<Vec<(u64, Conn)>>,
}

// ---------------------------------------------------------------------
// The server.
// ---------------------------------------------------------------------

enum Listener {
    Tcp(TcpListener),
    Unix(UnixListener),
}

/// One accepted client connection (TCP or Unix).
enum Conn {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Conn {
    fn try_clone(&self) -> std::io::Result<Conn> {
        Ok(match self {
            Self::Tcp(s) => Self::Tcp(s.try_clone()?),
            Self::Unix(s) => Self::Unix(s.try_clone()?),
        })
    }

    /// Ends the connection from the server's side: the handler's next
    /// read sees end-of-stream and it exits, closing the socket. Only the
    /// read half is shut, so a response or watch event already on its way
    /// out (the `draining` acknowledgement itself, a final `job_done`)
    /// still reaches the client.
    fn hang_up(&self) {
        let _ = match self {
            Self::Tcp(s) => s.shutdown(Shutdown::Read),
            Self::Unix(s) => s.shutdown(Shutdown::Read),
        };
    }
}

impl std::io::Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Self::Tcp(s) => s.read(buf),
            Self::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Self::Tcp(s) => s.write(buf),
            Self::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Self::Tcp(s) => s.flush(),
            Self::Unix(s) => s.flush(),
        }
    }
}

/// A running server: the bound address plus the scheduler/acceptor
/// threads. Dropping the handle does **not** stop the server; send a
/// `drain` request (or [`Client::drain`](crate::client::Client::drain))
/// and [`Self::wait`].
pub struct Server {
    addr: String,
    inner: Arc<Inner>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds, loads the spool when resuming, and starts serving with a
    /// default (untrained-model) [`Engine`].
    pub fn start(config: ServeConfig) -> Result<Self, ServeError> {
        Self::start_with_engine(config, Engine::new())
    }

    /// [`Self::start`] with a caller-built engine (trained models,
    /// custom numerics). The scheduler thread takes sole ownership of
    /// the engine.
    pub fn start_with_engine(config: ServeConfig, engine: Engine) -> Result<Self, ServeError> {
        let listener = match config.listen.strip_prefix("unix:") {
            Some(path) => {
                let _ = std::fs::remove_file(path);
                Listener::Unix(UnixListener::bind(path)?)
            }
            None => Listener::Tcp(TcpListener::bind(&config.listen)?),
        };
        let addr = match &listener {
            Listener::Tcp(l) => l.local_addr()?.to_string(),
            Listener::Unix(_) => config.listen.clone(),
        };

        let spool = match &config.spool {
            Some(dir) => Some(Spool::open(dir.clone())?),
            None => None,
        };
        let mut shared = Shared {
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
        };
        let profiler = engine.weight_profiler();
        if config.resume {
            let spool = spool.as_ref().ok_or_else(|| {
                ServeError::Protocol(ProtoError::new(
                    "bad-request",
                    "--resume requires a spool directory",
                ))
            })?;
            let (next_job, jobs) = spool.load_manifest()?;
            shared.next_job = next_job;
            shared.jobs = jobs
                .into_iter()
                .map(|job| load_spooled_job(spool, job, &profiler))
                .collect::<Result<_, _>>()?;
        }

        let inner = Arc::new(Inner {
            shared: Mutex::new(shared),
            wake: Condvar::new(),
            max_sessions: config.max_sessions,
            spool_interval: config.spool_interval,
            spool,
            memory_budget: config.memory_budget,
            max_queued: config.max_queued,
            tenant_max_queued: config.tenant_max_queued,
            spool_retain: config.spool_retain,
            profiler,
            conns: Mutex::new(Vec::new()),
        });

        let mut threads = Vec::new();
        {
            let inner = Arc::clone(&inner);
            threads.push(
                std::thread::Builder::new()
                    .name("dlpic-serve-scheduler".into())
                    .spawn(move || Scheduler::new(inner, engine).run())?,
            );
        }
        {
            let inner = Arc::clone(&inner);
            threads.push(
                std::thread::Builder::new()
                    .name("dlpic-serve-acceptor".into())
                    .spawn(move || accept_loop(listener, inner))?,
            );
        }
        Ok(Self {
            addr,
            inner,
            threads,
        })
    }

    /// The bound address clients connect to (`host:port` with the real
    /// port for TCP, the `unix:<path>` string for Unix sockets).
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// True once a drain completed and the scheduler exited.
    pub fn is_stopped(&self) -> bool {
        self.inner.shared.lock().unwrap().stopped
    }

    /// Blocks until the server drains (scheduler and acceptor exited).
    pub fn wait(self) {
        for t in self.threads {
            let _ = t.join();
        }
    }
}

// ---------------------------------------------------------------------
// Spool resume.
// ---------------------------------------------------------------------

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
fn load_spooled_job(
    spool: &Spool,
    job: SpoolJob,
    profiler: &WeightProfiler,
) -> Result<JobEntry, ServeError> {
    let backend = job.request.backend;
    // Budget/breaker bookkeeping for reloaded runs: recompute from the
    // stored spec when it survived (final runs without one charge 0 bytes
    // and carry an empty fingerprint — neither is consulted again).
    let accounting = |spec: Option<&ScenarioSpec>| -> RunAccounting {
        spec.map_or(
            RunAccounting {
                est_bytes: 0,
                weight_bytes: 0,
                weight_key: None,
                fingerprint: String::new(),
            },
            |s| run_accounting(profiler, backend, s),
        )
    };
    let quarantine = |run: &SpoolRun, k: usize, why: String| -> RunEntry {
        eprintln!("warning: spool: {} run {k} quarantined: {why}", job.id);
        let acct = accounting(run.spec.as_ref());
        RunEntry {
            name: run.name.clone(),
            phase: Phase::Failed,
            steps_done: 0,
            steps_total: run.spec.as_ref().map_or(0, |s| s.n_steps),
            pending: None,
            result: StoredResult::None,
            error: Some(format!("unrecoverable after restart: {why}")),
            finish_seq: None,
            est_bytes: acct.est_bytes,
            weight_bytes: acct.weight_bytes,
            weight_key: acct.weight_key,
            fingerprint: acct.fingerprint,
        }
    };
    let mut runs = Vec::with_capacity(job.runs.len());
    for (k, run) in job.runs.iter().enumerate() {
        let entry = match run.state.as_str() {
            "done" | "stopped" => match spool.read_result(&job.id, k) {
                Ok(result) => {
                    let steps = result.field("steps").and_then(Json::as_usize).unwrap_or(0);
                    let acct = accounting(run.spec.as_ref());
                    RunEntry {
                        name: run.name.clone(),
                        phase: if run.state == "done" {
                            Phase::Done
                        } else {
                            Phase::Stopped
                        },
                        steps_done: steps,
                        steps_total: steps.max(run.spec.as_ref().map_or(0, |s| s.n_steps)),
                        pending: None,
                        // Validated and counted; the tree is dropped
                        // here and stays on disk only.
                        result: StoredResult::Spooled,
                        error: None,
                        finish_seq: None,
                        est_bytes: acct.est_bytes,
                        weight_bytes: acct.weight_bytes,
                        weight_key: acct.weight_key,
                        fingerprint: acct.fingerprint,
                    }
                }
                Err(e) => quarantine(run, k, format!("corrupt result file: {e}")),
            },
            "cancelled" | "failed" => {
                let acct = accounting(run.spec.as_ref());
                RunEntry {
                    name: run.name.clone(),
                    phase: if run.state == "cancelled" {
                        Phase::Cancelled
                    } else {
                        Phase::Failed
                    },
                    steps_done: 0,
                    steps_total: run.spec.as_ref().map_or(0, |s| s.n_steps),
                    pending: None,
                    // Failed runs may have a stored partial summary.
                    result: match spool.read_result(&job.id, k) {
                        Ok(_) => StoredResult::Spooled,
                        Err(_) => StoredResult::None,
                    },
                    error: run.error.clone(),
                    finish_seq: None,
                    est_bytes: acct.est_bytes,
                    weight_bytes: acct.weight_bytes,
                    weight_key: acct.weight_key,
                    fingerprint: acct.fingerprint,
                }
            }
            // "active" and "queued" both re-queue; an active run prefers
            // its checkpoint and falls back to a fresh start.
            _ => {
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
                        let steps_total = spec.n_steps;
                        let acct = accounting(Some(spec));
                        RunEntry {
                            name: run.name.clone(),
                            phase: Phase::Queued,
                            steps_done,
                            steps_total,
                            pending: Some(pending),
                            result: StoredResult::None,
                            error: None,
                            finish_seq: None,
                            est_bytes: acct.est_bytes,
                            weight_bytes: acct.weight_bytes,
                            weight_key: acct.weight_key,
                            fingerprint: acct.fingerprint,
                        }
                    }
                    Err(why) => quarantine(run, k, why),
                }
            }
        };
        runs.push(entry);
    }
    Ok(JobEntry {
        id: job.id,
        tenant: job.tenant,
        request: job.request,
        job_key: job.job_key,
        submitted: Instant::now(),
        runs,
        subscribers: Vec::new(),
    })
}

// ---------------------------------------------------------------------
// The scheduler.
// ---------------------------------------------------------------------

/// One admitted run on its way to a session: its control-plane address,
/// what to build, and everything else of its job the build needs — read
/// under the admission lock, so building takes no lock at all.
struct Admission {
    job: usize,
    run: usize,
    pending: PendingRun,
    backend: Backend,
    stop: Option<StopEval>,
}

/// A session the scheduler is stepping, with its control-plane address.
struct ActiveRun {
    job: usize,
    run: usize,
    session: Session,
    /// History rows already streamed to watchers.
    emitted: usize,
    stop: Option<StopEval>,
}

struct Scheduler {
    inner: Arc<Inner>,
    engine: Engine,
    active: Vec<ActiveRun>,
    batch: WaveBatch,
    waves_since_flush: usize,
}

impl Scheduler {
    fn new(inner: Arc<Inner>, engine: Engine) -> Self {
        Self {
            inner,
            engine,
            active: Vec::new(),
            batch: WaveBatch::new(),
            waves_since_flush: 0,
        }
    }

    fn run(mut self) {
        // A local handle so mutex guards don't pin `self` borrowed.
        let inner = Arc::clone(&self.inner);
        loop {
            // Control-plane sync: cancellations, drain, admission.
            let admissions = {
                let mut sh = inner.shared.lock().unwrap();
                self.sweep_cancelled(&mut sh);
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
                if let Some(retain) = inner.spool_retain {
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
                let admissions = self.admit(&mut sh);
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
            let mut refs: Vec<&mut Session> =
                self.active.iter_mut().map(|a| &mut a.session).collect();
            self.batch.step_wave(&mut refs);
            self.waves_since_flush += 1;

            // Publish progress, stream samples, finalize, flush.
            let mut sh = inner.shared.lock().unwrap();
            self.publish_wave(&mut sh);
            if self.waves_since_flush >= self.inner.spool_interval {
                self.flush_spool(&sh);
                self.waves_since_flush = 0;
            }
            let elapsed = t0.elapsed();
            sh.stepping_seconds += elapsed.as_secs_f64();
            sh.wave_latency.record(elapsed);
        }
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
        let mut tenants: Vec<&str> = Vec::new();
        for job in &sh.jobs {
            if !tenants.contains(&job.tenant.as_str()) {
                tenants.push(&job.tenant);
            }
        }
        for tenant in tenants {
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

    /// Admits queued runs round-robin across tenants until the session
    /// cap — or the memory budget — is reached. Marks them `Active` in
    /// the control plane and returns what to build. Queued runs whose
    /// spec's circuit is open are failed here (`circuit-open`) without
    /// consuming a session slot.
    fn admit(&mut self, sh: &mut Shared) -> Vec<Admission> {
        let now = Instant::now();
        let mut admissions = Vec::new();
        while self.active.len() + admissions.len() < self.inner.max_sessions {
            // The rotation: distinct tenants with queued work, in job
            // order; serve the one after the last-served tenant.
            let mut tenants: Vec<String> = Vec::new();
            for job in &sh.jobs {
                if job.runs.iter().any(|r| r.phase == Phase::Queued)
                    && !tenants.contains(&job.tenant)
                {
                    tenants.push(job.tenant.clone());
                }
            }
            if tenants.is_empty() {
                break;
            }
            let start = sh
                .last_tenant
                .as_ref()
                .and_then(|last| tenants.iter().position(|t| t == last))
                .map_or(0, |pos| (pos + 1) % tenants.len());
            let tenant = tenants[start].clone();
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
            let fingerprint = sh.jobs[j].runs[k].fingerprint.clone();
            if let Some(remaining) = sh.breakers.open_remaining(&fingerprint, now) {
                let seq = sh.finish_counter;
                sh.finish_counter += 1;
                let run = &mut sh.jobs[j].runs[k];
                run.phase = Phase::Failed;
                run.pending = None;
                run.error = Some(format!(
                    "circuit-open: spec quarantined for another {:.1}s",
                    remaining.as_secs_f64()
                ));
                run.finish_seq = Some(seq);
                let line = run_failed_event(&sh.jobs[j].id, k, &sh.jobs[j].runs[k]);
                sh.jobs[j].publish_control(&line);
                finish_job_if_final(&mut sh.jobs[j]);
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
            if let Some(budget) = self.inner.memory_budget {
                let used = sh.active_bytes();
                // Incremental cost: the private estimate always, the
                // shared weight allocation only when no active run
                // already holds the same weight key — a cohort member
                // joining resident weights is cheap by exactly the
                // weights' size.
                let entry = &sh.jobs[j].runs[k];
                let weights_resident = entry.weight_key.as_deref().is_some_and(|key| {
                    sh.jobs
                        .iter()
                        .flat_map(|jb| &jb.runs)
                        .any(|r| r.phase == Phase::Active && r.weight_key.as_deref() == Some(key))
                });
                let need = entry.est_bytes
                    + if weights_resident {
                        0
                    } else {
                        entry.weight_bytes
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
                let seq = sh.finish_counter;
                sh.finish_counter += 1;
                let entry = &mut sh.jobs[job].runs[run];
                entry.phase = Phase::Failed;
                entry.error = Some(e.to_string());
                entry.finish_seq = Some(seq);
                let fingerprint = entry.fingerprint.clone();
                sh.breakers.record_failure(&fingerprint, Instant::now());
                let line = run_failed_event(&sh.jobs[job].id, run, &sh.jobs[job].runs[run]);
                sh.jobs[job].publish_control(&line);
                finish_job_if_final(&mut sh.jobs[job]);
            }
        }
    }

    /// Drops sessions whose runs were cancelled by a handler.
    fn sweep_cancelled(&mut self, sh: &mut Shared) {
        self.active.retain(|a| {
            let phase = sh.jobs[a.job].runs[a.run].phase;
            if phase == Phase::Cancelled {
                if let Some(spool) = &self.inner.spool {
                    spool.remove_run(&sh.jobs[a.job].id, a.run);
                }
                let line = run_done_event(&sh.jobs[a.job].id, a.run, &sh.jobs[a.job].runs[a.run]);
                sh.jobs[a.job].publish_control(&line);
                finish_job_if_final(&mut sh.jobs[a.job]);
                return false;
            }
            true
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
            let (job_idx, run_idx) = (a.job, a.run);
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
                        .write_result(&sh.jobs[job_idx].id, run_idx, &result)
                        .is_ok() =>
                {
                    StoredResult::Spooled
                }
                _ => StoredResult::Held(result),
            };
            let seq = sh.finish_counter;
            sh.finish_counter += 1;
            let entry = &mut sh.jobs[job_idx].runs[run_idx];
            entry.phase = *phase;
            entry.steps_done = summary.steps;
            entry.result = stored;
            entry.error = error.clone();
            entry.finish_seq = Some(seq);
            // Feed the breaker: consecutive failures of one spec
            // fingerprint open its circuit; any success closes it.
            let fingerprint = entry.fingerprint.clone();
            if *phase == Phase::Failed {
                sh.breakers.record_failure(&fingerprint, Instant::now());
            } else {
                sh.breakers.record_success(&fingerprint);
            }
            let line = if *phase == Phase::Failed {
                run_failed_event(
                    &sh.jobs[job_idx].id,
                    run_idx,
                    &sh.jobs[job_idx].runs[run_idx],
                )
            } else {
                run_done_event(
                    &sh.jobs[job_idx].id,
                    run_idx,
                    &sh.jobs[job_idx].runs[run_idx],
                )
            };
            sh.jobs[job_idx].publish_control(&line);
            finish_job_if_final(&mut sh.jobs[job_idx]);
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

/// Sends `job_done` once every run of the job is final, and releases the
/// watchers (their queues drain, then their handlers exit).
fn finish_job_if_final(job: &mut JobEntry) {
    if job.is_final() {
        let line = protocol::event("job_done", vec![("job", Json::Str(job.id.clone()))]);
        job.publish_control(&line);
        for q in &job.subscribers {
            q.close();
        }
        job.subscribers.clear();
    }
}

fn sample_event(
    job: &str,
    run: usize,
    name: &str,
    history: &dlpic_repro::engine::EnergyHistory,
    row: usize,
) -> String {
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

fn run_done_event(job: &str, run: usize, entry: &RunEntry) -> String {
    protocol::event(
        "run_done",
        vec![
            ("job", Json::Str(job.into())),
            ("run", Json::Num(run as f64)),
            ("name", Json::Str(entry.name.clone())),
            ("state", Json::Str(entry.phase.name().into())),
            ("steps", Json::Num(entry.steps_done as f64)),
        ],
    )
}

/// The structured failure event: like `run_done`, plus the stored error.
/// A distinct event kind so dashboards and retry logic can react without
/// string-matching states.
fn run_failed_event(job: &str, run: usize, entry: &RunEntry) -> String {
    protocol::event(
        "run_failed",
        vec![
            ("job", Json::Str(job.into())),
            ("run", Json::Num(run as f64)),
            ("name", Json::Str(entry.name.clone())),
            ("state", Json::Str(entry.phase.name().into())),
            ("steps", Json::Num(entry.steps_done as f64)),
            ("error", Json::Str(entry.error.clone().unwrap_or_default())),
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

// ---------------------------------------------------------------------
// The data plane: acceptor + per-connection handlers.
// ---------------------------------------------------------------------

/// The connection registry, tolerating a poisoned lock: the list is
/// valid after every push and retain.
fn lock_conns(inner: &Inner) -> std::sync::MutexGuard<'_, Vec<(u64, Conn)>> {
    inner.conns.lock().unwrap_or_else(|p| p.into_inner())
}

fn accept_loop(listener: Listener, inner: Arc<Inner>) {
    let set_nonblocking = |l: &Listener| match l {
        Listener::Tcp(l) => l.set_nonblocking(true),
        Listener::Unix(l) => l.set_nonblocking(true),
    };
    if set_nonblocking(&listener).is_err() {
        return;
    }
    let mut next_id = 0u64;
    loop {
        if inner.shared.lock().unwrap().stopped {
            return;
        }
        let accepted = match &listener {
            Listener::Tcp(l) => l.accept().map(|(s, _)| Conn::Tcp(s)),
            Listener::Unix(l) => l.accept().map(|(s, _)| Conn::Unix(s)),
        };
        match accepted {
            Ok(conn) => {
                // Register first, check `stopped` second: a drain sets
                // `stopped` and then hangs up on what is registered, so
                // one of the two always catches this connection.
                let Ok(handle) = conn.try_clone() else {
                    continue;
                };
                let id = next_id;
                next_id += 1;
                lock_conns(&inner).push((id, handle));
                if inner.shared.lock().unwrap().stopped {
                    conn.hang_up();
                }
                let inner = Arc::clone(&inner);
                // Handlers are detached: a drained in-process server only
                // joins scheduler + acceptor, and the drain's hang-up is
                // what ends them.
                let _ = std::thread::Builder::new()
                    .name("dlpic-serve-conn".into())
                    .spawn(move || {
                        let _ = handle_connection(conn, &inner);
                        lock_conns(&inner).retain(|(c, _)| *c != id);
                    });
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(_) => return,
        }
    }
}

fn handle_connection(conn: Conn, inner: &Arc<Inner>) -> std::io::Result<()> {
    let mut reader = BufReader::new(conn.try_clone()?);
    let mut writer = conn;
    while let Some(line) = protocol::read_line(&mut reader)? {
        let request = line.and_then(|text| protocol::parse_request(&text));
        match request {
            Err(e) => send_line(&mut writer, &protocol::error_response(&e))?,
            Ok(request) => handle_request(request, inner, &mut writer)?,
        }
    }
    Ok(())
}

fn send_line(writer: &mut Conn, line: &str) -> std::io::Result<()> {
    writer.write_all(line.as_bytes())?;
    writer.write_all(b"\n")?;
    writer.flush()
}

fn handle_request(request: Request, inner: &Arc<Inner>, writer: &mut Conn) -> std::io::Result<()> {
    match request {
        Request::Submit {
            tenant,
            job,
            job_key,
        } => {
            let response = submit(inner, tenant, *job, job_key);
            send_line(writer, &respond(response))
        }
        Request::Status { job } => {
            let response = status(inner, job.as_deref());
            send_line(writer, &respond(response))
        }
        Request::Cancel { job } => {
            let response = cancel(inner, &job);
            send_line(writer, &respond(response))
        }
        Request::Drain => {
            let mut sh = inner.shared.lock().unwrap();
            sh.draining = true;
            inner.wake.notify_all();
            drop(sh);
            send_line(
                writer,
                &protocol::ok_response(vec![("draining", Json::Bool(true))]),
            )
        }
        Request::Result { job, run } => {
            let response = results(inner, &job, run);
            send_line(writer, &respond(response))
        }
        Request::Health => send_line(writer, &respond(health(inner))),
        Request::Prune { keep } => send_line(writer, &respond(prune(inner, keep))),
        Request::Watch { job, policy, queue } => watch(inner, &job, policy, queue, writer),
    }
}

fn respond(result: Result<Vec<(&str, Json)>, ProtoError>) -> String {
    match result {
        Ok(fields) => protocol::ok_response(fields),
        Err(e) => protocol::error_response(&e),
    }
}

fn submit(
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
    // 2. A single run that cannot fit the whole budget can never be
    //    admitted — permanent rejection, no retry advice. The check uses
    //    the solo cost (private estimate plus its own weight copy): a
    //    run is only cheaper when its weights are already resident, which
    //    cannot be relied on at submit time.
    if let Some(budget) = inner.memory_budget {
        if let Some(a) = estimates
            .iter()
            .find(|a| a.est_bytes + a.weight_bytes > budget)
        {
            let est = a.est_bytes + a.weight_bytes;
            return Err(ProtoError::new(
                "quota-exceeded",
                format!("run needs ~{est} bytes but the memory budget is {budget} bytes"),
            ));
        }
    }
    // 3. Bounded backlog, global then per-tenant.
    let queued = sh.queued_runs();
    if queued + specs.len() > inner.max_queued {
        let retry = sh.retry_after_ms();
        return Err(ProtoError::new(
            "overloaded",
            format!(
                "backlog full: {queued} queued + {} new > {} cap",
                specs.len(),
                inner.max_queued
            ),
        )
        .with_retry_after(retry));
    }
    let tenant_queued = sh.tenant_queued(&tenant);
    if tenant_queued + specs.len() > inner.tenant_max_queued {
        let retry = sh.retry_after_ms();
        return Err(ProtoError::new(
            "quota-exceeded",
            format!(
                "tenant backlog full: {tenant_queued} queued + {} new > {} cap",
                specs.len(),
                inner.tenant_max_queued
            ),
        )
        .with_retry_after(retry));
    }
    let id = format!("job-{:04}", sh.next_job);
    sh.next_job += 1;
    let runs = specs
        .into_iter()
        .zip(estimates)
        .map(|(spec, acct)| RunEntry {
            name: spec.name.clone(),
            phase: Phase::Queued,
            steps_done: 0,
            steps_total: spec.n_steps,
            pending: Some(PendingRun::Fresh(spec)),
            result: StoredResult::None,
            error: None,
            finish_seq: None,
            est_bytes: acct.est_bytes,
            weight_bytes: acct.weight_bytes,
            weight_key: acct.weight_key,
            fingerprint: acct.fingerprint,
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
        ("queued_runs", Json::Num(sh.queued_runs() as f64)),
        ("active_runs", Json::Num(sh.active_runs() as f64)),
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
    let mut tenants: Vec<&str> = Vec::new();
    for job in &sh.jobs {
        if !tenants.contains(&job.tenant.as_str()) {
            tenants.push(&job.tenant);
        }
    }
    Json::Arr(
        tenants
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
    let per_copy: usize = sh
        .jobs
        .iter()
        .flat_map(|j| &j.runs)
        .filter(|r| r.phase == Phase::Active)
        .map(|r| r.weight_bytes)
        .sum();
    obj(vec![
        (
            "limit_bytes",
            inner
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
    let active = sh.active_runs();
    let queued = sh.queued_runs();
    Ok(vec![
        ("live", Json::Bool(true)),
        ("ready", Json::Bool(!sh.draining && !sh.stopped)),
        ("draining", Json::Bool(sh.draining)),
        ("active_runs", Json::Num(active as f64)),
        ("max_sessions", Json::Num(inner.max_sessions as f64)),
        ("load", Json::Num(active as f64 / inner.max_sessions as f64)),
        ("queued_runs", Json::Num(queued as f64)),
        ("max_queued", Json::Num(inner.max_queued as f64)),
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
    let Some(keep) = keep.or(inner.spool_retain) else {
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

fn cancel(inner: &Arc<Inner>, id: &str) -> Result<Vec<(&'static str, Json)>, ProtoError> {
    let mut sh = inner.shared.lock().unwrap();
    let idx = sh
        .jobs
        .iter()
        .position(|j| j.id == id)
        .ok_or_else(|| unknown_job(id))?;
    let mut cancelled = 0usize;
    let mut was_queued = Vec::new();
    let mut seq = sh.finish_counter;
    let job = &mut sh.jobs[idx];
    for (k, run) in job.runs.iter_mut().enumerate() {
        if !run.phase.is_final() {
            // Queued runs finalize here; active ones when the scheduler
            // notices and drops their session.
            if run.phase == Phase::Queued {
                was_queued.push(k);
            }
            run.phase = Phase::Cancelled;
            run.pending = None;
            run.finish_seq = Some(seq);
            seq += 1;
            cancelled += 1;
        }
    }
    for k in was_queued {
        let line = run_done_event(&job.id, k, &job.runs[k]);
        job.publish_control(&line);
    }
    finish_job_if_final(job);
    sh.finish_counter = seq;
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
            return send_line(writer, &protocol::error_response(&unknown_job(id)));
        };
        if job.is_final() {
            let id = job.id.clone();
            drop(sh);
            send_line(
                writer,
                &protocol::ok_response(vec![("watching", Json::Str(id.clone()))]),
            )?;
            return send_line(
                writer,
                &protocol::event("job_done", vec![("job", Json::Str(id))]),
            );
        }
        let q = Arc::new(SubQueue::new(policy, queue));
        job.subscribers.push(Arc::clone(&q));
        q
    };
    send_line(
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
        if send_line(writer, &line).is_err() {
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
