//! The daemon: one acceptor thread, one handler thread per connection,
//! and one **scheduler** thread that owns every live
//! [`Session`](dlpic_repro::engine::Session).
//!
//! The scheduler is the only thread that touches solver state, so the
//! engine's single-threaded determinism story carries over unchanged: it
//! admits queued runs (round-robin across tenants, capped at
//! `max_sessions`), steps every admitted session in lockstep waves
//! through [`WaveBatch`](dlpic_repro::engine::WaveBatch) — co-resident DL runs share one batched
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
//! This module holds the configuration, the [`Server`] handle and the
//! acceptor; the job table lives in `table`, admission in `admission`,
//! the scheduler in `scheduler`, the per-connection handlers in
//! `handlers`, spool resume in `resume`, and the socket code both ends
//! share in `transport`.

use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use dlpic_repro::engine::{Engine, WeightProfiler};

use crate::error::ServeError;
use crate::handlers::handle_connection;
use crate::protocol::ProtoError;
use crate::resume::load_spooled_job;
use crate::scheduler::Scheduler;
use crate::spool::Spool;
use crate::table::Shared;
use crate::transport::{Conn, Listener};

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
    /// budget and admission is capped by `max_sessions` alone; `submit`
    /// then refuses only a run larger than the host's physical memory.
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

    /// Keeps at most `jobs` finished jobs per tenant in spool/table.
    pub fn spool_retain(mut self, jobs: usize) -> Self {
        self.spool_retain = Some(jobs);
        self
    }
}
// ---------------------------------------------------------------------
// The server.
// ---------------------------------------------------------------------

/// What the scheduler, the acceptor and every handler share.
pub(crate) struct Inner {
    pub(crate) config: ServeConfig,
    pub(crate) shared: Mutex<Shared>,
    pub(crate) wake: Condvar,
    pub(crate) spool: Option<Spool>,
    /// Snapshot of the engine's weight-sharing configuration, so request
    /// handlers account submissions without the engine (which the
    /// scheduler thread owns).
    pub(crate) profiler: WeightProfiler,
    /// The host's physical memory in bytes, read once at start (`None`
    /// where it cannot be read): on an unbudgeted daemon, `submit`
    /// refuses a run that could never fit in it.
    pub(crate) host_memory: Option<usize>,
    /// A handle on every open client connection, by accept order, so a
    /// drain can hang up on them: handler threads are detached and would
    /// otherwise outlive the server, answering for a scheduler that is
    /// gone. A handler removes its entry when it exits.
    pub(crate) conns: Mutex<Vec<(u64, Conn)>>,
}

/// A running server: the bound address plus the scheduler/acceptor
/// threads. Dropping the handle does **not** stop the server; send a
/// `drain` request (or [`Client::drain`](crate::client::Client::drain))
/// and [`Self::wait`].
pub struct Server {
    addr: String,
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
        let (listener, addr) = Listener::bind(&config.listen)?;
        let spool = match &config.spool {
            Some(dir) => Some(Spool::open(dir.clone())?),
            None => None,
        };
        let mut shared = Shared::new(&config);
        let profiler = engine.weight_profiler();
        if config.resume {
            let spool = spool.as_ref().ok_or_else(|| {
                ServeError::Protocol(ProtoError::new(
                    "bad-request",
                    "--resume requires a spool directory",
                ))
            })?;
            let (next_job, jobs) = spool.load_manifest()?;
            // A kill between an atomic write and its rename leaves a
            // `.tmp` behind; clear it before the first connection.
            spool.gc(&jobs);
            shared.next_job = next_job;
            shared.jobs = jobs
                .into_iter()
                .map(|job| load_spooled_job(spool, job, &profiler))
                .collect();
        }

        let inner = Arc::new(Inner {
            config,
            shared: Mutex::new(shared),
            wake: Condvar::new(),
            spool,
            profiler,
            host_memory: host_memory(),
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
        threads.push(
            std::thread::Builder::new()
                .name("dlpic-serve-acceptor".into())
                .spawn(move || accept_loop(listener, inner))?,
        );
        Ok(Self { addr, threads })
    }

    /// The bound address clients connect to (`host:port` with the real
    /// port for TCP, the `unix:<path>` string for Unix sockets).
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Blocks until the server drains (scheduler and acceptor exited).
    pub fn wait(self) {
        for t in self.threads {
            let _ = t.join();
        }
    }
}

/// `MemTotal` of `/proc/meminfo` in bytes; `None` where the file or the
/// line cannot be read.
fn host_memory() -> Option<usize> {
    let meminfo = std::fs::read_to_string("/proc/meminfo").ok()?;
    let kib = meminfo
        .lines()
        .find_map(|line| line.strip_prefix("MemTotal:"))?
        .trim()
        .strip_suffix("kB")?
        .trim_end()
        .parse::<usize>()
        .ok()?;
    kib.checked_mul(1024)
}

// ---------------------------------------------------------------------
// The acceptor.
// ---------------------------------------------------------------------

/// The connection registry, tolerating a poisoned lock: the list is
/// valid after every push and retain.
pub(crate) fn lock_conns(inner: &Inner) -> std::sync::MutexGuard<'_, Vec<(u64, Conn)>> {
    inner.conns.lock().unwrap_or_else(|p| p.into_inner())
}

fn accept_loop(listener: Listener, inner: Arc<Inner>) {
    if listener.set_nonblocking().is_err() {
        return;
    }
    let mut next_id = 0u64;
    loop {
        if inner.shared.lock().unwrap().stopped {
            return;
        }
        match listener.accept() {
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
