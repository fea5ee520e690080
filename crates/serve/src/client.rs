//! A blocking client for the serve protocol: connect, send one request
//! line, read one response line — plus the streaming `watch` loop. The
//! `dlpic-cli` binary is a thin argument parser over this module, and
//! the integration tests drive servers through it in-process.
//!
//! Robustness: [`Client::connect_with`] applies connect/read/write
//! deadlines so a dead server surfaces as [`ServeError::Timeout`] instead
//! of hanging forever; [`Client::submit_keyed`] makes submits idempotent
//! under retry; and [`Client::watch_retry`] / [`Client::wait_for_retry`]
//! reconnect through transient failures with a bounded exponential
//! [`Backoff`].

use std::io::BufReader;
use std::time::Duration;

use dlpic_repro::engine::json::{obj, Json};

use crate::error::ServeError;
use crate::job::JobRequest;
use crate::protocol::{self, ProtoError, WatchPolicy, DEFAULT_WATCH_QUEUE};
use crate::transport::{write_line, Conn};

/// A bounded exponential-backoff schedule for reconnects: sleeps
/// `initial`, doubling per attempt up to `max`, for at most `attempts`
/// reconnect attempts. Only transient failures (I/O, timeout, server
/// disconnect) are retried — protocol rejections fail immediately.
#[derive(Debug, Clone, Copy)]
pub struct Backoff {
    /// Reconnect attempts before giving up.
    pub attempts: usize,
    /// First sleep.
    pub initial: Duration,
    /// Sleep ceiling.
    pub max: Duration,
}

impl Default for Backoff {
    fn default() -> Self {
        Self {
            attempts: 5,
            initial: Duration::from_millis(200),
            max: Duration::from_secs(5),
        }
    }
}

impl Backoff {
    /// A schedule with this many attempts and the default sleeps.
    pub fn attempts(n: usize) -> Self {
        Self {
            attempts: n,
            ..Self::default()
        }
    }

    /// The sleep before reconnect attempt `attempt` (0-based).
    pub fn delay(&self, attempt: usize) -> Duration {
        let factor = 1u32 << attempt.min(16) as u32;
        self.initial.saturating_mul(factor).min(self.max)
    }

    /// True for failures worth a reconnect: the connection died or timed
    /// out. A protocol rejection would fail identically on retry.
    pub fn retryable(e: &ServeError) -> bool {
        matches!(
            e,
            ServeError::Io(_) | ServeError::Disconnected | ServeError::Timeout
        )
    }
}

/// Deterministic bounded jitter for overload retries: a hash of
/// `(key, attempt)` scaled to at most 25% of the advised wait. No RNG
/// and no clock, so retry schedules are reproducible in tests while
/// distinct keys still decorrelate.
fn retry_jitter(key: &str, attempt: usize, advised_ms: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in key.bytes().chain(attempt.to_le_bytes()) {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    let cap = (advised_ms / 4).max(1);
    h % cap
}

/// A connection to a `dlpic-serve` daemon. One request at a time; the
/// connection is reusable across requests (including after a completed
/// `watch`).
pub struct Client {
    addr: String,
    timeout: Option<Duration>,
    writer: Conn,
    reader: BufReader<Conn>,
}

/// Reads one `\n`-terminated line without the server's [`MAX_LINE`]
/// inbound cap: the cap shields the daemon from hostile peers, but the
/// client trusts its server, and a `result` response legitimately embeds
/// a full run history (which can run to megabytes). `None` at EOF.
///
/// [`MAX_LINE`]: crate::protocol::MAX_LINE
fn read_raw_line(reader: &mut impl std::io::BufRead) -> std::io::Result<Option<String>> {
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Ok(None);
    }
    while line.ends_with('\n') || line.ends_with('\r') {
        line.pop();
    }
    Ok(Some(line))
}

/// One finished run as returned by [`Client::results`].
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Run index within the job.
    pub run: usize,
    /// The expanded spec's name.
    pub name: String,
    /// `done` or `stopped`.
    pub state: String,
    /// The stored summary document (scenario, backend, steps, history…).
    pub summary: Json,
}

impl Client {
    /// Connects to `host:port` (TCP) or `unix:<path>` (Unix socket) with
    /// no deadlines — reads block until the server answers. Prefer
    /// [`Self::connect_with`] for anything unattended.
    pub fn connect(addr: &str) -> Result<Self, ServeError> {
        Self::connect_with(addr, None)
    }

    /// [`Self::connect`] with `timeout` applied to connect, read and
    /// write: a dead or wedged server surfaces as [`ServeError::Timeout`]
    /// instead of hanging the caller forever.
    pub fn connect_with(addr: &str, timeout: Option<Duration>) -> Result<Self, ServeError> {
        let stream = Conn::connect(addr, timeout)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Self {
            addr: addr.to_string(),
            timeout,
            writer: stream,
            reader,
        })
    }

    /// Replaces the underlying connection with a fresh one to the same
    /// address and deadlines (any half-read stream state is discarded).
    pub fn reconnect(&mut self) -> Result<(), ServeError> {
        *self = Self::connect_with(&self.addr, self.timeout)?;
        Ok(())
    }

    /// Sends one raw request line and returns the parsed `ok` response
    /// document (protocol errors become [`ServeError::Protocol`]).
    pub fn request(&mut self, line: &str) -> Result<Json, ServeError> {
        write_line(&mut self.writer, line)?;
        self.read_response()
    }

    fn read_response(&mut self) -> Result<Json, ServeError> {
        match read_raw_line(&mut self.reader)? {
            None => Err(ServeError::Disconnected),
            Some(line) => Ok(protocol::parse_response(&line)?),
        }
    }

    /// Submits a job under `tenant`; returns `(job id, run count)`.
    pub fn submit(
        &mut self,
        job: &JobRequest,
        tenant: &str,
    ) -> Result<(String, usize), ServeError> {
        let (id, runs, _) = self.submit_keyed(job, tenant, None)?;
        Ok((id, runs))
    }

    /// [`Self::submit`] with an idempotency key: resubmitting the same
    /// `(tenant, job_key)` — say, after a timed-out submit whose response
    /// was lost — returns the already-accepted job instead of scheduling
    /// a duplicate. Returns `(job id, run count, deduped)`.
    pub fn submit_keyed(
        &mut self,
        job: &JobRequest,
        tenant: &str,
        job_key: Option<&str>,
    ) -> Result<(String, usize, bool), ServeError> {
        let mut fields = vec![
            ("op", Json::Str("submit".into())),
            ("tenant", Json::Str(tenant.into())),
            ("job", job.to_json_value()),
        ];
        if let Some(key) = job_key {
            fields.push(("job_key", Json::Str(key.into())));
        }
        let doc = self.request(&obj(fields).to_compact())?;
        Ok((
            doc.field("job")
                .map_err(ProtoError::from)?
                .as_str()
                .map_err(ProtoError::from)?
                .to_string(),
            doc.field("runs")
                .and_then(Json::as_usize)
                .map_err(ProtoError::from)?,
            matches!(doc.get("deduped"), Some(Json::Bool(true))),
        ))
    }

    /// [`Self::submit_keyed`] that cooperates with the server's overload
    /// governance: a rejection carrying `retry_after_ms` (`overloaded`,
    /// `quota-exceeded`, `circuit-open`) sleeps for the advised interval
    /// — plus deterministic bounded jitter so a burst of shed clients
    /// does not re-stampede in lockstep — and resubmits, up to
    /// `backoff.attempts` times. Transport failures reconnect on the
    /// `backoff` schedule as usual; rejections without retry advice fail
    /// immediately (they would fail identically on retry).
    ///
    /// The jitter is derived from the attempt number and the job key (no
    /// clock, no RNG): attempt `n` adds `hash(job_key, n) % 25%` of the
    /// advised wait.
    pub fn submit_keyed_retry(
        &mut self,
        job: &JobRequest,
        tenant: &str,
        job_key: Option<&str>,
        backoff: Backoff,
    ) -> Result<(String, usize, bool), ServeError> {
        let mut attempt = 0usize;
        loop {
            match self.submit_keyed(job, tenant, job_key) {
                Ok(accepted) => return Ok(accepted),
                Err(e) if attempt < backoff.attempts => {
                    if let Some(advised) = e.retry_after_ms() {
                        let jitter = retry_jitter(job_key.unwrap_or(tenant), attempt, advised);
                        std::thread::sleep(Duration::from_millis(advised + jitter));
                    } else if Backoff::retryable(&e) {
                        std::thread::sleep(backoff.delay(attempt));
                        let _ = self.reconnect();
                    } else {
                        return Err(e);
                    }
                    attempt += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// The server's `health` document: liveness/readiness, session and
    /// backlog load, budget occupancy, breaker state, wave latency.
    pub fn health(&mut self) -> Result<Json, ServeError> {
        self.request(&obj(vec![("op", Json::Str("health".into()))]).to_compact())
    }

    /// Asks the server to prune finished jobs down to the newest `keep`
    /// per tenant (`None` uses the server's `--spool-retain`). Returns
    /// how many jobs were pruned.
    pub fn prune(&mut self, keep: Option<usize>) -> Result<usize, ServeError> {
        let mut fields = vec![("op", Json::Str("prune".into()))];
        if let Some(n) = keep {
            fields.push(("keep", Json::Num(n as f64)));
        }
        let doc = self.request(&obj(fields).to_compact())?;
        Ok(doc
            .field("pruned")
            .and_then(Json::as_usize)
            .map_err(ProtoError::from)?)
    }

    /// The full status document — every job, or one by id.
    pub fn status(&mut self, job: Option<&str>) -> Result<Json, ServeError> {
        let mut fields = vec![("op", Json::Str("status".into()))];
        if let Some(id) = job {
            fields.push(("job", Json::Str(id.into())));
        }
        self.request(&obj(fields).to_compact())
    }

    /// Subscribes to a job and invokes `on_event` for every event line
    /// until the job finishes (or the server drains). Returns the number
    /// of events seen.
    pub fn watch(&mut self, job: &str, on_event: impl FnMut(&Json)) -> Result<usize, ServeError> {
        self.watch_with(job, WatchPolicy::default(), DEFAULT_WATCH_QUEUE, on_event)
    }

    /// [`Self::watch`] with an explicit backpressure policy and queue
    /// capacity for this subscription.
    pub fn watch_with(
        &mut self,
        job: &str,
        policy: WatchPolicy,
        queue: usize,
        mut on_event: impl FnMut(&Json),
    ) -> Result<usize, ServeError> {
        let line = obj(vec![
            ("op", Json::Str("watch".into())),
            ("job", Json::Str(job.into())),
            ("policy", Json::Str(policy.wire())),
            ("queue", Json::Num(queue as f64)),
        ])
        .to_compact();
        self.request(&line)?;
        let mut seen = 0usize;
        loop {
            let event = match read_raw_line(&mut self.reader)? {
                None => return Err(ServeError::Disconnected),
                Some(text) => Json::parse(&text).map_err(ProtoError::from)?,
            };
            seen += 1;
            let kind = event
                .field("event")
                .and_then(Json::as_str)
                .map_err(ProtoError::from)?
                .to_string();
            on_event(&event);
            if kind == "job_done" {
                return Ok(seen);
            }
        }
    }

    /// Cancels a job's unfinished runs; returns how many were cancelled.
    pub fn cancel(&mut self, job: &str) -> Result<usize, ServeError> {
        let line = obj(vec![
            ("op", Json::Str("cancel".into())),
            ("job", Json::Str(job.into())),
        ])
        .to_compact();
        let doc = self.request(&line)?;
        Ok(doc
            .field("cancelled")
            .and_then(Json::as_usize)
            .map_err(ProtoError::from)?)
    }

    /// Asks the server to spool everything and shut down gracefully.
    pub fn drain(&mut self) -> Result<(), ServeError> {
        self.request(&obj(vec![("op", Json::Str("drain".into()))]).to_compact())?;
        Ok(())
    }

    /// Fetches finished-run summaries — every finished run, or one
    /// specific run index (which errors until that run finishes).
    pub fn results(&mut self, job: &str, run: Option<usize>) -> Result<Vec<RunResult>, ServeError> {
        let mut fields = vec![
            ("op", Json::Str("result".into())),
            ("job", Json::Str(job.into())),
        ];
        if let Some(k) = run {
            fields.push(("run", Json::Num(k as f64)));
        }
        let doc = self.request(&obj(fields).to_compact())?;
        let rows = doc
            .field("results")
            .and_then(Json::as_arr)
            .map_err(ProtoError::from)?;
        rows.iter()
            .map(|row| {
                Ok(RunResult {
                    run: row
                        .field("run")
                        .and_then(Json::as_usize)
                        .map_err(ProtoError::from)?,
                    name: row
                        .field("name")
                        .and_then(Json::as_str)
                        .map_err(ProtoError::from)?
                        .to_string(),
                    state: row
                        .field("state")
                        .and_then(Json::as_str)
                        .map_err(ProtoError::from)?
                        .to_string(),
                    summary: row.field("summary").map_err(ProtoError::from)?.clone(),
                })
            })
            .collect()
    }

    /// Polls `status` until the job's runs are all final, then returns
    /// its results. `interval` is the poll period.
    pub fn wait_for(
        &mut self,
        job: &str,
        interval: std::time::Duration,
    ) -> Result<Vec<RunResult>, ServeError> {
        loop {
            let doc = self.status(Some(job))?;
            let jobs = doc
                .field("jobs")
                .and_then(Json::as_arr)
                .map_err(ProtoError::from)?;
            let all_final = jobs.iter().all(|j| {
                j.field("runs")
                    .ok()
                    .and_then(|runs| runs.as_arr().ok().map(<[Json]>::to_vec))
                    .is_some_and(|runs| {
                        runs.iter().all(|r| {
                            matches!(
                                r.field("state").and_then(Json::as_str),
                                Ok("done" | "stopped" | "cancelled" | "failed")
                            )
                        })
                    })
            });
            if all_final {
                return self.results(job, None);
            }
            std::thread::sleep(interval);
        }
    }

    /// [`Self::watch`] that survives transient connection loss:
    /// retryable failures reconnect with bounded exponential `backoff`
    /// and re-subscribe. The stream restarts on re-subscribe, so
    /// `on_event` may see earlier rows again — watchers are consumers of
    /// at-least-once sample delivery, and a job that finished during the
    /// outage yields an immediate `job_done`. Returns the events seen by
    /// the final (successful) subscription.
    pub fn watch_retry(
        &mut self,
        job: &str,
        policy: WatchPolicy,
        queue: usize,
        backoff: Backoff,
        mut on_event: impl FnMut(&Json),
    ) -> Result<usize, ServeError> {
        let mut attempt = 0usize;
        loop {
            match self.watch_with(job, policy, queue, &mut on_event) {
                Ok(seen) => return Ok(seen),
                Err(e) if Backoff::retryable(&e) && attempt < backoff.attempts => {
                    std::thread::sleep(backoff.delay(attempt));
                    attempt += 1;
                    // A failed reconnect burns an attempt too; the next
                    // loop iteration fails fast at `watch_with` if the
                    // server is still gone.
                    let _ = self.reconnect();
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// [`Self::wait_for`] that survives transient connection loss:
    /// retryable failures reconnect with bounded exponential `backoff`
    /// and resume polling (polling is idempotent, so nothing is lost or
    /// duplicated across the reconnect).
    pub fn wait_for_retry(
        &mut self,
        job: &str,
        interval: Duration,
        backoff: Backoff,
    ) -> Result<Vec<RunResult>, ServeError> {
        let mut attempt = 0usize;
        loop {
            match self.wait_for(job, interval) {
                Ok(results) => return Ok(results),
                Err(e) if Backoff::retryable(&e) && attempt < backoff.attempts => {
                    std::thread::sleep(backoff.delay(attempt));
                    attempt += 1;
                    let _ = self.reconnect();
                }
                Err(e) => return Err(e),
            }
        }
    }
}
