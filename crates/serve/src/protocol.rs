//! The wire protocol: one JSON object per `\n`-terminated line, in both
//! directions (NDJSON). Requests carry an `"op"` field; the server
//! answers every request line with exactly one response line —
//! `{"ok":true, …}` on success, `{"ok":false,"error":{"code","message"}}`
//! on rejection — except `watch`, whose single `ok` acknowledgement is
//! followed by a stream of `{"event": …}` lines until the job finishes.
//!
//! The parser is strict so that malformed traffic dies at the boundary:
//! lines longer than [`MAX_LINE`] are rejected (and drained, so the
//! connection keeps framing), non-objects and unknown `op`s are rejected,
//! and every op rejects fields it does not define — a misspelled field is
//! an error, not a silently ignored no-op. All rejections are data
//! ([`ProtoError`]), never panics: a hostile peer cannot take the server
//! down or wedge its own connection.

use std::io::BufRead;

use dlpic_repro::engine::json::{obj, Json, JsonError};

use crate::job::JobRequest;

/// Hard cap on one inbound request line, in bytes. The server refuses a
/// line this long before parsing it — a shield against hostile peers.
/// Responses are exempt: a `result` line legitimately embeds a full run
/// history, and the client reads its trusted server without the cap.
// analyze:allow(pub-reach): the wire limit `tests/protocol_hardening.rs` pins by sending lines just past it
pub const MAX_LINE: usize = 1 << 20;

/// Default per-subscriber watch queue capacity, in event lines. Bounded
/// so a stalled watcher backs up its own queue, not the OS socket buffer
/// and not the scheduler.
pub const DEFAULT_WATCH_QUEUE: usize = 256;

/// A structured protocol rejection: a machine-readable `code` plus a
/// human-readable `message`. Serialized into error responses verbatim.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoError {
    /// Stable machine-readable discriminator (`bad-json`, `oversized`,
    /// `unknown-op`, `unknown-field`, `missing-field`, `bad-request`,
    /// `unknown-job`, `server-error`, and the overload-governance codes
    /// `overloaded`, `quota-exceeded`, `circuit-open`, …).
    pub code: String,
    /// Human-readable detail.
    pub message: String,
    /// Server advice on when a retry of the same request might succeed
    /// (overload rejections carry it; permanent rejections don't).
    /// Cooperating clients sleep at least this long before resubmitting.
    pub retry_after_ms: Option<u64>,
}

impl ProtoError {
    /// A rejection with this code and message.
    pub fn new(code: impl Into<String>, message: impl Into<String>) -> Self {
        Self {
            code: code.into(),
            message: message.into(),
            retry_after_ms: None,
        }
    }

    /// Attaches retry advice: the server predicts capacity in `ms`
    /// milliseconds, and a cooperating client backs off at least that
    /// long.
    pub fn with_retry_after(mut self, ms: u64) -> Self {
        self.retry_after_ms = Some(ms);
        self
    }
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code, self.message)
    }
}

impl std::error::Error for ProtoError {}

impl From<JsonError> for ProtoError {
    fn from(e: JsonError) -> Self {
        Self::new("bad-json", e.message)
    }
}

/// How a watch subscriber's bounded event queue sheds load when the
/// client reads slower than the scheduler produces. Control events
/// (`run_done`, `run_failed`, `job_done`) are never shed — only samples.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum WatchPolicy {
    /// Evict the oldest queued sample to make room for the newest —
    /// the subscriber always sees the freshest data (the default).
    #[default]
    DropOldest,
    /// Keep only every Nth history row (`row % N == 0`) — a
    /// deterministic thinning that is independent of client timing.
    Decimate(usize),
}

impl WatchPolicy {
    /// Parses the wire form: `drop_oldest` or `decimate:N` (N ≥ 1).
    pub fn parse(s: &str) -> Result<Self, ProtoError> {
        if s == "drop_oldest" {
            return Ok(Self::DropOldest);
        }
        if let Some(n) = s.strip_prefix("decimate:") {
            return match n.parse::<usize>() {
                Ok(n) if n >= 1 => Ok(Self::Decimate(n)),
                _ => Err(ProtoError::new(
                    "bad-request",
                    format!("decimate stride `{n}` is not a positive integer"),
                )),
            };
        }
        Err(ProtoError::new(
            "bad-request",
            format!("unknown watch policy `{s}` (knows drop_oldest, decimate:N)"),
        ))
    }

    /// The wire form accepted by [`Self::parse`].
    pub fn wire(&self) -> String {
        match self {
            Self::DropOldest => "drop_oldest".into(),
            Self::Decimate(n) => format!("decimate:{n}"),
        }
    }
}

/// A parsed client request.
#[derive(Debug)]
pub enum Request {
    /// Enqueue a job under a tenant's queue.
    Submit {
        /// Queue to account the job against (fair scheduling unit).
        tenant: String,
        /// What to run (boxed: a `JobRequest` embeds a full spec, which
        /// would otherwise dominate the enum's size).
        job: Box<JobRequest>,
        /// Client-supplied idempotency key: a resubmit with the same
        /// `(tenant, job_key)` returns the existing job instead of
        /// enqueueing a duplicate.
        job_key: Option<String>,
    },
    /// Report every job, or one job by id.
    Status {
        /// Restrict to this job id.
        job: Option<String>,
    },
    /// Subscribe to a job's event stream (samples, run/job completion).
    Watch {
        /// Job id to follow.
        job: String,
        /// Backpressure policy for this subscriber's sample queue.
        policy: WatchPolicy,
        /// Queue capacity in lines (default 256, min 1).
        queue: usize,
    },
    /// Cancel a job's unfinished runs.
    Cancel {
        /// Job id to cancel.
        job: String,
    },
    /// Spool every session and shut the server down gracefully.
    Drain,
    /// Fetch the stored summary of finished runs.
    Result {
        /// Job id to read.
        job: String,
        /// One run index, or every finished run when absent.
        run: Option<usize>,
    },
    /// Liveness/readiness probe: load factor, budget occupancy, backlog
    /// depth and open circuits, without the per-job detail of `status`.
    Health,
    /// Apply finished-job retention now: keep the newest `keep` finished
    /// jobs per tenant (defaulting to the server's `--spool-retain`) and
    /// drop the rest from the table and the spool.
    Prune {
        /// Per-tenant retention override for this pass.
        keep: Option<usize>,
    },
}

/// Reads one `\n`-terminated line, enforcing [`MAX_LINE`]. Returns
/// `Ok(None)` at EOF. An oversized line is drained to its newline (so the
/// stream stays framed) and reported as a [`ProtoError`] — the caller
/// answers it and keeps serving.
pub fn read_line(reader: &mut impl BufRead) -> std::io::Result<Option<Result<String, ProtoError>>> {
    let mut line = Vec::new();
    let mut overflow = false;
    loop {
        let buf = reader.fill_buf()?;
        if buf.is_empty() {
            // EOF. A part-read line without a newline is a truncated
            // request: report it unless nothing was read at all.
            return match (line.is_empty(), overflow) {
                (true, false) => Ok(None),
                (_, true) => Ok(Some(Err(oversized()))),
                (false, false) => Ok(Some(Err(ProtoError::new(
                    "truncated",
                    "connection closed mid-line (no trailing newline)",
                )))),
            };
        }
        let newline = buf.iter().position(|&b| b == b'\n');
        let take = newline.map_or(buf.len(), |i| i + 1);
        if !overflow {
            if line.len() + take > MAX_LINE + 1 {
                overflow = true;
                line.clear();
            } else {
                line.extend_from_slice(&buf[..take]);
            }
        }
        reader.consume(take);
        if newline.is_some() {
            if overflow {
                return Ok(Some(Err(oversized())));
            }
            while line.last() == Some(&b'\n') || line.last() == Some(&b'\r') {
                line.pop();
            }
            return Ok(Some(match String::from_utf8(line) {
                Ok(text) => Ok(text),
                Err(_) => Err(ProtoError::new("bad-utf8", "request line is not UTF-8")),
            }));
        }
    }
}

fn oversized() -> ProtoError {
    ProtoError::new(
        "oversized",
        format!("request line exceeds the {MAX_LINE}-byte cap"),
    )
}

/// Parses one request line into a typed [`Request`]. Strict: unknown ops
/// and unknown fields are rejected with the accepted set in the message.
pub fn parse_request(line: &str) -> Result<Request, ProtoError> {
    let doc = Json::parse(line)?;
    let Json::Obj(fields) = &doc else {
        return Err(ProtoError::new(
            "bad-request",
            "a request must be a JSON object",
        ));
    };
    let op = doc
        .get("op")
        .ok_or_else(|| ProtoError::new("missing-field", "a request needs an `op` field"))?
        .as_str()?;
    let allowed: &[&str] = match op {
        "submit" => &["op", "tenant", "job", "job_key"],
        "status" => &["op", "job"],
        "watch" => &["op", "job", "policy", "queue"],
        "cancel" => &["op", "job"],
        "drain" => &["op"],
        "result" => &["op", "job", "run"],
        "health" => &["op"],
        "prune" => &["op", "keep"],
        other => {
            return Err(ProtoError::new(
                "unknown-op",
                format!(
                    "unknown op `{other}` (knows submit, status, watch, cancel, drain, \
                     result, health, prune)"
                ),
            ))
        }
    };
    for (key, _) in fields {
        if !allowed.contains(&key.as_str()) {
            return Err(ProtoError::new(
                "unknown-field",
                format!(
                    "op `{op}` has no field `{key}` (accepts {})",
                    allowed.join(", ")
                ),
            ));
        }
    }
    let job_id = |doc: &Json| -> Result<String, ProtoError> {
        Ok(doc
            .get("job")
            .ok_or_else(|| ProtoError::new("missing-field", format!("op `{op}` needs `job`")))?
            .as_str()?
            .to_string())
    };
    Ok(match op {
        "submit" => Request::Submit {
            tenant: match doc.get("tenant") {
                Some(t) => t.as_str()?.to_string(),
                None => "default".into(),
            },
            job: Box::new(JobRequest::from_json_value(doc.get("job").ok_or_else(
                || ProtoError::new("missing-field", "op `submit` needs a `job` object"),
            )?)?),
            job_key: match doc.get("job_key") {
                Some(k) => {
                    let key = k.as_str()?;
                    if key.is_empty() {
                        return Err(ProtoError::new(
                            "bad-request",
                            "`job_key` must be a non-empty string",
                        ));
                    }
                    Some(key.to_string())
                }
                None => None,
            },
        },
        "status" => Request::Status {
            job: match doc.get("job") {
                Some(j) => Some(j.as_str()?.to_string()),
                None => None,
            },
        },
        "watch" => Request::Watch {
            job: job_id(&doc)?,
            policy: match doc.get("policy") {
                Some(p) => WatchPolicy::parse(p.as_str()?)?,
                None => WatchPolicy::default(),
            },
            queue: match doc.get("queue") {
                Some(q) => {
                    let n = q.as_usize()?;
                    if n == 0 {
                        return Err(ProtoError::new(
                            "bad-request",
                            "`queue` capacity must be at least 1",
                        ));
                    }
                    n
                }
                None => DEFAULT_WATCH_QUEUE,
            },
        },
        "cancel" => Request::Cancel { job: job_id(&doc)? },
        "drain" => Request::Drain,
        "result" => Request::Result {
            job: job_id(&doc)?,
            run: match doc.get("run") {
                Some(r) => Some(r.as_usize()?),
                None => None,
            },
        },
        "health" => Request::Health,
        "prune" => Request::Prune {
            keep: match doc.get("keep") {
                Some(k) => Some(k.as_usize()?),
                None => None,
            },
        },
        // Defensively structured even though the op list above already
        // validated: a future op added to one table but not the other
        // must reject the request, never panic the daemon.
        other => {
            return Err(ProtoError::new(
                "unknown-op",
                format!("op `{other}` recognized but not dispatchable (server bug)"),
            ))
        }
    })
}

/// A success response line: `{"ok":true, …fields}` (compact, no newline).
pub fn ok_response(fields: Vec<(&str, Json)>) -> String {
    let mut all = vec![("ok", Json::Bool(true))];
    all.extend(fields);
    obj(all).to_compact()
}

/// An error response line for a [`ProtoError`] (compact, no newline).
/// Overload rejections additionally carry `retry_after_ms` so clients
/// can back off by the server's estimate instead of guessing.
pub fn error_response(e: &ProtoError) -> String {
    let mut fields = vec![
        ("code", Json::Str(e.code.clone())),
        ("message", Json::Str(e.message.clone())),
    ];
    if let Some(ms) = e.retry_after_ms {
        fields.push(("retry_after_ms", Json::Num(ms as f64)));
    }
    obj(vec![("ok", Json::Bool(false)), ("error", obj(fields))]).to_compact()
}

/// An event line: `{"event": kind, …fields}` (compact, no newline).
pub fn event(kind: &str, fields: Vec<(&str, Json)>) -> String {
    let mut all = vec![("event", Json::Str(kind.into()))];
    all.extend(fields);
    obj(all).to_compact()
}

/// Interprets a response line client-side: `{"ok":true,…}` yields the
/// document, `{"ok":false,…}` yields its [`ProtoError`].
pub fn parse_response(line: &str) -> Result<Json, ProtoError> {
    let doc = Json::parse(line)?;
    match doc.field("ok")? {
        Json::Bool(true) => Ok(doc),
        Json::Bool(false) => {
            let err = doc.field("error")?;
            let mut e = ProtoError::new(
                err.field("code")?.as_str()?,
                err.field("message")?.as_str()?,
            );
            if let Some(ms) = err.get("retry_after_ms") {
                e.retry_after_ms = Some(ms.as_u64()?);
            }
            Err(e)
        }
        other => Err(ProtoError::new(
            "bad-response",
            format!("`ok` is {} rather than a bool", other.to_compact()),
        )),
    }
}
