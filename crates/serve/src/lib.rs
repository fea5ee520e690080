//! # `dlpic-serve`: simulation as a service
//!
//! The engine crates run simulations as library calls; this crate runs
//! them as a *service*. A long-lived daemon loads solver models once,
//! accepts jobs over a line-delimited JSON protocol (TCP or Unix
//! socket), multiplexes every admitted run in lockstep waves through
//! [`engine::WaveBatch`](dlpic_repro::engine::WaveBatch) — so co-resident
//! DL jobs share one batched inference per wave, exactly like an
//! [`Ensemble`](dlpic_repro::engine::Ensemble) — and spools v1
//! [`Checkpoint`](dlpic_repro::engine::Checkpoint)s so any job survives a
//! restart bit-identically.
//!
//! * [`protocol`] — the wire format: one JSON object per line, typed
//!   requests/responses/events, structured errors, hard line-length cap.
//! * [`job`] — what a client submits: a scenario or sweep, a backend, an
//!   optional step budget and an optional server-side early-stop policy.
//! * [`server`] — the daemon: its configuration, the [`server::Server`]
//!   handle and the acceptor, over five private modules: `table` (the
//!   job/run table, watch queues, and the one place a run is finalised),
//!   `admission` (which queued runs get a session next), `scheduler` (the
//!   thread that owns every session), `handlers` (one thread per
//!   connection, one function per op) and `resume` (rebuilding the table
//!   from the spool).
//! * [`spool`] — crash-safe persistence: atomic checkpoint files plus a
//!   `meta.json` fleet manifest, reloaded by `dlpic-serve --resume`.
//! * [`client`] — a blocking client library; the `dlpic-cli` binary is a
//!   thin wrapper over it.
//! * `transport` (private) — the TCP/Unix stream, listener and line
//!   writer the server and the client share.
//! * [`stats`] — overload-governance instrumentation: the scheduler's
//!   log-bucketed wave-latency histogram and per-spec circuit breakers
//!   backing budgeted admission and load shedding.
//!
//! ```no_run
//! use dlpic_serve::{client::Client, job::JobRequest, server::{Server, ServeConfig}};
//! use dlpic_repro::engine::{Backend, SweepSpec};
//! use dlpic_repro::core::Scale;
//!
//! let server = Server::start(ServeConfig::default().listen("127.0.0.1:0"))?;
//! let mut client = Client::connect(server.addr())?;
//! let sweep = SweepSpec::grid("two_stream", Scale::Smoke).seeds([1, 2, 3]);
//! let job = client.submit(&JobRequest::sweep(sweep, Backend::Dl1D), "demo")?;
//! client.drain()?;
//! server.wait();
//! # Ok::<(), dlpic_serve::ServeError>(())
//! ```

pub mod client;
pub mod job;
pub mod protocol;
pub mod server;
pub mod spool;
pub mod stats;

mod admission;
mod error;
mod handlers;
mod resume;
mod scheduler;
mod table;
mod transport;

pub use error::ServeError;
