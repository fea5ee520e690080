//! The in-process daemon and the closed-loop client of the `served_*`
//! workloads, shared by the end-to-end run and the traced pass (which
//! turns the spans on).

use std::path::{Path, PathBuf};
use std::time::Instant;

use dlpic_repro::engine::{EnergyHistory, Engine};
use dlpic_serve::client::{Client, RunResult};
use dlpic_serve::job::JobRequest;
use dlpic_serve::server::{ServeConfig, Server};
use dlpic_serve::ServeError;

use crate::metrics::Workload;
use crate::spans::Tracer;
use crate::workloads::{direct_histories, fleet_job, Tally};

/// Everything the benchmark writes goes under `benchmark/out/`.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// One `dlpic-serve` in this process: scheduler and acceptor threads,
/// spool on at the default interval, sixteen concurrent sessions.
pub struct Daemon {
    server: Server,
    spool: PathBuf,
}

impl Daemon {
    /// Starts the daemon on an ephemeral loopback port with a fresh
    /// spool directory under `out/`.
    pub fn start(engine: Engine) -> Result<Self, ServeError> {
        static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let id = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let spool = out_dir().join(format!("spool-{}-{id}", std::process::id()));
        let _ = std::fs::remove_dir_all(&spool);
        std::fs::create_dir_all(&spool)?;
        let config = ServeConfig::default()
            .listen("127.0.0.1:0")
            .spool(&spool)
            .spool_interval(32)
            .max_sessions(16);
        let server = Server::start_with_engine(config, engine)?;
        Ok(Self { server, spool })
    }

    pub fn connect(&self) -> Result<Client, ServeError> {
        Client::connect(self.server.addr())
    }

    /// `(bytes, files)` currently in the spool directory.
    pub fn spool_usage(&self) -> (u64, u64) {
        fn walk(dir: &Path, bytes: &mut u64, files: &mut u64) {
            for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
                match entry.metadata() {
                    Ok(m) if m.is_dir() => walk(&entry.path(), bytes, files),
                    Ok(m) => {
                        *bytes += m.len();
                        *files += 1;
                    }
                    Err(_) => {}
                }
            }
        }
        let (mut bytes, mut files) = (0, 0);
        walk(&self.spool, &mut bytes, &mut files);
        (bytes, files)
    }

    /// Drains the daemon, joins its threads and removes the spool.
    /// Returns how long drain-to-joined took, in milliseconds.
    pub fn stop(self, client: &mut Client) -> Result<f64, ServeError> {
        let t0 = Instant::now();
        client.drain()?;
        self.server.wait();
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let _ = std::fs::remove_dir_all(&self.spool);
        Ok(ms)
    }
}

/// One finished job as the client saw it.
pub struct JobRecord {
    /// Submit sent → last result parsed.
    pub ms: f64,
    pub results: Vec<RunResult>,
}

/// One closed-loop op: submit the job, watch it to `job_done`, fetch the
/// results. Spans `job` → {`submit`, `watch`, `results`} when the tracer
/// is on.
pub fn run_job(
    client: &mut Client,
    tracer: &mut Tracer,
    job: &JobRequest,
    tenant: &str,
) -> Result<JobRecord, ServeError> {
    let t0 = Instant::now();
    let results = tracer.span("job", |t| {
        let (id, _runs) = t.span("submit", |_| client.submit(job, tenant))?;
        t.span("watch", |_| client.watch(&id, |_| ()))?;
        t.span("results", |_| client.results(&id, None))
    })?;
    Ok(JobRecord {
        ms: t0.elapsed().as_secs_f64() * 1e3,
        results,
    })
}

/// The direct runs a served job's shipped results must reproduce.
pub struct Reference {
    workload: Workload,
    engine: Engine,
    /// Every fleet job is the same sweep, so its sixteen direct runs are
    /// done once; small jobs differ and are re-run per job (a millisecond).
    fleet: Option<Vec<EnergyHistory>>,
}

impl Reference {
    /// `engine` must hold the model the daemon's engine holds.
    pub fn new(workload: Workload, seed: u64, mut engine: Engine) -> Self {
        let fleet = (workload == Workload::ServedFleetDl).then(|| {
            let job = fleet_job(seed);
            direct_histories(
                &mut engine,
                &job.expand().expect("fleet expands"),
                job.backend,
            )
        });
        Self {
            workload,
            engine,
            fleet,
        }
    }

    /// Checks one job: every run `done`, every shipped history
    /// bit-identical to the direct run of the same spec. One tally entry
    /// per job.
    pub fn verify(&mut self, job: &JobRequest, results: &[RunResult], tally: &mut Tally) {
        let per_job;
        let expected = match &self.fleet {
            Some(fleet) => fleet,
            None => {
                let specs = job.expand().expect("job expands");
                per_job = direct_histories(&mut self.engine, &specs, job.backend);
                &per_job
            }
        };
        let problem = mismatch(results, expected);
        tally.record(problem.is_none(), || {
            format!("{}: {}", self.workload.name(), problem.unwrap_or_default())
        });
    }
}

/// What is wrong with `results` against the direct histories, if anything.
fn mismatch(results: &[RunResult], expected: &[EnergyHistory]) -> Option<String> {
    if results.len() != expected.len() {
        return Some(format!(
            "{} results for {} runs",
            results.len(),
            expected.len()
        ));
    }
    for result in results {
        let Some(direct) = expected.get(result.run) else {
            return Some(format!("run index {} out of range", result.run));
        };
        if result.state != "done" {
            return Some(format!("run {} is `{}`", result.run, result.state));
        }
        let shipped = result
            .summary
            .field("history")
            .ok()
            .and_then(|h| EnergyHistory::from_json_value(h).ok());
        if shipped.as_ref() != Some(direct) {
            return Some(format!(
                "run {} history differs from the direct run",
                result.run
            ));
        }
    }
    None
}
