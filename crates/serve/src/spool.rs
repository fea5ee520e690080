//! Crash-safe persistence of the server's fleet. The spool directory is
//! the server's only durable state; every write lands atomically
//! (tmp + rename), so a `kill -9` at any instant leaves either the old
//! or the new file — never a torn one — and `dlpic-serve --resume <dir>`
//! continues every job bit-identically from its last spooled wave.
//!
//! Layout:
//!
//! ```text
//! <spool>/meta.json                  fleet manifest (jobs, runs, states)
//! <spool>/<job-id>/run-<k>.ckpt.json in-flight session checkpoint (v1)
//! <spool>/<job-id>/run-<k>.done.json finished-run summary (history, …)
//! ```
//!
//! A run's durable state is read back by precedence: a `done` file wins
//! (the run finished), else a checkpoint resumes mid-flight, else the
//! manifest's embedded spec re-queues it from step 0. Checkpoints of
//! finished runs are deleted once their `done` file is in place.

use std::path::{Path, PathBuf};

use dlpic_repro::engine::json::{obj, Json};
use dlpic_repro::engine::{Checkpoint, ScenarioSpec};

use crate::error::ServeError;
use crate::job::JobRequest;
use crate::protocol::ProtoError;
use crate::table::Phase;

const MANIFEST_FORMAT: &str = "dlpic-serve-spool";
const MANIFEST_VERSION: f64 = 1.0;

/// One job as recorded in the manifest.
#[derive(Debug, Clone)]
pub struct SpoolJob {
    /// Server-assigned id (`job-0001`).
    pub id: String,
    /// Fair-scheduling queue the job belongs to.
    pub tenant: String,
    /// The original request (backend, source, budget, stop policy).
    pub request: JobRequest,
    /// Client-supplied idempotency key, so dedupe survives a restart.
    pub job_key: Option<String>,
    /// Per-run durable state.
    pub runs: Vec<SpoolRun>,
}

/// One run of a job as recorded in the manifest.
#[derive(Debug, Clone)]
pub struct SpoolRun {
    /// Display name (the expanded spec's name).
    pub name: String,
    /// `queued`, `active`, `done`, `stopped`, `cancelled` or `failed`.
    pub state: String,
    /// The expanded spec — what re-queues the run when no checkpoint
    /// exists yet.
    pub spec: Option<ScenarioSpec>,
    /// Failure detail for `failed` runs.
    pub error: Option<String>,
}

/// A spool directory handle: path bookkeeping plus atomic reads/writes
/// of the manifest, checkpoints and results.
#[derive(Debug, Clone)]
pub struct Spool {
    dir: PathBuf,
}

impl Spool {
    /// Opens (creating if needed) a spool directory.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, ServeError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(Self { dir })
    }

    /// The spool directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn job_dir(&self, job: &str) -> PathBuf {
        self.dir.join(job)
    }

    /// Path of a run's in-flight checkpoint.
    fn checkpoint_path(&self, job: &str, run: usize) -> PathBuf {
        self.job_dir(job).join(format!("run-{run}.ckpt.json"))
    }

    /// Path of a run's finished-summary file.
    fn done_path(&self, job: &str, run: usize) -> PathBuf {
        self.job_dir(job).join(format!("run-{run}.done.json"))
    }

    /// Atomically replaces the fleet manifest.
    pub fn save_manifest(&self, next_job: u64, jobs: &[SpoolJob]) -> Result<(), ServeError> {
        let doc = obj(vec![
            ("format", Json::Str(MANIFEST_FORMAT.into())),
            ("version", Json::Num(MANIFEST_VERSION)),
            ("next_job", Json::Num(next_job as f64)),
            ("jobs", Json::Arr(jobs.iter().map(job_to_json).collect())),
        ]);
        atomic_write(&self.dir.join("meta.json"), &doc.to_pretty())
    }

    /// Loads the fleet manifest; `(next_job, jobs)`. Every failure is
    /// `bad-spool` and names the offending file — "bad-json" alone is
    /// useless when the operator is deciding which spool file to inspect
    /// or delete.
    pub fn load_manifest(&self) -> Result<(u64, Vec<SpoolJob>), ServeError> {
        let path = self.dir.join("meta.json");
        std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read manifest: {e}"))
            .and_then(|text| manifest_from_str(&text))
            .map_err(|what| {
                ProtoError::new("bad-spool", format!("{}: {what}", path.display())).into()
            })
    }

    /// Atomically writes a run's mid-flight checkpoint.
    pub fn write_checkpoint(
        &self,
        job: &str,
        run: usize,
        checkpoint: &Checkpoint,
    ) -> Result<(), ServeError> {
        std::fs::create_dir_all(self.job_dir(job))?;
        checkpoint.write_file(self.checkpoint_path(job, run))?;
        Ok(())
    }

    /// Reads a run's mid-flight checkpoint.
    pub fn read_checkpoint(&self, job: &str, run: usize) -> Result<Checkpoint, ServeError> {
        Ok(Checkpoint::read_file(self.checkpoint_path(job, run))?)
    }

    /// True when the run has a spooled checkpoint.
    pub fn has_checkpoint(&self, job: &str, run: usize) -> bool {
        self.checkpoint_path(job, run).exists()
    }

    /// Atomically writes a run's finished summary and drops its now
    /// redundant checkpoint.
    pub fn write_result(&self, job: &str, run: usize, result: &Json) -> Result<(), ServeError> {
        std::fs::create_dir_all(self.job_dir(job))?;
        atomic_write(&self.done_path(job, run), &result.to_pretty())?;
        let _ = std::fs::remove_file(self.checkpoint_path(job, run));
        Ok(())
    }

    /// Reads a run's finished summary.
    pub fn read_result(&self, job: &str, run: usize) -> Result<Json, ServeError> {
        let text = std::fs::read_to_string(self.done_path(job, run))?;
        Ok(Json::parse(&text).map_err(ProtoError::from)?)
    }

    /// Drops a run's spool files (cancelled runs keep the spool clean).
    pub fn remove_run(&self, job: &str, run: usize) {
        let _ = std::fs::remove_file(self.checkpoint_path(job, run));
        let _ = std::fs::remove_file(self.done_path(job, run));
    }

    /// Garbage-collects the spool against the manifest just written, or
    /// on `--resume` the one just loaded: drops job directories the
    /// manifest no longer mentions, stray `.tmp` files from interrupted
    /// atomic writes, and checkpoints of runs that reached a final state
    /// (their `done` file, when one exists, is the record). Best-effort —
    /// GC never fails a flush or a resume.
    pub fn gc(&self, jobs: &[SpoolJob]) {
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name().to_string_lossy().into_owned();
            if path.extension().is_some_and(|e| e == "tmp") {
                let _ = std::fs::remove_file(&path);
                continue;
            }
            if !path.is_dir() {
                continue;
            }
            match jobs.iter().find(|j| j.id == name) {
                None => {
                    let _ = std::fs::remove_dir_all(&path);
                }
                Some(job) => {
                    for (k, run) in job.runs.iter().enumerate() {
                        let final_state =
                            matches!(run.state.as_str(), "done" | "stopped" | "cancelled");
                        if final_state {
                            let _ = std::fs::remove_file(self.checkpoint_path(&job.id, k));
                        }
                    }
                    if let Ok(inner) = std::fs::read_dir(&path) {
                        for file in inner.flatten() {
                            if file.path().extension().is_some_and(|e| e == "tmp") {
                                let _ = std::fs::remove_file(file.path());
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Write-to-sibling-then-rename: the same atomicity discipline as
/// [`Checkpoint::write_file`], for manifest and result documents.
fn atomic_write(path: &Path, text: &str) -> Result<(), ServeError> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    std::fs::write(&tmp, text)?;
    std::fs::rename(&tmp, path)?;
    Ok(())
}

fn job_to_json(job: &SpoolJob) -> Json {
    let mut fields = vec![
        ("id", Json::Str(job.id.clone())),
        ("tenant", Json::Str(job.tenant.clone())),
        ("request", job.request.to_json_value()),
    ];
    if let Some(key) = &job.job_key {
        fields.push(("job_key", Json::Str(key.clone())));
    }
    fields.push((
        "runs",
        Json::Arr(
            job.runs
                .iter()
                .map(|run| {
                    let mut fields = vec![
                        ("name", Json::Str(run.name.clone())),
                        ("state", Json::Str(run.state.clone())),
                    ];
                    if let Some(spec) = &run.spec {
                        fields.push(("spec", spec.to_json_value()));
                    }
                    if let Some(error) = &run.error {
                        fields.push(("error", Json::Str(error.clone())));
                    }
                    obj(fields)
                })
                .collect(),
        ),
    ));
    obj(fields)
}

/// Parses a manifest's text; the error says what is wrong and where.
fn manifest_from_str(text: &str) -> Result<(u64, Vec<SpoolJob>), String> {
    let doc = Json::parse(text).map_err(|e| format!("bad json: {}", e.message))?;
    let format = doc
        .field("format")
        .and_then(Json::as_str)
        .map_err(|e| e.message)?;
    if format != MANIFEST_FORMAT {
        return Err("not a dlpic-serve spool manifest".into());
    }
    // A manifest of another version may lay its jobs out differently:
    // refuse it rather than misread it.
    let version = doc
        .field("version")
        .and_then(Json::as_f64)
        .map_err(|e| e.message)?;
    if version != MANIFEST_VERSION {
        return Err(format!(
            "unsupported manifest version {version} (this build reads {MANIFEST_VERSION})"
        ));
    }
    let next_job = doc
        .field("next_job")
        .and_then(Json::as_u64)
        .map_err(|e| e.message)?;
    let jobs = doc
        .field("jobs")
        .and_then(Json::as_arr)
        .map_err(|e| e.message)?
        .iter()
        .enumerate()
        .map(|(i, job)| job_from_json(job).map_err(|e| format!("job {i}: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    Ok((next_job, jobs))
}

fn job_from_json(doc: &Json) -> Result<SpoolJob, String> {
    let text = |doc: &Json, key: &str| -> Result<String, String> {
        doc.field(key)
            .and_then(Json::as_str)
            .map(str::to_string)
            .map_err(|e| e.message)
    };
    let optional = |doc: &Json, key: &str| -> Result<Option<String>, String> {
        doc.get(key)
            .map(|v| v.as_str().map(str::to_string).map_err(|e| e.message))
            .transpose()
    };
    let run_from_json = |doc: &Json| -> Result<SpoolRun, String> {
        let state = text(doc, "state")?;
        if Phase::parse(&state).is_none() {
            return Err(format!("unknown state `{state}`"));
        }
        Ok(SpoolRun {
            name: text(doc, "name")?,
            state,
            spec: doc
                .get("spec")
                .map(ScenarioSpec::from_json_value)
                .transpose()
                .map_err(|e| format!("spec: {e}"))?,
            error: optional(doc, "error")?,
        })
    };
    Ok(SpoolJob {
        id: text(doc, "id")?,
        tenant: text(doc, "tenant")?,
        request: JobRequest::from_json_value(doc.field("request").map_err(|e| e.message)?)
            .map_err(|e| format!("request: {e}"))?,
        job_key: optional(doc, "job_key")?,
        runs: doc
            .field("runs")
            .and_then(Json::as_arr)
            .map_err(|e| e.message)?
            .iter()
            .enumerate()
            .map(|(k, run)| run_from_json(run).map_err(|e| format!("run {k}: {e}")))
            .collect::<Result<Vec<_>, _>>()?,
    })
}
