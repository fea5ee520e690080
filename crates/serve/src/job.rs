//! What a client submits: a scenario or sweep, the backend to run it on,
//! an optional step-budget override, and an optional server-side
//! early-stop policy. One `JobRequest` expands to one *run* per spec
//! (sweeps expand exactly like [`SweepSpec::specs`]), and each run is
//! scheduled, streamed, spooled and reported independently.

use dlpic_repro::engine::json::{obj, Json};
use dlpic_repro::engine::{Backend, EnergyHistory, ScenarioSpec, SweepSpec};

use crate::protocol::ProtoError;

/// The circuit-breaker identity of one expanded run: backend plus the
/// full canonical spec JSON. Two runs share a fingerprint exactly when
/// the engine would execute them identically, so consecutive failures of
/// a resubmitted poison spec accumulate, while a neighbouring sweep point
/// (different seed, different parameters) is never punished for them.
pub fn spec_fingerprint(backend: Backend, spec: &ScenarioSpec) -> String {
    format!("{backend}|{}", spec.to_json_value().to_compact())
}

/// The workload of a job: one explicit scenario, or a sweep expanded
/// server-side.
#[derive(Debug, Clone)]
pub enum JobSource {
    /// A single fully-specified scenario.
    Scenario(ScenarioSpec),
    /// A declarative sweep (grid or explicit points × seed fan).
    Sweep(SweepSpec),
}

/// A submitted unit of work, as carried in the `job` field of a `submit`
/// request and in the spool manifest.
#[derive(Debug, Clone)]
pub struct JobRequest {
    /// Backend every run of the job uses.
    pub backend: Backend,
    /// The spec(s) to run.
    pub source: JobSource,
    /// Overrides each expanded spec's `n_steps` (the job's step budget).
    pub steps: Option<usize>,
    /// Server-side early-stop predicate, evaluated after every wave.
    pub stop: Option<StopPolicy>,
    /// Hard per-run step ceiling: a run still unfinished after this many
    /// steps is marked `failed` (`deadline exceeded`), not `done`.
    pub deadline_steps: Option<usize>,
    /// Hard wall-clock ceiling measured from admission: an active run
    /// whose job has been running longer is marked `failed`.
    pub deadline_seconds: Option<f64>,
}

impl JobRequest {
    /// A job running one scenario.
    pub fn scenario(spec: ScenarioSpec, backend: Backend) -> Self {
        Self {
            backend,
            source: JobSource::Scenario(spec),
            steps: None,
            stop: None,
            deadline_steps: None,
            deadline_seconds: None,
        }
    }

    /// A job expanding a sweep.
    pub fn sweep(sweep: SweepSpec, backend: Backend) -> Self {
        Self {
            backend,
            source: JobSource::Sweep(sweep),
            steps: None,
            stop: None,
            deadline_steps: None,
            deadline_seconds: None,
        }
    }

    /// Caps every run at `steps` steps.
    pub fn with_steps(mut self, steps: usize) -> Self {
        self.steps = Some(steps);
        self
    }

    /// Expands the job into one validated spec per run, with the step
    /// budget applied.
    pub fn expand(&self) -> Result<Vec<ScenarioSpec>, ProtoError> {
        let mut specs = match &self.source {
            JobSource::Scenario(spec) => {
                spec.validate()
                    .map_err(|e| ProtoError::new("bad-job", e.to_string()))?;
                vec![spec.clone()]
            }
            JobSource::Sweep(sweep) => sweep
                .specs()
                .map_err(|e| ProtoError::new("bad-job", e.to_string()))?,
        };
        if let Some(steps) = self.steps {
            for spec in &mut specs {
                spec.n_steps = steps;
            }
        }
        for spec in &specs {
            self.backend
                .supports(spec)
                .map_err(|e| ProtoError::new("bad-job", e.to_string()))?;
        }
        Ok(specs)
    }

    /// The wire/spool form; inverse of [`Self::from_json_value`].
    pub fn to_json_value(&self) -> Json {
        let mut fields = vec![("backend", Json::Str(self.backend.to_string()))];
        match &self.source {
            JobSource::Scenario(spec) => fields.push(("scenario", spec.to_json_value())),
            JobSource::Sweep(sweep) => fields.push(("sweep", sweep.to_json_value())),
        }
        if let Some(steps) = self.steps {
            fields.push(("steps", Json::Num(steps as f64)));
        }
        if let Some(stop) = &self.stop {
            fields.push(("stop", stop.to_json_value()));
        }
        if let Some(d) = self.deadline_steps {
            fields.push(("deadline_steps", Json::Num(d as f64)));
        }
        if let Some(d) = self.deadline_seconds {
            fields.push(("deadline_seconds", Json::Num(d)));
        }
        obj(fields)
    }

    /// Parses the `job` object of a `submit` request. Strict like the
    /// rest of the protocol: exactly one of `scenario`/`sweep`, and no
    /// fields beyond the defined set.
    pub fn from_json_value(doc: &Json) -> Result<Self, ProtoError> {
        let Json::Obj(fields) = doc else {
            return Err(ProtoError::new("bad-job", "`job` must be a JSON object"));
        };
        const ALLOWED: &[&str] = &[
            "backend",
            "scenario",
            "sweep",
            "steps",
            "stop",
            "deadline_steps",
            "deadline_seconds",
        ];
        for (key, _) in fields {
            if !ALLOWED.contains(&key.as_str()) {
                return Err(ProtoError::new(
                    "unknown-field",
                    format!(
                        "`job` has no field `{key}` (accepts {})",
                        ALLOWED.join(", ")
                    ),
                ));
            }
        }
        let backend_name = doc
            .get("backend")
            .ok_or_else(|| ProtoError::new("missing-field", "`job` needs `backend`"))?
            .as_str()?;
        let backend = Backend::parse(backend_name).ok_or_else(|| {
            ProtoError::new("bad-job", format!("unknown backend `{backend_name}`"))
        })?;
        let source = match (doc.get("scenario"), doc.get("sweep")) {
            (Some(spec), None) => JobSource::Scenario(
                ScenarioSpec::from_json_value(spec)
                    .map_err(|e| ProtoError::new("bad-job", e.to_string()))?,
            ),
            (None, Some(sweep)) => JobSource::Sweep(
                SweepSpec::from_json_value(sweep)
                    .map_err(|e| ProtoError::new("bad-job", e.to_string()))?,
            ),
            _ => {
                return Err(ProtoError::new(
                    "bad-job",
                    "`job` needs exactly one of `scenario` or `sweep`",
                ))
            }
        };
        Ok(Self {
            backend,
            source,
            steps: match doc.get("steps") {
                Some(s) => Some(s.as_usize()?),
                None => None,
            },
            stop: match doc.get("stop") {
                Some(s) => Some(StopPolicy::from_json_value(s)?),
                None => None,
            },
            deadline_steps: match doc.get("deadline_steps") {
                Some(d) => {
                    let steps = d.as_usize()?;
                    if steps == 0 {
                        return Err(ProtoError::new(
                            "bad-job",
                            "`deadline_steps` must be at least 1",
                        ));
                    }
                    Some(steps)
                }
                None => None,
            },
            deadline_seconds: match doc.get("deadline_seconds") {
                Some(d) => {
                    let seconds = d.as_f64()?;
                    if seconds.is_nan() || seconds <= 0.0 {
                        return Err(ProtoError::new(
                            "bad-job",
                            "`deadline_seconds` must be a positive number",
                        ));
                    }
                    Some(seconds)
                }
                None => None,
            },
        })
    }
}

// ---------------------------------------------------------------------
// Early-stop policies.
// ---------------------------------------------------------------------

/// A `run_until`-style predicate expressed as data, so clients can ask
/// the server to reclaim capacity the moment a run stops being
/// interesting. Evaluated against the run's recorded history after every
/// wave.
#[derive(Debug, Clone, PartialEq)]
pub enum StopPolicy {
    /// Stop when the tracked mode amplitude saturates: a factor above its
    /// starting floor and no new peak for `patience` consecutive samples
    /// (the nonlinear-trapping plateau — the `examples/saturation.rs`
    /// controller as a service-side policy).
    Saturation {
        /// Index into the run's tracked modes.
        mode: usize,
        /// How far above the noise floor the peak must be.
        factor: f64,
        /// Samples without a new peak before stopping.
        patience: usize,
    },
    /// Stop once simulation time reaches `t`.
    Time {
        /// Stop threshold in simulation time units.
        t: f64,
    },
    /// Stop once field energy reaches `above`.
    FieldEnergy {
        /// Stop threshold on the field-energy diagnostic.
        above: f64,
    },
}

impl StopPolicy {
    /// The wire form; inverse of [`Self::from_json_value`].
    pub fn to_json_value(&self) -> Json {
        match self {
            Self::Saturation {
                mode,
                factor,
                patience,
            } => obj(vec![
                ("kind", Json::Str("saturation".into())),
                ("mode", Json::Num(*mode as f64)),
                ("factor", Json::Num(*factor)),
                ("patience", Json::Num(*patience as f64)),
            ]),
            Self::Time { t } => obj(vec![
                ("kind", Json::Str("time".into())),
                ("t", Json::Num(*t)),
            ]),
            Self::FieldEnergy { above } => obj(vec![
                ("kind", Json::Str("field_energy".into())),
                ("above", Json::Num(*above)),
            ]),
        }
    }

    /// Parses the `stop` object of a job.
    pub fn from_json_value(doc: &Json) -> Result<Self, ProtoError> {
        let kind = doc
            .get("kind")
            .ok_or_else(|| ProtoError::new("missing-field", "`stop` needs `kind`"))?
            .as_str()?;
        Ok(match kind {
            "saturation" => Self::Saturation {
                mode: match doc.get("mode") {
                    Some(m) => m.as_usize()?,
                    None => 0,
                },
                factor: match doc.get("factor") {
                    Some(f) => f.as_f64()?,
                    None => 10.0,
                },
                patience: match doc.get("patience") {
                    Some(p) => p.as_usize()?,
                    None => 15,
                },
            },
            "time" => Self::Time {
                t: doc
                    .get("t")
                    .ok_or_else(|| ProtoError::new("missing-field", "stop `time` needs `t`"))?
                    .as_f64()?,
            },
            "field_energy" => Self::FieldEnergy {
                above: doc
                    .get("above")
                    .ok_or_else(|| {
                        ProtoError::new("missing-field", "stop `field_energy` needs `above`")
                    })?
                    .as_f64()?,
            },
            other => {
                return Err(ProtoError::new(
                    "bad-job",
                    format!("unknown stop kind `{other}` (knows saturation, time, field_energy)"),
                ))
            }
        })
    }

    /// A fresh incremental evaluator for this policy.
    pub fn evaluator(&self) -> StopEval {
        StopEval {
            policy: self.clone(),
            rows_seen: 0,
            floor: None,
            peak: f64::NEG_INFINITY,
            stalled: 0,
        }
    }
}

/// Incremental evaluation state of one run's [`StopPolicy`]: feed it the
/// run's history after each wave; it fires at most once.
#[derive(Debug, Clone)]
pub struct StopEval {
    policy: StopPolicy,
    rows_seen: usize,
    floor: Option<f64>,
    peak: f64,
    stalled: usize,
}

impl StopEval {
    /// Consumes rows recorded since the last call; true once the policy
    /// says the run should stop.
    pub fn should_stop(&mut self, history: &EnergyHistory) -> bool {
        let mut fired = false;
        while self.rows_seen < history.len() {
            let i = self.rows_seen;
            self.rows_seen += 1;
            fired |= match &self.policy {
                StopPolicy::Saturation {
                    mode,
                    factor,
                    patience,
                } => {
                    let Some(amp) = history.mode_amps.get(*mode).and_then(|a| a.get(i)) else {
                        continue;
                    };
                    let floor = *self.floor.get_or_insert(*amp);
                    if *amp > self.peak {
                        self.peak = *amp;
                        self.stalled = 0;
                    } else {
                        self.stalled += 1;
                    }
                    self.peak > factor * floor && self.stalled >= *patience
                }
                StopPolicy::Time { t } => history.times[i] >= *t,
                StopPolicy::FieldEnergy { above } => history.field[i] >= *above,
            };
        }
        fired
    }
}
