//! The unified diagnostics surface: every backend — 1-D, 2-D, Vlasov,
//! distributed — reports its per-step physics through the same
//! [`Sample`]/[`EnergyHistory`] shapes, streamed live to [`Observer`]s and
//! collected into the final [`RunSummary`].

use super::backend::Backend;
use super::error::EngineError;
use super::json::{obj, Json};
use super::spec::{Dim, ScenarioSpec};
use crate::analytics::fit::{try_fit_growth_rate, GrowthFit, GrowthFitOptions};
use crate::analytics::series::TimeSeries;
use crate::analytics::stats;

/// One recorded diagnostics row, identical in shape for every backend
/// (defined next to the solver crates' history, which records the same
/// row).
pub use crate::pic::history::Sample;

/// Per-run diagnostics history in one shape for all backends — the
/// common denominator of `pic::History<M>` (1-D and 2-D) and the
/// Vlasov/distributed diagnostics, directly consumable by `analytics`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EnergyHistory {
    /// Sample times.
    pub times: Vec<f64>,
    /// Kinetic energy per sample.
    pub kinetic: Vec<f64>,
    /// Field energy per sample.
    pub field: Vec<f64>,
    /// Total energy per sample.
    pub total: Vec<f64>,
    /// Momentum per sample (`x` component in 2-D).
    pub momentum: Vec<f64>,
    /// Which modes are tracked (spec order).
    pub tracked_modes: Vec<usize>,
    /// Amplitude series per tracked mode (outer index = mode slot).
    pub mode_amps: Vec<Vec<f64>>,
}

impl EnergyHistory {
    /// An empty history tracking the given modes.
    pub fn new(tracked_modes: Vec<usize>) -> Self {
        let slots = tracked_modes.len();
        Self {
            tracked_modes,
            mode_amps: vec![Vec::new(); slots],
            ..Self::default()
        }
    }

    /// Appends one sample.
    pub fn push(&mut self, sample: &Sample) {
        self.times.push(sample.time);
        self.kinetic.push(sample.kinetic);
        self.field.push(sample.field);
        self.total.push(sample.total());
        self.momentum.push(sample.momentum);
        for (slot, &a) in self.mode_amps.iter_mut().zip(&sample.mode_amps) {
            slot.push(a);
        }
    }

    /// Number of recorded samples.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Discards every row from index `len` on — the divergence guard uses
    /// this to freeze a quarantined run's history at the last row whose
    /// diagnostics were all finite, so partial histories stay losslessly
    /// JSON-serializable.
    pub fn truncate(&mut self, len: usize) {
        self.times.truncate(len);
        self.kinetic.truncate(len);
        self.field.truncate(len);
        self.total.truncate(len);
        self.momentum.truncate(len);
        for series in &mut self.mode_amps {
            series.truncate(len);
        }
    }

    /// The amplitude history of tracked mode `m` as a named series.
    pub fn mode_series(&self, mode: usize) -> Option<TimeSeries> {
        let idx = self.tracked_modes.iter().position(|&m| m == mode)?;
        Some(TimeSeries::from_data(
            format!("E{mode}"),
            self.times.clone(),
            self.mode_amps[idx].clone(),
        ))
    }

    /// Total-energy history as a named series.
    pub fn total_energy_series(&self, name: impl Into<String>) -> TimeSeries {
        TimeSeries::from_data(name, self.times.clone(), self.total.clone())
    }

    /// Momentum history as a named series.
    pub fn momentum_series(&self, name: impl Into<String>) -> TimeSeries {
        TimeSeries::from_data(name, self.times.clone(), self.momentum.clone())
    }

    /// The history as a [`Json`] value — session checkpoints persist the
    /// already-recorded rows so a resumed run's summary is seamless.
    pub fn to_json_value(&self) -> Json {
        obj(vec![
            ("times", Json::num_arr(&self.times)),
            ("kinetic", Json::num_arr(&self.kinetic)),
            ("field", Json::num_arr(&self.field)),
            ("total", Json::num_arr(&self.total)),
            ("momentum", Json::num_arr(&self.momentum)),
            (
                "tracked_modes",
                Json::Arr(
                    self.tracked_modes
                        .iter()
                        .map(|&m| Json::Num(m as f64))
                        .collect(),
                ),
            ),
            (
                "mode_amps",
                Json::Arr(self.mode_amps.iter().map(|s| Json::num_arr(s)).collect()),
            ),
        ])
    }

    /// Rebuilds a history from [`Self::to_json_value`]'s shape, checking
    /// the series lengths agree.
    pub fn from_json_value(doc: &Json) -> Result<Self, EngineError> {
        let history = Self {
            times: doc.field("times")?.as_f64_vec()?,
            kinetic: doc.field("kinetic")?.as_f64_vec()?,
            field: doc.field("field")?.as_f64_vec()?,
            total: doc.field("total")?.as_f64_vec()?,
            momentum: doc.field("momentum")?.as_f64_vec()?,
            tracked_modes: doc
                .field("tracked_modes")?
                .as_arr()?
                .iter()
                .map(|m| m.as_usize())
                .collect::<Result<Vec<_>, _>>()?,
            mode_amps: doc
                .field("mode_amps")?
                .as_arr()?
                .iter()
                .map(|s| s.as_f64_vec())
                .collect::<Result<Vec<_>, _>>()?,
        };
        let n = history.times.len();
        let consistent = history.kinetic.len() == n
            && history.field.len() == n
            && history.total.len() == n
            && history.momentum.len() == n
            && history.mode_amps.len() == history.tracked_modes.len()
            && history.mode_amps.iter().all(|s| s.len() == n);
        if !consistent {
            return Err(EngineError::Checkpoint {
                what: "history series lengths disagree".into(),
            });
        }
        Ok(history)
    }
}

/// Final particle phase-space coordinates of a run (positions along `x`
/// and the velocity component along `x`) — the scatter data of the
/// paper's Figs. 4/6 top panels. `None` for the continuum backend.
#[derive(Debug, Clone)]
pub struct PhaseSpace {
    /// Particle positions along `x`.
    pub x: Vec<f64>,
    /// Particle velocities along `x`.
    pub v: Vec<f64>,
}

/// The result of one engine run.
#[derive(Debug, Clone)]
pub struct RunSummary {
    /// Scenario name.
    pub scenario: String,
    /// Backend display name (e.g. `"traditional-1d"`, `"dl-1d"`).
    pub backend: String,
    /// Dimensionality of the run.
    pub dim: Dim,
    /// Steps performed.
    pub steps: usize,
    /// Final simulation time.
    pub t_end: f64,
    /// Unified diagnostics history (`steps + 1` samples).
    pub history: EnergyHistory,
    /// Final `(x, vx)` phase space (particle backends only).
    pub phase_space: Option<PhaseSpace>,
    /// Wall-clock seconds the run took.
    pub wall_seconds: f64,
    /// Backend-specific extras (e.g. `migrated_particles`, `comm_bytes`
    /// for the distributed backend).
    pub extras: Vec<(String, f64)>,
}

impl RunSummary {
    /// Relative peak-to-peak variation of the total energy; `NaN` when
    /// the history holds no row (a run quarantined at its first step).
    pub fn energy_variation(&self) -> f64 {
        if self.history.is_empty() {
            return f64::NAN;
        }
        stats::relative_variation(&self.history.total)
    }

    /// Maximum drift of the total momentum from its initial value; `NaN`
    /// when the history holds no row (a run quarantined at its first
    /// step).
    pub fn momentum_drift(&self) -> f64 {
        if self.history.is_empty() {
            return f64::NAN;
        }
        stats::max_drift(&self.history.momentum)
    }

    /// Fits the exponential-growth phase of a tracked mode, surfacing the
    /// analytics error through the engine API.
    pub fn growth_rate(&self, mode: usize) -> Result<GrowthFit, EngineError> {
        let series = self
            .history
            .mode_series(mode)
            .ok_or_else(|| EngineError::InvalidSpec {
                scenario: self.scenario.clone(),
                what: format!("mode {mode} is not tracked by this run"),
            })?;
        try_fit_growth_rate(&series.times, &series.values, GrowthFitOptions::default())
            .map_err(EngineError::from)
    }

    /// True when every recorded energy and momentum value is finite.
    pub fn all_finite(&self) -> bool {
        let h = &self.history;
        h.total
            .iter()
            .chain(&h.kinetic)
            .chain(&h.field)
            .chain(&h.momentum)
            .all(|v| v.is_finite())
            && h.mode_amps.iter().flatten().all(|v| v.is_finite())
    }

    /// Looks up a backend-specific extra by name.
    pub fn extra(&self, name: &str) -> Option<f64> {
        self.extras.iter().find(|(k, _)| k == name).map(|(_, v)| *v)
    }
}

/// A run monitor: the engine calls these hooks as the run proceeds.
/// Implementations stream diagnostics to consoles, CSV files, dashboards —
/// anything that should not be wired into the solver crates themselves.
///
/// `Send` because sessions (which own their observers) are distributed
/// across worker threads by the ensemble scheduler; share mutable state
/// out of an observer through `Arc<Mutex<…>>` rather than `Rc`.
pub trait Observer: Send {
    /// Called once before the first step.
    fn on_start(&mut self, spec: &ScenarioSpec, backend: &Backend) {
        let _ = (spec, backend);
    }

    /// Called for every recorded diagnostics row (including the final
    /// snapshot).
    fn on_sample(&mut self, sample: &Sample) {
        let _ = sample;
    }

    /// Called once after the run completes.
    fn on_finish(&mut self, summary: &RunSummary) {
        let _ = summary;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(step: usize, t: f64, amps: &[f64]) -> Sample {
        Sample {
            step,
            time: t,
            kinetic: 1.0,
            field: 0.5,
            momentum: -0.1,
            mode_amps: amps.to_vec(),
        }
    }

    #[test]
    fn history_accumulates_and_exposes_series() {
        let mut h = EnergyHistory::new(vec![1, 3]);
        h.push(&sample(0, 0.0, &[1e-4, 2e-4]));
        h.push(&sample(1, 0.2, &[3e-4, 4e-4]));
        assert_eq!(h.len(), 2);
        assert_eq!(h.total, vec![1.5, 1.5]);
        let e3 = h.mode_series(3).unwrap();
        assert_eq!(e3.values, vec![2e-4, 4e-4]);
        assert_eq!(e3.name, "E3");
        assert!(h.mode_series(2).is_none());
        assert_eq!(h.momentum_series("p").values, vec![-0.1, -0.1]);
    }

    #[test]
    fn history_round_trips_through_json() {
        let mut h = EnergyHistory::new(vec![1, 3]);
        h.push(&sample(0, 0.0, &[1e-4, 2e-4]));
        h.push(&sample(1, 0.2, &[3e-4, 4e-4]));
        let doc = Json::parse(&h.to_json_value().to_pretty()).unwrap();
        assert_eq!(EnergyHistory::from_json_value(&doc).unwrap(), h);
        // Length mismatches are rejected, not silently accepted.
        let mut bad = h.to_json_value();
        if let Json::Obj(fields) = &mut bad {
            fields.retain(|(k, _)| k != "kinetic");
            fields.push(("kinetic".into(), Json::num_arr(&[1.0])));
        }
        assert!(EnergyHistory::from_json_value(&bad).is_err());
    }

    #[test]
    fn summary_helpers() {
        let mut h = EnergyHistory::new(vec![1]);
        for i in 0..6 {
            h.push(&sample(i, i as f64 * 0.2, &[1e-4 * (i as f64 + 1.0)]));
        }
        let summary = RunSummary {
            scenario: "t".into(),
            backend: "traditional-1d".into(),
            dim: Dim::OneD,
            steps: 5,
            t_end: 1.0,
            history: h,
            phase_space: None,
            wall_seconds: 0.0,
            extras: vec![("comm_bytes".into(), 42.0)],
        };
        assert!(summary.all_finite());
        assert!(summary.energy_variation() < 1e-12);
        assert!(summary.momentum_drift() < 1e-12);
        assert_eq!(summary.extra("comm_bytes"), Some(42.0));
        assert_eq!(summary.extra("nope"), None);
        assert!(summary.growth_rate(2).is_err());
    }
}
