//! Time-history recording of the diagnostics, and the one per-step
//! diagnostics row ([`Sample`]) every solver family reports.

use crate::diagnostics::EnergyReport;
use dlpic_analytics::series::TimeSeries;
use std::fmt;

/// One recorded diagnostics row in the shape shared by every solver
/// family (1-D, 2-D, Vlasov, distributed) — the row the engine facade's
/// sessions record, stream and return. A 2-D run reports its `x`
/// momentum component here.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Step index this row belongs to (`0..=n_steps`; the last row is the
    /// final snapshot).
    pub step: usize,
    /// Simulation time.
    pub time: f64,
    /// Kinetic energy.
    pub kinetic: f64,
    /// Electrostatic field energy.
    pub field: f64,
    /// Total momentum (the `x` component in 2-D).
    pub momentum: f64,
    /// Amplitudes of the tracked modes, in tracking order.
    pub mode_amps: Vec<f64>,
}

impl Sample {
    /// Kinetic + field energy.
    pub fn total(&self) -> f64 {
        self.kinetic + self.field
    }
}

/// Accumulated per-step diagnostics of one simulation run, keyed by the
/// geometry's mode type `M` (`usize` in 1-D, `(mx, my)` in 2-D).
#[derive(Debug, Clone)]
pub struct History<M = usize> {
    /// Sample times.
    pub times: Vec<f64>,
    /// Kinetic energy per step.
    pub kinetic: Vec<f64>,
    /// Field energy per step.
    pub field: Vec<f64>,
    /// Total energy per step.
    pub total: Vec<f64>,
    /// Total momentum per step (the `x` component in 2-D).
    pub momentum: Vec<f64>,
    /// The `y` momentum component per step; stays empty in 1-D.
    pub momentum_y: Vec<f64>,
    /// Which field modes are tracked.
    pub tracked_modes: Vec<M>,
    /// Mode amplitudes: `mode_amps[i][step]` follows `tracked_modes[i]`.
    pub mode_amps: Vec<Vec<f64>>,
}

impl<M: Copy + PartialEq + fmt::Debug> History<M> {
    /// Creates a history tracking the given field modes.
    pub fn new(tracked_modes: Vec<M>) -> Self {
        let slots = tracked_modes.len();
        Self {
            times: Vec::new(),
            kinetic: Vec::new(),
            field: Vec::new(),
            total: Vec::new(),
            momentum: Vec::new(),
            momentum_y: Vec::new(),
            tracked_modes,
            mode_amps: vec![Vec::new(); slots],
        }
    }

    /// Reserves capacity for `additional` further samples in every series,
    /// so a sized run records without reallocating.
    pub fn reserve(&mut self, additional: usize) {
        self.times.reserve(additional);
        self.kinetic.reserve(additional);
        self.field.reserve(additional);
        self.total.reserve(additional);
        self.momentum.reserve(additional);
        self.momentum_y.reserve(additional);
        for slot in &mut self.mode_amps {
            slot.reserve(additional);
        }
    }

    /// Appends one step's diagnostics.
    ///
    /// # Panics
    /// Panics if `amps` length differs from the number of tracked modes.
    pub fn push(&mut self, t: f64, report: EnergyReport, amps: &[f64]) {
        assert_eq!(
            amps.len(),
            self.tracked_modes.len(),
            "mode amplitude count mismatch"
        );
        self.times.push(t);
        self.kinetic.push(report.kinetic);
        self.field.push(report.field);
        self.total.push(report.total());
        self.momentum.push(report.momentum);
        self.momentum_y.extend(report.momentum_y);
        for (slot, &a) in self.mode_amps.iter_mut().zip(amps) {
            slot.push(a);
        }
    }

    /// Number of recorded steps.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// The most recently recorded row as the [`Sample`] of step `step`,
    /// or `None` before the first sample.
    pub fn last_sample(&self, step: usize) -> Option<Sample> {
        let i = self.len().checked_sub(1)?;
        Some(Sample {
            step,
            time: self.times[i],
            kinetic: self.kinetic[i],
            field: self.field[i],
            momentum: self.momentum[i],
            mode_amps: self.mode_amps.iter().map(|s| s[i]).collect(),
        })
    }

    /// The amplitude history of grid mode `mode`, if tracked.
    pub fn mode_series(&self, mode: M) -> Option<TimeSeries> {
        let idx = self.tracked_modes.iter().position(|&m| m == mode)?;
        Some(TimeSeries::from_data(
            format!("E{mode:?}"),
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
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(k: f64, f: f64, p: f64) -> EnergyReport {
        EnergyReport {
            kinetic: k,
            field: f,
            momentum: p,
            momentum_y: None,
        }
    }

    #[test]
    fn push_and_series_round_trip() {
        let mut h = History::new(vec![1, 2]);
        h.push(0.0, report(1.0, 0.1, 0.0), &[1e-4, 2e-5]);
        h.push(0.2, report(0.9, 0.2, -1e-3), &[2e-4, 3e-5]);
        assert_eq!(h.len(), 2);
        assert_eq!(h.total, vec![1.1, 1.1]);
        let e1 = h.mode_series(1).unwrap();
        assert_eq!(e1.values, vec![1e-4, 2e-4]);
        assert_eq!(e1.name, "E1");
        assert!(h.mode_series(3).is_none());
        assert_eq!(h.momentum_series("p").values, vec![0.0, -1e-3]);
        let last = h.last_sample(1).unwrap();
        assert_eq!(last.step, 1);
        assert_eq!(last.time, 0.2);
        assert_eq!(last.kinetic, 0.9);
        assert_eq!(last.mode_amps, vec![2e-4, 3e-5]);
        assert_eq!(last.total(), 1.1);
        assert!(History::new(vec![1]).last_sample(0).is_none());
    }

    #[test]
    #[should_panic(expected = "mode amplitude count mismatch")]
    fn wrong_amp_count_rejected() {
        let mut h = History::new(vec![1]);
        h.push(0.0, report(1.0, 0.0, 0.0), &[1.0, 2.0]);
    }
}
