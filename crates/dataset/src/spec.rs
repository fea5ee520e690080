//! Parameter-sweep specifications (paper §IV.A.1).
//!
//! > "Our data set consists of 40,000 images … generated from several
//! > traditional PIC simulations using combinations of the initial beam
//! > velocities (±v0) and the thermal speed (vth). More concretely, we
//! > collected data for 20 combinations of these two parameters, being
//! > v0 = [±0.05, ±0.15, ±0.18, ±0.1, ±0.3] and
//! > vth = [0.0, 0.01, 0.001, 0.005]. For each single combination we
//! > collected data from 10 experiments … as a way of data augmentation …
//! > we run 200 time steps in each traditional PIC simulation."
//!
//! Test Set II uses "samples from simulations using parameters not included
//! in the initial data set" — here: v0 ∈ {0.12, 0.2, 0.25} crossed with
//! vth ∈ {0.002, 0.025} (the validation configuration v0 = 0.2,
//! vth = 0.025 of §V is deliberately among them, as in the paper).

use dlpic_core::presets::Scale;

/// The paper's training beam speeds.
const PAPER_V0S: [f64; 5] = [0.05, 0.1, 0.15, 0.18, 0.3];

/// The paper's training thermal speeds.
const PAPER_VTHS: [f64; 4] = [0.0, 0.001, 0.005, 0.01];

/// Beam speeds *not* in the training sweep, for Test Set II.
const UNSEEN_V0S: [f64; 3] = [0.12, 0.2, 0.25];

/// Thermal speeds *not* in the training sweep, for Test Set II.
const UNSEEN_VTHS: [f64; 2] = [0.002, 0.025];

/// One (v0, vth) configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepCombo {
    /// Beam drift speed (beams at ±v0).
    pub v0: f64,
    /// Thermal spread.
    pub vth: f64,
}

/// A full sweep: combinations × repeated experiments × steps.
#[derive(Debug, Clone)]
pub struct SweepSpec {
    /// Parameter combinations.
    pub combos: Vec<SweepCombo>,
    /// Independent seeded runs per combination ("data augmentation" in the
    /// paper).
    pub experiments_per_combo: usize,
    /// Steps per run; one sample is harvested per step.
    pub steps: usize,
    /// Base RNG seed; each run derives a distinct seed from it.
    pub base_seed: u64,
}

impl SweepSpec {
    /// Cartesian product of the given parameter lists.
    pub fn cross(v0s: &[f64], vths: &[f64], experiments: usize, steps: usize, seed: u64) -> Self {
        let mut combos = Vec::with_capacity(v0s.len() * vths.len());
        for &v0 in v0s {
            for &vth in vths {
                combos.push(SweepCombo { v0, vth });
            }
        }
        Self {
            combos,
            experiments_per_combo: experiments,
            steps,
            base_seed: seed,
        }
    }

    /// Training sweep for the given scale. `Paper` is the paper's full
    /// sweep: 20 combos × 10 experiments × 200 steps = 40,000 samples.
    /// `Scaled` keeps all 20 combos
    /// (coverage of parameter space matters more than augmentation depth on
    /// one core) with 3 seeded experiments each — enough augmentation for
    /// the DL-PIC loop to stay well-conditioned on unseen noise
    /// realizations (12,000 samples; the paper used 40,000).
    pub fn training_for(scale: Scale) -> Self {
        match scale {
            Scale::Paper => Self::cross(&PAPER_V0S, &PAPER_VTHS, 10, 200, 0x5eed_0001),
            Scale::Scaled => Self::cross(&PAPER_V0S, &PAPER_VTHS, 3, 200, 0x5eed_0001),
            // 80 steps so the instability develops real field structure
            // (40 steps of Δt = 0.2 is still deep in the linear phase).
            Scale::Smoke => Self::cross(&[0.1, 0.2], &[0.0, 0.01], 1, 80, 0x5eed_0001),
        }
    }

    /// Test Set II: unseen parameters (paper: 1,000 samples).
    pub fn test_set_ii_for(scale: Scale) -> Self {
        match scale {
            Scale::Paper | Scale::Scaled => {
                // 6 combos × 1 experiment × 200 steps = 1,200 samples.
                Self::cross(&UNSEEN_V0S, &UNSEEN_VTHS, 1, 200, 0x5eed_0002)
            }
            Scale::Smoke => Self::cross(&[0.25], &[0.002], 1, 80, 0x5eed_0002),
        }
    }

    /// Total number of samples the sweep yields.
    pub fn total_samples(&self) -> usize {
        self.combos.len() * self.experiments_per_combo * self.steps
    }

    /// Every run of the sweep as `(combo index, experiment)`, combo-major:
    /// the order the generators harvest in.
    pub fn runs(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.combos.len()).flat_map(|c| (0..self.experiments_per_combo).map(move |e| (c, e)))
    }

    /// Deterministic seed of run (`combo_idx`, `experiment`).
    pub fn run_seed(&self, combo_idx: usize, experiment: usize) -> u64 {
        // SplitMix64-style mixing keeps distinct runs decorrelated.
        let mut z = self
            .base_seed
            .wrapping_add((combo_idx as u64) << 32)
            .wrapping_add(experiment as u64)
            .wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_training_sweep_is_forty_thousand_samples() {
        let s = SweepSpec::training_for(Scale::Paper);
        assert_eq!(s.combos.len(), 20);
        assert_eq!(s.experiments_per_combo, 10);
        assert_eq!(s.steps, 200);
        assert_eq!(s.total_samples(), 40_000);
    }

    #[test]
    fn test_set_ii_uses_only_unseen_parameters() {
        let train = SweepSpec::training_for(Scale::Paper);
        let test2 = SweepSpec::test_set_ii_for(Scale::Paper);
        for tc in &test2.combos {
            for trc in &train.combos {
                assert!(
                    (tc.v0 - trc.v0).abs() > 1e-9 && (tc.vth - trc.vth).abs() > 1e-9,
                    "Test Set II combo {tc:?} overlaps training {trc:?}"
                );
            }
        }
        assert!(test2.total_samples() >= 1_000);
    }

    #[test]
    fn validation_configuration_is_in_test_set_ii() {
        // The paper validates DL-PIC at v0 = 0.2, vth = 0.025 — parameters
        // "that ha[ve] not been included in the … training" sets.
        let test2 = SweepSpec::test_set_ii_for(Scale::Scaled);
        assert!(test2
            .combos
            .iter()
            .any(|c| (c.v0 - 0.2).abs() < 1e-12 && (c.vth - 0.025).abs() < 1e-12));
    }

    #[test]
    fn run_seeds_are_distinct() {
        let s = SweepSpec::training_for(Scale::Paper);
        let mut seeds = std::collections::HashSet::new();
        for c in 0..s.combos.len() {
            for e in 0..s.experiments_per_combo {
                assert!(
                    seeds.insert(s.run_seed(c, e)),
                    "duplicate seed for ({c}, {e})"
                );
            }
        }
    }

    #[test]
    fn scaled_sweep_keeps_full_parameter_coverage() {
        let s = SweepSpec::training_for(Scale::Scaled);
        assert_eq!(s.combos.len(), 20);
        assert_eq!(s.experiments_per_combo, 3);
        assert_eq!(s.total_samples(), 12_000);
    }
}
