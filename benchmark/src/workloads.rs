//! Workload inputs and output checks.
//!
//! Everything the six workloads run is generated here from `--seed`:
//! the same seed gives the same specs and the same job order, and the
//! product only ever receives the generated inputs. All shapes are
//! fixed; a run repeats its op for the measuring window.

use dlpic_repro::analytics::dispersion::TwoStreamDispersion;
use dlpic_repro::core::{ModelBundle, Scale};
use dlpic_repro::engine::{
    self, Backend, DomainSpec, EnergyHistory, Engine, RunSummary, ScenarioSpec, SweepSpec,
};
use dlpic_serve::job::JobRequest;

use crate::metrics::Workload;

/// Fleet geometry: sixteen paper-scale DL runs (two full 8-row tiles per
/// cohort GEMM), light particle load so `pic` is negligible.
pub const FLEET_RUNS: usize = 16;
pub const FLEET_PPC: usize = 50;
pub const FLEET_STEPS: usize = 60;

/// The two tenants of `served_small_jobs`, one connection each.
pub const SMALL_TENANTS: [&str; 2] = ["t0", "t1"];

/// Worker threads and client connections never exceed the cores, and
/// never two: the shapes are sized for this.
pub fn max_parallel() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

/// The scenario of a `solo_*` workload, its loading seed offset by
/// `seed`.
///
/// # Panics
/// Panics for the fleet and served workloads.
pub fn solo_spec(workload: Workload, seed: u64) -> ScenarioSpec {
    let (name, scale) = match workload {
        Workload::SoloDl | Workload::SoloTrad => ("two_stream", Scale::Paper),
        Workload::SoloTrad2d => ("two_stream_2d", Scale::Scaled),
        other => panic!("{} is not a solo workload", other.name()),
    };
    let mut spec = engine::scenario(name, scale).expect("registry scenario");
    spec.seed = spec.seed.wrapping_add(seed);
    spec
}

/// # Panics
/// Panics for the fleet and served workloads.
pub fn solo_backend(workload: Workload) -> Backend {
    match workload {
        Workload::SoloDl => Backend::Dl1D,
        Workload::SoloTrad => Backend::Traditional1D,
        Workload::SoloTrad2d => Backend::Traditional2D,
        other => panic!("{} is not a solo workload", other.name()),
    }
}

/// The 16-seed paper-scale sweep of `fleet_dl` and `served_fleet_dl`.
pub fn fleet_sweep(seed: u64) -> SweepSpec {
    let first = 100u64.wrapping_add(seed);
    SweepSpec::grid("two_stream", Scale::Paper)
        .axis("ppc", [FLEET_PPC as f64])
        .seeds((0..FLEET_RUNS as u64).map(|i| first.wrapping_add(i)))
}

/// The fleet as one served job; [`JobRequest::expand`] gives the specs
/// the direct fleet runs, so both sides step the same inputs.
pub fn fleet_job(seed: u64) -> JobRequest {
    JobRequest::sweep(fleet_sweep(seed), Backend::Dl1D).with_steps(FLEET_STEPS)
}

/// Job `index` of tenant `tenant` in `served_small_jobs`: a smoke-scale
/// traditional sweep, `v0 ∈ {0.15, 0.2}` × two seeds — four runs of
/// thirty steps over 3 840 particles, about a millisecond of stepping.
/// Every job gets its own seed pair, so job order is observable.
pub fn small_job(seed: u64, tenant: usize, index: usize) -> JobRequest {
    let first = 1000u64
        .wrapping_add(seed)
        .wrapping_add(2 * (index * SMALL_TENANTS.len() + tenant) as u64);
    let sweep = SweepSpec::grid("two_stream", Scale::Smoke)
        .axis("v0", [0.15, 0.2])
        .seeds([first, first.wrapping_add(1)]);
    JobRequest::sweep(sweep, Backend::Traditional1D)
}

/// Job `index` of connection `tenant` of a `served_*` workload: the
/// fleet sweep every time, or that connection's next small job.
///
/// # Panics
/// Panics for workloads that are not served.
pub fn served_job(workload: Workload, seed: u64, tenant: usize, index: usize) -> JobRequest {
    match workload {
        Workload::ServedFleetDl => fleet_job(seed),
        Workload::ServedSmallJobs => small_job(seed, tenant, index),
        other => panic!("{} is not a served workload", other.name()),
    }
}

/// Client connections of a `served_*` workload: one tenant per core for
/// the small jobs, a single client for the fleet job.
pub fn served_connections(workload: Workload) -> usize {
    match workload {
        Workload::ServedSmallJobs => max_parallel().min(SMALL_TENANTS.len()),
        _ => 1,
    }
}

/// Steps one op of the job advances (all runs).
pub fn job_steps(job: &JobRequest) -> usize {
    job.expand()
        .expect("generated jobs expand")
        .iter()
        .map(|s| s.n_steps)
        .sum()
}

/// An engine for the workload: the trained model installed when (and
/// only when) the workload steps DL sessions.
pub fn engine_for(workload: Workload, model: Option<&ModelBundle>) -> Engine {
    match (workload.uses_model(), model) {
        (true, Some(bundle)) => Engine::new().with_model_1d(bundle.clone()),
        (true, None) => panic!("{} needs the trained model", workload.name()),
        (false, _) => Engine::new(),
    }
}

/// Histories of running every spec solo through `Engine::run` — the
/// reference a fleet member or a served run must reproduce bit for bit.
pub fn direct_histories(
    engine: &mut Engine,
    specs: &[ScenarioSpec],
    backend: Backend,
) -> Vec<EnergyHistory> {
    specs
        .iter()
        .map(|spec| engine.run(spec, backend).expect("direct run").history)
        .collect()
}

/// Ops attempted and failed. A failed output check counts as a failed
/// op, so a wrong program can never report a clean run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Records one op or check; a failure is reported on stderr.
    pub fn record(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("FAILED: {}", what());
        }
    }
}

/// The physics numbers behind the output checks of a 1-D two-stream run.
#[derive(Debug, Clone, Copy)]
pub struct Physics {
    /// |γ_fit − γ_theory| ÷ γ_theory on mode 1.
    pub growth_rel_err: f64,
    pub r2: f64,
    pub energy_variation: f64,
}

/// Fits mode 1 of a two-stream run against the cold-beam dispersion
/// relation at the spec's drift speed and box length.
pub fn two_stream_physics(spec: &ScenarioSpec, summary: &RunSummary) -> Option<Physics> {
    let (v0, _) = spec.species.as_two_stream()?;
    let DomainSpec::OneD { length, .. } = spec.domain else {
        return None;
    };
    let theory = TwoStreamDispersion::new(v0).mode_growth_rate(1, length);
    let fit = summary.growth_rate(1).ok()?;
    Some(Physics {
        growth_rel_err: (fit.gamma - theory).abs() / theory,
        r2: fit.r2,
        energy_variation: summary.energy_variation(),
    })
}

/// The physics gate of a solo workload's reference run: the DL run must
/// stay in the paper's regime (γ within 35 % of theory with r² > 0.9,
/// energy variation < 0.25), the traditional run within 20 % and 0.02,
/// the 2-D run finite with energy variation < 0.05.
pub fn check_solo_physics(
    workload: Workload,
    spec: &ScenarioSpec,
    summary: &RunSummary,
    tally: &mut Tally,
) {
    tally.record(summary.all_finite(), || {
        format!("{}: non-finite diagnostics", workload.name())
    });
    let (max_err, min_r2, max_var) = match workload {
        Workload::SoloDl => (0.35, 0.9, 0.25),
        Workload::SoloTrad => (0.20, 0.0, 0.02),
        _ => {
            let var = summary.energy_variation();
            tally.record(var < 0.05, || {
                format!("{}: energy variation {var:.4} >= 0.05", workload.name())
            });
            return;
        }
    };
    match two_stream_physics(spec, summary) {
        None => tally.record(false, || {
            format!("{}: no growth phase to fit", workload.name())
        }),
        Some(p) => {
            tally.record(p.growth_rel_err <= max_err && p.r2 > min_r2, || {
                format!(
                    "{}: growth rate off theory by {:.3} (r2 {:.3}); allowed {max_err} with r2 > {min_r2}",
                    workload.name(),
                    p.growth_rel_err,
                    p.r2
                )
            });
            tally.record(p.energy_variation < max_var, || {
                format!(
                    "{}: energy variation {:.4} >= {max_var}",
                    workload.name(),
                    p.energy_variation
                )
            });
        }
    }
}

/// `solo_dl` only: twenty steps driven as prepare → 1-row infer → apply
/// must reproduce `Session::step` bit for bit (the contract cohort
/// batching and the traced pass both rest on).
pub fn check_phase_split(engine: &Engine, spec: &ScenarioSpec, tally: &mut Tally) {
    const STEPS: usize = 20;
    let mut whole = engine.start(spec, Backend::Dl1D).expect("start");
    let mut split = engine.start(spec, Backend::Dl1D).expect("start");
    let shape = split.batched_infer_shape();
    tally.record(shape.is_some(), || {
        "solo_dl: session is not phase-split".into()
    });
    let Some((in_w, out_w)) = shape else { return };
    let (mut input, mut output) = (vec![0.0f32; in_w], vec![0.0f32; out_w]);
    for _ in 0..STEPS {
        whole.step();
        split.step_prepare(&mut input);
        split.infer_batch(&input, 1, &mut output);
        split.step_apply(&output);
    }
    tally.record(whole.history() == split.history(), || {
        "solo_dl: prepare/infer/apply trajectory differs from Session::step".into()
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wire(job: &JobRequest) -> String {
        job.to_json_value().to_compact()
    }

    #[test]
    fn same_seed_same_inputs_and_job_order() {
        for w in [Workload::SoloDl, Workload::SoloTrad, Workload::SoloTrad2d] {
            assert_eq!(solo_spec(w, 9), solo_spec(w, 9));
            assert_ne!(solo_spec(w, 9).seed, solo_spec(w, 10).seed);
        }
        assert_eq!(wire(&fleet_job(3)), wire(&fleet_job(3)));
        assert_ne!(wire(&fleet_job(3)), wire(&fleet_job(4)));
        let order = |seed| -> Vec<String> {
            (0..8)
                .flat_map(|j| (0..SMALL_TENANTS.len()).map(move |t| wire(&small_job(seed, t, j))))
                .collect()
        };
        assert_eq!(order(5), order(5));
        assert_ne!(order(5), order(6));
        // No two jobs of one run share a seed pair.
        let jobs = order(5);
        let distinct: std::collections::BTreeSet<&String> = jobs.iter().collect();
        assert_eq!(distinct.len(), jobs.len());
    }

    #[test]
    fn shapes_are_the_documented_ones() {
        let solo = solo_spec(Workload::SoloDl, 0);
        assert_eq!((solo.n_particles(), solo.n_steps), (64_000, 200));
        let twod = solo_spec(Workload::SoloTrad2d, 0);
        assert_eq!((twod.n_particles(), twod.n_steps), (65_536, 150));
        let fleet = fleet_job(0).expand().unwrap();
        assert_eq!(fleet.len(), FLEET_RUNS);
        assert!(fleet
            .iter()
            .all(|s| s.n_particles() == 3_200 && s.n_steps == FLEET_STEPS));
        assert_eq!(job_steps(&fleet_job(0)), 960);
        let small = small_job(0, 1, 2).expand().unwrap();
        assert_eq!(small.len(), 4);
        assert!(small
            .iter()
            .all(|s| s.n_particles() == 3_840 && s.n_steps == 30));
        assert_eq!(job_steps(&small_job(0, 0, 0)), 120);
        assert!((1..=2).contains(&max_parallel()));
    }
}
