//! The physics verification table: every analytic claim the repository
//! makes about its solvers — two-stream growth at the linear-theory rate
//! (the paper's Fig. 4), stability where theory says stable (the premise
//! of Fig. 6), momentum and energy behaviour (Figs. 5–6) and Landau
//! damping — as the rows of one table. Each row is a scenario spec and a
//! solver, run once through [`Engine::run`], and the oracles its
//! [`RunSummary`] must satisfy; each oracle is written once, below the
//! table. Claims over two runs compare two rows' results. What the
//! facade does not expose (the transverse 2-D mode, `y` momentum, 2-D
//! shapes other than CIC, Vlasov mass, a Vlasov run at `nv = 128`, the
//! DL field itself) is checked by direct tests at the end, through the
//! same oracle functions.

use dlpic_repro::analytics::dispersion::TwoStreamDispersion;
use dlpic_repro::analytics::fit::{fit_damping, DampingFit};
use dlpic_repro::analytics::stats;
use dlpic_repro::core::phase_space::BinningShape;
use dlpic_repro::core::twod::arch_2d;
use dlpic_repro::core::{DensityBinning, FrozenBundle, ModelBundle, Scale};
use dlpic_repro::dataset::generator::{generate, GeneratorConfig};
use dlpic_repro::dataset::{fit, harvest, spec::SweepSpec, Capture, PhaseDataset};
use dlpic_repro::engine::{
    Backend, DomainSpec, Engine, LoadingSpec, Numerics1D, RunSummary, ScenarioSpec, SpeciesSpec,
};
use dlpic_repro::nn::trainer::{train, TrainConfig};
use dlpic_repro::nn::{Adam, Mse, Precision};
use dlpic_repro::pic::simulation::{PicConfig, Simulation};
use dlpic_repro::pic::solver::{FieldSolver, PoissonKind};
use dlpic_repro::pic::TwoStreamInit;
use dlpic_repro::pic::{Grid1D, Grid2D, Shape, TraditionalSolver, TwoStream2DInit};
use dlpic_repro::vlasov::{VlasovConfig, VlasovSolver};
use std::sync::OnceLock;
use Oracle::*;
use Solver::*;

/// Textbook least-damped root of the kinetic dispersion relation at
/// `k·λ_D = 0.5`: `ω + iγ`.
const LANDAU_OMEGA: f64 = 1.4156;
const LANDAU_GAMMA: f64 = -0.1533;

/// Declares the table: `ROWS`, and one `#[test]` per row, named by its
/// id, that runs the row and checks its oracles.
macro_rules! rows {
    ($($id:ident: $spec:expr, $solver:expr, [$($oracle:expr),+ $(,)?];)*) => {
        const ROWS: &[Row] = &[$(Row {
            id: stringify!($id),
            spec: || $spec,
            solver: $solver,
            oracles: &[$($oracle),+],
        },)*];
        $(#[test]
        fn $id() {
            check(stringify!($id));
        })*
    };
}

rows! {
    // Two-stream growth against linear theory (Fig. 4).
    two_stream_growth: paper(0.2, 0.025, 123), CIC_FD, [Growth { rel: 0.2, r2: 0.9 }];
    warm_two_stream_growth: paper(0.2, 0.02, 2024), CIC_FD, [Growth { rel: 0.2, r2: 0.0 }];
    quiet_growth_v020: quiet_1d(0.2), CIC_FD, [Finite];
    quiet_growth_v015: quiet_1d(0.15), CIC_FD, [Finite];
    two_stream_2d_growth: box_2d(32, 0.2, 0.0, 1e-4, 200, 11), Pic2D, [Growth { rel: 0.2, r2: 0.9 }];
    vlasov_growth: vlasov(0.2, 600), Vlasov, [Growth { rel: 0.2, r2: 0.0 }];
    dl_two_stream_2d_growth: box_2d(16, 0.2, 0.0, 1e-3, 160, 99), Dl2D,
        [Finite, Growth { rel: 0.2, r2: 0.9 }];
    // Stable where theory says stable (the premise of Fig. 6).
    cold_beam_stable: paper(0.4, 0.0, 321), CIC_FD, [Stable(20.0)];
    cold_beam_stable_seed_11: paper(0.4, 0.0, 11), CIC_FD, [Stable(20.0)];
    thermal_plasma_quiet: pic_1d(0.0, 0.05, 250, 100, 17), CIC_FD, [Energy(0.05), Stable(20.0)];
    cold_beams_2d_stable: box_2d(32, 0.4, 0.0, 1e-4, 100, 19), Pic2D, [Stable(20.0)];
    vlasov_cold_beam_stable: vlasov(0.4, 400), Vlasov, [Stable(5.0)];
    // Matched deposit and gather shapes conserve momentum to round-off
    // (Fig. 5, bottom); the mismatched pair is the negative control.
    momentum_ngp_fd: momentum_1d(), matched(Shape::Ngp, FD), [Momentum(1e-10)];
    momentum_cic_fd: momentum_1d(), matched(Shape::Cic, FD), [Momentum(1e-10)];
    momentum_tsc_fd: momentum_1d(), matched(Shape::Tsc, FD), [Momentum(1e-10)];
    momentum_mismatched: momentum_1d(), Pic1D(Numerics1D {
        gather_shape: Shape::Cic,
        deposit_shape: Shape::Ngp,
        poisson: FD,
    }), [Finite];
    momentum_ngp_spectral: momentum_spectral(), matched(Shape::Ngp, SPECTRAL), [Momentum(1e-10)];
    momentum_cic_spectral: momentum_spectral(), matched(Shape::Cic, SPECTRAL), [Momentum(1e-10)];
    momentum_tsc_spectral: momentum_spectral(), matched(Shape::Tsc, SPECTRAL), [Momentum(1e-10)];
    // Energy: bounded through saturation, genuinely exchanged with the
    // field (Fig. 5, top), and heated by NGP on cold beams (Fig. 6). The
    // 2-D momentum bound is 1e-8 × max(N·m·v0, 1), and N·m is the box
    // area, 4.2.
    energy_through_saturation: paper(0.2, 0.025, 99), CIC_FD, [Energy(0.04), FieldShare(0.02)];
    two_stream_2d_conservation: box_2d(32, 0.2, 0.025, 1e-4, 200, 17), Pic2D,
        [EnergyBand(0.95, 1.05), Momentum(1e-8)];
    vlasov_conservation: vlasov(0.2, 400), Vlasov, [Momentum(1e-6), EnergyBand(0.92, 1.08)];
    cold_beam_ngp: paper(0.4, 0.0, 20210706), matched(Shape::Ngp, FD), [Finite];
    cold_beam_cic: paper(0.4, 0.0, 20210706), CIC_FD, [Finite];
    // Landau damping on the continuum solver (nv = 512).
    landau_damping: landau(), Vlasov, [Damping { gamma: 0.05, omega: 0.02 }];
    // The DL method in the loop (Fig. 2's cycle) on the smoke MLP.
    dl_two_stream: pic_1d(0.2, 0.01, 200, 150, 77), Dl1D,
        [Finite, PhaseSpace { vmax: 2.0 }, EnergyBand(0.3, 4.0), Grows(3.0)];
    traditional_beside_dl: pic_1d(0.2, 0.01, 200, 150, 77), CIC_FD, [Grows(3.0)];
    dl_harness: pic_1d(0.15, 0.005, 100, 20, 5), Dl1D, [Finite];
    traditional_harness: pic_1d(0.15, 0.005, 100, 20, 5), CIC_FD, [Finite];
}

/// One run of the table.
struct Row {
    id: &'static str,
    /// The scenario (its name is replaced by the row id).
    spec: fn() -> ScenarioSpec,
    solver: Solver,
    oracles: &'static [Oracle],
}

/// Which engine backend runs a row, with what it needs.
#[derive(Clone, Copy)]
enum Solver {
    /// `Backend::Traditional1D` with these numerics.
    Pic1D(Numerics1D),
    /// `Backend::Traditional2D`: CIC, spectral Poisson.
    Pic2D,
    Vlasov,
    /// `Backend::Dl1D` on [`smoke_bundle`].
    Dl1D,
    /// `Backend::Dl2D` on [`model_2d`].
    Dl2D,
}

const FD: PoissonKind = PoissonKind::FiniteDifference;
const SPECTRAL: PoissonKind = PoissonKind::Spectral;
/// The paper's traditional solver: CIC deposit and gather, FD Poisson.
const CIC_FD: Solver = matched(Shape::Cic, FD);

const fn matched(shape: Shape, poisson: PoissonKind) -> Solver {
    Pic1D(Numerics1D {
        gather_shape: shape,
        deposit_shape: shape,
        poisson,
    })
}

/// What a row's run must satisfy.
#[derive(Clone, Copy)]
enum Oracle {
    /// Mode 1 grows at the two-stream rate of linear theory, within
    /// `rel`, on a fit of r² ≥ `r2`.
    Growth { rel: f64, r2: f64 },
    /// Mode 1 peaks below `k ×` its floor (the first ten samples): no
    /// exponential growth out of the noise.
    Stable(f64),
    /// Mode 1 peaks above `k ×` its floor (the first five samples).
    Grows(f64),
    /// No momentum sample drifts `max_drift` or more from the first.
    Momentum(f64),
    /// The total energy's relative variation stays below this.
    Energy(f64),
    /// Every total energy lies strictly between `lo` and `hi` times the
    /// first.
    EnergyBand(f64, f64),
    /// The field energy peaks above this share of the initial total.
    FieldShare(f64),
    /// The Landau root: [`fit_damping`]'s γ and ω within these relative
    /// errors of theory.
    Damping { gamma: f64, omega: f64 },
    /// Every recorded value is finite (a non-finite field would show in
    /// the field energy).
    Finite,
    /// Particles stay in the box, every speed below `vmax`.
    PhaseSpace { vmax: f64 },
}

impl Oracle {
    fn check(self, id: &str, spec: &ScenarioSpec, run: &RunSummary) {
        let h = &run.history;
        let e1 = || h.mode_series(1).expect("mode 1 tracked").values;
        match self {
            Growth { rel, r2 } => {
                let theory = theory_gamma(spec);
                let fit = run.growth_rate(1).unwrap_or_else(|e| panic!("{id}: {e}"));
                let err = (fit.gamma - theory).abs() / theory;
                assert!(
                    err < rel,
                    "{id}: γ = {} vs theory {theory} ({:.1}% off)",
                    fit.gamma,
                    err * 100.0
                );
                assert!(fit.r2 >= r2, "{id}: poor exponential fit, r² = {}", fit.r2);
            }
            Stable(k) => {
                let (floor, peak) = floor_and_peak(&e1(), 10);
                assert!(
                    peak < k * floor,
                    "{id}: stable run grew: floor {floor}, peak {peak}"
                );
            }
            Grows(k) => {
                let (floor, peak) = floor_and_peak(&e1(), 5);
                let floor = floor.max(1e-9);
                assert!(
                    peak > k * floor,
                    "{id}: no growth: floor {floor}, peak {peak}"
                );
            }
            Momentum(bound) => momentum(id, &h.momentum, bound),
            Energy(bound) => {
                let variation = run.energy_variation();
                assert!(variation < bound, "{id}: energy variation {variation}");
            }
            EnergyBand(lo, hi) => {
                let e0 = h.total[0];
                for (i, e) in h.total.iter().enumerate() {
                    assert!(
                        *e > lo * e0 && *e < hi * e0,
                        "{id}: row {i}: energy {e} left [{lo}, {hi}] × {e0}"
                    );
                }
            }
            FieldShare(share) => {
                let peak = stats::max(&h.field);
                assert!(
                    peak / h.total[0] > share,
                    "{id}: field energy peaks at {peak}"
                );
            }
            Damping { gamma, omega } => {
                let fit = damping(run);
                let gamma_err = (fit.gamma - LANDAU_GAMMA).abs() / LANDAU_GAMMA.abs();
                assert!(
                    gamma_err < gamma,
                    "{id}: γ = {} vs {LANDAU_GAMMA}",
                    fit.gamma
                );
                let omega_err = (fit.omega - LANDAU_OMEGA).abs() / LANDAU_OMEGA;
                assert!(
                    omega_err < omega,
                    "{id}: ω = {} vs {LANDAU_OMEGA}",
                    fit.omega
                );
            }
            Finite => assert!(run.all_finite(), "{id}: a non-finite diagnostic"),
            PhaseSpace { vmax } => {
                let ps = run.phase_space.as_ref().expect("a particle backend");
                let lx = box_length(spec);
                assert!(
                    ps.x.iter().all(|x| (0.0..lx).contains(x)),
                    "{id}: particle escaped"
                );
                let fastest = ps.v.iter().fold(0.0f64, |m, v| m.max(v.abs()));
                assert!(fastest < vmax, "{id}: runaway velocities: {fastest}");
            }
        }
    }
}

/// The two-stream growth rate of linear theory on the box's fundamental.
fn theory_gamma(spec: &ScenarioSpec) -> f64 {
    let (v0, _) = spec.species.as_two_stream().expect("a two-beam species");
    TwoStreamDispersion::new(v0).mode_growth_rate(1, box_length(spec))
}

fn box_length(spec: &ScenarioSpec) -> f64 {
    match spec.domain {
        DomainSpec::OneD { length, .. } => length,
        DomainSpec::TwoD { lx, .. } => lx,
    }
}

/// The floor (largest of the first `n` samples) and the peak of `amps`.
fn floor_and_peak(amps: &[f64], n: usize) -> (f64, f64) {
    (stats::max(&amps[..n]), stats::max(amps))
}

/// Momentum conserved: no sample drifts `bound` or more from the first.
fn momentum(id: &str, series: &[f64], bound: f64) {
    let drift = stats::max_drift(series);
    assert!(drift < bound, "{id}: momentum drift {drift}");
}

/// The damping fit of a run's mode-1 envelope.
fn damping(run: &RunSummary) -> DampingFit {
    let e1 = run.history.mode_series(1).expect("mode 1 tracked");
    fit_damping(&e1.times, &e1.values).expect("a damped envelope")
}

fn row(id: &str) -> (usize, &'static Row) {
    let i = ROWS.iter().position(|row| row.id == id);
    let i = i.unwrap_or_else(|| panic!("no row {id}"));
    (i, &ROWS[i])
}

/// Row `id`'s scenario, named by its id.
fn spec(id: &str) -> ScenarioSpec {
    let spec = (row(id).1.spec)();
    ScenarioSpec {
        name: id.into(),
        ..spec
    }
}

/// Row `id`'s run, made at most once per binary.
fn summary(id: &str) -> &'static RunSummary {
    static RUNS: [OnceLock<RunSummary>; ROWS.len()] = [const { OnceLock::new() }; ROWS.len()];
    let (i, row) = row(id);
    RUNS[i].get_or_init(|| {
        let (mut engine, backend) = match row.solver {
            Pic1D(n) => (Engine::new().with_numerics_1d(n), Backend::Traditional1D),
            Pic2D => (Engine::new(), Backend::Traditional2D),
            Vlasov => (Engine::new(), Backend::Vlasov),
            Dl1D => (
                Engine::new().with_model_1d(smoke_bundle().clone()),
                Backend::Dl1D,
            ),
            Dl2D => (
                Engine::new().with_model_2d(model_2d().clone()),
                Backend::Dl2D,
            ),
        };
        engine
            .run(&spec(id), backend)
            .unwrap_or_else(|e| panic!("{id}: {e}"))
    })
}

fn check(id: &str) {
    let spec = spec(id);
    let run = summary(id);
    for oracle in row(id).1.oracles {
        oracle.check(id, &spec, run);
    }
}

// ---------------------------------------------------------------------
// The rows' scenarios.
// ---------------------------------------------------------------------

/// The paper's 1-D box (64 cells, Δt = 0.2) with `ppc` randomly loaded
/// two-stream particles per cell.
fn pic_1d(v0: f64, vth: f64, ppc: usize, n_steps: usize, seed: u64) -> ScenarioSpec {
    ScenarioSpec {
        name: String::new(),
        domain: DomainSpec::paper_1d(),
        species: SpeciesSpec::TwoStream { v0, vth },
        loading: LoadingSpec::Random,
        scale: Scale::Smoke,
        ppc,
        dt: 0.2,
        n_steps,
        seed,
        tracked_modes: vec![1, 2, 3],
    }
}

/// The paper's full-scale run: 1000 particles per cell, 200 steps.
fn paper(v0: f64, vth: f64, seed: u64) -> ScenarioSpec {
    pic_1d(v0, vth, 1000, 200, seed)
}

/// A cold quiet start: a deterministic mode-1 displacement excites
/// exactly the mode being fitted, so the measured slope is the linear
/// rate rather than the transient of one shot-noise realization.
fn quiet_1d(v0: f64) -> ScenarioSpec {
    let quiet = LoadingSpec::Quiet {
        mode: 1,
        amplitude: 1e-4,
    };
    ScenarioSpec {
        loading: quiet,
        ..pic_1d(v0, 0.0, 400, 200, 7)
    }
}

fn momentum_1d() -> ScenarioSpec {
    pic_1d(0.2, 0.025, 250, 100, 5)
}

fn momentum_spectral() -> ScenarioSpec {
    ScenarioSpec {
        tracked_modes: vec![1],
        ..pic_1d(0.2, 0.025, 100, 100, 5)
    }
}

/// An `n × n` box one fundamental wavelength (2.0532) a side, 64 quiet
/// particles per cell displaced by `amplitude` on mode `(1, 0)`.
fn box_2d(n: usize, v0: f64, vth: f64, amplitude: f64, n_steps: usize, seed: u64) -> ScenarioSpec {
    ScenarioSpec {
        domain: DomainSpec::TwoD {
            nx: n,
            ny: n,
            lx: 2.0532,
            ly: 2.0532,
        },
        loading: LoadingSpec::Quiet { mode: 1, amplitude },
        tracked_modes: vec![1],
        ..pic_1d(v0, vth, 64, n_steps, seed)
    }
}

/// The continuum solver's two-stream run: the scaled 64×256 phase grid,
/// Δt = 0.05, a 1e-3 mode-1 density seed.
fn vlasov(v0: f64, n_steps: usize) -> ScenarioSpec {
    ScenarioSpec {
        scale: Scale::Scaled,
        dt: 0.05,
        tracked_modes: vec![1],
        ..pic_1d(v0, 0.02, 2, n_steps, 0)
    }
}

/// A single Maxwellian at `k·λ_D = 0.5` on the paper-scale 64×512 phase
/// grid, to t = 35.
fn landau() -> ScenarioSpec {
    ScenarioSpec {
        species: SpeciesSpec::Maxwellian { vth: landau_vth() },
        scale: Scale::Paper,
        dt: 0.025,
        ..vlasov(0.0, (35.0 / 0.025) as usize)
    }
}

fn landau_vth() -> f64 {
    0.5 / Grid1D::paper().mode_wavenumber(1)
}

// ---------------------------------------------------------------------
// The trained models, each recipe trained once per binary.
// ---------------------------------------------------------------------

/// The smoke-scale MLP of the 1-D DL rows, passed through its deployment
/// path: bundle, encode, decode.
fn smoke_bundle() -> &'static ModelBundle {
    static BUNDLE: OnceLock<ModelBundle> = OnceLock::new();
    BUNDLE.get_or_init(|| {
        let scale = Scale::Smoke;
        let mut cfg = GeneratorConfig::new(SweepSpec::training_for(scale), scale.phase_spec());
        cfg.ppc = scale.dataset_ppc();
        let data = generate(&cfg);
        let norm = data.input_norm_stats();
        let arch = scale.mlp_arch();
        let mut net = arch.build(11);
        let mut opt = Adam::new(scale.learning_rate());
        let tc = TrainConfig {
            epochs: 25,
            batch_size: 64,
            shuffle_seed: 2,
            log_every: 0,
        };
        let nn_data = data.to_nn_dataset(&norm, arch.input_kind());
        train(&mut net, &Mse, &mut opt, &nn_data, None, &tc);
        let reference_mass: f32 = data.input_row(0).iter().sum();
        let bundle =
            ModelBundle::from_network(&mut net, arch, scale.phase_spec(), BinningShape::Ngp, norm)
                .with_reference_mass(reference_mass);
        ModelBundle::decode(&bundle.encode()).expect("bundle round trip")
    })
}

/// The 16×16 grid of the 2-D DL runs.
fn grid_16() -> Grid2D {
    Grid2D::new(16, 16, 2.0532, 2.0532)
}

/// Harvests the cold quiet two-stream run of each seed on [`grid_16`]
/// (CIC density rows after each step), then trains a 256→128→512 MLP on
/// them with Adam at 1e-3, batch 32, for `epochs` epochs seeded by
/// `train_seed`, and freezes it.
fn train_2d(seeds: &[u64], n_steps: usize, epochs: usize, train_seed: u64) -> FrozenBundle<Grid2D> {
    let g = grid_16();
    let mut data = PhaseDataset::new(g.clone(), DensityBinning::Cic, 2 * g.nodes());
    for &seed in seeds {
        let cfg = sim_config_2d(g.clone(), 0.2, 0.0, 1e-3, n_steps, seed);
        harvest(
            cfg,
            TraditionalSolver::default_config(),
            Capture::AfterStep,
            &mut data,
        );
    }
    let tc = TrainConfig {
        epochs,
        batch_size: 32,
        shuffle_seed: train_seed,
        ..TrainConfig::default()
    };
    let trained = fit(&arch_2d(g.nodes(), vec![128]), &data, &Mse, None, 1e-3, &tc);
    let final_loss = trained.history.final_loss().unwrap();
    assert!(final_loss.is_finite() && final_loss > 0.0);
    trained
        .freeze(DensityBinning::Cic, "dl-2d-mlp", Precision::F32)
        .expect("a finite MLP freezes")
}

/// The model of the 2-D DL row: three seeds of the validation run (the
/// paper's augmentation by seed, at test size); the row runs a fourth.
fn model_2d() -> &'static FrozenBundle<Grid2D> {
    static MODEL: OnceLock<FrozenBundle<Grid2D>> = OnceLock::new();
    MODEL.get_or_init(|| train_2d(&[1, 2, 3], 160, 60, 7))
}

// ---------------------------------------------------------------------
// Claims over two rows.
// ---------------------------------------------------------------------

#[test]
fn vlasov_and_pic_measure_the_same_growth_rate() {
    let [vlasov, pic] =
        ["vlasov_growth", "warm_two_stream_growth"].map(|id| summary(id).growth_rate(1).unwrap());
    let theory = theory_gamma(&spec("vlasov_growth"));
    let cross = (vlasov.gamma - pic.gamma).abs() / theory;
    assert!(
        cross < 0.15,
        "solvers disagree: vlasov {} vs pic {}",
        vlasov.gamma,
        pic.gamma
    );
    // The continuum run must fit more cleanly (no shot noise).
    assert!(vlasov.r2 >= pic.r2 - 0.01, "vlasov fit unexpectedly noisy");
}

#[test]
fn growth_rate_orders_with_drift_as_theory_does() {
    // At v0 = 0.15, mode 1 has k·v0 = 0.459: off the optimum, slower.
    let [slow, fast] = ["quiet_growth_v015", "quiet_growth_v020"].map(|id| {
        let gamma = summary(id).growth_rate(1).map_or(0.0, |fit| fit.gamma);
        (gamma, theory_gamma(&spec(id)))
    });
    assert!((fast.1 - 0.3536).abs() < 1e-3, "theory value sanity");
    assert!(slow.1 < fast.1, "theory ordering sanity");
    assert!(
        slow.0 < fast.0,
        "γ(0.15) = {} should be < γ(0.2) = {}",
        slow.0,
        fast.0
    );
}

#[test]
fn cold_beam_heating_is_ngp_specific() {
    // NGP heats a linearly stable cold two-beam system; CIC at the same
    // resolution heats less (by t = 40).
    let [ngp, cic] = ["cold_beam_ngp", "cold_beam_cic"].map(|id| {
        let total = &summary(id).history.total;
        (total[total.len() - 1] - total[0]) / total[0]
    });
    assert!(ngp > 0.002, "NGP cold-beam heating missing: {ngp}");
    assert!(cic < ngp, "CIC should heat less than NGP: {cic} vs {ngp}");
}

#[test]
fn mismatched_shapes_break_momentum_conservation() {
    // Gathering CIC against an NGP deposit exerts a net self-force: the
    // drift the matched pair keeps at round-off becomes visible.
    let [matched, mismatched] =
        ["momentum_cic_fd", "momentum_mismatched"].map(|id| summary(id).momentum_drift());
    assert!(matched < 1e-10, "matched shapes drift {matched}");
    assert!(
        mismatched > 1e-8,
        "expected visible drift, got {mismatched}"
    );
}

#[test]
fn dl_and_traditional_share_the_simulation_harness() {
    // One spec drives both solvers (Fig. 2: only the field solver
    // changes), so the histories are structurally identical.
    let (dl, trad) = (summary("dl_harness"), summary("traditional_harness"));
    assert_eq!(dl.history.len(), trad.history.len());
    assert_eq!(dl.history.times, trad.history.times);
    assert_eq!(
        (dl.backend.as_str(), trad.backend.as_str()),
        ("dl-1d", "traditional-1d")
    );
}

#[test]
fn damping_rate_converges_with_velocity_resolution() {
    // Coarser velocity grids damp more (residual numerical diffusion);
    // the error must shrink as the grid refines. The engine sizes the
    // velocity grid by scale, so the coarse run is direct.
    let vth = landau_vth();
    let cfg = VlasovConfig {
        grid: Grid1D::paper(),
        nv: 128,
        vmax: 6.0 * vth,
        dt: 0.025,
        v0: 0.0,
        vth,
        perturbation: 1e-3,
    };
    let mut solver = VlasovSolver::new(cfg);
    let (mut times, mut e1) = (Vec::new(), Vec::new());
    for _ in 0..landau().n_steps {
        times.push(solver.time());
        e1.push(solver.field_mode(1));
        solver.step();
    }
    let coarse = fit_damping(&times, &e1).expect("a damped envelope").gamma;
    let fine = damping(summary("landau_damping")).gamma;
    let (err_coarse, err_fine) = ((coarse - LANDAU_GAMMA).abs(), (fine - LANDAU_GAMMA).abs());
    assert!(
        err_fine <= err_coarse + 1e-4,
        "refinement did not help: {err_coarse} → {err_fine}"
    );
}

// ---------------------------------------------------------------------
// Direct checks of what the facade does not expose.
// ---------------------------------------------------------------------

#[test]
fn vlasov_initial_field_matches_gauss_law_exactly() {
    // f = (1 + ε·cos(k₁x))·g(v) ⇒ ρ = −ε·cos(k₁x) ⇒ |E₁| = ε/k₁.
    let expect = 1e-3 / 3.06;
    let measured = summary("vlasov_conservation").history.mode_amps[0][0];
    assert!(
        (measured - expect).abs() / expect < 0.01,
        "E1 = {measured}, Gauss law says {expect}"
    );
}

#[test]
fn vlasov_conserves_mass() {
    let mut s = VlasovSolver::new(VlasovConfig {
        grid: Grid1D::paper(),
        nv: 256,
        vmax: 0.8,
        dt: 0.05,
        v0: 0.2,
        vth: 0.02,
        perturbation: 1e-3,
    });
    let m0 = s.mass();
    s.run(400); // through saturation
    assert!(
        (s.mass() - m0).abs() / m0 < 1e-4,
        "mass: {m0} -> {}",
        s.mass()
    );
}

/// A `PicConfig` equal to what the engine builds from [`box_2d`].
fn sim_config_2d(
    grid: Grid2D,
    v0: f64,
    vth: f64,
    amp: f64,
    n_steps: usize,
    seed: u64,
) -> PicConfig<Grid2D> {
    let n_particles = 64 * grid.nodes();
    PicConfig {
        grid,
        init: Some(TwoStream2DInit::quiet(v0, vth, n_particles, amp, seed)),
        dt: 0.2,
        n_steps,
        gather_shape: Shape::Cic,
        tracked_modes: vec![(1, 0), (0, 1)],
    }
}

fn run_2d(v0: f64, vth: f64, n_steps: usize, seed: u64) -> Simulation<Grid2D> {
    let grid = Grid2D::new(32, 32, 2.0532, 2.0532);
    let cfg = sim_config_2d(grid, v0, vth, 1e-4, n_steps, seed);
    let mut sim = Simulation::new(cfg, Box::new(TraditionalSolver::<Grid2D>::default_config()));
    sim.run();
    sim
}

#[test]
fn transverse_modes_stay_quiet() {
    // Nothing in the initial state couples to ky ≠ 0; the (0, 1) mode must
    // stay at shot-noise level while (1, 0) grows by orders of magnitude.
    let sim = run_2d(0.2, 0.0, 150, 13);
    let h = sim.history();
    let streaming = h.mode_series((1, 0)).unwrap().values;
    let transverse = h.mode_series((0, 1)).unwrap().values;
    let growth = streaming.last().unwrap() / streaming.first().unwrap().max(1e-300);
    assert!(growth > 50.0, "two-stream mode barely grew: ×{growth}");
    let (max_transverse, max_streaming) = (stats::max(&transverse), stats::max(&streaming));
    assert!(
        max_transverse < 0.05 * max_streaming,
        "transverse mode grew: {max_transverse} vs streaming {max_streaming}"
    );
}

#[test]
fn two_stream_2d_conserves_y_momentum() {
    // The y half of the `two_stream_2d_conservation` row.
    let sim = run_2d(0.2, 0.025, 200, 17);
    momentum("two_stream_2d y", &sim.history().momentum_y, 1e-8);
}

#[test]
fn momentum_is_conserved_for_every_shape_2d() {
    // The engine's 2-D backend deposits CIC only; the other shapes run
    // the driver directly.
    for shape in [Shape::Ngp, Shape::Cic, Shape::Tsc] {
        let cfg = PicConfig {
            grid: grid_16(),
            init: Some(TwoStream2DInit::random(0.2, 0.025, 8_192, 5)),
            dt: 0.2,
            n_steps: 100,
            gather_shape: shape,
            tracked_modes: vec![(1, 0)],
        };
        let solver = TraditionalSolver::<Grid2D>::new(shape, SPECTRAL, 1.0);
        let mut sim = Simulation::new(cfg, Box::new(solver));
        sim.run();
        let h = sim.history();
        momentum(&format!("2-D {shape:?} x"), &h.momentum, 1e-9);
        momentum(&format!("2-D {shape:?} y"), &h.momentum_y, 1e-9);
    }
}

#[test]
fn dl_2d_field_error_is_small_against_traditional() {
    // Train on two seeds, compare predicted vs Poisson fields along a
    // trajectory from a third seed — the 2-D analogue of Table I's MAE.
    let g = grid_16();
    let mut solver = train_2d(&[5, 6], 120, 50, 3).solver();
    let cfg = sim_config_2d(g.clone(), 0.2, 0.0, 1e-3, 120, 42);
    let mut sim = Simulation::new(cfg, Box::new(TraditionalSolver::<Grid2D>::default_config()));
    let (mut abs_err_sum, mut count, mut field_scale) = (0.0f64, 0usize, 0.0f64);
    for step in 0..120 {
        sim.step();
        if step % 10 != 0 {
            continue;
        }
        // Both fields are `[Ex | Ey]` stacked.
        let mut e_dl = vec![0.0; 2 * g.nodes()];
        solver.solve(sim.particles(), &g, &mut e_dl);
        for (a, b) in e_dl.iter().zip(sim.efield()) {
            abs_err_sum += (a - b).abs();
            field_scale = field_scale.max(b.abs());
            count += 1;
        }
    }
    let mae = abs_err_sum / count as f64;
    // Paper Table I: MAE ≈ 2% of the max field. The shrunken 2-D model is
    // given more headroom; the point is order-of-magnitude fidelity.
    assert!(
        mae < 0.15 * field_scale,
        "2-D DL MAE {mae} too large vs field scale {field_scale}"
    );
}

#[test]
fn dl_solver_predictions_are_deterministic() {
    let bundle = smoke_bundle();
    let grid = Grid1D::paper();
    let p = TwoStreamInit::random(0.2, 0.0, 2_000, 3).build(&grid);
    let fields = [0, 1].map(|_| {
        let mut e = grid.zeros();
        bundle.freeze().unwrap().solver().solve(&p, &grid, &mut e);
        e
    });
    assert_eq!(fields[0], fields[1]);
}
