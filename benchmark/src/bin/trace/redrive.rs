//! The traced re-drives: each workload's inputs driven through the
//! layers' public functions with a span at every layer boundary.
//!
//! A re-drive that is given the window runs with the tracer off and on
//! in alternation (the difference is the tracing overhead); one that is
//! not runs traced, just often enough for the statistics it reports.
//! Each checks that it reproduced the facade's history bit for bit (so
//! the spans time the program the end-to-end run times) and turns its
//! spans into per-layer metrics.
//!
//! Span trees: `run` → `step` → {`step_prepare`, `infer_batch`,
//! `step_apply`} (DL session) or {`pre_solve`, `solve`} (traditional);
//! `run` → `wave` → {`prepare`, `infer`, `apply`} (fleet); `job` →
//! {`submit`, `watch`, `results`} (served).

use std::time::Instant;

use dlpic_benchmark::metrics::Workload;
use dlpic_benchmark::served::{run_job, Daemon, Reference};
use dlpic_benchmark::spans::{durations_us, Span, Tracer};
use dlpic_benchmark::stats::{median, supported_percentile, tail};
use dlpic_benchmark::workloads::{
    fleet_job, job_steps, max_parallel, served_connections, served_job, small_job, solo_backend,
    solo_spec, two_stream_physics, Tally, FLEET_RUNS, SMALL_TENANTS,
};
use dlpic_repro::core::{FrozenBundle, ModelBundle};
use dlpic_repro::engine::json::Json;
use dlpic_repro::engine::{Backend, DomainSpec, EnergyHistory, Engine, RunSummary, ScenarioSpec};
use dlpic_repro::pic::solver::PoissonKind;
use dlpic_repro::pic::{
    FieldSolver, Grid1D, History, Loading, PicConfig, Shape, Simulation, TraditionalSolver,
    TwoStreamInit,
};

use crate::{probes, Values};

/// What the traced pass shares between sections.
pub struct Ctx {
    pub seed: u64,
    pub epoch: Instant,
    pub bundle: ModelBundle,
    pub frozen: FrozenBundle,
}

impl Ctx {
    fn dl_engine(&self) -> Engine {
        Engine::new().with_model_1d(self.bundle.clone())
    }
}

/// One re-drive: wall seconds per pass with the tracer on and — when it
/// had the window — off, and the spans of the traced passes.
pub struct Section {
    pub untraced_s: Vec<f64>,
    pub traced_s: Vec<f64>,
    pub spans: Vec<Span>,
    /// The span whose children should account for it (`trace.coverage_pct`).
    pub covered: &'static str,
}

/// Runs `pass` traced `passes` times; or, given a window, alternately
/// untraced and traced (swapping which goes first) until the window is
/// over and at least `passes` pairs are done.
fn drive(
    ctx: &Ctx,
    window_s: Option<f64>,
    passes: usize,
    covered: &'static str,
    mut pass: impl FnMut(&mut Tracer),
) -> Section {
    let mut on = Tracer::new(true, ctx.epoch);
    let mut off = Tracer::new(false, ctx.epoch);
    let (mut untraced_s, mut traced_s) = (Vec::new(), Vec::new());
    let start = Instant::now();
    let mut round = 0;
    while round < passes || window_s.is_some_and(|s| start.elapsed().as_secs_f64() < s) {
        let order: &[bool] = match (window_s, round % 2) {
            (None, _) => &[true],
            (Some(_), 0) => &[false, true],
            (Some(_), _) => &[true, false],
        };
        for &traced in order {
            let (tracer, wall) = if traced {
                (&mut on, &mut traced_s)
            } else {
                (&mut off, &mut untraced_s)
            };
            tracer.set_run(round as u32);
            let t0 = Instant::now();
            pass(tracer);
            wall.push(t0.elapsed().as_secs_f64());
        }
        round += 1;
    }
    Section {
        untraced_s,
        traced_s,
        spans: on.into_spans(),
        covered,
    }
}

fn median_us(spans: &[Span], name: &str) -> f64 {
    median(&durations_us(spans, name))
}

/// The `pic::Simulation` the engine builds for a 1-D two-stream spec:
/// same grid, same loading, same step — rebuilt from the spec's public
/// fields because the engine's own builders are crate-private.
fn pic_simulation(spec: &ScenarioSpec, solver: Box<dyn FieldSolver>) -> Simulation {
    let DomainSpec::OneD { ncells, length } = spec.domain else {
        panic!("{} is not 1-D", spec.name);
    };
    let grid = Grid1D::new(ncells, length);
    let (v0, vth) = spec.species.as_two_stream().expect("two-stream species");
    let particles = TwoStreamInit {
        v0,
        vth,
        n_particles: spec.n_particles(),
        loading: Loading::Random,
        seed: spec.seed,
    }
    .build(&grid);
    let config = PicConfig {
        grid,
        init: None,
        dt: spec.dt,
        n_steps: spec.n_steps,
        gather_shape: Shape::Cic,
        tracked_modes: spec.tracked_modes.clone(),
    };
    Simulation::from_particles(config, particles, solver)
}

fn paper_traditional_solver() -> Box<dyn FieldSolver> {
    Box::new(TraditionalSolver::new(
        Shape::Cic,
        PoissonKind::FiniteDifference,
        1.0,
    ))
}

/// True when a solver-crate history holds exactly the facade's rows.
fn same_rows(direct: &History, facade: &EnergyHistory) -> bool {
    direct.times == facade.times
        && direct.kinetic == facade.kinetic
        && direct.field == facade.field
        && direct.momentum == facade.momentum
        && direct.mode_amps == facade.mode_amps
}

/// `physics.<kind>_*` of a reference run. A run with no growth phase to
/// fit fails a check and reads as 100 % off, so the result line stays
/// complete.
fn physics(
    spec: &ScenarioSpec,
    reference: &RunSummary,
    kind: &str,
    values: &mut Values,
    tally: &mut Tally,
) {
    let fit = two_stream_physics(spec, reference);
    tally.record(fit.is_some(), || format!("{kind}: no growth phase to fit"));
    values.set(
        format!("physics.{kind}_growth_rel_err"),
        fit.map_or(1.0, |p| p.growth_rel_err),
    );
    values.set(
        format!("physics.{kind}_energy_variation"),
        reference.energy_variation(),
    );
}

/// `solo_trad`: the run at the `pic` level — `step_pre_solve` (fused
/// push + diagnostics) and `TraditionalSolver::solve` under each step —
/// then the facade overhead and the kernel probes at the same shape.
pub fn solo_trad(
    ctx: &Ctx,
    window_s: Option<f64>,
    values: &mut Values,
    tally: &mut Tally,
) -> Section {
    let workload = Workload::SoloTrad;
    let spec = solo_spec(workload, ctx.seed);
    let backend = solo_backend(workload);
    let mut engine = Engine::new();
    let reference = engine.run(&spec, backend).expect("reference run");
    physics(&spec, &reference, "trad", values, tally);

    let section = drive(ctx, window_s, 1, "step", |t| {
        let same = t.span("run", |t| {
            let mut sim = t.span("start", |_| {
                pic_simulation(&spec, paper_traditional_solver())
            });
            for _ in 0..spec.n_steps {
                t.span("step", |t| {
                    t.span("pre_solve", |_| sim.step_pre_solve());
                    t.span("solve", |_| {
                        let (solver, particles, grid, e) = sim.split_for_solve();
                        solver.solve(particles, grid, e);
                    });
                    sim.step_post_solve();
                });
            }
            sim.finish();
            same_rows(sim.history(), &reference.history)
        });
        tally.record(same, || {
            "solo_trad: the pic-level re-drive differs from Engine::run".into()
        });
    });
    values.set("pic.pre_solve_us", median_us(&section.spans, "pre_solve"));
    values.set("pic.solve_us", median_us(&section.spans, "solve"));

    // Facade overhead: the same 200 steps through `Session` and through
    // `pic::Simulation` directly, untraced, alternating.
    let (mut facade_s, mut direct_s) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        let t0 = Instant::now();
        let mut session = engine.start(&spec, backend).expect("start");
        session.run_to_end();
        std::hint::black_box(session.finish());
        facade_s.push(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        let mut sim = pic_simulation(&spec, paper_traditional_solver());
        sim.run();
        std::hint::black_box(sim.history());
        direct_s.push(t0.elapsed().as_secs_f64());
    }
    values.set(
        "engine.session.facade_overhead_pct",
        100.0 * (median(&facade_s) / median(&direct_s) - 1.0),
    );

    let mut sim = pic_simulation(&spec, paper_traditional_solver());
    for _ in 0..spec.n_steps / 4 {
        sim.step();
    }
    probes::particle_kernels(&sim, ctx.frozen.spec(), ctx.bundle.binning, values);
    section
}

/// `solo_dl`: the run as the three facade phases under each step; then
/// whole `Session::step`s for the step percentiles, and the same run at
/// the layer level to split `core` from `pic` and `nn`.
pub fn solo_dl(
    ctx: &Ctx,
    window_s: Option<f64>,
    values: &mut Values,
    tally: &mut Tally,
) -> Section {
    let spec = solo_spec(Workload::SoloDl, ctx.seed);
    let mut engine = ctx.dl_engine();
    let reference = engine.run(&spec, Backend::Dl1D).expect("reference run");
    physics(&spec, &reference, "dl", values, tally);

    let section = drive(ctx, window_s, 1, "step", |t| {
        let same = t.span("run", |t| {
            let mut session = t.span("start", |_| {
                engine.start(&spec, Backend::Dl1D).expect("start")
            });
            let (in_w, out_w) = session.batched_infer_shape().expect("phase-split session");
            let (mut input, mut output) = (vec![0.0f32; in_w], vec![0.0f32; out_w]);
            while !session.is_complete() {
                t.span("step", |t| {
                    t.span("step_prepare", |_| session.step_prepare(&mut input));
                    t.span("infer_batch", |_| {
                        session.infer_batch(&input, 1, &mut output)
                    });
                    t.span("step_apply", |_| session.step_apply(&output));
                });
            }
            t.span("finish", |_| session.finish()).history == reference.history
        });
        tally.record(same, || {
            "solo_dl: the phase re-drive differs from Engine::run".into()
        });
    });
    for (metric, span) in [
        ("engine.session.start_us", "start"),
        ("engine.session.step_prepare_us", "step_prepare"),
        ("engine.session.infer_batch_us", "infer_batch"),
        ("engine.session.step_apply_us", "step_apply"),
        ("engine.session.finish_us", "finish"),
    ] {
        values.set(metric, median_us(&section.spans, span));
    }

    // Whole steps through the facade.
    let mut tracer = Tracer::new(true, ctx.epoch);
    for _ in 0..2 {
        let mut session = engine.start(&spec, Backend::Dl1D).expect("start");
        while !session.is_complete() {
            tracer.span("step", |_| session.step());
        }
    }
    let steps = durations_us(tracer.spans(), "step");
    values.set("engine.session.step_us_p50", median(&steps));
    values.set(
        "engine.session.step_us_p95",
        supported_percentile(&steps, 95.0),
    );

    // The same run below the facade: pic's pre-solve, then core's
    // prepare/apply around nn's inference.
    let mut tracer = Tracer::new(true, ctx.epoch);
    let mut sim = pic_simulation(&spec, Box::new(ctx.frozen.solver()));
    let (in_w, out_w) = {
        let (solver, ..) = sim.split_for_solve();
        let phased = solver.phased().expect("the DL solver is phase-split");
        (phased.input_len(), phased.output_len())
    };
    let (mut input, mut output) = (vec![0.0f32; in_w], vec![0.0f32; out_w]);
    for _ in 0..spec.n_steps {
        tracer.span("pre_solve", |_| sim.step_pre_solve());
        let (solver, particles, grid, e) = sim.split_for_solve();
        let phased = solver.phased().expect("phase-split");
        tracer.span("prepare_input", |_| {
            phased.prepare_input(particles, grid, &mut input)
        });
        tracer.span("infer", |_| phased.infer_batch(&input, 1, &mut output));
        tracer.span("apply_output", |_| phased.apply_output(&output, e));
        sim.step_post_solve();
    }
    sim.finish();
    tally.record(same_rows(sim.history(), &reference.history), || {
        "solo_dl: the layer-level re-drive differs from Engine::run".into()
    });
    values.set(
        "core.prepare_input_us",
        median_us(tracer.spans(), "prepare_input"),
    );
    values.set(
        "core.apply_output_us",
        median_us(tracer.spans(), "apply_output"),
    );
    section
}

/// `solo_trad_2d`: facade-level only, so folding `pic`/`pic2d` into one
/// core cannot break the probe.
pub fn solo_trad_2d(
    ctx: &Ctx,
    window_s: Option<f64>,
    values: &mut Values,
    tally: &mut Tally,
) -> Section {
    let workload = Workload::SoloTrad2d;
    let spec = solo_spec(workload, ctx.seed);
    let backend = solo_backend(workload);
    let mut engine = Engine::new();
    let reference = engine.run(&spec, backend).expect("reference run");
    values.set(
        "physics.trad2d_energy_variation",
        reference.energy_variation(),
    );

    let section = drive(ctx, window_s, 1, "run", |t| {
        let same = t.span("run", |t| {
            let mut session = t.span("start", |_| engine.start(&spec, backend).expect("start"));
            while !session.is_complete() {
                t.span("step", |_| session.step());
            }
            t.span("finish", |_| session.finish()).history == reference.history
        });
        tally.record(same, || {
            "solo_trad_2d: the re-drive differs from Engine::run".into()
        });
    });
    let steps = durations_us(&section.spans, "step");
    values.set("pic2d.step_us_p50", median(&steps));
    values.set("pic2d.step_us_p90", supported_percentile(&steps, 90.0));
    values.set(
        "pic2d.particle_steps_per_s",
        spec.n_particles() as f64 / (median(&steps) / 1e6),
    );
    section
}

/// `fleet_dl`: every wave as its three phases over the sixteen sessions
/// (one 16-row inference through the first member); then the product's
/// own `step_wave` for the wave percentiles and `run_to_end` at one and
/// `min(nproc, 2)` threads for the multi-core ratio.
pub fn fleet_dl(
    ctx: &Ctx,
    window_s: Option<f64>,
    values: &mut Values,
    tally: &mut Tally,
) -> Section {
    let specs = fleet_job(ctx.seed).expand().expect("fleet expands");
    let total_steps: usize = specs.iter().map(|s| s.n_steps).sum();
    let engine = ctx.dl_engine();
    let threads = max_parallel();

    // Untraced: the end-to-end op at both thread counts.
    let (mut single_s, mut multi_s) = (Vec::new(), Vec::new());
    let mut reference = Vec::new();
    for _ in 0..3 {
        for (n, wall) in [(1, &mut single_s), (threads, &mut multi_s)] {
            let mut fleet = engine
                .start_ensemble(&specs, Backend::Dl1D)
                .expect("start fleet");
            let t0 = Instant::now();
            fleet.run_to_end(n);
            wall.push(t0.elapsed().as_secs_f64());
            reference = fleet.finish().into_iter().map(|s| s.history).collect();
        }
    }
    let single = total_steps as f64 / median(&single_s);
    let multi = total_steps as f64 / median(&multi_s);
    values.set("engine.ensemble.steps_per_s_1t", single);
    values.set("engine.ensemble.steps_per_s_mt", multi);
    values.set("engine.ensemble.mt_speedup", multi / single);

    let section = drive(ctx, window_s, 1, "wave", |t| {
        let same = t.span("run", |t| {
            let mut fleet = t.span("start", |_| {
                engine
                    .start_ensemble(&specs, Backend::Dl1D)
                    .expect("start fleet")
            });
            let rows = fleet.len();
            let (in_w, out_w) = fleet
                .session_mut(0)
                .batched_infer_shape()
                .expect("phase-split");
            let (mut input, mut output) = (vec![0.0f32; rows * in_w], vec![0.0f32; rows * out_w]);
            while !fleet.is_complete() {
                t.span("wave", |t| {
                    t.span("prepare", |_| {
                        for (i, row) in input.chunks_mut(in_w).enumerate() {
                            fleet.session_mut(i).step_prepare(row);
                        }
                    });
                    t.span("infer", |_| {
                        fleet.session_mut(0).infer_batch(&input, rows, &mut output)
                    });
                    t.span("apply", |_| {
                        for (i, row) in output.chunks(out_w).enumerate() {
                            fleet.session_mut(i).step_apply(row);
                        }
                    });
                });
            }
            let histories: Vec<EnergyHistory> =
                fleet.finish().into_iter().map(|s| s.history).collect();
            histories == reference
        });
        tally.record(same, || {
            "fleet_dl: the phase re-drive differs from run_to_end".into()
        });
    });
    let phases: f64 = ["prepare", "infer", "apply"]
        .into_iter()
        .map(|name| median_us(&section.spans, name))
        .sum();
    values.set(
        "engine.ensemble.start_s",
        median_us(&section.spans, "start") / 1e6,
    );
    values.set(
        "engine.ensemble.prepare_us",
        median_us(&section.spans, "prepare"),
    );
    values.set(
        "engine.ensemble.infer_us",
        median_us(&section.spans, "infer"),
    );
    values.set(
        "engine.ensemble.apply_us",
        median_us(&section.spans, "apply"),
    );
    values.set("engine.ensemble.batch_rows", FLEET_RUNS as f64);

    // The product's own wave.
    let mut tracer = Tracer::new(true, ctx.epoch);
    for _ in 0..2 {
        let mut fleet = engine
            .start_ensemble(&specs, Backend::Dl1D)
            .expect("start fleet");
        while tracer.span("wave", |_| fleet.step_wave()) > 0 {}
        tally.record(fleet.faults().is_empty(), || {
            "fleet_dl: step_wave faulted a member".into()
        });
    }
    // The closing call of each loop stepped nothing; leave it out.
    let mut waves = durations_us(tracer.spans(), "wave");
    waves.retain(|us| *us > phases / 100.0);
    let wave_p50 = median(&waves);
    values.set("engine.ensemble.wave_us_p50", wave_p50);
    values.set(
        "engine.ensemble.wave_us_p90",
        supported_percentile(&waves, 90.0),
    );
    values.set(
        "engine.ensemble.wave_overhead_pct",
        100.0 * (wave_p50 - phases) / wave_p50,
    );
    section
}

/// Numbers a served section hands back for the cross-section metrics.
pub struct ServedSummary {
    pub section: Section,
    pub start_ms: f64,
    pub drain_ms: f64,
    /// Session·steps per second of the section's median job.
    pub steps_per_s: f64,
}

/// `served_fleet_dl` / `served_small_jobs`: client-side spans around
/// each op of the closed loop, the daemon's own meters from the public
/// `status` op, and what the spool holds before the drain.
pub fn served(
    ctx: &Ctx,
    workload: Workload,
    window_s: Option<f64>,
    values: &mut Values,
    tally: &mut Tally,
) -> ServedSummary {
    let small = workload == Workload::ServedSmallJobs;
    let seed = ctx.seed;
    let engine_for = || {
        if small {
            Engine::new()
        } else {
            ctx.dl_engine()
        }
    };

    let t0 = Instant::now();
    let daemon = Daemon::start(engine_for()).expect("start daemon");
    let mut clients: Vec<_> = (0..served_connections(workload))
        .map(|_| daemon.connect().expect("connect"))
        .collect();
    let start_ms = t0.elapsed().as_secs_f64() * 1e3;

    let mut reference = Reference::new(workload, seed, engine_for());
    let mut index = 0usize;
    let mut jobs = 0usize;
    let mut results_bytes = Vec::new();
    let mut job_ms = Vec::new();
    // Without the window: eight small jobs, or two fleet jobs.
    let section = drive(ctx, window_s, if small { 4 } else { 2 }, "job", |t| {
        index += 1;
        let enabled = t.is_enabled();
        let epoch = ctx.epoch;
        // One job per connection, concurrently; each connection traces
        // on its own tracer.
        let records: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = clients
                .iter_mut()
                .enumerate()
                .map(|(tenant, client)| {
                    scope.spawn(move || {
                        let mut own = Tracer::new(enabled, epoch);
                        own.set_run((index * SMALL_TENANTS.len() + tenant) as u32);
                        let job = served_job(workload, seed, tenant, index);
                        let record = run_job(client, &mut own, &job, SMALL_TENANTS[tenant]);
                        (job, record, own)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
        for (job, record, own) in records {
            t.absorb(own);
            jobs += 1;
            match record {
                Ok(record) => {
                    reference.verify(&job, &record.results, tally);
                    results_bytes.push(
                        record
                            .results
                            .iter()
                            .map(|r| r.summary.to_compact().len())
                            .sum::<usize>() as f64,
                    );
                    job_ms.push(record.ms);
                }
                Err(e) => tally.record(false, || format!("{}: job lost: {e}", workload.name())),
            }
        }
    });

    // The daemon's own meters, and what a status round trip costs.
    let mut status_ms = Vec::new();
    let mut status = Json::Null;
    for _ in 0..5 {
        let t0 = Instant::now();
        status = clients[0].status(None).expect("status");
        status_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    let number = |doc: &Json, path: &[&str]| -> f64 {
        path.iter()
            .try_fold(doc, |d, key| d.get(key))
            .and_then(|v| v.as_f64().ok())
            .unwrap_or(0.0)
    };
    let stepping_s = number(&status, &["stepping_seconds"]);
    let wall_s: f64 = section.untraced_s.iter().chain(&section.traced_s).sum();
    let (spool_bytes, spool_files) = daemon.spool_usage();
    let drain_ms = daemon.stop(&mut clients[0]).expect("drain daemon");

    let family = if small { "serve.small" } else { "serve.fleet" };
    let prefix = |metric: &str| format!("{family}.{metric}");
    if small {
        let (p, ms) = tail(&job_ms);
        values.set(prefix("job_ms_tail"), ms);
        values.set(prefix("job_ms_tail_pct"), p);
    }
    values.set(
        prefix("submit_ms_p50"),
        median_us(&section.spans, "submit") / 1e3,
    );
    values.set(
        prefix("watch_ms_p50"),
        median_us(&section.spans, "watch") / 1e3,
    );
    values.set(
        prefix("results_ms_p50"),
        median_us(&section.spans, "results") / 1e3,
    );
    values.set(prefix("results_bytes"), median(&results_bytes));
    values.set(prefix("status_ms_p50"), median(&status_ms));
    values.set(prefix("stepping_s_per_job"), stepping_s / jobs as f64);
    values.set(prefix("idle_share"), 1.0 - stepping_s / wall_s);
    values.set(prefix("spool_bytes"), spool_bytes as f64);
    values.set(prefix("spool_files"), spool_files as f64);
    if !small {
        values.set(
            prefix("waves_per_job"),
            number(&status, &["wave_latency", "count"]) / jobs as f64,
        );
        values.set(
            prefix("wave_ms_p50"),
            number(&status, &["wave_latency", "p50_ms"]),
        );
        values.set(
            prefix("wave_ms_p90"),
            number(&status, &["wave_latency", "p90_ms"]),
        );
    }
    ServedSummary {
        section,
        start_ms,
        drain_ms,
        steps_per_s: job_steps(&served_job(workload, seed, 0, 0)) as f64 / (median(&job_ms) / 1e3),
    }
}

/// `engine.session.checkpoint_*`: serialising a session of the
/// small-job shape mid-run — the cost the daemon's spool pays per run.
pub fn checkpoint(ctx: &Ctx, values: &mut Values) {
    let spec = small_job(ctx.seed, 0, 0)
        .expand()
        .expect("job expands")
        .remove(0);
    let mut session = Engine::new()
        .start(&spec, Backend::Traditional1D)
        .expect("start");
    for _ in 0..spec.n_steps / 2 {
        session.step();
    }
    let mut bytes = 0;
    let times: Vec<f64> = (0..50)
        .map(|_| {
            let t0 = Instant::now();
            bytes = std::hint::black_box(session.checkpoint().to_json()).len();
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    values.set("engine.session.checkpoint_us", median(&times));
    values.set("engine.session.checkpoint_bytes", bytes as f64);
}
