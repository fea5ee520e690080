//! **§VII distributed-memory discussion** — the paper argues the DL field
//! solver "does not need communication when running … on distributed
//! memory systems as all neural networks can be loaded on each process",
//! unlike the traditional method's global linear system. This binary puts
//! numbers on that claim: it runs the domain-decomposed PIC
//! (`dlpic-ddecomp`) under both field-solve strategies at 1–8 ranks and
//! tabulates the *measured* per-step communication volume by traffic
//! class, plus wall-time per step.
//!
//! What the table shows (and the paper's prose predicts):
//!
//! * **gather/scatter** (traditional): field-solve bytes grow linearly
//!   with both grid size and rank count; deposition halos add a small
//!   constant per rank.
//! * **replicated-DL**: the only field-solve traffic is the fixed-size
//!   histogram all-reduce — independent of the particle count and the
//!   field-grid size; there is *no* E-field exchange at all.
//! * **migration** is common to both and dominated by physics
//!   (beam speed), not by the solver choice.
//!
//! Run: `cargo run -p dlpic-bench --release --bin perf_dist [--scale ...]`

use dlpic_analytics::series::Table;
use dlpic_bench::{get_or_train_mlp, out_dir, Cli};
use dlpic_core::builder::ArchSpec;
use dlpic_core::field_solver::FrozenBundle;
use dlpic_core::normalize::NormStats;
use dlpic_core::phase_space::BinningShape;
use dlpic_core::presets::Scale;
use dlpic_ddecomp::sim::{DistConfig, DistSimulation};
use dlpic_ddecomp::strategy::{DistFieldStrategy, GatherScatter, ReplicatedDl};
use dlpic_nn::frozen::Precision;
use dlpic_pic::grid::Grid1D;
use dlpic_pic::init::TwoStreamInit;
use dlpic_pic::shape::Shape;
use std::time::Instant;

fn sizing(scale: Scale) -> (usize, usize) {
    // (particles, steps)
    match scale {
        Scale::Smoke => (8_000, 20),
        Scale::Scaled => (64_000, 100),
        Scale::Paper => (64_000, 200),
    }
}

fn config(n_ranks: usize, n_part: usize, n_steps: usize) -> DistConfig {
    config_on(Grid1D::paper(), n_ranks, n_part, n_steps)
}

fn config_on(grid: Grid1D, n_ranks: usize, n_part: usize, n_steps: usize) -> DistConfig {
    DistConfig {
        grid,
        init: TwoStreamInit::quiet(0.2, 0.025, n_part, 1e-3, 11),
        dt: 0.2,
        n_steps,
        gather_shape: Shape::Cic,
        n_ranks,
        tracked_modes: vec![1],
    }
}

struct RunResult {
    strategy: &'static str,
    n_ranks: usize,
    field_bytes_per_step: f64,
    halo_bytes_per_step: f64,
    migrate_bytes_per_step: f64,
    total_bytes_per_step: f64,
    ms_per_step: f64,
}

fn run(
    n_ranks: usize,
    n_part: usize,
    n_steps: usize,
    make: impl Fn() -> Box<dyn DistFieldStrategy>,
) -> RunResult {
    let mut sim = DistSimulation::new(config(n_ranks, n_part, n_steps), make());
    let start = Instant::now();
    sim.run();
    let elapsed = start.elapsed().as_secs_f64();
    let phases = sim.comm_phases();
    let by = |names: &[&str]| -> f64 {
        phases
            .iter()
            .filter(|(p, _)| names.contains(p))
            .map(|(_, s)| s.bytes)
            .sum::<u64>() as f64
            / (n_steps + 1) as f64 // +1: the initial field solve
    };
    RunResult {
        strategy: sim.strategy_name(),
        n_ranks,
        field_bytes_per_step: by(&["rho-gather", "e-scatter", "hist-reduce", "hist-bcast"]),
        halo_bytes_per_step: by(&["deposit-halo"]),
        migrate_bytes_per_step: by(&["migration"]),
        total_bytes_per_step: sim.comm_stats().bytes as f64 / (n_steps + 1) as f64,
        ms_per_step: elapsed * 1e3 / n_steps as f64,
    }
}

fn main() {
    let cli = Cli::parse();
    let (n_part, n_steps) = sizing(cli.scale);
    println!(
        "== §VII distributed-memory: communication per step [{} scale: {n_part} particles, {n_steps} steps] ==\n",
        cli.scale.name()
    );

    // The DL strategy runs the real trained model of the 1-D experiments
    // so its histogram size matches the published pipeline.
    let frozen = get_or_train_mlp(cli.scale, cli.retrain, true)
        .freeze()
        .expect("the 1-D MLP freezes");
    let hist_cells = cli.scale.phase_spec().cells();
    eprintln!("model loaded ({hist_cells}-bin histogram all-reduce)\n");

    let mut results = Vec::new();
    for n_ranks in [1usize, 2, 4, 8] {
        eprintln!("ranks = {n_ranks}: gather-scatter...");
        results.push(run(n_ranks, n_part, n_steps, || {
            Box::new(GatherScatter::new(Shape::Cic, 1.0))
        }));
        eprintln!("ranks = {n_ranks}: replicated-dl...");
        results.push(run(n_ranks, n_part, n_steps, || {
            Box::new(ReplicatedDl::new(frozen.solver()))
        }));
    }

    let mut table = Table::new(&[
        "strategy",
        "ranks",
        "field B/step",
        "halo B/step",
        "migrate B/step",
        "total B/step",
        "ms/step",
    ]);
    for r in &results {
        table.row(&[
            r.strategy.into(),
            r.n_ranks.to_string(),
            format!("{:.0}", r.field_bytes_per_step),
            format!("{:.0}", r.halo_bytes_per_step),
            format!("{:.0}", r.migrate_bytes_per_step),
            format!("{:.0}", r.total_bytes_per_step),
            format!("{:.2}", r.ms_per_step),
        ]);
    }
    println!("{}", table.render());

    println!("notes:");
    println!(
        "  - replicated-dl field traffic = 2·(R−1)·{hist_cells} words \
         (histogram reduce + broadcast), zero E-field exchange;"
    );
    println!(
        "  - gather-scatter field traffic = (R−1)·ncells + R·(ncells/R + 4) \
         words and keeps growing with the grid;"
    );
    println!(
        "  - ms/step times R ranks serially in one process; divide by R \
         for the per-rank compute a real machine would see."
    );

    let path = out_dir().join(format!("perf-dist-{}.csv", cli.scale.name()));
    let csv = table.to_csv();
    std::fs::write(&path, csv).expect("write csv");
    println!("\ntable written to {}", path.display());

    // Second sweep: where the §VII claim pays off. At the paper's 64-cell
    // 1-D grid the fixed histogram all-reduce can *exceed* the field
    // exchange; the DL advantage is asymptotic — the grid grows with the
    // physics while the histogram does not. Sweep the grid at fixed
    // ranks until the crossover shows.
    println!("\n== field-solve traffic vs grid size (4 ranks) ==\n");
    let mut sweep = Table::new(&[
        "ncells",
        "gather-scatter field B/step",
        "replicated-dl field B/step",
        "winner",
    ]);
    let sweep_steps = 10usize;
    for ncells in [64usize, 128, 256, 512, 1024, 2048, 4096, 8192] {
        let field_bytes = |dl: bool| -> f64 {
            let cfg = config_on(Grid1D::new(ncells, 2.0532), 4, 8_000, sweep_steps);
            let strat: Box<dyn DistFieldStrategy> = if dl {
                // Width-matched network per grid size (untrained is fine:
                // the traffic does not depend on the weights, only on the
                // histogram geometry, which stays that of the real model).
                let spec = cli.scale.phase_spec();
                let arch = ArchSpec::Mlp {
                    input: spec.cells(),
                    hidden: vec![16],
                    output: ncells,
                };
                let frozen = FrozenBundle::from_network(
                    &arch.build(0),
                    (spec, BinningShape::Ngp),
                    NormStats::identity(),
                    "dl-mlp",
                    Precision::F32,
                )
                .expect("an MLP freezes");
                Box::new(ReplicatedDl::new(frozen.solver()))
            } else {
                Box::new(GatherScatter::new(Shape::Cic, 1.0))
            };
            let mut sim = DistSimulation::new(cfg, strat);
            sim.run();
            sim.comm_phases()
                .iter()
                .filter(|(p, _)| {
                    ["rho-gather", "e-scatter", "hist-reduce", "hist-bcast"].contains(p)
                })
                .map(|(_, s)| s.bytes)
                .sum::<u64>() as f64
                / (sweep_steps + 1) as f64
        };
        let gs = field_bytes(false);
        let dl = field_bytes(true);
        sweep.row(&[
            ncells.to_string(),
            format!("{gs:.0}"),
            format!("{dl:.0}"),
            if dl < gs {
                "replicated-dl"
            } else {
                "gather-scatter"
            }
            .into(),
        ]);
    }
    println!("{}", sweep.render());
    let sweep_path = out_dir().join(format!("perf-dist-sweep-{}.csv", cli.scale.name()));
    std::fs::write(&sweep_path, sweep.to_csv()).expect("write csv");
    println!("sweep written to {}", sweep_path.display());
}
