//! Single-core step-throughput benchmark: particles·steps/sec for the
//! fig4-scale 1-D and fig6/ext2d-scale 2-D PIC cycles, plus `nn::linalg`
//! matmul GFLOP/s on DL-solver training/inference shapes.
//!
//! The workloads go through `Simulation::step` at `Grid1D` and at `Grid2D` —
//! the exact per-step path the figure binaries and the engine facade
//! drive — so the recorded numbers track the real hot loop, diagnostics
//! included.
//!
//! Usage:
//!
//! * `step_throughput` — full measurement, JSON printed to stdout.
//! * `--out FILE` — also write the raw measurement JSON to `FILE`
//!   (used to capture a baseline before an optimization lands).
//! * `--write-bench BASELINE` — measure, read a previously captured
//!   measurement from `BASELINE`, and write `BENCH_step.json` with
//!   `baseline` + `current` sections and the speedup ratios.
//! * `--quick` — smaller workloads (CI-sized).
//! * `--check` — measure (honours `--quick`), compare against the
//!   committed `BENCH_step.json`, print deltas and exit non-zero on a
//!   throughput regression beyond the tolerance
//!   (`DLPIC_PERF_MAX_REGRESSION`, default 0.25).
//!
//! Committed numbers are machine-specific, so `--check` first rescales
//! them by a calibration anchor — the fixed `matmul_naive` oracle, whose
//! code no kernel optimization touches — measured on both machines.
//! That makes the regression gate compare like with like on CI runners
//! of any speed.

use dlpic_bench::gate::{calibration_gflops, fill, indent_block, json_value_after, median};
use dlpic_core::normalize::NormStats;
use dlpic_core::phase_space::{bin_phase_space, BinningShape, PhaseGridSpec};
use dlpic_nn::linalg::{live_mask, matmul_nn, matmul_nt, matmul_tn, KB};
use dlpic_pic::init::TwoStreamInit;
use dlpic_pic::simulation::{PicConfig, Simulation};
use dlpic_pic::solver::TraditionalSolver;
use dlpic_pic::{Grid1D, Shape};
use dlpic_pic2d::init2d::TwoStream2DInit;
use dlpic_pic2d::{Grid2D, TraditionalSolver2D};
use std::time::Instant;

/// One timed stepping workload.
struct StepResult {
    particles: usize,
    steps: usize,
    seconds: f64,
    throughput: f64,
}

/// GFLOP/s of the four matmul shapes plus the aggregate, and the
/// batch-1 inference shape again on a phase-space input.
struct MatmulResult {
    nn_train: f64,
    tn_grad: f64,
    nt_grad: f64,
    nn_infer: f64,
    total: f64,
    nn_infer_live: LiveResult,
}

/// `nn_infer`'s shape on a histogram input: the share of the weight rows
/// the kernel has to read ([`live_mask`]), the time of one call, and the
/// bandwidth over those live rows alone.
struct LiveResult {
    live_fraction: f64,
    micros: f64,
    live_gbps: f64,
}

struct Measurement {
    calibration: f64,
    step_1d: StepResult,
    step_2d: StepResult,
    matmul: MatmulResult,
}

/// Times `steps` calls of `Simulation::step` on the paper's fig4-scale
/// two-stream workload (64 cells × 1000 ppc, CIC, FD Poisson, three
/// tracked modes). Construction and the final snapshot are excluded.
fn bench_1d(steps: usize, reps: usize) -> StepResult {
    let particles = 64_000;
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let cfg = PicConfig {
                grid: Grid1D::paper(),
                init: Some(TwoStreamInit::random(0.2, 0.025, particles, 9)),
                dt: 0.2,
                n_steps: steps,
                gather_shape: Shape::Cic,
                tracked_modes: vec![1, 2, 3],
            };
            let mut sim = Simulation::new(cfg, Box::new(TraditionalSolver::paper_default()));
            let t0 = Instant::now();
            for _ in 0..steps {
                sim.step();
            }
            let dt = t0.elapsed().as_secs_f64();
            std::hint::black_box(sim.history().len());
            dt
        })
        .collect();
    let seconds = median(times);
    StepResult {
        particles,
        steps,
        seconds,
        throughput: particles as f64 * steps as f64 / seconds,
    }
}

/// Times `steps` calls of `Simulation::<Grid2D>::step` on the ext2d/fig6-scale
/// 2-D workload: 64×64 grid, 16 ppc (65 536 particles), CIC, spectral
/// Poisson, two tracked modes.
fn bench_2d(steps: usize, reps: usize) -> StepResult {
    let grid_n = 64;
    let particles = grid_n * grid_n * 16;
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let cfg = PicConfig {
                grid: Grid2D::new(grid_n, grid_n, 2.0532, 2.0532),
                init: Some(TwoStream2DInit::quiet(0.2, 0.0, particles, 1e-3, 9)),
                dt: 0.2,
                n_steps: steps,
                gather_shape: Shape::Cic,
                tracked_modes: vec![(1, 0), (0, 1)],
            };
            let mut sim = Simulation::new(cfg, Box::new(TraditionalSolver2D::default_config()));
            let t0 = Instant::now();
            for _ in 0..steps {
                sim.step();
            }
            let dt = t0.elapsed().as_secs_f64();
            std::hint::black_box(sim.history().len());
            dt
        })
        .collect();
    let seconds = median(times);
    StepResult {
        particles,
        steps,
        seconds,
        throughput: particles as f64 * steps as f64 / seconds,
    }
}

/// GFLOP/s of one kernel at shape `(m, k, n)` on the A operand given,
/// median of `reps` timed batches of `iters` calls.
fn bench_kernel(
    kernel: impl Fn(&[f32], &[f32], &mut [f32]),
    a: &[f32],
    b_len: usize,
    c_len: usize,
    flops: f64,
    iters: usize,
    reps: usize,
) -> f64 {
    let mut b = vec![0.0f32; b_len];
    let mut c = vec![0.0f32; c_len];
    fill(&mut b, 13);
    kernel(a, &b, &mut c); // warm-up
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..iters {
                kernel(a, &b, &mut c);
                std::hint::black_box(&c[0]);
            }
            t0.elapsed().as_secs_f64()
        })
        .collect();
    flops * iters as f64 / median(times) / 1e9
}

/// A dense random A operand: no zero worth the name.
fn dense(len: usize) -> Vec<f32> {
    let mut a = vec![0.0f32; len];
    fill(&mut a, 7);
    a
}

/// What the DL solver feeds its first layer: the paper's 64×64
/// phase-space histogram of the two-stream initial condition (64 000
/// particles, two thin beams), min–max normalised with a dataset minimum
/// of zero so every empty bin is exactly `0.0`.
fn phase_space_input() -> Vec<f32> {
    let (grid, spec) = (Grid1D::paper(), PhaseGridSpec::paper());
    let particles = TwoStreamInit::random(0.2, 0.025, 64_000, 9).build(&grid);
    let mut hist = vec![0.0f32; spec.cells()];
    bin_phase_space(&particles, &grid, &spec, BinningShape::Ngp, &mut hist);
    let max = hist.iter().copied().fold(0.0, f32::max);
    NormStats { min: 0.0, max }.apply(&mut hist);
    hist
}

/// The four DL-solver shapes: quick-train forward (`nn`), weight gradient
/// (`tn`), input gradient (`nt`) at batch 64 with 512-wide hiddens, and a
/// batch-1 inference layer at the paper's 4096-cell phase-space input.
fn bench_matmul(quick: bool, reps: usize) -> MatmulResult {
    let scale = if quick { 4 } else { 1 };
    let (m, k, n) = (64, 512, 512);
    let flops = 2.0 * (m * k * n) as f64;
    let nn_train = bench_kernel(
        |a, b, c| matmul_nn(a, b, c, m, k, n),
        &dense(m * k),
        k * n,
        m * n,
        flops,
        48 / scale,
        reps,
    );
    // dW = Xᵀ·dY: A is k×m (batch-major), output m×n.
    let (tm, tk, tn) = (512, 64, 512);
    let tflops = 2.0 * (tm * tk * tn) as f64;
    let tn_grad = bench_kernel(
        |a, b, c| matmul_tn(a, b, c, tm, tk, tn),
        &dense(tk * tm),
        tk * tn,
        tm * tn,
        tflops,
        48 / scale,
        reps,
    );
    // dX = dY·Wᵀ: B is n×k.
    let nt_grad = bench_kernel(
        |a, b, c| matmul_nt(a, b, c, m, k, n),
        &dense(m * k),
        n * k,
        m * n,
        flops,
        48 / scale,
        reps,
    );
    let (im, ik, inn) = (1, 4096, 512);
    let iflops = 2.0 * (im * ik * inn) as f64;
    let nn_infer = bench_kernel(
        |a, b, c| matmul_nn(a, b, c, im, ik, inn),
        &dense(im * ik),
        ik * inn,
        im * inn,
        iflops,
        256 / scale,
        reps,
    );
    // The same shape on a histogram: only the live weight rows are read.
    let hist = phase_space_input();
    let live_rows: u32 = (0..ik)
        .step_by(KB)
        .map(|k0| live_mask(&hist, 1, ik, k0, KB).count_ones())
        .sum();
    let live_fraction = live_rows as f64 / ik as f64;
    let live_gflops = bench_kernel(
        |a, b, c| matmul_nn(a, b, c, im, ik, inn),
        &hist,
        ik * inn,
        im * inn,
        iflops,
        256 / scale,
        reps,
    );
    let micros = iflops / live_gflops / 1e3;
    let nn_infer_live = LiveResult {
        live_fraction,
        micros,
        live_gbps: live_fraction * (4 * ik * inn) as f64 / micros / 1e3,
    };
    // Aggregate: total flops over total time (harmonic weighting).
    let total = 4.0 / (1.0 / nn_train + 1.0 / tn_grad + 1.0 / nt_grad + 1.0 / nn_infer);
    MatmulResult {
        nn_train,
        tn_grad,
        nt_grad,
        nn_infer,
        total,
        nn_infer_live,
    }
}

fn measure(quick: bool) -> Measurement {
    let (steps_1d, steps_2d, reps) = if quick { (40, 12, 3) } else { (200, 60, 5) };
    eprintln!("measuring calibration anchor...");
    let calibration = calibration_gflops(reps);
    eprintln!("measuring 1-D step throughput ({steps_1d} steps x {reps} reps)...");
    let step_1d = bench_1d(steps_1d, reps);
    eprintln!("measuring 2-D step throughput ({steps_2d} steps x {reps} reps)...");
    let step_2d = bench_2d(steps_2d, reps);
    eprintln!("measuring matmul GFLOP/s...");
    let matmul = bench_matmul(quick, reps);
    Measurement {
        calibration,
        step_1d,
        step_2d,
        matmul,
    }
}

fn measurement_json(m: &Measurement, indent: &str) -> String {
    let step = |s: &StepResult| {
        format!(
            "{{\n{indent}    \"particles\": {},\n{indent}    \"steps\": {},\n{indent}    \"seconds\": {:.4},\n{indent}    \"particle_steps_per_sec\": {:.3e}\n{indent}  }}",
            s.particles, s.steps, s.seconds, s.throughput
        )
    };
    format!(
        "{{\n{indent}  \"calibration_gflops\": {:.3},\n{indent}  \"step_1d\": {},\n{indent}  \"step_2d\": {},\n{indent}  \"matmul\": {{\n{indent}    \"nn_train_gflops\": {:.3},\n{indent}    \"tn_grad_gflops\": {:.3},\n{indent}    \"nt_grad_gflops\": {:.3},\n{indent}    \"nn_infer_gflops\": {:.3},\n{indent}    \"gflops_total\": {:.3},\n{indent}    \"nn_infer_live\": {{ \"live_fraction\": {:.3}, \"micros\": {:.1}, \"live_gbps\": {:.2} }}\n{indent}  }}\n{indent}}}",
        m.calibration,
        step(&m.step_1d),
        step(&m.step_2d),
        m.matmul.nn_train,
        m.matmul.tn_grad,
        m.matmul.nt_grad,
        m.matmul.nn_infer,
        m.matmul.total,
        m.matmul.nn_infer_live.live_fraction,
        m.matmul.nn_infer_live.micros,
        m.matmul.nn_infer_live.live_gbps,
    )
}

fn print_human(m: &Measurement) {
    println!(
        "1-D  ({} particles, {} steps): {:.1} M particle·steps/s",
        m.step_1d.particles,
        m.step_1d.steps,
        m.step_1d.throughput / 1e6
    );
    println!(
        "2-D  ({} particles, {} steps): {:.1} M particle·steps/s",
        m.step_2d.particles,
        m.step_2d.steps,
        m.step_2d.throughput / 1e6
    );
    println!(
        "matmul: nn {:.2}  tn {:.2}  nt {:.2}  infer {:.2}  | total {:.2} GFLOP/s",
        m.matmul.nn_train, m.matmul.tn_grad, m.matmul.nt_grad, m.matmul.nn_infer, m.matmul.total
    );
    let live = &m.matmul.nn_infer_live;
    println!(
        "infer on a phase-space input: {:.1} % of the weight rows live, {:.1} us, {:.1} GB/s over the live rows",
        live.live_fraction * 100.0,
        live.micros,
        live.live_gbps
    );
}

/// The three throughput metrics of a named section in `BENCH_step.json`.
fn section_metrics(text: &str, section: &str) -> Option<(f64, f64, f64)> {
    let at = text.find(&format!("\"{section}\""))?;
    let t1 = json_value_after(text, at, "particle_steps_per_sec")?;
    let rest_at = at + text[at..].find("step_2d")?;
    let t2 = json_value_after(text, rest_at, "particle_steps_per_sec")?;
    let gf = json_value_after(text, rest_at, "gflops_total")?;
    Some((t1, t2, gf))
}

fn check(m: &Measurement) -> i32 {
    let text = match std::fs::read_to_string("BENCH_step.json") {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read BENCH_step.json: {e}");
            return 2;
        }
    };
    let Some((c1, c2, cg)) = section_metrics(&text, "current") else {
        eprintln!("BENCH_step.json has no parsable \"current\" section");
        return 2;
    };
    // Rescale the committed absolutes to this machine via the anchor
    // (older files without one fall back to unscaled comparison).
    let cur_at = text.find("\"current\"").unwrap_or(0);
    let scale = match json_value_after(&text, cur_at, "calibration_gflops") {
        Some(committed_cal) if committed_cal > 0.0 => {
            let s = m.calibration / committed_cal;
            println!(
                "calibration: committed {committed_cal:.2} GFLOP/s, this machine {:.2} \
                 (scale {s:.2}x)",
                m.calibration
            );
            s
        }
        _ => 1.0,
    };
    let tolerance: f64 = std::env::var("DLPIC_PERF_MAX_REGRESSION")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.25);
    let mut failed = false;
    for (name, measured, committed) in [
        ("step_1d", m.step_1d.throughput, c1 * scale),
        ("step_2d", m.step_2d.throughput, c2 * scale),
        ("matmul", m.matmul.total, cg * scale),
    ] {
        let delta = measured / committed - 1.0;
        let verdict = if delta < -tolerance {
            failed = true;
            "REGRESSION"
        } else {
            "ok"
        };
        println!(
            "{name:>8}: expected {committed:.3e}, measured {measured:.3e} ({delta:+.1}%) {verdict}",
            delta = delta * 100.0
        );
    }
    if failed {
        println!(
            "FAIL: throughput regressed more than {:.0}%",
            tolerance * 100.0
        );
        1
    } else {
        println!(
            "PASS: within {:.0}% of committed numbers",
            tolerance * 100.0
        );
        0
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let do_check = args.iter().any(|a| a == "--check");
    let flag_value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };

    let m = measure(quick);
    print_human(&m);

    if let Some(path) = flag_value("--out") {
        std::fs::write(&path, measurement_json(&m, "") + "\n").expect("write --out file");
        println!("wrote {path}");
    }

    if let Some(baseline_path) = flag_value("--write-bench") {
        let baseline = std::fs::read_to_string(&baseline_path)
            .unwrap_or_else(|e| panic!("cannot read baseline {baseline_path}: {e}"));
        let Some((b1, b2, bg)) = section_metrics(&baseline, "step_1d") else {
            panic!("baseline {baseline_path} is not a step_throughput measurement");
        };
        let json = format!(
            "{{\n  \"bench\": \"step_throughput\",\n  \"note\": \"single-core; compare the speedup ratios, not cross-machine absolutes\",\n  \"baseline\": {},\n  \"current\": {},\n  \"speedup\": {{\n    \"step_1d\": {:.3},\n    \"step_2d\": {:.3},\n    \"matmul_total\": {:.3}\n  }}\n}}\n",
            indent_block(baseline.trim_end()),
            measurement_json(&m, "  "),
            m.step_1d.throughput / b1,
            m.step_2d.throughput / b2,
            m.matmul.total / bg,
        );
        std::fs::write("BENCH_step.json", &json).expect("write BENCH_step.json");
        println!(
            "wrote BENCH_step.json (speedups: 1-D {:.2}x, 2-D {:.2}x, matmul {:.2}x)",
            m.step_1d.throughput / b1,
            m.step_2d.throughput / b2,
            m.matmul.total / bg,
        );
    }

    if do_check {
        std::process::exit(check(&m));
    }
}
