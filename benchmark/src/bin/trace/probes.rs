//! Kernel probes: public kernels of `pic`, `core` and `nn` called on
//! state of the workloads' exact shapes, and the machine context the
//! numbers are read against. Only the `trace` binary reaches this deep;
//! the gate binary stays on the facade.

use std::hint::black_box;
use std::time::Instant;

use dlpic_benchmark::stats::median;
use dlpic_repro::core::{bin_phase_space, BinningShape, FrozenBundle, PhaseGridSpec};
use dlpic_repro::nn::{PredictWorkspace, Tensor};
use dlpic_repro::pic::deposit::{deposit_charge_with_scratch, DepositScratch};
use dlpic_repro::pic::{fused_gather_push_move, FdPoisson, PoissonSolver, Shape, Simulation};

use crate::Values;

/// Median wall time of `reps` calls of `f`, in microseconds.
fn median_us(reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&times)
}

/// Last-level cache size from sysfs (0 where it cannot be read).
fn llc_bytes() -> f64 {
    let mut best = (0u32, 0.0);
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let read = |file: &str| std::fs::read_to_string(format!("{dir}/{file}")).ok();
        let (Some(level), Some(size)) = (read("level"), read("size")) else {
            continue;
        };
        let Ok(level) = level.trim().parse::<u32>() else {
            continue;
        };
        let size = size.trim();
        let (digits, scale) = match size.as_bytes().last() {
            Some(b'K') => (&size[..size.len() - 1], 1024.0),
            Some(b'M') => (&size[..size.len() - 1], 1024.0 * 1024.0),
            _ => (size, 1.0),
        };
        if let Ok(n) = digits.parse::<f64>() {
            if level >= best.0 {
                best = (level, n * scale);
            }
        }
    }
    best.1
}

/// Fixed-shape naive f64 matmul: tracks the machine and the codegen
/// flags, never the repository's kernels.
fn calibration_gflops() -> f64 {
    const N: usize = 160;
    let a: Vec<f64> = (0..N * N).map(|i| (i % 7) as f64 * 0.25).collect();
    let b: Vec<f64> = (0..N * N).map(|i| (i % 5) as f64 * 0.5).collect();
    let mut c = vec![0.0f64; N * N];
    let us = median_us(7, || {
        c.fill(0.0);
        for i in 0..N {
            for k in 0..N {
                let aik = a[i * N + k];
                for j in 0..N {
                    c[i * N + j] += aik * b[k * N + j];
                }
            }
        }
        black_box(&c);
    });
    2.0 * (N * N * N) as f64 / us / 1e3
}

/// Streaming read rate over a buffer the size of the model's weights.
/// That is more than L2 but, on this host, less than L3, so it bounds
/// batch-1 inference by the rate the weights can actually be re-read
/// at, not by DRAM.
fn read_gbps(bytes: usize) -> f64 {
    let words: Vec<u64> = (0..bytes as u64 / 8).collect();
    let us = median_us(15, || {
        black_box(
            black_box(&words)
                .iter()
                .fold(0u64, |s, w| s.wrapping_add(*w)),
        );
    });
    (words.len() * 8) as f64 / us / 1e3
}

/// `machine.*`: context, never a claim.
pub fn machine(weight_bytes: usize, values: &mut Values) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    values.set("machine.nproc", nproc as f64);
    values.set("machine.calibration_gflops", calibration_gflops());
    values.set("machine.read_gbps_25mb", read_gbps(weight_bytes));
    values.set("machine.llc_bytes", llc_bytes());
}

/// `pic.*` kernel probes and `core.bin_phase_space_us` on the particle
/// state of a solo run (64 000 electrons on 64 cells) a quarter of the
/// way in.
pub fn particle_kernels(
    sim: &Simulation,
    phase_grid: &PhaseGridSpec,
    binning: BinningShape,
    values: &mut Values,
) {
    const REPS: usize = 25;
    let grid = sim.grid();
    let dt = sim.config().dt;
    let e = sim.efield().to_vec();

    let mut particles = sim.particles().clone();
    let push = median_us(REPS, || {
        black_box(fused_gather_push_move(
            &mut particles,
            grid,
            Shape::Cic,
            &e,
            dt,
        ));
    });
    values.set("pic.fused_push_us", push);
    values.set(
        "pic.particle_steps_per_s",
        particles.len() as f64 / (push / 1e6),
    );
    // Computed, not measured: x and v are each read and written once as
    // f64 per particle; the 64-node field stays in L1.
    values.set("pic.fused_push_bytes_per_particle", 32.0);

    let particles = sim.particles();
    let mut rho = grid.zeros();
    let mut scratch = DepositScratch::new();
    values.set(
        "pic.deposit_us",
        median_us(REPS, || {
            rho.fill(0.0);
            deposit_charge_with_scratch(particles, grid, Shape::Cic, &mut rho, &mut scratch);
            black_box(&rho);
        }),
    );
    let mut phi = grid.zeros();
    let mut poisson = FdPoisson::new();
    values.set(
        "pic.poisson_us",
        median_us(200, || {
            poisson.solve(grid, &rho, &mut phi);
            black_box(&phi);
        }),
    );

    let mut hist = vec![0.0f32; phase_grid.cells()];
    values.set(
        "core.bin_phase_space_us",
        median_us(REPS, || {
            bin_phase_space(particles, grid, phase_grid, binning, &mut hist);
            black_box(&hist);
        }),
    );
}

/// `nn.*` probes on the installed frozen model: one row (the solo step,
/// a GEMV that re-reads every weight) and sixteen (the cohort GEMM).
/// Bytes are computed — `weight_bytes` per call — not counted.
pub fn inference(bundle: &FrozenBundle, read_gbps_25mb: f64, values: &mut Values) {
    let model = bundle.model();
    let width = bundle.spec().cells();
    let flops_per_row = 2.0 * model.param_count() as f64;
    let weight_bytes = model.weight_bytes() as f64;
    // A histogram-like input: mostly empty bins, a few occupied ones.
    let row: Vec<f32> = (0..width)
        .map(|i| {
            if i % 9 == 0 {
                (i % 31) as f32 / 31.0
            } else {
                0.0
            }
        })
        .collect();

    let one = Tensor::new(row.clone(), &[1, width]);
    let mut ws = PredictWorkspace::new();
    black_box(model.predict_into(&one, &mut ws));
    let b1 = median_us(120, || {
        black_box(model.predict_into(black_box(&one), &mut ws));
    });

    const ROWS: usize = 16;
    let batch = Tensor::new(row.repeat(ROWS), &[ROWS, width]);
    let mut ws16 = PredictWorkspace::new();
    black_box(model.predict_batch_into(&batch, &mut ws16));
    let b16 = median_us(40, || {
        black_box(model.predict_batch_into(black_box(&batch), &mut ws16));
    });

    let b1_gbps = weight_bytes / b1 / 1e3;
    values.set("nn.weight_bytes", weight_bytes);
    values.set("nn.predict_b1_us", b1);
    values.set("nn.predict_b1_gflops", flops_per_row / b1 / 1e3);
    values.set("nn.predict_b1_gbps", b1_gbps);
    values.set("nn.b1_vs_read_bw", b1_gbps / read_gbps_25mb);
    values.set("nn.predict_b16_us", b16);
    values.set(
        "nn.predict_b16_gflops",
        ROWS as f64 * flops_per_row / b16 / 1e3,
    );
    values.set("nn.b16_vs_b1_per_row", b16 / ROWS as f64 / b1);
}
