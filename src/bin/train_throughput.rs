//! Single-core throughput gate of the kernels the benchmark (`benchmark/`)
//! does not time one by one: conv2d forward+backward, one MLP and one CNN
//! training epoch, the Vlasov data-generator step, the three `nn::linalg`
//! training GEMM shapes, and bf16 against f32 weight storage on the solo
//! inference shape, plus the shared `matmul_naive` calibration anchor.
//!
//! Two more sections are reported and never gated: the batch-1 inference
//! layer on a dense input and on a phase-space histogram (the live-row
//! kernel's record), and `paper_setup`, the DL workloads' set-up recipe
//! (`benchmark/src/model.rs`) timed stage by stage on the worker team as
//! the benchmark runs it, with the team's member count and the trained
//! parameters' FNV-1a so a "same bits" claim can be checked on any
//! machine. Everything gated runs on one core: the training epochs and
//! the bf16 pairs under `team::with_limit(1, …)`, the rest on kernels
//! that never dispatch.
//!
//! Usage:
//!
//! * `train_throughput` — full measurement, JSON printed to stdout.
//! * `--out FILE` — also write the raw measurement JSON to `FILE`
//!   (used to capture a baseline before an optimization lands).
//! * `--write-bench BASELINE` — measure, read a previously captured
//!   measurement from `BASELINE`, and write `BENCH_train.json` with
//!   `baseline` + `current` sections and the speedup ratios of every
//!   entry the baseline has.
//! * `--quick` — fewer repetitions of the same workloads (CI-sized).
//! * `--check` — measure (honours `--quick`), compare against the
//!   committed `BENCH_train.json`, print deltas and exit non-zero when a
//!   gated throughput regresses beyond the tolerance
//!   (`DLPIC_PERF_MAX_REGRESSION`, default 0.25) or bf16 inference falls
//!   below [`BF16_MIN_SPEEDUP`] times f32. Committed throughputs are
//!   rescaled to this machine by the `matmul_naive` calibration anchor;
//!   the bf16 ratio needs no anchor, both sides are timed live.

use dlpic_core::builder::ArchSpec;
use dlpic_core::normalize::NormStats;
use dlpic_core::phase_space::{bin_phase_space, BinningShape, PhaseGridSpec};
use dlpic_core::pool;
use dlpic_core::presets::Scale;
use dlpic_core::ModelBundle;
use dlpic_dataset::{generate, GeneratorConfig, SweepSpec};
use dlpic_nn::data::Dataset;
use dlpic_nn::init::Init;
use dlpic_nn::layer::Layer;
use dlpic_nn::layers::Conv2d;
use dlpic_nn::linalg::{live_mask, matmul_naive, matmul_nn, matmul_nt, matmul_tn, KB};
use dlpic_nn::loss::Mse;
use dlpic_nn::optimizer::Adam;
use dlpic_nn::tensor::Tensor;
use dlpic_nn::trainer::{train, TrainConfig};
use dlpic_nn::{FrozenModel, Precision, PredictWorkspace};
use dlpic_pic::grid::Grid1D;
use dlpic_pic::init::TwoStreamInit;
use dlpic_repro::engine::json::Json;
use dlpic_repro::engine::Engine;
use dlpic_vlasov::solver::{VlasovConfig, VlasovSolver};
use std::time::Instant;

/// Median of the samples (ties to the upper middle).
///
/// # Panics
/// Panics on an empty input.
fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.total_cmp(b));
    xs[xs.len() / 2]
}

/// Deterministic pseudo-random fill in [-1, 1).
fn fill(buf: &mut [f32], mut seed: u64) {
    for v in buf.iter_mut() {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *v = ((seed >> 40) as f32 / (1u64 << 24) as f32) * 2.0 - 1.0;
    }
}

/// Machine-speed anchor: GFLOP/s of the fixed-shape f64 `matmul_naive`
/// oracle. The oracle is the property-test reference and never part of
/// the optimized kernels, so its throughput tracks only the machine (the
/// CPU and the codegen flags), not the repo's performance work. Every
/// gated figure is rescaled by this one implementation.
fn calibration_gflops(reps: usize) -> f64 {
    let n = 192;
    let mut a = vec![0.0f32; n * n];
    let mut b = vec![0.0f32; n * n];
    fill(&mut a, 3);
    fill(&mut b, 5);
    std::hint::black_box(matmul_naive(&a, &b, n, n, n));
    let flops = 2.0 * (n * n * n) as f64;
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(matmul_naive(&a, &b, n, n, n));
            t0.elapsed().as_secs_f64()
        })
        .collect();
    flops / median(times) / 1e9
}

/// Re-indents a captured measurement JSON by two spaces for embedding as
/// a `baseline` section.
fn indent_block(block: &str) -> String {
    block.lines().collect::<Vec<_>>().join("\n  ")
}

/// bf16 weight storage exists to beat f32 on the memory-bound solo
/// inference; below this ratio it no longer pays for its precision loss.
const BF16_MIN_SPEEDUP: f64 = 1.3;

/// Interleaved f32/bf16 timing pairs behind the bf16 ratio.
const BF16_PAIRS: usize = 11;

/// The gated throughputs: name, JSON section and key, whether the f32
/// kernels bound it (derated on a kernel-path mismatch; the Vlasov step is
/// f64 solver code), and where a measurement holds it.
#[rustfmt::skip]
type Gated = (&'static str, &'static str, &'static str, bool, fn(&Measurement) -> f64);
#[rustfmt::skip]
const GATED: [Gated; 7] = [
    ("conv2d", "conv2d", "fwd_bwd_samples_per_sec", true, |m| m.conv.per_sec),
    ("mlp_epoch", "mlp_epoch", "samples_per_sec", true, |m| m.mlp.per_sec),
    ("cnn_epoch", "cnn_epoch", "samples_per_sec", true, |m| m.cnn.per_sec),
    ("vlasov", "vlasov", "steps_per_sec", false, |m| m.vlasov.per_sec),
    ("nn_train", "gemm", "nn_train_gflops", true, |m| m.gemm.nn_train),
    ("tn_grad", "gemm", "tn_grad_gflops", true, |m| m.gemm.tn_grad),
    ("nt_grad", "gemm", "nt_grad_gflops", true, |m| m.gemm.nt_grad),
];

/// One throughput measurement: work units processed per second.
struct Throughput {
    units: usize,
    seconds: f64,
    per_sec: f64,
}

impl Throughput {
    fn new(units: usize, seconds: f64) -> Self {
        Self {
            units,
            seconds,
            per_sec: units as f64 / seconds,
        }
    }
}

/// GFLOP/s of the training GEMM shapes: batch-64 forward (`nn`), weight
/// gradient (`tn`) and input gradient (`nt`) with 512-wide hiddens.
struct Gemm {
    nn_train: f64,
    tn_grad: f64,
    nt_grad: f64,
}

/// The batch-1 inference layer at the paper's 4096-cell input (4096×512):
/// GFLOP/s on a dense input, and on a phase-space histogram the share of
/// weight rows the kernel has to read ([`live_mask`]), the time of one
/// call and the bandwidth over those live rows alone.
struct InferB1 {
    dense_gflops: f64,
    live_fraction: f64,
    live_us: f64,
    live_gbps: f64,
}

/// bf16 against f32 storage of the paper MLP on the solo shape (m = 1):
/// GFLOP/s-equivalent of each (nominal 2·params FLOPs per solve; bf16 does
/// the same arithmetic in f32 after decode) and the median per-pair ratio.
struct Bf16 {
    f32_gflops: f64,
    bf16_gflops: f64,
    speedup: f64,
}

struct Measurement {
    calibration: f64,
    /// Kernel path the `nn::linalg` dispatcher picked ("avx512f" or
    /// "portable") — kernel-bound metrics are only comparable between
    /// machines on the same path.
    simd: &'static str,
    conv: Throughput,
    mlp: Throughput,
    cnn: Throughput,
    vlasov: Throughput,
    gemm: Gemm,
    infer: InferB1,
    bf16: Bf16,
    setup: PaperSetup,
}

/// The benchmark's set-up recipe, stage by stage (medians over the reps).
/// The stages sum to the benchmark's `dataset.generate_s` + `nn.train_s`
/// plus the `Engine::with_model_1d` share of its first build.
struct PaperSetup {
    /// `dataset::generate` of the smoke sweep on the paper phase grid.
    generate_s: f64,
    /// Norm stats, `to_nn_dataset` and `arch.build`: all before batch 1.
    init_s: f64,
    /// `trainer::train`: six epochs of batch-64 Adam.
    train_loop_s: f64,
    /// `ModelBundle::from_network` (the 25 MB `params_to_bytes`).
    capture_s: f64,
    /// `Engine::new().with_model_1d(bundle.clone())`: clone (a handle on
    /// the shared parameter blob), load, freeze.
    load_s: f64,
    /// Length and FNV-1a of the trained `params_to_bytes`.
    params_bytes: usize,
    params_fnv: u64,
    /// Members of the worker team that init and training ran on.
    members: usize,
}

impl PaperSetup {
    fn total_s(&self) -> f64 {
        self.generate_s + self.init_s + self.train_loop_s + self.capture_s + self.load_s
    }
}

/// FNV-1a, the hash `tests/golden/*.txt` record.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Times `benchmark/src/model.rs::train_model` stage by stage, then the
/// load the DL workloads' engine build starts with. The constants mirror
/// that file's (this crate may not depend on the benchmark); a drift shows
/// as a different FNV-1a from the benchmark's own trained bundle.
fn bench_paper_setup(reps: usize) -> PaperSetup {
    const MODEL_SEED: u64 = 5;
    const EPOCHS: usize = 6;
    const LEARNING_RATE: f32 = 1e-4;
    const DATASET_PPC: usize = 1000;
    let runs: Vec<PaperSetup> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            let mut cfg = GeneratorConfig::new(
                SweepSpec::training_for(Scale::Smoke),
                Scale::Paper.phase_spec(),
            );
            cfg.ppc = DATASET_PPC;
            let data = generate(&cfg);
            let generate_s = t.elapsed().as_secs_f64();

            let t = Instant::now();
            let norm = data.input_norm_stats();
            let arch = Scale::Paper.mlp_arch();
            let train_set = data.to_nn_dataset(&norm, arch.input_kind());
            let mut net = arch.build(MODEL_SEED);
            let init_s = t.elapsed().as_secs_f64();

            let t = Instant::now();
            let config = TrainConfig {
                epochs: EPOCHS,
                batch_size: 64,
                shuffle_seed: MODEL_SEED,
                log_every: 0,
            };
            let mut opt = Adam::new(LEARNING_RATE);
            train(&mut net, &Mse, &mut opt, &train_set, None, &config);
            let train_loop_s = t.elapsed().as_secs_f64();

            let t = Instant::now();
            let reference_mass: f32 = data.input_row(0).iter().sum();
            let bundle = ModelBundle::from_network(&mut net, arch, data.spec, data.binning, norm)
                .with_reference_mass(reference_mass);
            let capture_s = t.elapsed().as_secs_f64();

            let t = Instant::now();
            let engine = Engine::new().with_model_1d(bundle.clone());
            let load_s = t.elapsed().as_secs_f64();
            drop(std::hint::black_box(engine));

            PaperSetup {
                generate_s,
                init_s,
                train_loop_s,
                capture_s,
                load_s,
                params_bytes: bundle.params.len(),
                params_fnv: fnv1a(&bundle.params),
                members: pool::team().members(),
            }
        })
        .collect();
    assert!(
        runs.iter().all(|r| r.params_fnv == runs[0].params_fnv),
        "training is not deterministic"
    );
    let stage = |f: fn(&PaperSetup) -> f64| median(runs.iter().map(f).collect());
    PaperSetup {
        generate_s: stage(|r| r.generate_s),
        init_s: stage(|r| r.init_s),
        train_loop_s: stage(|r| r.train_loop_s),
        capture_s: stage(|r| r.capture_s),
        load_s: stage(|r| r.load_s),
        params_bytes: runs[0].params_bytes,
        params_fnv: runs[0].params_fnv,
        members: runs[0].members,
    }
}

/// Forward(training)+backward throughput of the four conv layers of the
/// `Scale::Scaled` CNN (1→8 and 8→8 on 32×32, 8→16 and 16→16 on 16×16) at
/// batch 64. One work unit = one batch sample through all four layers.
fn bench_conv(iters: usize, reps: usize) -> Throughput {
    let batch = 64;
    // (in_ch, out_ch, h, w) of the Scaled CNN's conv layers.
    let shapes = [
        (1usize, 8usize, 32usize, 32usize),
        (8, 8, 32, 32),
        (8, 16, 16, 16),
        (16, 16, 16, 16),
    ];
    let mut layers: Vec<Conv2d> = shapes
        .iter()
        .enumerate()
        .map(|(i, &(ic, oc, _, _))| Conv2d::new(ic, oc, 3, Init::HeNormal, i as u64 + 1))
        .collect();
    let inputs: Vec<Tensor> = shapes
        .iter()
        .enumerate()
        .map(|(i, &(ic, _, h, w))| random(&[batch, ic, h, w], 17 + i as u64))
        .collect();
    let grads: Vec<Tensor> = shapes
        .iter()
        .enumerate()
        .map(|(i, &(_, oc, h, w))| random(&[batch, oc, h, w], 29 + i as u64))
        .collect();
    // Reusable output/gradient buffers — the same train_forward_into /
    // backward_into path the trainer drives per batch.
    let mut out = Tensor::zeros(&[0]);
    let mut gx = Tensor::zeros(&[0]);
    // Warm-up.
    for (layer, (x, g)) in layers.iter_mut().zip(inputs.iter().zip(&grads)) {
        layer.train_forward_into(x, &mut out);
        layer.backward_into(g, &mut gx);
    }
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..iters {
                for (layer, (x, g)) in layers.iter_mut().zip(inputs.iter().zip(&grads)) {
                    layer.zero_grads();
                    layer.train_forward_into(x, &mut out);
                    std::hint::black_box(out.data()[0]);
                    layer.backward_into(g, &mut gx);
                    std::hint::black_box(gx.data()[0]);
                }
            }
            t0.elapsed().as_secs_f64()
        })
        .collect();
    Throughput::new(batch * iters, median(times))
}

/// A tensor of the given shape, filled by [`fill`]: dense, no zero worth
/// the name.
fn random(shape: &[usize], seed: u64) -> Tensor {
    let mut data = vec![0.0f32; shape.iter().product()];
    fill(&mut data, seed);
    Tensor::new(data, shape)
}

/// A synthetic regression dataset with the given input shape.
fn synth_dataset(n: usize, in_shape: &[usize], out_w: usize, seed: u64) -> Dataset {
    let x_shape: Vec<usize> = std::iter::once(n).chain(in_shape.iter().copied()).collect();
    Dataset::new(random(&x_shape, seed), random(&[n, out_w], seed + 1))
}

/// Samples/second of full training epochs (shuffle + batching + forward +
/// loss + backward + Adam) of `arch` on `data`, on this thread alone: the
/// gate times one core's kernels, not how many cores the host lends.
fn bench_epoch(arch: &ArchSpec, data: &Dataset, epochs: usize, reps: usize) -> Throughput {
    let times: Vec<f64> = pool::with_limit(1, || {
        (0..reps)
            .map(|_| {
                let mut net = arch.build(7);
                let mut opt = Adam::new(1e-3);
                let cfg = TrainConfig {
                    epochs,
                    batch_size: 64,
                    shuffle_seed: 3,
                    log_every: 0,
                };
                let t0 = Instant::now();
                let hist = train(&mut net, &Mse, &mut opt, data, None, &cfg);
                let dt = t0.elapsed().as_secs_f64();
                std::hint::black_box(hist.final_loss());
                dt
            })
            .collect()
    });
    Throughput::new(data.len() * epochs, median(times))
}

/// Steps/second of the Vlasov solver at the dataset-bridge resolution
/// (128×256 phase-space grid — `lcm(32, 64)·2` x-cells, 32·8 v-cells).
fn bench_vlasov(steps: usize, reps: usize) -> Throughput {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let cfg = VlasovConfig {
                grid: Grid1D::new(128, dlpic_pic::constants::paper_box_length()),
                nv: 256,
                vmax: 0.8,
                dt: 0.05,
                v0: 0.2,
                vth: 0.02,
                perturbation: 1e-3,
            };
            let mut solver = VlasovSolver::new(cfg);
            let t0 = Instant::now();
            solver.run(steps);
            let dt = t0.elapsed().as_secs_f64();
            std::hint::black_box(solver.field_mode(1));
            dt
        })
        .collect();
    Throughput::new(steps, median(times))
}

/// GFLOP/s of one kernel call on the A operand given, median of `reps`
/// timed batches of `iters` calls.
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

/// The training GEMM shapes on dense operands.
fn bench_gemm(iters: usize, reps: usize) -> Gemm {
    let (m, k, n) = (64, 512, 512);
    let flops = 2.0 * (m * k * n) as f64;
    let nn_train = bench_kernel(
        |a, b, c| matmul_nn(a, b, c, m, k, n),
        random(&[m * k], 7).data(),
        k * n,
        m * n,
        flops,
        iters,
        reps,
    );
    // dW = Xᵀ·dY: A is k×m (batch-major), output m×n.
    let (tm, tk, tn) = (512, 64, 512);
    let tn_grad = bench_kernel(
        |a, b, c| matmul_tn(a, b, c, tm, tk, tn),
        random(&[tk * tm], 7).data(),
        tk * tn,
        tm * tn,
        2.0 * (tm * tk * tn) as f64,
        iters,
        reps,
    );
    // dX = dY·Wᵀ: B is n×k.
    let nt_grad = bench_kernel(
        |a, b, c| matmul_nt(a, b, c, m, k, n),
        random(&[m * k], 7).data(),
        n * k,
        m * n,
        flops,
        iters,
        reps,
    );
    Gemm {
        nn_train,
        tn_grad,
        nt_grad,
    }
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

/// The batch-1 inference layer on a dense input, then on a histogram,
/// where only the live weight rows are read.
fn bench_infer_b1(iters: usize, reps: usize) -> InferB1 {
    let (k, n) = (4096, 512);
    let flops = 2.0 * (k * n) as f64;
    let infer = |a: &[f32]| {
        bench_kernel(
            |a, b, c| matmul_nn(a, b, c, 1, k, n),
            a,
            k * n,
            n,
            flops,
            iters,
            reps,
        )
    };
    let dense_gflops = infer(random(&[k], 7).data());
    let hist = phase_space_input();
    let live_rows: u32 = (0..k)
        .step_by(KB)
        .map(|k0| live_mask(&hist, 1, k, k0, KB).count_ones())
        .sum();
    let live_fraction = live_rows as f64 / k as f64;
    let live_us = flops / infer(&hist) / 1e3;
    InferB1 {
        dense_gflops,
        live_fraction,
        live_us,
        live_gbps: live_fraction * (4 * k * n) as f64 / live_us / 1e3,
    }
}

/// bf16 against f32 on the untrained paper MLP and a dense input:
/// [`BF16_PAIRS`] pairs, each timing a batch of f32 calls and then a batch
/// of bf16 calls, so that a slow phase of the host lands on both sides of
/// one ratio; the speedup is the median of the per-pair ratios. Both run
/// on this thread alone: a one-row pass would otherwise cut its large
/// layers into column windows for the team, and the floor compares two
/// single-core kernels.
fn bench_bf16() -> Bf16 {
    const ITERS: usize = 20;
    let arch = Scale::Paper.mlp_arch();
    let net = arch.build(0xD15E);
    let freeze = |precision| {
        net.freeze(precision)
            .expect("the paper MLP has a frozen form")
    };
    let (f32_model, bf16_model) = (freeze(Precision::F32), freeze(Precision::Bf16));
    let input = arch.input_len();
    let x = Tensor::new(
        (0..input).map(|i| (i as f32 * 0.013).sin()).collect(),
        &[1, input],
    );
    let mut ws = PredictWorkspace::new();
    let mut time = |model: &FrozenModel| {
        let t0 = Instant::now();
        for _ in 0..ITERS {
            std::hint::black_box(model.predict_into(&x, &mut ws));
        }
        t0.elapsed().as_secs_f64()
    };
    let (f32_times, bf16_times): (Vec<f64>, Vec<f64>) = pool::with_limit(1, || {
        // Warm-up.
        time(&f32_model);
        time(&bf16_model);
        (0..BF16_PAIRS)
            .map(|_| (time(&f32_model), time(&bf16_model)))
            .unzip()
    });
    let speedup = median(
        f32_times
            .iter()
            .zip(&bf16_times)
            .map(|(f, b)| f / b)
            .collect(),
    );
    let gflops =
        |times: Vec<f64>| 2.0 * arch.param_count() as f64 * ITERS as f64 / median(times) / 1e9;
    Bf16 {
        f32_gflops: gflops(f32_times),
        bf16_gflops: gflops(bf16_times),
        speedup,
    }
}

fn measure(quick: bool) -> Measurement {
    // `--quick` repeats the same workloads fewer times: every timed window
    // stays a full run's length (each well under a second), since shorter
    // windows only let the host's noise through.
    let (reps, setup_reps) = if quick { (3, 1) } else { (5, 3) };
    eprintln!("measuring calibration anchor...");
    let calibration = calibration_gflops(reps);
    eprintln!("measuring conv2d forward+backward (16 iters x {reps} reps)...");
    let conv = bench_conv(16, reps);
    // The `Scale::Scaled` MLP (1024-256³-64) and CNN (1→8→8 pool 8→16→16
    // pool, 128³ dense head over 32×32 images) on synthetic data.
    eprintln!("measuring MLP training epoch (2048 samples x 2 epochs x {reps} reps)...");
    let mlp_data = synth_dataset(2048, &[1024], 64, 41);
    let mlp = bench_epoch(&Scale::Scaled.mlp_arch(), &mlp_data, 2, reps);
    eprintln!("measuring CNN training epoch (256 samples x 2 epochs x {reps} reps)...");
    let cnn_data = synth_dataset(256, &[1, 32, 32], 64, 53);
    let cnn = bench_epoch(&Scale::Scaled.cnn_arch(), &cnn_data, 2, reps);
    eprintln!("measuring Vlasov step (60 steps x {reps} reps)...");
    let vlasov = bench_vlasov(60, reps);
    eprintln!("measuring training GEMMs (48 calls x {reps} reps)...");
    let gemm = bench_gemm(48, reps);
    eprintln!(
        "measuring batch-1 inference, dense and phase-space inputs (256 calls x {reps} reps)..."
    );
    let infer = bench_infer_b1(256, reps);
    eprintln!("measuring bf16 vs f32 solo inference ({BF16_PAIRS} interleaved pairs)...");
    let bf16 = bench_bf16();
    eprintln!("measuring the benchmark's paper set-up ({setup_reps} reps)...");
    let setup = bench_paper_setup(setup_reps);
    Measurement {
        calibration,
        simd: dlpic_nn::linalg::simd_level(),
        conv,
        mlp,
        cnn,
        vlasov,
        gemm,
        infer,
        bf16,
        setup,
    }
}

fn measurement_json(m: &Measurement, indent: &str) -> String {
    let tp = |t: &Throughput, unit: &str| {
        format!(
            "{{\n{indent}    \"units\": {},\n{indent}    \"seconds\": {:.4},\n{indent}    \"{unit}\": {:.3e}\n{indent}  }}",
            t.units, t.seconds, t.per_sec
        )
    };
    let gemm = format!(
        "{{\n{indent}    \"nn_train_gflops\": {:.3},\n{indent}    \"tn_grad_gflops\": {:.3},\n{indent}    \"nt_grad_gflops\": {:.3}\n{indent}  }}",
        m.gemm.nn_train, m.gemm.tn_grad, m.gemm.nt_grad
    );
    let infer = format!(
        "{{\n{indent}    \"dense_gflops\": {:.3},\n{indent}    \"live_fraction\": {:.3},\n{indent}    \"live_us\": {:.1},\n{indent}    \"live_gbps\": {:.2}\n{indent}  }}",
        m.infer.dense_gflops, m.infer.live_fraction, m.infer.live_us, m.infer.live_gbps
    );
    let bf16 = format!(
        "{{\n{indent}    \"f32_gflops\": {:.3},\n{indent}    \"bf16_gflops\": {:.3},\n{indent}    \"bf16_vs_f32\": {:.3}\n{indent}  }}",
        m.bf16.f32_gflops, m.bf16.bf16_gflops, m.bf16.speedup
    );
    let s = &m.setup;
    let setup = format!(
        "{{\n{indent}    \"generate_s\": {:.4},\n{indent}    \"init_s\": {:.4},\n{indent}    \"train_loop_s\": {:.4},\n{indent}    \"capture_s\": {:.4},\n{indent}    \"load_freeze_s\": {:.4},\n{indent}    \"total_s\": {:.4},\n{indent}    \"params_bytes\": {},\n{indent}    \"params_fnv1a\": \"{:016x}\",\n{indent}    \"team_members\": {}\n{indent}  }}",
        s.generate_s,
        s.init_s,
        s.train_loop_s,
        s.capture_s,
        s.load_s,
        s.total_s(),
        s.params_bytes,
        s.params_fnv,
        s.members,
    );
    format!(
        "{{\n{indent}  \"calibration_gflops\": {:.3},\n{indent}  \"simd\": \"{}\",\n{indent}  \"conv2d\": {},\n{indent}  \"mlp_epoch\": {},\n{indent}  \"cnn_epoch\": {},\n{indent}  \"vlasov\": {},\n{indent}  \"gemm\": {gemm},\n{indent}  \"infer_b1\": {infer},\n{indent}  \"bf16\": {bf16},\n{indent}  \"paper_setup\": {setup}\n{indent}}}",
        m.calibration,
        m.simd,
        tp(&m.conv, "fwd_bwd_samples_per_sec"),
        tp(&m.mlp, "samples_per_sec"),
        tp(&m.cnn, "samples_per_sec"),
        tp(&m.vlasov, "steps_per_sec"),
    )
}

fn print_human(m: &Measurement) {
    println!(
        "conv2d fwd+bwd : {:.1} samples/s ({} samples in {:.3}s)",
        m.conv.per_sec, m.conv.units, m.conv.seconds
    );
    println!(
        "MLP epoch      : {:.1} samples/s ({} samples in {:.3}s)",
        m.mlp.per_sec, m.mlp.units, m.mlp.seconds
    );
    println!(
        "CNN epoch      : {:.1} samples/s ({} samples in {:.3}s)",
        m.cnn.per_sec, m.cnn.units, m.cnn.seconds
    );
    println!(
        "Vlasov 128x256 : {:.2} steps/s ({} steps in {:.3}s)",
        m.vlasov.per_sec, m.vlasov.units, m.vlasov.seconds
    );
    println!(
        "training GEMMs : nn {:.2}  tn {:.2}  nt {:.2} GFLOP/s",
        m.gemm.nn_train, m.gemm.tn_grad, m.gemm.nt_grad
    );
    let i = &m.infer;
    println!(
        "infer 4096x512 : dense {:.2} GFLOP/s; phase-space input: {:.1} % of the weight rows live, \
         {:.1} us, {:.1} GB/s over the live rows (ungated)",
        i.dense_gflops,
        i.live_fraction * 100.0,
        i.live_us,
        i.live_gbps
    );
    println!(
        "bf16 solo infer: {:.2}x f32, median of {BF16_PAIRS} interleaved pairs \
         ({:.2} vs {:.2} GFLOP/s-eq)",
        m.bf16.speedup, m.bf16.bf16_gflops, m.bf16.f32_gflops
    );
    let s = &m.setup;
    println!(
        "paper set-up   : {:.3}s = generate {:.3} + init {:.3} + train loop {:.3} + capture {:.3} \
         + load/freeze {:.3} (ungated, {} team members); trained params {} B, FNV-1a {:016x}",
        s.total_s(),
        s.generate_s,
        s.init_s,
        s.train_loop_s,
        s.capture_s,
        s.load_s,
        s.members,
        s.params_bytes,
        s.params_fnv
    );
}

/// The number at `section.key` of a measurement.
fn value_in(measurement: &Json, section: &str, key: &str) -> Option<f64> {
    measurement.get(section)?.get(key)?.as_f64().ok()
}

/// Everything `--check` reads from the `current` section of a committed
/// `BENCH_train.json`.
struct Committed {
    calibration: f64,
    simd: String,
    /// In [`GATED`] order.
    gated: [f64; 7],
    bf16_vs_f32: f64,
}

impl Committed {
    /// Parses `text`, naming the first entry it lacks.
    fn parse(text: &str) -> Result<Self, String> {
        let doc = Json::parse(text).map_err(|e| e.to_string())?;
        let cur = doc.get("current").ok_or("no \"current\" section")?;
        let missing = |entry: &str| format!("\"current\" has no parsable {entry}");
        let mut gated = [0.0; 7];
        for (slot, (_, section, key, ..)) in gated.iter_mut().zip(GATED) {
            *slot =
                value_in(cur, section, key).ok_or_else(|| missing(&format!("{section}.{key}")))?;
        }
        Ok(Self {
            calibration: cur
                .get("calibration_gflops")
                .and_then(|v| v.as_f64().ok())
                .ok_or_else(|| missing("calibration_gflops"))?,
            simd: cur
                .get("simd")
                .and_then(|v| v.as_str().ok())
                .ok_or_else(|| missing("simd"))?
                .to_string(),
            gated,
            bf16_vs_f32: value_in(cur, "bf16", "bf16_vs_f32")
                .ok_or_else(|| missing("bf16.bf16_vs_f32"))?,
        })
    }
}

fn check(m: &Measurement) -> i32 {
    let committed = match std::fs::read_to_string("BENCH_train.json")
        .map_err(|e| e.to_string())
        .and_then(|text| Committed::parse(&text))
    {
        Ok(c) => c,
        Err(e) => {
            eprintln!("BENCH_train.json: {e}");
            return 2;
        }
    };
    let scale = m.calibration / committed.calibration;
    println!(
        "calibration: committed {:.2} GFLOP/s, this machine {:.2} (scale {scale:.2}x)",
        committed.calibration, m.calibration
    );
    // The f32 kernels dispatch on AVX-512 at runtime; the matmul_naive
    // anchor (f64, never explicitly vectorized) cannot see that
    // difference. When the committed numbers come from the stronger
    // kernel path and this machine only has the portable one, derate
    // the kernel-bound expectations instead of failing the machine for
    // hardware it does not have (≈2.5x measured path gap; derate by 3x
    // keeps a real-regression net). The opposite mismatch — portable
    // numbers committed, AVX-512 machine measuring — needs no derate:
    // the faster path can only beat the expectation.
    let kernel_derate = if committed.simd == "avx512f" && m.simd == "portable" {
        println!(
            "kernel path mismatch: committed \"avx512f\", this machine \"portable\" — \
             derating kernel-bound expectations 3x"
        );
        1.0 / 3.0
    } else {
        1.0
    };
    let tolerance: f64 = std::env::var("DLPIC_PERF_MAX_REGRESSION")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.25);
    let mut failed = false;
    for ((name, _, _, kernel, measured), base) in GATED.iter().zip(committed.gated) {
        let measured = measured(m);
        let expected = base * scale * if *kernel { kernel_derate } else { 1.0 };
        let delta = measured / expected - 1.0;
        let verdict = if delta < -tolerance {
            failed = true;
            "REGRESSION"
        } else {
            "ok"
        };
        println!(
            "{name:>9}: expected {expected:.3e}, measured {measured:.3e} ({delta:+.1}%) {verdict}",
            delta = delta * 100.0
        );
    }
    let bf16 = m.bf16.speedup;
    let verdict = if bf16 < BF16_MIN_SPEEDUP {
        failed = true;
        "REGRESSION"
    } else {
        "ok"
    };
    println!(
        "bf16/f32 solo inference: {bf16:.2}x (committed {:.2}x; floor {BF16_MIN_SPEEDUP:.2}x) {verdict}",
        committed.bf16_vs_f32
    );
    if failed {
        println!(
            "FAIL: a throughput regressed more than {:.0}% or bf16 fell below its floor",
            tolerance * 100.0
        );
        1
    } else {
        println!(
            "PASS: within {:.0}% of committed numbers, bf16 above its floor",
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
        let base = Json::parse(&baseline)
            .unwrap_or_else(|e| panic!("baseline {baseline_path} is not JSON: {e}"));
        // Ratios for what the baseline measured: a baseline from before an
        // entry existed has no ratio for it.
        let setup = value_in(&base, "paper_setup", "total_s")
            .map(|b| ("paper_setup", b / m.setup.total_s()));
        let speedups: Vec<(&str, f64)> = GATED
            .iter()
            .filter_map(|(name, section, key, _, measured)| {
                value_in(&base, section, key).map(|b| (*name, measured(&m) / b))
            })
            .chain(setup)
            .collect();
        assert!(
            !speedups.is_empty(),
            "baseline {baseline_path} is not a train_throughput measurement"
        );
        let speedup_json: Vec<String> = speedups
            .iter()
            .map(|(name, r)| format!("    \"{name}\": {r:.3}"))
            .collect();
        let json = format!(
            "{{\n  \"bench\": \"train_throughput\",\n  \"note\": \"gated entries single-core; compare the speedup ratios, not cross-machine absolutes; infer_b1 and paper_setup (on the worker team) are reported, not gated\",\n  \"baseline\": {},\n  \"current\": {},\n  \"speedup\": {{\n{}\n  }}\n}}\n",
            indent_block(baseline.trim_end()),
            measurement_json(&m, "  "),
            speedup_json.join(",\n"),
        );
        std::fs::write("BENCH_train.json", &json).expect("write BENCH_train.json");
        let summary: Vec<String> = speedups
            .iter()
            .map(|(name, r)| format!("{name} {r:.2}x"))
            .collect();
        println!("wrote BENCH_train.json (speedups: {})", summary.join(", "));
    }

    if do_check {
        std::process::exit(check(&m));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A re-record that drops an entry `--check` reads fails here, in
    /// tier-1, rather than in CI's perf step.
    #[test]
    fn committed_bench_train_has_every_entry_the_check_reads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_train.json");
        let text = std::fs::read_to_string(path).expect("BENCH_train.json at the repo root");
        let committed = Committed::parse(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
        assert!(committed.calibration > 0.0);
        assert!(["avx512f", "portable"].contains(&committed.simd.as_str()));
        for ((name, ..), value) in GATED.iter().zip(committed.gated) {
            assert!(value > 0.0, "{name}: {value}");
        }
        assert!(committed.bf16_vs_f32 > 0.0);
    }
}
