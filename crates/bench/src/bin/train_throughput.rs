//! Single-core training-pipeline throughput benchmark: conv2d
//! forward+backward, one MLP and one CNN training epoch, and the Vlasov
//! data-generator step, plus the shared `matmul_naive` calibration anchor.
//!
//! The companion of `step_throughput`: that bench gates the *simulate*
//! half of the paper's workflow, this one gates the *train* half — the
//! layers, the mini-batch loop, and the Vlasov solver that generates the
//! noise-free training data (§VII).
//!
//! Usage mirrors `step_throughput`:
//!
//! * `train_throughput` — full measurement, JSON printed to stdout.
//! * `--out FILE` — also write the raw measurement JSON to `FILE`
//!   (used to capture a baseline before an optimization lands).
//! * `--write-bench BASELINE` — measure, read a previously captured
//!   measurement from `BASELINE`, and write `BENCH_train.json` with
//!   `baseline` + `current` sections and the speedup ratios.
//! * `--quick` — smaller workloads (CI-sized; per-unit metrics stay
//!   comparable because the workload *shapes* are unchanged).
//! * `--check` — measure (honours `--quick`), compare against the
//!   committed `BENCH_train.json`, print deltas and exit non-zero on a
//!   throughput regression beyond the tolerance
//!   (`DLPIC_PERF_MAX_REGRESSION`, default 0.25). Committed numbers are
//!   rescaled to this machine by the `matmul_naive` calibration anchor,
//!   exactly like the step gate.
//!
//! Every measurement also carries a `paper_setup` section: the DL
//! workloads' set-up recipe (`benchmark/src/model.rs`) timed stage by
//! stage, with the trained parameters' FNV-1a so a "same bits" claim can
//! be checked on any machine. It is reported, never gated.

use dlpic_bench::gate::{
    calibration_gflops, fill, indent_block, json_string_after, json_value_after, median,
};
use dlpic_core::presets::Scale;
use dlpic_core::ModelBundle;
use dlpic_dataset::{generate, GeneratorConfig, SweepSpec};
use dlpic_nn::data::Dataset;
use dlpic_nn::init::Init;
use dlpic_nn::layer::Layer;
use dlpic_nn::layers::Conv2d;
use dlpic_nn::loss::Mse;
use dlpic_nn::optimizer::Adam;
use dlpic_nn::tensor::Tensor;
use dlpic_nn::trainer::{train, TrainConfig};
use dlpic_pic::grid::Grid1D;
use dlpic_repro::engine::Engine;
use dlpic_vlasov::solver::{VlasovConfig, VlasovSolver};
use std::time::Instant;

/// One throughput measurement: work units processed per second.
struct Throughput {
    units: usize,
    seconds: f64,
    per_sec: f64,
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
    /// `Engine::new().with_model_1d(bundle.clone())`: clone, load, freeze.
    load_s: f64,
    /// Length and FNV-1a of the trained `params_to_bytes`.
    params_bytes: usize,
    params_fnv: u64,
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
        .map(|(i, &(ic, _, h, w))| {
            let mut data = vec![0.0f32; batch * ic * h * w];
            fill(&mut data, 17 + i as u64);
            Tensor::new(data, &[batch, ic, h, w])
        })
        .collect();
    let grads: Vec<Tensor> = shapes
        .iter()
        .enumerate()
        .map(|(i, &(_, oc, h, w))| {
            let mut data = vec![0.0f32; batch * oc * h * w];
            fill(&mut data, 29 + i as u64);
            Tensor::new(data, &[batch, oc, h, w])
        })
        .collect();
    // Reusable output/gradient buffers — the same train_forward_into /
    // backward_into path the trainer drives per batch. (The committed
    // baseline predates these entry points; it ran the then-only
    // allocating forward/backward, so the speedup ratio includes the
    // allocation elimination — which is the point.)
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
    let seconds = median(times);
    let units = batch * iters;
    Throughput {
        units,
        seconds,
        per_sec: units as f64 / seconds,
    }
}

/// A synthetic regression dataset with the given input shape.
fn synth_dataset(n: usize, in_shape: &[usize], out_w: usize, seed: u64) -> Dataset {
    let in_w: usize = in_shape.iter().product();
    let mut xs = vec![0.0f32; n * in_w];
    let mut ys = vec![0.0f32; n * out_w];
    fill(&mut xs, seed);
    fill(&mut ys, seed + 1);
    let mut x_shape = vec![n];
    x_shape.extend_from_slice(in_shape);
    Dataset::new(Tensor::new(xs, &x_shape), Tensor::new(ys, &[n, out_w]))
}

/// Samples/second of full training epochs (shuffle + batching + forward +
/// loss + backward + Adam) on the `Scale::Scaled` MLP (1024-256³-64).
fn bench_mlp_epoch(samples: usize, epochs: usize, reps: usize) -> Throughput {
    let data = synth_dataset(samples, &[1024], 64, 41);
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let mut net = Scale::Scaled.mlp_arch().build(7);
            let mut opt = Adam::new(1e-3);
            let cfg = TrainConfig {
                epochs,
                batch_size: 64,
                shuffle_seed: 3,
                log_every: 0,
            };
            let t0 = Instant::now();
            let hist = train(&mut net, &Mse, &mut opt, &data, None, &cfg);
            let dt = t0.elapsed().as_secs_f64();
            std::hint::black_box(hist.final_loss());
            dt
        })
        .collect();
    let seconds = median(times);
    let units = samples * epochs;
    Throughput {
        units,
        seconds,
        per_sec: units as f64 / seconds,
    }
}

/// Samples/second of full training epochs on the `Scale::Scaled` CNN
/// (1→8→8 pool 8→16→16 pool, 128³ dense head) over 32×32 images.
fn bench_cnn_epoch(samples: usize, epochs: usize, reps: usize) -> Throughput {
    let data = synth_dataset(samples, &[1, 32, 32], 64, 53);
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let mut net = Scale::Scaled.cnn_arch().build(7);
            let mut opt = Adam::new(1e-3);
            let cfg = TrainConfig {
                epochs,
                batch_size: 64,
                shuffle_seed: 3,
                log_every: 0,
            };
            let t0 = Instant::now();
            let hist = train(&mut net, &Mse, &mut opt, &data, None, &cfg);
            let dt = t0.elapsed().as_secs_f64();
            std::hint::black_box(hist.final_loss());
            dt
        })
        .collect();
    let seconds = median(times);
    let units = samples * epochs;
    Throughput {
        units,
        seconds,
        per_sec: units as f64 / seconds,
    }
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
    let seconds = median(times);
    Throughput {
        units: steps,
        seconds,
        per_sec: steps as f64 / seconds,
    }
}

fn measure(quick: bool) -> Measurement {
    let reps = if quick { 3 } else { 5 };
    eprintln!("measuring calibration anchor...");
    let calibration = calibration_gflops(reps);
    let conv_iters = if quick { 4 } else { 16 };
    eprintln!("measuring conv2d forward+backward ({conv_iters} iters x {reps} reps)...");
    let conv = bench_conv(conv_iters, reps);
    let (mlp_samples, mlp_epochs) = if quick { (512, 1) } else { (2048, 2) };
    eprintln!("measuring MLP training epoch ({mlp_samples} samples x {mlp_epochs} epochs)...");
    let mlp = bench_mlp_epoch(mlp_samples, mlp_epochs, reps);
    let (cnn_samples, cnn_epochs) = if quick { (128, 1) } else { (256, 2) };
    eprintln!("measuring CNN training epoch ({cnn_samples} samples x {cnn_epochs} epochs)...");
    let cnn = bench_cnn_epoch(cnn_samples, cnn_epochs, reps);
    let vlasov_steps = if quick { 20 } else { 60 };
    eprintln!("measuring Vlasov step ({vlasov_steps} steps x {reps} reps)...");
    let vlasov = bench_vlasov(vlasov_steps, reps);
    let setup_reps = if quick { 1 } else { 3 };
    eprintln!("measuring the benchmark's paper set-up ({setup_reps} reps)...");
    let setup = bench_paper_setup(setup_reps);
    Measurement {
        calibration,
        simd: dlpic_nn::linalg::simd_level(),
        conv,
        mlp,
        cnn,
        vlasov,
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
    let s = &m.setup;
    let setup = format!(
        "{{\n{indent}    \"generate_s\": {:.4},\n{indent}    \"init_s\": {:.4},\n{indent}    \"train_loop_s\": {:.4},\n{indent}    \"capture_s\": {:.4},\n{indent}    \"load_freeze_s\": {:.4},\n{indent}    \"total_s\": {:.4},\n{indent}    \"params_bytes\": {},\n{indent}    \"params_fnv1a\": \"{:016x}\"\n{indent}  }}",
        s.generate_s,
        s.init_s,
        s.train_loop_s,
        s.capture_s,
        s.load_s,
        s.total_s(),
        s.params_bytes,
        s.params_fnv,
    );
    format!(
        "{{\n{indent}  \"calibration_gflops\": {:.3},\n{indent}  \"simd\": \"{}\",\n{indent}  \"conv2d\": {},\n{indent}  \"mlp_epoch\": {},\n{indent}  \"cnn_epoch\": {},\n{indent}  \"vlasov\": {},\n{indent}  \"paper_setup\": {setup}\n{indent}}}",
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
    let s = &m.setup;
    println!(
        "paper set-up   : {:.3}s = generate {:.3} + init {:.3} + train loop {:.3} + capture {:.3} \
         + load/freeze {:.3} (ungated); trained params {} B, FNV-1a {:016x}",
        s.total_s(),
        s.generate_s,
        s.init_s,
        s.train_loop_s,
        s.capture_s,
        s.load_s,
        s.params_bytes,
        s.params_fnv
    );
}

/// First `"key": "<string>"` after position `from` in `text`.
/// The four throughput metrics of a measurement starting at `section`.
fn section_metrics(text: &str, section: &str) -> Option<(f64, f64, f64, f64)> {
    let at = text.find(&format!("\"{section}\""))?;
    let conv_at = at + text[at..].find("\"conv2d\"")?;
    let conv = json_value_after(text, conv_at, "fwd_bwd_samples_per_sec")?;
    let mlp_at = at + text[at..].find("\"mlp_epoch\"")?;
    let mlp = json_value_after(text, mlp_at, "samples_per_sec")?;
    let cnn_at = at + text[at..].find("\"cnn_epoch\"")?;
    let cnn = json_value_after(text, cnn_at, "samples_per_sec")?;
    let vl_at = at + text[at..].find("\"vlasov\"")?;
    let vlasov = json_value_after(text, vl_at, "steps_per_sec")?;
    Some((conv, mlp, cnn, vlasov))
}

fn check(m: &Measurement) -> i32 {
    let text = match std::fs::read_to_string("BENCH_train.json") {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read BENCH_train.json: {e}");
            return 2;
        }
    };
    let Some((cc, cm, cn, cv)) = section_metrics(&text, "current") else {
        eprintln!("BENCH_train.json has no parsable \"current\" section");
        return 2;
    };
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
    // The f32 kernels dispatch on AVX-512 at runtime; the matmul_naive
    // anchor (f64, never explicitly vectorized) cannot see that
    // difference. When the committed numbers come from the stronger
    // kernel path and this machine only has the portable one, derate
    // the kernel-bound expectations instead of failing the machine for
    // hardware it does not have (≈2.5x measured path gap; derate by 3x
    // keeps a real-regression net). The opposite mismatch — portable
    // numbers committed, AVX-512 machine measuring — needs no derate:
    // the faster path can only beat the expectation. The Vlasov metric
    // is f64 solver code on both paths and is compared at full
    // strength either way.
    let committed_simd = json_string_after(&text, cur_at, "simd");
    let kernel_derate = match committed_simd.as_deref() {
        Some("avx512f") if m.simd == "portable" => {
            println!(
                "kernel path mismatch: committed \"avx512f\", this machine \"portable\" — \
                 derating kernel-bound expectations 3x"
            );
            1.0 / 3.0
        }
        _ => 1.0,
    };
    let tolerance: f64 = std::env::var("DLPIC_PERF_MAX_REGRESSION")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.25);
    let mut failed = false;
    for (name, measured, committed) in [
        ("conv2d", m.conv.per_sec, cc * scale * kernel_derate),
        ("mlp_epoch", m.mlp.per_sec, cm * scale * kernel_derate),
        ("cnn_epoch", m.cnn.per_sec, cn * scale * kernel_derate),
        ("vlasov", m.vlasov.per_sec, cv * scale),
    ] {
        let delta = measured / committed - 1.0;
        let verdict = if delta < -tolerance {
            failed = true;
            "REGRESSION"
        } else {
            "ok"
        };
        println!(
            "{name:>9}: expected {committed:.3e}, measured {measured:.3e} ({delta:+.1}%) {verdict}",
            delta = delta * 100.0
        );
    }
    if failed {
        println!(
            "FAIL: training throughput regressed more than {:.0}%",
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
        let Some((bc, bm, bn, bv)) = section_metrics(&baseline, "conv2d") else {
            panic!("baseline {baseline_path} is not a train_throughput measurement");
        };
        // A baseline from before the section existed has no set-up ratio.
        let setup = baseline
            .find("\"paper_setup\"")
            .and_then(|at| json_value_after(&baseline, at, "total_s"))
            .map(|bs| format!(",\n    \"paper_setup\": {:.3}", bs / m.setup.total_s()))
            .unwrap_or_default();
        let json = format!(
            "{{\n  \"bench\": \"train_throughput\",\n  \"note\": \"single-core; compare the speedup ratios, not cross-machine absolutes; paper_setup is reported, not gated\",\n  \"baseline\": {},\n  \"current\": {},\n  \"speedup\": {{\n    \"conv2d_fwd_bwd\": {:.3},\n    \"mlp_epoch\": {:.3},\n    \"cnn_epoch\": {:.3},\n    \"vlasov_step\": {:.3}{setup}\n  }}\n}}\n",
            indent_block(baseline.trim_end()),
            measurement_json(&m, "  "),
            m.conv.per_sec / bc,
            m.mlp.per_sec / bm,
            m.cnn.per_sec / bn,
            m.vlasov.per_sec / bv,
        );
        std::fs::write("BENCH_train.json", &json).expect("write BENCH_train.json");
        println!(
            "wrote BENCH_train.json (speedups: conv {:.2}x, MLP {:.2}x, CNN {:.2}x, Vlasov {:.2}x)",
            m.conv.per_sec / bc,
            m.mlp.per_sec / bm,
            m.cnn.per_sec / bn,
            m.vlasov.per_sec / bv,
        );
    }

    if do_check {
        std::process::exit(check(&m));
    }
}
