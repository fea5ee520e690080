//! Ensemble throughput: session·steps/sec of a fleet of 1-D DL runs,
//! solo-loop vs batched single-thread vs batched multi-thread.
//!
//! The workload is the amortization case the paper argues for: many
//! simulations sharing one trained field solver. `solo` drives each
//! session to completion one after another (the hand-rolled loop over
//! `Engine::start` the ensemble API replaces) — every field solve is a
//! batch-1 inference. `batched_1t` drives the same fleet through
//! `Ensemble::run_to_end(1)`: per lockstep wave, all sessions' inference
//! inputs are gathered into one `[m, in]` GEMM that hits the 8-row zmm
//! micro-kernels. `batched_mt` is the same fleet through
//! `run_to_end(available_threads())`: the `core::pool` worker team under
//! every wave — the cohort cut into panels of eight rows or more, each
//! prepared, inferred and applied by one member. The two batched modes
//! are timed in alternation, so a phase in which the host withholds a
//! core hits both, and after `gate::wake_cores`, so that a VM host which
//! has folded an idle guest's vCPUs onto one core has spread them again.
//!
//! Before timing, the binary verifies on a mini-fleet that ensemble
//! histories are bit-identical to solo runs — the numbers only count if
//! the batching is exact. Since every fleet member reads the same
//! `Arc<FrozenModel>`, that check also pins the shared-weight inference
//! path to the owned-network semantics.
//!
//! Beyond throughput, the bench accounts the fleet's *weight memory*
//! (one shared allocation vs 16 private copies — the `weights` section
//! and the ≤ 1.1× single-copy gate) and measures the bf16 storage path:
//! solo-shape inference GFLOP/s-equivalent vs f32 (the memory-bound
//! m = 1 GEMV where halved weight traffic pays) and the two-stream
//! growth rate of a bf16 fleet against its f32 twin (the physics
//! tolerance that gates bf16 adoption — see the README's precision
//! contract).
//!
//! Usage (same conventions as `step_throughput`):
//!
//! * `ensemble_throughput` — full measurement, JSON printed to stdout.
//! * `--out FILE` — write the raw measurement JSON to `FILE`.
//! * `--write-bench` — measure and write `BENCH_ensemble.json`. Unlike
//!   the step/train benches there is no separate pre-change baseline
//!   file: the solo loop *is* the baseline (it is exactly the
//!   hand-rolled `Engine::start` loop that predates the ensemble API),
//!   so one measurement carries both sides of the comparison.
//! * `--quick` — CI-sized workloads.
//! * `--check` — compare against the committed `BENCH_ensemble.json`:
//!   fails if the *live* batched-vs-solo speedup falls below
//!   `DLPIC_ENSEMBLE_MIN_SPEEDUP` (default 1.5 — the committed target is
//!   ≥ 2×; the gate is machine-relative, so no anchor is involved), if
//!   with two or more threads the live `batched_mt_vs_1t` falls below
//!   1.15 (skipped, with a note, on one thread), or
//!   if an absolute throughput regresses more than
//!   `DLPIC_PERF_MAX_REGRESSION` (default 0.35 — wider than the
//!   step/train gates because the ratio gate is the primary contract
//!   and the anchor drifts ±15% on the dev container) after
//!   calibration-anchor rescaling (3× derate on an AVX-512 ↔ portable
//!   kernel mismatch, as in the train gate).

use dlpic_bench::gate::{
    calibration_gflops, json_string_after, json_value_after, median, wake_cores,
};
use dlpic_nn::linalg::simd_level;
use dlpic_nn::{FrozenModel, Precision, PredictWorkspace, Tensor};
use dlpic_repro::core::pool;
use dlpic_repro::core::Scale;
use dlpic_repro::engine::{self, dl, Backend, EnergyHistory, Engine};
use std::time::Instant;

/// Fleet geometry: 16 concurrent runs (two full 8-row zmm tiles per
/// wave), light particle load so the DL inference dominates — the
/// regime the batching targets.
const RUNS: usize = 16;
const PPC: usize = 50;

/// The fleet's specs: a seed fan over two-stream at the *paper* DL
/// scale (4096-bin phase input, 3×1024 hidden — §IV.A): ~25 MB of MLP
/// weights per solve, the memory-bound m = 1 GEMM shape PR 3's notes
/// flagged. Solo runs re-stream the weights every step; a batched wave
/// streams them once for the whole fleet.
fn fleet_specs(steps: usize) -> Vec<engine::ScenarioSpec> {
    (0..RUNS as u64)
        .map(|seed| {
            let mut spec = engine::scenario("two_stream", Scale::Paper).expect("registry");
            spec.ppc = PPC;
            spec.n_steps = steps;
            spec.seed = 100 + seed;
            spec.name = format!("two_stream[seed={}]", spec.seed);
            spec
        })
        .collect()
}

#[derive(Clone, Copy)]
struct FleetResult {
    seconds: f64,
    steps_per_sec: f64,
}

/// Times the hand-rolled loop: one session after another, each stepped
/// to completion (construction excluded — both modes pay it equally).
fn bench_solo(specs: &[engine::ScenarioSpec], reps: usize) -> FleetResult {
    let engine = Engine::new();
    let total_steps: usize = specs.iter().map(|s| s.n_steps).sum();
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let mut sessions: Vec<_> = specs
                .iter()
                .map(|s| engine.start(s, Backend::Dl1D).expect("start"))
                .collect();
            let t0 = Instant::now();
            for session in &mut sessions {
                session.run_to_end();
            }
            let dt = t0.elapsed().as_secs_f64();
            std::hint::black_box(sessions.last().map(|s| s.steps_done()));
            dt
        })
        .collect();
    let seconds = median(times);
    FleetResult {
        seconds,
        steps_per_sec: total_steps as f64 / seconds,
    }
}

/// Times `Ensemble::run_to_end` over the same fleet at one thread and at
/// `threads`, alternating the two so that machine noise (a withheld
/// core, a neighbour's burst) lands on both sides of their ratio. With
/// `threads == 1` the second result is the first: a second 1-thread run
/// would only record noise as "thread scaling".
fn bench_batched(
    specs: &[engine::ScenarioSpec],
    threads: usize,
    reps: usize,
) -> (FleetResult, FleetResult) {
    let engine = Engine::new();
    let total_steps: usize = specs.iter().map(|s| s.n_steps).sum();
    let time = |threads: usize| {
        let mut ensemble = engine
            .start_ensemble(specs, Backend::Dl1D)
            .expect("start ensemble");
        let t0 = Instant::now();
        ensemble.run_to_end(threads);
        let dt = t0.elapsed().as_secs_f64();
        std::hint::black_box(ensemble.is_complete());
        dt
    };
    let (mut one, mut many) = (Vec::new(), Vec::new());
    if threads > 1 {
        wake_cores(threads);
    }
    for _ in 0..reps {
        one.push(time(1));
        if threads > 1 {
            many.push(time(threads));
        }
    }
    let result = |times: Vec<f64>| {
        let seconds = median(times);
        FleetResult {
            seconds,
            steps_per_sec: total_steps as f64 / seconds,
        }
    };
    let one = result(one);
    let many = if threads > 1 { result(many) } else { one };
    (one, many)
}

/// Asserts (on a mini-fleet) that batched histories reproduce solo runs
/// bit-for-bit before any number is reported.
fn verify_bit_identity() {
    let specs: Vec<engine::ScenarioSpec> = fleet_specs(4).into_iter().take(9).collect();
    let engine = Engine::new();
    let solo: Vec<EnergyHistory> = specs
        .iter()
        .map(|s| {
            Engine::new()
                .run(s, Backend::Dl1D)
                .expect("solo run")
                .history
        })
        .collect();
    for threads in [1, pool::available_threads()] {
        let mut ensemble = engine.start_ensemble(&specs, Backend::Dl1D).expect("start");
        ensemble.run_to_end(threads);
        for (i, (summary, want)) in ensemble.finish().iter().zip(&solo).enumerate() {
            assert!(
                summary.history == *want,
                "run {i} at {threads} threads: batched history differs from solo — \
                 batching is not exact"
            );
        }
    }
    eprintln!("bit-identity: batched histories == solo histories (9-run fleet)");
}

/// Resident weight bytes of the fleet: the sharing headline.
struct WeightFootprint {
    /// One frozen f32 copy of the Paper-scale MLP.
    single_copy_bytes: usize,
    /// What 16 private copies would pin (the pre-sharing world).
    fleet_per_copy_bytes: usize,
    /// What the live 16-run ensemble actually pins, deduplicated by
    /// `Session::weight_storage` allocation identity.
    fleet_shared_bytes: usize,
    /// Distinct weight allocations across the fleet (1 when sharing works).
    distinct_models: usize,
    /// One frozen bf16 copy of the same network (~half the f32 bytes).
    bf16_single_copy_bytes: usize,
}

/// Builds the real 16-run fleet and reads its deduplicated weight bytes.
fn measure_weights() -> WeightFootprint {
    let specs = fleet_specs(1);
    let engine = Engine::new();
    let ensemble = engine
        .start_ensemble(&specs, Backend::Dl1D)
        .expect("start ensemble");
    let (distinct_models, fleet_shared_bytes) = ensemble.weight_footprint();
    let net = Scale::Paper.mlp_arch().build(0xD15E);
    let single = net
        .freeze(Precision::F32)
        .expect("the paper MLP has a frozen form")
        .weight_bytes();
    let bf16 = net
        .freeze(Precision::Bf16)
        .expect("the paper MLP has a frozen form")
        .weight_bytes();
    WeightFootprint {
        single_copy_bytes: single,
        fleet_per_copy_bytes: RUNS * single,
        fleet_shared_bytes,
        distinct_models,
        bf16_single_copy_bytes: bf16,
    }
}

/// bf16 vs f32 inference on the solo shape (m = 1): GFLOP/s-equivalent
/// (nominal 2·params FLOPs per solve over wall time — bf16 does the same
/// arithmetic in f32 after decode, so the figure is comparable) plus the
/// physics-tolerance check on the two-stream growth rate.
struct Bf16Result {
    f32_gflops: f64,
    bf16_gflops: f64,
    growth_f32: f64,
    growth_bf16: f64,
}

fn bench_bf16_kernels(reps: usize) -> (f64, f64) {
    let arch = Scale::Paper.mlp_arch();
    let net = arch.build(0xD15E);
    let f32_model = net
        .freeze(Precision::F32)
        .expect("the paper MLP has a frozen form");
    let bf16_model = net
        .freeze(Precision::Bf16)
        .expect("the paper MLP has a frozen form");
    let input = arch.input_len();
    let x = Tensor::new(
        (0..input).map(|i| (i as f32 * 0.013).sin()).collect(),
        &[1, input],
    );
    let flops = 2.0 * arch.param_count() as f64;
    let iters = 20usize;
    let run = |model: &FrozenModel| {
        let mut ws = PredictWorkspace::new();
        std::hint::black_box(model.predict_into(&x, &mut ws));
        let times: Vec<f64> = (0..reps)
            .map(|_| {
                let t0 = Instant::now();
                for _ in 0..iters {
                    std::hint::black_box(model.predict_into(&x, &mut ws));
                }
                t0.elapsed().as_secs_f64()
            })
            .collect();
        flops * iters as f64 / median(times) / 1e9
    };
    (run(&f32_model), run(&bf16_model))
}

/// Runs two-stream at `Scale::Smoke` with one quick-trained bundle in
/// both precisions and returns the fitted growth rates. Both runs go
/// through the full engine path (frozen shared weights), so the numbers
/// gate exactly what a bf16 fleet would produce.
fn bf16_physics() -> (f64, f64) {
    let bundle = dl::quick_train_1d(Scale::Smoke, 42);
    let mut spec = engine::scenario("two_stream", Scale::Smoke).expect("registry");
    // The smoke preset is a 30-step plumbing check; a growth *fit* needs
    // the instability to actually develop (same geometry the end-to-end
    // DL test validates growth with).
    spec.ppc = 200;
    spec.n_steps = 150;
    let gamma = |bundle: dlpic_repro::core::ModelBundle| {
        use dlpic_repro::analytics::fit::{fit_growth_rate, GrowthFitOptions};
        let summary = Engine::new()
            .with_model_1d(bundle)
            .run(&spec, Backend::Dl1D)
            .expect("two-stream smoke run");
        let s = summary.history.mode_series(1).expect("mode 1 tracked");
        // A smoke-quality model's field noise keeps the amplitude within
        // one decade, so the default noise-floor→saturation window never
        // materializes; fit the full rise up to the peak instead — the
        // same series, the same slope, for both precisions.
        let opts = GrowthFitOptions {
            lo_frac: 0.0,
            hi_frac: 1.0,
            min_points: 5,
        };
        fit_growth_rate(&s.times, &s.values, opts)
            .expect("mode-1 growth fit on two-stream")
            .gamma
    };
    let g_f32 = gamma(bundle.clone());
    let g_bf16 = gamma(bundle.with_precision(Precision::Bf16));
    (g_f32, g_bf16)
}

struct Measurement {
    calibration: f64,
    simd: &'static str,
    steps: usize,
    threads: usize,
    solo: FleetResult,
    batched_1t: FleetResult,
    batched_mt: FleetResult,
    weights: WeightFootprint,
    bf16: Bf16Result,
}

fn measure(quick: bool) -> Measurement {
    let (steps, reps) = if quick { (30, 3) } else { (60, 5) };
    let threads = pool::available_threads();
    eprintln!("measuring calibration anchor...");
    let calibration = calibration_gflops(reps);
    verify_bit_identity();
    eprintln!("accounting fleet weight memory...");
    let weights = measure_weights();
    eprintln!("measuring bf16 vs f32 solo inference...");
    let (f32_gflops, bf16_gflops) = bench_bf16_kernels(reps);
    eprintln!("checking bf16 physics tolerance (quick-train + 2 smoke runs)...");
    let (growth_f32, growth_bf16) = bf16_physics();
    let bf16 = Bf16Result {
        f32_gflops,
        bf16_gflops,
        growth_f32,
        growth_bf16,
    };
    let specs = fleet_specs(steps);
    eprintln!("measuring solo loop ({RUNS} runs x {steps} steps x {reps} reps)...");
    let solo = bench_solo(&specs, reps);
    eprintln!("measuring batched ensemble, 1 and {threads} thread(s) in alternation...");
    let (batched_1t, batched_mt) = bench_batched(&specs, threads, reps);
    Measurement {
        calibration,
        simd: simd_level(),
        steps,
        threads,
        solo,
        batched_1t,
        batched_mt,
        weights,
        bf16,
    }
}

fn measurement_json(m: &Measurement, indent: &str) -> String {
    let fleet = |f: &FleetResult| {
        format!(
            "{{\n{indent}    \"seconds\": {:.4},\n{indent}    \"session_steps_per_sec\": {:.3e}\n{indent}  }}",
            f.seconds, f.steps_per_sec
        )
    };
    let weights = format!(
        "{{\n{indent}    \"single_copy_bytes\": {},\n{indent}    \"fleet_per_copy_bytes\": {},\n{indent}    \"fleet_shared_bytes\": {},\n{indent}    \"distinct_models\": {},\n{indent}    \"fleet_vs_single_copy\": {:.3},\n{indent}    \"bf16_single_copy_bytes\": {}\n{indent}  }}",
        m.weights.single_copy_bytes,
        m.weights.fleet_per_copy_bytes,
        m.weights.fleet_shared_bytes,
        m.weights.distinct_models,
        m.weights.fleet_shared_bytes as f64 / m.weights.single_copy_bytes as f64,
        m.weights.bf16_single_copy_bytes,
    );
    let bf16 = format!(
        "{{\n{indent}    \"f32_gflops\": {:.3},\n{indent}    \"bf16_gflops\": {:.3},\n{indent}    \"speedup_bf16\": {:.3},\n{indent}    \"growth_rate_f32\": {:.6},\n{indent}    \"growth_rate_bf16\": {:.6},\n{indent}    \"growth_rel_err\": {:.6}\n{indent}  }}",
        m.bf16.f32_gflops,
        m.bf16.bf16_gflops,
        m.bf16.bf16_gflops / m.bf16.f32_gflops,
        m.bf16.growth_f32,
        m.bf16.growth_bf16,
        (m.bf16.growth_bf16 - m.bf16.growth_f32).abs() / m.bf16.growth_f32.abs(),
    );
    format!(
        "{{\n{indent}  \"calibration_gflops\": {:.3},\n{indent}  \"simd\": \"{}\",\n{indent}  \"runs\": {RUNS},\n{indent}  \"steps\": {},\n{indent}  \"ppc\": {PPC},\n{indent}  \"threads\": {},\n{indent}  \"solo\": {},\n{indent}  \"batched_1t\": {},\n{indent}  \"batched_mt\": {},\n{indent}  \"weights\": {weights},\n{indent}  \"bf16\": {bf16},\n{indent}  \"speedup_batched\": {:.3},\n{indent}  \"speedup_threads\": {:.3}\n{indent}}}",
        m.calibration,
        m.simd,
        m.steps,
        m.threads,
        fleet(&m.solo),
        fleet(&m.batched_1t),
        fleet(&m.batched_mt),
        m.batched_1t.steps_per_sec / m.solo.steps_per_sec,
        m.batched_mt.steps_per_sec / m.batched_1t.steps_per_sec,
    )
}

fn print_human(m: &Measurement) {
    println!(
        "solo loop   : {:.0} session·steps/s ({:.3}s)",
        m.solo.steps_per_sec, m.solo.seconds
    );
    println!(
        "batched (1t): {:.0} session·steps/s ({:.3}s)  -> {:.2}x vs solo",
        m.batched_1t.steps_per_sec,
        m.batched_1t.seconds,
        m.batched_1t.steps_per_sec / m.solo.steps_per_sec
    );
    println!(
        "batched ({}t): {:.0} session·steps/s ({:.3}s)  -> {:.2}x vs 1t",
        m.threads,
        m.batched_mt.steps_per_sec,
        m.batched_mt.seconds,
        m.batched_mt.steps_per_sec / m.batched_1t.steps_per_sec
    );
    let mb = |b: usize| b as f64 / (1024.0 * 1024.0);
    println!(
        "fleet weights: {:.1} MB shared across {} runs ({} model{}) vs {:.1} MB per-copy; \
         one copy {:.1} MB f32 / {:.1} MB bf16",
        mb(m.weights.fleet_shared_bytes),
        RUNS,
        m.weights.distinct_models,
        if m.weights.distinct_models == 1 {
            ""
        } else {
            "s"
        },
        mb(m.weights.fleet_per_copy_bytes),
        mb(m.weights.single_copy_bytes),
        mb(m.weights.bf16_single_copy_bytes),
    );
    println!(
        "bf16 solo inference: {:.2} GFLOP/s-eq vs {:.2} f32 -> {:.2}x; growth rate {:.4} \
         vs {:.4} f32 ({:+.2}%)",
        m.bf16.bf16_gflops,
        m.bf16.f32_gflops,
        m.bf16.bf16_gflops / m.bf16.f32_gflops,
        m.bf16.growth_bf16,
        m.bf16.growth_f32,
        (m.bf16.growth_bf16 / m.bf16.growth_f32 - 1.0) * 100.0,
    );
}

fn check(m: &Measurement) -> i32 {
    // Gate 1 (machine-relative, always active): the batched scheduler
    // must actually amortize — live speedup over the solo loop.
    let min_speedup: f64 = std::env::var("DLPIC_ENSEMBLE_MIN_SPEEDUP")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.5);
    let speedup = m.batched_1t.steps_per_sec / m.solo.steps_per_sec;
    println!("batched/solo speedup: {speedup:.2}x (gate: >= {min_speedup:.2}x)");
    let mut failed = speedup < min_speedup;
    if failed {
        println!("FAIL: batched ensemble no longer amortizes the DL inference");
    }

    // Gate 1a (machine-relative): with a second core, the team under the
    // wave must be worth having. One thread has nothing to compare.
    if m.threads >= 2 {
        const MIN_MT_SPEEDUP: f64 = 1.15;
        let mt = m.batched_mt.steps_per_sec / m.batched_1t.steps_per_sec;
        println!(
            "batched {}t/1t speedup: {mt:.2}x (gate: >= {MIN_MT_SPEEDUP:.2}x)",
            m.threads
        );
        if mt < MIN_MT_SPEEDUP {
            failed = true;
            println!("FAIL: the worker team under the wave no longer pays for itself");
        }
    } else {
        println!("batched_mt_vs_1t gate skipped: one thread available, nothing to compare");
    }

    // Gate 1b (machine-independent): the 16-run fleet must pin at most
    // 1.1x one weight copy — the Arc-sharing contract. Any private copy
    // sneaking back in jumps the ratio to >= 2x, far past the gate.
    let weight_ratio = m.weights.fleet_shared_bytes as f64 / m.weights.single_copy_bytes as f64;
    println!(
        "fleet/single-copy weight bytes: {weight_ratio:.3}x across {} distinct model(s) \
         (gate: <= 1.10x)",
        m.weights.distinct_models
    );
    if weight_ratio > 1.10 {
        failed = true;
        println!("FAIL: fleet weights are no longer shared (private copies per session?)");
    }

    // Gate 1c (machine-relative): bf16 storage must beat f32 on the
    // memory-bound solo inference it exists for.
    let min_bf16: f64 = std::env::var("DLPIC_BF16_MIN_SPEEDUP")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.3);
    let bf16_speedup = m.bf16.bf16_gflops / m.bf16.f32_gflops;
    println!("bf16/f32 solo inference: {bf16_speedup:.2}x (gate: >= {min_bf16:.2}x)");
    if bf16_speedup < min_bf16 {
        failed = true;
        println!("FAIL: bf16 weight storage no longer pays for its precision loss");
    }

    // Gate 1d (physics): bf16 must reproduce the f32 two-stream growth
    // rate within tolerance — the contract that gates bf16 adoption.
    let growth_tol: f64 = std::env::var("DLPIC_BF16_GROWTH_TOL")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.05);
    let growth_err = (m.bf16.growth_bf16 - m.bf16.growth_f32).abs() / m.bf16.growth_f32.abs();
    println!(
        "bf16 growth-rate deviation: {:.3}% (gate: <= {:.1}%)",
        growth_err * 100.0,
        growth_tol * 100.0
    );
    if growth_err > growth_tol {
        failed = true;
        println!("FAIL: bf16 inference drifts the two-stream growth rate past tolerance");
    }

    // Gate 2: absolute throughput vs the committed numbers, rescaled by
    // the calibration anchor.
    let text = match std::fs::read_to_string("BENCH_ensemble.json") {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read BENCH_ensemble.json: {e}");
            return 2;
        }
    };
    let Some(cur_at) = text.find("\"current\"") else {
        eprintln!("BENCH_ensemble.json has no \"current\" section");
        return 2;
    };
    let scale = match json_value_after(&text, cur_at, "calibration_gflops") {
        Some(cal) if cal > 0.0 => {
            let s = m.calibration / cal;
            println!(
                "calibration: committed {cal:.2} GFLOP/s, this machine {:.2} (scale {s:.2}x)",
                m.calibration
            );
            s
        }
        _ => 1.0,
    };
    // The DL-inference workload is f32-kernel-bound while the anchor is
    // f64: across an AVX-512 <-> portable dispatch mismatch the anchor
    // cannot track it, so derate 3x (same policy as the train gate).
    let derate = match json_string_after(&text, cur_at, "simd").as_deref() {
        Some(committed) if committed != m.simd => {
            println!(
                "kernel-path mismatch (committed {committed}, this machine {}): derating \
                 absolute expectations 3x",
                m.simd
            );
            3.0
        }
        _ => 1.0,
    };
    // Wider default than the step/train gates (0.35 vs 0.25): the
    // absolute check is the secondary backstop here (the primary,
    // machine-relative contract is the speedup ratio above), and the
    // f64 anchor swings ~±15% run-to-run on the dev container while the
    // fleet workload is steadier — a 25% gate would flake on anchor
    // drift alone.
    let tolerance: f64 = std::env::var("DLPIC_PERF_MAX_REGRESSION")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.35);
    let committed = |section: &str| {
        let at = text[cur_at..].find(&format!("\"{section}\""))? + cur_at;
        json_value_after(&text, at, "session_steps_per_sec")
    };
    for (name, measured) in [
        ("solo", m.solo.steps_per_sec),
        ("batched_1t", m.batched_1t.steps_per_sec),
    ] {
        let Some(base) = committed(name) else {
            eprintln!("BENCH_ensemble.json has no parsable \"{name}\" section");
            return 2;
        };
        let expected = base * scale / derate;
        let delta = measured / expected - 1.0;
        let verdict = if delta < -tolerance {
            failed = true;
            "REGRESSION"
        } else {
            "ok"
        };
        println!(
            "{name:>10}: expected {expected:.3e}, measured {measured:.3e} ({:+.1}%) {verdict}",
            delta * 100.0
        );
    }
    if failed {
        println!("FAIL: ensemble throughput gate");
        1
    } else {
        println!("PASS: ensemble throughput within tolerance");
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

    if args.iter().any(|a| a == "--write-bench") {
        let json = format!(
            "{{\n  \"bench\": \"ensemble_throughput\",\n  \"note\": \"single-machine; compare the speedup ratios, not cross-machine absolutes. solo = the hand-rolled Engine::start loop the ensemble API replaces (the pre-ensemble baseline)\",\n  \"current\": {},\n  \"speedup\": {{\n    \"batched_1t_vs_solo\": {:.3},\n    \"batched_mt_vs_1t\": {:.3}\n  }}\n}}\n",
            measurement_json(&m, "  "),
            m.batched_1t.steps_per_sec / m.solo.steps_per_sec,
            m.batched_mt.steps_per_sec / m.batched_1t.steps_per_sec,
        );
        std::fs::write("BENCH_ensemble.json", &json).expect("write BENCH_ensemble.json");
        println!("wrote BENCH_ensemble.json");
    }

    if do_check {
        std::process::exit(check(&m));
    }
}
