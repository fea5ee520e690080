//! Serving-tier throughput: session·steps/sec of the paper-scale 16-run
//! DL fleet driven through a live `dlpic-serve` daemon, against the same
//! fleet driven directly through `Ensemble::run_to_end` on the same
//! worker team the daemon's scheduler uses (every core of the machine).
//!
//! The serving tier re-batches co-resident DL sessions into the same
//! lockstep waves as the ensemble layer, so its wave loop should be the
//! ensemble's wave loop plus control-plane overhead (one mutex hop per
//! wave, progress accounting, subscriber fan-out with no subscribers).
//! The contract: **served ≥ 0.9× direct** — multiplexing through the
//! daemon costs at most 10% of fleet throughput.
//!
//! The served number uses the daemon's own `stepping_seconds` meter:
//! cumulative wall time of the scheduler's wave + publish work,
//! excluding session construction (both sides exclude it) and idle
//! waits. That makes the comparison windows equivalent: total fleet
//! session·steps over seconds spent actually advancing the fleet.
//!
//! Before timing, the binary verifies on a mini-fleet that histories
//! served through the daemon are bit-identical to solo runs.
//!
//! Usage (same conventions as `ensemble_throughput`):
//!
//! * `serve_throughput` — full measurement, JSON printed to stdout.
//! * `--out FILE` — write the raw measurement JSON to `FILE`.
//! * `--write-bench` — measure and write `BENCH_serve.json`.
//! * `--quick` — CI-sized workloads.
//! * `--check` — fail if the live served/direct ratio falls below
//!   `DLPIC_SERVE_MIN_RATIO` (default 0.9), or if an absolute
//!   throughput regresses more than `DLPIC_PERF_MAX_REGRESSION`
//!   (default 0.35) against the committed `BENCH_serve.json` after
//!   calibration-anchor rescaling (3× derate on a kernel-path
//!   mismatch, as in the ensemble gate), or if the daemon's per-wave
//!   latency p99 exceeds the committed `served_wave_p99_ms` by more
//!   than `DLPIC_SERVE_MAX_P99_FACTOR` (default 3) after the same
//!   rescaling.

use std::time::{Duration, Instant};

use dlpic_bench::gate::{
    calibration_gflops, json_string_after, json_value_after, median, wake_cores,
};
use dlpic_nn::linalg::simd_level;
use dlpic_repro::core::{pool, Scale};
use dlpic_repro::engine::json::Json;
use dlpic_repro::engine::{self, Backend, EnergyHistory, Engine, SweepSpec};
use dlpic_serve::client::Client;
use dlpic_serve::job::JobRequest;
use dlpic_serve::server::{ServeConfig, Server};

/// Same fleet geometry as `ensemble_throughput`: 16 paper-scale DL runs
/// (two full 8-row zmm tiles per batched wave), light particle load.
const RUNS: usize = 16;
const PPC: usize = 50;

fn fleet_sweep() -> SweepSpec {
    SweepSpec::grid("two_stream", Scale::Paper)
        .axis("ppc", [PPC as f64])
        .seeds(100..100 + RUNS as u64)
}

fn fleet_specs(steps: usize) -> Vec<engine::ScenarioSpec> {
    let mut specs = fleet_sweep().specs().expect("fleet expands");
    for spec in &mut specs {
        spec.n_steps = steps;
    }
    specs
}

#[derive(Clone, Copy)]
struct FleetResult {
    seconds: f64,
    steps_per_sec: f64,
}

/// Times `Ensemble::run_to_end(available_threads())` over the fleet (construction
/// excluded — the daemon's meter excludes it too).
fn bench_direct(specs: &[engine::ScenarioSpec], reps: usize) -> FleetResult {
    let engine = Engine::new();
    let total_steps: usize = specs.iter().map(|s| s.n_steps).sum();
    wake_cores(pool::available_threads());
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let mut ensemble = engine
                .start_ensemble(specs, Backend::Dl1D)
                .expect("start ensemble");
            let t0 = Instant::now();
            ensemble.run_to_end(pool::available_threads());
            let dt = t0.elapsed().as_secs_f64();
            std::hint::black_box(ensemble.is_complete());
            dt
        })
        .collect();
    let seconds = median(times);
    FleetResult {
        seconds,
        steps_per_sec: total_steps as f64 / seconds,
    }
}

/// Submits the fleet as one sweep job to a fresh in-process daemon and
/// reads its `stepping_seconds` meter (and the wave-latency histogram's
/// p99) once every run is done.
fn bench_served(steps: usize, reps: usize) -> (FleetResult, f64) {
    let total_steps = RUNS * steps;
    let samples: Vec<(f64, f64)> = (0..reps)
        .map(|_| {
            let server =
                Server::start(ServeConfig::default().max_sessions(RUNS)).expect("start server");
            let mut client = Client::connect(server.addr()).expect("connect");
            let job = JobRequest::sweep(fleet_sweep(), Backend::Dl1D).with_steps(steps);
            let (id, runs) = client.submit(&job, "bench").expect("submit");
            assert_eq!(runs, RUNS);
            // Poll status (not results: no need to ship histories) until
            // every run is final, then read the meter. Poll gently: on a
            // single-core box an eager poller preempts the scheduler
            // mid-wave and its runtime would be billed to the meter.
            let sample = loop {
                let doc = client.status(Some(&id)).expect("status");
                let runs = doc.field("jobs").and_then(Json::as_arr).expect("jobs")[0]
                    .field("runs")
                    .and_then(Json::as_arr)
                    .expect("runs")
                    .to_vec();
                let all_done = runs
                    .iter()
                    .all(|r| r.field("state").and_then(Json::as_str).expect("state") == "done");
                if all_done {
                    let stepping = doc
                        .field("stepping_seconds")
                        .and_then(Json::as_f64)
                        .expect("stepping_seconds");
                    let p99 = doc
                        .field("wave_latency")
                        .and_then(|w| w.field("p99_ms"))
                        .and_then(Json::as_f64)
                        .expect("wave_latency p99");
                    break (stepping, p99);
                }
                std::thread::sleep(Duration::from_millis(100));
            };
            client.drain().expect("drain");
            server.wait();
            sample
        })
        .collect();
    let seconds = median(samples.iter().map(|s| s.0).collect());
    let p99 = median(samples.iter().map(|s| s.1).collect());
    (
        FleetResult {
            seconds,
            steps_per_sec: total_steps as f64 / seconds,
        },
        p99,
    )
}

/// Asserts (on a mini-fleet) that histories served through the daemon
/// reproduce solo runs bit-for-bit before any number is reported.
fn verify_bit_identity() {
    let steps = 4;
    let specs: Vec<engine::ScenarioSpec> = fleet_specs(steps).into_iter().take(4).collect();
    let server = Server::start(ServeConfig::default()).expect("start server");
    let mut client = Client::connect(server.addr()).expect("connect");
    let sweep = SweepSpec::grid("two_stream", Scale::Paper)
        .axis("ppc", [PPC as f64])
        .seeds(100..104);
    let job = JobRequest::sweep(sweep, Backend::Dl1D).with_steps(steps);
    let (id, _) = client.submit(&job, "verify").expect("submit");
    let results = client
        .wait_for(&id, Duration::from_millis(10))
        .expect("wait");
    for (i, (result, spec)) in results.iter().zip(&specs).enumerate() {
        let served =
            EnergyHistory::from_json_value(result.summary.field("history").expect("history"))
                .expect("history parses");
        let solo = Engine::new().run(spec, Backend::Dl1D).expect("solo run");
        assert!(
            served == solo.history,
            "run {i}: served history differs from solo — the daemon is not exact"
        );
    }
    client.drain().expect("drain");
    server.wait();
    eprintln!("bit-identity: served histories == solo histories (4-run fleet)");
}

struct Measurement {
    calibration: f64,
    simd: &'static str,
    steps: usize,
    direct: FleetResult,
    served: FleetResult,
    /// p99 of the daemon's per-wave latency histogram (median over reps).
    wave_p99_ms: f64,
}

fn measure(quick: bool) -> Measurement {
    let (steps, reps) = if quick { (30, 3) } else { (60, 5) };
    eprintln!("measuring calibration anchor...");
    let calibration = calibration_gflops(reps);
    verify_bit_identity();
    let specs = fleet_specs(steps);
    eprintln!("measuring direct ensemble ({RUNS} runs x {steps} steps x {reps} reps)...");
    let direct = bench_direct(&specs, reps);
    eprintln!("measuring served fleet through the daemon...");
    let (served, wave_p99_ms) = bench_served(steps, reps);
    Measurement {
        calibration,
        simd: simd_level(),
        steps,
        direct,
        served,
        wave_p99_ms,
    }
}

fn measurement_json(m: &Measurement, indent: &str) -> String {
    let fleet = |f: &FleetResult| {
        format!(
            "{{\n{indent}    \"seconds\": {:.4},\n{indent}    \"session_steps_per_sec\": {:.3e}\n{indent}  }}",
            f.seconds, f.steps_per_sec
        )
    };
    format!(
        "{{\n{indent}  \"calibration_gflops\": {:.3},\n{indent}  \"simd\": \"{}\",\n{indent}  \"runs\": {RUNS},\n{indent}  \"steps\": {},\n{indent}  \"ppc\": {PPC},\n{indent}  \"direct\": {},\n{indent}  \"served\": {},\n{indent}  \"served_vs_direct\": {:.3},\n{indent}  \"served_wave_p99_ms\": {:.3}\n{indent}}}",
        m.calibration,
        m.simd,
        m.steps,
        fleet(&m.direct),
        fleet(&m.served),
        m.served.steps_per_sec / m.direct.steps_per_sec,
        m.wave_p99_ms,
    )
}

fn print_human(m: &Measurement) {
    println!(
        "direct ensemble: {:.0} session·steps/s ({:.3}s)",
        m.direct.steps_per_sec, m.direct.seconds
    );
    println!(
        "served daemon  : {:.0} session·steps/s ({:.3}s)  -> {:.3}x vs direct",
        m.served.steps_per_sec,
        m.served.seconds,
        m.served.steps_per_sec / m.direct.steps_per_sec
    );
    println!(
        "wave latency   : p99 {:.3}ms (daemon histogram)",
        m.wave_p99_ms
    );
}

fn check(m: &Measurement) -> i32 {
    // Gate 1 (machine-relative, always active): serving must not tax the
    // fleet more than 10%.
    let min_ratio: f64 = std::env::var("DLPIC_SERVE_MIN_RATIO")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.9);
    let ratio = m.served.steps_per_sec / m.direct.steps_per_sec;
    println!("served/direct ratio: {ratio:.3}x (gate: >= {min_ratio:.2}x)");
    let mut failed = ratio < min_ratio;
    if failed {
        println!("FAIL: the serving tier costs more than the allowed multiplexing overhead");
    }

    // Gate 2: absolute throughput vs the committed numbers, rescaled by
    // the calibration anchor (same policy and tolerance rationale as the
    // ensemble gate: the ratio above is the primary contract).
    let text = match std::fs::read_to_string("BENCH_serve.json") {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read BENCH_serve.json: {e}");
            return 2;
        }
    };
    let Some(cur_at) = text.find("\"current\"") else {
        eprintln!("BENCH_serve.json has no \"current\" section");
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
    let tolerance: f64 = std::env::var("DLPIC_PERF_MAX_REGRESSION")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.35);
    let committed = |section: &str| {
        let at = text[cur_at..].find(&format!("\"{section}\""))? + cur_at;
        json_value_after(&text, at, "session_steps_per_sec")
    };
    for (name, measured) in [
        ("direct", m.direct.steps_per_sec),
        ("served", m.served.steps_per_sec),
    ] {
        let Some(base) = committed(name) else {
            eprintln!("BENCH_serve.json has no parsable \"{name}\" section");
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
    // Gate 3: tail latency. The wave-latency histogram's p99 must stay
    // within a factor of the committed number after the same
    // calibration/derate rescaling (latency scales inversely with
    // machine speed). p99 is read from a log-bucketed histogram and
    // quick mode sees few waves, so the factor is generous — it catches
    // an O(n) scan smuggled into the wave loop, not jitter.
    let max_factor: f64 = std::env::var("DLPIC_SERVE_MAX_P99_FACTOR")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(3.0);
    match json_value_after(&text, cur_at, "served_wave_p99_ms") {
        Some(base) if base > 0.0 => {
            let bound = base / scale * derate * max_factor;
            let verdict = if m.wave_p99_ms > bound {
                failed = true;
                "REGRESSION"
            } else {
                "ok"
            };
            println!(
                "  wave p99: committed {base:.3}ms, bound {bound:.3}ms, measured {:.3}ms {verdict}",
                m.wave_p99_ms
            );
        }
        _ => {
            eprintln!("BENCH_serve.json has no parsable \"served_wave_p99_ms\"");
            return 2;
        }
    }

    if failed {
        println!("FAIL: serve throughput gate");
        1
    } else {
        println!("PASS: serve throughput within tolerance");
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
            "{{\n  \"bench\": \"serve_throughput\",\n  \"note\": \"single-machine; compare served_vs_direct, not cross-machine absolutes. direct = Ensemble::run_to_end(available_threads()) over the same 16-run paper-scale DL fleet, i.e. on the worker team the daemon's waves use; served = the daemon's stepping_seconds meter over one submitted sweep job\",\n  \"current\": {}\n}}\n",
            measurement_json(&m, "  "),
        );
        std::fs::write("BENCH_serve.json", &json).expect("write BENCH_serve.json");
        println!("wrote BENCH_serve.json");
    }

    if do_check {
        std::process::exit(check(&m));
    }
}
