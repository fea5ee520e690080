//! `bench` — the end-to-end side of the benchmark.
//!
//! `bench --workload NAME --seed N --seconds S --trace 0` sets the
//! workload up, checks its outputs, repeats its op in a closed loop for
//! `S` seconds and prints the end-to-end metrics as one JSON line.
//! Without `--workload` it runs the whole suite, each workload in a
//! fresh child process and then the traced pass (see [`suite`]).
//!
//! Facade imports only (see the library docs): nothing here names `pic`,
//! `pic2d`, the `core` solvers or `nn` kernels.

mod suite;

use std::time::{Duration, Instant};

use dlpic_benchmark::cli::Args;
use dlpic_benchmark::metrics::{Workload, END_TO_END};
use dlpic_benchmark::model::train_model;
use dlpic_benchmark::report::result_line;
use dlpic_benchmark::served::{run_job, Daemon, JobRecord, Reference};
use dlpic_benchmark::spans::Tracer;
use dlpic_benchmark::stats::{median, percentile, samples_beyond, supported_tail};
use dlpic_benchmark::workloads::{
    check_phase_split, check_solo_physics, direct_histories, engine_for, fleet_job, job_steps,
    max_parallel, served_connections, served_job, solo_backend, solo_spec, Tally, SMALL_TENANTS,
};
use dlpic_repro::core::ModelBundle;
use dlpic_repro::engine::{Backend, EnergyHistory, Engine, RunSummary};
use dlpic_serve::client::Client;
use dlpic_serve::job::JobRequest;

/// How often a run builds the workload's state apart from the model;
/// `setup_s` is the one training plus the median build. (The driver's
/// contract asks for several set-ups and their median; training takes
/// seconds and repeats within a few percent, so it happens once.)
const SETUP_REPEATS: usize = 3;

/// Ops a window holds at the least, however slow the machine.
const MIN_OPS: usize = 3;

/// What one workload's run produced.
struct Outcome {
    setup_s: f64,
    /// Wall milliseconds of every op that finished in the window.
    op_ms: Vec<f64>,
    /// Wall seconds from the first op issued to the last one returned.
    window_s: f64,
    /// Session·steps one op advances, over all its runs.
    steps_per_op: usize,
    tally: Tally,
}

/// Trains the model if the workload needs one, then builds the rest of
/// the workload's state `SETUP_REPEATS` times (tearing all but the last
/// down). Returns `setup_s`, the model and the last state.
fn set_up<T>(
    workload: Workload,
    mut build: impl FnMut(Option<&ModelBundle>) -> T,
    mut teardown: impl FnMut(T),
) -> (f64, Option<ModelBundle>, T) {
    let t0 = Instant::now();
    let model = workload.uses_model().then(|| train_model().bundle);
    let train_s = t0.elapsed().as_secs_f64();
    let mut build_s = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(previous) = last.take() {
            teardown(previous);
        }
        let t0 = Instant::now();
        last = Some(build(model.as_ref()));
        build_s.push(t0.elapsed().as_secs_f64());
    }
    let state = last.expect("at least one set-up");
    (train_s + median(&build_s), model, state)
}

/// Forgets the peak resident set reached so far, so `peak_rss_mb` is the
/// measured window's and not the training's. Where the kernel refuses,
/// the metric still reads (then including set-up).
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// `solo_*`: one caller, one `Engine::run` after another.
fn run_solo(workload: Workload, args: &Args) -> Outcome {
    let spec = solo_spec(workload, args.seed);
    let backend = solo_backend(workload);
    // Set-up: model, engine, and one warm-up run whose summary is the
    // reference every later repetition must reproduce.
    let (setup_s, _, (mut engine, reference)) = set_up(
        workload,
        |model| {
            let mut engine = engine_for(workload, model);
            let reference = engine.run(&spec, backend).expect("warm-up run");
            (engine, reference)
        },
        drop,
    );

    let mut tally = Tally::default();
    check_solo_physics(workload, &spec, &reference, &mut tally);
    if workload == Workload::SoloDl {
        check_phase_split(&engine, &spec, &mut tally);
    }

    reset_peak_rss();
    let mut op_ms = Vec::new();
    let window = Instant::now();
    while window.elapsed().as_secs_f64() < args.seconds || op_ms.len() < MIN_OPS {
        let t0 = Instant::now();
        let run: Result<RunSummary, _> = engine.run(&spec, backend);
        op_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let same = run.as_ref().is_ok_and(|s| s.history == reference.history);
        tally.record(same, || match &run {
            Ok(_) => format!(
                "{}: a repetition's history differs from the first",
                workload.name()
            ),
            Err(e) => format!("{}: {e}", workload.name()),
        });
    }
    Outcome {
        setup_s,
        op_ms,
        window_s: window.elapsed().as_secs_f64(),
        steps_per_op: spec.n_steps,
        tally,
    }
}

/// `fleet_dl`: one caller; the op builds the 16-run fleet, drives it to
/// its end on `min(nproc, 2)` worker threads and collects the summaries.
fn run_fleet(args: &Args) -> Outcome {
    let specs = fleet_job(args.seed).expand().expect("fleet expands");
    let threads = max_parallel();
    let run_once = |engine: &Engine, threads: usize| -> (f64, bool, Vec<EnergyHistory>) {
        let t0 = Instant::now();
        let mut fleet = engine
            .start_ensemble(&specs, Backend::Dl1D)
            .expect("start fleet");
        fleet.run_to_end(threads);
        let healthy = fleet.faults().is_empty() && fleet.is_complete();
        let histories = fleet.finish().into_iter().map(|s| s.history).collect();
        (t0.elapsed().as_secs_f64() * 1e3, healthy, histories)
    };
    let (setup_s, _, (mut engine, (healthy, reference))) = set_up(
        Workload::FleetDl,
        |model| {
            let engine = engine_for(Workload::FleetDl, model);
            let (_, healthy, reference) = run_once(&engine, threads);
            (engine, (healthy, reference))
        },
        drop,
    );

    let mut tally = Tally::default();
    tally.record(healthy, || "fleet_dl: the warm-up fleet faulted".into());
    let direct = direct_histories(&mut engine, &specs, Backend::Dl1D);
    tally.record(reference == direct, || {
        "fleet_dl: a fleet member differs from its solo Engine::run".into()
    });
    let (_, healthy_1t, single) = run_once(&engine, 1);
    tally.record(healthy_1t && single == direct, || {
        "fleet_dl: the one-thread fleet faulted or differs from the solo runs".into()
    });

    reset_peak_rss();
    let mut op_ms = Vec::new();
    let window = Instant::now();
    while window.elapsed().as_secs_f64() < args.seconds || op_ms.len() < MIN_OPS {
        let (ms, healthy, histories) = run_once(&engine, threads);
        op_ms.push(ms);
        tally.record(healthy && histories == reference, || {
            "fleet_dl: a repetition faulted or differs from the first".into()
        });
    }
    Outcome {
        setup_s,
        op_ms,
        window_s: window.elapsed().as_secs_f64(),
        steps_per_op: specs.iter().map(|s| s.n_steps).sum(),
        tally,
    }
}

/// A started daemon, its client connections and the warm-up job that
/// went through it.
struct Served {
    daemon: Daemon,
    clients: Vec<Client>,
    warm_up: (JobRequest, JobRecord),
}

/// `served_*`: closed-loop clients against one in-process daemon. Each
/// connection issues its next job only when the previous one's results
/// are in.
fn run_served(workload: Workload, args: &Args) -> Outcome {
    let connections = served_connections(workload);
    let seed = args.seed;
    let mut off = Tracer::new(false, Instant::now());

    // Set-up: model, daemon, connections, and one warm-up job (index 0;
    // the window's jobs count from 1).
    let (setup_s, model, served) = set_up(
        workload,
        |model| {
            let daemon = Daemon::start(engine_for(workload, model)).expect("start daemon");
            let mut clients: Vec<Client> = (0..connections)
                .map(|_| daemon.connect().expect("connect"))
                .collect();
            let job = served_job(workload, seed, 0, 0);
            let record =
                run_job(&mut clients[0], &mut off, &job, SMALL_TENANTS[0]).expect("warm-up job");
            Served {
                daemon,
                clients,
                warm_up: (job, record),
            }
        },
        |Served {
             daemon,
             mut clients,
             ..
         }| {
            daemon.stop(&mut clients[0]).expect("drain daemon");
        },
    );
    let Served {
        daemon,
        mut clients,
        warm_up,
    } = served;

    reset_peak_rss();
    let window = Instant::now();
    let deadline = window + Duration::from_secs_f64(args.seconds);
    let per_client: Vec<Vec<(JobRequest, Result<JobRecord, String>)>> =
        std::thread::scope(|scope| {
            let handles: Vec<_> = clients
                .iter_mut()
                .enumerate()
                .map(|(tenant, client)| {
                    scope.spawn(move || {
                        let mut off = Tracer::new(false, deadline);
                        let mut done = Vec::new();
                        while Instant::now() < deadline || done.len() < MIN_OPS {
                            let job = served_job(workload, seed, tenant, done.len() + 1);
                            let record = run_job(client, &mut off, &job, SMALL_TENANTS[tenant])
                                .map_err(|e| e.to_string());
                            let lost = record.is_err();
                            done.push((job, record));
                            if lost {
                                break;
                            }
                        }
                        done
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
    // First submit to last result, over all connections.
    let window_s = window.elapsed().as_secs_f64();
    daemon.stop(&mut clients[0]).expect("drain daemon");

    // Verification happens after the window, against direct runs on an
    // engine holding the same model.
    let mut tally = Tally::default();
    let mut reference = Reference::new(workload, seed, engine_for(workload, model.as_ref()));
    reference.verify(&warm_up.0, &warm_up.1.results, &mut tally);
    let mut op_ms = Vec::new();
    for (job, record) in per_client.iter().flatten() {
        match record {
            Ok(record) => {
                op_ms.push(record.ms);
                reference.verify(job, &record.results, &mut tally);
            }
            Err(e) => tally.record(false, || format!("{}: job lost: {e}", workload.name())),
        }
    }

    Outcome {
        setup_s,
        op_ms,
        window_s,
        steps_per_op: job_steps(&warm_up.0),
        tally,
    }
}

fn run_workload(workload: Workload, args: &Args) -> ! {
    let outcome = match workload {
        Workload::SoloDl | Workload::SoloTrad | Workload::SoloTrad2d => run_solo(workload, args),
        Workload::FleetDl => run_fleet(args),
        Workload::ServedFleetDl | Workload::ServedSmallJobs => run_served(workload, args),
    };
    let n = outcome.op_ms.len();
    let p50 = median(&outcome.op_ms);
    let supported = match supported_tail(n) {
        Some(p) => format!("p{p} {:.3} ms", percentile(&outcome.op_ms, p)),
        None => "none".into(),
    };
    eprintln!(
        "{}: seed {}, {n} ops in {:.2} s: p50 {p50:.3} ms, p90 {:.3} ms ({} ops beyond it); highest \
         percentile with ten ops beyond it: {supported}; {} attempted, {} failed",
        workload.name(),
        args.seed,
        outcome.window_s,
        percentile(&outcome.op_ms, 90.0),
        samples_beyond(n, 90.0),
        outcome.tally.attempted,
        outcome.tally.failed,
    );
    let values = [
        ("setup_s", outcome.setup_s),
        (
            "session_steps_per_s",
            (n * outcome.steps_per_op) as f64 / outcome.window_s,
        ),
        ("job_ms_p50", p50),
        ("peak_rss_mb", peak_rss_mb()),
    ];
    println!("{}", result_line(outcome.tally, &END_TO_END, &values));
    std::process::exit(if outcome.tally.failed == 0 { 0 } else { 1 });
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("bench: {e}");
            std::process::exit(2);
        }
    };
    match args.workload {
        Some(_) if args.trace => {
            eprintln!("bench: the traced pass is the `trace` binary; benchmark/run.sh picks it");
            std::process::exit(2);
        }
        Some(workload) => run_workload(workload, &args),
        None => std::process::exit(suite::run(&args)),
    }
}
