//! Suite mode: every workload's end-to-end run, each in a fresh child
//! process, then one traced pass that gives every shape the window;
//! `--repeat` times over; then one report of every metric by name with
//! unit, direction and bound.

use std::path::Path;
use std::process::{Command, Stdio};

use dlpic_benchmark::cli::{Args, QUICK_DIVISOR};
use dlpic_benchmark::metrics::{MetricDef, Workload, END_TO_END, PER_LAYER};
use dlpic_benchmark::report::{parse_result, RunReport};
use dlpic_benchmark::stats::{median, quartile_spread, sorted};
use dlpic_repro::engine::json::{obj, Json};

/// Runs one child to completion (its stderr passes through) and parses
/// the result line. A child that fails its output checks still reports;
/// one that dies without a result is an error. Without a workload the
/// child is the traced pass over all six.
fn run_child(
    binary: &Path,
    workload: Option<Workload>,
    args: &Args,
    seconds: f64,
) -> Result<RunReport, String> {
    let mut command = Command::new(binary);
    if let Some(w) = workload {
        command.args(["--workload", w.name()]);
    }
    let output = command
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run {}: {e}", binary.display()))?;
    parse_result(&String::from_utf8_lossy(&output.stdout))
        .map_err(|e| format!("{} ({}): {e}", binary.display(), output.status))
}

/// `min / median / max` of a metric over the repeats, and for a gated
/// metric its quartile spread as a share of the bound.
fn summarise(def: &MetricDef, values: &[f64]) -> String {
    let v = sorted(values);
    let mut line = if v.len() == 1 {
        format!("{:>14.6}", v[0])
    } else {
        format!(
            "{:>14.6} {:>14.6} {:>14.6}",
            v[0],
            median(&v),
            v[v.len() - 1]
        )
    };
    if let (Some(bound), true) = (def.bound, v.len() >= 2) {
        let spread = quartile_spread(&v);
        line.push_str(&format!(
            "  spread {:.4} = {:.2} of bound",
            spread,
            spread / bound
        ));
    }
    line
}

fn print_row(def: &MetricDef, values: &[f64]) {
    if values.is_empty() {
        return;
    }
    let bound = def
        .bound
        .map_or("      -".to_string(), |b| format!("{:>6.0}%", b * 100.0));
    println!(
        "    {:<38} {:<8} {:<6} {bound} {}",
        def.name,
        def.unit,
        def.better.name(),
        summarise(def, values)
    );
}

/// A `trace.*` metric of `workload` in a traced pass's `trace` object.
fn trace_number(traced: &RunReport, workload: Workload, metric: &str) -> Option<f64> {
    Json::parse(&traced.line)
        .ok()?
        .get("trace")?
        .get(workload.name())?
        .get(metric)?
        .as_f64()
        .ok()
}

/// One JSON document of everything measured, the last line of the
/// suite's output. `comparable` is false for `--quick` runs.
fn suite_json(
    args: &Args,
    seconds: f64,
    untraced: &[(Workload, Vec<RunReport>)],
    traced: &[RunReport],
) -> Json {
    // Every line parsed once already.
    let lines = |runs: &[RunReport]| {
        Json::Arr(
            runs.iter()
                .map(|r| Json::parse(&r.line).expect("a parsed result line"))
                .collect(),
        )
    };
    let end_to_end = untraced
        .iter()
        .map(|(w, runs)| (w.name().to_string(), lines(runs)))
        .collect();
    obj(vec![
        ("comparable", Json::Bool(!args.quick)),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("repeat", Json::Num(args.repeat as f64)),
        ("end_to_end", Json::Obj(end_to_end)),
        ("per_layer", lines(traced)),
    ])
}

/// Runs the suite; returns the process exit code (non-zero when any run
/// failed an output check or died).
pub fn run(args: &Args) -> i32 {
    let seconds = if args.quick {
        args.seconds / QUICK_DIVISOR
    } else {
        args.seconds
    };
    let bench = std::env::current_exe().expect("own path");
    let trace = bench.with_file_name("trace");
    if !trace.exists() {
        eprintln!(
            "bench: {} is not built; build both binaries first (benchmark/run.sh does)",
            trace.display()
        );
        return 2;
    }
    let mut untraced: Vec<(Workload, Vec<RunReport>)> =
        Workload::ALL.iter().map(|w| (*w, Vec::new())).collect();
    let mut traced = Vec::new();
    let mut broken = false;
    for repeat in 1..=args.repeat {
        let children = untraced
            .iter_mut()
            .map(|(w, runs)| (&bench, Some(*w), runs))
            .chain([(&trace, None, &mut traced)]);
        for (binary, workload, into) in children {
            eprintln!(
                "== repeat {repeat}/{}: {}",
                args.repeat,
                workload.map_or("traced pass", |w| w.name())
            );
            match run_child(binary, workload, args, seconds) {
                Ok(report) => {
                    broken |= !report.correct;
                    into.push(report);
                }
                Err(e) => {
                    eprintln!("bench: {e}");
                    broken = true;
                }
            }
        }
    }

    println!(
        "dlpic benchmark: seed {}, {seconds} s windows, {} repeat(s){}",
        args.seed,
        args.repeat,
        if args.quick {
            "  [--quick: NOT comparable]"
        } else {
            ""
        }
    );
    let header = if args.repeat == 1 {
        "value"
    } else {
        "min / median / max over repeats"
    };
    println!(
        "    {:<38} {:<8} {:<6} {:>7} {header}",
        "metric", "unit", "better", "bound"
    );
    let (trace_only, profile): (Vec<MetricDef>, Vec<MetricDef>) =
        PER_LAYER.iter().partition(|m| m.name.starts_with("trace."));
    for (workload, runs) in &untraced {
        let (attempted, failed) = runs.iter().fold((0, 0), |(a, f), r| {
            (a + r.tally.attempted, f + r.tally.failed)
        });
        println!(
            "{} — {} ops attempted, {} failed (failed_share {:.4})",
            workload.name(),
            attempted,
            failed,
            failed as f64 / attempted.max(1) as f64
        );
        for def in &END_TO_END {
            let values: Vec<f64> = runs.iter().filter_map(|r| r.value(def.name)).collect();
            print_row(def, &values);
        }
        for def in &trace_only {
            let values: Vec<f64> = traced
                .iter()
                .filter_map(|t| trace_number(t, *workload, def.name))
                .collect();
            print_row(def, &values);
        }
    }
    println!("per layer — the traced pass, every shape re-driven for the window");
    for def in &profile {
        let values: Vec<f64> = traced.iter().filter_map(|r| r.value(def.name)).collect();
        print_row(def, &values);
    }
    println!(
        "{}",
        suite_json(args, seconds, &untraced, &traced).to_compact()
    );
    i32::from(broken)
}
