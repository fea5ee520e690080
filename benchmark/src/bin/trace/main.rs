//! `trace` — the traced pass of the benchmark.
//!
//! Trains the model once, runs the kernel probes (see [`probes`]), then
//! re-drives all six workload shapes through the layers' public
//! functions with spans on (see [`redrive`]).
//!
//! * `trace --workload NAME --seed N --seconds S` is the driver's call:
//!   it wants every per-layer metric from every run, so NAME gets the
//!   window and the `trace.*` numbers and the other shapes are re-driven
//!   once.
//! * `trace --seed N --seconds S` is the suite's: every shape gets the
//!   window, and the result carries a `trace` object with each
//!   workload's numbers in place of the two `trace.*` metrics.
//!
//! Each shape that had the window leaves its span tree in
//! `benchmark/out/trace-NAME.json`. End-to-end metrics never come from
//! here.

mod probes;
mod redrive;

use std::time::Instant;

use dlpic_benchmark::cli::Args;
use dlpic_benchmark::metrics::{MetricDef, Workload, PER_LAYER};
use dlpic_benchmark::model::{train_model, EPOCHS};
use dlpic_benchmark::report::result_json;
use dlpic_benchmark::served::out_dir;
use dlpic_benchmark::spans::{coverage_pct, self_time_by_name, spans_json};
use dlpic_benchmark::stats::median;
use dlpic_benchmark::workloads::Tally;
use dlpic_repro::engine::json::{obj, Json};

use redrive::{Ctx, Section};

/// Per-layer metric values by name, in the order measured.
#[derive(Default)]
pub struct Values(Vec<(String, f64)>);

impl Values {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.0.push((name.into(), value));
    }

    fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("`{name}` was not measured"))
            .1
    }

    fn pairs(&self) -> Vec<(&str, f64)> {
        self.0.iter().map(|(n, v)| (n.as_str(), *v)).collect()
    }

    fn to_json(&self) -> Json {
        Json::Obj(
            self.0
                .iter()
                .map(|(name, value)| (name.clone(), Json::Num(*value)))
                .collect(),
        )
    }
}

/// `trace.overhead_pct` and `trace.coverage_pct` of a section that had
/// the window.
fn trace_numbers(section: &Section) -> [(&'static str, f64); 2] {
    // Median of the per-pair ratios: the two passes of a pair ran back
    // to back, so slow drift of the machine cancels.
    let ratios: Vec<f64> = section
        .traced_s
        .iter()
        .zip(&section.untraced_s)
        .map(|(traced, untraced)| traced / untraced)
        .collect();
    [
        ("trace.overhead_pct", 100.0 * (median(&ratios) - 1.0)),
        (
            "trace.coverage_pct",
            coverage_pct(&section.spans, section.covered),
        ),
    ]
}

/// The trace file: what ran, every per-layer value, the workload's
/// `trace.*` numbers, its self time per span name, and its spans.
fn trace_file(workload: Workload, args: &Args, values: &Values, section: &Section) -> Json {
    let mut metrics = values.to_json();
    if let Json::Obj(fields) = &mut metrics {
        fields.extend(
            trace_numbers(section)
                .into_iter()
                .map(|(name, value)| (name.to_string(), Json::Num(value))),
        );
    }
    let self_us = self_time_by_name(&section.spans)
        .into_iter()
        .map(|(name, ns)| (name.to_string(), Json::Num(ns as f64 / 1e3)))
        .collect();
    obj(vec![
        ("workload", Json::Str(workload.name().into())),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("traced_passes", Json::Num(section.traced_s.len() as f64)),
        ("covered_span", Json::Str(section.covered.into())),
        ("metrics", metrics),
        ("self_time_us", Json::Obj(self_us)),
        ("trace", spans_json(&section.spans)),
    ])
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("trace: {e}");
            std::process::exit(2);
        }
    };
    let window = |w: Workload| {
        args.workload
            .is_none_or(|named| named == w)
            .then_some(args.seconds)
    };

    let mut values = Values::default();
    let mut tally = Tally::default();

    let trained = train_model();
    values.set("dataset.generate_s", trained.generate_s);
    values.set("dataset.samples", trained.samples as f64);
    values.set("nn.train_s", trained.train_s);
    values.set(
        "nn.train_samples_per_s",
        (EPOCHS * trained.samples) as f64 / trained.train_s,
    );
    let frozen = trained.bundle.freeze().expect("the paper MLP freezes");
    let ctx = Ctx {
        seed: args.seed,
        epoch: Instant::now(),
        bundle: trained.bundle,
        frozen,
    };

    probes::machine(ctx.frozen.weight_bytes(), &mut values);
    probes::inference(
        &ctx.frozen,
        values.get("machine.read_gbps_25mb"),
        &mut values,
    );
    redrive::checkpoint(&ctx, &mut values);

    let mut windowed = Vec::new();
    for w in Workload::ALL {
        eprintln!("trace: re-driving {}", w.name());
        let section = match w {
            Workload::SoloDl => redrive::solo_dl(&ctx, window(w), &mut values, &mut tally),
            Workload::SoloTrad => redrive::solo_trad(&ctx, window(w), &mut values, &mut tally),
            Workload::SoloTrad2d => redrive::solo_trad_2d(&ctx, window(w), &mut values, &mut tally),
            Workload::FleetDl => redrive::fleet_dl(&ctx, window(w), &mut values, &mut tally),
            Workload::ServedFleetDl | Workload::ServedSmallJobs => {
                let served = redrive::served(&ctx, w, window(w), &mut values, &mut tally);
                if w == Workload::ServedFleetDl {
                    values.set("serve.start_ms", served.start_ms);
                    values.set("serve.drain_ms", served.drain_ms);
                    values.set(
                        "serve.fleet.served_vs_direct",
                        served.steps_per_s / values.get("engine.ensemble.steps_per_s_1t"),
                    );
                }
                served.section
            }
        };
        if window(w).is_some() {
            windowed.push((w, section));
        }
    }

    let dir = out_dir();
    for (w, section) in &windowed {
        let path = dir.join(format!("trace-{}.json", w.name()));
        let file = trace_file(*w, &args, &values, section).to_compact();
        if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, file)) {
            eprintln!("trace: cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
        let [(_, overhead), (_, coverage)] = trace_numbers(section);
        eprintln!(
            "trace: {} — {} traced passes, overhead {overhead:.2} %, `{}` covered {coverage:.1} %; wrote {}",
            w.name(),
            section.traced_s.len(),
            section.covered,
            path.display()
        );
    }

    let result = match args.workload {
        Some(_) => {
            for (name, value) in trace_numbers(&windowed[0].1) {
                values.set(name, value);
            }
            result_json(tally, &PER_LAYER, &values.pairs())
        }
        None => {
            let profile: Vec<MetricDef> = PER_LAYER
                .into_iter()
                .filter(|m| !m.name.starts_with("trace."))
                .collect();
            let traces = windowed
                .iter()
                .map(|(w, section)| {
                    let numbers = trace_numbers(section).map(|(name, v)| (name, Json::Num(v)));
                    (w.name().to_string(), obj(numbers.to_vec()))
                })
                .collect();
            let mut result = result_json(tally, &profile, &values.pairs());
            if let Json::Obj(fields) = &mut result {
                fields.push(("trace".into(), Json::Obj(traces)));
            }
            result
        }
    };
    println!("{}", result.to_compact());
    std::process::exit(if tally.failed == 0 { 0 } else { 1 });
}
