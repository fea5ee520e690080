//! The benchmark's vocabulary: workloads and metric definitions.
//!
//! `BENCHMARK.json` at the repository root states the same tables for
//! the driver; `tests::manifest_matches_tables` keeps the two in step.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Self::Lower => "lower",
            Self::Higher => "higher",
        }
    }
}

/// One named metric. `bound` is the share of the parent's median by
/// which an end-to-end metric may worsen; per-layer metrics have none.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn gated(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees. Every workload reports every one of
/// these from its untraced run; an *op* is one `Engine::run`, one fleet
/// `run_to_end`, or one served job (submit → last result parsed).
///
/// Bounds: this shared 2-vCPU VM adds time in bursts of a second or two
/// and in phases of minutes, so ten identical 10 s runs move the window
/// median by up to a tenth (quartile spread ÷ median) and the mean rate
/// likewise; the timing bounds are therefore the widest the driver's
/// contract allows. Memory repeats within 2 %.
pub const END_TO_END: [MetricDef; 4] = [
    gated("setup_s", "s", Lower, 0.25),
    gated("session_steps_per_s", "steps/s", Higher, 0.25),
    gated("job_ms_p50", "ms", Lower, 0.25),
    gated("peak_rss_mb", "MB", Lower, 0.10),
];

/// The layer profile from the traced pass. The driver wants every one of
/// these from every traced run, so a run re-drives all six shapes: the
/// workload it names for the whole window (and the `trace.*` numbers),
/// the others once. Read a layer from a pass that gave its shape the
/// window. A named percentile is one its smallest sample supports (ten
/// samples beyond it); medians otherwise.
pub const PER_LAYER: [MetricDef; 83] = [
    // pic: spans on the solo_trad re-drive, probes at the same shape.
    layer("pic.pre_solve_us", "us", Lower),
    layer("pic.solve_us", "us", Lower),
    layer("pic.fused_push_us", "us", Lower),
    layer("pic.deposit_us", "us", Lower),
    layer("pic.poisson_us", "us", Lower),
    layer("pic.particle_steps_per_s", "1/s", Higher),
    layer("pic.fused_push_bytes_per_particle", "B", Lower),
    // pic2d: facade-level only.
    layer("pic2d.step_us_p50", "us", Lower),
    layer("pic2d.step_us_p90", "us", Lower),
    layer("pic2d.particle_steps_per_s", "1/s", Higher),
    // core: spans on the layer-level solo_dl re-drive, one probe.
    layer("core.prepare_input_us", "us", Lower),
    layer("core.bin_phase_space_us", "us", Lower),
    layer("core.apply_output_us", "us", Lower),
    // nn: probes on the installed frozen model, plus the training setup.
    layer("nn.weight_bytes", "B", Lower),
    layer("nn.predict_b1_us", "us", Lower),
    layer("nn.predict_b1_gflops", "GFLOP/s", Higher),
    layer("nn.predict_b1_gbps", "GB/s", Higher),
    layer("nn.b1_vs_read_bw", "ratio", Higher),
    layer("nn.predict_b16_us", "us", Lower),
    layer("nn.predict_b16_gflops", "GFLOP/s", Higher),
    layer("nn.b16_vs_b1_per_row", "ratio", Lower),
    layer("nn.train_s", "s", Lower),
    layer("nn.train_samples_per_s", "1/s", Higher),
    layer("dataset.generate_s", "s", Lower),
    layer("dataset.samples", "count", Higher),
    // engine.session: facade spans on solo_dl (and solo_trad for the
    // overhead; the small-job shape for the checkpoint).
    layer("engine.session.start_us", "us", Lower),
    layer("engine.session.step_us_p50", "us", Lower),
    layer("engine.session.step_us_p95", "us", Lower),
    layer("engine.session.step_prepare_us", "us", Lower),
    layer("engine.session.infer_batch_us", "us", Lower),
    layer("engine.session.step_apply_us", "us", Lower),
    layer("engine.session.finish_us", "us", Lower),
    layer("engine.session.facade_overhead_pct", "%", Lower),
    layer("engine.session.checkpoint_us", "us", Lower),
    layer("engine.session.checkpoint_bytes", "B", Lower),
    // engine.ensemble: the fleet_dl shape.
    layer("engine.ensemble.start_s", "s", Lower),
    layer("engine.ensemble.wave_us_p50", "us", Lower),
    layer("engine.ensemble.wave_us_p90", "us", Lower),
    layer("engine.ensemble.prepare_us", "us", Lower),
    layer("engine.ensemble.infer_us", "us", Lower),
    layer("engine.ensemble.apply_us", "us", Lower),
    layer("engine.ensemble.wave_overhead_pct", "%", Lower),
    layer("engine.ensemble.batch_rows", "count", Higher),
    layer("engine.ensemble.steps_per_s_1t", "steps/s", Higher),
    layer("engine.ensemble.steps_per_s_mt", "steps/s", Higher),
    layer("engine.ensemble.mt_speedup", "ratio", Higher),
    // serve: client-side spans and the public status op, once per
    // served shape.
    layer("serve.start_ms", "ms", Lower),
    layer("serve.drain_ms", "ms", Lower),
    layer("serve.fleet.submit_ms_p50", "ms", Lower),
    layer("serve.fleet.watch_ms_p50", "ms", Lower),
    layer("serve.fleet.results_ms_p50", "ms", Lower),
    layer("serve.fleet.results_bytes", "B", Lower),
    layer("serve.fleet.status_ms_p50", "ms", Lower),
    layer("serve.fleet.stepping_s_per_job", "s", Lower),
    layer("serve.fleet.waves_per_job", "count", Lower),
    layer("serve.fleet.wave_ms_p50", "ms", Lower),
    layer("serve.fleet.wave_ms_p90", "ms", Lower),
    layer("serve.fleet.idle_share", "ratio", Lower),
    layer("serve.fleet.served_vs_direct", "ratio", Higher),
    layer("serve.fleet.spool_bytes", "B", Lower),
    layer("serve.fleet.spool_files", "count", Lower),
    // The job count follows the job latency, so the tail is the highest
    // percentile the window's jobs support, named beside its value.
    layer("serve.small.job_ms_tail", "ms", Lower),
    layer("serve.small.job_ms_tail_pct", "%", Higher),
    layer("serve.small.submit_ms_p50", "ms", Lower),
    layer("serve.small.watch_ms_p50", "ms", Lower),
    layer("serve.small.results_ms_p50", "ms", Lower),
    layer("serve.small.results_bytes", "B", Lower),
    layer("serve.small.status_ms_p50", "ms", Lower),
    layer("serve.small.stepping_s_per_job", "s", Lower),
    layer("serve.small.idle_share", "ratio", Lower),
    layer("serve.small.spool_bytes", "B", Lower),
    layer("serve.small.spool_files", "count", Lower),
    // physics: deterministic per seed; the tolerances live in the
    // output checks, these are the values behind them.
    layer("physics.dl_growth_rel_err", "ratio", Lower),
    layer("physics.dl_energy_variation", "ratio", Lower),
    layer("physics.trad_growth_rel_err", "ratio", Lower),
    layer("physics.trad_energy_variation", "ratio", Lower),
    layer("physics.trad2d_energy_variation", "ratio", Lower),
    // machine: context, never a claim.
    layer("machine.nproc", "count", Higher),
    layer("machine.calibration_gflops", "GFLOP/s", Higher),
    layer("machine.read_gbps_25mb", "GB/s", Higher),
    layer("machine.llc_bytes", "B", Higher),
    // trace: of the workload named by --workload.
    layer("trace.overhead_pct", "%", Lower),
    layer("trace.coverage_pct", "%", Higher),
];

/// The six workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SoloDl,
    SoloTrad,
    SoloTrad2d,
    FleetDl,
    ServedFleetDl,
    ServedSmallJobs,
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Self::SoloDl,
        Self::SoloTrad,
        Self::SoloTrad2d,
        Self::FleetDl,
        Self::ServedFleetDl,
        Self::ServedSmallJobs,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Self::SoloDl => "solo_dl",
            Self::SoloTrad => "solo_trad",
            Self::SoloTrad2d => "solo_trad_2d",
            Self::FleetDl => "fleet_dl",
            Self::ServedFleetDl => "served_fleet_dl",
            Self::ServedSmallJobs => "served_small_jobs",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists (the `why` of `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Self::SoloDl => "paper headline run: batch-1 MLP inference is ~2/3 of the step, push+binning the rest",
            Self::SoloTrad => "same spec on deposit+Poisson: bypasses nn and core, the denominator of DL-vs-traditional",
            Self::SoloTrad2d => "only cover for pic2d; 1-D kernel and inference changes predict no change here",
            Self::FleetDl => "16-session fleet: one 16-row cohort GEMM per wave instead of 16 GEMVs, pic negligible",
            Self::ServedFleetDl => "the fleet as one job through the daemon: wire, admission, publish, spool, result shipping",
            Self::ServedSmallJobs => "many 1 ms jobs from two tenants: control plane dominates, stepping and nn are bypassed",
        }
    }

    /// True when the workload's engine needs the trained model.
    pub fn uses_model(self) -> bool {
        matches!(self, Self::SoloDl | Self::FleetDl | Self::ServedFleetDl)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlpic_repro::engine::json::Json;

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for name in END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|m| m.name)
            .chain(Workload::ALL.iter().map(|w| w.name()))
        {
            assert!(well_formed(name), "{name}");
            assert!(seen.insert(name), "{name} is used twice");
        }
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(!m.unit.is_empty() && m.unit.len() <= 16, "{}", m.unit);
            assert!(
                m.unit
                    .bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b)),
                "{}",
                m.unit
            );
        }
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            assert!(w.why().len() <= 200 && !w.why().contains('\n'));
        }
    }

    #[test]
    fn manifest_matches_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
        let rows = |key: &str| doc.field(key).unwrap().as_arr().unwrap().to_vec();
        let text = |row: &Json, key: &str| row.field(key).unwrap().as_str().unwrap().to_string();

        let workloads = rows("workloads");
        assert_eq!(workloads.len(), Workload::ALL.len());
        for (row, w) in workloads.iter().zip(Workload::ALL) {
            assert_eq!(text(row, "name"), w.name());
            assert_eq!(text(row, "why"), w.why());
        }
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed = rows(key);
            assert_eq!(listed.len(), table.len(), "{key}");
            for (row, m) in listed.iter().zip(table) {
                assert_eq!(text(row, "name"), m.name);
                assert_eq!(text(row, "unit"), m.unit, "{}", m.name);
                assert_eq!(text(row, "better"), m.better.name(), "{}", m.name);
                assert_eq!(
                    row.get("bound").map(|b| b.as_f64().unwrap()),
                    m.bound,
                    "{}",
                    m.name
                );
            }
        }
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s"));
    }
}
