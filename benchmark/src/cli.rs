//! Command line shared by the `bench` and `trace` binaries.
//!
//! The driver calls `--workload NAME --seed N --seconds S --trace 0|1`;
//! without `--workload`, `bench` runs the whole suite (and takes
//! `--repeat N` and `--quick` as well) and `trace` gives every shape
//! the window.

use crate::metrics::Workload;

/// How long one run measures when `--seconds` is not given (the
/// `run_seconds` of `BENCHMARK.json`).
pub const DEFAULT_SECONDS: f64 = 10.0;

/// `--quick` divides the measuring window by this.
pub const QUICK_DIVISOR: f64 = 5.0;

#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// One workload (the driver's mode); `None` means all of them.
    pub workload: Option<Workload>,
    /// Offsets every scenario and sweep seed; the model seed is fixed.
    pub seed: u64,
    /// Length of the measuring window.
    pub seconds: f64,
    /// Traced pass (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Suite mode: how many times to run the whole suite.
    pub repeat: usize,
    /// Suite mode: short windows, output stamped not comparable.
    pub quick: bool,
}

impl Args {
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut out = Self {
            workload: None,
            seed: 0,
            seconds: DEFAULT_SECONDS,
            trace: false,
            repeat: 1,
            quick: false,
        };
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => {
                    let name = value()?;
                    out.workload = Some(Workload::parse(&name).ok_or_else(|| {
                        let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                        format!("unknown workload `{name}` (knows {})", known.join(", "))
                    })?);
                }
                "--seed" => {
                    out.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
                }
                "--seconds" => {
                    let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(s > 0.0 && s <= 60.0) {
                        return Err(format!("--seconds {s} is outside (0, 60]"));
                    }
                    out.seconds = s;
                }
                "--trace" => {
                    out.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                    };
                }
                "--repeat" => {
                    out.repeat = value()?.parse().map_err(|e| format!("--repeat: {e}"))?;
                    if out.repeat == 0 {
                        return Err("--repeat 0 runs nothing".into());
                    }
                }
                "--quick" => out.quick = true,
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        Args::parse(line.split_whitespace().map(String::from))
    }

    #[test]
    fn driver_invocation() {
        let a = parse("--workload fleet_dl --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload, Some(Workload::FleetDl));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
    }

    #[test]
    fn suite_defaults_and_errors() {
        let a = parse("--repeat 2 --quick").unwrap();
        assert_eq!((a.workload, a.repeat, a.quick), (None, 2, true));
        assert_eq!(a.seconds, DEFAULT_SECONDS);
        assert!(parse("--workload nope").is_err());
        assert!(parse("--trace 2").is_err());
        assert!(parse("--seed").is_err());
        assert!(parse("--seconds 0").is_err());
        assert!(parse("--frobnicate").is_err());
    }
}
