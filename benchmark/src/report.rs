//! The result line every run ends with, and reading it back.

use dlpic_repro::engine::json::{obj, Json};

use crate::metrics::MetricDef;
use crate::workloads::Tally;

/// The one JSON object a run prints as the last line of its standard
/// output: exactly `correct`, `attempted`, `failed` and `metrics`, the
/// metrics being exactly those of `defs`, each with its value as
/// measured and its unit.
///
/// # Panics
/// Panics when `values` misses a metric of `defs`, names one outside it,
/// or holds a non-finite number — a malformed result must never reach
/// the driver.
pub fn result_json(tally: Tally, defs: &[MetricDef], values: &[(&str, f64)]) -> Json {
    assert!(tally.attempted >= 1, "a run attempts at least one op");
    for (name, _) in values {
        assert!(
            defs.iter().any(|d| d.name == *name),
            "`{name}` is not a declared metric"
        );
    }
    let metrics = defs
        .iter()
        .map(|def| {
            let value = values
                .iter()
                .find(|(name, _)| *name == def.name)
                .unwrap_or_else(|| panic!("no value for `{}`", def.name))
                .1;
            assert!(value.is_finite(), "`{}` is {value}", def.name);
            let metric = obj(vec![
                ("value", Json::Num(value)),
                ("unit", Json::Str(def.unit.into())),
            ]);
            (def.name.to_string(), metric)
        })
        .collect();
    obj(vec![
        ("correct", Json::Bool(tally.failed == 0)),
        ("attempted", Json::Num(tally.attempted as f64)),
        ("failed", Json::Num(tally.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ])
}

/// [`result_json`] on one line.
pub fn result_line(tally: Tally, defs: &[MetricDef], values: &[(&str, f64)]) -> String {
    result_json(tally, defs, values).to_compact()
}

/// A parsed result line.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    pub correct: bool,
    pub tally: Tally,
    /// `(name, value, unit)` in the order printed.
    pub metrics: Vec<(String, f64, String)>,
    /// The result line as printed.
    pub line: String,
}

impl RunReport {
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }
}

/// Parses the last line of a run's standard output.
pub fn parse_result(stdout: &str) -> Result<RunReport, String> {
    let line = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or("no output")?;
    let doc = Json::parse(line).map_err(|e| format!("last line is not JSON: {e}"))?;
    let bad = |e| format!("malformed result: {e}");
    let Json::Obj(metrics) = doc.field("metrics").map_err(bad)? else {
        return Err("`metrics` is not an object".into());
    };
    let metrics = metrics
        .iter()
        .map(|(name, m)| {
            Ok((
                name.clone(),
                m.field("value").and_then(Json::as_f64).map_err(bad)?,
                m.field("unit")
                    .and_then(Json::as_str)
                    .map_err(bad)?
                    .to_string(),
            ))
        })
        .collect::<Result<_, String>>()?;
    Ok(RunReport {
        correct: matches!(doc.field("correct").map_err(bad)?, Json::Bool(true)),
        tally: Tally {
            attempted: doc.field("attempted").and_then(Json::as_u64).map_err(bad)?,
            failed: doc.field("failed").and_then(Json::as_u64).map_err(bad)?,
        },
        metrics,
        line: line.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{END_TO_END, PER_LAYER};

    #[test]
    fn result_line_round_trips() {
        let values: Vec<(&str, f64)> = END_TO_END
            .iter()
            .enumerate()
            .map(|(i, d)| (d.name, 1.25 + i as f64 / 3.0))
            .collect();
        let tally = Tally {
            attempted: 31,
            failed: 0,
        };
        let line = result_line(tally, &END_TO_END, &values);
        assert!(!line.contains('\n'));
        let report = parse_result(&format!("noise\n{line}\n\n")).unwrap();
        assert!(report.correct);
        assert_eq!(report.tally, tally);
        assert_eq!(report.metrics.len(), END_TO_END.len());
        for ((name, value, unit), (def, (_, want))) in
            report.metrics.iter().zip(END_TO_END.iter().zip(&values))
        {
            assert_eq!((name.as_str(), unit.as_str()), (def.name, def.unit));
            assert_eq!(value.to_bits(), want.to_bits(), "all digits survive");
        }
        assert_eq!(report.value("setup_s"), Some(1.25));

        let failed = Tally {
            attempted: 3,
            failed: 1,
        };
        assert!(
            !parse_result(&result_line(failed, &END_TO_END, &values))
                .unwrap()
                .correct
        );
    }

    #[test]
    #[should_panic(expected = "no value for")]
    fn a_missing_metric_never_reaches_the_driver() {
        let tally = Tally {
            attempted: 1,
            failed: 0,
        };
        result_line(tally, &PER_LAYER, &[("pic.solve_us", 1.0)]);
    }

    #[test]
    fn garbage_is_rejected() {
        assert!(parse_result("").is_err());
        assert!(parse_result("not json").is_err());
        assert!(parse_result("{\"correct\":true}").is_err());
    }
}
