//! Time-series recording, tabulation and CSV export.
//!
//! The experiment binaries dump every figure's underlying data as CSV (the
//! reproduction's equivalent of the paper's MATLAB plots) and print aligned
//! tables (the equivalent of Table I).

use std::fmt::Write as _;
use std::io::{self, Write};
use std::path::Path;

/// A named time series `(t, y)`.
#[derive(Debug, Clone, Default)]
pub struct TimeSeries {
    /// Series name, used as CSV column header and plot legend.
    pub name: String,
    /// Sample times.
    pub times: Vec<f64>,
    /// Sample values.
    pub values: Vec<f64>,
}

impl TimeSeries {
    /// Creates an empty series with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            times: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Creates a series from existing data.
    ///
    /// # Panics
    /// Panics if the vectors differ in length.
    pub fn from_data(name: impl Into<String>, times: Vec<f64>, values: Vec<f64>) -> Self {
        assert_eq!(times.len(), values.len(), "time/value length mismatch");
        Self {
            name: name.into(),
            times,
            values,
        }
    }

    /// Appends a sample.
    pub fn push(&mut self, t: f64, y: f64) {
        self.times.push(t);
        self.values.push(y);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// True if the series holds no samples.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Minimum and maximum value, or `None` when empty.
    #[cfg(test)]
    fn value_range(&self) -> Option<(f64, f64)> {
        if self.is_empty() {
            return None;
        }
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for &v in &self.values {
            lo = lo.min(v);
            hi = hi.max(v);
        }
        Some((lo, hi))
    }

    /// Last value, or `None` when empty.
    pub fn last(&self) -> Option<f64> {
        self.values.last().copied()
    }
}

/// Writes several series sharing a time base as one CSV file
/// (`time,name1,name2,...`).
///
/// # Panics
/// Panics if the series lengths disagree.
pub fn write_csv(path: impl AsRef<Path>, series: &[&TimeSeries]) -> io::Result<()> {
    let file = std::fs::File::create(path)?;
    let mut w = io::BufWriter::new(file);
    write_csv_to(&mut w, series)
}

/// Same as [`write_csv`] but to any writer (testable without a filesystem).
fn write_csv_to<W: Write>(w: &mut W, series: &[&TimeSeries]) -> io::Result<()> {
    assert!(!series.is_empty(), "no series given");
    let n = series[0].len();
    for s in series {
        assert_eq!(s.len(), n, "series `{}` has mismatched length", s.name);
    }
    write!(w, "time")?;
    for s in series {
        write!(w, ",{}", s.name)?;
    }
    writeln!(w)?;
    for i in 0..n {
        write!(w, "{}", series[0].times[i])?;
        for s in series {
            write!(w, ",{}", s.values[i])?;
        }
        writeln!(w)?;
    }
    w.flush()
}

/// A small aligned text table (used to print the paper's Table I).
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Self {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    /// Panics if the cell count differs from the header count.
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "cell count mismatch");
        self.rows.push(cells.to_vec());
        self
    }

    /// Number of data rows.
    #[cfg(test)]
    fn n_rows(&self) -> usize {
        self.rows.len()
    }

    /// Renders with aligned columns.
    pub fn render(&self) -> String {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let sep: String = widths
            .iter()
            .map(|w| "-".repeat(w + 2))
            .collect::<Vec<_>>()
            .join("+");
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for i in 0..ncols {
                let _ = write!(line, " {:<w$} ", cells[i], w = widths[i]);
                if i + 1 < ncols {
                    line.push('|');
                }
            }
            line
        };
        let _ = writeln!(out, "{}", fmt_row(&self.headers, &widths));
        let _ = writeln!(out, "{sep}");
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row, &widths));
        }
        out
    }

    /// Renders as CSV (RFC-4180 quoting for cells containing commas,
    /// quotes or newlines).
    pub fn to_csv(&self) -> String {
        fn escape(cell: &str) -> String {
            if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .map(|c| escape(c))
                .collect::<Vec<_>>()
                .join(",")
        };
        let _ = writeln!(out, "{}", fmt_row(&self.headers));
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_range() {
        let mut s = TimeSeries::new("e1");
        s.push(0.0, 1.0);
        s.push(0.2, -3.0);
        s.push(0.4, 2.0);
        assert_eq!(s.len(), 3);
        assert_eq!(s.value_range(), Some((-3.0, 2.0)));
        assert_eq!(s.last(), Some(2.0));
    }

    #[test]
    fn empty_series_behaviour() {
        let s = TimeSeries::new("empty");
        assert!(s.is_empty());
        assert_eq!(s.value_range(), None);
        assert_eq!(s.last(), None);
    }

    #[test]
    fn csv_output_format() {
        let a = TimeSeries::from_data("a", vec![0.0, 1.0], vec![10.0, 20.0]);
        let b = TimeSeries::from_data("b", vec![0.0, 1.0], vec![-1.0, -2.0]);
        let mut buf = Vec::new();
        write_csv_to(&mut buf, &[&a, &b]).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "time,a,b");
        assert_eq!(lines[1], "0,10,-1");
        assert_eq!(lines[2], "1,20,-2");
    }

    #[test]
    #[should_panic(expected = "mismatched length")]
    fn csv_rejects_ragged_series() {
        let a = TimeSeries::from_data("a", vec![0.0, 1.0], vec![1.0, 2.0]);
        let b = TimeSeries::from_data("b", vec![0.0], vec![1.0]);
        let mut buf = Vec::new();
        let _ = write_csv_to(&mut buf, &[&a, &b]);
    }

    #[test]
    fn table_alignment_and_csv() {
        let mut t = Table::new(&["Metric", "Test Set", "MLP", "CNN"]);
        t.row(&["MAE".into(), "I".into(), "0.0019".into(), "0.0020".into()]);
        t.row(&[
            "Max Error".into(),
            "I".into(),
            "0.0690".into(),
            "0.0463".into(),
        ]);
        let text = t.render();
        assert!(text.contains("Metric"));
        assert!(text.contains("0.0019"));
        // All data lines have equal width.
        let widths: Vec<usize> = text.lines().map(|l| l.len()).collect();
        assert!(widths.windows(2).all(|w| w[0] == w[1] || w[1] == 0));
        let csv = t.to_csv();
        assert!(csv.starts_with("Metric,Test Set,MLP,CNN\n"));
        assert_eq!(t.n_rows(), 2);
    }

    #[test]
    fn csv_quotes_cells_with_commas_and_quotes() {
        let mut t = Table::new(&["Stage", "us"]);
        t.row(&["deposit (64k, CIC)".into(), "311".into()]);
        t.row(&["say \"hi\"".into(), "1".into()]);
        let csv = t.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[1], "\"deposit (64k, CIC)\",311");
        assert_eq!(lines[2], "\"say \"\"hi\"\"\",1");
    }
}
