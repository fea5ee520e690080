//! In-memory spans recorded from outside the product, around calls into
//! each layer.
//!
//! A [`Tracer`] that is off records nothing and never reads the clock,
//! so the same re-drive code gives both sides of the tracing-overhead
//! comparison.

use std::collections::BTreeMap;
use std::time::Instant;

use dlpic_repro::engine::json::{obj, Json};

/// One timed interval: what ran, when (ns since the tracer's epoch),
/// under which span, and for which run or job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub run: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records a tree of spans on one thread. Threads each keep their own
/// tracer on a shared `epoch` and [`Tracer::absorb`] merges them.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    run: u32,
}

impl Tracer {
    pub fn new(enabled: bool, epoch: Instant) -> Self {
        Self {
            enabled,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
            run: 0,
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Tags the spans that follow with this run/job id.
    pub fn set_run(&mut self, run: u32) {
        self.run = run;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested under the span that
    /// is open on this tracer.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            run: self.run,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Appends another tracer's finished spans (parents re-indexed).
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span: its duration minus the part its direct
/// children cover.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.duration_ns());
        }
    }
    own
}

/// Durations in microseconds of every span called `name`.
pub fn durations_us(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 / 1e3)
        .collect()
}

/// Share (percent) of the spans called `parent` that their direct
/// children account for: 100 × (1 − Σ self ÷ Σ duration). Parents
/// without children are left out, so a leaf use of the same name does
/// not dilute the figure.
pub fn coverage_pct(spans: &[Span], parent: &str) -> f64 {
    let own = self_times_ns(spans);
    let mut has_child = vec![false; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            has_child[p] = true;
        }
    }
    let (mut total, mut uncovered) = (0u64, 0u64);
    for (i, s) in spans.iter().enumerate() {
        if s.name == parent && has_child[i] {
            total += s.duration_ns();
            uncovered += own[i];
        }
    }
    if total == 0 {
        return 0.0;
    }
    100.0 * (1.0 - uncovered as f64 / total as f64)
}

/// Total self time per span name, in nanoseconds.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let own = self_times_ns(spans);
    let mut by_name = BTreeMap::new();
    for (s, ns) in spans.iter().zip(own) {
        *by_name.entry(s.name).or_insert(0) += ns;
    }
    by_name
}

/// The spans as a JSON document: a name table plus one
/// `[name, start_ns, end_ns, parent, run]` row per span (`parent` is −1
/// at a root).
pub fn spans_json(spans: &[Span]) -> Json {
    let mut names: Vec<&'static str> = Vec::new();
    let rows = spans
        .iter()
        .map(|s| {
            let name = names.iter().position(|n| *n == s.name).unwrap_or_else(|| {
                names.push(s.name);
                names.len() - 1
            });
            Json::num_arr(&[
                name as f64,
                s.start_ns as f64,
                s.end_ns as f64,
                s.parent.map_or(-1.0, |p| p as f64),
                f64::from(s.run),
            ])
        })
        .collect();
    let text = |s: &&str| Json::Str(s.to_string());
    obj(vec![
        ("names", Json::Arr(names.iter().map(text).collect())),
        (
            "columns",
            Json::Arr(
                ["name", "start_ns", "end_ns", "parent", "run"]
                    .iter()
                    .map(text)
                    .collect(),
            ),
        ),
        ("spans", Json::Arr(rows)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            run: 0,
        }
    }

    /// run [0,100] → step [10,60] → {prepare [10,20], infer [20,50]};
    ///              step [60,100] → {prepare [60,70], infer [70,100]}.
    fn tree() -> Vec<Span> {
        vec![
            span("run", 0, 100, None),
            span("step", 10, 60, Some(0)),
            span("prepare", 10, 20, Some(1)),
            span("infer", 20, 50, Some(1)),
            span("step", 60, 100, Some(0)),
            span("prepare", 60, 70, Some(4)),
            span("infer", 70, 100, Some(4)),
        ]
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let spans = tree();
        assert_eq!(self_times_ns(&spans), vec![10, 10, 10, 30, 0, 10, 30]);
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name["run"], 10);
        assert_eq!(by_name["step"], 10);
        assert_eq!(by_name["prepare"], 20);
        assert_eq!(by_name["infer"], 60);
        // Self times partition the root.
        assert_eq!(by_name.values().sum::<u64>(), 100);
    }

    #[test]
    fn coverage_counts_only_parents_with_children() {
        let mut spans = tree();
        // Steps last 90 ns, 10 ns of it their own.
        assert!((coverage_pct(&spans, "step") - 100.0 * 80.0 / 90.0).abs() < 1e-9);
        assert!((coverage_pct(&spans, "run") - 90.0).abs() < 1e-9);
        // A childless step elsewhere does not dilute it.
        spans.push(span("step", 200, 300, None));
        assert!((coverage_pct(&spans, "step") - 100.0 * 80.0 / 90.0).abs() < 1e-9);
        assert_eq!(coverage_pct(&spans, "absent"), 0.0);
    }

    #[test]
    fn tracer_nests_and_merges() {
        let epoch = Instant::now();
        let mut a = Tracer::new(true, epoch);
        a.set_run(3);
        a.span("job", |t| {
            t.span("submit", |_| ());
            t.span("watch", |_| ());
        });
        let mut b = Tracer::new(true, epoch);
        b.span("job", |t| t.span("submit", |_| ()));
        a.absorb(b);
        let spans = a.spans();
        assert_eq!(spans.len(), 5);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[3].parent, None);
        assert_eq!(spans[4].parent, Some(3));
        assert_eq!(spans[0].run, 3);
        assert!(spans[0].end_ns >= spans[2].end_ns);
        assert_eq!(durations_us(spans, "submit").len(), 2);

        let mut off = Tracer::new(false, epoch);
        assert_eq!(off.span("job", |_| 7), 7);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn json_round_trips_through_the_engine_parser() {
        let doc = Json::parse(&spans_json(&tree()).to_compact()).expect("valid JSON");
        let names = doc.field("names").unwrap().as_arr().unwrap();
        assert_eq!(names.len(), 4);
        let rows = doc.field("spans").unwrap().as_arr().unwrap();
        assert_eq!(rows.len(), 7);
        assert_eq!(rows[0].as_f64_vec().unwrap(), [0.0, 0.0, 100.0, -1.0, 0.0]);
        assert_eq!(rows[3].as_f64_vec().unwrap(), [3.0, 20.0, 50.0, 1.0, 0.0]);
    }
}
