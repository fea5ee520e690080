//! Deterministic fault injection for supervision tests: wrap a built
//! [`BackendSession`] so a chosen run panics or goes non-finite at a
//! chosen step. `dlpic-serve --inject` and the containment tests use this
//! to stage one sick run inside an otherwise healthy fleet without
//! touching any solver code.

use super::error::EngineError;
use super::observer::Sample;
use super::session::BackendSession;

/// What an injected fault does when its step arrives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic inside the step (exercises panic containment).
    Panic,
    /// Panic inside the batched inference phase (exercises the degraded
    /// per-member fallback). A wave runs each shared inference through
    /// the first live member of a panel of its cohort, so the rule only
    /// trips on a run that leads one — and trips again in that run's own
    /// 1-row fallback, which is what quarantines it and nobody else.
    InferPanic,
    /// Poison the step's recorded field-energy diagnostic with NaN
    /// (exercises divergence quarantine).
    NanField,
}

impl FaultKind {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "panic" => Some(Self::Panic),
            "infer-panic" => Some(Self::InferPanic),
            "nan" => Some(Self::NanField),
            _ => None,
        }
    }
}

/// One injection rule: runs whose spec name contains `name` trip `kind`
/// when their step counter reaches `at_step`.
#[derive(Debug, Clone)]
pub struct FaultRule {
    /// Substring matched against the expanded spec name
    /// (`two_stream[v0=0.12]` matches rule name `v0=0.12`).
    pub name: String,
    /// What happens.
    pub kind: FaultKind,
    /// The step counter value that trips the rule.
    pub at_step: usize,
}

/// A set of [`FaultRule`]s an [`Engine`](super::Engine) applies when
/// starting sessions; parseable from the `--inject` flag syntax
/// `NAME=KIND@STEP[;NAME=KIND@STEP…]` where `KIND` is `panic`,
/// `infer-panic` or `nan` (`NAME` may itself contain `=`; the split is at
/// the last one).
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// A plan with no rules (injects nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one rule.
    pub fn rule(mut self, name: impl Into<String>, kind: FaultKind, at_step: usize) -> Self {
        self.rules.push(FaultRule {
            name: name.into(),
            kind,
            at_step,
        });
        self
    }

    /// True when no rule is configured.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Parses the `--inject` syntax (see the type docs). Errors name the
    /// offending `;`-separated segment by its 1-based position, so a typo
    /// buried in a long multi-rule plan is findable from the message
    /// alone.
    pub fn parse(text: &str) -> Result<Self, EngineError> {
        let mut plan = Self::new();
        for (idx, part) in text.split(';').enumerate() {
            if part.trim().is_empty() {
                continue;
            }
            let bad = |what: String| EngineError::InvalidSpec {
                scenario: String::new(),
                what: format!("inject segment {} (`{}`): {what}", idx + 1, part.trim()),
            };
            let (name, action) = part
                .rsplit_once('=')
                .ok_or_else(|| bad("not NAME=KIND@STEP".to_string()))?;
            let (kind, step) = action
                .split_once('@')
                .ok_or_else(|| bad(format!("action `{action}` is not KIND@STEP")))?;
            let kind = FaultKind::parse(kind)
                .ok_or_else(|| bad(format!("kind `{kind}` (knows panic, infer-panic, nan)")))?;
            let at_step = step
                .parse()
                .map_err(|_| bad(format!("step `{step}` is not a number")))?;
            plan = plan.rule(name.trim(), kind, at_step);
        }
        Ok(plan)
    }

    /// Wraps `inner` in a [`FaultInjector`] when a rule matches
    /// `spec_name`; hands it back untouched otherwise.
    pub fn wrap(&self, spec_name: &str, inner: Box<dyn BackendSession>) -> Box<dyn BackendSession> {
        match self
            .rules
            .iter()
            .find(|r| !r.name.is_empty() && spec_name.contains(&r.name))
        {
            Some(rule) => Box::new(FaultInjector {
                inner,
                kind: rule.kind,
                at_step: rule.at_step,
            }),
            None => inner,
        }
    }
}

/// A [`BackendSession`] decorator that trips its configured fault when the
/// wrapped session's step counter reaches `at_step`, and is transparent
/// everywhere else (checkpoints, phase splitting, batched inference all
/// delegate).
pub struct FaultInjector {
    inner: Box<dyn BackendSession>,
    kind: FaultKind,
    at_step: usize,
}

impl FaultInjector {
    fn maybe_panic(&self) {
        if self.kind == FaultKind::Panic && self.inner.steps_done() == self.at_step {
            panic!("injected fault: panic at step {}", self.at_step);
        }
    }

    fn maybe_poison(&self, sample: &mut Sample) {
        if self.kind == FaultKind::NanField && sample.step == self.at_step {
            sample.field = f64::NAN;
        }
    }
}

impl BackendSession for FaultInjector {
    fn step(&mut self) -> Sample {
        self.maybe_panic();
        let mut sample = self.inner.step();
        self.maybe_poison(&mut sample);
        sample
    }

    fn sample(&mut self) -> Sample {
        self.inner.sample()
    }

    fn finish(&mut self) -> Sample {
        self.inner.finish()
    }

    fn time(&self) -> f64 {
        self.inner.time()
    }

    fn steps_done(&self) -> usize {
        self.inner.steps_done()
    }

    fn phase_space(&self) -> Option<super::observer::PhaseSpace> {
        self.inner.phase_space()
    }

    fn state_checkpoint(&self) -> super::json::Json {
        self.inner.state_checkpoint()
    }

    fn restore(&mut self, state: &super::json::Json) -> Result<(), EngineError> {
        self.inner.restore(state)
    }

    fn extras(&self) -> Vec<(String, f64)> {
        self.inner.extras()
    }

    fn weight_storage(&self) -> Option<(usize, usize)> {
        self.inner.weight_storage()
    }

    fn infer_shape(&mut self) -> Option<(usize, usize)> {
        self.inner.infer_shape()
    }

    fn step_prepare(&mut self, input: &mut [f32]) -> Sample {
        self.maybe_panic();
        let mut sample = self.inner.step_prepare(input);
        self.maybe_poison(&mut sample);
        sample
    }

    fn infer_batch(&mut self, input: &[f32], rows: usize, output: &mut [f32]) {
        if self.kind == FaultKind::InferPanic && self.inner.steps_done() == self.at_step {
            panic!("injected fault: inference panic at step {}", self.at_step);
        }
        self.inner.infer_batch(input, rows, output);
    }

    fn step_apply(&mut self, output: &[f32]) {
        self.inner.step_apply(output);
    }
}
