//! Deterministic fault injection for supervision tests: a chosen run
//! panics or goes non-finite at a chosen step. [`Engine::start`] hands a
//! matching run's rule to its [`Session`], which trips it inside
//! [`Session::step`], [`Session::step_prepare`] or
//! [`Session::infer_batch`]. `dlpic-serve --inject` and the containment
//! tests use this to stage one sick run inside an otherwise healthy fleet
//! without touching any solver code.
//!
//! [`Engine::start`]: super::Engine::start
//! [`Session`]: super::Session
//! [`Session::step`]: super::Session::step
//! [`Session::step_prepare`]: super::Session::step_prepare
//! [`Session::infer_batch`]: super::Session::infer_batch

use super::error::EngineError;

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
struct FaultRule {
    /// Substring matched against the expanded spec name
    /// (`two_stream[v0=0.12]` matches rule name `v0=0.12`).
    pub name: String,
    /// What happens.
    pub kind: FaultKind,
    /// The step counter value that trips the rule.
    pub at_step: usize,
}

/// A set of `FaultRule`s an [`Engine`](super::Engine) applies when
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
            if name.trim().is_empty() {
                return Err(bad("empty NAME matches no run".to_string()));
            }
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

    /// The `(kind, at_step)` of the first rule whose non-empty name
    /// `spec_name` contains, if any.
    pub(crate) fn rule_for(&self, spec_name: &str) -> Option<(FaultKind, usize)> {
        self.rules
            .iter()
            .find(|r| !r.name.is_empty() && spec_name.contains(&r.name))
            .map(|r| (r.kind, r.at_step))
    }
}
