//! Rule configuration: per-rule severity levels and path scopes, the
//! repo's committed defaults, and a small line-based config-file format
//! for overriding them (`--config`).
//!
//! Everything iterates in `BTreeMap` order — the analyzer holds itself to
//! the same determinism contract it enforces.

use std::collections::BTreeMap;
use std::fmt;

/// How a rule's findings are treated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Level {
    /// Rule is off for its scope.
    Allow,
    /// Findings are reported but never fail the run.
    Warn,
    /// Findings fail a `--deny` run unless suppressed or baselined.
    Deny,
}

impl Level {
    /// Parses `allow`/`warn`/`deny`.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "allow" => Ok(Self::Allow),
            "warn" => Ok(Self::Warn),
            "deny" => Ok(Self::Deny),
            other => Err(format!("unknown level `{other}` (allow|warn|deny)")),
        }
    }
}

impl fmt::Display for Level {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Self::Allow => "allow",
            Self::Warn => "warn",
            Self::Deny => "deny",
        })
    }
}

/// One rule's configuration.
#[derive(Debug, Clone)]
pub struct RuleConfig {
    pub level: Level,
    /// Glob patterns (workspace-relative, `/`-separated) selecting the
    /// files the rule applies to. `**` spans path segments, `*` and `?`
    /// stay within one segment.
    pub paths: Vec<String>,
}

/// The full analyzer configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Rule name → configuration, in deterministic order.
    pub rules: BTreeMap<String, RuleConfig>,
    /// Glob patterns excluded from scanning entirely.
    pub exclude: Vec<String>,
}

/// The shipped rule names, in reporting order.
pub const RULE_NAMES: [&str; 9] = [
    "no-hashmap-iter-in-state",
    "no-wallclock-in-engine",
    "no-panic-in-request-path",
    "safety-comment-required",
    "no-alloc-in-hot-loop",
    "phase-constants-only",
    "no-weight-clone",
    "no-unbounded-spin",
    "pub-reach",
];

/// One-line description per rule (for `--list-rules` and SARIF output).
pub fn rule_description(rule: &str) -> &'static str {
    match rule {
        "no-hashmap-iter-in-state" => {
            "state-serialization paths must not use HashMap/HashSet: their \
             iteration order is nondeterministic, which breaks byte-identical \
             checkpoint/spool/status output — use BTreeMap/BTreeSet or sort keys"
        }
        "no-wallclock-in-engine" => {
            "engine and solver code must not read the wall clock \
             (Instant::now/SystemTime::now): time-dependent state breaks \
             checkpoint/resume bit-identity — thread timing in from the caller"
        }
        "no-panic-in-request-path" => {
            "serve request-path modules must not unwrap/expect/panic: a \
             hostile or malformed request must become a structured error, \
             never a daemon crash (Mutex/Condvar poisoning propagation is exempt)"
        }
        "safety-comment-required" => {
            "every `unsafe` must be justified by a `// SAFETY:` comment or a \
             `# Safety` doc section directly above it"
        }
        "no-alloc-in-hot-loop" => {
            "files opting in with `// analyze:hot` must not allocate inside \
             loop bodies (Vec::new/vec!/to_vec/clone/format!/collect/…) — \
             the PR 2/3 allocation-free-stepping wins depend on it"
        }
        "phase-constants-only" => {
            "every `fabric.send(..)` emission must tag its phase with a \
             `comm::PHASE_*` constant, so KNOWN_PHASES can never drift from \
             the emitters"
        }
        "no-weight-clone" => {
            "engine and serve code must not `.clone()` bundles/models/\
             networks: one cloned weight set per session erases the \
             shared-fleet memory budget — share an `Arc<FrozenModel>` and \
             take handles with `Arc::clone`"
        }
        "no-unbounded-spin" => {
            "a `spin_loop()` must sit in a loop with an iteration bound \
             (`for`) or a park fallback (`park`/`wait`/`sleep` in the same \
             `while`/`loop` body): an unbounded poll turns a descheduled \
             partner — a withheld vCPU — into a stall that also steals the \
             core the partner needs"
        }
        "pub-reach" => {
            "a `pub` item must be named by another file's non-test code \
             (`pub use` re-exports do not count; `benchmark/src` does): \
             narrow the rest to private or `pub(crate)`, move test-only \
             items into `#[cfg(test)]`, or delete them"
        }
        _ => "unknown rule",
    }
}

impl Config {
    /// The repo's committed contract: every rule at `deny`, scoped to the
    /// modules whose invariants it protects.
    pub fn repo_default() -> Self {
        let mut rules = BTreeMap::new();
        let rule = |level, paths: &[&str]| RuleConfig {
            level,
            paths: paths.iter().map(|s| s.to_string()).collect(),
        };
        // Determinism: serialization paths that feed checkpoint files,
        // the spool, or wire-visible status documents, and the serve
        // modules that hold or order the control-plane state behind them.
        rules.insert(
            "no-hashmap-iter-in-state".to_string(),
            rule(
                Level::Deny,
                &[
                    "crates/serve/src/spool.rs",
                    "crates/serve/src/server.rs",
                    "crates/serve/src/table.rs",
                    "crates/serve/src/admission.rs",
                    "crates/serve/src/scheduler.rs",
                    "crates/serve/src/handlers.rs",
                    "crates/serve/src/resume.rs",
                    "crates/serve/src/stats.rs",
                    "crates/serve/src/protocol.rs",
                    "src/engine/session.rs",
                    "src/engine/json.rs",
                    "src/engine/ensemble.rs",
                ],
            ),
        );
        // Determinism: engine + solver crates (their integration tests
        // under crates/*/tests may time things freely).
        rules.insert(
            "no-wallclock-in-engine".to_string(),
            rule(
                Level::Deny,
                &[
                    "src/engine/**",
                    "crates/analytics/src/**",
                    "crates/core/src/**",
                    "crates/dataset/src/**",
                    "crates/ddecomp/src/**",
                    "crates/nn/src/**",
                    "crates/pic/src/**",
                    "crates/vlasov/src/**",
                ],
            ),
        );
        // Panic safety: the serve library modules handle hostile input;
        // the bins (CLI arg parsing) legitimately exit loudly.
        rules.insert(
            "no-panic-in-request-path".to_string(),
            rule(Level::Deny, &["crates/serve/src/*.rs"]),
        );
        // Unsafe hygiene: everywhere.
        rules.insert(
            "safety-comment-required".to_string(),
            rule(Level::Deny, &["**"]),
        );
        // Hot-path allocation: everywhere a file opts in.
        rules.insert(
            "no-alloc-in-hot-loop".to_string(),
            rule(Level::Deny, &["**"]),
        );
        // Constant drift: the rank fabric's emission sites.
        rules.insert(
            "phase-constants-only".to_string(),
            rule(Level::Deny, &["crates/ddecomp/src/**"]),
        );
        // Weight sharing: the fleet-facing layers, where one stray clone
        // multiplies resident weight bytes by the session count.
        rules.insert(
            "no-weight-clone".to_string(),
            rule(Level::Deny, &["src/engine/**", "crates/serve/src/**"]),
        );
        // Liveness: the worker team and everything stacked on it.
        rules.insert(
            "no-unbounded-spin".to_string(),
            rule(
                Level::Deny,
                &["crates/core/src/**", "crates/nn/src/**", "src/engine/**"],
            ),
        );
        // Surface: every product crate's non-test code. The index that
        // decides reach spans src, crates, tests, examples and
        // benchmark/src (see `reach`).
        rules.insert(
            "pub-reach".to_string(),
            rule(Level::Deny, &["src/**", "crates/*/src/**"]),
        );
        Self {
            rules,
            exclude: vec![
                "target/**".to_string(),
                ".git/**".to_string(),
                // The fixture corpus violates the rules on purpose.
                "crates/analyze/tests/fixtures/**".to_string(),
                // Offline stand-ins for external crates.io packages: not
                // this repo's code, not held to this repo's contracts.
                "crates/shims/**".to_string(),
            ],
        }
    }

    /// A config with every shipped rule applying to every path at `deny`.
    #[cfg(test)]
    pub(crate) fn all_paths() -> Self {
        let mut cfg = Self::repo_default();
        for rc in cfg.rules.values_mut() {
            rc.paths = vec!["**".to_string()];
        }
        cfg.exclude.clear();
        cfg
    }

    /// Applies one `key = value` override. Keys: `exclude` (comma list,
    /// replaces the default), `<rule>.level`, `<rule>.paths` (comma list).
    pub fn set(&mut self, key: &str, value: &str) -> Result<(), String> {
        if key == "exclude" {
            self.exclude = split_list(value);
            return Ok(());
        }
        let (rule, attr) = key
            .rsplit_once('.')
            .ok_or_else(|| format!("bad key `{key}` (want exclude, <rule>.level, <rule>.paths)"))?;
        let rc = self
            .rules
            .get_mut(rule)
            .ok_or_else(|| format!("unknown rule `{rule}` (see --list-rules)"))?;
        match attr {
            "level" => rc.level = Level::parse(value)?,
            "paths" => rc.paths = split_list(value),
            other => return Err(format!("unknown attribute `{other}` (level|paths)")),
        }
        Ok(())
    }

    /// Parses a config file: `#` comments, blank lines, `key = value`
    /// lines applied via [`Self::set`] on top of the defaults.
    pub fn apply_file(&mut self, text: &str) -> Result<(), String> {
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| format!("line {}: not `key = value`: {line}", idx + 1))?;
            self.set(key.trim(), value.trim())
                .map_err(|e| format!("line {}: {e}", idx + 1))?;
        }
        Ok(())
    }

    /// True when `path` (workspace-relative, `/`-separated) is excluded
    /// from scanning.
    pub fn is_excluded(&self, path: &str) -> bool {
        self.exclude.iter().any(|g| glob_match(g, path))
    }

    /// The rules that apply to `path`, with their levels, skipping
    /// `allow`.
    pub fn rules_for<'a>(&'a self, path: &str) -> Vec<(&'a str, Level)> {
        self.rules
            .iter()
            .filter(|(_, rc)| rc.level != Level::Allow)
            .filter(|(_, rc)| rc.paths.iter().any(|g| glob_match(g, path)))
            .map(|(name, rc)| (name.as_str(), rc.level))
            .collect()
    }
}

fn split_list(value: &str) -> Vec<String> {
    value
        .split(',')
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .collect()
}

/// Matches `path` against `pattern`. Both are `/`-separated. `**` spans
/// any number of segments (including zero), `*` matches any run of
/// characters within one segment, `?` one character.
fn glob_match(pattern: &str, path: &str) -> bool {
    let pat: Vec<&str> = pattern.split('/').collect();
    let segs: Vec<&str> = path.split('/').collect();
    match_segments(&pat, &segs)
}

fn match_segments(pat: &[&str], segs: &[&str]) -> bool {
    match pat.first() {
        None => segs.is_empty(),
        Some(&"**") => {
            // `**` eats zero or more leading segments.
            (0..=segs.len()).any(|k| match_segments(&pat[1..], &segs[k..]))
        }
        Some(p) => match segs.first() {
            None => false,
            Some(s) => match_one(p, s) && match_segments(&pat[1..], &segs[1..]),
        },
    }
}

fn match_one(pat: &str, seg: &str) -> bool {
    let p: Vec<char> = pat.chars().collect();
    let s: Vec<char> = seg.chars().collect();
    match_chars(&p, &s)
}

fn match_chars(p: &[char], s: &[char]) -> bool {
    match p.first() {
        None => s.is_empty(),
        Some('*') => (0..=s.len()).any(|k| match_chars(&p[1..], &s[k..])),
        Some('?') => !s.is_empty() && match_chars(&p[1..], &s[1..]),
        Some(c) => s.first() == Some(c) && match_chars(&p[1..], &s[1..]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn glob_semantics() {
        assert!(glob_match("**", "any/depth/file.rs"));
        assert!(glob_match(
            "crates/serve/src/*.rs",
            "crates/serve/src/server.rs"
        ));
        assert!(!glob_match(
            "crates/serve/src/*.rs",
            "crates/serve/src/bin/cli.rs"
        ));
        assert!(glob_match("src/engine/**", "src/engine/session.rs"));
        assert!(glob_match(
            "crates/nn/src/**",
            "crates/nn/src/layers/conv.rs"
        ));
        assert!(!glob_match("crates/nn/src/**", "crates/nn/tests/api.rs"));
        assert!(glob_match("target/**", "target/release/deps/x.rs"));
        assert!(glob_match("a/?.rs", "a/b.rs"));
        assert!(!glob_match("a/?.rs", "a/bc.rs"));
    }

    #[test]
    fn repo_default_scopes_rules() {
        let cfg = Config::repo_default();
        for module in [
            "server",
            "table",
            "admission",
            "scheduler",
            "handlers",
            "resume",
        ] {
            let serve = cfg.rules_for(&format!("crates/serve/src/{module}.rs"));
            assert!(
                serve.iter().any(|(r, _)| *r == "no-panic-in-request-path"),
                "{module}"
            );
            assert!(
                serve.iter().any(|(r, _)| *r == "no-hashmap-iter-in-state"),
                "{module}"
            );
        }
        let bin = cfg.rules_for("crates/serve/src/bin/dlpic-cli.rs");
        assert!(!bin.iter().any(|(r, _)| *r == "no-panic-in-request-path"));
        assert!(cfg.is_excluded("target/debug/build/x.rs"));
        assert!(cfg.is_excluded("crates/analyze/tests/fixtures/bad.rs"));
        assert!(!cfg.is_excluded("crates/analyze/src/lib.rs"));
    }

    #[test]
    fn config_file_overrides() {
        let mut cfg = Config::repo_default();
        cfg.apply_file(
            "# comment\n\
             no-wallclock-in-engine.level = warn\n\
             no-panic-in-request-path.paths = crates/serve/src/*.rs, crates/serve/src/bin/*.rs\n",
        )
        .unwrap();
        assert_eq!(cfg.rules["no-wallclock-in-engine"].level, Level::Warn);
        assert!(cfg
            .rules_for("crates/serve/src/bin/dlpic-cli.rs")
            .iter()
            .any(|(r, _)| *r == "no-panic-in-request-path"));
        assert!(cfg.apply_file("nonsense\n").is_err());
        assert!(cfg.apply_file("made-up-rule.level = deny\n").is_err());
        assert!(cfg
            .apply_file("no-alloc-in-hot-loop.level = sometimes\n")
            .is_err());
    }
}
