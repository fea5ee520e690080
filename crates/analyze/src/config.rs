//! What a run checks: the rules in scope and the paths it skips. The CLI
//! always runs [`Config::repo_default`]; tests build their own to scope a
//! rule to `**` or to run one rule alone.

use crate::rules::{Rule, RULES};

/// The rules to run, each with its path scope, and the excluded globs.
pub struct Config {
    pub rules: Vec<Rule>,
    /// Glob patterns excluded from scanning entirely.
    pub exclude: Vec<String>,
}

impl Config {
    /// The repo's committed contract: every row of [`RULES`] at its own
    /// scope.
    pub fn repo_default() -> Self {
        Self {
            rules: RULES.to_vec(),
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

    /// Every shipped rule on every path, nothing excluded.
    #[cfg(test)]
    pub(crate) fn all_paths() -> Self {
        Self {
            rules: RULES
                .map(|rule| Rule {
                    paths: &["**"],
                    ..rule
                })
                .to_vec(),
            exclude: Vec::new(),
        }
    }

    /// True when `path` (workspace-relative, `/`-separated) is excluded
    /// from scanning.
    pub fn is_excluded(&self, path: &str) -> bool {
        self.exclude.iter().any(|g| glob_match(g, path))
    }

    /// The rules whose scope covers `path`.
    pub fn rules_for<'a>(&'a self, path: &'a str) -> impl Iterator<Item = &'a Rule> {
        self.rules
            .iter()
            .filter(move |rule| rule.paths.iter().any(|g| glob_match(g, path)))
    }
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
            let path = format!("crates/serve/src/{module}.rs");
            let serve: Vec<&str> = cfg.rules_for(&path).map(|r| r.name).collect();
            assert!(serve.contains(&"no-panic-in-request-path"), "{module}");
            assert!(serve.contains(&"no-hashmap-iter-in-state"), "{module}");
        }
        let mut bin = cfg.rules_for("crates/serve/src/bin/dlpic-cli.rs");
        assert!(!bin.any(|r| r.name == "no-panic-in-request-path"));
        assert!(cfg.is_excluded("target/debug/build/x.rs"));
        assert!(cfg.is_excluded("crates/analyze/tests/fixtures/bad.rs"));
        assert!(!cfg.is_excluded("crates/analyze/src/lib.rs"));
    }
}
