//! The rule table. Each rule is one [`Rule`] row of [`RULES`]: its name,
//! description, path scope and check function. A check scans a
//! [`SourceFile`]'s token stream (test-masked and comment tokens already
//! excluded) and emits hits; the engine tags them with the row's name and
//! applies inline suppressions.

use crate::reach::ReachIndex;
use crate::source::SourceFile;

/// A raw rule hit, before suppression filtering.
#[derive(Debug, Clone)]
pub struct RuleHit {
    pub line: usize,
    pub message: String,
}

/// One rule: everything the analyzer knows about it.
#[derive(Clone, Copy)]
pub struct Rule {
    pub name: &'static str,
    /// One-line description (for `--list-rules` and JSON output).
    pub description: &'static str,
    /// Glob patterns (workspace-relative, `/`-separated) selecting the
    /// files the rule applies to. `**` spans path segments, `*` and `?`
    /// stay within one segment.
    pub paths: &'static [&'static str],
    /// The check; `ReachIndex` indexes the whole tree for `pub-reach`.
    pub check: fn(&SourceFile, &ReachIndex, &mut Vec<RuleHit>),
}

/// Every shipped rule, in listing order. Adding a rule is one row here,
/// its check function, and a fixture pair under `tests/fixtures/<name>/`.
pub static RULES: [Rule; 9] = [
    Rule {
        name: "no-hashmap-iter-in-state",
        description: "state-serialization paths must not use HashMap/HashSet: their \
                      iteration order is nondeterministic, which breaks byte-identical \
                      checkpoint/spool/status output — use BTreeMap/BTreeSet or sort keys",
        // Serialization paths that feed checkpoint files, the spool, or
        // wire-visible status documents, and the serve modules that hold
        // or order the control-plane state behind them.
        paths: &[
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
        check: no_hashmap_in_state,
    },
    Rule {
        name: "no-wallclock-in-engine",
        description: "engine and solver code must not read the wall clock \
                      (Instant::now/SystemTime::now): time-dependent state breaks \
                      checkpoint/resume bit-identity — thread timing in from the caller",
        // Engine + solver crates (their integration tests under
        // crates/*/tests may time things freely).
        paths: &[
            "src/engine/**",
            "crates/analytics/src/**",
            "crates/core/src/**",
            "crates/dataset/src/**",
            "crates/ddecomp/src/**",
            "crates/nn/src/**",
            "crates/pic/src/**",
            "crates/vlasov/src/**",
        ],
        check: no_wallclock,
    },
    Rule {
        name: "no-panic-in-request-path",
        description: "serve request-path modules must not unwrap/expect/panic: a \
                      hostile or malformed request must become a structured error, \
                      never a daemon crash (Mutex/Condvar poisoning propagation is exempt)",
        // The serve library modules handle hostile input; the bins (CLI
        // arg parsing) legitimately exit loudly.
        paths: &["crates/serve/src/*.rs"],
        check: no_panic_in_request_path,
    },
    Rule {
        name: "safety-comment-required",
        description: "every `unsafe` must be justified by a `// SAFETY:` comment or a \
                      `# Safety` doc section directly above it",
        paths: &["**"],
        check: safety_comment_required,
    },
    Rule {
        name: "no-alloc-in-hot-loop",
        description: "files opting in with `// analyze:hot` must not allocate inside \
                      loop bodies (Vec::new/vec!/to_vec/clone/format!/collect/…) — \
                      the allocation-free stepping depends on it",
        paths: &["**"],
        check: no_alloc_in_hot_loop,
    },
    Rule {
        name: "phase-constants-only",
        description: "every `fabric.send(..)` emission must tag its phase with a \
                      `comm::PHASE_*` constant, so KNOWN_PHASES can never drift from \
                      the emitters",
        // The rank fabric's emission sites.
        paths: &["crates/ddecomp/src/**"],
        check: phase_constants_only,
    },
    Rule {
        name: "no-weight-clone",
        description: "engine and serve code must not `.clone()` bundles/models/\
                      networks: one cloned weight set per session erases the \
                      shared-fleet memory budget — share an `Arc<FrozenModel>` and \
                      take handles with `Arc::clone`",
        // The fleet-facing layers, where one stray clone multiplies
        // resident weight bytes by the session count.
        paths: &["src/engine/**", "crates/serve/src/**"],
        check: no_weight_clone,
    },
    Rule {
        name: "no-unbounded-spin",
        description: "a `spin_loop()` must sit in a loop with an iteration bound \
                      (`for`) or a park fallback (`park`/`wait`/`sleep` in the same \
                      `while`/`loop` body): an unbounded poll turns a descheduled \
                      partner — a withheld vCPU — into a stall that also steals the \
                      core the partner needs",
        // The worker team and everything stacked on it.
        paths: &["crates/core/src/**", "crates/nn/src/**", "src/engine/**"],
        check: no_unbounded_spin,
    },
    Rule {
        name: "pub-reach",
        description: "a `pub` item must be named by another file's non-test code \
                      (`pub use` re-exports do not count; `benchmark/src` does): \
                      narrow the rest to private or `pub(crate)`, move test-only \
                      items into `#[cfg(test)]`, or delete them",
        // Every product crate's non-test code. The index that decides
        // reach spans src, crates, tests, examples and benchmark/src.
        paths: &["src/**", "crates/*/src/**"],
        check: |file, reach, out| reach.check(file, out),
    },
];

/// The engine's own finding, outside [`RULES`]: an `analyze:allow` that
/// does not parse, names no row of the table, or gives no reason. It runs
/// on every file and no allow can name it.
pub static MALFORMED_SUPPRESSION: Rule = Rule {
    name: "malformed-suppression",
    description: "an `analyze:allow` must read `// analyze:allow(rule-name): reason`, \
                  name a rule from `--list-rules` and give a non-empty reason",
    paths: &["**"],
    check: malformed_suppression,
};

/// The row of [`RULES`] named `name`.
pub fn find(name: &str) -> Option<&'static Rule> {
    RULES.iter().find(|rule| rule.name == name)
}

fn malformed_suppression(file: &SourceFile, _: &ReachIndex, out: &mut Vec<RuleHit>) {
    for &line in &file.malformed_allows {
        out.push(RuleHit {
            line,
            message: MALFORMED_SUPPRESSION.description.to_string(),
        });
    }
}

/// `no-hashmap-iter-in-state`: the configured state-serialization paths
/// must not mention `HashMap`/`HashSet` at all. Banning the type rather
/// than chasing `.iter()` call sites is deliberate: if the type never
/// enters the module, no refactor can reintroduce order-dependent output.
fn no_hashmap_in_state(file: &SourceFile, _: &ReachIndex, out: &mut Vec<RuleHit>) {
    for &i in &file.code_indices() {
        let t = &file.tokens[i];
        if t.is_ident("HashMap") || t.is_ident("HashSet") {
            out.push(RuleHit {
                line: t.line,
                message: format!(
                    "`{}` in a state-serialization path: its iteration order is \
                     nondeterministic and can leak into checkpoint/spool/status \
                     bytes — use `BTreeMap`/`BTreeSet` or sort keys explicitly",
                    t.text
                ),
            });
        }
    }
}

/// `no-wallclock-in-engine`: flags `Instant::now` / `SystemTime::now`.
fn no_wallclock(file: &SourceFile, _: &ReachIndex, out: &mut Vec<RuleHit>) {
    let code = file.code_indices();
    for w in code.windows(4) {
        let [a, b, c, d] = [w[0], w[1], w[2], w[3]];
        let clock = &file.tokens[a];
        if (clock.is_ident("Instant") || clock.is_ident("SystemTime"))
            && file.tokens[b].is_punct(':')
            && file.tokens[c].is_punct(':')
            && file.tokens[d].is_ident("now")
        {
            out.push(RuleHit {
                line: clock.line,
                message: format!(
                    "`{}::now()` in engine/solver code: wall-clock reads in \
                     state-affecting paths break checkpoint/resume bit-identity — \
                     thread timing in from the caller, or annotate a diagnostics-only \
                     site with `// analyze:allow(no-wallclock-in-engine): <why>`",
                    clock.text
                ),
            });
        }
    }
}

/// `no-panic-in-request-path`: flags `.unwrap()` / `.expect(` and the
/// panicking macros in serve request-path modules. One structural
/// exemption: `.unwrap()`/`.expect(..)` directly on `lock()`, `wait(..)`,
/// or `wait_timeout(..)` — propagating Mutex/Condvar poisoning is itself
/// the panic-containment strategy (a poisoned lock means a handler
/// already panicked; limping on would serve corrupt state).
fn no_panic_in_request_path(file: &SourceFile, _: &ReachIndex, out: &mut Vec<RuleHit>) {
    let code = file.code_indices();
    for k in 0..code.len() {
        let t = &file.tokens[code[k]];
        // panic-family macros
        if k + 1 < code.len()
            && file.tokens[code[k + 1]].is_punct('!')
            && (t.is_ident("panic")
                || t.is_ident("unreachable")
                || t.is_ident("todo")
                || t.is_ident("unimplemented"))
        {
            out.push(RuleHit {
                line: t.line,
                message: format!(
                    "`{}!` in a request-path module: a malformed or hostile \
                     request must produce a structured error response, not a \
                     daemon panic",
                    t.text
                ),
            });
            continue;
        }
        // .unwrap( / .expect(
        if (t.is_ident("unwrap") || t.is_ident("expect"))
            && k >= 1
            && file.tokens[code[k - 1]].is_punct('.')
            && k + 1 < code.len()
            && file.tokens[code[k + 1]].is_punct('(')
        {
            if poison_exempt_receiver(file, &code, k - 1) {
                continue;
            }
            out.push(RuleHit {
                line: t.line,
                message: format!(
                    "`.{}(…)` in a request-path module: convert the failure \
                     into a structured `server-error`/`bad-request` response \
                     (Mutex/Condvar poisoning propagation via \
                     `.lock()/.wait()/.wait_timeout()` is exempt)",
                    t.text
                ),
            });
        }
    }
}

/// True when the expression before the `.` at code index `dot` is a call
/// of `lock`, `wait`, or `wait_timeout` — i.e. `x.lock().unwrap()`.
fn poison_exempt_receiver(file: &SourceFile, code: &[usize], dot: usize) -> bool {
    if dot == 0 || !file.tokens[code[dot - 1]].is_punct(')') {
        return false;
    }
    // Walk back to the matching `(`.
    let mut depth = 0isize;
    let mut j = dot - 1;
    loop {
        let t = &file.tokens[code[j]];
        if t.is_punct(')') {
            depth += 1;
        } else if t.is_punct('(') {
            depth -= 1;
            if depth == 0 {
                break;
            }
        }
        if j == 0 {
            return false;
        }
        j -= 1;
    }
    if j == 0 {
        return false;
    }
    let callee = &file.tokens[code[j - 1]];
    callee.is_ident("lock") || callee.is_ident("wait") || callee.is_ident("wait_timeout")
}

/// `safety-comment-required`: every `unsafe` token must have a
/// `// SAFETY:` comment or a `# Safety` doc section in the comment /
/// attribute block directly above it (or on its own line).
fn safety_comment_required(file: &SourceFile, _: &ReachIndex, out: &mut Vec<RuleHit>) {
    for &i in &file.code_indices() {
        let t = &file.tokens[i];
        if !t.is_ident("unsafe") {
            continue;
        }
        if has_safety_context(file, t.line) {
            continue;
        }
        out.push(RuleHit {
            line: t.line,
            message: "`unsafe` without a justification: put a `// SAFETY: …` \
                      comment (or a `/// # Safety` doc section) directly above \
                      stating why the contract holds"
                .to_string(),
        });
    }
}

/// Scans the line of the `unsafe` token and the contiguous block of
/// comment/attribute lines above it for a safety marker.
fn has_safety_context(file: &SourceFile, line: usize) -> bool {
    let marker = |l: &str| l.contains("SAFETY:") || l.contains("# Safety");
    if marker(file.snippet(line)) {
        return true;
    }
    let mut n = line - 1; // 1-based line above
    while n >= 1 {
        let s = file.snippet(n);
        let attached = s.starts_with("//")
            || s.starts_with("#[")
            || s.starts_with("#!")
            || s.starts_with(")]");
        if !attached {
            return false;
        }
        if marker(s) {
            return true;
        }
        n -= 1;
    }
    false
}

const ALLOC_CTORS: [&str; 3] = ["Vec", "String", "Box"];
const ALLOC_CTOR_FNS: [&str; 3] = ["new", "with_capacity", "from"];
const ALLOC_METHODS: [&str; 5] = ["to_vec", "to_string", "to_owned", "clone", "collect"];
const ALLOC_MACROS: [&str; 2] = ["vec", "format"];

/// One loop body in a file's code-token stream: the positions (indices
/// into `code`) of its braces, and whether the loop is a `for`.
struct LoopBody {
    open: usize,
    close: usize,
    is_for: bool,
}

/// Every `for`/`while`/`loop` body of the file, in order of their opening
/// brace. After a loop keyword, the body is the first `{` at zero
/// paren/bracket depth (Rust forbids bare struct literals in loop headers,
/// so this is reliable without a parser).
fn loop_bodies(file: &SourceFile, code: &[usize]) -> Vec<LoopBody> {
    let mut bodies: Vec<LoopBody> = Vec::new();
    let mut pending: Vec<bool> = Vec::new(); // loop keywords whose `{` we await: is_for
    let mut header_depth = 0isize;
    let mut open: Vec<(isize, usize)> = Vec::new(); // (brace depth, index into `bodies`)
    let mut brace = 0isize;
    for k in 0..code.len() {
        let t = &file.tokens[code[k]];
        if !pending.is_empty() {
            if t.is_punct('(') || t.is_punct('[') {
                header_depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') {
                header_depth -= 1;
            } else if t.is_punct('{') && header_depth == 0 {
                brace += 1;
                open.push((brace, bodies.len()));
                bodies.push(LoopBody {
                    open: k,
                    close: code.len(),
                    is_for: pending.pop().unwrap_or(false),
                });
                continue;
            }
        }
        if t.is_punct('{') {
            brace += 1;
        } else if t.is_punct('}') {
            if open.last().map(|&(depth, _)| depth) == Some(brace) {
                if let Some((_, body)) = open.pop() {
                    bodies[body].close = k;
                }
            }
            brace -= 1;
        } else if t.is_ident("while") || t.is_ident("loop") {
            pending.push(false);
            header_depth = 0;
        } else if t.is_ident("for") && for_is_a_loop(file, code, k) {
            // `for` also appears in `impl Trait for Type` and `for<'a>`
            // bounds — only a header containing a top-level `in` before
            // its `{` is a loop.
            pending.push(true);
            header_depth = 0;
        }
    }
    bodies
}

/// `no-alloc-in-hot-loop`: in files opted in with `// analyze:hot`,
/// flags allocation-shaped calls inside `for`/`while`/`loop` bodies.
fn no_alloc_in_hot_loop(file: &SourceFile, _: &ReachIndex, out: &mut Vec<RuleHit>) {
    if !file.hot {
        return;
    }
    let code = file.code_indices();
    let mut in_loop = vec![false; code.len()];
    for body in loop_bodies(file, &code) {
        in_loop[body.open + 1..body.close].fill(true);
    }

    for k in 0..code.len() {
        if !in_loop[k] {
            continue;
        }
        let t = &file.tokens[code[k]];
        let mut hit: Option<String> = None;
        // Vec::new / String::with_capacity / Box::new / Vec::from …
        if ALLOC_CTORS.iter().any(|c| t.is_ident(c))
            && k + 3 < code.len()
            && file.tokens[code[k + 1]].is_punct(':')
            && file.tokens[code[k + 2]].is_punct(':')
            && ALLOC_CTOR_FNS
                .iter()
                .any(|f| file.tokens[code[k + 3]].is_ident(f))
        {
            hit = Some(format!("{}::{}", t.text, file.tokens[code[k + 3]].text));
        }
        // vec![…] / format!(…)
        if ALLOC_MACROS.iter().any(|m| t.is_ident(m))
            && k + 1 < code.len()
            && file.tokens[code[k + 1]].is_punct('!')
        {
            hit = Some(format!("{}!", t.text));
        }
        // .to_vec() / .clone() / .collect::<…>() …
        if ALLOC_METHODS.iter().any(|m| t.is_ident(m))
            && k >= 1
            && file.tokens[code[k - 1]].is_punct('.')
        {
            hit = Some(format!(".{}()", t.text));
        }
        if let Some(what) = hit {
            out.push(RuleHit {
                line: t.line,
                message: format!(
                    "`{what}` inside a loop body of an `analyze:hot` file: \
                     hoist the allocation out of the loop or reuse a \
                     caller-owned scratch buffer"
                ),
            });
        }
    }
}

/// True when the `for` at code index `k` heads a real loop: an `in`
/// appears at zero paren/bracket depth before the first top-level `{`.
fn for_is_a_loop(file: &SourceFile, code: &[usize], k: usize) -> bool {
    let mut depth = 0isize;
    for &idx in &code[k + 1..] {
        let t = &file.tokens[idx];
        if t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            depth -= 1;
        } else if depth == 0 {
            if t.is_ident("in") {
                return true;
            }
            if t.is_punct('{') || t.is_punct(';') {
                return false;
            }
        }
    }
    false
}

/// `phase-constants-only`: every `.send(from, to, phase, payload)` call
/// must pass a `PHASE_*` constant as its third argument.
fn phase_constants_only(file: &SourceFile, _: &ReachIndex, out: &mut Vec<RuleHit>) {
    let code = file.code_indices();
    for k in 0..code.len() {
        let t = &file.tokens[code[k]];
        if !(t.is_ident("send")
            && k >= 1
            && file.tokens[code[k - 1]].is_punct('.')
            && k + 1 < code.len()
            && file.tokens[code[k + 1]].is_punct('('))
        {
            continue;
        }
        // Split the argument list at top-level commas; collect arg 2.
        let mut depth = 0isize;
        let mut arg = 0usize;
        let mut phase_ok = false;
        let mut arg_count = 0usize;
        let mut j = k + 1;
        while j < code.len() {
            let a = &file.tokens[code[j]];
            if a.is_punct('(') || a.is_punct('[') || a.is_punct('{') {
                depth += 1;
            } else if a.is_punct(')') || a.is_punct(']') || a.is_punct('}') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if a.is_punct(',') && depth == 1 {
                arg += 1;
            } else if depth >= 1 {
                if arg == 0 && arg_count == 0 {
                    arg_count = 1; // saw at least one token → ≥1 arg
                }
                if arg == 2
                    && a.kind == crate::lexer::TokenKind::Ident
                    && a.text.starts_with("PHASE_")
                {
                    phase_ok = true;
                }
            }
            j += 1;
        }
        let total_args = if arg_count == 0 { 0 } else { arg + 1 };
        if total_args < 3 || !phase_ok {
            out.push(RuleHit {
                line: t.line,
                message: "`.send(…)` without a `comm::PHASE_*` constant as the \
                          phase argument: ad-hoc phase strings drift from \
                          `KNOWN_PHASES` and break checkpoint restore — add a \
                          constant to `comm.rs` and use it here"
                    .to_string(),
            });
        }
    }
}

/// Identifier fragments that name a weight-carrying value. Matched
/// case-insensitively as substrings (`cached_bundle`, `trained_model`, …);
/// `net` alone is matched exactly to avoid `planet`/`netmask` noise. The
/// rule sees names, not types: whatever holds an owned `ModelBundle` or
/// `Sequential` must be named so that it matches. The engine holds none:
/// a DL solver is built only from a `FrozenBundle`, so a per-session
/// weight copy is a type error before it is a finding.
const WEIGHT_NAMES: [&str; 3] = ["bundle", "model", "network"];

/// `no-weight-clone`: flags `<ident>.clone()` where the receiver names a
/// model/bundle/network. Cloning a trained network duplicates its entire
/// weight allocation per session — the shared-fleet memory wins depend on
/// every session holding the same `Arc<FrozenModel>`. `Arc::clone(&x)`
/// (path syntax, no `.`) is the sanctioned way to take another handle and
/// is structurally exempt; so is cloning a `FrozenBundle` — one `Arc` bump
/// plus a few words of metadata — which is why those are called `frozen`.
fn no_weight_clone(file: &SourceFile, _: &ReachIndex, out: &mut Vec<RuleHit>) {
    let code = file.code_indices();
    for k in 2..code.len() {
        let t = &file.tokens[code[k]];
        if !(t.is_ident("clone")
            && file.tokens[code[k - 1]].is_punct('.')
            && k + 1 < code.len()
            && file.tokens[code[k + 1]].is_punct('('))
        {
            continue;
        }
        let recv = &file.tokens[code[k - 2]];
        if recv.kind != crate::lexer::TokenKind::Ident {
            continue;
        }
        let name = recv.text.to_ascii_lowercase();
        if name != "net" && !WEIGHT_NAMES.iter().any(|w| name.contains(w)) {
            continue;
        }
        out.push(RuleHit {
            line: t.line,
            message: format!(
                "`{}.clone()` duplicates a full weight allocation: freeze \
                 once and share an `Arc<FrozenModel>`/`FrozenBundle` across \
                 sessions (take extra handles with `Arc::clone(&…)`), or \
                 annotate a genuinely per-copy site with \
                 `// analyze:allow(no-weight-clone): <why>`",
                recv.text
            ),
        });
    }
}

/// Calls that put the thread to sleep until someone wakes it (or a
/// timer does): what a polling loop must fall back to.
const PARK_CALLS: [&str; 6] = [
    "park",
    "park_timeout",
    "wait",
    "wait_timeout",
    "wait_while",
    "sleep",
];

/// `no-unbounded-spin`: flags a `spin_loop()` whose innermost enclosing
/// loop is a `while`/`loop` with no park call in its body. A `for` is an
/// iteration bound; a `spin_loop()` outside any loop is one pause.
fn no_unbounded_spin(file: &SourceFile, _: &ReachIndex, out: &mut Vec<RuleHit>) {
    let code = file.code_indices();
    let bodies = loop_bodies(file, &code);
    for k in 0..code.len() {
        let t = &file.tokens[code[k]];
        if !(t.is_ident("spin_loop")
            && k + 1 < code.len()
            && file.tokens[code[k + 1]].is_punct('('))
        {
            continue;
        }
        // Bodies are ordered by their opening brace, so the last one that
        // contains `k` is the innermost.
        let Some(body) = bodies.iter().rev().find(|b| b.open < k && k < b.close) else {
            continue;
        };
        let parks = code[body.open..body.close]
            .iter()
            .any(|&i| PARK_CALLS.iter().any(|p| file.tokens[i].is_ident(p)));
        if !body.is_for && !parks {
            out.push(RuleHit {
                line: t.line,
                message: "`spin_loop()` in a loop with no iteration bound and no park \
                          fallback: if the thread it waits for is descheduled, this \
                          spins for as long as that lasts — bound the poll with a \
                          `for`, or park (`wait`/`park`/`sleep`) in the same loop"
                    .to_string(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;

    fn hits(rule: &str, src: &str) -> Vec<RuleHit> {
        let f = SourceFile::parse("x.rs", src);
        let mut out = Vec::new();
        (find(rule).unwrap().check)(&f, &ReachIndex::default(), &mut out);
        out
    }

    #[test]
    fn poison_exemption_covers_chained_locks_only() {
        let src = "fn f() {\n\
                   let a = state.lock().unwrap();\n\
                   let b = cv.wait_timeout(g, d).unwrap();\n\
                   let c = maybe.unwrap();\n\
                   let d = spool.as_ref().expect(\"set\");\n\
                   }\n";
        let got = hits("no-panic-in-request-path", src);
        let lines: Vec<usize> = got.iter().map(|h| h.line).collect();
        assert_eq!(lines, vec![4, 5], "{got:?}");
    }

    #[test]
    fn loop_tracking_flags_only_loop_bodies() {
        let src = "// analyze:hot\n\
                   fn f(v: &[f32]) -> Vec<f32> {\n\
                   let mut out = Vec::new();\n\
                   for x in v.iter() {\n\
                       let s = format!(\"{x}\");\n\
                       while s.len() > 0 { let t = s.clone(); }\n\
                   }\n\
                   let fine = v.to_vec();\n\
                   out\n\
                   }\n";
        let got = hits("no-alloc-in-hot-loop", src);
        let lines: Vec<usize> = got.iter().map(|h| h.line).collect();
        assert_eq!(lines, vec![5, 6], "{got:?}");
    }

    #[test]
    fn spin_needs_a_bound_or_a_park_in_its_innermost_loop() {
        let src = "fn f(flag: &AtomicBool, cv: &Condvar, mut g: Guard) {\n\
                   std::hint::spin_loop();\n\
                   for _ in 0..64 { std::hint::spin_loop(); }\n\
                   while !flag.load(O) { std::hint::spin_loop(); }\n\
                   loop { if flag.load(O) { break; } spin_loop(); g = cv.wait(g).unwrap(); }\n\
                   for _ in 0..4 { loop { spin_loop(); } }\n\
                   loop { for _ in 0..64 { spin_loop(); } }\n\
                   }\n";
        let got = hits("no-unbounded-spin", src);
        let lines: Vec<usize> = got.iter().map(|h| h.line).collect();
        assert_eq!(lines, vec![4, 6], "{got:?}");
    }

    #[test]
    fn impl_for_is_not_a_loop() {
        let src = "// analyze:hot\n\
                   impl Clone for Thing {\n\
                       fn clone(&self) -> Self { self.inner.clone() }\n\
                   }\n\
                   fn f(v: &[f32]) { for x in v { let y = x.clone(); } }\n";
        let got = hits("no-alloc-in-hot-loop", src);
        let lines: Vec<usize> = got.iter().map(|h| h.line).collect();
        assert_eq!(lines, vec![5], "{got:?}");
    }

    #[test]
    fn send_arg_positions() {
        let src = "fn f() {\n\
                   fabric.send(rank, 0, crate::comm::PHASE_RHO_GATHER, buf.to_vec());\n\
                   fabric.send(rank, 0, \"halo\", buf.to_vec());\n\
                   fabric.send(g(1, 2), h(3, 4), PHASE_X, v);\n\
                   tx.send(value);\n\
                   }\n";
        let got = hits("phase-constants-only", src);
        let lines: Vec<usize> = got.iter().map(|h| h.line).collect();
        assert_eq!(lines, vec![3, 5], "{got:?}");
    }

    #[test]
    fn weight_clone_matches_receiver_names_not_arc_handles() {
        let src = "fn f() {\n\
                   let a = bundle.clone();\n\
                   let b = self.model_1d.clone();\n\
                   let c = trained_network.clone();\n\
                   let d = net.clone();\n\
                   let e = Arc::clone(&bundle);\n\
                   let f = frozen.clone();\n\
                   let g = planet.clone();\n\
                   let h = spec.scenario.clone();\n\
                   }\n";
        let got = hits("no-weight-clone", src);
        let lines: Vec<usize> = got.iter().map(|h| h.line).collect();
        assert_eq!(lines, vec![2, 3, 4, 5], "{got:?}");
    }

    #[test]
    fn safety_scan_accepts_comment_doc_and_attr_stacks() {
        let ok = "/// Does things.\n\
                  /// # Safety\n\
                  /// Caller upholds X.\n\
                  #[target_feature(enable = \"avx512f\")]\n\
                  pub unsafe fn k() {}\n\
                  fn f() {\n\
                      // SAFETY: bounds asserted above.\n\
                      unsafe { k() }\n\
                  }\n";
        assert!(hits("safety-comment-required", ok).is_empty());
        let bad =
            "fn f() {\n    let x = 1;\n    unsafe { core::hint::unreachable_unchecked() }\n}\n";
        assert_eq!(hits("safety-comment-required", bad).len(), 1);
    }
}
