//! `dlpic-analyze`: repo-specific static analysis for the dlpic
//! workspace.
//!
//! The workspace's core contracts — checkpoint/resume and cohort-batching
//! **bit-identity**, panic containment in the serve request path, and the
//! `// SAFETY:` discipline around the explicit-SIMD kernels — are runtime
//! properties that a single careless line can silently break long before
//! any test notices. This crate turns them into machine-checked rules on
//! every commit:
//!
//! | rule | contract it protects |
//! |------|----------------------|
//! | `no-hashmap-iter-in-state` | byte-deterministic checkpoint/spool/status output |
//! | `no-wallclock-in-engine` | checkpoint/resume bit-identity of engine state |
//! | `no-panic-in-request-path` | hostile requests become errors, not daemon crashes |
//! | `safety-comment-required` | every `unsafe` carries its justification |
//! | `no-alloc-in-hot-loop` | the allocation-free stepping wins stay won |
//! | `phase-constants-only` | `KNOWN_PHASES` can never drift from emitters |
//! | `pub-reach` | every `pub` item is named by some other file's non-test code |
//!
//! The implementation is a lightweight token scanner ([`lexer`]) plus a
//! rule engine ([`rules`], [`engine`]) with per-rule allow/warn/deny
//! levels ([`config`]), inline `// analyze:allow(rule): reason`
//! suppressions ([`source`]), a committed baseline, and text + SARIF-lite
//! output ([`report`]). Std-only by design: the build container is
//! offline, so no external parser crates.

pub mod config;
pub mod engine;
pub mod lexer;
pub mod reach;
pub mod report;
pub mod rules;
pub mod source;

pub use config::{Config, Level};
pub use engine::analyze_tree;
pub use report::{Baseline, Finding, Report};
pub use source::SourceFile;
