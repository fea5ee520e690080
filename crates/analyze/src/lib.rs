//! `dlpic-analyze`: repo-specific static analysis for the dlpic
//! workspace.
//!
//! The workspace's core contracts — checkpoint/resume and cohort-batching
//! **bit-identity**, panic containment in the serve request path, and the
//! `// SAFETY:` discipline around the explicit-SIMD kernels — are runtime
//! properties that a single careless line can silently break long before
//! any test notices. This crate turns them into machine-checked rules on
//! every commit. The rules are the rows of [`rules::RULES`]
//! (`dlpic-analyze --list-rules` prints them); each row holds a rule's
//! name, description, path scope and check function.
//!
//! The implementation is a lightweight token scanner ([`lexer`]), the
//! rule table ([`rules`], with the cross-file `pub-reach` in [`reach`]),
//! a driver ([`engine`]) and text + SARIF-lite output ([`report`]). Every
//! finding fails the run. The one way to silence a finding is an inline
//! `// analyze:allow(rule): reason` on its line or the line above
//! ([`source`]); an allow that does not parse, names no rule or gives no
//! reason is itself a `malformed-suppression` finding. Std-only by
//! design: the build container is offline, so no external parser crates.

pub mod config;
pub mod engine;
pub mod lexer;
pub mod reach;
pub mod report;
pub mod rules;
pub mod source;
