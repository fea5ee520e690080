//! `pub-reach`: the one cross-file rule. A `pub` item that no other file
//! names is surface nobody needs; one that only test code names is
//! surface kept alive for tests. Both should be narrowed, moved into
//! `#[cfg(test)]`, or deleted.
//!
//! The check is name-level, not path-resolved: [`ReachIndex`] records,
//! for every identifier, which files name it and whether any of those
//! mentions sits outside test code. Two items sharing a name therefore
//! keep each other alive, so the rule can miss dead surface. Comments are
//! not code: an item only a doc example names is flagged.

use std::collections::BTreeMap;

use crate::lexer::TokenKind;
use crate::rules::RuleHit;
use crate::source::SourceFile;

/// The trees whose identifiers count as uses. `benchmark/src` is here
/// on purpose: the benchmark builds against the product's `pub` API, so
/// a name it uses stays `pub`.
const INDEX_ROOTS: [&str; 5] = ["src/", "crates/", "tests/", "examples/", "benchmark/src/"];

/// The item keywords whose `pub` declarations the rule checks.
const ITEM_KEYWORDS: [&str; 8] = [
    "fn", "struct", "enum", "trait", "const", "type", "static", "union",
];

/// Identifier → file → whether that file names it outside test code.
#[derive(Debug, Default)]
pub struct ReachIndex {
    names: BTreeMap<String, BTreeMap<String, bool>>,
}

impl ReachIndex {
    /// Indexes every identifier of the files under `INDEX_ROOTS`.
    /// Comments are skipped, and so are `pub use` re-export statements:
    /// re-exporting a name is not using it. A mention counts as test code
    /// when it is test-masked or its file sits under a `tests/` directory.
    pub fn build(files: &[SourceFile]) -> Self {
        let mut index = Self::default();
        for file in files.iter().filter(|f| indexed(&f.path)) {
            let test_file = file.path.split('/').any(|seg| seg == "tests");
            let code: Vec<usize> = (0..file.tokens.len())
                .filter(|&i| !file.tokens[i].is_comment())
                .collect();
            let mut k = 0;
            while k < code.len() {
                if let Some(end) = reexport_end(file, &code, k) {
                    k = end + 1;
                    continue;
                }
                let i = code[k];
                let tok = &file.tokens[i];
                if tok.kind == TokenKind::Ident {
                    let live = !test_file && !file.test_mask[i];
                    *index
                        .names
                        .entry(tok.text.clone())
                        .or_default()
                        .entry(file.path.clone())
                        .or_default() |= live;
                }
                k += 1;
            }
        }
        index
    }

    /// Flags each non-test `pub` item of `file` that no other file names,
    /// or that other files name only from test code. An item that appears
    /// in the signature of a reached `pub` item of the same file is
    /// reached too: rustc needs it `pub` wherever that signature goes,
    /// even when callers only ever infer its name. A file outside
    /// `INDEX_ROOTS` is not judged: the index cannot see its callers.
    pub fn check(&self, file: &SourceFile, out: &mut Vec<RuleHit>) {
        if !indexed(&file.path) {
            return;
        }
        let code = file.code_indices();
        let items: Vec<PubItem> = (0..code.len())
            .filter_map(|k| pub_item(file, &code, k))
            .collect();
        let mut reach: Vec<Reach> = items
            .iter()
            .map(|item| self.reach_of(item.name, &file.path))
            .collect();
        loop {
            let exported: Vec<usize> = (0..items.len())
                .filter(|&a| reach[a] != Reach::Live)
                .filter(|&a| {
                    (0..items.len()).any(|b| {
                        reach[b] == Reach::Live && items[b].signature.contains(&items[a].name)
                    })
                })
                .collect();
            if exported.is_empty() {
                break;
            }
            for a in exported {
                reach[a] = Reach::Live;
            }
        }
        for (item, reach) in items.iter().zip(reach) {
            let why = match reach {
                Reach::Live => continue,
                Reach::Tests => "other files name it only from test code",
                Reach::Nowhere => "no other file names it",
            };
            out.push(RuleHit {
                line: item.line,
                message: format!(
                    "`pub {} {}`: {why} — narrow it to private or \
                     `pub(crate)`, move it into `#[cfg(test)]`, or delete it",
                    item.kind, item.name
                ),
            });
        }
    }

    /// How far outside `path` the identifier `name` is named.
    fn reach_of(&self, name: &str, path: &str) -> Reach {
        let mut reach = Reach::Nowhere;
        for (other, &live) in self.names.get(name).into_iter().flatten() {
            if other != path {
                reach = reach.max(if live { Reach::Live } else { Reach::Tests });
            }
        }
        reach
    }
}

/// How far a `pub` item is named beyond its own file, in ascending order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Reach {
    Nowhere,
    Tests,
    Live,
}

/// One `pub` item declaration.
struct PubItem<'f> {
    kind: &'f str,
    name: &'f str,
    line: usize,
    /// The identifiers of its signature: a fn's up to its body, a type's
    /// through its fields or its `;`.
    signature: Vec<&'f str>,
}

/// True for a path under one of the `INDEX_ROOTS`.
fn indexed(path: &str) -> bool {
    INDEX_ROOTS.iter().any(|root| path.starts_with(root))
}

/// When the code token at `k` starts a `pub use` (or `pub(…) use`)
/// statement, the code index of its closing `;`.
fn reexport_end(file: &SourceFile, code: &[usize], k: usize) -> Option<usize> {
    let tok = |n: usize| code.get(n).map(|&i| &file.tokens[i]);
    if !tok(k)?.is_ident("pub") {
        return None;
    }
    let mut n = k + 1;
    if tok(n)?.is_punct('(') {
        while !tok(n)?.is_punct(')') {
            n += 1;
        }
        n += 1;
    }
    if !tok(n)?.is_ident("use") {
        return None;
    }
    while !tok(n)?.is_punct(';') {
        n += 1;
    }
    Some(n)
}

/// When the `pub` at code index `k` declares a checked item, that item.
/// `pub(crate)`/`pub(super)` are not `pub`, and qualifiers (`const fn`,
/// `unsafe`, `async`, `extern "C"`, `static mut`) are skipped.
fn pub_item<'f>(file: &'f SourceFile, code: &[usize], k: usize) -> Option<PubItem<'f>> {
    let tok = |n: usize| code.get(n).map(|&i| &file.tokens[i]);
    if !tok(k)?.is_ident("pub") {
        return None;
    }
    let mut n = k + 1;
    loop {
        let t = tok(n)?;
        let qualifier = t.is_ident("unsafe")
            || t.is_ident("async")
            || t.is_ident("extern")
            || t.kind == TokenKind::Literal
            || (t.is_ident("const")
                && ["fn", "unsafe", "async", "extern"]
                    .iter()
                    .any(|q| tok(n + 1).is_some_and(|next| next.is_ident(q))));
        if !qualifier {
            break;
        }
        n += 1;
    }
    let kw = tok(n)?;
    if kw.kind != TokenKind::Ident || !ITEM_KEYWORDS.contains(&kw.text.as_str()) {
        return None;
    }
    n += 1;
    if kw.is_ident("static") && tok(n)?.is_ident("mut") {
        n += 1;
    }
    let name = tok(n)?;
    if name.kind != TokenKind::Ident {
        return None;
    }
    let mut signature = Vec::new();
    let mut depth = 0i32;
    while let Some(t) = tok(n + 1) {
        n += 1;
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            if t.is_punct('{') && depth == 0 && (kw.is_ident("fn") || kw.is_ident("trait")) {
                break;
            }
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth -= 1;
            if depth == 0 && t.is_punct('}') {
                break;
            }
        } else if t.is_punct(';') && depth == 0 {
            break;
        } else if t.kind == TokenKind::Ident {
            signature.push(t.text.as_str());
        }
    }
    Some(PubItem {
        kind: kw.text.as_str(),
        name: name.text.as_str(),
        line: file.tokens[code[k]].line,
        signature,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hits(files: &[(&str, &str)], target: &str) -> Vec<String> {
        let parsed: Vec<SourceFile> = files
            .iter()
            .map(|(path, src)| SourceFile::parse(path, src))
            .collect();
        let index = ReachIndex::build(&parsed);
        let mut out = Vec::new();
        let file = parsed.iter().find(|f| f.path == target).unwrap();
        index.check(file, &mut out);
        out.into_iter().map(|h| h.message).collect()
    }

    #[test]
    fn qualifiers_and_restricted_visibility() {
        let src = "pub const fn a() {}\npub unsafe extern \"C\" fn b() {}\n\
                   pub static mut C: u8 = 0;\npub const D: u8 = 1;\n\
                   pub(crate) fn e() {}\npub mod f {}\npub use g::H;\n";
        let found = hits(&[("src/lib.rs", src)], "src/lib.rs");
        let names: Vec<&str> = found.iter().map(|m| m.split('`').nth(1).unwrap()).collect();
        assert_eq!(
            names,
            vec!["pub fn a", "pub fn b", "pub static C", "pub const D"]
        );
    }

    #[test]
    fn reexports_and_outside_roots_are_not_uses() {
        let item = "pub fn item() {}\n";
        let found = hits(
            &[
                ("crates/x/src/a.rs", item),
                ("crates/x/src/lib.rs", "pub use a::item;\n"),
                ("scripts/tool.rs", "fn main() { item(); }\n"),
            ],
            "crates/x/src/a.rs",
        );
        assert_eq!(found.len(), 1, "{found:?}");
        let found = hits(
            &[
                ("crates/x/src/a.rs", item),
                ("benchmark/src/probe.rs", "fn main() { item(); }\n"),
            ],
            "crates/x/src/a.rs",
        );
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn types_in_a_reached_signature_are_reached() {
        let src = "pub struct Weights { pub w: Inner }\npub struct Inner;\n\
                   pub struct Unused;\n\
                   impl S { pub fn assign(self) -> Weights { todo!() } }\n";
        let found = hits(
            &[
                ("crates/x/src/shape.rs", src),
                ("crates/y/src/lib.rs", "fn f(s: S) { s.assign(); }\n"),
            ],
            "crates/x/src/shape.rs",
        );
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].starts_with("`pub struct Unused`"), "{found:?}");
    }
}
