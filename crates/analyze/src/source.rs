//! A lexed source file plus the repo-specific annotations the rules
//! consume: `#[cfg(test)]` masking, inline `// analyze:allow(rule): why`
//! suppressions, and the `// analyze:hot` opt-in marker.

use crate::lexer::{lex, Token};
use crate::rules::find;

/// An inline suppression parsed from a comment.
#[derive(Debug, Clone)]
struct AllowAnnotation {
    /// Line of the comment.
    line: usize,
    /// The suppressed rule, a row of the rule table (its mandatory
    /// reason is checked at parse time and not kept).
    rule: &'static str,
}

/// A file ready for rule checks.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    /// Raw source lines (for snippets and line-context checks).
    pub lines: Vec<String>,
    /// Full token stream, comments included.
    pub tokens: Vec<Token>,
    /// Per-token: true when the token sits inside a `#[cfg(test)]` item
    /// with a body (`mod`, `fn`, `impl`, `struct`, …) or a `#[test] fn`.
    /// Rules skip masked tokens — test code may unwrap, allocate, and
    /// fake phases at will.
    pub test_mask: Vec<bool>,
    /// Parsed `analyze:allow` suppressions.
    allows: Vec<AllowAnnotation>,
    /// Lines of `analyze:allow` comments that did not parse or name no
    /// rule — reported so a typo'd suppression cannot silently reopen a
    /// hole.
    pub malformed_allows: Vec<usize>,
    /// True when any comment contains `analyze:hot`.
    pub hot: bool,
}

impl SourceFile {
    /// Lexes and annotates `source`.
    pub fn parse(path: &str, source: &str) -> Self {
        let tokens = lex(source);
        let test_mask = compute_test_mask(&tokens);
        let mut allows = Vec::new();
        let mut malformed_allows = Vec::new();
        let mut hot = false;
        for tok in tokens.iter().filter(|t| t.is_comment()) {
            // A directive must LEAD the comment (`// analyze:…`); prose
            // that merely mentions the syntax mid-sentence is not one.
            let Some(body) = directive(&tok.text) else {
                continue;
            };
            if body.starts_with("analyze:hot") {
                hot = true;
            } else if body.starts_with("analyze:allow") {
                match parse_allow(body) {
                    Some(rule) => allows.push(AllowAnnotation {
                        line: tok.line,
                        rule,
                    }),
                    None => malformed_allows.push(tok.line),
                }
            }
        }
        Self {
            path: path.to_string(),
            lines: source.lines().map(|l| l.to_string()).collect(),
            tokens,
            test_mask,
            allows,
            malformed_allows,
            hot,
        }
    }

    /// The trimmed source line `line` (1-based), or `""`.
    pub fn snippet(&self, line: usize) -> &str {
        self.lines
            .get(line.wrapping_sub(1))
            .map(|l| l.trim())
            .unwrap_or("")
    }

    /// True when a finding of `rule` at `line` is suppressed by an
    /// `analyze:allow` on the same line or the line directly above.
    pub fn is_allowed(&self, rule: &str, line: usize) -> bool {
        self.allows
            .iter()
            .any(|a| a.rule == rule && (a.line == line || a.line + 1 == line))
    }

    /// Indices of non-comment tokens, excluding test-masked ones — what
    /// most rules iterate.
    pub fn code_indices(&self) -> Vec<usize> {
        (0..self.tokens.len())
            .filter(|&i| !self.tokens[i].is_comment() && !self.test_mask[i])
            .collect()
    }
}

/// Strips comment markers (`//`, `///`, `//!`, `/*`) and leading
/// whitespace; `Some(body)` when the remaining text begins a directive.
fn directive(comment: &str) -> Option<&str> {
    let body = comment
        .trim_start_matches('/')
        .trim_start_matches(['*', '!'])
        .trim_start();
    body.starts_with("analyze:").then_some(body)
}

/// Parses `analyze:allow(rule-name): reason`, requiring a rule of the
/// table and a non-empty reason — an unjustified suppression, or one that
/// names no rule, is a malformed one.
fn parse_allow(text: &str) -> Option<&'static str> {
    let rest = text.strip_prefix("analyze:allow")?.trim_start();
    let rest = rest.strip_prefix('(')?;
    let close = rest.find(')')?;
    let rule = rest[..close].trim();
    let after = rest[close + 1..].trim_start();
    let reason = after.strip_prefix(':')?.trim();
    if reason.is_empty() {
        return None;
    }
    find(rule).map(|r| r.name)
}

/// Marks every token inside `#[cfg(test)]` items with a body (`mod`,
/// `fn`, `impl`, `struct`, `enum`, `trait`) and `#[test] fn` bodies, on
/// the token stream: braces in strings or comments cannot unbalance it.
fn compute_test_mask(tokens: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let code: Vec<usize> = (0..tokens.len())
        .filter(|&i| !tokens[i].is_comment())
        .collect();

    let is_cfg_test = |w: &[usize]| -> bool {
        // #[cfg(test)] or #[cfg(all(test, …))]-style: `#` `[` `cfg` `(`
        // … `test` … at any position inside the attribute.
        if w.len() < 3 {
            return false;
        }
        if !(tokens[w[0]].is_punct('#')
            && tokens[w[1]].is_punct('[')
            && tokens[w[2]].is_ident("cfg"))
        {
            return false;
        }
        // Scan to the closing `]` of the attribute looking for `test`.
        let mut depth = 0usize;
        for &i in &w[1..] {
            let t = &tokens[i];
            if t.is_punct('[') {
                depth += 1;
            } else if t.is_punct(']') {
                depth -= 1;
                if depth == 0 {
                    return false;
                }
            } else if t.is_ident("test") {
                return true;
            }
        }
        false
    };

    let mut k = 0usize;
    while k < code.len() {
        let w = &code[k..];
        let is_test_attr = tokens[code[k]].is_punct('#')
            && w.len() >= 3
            && tokens[w[1]].is_punct('[')
            && tokens[w[2]].is_ident("test")
            && w.len() > 3
            && tokens[w[3]].is_punct(']');
        if is_cfg_test(w) || is_test_attr {
            // Skip any further attributes, then expect `mod name {` or
            // `fn name … {`; mask through the matching `}`.
            let mut j = k;
            // advance past this attribute
            let mut depth = 0usize;
            while j < code.len() {
                let t = &tokens[code[j]];
                if t.is_punct('[') {
                    depth += 1;
                } else if t.is_punct(']') {
                    depth -= 1;
                    if depth == 0 {
                        j += 1;
                        break;
                    }
                }
                j += 1;
            }
            // skip stacked attributes
            while j + 1 < code.len()
                && tokens[code[j]].is_punct('#')
                && tokens[code[j + 1]].is_punct('[')
            {
                let mut d = 0usize;
                while j < code.len() {
                    let t = &tokens[code[j]];
                    if t.is_punct('[') {
                        d += 1;
                    } else if t.is_punct(']') {
                        d -= 1;
                        if d == 0 {
                            j += 1;
                            break;
                        }
                    }
                    j += 1;
                }
            }
            let is_item = j < code.len()
                && ["mod", "fn", "pub", "impl", "struct", "enum", "trait"]
                    .iter()
                    .any(|kw| tokens[code[j]].is_ident(kw));
            if is_item {
                // Find the item's opening `{` at zero bracket depth, then
                // mask to its matching `}`.
                let mut paren = 0isize;
                while j < code.len() {
                    let t = &tokens[code[j]];
                    if t.is_punct('(') || t.is_punct('[') {
                        paren += 1;
                    } else if t.is_punct(')') || t.is_punct(']') {
                        paren -= 1;
                    } else if t.is_punct('{') && paren == 0 {
                        break;
                    } else if t.is_punct(';') && paren == 0 {
                        // `#[cfg(test)] mod tests;` — nothing inline.
                        j = code.len();
                        break;
                    }
                    j += 1;
                }
                let open = j;
                let mut brace = 0isize;
                while j < code.len() {
                    let t = &tokens[code[j]];
                    if t.is_punct('{') {
                        brace += 1;
                    } else if t.is_punct('}') {
                        brace -= 1;
                        if brace == 0 {
                            break;
                        }
                    }
                    j += 1;
                }
                // Mask every token (comments included) from the attribute
                // through the closing brace.
                if open < code.len() {
                    let start_tok = code[k];
                    let end_tok = if j < code.len() {
                        code[j]
                    } else {
                        tokens.len() - 1
                    };
                    for m in mask.iter_mut().take(end_tok + 1).skip(start_tok) {
                        *m = true;
                    }
                    k = j + 1;
                    continue;
                }
            }
        }
        k += 1;
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cfg_test_mod_is_masked() {
        let src = "fn live() { x.unwrap(); }\n\
                   #[cfg(test)]\nmod tests {\n    fn t() { y.unwrap(); }\n}\n\
                   #[cfg(test)]\nimpl S {\n    fn u() { z.unwrap(); }\n}\n\
                   fn also_live() {}\n";
        let f = SourceFile::parse("x.rs", src);
        let unwraps: Vec<usize> = f
            .tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| t.is_ident("unwrap"))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(unwraps.len(), 3);
        assert!(!f.test_mask[unwraps[0]], "live code stays unmasked");
        assert!(f.test_mask[unwraps[1]], "test-mod code is masked");
        assert!(f.test_mask[unwraps[2]], "a test-only impl is masked");
        let live: Vec<&str> = f
            .code_indices()
            .into_iter()
            .map(|i| f.tokens[i].text.as_str())
            .collect();
        assert!(live.contains(&"also_live"), "masking ends at the mod brace");
    }

    #[test]
    fn test_fn_attr_is_masked() {
        let src = "#[test]\nfn check() { a.unwrap(); }\nfn live() { b.unwrap(); }\n";
        let f = SourceFile::parse("x.rs", src);
        let masked: Vec<bool> = f
            .tokens
            .iter()
            .zip(&f.test_mask)
            .filter(|(t, _)| t.is_ident("unwrap"))
            .map(|(_, &m)| m)
            .collect();
        assert_eq!(masked, vec![true, false]);
    }

    #[test]
    fn allow_annotations_parse_and_match() {
        let src = "// analyze:allow(no-wallclock-in-engine): diagnostics only\n\
                   let t = Instant::now();\n\
                   // analyze:allow(no-wallclock-in-engine):\n\
                   // analyze:hot\n\
                   // analyze:allow(no-wallclok-in-engine): misspelled\n";
        let f = SourceFile::parse("x.rs", src);
        assert!(f.is_allowed("no-wallclock-in-engine", 2));
        assert!(!f.is_allowed("no-wallclock-in-engine", 4));
        assert!(!f.is_allowed("no-panic-in-request-path", 2));
        assert_eq!(f.malformed_allows, vec![3, 5]);
        assert!(f.hot);
    }
}
