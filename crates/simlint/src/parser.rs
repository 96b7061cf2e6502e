//! The little parsing the token rules need on top of the lexer:
//! `#[cfg(test)]` line ranges, which every rule skips, and the
//! `DetRng::stream`/`substream` call sites `rng-stream-hygiene` checks.
//! No types, no macro expansion; nesting is brace depth.

use crate::lexer::{Lexed, Tok, Token};

/// One `DetRng::stream`/`substream` call site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RngLabel {
    /// The label literal, or `None` when the label argument is not a
    /// plain string literal (computed labels defeat stream auditing).
    pub label: Option<String>,
    /// `"stream"` or `"substream"`.
    pub kind: &'static str,
    pub line: u32,
    /// True inside `#[cfg(test)]` code, where reusing a label to prove
    /// stream identity is the point.
    pub in_cfg_test: bool,
}

/// Line ranges covered by `#[cfg(test)]` items (typically `mod tests`),
/// found by brace-matching after the attribute. Shared with the
/// token-rule scanner in `rules.rs`.
pub fn cfg_test_ranges(toks: &[Token]) -> Vec<(u32, u32)> {
    let mut ranges = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].tok == Tok::Op("#")
            && matches!(toks.get(i + 1).map(|t| &t.tok), Some(Tok::Op("[")))
        {
            // Scan the attribute for `cfg` … `test` before its `]`.
            let mut j = i + 2;
            let mut depth = 1usize;
            let mut saw_cfg = false;
            let mut saw_test = false;
            let mut saw_not = false;
            while j < toks.len() && depth > 0 {
                match &toks[j].tok {
                    Tok::Op("[") => depth += 1,
                    Tok::Op("]") => depth -= 1,
                    Tok::Ident(s) if s == "cfg" => saw_cfg = true,
                    Tok::Ident(s) if s == "test" => saw_test = true,
                    // `#[cfg(not(test))]` marks *live* code.
                    Tok::Ident(s) if s == "not" => saw_not = true,
                    _ => {}
                }
                j += 1;
            }
            if saw_cfg && saw_test && !saw_not {
                // Skip any further attributes, then brace-match the item.
                while toks.get(j).map(|t| &t.tok) == Some(&Tok::Op("#"))
                    && toks.get(j + 1).map(|t| &t.tok) == Some(&Tok::Op("["))
                {
                    let mut d = 1usize;
                    j += 2;
                    while j < toks.len() && d > 0 {
                        match &toks[j].tok {
                            Tok::Op("[") => d += 1,
                            Tok::Op("]") => d -= 1,
                            _ => {}
                        }
                        j += 1;
                    }
                }
                let start = toks.get(j).map_or(0, |t| t.line);
                // Find the item's opening brace (a `;` first means a
                // braceless item like `#[cfg(test)] use …;`).
                while j < toks.len() && toks[j].tok != Tok::Op("{") && toks[j].tok != Tok::Op(";") {
                    j += 1;
                }
                if toks.get(j).map(|t| &t.tok) == Some(&Tok::Op("{")) {
                    let mut d = 1usize;
                    j += 1;
                    while j < toks.len() && d > 0 {
                        match &toks[j].tok {
                            Tok::Op("{") => d += 1,
                            Tok::Op("}") => d -= 1,
                            _ => {}
                        }
                        j += 1;
                    }
                }
                let end = toks.get(j.saturating_sub(1)).map_or(u32::MAX, |t| t.line);
                ranges.push((start, end));
                i = j;
                continue;
            }
        }
        i += 1;
    }
    ranges
}

/// True when `line` falls inside any of `ranges` (inclusive).
pub fn in_ranges(ranges: &[(u32, u32)], line: u32) -> bool {
    ranges.iter().any(|&(a, b)| line >= a && line <= b)
}

/// Every `DetRng::stream`/`substream` call site in `lexed`, in source
/// order — inside fns or not (consts count too).
pub fn rng_labels(lexed: &Lexed) -> Vec<RngLabel> {
    let toks = &lexed.tokens;
    let test_ranges = cfg_test_ranges(toks);
    let mut out = Vec::new();
    for i in 2..toks.len() {
        let kind = match &toks[i].tok {
            Tok::Ident(s) if s == "stream" => "stream",
            Tok::Ident(s) if s == "substream" => "substream",
            _ => continue,
        };
        let qualified = toks[i - 1].tok == Tok::Op("::")
            && matches!(&toks[i - 2].tok, Tok::Ident(s) if s == "DetRng")
            && toks.get(i + 1).map(|t| &t.tok) == Some(&Tok::Op("("));
        if qualified {
            out.push(RngLabel {
                label: second_arg_literal(toks, i + 1),
                kind,
                line: toks[i].line,
                in_cfg_test: in_ranges(&test_ranges, toks[i].line),
            });
        }
    }
    out
}

/// If the call whose argument list opens at `open` (a `(` token) has a
/// plain string literal as its *second* top-level argument, returns its
/// text. `DetRng::stream(seed, "label")` → `Some("label")`.
fn second_arg_literal(toks: &[Token], open: usize) -> Option<String> {
    debug_assert!(matches!(toks[open].tok, Tok::Op("(")));
    let mut depth = 1usize;
    let mut commas = 0usize;
    let mut arg_tokens: Vec<&Tok> = Vec::new();
    let mut j = open + 1;
    while j < toks.len() && depth > 0 {
        match &toks[j].tok {
            Tok::Op("(") | Tok::Op("[") | Tok::Op("{") => depth += 1,
            Tok::Op(")") | Tok::Op("]") | Tok::Op("}") => depth -= 1,
            Tok::Op(",") if depth == 1 => commas += 1,
            t if depth == 1 && commas == 1 => arg_tokens.push(t),
            _ => {}
        }
        j += 1;
    }
    match arg_tokens.as_slice() {
        [Tok::Str(s)] => Some((*s).clone()),
        _ => None,
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn rng_labels_collected_with_literals_and_not() {
        let labels = rng_labels(&lex("fn f(seed: u64, dynamic: &str) {\n\
             let a = DetRng::stream(seed, \"alpha\");\n\
             let b = DetRng::substream(seed ^ 1, \"beta\", 3);\n\
             let c = DetRng::stream(seed, dynamic);\n}"));
        assert_eq!(labels.len(), 3);
        assert_eq!(labels[0].label.as_deref(), Some("alpha"));
        assert_eq!(labels[0].kind, "stream");
        assert_eq!(labels[1].label.as_deref(), Some("beta"));
        assert_eq!(labels[1].kind, "substream");
        assert_eq!(labels[2].label, None, "computed label is non-literal");
    }

    #[test]
    fn cfg_test_fns_are_marked() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() { helper(); }\n}\n\
                   #[cfg(not(test))]\nfn also_live() {}";
        let ranges = cfg_test_ranges(&lex(src).tokens);
        assert_eq!(ranges, vec![(3, 5)]);
        assert!(!in_ranges(&ranges, 1), "live fn");
        assert!(in_ranges(&ranges, 4), "test fn");
        assert!(!in_ranges(&ranges, 7), "cfg(not(test)) is live code");
    }
}
