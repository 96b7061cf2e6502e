//! Stage 2 of the lint pipeline: a lightweight item parser on top of
//! the hand-rolled lexer.
//!
//! One linear pass over the token stream recovers just enough structure
//! for whole-workspace analysis (DESIGN.md §17):
//!
//! * `use` declarations (including groups and `as` aliases) → an
//!   alias-to-path map, so cross-crate calls can be attributed to the
//!   crate that defines them;
//! * `impl`/`trait` blocks → the self type and (for trait impls) the
//!   trait name attached to each method;
//! * brace-matched `fn` bodies → one [`FnDef`] per function with its
//!   line range and every call expression inside it;
//! * `DetRng::stream`/`substream` call sites → the label literal (or
//!   the fact that the label is not a literal), for `rng-stream-hygiene`.
//!
//! The parser is deliberately approximate — no types, no macro
//! expansion, nesting handled by brace depth — but it is *conservative
//! in the direction the taint rules need*: when attribution is
//! ambiguous every candidate is kept, so the call graph over-approximates
//! reachability rather than missing edges.

use crate::lexer::{Lexed, Tok, Token};

/// One call expression found inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Call {
    /// Path segments of the callee: `["helper"]` for a free call,
    /// `["Foo", "new"]` for `Foo::new(…)`, `["poll"]` for `.poll(…)`.
    pub path: Vec<String>,
    /// True for a `.name(…)` method call (receiver type unknown).
    pub method: bool,
    /// 1-based source line of the callee name.
    pub line: u32,
}

/// One `fn` item: free function, inherent/trait-impl method or trait
/// default method.
#[derive(Debug, Clone)]
pub struct FnDef {
    pub name: String,
    /// The `impl` self type (`impl Foo` / `impl Trait for Foo` → `Foo`)
    /// or, for a trait's default methods, the trait name.
    pub impl_type: Option<String>,
    /// For `impl Trait for Foo` methods and trait default methods, the
    /// trait name — how the taint pass finds `RouterLogic`/`Discipline`
    /// replay roots.
    pub trait_name: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Inclusive line range of the body (`(0, 0)` for bodiless trait
    /// method declarations).
    pub body: (u32, u32),
    /// Calls made directly in this body (innermost-fn attribution:
    /// a nested `fn` owns its own calls, closures belong to the
    /// enclosing `fn`).
    pub calls: Vec<Call>,
    /// True when the def sits inside a `#[cfg(test)]` range — test
    /// logic is excluded from the replay call graph.
    pub in_cfg_test: bool,
}

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

/// Everything the parser recovers from one file.
#[derive(Debug, Default, Clone)]
pub struct FileSymbols {
    pub fns: Vec<FnDef>,
    /// `use` aliases: local name → full path segments.
    pub uses: Vec<(String, Vec<String>)>,
    pub rng_labels: Vec<RngLabel>,
}

/// Keywords that look like `ident (` call sites but are not calls.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "else", "while", "for", "loop", "match", "return", "break", "continue", "in", "as",
    "move", "let", "mut", "ref", "where", "unsafe", "async", "await", "dyn", "impl", "fn", "pub",
    "crate", "super", "self", "Self", "const", "static", "type", "struct", "enum", "union",
    "trait", "mod", "use", "extern", "box", "yield",
];

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

/// Parses one lexed file into its symbol table.
pub fn parse(lexed: &Lexed) -> FileSymbols {
    let toks = &lexed.tokens;
    let test_ranges = cfg_test_ranges(toks);
    let mut out = FileSymbols::default();

    // Context stacks, keyed by the brace depth at which they close.
    struct ImplCtx {
        close_depth: usize,
        self_type: Option<String>,
        trait_name: Option<String>,
    }
    struct OpenFn {
        fn_index: usize,
        close_depth: usize,
    }
    let mut depth = 0usize;
    let mut impls: Vec<ImplCtx> = Vec::new();
    let mut open_fns: Vec<OpenFn> = Vec::new();

    let ident = |i: usize| -> Option<&str> {
        match toks.get(i).map(|t| &t.tok) {
            Some(Tok::Ident(s)) => Some(s.as_str()),
            _ => None,
        }
    };
    let op = |i: usize, want: &str| matches!(toks.get(i).map(|t| &t.tok), Some(Tok::Op(o)) if *o == want);

    let mut i = 0usize;
    while i < toks.len() {
        match &toks[i].tok {
            Tok::Op("{") => {
                depth += 1;
                i += 1;
            }
            Tok::Op("}") => {
                depth = depth.saturating_sub(1);
                while impls.last().is_some_and(|c| c.close_depth == depth) {
                    impls.pop();
                }
                while open_fns.last().is_some_and(|f| f.close_depth == depth) {
                    let f = open_fns.pop().expect("just checked non-empty");
                    out.fns[f.fn_index].body.1 = toks[i].line;
                }
                i += 1;
            }
            Tok::Ident(kw) if kw == "use" && open_fns.is_empty() => {
                i = parse_use(toks, i + 1, &mut out.uses);
            }
            Tok::Ident(kw) if (kw == "impl" || kw == "trait") && open_fns.is_empty() => {
                let is_trait = kw == "trait";
                // Collect header tokens up to the opening `{` (or a `;`
                // for e.g. `impl Trait for Type;` — never valid, but be
                // robust). `where` clauses are cut off; an `fn` keyword
                // means we ran into the next item (malformed header).
                let mut j = i + 1;
                let mut header: Vec<&str> = Vec::new();
                while j < toks.len() && !op(j, "{") && !op(j, ";") {
                    match &toks[j].tok {
                        Tok::Ident(s) if s == "where" => break,
                        Tok::Ident(s) => header.push(s.as_str()),
                        Tok::Op(o) => header.push(o),
                        _ => {}
                    }
                    j += 1;
                }
                while j < toks.len() && !op(j, "{") && !op(j, ";") {
                    j += 1;
                }
                let (self_type, trait_name) = if is_trait {
                    let name = header.first().map(|s| (*s).to_owned());
                    (name.clone(), name)
                } else {
                    impl_header_types(&header)
                };
                if op(j, "{") {
                    impls.push(ImplCtx {
                        close_depth: depth,
                        self_type,
                        trait_name,
                    });
                    depth += 1;
                }
                i = j + 1;
            }
            Tok::Ident(kw) if kw == "fn" => {
                let Some(name) = ident(i + 1) else {
                    i += 1;
                    continue;
                };
                let fn_line = toks[i].line;
                let (self_type, trait_name) = impls
                    .last()
                    .map(|c| (c.self_type.clone(), c.trait_name.clone()))
                    .unwrap_or((None, None));
                // Scan past the signature to the body's `{`; a `;` first
                // means a bodiless trait-method declaration.
                let mut j = i + 2;
                let mut angle = 0i32;
                while j < toks.len() {
                    match &toks[j].tok {
                        Tok::Op("{") if angle <= 0 => break,
                        Tok::Op(";") if angle <= 0 => break,
                        Tok::Op("<") => angle += 1,
                        Tok::Op(">") => angle -= 1,
                        Tok::Op("->") => angle = 0,
                        _ => {}
                    }
                    j += 1;
                }
                let def_index = out.fns.len();
                out.fns.push(FnDef {
                    name: name.to_owned(),
                    impl_type: self_type,
                    trait_name,
                    line: fn_line,
                    body: (0, 0),
                    calls: Vec::new(),
                    in_cfg_test: in_ranges(&test_ranges, fn_line),
                });
                if op(j, "{") {
                    out.fns[def_index].body = (toks[j].line, toks[j].line);
                    open_fns.push(OpenFn {
                        fn_index: def_index,
                        close_depth: depth,
                    });
                    depth += 1;
                }
                i = j + 1;
            }
            Tok::Ident(name) => {
                // DetRng::stream / DetRng::substream label collection —
                // everywhere, not only inside fns (consts count too).
                if (name == "stream" || name == "substream")
                    && i >= 2
                    && op(i - 1, "::")
                    && ident(i - 2) == Some("DetRng")
                    && op(i + 1, "(")
                {
                    let kind = if name == "stream" {
                        "stream"
                    } else {
                        "substream"
                    };
                    out.rng_labels.push(RngLabel {
                        label: second_arg_literal(toks, i + 1),
                        kind,
                        line: toks[i].line,
                        in_cfg_test: in_ranges(&test_ranges, toks[i].line),
                    });
                }
                // Call attribution: innermost open fn owns the call.
                if let Some(open) = open_fns.last() {
                    // A call looks like `name(`; macros (`name!(…)`) fail
                    // this test because the `!` sits between name and `(`.
                    if op(i + 1, "(") && !NON_CALL_KEYWORDS.contains(&name.as_str()) {
                        let method = i >= 1 && op(i - 1, ".");
                        let mut path = vec![name.clone()];
                        if !method {
                            // Walk back across `seg ::` pairs.
                            let mut k = i;
                            while k >= 2 && op(k - 1, "::") {
                                if let Some(seg) = ident(k - 2) {
                                    path.insert(0, seg.to_owned());
                                    k -= 2;
                                } else {
                                    break;
                                }
                            }
                        }
                        out.fns[open.fn_index].calls.push(Call {
                            path,
                            method,
                            line: toks[i].line,
                        });
                    }
                }
                i += 1;
            }
            _ => {
                i += 1;
            }
        }
    }
    // Close any fn left open by unbalanced braces.
    for f in open_fns {
        out.fns[f.fn_index].body.1 = u32::MAX;
    }
    out
}

/// Extracts `(self_type, trait_name)` from an `impl` header's idents and
/// ops (generics included, `where` clause already stripped):
/// `impl Foo` → `(Foo, None)`; `impl Trait for Foo` → `(Foo, Trait)`.
fn impl_header_types(header: &[&str]) -> (Option<String>, Option<String>) {
    // Find a top-level `for` that is not an HRTB `for<…>`.
    let mut angle = 0i32;
    let mut for_at = None;
    for (k, t) in header.iter().enumerate() {
        match *t {
            "<" => angle += 1,
            ">" => angle -= 1,
            "for" if angle <= 0 && header.get(k + 1) != Some(&"<") => {
                for_at = Some(k);
                break;
            }
            _ => {}
        }
    }
    let last_path_segment = |part: &[&str]| -> Option<String> {
        // The self type's name is the last ident before its generic
        // arguments: `netsim::agent::AgentEdge<T>` → `AgentEdge`.
        let mut best = None;
        let mut angle = 0i32;
        for t in part {
            match *t {
                "<" => angle += 1,
                ">" => angle -= 1,
                "&" | "(" | ")" | "[" | "]" => {}
                s if angle <= 0
                    && s.chars()
                        .next()
                        .is_some_and(|c| c.is_alphabetic() || c == '_')
                    && !matches!(s, "dyn" | "mut" | "const") =>
                {
                    best = Some(s.to_owned());
                }
                _ => {}
            }
        }
        best
    };
    match for_at {
        Some(k) => {
            // `impl<…> Trait for Type`: the trait name is the *first*
            // plain ident of the trait part after any generic params.
            let trait_part = &header[..k];
            let type_part = &header[k + 1..];
            let trait_name = {
                let mut angle = 0i32;
                let mut found = None;
                for t in trait_part {
                    match *t {
                        "<" => angle += 1,
                        ">" => angle -= 1,
                        s if angle <= 0
                            && s.chars()
                                .next()
                                .is_some_and(|c| c.is_alphabetic() || c == '_') =>
                        {
                            // Skip generic-param idents: they only appear
                            // inside `<…>`, which angle-tracking excludes.
                            found = Some(s.to_owned());
                        }
                        _ => {}
                    }
                }
                found
            };
            (last_path_segment(type_part), trait_name)
        }
        None => (last_path_segment(header), None),
    }
}

/// Parses a `use` declaration starting after the `use` keyword; returns
/// the index just past the terminating `;`. Handles `a::b::C`,
/// `a::{B, c::D as E}`, nested groups and globs (ignored).
fn parse_use(toks: &[Token], mut i: usize, out: &mut Vec<(String, Vec<String>)>) -> usize {
    fn walk(
        toks: &[Token],
        mut i: usize,
        prefix: &mut Vec<String>,
        out: &mut Vec<(String, Vec<String>)>,
    ) -> usize {
        let start_len = prefix.len();
        loop {
            match toks.get(i).map(|t| &t.tok) {
                Some(Tok::Ident(s)) if s == "as" => {
                    // `path as Alias`: record under the alias, then leave
                    // the cursor on the `,`/`}`/`;` for the caller.
                    if let Some(Tok::Ident(alias)) = toks.get(i + 1).map(|t| &t.tok) {
                        out.push((alias.clone(), prefix.clone()));
                        prefix.truncate(start_len);
                        return i + 2;
                    }
                    i += 1;
                }
                Some(Tok::Ident(s)) => {
                    prefix.push(s.clone());
                    i += 1;
                }
                Some(Tok::Op("::")) => {
                    i += 1;
                }
                Some(Tok::Op("{")) => {
                    i += 1;
                    // Group: each element extends the current prefix.
                    loop {
                        match toks.get(i).map(|t| &t.tok) {
                            Some(Tok::Op("}")) => {
                                i += 1;
                                break;
                            }
                            Some(Tok::Op(",")) => {
                                i += 1;
                            }
                            None => break,
                            _ => {
                                let mut sub = prefix.clone();
                                i = walk(toks, i, &mut sub, out);
                            }
                        }
                    }
                    prefix.truncate(start_len);
                    return i;
                }
                Some(Tok::Op("*")) => {
                    // Glob import: nothing nameable to record.
                    prefix.truncate(start_len);
                    return i + 1;
                }
                Some(Tok::Op(",")) | Some(Tok::Op("}")) | Some(Tok::Op(";")) | None => {
                    // End of one path: the leaf ident is the local name.
                    if prefix.len() > start_len {
                        let leaf = prefix.last().expect("non-empty checked").clone();
                        out.push((leaf, prefix.clone()));
                    }
                    prefix.truncate(start_len);
                    return i;
                }
                _ => {
                    i += 1;
                }
            }
        }
    }
    let mut prefix = Vec::new();
    i = walk(toks, i, &mut prefix, out);
    while i < toks.len() && toks[i].tok != Tok::Op(";") {
        i += 1;
    }
    i + 1
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

    fn parse_src(src: &str) -> FileSymbols {
        parse(&lex(src))
    }

    #[test]
    fn free_fn_and_calls() {
        let s = parse_src("fn a() { b(); c::d(); x.e(); }\nfn b() {}");
        assert_eq!(s.fns.len(), 2);
        let a = &s.fns[0];
        assert_eq!(a.name, "a");
        assert_eq!(a.calls.len(), 3);
        assert_eq!(a.calls[0].path, vec!["b"]);
        assert!(!a.calls[0].method);
        assert_eq!(a.calls[1].path, vec!["c", "d"]);
        assert_eq!(a.calls[2].path, vec!["e"]);
        assert!(a.calls[2].method);
    }

    #[test]
    fn impl_and_trait_context() {
        let s = parse_src(
            "impl Foo { fn m(&self) {} }\n\
             impl Bar for Foo { fn n(&self) { self.m(); } }\n\
             trait Baz { fn d(&self) { free(); } fn sig(&self); }",
        );
        let m = &s.fns[0];
        assert_eq!(
            (m.name.as_str(), m.impl_type.as_deref()),
            ("m", Some("Foo"))
        );
        assert_eq!(m.trait_name, None);
        let n = &s.fns[1];
        assert_eq!(n.impl_type.as_deref(), Some("Foo"));
        assert_eq!(n.trait_name.as_deref(), Some("Bar"));
        let d = &s.fns[2];
        assert_eq!(d.trait_name.as_deref(), Some("Baz"));
        assert_eq!(d.calls.len(), 1);
        let sig = &s.fns[3];
        assert_eq!(sig.body, (0, 0), "bodiless trait method has no body");
    }

    #[test]
    fn generic_impl_headers_resolve_self_type() {
        let s = parse_src(
            "impl<T: Clone> Wrapper<T> { fn g(&self) {} }\n\
             impl<E> RouterLogic for Slab<E> where E: Copy { fn h(&self) {} }",
        );
        assert_eq!(s.fns[0].impl_type.as_deref(), Some("Wrapper"));
        assert_eq!(s.fns[1].impl_type.as_deref(), Some("Slab"));
        assert_eq!(s.fns[1].trait_name.as_deref(), Some("RouterLogic"));
    }

    #[test]
    fn nested_fns_own_their_calls() {
        let s = parse_src("fn outer() { inner_call(); fn nested() { deep(); } tail(); }");
        let outer = s.fns.iter().find(|f| f.name == "outer").expect("outer");
        let nested = s.fns.iter().find(|f| f.name == "nested").expect("nested");
        let outer_calls: Vec<_> = outer.calls.iter().map(|c| c.path[0].as_str()).collect();
        assert_eq!(outer_calls, vec!["inner_call", "tail"]);
        assert_eq!(nested.calls.len(), 1);
        assert_eq!(nested.calls[0].path, vec!["deep"]);
    }

    #[test]
    fn closures_belong_to_enclosing_fn() {
        let s = parse_src("fn f() { let g = |x| helper(x); g(1); }");
        let names: Vec<_> = s.fns[0].calls.iter().map(|c| c.path[0].as_str()).collect();
        assert!(names.contains(&"helper"), "{names:?}");
    }

    #[test]
    fn keywords_and_macros_are_not_calls() {
        let s = parse_src("fn f() { if (a) {} match (b) { _ => {} } println!(\"x\"); vec![1]; }");
        assert!(s.fns[0].calls.is_empty(), "{:?}", s.fns[0].calls);
    }

    #[test]
    fn use_decls_with_groups_and_aliases() {
        let s = parse_src(
            "use sim_core::rng::DetRng;\n\
             use netsim::{link::Link, logic as lg, slab::{DenseMap, ActiveSet}};\n\
             use std::collections::*;",
        );
        let find = |name: &str| {
            s.uses
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, p)| p.join("::"))
        };
        assert_eq!(find("DetRng").as_deref(), Some("sim_core::rng::DetRng"));
        assert_eq!(find("Link").as_deref(), Some("netsim::link::Link"));
        assert_eq!(find("lg").as_deref(), Some("netsim::logic"));
        assert_eq!(find("DenseMap").as_deref(), Some("netsim::slab::DenseMap"));
        assert_eq!(
            find("ActiveSet").as_deref(),
            Some("netsim::slab::ActiveSet")
        );
    }

    #[test]
    fn rng_labels_collected_with_literals_and_not() {
        let s = parse_src(
            "fn f(seed: u64, dynamic: &str) {\n\
             let a = DetRng::stream(seed, \"alpha\");\n\
             let b = DetRng::substream(seed ^ 1, \"beta\", 3);\n\
             let c = DetRng::stream(seed, dynamic);\n}",
        );
        assert_eq!(s.rng_labels.len(), 3);
        assert_eq!(s.rng_labels[0].label.as_deref(), Some("alpha"));
        assert_eq!(s.rng_labels[0].kind, "stream");
        assert_eq!(s.rng_labels[1].label.as_deref(), Some("beta"));
        assert_eq!(s.rng_labels[1].kind, "substream");
        assert_eq!(s.rng_labels[2].label, None, "computed label is non-literal");
    }

    #[test]
    fn cfg_test_fns_are_marked() {
        let s = parse_src("fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() { helper(); }\n}");
        assert!(!s.fns[0].in_cfg_test);
        let t = s.fns.iter().find(|f| f.name == "t").expect("test fn");
        assert!(t.in_cfg_test);
    }

    #[test]
    fn body_line_ranges_are_tracked() {
        let s = parse_src("fn a() {\n  x();\n  y();\n}\nfn b() { z(); }");
        assert_eq!(s.fns[0].body, (1, 4));
        assert_eq!(s.fns[1].body, (5, 5));
    }
}
