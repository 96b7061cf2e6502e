//! `simlint` — in-repo static analysis enforcing the two properties the
//! whole reproduction stands on:
//!
//! * **core-statelessness** — Corelite's headline claim (paper §2–3) is
//!   that core routers keep no per-flow state; the `core-state` rule
//!   machine-checks that no core-router module declares a
//!   `FlowId`-keyed or per-flow-growing collection.
//! * **deterministic replay** — serial and parallel experiment sweeps
//!   are `cmp`-compared byte-for-byte in CI; the `hash-collections`,
//!   `wall-clock`, `thread-spawn` and `rand-import` rules keep the
//!   nondeterminism sources that would silently break this out of the
//!   simulation crates, and their `taint-*` forms make them transitive
//!   over the workspace call graph (DESIGN.md §17).
//!
//! The analysis runs as a three-stage pipeline:
//!
//! 1. **lex** ([`lexer`]) — tokens plus inline-allow comments; the
//!    per-file token rules ([`rules`]) run directly on this stream;
//! 2. **parse** ([`parser`]) — a lightweight item parser recovering
//!    `use` declarations, `impl`/`trait` context, brace-matched `fn`
//!    bodies with their call expressions, and `DetRng` stream labels;
//! 3. **graph** ([`graph`] + `taint`) — a workspace call graph with
//!    dependency-scoped name resolution, walked from the replay-path
//!    roots for the taint rules and the RNG stream-hygiene rule.
//!
//! Violations print as `file:line: rule — message` and any violation
//! makes the process exit nonzero. Suppress per-site with an inline
//! `// simlint: allow(<rule>)` comment (covers that line and the next)
//! or per-path in the checked-in `simlint.toml`. See DESIGN.md §17.
//!
//! The crate is dependency-free by necessity: crates.io is unreachable
//! in the reproduction container, so the lexer, parser, walker and
//! TOML-subset reader are hand-rolled like sim-core's `DetRng`.

#![forbid(unsafe_code)]

pub mod config;
pub mod graph;
pub mod lexer;
pub mod parser;
pub mod rules;
mod taint;
pub mod walker;

use std::path::Path;

pub use config::Allowlist;
pub use rules::{classify, explain, scan_source, FileClass, Violation, RULES};

/// Lints a batch of files as one unit: the per-file token rules on each
/// file, then the workspace rules (taint reachability, RNG stream
/// hygiene) over the whole batch. `rels` are workspace-relative paths.
///
/// Passing a single file still runs the workspace rules over that
/// file's own call graph — which is how the taint fixtures work — but
/// cross-file reachability obviously needs the files that carry it.
pub fn lint_paths(
    root: &Path,
    rels: &[String],
    allow: &Allowlist,
) -> Result<Vec<Violation>, String> {
    let deps = graph::CrateDeps::from_workspace(root)?;
    let mut analyzed = Vec::new();
    let mut all = Vec::new();
    for rel in rels {
        let src = std::fs::read_to_string(root.join(rel))
            .map_err(|e| format!("cannot read {rel}: {e}"))?;
        let class = classify(rel);
        let lexed = lexer::lex(&src);
        let raw = rules::scan_tokens(rel, &lexed, class);
        all.extend(rules::suppress(raw.clone(), &lexed, allow));
        let symbols = parser::parse(&lexed);
        analyzed.push(taint::AnalyzedFile {
            rel: rel.clone(),
            class,
            lexed,
            symbols,
            raw,
        });
    }
    all.extend(taint::workspace_pass(&analyzed, &deps, allow));
    all.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    all.dedup();
    Ok(all)
}

/// Lints one file on disk. `rel` decides rule scoping and must be the
/// workspace-relative path (`crates/netsim/src/network.rs`).
pub fn lint_file(root: &Path, rel: &str, allow: &Allowlist) -> Result<Vec<Violation>, String> {
    lint_paths(root, std::slice::from_ref(&rel.to_owned()), allow)
}

/// Lints every `.rs` file in the workspace tree at `root`, returning
/// violations sorted by file, line and rule. Also validates that every
/// `simlint.toml` entry still matches a workspace file — a stale allow
/// is dead configuration that would silently cover future code.
pub fn lint_workspace(root: &Path, allow: &Allowlist) -> Result<Vec<Violation>, String> {
    let rels = walker::collect_rs_files(root)?;
    validate_allowlist(allow, &rels)?;
    lint_paths(root, &rels, allow)
}

/// Errors when an allowlist path prefix matches none of `rels`: the
/// file was moved or deleted and the entry now silently allowlists
/// whatever lands at that path next.
pub fn validate_allowlist(allow: &Allowlist, rels: &[String]) -> Result<(), String> {
    let stale: Vec<String> = allow
        .entries()
        .filter(|(_, prefix)| {
            !rels
                .iter()
                .any(|rel| rel == prefix || rel.starts_with(&format!("{prefix}/")))
        })
        .map(|(rule, prefix)| format!("`{rule} = \"{prefix}\"`"))
        .collect();
    if stale.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "simlint.toml: {} match(es) no workspace file — remove the stale entr{} or fix the path",
            stale.join(", "),
            if stale.len() == 1 { "y" } else { "ies" }
        ))
    }
}

/// Loads `simlint.toml` from `root`; a missing file is an empty
/// allowlist, a malformed one is an error.
pub fn load_allowlist(root: &Path) -> Result<Allowlist, String> {
    match std::fs::read_to_string(root.join("simlint.toml")) {
        Ok(text) => Allowlist::parse(&text),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Allowlist::default()),
        Err(e) => Err(format!("cannot read simlint.toml: {e}")),
    }
}

/// Serializes violations as a JSON array, byte-deterministic for a
/// given input list (which `lint_*` already return fully sorted).
pub fn to_json(violations: &[Violation]) -> String {
    let mut out = String::from("[\n");
    for (i, v) in violations.iter().enumerate() {
        out.push_str(&format!(
            "  {{\"file\":{},\"line\":{},\"rule\":{},\"message\":{}}}",
            json_string(&v.file),
            v.line,
            json_string(v.rule),
            json_string(&v.message)
        ));
        out.push_str(if i + 1 < violations.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    out.push(']');
    out
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_allowlist_flags_stale_prefixes() {
        let mut allow = Allowlist::default();
        allow.insert("wall-clock", "crates/bench");
        allow.insert("float-eq", "crates/gone/src/lost.rs");
        let rels = vec!["crates/bench/src/lib.rs".to_owned()];
        let err = validate_allowlist(&allow, &rels).expect_err("stale entry must error");
        assert!(err.contains("crates/gone/src/lost.rs"), "{err}");
        assert!(!err.contains("crates/bench`"), "{err}");
        allow = Allowlist::default();
        allow.insert("wall-clock", "crates/bench");
        validate_allowlist(&allow, &rels).expect("live prefix is fine");
    }

    #[test]
    fn json_escapes_and_shapes() {
        let v = vec![Violation {
            file: "a.rs".into(),
            line: 3,
            rule: "wall-clock",
            message: "say \"hi\"\nback\\slash".into(),
        }];
        let json = to_json(&v);
        assert_eq!(
            json,
            "[\n  {\"file\":\"a.rs\",\"line\":3,\"rule\":\"wall-clock\",\
             \"message\":\"say \\\"hi\\\"\\nback\\\\slash\"}\n]"
        );
        assert_eq!(to_json(&[]), "[\n]");
    }
}
