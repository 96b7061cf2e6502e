//! `simlint` — in-repo static analysis for the invariants of this
//! reproduction that no general-purpose lint knows:
//!
//! * **core-statelessness** — Corelite's headline claim (paper §2–3) is
//!   that core routers keep no per-flow state; the `core-state` rule
//!   machine-checks that no core-router module declares a
//!   `FlowId`-keyed or per-flow-growing collection.
//! * **the engine's hot-path contracts** — `dense-state`, `hot-alloc`
//!   and `flow-lifecycle` keep id-keyed state in the slab, per-event
//!   functions allocation-free and per-epoch loops on the `ActiveSet`.
//! * **units and RNG streams** — `unit-safety` catches `_ns + _s`
//!   arithmetic, and `rng-stream-hygiene` keeps `DetRng` stream labels
//!   unique literals.
//!
//! The generic determinism and robustness checks (hash collections,
//! wall-clock reads, threads, exact float compares, `unwrap` in the
//! event loop) are clippy's, configured in the workspace `clippy.toml`
//! and `Cargo.toml` (DESIGN.md §17).
//!
//! The rules run on the hand-rolled [`lexer`]'s token stream plus the
//! little structure [`parser`] recovers (`#[cfg(test)]` ranges and
//! `DetRng` stream labels). Violations print as `file:line: rule —
//! message` and any violation makes the process exit nonzero. Suppress
//! per-site with an inline `// simlint: allow(<rule>)` comment (covers
//! that line and the next) or per-path in the checked-in `simlint.toml`.
//!
//! The crate is dependency-free like the rest of the workspace
//! (DESIGN.md §7): the lexer, walker and TOML-subset reader are
//! hand-rolled like sim-core's `DetRng`.

#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::float_cmp))]

pub mod config;
pub mod lexer;
pub mod parser;
pub mod rules;
pub mod walker;

use std::path::Path;

pub use config::Allowlist;
pub use rules::{classify, explain, scan_source, FileClass, Violation, RULES};

/// Lints a batch of files as one unit: the per-file token rules on each
/// file, then `rng-stream-hygiene` over the whole batch (a duplicate
/// label is a duplicate across files). `rels` are workspace-relative
/// paths.
pub fn lint_paths(
    root: &Path,
    rels: &[String],
    allow: &Allowlist,
) -> Result<Vec<Violation>, String> {
    let mut files = Vec::new();
    let mut all = Vec::new();
    for rel in rels {
        let src = std::fs::read_to_string(root.join(rel))
            .map_err(|e| format!("cannot read {rel}: {e}"))?;
        let class = classify(rel);
        let lexed = lexer::lex(&src);
        all.extend(rules::suppress(
            rules::scan_tokens(rel, &lexed, class),
            &lexed,
            allow,
        ));
        files.push((rel.as_str(), class, lexed));
    }
    files.sort_by_key(|f| f.0);
    all.extend(rules::rng_stream_hygiene(&files, allow));
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_allowlist_flags_stale_prefixes() {
        let mut allow = Allowlist::default();
        allow.insert("unit-safety", "crates/bench");
        allow.insert("hot-alloc", "crates/gone/src/lost.rs");
        let rels = vec!["crates/bench/src/lib.rs".to_owned()];
        let err = validate_allowlist(&allow, &rels).expect_err("stale entry must error");
        assert!(err.contains("crates/gone/src/lost.rs"), "{err}");
        assert!(!err.contains("crates/bench`"), "{err}");
        allow = Allowlist::default();
        allow.insert("unit-safety", "crates/bench");
        validate_allowlist(&allow, &rels).expect("live prefix is fine");
    }
}
