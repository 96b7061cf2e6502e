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
//! message` and any violation makes the process exit nonzero. The one
//! way to exempt code is an inline `// simlint: allow(<rule>)` comment
//! with its reason, at the site: it covers that line and the next.
//!
//! The crate is dependency-free like the rest of the workspace
//! (DESIGN.md §7): the lexer and walker are hand-rolled like sim-core's
//! `DetRng`.

#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::float_cmp))]

pub mod lexer;
pub mod parser;
pub mod rules;
pub mod walker;

use std::path::Path;

pub use rules::{classify, explain, scan_source, FileClass, Violation, RULES};

/// Lints a batch of files as one unit: the per-file token rules on each
/// file, then `rng-stream-hygiene` over the whole batch (a duplicate
/// label is a duplicate across files). `rels` are workspace-relative
/// paths.
pub fn lint_paths(root: &Path, rels: &[String]) -> Result<Vec<Violation>, String> {
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
        ));
        files.push((rel.as_str(), class, lexed));
    }
    files.sort_by_key(|f| f.0);
    all.extend(rules::rng_stream_hygiene(&files));
    all.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    all.dedup();
    Ok(all)
}

/// Lints one file on disk. `rel` decides rule scoping and must be the
/// workspace-relative path (`crates/netsim/src/network.rs`).
pub fn lint_file(root: &Path, rel: &str) -> Result<Vec<Violation>, String> {
    lint_paths(root, std::slice::from_ref(&rel.to_owned()))
}

/// Lints every `.rs` file in the workspace tree at `root`, returning
/// violations sorted by file, line and rule.
pub fn lint_workspace(root: &Path) -> Result<Vec<Violation>, String> {
    lint_paths(root, &walker::collect_rs_files(root)?)
}
