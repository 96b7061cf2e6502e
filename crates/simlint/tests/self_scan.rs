//! The workspace self-scan: the live tree must be clean under the
//! checked-in `simlint.toml`. This is the test-suite twin of the CI
//! step `cargo run --release -p simlint -- --workspace` — any PR that
//! introduces per-flow state in a core module or a nondeterminism
//! source in a sim crate fails here before it ever reaches CI.

use std::path::Path;

use simlint::walker::{collect_rs_files, find_workspace_root};
use simlint::{lint_workspace, load_allowlist, validate_allowlist, Allowlist};

#[test]
fn live_tree_is_clean() {
    let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root must exist");
    let allow = load_allowlist(&root).expect("simlint.toml must parse");
    let violations = lint_workspace(&root, &allow).expect("workspace scan must succeed");
    assert!(
        violations.is_empty(),
        "the tree has simlint violations:\n{}",
        violations
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// The checked-in allowlist must stay minimal and intentional: FRED's
/// per-flow state and the parallel executor's threads are the only
/// path-level exemptions today. If this fails after an edit to
/// simlint.toml, make sure the new entry is justified in DESIGN.md §17.
#[test]
fn checked_in_allowlist_covers_known_exemptions() {
    let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root must exist");
    let allow = load_allowlist(&root).expect("simlint.toml must parse");
    assert!(
        allow.allows("core-state", "crates/baselines/src/fred.rs"),
        "FRED keeps per-flow state by design and must be allowlisted"
    );
    assert!(
        allow.allows("thread-spawn", "crates/scenarios/src/exec.rs"),
        "the deterministic parallel executor is the sanctioned thread user"
    );
    assert!(
        !allow.allows("core-state", "crates/corelite/src/router.rs"),
        "Corelite core modules must never be exempt from core-state"
    );
}

/// Every checked-in allow must still point at a real file: a stale
/// prefix is dead configuration that would silently cover whatever
/// lands at that path next. `lint_workspace` enforces this; here the
/// validator is exercised both ways against the real tree.
#[test]
fn checked_in_allowlist_has_no_stale_prefixes() {
    let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root must exist");
    let allow = load_allowlist(&root).expect("simlint.toml must parse");
    let rels = collect_rs_files(&root).expect("walker must succeed");
    validate_allowlist(&allow, &rels).expect("checked-in allowlist must be live");

    let mut stale = Allowlist::default();
    stale.insert("wall-clock", "crates/deleted/src/old.rs");
    let err = validate_allowlist(&stale, &rels).expect_err("stale prefix must error");
    assert!(err.contains("crates/deleted/src/old.rs"), "{err}");
}
