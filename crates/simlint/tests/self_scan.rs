//! The workspace self-scan: the live tree must be clean under the
//! checked-in `simlint.toml`, and the workspace must depend on no crate
//! outside itself. The first is the test-suite twin of the CI step
//! `cargo run --release -p simlint -- --workspace` — any change that
//! introduces per-flow state in a core module fails here before it ever
//! reaches CI.

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
/// per-flow state is the only path-level exemption today. If this fails
/// after an edit to simlint.toml, make sure the new entry is justified in
/// DESIGN.md §17.
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
        allow.allows("dense-state", "crates/baselines/src/fred.rs"),
        "FRED's per-flow table is its defining cost and must be allowlisted"
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
    stale.insert("hot-alloc", "crates/deleted/src/old.rs");
    let err = validate_allowlist(&stale, &rels).expect_err("stale prefix must error");
    assert!(err.contains("crates/deleted/src/old.rs"), "{err}");
}

/// All randomness comes from `sim_core::rng::DetRng` streams and every
/// tool is hand-rolled (DESIGN.md §7): the lock file names the
/// workspace's own packages and nothing else, so no external crate — an
/// RNG crate or any other — can enter without failing here.
#[test]
fn cargo_lock_names_only_workspace_members() {
    let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root must exist");
    let name_of = |text: &str| -> Vec<String> {
        text.lines()
            .filter_map(|l| l.trim().strip_prefix("name = "))
            .map(|v| v.trim_matches('"').to_owned())
            .collect()
    };
    let mut members = Vec::new();
    for entry in std::fs::read_dir(root.join("crates")).expect("crates/ must list") {
        let manifest = entry.expect("dir entry").path().join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(manifest) {
            members.extend(name_of(&text).into_iter().next());
        }
    }
    members.sort();
    let lock = std::fs::read_to_string(root.join("Cargo.lock")).expect("Cargo.lock must exist");
    let mut locked = name_of(&lock);
    locked.sort();
    assert_eq!(members.len(), 9, "workspace members: {members:?}");
    assert_eq!(
        locked, members,
        "Cargo.lock must name exactly the workspace members"
    );
}
