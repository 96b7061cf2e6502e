//! The workspace self-scan: the live tree must be clean, and the
//! workspace must depend on no crate outside itself. The first is the
//! test-suite twin of the CI step `cargo run --release -p simlint --
//! --workspace` — any change that introduces per-flow state in a core
//! module fails here before it ever reaches CI.

use std::path::Path;

use simlint::walker::find_workspace_root;
use simlint::{classify, lint_file, lint_workspace, scan_source};

#[test]
fn live_tree_is_clean() {
    let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root must exist");
    let violations = lint_workspace(&root).expect("workspace scan must succeed");
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

/// FRED's exemption is real and minimal: the baseline keeps per-flow
/// state on purpose, and the one inline allow at its per-flow table is
/// all that keeps `core-state` quiet. Without it, exactly that table is
/// flagged; Corelite's router stays a core module.
#[test]
fn fred_exemption_is_one_load_bearing_inline_allow() {
    let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root must exist");
    let rel = "crates/baselines/src/fred.rs";
    let clean = lint_file(&root, rel).expect("fred.rs must be readable");
    assert!(clean.is_empty(), "{clean:?}");

    let src = std::fs::read_to_string(root.join(rel)).expect("fred.rs must be readable");
    let stripped = src.replace("simlint: allow(core-state)", "");
    assert_ne!(stripped, src, "fred.rs carries the allow comment");
    let v = scan_source(rel, &stripped, classify(rel));
    assert_eq!(v.len(), 1, "{v:?}");
    assert_eq!(v[0].rule, "core-state");
    let table = src
        .lines()
        .position(|l| l.trim() == "flows: DenseMap<FlowId, FlowAccount>,")
        .expect("fred.rs declares its per-flow table");
    assert_eq!(v[0].line as usize, table + 1, "{v:?}");

    assert!(classify("crates/corelite/src/router.rs").core_module);
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
