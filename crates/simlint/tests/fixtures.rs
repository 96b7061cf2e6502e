//! Fixture-based rule tests: for every rule, one deliberately-violating
//! snippet must be flagged and one idiomatic snippet must pass. The
//! fixtures live in `crates/simlint/fixtures/` and are excluded from
//! tree scans by the walker, so they are linted here one-by-one.

use std::path::{Path, PathBuf};

use simlint::lint_file;
use simlint::walker::find_workspace_root;

fn root() -> PathBuf {
    find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("workspace root must exist")
}

fn fixture(name: &str) -> String {
    format!("crates/simlint/fixtures/{name}.rs")
}

fn violations_for(name: &str) -> Vec<simlint::Violation> {
    lint_file(&root(), &fixture(name)).expect("fixture must be readable")
}

/// Each rule's bad fixture yields at least one violation of exactly
/// that rule; its ok fixture yields none at all.
#[test]
fn every_rule_has_a_flagged_and_a_clean_fixture() {
    for (rule, _) in simlint::RULES {
        let stem = rule.replace('-', "_");
        let bad = violations_for(&format!("{stem}_bad"));
        assert!(
            bad.iter().any(|v| v.rule == *rule),
            "{rule}: bad fixture produced no {rule} violation: {bad:?}"
        );
        let ok = violations_for(&format!("{stem}_ok"));
        assert!(ok.is_empty(), "{rule}: ok fixture must be clean: {ok:?}");
    }
}

/// The acceptance-criterion fixture: a FlowId-keyed map injected into a
/// core-router-classified module is caught, in the keyed-map, the
/// growing-tuple-vec and both slab forms (`DenseMap`, `ActiveSet`), and
/// reports usable file:line positions.
#[test]
fn flowid_keyed_map_in_core_module_is_caught() {
    let v = violations_for("core_state_bad");
    let core: Vec<_> = v.iter().filter(|v| v.rule == "core-state").collect();
    assert_eq!(
        core.len(),
        4,
        "map + tuple-vec + DenseMap + ActiveSet: {v:?}"
    );
    assert!(core.iter().all(|v| v.file.ends_with("core_state_bad.rs")));
    assert!(core.iter().all(|v| v.line > 0));
    let rendered = core[0].to_string();
    assert!(
        rendered.contains("core_state_bad.rs:") && rendered.contains(": core-state — "),
        "display format must be `file:line: rule — message`, got {rendered}"
    );
}

/// The dense-state ok fixture exercises the inline-allow path: the same
/// declaration without its `simlint: allow(dense-state)` comment is
/// caught.
#[test]
fn inline_allow_is_load_bearing_in_dense_state_fixture() {
    let rel = fixture("dense_state_ok");
    let src = std::fs::read_to_string(root().join(&rel)).expect("fixture must be readable");
    let stripped = src.replace("// simlint: allow(dense-state)", "");
    assert_ne!(stripped, src, "the fixture carries the allow comment");
    let v = simlint::scan_source(&rel, &stripped, simlint::classify(&rel));
    assert!(
        v.iter().any(|v| v.rule == "dense-state"),
        "without the allow comment the cold-path map must be flagged: {v:?}"
    );
}

/// The churn-path fixture pair: `handle_churn_arrival` is a hot function,
/// so an arrival that clones its template's route vectors or builds a
/// fresh `vec!` is flagged once per copy, while the shared-route,
/// refill-in-place twin is clean.
#[test]
fn churn_arrival_route_copies_are_caught() {
    let bad = violations_for("hot_alloc_churn_bad");
    let hot: Vec<_> = bad.iter().filter(|v| v.rule == "hot-alloc").collect();
    assert_eq!(hot.len(), 3, "two route clones and a vec!: {bad:?}");
    assert_eq!(
        hot.iter()
            .filter(|v| v.message.contains(".field.clone()"))
            .count(),
        2,
        "{bad:?}"
    );
    let ok = violations_for("hot_alloc_churn_ok");
    assert!(ok.is_empty(), "hot_alloc_churn_ok must be clean: {ok:?}");
}

/// The pacer fixture pair: `arm`, `fired` and `reset` are hot functions
/// (every emission timer goes through them), so a pacer whose `arm`
/// allocates per call is flagged while the word-per-slot one is clean.
#[test]
fn a_pacer_that_allocates_per_arm_is_caught() {
    let bad = violations_for("hot_alloc_pacer_bad");
    assert!(
        bad.iter().any(|v| v.rule == "hot-alloc"),
        "hot_alloc_pacer_bad must trip hot-alloc: {bad:?}"
    );
    let ok = violations_for("hot_alloc_pacer_ok");
    assert!(ok.is_empty(), "hot_alloc_pacer_ok must be clean: {ok:?}");
}

/// The `Ctx` effect fixture pair: `forward` and `set_timer` are hot
/// functions (a logic's call is the effect), so a context that collects
/// effects in per-call allocations is flagged while the one that applies
/// them to the engine it borrows is clean.
#[test]
fn a_ctx_that_allocates_per_effect_is_caught() {
    let bad = violations_for("hot_alloc_ctx_effect_bad");
    let hot = bad.iter().filter(|v| v.rule == "hot-alloc").count();
    assert_eq!(hot, 3, "a vec!, a Box::new and a .to_vec(): {bad:?}");
    let ok = violations_for("hot_alloc_ctx_effect_ok");
    assert!(
        ok.is_empty(),
        "hot_alloc_ctx_effect_ok must be clean: {ok:?}"
    );
}

/// The transport-sender fixture pair: the `transport_sender_` prefix
/// classifies like `crates/netsim/src/transport.rs` (hot-path +
/// per-id-state), so the bad fixture trips dense-state and hot-alloc,
/// while the slab-backed, buffer-reusing twin is clean.
#[test]
fn transport_sender_fixtures_cover_alloc_and_state() {
    let bad = violations_for("transport_sender_bad");
    for rule in ["dense-state", "hot-alloc"] {
        assert!(
            bad.iter().any(|v| v.rule == rule),
            "transport_sender_bad must trip {rule}: {bad:?}"
        );
    }
    let ok = violations_for("transport_sender_ok");
    assert!(ok.is_empty(), "transport_sender_ok must be clean: {ok:?}");
}
