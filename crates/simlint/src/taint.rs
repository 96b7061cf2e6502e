//! The workspace-level rules: taint reachability and RNG stream
//! hygiene. Both need every file's parsed symbols at once, so they run
//! after the per-file token scan, over the whole batch being linted.
//!
//! **Taint** makes the four determinism rules transitive. The per-file
//! scan reports a wall-clock read (say) *at its site*; an inline allow
//! there is a statement about the site's own context — "bench timing",
//! "one-shot setup". It says nothing about reachability: if the replay
//! path can call into that function, the nondeterminism still lands in
//! the simulation. So the taint pass walks the call graph from the
//! replay roots and re-reports any *allowed* sink a root can reach,
//! with the full root→sink call chain in the message. Unallowed sinks
//! are the base rule's job — taint never double-reports them.
//!
//! **RNG stream hygiene** checks `DetRng::stream`/`substream` labels:
//! streams are keyed by `(seed, label)`, so two live call sites sharing
//! a label draw identical sequences — silently correlated randomness.
//! Duplicate literal labels are errors anywhere outside test code;
//! non-literal labels are errors in replay-path crates, where labels
//! must stay auditable by grep.

use std::collections::BTreeMap;

use crate::config::Allowlist;
use crate::graph::{CallGraph, CrateDeps};
use crate::lexer::Lexed;
use crate::parser::FileSymbols;
use crate::rules::{FileClass, Violation};

/// One file's full analysis state, handed to the workspace pass by
/// [`crate::lint_paths`].
pub(crate) struct AnalyzedFile {
    pub rel: String,
    pub class: FileClass,
    pub lexed: Lexed,
    pub symbols: FileSymbols,
    /// Pre-suppression findings from the per-file token scan: an
    /// allowed wall-clock read is invisible in the suppressed output
    /// but is still a taint sink.
    pub raw: Vec<Violation>,
}

/// The determinism rules with a transitive form: `(base, taint)`.
const TAINTED: &[(&str, &str)] = &[
    ("wall-clock", "taint-wall-clock"),
    ("thread-spawn", "taint-thread-spawn"),
    ("rand-import", "taint-rand-import"),
    ("hash-collections", "taint-hash-collections"),
];

/// Modules whose every (non-test) function is a replay-path root: the
/// netsim dispatch loop and its event queue, churn/fault schedule
/// application, and the sharded executor's worker/merge path — the code
/// that runs between `run_until` (or a shard epoch) and each
/// `RouterLogic` callback.
const ROOT_MODULES: &[&str] = &[
    "crates/netsim/src/network.rs",
    "crates/netsim/src/logic.rs",
    "crates/netsim/src/link.rs",
    "crates/netsim/src/churn.rs",
    "crates/netsim/src/fault.rs",
    "crates/netsim/src/shard.rs",
    // The ack-clocked transport: pump/retransmit/RTO helpers run
    // between dispatch and the RouterLogic callbacks, and the RTT
    // estimator feeds the replayed control loop directly.
    "crates/netsim/src/transport.rs",
    "crates/sim-core/src/event.rs",
];

/// Fixture stand-in for the sharded executor: fixture files with this
/// prefix are treated as replay roots exactly like
/// `crates/netsim/src/shard.rs`, so the shard-worker taint behaviour
/// has its own bad/ok pair (the walker excludes `fixtures/` from tree
/// scans; the fixture tests lint them one-by-one).
const ROOT_FIXTURE_PREFIX: &str = "crates/simlint/fixtures/shard_worker_";

/// Traits the engine dispatches into dynamically. The call graph cannot
/// resolve trait-object calls (no type inference), so every impl of
/// these traits is a root instead — the over-approximation that keeps
/// the analysis sound for replay code (DESIGN.md §17).
const ROOT_TRAITS: &[&str] = &["RouterLogic", "Discipline"];

const RNG_RULE: &str = "rng-stream-hygiene";

/// True when `lexed` carries an inline `simlint: allow(rule)` covering
/// `line` (same line or the line directly above — the same contract the
/// per-file scan uses).
fn inline_allowed(lexed: &Lexed, rule: &str, line: u32) -> bool {
    lexed
        .allows
        .iter()
        .any(|a| a.rule == rule && (a.line == line || a.line + 1 == line))
}

/// Runs both workspace rules over the analyzed batch. Output is sorted
/// and deduplicated by the caller along with the per-file findings.
pub(crate) fn workspace_pass(
    files: &[AnalyzedFile],
    deps: &CrateDeps,
    allow: &Allowlist,
) -> Vec<Violation> {
    let mut out = Vec::new();
    let lexed_of: BTreeMap<&str, &Lexed> =
        files.iter().map(|f| (f.rel.as_str(), &f.lexed)).collect();

    // The call graph covers live code only: integration-test files
    // exercise the replay path but are not part of it.
    let mut graph_files: Vec<(String, FileSymbols)> = files
        .iter()
        .filter(|f| !f.class.is_test)
        .map(|f| (f.rel.clone(), f.symbols.clone()))
        .collect();
    graph_files.sort_by(|a, b| a.0.cmp(&b.0));
    let graph = CallGraph::build(&graph_files, deps);

    let roots: Vec<usize> = graph
        .nodes
        .iter()
        .enumerate()
        .filter(|(_, n)| !n.def.in_cfg_test)
        .filter(|(_, n)| {
            ROOT_MODULES.contains(&n.file.as_str())
                || n.file.starts_with(ROOT_FIXTURE_PREFIX)
                || n.def
                    .trait_name
                    .as_deref()
                    .is_some_and(|t| ROOT_TRAITS.contains(&t))
        })
        .map(|(id, _)| id)
        .collect();
    let parent = graph.reachable_from(&roots);

    // Taint: every *allowed* determinism sink whose enclosing fn a
    // replay root reaches. Top-level sinks (a `use` declaration) have
    // no enclosing fn and stay the base rule's business.
    for f in files.iter().filter(|f| !f.class.is_test) {
        for v in &f.raw {
            let Some(&(base, taint_rule)) = TAINTED.iter().find(|&&(b, _)| b == v.rule) else {
                continue;
            };
            let base_allowed = inline_allowed(&f.lexed, base, v.line) || allow.allows(base, &f.rel);
            if !base_allowed {
                continue; // unallowed: the base rule already reports it
            }
            let Some(sink) = graph.enclosing_fn(&f.rel, v.line) else {
                continue;
            };
            if graph.nodes[sink].def.in_cfg_test || parent[sink].is_none() {
                continue;
            }
            let chain = graph.path_to(&parent, sink);
            // Path-aware suppression: a taint allow at the sink site,
            // on any function declaration along the chain, or a config
            // entry for any file on the chain.
            let suppressed = inline_allowed(&f.lexed, taint_rule, v.line)
                || allow.allows(taint_rule, &f.rel)
                || chain.iter().any(|&id| {
                    let n = &graph.nodes[id];
                    allow.allows(taint_rule, &n.file)
                        || lexed_of
                            .get(n.file.as_str())
                            .is_some_and(|lx| inline_allowed(lx, taint_rule, n.def.line))
                });
            if suppressed {
                continue;
            }
            let shown: Vec<String> = chain
                .iter()
                .map(|&id| {
                    let n = &graph.nodes[id];
                    format!("{} ({}:{})", n.def.name, n.file, n.def.line)
                })
                .collect();
            out.push(Violation {
                file: f.rel.clone(),
                line: v.line,
                rule: taint_rule,
                message: format!(
                    "`{base}` sink (allowed at its site) is reachable from a replay root; \
                     the allow justified the site, not its reachability — chain: {}",
                    shown.join(" → ")
                ),
            });
        }
    }

    // RNG stream hygiene over live call sites, in deterministic
    // (file, line) order so "first use" is stable across runs.
    let mut sites: Vec<(&AnalyzedFile, u32, &'static str, Option<&str>)> = Vec::new();
    for f in files.iter().filter(|f| !f.class.is_test) {
        for l in f.symbols.rng_labels.iter().filter(|l| !l.in_cfg_test) {
            sites.push((f, l.line, l.kind, l.label.as_deref()));
        }
    }
    sites.sort_by(|a, b| (a.0.rel.as_str(), a.1).cmp(&(b.0.rel.as_str(), b.1)));

    let rng_allowed = |f: &AnalyzedFile, line: u32| {
        inline_allowed(&f.lexed, RNG_RULE, line) || allow.allows(RNG_RULE, &f.rel)
    };
    for &(f, line, kind, label) in &sites {
        if label.is_none() && f.class.replay && !rng_allowed(f, line) {
            out.push(Violation {
                file: f.rel.clone(),
                line,
                rule: RNG_RULE,
                message: format!(
                    "`DetRng::{kind}` label is not a string literal; replay-path stream \
                     labels must be grep-auditable literals"
                ),
            });
        }
    }
    let mut first_site: BTreeMap<&str, (&str, u32)> = BTreeMap::new();
    for &(f, line, kind, label) in &sites {
        let Some(label) = label else { continue };
        match first_site.get(label) {
            None => {
                first_site.insert(label, (f.rel.as_str(), line));
            }
            Some(&(f0, l0)) if f0 == f.rel && l0 == line => {}
            Some(&(f0, l0)) => {
                if !rng_allowed(f, line) {
                    out.push(Violation {
                        file: f.rel.clone(),
                        line,
                        rule: RNG_RULE,
                        message: format!(
                            "duplicate `DetRng::{kind}` label \"{label}\" (first used at \
                             {f0}:{l0}); same-label streams draw identical sequences under \
                             one seed — pick a distinct label"
                        ),
                    });
                }
            }
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse;
    use crate::rules::{classify, scan_tokens};

    fn analyze(rel: &str, src: &str) -> AnalyzedFile {
        let class = classify(rel);
        let lexed = lex(src);
        let raw = scan_tokens(rel, &lexed, class);
        let symbols = parse(&lexed);
        AnalyzedFile {
            rel: rel.to_owned(),
            class,
            lexed,
            symbols,
            raw,
        }
    }

    fn deps() -> CrateDeps {
        let mut d = CrateDeps::default();
        d.insert("sim_core", &[]);
        d.insert("netsim", &["sim_core"]);
        d.insert("bench", &["sim_core", "netsim"]);
        d
    }

    fn pass(files: &[AnalyzedFile]) -> Vec<Violation> {
        workspace_pass(files, &deps(), &Allowlist::default())
    }

    #[test]
    fn allowed_sink_two_calls_from_root_is_tainted() {
        // network.rs is a ROOT_MODULES file: `dispatch` is a root, and
        // the allowed Instant::now sits two calls away in another file.
        let root = analyze(
            "crates/netsim/src/network.rs",
            "use crate::flow::step;\nfn dispatch() { step(); }",
        );
        let helpers = analyze(
            "crates/netsim/src/flow.rs",
            "pub fn step() { stamp(); }\n\
             fn stamp() {\n\
             // simlint: allow(wall-clock) pretend this is justified\n\
             let t = Instant::now();\n\
             }",
        );
        let v = pass(&[root, helpers]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "taint-wall-clock");
        assert_eq!(v[0].file, "crates/netsim/src/flow.rs");
        assert_eq!(v[0].line, 4);
        assert!(
            v[0].message.contains("dispatch")
                && v[0].message.contains("step")
                && v[0].message.contains("stamp"),
            "chain must name root, middle and sink: {}",
            v[0].message
        );
    }

    #[test]
    fn unallowed_sink_is_the_base_rules_business() {
        let f = analyze(
            "crates/netsim/src/network.rs",
            "fn dispatch() { let t = Instant::now(); }",
        );
        let v = pass(&[f]);
        assert!(
            v.is_empty(),
            "no allow at the site → base rule reports, not taint: {v:?}"
        );
    }

    #[test]
    fn unreachable_sink_is_not_tainted() {
        // flow.rs is not a root module; nothing calls `island`.
        let f = analyze(
            "crates/netsim/src/flow.rs",
            "fn island() {\n// simlint: allow(wall-clock) unreferenced helper\n\
             let t = Instant::now();\n}",
        );
        let v = pass(&[f]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn cross_file_reachability_through_use_import() {
        // A Discipline impl (trait root) in one file reaches an allowed
        // sink in another crate through a `use` import.
        let root = analyze(
            "crates/netsim/src/sched.rs",
            "use sim_core::clock::read_clock;\n\
             struct D;\n\
             impl Discipline for D { fn handle_emit(&self) { read_clock(); } }",
        );
        let sink = analyze(
            "crates/sim-core/src/clock.rs",
            "pub fn read_clock() {\n// simlint: allow(wall-clock) calibration\n\
             let t = Instant::now();\n}",
        );
        let v = pass(&[root, sink]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "taint-wall-clock");
        assert_eq!(v[0].file, "crates/sim-core/src/clock.rs");
    }

    #[test]
    fn taint_allow_at_sink_or_along_chain_suppresses() {
        let at_sink = analyze(
            "crates/netsim/src/network.rs",
            "fn dispatch() { stamp(); }\n\
             fn stamp() {\n\
             // simlint: allow(wall-clock) justified\n\
             let t = Instant::now(); // simlint: allow(taint-wall-clock) audited\n\
             }",
        );
        assert!(pass(&[at_sink]).is_empty());
        let mid_chain = analyze(
            "crates/netsim/src/network.rs",
            "fn dispatch() { stamp(); }\n\
             // simlint: allow(taint-wall-clock) audited: cold path\n\
             fn stamp() {\n\
             // simlint: allow(wall-clock) justified\n\
             let t = Instant::now();\n\
             }",
        );
        assert!(pass(&[mid_chain]).is_empty());
    }

    #[test]
    fn config_allow_for_a_chain_file_suppresses() {
        let f = analyze(
            "crates/netsim/src/network.rs",
            "fn dispatch() { stamp(); }\n\
             fn stamp() {\n// simlint: allow(wall-clock) justified\n\
             let t = Instant::now();\n}",
        );
        let mut allow = Allowlist::default();
        allow.insert("taint-wall-clock", "crates/netsim/src/network.rs");
        let v = workspace_pass(&[f], &deps(), &allow);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn cfg_test_roots_and_sinks_are_exempt() {
        let f = analyze(
            "crates/netsim/src/network.rs",
            "#[cfg(test)]\nmod tests {\n\
             fn dispatch() { stamp(); }\n\
             fn stamp() {\n// simlint: allow(wall-clock) test timing\n\
             let t = Instant::now();\n}\n\
             }",
        );
        let v = pass(&[f]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn duplicate_rng_labels_flag_later_sites_only() {
        let a = analyze(
            "crates/netsim/src/churn.rs",
            "fn setup(r: &DetRng) { let s = DetRng::stream(r, \"gaps\"); }",
        );
        let b = analyze(
            "crates/netsim/src/fault.rs",
            "fn setup(r: &DetRng) { let s = DetRng::stream(r, \"gaps\"); }",
        );
        let v = pass(&[a, b]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "rng-stream-hygiene");
        assert_eq!(v[0].file, "crates/netsim/src/fault.rs", "first use wins");
        assert!(v[0].message.contains("churn.rs:1"), "{}", v[0].message);
    }

    #[test]
    fn non_literal_label_flagged_only_on_replay_path() {
        let replay = analyze(
            "crates/netsim/src/churn.rs",
            "fn setup(r: &DetRng, name: &str) { let s = DetRng::stream(r, name); }",
        );
        let v = pass(&[replay]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("not a string literal"));
        // scenarios is not a replay crate: computed labels are fine.
        let outside = analyze(
            "crates/scenarios/src/sweep.rs",
            "fn setup(r: &DetRng, name: &str) { let s = DetRng::stream(r, name); }",
        );
        assert!(pass(&[outside]).is_empty());
    }

    #[test]
    fn rng_sites_in_tests_are_exempt() {
        // Reusing a label to prove stream identity is what RNG tests do.
        let f = analyze(
            "crates/sim-core/src/rng.rs",
            "#[cfg(test)]\nmod tests {\nfn t(r: &DetRng) {\n\
             let a = DetRng::stream(r, \"same\"); let b = DetRng::stream(r, \"same\");\n}\n}",
        );
        assert!(pass(&[f]).is_empty());
        let test_file = analyze(
            "crates/sim-core/tests/rng.rs",
            "fn t(r: &DetRng) { let a = DetRng::stream(r, \"x\"); let b = DetRng::stream(r, \"x\"); }",
        );
        assert!(pass(&[test_file]).is_empty());
    }
}
