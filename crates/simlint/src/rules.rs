//! The lint rules and the token-stream scanner that applies them.
//!
//! Each rule is a named invariant of this repository (see DESIGN.md
//! §17); every rule can be suppressed per-site, and only per-site, with
//! an inline `// simlint: allow(<rule>)` comment carrying its reason.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

use crate::lexer::{lex, Lexed, Tok, Token};
use crate::parser::{cfg_test_ranges, in_ranges, rng_labels};

/// One rule violation, printed as `file:line: rule — message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    pub file: String,
    pub line: u32,
    pub rule: &'static str,
    pub message: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: {} — {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Every rule simlint knows, with a one-line description (shown by
/// `simlint --list-rules`).
pub const RULES: &[(&str, &str)] = &[
    (
        "core-state",
        "core-router modules must not declare FlowId-keyed or per-flow-growing collections",
    ),
    (
        "hot-alloc",
        "heap allocation (vec!/Vec::new/Box::new/.to_vec/.field.clone()) in per-event hot functions; reuse buffers",
    ),
    (
        "dense-state",
        "BTreeMap/HashMap keyed by FlowId/NodeId/LinkId in hot-path state modules; use netsim::slab::DenseMap",
    ),
    (
        "flow-lifecycle",
        "0..key_bound() slot scans in per-epoch discipline modules; iterate the ActiveSet",
    ),
    (
        "unit-safety",
        "expression mixes _ns/_s/_ticks or _bytes/_pkts identifiers without a recognized conversion",
    ),
    (
        "rng-stream-hygiene",
        "DetRng stream labels must be unique string literals; duplicates correlate streams",
    ),
];

/// Long-form rationale shown by `simlint --explain <rule>`.
pub fn explain(rule: &str) -> Option<&'static str> {
    Some(match rule {
        "core-state" => {
            "The paper's headline claim (§2-3) is that core routers keep no per-flow\n\
             state: edges encode each flow's weighted share in packet markers, and the\n\
             core acts on aggregates alone. A FlowId-keyed collection in a core-router\n\
             module would reintroduce exactly the state the architecture removes, so the\n\
             rule flags `Map<FlowId, …>` and growing `Vec<(FlowId, …)>` declarations in\n\
             the core modules, the slab's DenseMap and ActiveSet included. FRED keeps\n\
             per-flow state on purpose as the contrast baseline; its one per-flow table\n\
             carries an inline allow with that justification, and nothing else in it is\n\
             exempt."
        }
        "hot-alloc" => {
            "Steady-state dispatch is allocation-free (pinned by netsim's counting-\n\
             allocator tests); a vec!/Vec::new/Box::new/.to_vec in a per-event function\n\
             of a hot-path module re-introduces per-event heap traffic, and so does\n\
             cloning a field out of a structure (x.field.clone(): a route copied into\n\
             every arriving flow). Reuse storage that outlives the event (the event\n\
             queue's payload slab, the shard outboxes swapped whole at each exchange);\n\
             share immutable data behind an Rc and bump it with Rc::clone(&x.field)."
        }
        "dense-state" => {
            "Per-id state read on the hot path belongs in netsim::slab::DenseMap: O(1)\n\
             index access, id-ordered iteration and allocation-free reuse. Tree/hash\n\
             maps keyed by FlowId/NodeId/LinkId trade that for pointer chasing and\n\
             per-insert allocation."
        }
        "flow-lifecycle" => {
            "Flow slots are recycled under churn: a 0..key_bound() index scan walks\n\
             every slot ever used and touches retired occupants. Iterate the ActiveSet\n\
             (same ascending order, O(active) per epoch) instead."
        }
        "unit-safety" => {
            "Identifiers in this repo carry unit suffixes (_ns/_s/_ms/_ticks, _bytes/\n\
             _pkts). An expression that combines two different units of the same\n\
             dimension with +, -, a comparison, an assignment or min/max — with no\n\
             conversion identifier (…_per_…, …_to_…, *_SHIFT, tick_ns-style) in sight —\n\
             is the bug class behind the PR 4 tick/ns floor split. Multiplication and\n\
             division are exempt (they legitimately change units)."
        }
        "rng-stream-hygiene" => {
            "DetRng streams are keyed by (seed, label): two call sites using the same\n\
             label draw *identical* sequences under the same seed — silently correlated\n\
             randomness. The rule collects every DetRng::stream/substream label literal\n\
             workspace-wide and errors on duplicates at distinct live call sites, and on\n\
             non-literal labels in replay-path crates (a computed label defeats stream\n\
             auditing). Test code is exempt — reusing a label to prove stream identity\n\
             is what RNG tests do."
        }
        _ => return None,
    })
}

/// Core-router modules: the paper's headline claim (§2–3) is that these
/// keep no per-flow state. FRED is in the list because it sits in the
/// same core-AQM position: its deliberate per-flow table carries an
/// inline allow at the declaration, so any other it grows is flagged.
const CORE_MODULES: &[&str] = &[
    "crates/corelite/src/router.rs",
    "crates/corelite/src/detector.rs",
    "crates/corelite/src/stateless.rs",
    "crates/corelite/src/cache.rs",
    "crates/corelite/src/congestion.rs",
    "crates/csfq/src/core.rs",
    "crates/baselines/src/red.rs",
    "crates/baselines/src/fred.rs",
];

/// Dispatch/discipline modules whose per-event functions must not
/// allocate: the engine's zero-alloc contract (DESIGN.md §9,
/// pinned by `crates/netsim/tests/zero_alloc.rs`) only
/// holds if steady-state dispatch never touches the heap.
const HOT_PATH_MODULES: &[&str] = &[
    "crates/netsim/src/network.rs",
    "crates/netsim/src/logic.rs",
    "crates/netsim/src/link.rs",
    "crates/netsim/src/pacer.rs",
    "crates/netsim/src/slab.rs",
    "crates/netsim/src/telemetry.rs",
    "crates/netsim/src/transport.rs",
    "crates/netsim/src/churn.rs",
    "crates/netsim/src/agent.rs",
    "crates/sim-core/src/event.rs",
    "crates/corelite/src/router.rs",
    "crates/csfq/src/core.rs",
    "crates/baselines/src/red.rs",
    "crates/baselines/src/fred.rs",
    "crates/baselines/src/greedy.rs",
];

/// Modules holding per-id state that the dispatch loop reads or writes
/// per event (or per epoch): a tree/hash map keyed by one of the dense
/// id types here trades O(1) slab access for pointer chasing and
/// per-insert allocation, so the `dense-state` rule steers these to
/// `netsim::slab::DenseMap`. FRED is listed like any other core: its
/// per-flow table is slab-backed already.
const DENSE_STATE_MODULES: &[&str] = &[
    "crates/netsim/src/network.rs",
    "crates/netsim/src/logic.rs",
    "crates/netsim/src/link.rs",
    "crates/netsim/src/monitor.rs",
    "crates/netsim/src/pacer.rs",
    "crates/netsim/src/slab.rs",
    "crates/netsim/src/transport.rs",
    "crates/netsim/src/agent.rs",
    "crates/corelite/src/router.rs",
    "crates/csfq/src/core.rs",
    "crates/baselines/src/red.rs",
    "crates/baselines/src/fred.rs",
    "crates/baselines/src/greedy.rs",
];

/// Modules with per-epoch loops over recycled flow tables. Under churn
/// a `0..key_bound()` index scan costs O(slots ever used) per epoch and
/// touches retired occupants, where `ActiveSet` iteration is O(active
/// flows) in the same ascending-index order. Link tables never recycle
/// their slots, so per-link scans (the core router's) stay off this
/// list.
const FLOW_LIFECYCLE_MODULES: &[&str] = &["crates/netsim/src/agent.rs"];

/// The dense id types whose keyed maps belong in the slab.
const DENSE_ID_TYPES: &[&str] = &["FlowId", "NodeId", "LinkId"];

/// Source roots of the crates that execute during a replay. Inside them
/// `rng-stream-hygiene` requires stream labels to be string literals.
const REPLAY_CRATES: &[&str] = &[
    "crates/sim-core/src",
    "crates/netsim/src",
    "crates/corelite/src",
    "crates/csfq/src",
    "crates/baselines/src",
];

/// Function names that run per event (or per epoch) in a hot-path
/// module. The `hot-alloc` rule applies only inside these bodies, so
/// constructors and report/setup code may allocate freely.
const HOT_FNS: &[&str] = &[
    // netsim dispatch internals.
    "run_until",
    "run_before",
    "drain",
    "dispatch",
    "lifecycle_gate",
    "handle_arrive",
    "with_logic",
    "push_event",
    "push_timer",
    "push_control",
    "admit_control",
    "record_drop",
    // `Ctx`'s effect methods: a logic's call *is* the effect, applied on
    // the spot, so these are the dispatch path (DESIGN.md §9).
    "forward",
    "emit",
    "drop_packet",
    "send_control",
    "set_timer",
    // The event queue under every dispatch. A slot's block push and drain
    // reuse free blocks; arena and slab growth live in `#[cold]` helpers
    // off this list.
    "place",
    "push_to_slot",
    "drain_slot",
    "push_keyed",
    "pop_at_or_before",
    "pop_keyed_at_or_before",
    // Flow churn: an arrival -> start -> stop -> retire cycle on a
    // recycled slot allocates nothing (route data is shared, not copied).
    "handle_churn_arrival",
    "handle_churn_retire",
    "plan_arrival",
    "retire",
    // Per-packet link operations.
    "offer",
    "sync",
    "queue_len",
    // Per-event slab accessors (netsim::slab): growth is amortized via
    // resize_with, everything else must stay allocation-free.
    "insert",
    "remove",
    "entry_or_insert_with",
    "clear",
    "retain",
    // RouterLogic callbacks (on_start included: helpers reached from it
    // are usually shared with the per-packet path).
    "on_start",
    "on_packet",
    "on_timer",
    "on_control",
    "on_flow_start",
    "on_flow_stop",
    // The pacer under every emission timer (netsim::pacer): growth is a
    // resize, a fire or a re-arm allocates nothing.
    "arm",
    "fired",
    "reset",
    // Discipline helpers on the emit/adapt path.
    "handle_emit",
    "ensure_emission",
    "schedule_next",
    "run_epoch",
    "epoch_update",
    // Telemetry: every per-epoch publish lands here; the zero-alloc
    // contract (ISSUE 5) extends to probe recording.
    "record",
    "publish",
];

/// Collection types whose `<FlowId, …>` instantiation is per-flow state,
/// the slab's `DenseMap` and `ActiveSet` included.
const KEYED_COLLECTIONS: &[&str] = &[
    "HashMap",
    "BTreeMap",
    "HashSet",
    "BTreeSet",
    "IndexMap",
    "VecDeque",
    "DenseMap",
    "ActiveSet",
];

/// How a file is treated by path-scoped rules.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FileClass {
    /// Core-router module: the `core-state` rule applies.
    pub core_module: bool,
    /// Dispatch/discipline module: the `hot-alloc` rule applies inside
    /// its per-event functions.
    pub hot_path: bool,
    /// Per-id state module: the `dense-state` rule applies.
    pub dense_state: bool,
    /// Per-epoch flow-table module: the `flow-lifecycle` rule applies.
    pub flow_lifecycle: bool,
    /// Replay-path crate source: `rng-stream-hygiene` rejects
    /// non-literal `DetRng` stream labels here.
    pub replay: bool,
    /// Test code (integration test file): only `core-state` applies.
    pub is_test: bool,
}

/// Classifies `rel` (workspace-relative path with `/` separators).
///
/// Lint fixtures under `simlint/fixtures/` classify by filename prefix
/// (`core_state_*` as a core module, `hot_alloc_*` as a hot-path module, `dense_state_*` as a
/// per-id state module, `flow_lifecycle_*` as a per-epoch flow-table
/// module, `transport_sender_*` as both hot-path and per-id-state like
/// the real `crates/netsim/src/transport.rs`) so the fixtures exercise
/// the path-scoped rules without masquerading as real tree paths.
pub fn classify(rel: &str) -> FileClass {
    if let Some(name) = rel
        .contains("simlint/fixtures/")
        .then(|| rel.rsplit('/').next().unwrap_or(rel))
    {
        return FileClass {
            core_module: name.starts_with("core_state"),
            hot_path: name.starts_with("hot_alloc") || name.starts_with("transport_sender"),
            dense_state: name.starts_with("dense_state") || name.starts_with("transport_sender"),
            flow_lifecycle: name.starts_with("flow_lifecycle"),
            replay: name.starts_with("rng_stream_hygiene"),
            is_test: false,
        };
    }
    FileClass {
        core_module: CORE_MODULES.contains(&rel),
        hot_path: HOT_PATH_MODULES.contains(&rel),
        dense_state: DENSE_STATE_MODULES.contains(&rel),
        flow_lifecycle: FLOW_LIFECYCLE_MODULES.contains(&rel),
        replay: REPLAY_CRATES.iter().any(|p| rel.starts_with(p)),
        is_test: rel.starts_with("tests/") || rel.contains("/tests/"),
    }
}

/// Lints `src` as file `rel` classified as `class`, honoring inline
/// `simlint: allow(...)` comments.
///
/// This covers the per-file (token) rules only; `rng-stream-hygiene`
/// needs every file at once and runs in [`crate::lint_paths`].
pub fn scan_source(rel: &str, src: &str, class: FileClass) -> Vec<Violation> {
    let lexed = lex(src);
    suppress(scan_tokens(rel, &lexed, class), &lexed)
}

/// The pre-suppression token scan: every per-file finding, including
/// ones an inline allow will drop.
pub(crate) fn scan_tokens(rel: &str, lexed: &Lexed, class: FileClass) -> Vec<Violation> {
    let test_ranges = cfg_test_ranges(&lexed.tokens);
    let hot_ranges = if class.hot_path {
        hot_fn_ranges(&lexed.tokens)
    } else {
        Vec::new()
    };
    let mut found = Vec::new();
    let toks = &lexed.tokens;

    let ident = |i: usize| -> Option<&str> {
        match toks.get(i).map(|t| &t.tok) {
            Some(Tok::Ident(s)) => Some(s.as_str()),
            _ => None,
        }
    };
    let op = |i: usize, want: &str| matches!(toks.get(i).map(|t| &t.tok), Some(Tok::Op(o)) if *o == want);

    for (i, token) in toks.iter().enumerate() {
        let line = token.line;
        let Tok::Ident(name) = &token.tok else {
            continue;
        };
        // core-state: `BTreeMap<FlowId, …>` (optionally with a
        // turbofish) or `Vec<(FlowId, …)>` in a core module.
        if class.core_module {
            let mut j = i + 1;
            if op(j, "::") {
                j += 1; // turbofish `BTreeMap::<FlowId, _>`
            }
            if op(j, "<") {
                let keyed =
                    KEYED_COLLECTIONS.contains(&name.as_str()) && ident(j + 1) == Some("FlowId");
                let tupled = name == "Vec" && op(j + 1, "(") && ident(j + 2) == Some("FlowId");
                if keyed || tupled {
                    found.push(Violation {
                        file: rel.to_owned(),
                        line,
                        rule: "core-state",
                        message: format!(
                            "per-flow state (a `FlowId`-keyed `{name}`) in a core-router \
                             module; cores must stay stateless (paper §2–3)"
                        ),
                    });
                }
            }
        }
        // dense-state: a tree/hash map keyed by a dense id type
        // in a hot-path state module. Tests may model with maps
        // (the DenseMap property tests deliberately do).
        if class.dense_state
            && !class.is_test
            && !in_ranges(&test_ranges, line)
            && matches!(name.as_str(), "BTreeMap" | "HashMap")
        {
            let mut j = i + 1;
            if op(j, "::") {
                j += 1; // turbofish `BTreeMap::<FlowId, _>`
            }
            if op(j, "<") {
                if let Some(key) = ident(j + 1).filter(|k| DENSE_ID_TYPES.contains(k)) {
                    found.push(Violation {
                        file: rel.to_owned(),
                        line,
                        rule: "dense-state",
                        message: format!(
                            "`{name}<{key}, …>` in a hot-path module; id-keyed state \
                             belongs in `netsim::slab::DenseMap` (O(1) index access, \
                             id-ordered iteration, allocation-free reuse)"
                        ),
                    });
                }
            }
        }
        // flow-lifecycle: a `.key_bound()` call in a per-epoch
        // discipline module. Flow slots are recycled under
        // churn, so an index scan walks every slot ever used
        // and reads retired occupants; tests may scan the whole
        // table to cross-check the active set.
        if class.flow_lifecycle
            && !class.is_test
            && !in_ranges(&test_ranges, line)
            && name == "key_bound"
            && i > 0
            && op(i - 1, ".")
            && op(i + 1, "(")
        {
            found.push(Violation {
                file: rel.to_owned(),
                line,
                rule: "flow-lifecycle",
                message: "`0..key_bound()`-style slot scan in a per-epoch discipline \
                          module; flow slots are recycled under churn, so iterate the \
                          `ActiveSet` (same ascending-index order, O(active flows) per \
                          epoch) or justify with `simlint: allow(flow-lifecycle)`"
                    .to_owned(),
            });
        }
        // hot-alloc: a fresh heap allocation inside a per-event
        // function of a dispatch/discipline module. `Vec::<` is
        // the turbofish constructor form; `Vec` as a plain type
        // annotation has no `::` and is not flagged.
        if class.hot_path
            && !class.is_test
            && !in_ranges(&test_ranges, line)
            && in_ranges(&hot_ranges, line)
        {
            let alloc = if name == "vec" && op(i + 1, "!") {
                Some("vec![…]")
            } else if name == "Vec"
                && op(i + 1, "::")
                && (ident(i + 2) == Some("new") || op(i + 2, "<"))
            {
                Some("Vec::new()")
            } else if name == "Box"
                && op(i + 1, "::")
                && (ident(i + 2) == Some("new") || op(i + 2, "<"))
            {
                Some("Box::new(…)")
            } else if name == "to_vec" && i > 0 && op(i - 1, ".") && op(i + 1, "(") {
                Some(".to_vec()")
            } else if name == "clone"
                && i > 2
                && op(i - 1, ".")
                && op(i + 1, "(")
                && ident(i - 2).is_some()
                && op(i - 3, ".")
            {
                // `x.field.clone()` copies owned data out of a
                // structure; a shared handle is bumped with an
                // explicit `Rc::clone(&x.field)`.
                Some(".field.clone()")
            } else {
                None
            };
            if let Some(what) = alloc {
                found.push(Violation {
                    file: rel.to_owned(),
                    line,
                    rule: "hot-alloc",
                    message: format!(
                        "`{what}` allocates on the per-event hot path, breaking the \
                         engine's zero-alloc dispatch contract; reuse storage that \
                         outlives the event (the queue's payload slab, DESIGN.md §9) \
                         or justify with `simlint: allow(hot-alloc)`"
                    ),
                });
            }
        }
    }
    if !class.is_test {
        unit_safety(rel, toks, &test_ranges, &mut found);
    }
    found
}

/// Classifies one `_`-separated identifier segment as a canonical unit:
/// `(dimension, key)` where dimension 0 is time and 1 is count, and the
/// key folds spelling variants (`ns`/`nanos`, `pkt`/`pkts`/`packet`…).
fn unit_of_segment(seg: &str) -> Option<(u8, &'static str)> {
    Some(match seg {
        "ns" | "nanos" => (0, "ns"),
        "us" | "micros" => (0, "us"),
        "ms" | "millis" => (0, "ms"),
        "s" | "sec" | "secs" => (0, "s"),
        "tick" | "ticks" => (0, "ticks"),
        "byte" | "bytes" => (1, "bytes"),
        "pkt" | "pkts" | "packet" | "packets" => (1, "pkts"),
        _ => return None,
    })
}

/// The unit an identifier carries: its last `_`-segment's unit.
/// Single-segment names (`ticks` alone, a loop variable `s`) are too
/// common as ordinary locals to be trustworthy carriers, so a `_` is
/// required somewhere in the identifier.
fn unit_of_ident(name: &str) -> Option<(u8, &'static str)> {
    if !name.contains('_') {
        return None;
    }
    unit_of_segment(&name.rsplit('_').next().unwrap_or(name).to_ascii_lowercase())
}

/// True when `name` marks a deliberate unit conversion: a `per`/`to`/
/// `shift` segment (`bytes_per_s`, `ns_to_ticks`, `TICK_SHIFT`) or two
/// same-dimension units fused into one identifier (`tick_ns`).
fn is_conversion_ident(name: &str) -> bool {
    let mut dims_seen = [0usize; 2];
    for seg in name.split('_') {
        let lower = seg.to_ascii_lowercase();
        if matches!(lower.as_str(), "per" | "to" | "shift") {
            return true;
        }
        if let Some((dim, _)) = unit_of_segment(&lower) {
            dims_seen[dim as usize] += 1;
        }
    }
    dims_seen.iter().any(|&n| n >= 2)
}

/// The `unit-safety` scan: within one statement segment (split on `;`,
/// `,`, `{`, `}`), two identifiers carrying *different* units of the
/// same dimension combined by `+ - += -= < > <= >= == != =` or a
/// `min`/`max` call — with no conversion identifier in the segment — is
/// flagged. `*` and `/` are exempt: they legitimately change units.
fn unit_safety(rel: &str, toks: &[Token], test_ranges: &[(u32, u32)], found: &mut Vec<Violation>) {
    const TRIGGER_OPS: &[&str] = &["+", "-", "+=", "-=", "<", ">", "<=", ">=", "==", "!=", "="];
    let mut start = 0usize;
    for i in 0..=toks.len() {
        let boundary = i == toks.len() || matches!(&toks[i].tok, Tok::Op(";" | "," | "{" | "}"));
        if !boundary {
            continue;
        }
        let seg = &toks[start..i];
        start = i + 1;
        if seg.is_empty() {
            continue;
        }
        let line = seg[0].line;
        if in_ranges(test_ranges, line) {
            continue;
        }
        let mut units: Vec<(u8, &'static str, &str)> = Vec::new();
        let mut trigger = false;
        let mut converted = false;
        for t in seg {
            match &t.tok {
                Tok::Ident(name) => {
                    if is_conversion_ident(name) {
                        converted = true;
                    } else if let Some((dim, key)) = unit_of_ident(name) {
                        if !units.iter().any(|&(d, k, _)| d == dim && k == key) {
                            units.push((dim, key, name.as_str()));
                        }
                    }
                    if matches!(name.as_str(), "min" | "max") {
                        trigger = true;
                    }
                }
                Tok::Op(o) if TRIGGER_OPS.contains(o) => trigger = true,
                _ => {}
            }
        }
        if converted || !trigger {
            continue;
        }
        for class in 0u8..2 {
            let mixed: Vec<_> = units.iter().filter(|&&(c, _, _)| c == class).collect();
            if mixed.len() >= 2 {
                let names: Vec<_> = mixed.iter().map(|&&(_, _, n)| n).collect();
                found.push(Violation {
                    file: rel.to_owned(),
                    line,
                    rule: "unit-safety",
                    message: format!(
                        "expression mixes units ({}) without a recognized conversion \
                         (`…_per_…`, `…_to_…`, `*_SHIFT`, or a fused ident like `tick_ns`); \
                         convert explicitly or justify with `simlint: allow(unit-safety)`",
                        names.join(", ")
                    ),
                });
            }
        }
    }
}

/// Line ranges covered by the bodies of [`HOT_FNS`] functions, found by
/// brace-matching from each `fn <name>` to its closing brace. Trait
/// declarations without a body (`fn on_packet(…);`) contribute nothing.
fn hot_fn_ranges(toks: &[Token]) -> Vec<(u32, u32)> {
    let mut ranges = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        let is_hot_fn = matches!(&toks[i].tok, Tok::Ident(s) if s == "fn")
            && matches!(
                toks.get(i + 1).map(|t| &t.tok),
                Some(Tok::Ident(s)) if HOT_FNS.contains(&s.as_str())
            );
        if !is_hot_fn {
            i += 1;
            continue;
        }
        let start = toks[i].line;
        // Scan past the signature to the body's opening brace; a `;`
        // first means a bodiless trait-method declaration.
        let mut j = i + 2;
        while j < toks.len() && toks[j].tok != Tok::Op("{") && toks[j].tok != Tok::Op(";") {
            j += 1;
        }
        if toks.get(j).map(|t| &t.tok) == Some(&Tok::Op("{")) {
            let mut depth = 1usize;
            j += 1;
            while j < toks.len() && depth > 0 {
                match &toks[j].tok {
                    Tok::Op("{") => depth += 1,
                    Tok::Op("}") => depth -= 1,
                    _ => {}
                }
                j += 1;
            }
            let end = toks.get(j.saturating_sub(1)).map_or(u32::MAX, |t| t.line);
            ranges.push((start, end));
        }
        i = j;
    }
    ranges
}

/// Drops violations covered by an inline allow (same line or the line
/// directly above).
pub(crate) fn suppress(found: Vec<Violation>, lexed: &Lexed) -> Vec<Violation> {
    found
        .into_iter()
        .filter(|v| {
            !lexed
                .allows
                .iter()
                .any(|a| a.rule == v.rule && (a.line == v.line || a.line + 1 == v.line))
        })
        .collect()
}

/// The `rng-stream-hygiene` rule over a batch of lexed files, given as
/// `(rel, class, lexed)` in path order. `DetRng` streams are keyed by
/// `(seed, label)`, so the first live site of a label owns it and every
/// later site reusing it is flagged; a non-literal label is flagged in
/// the replay crates, where labels must stay auditable by grep.
pub(crate) fn rng_stream_hygiene(files: &[(&str, FileClass, Lexed)]) -> Vec<Violation> {
    let mut first_site: BTreeMap<String, (&str, u32)> = BTreeMap::new();
    let mut out = Vec::new();
    for (rel, class, lexed) in files.iter().filter(|f| !f.1.is_test) {
        let mut found = Vec::new();
        for site in rng_labels(lexed).into_iter().filter(|s| !s.in_cfg_test) {
            let kind = site.kind;
            let message = match site.label {
                None if class.replay => format!(
                    "`DetRng::{kind}` label is not a string literal; replay-path stream \
                     labels must be grep-auditable literals"
                ),
                None => continue,
                Some(label) => match first_site.entry(label) {
                    Entry::Vacant(first) => {
                        first.insert((rel, site.line));
                        continue;
                    }
                    Entry::Occupied(first) => {
                        let (f0, l0) = *first.get();
                        if (f0, l0) == (*rel, site.line) {
                            continue; // two calls on one line are one site
                        }
                        format!(
                            "duplicate `DetRng::{kind}` label \"{}\" (first used at \
                             {f0}:{l0}); same-label streams draw identical sequences under \
                             one seed — pick a distinct label",
                            first.key()
                        )
                    }
                },
            };
            found.push(Violation {
                file: (*rel).to_owned(),
                line: site.line,
                rule: "rng-stream-hygiene",
                message,
            });
        }
        out.extend(suppress(found, lexed));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(rel: &str, src: &str) -> Vec<Violation> {
        scan_source(rel, src, classify(rel))
    }

    /// The module lists name live files and every [`HOT_FNS`] name is a
    /// function of a hot-path module, or a moved file or renamed function
    /// would silently drop out of its rules.
    #[test]
    fn module_lists_and_hot_fns_name_live_code() {
        let manifest = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = crate::walker::find_workspace_root(manifest).expect("workspace root");
        let lists = [
            CORE_MODULES,
            HOT_PATH_MODULES,
            DENSE_STATE_MODULES,
            FLOW_LIFECYCLE_MODULES,
        ];
        for rel in lists.concat() {
            assert!(root.join(rel).is_file(), "{rel} is listed but missing");
        }
        let mut defined = Vec::new();
        for rel in HOT_PATH_MODULES {
            let src = std::fs::read_to_string(root.join(rel)).expect("hot-path module reads");
            for pair in lex(&src).tokens.windows(2) {
                if let (Tok::Ident(kw), Tok::Ident(name)) = (&pair[0].tok, &pair[1].tok) {
                    if kw == "fn" {
                        defined.push(name.clone());
                    }
                }
            }
        }
        for name in HOT_FNS {
            assert!(
                defined.iter().any(|d| d == name),
                "HOT_FNS names `{name}`, which no hot-path module defines"
            );
        }
    }

    #[test]
    fn classify_paths() {
        assert!(classify("crates/corelite/src/router.rs").core_module);
        assert!(classify("tests/paper_topology.rs").is_test);
        assert!(classify("crates/netsim/tests/properties.rs").is_test);
        assert!(!classify("crates/netsim/src/flow.rs").core_module);
        assert!(classify("crates/netsim/src/agent.rs").hot_path);
        assert!(!classify("crates/netsim/src/flow.rs").hot_path);
        assert!(classify("crates/simlint/fixtures/core_state_bad.rs").core_module);
        assert!(classify("crates/simlint/fixtures/hot_alloc_bad.rs").hot_path);
        assert!(classify("crates/netsim/src/agent.rs").flow_lifecycle);
        assert!(!classify("crates/corelite/src/router.rs").flow_lifecycle);
        assert!(classify("crates/simlint/fixtures/flow_lifecycle_bad.rs").flow_lifecycle);
    }

    #[test]
    fn flowid_map_flagged_only_in_core_modules() {
        // Core modules are also dense-state modules, so filter by rule:
        // this test pins the *core-state* scoping.
        let src = "struct S { m: BTreeMap<FlowId, f64> }";
        let core = scan("crates/csfq/src/core.rs", src);
        assert_eq!(
            core.iter().filter(|v| v.rule == "core-state").count(),
            1,
            "{core:?}"
        );
        let edge = scan("crates/netsim/src/agent.rs", src);
        assert!(edge.iter().all(|v| v.rule != "core-state"), "{edge:?}");
    }

    #[test]
    fn flowid_tuple_vec_and_turbofish_flagged() {
        let v = scan(
            "crates/corelite/src/router.rs",
            "let v: Vec<(FlowId, f64)> = Vec::new(); let m = BTreeMap::<FlowId, u8>::new();",
        );
        assert_eq!(
            v.iter().filter(|v| v.rule == "core-state").count(),
            2,
            "{v:?}"
        );
    }

    #[test]
    fn linkid_map_in_core_is_fine() {
        // Per-link state does not violate core-statelessness (it does
        // trip dense-state, which wants it slab-backed — a separate
        // concern).
        let v = scan(
            "crates/corelite/src/router.rs",
            "struct S { m: BTreeMap<LinkId, LinkState> }",
        );
        assert!(v.iter().all(|v| v.rule != "core-state"), "{v:?}");
    }

    #[test]
    fn id_keyed_map_flagged_in_dense_state_modules() {
        let src = "struct S { m: BTreeMap<NodeId, u32> }";
        let hot = scan("crates/netsim/src/agent.rs", src);
        assert_eq!(hot.len(), 1, "{hot:?}");
        assert_eq!(hot[0].rule, "dense-state");
        // Turbofish constructor form and every dense id type.
        let v = scan(
            "crates/netsim/src/transport.rs",
            "let m = BTreeMap::<LinkId, u8>::new();",
        );
        assert_eq!(v.len(), 1, "{v:?}");
        // Outside the module list the rule is silent.
        let cold = scan("crates/netsim/src/flow.rs", src);
        assert!(cold.is_empty(), "{cold:?}");
        // Non-id keys are not the slab's business.
        let strings = scan(
            "crates/netsim/src/agent.rs",
            "struct S { counters: BTreeMap<String, f64> }",
        );
        assert!(strings.is_empty(), "{strings:?}");
    }

    #[test]
    fn id_keyed_map_in_cfg_test_mod_is_fine() {
        // The DenseMap property tests model against BTreeMap on purpose.
        let src = "#[cfg(test)]\nmod tests {\n struct M { m: BTreeMap<FlowId, u32> }\n}";
        let v = scan("crates/netsim/src/slab.rs", src);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn key_bound_scan_flagged_only_in_flow_lifecycle_modules() {
        let src = "fn run_epoch(&mut self) { for i in 0..self.flows.key_bound() {} }";
        let v = scan("crates/netsim/src/agent.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "flow-lifecycle");
        // The core router's per-link scan is exempt: link slots are
        // never recycled, so an index scan there is exact.
        assert!(scan("crates/corelite/src/router.rs", src).is_empty());
        // Defining `key_bound` (slab.rs) is not calling it in a loop.
        let def = "pub fn key_bound(&self) -> usize { self.slots.len() }";
        assert!(scan("crates/netsim/src/agent.rs", def).is_empty());
        // cfg(test) code may scan the whole table to cross-check the
        // active set, and an inline allow covers justified full scans.
        let test_src = "#[cfg(test)]\nmod tests {\n fn t() { for i in 0..m.key_bound() {} }\n}";
        assert!(scan("crates/netsim/src/agent.rs", test_src).is_empty());
        let allowed = "// simlint: allow(flow-lifecycle) one-shot report\n\
                       for i in 0..self.flows.key_bound() {}";
        assert!(scan("crates/netsim/src/agent.rs", allowed).is_empty());
    }

    #[test]
    fn hot_alloc_flagged_only_in_hot_fns_of_hot_modules() {
        // Ranges are line-granular, so keep the fns on separate lines.
        let src = "impl L {\nfn on_packet(&mut self) { let v = vec![1]; }\n\
                   fn report(&self) { let v = vec![1]; }\n}";
        let v = scan("crates/netsim/src/network.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "hot-alloc");
        // Same source in a non-hot module is fine.
        assert!(scan("crates/netsim/src/flow.rs", src).is_empty());
    }

    #[test]
    fn hot_alloc_catches_every_pattern() {
        let src = "fn on_timer() { let a = Vec::new(); let b = Box::new(1); \
                   let c = s.to_vec(); let d = Vec::<u8>::new(); }";
        let v = scan("crates/netsim/src/agent.rs", src);
        assert_eq!(v.len(), 4, "{v:?}");
        assert!(v.iter().all(|v| v.rule == "hot-alloc"));
    }

    #[test]
    fn hot_alloc_flags_field_clones_but_not_handle_bumps() {
        let copy = "fn handle_churn_arrival(&mut self) { let p = route.path.clone(); }";
        let v = scan("crates/netsim/src/network.rs", copy);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains(".field.clone()"), "{v:?}");
        let bump = "fn handle_churn_arrival(&mut self) { let r = Rc::clone(&churn.route); \
                    let c = cfg.clone(); }";
        assert!(scan("crates/netsim/src/network.rs", bump).is_empty());
        // The event queue and the churn state are hot modules too.
        let grow = "fn place(&mut self) { let v = Vec::new(); }\n\
                    fn plan_arrival(&mut self) { let v = vec![1]; }";
        assert_eq!(scan("crates/sim-core/src/event.rs", grow).len(), 2);
        assert_eq!(scan("crates/netsim/src/churn.rs", grow).len(), 2);
    }

    #[test]
    fn hot_alloc_ignores_types_setup_and_tests() {
        // A `Vec<…>` type annotation in a hot fn is not an allocation.
        let ty = "fn on_packet(&mut self, xs: &Vec<u64>) -> Vec<u64> { xs.clone() }";
        assert!(scan("crates/netsim/src/network.rs", ty).is_empty());
        // Constructors and cfg(test) code may allocate.
        let setup = "fn new() -> Self { L { buf: Vec::new() } }\n\
                     #[cfg(test)]\nmod tests { fn on_packet() { let v = vec![1]; } }";
        assert!(scan("crates/netsim/src/network.rs", setup).is_empty());
        // Inline allow suppresses a justified site.
        let allowed =
            "fn on_control(&mut self) {\n// simlint: allow(hot-alloc) rare reconfiguration\n\
             let v = Vec::new();\n}";
        assert!(scan("crates/netsim/src/network.rs", allowed).is_empty());
    }

    #[test]
    fn inline_allow_suppresses_same_and_next_line() {
        let same = "let d = now_ns + timeout_s; // simlint: allow(unit-safety) audited";
        assert!(scan("crates/x/src/a.rs", same).is_empty());
        let above = "// simlint: allow(unit-safety) audited\nlet d = now_ns + timeout_s;";
        assert!(scan("crates/x/src/a.rs", above).is_empty());
        let wrong_rule = "let d = now_ns + timeout_s; // simlint: allow(hot-alloc)";
        assert_eq!(scan("crates/x/src/a.rs", wrong_rule).len(), 1);
    }

    #[test]
    fn unit_safety_flags_mixed_units_with_trigger_op() {
        // Addition and comparison across time units.
        let v = scan(
            "crates/netsim/src/flow.rs",
            "let deadline = now_ns + timeout_s;",
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "unit-safety");
        let v = scan("crates/netsim/src/flow.rs", "if gap_ticks < window_ns {}");
        assert_eq!(v.len(), 1, "{v:?}");
        // Count dimension, `.min(…)` trigger.
        let v = scan(
            "crates/netsim/src/flow.rs",
            "let lim = queued_bytes.min(cap_pkts);",
        );
        assert_eq!(v.len(), 1, "{v:?}");
    }

    #[test]
    fn unit_safety_ignores_conversions_products_and_tests() {
        let fine = [
            // Same unit on both sides.
            "let total_ns = a_ns + b_ns;",
            // `*`/`/` legitimately change units.
            "let bytes = rate_bytes * window_s;",
            "let r = count_pkts / elapsed_s;",
            // Conversion markers anywhere in the segment.
            "let t = now_ns + timeout_s * NS_PER_S;",
            "let t = ns_to_ticks + base_ticks + off_ns;",
            "let floor = min_ns >> TICK_SHIFT > lim_ticks;",
            // A fused dual-unit ident is itself the conversion.
            "let t = base_ticks + off_ns + tick_ns;",
            // Different dimensions never mix-flag.
            "if sent_bytes > deadline_ns {}",
            // No trigger operator.
            "let pair = (a_ns, b_s);",
            // Bare suffix words without `_` are ordinary locals.
            "let x = ticks + s;",
        ];
        for src in fine {
            let v = scan("crates/netsim/src/flow.rs", src);
            assert!(v.is_empty(), "{src}: {v:?}");
        }
        // Test files and cfg(test) blocks are exempt.
        assert!(scan("tests/x.rs", "let d = now_ns + timeout_s;").is_empty());
        let src = "#[cfg(test)]\nmod tests {\n fn t() { let d = now_ns + timeout_s; }\n}";
        assert!(scan("crates/netsim/src/flow.rs", src).is_empty());
        // Inline allow suppresses a justified site.
        let allowed = "// simlint: allow(unit-safety) ns-denominated s counter\n\
                       let d = now_ns + timeout_s;";
        assert!(scan("crates/netsim/src/flow.rs", allowed).is_empty());
    }

    #[test]
    fn comments_never_trigger_rules() {
        let v = scan(
            "crates/corelite/src/router.rs",
            "// BTreeMap<FlowId, u8> now_ns + timeout_s\n\
             /* Vec<(FlowId, u8)> vec![1] */ fn on_packet() {}",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    fn rng(files: &[(&str, &str)]) -> Vec<Violation> {
        let lexed: Vec<_> = files
            .iter()
            .map(|&(rel, src)| (rel, classify(rel), lex(src)))
            .collect();
        rng_stream_hygiene(&lexed)
    }

    #[test]
    fn duplicate_rng_labels_flag_later_sites_only() {
        let v = rng(&[
            (
                "crates/netsim/src/churn.rs",
                "fn setup(r: &DetRng) { let s = DetRng::stream(r, \"gaps\"); }",
            ),
            (
                "crates/netsim/src/fault.rs",
                "fn setup(r: &DetRng) { let s = DetRng::stream(r, \"gaps\"); }",
            ),
        ]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "rng-stream-hygiene");
        assert_eq!(v[0].file, "crates/netsim/src/fault.rs", "first use wins");
        assert!(v[0].message.contains("churn.rs:1"), "{}", v[0].message);
    }

    #[test]
    fn non_literal_label_flagged_only_on_replay_path() {
        let src = "fn setup(r: &DetRng, name: &str) { let s = DetRng::stream(r, name); }";
        let v = rng(&[("crates/netsim/src/churn.rs", src)]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("not a string literal"));
        // scenarios is not a replay crate: computed labels are fine.
        assert!(rng(&[("crates/scenarios/src/sweep.rs", src)]).is_empty());
    }

    #[test]
    fn rng_sites_in_tests_are_exempt() {
        // Reusing a label to prove stream identity is what RNG tests do.
        let in_mod = "#[cfg(test)]\nmod tests {\nfn t(r: &DetRng) {\n\
                      let a = DetRng::stream(r, \"same\");\nlet b = DetRng::stream(r, \"same\");\n}\n}";
        assert!(rng(&[("crates/sim-core/src/rng.rs", in_mod)]).is_empty());
        let in_file = "fn t(r: &DetRng) {\nlet a = DetRng::stream(r, \"x\");\n\
                       let b = DetRng::stream(r, \"x\");\n}";
        assert!(rng(&[("crates/sim-core/tests/rng.rs", in_file)]).is_empty());
    }
}
