//! Stage 3 of the lint pipeline: the workspace call graph.
//!
//! Nodes are the [`FnDef`]s parsed from every (non-fixture) file; edges
//! come from name-based resolution of the call sites inside each body.
//! Resolution is *dependency-scoped*: a call in crate `C` may only bind
//! to definitions in `C` or in crates `C` (transitively) depends on, so
//! a name collision with an analysis-side crate (`bench`, `scenarios`)
//! can never fabricate a replay-path edge into it.
//!
//! Resolution order (first non-empty tier wins; every candidate in the
//! tier gets an edge, keeping the graph an over-approximation):
//!
//! * `.name(…)` method calls → every method named `name` in scope
//!   (receiver types are unknown without type inference);
//! * `Qual::name(…)` → methods of a known type `Qual`, else free
//!   functions of the crate a `use` alias maps `Qual` to, else any
//!   in-scope fn named `name`;
//! * `name(…)` free calls → same file, then `use`-imported path, then
//!   same crate, then dependency crates.
//!
//! Soundness limits (DESIGN.md §17): trait-object dispatch is not
//! resolved through the call site — the taint pass instead treats every
//! `RouterLogic`/`Discipline` impl method as a replay root — and macro
//! bodies are invisible.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

use crate::parser::{FileSymbols, FnDef};

/// The workspace crate-dependency relation, by underscored crate name
/// (`sim_core`, not `sim-core`), closed under transitivity.
#[derive(Debug, Default, Clone)]
pub struct CrateDeps {
    direct: BTreeMap<String, BTreeSet<String>>,
}

impl CrateDeps {
    /// Records `krate` with its direct dependencies (underscored names).
    pub fn insert(&mut self, krate: &str, deps: &[&str]) {
        let entry = self.direct.entry(krate.to_owned()).or_default();
        for d in deps {
            entry.insert((*d).to_owned());
        }
    }

    /// Reads `crates/*/Cargo.toml` under `root`, collecting each
    /// member's `[dependencies]`/`[dev-dependencies]` on other workspace
    /// members. The TOML subset read here is one line per dependency
    /// (`name = { workspace = true }` or `name = { path = "…" }`),
    /// which is all this dependency-free workspace uses.
    pub fn from_workspace(root: &Path) -> Result<Self, String> {
        let mut out = CrateDeps::default();
        let crates_dir = root.join("crates");
        let entries = std::fs::read_dir(&crates_dir)
            .map_err(|e| format!("cannot read {}: {e}", crates_dir.display()))?;
        let mut names = Vec::new();
        for entry in entries {
            let entry = entry.map_err(|e| format!("cannot read crates/ entry: {e}"))?;
            if entry.path().join("Cargo.toml").exists() {
                names.push(entry.file_name().to_string_lossy().into_owned());
            }
        }
        names.sort();
        let member: BTreeSet<String> = names.iter().map(|n| n.replace('-', "_")).collect();
        for name in &names {
            let manifest = crates_dir.join(name).join("Cargo.toml");
            let text = std::fs::read_to_string(&manifest)
                .map_err(|e| format!("cannot read {}: {e}", manifest.display()))?;
            let mut in_deps = false;
            let mut deps = Vec::new();
            for line in text.lines() {
                let line = line.trim();
                if let Some(section) = line.strip_prefix('[') {
                    in_deps = matches!(
                        section.trim_end_matches(']'),
                        "dependencies" | "dev-dependencies"
                    );
                    continue;
                }
                if !in_deps {
                    continue;
                }
                if let Some((key, _)) = line.split_once('=') {
                    let dep = key.trim().replace('-', "_");
                    if member.contains(&dep) {
                        deps.push(dep);
                    }
                }
            }
            let dep_refs: Vec<&str> = deps.iter().map(String::as_str).collect();
            out.insert(&name.replace('-', "_"), &dep_refs);
        }
        Ok(out)
    }

    /// True when code in `from` may call a definition in `to`: same
    /// crate, or `to` is in `from`'s transitive dependency closure. The
    /// pseudo-crate [`ROOT_FILES_CRATE`] (root `tests/`, `examples/`)
    /// sees everything.
    pub fn in_scope(&self, from: &str, to: &str) -> bool {
        if from == to || from == ROOT_FILES_CRATE {
            return true;
        }
        // Iterative closure walk (the workspace DAG is tiny).
        let mut seen = BTreeSet::new();
        let mut stack = vec![from];
        while let Some(k) = stack.pop() {
            if let Some(deps) = self.direct.get(k) {
                for d in deps {
                    if d == to {
                        return true;
                    }
                    if seen.insert(d.as_str()) {
                        stack.push(d);
                    }
                }
            }
        }
        false
    }
}

/// Crate name used for files outside `crates/` (workspace-level tests
/// and examples), which depend on every member.
pub const ROOT_FILES_CRATE: &str = "__workspace__";

/// Maps a workspace-relative path to its underscored crate name.
pub fn crate_of(rel: &str) -> String {
    let mut parts = rel.split('/');
    if parts.next() == Some("crates") {
        if let Some(name) = parts.next() {
            return name.replace('-', "_");
        }
    }
    ROOT_FILES_CRATE.to_owned()
}

/// One function in the workspace call graph.
#[derive(Debug)]
pub struct FnNode {
    pub file: String,
    pub krate: String,
    pub def: FnDef,
}

/// The workspace call graph: nodes in deterministic (file, token) order
/// and sorted adjacency lists, so traversal order — and therefore every
/// diagnostic derived from it — is stable across runs.
#[derive(Debug, Default)]
pub struct CallGraph {
    pub nodes: Vec<FnNode>,
    pub edges: Vec<Vec<usize>>,
}

impl CallGraph {
    /// Builds the graph over `files` (workspace-relative path → parsed
    /// symbols; must be sorted by path for deterministic node ids).
    pub fn build(files: &[(String, FileSymbols)], deps: &CrateDeps) -> CallGraph {
        let mut g = CallGraph::default();
        // Node table.
        let mut uses_by_file: BTreeMap<&str, &[(String, Vec<String>)]> = BTreeMap::new();
        for (rel, syms) in files {
            uses_by_file.insert(rel, &syms.uses);
            for def in &syms.fns {
                g.nodes.push(FnNode {
                    file: rel.clone(),
                    krate: crate_of(rel),
                    def: def.clone(),
                });
            }
        }
        // Indices.
        let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut methods_by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut by_type_and_name: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
        let mut free_by_file: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
        let mut free_by_crate: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
        for (id, node) in g.nodes.iter().enumerate() {
            let name = node.def.name.as_str();
            by_name.entry(name).or_default().push(id);
            match &node.def.impl_type {
                Some(ty) => {
                    methods_by_name.entry(name).or_default().push(id);
                    by_type_and_name
                        .entry((ty.as_str(), name))
                        .or_default()
                        .push(id);
                }
                None => {
                    free_by_file
                        .entry((node.file.as_str(), name))
                        .or_default()
                        .push(id);
                    free_by_crate
                        .entry((node.krate.as_str(), name))
                        .or_default()
                        .push(id);
                }
            }
        }
        let scoped = |caller: &FnNode, ids: &[usize], nodes: &[FnNode]| -> Vec<usize> {
            ids.iter()
                .copied()
                .filter(|&id| deps.in_scope(&caller.krate, &nodes[id].krate))
                .collect()
        };
        // Edges.
        let mut edges: Vec<Vec<usize>> = vec![Vec::new(); g.nodes.len()];
        for (id, node) in g.nodes.iter().enumerate() {
            let uses = uses_by_file.get(node.file.as_str()).copied().unwrap_or(&[]);
            let use_path = |alias: &str| -> Option<&Vec<String>> {
                uses.iter().rev().find(|(n, _)| n == alias).map(|(_, p)| p)
            };
            for call in &node.def.calls {
                let callee = call.path.last().expect("call path is non-empty").as_str();
                let cands: Vec<usize> = if call.method {
                    methods_by_name
                        .get(callee)
                        .map(|ids| scoped(node, ids, &g.nodes))
                        .unwrap_or_default()
                } else if call.path.len() >= 2 {
                    let qual = call.path[call.path.len() - 2].as_str();
                    let self_qual = if qual == "Self" {
                        node.def.impl_type.as_deref()
                    } else {
                        Some(qual)
                    };
                    let typed = self_qual
                        .and_then(|q| by_type_and_name.get(&(q, callee)))
                        .map(|ids| scoped(node, ids, &g.nodes))
                        .unwrap_or_default();
                    if !typed.is_empty() {
                        typed
                    } else {
                        // `module::helper(…)` or `crate_name::…::f(…)`:
                        // bind to the named crate when the leading
                        // segment (or its `use` alias) names one, else
                        // fall back to any in-scope fn with that name.
                        let lead = use_path(call.path[0].as_str())
                            .and_then(|p| p.first().cloned())
                            .unwrap_or_else(|| call.path[0].clone());
                        let crate_hit = free_by_crate
                            .get(&(lead.as_str(), callee))
                            .map(|ids| scoped(node, ids, &g.nodes))
                            .unwrap_or_default();
                        if !crate_hit.is_empty() {
                            crate_hit
                        } else if call.path[0] == "crate" || call.path[0] == "self" {
                            free_by_crate
                                .get(&(node.krate.as_str(), callee))
                                .cloned()
                                .unwrap_or_default()
                        } else {
                            by_name
                                .get(callee)
                                .map(|ids| scoped(node, ids, &g.nodes))
                                .unwrap_or_default()
                        }
                    }
                } else {
                    // Free call: same file shadows same crate shadows
                    // `use`-imported shadows dependency crates.
                    let same_file = free_by_file
                        .get(&(node.file.as_str(), callee))
                        .cloned()
                        .unwrap_or_default();
                    if !same_file.is_empty() {
                        same_file
                    } else {
                        let imported = use_path(callee)
                            .and_then(|p| p.first())
                            .and_then(|lead| free_by_crate.get(&(lead.as_str(), callee)))
                            .map(|ids| scoped(node, ids, &g.nodes))
                            .unwrap_or_default();
                        if !imported.is_empty() {
                            imported
                        } else {
                            let same_crate = free_by_crate
                                .get(&(node.krate.as_str(), callee))
                                .cloned()
                                .unwrap_or_default();
                            if !same_crate.is_empty() {
                                same_crate
                            } else {
                                by_name
                                    .get(callee)
                                    .map(|ids| {
                                        ids.iter()
                                            .copied()
                                            .filter(|&c| {
                                                g.nodes[c].def.impl_type.is_none()
                                                    && deps.in_scope(&node.krate, &g.nodes[c].krate)
                                            })
                                            .collect::<Vec<_>>()
                                    })
                                    .unwrap_or_default()
                            }
                        }
                    }
                };
                for c in cands {
                    edges[id].push(c);
                }
            }
        }
        for adj in &mut edges {
            adj.sort_unstable();
            adj.dedup();
        }
        g.edges = edges;
        g
    }

    /// Breadth-first reachability from `roots` (sorted, deduped by the
    /// caller or not — handled here). Returns, for each node, `None`
    /// (unreachable) or `Some(parent)` — a root's parent is itself —
    /// chosen deterministically (BFS layer order, lowest id first).
    pub fn reachable_from(&self, roots: &[usize]) -> Vec<Option<usize>> {
        let mut parent: Vec<Option<usize>> = vec![None; self.nodes.len()];
        let mut queue: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
        let mut sorted_roots: Vec<usize> = roots.to_vec();
        sorted_roots.sort_unstable();
        sorted_roots.dedup();
        for r in sorted_roots {
            if parent[r].is_none() {
                parent[r] = Some(r);
                queue.push_back(r);
            }
        }
        while let Some(n) = queue.pop_front() {
            for &m in &self.edges[n] {
                if parent[m].is_none() {
                    parent[m] = Some(n);
                    queue.push_back(m);
                }
            }
        }
        parent
    }

    /// Reconstructs the root→node call chain from a `reachable_from`
    /// parent table, as node indices starting at the root.
    pub fn path_to(&self, parent: &[Option<usize>], node: usize) -> Vec<usize> {
        let mut chain = vec![node];
        let mut cur = node;
        while let Some(p) = parent[cur] {
            if p == cur {
                break;
            }
            chain.push(p);
            cur = p;
        }
        chain.reverse();
        chain
    }

    /// The node whose body contains `line` in `file` (innermost wins),
    /// used to map a lexical sink site to its enclosing function.
    pub fn enclosing_fn(&self, file: &str, line: u32) -> Option<usize> {
        let mut best: Option<(u32, usize)> = None; // (span, id)
        for (id, node) in self.nodes.iter().enumerate() {
            if node.file != file {
                continue;
            }
            let (a, b) = node.def.body;
            if (a..=b).contains(&line) && a != 0 {
                let span = b - a;
                if best.is_none_or(|(s, _)| span <= s) {
                    best = Some((span, id));
                }
            }
        }
        best.map(|(_, id)| id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse;

    fn files(srcs: &[(&str, &str)]) -> Vec<(String, FileSymbols)> {
        let mut v: Vec<(String, FileSymbols)> = srcs
            .iter()
            .map(|(rel, src)| ((*rel).to_owned(), parse(&lex(src))))
            .collect();
        v.sort_by(|a, b| a.0.cmp(&b.0));
        v
    }

    fn deps() -> CrateDeps {
        let mut d = CrateDeps::default();
        d.insert("sim_core", &[]);
        d.insert("netsim", &["sim_core"]);
        d.insert("corelite", &["sim_core", "netsim"]);
        d.insert("scenarios", &["sim_core", "netsim", "corelite"]);
        d.insert("bench", &["sim_core", "netsim", "scenarios"]);
        d
    }

    fn node(g: &CallGraph, file_frag: &str, name: &str) -> usize {
        g.nodes
            .iter()
            .position(|n| n.file.contains(file_frag) && n.def.name == name)
            .unwrap_or_else(|| panic!("no node {file_frag}::{name}"))
    }

    #[test]
    fn same_file_free_fn_shadows_cross_crate_name() {
        let g = CallGraph::build(
            &files(&[
                (
                    "crates/netsim/src/a.rs",
                    "fn caller() { helper(); }\nfn helper() {}",
                ),
                ("crates/sim-core/src/b.rs", "fn helper() {}"),
            ]),
            &deps(),
        );
        let caller = node(&g, "netsim", "caller");
        let local = node(&g, "netsim", "helper");
        let foreign = node(&g, "sim-core", "helper");
        assert_eq!(g.edges[caller], vec![local], "same-file def shadows");
        assert!(!g.edges[caller].contains(&foreign));
    }

    #[test]
    fn cross_crate_call_binds_through_use_path() {
        let g = CallGraph::build(
            &files(&[
                (
                    "crates/netsim/src/a.rs",
                    "use sim_core::time::helper;\nfn caller() { helper(); }",
                ),
                ("crates/sim-core/src/time.rs", "pub fn helper() {}"),
            ]),
            &deps(),
        );
        let caller = node(&g, "netsim", "caller");
        let target = node(&g, "sim-core", "helper");
        assert_eq!(g.edges[caller], vec![target]);
    }

    #[test]
    fn qualified_path_call_binds_to_named_crate() {
        let g = CallGraph::build(
            &files(&[
                (
                    "crates/netsim/src/a.rs",
                    "fn caller() { sim_core::time::helper(); }",
                ),
                ("crates/sim-core/src/time.rs", "pub fn helper() {}"),
            ]),
            &deps(),
        );
        let caller = node(&g, "netsim", "caller");
        let target = node(&g, "sim-core", "helper");
        assert_eq!(g.edges[caller], vec![target]);
    }

    #[test]
    fn dependency_scoping_blocks_reverse_edges() {
        // sim-core does not depend on bench: an identical fn name in
        // bench must not become a callee of sim-core code.
        let g = CallGraph::build(
            &files(&[
                ("crates/sim-core/src/a.rs", "fn caller() { measure(); }"),
                ("crates/bench/src/lib.rs", "pub fn measure() {}"),
            ]),
            &deps(),
        );
        let caller = node(&g, "sim-core", "caller");
        assert!(g.edges[caller].is_empty(), "{:?}", g.edges[caller]);
    }

    #[test]
    fn method_calls_bind_to_methods_not_free_fns() {
        let g = CallGraph::build(
            &files(&[(
                "crates/netsim/src/a.rs",
                "struct S;\nimpl S { fn poll(&self) {} }\nfn poll() {}\nfn caller(s: &S) { s.poll(); }",
            )]),
            &deps(),
        );
        let caller = node(&g, "netsim", "caller");
        let method = g
            .nodes
            .iter()
            .position(|n| n.def.name == "poll" && n.def.impl_type.is_some())
            .expect("method");
        assert_eq!(g.edges[caller], vec![method]);
    }

    #[test]
    fn typed_path_call_binds_to_impl() {
        let g = CallGraph::build(
            &files(&[(
                "crates/netsim/src/a.rs",
                "struct Wheel;\nimpl Wheel { fn push(&mut self) { Self::rotate(); }\n\
                 fn rotate() {} }\nfn caller() { Wheel::push_all(); }\nimpl Wheel { fn push_all() {} }",
            )]),
            &deps(),
        );
        let push = node(&g, "netsim", "push");
        let rotate = node(&g, "netsim", "rotate");
        assert_eq!(g.edges[push], vec![rotate], "Self:: resolves via impl");
        let caller = node(&g, "netsim", "caller");
        let push_all = node(&g, "netsim", "push_all");
        assert_eq!(g.edges[caller], vec![push_all]);
    }

    #[test]
    fn reachability_and_paths_are_transitive_and_deterministic() {
        let g = CallGraph::build(
            &files(&[(
                "crates/netsim/src/a.rs",
                "fn root() { mid(); }\nfn mid() { leaf(); }\nfn leaf() {}\nfn island() {}",
            )]),
            &deps(),
        );
        let root = node(&g, "a.rs", "root");
        let leaf = node(&g, "a.rs", "leaf");
        let island = node(&g, "a.rs", "island");
        let parent = g.reachable_from(&[root]);
        assert!(parent[leaf].is_some(), "leaf is two calls from the root");
        assert!(parent[island].is_none(), "island is unreachable");
        let chain: Vec<&str> = g
            .path_to(&parent, leaf)
            .into_iter()
            .map(|id| g.nodes[id].def.name.as_str())
            .collect();
        assert_eq!(chain, vec!["root", "mid", "leaf"]);
    }

    #[test]
    fn enclosing_fn_picks_innermost_body() {
        let g = CallGraph::build(
            &files(&[(
                "crates/netsim/src/a.rs",
                "fn outer() {\n  fn inner() {\n    x();\n  }\n}",
            )]),
            &deps(),
        );
        let inner = node(&g, "a.rs", "inner");
        assert_eq!(g.enclosing_fn("crates/netsim/src/a.rs", 3), Some(inner));
    }

    #[test]
    fn workspace_deps_parse_and_close_transitively() {
        let root = crate::walker::find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
            .expect("workspace root");
        let deps = CrateDeps::from_workspace(&root).expect("deps parse");
        assert!(deps.in_scope("netsim", "sim_core"));
        assert!(deps.in_scope("corelite", "sim_core"), "transitive");
        assert!(!deps.in_scope("sim_core", "netsim"), "no reverse edges");
        assert!(!deps.in_scope("corelite", "bench"));
        assert!(deps.in_scope(ROOT_FILES_CRATE, "scenarios"));
    }

    #[test]
    fn crate_of_maps_paths() {
        assert_eq!(crate_of("crates/sim-core/src/rng.rs"), "sim_core");
        assert_eq!(crate_of("tests/determinism.rs"), ROOT_FILES_CRATE);
        assert_eq!(crate_of("examples/quickstart.rs"), ROOT_FILES_CRATE);
    }
}
