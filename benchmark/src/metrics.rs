//! The one table of metric names, units, directions and bounds.
//! `BENCHMARK.json` mirrors it (`benchmark manifest` prints that file and
//! a unit test compares the two); `compare` judges by it.

use crate::adapter::WORKLOADS;
use crate::json;
use crate::traced::CALLBACKS;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Seconds one run measures for; `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 20;

/// An end-to-end metric: name, unit, direction, and the share of the
/// parent's median by which it may get worse before a change is a
/// regression. One bound serves all five workloads, so each is set by the
/// noisiest of them. The timings' bounds are what this shared host allows
/// (README, "Measured noise"); the simulated statistics repeat exactly for
/// a fixed seed, and their bounds are three times the widest spread seen
/// across ten seeds, which is how the driver measures spread.
pub type EndToEnd = (&'static str, &'static str, Better, f64);

pub const END_TO_END: [EndToEnd; 8] = [
    ("setup_s", "s", Better::Lower, 0.25),
    ("wall_s", "s", Better::Lower, 0.25),
    ("cpu_s", "s", Better::Lower, 0.25),
    ("pkts_per_s", "pkt/s", Better::Higher, 0.25),
    ("peak_live_bytes", "bytes", Better::Lower, 0.15),
    ("jain", "ratio", Better::Higher, 0.01),
    ("maxmin_rel_err", "ratio", Better::Lower, 0.25),
    ("served_frac", "ratio", Better::Higher, 0.04),
];

/// The bound of end-to-end metric `name`.
pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.0 == name)
}

/// Every `RouterLogic` kind the in-tree disciplines produce:
/// `Discipline::name()` plus the node's role.
pub const KINDS: [&str; 13] = [
    "corelite.edge",
    "corelite.core",
    "corelite.gbn",
    "csfq.edge",
    "csfq.core",
    "red.edge",
    "red.core",
    "fred.edge",
    "fred.core",
    "fifo.edge",
    "fifo.core",
    "greedy.edge",
    "greedy.core",
];

/// The kinds whose time is also split by callback.
pub const SPLIT_KINDS: [&str; 5] = [
    "corelite.edge",
    "corelite.core",
    "corelite.gbn",
    "csfq.edge",
    "csfq.core",
];

/// A per-layer metric: name, unit, direction. No bounds.
pub type PerLayer = (String, &'static str, Better);

/// Every per-layer metric, in print order. A metric reads 0 on a workload
/// that does not exercise its layer.
pub fn per_layer() -> Vec<PerLayer> {
    use Better::{Higher, Lower};
    let mut out: Vec<PerLayer> = Vec::new();
    for kind in KINDS {
        out.push((format!("{kind}.calls"), "count", Lower));
        out.push((format!("{kind}.ns_per_call"), "ns", Lower));
        out.push((format!("{kind}.share"), "ratio", Lower));
        if SPLIT_KINDS.contains(&kind) {
            for callback in CALLBACKS {
                out.push((format!("{kind}.{callback}_ns"), "ns", Lower));
            }
        }
    }
    let fixed: [(&str, &'static str, Better); 45] = [
        ("netsim.engine.ns_per_event", "ns", Lower),
        ("netsim.engine.share", "ratio", Lower),
        ("netsim.events", "count", Lower),
        ("netsim.events_per_pkt", "ratio", Lower),
        ("netsim.hops", "count", Higher),
        ("netsim.ns_per_event", "ns", Lower),
        ("netsim.drops.tail", "count", Lower),
        ("netsim.drops.policy", "count", Lower),
        ("netsim.dups", "count", Lower),
        ("netsim.allocs_per_event", "ratio", Lower),
        ("netsim.bytes_per_active_flow", "bytes", Lower),
        ("scenarios.build", "s", Lower),
        ("scenarios.run", "s", Lower),
        ("fairness.reference.s", "s", Lower),
        ("scenarios.report.s", "s", Lower),
        ("bench.digest.s", "s", Lower),
        ("bench.clock_ns", "ns", Lower),
        ("bench.trace_overhead_ratio", "ratio", Lower),
        ("sim-core.queue.heap_ratio", "ratio", Lower),
        ("netsim.dispatch.per_packet_ratio", "ratio", Lower),
        ("netsim.telemetry.probe_ratio", "ratio", Lower),
        ("netsim.shard.wall_ratio", "ratio", Lower),
        ("netsim.shard.cpu_ratio", "ratio", Lower),
        ("netsim.shard.mem_ratio", "ratio", Lower),
        ("netsim.shard.setup_ratio", "ratio", Lower),
        ("netsim.shard.event_inflation", "ratio", Lower),
        ("netsim.shard.imbalance", "ratio", Lower),
        ("scenarios.exec.efficiency", "ratio", Higher),
        ("sim-core.queue.hold_ns_d64", "ns", Lower),
        ("sim-core.queue.hold_ns_d4k", "ns", Lower),
        ("sim-core.queue.hold_ns_d64k", "ns", Lower),
        ("sim-core.queue.heap_hold_ns_d4k", "ns", Lower),
        ("netsim.link.offer_ns", "ns", Lower),
        ("netsim.link.offer_full_ns", "ns", Lower),
        ("netsim.slab.dense_get_ns", "ns", Lower),
        ("netsim.slab.dense_insert_remove_ns", "ns", Lower),
        ("netsim.slab.active_iter_ns_per_key", "ns", Lower),
        ("netsim.churn.ns_per_arrival", "ns", Lower),
        ("netsim.churn.events_per_arrival", "ratio", Lower),
        ("netsim.telemetry.record_ns", "ns", Lower),
        ("corelite.stateless.on_marker_ns", "ns", Lower),
        ("corelite.cache.select_ns", "ns", Lower),
        ("csfq.estimator.arrival_ns", "ns", Lower),
        ("fairness.maxmin.solve_us", "us", Lower),
        ("fairness.incremental.join_leave_ns", "ns", Lower),
    ];
    out.extend(fixed.into_iter().map(|(n, u, b)| (n.to_owned(), u, b)));
    out
}

/// The directory that holds the benchmark, from the repository root.
pub const PATH: &str = "benchmark";

/// `BENCHMARK.json`, rendered from the tables above.
pub fn manifest() -> String {
    let strings = |xs: &[&str]| json::array(xs.iter().map(|s| json::string(s)));
    let command = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    let workloads = WORKLOADS.iter().map(|(name, why)| {
        json::object([("name", json::string(name)), ("why", json::string(why))])
    });
    let end_to_end = END_TO_END.iter().map(|&(name, unit, better, bound)| {
        json::object([
            ("name", json::string(name)),
            ("unit", json::string(unit)),
            ("better", json::string(better.as_str())),
            ("bound", json::number(bound)),
        ])
    });
    let layers = per_layer().into_iter().map(|(name, unit, better)| {
        json::object([
            ("name", json::string(&name)),
            ("unit", json::string(unit)),
            ("better", json::string(better.as_str())),
        ])
    });
    // One entry per line.
    let block = |items: Vec<String>| format!("[\n    {}\n  ]", items.join(",\n    "));
    format!(
        "{{\n  \"command\": {},\n  \"paths\": {},\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        strings(&command),
        strings(&[PATH]),
        block(workloads.collect()),
        block(end_to_end.collect()),
        block(layers.collect()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<String> = END_TO_END.iter().map(|m| m.0.to_owned()).collect();
        names.extend(per_layer().into_iter().map(|m| m.0));
        names.extend(WORKLOADS.iter().map(|w| w.0.to_owned()));
        assert!(per_layer().len() <= 128);
        for n in &names {
            assert!(n.len() <= 64 && n.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        let total = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for (_, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
        }
        assert!(END_TO_END.iter().all(|m| m.3 > 0.0 && m.3 <= 0.25));
    }

    #[test]
    fn checked_in_manifest_mirrors_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            on_disk,
            manifest(),
            "regenerate with `benchmark manifest > BENCHMARK.json`"
        );
    }
}
