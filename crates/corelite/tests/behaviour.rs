//! Behavioural tests for Corelite components beyond the per-module units:
//! selector equivalence at equilibrium, feedback addressing, and epoch
//! independence of the congestion machinery.

use corelite::{CoreliteConfig, CoreliteCore, SelectorKind};
use netsim::flow::FlowSpec;
use netsim::link::LinkSpec;
use netsim::logic::ForwardLogic;
use netsim::topology::TopologyBuilder;
use netsim::{FlowId, SimReport};
use sim_core::time::{SimDuration, SimTime};

/// Two weight-1 flows and one weight-2 flow over one 500 pkt/s link.
fn three_flow_run(cfg: CoreliteConfig, seed: u64, horizon: u64) -> SimReport {
    let mut b = TopologyBuilder::new(seed);
    let mut edges = Vec::new();
    for i in 0..3 {
        edges.push(b.node(&format!("edge{i}"), |_| Box::new(cfg.edge())));
    }
    let core = b.node("core", |s| Box::new(CoreliteCore::new(s, cfg.clone())));
    let sink = b.node("sink", |_| Box::new(ForwardLogic));
    let access = LinkSpec::new(40_000_000, SimDuration::from_millis(1), 400);
    for &e in &edges {
        b.link(e, core, access);
    }
    b.link(
        core,
        sink,
        LinkSpec::new(4_000_000, SimDuration::from_millis(10), 40),
    );
    for (i, &e) in edges.iter().enumerate() {
        let w = if i == 2 { 2 } else { 1 };
        b.flow(FlowSpec::new(vec![e, core, sink], w).active(SimTime::ZERO, None));
    }
    let end = SimTime::from_secs(horizon);
    let mut net = b.build();
    net.run_until(end);
    net.into_report(end)
}

fn steady(report: &SimReport, i: usize, horizon: u64) -> f64 {
    report
        .allotted_rate(FlowId::from_index(i))
        .unwrap()
        .mean_in(
            SimTime::from_secs(horizon - 40),
            SimTime::from_secs(horizon),
        )
        .unwrap()
}

#[test]
fn cache_and_stateless_selectors_agree_at_equilibrium() {
    // §2's cache and §3.2's stateless scheme are different estimators of
    // the same weighted-fair feedback; their equilibria must match within
    // the oscillation band. Shares: 125 / 125 / 250.
    let horizon = 200;
    let stateless = three_flow_run(CoreliteConfig::default(), 77, horizon);
    let cache = three_flow_run(
        CoreliteConfig::default().with_selector(SelectorKind::Cache { capacity: 128 }),
        77,
        horizon,
    );
    for i in 0..3 {
        let a = steady(&stateless, i, horizon);
        let b = steady(&cache, i, horizon);
        let rel = (a - b).abs() / a.max(b);
        assert!(
            rel < 0.25,
            "flow {i}: stateless {a:.1} vs cache {b:.1} ({rel:.2})"
        );
    }
}

#[test]
fn feedback_reaches_only_the_generating_edge() {
    // Each edge hosts one flow, so each edge's feedback counter can only
    // contain feedback for its own markers; the sum seen at edges equals
    // the sum sent by cores.
    let horizon = 120;
    let report = three_flow_run(CoreliteConfig::default(), 78, horizon);
    let sent = report.counter_total("feedback_sent");
    let received = report.counter_total("feedback_received");
    assert!(sent > 0.0, "congested run must generate feedback");
    assert_eq!(sent, received, "no feedback may be lost or duplicated");
}

#[test]
fn congested_epochs_track_congestion_not_time() {
    // With ample capacity the congested-epoch counter stays at zero; with
    // a saturated link it grows.
    let horizon = 60;
    let idle_cfg = CoreliteConfig::default();
    let mut b = TopologyBuilder::new(79);
    let edge = b.node("edge", |_| Box::new(idle_cfg.edge()));
    let core = b.node("core", |s| Box::new(CoreliteCore::new(s, idle_cfg.clone())));
    let sink = b.node("sink", |_| Box::new(ForwardLogic));
    let big = LinkSpec::new(100_000_000, SimDuration::from_millis(1), 1000);
    b.link(edge, core, big);
    b.link(core, sink, big);
    b.flow(FlowSpec::new(vec![edge, core, sink], 1).active(SimTime::ZERO, None));
    let end = SimTime::from_secs(horizon);
    let mut net = b.build();
    net.run_until(end);
    let idle = net.into_report(end);
    assert_eq!(idle.counter_total("congested_epochs"), 0.0);

    // The three agents only reach the 500 pkt/s capacity after ~100 s of
    // linear climbing, so give the busy run a longer horizon.
    let busy = three_flow_run(CoreliteConfig::default(), 79, 150);
    assert!(busy.counter_total("congested_epochs") > 10.0);
}

#[test]
fn marker_overhead_matches_k1() {
    // Doubling K1 halves the marker count for the same traffic.
    let horizon = 120;
    let base = three_flow_run(CoreliteConfig::default(), 80, horizon);
    let sparse = three_flow_run(
        CoreliteConfig {
            k1: 2,
            ..CoreliteConfig::default()
        },
        80,
        horizon,
    );
    let base_ratio = base.counter_total("markers_injected")
        / base
            .flows
            .iter()
            .map(|f| f.delivered_packets as f64)
            .sum::<f64>();
    let sparse_ratio = sparse.counter_total("markers_injected")
        / sparse
            .flows
            .iter()
            .map(|f| f.delivered_packets as f64)
            .sum::<f64>();
    assert!(
        (base_ratio / sparse_ratio - 2.0).abs() < 0.2,
        "marker density should halve: {base_ratio:.3} vs {sparse_ratio:.3}"
    );
}
