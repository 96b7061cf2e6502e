//! Behavioural tests for Corelite components beyond the per-module units:
//! selector equivalence at equilibrium, feedback addressing, epoch
//! independence of the congestion machinery, and exact pins of the
//! inter-cloud gateway and the aggregating edge.

#![allow(clippy::float_cmp)]

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

/// What a run decided, as exact integers: events processed; per flow,
/// packets delivered and dropped; the named counters; and, per node and
/// flow, the length and the bit pattern of the last sample of each
/// reported allotted-rate series.
type Pin = (
    u64,
    Vec<[u64; 2]>,
    Vec<u64>,
    Vec<(usize, usize, usize, u64)>,
);

fn pin(report: &SimReport, counters: &[&str]) -> Pin {
    let flows = report
        .flows
        .iter()
        .map(|f| [f.delivered_packets, f.total_drops()])
        .collect();
    let counters = counters
        .iter()
        .map(|name| report.counter_total(name) as u64)
        .collect();
    let mut rates = Vec::new();
    for (node, logic) in report.logic.iter() {
        for (flow, series) in logic.flow_rates.iter() {
            let last = series.last_value().expect("a reported series has samples");
            rates.push((node.index(), flow.index(), series.len(), last.to_bits()));
        }
    }
    (report.events_processed, flows, counters, rates)
}

/// Two Corelite clouds in series joined by a gateway `G` (node 3):
/// `E → A1 → A2 → G → B1 → B2 → X`, with a local flow `EB → B1 → B2 →
/// XB` competing in cloud B. Cloud A's bottleneck is `cap_a_bps`, cloud
/// B's `cap_b_bps`; the cross-cloud flow 0 is active over `cross`.
fn two_clouds(cap_a_bps: u64, cap_b_bps: u64, cross: &[(SimTime, Option<SimTime>)]) -> SimReport {
    let cfg = CoreliteConfig::default();
    let mut b = TopologyBuilder::new(31);
    let e = b.node("E", |_| Box::new(cfg.edge()));
    let a1 = b.node("A1", |s| Box::new(CoreliteCore::new(s, cfg.clone())));
    let a2 = b.node("A2", |s| Box::new(CoreliteCore::new(s, cfg.clone())));
    let g = b.node("G", |_| Box::new(cfg.gateway(200)));
    let b1 = b.node("B1", |s| Box::new(CoreliteCore::new(s, cfg.clone())));
    let b2 = b.node("B2", |s| Box::new(CoreliteCore::new(s, cfg.clone())));
    let x = b.node("X", |_| Box::new(ForwardLogic));
    let eb = b.node("EB", |_| Box::new(cfg.edge()));
    let xb = b.node("XB", |_| Box::new(ForwardLogic));
    let fast = LinkSpec::new(40_000_000, SimDuration::from_millis(5), 400);
    b.link(e, a1, fast);
    b.link(
        a1,
        a2,
        LinkSpec::new(cap_a_bps, SimDuration::from_millis(10), 40),
    );
    b.link(a2, g, fast);
    b.link(g, b1, fast);
    b.link(
        b1,
        b2,
        LinkSpec::new(cap_b_bps, SimDuration::from_millis(10), 40),
    );
    b.link(b2, x, fast);
    b.link(eb, b1, fast);
    b.link(b2, xb, fast);
    let mut flow = FlowSpec::new(vec![e, a1, a2, g, b1, b2, x], 1);
    for &(start, stop) in cross {
        flow = flow.active(start, stop);
    }
    b.flow(flow);
    b.flow(FlowSpec::new(vec![eb, b1, b2, xb], 1).active(SimTime::ZERO, None));
    let end = SimTime::from_secs(200);
    let mut net = b.build();
    net.run_until(end);
    net.into_report(end)
}

/// Edge `agg` (node 0) folds `micro` micro-flows into one weight-1
/// aggregate; edge `plain` runs one weight-1 flow; both share a
/// 500 pkt/s link.
fn aggregate_vs_single(micro: usize) -> SimReport {
    let cfg = CoreliteConfig::default();
    let mut b = TopologyBuilder::new(47);
    let agg = b.node("agg-edge", |_| Box::new(cfg.aggregating_edge(1)));
    let plain = b.node("plain-edge", |_| Box::new(cfg.edge()));
    let core = b.node("core", |s| Box::new(CoreliteCore::new(s, cfg.clone())));
    let sink = b.node("sink", |_| Box::new(ForwardLogic));
    let access = LinkSpec::new(40_000_000, SimDuration::from_millis(1), 400);
    b.link(agg, core, access);
    b.link(plain, core, access);
    b.link(
        core,
        sink,
        LinkSpec::new(4_000_000, SimDuration::from_millis(10), 40),
    );
    for _ in 0..micro {
        b.flow(FlowSpec::new(vec![agg, core, sink], 1).active(SimTime::ZERO, None));
    }
    b.flow(FlowSpec::new(vec![plain, core, sink], 1).active(SimTime::ZERO, None));
    let end = SimTime::from_secs(260);
    let mut net = b.build();
    net.run_until(end);
    net.into_report(end)
}

/// One aggregate of two members on an uncongested link; the first
/// leaves at 20 s.
fn member_leaves() -> SimReport {
    let cfg = CoreliteConfig::default();
    let mut b = TopologyBuilder::new(48);
    let agg = b.node("agg-edge", |_| Box::new(cfg.aggregating_edge(1)));
    let sink = b.node("sink", |_| Box::new(ForwardLogic));
    b.link(
        agg,
        sink,
        LinkSpec::new(10_000_000, SimDuration::from_millis(10), 100),
    );
    let first = FlowSpec::new(vec![agg, sink], 1);
    b.flow(first.active(SimTime::ZERO, Some(SimTime::from_secs(20))));
    b.flow(FlowSpec::new(vec![agg, sink], 1).active(SimTime::ZERO, None));
    let end = SimTime::from_secs(40);
    let mut net = b.build();
    net.run_until(end);
    net.into_report(end)
}

const ALWAYS: &[(SimTime, Option<SimTime>)] = &[(SimTime::ZERO, None)];

#[test]
fn cross_cloud_flow_is_bottlenecked_by_the_tighter_cloud() {
    // Cloud A: 4 Mbps (500 pps) uncontested; cloud B: 4 Mbps shared
    // 1:1 with the local flow ⇒ the cross-cloud flow should settle
    // near 250 pps, the local flow near 250 pps.
    let report = two_clouds(4_000_000, 4_000_000, ALWAYS);
    let cross = report
        .flow(FlowId::from_index(0))
        .mean_goodput_in(SimTime::from_secs(150), SimTime::from_secs(200))
        .unwrap();
    let local = report
        .flow(FlowId::from_index(1))
        .mean_goodput_in(SimTime::from_secs(150), SimTime::from_secs(200))
        .unwrap();
    assert!(
        (cross - 250.0).abs() / 250.0 < 0.3,
        "cross-cloud flow {cross}, expected ≈250"
    );
    assert!(
        (local - 250.0).abs() / 250.0 < 0.3,
        "local flow {local}, expected ≈250"
    );
}

#[test]
fn gateway_strips_upstream_markers_and_injects_its_own() {
    let report = two_clouds(4_000_000, 4_000_000, ALWAYS);
    assert!(
        report.counter_total("gateway_markers_injected") > 0.0,
        "gateway must mark for the downstream cloud"
    );
    assert!(
        report.counter_total("gateway_feedback_received") > 0.0,
        "downstream cores must feed back to the gateway"
    );
}

#[test]
fn gateway_buffer_absorbs_cloud_mismatch() {
    // Cloud A allows ~500 pps but cloud B only ~250: the gateway
    // buffer bounds the mismatch, and upstream feedback eventually
    // reins flow 0 in at its cloud-A edge too... it does not, in this
    // paper's model — the upstream cloud sees no congestion, so the
    // gateway sheds the excess at its buffer. Verify the shed is
    // bounded by the buffer (no unbounded growth) and the downstream
    // share is honoured.
    let report = two_clouds(8_000_000, 4_000_000, ALWAYS);
    let cross = report
        .flow(FlowId::from_index(0))
        .mean_goodput_in(SimTime::from_secs(150), SimTime::from_secs(200))
        .unwrap();
    assert!(
        (cross - 250.0).abs() / 250.0 < 0.3,
        "cross-cloud flow {cross}, expected ≈250 (cloud B's share)"
    );
    let peak = report.counter_total("gateway_buffer_peak");
    assert!(peak <= 200.0, "gateway buffer bounded: peak {peak}");
}

#[test]
#[should_panic(expected = "buffer")]
fn zero_buffer_rejected() {
    CoreliteConfig::default().gateway(0);
}

#[test]
fn gateway_restarts_controller_after_idle_gap() {
    // The cross-cloud flow stops at t = 60 s and restarts at
    // t = 100 s — a 40 s gap, far beyond `IDLE_RESTART`. The gateway
    // must re-enter slow-start on the flow's return instead of
    // resuming (and further inflating) the stale pre-stop rate.
    use netsim::ids::NodeId;

    let cross = [
        (SimTime::ZERO, Some(SimTime::from_secs(60))),
        (SimTime::from_secs(100), None),
    ];
    let report = two_clouds(4_000_000, 4_000_000, &cross);

    // The gateway's own rate series for the cross-cloud flow (node G
    // is index 3; `allotted_rate` would return the upstream edge's).
    let g_series = &report.logic[&NodeId::from_index(3)].flow_rates[&FlowId::from_index(0)];
    let at_restart = g_series
        .iter()
        .filter(|(t, _)| *t >= SimTime::from_secs(100) && *t < SimTime::from_secs(110))
        .map(|(_, v)| v)
        .fold(f64::INFINITY, f64::min);
    assert!(
        at_restart < 16.0,
        "gateway rate {at_restart} just after restart, expected a fresh slow-start"
    );
    // And the flow climbs back toward its ~250 pkt/s cloud-B share
    // afterwards (the tail window still includes part of the ramp).
    let cross = report
        .flow(FlowId::from_index(0))
        .mean_goodput_in(SimTime::from_secs(160), SimTime::from_secs(200))
        .unwrap();
    assert!(
        cross > 150.0,
        "cross-cloud flow {cross} after restart, expected recovery toward 250"
    );
}

#[test]
fn aggregate_competes_as_one_flow_regardless_of_member_count() {
    // Three micro-flows in a weight-1 aggregate vs one weight-1 flow:
    // the AGGREGATE gets the weight-1 share (≈250), so each micro-flow
    // gets ≈83 — not 3/4 of the link.
    let report = aggregate_vs_single(3);
    let from = SimTime::from_secs(200);
    let to = SimTime::from_secs(260);
    let micro_goodputs: Vec<f64> = (0..3)
        .map(|i| {
            report
                .flow(FlowId::from_index(i))
                .mean_goodput_in(from, to)
                .unwrap_or(0.0)
        })
        .collect();
    let aggregate_total: f64 = micro_goodputs.iter().sum();
    let single = report
        .flow(FlowId::from_index(3))
        .mean_goodput_in(from, to)
        .unwrap_or(0.0);
    assert!(
        (aggregate_total - 250.0).abs() / 250.0 < 0.3,
        "aggregate total {aggregate_total}, expected ≈250 ({micro_goodputs:?})"
    );
    assert!(
        (single - 250.0).abs() / 250.0 < 0.3,
        "single flow {single}, expected ≈250"
    );
    // Round-robin shares the aggregate evenly among members.
    for g in &micro_goodputs {
        assert!(
            (g - aggregate_total / 3.0).abs() / (aggregate_total / 3.0) < 0.15,
            "uneven member split: {micro_goodputs:?}"
        );
    }
}

#[test]
fn aggregate_survives_member_churn() {
    // A member leaving must not stall the aggregate's emission.
    let cfg = CoreliteConfig::default();
    let mut b = TopologyBuilder::new(48);
    let agg = b.node("agg-edge", |_| Box::new(cfg.aggregating_edge(1)));
    let sink = b.node("sink", |_| Box::new(ForwardLogic));
    b.link(
        agg,
        sink,
        LinkSpec::new(10_000_000, SimDuration::from_millis(10), 100),
    );
    b.flow(FlowSpec::new(vec![agg, sink], 1).active(SimTime::ZERO, Some(SimTime::from_secs(20))));
    let f2 = b.flow(FlowSpec::new(vec![agg, sink], 1).active(SimTime::ZERO, None));
    let end = SimTime::from_secs(40);
    let mut net = b.build();
    net.run_until(end);
    let report = net.into_report(end);
    let late = report
        .flow(f2)
        .mean_goodput_in(SimTime::from_secs(25), end)
        .unwrap();
    assert!(
        late > 20.0,
        "surviving member should inherit the full aggregate rate: {late}"
    );
    assert_eq!(report.counter_total("aggregate_groups"), 1.0);
}

#[test]
#[should_panic(expected = "weight")]
fn zero_group_weight_rejected() {
    CoreliteConfig::default().aggregating_edge(0);
}

const GATEWAY_COUNTERS: &[&str] = &[
    "gateway_markers_injected",
    "gateway_feedback_received",
    "gateway_buffer_drops",
    "gateway_buffer_peak",
    "markers_injected",
    "feedback_received",
];

const AGGREGATE_COUNTERS: &[&str] = &[
    "aggregate_markers_injected",
    "aggregate_groups",
    "markers_injected",
    "feedback_received",
];

#[test]
fn the_gateway_and_the_aggregating_edge_decide_exactly_as_pinned() {
    // Cloud A offers twice cloud B's share, so the gateway sheds at its
    // buffer.
    let mismatch = two_clouds(8_000_000, 4_000_000, ALWAYS);
    assert_eq!(
        pin(&mismatch, GATEWAY_COUNTERS),
        (
            827_412,
            vec![[35_589, 7_996], [36_292, 0]],
            vec![35_602, 146, 7_996, 200, 80_111, 177],
            vec![
                (0, 0, 401, 0x407a_4000_0000_0000),
                (3, 0, 399, 0x406f_0000_0000_0000),
                (7, 1, 401, 0x406c_6000_0000_0000),
            ],
        )
    );
    // The cross-cloud flow stops for 40 s, far beyond the idle-restart
    // gap, and the gateway infers its restart from the next arrival.
    let restart = two_clouds(
        4_000_000,
        4_000_000,
        &[
            (SimTime::ZERO, Some(SimTime::from_secs(60))),
            (SimTime::from_secs(100), None),
        ],
    );
    assert_eq!(
        pin(&restart, GATEWAY_COUNTERS),
        (
            526_138,
            vec![[16_204, 120], [41_069, 0]],
            vec![16_209, 0, 120, 200, 57_609, 136],
            vec![
                (0, 0, 323, 0x406b_8000_0000_0000),
                (3, 0, 400, 0x406b_2000_0000_0000),
                (7, 1, 401, 0x4071_1000_0000_0000),
            ],
        )
    );
    // Three members share one weight-1 aggregate; its series is
    // reported for each of them.
    let aggregate = aggregate_vs_single(3);
    assert_eq!(
        pin(&aggregate, AGGREGATE_COUNTERS),
        (
            514_804,
            vec![[17_004, 0], [17_004, 0], [17_003, 0], [51_108, 0]],
            vec![51_014, 1, 51_111, 275],
            vec![
                (0, 0, 521, 0x406e_2000_0000_0000),
                (0, 1, 521, 0x406e_2000_0000_0000),
                (0, 2, 521, 0x406e_2000_0000_0000),
                (1, 3, 521, 0x406d_4000_0000_0000),
            ],
        )
    );
    let churn = member_leaves();
    assert_eq!(
        pin(&churn, AGGREGATE_COUNTERS),
        (
            6_943,
            vec![[349, 0], [1_937, 0]],
            vec![2_287, 1, 0, 0],
            vec![
                (0, 0, 81, 0x4059_0000_0000_0000),
                (0, 1, 81, 0x4059_0000_0000_0000),
            ],
        )
    );
}
