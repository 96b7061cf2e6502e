//! Behavioural tests for the CSFQ baseline beyond the per-module units:
//! agent restart semantics, label plausibility, and estimator windows.

use csfq::{CsfqConfig, CsfqCore, FairShareEstimator};
use netsim::flow::FlowSpec;
use netsim::link::LinkSpec;
use netsim::logic::ForwardLogic;
use netsim::topology::TopologyBuilder;
use netsim::{FlowId, SimReport};
use sim_core::time::{SimDuration, SimTime};

fn run(horizon: u64, activations: Vec<(u64, Option<u64>)>) -> SimReport {
    let cfg = CsfqConfig::default();
    let mut b = TopologyBuilder::new(91);
    let edge = b.node("edge", |_| Box::new(cfg.edge()));
    let core = b.node("core", |s| Box::new(CsfqCore::new(s)));
    let sink = b.node("sink", |_| Box::new(ForwardLogic));
    b.link(
        edge,
        core,
        LinkSpec::new(40_000_000, SimDuration::from_millis(1), 400),
    );
    b.link(
        core,
        sink,
        LinkSpec::new(4_000_000, SimDuration::from_millis(10), 40),
    );
    let mut spec = FlowSpec::new(vec![edge, core, sink], 1);
    for (start, stop) in activations {
        spec = spec.active(SimTime::from_secs(start), stop.map(SimTime::from_secs));
    }
    b.flow(spec);
    let end = SimTime::from_secs(horizon);
    let mut net = b.build();
    net.run_until(end);
    net.into_report(end)
}

#[test]
fn restarting_agent_ramps_from_scratch() {
    let report = run(40, vec![(0, Some(15)), (20, None)]);
    let series = report.allotted_rate(FlowId::from_index(0)).unwrap();
    // Just after the restart the agent is back near the initial rate.
    let early = series.value_at(SimTime::from_secs_f64(20.6)).unwrap();
    assert!(early < 10.0, "restart rate {early}");
    // And climbing again afterwards.
    let later = series.value_at(SimTime::from_secs(35)).unwrap();
    assert!(later > early, "no ramp after restart: {early} → {later}");
}

#[test]
fn uncongested_csfq_never_drops() {
    // A single agent ramping across 40 s stays below the 500 pkt/s
    // capacity (flat slow-start cap + linear increase) ⇒ zero drops.
    let report = run(40, vec![(0, None)]);
    assert_eq!(report.total_drops(), 0);
    assert!(report.counter_total("packets_labelled") > 0.0);
}

#[test]
fn fair_share_estimator_tracks_capacity_under_saturation() {
    // Feed a saturating single "flow": alpha should end up within an
    // order of magnitude of the capacity (it cannot exceed the largest
    // label seen, and it must stay positive).
    let mut est = FairShareEstimator::new(100.0, SimDuration::from_millis(100));
    let mut now = SimTime::ZERO;
    for i in 0..5_000u64 {
        now += SimDuration::from_millis(5); // 200 pkt/s > 100 capacity
        let p = est.on_arrival(now, 200.0);
        // Accept with probability 1 − p, deterministically interleaved.
        let survive = ((i * 37) % 100) as f64 >= p * 100.0;
        if survive {
            est.on_accept(now, 200.0);
        }
    }
    // Equilibrium: alpha ≈ capacity (100): accepted rate F ≈ C keeps the
    // multiplicative update alpha·C/F ≈ alpha.
    let alpha = est.alpha().expect("alpha set under congestion");
    assert!(alpha > 30.0 && alpha < 300.0, "alpha {alpha}");
    assert!(est.is_congested());
}

#[test]
fn estimator_decongests_when_load_falls() {
    let mut est = FairShareEstimator::new(100.0, SimDuration::from_millis(100));
    let mut now = SimTime::ZERO;
    for _ in 0..2_000 {
        now += SimDuration::from_millis(5);
        est.on_arrival(now, 200.0);
        est.on_accept(now, 200.0);
    }
    assert!(est.is_congested());
    for _ in 0..2_000 {
        now += SimDuration::from_millis(50); // 20 pkt/s ≪ capacity
        let p = est.on_arrival(now, 20.0);
        assert!(p <= 1.0);
        est.on_accept(now, 20.0);
    }
    assert!(!est.is_congested(), "estimator should leave congestion");
}
