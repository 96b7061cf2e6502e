//! Integration test reproducing the paper's §5 related-work claims:
//! RED "provides no fairness guarantees" — goodput under RED follows the
//! offered load, not the rate weights — while Corelite delivers the
//! weighted allocation for the same flow population.

use baselines::{GreedySource, RedCore};
use corelite::{CoreliteConfig, CoreliteCore};
use fairness::metrics::jain_index;
use netsim::flow::FlowSpec;
use netsim::link::LinkSpec;
use netsim::logic::ForwardLogic;
use netsim::topology::TopologyBuilder;
use netsim::{FlowId, SimReport};
use sim_core::time::{SimDuration, SimTime};

const WEIGHTS: [u32; 3] = [1, 2, 3];

fn access() -> LinkSpec {
    LinkSpec::new(40_000_000, SimDuration::from_millis(1), 400)
}

fn bottleneck() -> LinkSpec {
    LinkSpec::new(4_000_000, SimDuration::from_millis(10), 40)
}

/// Three greedy flows, all offering 400 pkt/s, through a RED core.
fn red_run(offered: [f64; 3]) -> SimReport {
    let mut b = TopologyBuilder::new(61);
    let mut edges = Vec::new();
    for (i, rate) in offered.into_iter().enumerate() {
        edges.push(b.node(&format!("src{i}"), move |_| {
            Box::new(GreedySource::new(rate))
        }));
    }
    let red = b.node("red", |s| Box::new(RedCore::new(s)));
    let sink = b.node("sink", |_| Box::new(ForwardLogic));
    for &e in &edges {
        b.link(e, red, access());
    }
    b.link(red, sink, bottleneck());
    for (i, &e) in edges.iter().enumerate() {
        b.flow(FlowSpec::new(vec![e, red, sink], WEIGHTS[i]).active(SimTime::ZERO, None));
    }
    let end = SimTime::from_secs(60);
    let mut net = b.build();
    net.run_until(end);
    net.into_report(end)
}

/// The same three weighted flows under Corelite's adaptive edges.
fn corelite_run() -> SimReport {
    let cfg = CoreliteConfig::default();
    let mut b = TopologyBuilder::new(61);
    let mut edges = Vec::new();
    for i in 0..3 {
        edges.push(b.node(&format!("edge{i}"), |_| Box::new(cfg.edge())));
    }
    let core = b.node("core", |s| Box::new(CoreliteCore::new(s, cfg.clone())));
    let sink = b.node("sink", |_| Box::new(ForwardLogic));
    for &e in &edges {
        b.link(e, core, access());
    }
    b.link(core, sink, bottleneck());
    for (i, &e) in edges.iter().enumerate() {
        b.flow(FlowSpec::new(vec![e, core, sink], WEIGHTS[i]).active(SimTime::ZERO, None));
    }
    let end = SimTime::from_secs(150);
    let mut net = b.build();
    net.run_until(end);
    net.into_report(end)
}

fn goodputs(report: &SimReport, from: u64, to: u64) -> Vec<f64> {
    (0..3)
        .map(|i| {
            report
                .flow(FlowId::from_index(i))
                .mean_goodput_in(SimTime::from_secs(from), SimTime::from_secs(to))
                .unwrap_or(0.0)
        })
        .collect()
}

#[test]
fn red_ignores_weights() {
    // Equal offered loads, weights 1:2:3 — RED splits the link equally.
    let report = red_run([400.0, 400.0, 400.0]);
    let g = goodputs(&report, 30, 60);
    let weights: Vec<f64> = WEIGHTS.iter().map(|&w| w as f64).collect();
    let weighted_jain = jain_index(&g, &weights);
    assert!(
        weighted_jain < 0.9,
        "RED should NOT be weighted-fair: Jain {weighted_jain:.3}, goodputs {g:?}"
    );
    // …but it IS roughly equal-per-flow for equal offered loads.
    let unweighted_jain = jain_index(&g, &[1.0, 1.0, 1.0]);
    assert!(
        unweighted_jain > 0.98,
        "equal offered loads should split roughly equally: {g:?}"
    );
}

#[test]
fn red_rewards_sending_more() {
    // Offered 150 vs 600 pkt/s with the HIGHER weight on the low sender:
    // RED still gives the aggressive flow more.
    let report = red_run([600.0, 150.0, 150.0]);
    let g = goodputs(&report, 30, 60);
    assert!(
        g[0] > 1.5 * g[1],
        "the aggressive flow should win under RED: {g:?}"
    );
}

#[test]
fn corelite_delivers_weighted_fairness_where_red_cannot() {
    let report = corelite_run();
    let g = goodputs(&report, 120, 150);
    let weights: Vec<f64> = WEIGHTS.iter().map(|&w| w as f64).collect();
    let weighted_jain = jain_index(&g, &weights);
    assert!(
        weighted_jain > 0.98,
        "Corelite should be weighted-fair: Jain {weighted_jain:.3}, goodputs {g:?}"
    );
}

#[test]
fn red_spreads_drops_but_queue_stays_short() {
    // RED's actual virtue (early detection) shows in our substrate too:
    // under the same overload a drop-tail queue rides at its cap while
    // RED holds a short average queue.
    let red = red_run([400.0, 400.0, 400.0]);
    assert!(
        red.links[3].peak_occupancy < 40,
        "RED peak queue {} should stay below the 40-packet cap",
        red.links[3].peak_occupancy
    );
    assert!(red.counter_total("red_early_drops") > 0.0);
}
