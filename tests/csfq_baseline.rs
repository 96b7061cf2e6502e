//! Integration test: the weighted CSFQ baseline behaves like the
//! SIGCOMM '98 description — probabilistic label-driven drops, fair-share
//! tracking, and the startup weaknesses the Corelite paper exploits.

use csfq::CsfqConfig;
use scenarios::discipline::{Corelite, Csfq};
use scenarios::runner::{Scenario, ScenarioFlow};
use scenarios::topology::{Route, TopologySpec};
use sim_core::time::SimTime;

fn scenario(weights: &[u32], horizon: u64, seed: u64) -> Scenario {
    Scenario {
        topology: TopologySpec::paper_chain(),
        faults: Default::default(),
        churn: None,
        name: "csfq_baseline",
        flows: weights
            .iter()
            .map(|&w| ScenarioFlow {
                transport: Default::default(),
                path: Route::new(0, 1).into(),
                weight: w,
                min_rate: 0.0,
                activations: vec![(SimTime::ZERO, None)],
            })
            .collect(),
        horizon: SimTime::from_secs(horizon),
        seed,
        shards: 1,
    }
}

#[test]
fn csfq_uses_policy_drops_not_only_tail_drops() {
    let result = scenario(&[1, 1, 2, 2], 120, 31).run(&Csfq::new(CsfqConfig::default()));
    let policy: u64 = result.report.flows.iter().map(|f| f.policy_drops).sum();
    assert!(
        policy > 0,
        "CSFQ's probabilistic dropper should act before queues overflow"
    );
}

#[test]
fn csfq_drops_concentrate_on_over_share_flows() {
    // A weight-1 and a weight-3 flow: in steady state both sit at their
    // shares, but the weight-1 flow pushes relatively harder during
    // convergence; drops must track the *normalized* excess, so per
    // delivered packet the two flows see comparable drop ratios, and
    // neither flow is starved.
    let result = scenario(&[1, 3], 200, 32).run(&Csfq::new(CsfqConfig::default()));
    let f0 = &result.report.flows[0];
    let f1 = &result.report.flows[1];
    assert!(f0.delivered_packets > 0 && f1.delivered_packets > 0);
    let share0 = result.mean_rate_in(0, SimTime::from_secs(160), SimTime::from_secs(200));
    let share1 = result.mean_rate_in(1, SimTime::from_secs(160), SimTime::from_secs(200));
    let ratio = share1 / share0;
    assert!(
        (ratio - 3.0).abs() < 1.0,
        "weighted shares should approach 1:3, got {share0:.1}:{share1:.1}"
    );
}

#[test]
fn csfq_relabels_so_downstream_links_see_capped_labels() {
    // Two congested links in series: the upstream router caps labels at
    // its fair share, so the downstream router's running estimates stay
    // meaningful. Observable end-to-end: a two-hop flow still gets a
    // weighted-fair allocation.
    let scenario = Scenario {
        topology: TopologySpec::paper_chain(),
        faults: Default::default(),
        churn: None,
        name: "csfq_two_hop",
        flows: vec![
            ScenarioFlow {
                transport: Default::default(),
                path: Route::new(0, 2).into(), // crosses C1-C2 and C2-C3
                weight: 2,
                min_rate: 0.0,
                activations: vec![(SimTime::ZERO, None)],
            },
            ScenarioFlow {
                transport: Default::default(),
                path: Route::new(0, 1).into(),
                weight: 2,
                min_rate: 0.0,
                activations: vec![(SimTime::ZERO, None)],
            },
            ScenarioFlow {
                transport: Default::default(),
                path: Route::new(1, 2).into(),
                weight: 2,
                min_rate: 0.0,
                activations: vec![(SimTime::ZERO, None)],
            },
        ],
        horizon: SimTime::from_secs(200),
        seed: 33,
        shards: 1,
    };
    let result = scenario.run(&Csfq::new(CsfqConfig::default()));
    let rates: Vec<f64> = (0..3)
        .map(|i| result.mean_rate_in(i, SimTime::from_secs(150), SimTime::from_secs(200)))
        .collect();
    // Equal weights on equally loaded links: all should be near 250.
    for (i, r) in rates.iter().enumerate() {
        assert!(
            (*r - 250.0).abs() / 250.0 < 0.35,
            "flow {i} rate {r:.1}, expected ≈250 ({rates:?})"
        );
    }
}

#[test]
fn csfq_startup_shows_early_losses_unlike_corelite() {
    // §4.2's mechanism for CSFQ's slower convergence: flows observe
    // losses before reaching their fair share. Fifteen weight-1 flows
    // collectively cross the link capacity while still in slow-start;
    // count drops during the first 20 seconds only.
    let weights = [1u32; 15];
    let result = scenario(&weights, 20, 34).run(&Csfq::new(CsfqConfig::default()));
    assert!(
        result.total_drops() > 0,
        "CSFQ flows should already lose packets during startup"
    );
    let corelite =
        scenario(&weights, 20, 34).run(&Corelite::new(corelite::CoreliteConfig::default()));
    assert!(
        corelite.total_drops() <= result.total_drops() / 5,
        "corelite startup drops {} vs csfq {}",
        corelite.total_drops(),
        result.total_drops()
    );
}

/// CSFQ is the one discipline that *listens* to loss notifications, so
/// its edges never declare `Ctx::ignore_loss_notifications` and every
/// one still travels the queue: the count the edges report for the
/// paper's Figure 5/6 run is the one measured before elided
/// notifications existed (DESIGN.md §9), and equals the run's drops
/// but for those still in flight at the horizon.
#[test]
fn csfq_edges_still_hear_every_loss() {
    let result = scenarios::fig5_6(1).run(&Csfq::new(CsfqConfig::default()));
    assert_eq!(result.report.counter_total("losses_seen"), 925.0);
    assert_eq!(result.report.total_drops(), 928);
    assert_eq!(result.report.elided_notifications, 0);
}
