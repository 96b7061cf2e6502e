//! Flow-lifecycle integration suite: multi-activation schedules under
//! every registered discipline, stops on measurement-window boundaries,
//! FCT accounting on departure, and byte-identical churn results across
//! executors and every engine mode of the shared identity matrix.

#![allow(clippy::float_cmp)]

#[path = "../../../tests/common/mod.rs"]
mod common;

use baselines::GreedySource;
use netsim::flow::FlowSpec;
use netsim::link::LinkSpec;
use netsim::logic::{CbrSource, ForwardLogic, PoissonSource, RouterLogic};
use netsim::topology::TopologyBuilder;
use scenarios::churn::{churn_markdown, churn_rows};
use scenarios::discipline::{by_name, default_registry};
use scenarios::topology::Route;
use scenarios::{Scenario, ScenarioChurn, ScenarioFlow};
use sim_core::time::{SimDuration, SimTime};

/// Two activation windows with a 5 s gap, against a competing flow that
/// keeps the bottleneck busy throughout.
fn restart_scenario() -> Scenario {
    Scenario::paper(
        "lifecycle_restart",
        vec![
            ScenarioFlow {
                transport: Default::default(),
                path: Route::new(0, 1).into(),
                weight: 2,
                min_rate: 0.0,
                activations: vec![
                    (SimTime::ZERO, Some(SimTime::from_secs(10))),
                    (SimTime::from_secs(15), Some(SimTime::from_secs(25))),
                ],
            },
            ScenarioFlow::best_effort(Route::new(0, 1), 1, SimTime::ZERO),
        ],
        SimTime::from_secs(30),
        23,
    )
}

fn churn_scenario(seed: u64) -> Scenario {
    Scenario::paper(
        "lifecycle_churn",
        vec![ScenarioFlow::best_effort(
            Route::new(0, 3),
            2,
            SimTime::ZERO,
        )],
        SimTime::from_secs(30),
        seed,
    )
    .with_churn(
        ScenarioChurn::new(6.0, 40.0, 100.0)
            .route(Route::new(0, 1))
            .route(Route::new(1, 3))
            .weights(vec![1, 2])
            .window(SimTime::ZERO, SimTime::from_secs(20)),
    )
}

/// Every discipline — adaptive edges and open-loop baselines alike —
/// must serve both activation windows and go quiet in the gap.
#[test]
fn multi_activation_delivers_in_both_windows_under_every_discipline() {
    for discipline in default_registry() {
        let result = restart_scenario().run(discipline.as_ref());
        let name = discipline.name();
        let first = result.report.flows[0]
            .mean_goodput_in(SimTime::from_secs(3), SimTime::from_secs(10))
            .unwrap_or(0.0);
        assert!(first > 1.0, "{name}: first window idle ({first} pkt/s)");
        // The gap: nothing but residual in-flight packets, which the
        // 0.4 s round trip clears well before t=12.
        let gap = result.report.flows[0]
            .mean_goodput_in(SimTime::from_secs(12), SimTime::from_secs(15))
            .unwrap_or(0.0);
        assert!(gap < 0.5, "{name}: traffic in the gap ({gap} pkt/s)");
        // The restart at t=15 must take — this is the window the stale
        // lifecycle-event bugs used to kill.
        let second = result.report.flows[0]
            .mean_goodput_in(SimTime::from_secs(18), SimTime::from_secs(25))
            .unwrap_or(0.0);
        assert!(
            second > 1.0,
            "{name}: restart never served ({second} pkt/s)"
        );
    }
}

/// A stop landing exactly on a measurement-window boundary (the 1 s
/// default) must neither lose nor double-count the final window.
#[test]
fn stop_on_measurement_window_boundary_keeps_series_consistent() {
    let scenario = Scenario::paper(
        "boundary_stop",
        vec![
            ScenarioFlow {
                transport: Default::default(),
                path: Route::new(0, 1).into(),
                weight: 1,
                min_rate: 0.0,
                activations: vec![(SimTime::ZERO, Some(SimTime::from_secs(10)))],
            },
            ScenarioFlow::best_effort(Route::new(0, 1), 1, SimTime::ZERO),
        ],
        SimTime::from_secs(20),
        31,
    );
    let result = scenario.run(by_name("corelite").unwrap().as_ref());
    let flow = &result.report.flows[0];
    assert!(flow.delivered_packets > 0, "flow never delivered");
    // Cumulative-service samples are strictly non-decreasing and hit
    // every whole-second boundary exactly once.
    let cumulative = flow.cumulative.as_slice();
    assert!(
        cumulative
            .windows(2)
            .all(|w| { w[1].1 >= w[0].1 && w[1].0 > w[0].0 }),
        "cumulative series not monotone: {cumulative:?}"
    );
    // After the boundary stop (plus in-flight drain) the flow is silent.
    let after = flow
        .mean_goodput_in(SimTime::from_secs(12), SimTime::from_secs(20))
        .unwrap_or(0.0);
    assert_eq!(after, 0.0, "traffic after a boundary stop");
}

/// Departing churn flows record one FCT and one settling sample each,
/// and settling never exceeds completion.
#[test]
fn fct_recorded_on_departure() {
    let result = churn_scenario(5).run(by_name("corelite").unwrap().as_ref());
    let churn = result.report.churn.as_ref().expect("churn report");
    assert!(churn.arrivals > 50, "arrivals {}", churn.arrivals);
    assert_eq!(churn.retired, churn.arrivals, "every flow drains");
    assert_eq!(churn.fct.count(), churn.completed);
    assert_eq!(churn.settling.count(), churn.completed);
    let settle = churn.settling.mean().expect("settling recorded");
    let fct = churn.mean_fct().expect("fct recorded");
    assert!(
        settle > 0.0 && settle <= fct,
        "settling {settle} vs fct {fct}"
    );
    assert_eq!(churn.stale_events, 0);
}

/// The churn sweep is byte-identical across the serial and parallel
/// executors, and churn runs are byte-identical across queue backends,
/// dispatch modes, the 2-shard engine and a probe.
#[test]
fn churn_results_are_byte_identical_across_executors_and_backends() {
    let registry = vec![by_name("corelite").unwrap(), by_name("csfq").unwrap()];
    let scenarios = [churn_scenario(5)];
    let serial = churn_markdown(&churn_rows(&scenarios, &registry, true));
    let parallel = churn_markdown(&churn_rows(&scenarios, &registry, false));
    assert_eq!(serial, parallel, "serial vs parallel executor diverged");

    common::identity_matrix(&churn_scenario(5), registry[0].as_ref(), &[2]);
}

/// Packets a 100 pkt/s open-loop `source` emits over 11 s when its flow
/// stops at 1.003 s and restarts at 1.006 s — inside one 10 ms gap, so
/// the first activation's timer is still pending at the restart. About
/// 1100 are due; the sources used to let that timer live on as a second
/// chain and emitted 2101 (greedy, CBR) and 2153 (Poisson).
fn emitted_across_a_restart_inside_a_gap(source: Box<dyn RouterLogic>) -> f64 {
    let mut b = TopologyBuilder::new(5);
    let src = b.node("src", |_| source);
    let dst = b.node("dst", |_| Box::new(ForwardLogic));
    b.link(
        src,
        dst,
        LinkSpec::new(10_000_000, SimDuration::from_millis(10), 100),
    );
    b.flow(
        FlowSpec::new(vec![src, dst], 1)
            .active(SimTime::ZERO, Some(SimTime::from_millis(1003)))
            .active(SimTime::from_millis(1006), None),
    );
    let end = SimTime::from_secs(11);
    let mut net = b.build();
    net.run_until(end);
    net.into_report(end).counter_total("emitted_packets")
}

#[test]
fn greedy_source_keeps_one_chain_across_a_restart_inside_a_gap() {
    let source = Box::new(GreedySource::new(100.0));
    let emitted = emitted_across_a_restart_inside_a_gap(source);
    assert!((1095.0..=1105.0).contains(&emitted), "emitted {emitted}");
}

#[test]
fn cbr_source_keeps_one_chain_across_a_restart_inside_a_gap() {
    let source = Box::new(CbrSource::new(100.0));
    let emitted = emitted_across_a_restart_inside_a_gap(source);
    assert!((1095.0..=1105.0).contains(&emitted), "emitted {emitted}");
}

#[test]
fn poisson_source_keeps_one_chain_across_a_restart_inside_a_gap() {
    // Exponential gaps: 1100 expected, standard deviation about 33.
    let source = Box::new(PoissonSource::new(9, 100.0));
    let emitted = emitted_across_a_restart_inside_a_gap(source);
    assert!((950.0..=1250.0).contains(&emitted), "emitted {emitted}");
}
