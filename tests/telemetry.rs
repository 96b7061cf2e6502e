//! Integration tests for the control-plane telemetry subsystem: probed
//! runs of the paper's Figure-2 chain must emit every per-epoch metric
//! the disciplines advertise, in a stable JSONL shape, and the
//! convergence diagnostics built on top of them must be sane.

#![allow(clippy::float_cmp)]

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::Rc;

use corelite::{CoreliteConfig, SelectorKind};
use csfq::CsfqConfig;
use netsim::telemetry::{Probe, RingProbe};
use netsim::FlowId;
use scenarios::discipline::{Corelite, Csfq};
use scenarios::report::{jain_trajectory, settling_summary};
use scenarios::{fig5_6, Discipline, ExperimentResult};
use sim_core::event::QueueBackend;
use sim_core::time::{SimDuration, SimTime};

const SEED: u64 = 20000;

fn probed_run(
    discipline: &dyn Discipline,
    horizon: SimTime,
) -> (ExperimentResult, Rc<RefCell<RingProbe>>) {
    let mut s = fig5_6(SEED);
    s.horizon = horizon;
    let probe = Rc::new(RefCell::new(RingProbe::with_capacity(1 << 17)));
    let result = s.run_instrumented(
        discipline,
        QueueBackend::Wheel,
        probe.clone() as Rc<RefCell<dyn Probe>>,
    );
    (result, probe)
}

fn metric_names(probe: &RingProbe) -> BTreeSet<&'static str> {
    probe.iter().map(|r| r.sample.name).collect()
}

#[test]
fn stateless_corelite_emits_every_paper_metric() {
    let (_, probe) = probed_run(
        &Corelite::new(CoreliteConfig::default()),
        SimTime::from_secs(20),
    );
    let p = probe.borrow();
    let names = metric_names(&p);
    for required in [
        "q_avg",
        "f_n",
        "sent_this_epoch",
        "r_av",
        "w_av",
        "p_w",
        "deficit",
        "m_f",
        "b_g",
        "slow_start",
    ] {
        assert!(names.contains(required), "missing {required}: {names:?}");
    }
    // Link metrics carry a link id; flow metrics carry a flow id, one
    // series per flow.
    assert!(p
        .iter()
        .filter(|r| r.sample.name == "q_avg")
        .all(|r| r.sample.link.is_some() && r.sample.flow.is_none()));
    for i in 0..10 {
        let series = p.series("b_g", None, Some(FlowId::from_index(i)), None);
        assert!(!series.is_empty(), "flow {i} published no b_g");
        // Granted rates are per-epoch and positive once active.
        assert!(series.last_value().unwrap() > 0.0);
    }
}

#[test]
fn cache_selector_swaps_selector_metrics() {
    let (_, probe) = probed_run(
        &Corelite::new(
            CoreliteConfig::default().with_selector(SelectorKind::Cache { capacity: 512 }),
        ),
        SimTime::from_secs(20),
    );
    let p = probe.borrow();
    let names = metric_names(&p);
    assert!(names.contains("cache_len"), "{names:?}");
    assert!(names.contains("q_avg") && names.contains("b_g"));
    // The stateless selector's internals must not appear under the cache.
    for absent in ["r_av", "w_av", "p_w", "deficit", "sent_this_epoch"] {
        assert!(!names.contains(absent), "unexpected {absent}");
    }
}

#[test]
fn csfq_emits_fair_share_estimates() {
    let (_, probe) = probed_run(&Csfq::new(CsfqConfig::default()), SimTime::from_secs(20));
    let p = probe.borrow();
    let names = metric_names(&p);
    assert!(names.contains("alpha"), "{names:?}");
    assert!(names.contains("congested"), "{names:?}");
    // The bottleneck saw congestion at some point, and alpha is a
    // plausible normalized rate.
    assert!(p
        .iter()
        .any(|r| r.sample.name == "congested" && r.sample.value == 1.0));
    assert!(p
        .iter()
        .filter(|r| r.sample.name == "alpha")
        .all(|r| r.sample.value.is_finite() && r.sample.value > 0.0));
    // CSFQ's edges run the same source agent as Corelite's, so they
    // publish the same per-flow epoch samples.
    for name in ["m_f", "b_g", "slow_start"] {
        for i in 0..10 {
            let series = p.series(name, None, Some(FlowId::from_index(i)), None);
            assert!(!series.is_empty(), "flow {i} published no {name}");
        }
    }
}

#[test]
fn jsonl_stream_shape_is_stable() {
    let (_, probe) = probed_run(
        &Corelite::new(CoreliteConfig::default()),
        SimTime::from_secs(5),
    );
    let p = probe.borrow();
    let jsonl = p.to_jsonl();
    // The very first epoch tick is core C1 (node 0) reading an idle
    // queue — pinned byte for byte so downstream parsers can rely on
    // the field order.
    assert_eq!(
        jsonl.lines().next().unwrap(),
        r#"{"t":0.100000,"node":0,"name":"q_avg","value":0,"link":0}"#
    );
    assert_eq!(jsonl.lines().count(), p.len());
    for line in jsonl.lines() {
        assert!(line.starts_with("{\"t\":") && line.ends_with('}'), "{line}");
    }
}

#[test]
fn settling_diagnostics_are_sane_on_the_figure2_chain() {
    let result = fig5_6(SEED).run(&Corelite::new(CoreliteConfig::default()));
    let horizon = result.scenario.horizon;
    let rows = settling_summary(&result, horizon, 0.3, SimDuration::from_secs(10));
    assert_eq!(rows.len(), 10);
    // Analytic references: 16.67 pkt/s per unit weight on the C1–C2
    // bottleneck (total weight 30 over 500 pkt/s).
    for r in &rows {
        let expected = 500.0 / 30.0 * f64::from(r.weight);
        assert!(
            (r.reference - expected).abs() < 1e-6,
            "flow {}: reference {} != {expected}",
            r.flow,
            r.reference
        );
    }
    // The chain settles well inside the 80 s horizon and oscillates
    // moderately around the share afterwards.
    let settled: Vec<_> = rows.iter().filter(|r| r.settling_time.is_some()).collect();
    assert!(
        settled.len() >= 8,
        "only {} flows settled: {rows:?}",
        settled.len()
    );
    for r in &settled {
        assert!(r.settling_time.unwrap() < horizon);
        let osc = r.oscillation.expect("settled flows report oscillation");
        assert!((0.0..1.0).contains(&osc), "{r:?}");
    }
    let traj = jain_trajectory(&result, SimDuration::from_secs(10));
    assert!(!traj.is_empty());
    let late = traj
        .mean_in(SimTime::from_secs(60), horizon + SimDuration::from_secs(1))
        .unwrap();
    assert!(late > 0.9, "late-run Jain index {late}");
}
