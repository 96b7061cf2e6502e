//! Robustness under injected faults: Corelite's soft-state feedback loop
//! must degrade gracefully when control messages are lost (§3.2's
//! resilience argument), and the degradation sweep must stay
//! byte-deterministic across executors and repeats.

use corelite::{CoreliteConfig, SelectorKind};
use netsim::FaultPlan;
use scenarios::discipline::{by_name, Corelite};
use scenarios::fault::{degradation_markdown, degradation_rows};
use scenarios::report::window_jain_index;
use scenarios::{fig5_6, Discipline};
use sim_core::time::{SimDuration, SimTime};

/// Steady-state weighted Jain index of the Figure-5/6 schedule under the
/// given control-message loss probability.
fn jain_under_loss(cfg: CoreliteConfig, loss: f64) -> f64 {
    let mut scenario = fig5_6(42);
    scenario.faults = FaultPlan::new().control_loss(loss);
    let result = scenario.run(&Corelite::new(cfg));
    let horizon = result.scenario.horizon;
    window_jain_index(&result, horizon - SimDuration::from_secs(20), horizon)
}

fn assert_tolerates_feedback_loss(cfg: CoreliteConfig, label: &str) {
    let clean = jain_under_loss(cfg.clone(), 0.0);
    let lossy = jain_under_loss(cfg, 0.2);
    assert!(clean > 0.9, "{label}: clean Jain {clean:.4}");
    // The acceptance bound: 20% feedback loss costs less than 15% of the
    // weighted fairness index.
    assert!(
        lossy >= 0.85 * clean,
        "{label}: Jain degraded {clean:.4} -> {lossy:.4} at 20% control loss"
    );
}

#[test]
fn stateless_selector_tolerates_twenty_percent_feedback_loss() {
    assert_tolerates_feedback_loss(CoreliteConfig::default(), "corelite/stateless");
}

#[test]
fn cache_selector_tolerates_twenty_percent_feedback_loss() {
    assert_tolerates_feedback_loss(
        CoreliteConfig::default().with_selector(SelectorKind::Cache { capacity: 256 }),
        "corelite/cache",
    );
}

#[test]
fn degradation_table_is_byte_deterministic() {
    let mut scenario = fig5_6(20000);
    scenario.horizon = SimTime::from_secs(25);
    let registry: Vec<Box<dyn Discipline>> = vec![
        by_name("corelite").expect("registered"),
        by_name("csfq").expect("registered"),
    ];
    let losses = [0, 20];
    let table = |serial| {
        degradation_markdown(&degradation_rows(
            &[scenario.clone()],
            &registry,
            &losses,
            serial,
        ))
    };
    let serial = table(true);
    let parallel = table(false);
    let repeat = table(false);
    assert_eq!(serial, parallel, "serial vs parallel sweep");
    assert_eq!(parallel, repeat, "repeated sweep");
    // 2 disciplines x 2 loss levels plus the two header lines.
    assert_eq!(serial.lines().count(), 6, "{serial}");
    assert!(serial.contains("| corelite |"), "{serial}");
    assert!(serial.contains("| 20 |"), "{serial}");
}
