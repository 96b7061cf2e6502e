//! Scenario shapes shared by this crate's integration tests.

use corelite::CoreliteConfig;
use scenarios::discipline::Corelite;
use scenarios::{Scenario, ScenarioChurn, TopologySpec};
use sim_core::time::SimTime;

/// The benchmark's `k16_churn` at its smoke size: 4000 web-like arrivals
/// a second for one second over 16 route templates (25x each uplink's
/// capacity) on top of the 32 long-lived flows, edges starting at 25
/// pkt/s, run to 3 s.
pub fn k16_churn_shape() -> (Scenario, Corelite) {
    const LEAVES: usize = 16;
    const SPINES: usize = 8;
    let mut churn = ScenarioChurn::new(4000.0, 50.0, 100.0)
        .weights(vec![1, 2, 3])
        .window(SimTime::ZERO, SimTime::from_millis(1_000))
        .max_arrivals(2_000);
    churn.linger_secs = 0.5;
    for leaf in 0..LEAVES {
        churn = churn.route(TopologySpec::fat_tree_k_path(
            LEAVES,
            SPINES,
            leaf,
            (leaf + 1) % LEAVES,
            leaf % SPINES,
        ));
    }
    let scenario = Scenario::fat_tree_k16(SimTime::from_secs(3), 1).with_churn(churn);
    let discipline = Corelite::new(CoreliteConfig {
        initial_rate: 25.0,
        ..CoreliteConfig::default()
    });
    (scenario, discipline)
}
