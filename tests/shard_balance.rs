//! The shard partitioner's event balance, as a deterministic pin.
//!
//! `per_shard_events` (queue pops per shard) repeats exactly from run to
//! run, so "no shard pops more than 1.15x the mean" is a plain assertion,
//! not a measurement. A split by node index and count read 1.44 on
//! `k16_churn`'s shape: every churn ingress — every emission timer and
//! feedback message — sat on the last shard.

use corelite::CoreliteConfig;
use scenarios::discipline::Corelite;
use scenarios::runner::Scenario;
use scenarios::{Discipline, ScenarioChurn, TopologySpec};
use sim_core::time::SimTime;

/// Busiest shard over the mean shard.
fn imbalance(per_shard: &[u64]) -> f64 {
    let total: u64 = per_shard.iter().sum();
    let busiest = *per_shard.iter().max().expect("at least one shard");
    busiest as f64 * per_shard.len() as f64 / total as f64
}

fn assert_balanced(scenario: &Scenario, discipline: &dyn Discipline) {
    for shards in [2, 4] {
        let (_, per_shard) = scenario.run_sharded(discipline, shards);
        let ratio = imbalance(&per_shard);
        assert!(
            ratio <= 1.15,
            "{} on {shards} shards: imbalance {ratio:.3}, pops {per_shard:?}",
            scenario.name
        );
    }
}

#[test]
fn fat_tree_k16_100k_is_balanced() {
    assert_balanced(
        &Scenario::fat_tree_k16_100k(SimTime::from_secs(4), 5),
        &Corelite::default(),
    );
}

/// The benchmark's `k16_churn` workload at a sixth of its length: 4000
/// web-like arrivals a second over 16 route templates (25x each uplink's
/// capacity) on top of the 32 long-lived flows, edges starting at 25
/// pkt/s. Nearly all the work is at the 16 churn ingresses.
#[test]
fn k16_churn_shape_is_balanced() {
    const LEAVES: usize = 16;
    const SPINES: usize = 8;
    let mut churn = ScenarioChurn::new(4000.0, 50.0, 100.0)
        .weights(vec![1, 2, 3])
        .window(SimTime::ZERO, SimTime::from_millis(1_800));
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
    let scenario = Scenario::fat_tree_k16(SimTime::from_secs(2), 1).with_churn(churn);
    let discipline = Corelite::new(CoreliteConfig {
        initial_rate: 25.0,
        ..CoreliteConfig::default()
    });
    assert_balanced(&scenario, &discipline);
}
