//! Sharded-vs-serial identity suite: the sharded engine must reproduce
//! the serial engine's results **byte for byte** at every shard count —
//! reports, probe streams, churn accounting — across the paper figures,
//! fat-tree mixes, fault injection and flow churn. This is the contract
//! that makes `--shards` a pure wall-clock knob (DESIGN.md §14): any
//! divergence, however small, is a bug in the epoch/mailbox protocol,
//! never an acceptable "parallel rounding" artifact.
//!
//! Every row goes through the shared identity matrix, so each shard
//! count is also crossed with both queue backends, both dispatch modes
//! and a probe, and checked for its per-shard event split.

mod common;

use common::{compress, identity_matrix};
use netsim::ids::{LinkId, NodeId};
use netsim::FaultPlan;
use scenarios::discipline::{by_name, Corelite};
use scenarios::runner::Scenario;
use scenarios::{fig3_4, fig5_6, fig7_8, fig9_10};
use sim_core::time::{SimDuration, SimTime};

#[test]
fn figure_schedules_are_byte_identical_across_shards() {
    for scenario in [fig3_4(7), fig5_6(7), fig7_8(7), fig9_10(7)] {
        identity_matrix(&compress(scenario, 12), &Corelite::default(), &[2, 3]);
    }
}

#[test]
fn shard_count_sweep_is_byte_identical() {
    // Including 1: a single-shard "parallel" run takes the sharded code
    // path (mailboxes, epochs, merge) and must still match serial.
    identity_matrix(
        &compress(fig5_6(21), 15),
        &Corelite::default(),
        &[1, 2, 4, 8],
    );
}

#[test]
fn fat_tree_mixes_are_byte_identical() {
    identity_matrix(
        &Scenario::fat_tree_mix(SimTime::from_secs(10), 3),
        &Corelite::default(),
        &[2, 4],
    );
    identity_matrix(
        &Scenario::fat_tree_k16(SimTime::from_secs(4), 3),
        &Corelite::default(),
        &[4],
    );
}

#[test]
fn faulted_runs_are_byte_identical() {
    // Control-plane loss and delay draw from per-node RNG streams, link
    // flaps drop packets mid-flight, pauses freeze a core's control
    // processing — all of it must replay identically under sharding.
    let secs = SimTime::from_secs;
    let scenario = compress(fig5_6(11), 15).with_faults(
        FaultPlan::new()
            .control_loss(0.2)
            .control_delay(SimDuration::from_millis(50), SimDuration::from_millis(10))
            .marker_loss(LinkId::from_index(1), 0.5)
            .flap(LinkId::from_index(0), secs(5), secs(7))
            .pause(NodeId::from_index(2), secs(8), secs(9)),
    );
    identity_matrix(&scenario, &Corelite::default(), &[2, 4]);
}

#[test]
fn churn_runs_are_byte_identical() {
    // The k = 16 fat-tree churn workload: tens of thousands of dynamic
    // flow arrivals, slot recycling, lifecycle timers and completion
    // accounting. The churn report rides inside the SimReport, so FCT
    // and settling statistics are part of the byte-identity check.
    let scenario = Scenario::fat_tree_k16_100k(SimTime::from_secs(4), 5);
    let serial = scenario.run(&Corelite::default());
    let churn = serial.report.churn.as_ref().expect("churn report present");
    assert!(
        churn.arrivals > 1_000,
        "churn barely ran: {}",
        churn.arrivals
    );
    identity_matrix(&scenario, &Corelite::default(), &[2, 4, 8]);
}

#[test]
fn csfq_baseline_is_byte_identical() {
    // A second discipline exercises different logic state, control
    // traffic and RNG draws through the same sharded machinery.
    let csfq = by_name("csfq").expect("csfq is registered");
    identity_matrix(&compress(fig3_4(13), 12), csfq.as_ref(), &[2, 3]);
}

#[test]
fn probe_streams_are_byte_identical() {
    // Telemetry: the sharded engine replays its merged sample log into
    // the probe in canonical order, so the rendered JSONL stream must
    // match the serial stream byte for byte (the matrix compares it in
    // every cell and rejects an empty one).
    identity_matrix(&compress(fig5_6(17), 15), &Corelite::default(), &[2, 4]);
}

#[test]
fn scenario_shards_field_routes_through_the_sharded_engine() {
    // `Scenario.shards` is the transparent dispatch knob: plain `run()`
    // on a shards = 4 scenario must produce the serial bytes too (this
    // is what the DSL `shards` directive and `--shards` flag rely on).
    let scenario = compress(fig3_4(29), 12);
    let serial = scenario.run(&Corelite::default());
    let sharded = scenario.clone().with_shards(4).run(&Corelite::default());
    assert_eq!(
        format!("{:?}", serial.report),
        format!("{:?}", sharded.report)
    );
}
