//! Engine-mode byte-identity for the closed-loop transport scenarios:
//! the mixed LIMD/GBN/Reno workloads must produce the same report and
//! probe bytes under every engine configuration — serial vs the sharded
//! executor at 1, 2 and 4 shards, the wheel vs the heap event queue,
//! and transmission trains vs per-packet dispatch, all crossed by the
//! shared identity matrix, under both weight-aware disciplines.
//! Ack-clocked senders add reverse-path control traffic, RTO/tick timer
//! chains and receiver-side state to the event stream; none of it may
//! observe the engine mode.

mod common;

use common::{compress, identity_matrix};
use netsim::Transport;
use scenarios::discipline::{Corelite, Csfq, Discipline};
use scenarios::exec::{run_parallel, run_serial};
use scenarios::{mixed_transports, mixed_transports_fat_tree};
use sim_core::time::SimTime;

/// The disciplines that run each flow behind its declared transport.
fn disciplines() -> [Box<dyn Discipline>; 2] {
    [Box::new(Corelite::default()), Box::new(Csfq::default())]
}

#[test]
fn transport_scenarios_are_byte_identical_across_shards() {
    // Shard 1 included: the single-shard run still goes through the
    // mailbox/epoch machinery and the replicated-push protocol that
    // the ack sink's receiver resets rely on.
    for discipline in disciplines() {
        for scenario in [mixed_transports(7), mixed_transports_fat_tree(7)] {
            identity_matrix(&compress(scenario, 15), discipline.as_ref(), &[1, 2, 4]);
        }
    }
}

#[test]
fn transport_scenarios_are_byte_identical_across_queue_backends() {
    for discipline in disciplines() {
        identity_matrix(
            &compress(mixed_transports(11), 15),
            discipline.as_ref(),
            &[],
        );
    }
}

#[test]
fn transport_scenarios_are_byte_identical_across_dispatch_modes() {
    let scenario = compress(mixed_transports_fat_tree(11), 15);
    for discipline in disciplines() {
        identity_matrix(&scenario, discipline.as_ref(), &[]);
    }
}

#[test]
fn transport_runs_agree_under_serial_and_parallel_exec() {
    let seeds: Vec<u64> = (1..=4).collect();
    for discipline in disciplines() {
        let work = |seed: u64| {
            let scenario = compress(mixed_transports(seed), 12);
            identity_matrix(&scenario, discipline.as_ref(), &[]).report
        };
        let serial = run_serial(seeds.clone(), work);
        assert_eq!(serial, run_parallel(seeds.clone(), work));
        // Non-vacuous: the seed reaches the event stream.
        assert!(serial.windows(2).any(|w| w[0] != w[1]));
    }
}

#[test]
fn closed_loop_cohorts_actually_ran() {
    // Guard against the identity suite passing vacuously: the Reno
    // flows must have delivered real traffic through the ack-clocked
    // path (distinct from the open-loop cohort's behaviour).
    let scenario = compress(mixed_transports(7), 15);
    let result = scenario.run(&Corelite::default());
    for (i, f) in scenario.flows.iter().enumerate() {
        let report = &result.report.flows[i];
        assert!(
            report.delivered_packets > 50,
            "flow {} ({:?}) delivered only {}",
            i + 1,
            f.transport,
            report.delivered_packets
        );
        if f.transport == Transport::Limd {
            assert_eq!(
                report.duplicate_packets,
                0,
                "open-loop flow {} cannot redeliver",
                i + 1
            );
        }
    }
    // Go-back-N retransmits whole windows on loss; with ten flows on a
    // 500 pkt/s bottleneck some duplicate deliveries must occur.
    let dups: u64 = result
        .report
        .flows
        .iter()
        .map(|f| f.duplicate_packets)
        .sum();
    assert!(dups > 0, "no duplicate deliveries recorded");
}

#[test]
fn closed_loop_flows_respect_rate_weights() {
    // The acceptance bound documented in EXPERIMENTS.md ("Mixed
    // transports"): on the full 80 s chain scenario, every flow's
    // steady-state goodput — ack-clocked Reno cohort included — stays
    // within ±45% of its weighted max-min share, each cohort's mean
    // rate per unit weight within ±10% of the analytic 16.67 pkt/s,
    // and the pooled weighted Jain index at or above 0.97.
    let scenario = mixed_transports(20000);
    let result = scenario.run(&Corelite::default());
    let from = SimTime::from_secs(40);
    let to = scenario.horizon;
    let expected = result.expected_rates_at(SimTime::from_secs(60));

    let mut per_weight = std::collections::BTreeMap::new();
    let mut rates = Vec::new();
    let mut weights = Vec::new();
    for (i, f) in scenario.flows.iter().enumerate() {
        let measured = result.report.flows[i]
            .goodput
            .mean_in(from, to)
            .unwrap_or(0.0);
        let err = (measured - expected[i]).abs() / expected[i];
        assert!(
            err <= 0.45,
            "flow {} ({:?}, w={}) off by {:.0}%: {measured:.1} vs {:.1}",
            i + 1,
            f.transport,
            f.weight,
            100.0 * err,
            expected[i]
        );
        let entry = per_weight.entry(f.transport as u8).or_insert((0.0, 0usize));
        entry.0 += measured / f.weight as f64;
        entry.1 += 1;
        rates.push(measured);
        weights.push(f.weight as f64);
    }
    for (transport, (sum, n)) in per_weight {
        let mean = sum / n as f64;
        let share = 500.0 / 30.0; // C1-C2 bottleneck, total weight 30
        assert!(
            (mean - share).abs() / share <= 0.10,
            "cohort {transport} mean per-weight rate {mean:.2} vs {share:.2}"
        );
    }
    let jain = fairness::metrics::jain_index(&rates, &weights);
    assert!(jain >= 0.97, "pooled weighted Jain {jain:.4}");
}
