//! Randomized property tests for the link/queue substrate — FIFO order,
//! bounded occupancy, conservation of packets, serialization timing —
//! for the slab state plane (`DenseMap` against a `BTreeMap` model), and
//! for the shard partitioner.

use std::collections::BTreeMap;

use netsim::ids::{FlowId, NodeId};
use netsim::link::{Link, LinkSpec};
use netsim::shard::Partition;
use netsim::slab::DenseMap;
use sim_core::check;
use sim_core::time::{SimDuration, SimTime};

fn spec(capacity: usize) -> LinkSpec {
    LinkSpec::new(8_000_000, SimDuration::from_millis(1), capacity)
}

/// Whatever the arrival pattern: occupancy never exceeds capacity,
/// departures come out in FIFO order along the service curve, and
/// accepted = forwarded + queued + dropped at all times.
#[test]
fn queue_invariants_hold() {
    check::cases(64, 0x4E_01, |g| {
        let capacity = g.usize_in(1, 20);
        let ops = g.vec_with(1, 300, |g| (g.bool(), g.u64_in(100, 2000) as u32));
        let mut link = Link::new(NodeId::from_index(0), NodeId::from_index(1), spec(capacity));
        let mut now = SimTime::ZERO;
        let mut accepted = 0u64;
        let mut dropped = 0u64;
        let mut last_dep = SimTime::ZERO;

        for (enqueue, size) in ops {
            now += SimDuration::from_micros(50);
            if enqueue {
                match link.offer(now, size) {
                    Some(dep) => {
                        accepted += 1;
                        // FIFO service curve: departures are strictly
                        // increasing and never precede the arrival.
                        assert!(dep > last_dep, "departure {dep:?} out of order");
                        assert!(dep > now, "departure before arrival");
                        last_dep = dep;
                    }
                    None => dropped += 1,
                }
            } else {
                // Exercise an accounting checkpoint at a random instant.
                link.sync(now);
            }
            assert!(link.queue_len(now) <= capacity, "occupancy over capacity");
            assert_eq!(
                accepted,
                link.forwarded_packets() + link.queue_len(now) as u64,
                "packet conservation violated (synced part)"
            );
            assert_eq!(link.dropped_packets(), dropped);
        }
        // Drain everything: every accepted packet eventually departs.
        link.sync(last_dep);
        assert_eq!(link.forwarded_packets(), accepted);
        assert_eq!(link.queue_len(last_dep), 0);
    });
}

/// Serialization time is linear in packet size and inversely linear
/// in bandwidth.
#[test]
fn tx_time_scales() {
    check::cases(256, 0x4E_02, |g| {
        let size = g.u64_in(1, 100_000) as u32;
        let bw = g.u64_in(1_000, 1_000_000_000);
        let s = LinkSpec::new(bw, SimDuration::ZERO, 1);
        let t = s.tx_time(size).as_secs_f64();
        let expect = size as f64 * 8.0 / bw as f64;
        // from_nanos truncates below the nanosecond.
        assert!(
            (t - expect).abs() <= 1e-9 + 1e-12 * expect,
            "{t} vs {expect}"
        );
        let double = s.tx_time(size.saturating_mul(2)).as_secs_f64();
        assert!(double >= t * 2.0 - 2e-9);
    });
}

/// Lazy and eager sync schedules produce identical statistics: the
/// departure train carries its own timestamps, so when accounting runs
/// cannot matter.
#[test]
fn sync_schedule_is_unobservable() {
    check::cases(64, 0x4E_04, |g| {
        let capacity = g.usize_in(1, 20);
        let ops = g.vec_with(1, 200, |g| (g.u64_in(1, 5_000), g.u64_in(100, 2000) as u32));
        let mut eager = Link::new(NodeId::from_index(0), NodeId::from_index(1), spec(capacity));
        let mut lazy = Link::new(NodeId::from_index(0), NodeId::from_index(1), spec(capacity));
        let mut now = SimTime::ZERO;
        for (gap, size) in ops {
            now += SimDuration::from_micros(gap);
            assert_eq!(eager.offer(now, size), lazy.offer(now, size));
            eager.sync(now);
        }
        let end = now + SimDuration::from_secs(1);
        assert_eq!(eager.queue_len(end), lazy.queue_len(end));
        assert_eq!(
            eager.take_queue_average(end),
            lazy.take_queue_average(end),
            "occupancy integral depends on sync schedule"
        );
        assert_eq!(eager.forwarded_packets(), lazy.forwarded_packets());
        assert_eq!(eager.forwarded_bytes(), lazy.forwarded_bytes());
        assert_eq!(eager.dropped_packets(), lazy.dropped_packets());
        assert_eq!(eager.peak_occupancy(), lazy.peak_occupancy());
    });
}

/// `DenseMap` is observationally equivalent to the `BTreeMap` it
/// replaced: after any interleaving of inserts, overwrites, removes and
/// clears, lookups, length, iteration order and the `Debug` rendering
/// all match the model exactly.
#[test]
fn dense_map_matches_btreemap_model() {
    check::cases(128, 0x4E_05, |g| {
        let ops = g.vec_with(1, 200, |g| {
            let key = g.usize_in(0, 24);
            match g.u64_in(0, 9) {
                // Insert-or-overwrite dominates; removal and clear are
                // rarer, mirroring real flow churn.
                0..=5 => (0u8, key, g.u64_in(0, 1000)),
                6..=7 => (1, key, 0),
                8 => (2, key, 0),
                _ => (3, key, g.u64_in(0, 1000)),
            }
        });
        let mut dense: DenseMap<FlowId, u64> = DenseMap::new();
        let mut model: BTreeMap<FlowId, u64> = BTreeMap::new();
        for (op, key, value) in ops {
            let key = FlowId::from_index(key);
            match op {
                0 => {
                    assert_eq!(dense.insert(key, value), model.insert(key, value));
                }
                1 => {
                    assert_eq!(dense.remove(&key), model.remove(&key));
                }
                2 => {
                    dense.clear();
                    model.clear();
                }
                _ => {
                    *dense.entry_or_insert_with(key, || value) += 1;
                    *model.entry(key).or_insert(value) += 1;
                }
            }
            assert_eq!(dense.len(), model.len());
            assert_eq!(dense.is_empty(), model.is_empty());
            assert_eq!(dense.get(&key), model.get(&key));
            assert_eq!(dense.contains_key(&key), model.contains_key(&key));
            // Iteration yields the model's ascending key order.
            assert!(dense
                .iter()
                .map(|(k, &v)| (k, v))
                .eq(model.iter().map(|(&k, &v)| (k, v))));
            assert!(dense.keys().eq(model.keys().copied()));
            assert!(dense.values().eq(model.values()));
            // Report rendering byte-matches the map it replaced.
            assert_eq!(format!("{dense:?}"), format!("{model:?}"));
        }
    });
}

/// The time-weighted queue average is bounded by the peak occupancy.
#[test]
fn queue_average_bounded_by_peak() {
    check::cases(64, 0x4E_03, |g| {
        let arrivals = g.vec_with(1, 100, |g| g.u64_in(1, 5_000));
        let mut link = Link::new(NodeId::from_index(0), NodeId::from_index(1), spec(40));
        let mut now = SimTime::ZERO;
        for (i, gap) in arrivals.iter().enumerate() {
            now += SimDuration::from_micros(*gap);
            if i % 3 == 2 {
                link.sync(now);
            } else {
                link.offer(now, 1000);
            }
        }
        let avg = link.queue_average(now + SimDuration::from_millis(1));
        assert!(avg >= 0.0);
        assert!(avg <= link.peak_occupancy() as f64 + 1e-9);
    });
}

/// Whatever the topology and the weights: every node gets a shard below
/// the shard count, nodes joined by zero-delay links share one, the
/// lookahead is the smallest delay actually cut, recomputing changes
/// nothing, and without weights to tell nodes apart the deal is by node
/// count (LPT leaves any two shards within one group of each other).
#[test]
fn partition_invariants_hold() {
    check::cases(128, 0x4E_03, |g| {
        let nodes = g.usize_in(1, 40);
        let shards = g.usize_in(1, 6);
        let links = g.vec_with(0, 80, |g| {
            let delay = if g.u64_in(0, 4) == 0 {
                0
            } else {
                g.u64_in(1, 50)
            };
            (
                g.usize_in(0, nodes) as u32,
                g.usize_in(0, nodes) as u32,
                SimDuration::from_millis(delay),
            )
        });
        let weights = g.vec_with(nodes, nodes, |g| g.u64_in(1, 1_000_000));

        let p = Partition::compute(shards, &weights, &links);
        assert_eq!(p.shards as usize, shards);
        assert_eq!(p.shard_of_node.len(), nodes);
        assert!(p.shard_of_node.iter().all(|&s| (s as usize) < shards));
        let shard = |n: u32| p.shard_of_node[n as usize];
        let cut = links.iter().filter(|&&(a, b, _)| shard(a) != shard(b));
        assert_eq!(p.lookahead, cut.map(|&(_, _, delay)| delay).min());
        assert!(
            p.lookahead != Some(SimDuration::ZERO),
            "a fused pair was split"
        );
        assert_eq!(Partition::compute(shards, &weights, &links), p);

        let flat = Partition::compute(shards, &vec![1; nodes], &links);
        let held = |s: u32| flat.shard_of_node.iter().filter(|&&x| x == s).count();
        let counts: Vec<usize> = (0..shards as u32).map(held).collect();
        // A fused group is a connected component of the zero-delay links,
        // so none is larger than the number of such links plus one.
        let fused = links.iter().filter(|l| l.2 == SimDuration::ZERO).count();
        let spread = counts.iter().max().unwrap() - counts.iter().min().unwrap();
        assert!(spread <= fused + 1, "{counts:?} with {fused} fused links");
    });
}
