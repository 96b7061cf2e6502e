//! Single public functions of the layers, called in a loop on inputs
//! shaped like the workloads': what a layer costs with nothing around it.
//! Each figure is the median of [`BATCHES`] batches.

use corelite::{MarkerCache, StatelessSelector};
use csfq::FairShareEstimator;
use fairness::IncrementalMaxMin;
use netsim::link::{Link, LinkSpec};
use netsim::logic::ForwardLogic;
use netsim::packet::Marker;
use netsim::TopologyBuilder;
use netsim::{ActiveSet, ChurnSpec, DenseMap, FlowId, NodeId, Probe, RingProbe, Sample};
use scenarios::topology::paper_link;
use scenarios::Scenario;
use sim_core::event::{EventQueue, QueueBackend};
use sim_core::rng::DetRng;
use sim_core::time::{SimDuration, SimTime};
use std::hint::black_box;

use crate::clock;
use crate::stats::median;

const BATCHES: usize = 5;

/// Median nanoseconds per operation: each batch calls `body(ops)`, which
/// performs `ops` operations, until the batch has run `secs / BATCHES`.
fn ns_per_op(secs: f64, ops: u64, mut body: impl FnMut(u64)) -> f64 {
    body(ops); // warm caches and lazily grown buffers
    let per_batch: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = clock::start();
            let mut done = 0u64;
            loop {
                body(ops);
                done += ops;
                if t.elapsed_secs() >= secs / BATCHES as f64 {
                    break t.elapsed_ns() as f64 / done as f64;
                }
            }
        })
        .collect();
    median(&per_batch)
}

/// The classic hold model: at a steady `depth`, pop the earliest event
/// and schedule one a random increment later. Increments span `depth`
/// mean gaps of 8 us, the event density of the churn workload.
fn queue_hold(secs: f64, backend: QueueBackend, depth: usize) -> f64 {
    let mut rng = DetRng::new(depth as u64);
    let span_ns = depth as u64 * 16_000;
    let mut q = EventQueue::with_backend(backend, depth);
    let mut key = 0u64;
    for _ in 0..depth {
        q.push_keyed(SimTime::from_nanos(rng.next_u64() % span_ns), key, key);
        key += 1;
    }
    ns_per_op(secs, 4096, |ops| {
        for _ in 0..ops {
            let (now, event) = q.pop().expect("the hold model never drains");
            black_box(event);
            let at = SimTime::from_nanos(now.as_nanos() + rng.next_u64() % span_ns);
            q.push_keyed(at, key, key);
            key += 1;
        }
    })
}

fn marker(i: u64) -> Marker {
    Marker {
        flow: FlowId::from_index((i % 20) as usize),
        edge: NodeId::from_index(0),
        normalized_rate: (i % 50) as f64,
    }
}

/// The flow-lifecycle machinery alone: `arrivals` Poisson arrivals with
/// Pareto lifetimes between two forwarding nodes that emit nothing (the
/// `engine/churn_100k` shape). Returns events processed.
fn churn_only(arrivals: u64) -> u64 {
    let mut b = TopologyBuilder::new(7);
    let ingress = b.node("ingress", |_| Box::new(ForwardLogic));
    let egress = b.node("egress", |_| Box::new(ForwardLogic));
    let spec = LinkSpec::new(40_000_000, SimDuration::from_millis(5), 400);
    b.link(ingress, egress, spec);
    b.churn(
        ChurnSpec::new(20_000.0, 10.0, 1_000.0)
            .route(vec![ingress, egress])
            .window(SimTime::ZERO, SimTime::from_secs(20))
            .linger(SimDuration::from_millis(100))
            .max_arrivals(arrivals),
    );
    let end = SimTime::from_secs(10);
    let mut net = b.build();
    net.run_until(end);
    let report = net.into_report(end);
    let churn = report.churn.expect("a churn process was installed");
    assert_eq!(churn.arrivals, arrivals, "the cap ends the arrival process");
    report.events_processed
}

/// Runs every isolated measurement for `secs` each (the churn one on
/// `arrivals` arrivals per run) and returns `(metric name, value)` in
/// table order.
pub fn run_all(secs: f64, arrivals: u64) -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();
    for (name, backend, depth) in [
        ("sim-core.queue.hold_ns_d64", QueueBackend::Wheel, 64),
        ("sim-core.queue.hold_ns_d4k", QueueBackend::Wheel, 4 << 10),
        ("sim-core.queue.hold_ns_d64k", QueueBackend::Wheel, 64 << 10),
        (
            "sim-core.queue.heap_hold_ns_d4k",
            QueueBackend::Heap,
            4 << 10,
        ),
    ] {
        out.push((name, queue_hold(secs, backend, depth)));
    }

    // Accept path: arrivals spaced one transmission apart never queue.
    let spec = paper_link();
    let gap = spec.tx_time(1000);
    let mut link = Link::new(NodeId::from_index(0), NodeId::from_index(1), spec);
    let mut now = SimTime::ZERO;
    out.push((
        "netsim.link.offer_ns",
        ns_per_op(secs, 4096, |ops| {
            for _ in 0..ops {
                now += gap;
                black_box(link.offer(now, 1000));
            }
        }),
    ));
    // Tail-drop path: time stands still, so the queue stays full.
    let mut link = Link::new(NodeId::from_index(0), NodeId::from_index(1), spec);
    out.push((
        "netsim.link.offer_full_ns",
        ns_per_op(secs, 4096, |ops| {
            for _ in 0..ops {
                black_box(link.offer(SimTime::ZERO, 1000));
            }
        }),
    ));

    // A flow table the size of the churn workload's resident slots.
    const SLOTS: usize = 4096;
    let mut rng = DetRng::new(11);
    let mut table: DenseMap<FlowId, u64> = (0..SLOTS)
        .map(|i| (FlowId::from_index(i), i as u64))
        .collect();
    out.push((
        "netsim.slab.dense_get_ns",
        ns_per_op(secs, 4096, |ops| {
            let mut sum = 0u64;
            for _ in 0..ops {
                sum += table[&FlowId::from_index(rng.index(SLOTS))];
            }
            black_box(sum);
        }),
    ));
    out.push((
        "netsim.slab.dense_insert_remove_ns",
        ns_per_op(secs, 4096, |ops| {
            for _ in 0..ops {
                let key = FlowId::from_index(rng.index(SLOTS));
                let v = table.remove(&key).expect("every slot is occupied");
                table.insert(key, black_box(v));
            }
        }),
    ));
    // One edge's epoch scan: ~130 active flows spread over the table.
    let mut active: ActiveSet<FlowId> = ActiveSet::new();
    while active.len() < 130 {
        active.insert(FlowId::from_index(rng.index(SLOTS)));
    }
    out.push((
        "netsim.slab.active_iter_ns_per_key",
        ns_per_op(secs, active.len() as u64, |_| {
            let mut sum = 0u64;
            for pos in 0..active.len() {
                sum += table[&active.get(pos)];
            }
            black_box(sum);
        }),
    ));

    let mut events = 0u64;
    let per_arrival_ns = ns_per_op(secs, arrivals, |n| events = churn_only(n));
    out.push(("netsim.churn.ns_per_arrival", per_arrival_ns));
    out.push((
        "netsim.churn.events_per_arrival",
        events as f64 / arrivals as f64,
    ));

    let mut ring = RingProbe::with_capacity(1 << 12);
    let sample = Sample::for_flow("b_g", FlowId::from_index(3), 41.5);
    out.push((
        "netsim.telemetry.record_ns",
        ns_per_op(secs, 4096, |ops| {
            for i in 0..ops {
                ring.record(SimTime::from_nanos(i), NodeId::from_index(2), &sample);
            }
        }),
    ));

    let mut selector = StatelessSelector::new(0.1);
    selector.on_epoch(10.0);
    let mut rng = DetRng::new(5);
    out.push((
        "corelite.stateless.on_marker_ns",
        ns_per_op(secs, 4096, |ops| {
            let mut sent = 0u32;
            for i in 0..ops {
                sent += u32::from(selector.on_marker(&marker(i), &mut rng));
            }
            black_box(sent);
        }),
    ));
    let mut cache = MarkerCache::new(512);
    (0..512).for_each(|i| cache.push(marker(i)));
    out.push((
        "corelite.cache.select_ns",
        ns_per_op(secs, 1, |_| {
            black_box(cache.select(16, &mut rng));
        }),
    ));

    let mut estimator = FairShareEstimator::new(500.0, SimDuration::from_millis(100));
    let mut now = SimTime::ZERO;
    out.push((
        "csfq.estimator.arrival_ns",
        ns_per_op(secs, 4096, |ops| {
            for i in 0..ops {
                now += SimDuration::from_micros(900);
                let label = (i % 60) as f64;
                if estimator.on_arrival(now, label) < 0.5 {
                    black_box(estimator.on_accept(now, label));
                }
            }
        }),
    ));

    // The k=16 reference: 32 flows over the 16x8 fat-tree's 256 links,
    // built and solved as the report path does it.
    let k16 = Scenario::fat_tree_k16(SimTime::from_secs(10), 1);
    out.push((
        "fairness.maxmin.solve_us",
        ns_per_op(secs, 1, |_| {
            black_box(k16.expected_rates_at(SimTime::from_secs(5)));
        }) / 1e3,
    ));
    let mut incremental = IncrementalMaxMin::new();
    let links: Vec<_> = (0..256).map(|_| incremental.link(500.0)).collect();
    let mut at = 0usize;
    out.push((
        "fairness.incremental.join_leave_ns",
        ns_per_op(secs, 1024, |ops| {
            for _ in 0..ops {
                at = (at + 37) % (links.len() - 2);
                let slot = incremental.join(2.0, 0.0, links[at..at + 2].iter().copied());
                incremental.leave(black_box(slot));
            }
        }),
    ));
    out
}
