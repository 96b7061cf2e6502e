//! Engine-level tests of the sharded executor: the merged trace stream
//! must reproduce the serial tracer's event sequence byte for byte, and
//! the merged report must match the serial report on a topology built
//! directly from netsim primitives (no scenarios layer involved).

use std::cell::RefCell;
use std::rc::Rc;

use netsim::flow::FlowSpec;
use netsim::link::LinkSpec;
use netsim::logic::{CbrSource, Ctx, ForwardLogic, PoissonSource, RouterLogic};
use netsim::packet::Packet;
use netsim::shard::run_sharded;
use netsim::topology::TopologyBuilder;
use netsim::trace::{TraceEvent, Tracer};
use netsim::ChurnSpec;
use sim_core::time::{SimDuration, SimTime};

/// Collects every trace record in arrival order.
#[derive(Debug, Default)]
struct VecTracer {
    log: Vec<(SimTime, TraceEvent)>,
}

impl Tracer for VecTracer {
    fn record(&mut self, now: SimTime, event: &TraceEvent) {
        self.log.push((now, *event));
    }
}

/// A three-hop chain with two competing Poisson flows through a tight
/// middle link — enough contention for enqueues, drops and deliveries
/// to all appear in the trace.
fn chain() -> TopologyBuilder {
    let mut b = TopologyBuilder::new(42);
    let a = b.node("a", |seed| Box::new(PoissonSource::new(seed, 400.0)));
    let m = b.node("m", |_| Box::new(ForwardLogic));
    let z = b.node("z", |_| Box::new(ForwardLogic));
    b.link(
        a,
        m,
        LinkSpec::new(4_000_000, SimDuration::from_millis(10), 40),
    );
    b.link(
        m,
        z,
        LinkSpec::new(1_000_000, SimDuration::from_millis(10), 10),
    );
    b.flow(FlowSpec::new(vec![a, m, z], 1).active(SimTime::ZERO, None));
    b.flow(FlowSpec::new(vec![a, m, z], 2).active(SimTime::ZERO, None));
    b
}

#[test]
fn sharded_trace_log_matches_serial_tracer() {
    let end = SimTime::from_secs(5);

    let tracer = Rc::new(RefCell::new(VecTracer::default()));
    let mut b = chain();
    b.tracer(tracer.clone());
    let mut net = b.build();
    net.run_until(end);
    let serial_report = net.into_report(end);
    let serial_log = std::mem::take(&mut tracer.borrow_mut().log);
    assert!(!serial_log.is_empty(), "serial tracer recorded nothing");

    for shards in [2usize, 3] {
        let outcome = run_sharded(chain, shards, end, false, true);
        assert_eq!(
            serial_log, outcome.trace_log,
            "trace stream diverged at {shards} shards"
        );
        assert_eq!(
            format!("{serial_report:?}"),
            format!("{:?}", outcome.report),
            "report diverged at {shards} shards"
        );
    }
}

/// The chain above, driven by a churn process next to one static flow:
/// every arrival adds replicated lifecycle events (arrival, start, stop,
/// retire) on top of the node-addressed packet traffic.
fn churn_chain() -> TopologyBuilder {
    let mut b = TopologyBuilder::new(42);
    let a = b.node("a", |_| Box::new(CbrSource::new(200.0)));
    let m = b.node("m", |_| Box::new(ForwardLogic));
    let z = b.node("z", |_| Box::new(ForwardLogic));
    let spec = LinkSpec::new(4_000_000, SimDuration::from_millis(10), 40);
    b.link(a, m, spec);
    b.link(m, z, spec);
    b.flow(FlowSpec::new(vec![a, m, z], 1).active(SimTime::ZERO, None));
    b.churn(
        ChurnSpec::new(50.0, 10.0, 100.0)
            .route(vec![a, m, z])
            .window(SimTime::ZERO, SimTime::from_secs(3))
            .linger(SimDuration::from_millis(500)),
    );
    b
}

/// `per_shard_events` and `events_processed` are two definitions, not
/// one count taken twice. Popped events fall short of `events_processed`
/// by the serializations train dispatch never pops and by the loss
/// notifications a deaf ingress is spared (`elided_notifications`), and
/// grow with the shard count by one extra pop per replicated lifecycle
/// event per extra shard — node-addressed events still pop once in
/// total.
#[test]
fn popped_events_reconcile_with_events_processed() {
    let end = SimTime::from_secs(5);
    let run = |shards| run_sharded(churn_chain, shards, end, false, false);

    let one = run(1);
    let forwarded: u64 = one.report.links.iter().map(|l| l.forwarded_packets).sum();
    assert!(forwarded > 1_000, "the chain carried traffic: {forwarded}");
    let elided = one.report.elided_notifications;
    assert!(
        elided > 1_000,
        "the CBR ingress overran its uplink: {elided}"
    );
    assert_eq!(
        one.per_shard_events[0] + forwarded + elided,
        one.report.events_processed
    );

    let two = run(2);
    let lifecycle = two.per_shard_events.iter().sum::<u64>() - one.per_shard_events[0];
    assert!(lifecycle > 0, "lifecycle events replicate");
    for (shards, outcome) in [(2, two), (4, run(4))] {
        let popped: u64 = outcome.per_shard_events.iter().sum();
        assert_eq!(outcome.report.elided_notifications, elided);
        assert_eq!(
            popped - (shards - 1) * lifecycle + forwarded + elided,
            outcome.report.events_processed,
            "{shards} shards"
        );
    }
}

/// A forwarding node whose logic hits a bug on its first packet.
struct PanicsOnPacket;

impl RouterLogic for PanicsOnPacket {
    fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _packet: Packet) {
        panic!("the middle node's logic hit a bug");
    }
}

/// Regression: `std::sync::Barrier` has no poisoning, so a worker that
/// panicked left its peers waiting at the next exchange for ever and
/// `run_sharded` never returned. The ingress and the panicking node sit
/// on different shards; the run must *finish*, with the worker's own
/// message.
#[test]
#[should_panic(expected = "the middle node's logic hit a bug")]
fn a_panicking_shard_fails_the_run_instead_of_hanging_it() {
    let factory = || {
        let mut b = TopologyBuilder::new(42);
        let a = b.node("a", |_| Box::new(CbrSource::new(200.0)));
        let m = b.node("m", |_| Box::new(PanicsOnPacket));
        let z = b.node("z", |_| Box::new(ForwardLogic));
        let spec = LinkSpec::new(4_000_000, SimDuration::from_millis(10), 40);
        b.link(a, m, spec);
        b.link(m, z, spec);
        b.flow(FlowSpec::new(vec![a, m, z], 1).active(SimTime::ZERO, None));
        b
    };
    run_sharded(factory, 2, SimTime::from_secs(5), false, false);
}
