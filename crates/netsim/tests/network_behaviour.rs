//! Behavioural tests for the network substrate's configuration surface:
//! measurement windows, loss notifications, context accessors, the
//! order and immediacy of a callback's effects, and misuse panics.

use std::cell::RefCell;
use std::rc::Rc;

use netsim::flow::FlowSpec;
use netsim::link::LinkSpec;
use netsim::logic::{CbrSource, ControlMsg, Ctx, ForwardLogic, RouterLogic};
use netsim::topology::TopologyBuilder;
use netsim::FlowId;
use sim_core::event::QueueBackend;
use sim_core::time::{SimDuration, SimTime};

fn fast() -> LinkSpec {
    LinkSpec::new(40_000_000, SimDuration::from_millis(5), 400)
}

fn slow() -> LinkSpec {
    LinkSpec::new(4_000_000, SimDuration::from_millis(10), 10)
}

/// Records every control message it sees.
#[derive(Debug, Default)]
struct ControlRecorder {
    losses: Rc<RefCell<u64>>,
}

impl RouterLogic for ControlRecorder {
    fn on_flow_start(&mut self, ctx: &mut Ctx<'_>, flow: FlowId) {
        // Delegate emission to a fixed-rate chain.
        let packet = ctx.new_packet(flow);
        ctx.emit(packet);
        ctx.set_timer(
            SimDuration::from_millis(1),
            netsim::TimerKind::with_param(9, flow.index() as u64),
        );
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, timer: netsim::TimerKind) {
        let flow = FlowId::from_index(timer.param as usize);
        if ctx.flow(flow).is_active_at(ctx.now()) {
            let packet = ctx.new_packet(flow);
            ctx.emit(packet);
            ctx.set_timer(SimDuration::from_millis(1), timer);
        }
    }

    fn on_control(&mut self, _ctx: &mut Ctx<'_>, msg: ControlMsg) {
        if matches!(msg, ControlMsg::Loss { .. }) {
            *self.losses.borrow_mut() += 1;
        }
    }
}

#[test]
fn every_drop_is_notified() {
    let losses = Rc::new(RefCell::new(0u64));
    let handle = losses.clone();
    let mut b = TopologyBuilder::new(8);
    let src = b.node("src", move |_| Box::new(ControlRecorder { losses: handle }));
    let dst = b.node("dst", |_| Box::new(ForwardLogic));
    b.link(src, dst, slow()); // 1000 pkt/s offered into 500 pkt/s
    b.flow(FlowSpec::new(vec![src, dst], 1).active(SimTime::ZERO, None));
    let end = SimTime::from_secs(3);
    let mut net = b.build();
    net.run_until(end);
    let report = net.into_report(end);
    assert!(report.total_drops() > 0, "overload must drop");
    assert_eq!(*losses.borrow(), report.total_drops());
}

#[test]
fn measurement_window_changes_series_granularity() {
    let build = |window_ms: u64| {
        let mut b = TopologyBuilder::new(2);
        b.measurement_window(SimDuration::from_millis(window_ms));
        let src = b.node("src", |_| Box::new(CbrSource::new(100.0)));
        let dst = b.node("dst", |_| Box::new(ForwardLogic));
        b.link(src, dst, fast());
        b.flow(FlowSpec::new(vec![src, dst], 1).active(SimTime::ZERO, None));
        let end = SimTime::from_secs(4);
        let mut net = b.build();
        net.run_until(end);
        net.into_report(end)
    };
    let coarse = build(1000);
    let fine = build(250);
    assert!(
        fine.flows[0].goodput.len() >= 4 * coarse.flows[0].goodput.len() - 4,
        "250 ms windows should give ~4x the points: {} vs {}",
        fine.flows[0].goodput.len(),
        coarse.flows[0].goodput.len()
    );
}

#[test]
fn node_names_and_reverse_delays_are_exposed() {
    let mut b = TopologyBuilder::new(1);
    let a = b.node("alpha", |_| Box::new(ForwardLogic));
    let c = b.node("beta", |_| Box::new(ForwardLogic));
    let d = b.node("gamma", |_| Box::new(ForwardLogic));
    b.link(a, c, fast());
    b.link(c, d, slow());
    let f = b.flow(FlowSpec::new(vec![a, c, d], 1).active(SimTime::ZERO, None));
    let net = b.build();
    assert_eq!(net.node_name(a), "alpha");
    assert_eq!(net.node_name(d), "gamma");
    assert_eq!(net.reverse_delay(f, a), SimDuration::ZERO);
    assert_eq!(net.reverse_delay(f, c), SimDuration::from_millis(5));
    assert_eq!(net.reverse_delay(f, d), SimDuration::from_millis(15));
}

#[test]
#[should_panic(expected = "not on the path")]
fn reverse_delay_for_off_path_node_panics() {
    let mut b = TopologyBuilder::new(1);
    let a = b.node("a", |_| Box::new(ForwardLogic));
    let c = b.node("c", |_| Box::new(ForwardLogic));
    let lone = b.node("lone", |_| Box::new(ForwardLogic));
    b.link(a, c, fast());
    let f = b.flow(FlowSpec::new(vec![a, c], 1).active(SimTime::ZERO, None));
    let net = b.build();
    let _ = net.reverse_delay(f, lone);
}

/// Logic that tries to forward on a link it does not own.
#[derive(Debug)]
struct RogueForwarder;

impl RouterLogic for RogueForwarder {
    fn on_flow_start(&mut self, ctx: &mut Ctx<'_>, flow: FlowId) {
        let packet = ctx.new_packet(flow);
        // Link 1 belongs to another node.
        ctx.forward(netsim::LinkId::from_index(1), packet);
    }
}

#[test]
#[should_panic(expected = "does not own")]
fn forwarding_on_foreign_link_panics() {
    let mut b = TopologyBuilder::new(1);
    let a = b.node("a", |_| Box::new(RogueForwarder));
    let c = b.node("c", |_| Box::new(ForwardLogic));
    let d = b.node("d", |_| Box::new(ForwardLogic));
    b.link(a, c, fast()); // link 0, owned by a
    b.link(c, d, fast()); // link 1, owned by c
    b.flow(FlowSpec::new(vec![a, c, d], 1).active(SimTime::ZERO, None));
    let mut net = b.build();
    net.run_until(SimTime::from_secs(1));
}

#[test]
fn multiple_flows_share_one_ingress_node() {
    let mut b = TopologyBuilder::new(6);
    let src = b.node("src", |_| Box::new(CbrSource::new(50.0)));
    let dst1 = b.node("dst1", |_| Box::new(ForwardLogic));
    let dst2 = b.node("dst2", |_| Box::new(ForwardLogic));
    b.link(src, dst1, fast());
    b.link(src, dst2, fast());
    let f1 = b.flow(FlowSpec::new(vec![src, dst1], 1).active(SimTime::ZERO, None));
    let f2 = b.flow(FlowSpec::new(vec![src, dst2], 1).active(SimTime::ZERO, None));
    let end = SimTime::from_secs(4);
    let mut net = b.build();
    net.run_until(end);
    let report = net.into_report(end);
    for f in [f1, f2] {
        let d = report.flow(f).delivered_packets;
        assert!((190..=201).contains(&d), "flow {f} delivered {d}");
    }
}

#[test]
fn one_way_delay_is_visible_to_logic() {
    #[derive(Debug)]
    struct DelayProbe {
        seen: Rc<RefCell<Option<SimDuration>>>,
    }
    impl RouterLogic for DelayProbe {
        fn on_flow_start(&mut self, ctx: &mut Ctx<'_>, flow: FlowId) {
            *self.seen.borrow_mut() = Some(ctx.one_way_delay(flow));
        }
    }
    let seen = Rc::new(RefCell::new(None));
    let handle = seen.clone();
    let mut b = TopologyBuilder::new(1);
    let a = b.node("a", move |_| Box::new(DelayProbe { seen: handle }));
    let c = b.node("c", |_| Box::new(ForwardLogic));
    let d = b.node("d", |_| Box::new(ForwardLogic));
    b.link(a, c, fast());
    b.link(c, d, slow());
    b.flow(FlowSpec::new(vec![a, c, d], 1).active(SimTime::ZERO, None));
    let mut net = b.build();
    net.run_until(SimTime::from_secs(1));
    assert_eq!(*seen.borrow(), Some(SimDuration::from_millis(15)));
    // Keep the node ids alive for readability.
    let _ = (a, c, d);
}

#[test]
fn zero_size_is_rejected_but_small_packets_flow() {
    let mut b = TopologyBuilder::new(3);
    let src = b.node("src", |_| Box::new(CbrSource::new(100.0)));
    let dst = b.node("dst", |_| Box::new(ForwardLogic));
    b.link(src, dst, fast());
    let f = b.flow(
        FlowSpec::new(vec![src, dst], 1)
            .packet_size(40) // ACK-sized
            .active(SimTime::ZERO, None),
    );
    let end = SimTime::from_secs(2);
    let mut net = b.build();
    net.run_until(end);
    let report = net.into_report(end);
    assert!(report.flow(f).delivered_packets >= 195);
    assert_eq!(
        report.flow(f).delivered_bytes,
        report.flow(f).delivered_packets * 40
    );
}

/// The timer wheel resolves 2^24 ticks of 2^17 ns, 36.6 simulated
/// minutes; what lies beyond waits in its overflow heap. Here a workload
/// goes through that heap: the `FlowStop` at 38 min is pushed at build
/// time, from tick 0, so it overflows, and it migrates into the wheel
/// when the clock enters the second 2^24-tick window — as do the
/// emission timers and arrivals of the run's last minutes. Two flows at
/// 2 pkt/s each keep the 40-minute run to about 25 k events.
#[test]
fn a_run_past_the_wheel_horizon_matches_the_heap() {
    let minutes = |m: u64| SimTime::from_secs(60 * m);
    let end = minutes(40);
    let run = |backend| {
        let mut b = TopologyBuilder::new(9);
        b.queue_backend(backend);
        let src = b.node("src", |_| Box::new(CbrSource::new(2.0)));
        let dst = b.node("dst", |_| Box::new(ForwardLogic));
        b.link(src, dst, fast());
        b.flow(FlowSpec::new(vec![src, dst], 1).active(SimTime::ZERO, Some(minutes(38))));
        b.flow(FlowSpec::new(vec![src, dst], 1).active(minutes(1), None));
        let mut net = b.build();
        net.run_until(end);
        net.into_report(end)
    };
    let wheel = run(QueueBackend::Wheel);
    // The far stop fired, and on time: 38 min and 39 min of 2 pkt/s.
    assert_eq!(wheel.flows[0].delivered_packets, 2 * 60 * 38);
    assert_eq!(wheel.flows[1].delivered_packets, 2 * 60 * 39);
    let heap = run(QueueBackend::Heap);
    assert_eq!(format!("{wheel:?}"), format!("{heap:?}"));
}

/// Forwards three packets onto its uplink the moment its flow starts and
/// reads the uplink's queue length back.
struct ReadsItsWrites {
    seen: Rc<RefCell<Option<usize>>>,
}

impl RouterLogic for ReadsItsWrites {
    fn on_flow_start(&mut self, ctx: &mut Ctx<'_>, flow: FlowId) {
        let link = ctx.next_hop(flow).expect("the ingress has an uplink");
        for _ in 0..3 {
            let packet = ctx.new_packet(flow);
            ctx.forward(link, packet);
        }
        *self.seen.borrow_mut() = Some(ctx.link_queue_len(link));
    }
}

/// The one observable ISSUE 23 changed: a `Ctx` effect is applied when it
/// is called, so a callback reads its own writes. While effects were
/// queued until the callback returned, this logic saw an empty link (0).
#[test]
fn a_callback_reads_its_own_writes() {
    let seen = Rc::new(RefCell::new(None));
    let handle = seen.clone();
    let mut b = TopologyBuilder::new(1);
    let a = b.node("a", move |_| Box::new(ReadsItsWrites { seen: handle }));
    let z = b.node("z", |_| Box::new(ForwardLogic));
    b.link(a, z, slow());
    b.flow(FlowSpec::new(vec![a, z], 1).active(SimTime::ZERO, None));
    let end = SimTime::from_secs(1);
    let mut net = b.build();
    net.run_until(end);
    assert_eq!(*seen.borrow(), Some(3), "three forwards, then the read");
    assert_eq!(net.into_report(end).flows[0].delivered_packets, 3);
}

const FOUR_EFFECTS: u32 = 1;
const FOLLOW_UP: u32 = 2;

/// One callback, four effects — forward, control, timer, policy drop —
/// with the control message and the timer both due at once, so the order
/// their canonical keys were minted in is the order they come back.
struct FourEffects;

impl RouterLogic for FourEffects {
    fn on_flow_start(&mut self, ctx: &mut Ctx<'_>, flow: FlowId) {
        ctx.set_timer(
            SimDuration::from_millis(1),
            netsim::TimerKind::with_param(FOUR_EFFECTS, flow.index() as u64),
        );
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, timer: netsim::TimerKind) {
        let flow = FlowId::from_index(timer.param as usize);
        let first = ctx.new_packet(flow);
        if timer.tag == FOLLOW_UP {
            return ctx.emit(first);
        }
        let (second, node) = (ctx.new_packet(flow), ctx.node());
        ctx.emit(first);
        let marker = netsim::Marker {
            flow,
            edge: node,
            normalized_rate: 1.0,
        };
        let feedback = ControlMsg::MarkerFeedback { marker, from: node };
        ctx.send_control(node, SimDuration::ZERO, feedback);
        ctx.set_timer(
            SimDuration::ZERO,
            netsim::TimerKind::with_param(FOLLOW_UP, timer.param),
        );
        ctx.drop_packet(second);
    }
}

#[test]
fn effects_apply_and_key_in_call_order() {
    use netsim::logic::DropReason;
    use netsim::trace::{TraceEvent, Tracer};
    use netsim::{DispatchMode, PacketId};

    #[derive(Default)]
    struct VecTracer(Vec<(SimTime, TraceEvent)>);
    impl Tracer for VecTracer {
        fn record(&mut self, now: SimTime, event: &TraceEvent) {
            self.0.push((now, *event));
        }
    }

    let topology = |mode: DispatchMode| {
        let mut b = TopologyBuilder::new(1);
        b.dispatch_mode(mode);
        let a = b.node("a", |_| Box::new(FourEffects));
        let z = b.node("z", |_| Box::new(ForwardLogic));
        b.link(a, z, fast());
        b.flow(FlowSpec::new(vec![a, z], 1).active(SimTime::ZERO, None));
        b
    };
    let end = SimTime::from_secs(1);
    let serial = |mode: DispatchMode| {
        let tracer = Rc::new(RefCell::new(VecTracer::default()));
        let mut b = topology(mode);
        b.tracer(tracer.clone());
        b.build().run_until(end);
        let log = std::mem::take(&mut tracer.borrow_mut().0);
        log
    };

    let train = serial(DispatchMode::Train);
    let (a, flow) = (netsim::NodeId::from_index(0), FlowId::from_index(0));
    let link = netsim::LinkId::from_index(0);
    // Node 0's mints: `(node + 1) << 40 | counter`.
    let packet = |n: u64| PacketId::from_sequence(1 << 40 | n);
    let control = |is_feedback| TraceEvent::Control {
        node: a,
        flow,
        is_feedback,
    };
    let at_the_callback: Vec<TraceEvent> = train
        .iter()
        .filter(|(t, _)| *t == SimTime::from_millis(1))
        .map(|&(_, event)| event)
        .collect();
    assert_eq!(
        at_the_callback,
        [
            // Applied as called: the forward, then the drop...
            TraceEvent::Enqueue {
                link,
                packet: packet(0),
                flow,
                queue_len: 1
            },
            TraceEvent::Drop {
                node: a,
                packet: packet(1),
                flow,
                reason: DropReason::Policy
            },
            // ...and due in the order they were keyed: the control
            // message, the timer (whose callback forwards), the drop's
            // loss notification.
            control(true),
            TraceEvent::Enqueue {
                link,
                packet: packet(2),
                flow,
                queue_len: 2
            },
            control(false),
        ]
    );
    assert_eq!(
        train,
        serial(DispatchMode::PerPacket),
        "per-packet dispatch"
    );
    for shards in [1, 2] {
        let sharded =
            netsim::shard::run_sharded(|| topology(DispatchMode::Train), shards, end, false, true);
        assert_eq!(train, sharded.trace_log, "{shards} shard(s)");
    }
}
