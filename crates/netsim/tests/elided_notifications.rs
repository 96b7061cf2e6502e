//! Elided loss notifications (DESIGN.md §9): a logic that declares it
//! ignores `ControlMsg::Loss` no longer has the notifications of drops
//! on its own uplink queued, and nothing else about the run may change.
//! Every test runs the same topology twice — once with a *listening*
//! ingress, which is the engine exactly as it was before elision
//! existed, once with a *deaf* one — and compares what is left behind.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use netsim::flow::FlowSpec;
use netsim::link::LinkSpec;
use netsim::logic::{ControlMsg, Ctx, ForwardLogic, RouterLogic, TimerKind};
use netsim::pacer::Pacer;
use netsim::topology::TopologyBuilder;
use netsim::trace::CountingTracer;
use netsim::{FaultPlan, FlowId, SimReport};
use sim_core::time::{SimDuration, SimTime};

const EMIT: u32 = 1;

/// A 1000 pkt/s source that counts the loss notifications it is handed
/// and, when `deaf`, declares that it ignores them.
struct Source {
    deaf: bool,
    /// Packets sent back to back when a flow starts (inside the
    /// replicated `FlowStart` event, not a node event).
    start_burst: u32,
    heard: Rc<Cell<u64>>,
    pacer: Pacer,
}

impl RouterLogic for Source {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        if self.deaf {
            ctx.ignore_loss_notifications();
        }
    }

    fn on_flow_start(&mut self, ctx: &mut Ctx<'_>, flow: FlowId) {
        for _ in 0..self.start_burst {
            let packet = ctx.new_packet(flow);
            ctx.emit(packet);
        }
        self.pacer.reset(flow.index());
        self.pacer
            .arm(ctx, flow.index(), SimDuration::from_millis(1));
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, timer: TimerKind) {
        let fired = self.pacer.fired(timer.param);
        let Some(flow) = fired.and_then(|slot| ctx.sending_flow(slot)) else {
            return;
        };
        let packet = ctx.new_packet(flow);
        ctx.emit(packet);
        self.pacer
            .arm(ctx, flow.index(), SimDuration::from_millis(1));
    }

    fn on_control(&mut self, _ctx: &mut Ctx<'_>, msg: ControlMsg) {
        if matches!(msg, ControlMsg::Loss { .. }) {
            self.heard.set(self.heard.get() + 1);
        }
    }
}

struct Outcome {
    report: SimReport,
    /// Loss notifications that reached the source's `on_control`.
    heard: u64,
    trace: CountingTracer,
}

impl Outcome {
    /// The report with the one field that is *meant* to differ blanked.
    fn report_but_for_the_elision_count(&self) -> String {
        let mut report = self.report.clone();
        report.elided_notifications = 0;
        format!("{report:?}")
    }
}

/// src --(500 pkt/s, 10 deep)--> mid --(250 pkt/s, 10 deep)--> dst: half
/// the source's packets die on its own uplink (zero reverse delay), half
/// of the rest at `mid` (10 ms away from the source).
fn run(deaf: bool, start_burst: u32, plan: FaultPlan) -> Outcome {
    let heard = Rc::new(Cell::new(0));
    let tracer = Rc::new(RefCell::new(CountingTracer::default()));
    let mut b = TopologyBuilder::new(17);
    b.tracer(tracer.clone());
    b.faults(plan);
    let handle = heard.clone();
    let src = b.node("src", move |_| {
        Box::new(Source {
            deaf,
            start_burst,
            heard: handle,
            pacer: Pacer::new(EMIT),
        })
    });
    let mid = b.node("mid", |_| Box::new(ForwardLogic));
    let dst = b.node("dst", |_| Box::new(ForwardLogic));
    b.link(
        src,
        mid,
        LinkSpec::new(4_000_000, SimDuration::from_millis(10), 10),
    );
    b.link(
        mid,
        dst,
        LinkSpec::new(2_000_000, SimDuration::from_millis(10), 10),
    );
    b.flow(FlowSpec::new(vec![src, mid, dst], 1).active(SimTime::ZERO, None));
    let end = SimTime::from_secs(3);
    let mut net = b.build();
    net.run_until(end);
    let report = net.into_report(end);
    let trace = *tracer.borrow();
    Outcome {
        report,
        heard: heard.get(),
        trace,
    }
}

#[test]
fn a_listening_ingress_hears_every_drop_through_the_queue() {
    let run = run(false, 0, FaultPlan::new());
    let drops = run.report.total_drops();
    assert!(
        run.report.links[0].dropped_packets > 1_000,
        "uplink overload"
    );
    assert!(
        run.report.links[1].dropped_packets > 100,
        "second bottleneck"
    );
    assert_eq!(run.report.elided_notifications, 0);
    // The last few notifications from `mid` are still 10 ms out at the
    // horizon; everything from the source's own uplink has arrived.
    assert!(drops - run.heard <= 5, "heard {} of {drops}", run.heard);
    assert!(run.heard >= run.report.links[0].dropped_packets);
}

#[test]
fn a_deaf_ingress_skips_the_queue_for_its_own_uplink_and_nothing_else_moves() {
    let listening = run(false, 0, FaultPlan::new());
    let deaf = run(true, 0, FaultPlan::new());
    // Exactly the uplink's drops are elided; `mid`'s travel 10 ms and are
    // delivered (and ignored) as before.
    assert_eq!(
        deaf.report.elided_notifications,
        deaf.report.links[0].dropped_packets
    );
    assert_eq!(
        deaf.heard + deaf.report.elided_notifications,
        listening.heard
    );
    assert_eq!(
        deaf.report_but_for_the_elision_count(),
        listening.report_but_for_the_elision_count()
    );
    // Same records, `Control` among them: only their order within one
    // nanosecond of one node may differ.
    assert_eq!(deaf.trace, listening.trace);
    assert_eq!(deaf.trace.controls, listening.heard);
}

/// Fault draws come before the elision decision and in the same order,
/// so control loss, delay and jitter hit the same messages either way.
#[test]
fn fault_draws_stay_aligned_between_deaf_and_listening_edges() {
    let lossy = FaultPlan::new().control_loss(0.3);
    let lossy_and_late = FaultPlan::new()
        .control_loss(0.3)
        .control_delay(SimDuration::from_millis(2), SimDuration::from_millis(7));
    for (plan, elides) in [(lossy, true), (lossy_and_late, false)] {
        let listening = run(false, 0, plan.clone());
        let deaf = run(true, 0, plan);
        assert_eq!(
            deaf.report_but_for_the_elision_count(),
            listening.report_but_for_the_elision_count()
        );
        assert_eq!(deaf.trace, listening.trace);
        assert!(deaf.trace.faults > 500, "the plan bites");
        // A delayed notification travels, so it is queued even when the
        // receiver is deaf.
        assert_eq!(deaf.report.elided_notifications > 0, elides);
        assert_eq!(
            deaf.heard + deaf.report.elided_notifications,
            listening.heard
        );
    }
}

/// A drop inside a replicated lifecycle event (a burst sent from
/// `on_flow_start`) is not elided: GLOBAL events of the instant may
/// still be pending, so the notification keeps its place in the queue.
#[test]
fn drops_inside_a_lifecycle_event_are_queued() {
    let listening = run(false, 40, FaultPlan::new());
    let deaf = run(true, 40, FaultPlan::new());
    let burst_drops = 40 - 10; // the uplink holds 10, the one in service included
    assert_eq!(
        deaf.report.links[0].dropped_packets - deaf.report.elided_notifications,
        burst_drops
    );
    assert_eq!(
        deaf.report_but_for_the_elision_count(),
        listening.report_but_for_the_elision_count()
    );
    assert_eq!(deaf.trace, listening.trace);
}
