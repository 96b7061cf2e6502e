//! Pluggable per-node forwarding behaviour.
//!
//! A node's behaviour — shaping, marking, congestion detection, feedback —
//! is expressed by implementing [`RouterLogic`]. The network invokes the
//! logic on packet arrivals, timer expiries, control-message deliveries and
//! flow activation changes; the logic responds through the provided
//! [`Ctx`], whose methods take effect as they are called: a forwarded
//! packet is on its link, a timer in the event queue, before the method
//! returns. A callback therefore reads its own writes —
//! [`Ctx::link_queue_len`] after a [`Ctx::forward`] counts that packet —
//! and every state change still passes the monitors and the tracer on
//! its way (DESIGN.md §9, "Effects in place").

// A panic a million events into a run must name the invariant it broke.
#![deny(clippy::unwrap_used)]

use std::collections::BTreeMap;

use sim_core::rng::DetRng;
use sim_core::stats::TimeSeries;
use sim_core::time::{SimDuration, SimTime};

use crate::flow::FlowInfo;
use crate::ids::{FlowId, LinkId, NodeId, PacketId};
use crate::link::LinkSpec;
use crate::network::Engine;
use crate::pacer::Pacer;
use crate::packet::{Marker, Packet};
use crate::slab::DenseMap;
use crate::telemetry::Sample;

/// An opaque timer tag interpreted by the logic that scheduled it.
///
/// `tag` identifies the timer's purpose (e.g. "adaptation epoch"); `param`
/// carries an argument such as a flow index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerKind {
    /// Logic-defined discriminant.
    pub tag: u32,
    /// Logic-defined argument (e.g. a flow index).
    pub param: u64,
}

impl TimerKind {
    /// Creates a timer kind with no argument.
    pub const fn tagged(tag: u32) -> Self {
        TimerKind { tag, param: 0 }
    }

    /// Creates a timer kind carrying an argument.
    pub const fn with_param(tag: u32, param: u64) -> Self {
        TimerKind { tag, param }
    }
}

/// Out-of-band control messages.
///
/// Control messages model signalling that travels the reverse path — they
/// experience propagation delay but never queueing (the reverse direction
/// is uncontended in all of the paper's scenarios; see DESIGN.md §2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ControlMsg {
    /// A Corelite marker sent back by a core router upon incipient
    /// congestion, addressed to the edge router that generated it.
    MarkerFeedback {
        /// The returned marker.
        marker: Marker,
        /// The core router that selected the marker (edges react to the
        /// *maximum* per-core count, so the origin matters).
        from: NodeId,
    },
    /// Notification that a packet of `flow` was dropped at node `at`
    /// (CSFQ's congestion indication; Corelite edges ignore these).
    Loss {
        /// The flow whose packet was lost.
        flow: FlowId,
        /// The node at which the drop occurred.
        at: NodeId,
    },
    /// A cumulative acknowledgement returned by the egress ack sink to
    /// the ingress of an ack-clocked (go-back-N) flow. Travels the
    /// reverse path like all control traffic: full reverse-path
    /// propagation delay, no queueing.
    Ack {
        /// The acknowledged flow.
        flow: FlowId,
        /// Next expected sequence number: everything below it has been
        /// delivered in order.
        cum_seq: u64,
        /// Echo of the triggering packet's `sent_at` timestamp — the
        /// sender derives an RTT sample from it.
        echo: SimTime,
        /// Whether the triggering packet was a retransmission (Karn's
        /// rule: such acks must not produce RTT samples).
        retx: bool,
    },
}

impl ControlMsg {
    /// The flow the message concerns.
    pub fn flow(&self) -> FlowId {
        match *self {
            ControlMsg::MarkerFeedback { marker, .. } => marker.flow,
            ControlMsg::Loss { flow, .. } | ControlMsg::Ack { flow, .. } => flow,
        }
    }
}

/// Why a packet was dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DropReason {
    /// Tail drop: the FIFO queue was full.
    Tail,
    /// Dropped by router logic (CSFQ's probabilistic dropper).
    Policy,
    /// Lost to an injected fault (e.g. a flapped link); see
    /// [`FaultPlan`](crate::fault::FaultPlan).
    Fault,
}

/// Per-flow and per-node measurements exported by router logic at the end
/// of a run (e.g. Corelite's allotted-rate series `b_g(f)`).
#[derive(Debug, Clone, Default)]
pub struct LogicReport {
    /// Per-flow time series of the logic's principal rate variable
    /// (allotted rate for Corelite/CSFQ edges), in packets per second.
    pub flow_rates: DenseMap<FlowId, TimeSeries>,
    /// Named scalar counters (markers injected, feedback sent, ...),
    /// keyed by the name the logic gives them: no copy of it is made.
    pub counters: BTreeMap<&'static str, f64>,
}

impl LogicReport {
    /// Sets the counter `name`.
    pub fn count(&mut self, name: &'static str, value: f64) {
        self.counters.insert(name, value);
    }
}

/// The environment handed to router logic callbacks: the engine as seen
/// from one node.
///
/// Reads see the network as it is now, including what this callback has
/// already done; effects are applied in call order, when called.
pub struct Ctx<'a> {
    engine: &'a mut Engine,
    node: NodeId,
    outgoing: &'a [LinkId],
}

impl<'a> Ctx<'a> {
    pub(crate) fn new(engine: &'a mut Engine, node: NodeId, outgoing: &'a [LinkId]) -> Self {
        Ctx {
            engine,
            node,
            outgoing,
        }
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.engine.now
    }

    /// The node whose logic is being invoked.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// All flows in the network.
    pub fn flows(&self) -> &[FlowInfo] {
        &self.engine.flows
    }

    /// Looks up a flow.
    ///
    /// # Panics
    ///
    /// Panics if `flow` does not exist.
    pub fn flow(&self, flow: FlowId) -> &FlowInfo {
        &self.engine.flows[flow.index()]
    }

    /// The occupant of flow-table slot `slot`, if it enters the network
    /// at this node and its schedule has it active now — what a
    /// schedule-driven source asks when the slot's emission timer fires.
    pub fn sending_flow(&self, slot: usize) -> Option<FlowId> {
        let info = &self.engine.flows[slot];
        (info.ingress() == self.node && info.is_active_at(self.engine.now)).then_some(info.id)
    }

    /// The outgoing link `flow` takes from this node, or `None` if this
    /// node is the flow's egress.
    pub fn next_hop(&self, flow: FlowId) -> Option<LinkId> {
        self.flow(flow).next_hop(self.node)
    }

    /// Outgoing links of this node, in creation order (precomputed at
    /// build time; no allocation). The iterator borrows the network, not
    /// the `Ctx`, so it can be held across `&mut self` calls.
    pub fn outgoing_links(&self) -> std::iter::Copied<std::slice::Iter<'a, LinkId>> {
        self.outgoing.iter().copied()
    }

    /// Static parameters of `link`.
    pub fn link_spec(&self, link: LinkId) -> &LinkSpec {
        self.engine.links[link.index()].spec()
    }

    /// Instantaneous queue occupancy of `link` in packets (as of the
    /// current event's timestamp, packets this callback has already
    /// forwarded onto it included).
    pub fn link_queue_len(&self, link: LinkId) -> usize {
        self.engine.links[link.index()].queue_len(self.engine.now)
    }

    /// Closes and returns the time-weighted average queue occupancy of
    /// `link` since the previous call — the paper's `q_avg` over one
    /// congestion epoch.
    pub fn take_link_queue_average(&mut self, link: LinkId) -> f64 {
        self.engine.links[link.index()].take_queue_average(self.engine.now)
    }

    /// Propagation delay along the reverse path from this node back to
    /// `flow`'s ingress edge router.
    ///
    /// # Panics
    ///
    /// Panics if this node is not on `flow`'s path.
    pub fn reverse_delay_to_ingress(&self, flow: FlowId) -> SimDuration {
        self.flow(flow).reverse_delay_from(self.node)
    }

    /// Total propagation delay along `flow`'s path from ingress to
    /// egress (no queueing) — the base for a round-trip-time estimate.
    pub fn one_way_delay(&self, flow: FlowId) -> SimDuration {
        self.flow(flow).one_way_delay()
    }

    /// Allocates a fresh data packet for `flow`, stamped with the current
    /// time and the flow's configured packet size. Ids are node-packed
    /// (each node counts its own mints only), so the id stream is
    /// independent of what any other node does.
    pub fn new_packet(&mut self, flow: FlowId) -> Packet {
        let counter = &mut self.engine.packet_counters[self.node.index()];
        let id = PacketId::for_node(self.node, *counter);
        *counter += 1;
        let info = self.flow(flow);
        Packet::data(id, flow, info.packet_size, self.engine.now)
    }

    /// Offers `packet` to `link` (which must originate at this node): it
    /// is queued and its arrival scheduled, or tail-dropped, now.
    pub fn forward(&mut self, link: LinkId, packet: Packet) {
        self.engine.forward(self.node, link, packet);
    }

    /// Emits `packet` toward `flow`'s next hop from this node.
    ///
    /// # Panics
    ///
    /// Panics if this node is the flow's egress.
    pub fn emit(&mut self, packet: Packet) {
        let link = self
            .next_hop(packet.flow)
            .unwrap_or_else(|| panic!("{} has no next hop at {}", packet.flow, self.node));
        self.forward(link, packet);
    }

    /// Drops `packet` deliberately (counted as a policy drop).
    pub fn drop_packet(&mut self, packet: Packet) {
        self.engine
            .record_drop(self.node, &packet, DropReason::Policy);
    }

    /// Sends `msg` to `to`, delivered after `delay`.
    pub fn send_control(&mut self, to: NodeId, delay: SimDuration, msg: ControlMsg) {
        self.engine.push_control(self.node, to, delay, msg);
    }

    /// Sends `marker` back to the edge router that generated it, delayed by
    /// the reverse-path propagation delay from this node (paper §2 step 2).
    pub fn send_marker_feedback(&mut self, marker: Marker) {
        let delay = self.reverse_delay_to_ingress(marker.flow);
        let from = self.node;
        self.send_control(
            marker.edge,
            delay,
            ControlMsg::MarkerFeedback { marker, from },
        );
    }

    /// Schedules `timer` to fire on this node after `delay`.
    pub fn set_timer(&mut self, delay: SimDuration, timer: TimerKind) {
        self.engine.push_timer(self.node, delay, timer);
    }

    /// Declares that this node's `on_control` does nothing with a
    /// [`ControlMsg::Loss`] — call it from `on_start`. The network may
    /// then account a loss notification this node sends *itself* with no
    /// delay (a drop on its own uplink) without queueing it: it is still
    /// keyed, counted in `events_processed` and traced, and shows up in
    /// [`SimReport::elided_notifications`](crate::SimReport::elided_notifications)
    /// (DESIGN.md §9, "Elided notifications"). Notifications that travel
    /// — from another node, or delayed by a fault — are delivered as
    /// ever, so the promise is only that they are ignored.
    pub fn ignore_loss_notifications(&mut self) {
        self.engine.ignores_loss[self.node.index()] = true;
    }

    /// Publishes a control-plane sample to the installed probe, if any.
    ///
    /// With no probe installed this is a single branch; with one
    /// installed it is a `RefCell` borrow and a `Copy` — no allocation
    /// either way (the zero-alloc contract, see
    /// [`telemetry`](crate::telemetry)).
    pub fn publish(&self, sample: Sample) {
        if let Some(p) = &self.engine.probe {
            p.borrow_mut().record(self.engine.now, self.node, &sample);
        }
    }
}

/// Behaviour of a node.
///
/// Implementations are single-threaded and owned by the network; all
/// callbacks receive a [`Ctx`] through which every side effect flows.
/// Default implementations ignore the event.
pub trait RouterLogic {
    /// Invoked once at simulation start; schedule initial timers here.
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let _ = ctx;
    }

    /// A packet has arrived at this node and needs a forwarding decision.
    ///
    /// The default forwards along the flow's path. (Packets arriving at a
    /// flow's egress node are delivered by the network and never reach the
    /// logic.)
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, packet: Packet) {
        ctx.emit(packet);
    }

    /// A timer scheduled by this logic has expired.
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, timer: TimerKind) {
        let _ = (ctx, timer);
    }

    /// A control message addressed to this node has arrived.
    fn on_control(&mut self, ctx: &mut Ctx<'_>, msg: ControlMsg) {
        let _ = (ctx, msg);
    }

    /// A flow whose ingress is this node has become active.
    fn on_flow_start(&mut self, ctx: &mut Ctx<'_>, flow: FlowId) {
        let _ = (ctx, flow);
    }

    /// A flow whose ingress is this node has stopped.
    fn on_flow_stop(&mut self, ctx: &mut Ctx<'_>, flow: FlowId) {
        let _ = (ctx, flow);
    }

    /// Exports end-of-run measurements (called once when the report is
    /// assembled).
    fn report(&self, now: SimTime) -> LogicReport {
        let _ = now;
        LogicReport::default()
    }
}

/// Minimal transit logic: forwards every packet along its flow's path.
#[derive(Debug, Clone, Copy, Default)]
pub struct ForwardLogic;

impl RouterLogic for ForwardLogic {}

/// A Poisson traffic source for testing and sensitivity ablations: emits
/// packets with exponentially distributed gaps at a fixed mean rate for
/// every active flow whose ingress is this node.
#[derive(Debug)]
pub struct PoissonSource {
    rng: DetRng,
    rate_pps: f64,
    pacer: Pacer,
    emitted: u64,
}

const POISSON_EMIT: u32 = 1;

impl PoissonSource {
    /// Creates a source with mean rate `rate_pps` packets per second.
    ///
    /// # Panics
    ///
    /// Panics if `rate_pps` is not strictly positive.
    pub fn new(seed: u64, rate_pps: f64) -> Self {
        assert!(rate_pps > 0.0, "source rate must be positive");
        PoissonSource {
            rng: DetRng::new(seed),
            rate_pps,
            pacer: Pacer::new(POISSON_EMIT),
            emitted: 0,
        }
    }

    fn schedule_next(&mut self, ctx: &mut Ctx<'_>, slot: usize) {
        let gap = self.rng.exp(self.rate_pps);
        self.pacer.arm(ctx, slot, SimDuration::from_secs_f64(gap));
    }
}

impl RouterLogic for PoissonSource {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.ignore_loss_notifications();
    }

    fn on_flow_start(&mut self, ctx: &mut Ctx<'_>, flow: FlowId) {
        // A timer still pending from an earlier activation (a restart
        // inside one gap) or a recycled slot's previous occupant dies
        // here; the chain itself ends when a fire finds the flow stopped.
        self.pacer.reset(flow.index());
        self.schedule_next(ctx, flow.index());
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, timer: TimerKind) {
        let fired = self.pacer.fired(timer.param);
        let Some(flow) = fired.and_then(|slot| ctx.sending_flow(slot)) else {
            return;
        };
        let packet = ctx.new_packet(flow);
        ctx.emit(packet);
        self.emitted += 1;
        self.schedule_next(ctx, flow.index());
    }

    fn report(&self, _now: SimTime) -> LogicReport {
        let mut report = LogicReport::default();
        report.count("emitted_packets", self.emitted as f64);
        report
    }
}

/// A constant-rate source: emits packets with fixed gaps at `rate_pps` for
/// every active flow whose ingress is this node. Useful as an unmanaged
/// (non-adaptive) load generator.
#[derive(Debug)]
pub struct CbrSource {
    /// Inter-packet gap, fixed for the source's lifetime; precomputed
    /// so the emission path skips the float-to-duration conversion.
    gap: SimDuration,
    pacer: Pacer,
    emitted: u64,
}

const CBR_EMIT: u32 = 2;

impl CbrSource {
    /// Creates a source with fixed rate `rate_pps` packets per second.
    ///
    /// # Panics
    ///
    /// Panics if `rate_pps` is not strictly positive.
    pub fn new(rate_pps: f64) -> Self {
        assert!(rate_pps > 0.0, "source rate must be positive");
        CbrSource {
            gap: SimDuration::from_secs_f64(1.0 / rate_pps),
            pacer: Pacer::new(CBR_EMIT),
            emitted: 0,
        }
    }
}

impl RouterLogic for CbrSource {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.ignore_loss_notifications();
    }

    fn on_flow_start(&mut self, ctx: &mut Ctx<'_>, flow: FlowId) {
        // See `PoissonSource`: a restart kills the previous chain.
        self.pacer.reset(flow.index());
        self.pacer.arm(ctx, flow.index(), SimDuration::ZERO);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, timer: TimerKind) {
        let fired = self.pacer.fired(timer.param);
        let Some(flow) = fired.and_then(|slot| ctx.sending_flow(slot)) else {
            return;
        };
        let packet = ctx.new_packet(flow);
        ctx.emit(packet);
        self.emitted += 1;
        self.pacer.arm(ctx, flow.index(), self.gap);
    }

    fn report(&self, _now: SimTime) -> LogicReport {
        let mut report = LogicReport::default();
        report.count("emitted_packets", self.emitted as f64);
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timer_kind_constructors() {
        assert_eq!(TimerKind::tagged(3), TimerKind { tag: 3, param: 0 });
        assert_eq!(TimerKind::with_param(3, 9), TimerKind { tag: 3, param: 9 });
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn poisson_rejects_zero_rate() {
        PoissonSource::new(0, 0.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn cbr_rejects_zero_rate() {
        CbrSource::new(0.0);
    }
}
