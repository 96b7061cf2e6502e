//! The Corelite edge router: shaping, marker injection, and rate
//! adaptation (§2, steps 1 and 3).
//!
//! For every flow entering the network at this node, the edge
//!
//! * **shapes** the flow to its allowed rate `b_g(f)` (the traffic sources
//!   in the paper's evaluation are always backlogged, so the edge emits
//!   packets at exactly `b_g`),
//! * **marks**: piggybacks a marker carrying the normalized
//!   *out-of-profile* rate `r_n = (b_g − min)/w` once per `N_w = K1·w`
//!   out-of-profile packets, so the flow's marker rate equals its
//!   normalized excess rate (for best-effort flows, `min = 0` and this is
//!   exactly the paper's "marker every `N_w` data packets" with
//!   `r_n = b_g/w`). Contracted (in-profile) traffic is never marked and
//!   therefore never throttled,
//! * **adapts** once per epoch via the shared
//!   [`crate::controller::RateController`]: `+α` on
//!   silence, throttle on the **maximum** per-core marker count, §4's
//!   slow-start at startup.
//!
//! Packet losses (CSFQ's feedback signal) are deliberately ignored:
//! *"edges react only to congestion indications"* (§4.3). The edge
//! declares as much at start, so the network need not queue the
//! notifications of drops on the edge's own uplink.

use sim_core::stats::TimeSeries;
use sim_core::time::{SimDuration, SimTime};

use netsim::ids::FlowId;
use netsim::logic::{ControlMsg, Ctx, LogicReport, RouterLogic, TimerKind};
use netsim::pacer::Pacer;
use netsim::packet::Marker;
use netsim::slab::{ActiveSet, DenseMap};

use crate::config::CoreliteConfig;
use crate::controller::RateController;

const TIMER_EPOCH: u32 = 1;
const TIMER_EMIT: u32 = 2;

#[derive(Debug)]
struct FlowState {
    controller: RateController,
    /// One-entry memo of `1 / rate` as a duration: the controller's
    /// rate only changes on epoch boundaries and feedback, while the
    /// conversion runs once per emitted packet. Bit-identical on hits.
    gap_cache: (f64, SimDuration),
}

impl FlowState {
    fn new(controller: RateController) -> Self {
        FlowState {
            controller,
            gap_cache: (0.0, SimDuration::ZERO),
        }
    }

    /// Inter-packet gap at the controller's current rate.
    fn gap(&mut self) -> SimDuration {
        let rate = self.controller.rate();
        if self.gap_cache.0 != rate {
            self.gap_cache = (rate, SimDuration::from_secs_f64(1.0 / rate));
        }
        self.gap_cache.1
    }
}

/// Router logic for a Corelite (ingress) edge router.
///
/// Install one per edge node via
/// [`TopologyBuilder::node`](netsim::topology::TopologyBuilder::node); it
/// manages every flow whose path begins at that node. See the
/// [crate docs](crate) for a complete example.
#[derive(Debug)]
pub struct CoreliteEdge {
    cfg: CoreliteConfig,
    /// Per-flow state, slab-indexed by `FlowId::index()` (absent for
    /// flows not managed by this edge). Flow ids are small dense
    /// integers, so direct indexing beats a map lookup on the
    /// per-packet path.
    flows: DenseMap<FlowId, FlowState>,
    /// Flows currently started at this edge. Epoch scans walk this
    /// instead of every slot ever occupied, so an epoch costs O(active)
    /// rather than O(all flows ever) under churn.
    active: ActiveSet<FlowId>,
    /// Per-slot emission chains, reset on every start and stop.
    pacer: Pacer,
    /// Series buffers of departed churn flows, for the next arrivals to
    /// record into: a flow's first sample then allocates nothing.
    spare_series: Vec<TimeSeries>,
    markers_injected: u64,
    feedback_received: u64,
}

impl CoreliteEdge {
    /// Creates edge logic with the given configuration (the topology
    /// builder's component seed is unused: the edge draws no randomness).
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`CoreliteConfig::validate`].
    pub fn new(_seed: u64, cfg: CoreliteConfig) -> Self {
        cfg.validate();
        CoreliteEdge {
            cfg,
            flows: DenseMap::new(),
            active: ActiveSet::new(),
            pacer: Pacer::new(TIMER_EMIT),
            spare_series: Vec::new(),
            markers_injected: 0,
            feedback_received: 0,
        }
    }

    /// The allowed rate `b_g(f)` the edge currently enforces for `flow`,
    /// or `None` if the flow has never started here.
    pub fn allowed_rate(&self, flow: FlowId) -> Option<f64> {
        self.flows.get(&flow).map(|s| s.controller.rate())
    }

    fn ensure_emission(&mut self, ctx: &mut Ctx<'_>, flow: FlowId) {
        let s = self.flows.get_mut(&flow).expect("flow state exists");
        if s.controller.is_active() && s.controller.rate() > 0.0 {
            let gap = s.gap();
            self.pacer.arm(ctx, flow.index(), gap);
        }
    }

    fn handle_emit(&mut self, ctx: &mut Ctx<'_>, param: u64) {
        let Some(idx) = self.pacer.fired(param) else {
            return;
        };
        // The slot's current occupant armed this chain; resolve its full
        // id (generation included) so emitted packets are attributed to
        // it.
        let flow = ctx.flow(FlowId::from_index(idx)).id;
        let node = ctx.node();
        // Split borrow: `s` holds `self.flows` while the counter and
        // config fields stay independently accessible.
        let Some(s) = self.flows.get_mut(&flow) else {
            return;
        };
        if !s.controller.is_active() || s.controller.rate() <= 0.0 {
            return;
        }
        let mut packet = ctx.new_packet(flow);
        if s.controller.take_marker(&self.cfg) {
            packet = packet.with_marker(Marker {
                flow,
                edge: node,
                normalized_rate: s.controller.normalized_excess(),
            });
            self.markers_injected += 1;
        }
        ctx.emit(packet);
        let gap = s.gap();
        self.pacer.arm(ctx, idx, gap);
    }
}

impl RouterLogic for CoreliteEdge {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.ignore_loss_notifications();
        ctx.set_timer(self.cfg.edge_epoch, TimerKind::tagged(TIMER_EPOCH));
    }

    fn on_flow_start(&mut self, ctx: &mut Ctx<'_>, flow: FlowId) {
        let now = ctx.now();
        let info = ctx.flow(flow);
        let (weight, min_rate, transient) = (info.weight, info.min_rate, info.is_transient());
        let rtt = 2.0 * ctx.one_way_delay(flow).as_secs_f64();
        // Any chain left over from a previous activation (or a recycled
        // slot's previous occupant) is dead as of this start.
        self.pacer.reset(flow.index());
        self.active.insert(flow);
        if transient {
            // A recycled slot may still hold the previous occupant's
            // state if its stop was swallowed (e.g. by a pause): churn
            // flows always begin from scratch.
            let series = self.spare_series.pop().unwrap_or_default();
            let controller = RateController::new(weight, min_rate, rtt).recording_into(series);
            self.flows.insert(flow, FlowState::new(controller));
        }
        let s = self.flows.entry_or_insert_with(flow, || {
            FlowState::new(RateController::new(weight, min_rate, rtt))
        });
        // A restarting flow begins a fresh slow-start, like a new arrival.
        s.controller.start(&self.cfg, now, rtt);
        self.ensure_emission(ctx, flow);
    }

    fn on_flow_stop(&mut self, ctx: &mut Ctx<'_>, flow: FlowId) {
        let now = ctx.now();
        // Kill the outstanding emission chain: a pending `TIMER_EMIT`
        // must not survive the stop and leak into a later activation.
        self.pacer.reset(flow.index());
        self.active.remove(flow);
        if ctx.flow(flow).is_transient() {
            // Departed churn flows never restart; drop their state so
            // edge memory tracks the active set, not total arrivals.
            if let Some(s) = self.flows.remove(&flow) {
                self.spare_series.push(s.controller.into_series());
            }
        } else if let Some(s) = self.flows.get_mut(&flow) {
            s.controller.stop(now);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, timer: TimerKind) {
        match timer.tag {
            TIMER_EPOCH => {
                // Walk only the started flows (position-indexed so the
                // body can borrow `self` mutably). Ascending slot order
                // matches the full scan this replaces, and skipped
                // flows are observably identical: `epoch_update` is a
                // no-op for inactive controllers and their samples were
                // never published.
                for pos in 0..self.active.len() {
                    // The occupant's full id (membership is per slot).
                    let flow = ctx.flow(self.active.get(pos)).id;
                    let Some(s) = self.flows.get_mut(&flow) else {
                        continue;
                    };
                    s.controller.run_epoch(ctx, &self.cfg, flow);
                    self.ensure_emission(ctx, flow);
                }
                ctx.set_timer(self.cfg.edge_epoch, TimerKind::tagged(TIMER_EPOCH));
            }
            TIMER_EMIT => self.handle_emit(ctx, timer.param),
            _ => {}
        }
    }

    fn on_control(&mut self, ctx: &mut Ctx<'_>, msg: ControlMsg) {
        match msg {
            ControlMsg::MarkerFeedback { marker, from } => {
                self.feedback_received += 1;
                let now = ctx.now();
                // Disjoint field borrows: the config rides alongside the
                // mutable flow-state access.
                let cfg = &self.cfg;
                if let Some(s) = self.flows.get_mut(&marker.flow) {
                    s.controller.on_feedback(cfg, from, now);
                }
            }
            // Corelite performs loss-free rate adaptation; edges react
            // only to marker feedback (§4.3), and say so in `on_start`.
            // Acks belong to the go-back-N transport
            // (`netsim::transport::GbnSender`); the open-loop LIMD edge
            // never receives them.
            ControlMsg::Loss { .. } | ControlMsg::Ack { .. } => {}
        }
    }

    fn report(&self, _now: SimTime) -> LogicReport {
        let mut report = LogicReport::default();
        for (flow, s) in self.flows.iter() {
            report
                .flow_rates
                .insert(flow, s.controller.series().clone());
        }
        report.count("markers_injected", self.markers_injected as f64);
        report.count("feedback_received", self.feedback_received as f64);
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::flow::FlowSpec;
    use netsim::link::LinkSpec;
    use netsim::logic::ForwardLogic;
    use netsim::topology::TopologyBuilder;
    use netsim::trace::{TraceEvent, Tracer};
    use netsim::SimReport;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// One edge, one sink, an uncongested 10 Mbps link, one flow.
    fn uncongested(weight: u32, horizon: SimTime) -> SimReport {
        let cfg = CoreliteConfig::default();
        let mut b = TopologyBuilder::new(5);
        let edge = b.node("edge", |s| Box::new(CoreliteEdge::new(s, cfg.clone())));
        let sink = b.node("sink", |_| Box::new(ForwardLogic));
        b.link(
            edge,
            sink,
            LinkSpec::new(10_000_000, SimDuration::from_millis(10), 100),
        );
        b.flow(FlowSpec::new(vec![edge, sink], weight).active(SimTime::ZERO, None));
        let mut net = b.build();
        net.run_until(horizon);
        net.into_report(horizon)
    }

    #[test]
    fn uncongested_flow_ramps_without_feedback() {
        let end = SimTime::from_secs(30);
        let report = uncongested(1, end);
        let rate = report
            .allotted_rate(FlowId::from_index(0))
            .unwrap()
            .last_value()
            .unwrap();
        // Slow-start 1→2→4→...→32 exits at ~5 s (halve to 16), then
        // linear +1 per 500 ms epoch = +2/s: after 30 s ≈ 16 + 50 = 66.
        assert!(rate > 50.0, "rate {rate} should keep climbing unimpeded");
        assert_eq!(report.total_drops(), 0);
        assert_eq!(report.counter_total("feedback_received"), 0.0);
    }

    #[test]
    fn marker_rate_reflects_normalized_rate() {
        // Weight 2 ⇒ one marker per 2 data packets (K1 = 1).
        let end = SimTime::from_secs(20);
        let report = uncongested(2, end);
        let markers = report.counter_total("markers_injected");
        let sent = report.flow(FlowId::from_index(0)).delivered_packets as f64;
        let ratio = markers / sent;
        assert!(
            (ratio - 0.5).abs() < 0.05,
            "marker/packet ratio {ratio}, want ≈ 1/2"
        );
    }

    #[test]
    fn slow_start_caps_at_ss_thresh() {
        let end = SimTime::from_secs(6);
        let report = uncongested(1, end);
        let series = report.allotted_rate(FlowId::from_index(0)).unwrap();
        let peak = series.iter().map(|(_, v)| v).fold(0.0f64, f64::max);
        // Doubling runs 1→2→4→8→16→32; the next doubling to 64 trips the
        // halving back to 32.
        assert!(peak <= 64.0, "peak {peak}");
        let last = series.last_value().unwrap();
        assert!(last >= 16.0, "rate after slow-start {last}");
    }

    #[test]
    fn flow_stop_silences_emission() {
        let cfg = CoreliteConfig::default();
        let mut b = TopologyBuilder::new(9);
        let edge = b.node("edge", |s| Box::new(CoreliteEdge::new(s, cfg.clone())));
        let sink = b.node("sink", |_| Box::new(ForwardLogic));
        b.link(
            edge,
            sink,
            LinkSpec::new(10_000_000, SimDuration::from_millis(10), 100),
        );
        let f = b.flow(
            FlowSpec::new(vec![edge, sink], 1).active(SimTime::ZERO, Some(SimTime::from_secs(5))),
        );
        let end = SimTime::from_secs(10);
        let mut net = b.build();
        net.run_until(end);
        let report = net.into_report(end);
        let late = report
            .flow(f)
            .mean_goodput_in(SimTime::from_secs(6), end)
            .unwrap();
        assert!(late < 1.0, "goodput after stop {late}");
        // Series records a zero after the stop.
        let series = report.allotted_rate(f).unwrap();
        assert_eq!(series.value_at(SimTime::from_secs(6)), Some(0.0));
    }

    /// Regression (flow-lifecycle bugfix): a pending `TIMER_EMIT` used
    /// to survive `on_flow_stop` — its pending flag stayed set, so a
    /// restart before the stale timer fired rode the old chain instead
    /// of arming its own, and its first packet left at the *old*
    /// chain's instant rather than one fresh slow-start gap after the
    /// restart. Stops now reset the slot's pacer (DESIGN.md "Paced
    /// emission").
    #[test]
    fn stale_emission_chain_dies_on_stop() {
        struct Deliveries {
            log: Rc<RefCell<Vec<SimTime>>>,
        }
        impl Tracer for Deliveries {
            fn record(&mut self, now: SimTime, event: &TraceEvent) {
                if matches!(event, TraceEvent::Deliver { .. }) {
                    self.log.borrow_mut().push(now);
                }
            }
        }
        // Default config: initial rate 1 pps, so the chain armed at the
        // t=0 start is due at t=1 s — after the stop at 0.45 s and the
        // restart at 0.55 s.
        let cfg = CoreliteConfig::default();
        let mut b = TopologyBuilder::new(3);
        let edge = b.node("edge", |s| Box::new(CoreliteEdge::new(s, cfg.clone())));
        let sink = b.node("sink", |_| Box::new(ForwardLogic));
        b.link(
            edge,
            sink,
            LinkSpec::new(10_000_000, SimDuration::from_millis(10), 100),
        );
        b.flow(
            FlowSpec::new(vec![edge, sink], 1)
                .active(SimTime::ZERO, Some(SimTime::from_millis(450)))
                .active(SimTime::from_millis(550), Some(SimTime::from_secs(3))),
        );
        let log = Rc::new(RefCell::new(Vec::new()));
        b.tracer(Rc::new(RefCell::new(Deliveries { log: log.clone() })));
        let mut net = b.build();
        net.run_until(SimTime::from_secs(3));
        drop(net);
        let log = log.borrow();
        let first = log.first().copied().expect("the restarted flow emits");
        // Fresh chain: first emission at 0.55 + 1.0 = 1.55 s (plus the
        // pipe). The stale chain would have emitted at t=1.0 s.
        assert!(
            first >= SimTime::from_millis(1550),
            "first delivery at {first:?} rode the stale pre-stop emission chain"
        );
    }
}
