//! Inter-cloud gateway: the edge-router-to-edge-router interaction the
//! paper defers (§2: "edge router-edge router interaction across
//! neighboring network clouds ... we will only focus on the first
//! component").
//!
//! The Internet in the paper's model is an agglomeration of network
//! clouds, each running Corelite independently. A flow crossing two
//! clouds traverses a **gateway** edge router that is simultaneously the
//! egress edge of the upstream cloud and the ingress edge of the
//! downstream one. [`CoreliteGateway`] implements that node:
//!
//! * packets arriving from the upstream cloud enter a per-flow
//!   store-and-forward buffer (bounded; overflow drops are policy drops),
//! * the gateway re-shapes the flow into the downstream cloud at its own
//!   allowed rate `b_g`, adapting via the shared
//!   [`netsim::agent::SourceAgent`] to the
//!   *downstream* cloud's marker feedback,
//! * markers arriving from upstream are **not** forwarded — each cloud's
//!   marker domain ends at its edge; the gateway injects fresh markers
//!   for the downstream cloud (addressed to itself).
//!
//! End to end, the flow's rate converges to the minimum of its per-cloud
//! weighted fair shares, with the gateway buffer absorbing transient
//! mismatch.

use std::collections::VecDeque;

use sim_core::time::{SimDuration, SimTime};

use netsim::agent::{AgentConfig, SourceAgent};
use netsim::ids::FlowId;
use netsim::logic::{ControlMsg, Ctx, LogicReport, RouterLogic, TimerKind};
use netsim::pacer::Pacer;
use netsim::packet::{Marker, Packet};
use netsim::slab::{ActiveSet, DenseMap};

use crate::config::CoreliteConfig;

const TIMER_EPOCH: u32 = 1;
const TIMER_EMIT: u32 = 2;

/// Idle gap after which a gateway treats a flow as restarted: when no
/// packet of the flow has arrived for this long, the next arrival
/// re-enters slow-start with fresh agent state instead of resuming a
/// stale rate. Mid-path gateways receive no flow activation events, so
/// restart must be inferred from the arrival process; 2 s is several
/// edge epochs, well above in-cloud queueing delays.
pub const IDLE_RESTART: SimDuration = SimDuration::from_secs(2);

#[derive(Debug)]
struct GatewayFlow {
    /// The flow this state belongs to, generation included. A packet
    /// whose id shares the slot but not the generation announces that
    /// the slot was recycled: the state must be rebuilt from scratch
    /// rather than inherited by the new occupant.
    occupant: FlowId,
    agent: SourceAgent,
    buffer: VecDeque<Packet>,
    buffered_peak: usize,
    /// Last data-packet arrival; a gap ≥ [`IDLE_RESTART`] means the flow
    /// restarted (mid-path gateways see no flow activation events).
    last_arrival: SimTime,
    /// Last paced emission, if any; the emission due time is re-derived
    /// from it at the *current* rate when the pacing timer fires.
    last_emit: Option<SimTime>,
}

impl GatewayFlow {
    /// When the next packet is due at the *current* rate: one interval
    /// after the last paced emission (`None` before the first).
    fn next_due(&mut self) -> Option<SimTime> {
        let last = self.last_emit?;
        Some(last.checked_add(self.agent.gap()).unwrap_or(SimTime::MAX))
    }
}

/// Router logic for a Corelite inter-cloud gateway edge, built by
/// [`CoreliteConfig::gateway`].
///
/// Place it at the node where a flow leaves one Corelite cloud and enters
/// the next; see `examples/two_clouds.rs` for a full topology.
#[derive(Debug)]
pub struct CoreliteGateway {
    cfg: CoreliteConfig,
    agent: AgentConfig,
    /// Per-flow reassembly/shaping buffer capacity, packets.
    buffer_capacity: usize,
    flows: DenseMap<FlowId, GatewayFlow>,
    /// Slots holding gateway state; the adaptation epoch walks this
    /// instead of `0..key_bound()`, so under churn its cost tracks the
    /// peak slot count rather than total arrivals.
    occupied: ActiveSet<FlowId>,
    /// Per-slot pacing chains, reset when a slot changes occupant or
    /// its flow stops, so a pending timer from the previous occupant
    /// dies instead of draining the new occupant's buffer.
    pacer: Pacer,
    markers_injected: u64,
    feedback_received: u64,
    buffer_drops: u64,
}

impl CoreliteConfig {
    /// Logic for a Corelite inter-cloud gateway with a per-flow buffer of
    /// `buffer_capacity` packets.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`CoreliteConfig::validate`] or
    /// `buffer_capacity` is zero.
    pub fn gateway(&self, buffer_capacity: usize) -> CoreliteGateway {
        self.validate();
        assert!(buffer_capacity > 0, "gateway buffer must hold packets");
        CoreliteGateway {
            cfg: self.clone(),
            agent: self.agent(),
            buffer_capacity,
            flows: DenseMap::new(),
            occupied: ActiveSet::new(),
            pacer: Pacer::new(TIMER_EMIT),
            markers_injected: 0,
            feedback_received: 0,
            buffer_drops: 0,
        }
    }
}

impl CoreliteGateway {
    fn ensure_emission(&mut self, ctx: &mut Ctx<'_>, flow: FlowId) {
        let s = self.flows.get_mut(&flow).expect("gateway flow exists");
        if s.buffer.is_empty() || !s.agent.is_active() || s.agent.rate() <= 0.0 {
            return;
        }
        let due = s.next_due().unwrap_or(SimTime::ZERO);
        let delay = due.saturating_since(ctx.now());
        self.pacer.arm(ctx, flow.index(), delay);
    }

    fn handle_emit(&mut self, ctx: &mut Ctx<'_>, param: u64) {
        let Some(idx) = self.pacer.fired(param) else {
            return;
        };
        let node = ctx.node();
        let now = ctx.now();
        let slot = FlowId::from_index(idx);
        let Some(s) = self.flows.get_mut(&slot) else {
            return;
        };
        let flow = s.occupant;
        // The timer was armed at the rate current when it was set; an
        // epoch may have changed the rate (or stopped the flow) since.
        // Re-derive the pacing decision at fire time.
        if !s.agent.is_active() || s.agent.rate() <= 0.0 {
            return;
        }
        if let Some(due) = s.next_due().filter(|&due| now < due) {
            // The rate dropped while the timer was in flight: wait out
            // the remainder of the new interval.
            self.pacer.arm(ctx, idx, due.saturating_since(now));
            return;
        }
        let Some(mut packet) = s.buffer.pop_front() else {
            return;
        };
        if s.agent
            .take_marker(self.cfg.marker_spacing(s.agent.weight()))
        {
            packet.marker = Some(Marker {
                flow,
                edge: node,
                normalized_rate: s.agent.normalized_excess(),
            });
            self.markers_injected += 1;
        }
        s.last_emit = Some(now);
        ctx.emit(packet);
        self.ensure_emission(ctx, flow);
    }
}

impl RouterLogic for CoreliteGateway {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.ignore_loss_notifications();
        ctx.set_timer(self.cfg.edge_epoch, TimerKind::tagged(TIMER_EPOCH));
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, mut packet: Packet) {
        let flow = packet.flow;
        // The upstream cloud's marker domain ends here.
        packet.marker = None;
        let now = ctx.now();
        let (weight, min_rate) = {
            let info = ctx.flow(flow);
            (info.weight, info.min_rate)
        };
        // Remaining path RTT, gateway → egress and back.
        let rtt = 2.0
            * (ctx.one_way_delay(flow).as_secs_f64()
                - ctx.reverse_delay_to_ingress(flow).as_secs_f64())
            .max(1e-3);
        // A recycled slot's new occupant must not inherit the previous
        // occupant's agent or buffered packets.
        if self.flows.get(&flow).is_some_and(|s| s.occupant != flow) {
            self.flows.remove(&flow);
            self.pacer.reset(flow.index());
        }
        self.occupied.insert(flow);
        let agent_cfg = &self.agent;
        let s = self.flows.entry_or_insert_with(flow, || {
            let mut agent = SourceAgent::new(weight, min_rate, rtt);
            agent.start(agent_cfg, now, rtt);
            GatewayFlow {
                occupant: flow,
                agent,
                buffer: VecDeque::new(),
                buffered_peak: 0,
                last_arrival: now,
                last_emit: None,
            }
        });
        // A flow reappearing after a stop or a prolonged idle gap has
        // restarted: its stale rate no longer reflects the path, so it
        // begins a fresh slow-start like any new flow.
        let idle = now.saturating_since(s.last_arrival) >= IDLE_RESTART;
        if !s.agent.is_active() || idle {
            s.agent.start(agent_cfg, now, rtt);
            s.last_emit = None;
        }
        s.last_arrival = now;
        if s.buffer.len() >= self.buffer_capacity {
            self.buffer_drops += 1;
            ctx.drop_packet(packet);
            return;
        }
        s.buffer.push_back(packet);
        s.buffered_peak = s.buffered_peak.max(s.buffer.len());
        self.ensure_emission(ctx, flow);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, timer: TimerKind) {
        match timer.tag {
            TIMER_EPOCH => {
                // Occupied-slot scan in ascending slot order — the same
                // visit order as the full `0..key_bound()` scan, but
                // O(occupied slots) under churn. Samples are labelled
                // with the stored occupant id, which is who the state
                // belongs to (the network-side slot may already hold a
                // newer occupant whose packets have not reached us yet).
                for pos in 0..self.occupied.len() {
                    let slot = self.occupied.get(pos);
                    let Some(s) = self.flows.get_mut(&slot) else {
                        continue;
                    };
                    let flow = s.occupant;
                    s.agent.run_epoch(ctx, &self.agent, flow);
                    self.ensure_emission(ctx, flow);
                }
                ctx.set_timer(self.cfg.edge_epoch, TimerKind::tagged(TIMER_EPOCH));
            }
            TIMER_EMIT => self.handle_emit(ctx, timer.param),
            _ => {}
        }
    }

    fn on_control(&mut self, ctx: &mut Ctx<'_>, msg: ControlMsg) {
        if let ControlMsg::MarkerFeedback { marker, from } = msg {
            self.feedback_received += 1;
            if let Some(s) = self.flows.get_mut(&marker.flow) {
                s.agent.on_feedback(&self.agent, from, ctx.now());
            }
        }
        // Losses: ignored, as at any Corelite edge.
    }

    fn on_flow_stop(&mut self, ctx: &mut Ctx<'_>, flow: FlowId) {
        // Delivered when the gateway itself is the flow's ingress; for
        // mid-path gateways the idle-gap check in `on_packet` infers the
        // stop instead. Buffered packets are kept: they drain once the
        // flow reactivates. The reset kills the pending pacing chain
        // either way.
        self.pacer.reset(flow.index());
        if ctx.flow(flow).is_transient() {
            self.flows.remove(&flow);
            self.occupied.remove(flow);
            return;
        }
        if let Some(s) = self.flows.get_mut(&flow) {
            s.agent.stop(ctx.now());
        }
    }

    fn report(&self, _now: SimTime) -> LogicReport {
        let mut report = LogicReport::default();
        for (_, s) in self.flows.iter() {
            report
                .flow_rates
                .insert(s.occupant, s.agent.series().clone());
        }
        report.count("gateway_markers_injected", self.markers_injected as f64);
        report.count("gateway_feedback_received", self.feedback_received as f64);
        report.count("gateway_buffer_drops", self.buffer_drops as f64);
        let peak: usize = self
            .flows
            .values()
            .map(|s| s.buffered_peak)
            .max()
            .unwrap_or(0);
        report.count("gateway_buffer_peak", peak as f64);
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::CoreliteCore;
    use netsim::flow::FlowSpec;
    use netsim::link::LinkSpec;
    use netsim::logic::ForwardLogic;
    use netsim::topology::TopologyBuilder;
    use netsim::{FlowId, SimReport};
    use sim_core::time::SimDuration;

    /// Two clouds in series:
    /// E → A1 → A2 → G → B1 → B2 → X
    /// Cloud A's bottleneck (A1→A2) is `cap_a` pps; cloud B's (B1→B2) is
    /// `cap_b`. The cross-cloud flow is active over `cross`; a competing
    /// local flow loads cloud B throughout.
    fn two_clouds(
        cap_a_bps: u64,
        cap_b_bps: u64,
        cross: &[(SimTime, Option<SimTime>)],
    ) -> SimReport {
        let cfg = CoreliteConfig::default();
        let mut b = TopologyBuilder::new(31);
        let e = b.node("E", |_| Box::new(cfg.edge()));
        let a1 = b.node("A1", |s| Box::new(CoreliteCore::new(s, cfg.clone())));
        let a2 = b.node("A2", |s| Box::new(CoreliteCore::new(s, cfg.clone())));
        let g = b.node("G", |_| Box::new(cfg.gateway(200)));
        let b1 = b.node("B1", |s| Box::new(CoreliteCore::new(s, cfg.clone())));
        let b2 = b.node("B2", |s| Box::new(CoreliteCore::new(s, cfg.clone())));
        let x = b.node("X", |_| Box::new(ForwardLogic));
        let eb = b.node("EB", |_| Box::new(cfg.edge()));
        let xb = b.node("XB", |_| Box::new(ForwardLogic));

        let fast = LinkSpec::new(40_000_000, SimDuration::from_millis(5), 400);
        b.link(e, a1, fast);
        b.link(
            a1,
            a2,
            LinkSpec::new(cap_a_bps, SimDuration::from_millis(10), 40),
        );
        b.link(a2, g, fast);
        b.link(g, b1, fast);
        b.link(
            b1,
            b2,
            LinkSpec::new(cap_b_bps, SimDuration::from_millis(10), 40),
        );
        b.link(b2, x, fast);
        b.link(eb, b1, fast);
        b.link(b2, xb, fast);

        // Flow 0: crosses both clouds through the gateway.
        let mut flow = FlowSpec::new(vec![e, a1, a2, g, b1, b2, x], 1);
        for &(start, stop) in cross {
            flow = flow.active(start, stop);
        }
        b.flow(flow);
        // Flow 1: local to cloud B, same weight.
        b.flow(FlowSpec::new(vec![eb, b1, b2, xb], 1).active(SimTime::ZERO, None));
        let end = SimTime::from_secs(200);
        let mut net = b.build();
        net.run_until(end);
        net.into_report(end)
    }

    const ALWAYS: &[(SimTime, Option<SimTime>)] = &[(SimTime::ZERO, None)];

    #[test]
    fn cross_cloud_flow_is_bottlenecked_by_the_tighter_cloud() {
        // Cloud A: 4 Mbps (500 pps) uncontested; cloud B: 4 Mbps shared
        // 1:1 with the local flow ⇒ the cross-cloud flow should settle
        // near 250 pps, the local flow near 250 pps.
        let report = two_clouds(4_000_000, 4_000_000, ALWAYS);
        let cross = report
            .flow(FlowId::from_index(0))
            .mean_goodput_in(SimTime::from_secs(150), SimTime::from_secs(200))
            .unwrap();
        let local = report
            .flow(FlowId::from_index(1))
            .mean_goodput_in(SimTime::from_secs(150), SimTime::from_secs(200))
            .unwrap();
        assert!(
            (cross - 250.0).abs() / 250.0 < 0.3,
            "cross-cloud flow {cross}, expected ≈250"
        );
        assert!(
            (local - 250.0).abs() / 250.0 < 0.3,
            "local flow {local}, expected ≈250"
        );
    }

    #[test]
    fn gateway_strips_upstream_markers_and_injects_its_own() {
        let report = two_clouds(4_000_000, 4_000_000, ALWAYS);
        assert!(
            report.counter_total("gateway_markers_injected") > 0.0,
            "gateway must mark for the downstream cloud"
        );
        assert!(
            report.counter_total("gateway_feedback_received") > 0.0,
            "downstream cores must feed back to the gateway"
        );
    }

    #[test]
    fn gateway_buffer_absorbs_cloud_mismatch() {
        // Cloud A allows ~500 pps but cloud B only ~250: the gateway
        // buffer bounds the mismatch, and upstream feedback eventually
        // reins flow 0 in at its cloud-A edge too... it does not, in this
        // paper's model — the upstream cloud sees no congestion, so the
        // gateway sheds the excess at its buffer. Verify the shed is
        // bounded by the buffer (no unbounded growth) and the downstream
        // share is honoured.
        let report = two_clouds(8_000_000, 4_000_000, ALWAYS);
        let cross = report
            .flow(FlowId::from_index(0))
            .mean_goodput_in(SimTime::from_secs(150), SimTime::from_secs(200))
            .unwrap();
        assert!(
            (cross - 250.0).abs() / 250.0 < 0.3,
            "cross-cloud flow {cross}, expected ≈250 (cloud B's share)"
        );
        let peak = report.counter_total("gateway_buffer_peak");
        assert!(peak <= 200.0, "gateway buffer bounded: peak {peak}");
    }

    #[test]
    #[should_panic(expected = "buffer")]
    fn zero_buffer_rejected() {
        CoreliteConfig::default().gateway(0);
    }

    #[test]
    fn gateway_restarts_controller_after_idle_gap() {
        // The cross-cloud flow stops at t = 60 s and restarts at
        // t = 100 s — a 40 s gap, far beyond `IDLE_RESTART`. The gateway
        // must re-enter slow-start on the flow's return instead of
        // resuming (and further inflating) the stale pre-stop rate.
        use netsim::ids::NodeId;

        let cross = [
            (SimTime::ZERO, Some(SimTime::from_secs(60))),
            (SimTime::from_secs(100), None),
        ];
        let report = two_clouds(4_000_000, 4_000_000, &cross);

        // The gateway's own rate series for the cross-cloud flow (node G
        // is index 3; `allotted_rate` would return the upstream edge's).
        let g_series = &report.logic[&NodeId::from_index(3)].flow_rates[&FlowId::from_index(0)];
        let at_restart = g_series
            .iter()
            .filter(|(t, _)| *t >= SimTime::from_secs(100) && *t < SimTime::from_secs(110))
            .map(|(_, v)| v)
            .fold(f64::INFINITY, f64::min);
        assert!(
            at_restart < 16.0,
            "gateway rate {at_restart} just after restart, expected a fresh slow-start"
        );
        // And the flow climbs back toward its ~250 pkt/s cloud-B share
        // afterwards (the tail window still includes part of the ramp).
        let cross = report
            .flow(FlowId::from_index(0))
            .mean_goodput_in(SimTime::from_secs(160), SimTime::from_secs(200))
            .unwrap();
        assert!(
            cross > 150.0,
            "cross-cloud flow {cross} after restart, expected recovery toward 250"
        );
    }
}
