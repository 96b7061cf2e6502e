//! Micro-flow aggregation at the ingress edge (§2: an edge-to-edge flow
//! "can potentially comprise of several end to end micro flows"; §6 lists
//! "aggregation of flows at the edge router" as ongoing work).
//!
//! [`AggregatingEdge`] treats all micro-flows sharing an egress edge as
//! **one** edge-to-edge aggregate: a single rate class (weight), a single
//! allowed rate `b_g`, a single marker stream — so the core-stateless
//! fairness machinery sees exactly one flow per edge pair, however many
//! end-to-end conversations ride inside it. The aggregate's allowance is
//! divided round-robin among the currently active members.
//!
//! This is the scaling story of the Diffserv-style edge: per-flow state
//! lives only at the edge, and even there it is per *aggregate*, not per
//! TCP connection.

use sim_core::time::SimTime;

use netsim::agent::{AgentConfig, SourceAgent};
use netsim::ids::{FlowId, NodeId};
use netsim::logic::{ControlMsg, Ctx, LogicReport, RouterLogic, TimerKind};
use netsim::pacer::Pacer;
use netsim::packet::Marker;
use netsim::slab::{ActiveSet, DenseMap};

use crate::config::CoreliteConfig;

const TIMER_EPOCH: u32 = 1;
const TIMER_EMIT: u32 = 2;

#[derive(Debug)]
struct Group {
    agent: SourceAgent,
    /// Currently active member micro-flows, emission round-robin order.
    members: Vec<FlowId>,
    next_member: usize,
}

/// Router logic for an ingress edge that aggregates all micro-flows
/// toward the same egress into one rate-managed edge-to-edge flow of the
/// configured `group_weight`, built by
/// [`CoreliteConfig::aggregating_edge`].
#[derive(Debug)]
pub struct AggregatingEdge {
    cfg: CoreliteConfig,
    agent: AgentConfig,
    group_weight: u32,
    /// One group per egress edge router.
    groups: DenseMap<NodeId, Group>,
    /// Groups that currently have members; the epoch scan walks this
    /// instead of every group slot ever created, so churn across many
    /// egresses keeps the tick O(populated groups).
    populated: ActiveSet<NodeId>,
    flow_group: DenseMap<FlowId, NodeId>,
    /// Per-group emission chains (slot = egress index), reset when a
    /// group gains its first member or loses its last.
    pacer: Pacer,
    markers_injected: u64,
}

impl CoreliteConfig {
    /// Logic for an aggregating ingress edge: every group formed at it
    /// gets rate weight `group_weight` (its rate class), regardless of
    /// how many micro-flows it contains.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`CoreliteConfig::validate`] or
    /// `group_weight` is zero.
    pub fn aggregating_edge(&self, group_weight: u32) -> AggregatingEdge {
        self.validate();
        assert!(group_weight > 0, "aggregate weight must be positive");
        AggregatingEdge {
            cfg: self.clone(),
            agent: self.agent(),
            group_weight,
            groups: DenseMap::new(),
            populated: ActiveSet::new(),
            flow_group: DenseMap::new(),
            pacer: Pacer::new(TIMER_EMIT),
            markers_injected: 0,
        }
    }
}

impl AggregatingEdge {
    fn ensure_emission(&mut self, ctx: &mut Ctx<'_>, egress: NodeId) {
        let g = self.groups.get_mut(&egress).expect("group exists");
        if !g.members.is_empty() && g.agent.rate() > 0.0 {
            let gap = g.agent.gap();
            self.pacer.arm(ctx, egress.index(), gap);
        }
    }

    fn handle_emit(&mut self, ctx: &mut Ctx<'_>, param: u64) {
        let Some(idx) = self.pacer.fired(param) else {
            return;
        };
        let egress = NodeId::from_index(idx);
        let node = ctx.node();
        let spacing = self.cfg.marker_spacing(self.group_weight);
        let Some(g) = self.groups.get_mut(&egress) else {
            return;
        };
        if g.members.is_empty() || g.agent.rate() <= 0.0 {
            return;
        }
        // Round-robin the aggregate's allowance across its members.
        g.next_member %= g.members.len();
        let flow = g.members[g.next_member];
        g.next_member = (g.next_member + 1) % g.members.len();
        let mut packet = ctx.new_packet(flow);
        if g.agent.take_marker(spacing) {
            packet = packet.with_marker(Marker {
                flow,
                edge: node,
                normalized_rate: g.agent.normalized_excess(),
            });
            self.markers_injected += 1;
        }
        ctx.emit(packet);
        self.ensure_emission(ctx, egress);
    }
}

impl RouterLogic for AggregatingEdge {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.ignore_loss_notifications();
        ctx.set_timer(self.cfg.edge_epoch, TimerKind::tagged(TIMER_EPOCH));
    }

    fn on_flow_start(&mut self, ctx: &mut Ctx<'_>, flow: FlowId) {
        let now = ctx.now();
        let egress = ctx.flow(flow).egress();
        let rtt = 2.0 * ctx.one_way_delay(flow).as_secs_f64();
        let weight = self.group_weight;
        let g = self.groups.entry_or_insert_with(egress, || Group {
            agent: SourceAgent::new(weight, 0.0, rtt),
            members: Vec::new(),
            next_member: 0,
        });
        if g.members.is_empty() {
            // First member (re)activates the aggregate: fresh slow-start
            // on a fresh emission chain.
            g.agent.start(&self.agent, now, rtt);
            self.pacer.reset(egress.index());
        }
        if !g.members.contains(&flow) {
            g.members.push(flow);
        }
        self.populated.insert(egress);
        self.flow_group.insert(flow, egress);
        self.ensure_emission(ctx, egress);
    }

    fn on_flow_stop(&mut self, ctx: &mut Ctx<'_>, flow: FlowId) {
        let Some(&egress) = self.flow_group.get(&flow) else {
            return;
        };
        if ctx.flow(flow).is_transient() {
            // A departed churn flow never restarts; forget its group
            // mapping so a recycled slot's next occupant cannot inherit
            // it (its own start will re-map the slot).
            self.flow_group.remove(&flow);
        }
        let g = self.groups.get_mut(&egress).expect("group exists");
        g.members.retain(|&f| f != flow);
        if g.members.is_empty() {
            // Last member gone: the aggregate itself stops. It stays in
            // `populated` deliberately: the agent records its stop
            // sample on the next epoch tick exactly as the full scan
            // did, and the set is bounded by the number of egresses.
            g.agent.stop(ctx.now());
            self.pacer.reset(egress.index());
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, timer: TimerKind) {
        match timer.tag {
            TIMER_EPOCH => {
                let now = ctx.now();
                // Populated-group scan in ascending slot order (the
                // same visit order as the full scan this replaces);
                // member-less groups' agents are inactive, so
                // `epoch_update` was a no-op for them anyway.
                for pos in 0..self.populated.len() {
                    let egress = self.populated.get(pos);
                    let Some(g) = self.groups.get_mut(&egress) else {
                        continue;
                    };
                    g.agent.epoch_update(&self.agent, now);
                    self.ensure_emission(ctx, egress);
                }
                ctx.set_timer(self.cfg.edge_epoch, TimerKind::tagged(TIMER_EPOCH));
            }
            TIMER_EMIT => self.handle_emit(ctx, timer.param),
            _ => {}
        }
    }

    fn on_control(&mut self, ctx: &mut Ctx<'_>, msg: ControlMsg) {
        if let ControlMsg::MarkerFeedback { marker, from } = msg {
            if let Some(egress) = self.flow_group.get(&marker.flow) {
                if let Some(g) = self.groups.get_mut(egress) {
                    g.agent.on_feedback(&self.agent, from, ctx.now());
                }
            }
        }
    }

    fn report(&self, _now: SimTime) -> LogicReport {
        let mut report = LogicReport::default();
        // The aggregate's allotted-rate series is attributed to every
        // member (each member's share is rate / members).
        for (flow, egress) in self.flow_group.iter() {
            if let Some(g) = self.groups.get(egress) {
                report.flow_rates.insert(flow, g.agent.series().clone());
            }
        }
        report.count("aggregate_markers_injected", self.markers_injected as f64);
        report.count("aggregate_groups", self.groups.len() as f64);
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

    /// Edge A aggregates `micro` micro-flows (group weight 1); edge B
    /// runs one plain flow of weight 1. Both share a 500 pkt/s link.
    fn aggregate_vs_single(micro: usize) -> SimReport {
        let cfg = CoreliteConfig::default();
        let mut b = TopologyBuilder::new(47);
        let agg = b.node("agg-edge", |_| Box::new(cfg.aggregating_edge(1)));
        let plain = b.node("plain-edge", |_| Box::new(cfg.edge()));
        let core = b.node("core", |s| Box::new(CoreliteCore::new(s, cfg.clone())));
        let sink = b.node("sink", |_| Box::new(ForwardLogic));
        let access = LinkSpec::new(40_000_000, SimDuration::from_millis(1), 400);
        b.link(agg, core, access);
        b.link(plain, core, access);
        b.link(
            core,
            sink,
            LinkSpec::new(4_000_000, SimDuration::from_millis(10), 40),
        );
        for _ in 0..micro {
            b.flow(FlowSpec::new(vec![agg, core, sink], 1).active(SimTime::ZERO, None));
        }
        b.flow(FlowSpec::new(vec![plain, core, sink], 1).active(SimTime::ZERO, None));
        let end = SimTime::from_secs(260);
        let mut net = b.build();
        net.run_until(end);
        net.into_report(end)
    }

    #[test]
    fn aggregate_competes_as_one_flow_regardless_of_member_count() {
        // Three micro-flows in a weight-1 aggregate vs one weight-1 flow:
        // the AGGREGATE gets the weight-1 share (≈250), so each micro-flow
        // gets ≈83 — not 3/4 of the link.
        let report = aggregate_vs_single(3);
        let from = SimTime::from_secs(200);
        let to = SimTime::from_secs(260);
        let micro_goodputs: Vec<f64> = (0..3)
            .map(|i| {
                report
                    .flow(FlowId::from_index(i))
                    .mean_goodput_in(from, to)
                    .unwrap_or(0.0)
            })
            .collect();
        let aggregate_total: f64 = micro_goodputs.iter().sum();
        let single = report
            .flow(FlowId::from_index(3))
            .mean_goodput_in(from, to)
            .unwrap_or(0.0);
        assert!(
            (aggregate_total - 250.0).abs() / 250.0 < 0.3,
            "aggregate total {aggregate_total}, expected ≈250 ({micro_goodputs:?})"
        );
        assert!(
            (single - 250.0).abs() / 250.0 < 0.3,
            "single flow {single}, expected ≈250"
        );
        // Round-robin shares the aggregate evenly among members.
        for g in &micro_goodputs {
            assert!(
                (g - aggregate_total / 3.0).abs() / (aggregate_total / 3.0) < 0.15,
                "uneven member split: {micro_goodputs:?}"
            );
        }
    }

    #[test]
    fn aggregate_survives_member_churn() {
        // A member leaving must not stall the aggregate's emission.
        let cfg = CoreliteConfig::default();
        let mut b = TopologyBuilder::new(48);
        let agg = b.node("agg-edge", |_| Box::new(cfg.aggregating_edge(1)));
        let sink = b.node("sink", |_| Box::new(ForwardLogic));
        b.link(
            agg,
            sink,
            LinkSpec::new(10_000_000, SimDuration::from_millis(10), 100),
        );
        b.flow(
            FlowSpec::new(vec![agg, sink], 1).active(SimTime::ZERO, Some(SimTime::from_secs(20))),
        );
        let f2 = b.flow(FlowSpec::new(vec![agg, sink], 1).active(SimTime::ZERO, None));
        let end = SimTime::from_secs(40);
        let mut net = b.build();
        net.run_until(end);
        let report = net.into_report(end);
        let late = report
            .flow(f2)
            .mean_goodput_in(SimTime::from_secs(25), end)
            .unwrap();
        assert!(
            late > 20.0,
            "surviving member should inherit the full aggregate rate: {late}"
        );
        assert_eq!(report.counter_total("aggregate_groups"), 1.0);
    }

    #[test]
    #[should_panic(expected = "weight")]
    fn zero_group_weight_rejected() {
        CoreliteConfig::default().aggregating_edge(0);
    }
}
