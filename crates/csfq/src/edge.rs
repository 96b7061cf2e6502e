//! The CSFQ edge: per-flow rate estimation, packet labelling, and the
//! paper's adaptive source agent.
//!
//! The edge combines two roles from the paper's evaluation setup:
//!
//! * the CSFQ **ingress edge router**, which estimates each flow's rate
//!   (exponential averaging, `K = 100 ms`) and labels every packet with
//!   the normalized estimate `r/w`, and
//! * the adaptive **source agent** (§4): slow-start doubling every second
//!   until the first congestion indication — a packet *loss* for CSFQ —
//!   or `ss_thresh`, then halve and move to linear increase; in the linear
//!   phase, decrease proportionally to the number of losses observed in
//!   the epoch, else increase by `α`.

use sim_core::stats::TimeSeries;
use sim_core::time::{SimDuration, SimTime};

use netsim::ids::FlowId;
use netsim::logic::{ControlMsg, Ctx, LogicReport, RouterLogic, TimerKind};
use netsim::pacer::Pacer;
use netsim::slab::{ActiveSet, DenseMap};

use crate::config::CsfqConfig;
use crate::estimator::RateEstimator;

const TIMER_EPOCH: u32 = 1;
const TIMER_EMIT: u32 = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    SlowStart,
    Linear,
}

#[derive(Debug)]
struct FlowState {
    weight: u32,
    active: bool,
    /// The agent's sending rate, packets per second.
    rate: f64,
    phase: Phase,
    last_double: SimTime,
    losses_this_epoch: u32,
    estimator: RateEstimator,
    series: TimeSeries,
}

impl FlowState {
    fn new(weight: u32, k_flow: SimDuration) -> Self {
        FlowState {
            weight,
            active: false,
            rate: 0.0,
            phase: Phase::Linear,
            last_double: SimTime::ZERO,
            losses_this_epoch: 0,
            estimator: RateEstimator::new(k_flow),
            series: TimeSeries::new(),
        }
    }
}

/// Router logic for a CSFQ (ingress) edge router plus the paper's source
/// agents. See the [crate docs](crate) for an example.
#[derive(Debug)]
pub struct CsfqEdge {
    cfg: CsfqConfig,
    flows: DenseMap<FlowId, FlowState>,
    /// Flows currently started here; the adaptation epoch walks this
    /// instead of every slot ever occupied (O(active) under churn).
    active: ActiveSet<FlowId>,
    /// Per-slot emission chains, reset on every start and stop.
    pacer: Pacer,
    losses_seen: u64,
    packets_labelled: u64,
}

impl CsfqEdge {
    /// Creates edge logic with the given configuration (the component
    /// seed is unused: the edge draws no randomness).
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`CsfqConfig::validate`].
    pub fn new(_seed: u64, cfg: CsfqConfig) -> Self {
        cfg.validate();
        CsfqEdge {
            cfg,
            flows: DenseMap::new(),
            active: ActiveSet::new(),
            pacer: Pacer::new(TIMER_EMIT),
            losses_seen: 0,
            packets_labelled: 0,
        }
    }

    /// The agent's current sending rate for `flow`, if started here.
    pub fn sending_rate(&self, flow: FlowId) -> Option<f64> {
        self.flows.get(&flow).map(|s| s.rate)
    }

    fn record(&mut self, flow: FlowId, now: SimTime) {
        let s = self.flows.get_mut(&flow).expect("recorded flow exists");
        let value = if s.active { s.rate } else { 0.0 };
        s.series.push(now, value);
    }

    fn ensure_emission(&mut self, ctx: &mut Ctx<'_>, flow: FlowId) {
        let s = self.flows.get(&flow).expect("flow state exists");
        if s.active && s.rate > 0.0 {
            let gap = SimDuration::from_secs_f64(1.0 / s.rate);
            self.pacer.arm(ctx, flow.index(), gap);
        }
    }

    fn handle_emit(&mut self, ctx: &mut Ctx<'_>, param: u64) {
        let Some(idx) = self.pacer.fired(param) else {
            return;
        };
        // The slot's current occupant armed this chain; resolve its full
        // id so the packet is attributed to it.
        let flow = ctx.flow(FlowId::from_index(idx)).id;
        let Some(s) = self.flows.get_mut(&flow) else {
            return;
        };
        if !s.active || s.rate <= 0.0 {
            return;
        }
        let now = ctx.now();
        let estimated = s.estimator.on_packet(now);
        let label = estimated / s.weight as f64;
        let packet = ctx.new_packet(flow).with_label(label);
        ctx.emit(packet);
        self.packets_labelled += 1;
        self.ensure_emission(ctx, flow);
    }

    fn adapt_all(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        // Only started flows adapt. Skipped flows are observably
        // identical to the full scan this replaces: `on_flow_stop`
        // clears `losses_this_epoch`, losses cannot accumulate while a
        // flow is inactive, and inactive flows neither record samples
        // nor arm emission.
        for pos in 0..self.active.len() {
            let flow = ctx.flow(self.active.get(pos)).id;
            let alpha = self.cfg.alpha;
            let beta = self.cfg.beta;
            let Some(s) = self.flows.get_mut(&flow) else {
                continue;
            };
            if !s.active {
                s.losses_this_epoch = 0;
                continue;
            }
            let m = s.losses_this_epoch;
            if m > 0 {
                s.rate = (s.rate - beta * m as f64).max(0.0);
            } else {
                match s.phase {
                    Phase::SlowStart => {
                        if now.saturating_since(s.last_double) >= self.cfg.slow_start_interval {
                            s.rate *= 2.0;
                            s.last_double = now;
                            let thresh = if self.cfg.ss_thresh_per_weight {
                                self.cfg.ss_thresh * s.weight as f64
                            } else {
                                self.cfg.ss_thresh
                            };
                            if s.rate > thresh {
                                s.rate /= 2.0;
                                s.phase = Phase::Linear;
                            }
                        }
                    }
                    Phase::Linear => {
                        s.rate += if self.cfg.alpha_per_weight {
                            alpha * s.weight as f64
                        } else {
                            alpha
                        };
                    }
                }
            }
            s.losses_this_epoch = 0;
            self.record(flow, now);
            self.ensure_emission(ctx, flow);
        }
    }
}

impl RouterLogic for CsfqEdge {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(self.cfg.edge_epoch, TimerKind::tagged(TIMER_EPOCH));
    }

    fn on_flow_start(&mut self, ctx: &mut Ctx<'_>, flow: FlowId) {
        let now = ctx.now();
        let info = ctx.flow(flow);
        let (weight, transient) = (info.weight, info.is_transient());
        let k_flow = self.cfg.k_flow;
        // Invalidate any chain left over from a previous activation or
        // a recycled slot's previous occupant.
        self.pacer.reset(flow.index());
        self.active.insert(flow);
        if transient {
            // Churn flows always begin from scratch, even if the slot's
            // previous occupant's stop was swallowed by a pause.
            self.flows.insert(flow, FlowState::new(weight, k_flow));
        }
        let s = self
            .flows
            .entry_or_insert_with(flow, || FlowState::new(weight, k_flow));
        s.active = true;
        s.rate = self.cfg.initial_rate;
        s.phase = Phase::SlowStart;
        s.last_double = now;
        s.losses_this_epoch = 0;
        s.estimator = RateEstimator::new(k_flow);
        self.record(flow, now);
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
            self.flows.remove(&flow);
            return;
        }
        if let Some(s) = self.flows.get_mut(&flow) {
            s.active = false;
            s.losses_this_epoch = 0;
        }
        self.record(flow, now);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, timer: TimerKind) {
        match timer.tag {
            TIMER_EPOCH => {
                self.adapt_all(ctx);
                ctx.set_timer(self.cfg.edge_epoch, TimerKind::tagged(TIMER_EPOCH));
            }
            TIMER_EMIT => self.handle_emit(ctx, timer.param),
            _ => {}
        }
    }

    fn on_control(&mut self, ctx: &mut Ctx<'_>, msg: ControlMsg) {
        if let ControlMsg::Loss { flow, .. } = msg {
            self.losses_seen += 1;
            let now = ctx.now();
            let Some(s) = self.flows.get_mut(&flow) else {
                return;
            };
            if !s.active {
                return;
            }
            if s.phase == Phase::SlowStart {
                // First congestion indication ends slow-start with a
                // halving; the loss is consumed by the halving.
                s.phase = Phase::Linear;
                s.rate /= 2.0;
                self.record(flow, now);
            } else {
                s.losses_this_epoch += 1;
            }
        }
    }

    fn report(&self, _now: SimTime) -> LogicReport {
        let mut report = LogicReport::default();
        for (flow, s) in self.flows.iter() {
            report.flow_rates.insert(flow, s.series.clone());
        }
        report.count("losses_seen", self.losses_seen as f64);
        report.count("packets_labelled", self.packets_labelled as f64);
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::CsfqCore;
    use netsim::flow::FlowSpec;
    use netsim::link::LinkSpec;
    use netsim::logic::ForwardLogic;
    use netsim::topology::TopologyBuilder;
    use netsim::SimReport;

    /// Two flows (weights `w1`, `w2`) share one 500 pkt/s bottleneck.
    fn bottleneck_scenario(w1: u32, w2: u32, end: SimTime) -> SimReport {
        let cfg = CsfqConfig::default();
        let mut b = TopologyBuilder::new(23);
        let e1 = b.node("edge1", |s| Box::new(CsfqEdge::new(s, cfg.clone())));
        let e2 = b.node("edge2", |s| Box::new(CsfqEdge::new(s, cfg.clone())));
        let core = b.node("core", |s| Box::new(CsfqCore::new(s, cfg.clone())));
        let sink = b.node("sink", |_| Box::new(ForwardLogic));
        let access = LinkSpec::new(40_000_000, SimDuration::from_millis(1), 400);
        b.link(e1, core, access);
        b.link(e2, core, access);
        b.link(
            core,
            sink,
            LinkSpec::new(4_000_000, SimDuration::from_millis(10), 40),
        );
        b.flow(FlowSpec::new(vec![e1, core, sink], w1).active(SimTime::ZERO, None));
        b.flow(FlowSpec::new(vec![e2, core, sink], w2).active(SimTime::ZERO, None));
        let mut net = b.build();
        net.run_until(end);
        net.into_report(end)
    }

    #[test]
    fn csfq_converges_to_weighted_goodput() {
        // Shares are 167/333 pkt/s; the flat +1/epoch increase needs
        // ~150 s to carry the agents there from their slow-start exits.
        let end = SimTime::from_secs(260);
        let report = bottleneck_scenario(1, 2, end);
        let from = SimTime::from_secs(200);
        let g1 = report
            .flow(FlowId::from_index(0))
            .mean_goodput_in(from, end)
            .unwrap();
        let g2 = report
            .flow(FlowId::from_index(1))
            .mean_goodput_in(from, end)
            .unwrap();
        let ratio = g2 / g1;
        assert!(
            (ratio - 2.0).abs() < 0.5,
            "goodput ratio {ratio}, want ≈ 2 (g1 {g1}, g2 {g2})"
        );
        // The bottleneck stays busy.
        let total = g1 + g2;
        assert!(total > 400.0, "aggregate goodput {total}");
    }

    #[test]
    fn csfq_drops_packets_under_congestion() {
        // Unlike Corelite, CSFQ signals congestion through losses. The
        // two agents reach the 500 pkt/s link capacity after ~110 s.
        let end = SimTime::from_secs(200);
        let report = bottleneck_scenario(1, 1, end);
        assert!(
            report.total_drops() > 0,
            "CSFQ must drop packets to signal congestion"
        );
    }

    #[test]
    fn labels_reflect_normalized_rates() {
        let end = SimTime::from_secs(20);
        let report = bottleneck_scenario(1, 2, end);
        assert!(report.counter_total("packets_labelled") > 0.0);
    }
}
