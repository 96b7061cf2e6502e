//! Closed-loop transports: a pluggable congestion-control trait and an
//! ack-clocked go-back-N sender.
//!
//! The paper's evaluation drives every flow open loop: the ingress edge
//! shapes a backlogged source to the allowed rate `b_g` and packets are
//! simply counted at the egress. This module adds the other half of a
//! real deployment — senders that are *clocked by acknowledgements*:
//!
//! * [`CongestionControl`] — the window-adaptation strategy, decoupled
//!   from reliability. Implemented here by [`Reno`] (slow start +
//!   AIMD); the `corelite` crate adapts the paper's
//!   [`SourceAgent`](crate::agent::SourceAgent) to this trait
//!   (`corelite::cc::CoreliteCc`) so ack-clocked flows participate
//!   in marker-feedback fairness.
//! * [`GbnSender`] — a cumulative-ack go-back-N sender installed as
//!   [`RouterLogic`] on the ingress node. It emits sequenced packets
//!   ([`Packet::seq`](crate::packet::Packet::seq)), which the engine's
//!   egress ack sink acknowledges cumulatively along the reverse path
//!   (`ControlMsg::Ack`); the sender maintains SRTT/RTTVAR
//!   ([`RttEstimator`]), retransmits the outstanding window on RTO or
//!   triple duplicate ack, and re-pumps whenever the window opens.
//!
//! Everything here is deterministic by construction: the sender holds no
//! RNG, every state transition is driven by an engine event (ack
//! control message, timer, lifecycle), and both timer chains ride one
//! [`Pacer`] generation per slot, so recycled flow slots never inherit a
//! predecessor's clock.

use std::collections::VecDeque;

use sim_core::stats::TimeSeries;
use sim_core::time::{SimDuration, SimTime};

use crate::flow::FlowInfo;
use crate::ids::FlowId;
use crate::logic::{ControlMsg, Ctx, LogicReport, RouterLogic, TimerKind};
use crate::pacer::Pacer;
use crate::packet::Marker;
use crate::slab::DenseMap;
use crate::telemetry::Sample;

/// Timer tag for the go-back-N retransmission timeout chain. High,
/// distinctive values so a mux hosting this sender next to another logic
/// (e.g. a Corelite edge, whose tags are small integers) can route by tag
/// without collisions.
pub const TIMER_GBN_RTO: u32 = 0x4742_4e01;
/// Timer tag for the congestion-control epoch tick chain.
pub const TIMER_GBN_TICK: u32 = 0x4742_4e02;

/// Jacobson/Karels round-trip estimation with Karn-compatible sampling
/// and exponential RTO backoff.
///
/// The caller is responsible for Karn's rule: samples must only be fed
/// for segments that were *not* retransmitted (the egress echoes the
/// retransmit flag in each ack precisely so the sender can tell).
#[derive(Debug, Clone)]
pub struct RttEstimator {
    srtt: f64,
    rttvar: f64,
    rto: f64,
    min_rto: f64,
    max_rto: f64,
}

impl RttEstimator {
    /// Seeds the estimator from the path's base (propagation-only) RTT.
    pub fn new(base_rtt: f64, min_rto: f64, max_rto: f64) -> Self {
        let srtt = base_rtt.max(1e-6);
        let rttvar = srtt / 2.0;
        RttEstimator {
            srtt,
            rttvar,
            rto: (srtt + 4.0 * rttvar).clamp(min_rto, max_rto),
            min_rto,
            max_rto,
        }
    }

    /// Feeds one round-trip sample (seconds): `rttvar ← ¾·rttvar +
    /// ¼·|srtt − s|`, `srtt ← ⅞·srtt + ⅛·s`, `rto = srtt + 4·rttvar`
    /// (clamped). Also clears any accumulated backoff.
    pub fn on_sample(&mut self, sample: f64) {
        let s = sample.max(1e-9);
        self.rttvar = 0.75 * self.rttvar + 0.25 * (self.srtt - s).abs();
        self.srtt = 0.875 * self.srtt + 0.125 * s;
        self.rto = (self.srtt + 4.0 * self.rttvar).clamp(self.min_rto, self.max_rto);
    }

    /// Doubles the RTO after a timeout (capped at the configured max).
    pub fn backoff(&mut self) {
        self.rto = (self.rto * 2.0).min(self.max_rto);
    }

    /// The smoothed round-trip estimate, seconds.
    pub fn srtt(&self) -> f64 {
        self.srtt
    }

    /// The current retransmission timeout.
    pub fn rto(&self) -> SimDuration {
        SimDuration::from_secs_f64(self.rto)
    }
}

/// A window-based congestion-control strategy, decoupled from the
/// reliability machinery that hosts it.
///
/// The [`GbnSender`] owns reliability (sequencing, acks, retransmission,
/// the RTT estimator) and calls into this trait at the obvious points;
/// the implementation owns only the window. Signals are already
/// deduplicated by the sender (at most one per round trip, via the
/// recovery guard), so implementations may react to every `on_signal`
/// unconditionally.
pub trait CongestionControl: std::fmt::Debug {
    /// The flow (re)started; `base_rtt` is the path's propagation-only
    /// round trip in seconds.
    fn on_start(&mut self, now: SimTime, base_rtt: f64);
    /// `newly_acked` packets were cumulatively acknowledged; `srtt` is
    /// the sender's current smoothed round-trip estimate.
    fn on_ack(&mut self, now: SimTime, newly_acked: u64, srtt: f64);
    /// A congestion signal: Corelite marker feedback or a triple
    /// duplicate ack. At most one per round trip reaches this method.
    fn on_signal(&mut self, now: SimTime);
    /// The retransmission timer expired with the window outstanding.
    fn on_rto(&mut self, now: SimTime);
    /// Periodic adaptation tick (for epoch-driven schemes; per-ack
    /// schemes can ignore it).
    fn on_epoch(&mut self, now: SimTime);
    /// The current congestion window, packets (the sender floors it at
    /// one).
    fn window(&self) -> f64;
    /// The current send-rate estimate, packets per second (window over
    /// the round trip; carried in Corelite markers as the normalized
    /// rate numerator).
    fn rate(&self) -> f64;
}

/// Reno-style AIMD: slow start doubling per round trip, `+1/cwnd` per
/// ack in congestion avoidance, halving on a signal, collapse to one
/// packet on RTO.
#[derive(Debug, Clone)]
pub struct Reno {
    cwnd: f64,
    ssthresh: f64,
    rtt: f64,
}

impl Reno {
    /// A fresh Reno controller (initial window of two packets, no
    /// slow-start ceiling until the first signal).
    pub fn new() -> Self {
        Reno {
            cwnd: 2.0,
            ssthresh: f64::INFINITY,
            rtt: 1e-3,
        }
    }
}

impl Default for Reno {
    fn default() -> Self {
        Reno::new()
    }
}

impl CongestionControl for Reno {
    fn on_start(&mut self, _now: SimTime, base_rtt: f64) {
        self.cwnd = 2.0;
        self.ssthresh = f64::INFINITY;
        self.rtt = base_rtt.max(1e-6);
    }

    fn on_ack(&mut self, _now: SimTime, newly_acked: u64, srtt: f64) {
        self.rtt = srtt.max(1e-6);
        let n = newly_acked as f64;
        if self.cwnd < self.ssthresh {
            // Slow start: one packet per acked packet ⇒ doubling per RTT.
            self.cwnd += n;
        } else {
            // Congestion avoidance: +1 packet per window per RTT.
            self.cwnd += n / self.cwnd;
        }
    }

    fn on_signal(&mut self, _now: SimTime) {
        self.ssthresh = (self.cwnd / 2.0).max(1.0);
        self.cwnd = self.ssthresh;
    }

    fn on_rto(&mut self, _now: SimTime) {
        self.ssthresh = (self.cwnd / 2.0).max(1.0);
        self.cwnd = 1.0;
    }

    fn on_epoch(&mut self, _now: SimTime) {}

    fn window(&self) -> f64 {
        self.cwnd.max(1.0)
    }

    fn rate(&self) -> f64 {
        self.cwnd.max(1.0) / self.rtt
    }
}

/// Configuration for the [`GbnSender`].
#[derive(Debug, Clone)]
pub struct GbnConfig {
    /// Congestion-control epoch tick interval (drives
    /// [`CongestionControl::on_epoch`]).
    pub epoch: SimDuration,
    /// Lower RTO clamp.
    pub min_rto: SimDuration,
    /// Upper RTO clamp (backoff ceiling).
    pub max_rto: SimDuration,
    /// Corelite marker cadence `K1`: when `Some`, every `K1·w`-th
    /// first-transmission packet of a weight-`w` flow carries a marker
    /// with the flow's normalized rate `rate/w`. `None` disables
    /// marking (plain best-effort go-back-N).
    pub marker_spacing: Option<u32>,
    /// Duplicate-ack count that triggers a fast retransmit.
    pub dupack_threshold: u32,
    /// Hard cap on the outstanding window, packets.
    pub max_window: u32,
}

impl Default for GbnConfig {
    fn default() -> Self {
        GbnConfig {
            epoch: SimDuration::from_millis(100),
            min_rto: SimDuration::from_millis(50),
            max_rto: SimDuration::from_secs(10),
            marker_spacing: None,
            dupack_threshold: 3,
            max_window: 1 << 14,
        }
    }
}

/// Builds a congestion controller for a starting flow: the sender calls
/// it with the flow's resolved info and base RTT, and the factory picks
/// the strategy (typically off [`FlowInfo::transport`]).
pub type CcFactory = Box<dyn Fn(&FlowInfo, f64) -> Box<dyn CongestionControl>>;

/// Per-flow go-back-N sender state.
#[derive(Debug)]
struct GbnFlow {
    cc: Box<dyn CongestionControl>,
    est: RttEstimator,
    /// Oldest unacknowledged sequence number.
    snd_una: u64,
    /// Next sequence number to send.
    snd_nxt: u64,
    /// Original *first-transmission* times for the outstanding window,
    /// front-aligned to `snd_una`. Retransmits reuse these so delivery
    /// delay (and FCT) is measured from the first attempt.
    sent: VecDeque<SimTime>,
    /// Consecutive duplicate cumulative acks for `snd_una`.
    dup_acks: u32,
    /// Recovery guard: congestion signals are ignored until `snd_una`
    /// passes this sequence, bounding reactions to one per round trip.
    recover: u64,
    /// First-transmission packets since the last marker.
    marker_credit: u32,
    /// Marker cadence `K1 · w` for this flow (`None` = no marking).
    marker_every: Option<u32>,
    weight: u32,
    /// Earliest instant a genuine RTO may fire; pushed forward by every
    /// ack and (re)transmission. The chain is lazy: a fire before the
    /// deadline re-arms instead of timing out, so at most one timer
    /// event is ever in flight per flow.
    rto_deadline: SimTime,
    /// Allotted-rate record (sampled at epoch ticks) for the report.
    series: TimeSeries,
}

/// An ack-clocked go-back-N sender: [`RouterLogic`] for an ingress edge
/// node driving closed-loop flows.
///
/// The sender keeps the outstanding window full whenever the controller
/// allows: on flow start it bursts the initial window, and every
/// window-opening event (new cumulative ack, epoch growth) pumps more
/// first transmissions. The engine's egress ack sink acknowledges every
/// arrival cumulatively; a cumulative ack advancing `snd_una` slides the
/// window, a duplicate ack counts toward fast retransmit, and an RTO
/// redelivers the whole outstanding window (go-back-N has no selective
/// repeat). Transit packets of other flows are forwarded unchanged, so
/// the sender can share a node with pass-through traffic.
pub struct GbnSender {
    cfg: GbnConfig,
    factory: CcFactory,
    flows: DenseMap<FlowId, GbnFlow>,
    /// The RTO chains, reset on every start and stop; the tick chains
    /// borrow the same per-slot generation.
    pacer: Pacer,
    acks_received: u64,
    rtos_fired: u64,
    fast_retransmits: u64,
    retransmitted_packets: u64,
    markers_injected: u64,
}

impl GbnSender {
    /// A sender with a custom congestion-controller factory.
    pub fn new(cfg: GbnConfig, factory: CcFactory) -> Self {
        GbnSender {
            cfg,
            factory,
            flows: DenseMap::new(),
            pacer: Pacer::new(TIMER_GBN_RTO),
            acks_received: 0,
            rtos_fired: 0,
            fast_retransmits: 0,
            retransmitted_packets: 0,
            markers_injected: 0,
        }
    }

    /// Sends first transmissions until the window is full, then keeps
    /// the RTO chain armed.
    fn pump(&mut self, ctx: &mut Ctx<'_>, flow: FlowId) {
        let node = ctx.node();
        let now = ctx.now();
        let max_window = self.cfg.max_window as u64;
        let mut marked = 0u64;
        let Some(s) = self.flows.get_mut(&flow) else {
            return;
        };
        let had_outstanding = s.snd_una < s.snd_nxt;
        let wnd = (s.cc.window().floor() as u64).clamp(1, max_window);
        while s.snd_nxt < s.snd_una + wnd {
            let seq = s.snd_nxt;
            let mut packet = ctx.new_packet(flow).with_seq(seq, false);
            if let Some(every) = s.marker_every {
                s.marker_credit += 1;
                if s.marker_credit >= every {
                    s.marker_credit = 0;
                    marked += 1;
                    packet = packet.with_marker(Marker {
                        flow,
                        edge: node,
                        normalized_rate: s.cc.rate() / s.weight as f64,
                    });
                }
            }
            ctx.emit(packet);
            s.sent.push_back(now);
            s.snd_nxt += 1;
        }
        if s.snd_una < s.snd_nxt {
            let rto = s.est.rto();
            // RFC 6298 discipline: the timer is (re)started when data
            // first goes outstanding or an ack advances the window (the
            // ack path resets the deadline itself) — NOT merely because
            // the pump ran. A pump that sends nothing must leave the
            // deadline alone, or periodic ticks would push a lost
            // window's timeout forever into the future.
            if !had_outstanding {
                s.rto_deadline = now + rto;
            }
            self.pacer.arm(ctx, flow.index(), rto);
        }
        self.markers_injected += marked;
    }

    /// Redelivers the whole outstanding window (go-back-N), keeping each
    /// packet's original first-transmission timestamp.
    fn retransmit_window(&mut self, ctx: &mut Ctx<'_>, flow: FlowId) {
        let mut resent = 0u64;
        if let Some(s) = self.flows.get_mut(&flow) {
            for (i, &orig) in s.sent.iter().enumerate() {
                let seq = s.snd_una + i as u64;
                let mut packet = ctx.new_packet(flow).with_seq(seq, true);
                packet.sent_at = orig;
                ctx.emit(packet);
                resent += 1;
            }
        }
        self.retransmitted_packets += resent;
    }

    /// Delivers one recovery-guarded congestion signal to the flow's
    /// controller: Corelite marker feedback and duplicate-ack losses
    /// funnel through here, and at most one signal per outstanding
    /// window reaches the controller.
    fn signal(&mut self, now: SimTime, flow: FlowId) -> bool {
        let Some(s) = self.flows.get_mut(&flow) else {
            return false;
        };
        if s.snd_una < s.recover {
            return false;
        }
        s.recover = s.snd_nxt;
        s.cc.on_signal(now);
        true
    }

    fn handle_ack(
        &mut self,
        ctx: &mut Ctx<'_>,
        flow: FlowId,
        cum_seq: u64,
        echo: SimTime,
        retx: bool,
    ) {
        self.acks_received += 1;
        let now = ctx.now();
        let Some(s) = self.flows.get_mut(&flow) else {
            return;
        };
        if cum_seq > s.snd_nxt {
            // An ack for sequence space this activation never sent: a
            // straggler from a previous activation of the same slot
            // (whose receiver counter was since reset). Ignore it.
            return;
        }
        if cum_seq > s.snd_una {
            let newly = cum_seq - s.snd_una;
            for _ in 0..newly {
                s.sent.pop_front();
            }
            s.snd_una = cum_seq;
            s.dup_acks = 0;
            if !retx {
                // Karn's rule: only unambiguous (first-transmission)
                // segments produce RTT samples.
                s.est.on_sample(now.saturating_since(echo).as_secs_f64());
            }
            let srtt = s.est.srtt();
            s.cc.on_ack(now, newly, srtt);
            s.rto_deadline = now + s.est.rto();
            self.pump(ctx, flow);
        } else {
            s.dup_acks += 1;
            if s.dup_acks >= self.cfg.dupack_threshold && s.snd_una < s.snd_nxt {
                let was_counted = s.dup_acks;
                if self.signal(now, flow) {
                    self.fast_retransmits += 1;
                    if let Some(s) = self.flows.get_mut(&flow) {
                        s.dup_acks = 0;
                        s.rto_deadline = now + s.est.rto();
                    }
                    self.retransmit_window(ctx, flow);
                } else {
                    // Still in recovery: keep counting toward the next
                    // opportunity without re-signalling every ack.
                    if let Some(s) = self.flows.get_mut(&flow) {
                        s.dup_acks = was_counted.saturating_sub(1);
                    }
                }
            }
        }
    }

    fn handle_rto(&mut self, ctx: &mut Ctx<'_>, param: u64) {
        let Some(slot) = self.pacer.fired(param) else {
            return;
        };
        // The slot's current occupant armed this chain.
        let flow = ctx.flow(FlowId::from_index(slot)).id;
        let now = ctx.now();
        let Some(s) = self.flows.get_mut(&flow) else {
            return;
        };
        if s.snd_una == s.snd_nxt {
            // Nothing outstanding: the chain is re-armed by the next
            // transmission.
            return;
        }
        if now < s.rto_deadline {
            // The deadline moved (acks arrived since this timer was
            // armed): sleep until the new deadline instead of timing out.
            let remaining = s.rto_deadline.saturating_since(now);
            self.pacer.arm(ctx, slot, remaining);
            return;
        }
        self.rtos_fired += 1;
        s.est.backoff();
        s.cc.on_rto(now);
        s.recover = s.snd_nxt;
        s.dup_acks = 0;
        let rto = s.est.rto();
        s.rto_deadline = now + rto;
        self.pacer.arm(ctx, slot, rto);
        self.retransmit_window(ctx, flow);
    }

    fn handle_tick(&mut self, ctx: &mut Ctx<'_>, param: u64) {
        // The tick rides the RTO chain's generation: stale once the
        // slot's pacer has been reset.
        let Some(slot) = self.pacer.live(param) else {
            return;
        };
        let flow = ctx.flow(FlowId::from_index(slot)).id;
        let Some(s) = self.flows.get_mut(&flow) else {
            return;
        };
        let now = ctx.now();
        s.cc.on_epoch(now);
        let rate = s.cc.rate();
        s.series.push(now, rate);
        ctx.publish(Sample::for_flow("b_g", flow, rate));
        ctx.publish(Sample::for_flow("cwnd", flow, s.cc.window()));
        self.pump(ctx, flow);
        ctx.set_timer(self.cfg.epoch, TimerKind::with_param(TIMER_GBN_TICK, param));
    }
}

impl RouterLogic for GbnSender {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        // Loss notifications are redundant with the ack stream.
        ctx.ignore_loss_notifications();
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, packet: crate::packet::Packet) {
        // Transit traffic of other flows passes through unchanged.
        ctx.emit(packet);
    }

    fn on_flow_start(&mut self, ctx: &mut Ctx<'_>, flow: FlowId) {
        let now = ctx.now();
        let base_rtt = 2.0 * ctx.one_way_delay(flow).as_secs_f64();
        let info = ctx.flow(flow);
        let mut cc = (self.factory)(info, base_rtt);
        cc.on_start(now, base_rtt);
        let weight = info.weight;
        let marker_every = self.cfg.marker_spacing.map(|k1| (k1 * weight).max(1));
        self.pacer.reset(flow.index());
        self.flows.insert(
            flow,
            GbnFlow {
                cc,
                est: RttEstimator::new(
                    base_rtt,
                    self.cfg.min_rto.as_secs_f64(),
                    self.cfg.max_rto.as_secs_f64(),
                ),
                snd_una: 0,
                snd_nxt: 0,
                sent: VecDeque::new(),
                dup_acks: 0,
                recover: 0,
                marker_credit: 0,
                marker_every,
                weight,
                rto_deadline: now,
                series: TimeSeries::new(),
            },
        );
        self.pump(ctx, flow);
        let param = self.pacer.param(flow.index());
        ctx.set_timer(self.cfg.epoch, TimerKind::with_param(TIMER_GBN_TICK, param));
    }

    fn on_flow_stop(&mut self, _ctx: &mut Ctx<'_>, flow: FlowId) {
        // Invalidate both timer chains and drop all connection state; a
        // restart begins from sequence zero, mirroring the egress
        // receiver's reset.
        self.pacer.reset(flow.index());
        self.flows.remove(&flow);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, timer: TimerKind) {
        match timer.tag {
            TIMER_GBN_RTO => self.handle_rto(ctx, timer.param),
            TIMER_GBN_TICK => self.handle_tick(ctx, timer.param),
            _ => {}
        }
    }

    fn on_control(&mut self, ctx: &mut Ctx<'_>, msg: ControlMsg) {
        match msg {
            ControlMsg::Ack {
                flow,
                cum_seq,
                echo,
                retx,
            } => self.handle_ack(ctx, flow, cum_seq, echo, retx),
            // Corelite marker feedback: a congestion signal for the
            // flow's controller (recovery-guarded like a loss signal,
            // but with nothing to retransmit).
            ControlMsg::MarkerFeedback { marker, .. } => {
                self.signal(ctx.now(), marker.flow);
            }
            // Declared ignored in `on_start`.
            ControlMsg::Loss { .. } => {}
        }
    }

    fn report(&self, _now: SimTime) -> LogicReport {
        let mut report = LogicReport::default();
        for (flow, s) in self.flows.iter() {
            report.flow_rates.insert(flow, s.series.clone());
        }
        report.count("acks_received", self.acks_received as f64);
        report.count("rtos_fired", self.rtos_fired as f64);
        report.count("fast_retransmits", self.fast_retransmits as f64);
        report.count("retransmitted_packets", self.retransmitted_packets as f64);
        report.count("markers_injected", self.markers_injected as f64);
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::{FlowSpec, Transport};
    use crate::link::LinkSpec;
    use crate::logic::ForwardLogic;
    use crate::monitor::SimReport;
    use crate::topology::TopologyBuilder;

    #[test]
    fn rtt_estimator_converges_and_backs_off() {
        let mut est = RttEstimator::new(0.1, 0.05, 10.0);
        assert!((est.srtt() - 0.1).abs() < 1e-9);
        for _ in 0..100 {
            est.on_sample(0.2);
        }
        assert!((est.srtt() - 0.2).abs() < 1e-3, "srtt {}", est.srtt());
        let rto = est.rto().as_secs_f64();
        assert!((0.2..0.3).contains(&rto), "rto {rto}");
        est.backoff();
        est.backoff();
        assert!((est.rto().as_secs_f64() - 4.0 * rto).abs() < 1e-6);
        // Backoff is capped.
        for _ in 0..20 {
            est.backoff();
        }
        assert!((est.rto().as_secs_f64() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn reno_slow_start_then_aimd() {
        let mut cc = Reno::new();
        cc.on_start(SimTime::ZERO, 0.1);
        assert_eq!(cc.window(), 2.0);
        // Slow start: +1 per acked packet.
        cc.on_ack(SimTime::ZERO, 2, 0.1);
        assert_eq!(cc.window(), 4.0);
        cc.on_signal(SimTime::ZERO);
        assert_eq!(cc.window(), 2.0);
        // Now in congestion avoidance: +n/cwnd.
        cc.on_ack(SimTime::ZERO, 2, 0.1);
        assert!((cc.window() - 3.0).abs() < 1e-9);
        cc.on_rto(SimTime::ZERO);
        assert_eq!(cc.window(), 1.0);
    }

    fn reno_sender(cfg: GbnConfig) -> Box<GbnSender> {
        Box::new(GbnSender::new(
            cfg,
            Box::new(|_: &FlowInfo, _| Box::new(Reno::new()) as Box<dyn CongestionControl>),
        ))
    }

    fn gbn_chain(cfg: GbnConfig) -> (SimReport, FlowId) {
        let mut b = TopologyBuilder::new(7);
        let src = b.node("src", move |_| reno_sender(cfg.clone()));
        let mid = b.node("mid", |_| Box::new(ForwardLogic));
        let dst = b.node("dst", |_| Box::new(ForwardLogic));
        let spec = LinkSpec::new(4_000_000, SimDuration::from_millis(10), 40);
        b.link(src, mid, spec);
        b.link(mid, dst, spec);
        let f = b.flow(
            FlowSpec::new(vec![src, mid, dst], 1)
                .transport(Transport::Reno)
                .active(SimTime::ZERO, None),
        );
        let end = SimTime::from_secs(20);
        let mut net = b.build();
        net.run_until(end);
        (net.into_report(end), f)
    }

    #[test]
    fn gbn_reno_fills_the_pipe_without_duplicate_goodput() {
        let (report, f) = gbn_chain(GbnConfig::default());
        let fr = report.flow(f);
        // The 500 pkt/s bottleneck should be near-saturated by an
        // ack-clocked Reno flow over 20 s.
        assert!(
            fr.delivered_packets > 7_000,
            "delivered {}",
            fr.delivered_packets
        );
        // Go-back-N redelivers whole windows, so duplicates certainly
        // occurred — but none of them may count as goodput: delivered
        // packets are exactly the distinct in-order sequence numbers.
        assert!(
            fr.delivered_packets <= 20 * 500,
            "goodput exceeds link capacity: {}",
            fr.delivered_packets
        );
        let sender = report
            .logic
            .get(&crate::ids::NodeId::from_index(0))
            .unwrap();
        assert!(sender.counters["acks_received"] > 0.0);
    }

    #[test]
    fn gbn_runs_are_deterministic() {
        let a = gbn_chain(GbnConfig::default());
        let b = gbn_chain(GbnConfig::default());
        assert_eq!(format!("{:?}", a.0), format!("{:?}", b.0));
    }

    #[test]
    fn retransmits_are_counted_as_duplicates_not_goodput() {
        // A tiny queue forces drops, RTOs, and whole-window redelivery.
        let mut b = TopologyBuilder::new(7);
        let cfg = GbnConfig::default();
        let src = b.node("src", move |_| reno_sender(cfg.clone()));
        let dst = b.node("dst", |_| Box::new(ForwardLogic));
        b.link(
            src,
            dst,
            LinkSpec::new(400_000, SimDuration::from_millis(10), 4),
        );
        let f = b.flow(
            FlowSpec::new(vec![src, dst], 1)
                .transport(Transport::Reno)
                .active(SimTime::ZERO, None),
        );
        let end = SimTime::from_secs(30);
        let mut net = b.build();
        net.run_until(end);
        let report = net.into_report(end);
        let fr = report.flow(f);
        assert!(fr.tail_drops > 0, "scenario must overdrive the queue");
        assert!(
            fr.duplicate_packets > 0,
            "go-back-N redelivery must surface as duplicates"
        );
        // Goodput accounting remains loss-free: every delivered sequence
        // number is distinct, so delivered counts are bounded by what a
        // 50 pkt/s link can carry.
        assert!(
            fr.delivered_packets <= 30 * 50 + 1,
            "delivered {} exceeds capacity",
            fr.delivered_packets
        );
        assert!(
            fr.delivered_packets > 800,
            "delivered {}",
            fr.delivered_packets
        );
    }
}
