//! Closed-loop transports: an ack-clocked go-back-N sender whose window
//! follows each flow's declared [`Transport`].
//!
//! The paper's evaluation drives every flow open loop: the ingress edge
//! shapes a backlogged source to the allowed rate `b_g` and packets are
//! simply counted at the egress. This module adds the other half of a
//! real deployment — senders that are *clocked by acknowledgements*:
//!
//! * [`GbnSender`] — a cumulative-ack go-back-N sender installed as
//!   [`RouterLogic`] on the ingress node. It emits sequenced packets
//!   ([`Packet::seq`](crate::packet::Packet::seq)), which the engine's
//!   egress ack sink acknowledges cumulatively along the reverse path
//!   (`ControlMsg::Ack`); the sender maintains SRTT/RTTVAR
//!   ([`RttEstimator`]), retransmits the outstanding window on RTO or
//!   triple duplicate ack, re-pumps whenever the window opens, and
//!   stamps by the open-loop edge's one rule (`Stamp::apply`).
//! * The window itself is picked per flow from its [`Transport`]: stock
//!   [`Reno`] (slow start + AIMD) for [`Transport::Reno`], and the
//!   paper's [`SourceAgent`] under [`AdaptationScheme::WindowAimd`] for
//!   every other transport, so ack-clocked flows take part in
//!   weighted fairness. The sender owns reliability and stamping; the
//!   window owns only the window.
//!
//! Everything here is deterministic by construction: the sender holds no
//! RNG, every state transition is driven by an engine event (ack
//! control message, timer, lifecycle), and both timer chains ride one
//! [`Pacer`] generation per slot, so recycled flow slots never inherit a
//! predecessor's clock.

use std::collections::VecDeque;

use sim_core::stats::{ExpAvg, TimeSeries};
use sim_core::time::{SimDuration, SimTime};

use crate::agent::{AdaptationScheme, AgentConfig, SourceAgent, Stamp};
use crate::flow::Transport;
use crate::ids::FlowId;
use crate::logic::{ControlMsg, Ctx, LogicReport, RouterLogic, TimerKind};
use crate::pacer::Pacer;
use crate::slab::DenseMap;
use crate::telemetry::Sample;

/// Timer tag of the retransmission-timeout chain.
const TIMER_GBN_RTO: u32 = 0x4742_4e01;
/// Timer tag of the epoch tick chain.
const TIMER_GBN_TICK: u32 = 0x4742_4e02;

/// Jacobson/Karels round-trip estimation with Karn-compatible sampling
/// and exponential RTO backoff, the RTO clamped to
/// [`MIN_RTO`]`..=`[`MAX_RTO`].
///
/// The caller is responsible for Karn's rule: samples must only be fed
/// for segments that were *not* retransmitted (the egress echoes the
/// retransmit flag in each ack precisely so the sender can tell).
#[derive(Debug, Clone)]
pub struct RttEstimator {
    srtt: f64,
    rttvar: f64,
    rto: f64,
}

impl RttEstimator {
    /// Seeds the estimator from the path's base (propagation-only) RTT.
    pub fn new(base_rtt: f64) -> Self {
        let srtt = base_rtt.max(1e-6);
        let rttvar = srtt / 2.0;
        RttEstimator {
            srtt,
            rttvar,
            rto: Self::clamp(srtt + 4.0 * rttvar),
        }
    }

    fn clamp(rto: f64) -> f64 {
        rto.clamp(MIN_RTO.as_secs_f64(), MAX_RTO.as_secs_f64())
    }

    /// Feeds one round-trip sample (seconds): `rttvar ← ¾·rttvar +
    /// ¼·|srtt − s|`, `srtt ← ⅞·srtt + ⅛·s`, `rto = srtt + 4·rttvar`
    /// (clamped). Also clears any accumulated backoff.
    pub fn on_sample(&mut self, sample: f64) {
        let s = sample.max(1e-9);
        self.rttvar = 0.75 * self.rttvar + 0.25 * (self.srtt - s).abs();
        self.srtt = 0.875 * self.srtt + 0.125 * s;
        self.rto = Self::clamp(self.srtt + 4.0 * self.rttvar);
    }

    /// Doubles the RTO after a timeout (capped at [`MAX_RTO`]).
    pub fn backoff(&mut self) {
        self.rto = (self.rto * 2.0).min(MAX_RTO.as_secs_f64());
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
    /// A fresh Reno window for a path of `base_rtt` seconds
    /// (propagation only): two packets, no slow-start ceiling until the
    /// first signal.
    pub fn new(base_rtt: f64) -> Self {
        Reno {
            cwnd: 2.0,
            ssthresh: f64::INFINITY,
            rtt: base_rtt.max(1e-6),
        }
    }

    /// `newly_acked` packets were cumulatively acknowledged; `srtt` is
    /// the sender's current smoothed round-trip estimate.
    pub fn on_ack(&mut self, newly_acked: u64, srtt: f64) {
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

    /// A congestion signal: marker feedback or a triple duplicate ack.
    pub fn on_signal(&mut self) {
        self.ssthresh = (self.cwnd / 2.0).max(1.0);
        self.cwnd = self.ssthresh;
    }

    /// The retransmission timer expired with the window outstanding.
    pub fn on_rto(&mut self) {
        self.ssthresh = (self.cwnd / 2.0).max(1.0);
        self.cwnd = 1.0;
    }

    /// The current congestion window, packets (at least one).
    pub fn window(&self) -> f64 {
        self.cwnd.max(1.0)
    }

    /// The current send-rate estimate, packets per second.
    pub fn rate(&self) -> f64 {
        self.cwnd.max(1.0) / self.rtt
    }
}

/// A flow's congestion window, picked from its [`Transport`] when it
/// starts. The [`GbnSender`] calls into it at the obvious points and
/// deduplicates signals first (at most one per round trip, via the
/// recovery guard), so either variant reacts to every signal it gets.
#[derive(Debug)]
enum Window {
    Reno(Reno),
    /// The agent has no timeout notion: an RTO reaches it as one more
    /// congestion indication. Signals name no core, so an epoch's add
    /// up ([`SourceAgent::on_signal`]).
    Agent(SourceAgent),
}

impl Window {
    /// The window of a flow of `transport` starting at `now` on a path
    /// of `base_rtt` seconds; `cfg` is the sender's (`WindowAimd`)
    /// agent configuration.
    fn start(
        transport: Transport,
        weight: u32,
        min_rate: f64,
        cfg: &AgentConfig,
        now: SimTime,
        base_rtt: f64,
    ) -> Self {
        match transport {
            Transport::Reno => Window::Reno(Reno::new(base_rtt)),
            Transport::Gbn | Transport::Limd => {
                let mut agent = SourceAgent::new(weight, min_rate, 1e-3);
                agent.start(cfg, now, base_rtt);
                Window::Agent(agent)
            }
        }
    }

    fn on_ack(&mut self, cfg: &AgentConfig, newly_acked: u64, srtt: f64) {
        match self {
            Window::Reno(reno) => reno.on_ack(newly_acked, srtt),
            // The live SRTT replaces the static base estimate, and the
            // agent re-derives its rate from it at once.
            Window::Agent(agent) => agent.update_rtt(cfg, srtt),
        }
    }

    fn on_signal(&mut self, cfg: &AgentConfig, now: SimTime) {
        match self {
            Window::Reno(reno) => reno.on_signal(),
            Window::Agent(agent) => {
                agent.on_signal(cfg, now);
            }
        }
    }

    fn on_rto(&mut self, cfg: &AgentConfig, now: SimTime) {
        match self {
            Window::Reno(reno) => reno.on_rto(),
            Window::Agent(agent) => {
                agent.on_signal(cfg, now);
            }
        }
    }

    /// The periodic adaptation tick; Reno adapts per ack instead.
    fn on_epoch(&mut self, cfg: &AgentConfig, now: SimTime) {
        if let Window::Agent(agent) = self {
            agent.epoch_update(cfg, now);
        }
    }

    /// The current congestion window, packets (the sender floors it at
    /// one).
    fn window(&self) -> f64 {
        match self {
            Window::Reno(reno) => reno.window(),
            Window::Agent(agent) => agent.cwnd(),
        }
    }

    /// The `(rate, floor, weight)` [`Stamp::apply`] reads; Reno has no floor.
    fn profile(&self, weight: u32) -> (f64, f64, u32) {
        match self {
            Window::Reno(reno) => (reno.rate(), 0.0, weight),
            Window::Agent(agent) => agent.profile(),
        }
    }
}

/// Lower clamp of the go-back-N sender's retransmission timeout.
pub const MIN_RTO: SimDuration = SimDuration::from_millis(50);
/// Upper clamp of the retransmission timeout (the backoff ceiling).
pub const MAX_RTO: SimDuration = SimDuration::from_secs(10);
/// Duplicate-ack count that triggers a fast retransmit.
pub const DUPACK_THRESHOLD: u32 = 3;
/// Hard cap on a flow's outstanding window, packets.
pub const MAX_WINDOW: u32 = 1 << 14;

/// Per-flow go-back-N sender state.
#[derive(Debug)]
struct GbnFlow {
    /// Whether the flow is started. A stopped static flow keeps its
    /// entry for the rate record alone; its timer chains die with the
    /// stop, and acks or feedback still in flight find it inactive.
    active: bool,
    window: Window,
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
    weight: u32,
    /// Marker credit under [`Stamp::Marker`] ([`Stamp::apply`]).
    credit: f64,
    /// Earliest instant a genuine RTO may fire; pushed forward by every
    /// ack and (re)transmission. The chain is lazy: a fire before the
    /// deadline re-arms instead of timing out, so at most one timer
    /// event is ever in flight per flow.
    rto_deadline: SimTime,
    /// Allotted-rate record (sampled at epoch ticks) for the report. A
    /// static flow's spans its activations, with a zero at each stop.
    series: TimeSeries,
}

/// An ack-clocked go-back-N sender: [`RouterLogic`] for an ingress edge
/// node driving closed-loop flows.
///
/// Packets are stamped by the open-loop edge's rule (`Stamp::apply`)
/// from the window's rate, so cores throttle every flow alike: Corelite
/// markers on first transmissions (a Reno window has no contract), or
/// CSFQ labels on every packet, retransmits included, with floor 0 and
/// losses heard only as duplicate acks and RTOs.
/// The sender keeps the outstanding window full whenever the window
/// allows: on flow start it bursts the initial window, and every
/// window-opening event (new cumulative ack, epoch growth) pumps more
/// first transmissions. The engine's egress ack sink acknowledges every
/// arrival cumulatively; a cumulative ack advancing `snd_una` slides the
/// window, a duplicate ack counts toward fast retransmit, and an RTO
/// redelivers the whole outstanding window (go-back-N has no selective
/// repeat). Transit packets of other flows are forwarded unchanged, so
/// the sender can share a node with pass-through traffic.
pub struct GbnSender {
    /// The agent windows' configuration, forced to `WindowAimd`.
    agent: AgentConfig,
    /// The epoch tick interval.
    epoch: SimDuration,
    stamp: Stamp,
    flows: DenseMap<FlowId, GbnFlow>,
    /// Per-flow rate estimates under [`Stamp::Label`].
    estimates: DenseMap<FlowId, ExpAvg>,
    /// The RTO chains, reset on every start and stop; the tick chains
    /// borrow the same per-slot generation.
    pacer: Pacer,
    acks_received: u64,
    rtos_fired: u64,
    fast_retransmits: u64,
    retransmitted_packets: u64,
    /// Packets that carried a stamp: markers injected, or labels.
    stamped: u64,
}

impl GbnSender {
    /// A sender whose agent windows run `agent` (forced to
    /// [`AdaptationScheme::WindowAimd`]: a window is the only control
    /// variable an ack-clocked sender can act on) and adapt every
    /// `epoch`, stamping its packets per `stamp`.
    ///
    /// # Panics
    ///
    /// Panics if `agent` fails [`AgentConfig::validate`] or `epoch` is
    /// zero.
    pub fn new(agent: AgentConfig, epoch: SimDuration, stamp: Stamp) -> Self {
        agent.validate();
        assert!(!epoch.is_zero(), "edge epoch must be positive");
        GbnSender {
            agent: AgentConfig {
                adaptation: AdaptationScheme::WindowAimd,
                ..agent
            },
            epoch,
            stamp,
            flows: DenseMap::new(),
            estimates: DenseMap::new(),
            pacer: Pacer::new(TIMER_GBN_RTO),
            acks_received: 0,
            rtos_fired: 0,
            fast_retransmits: 0,
            retransmitted_packets: 0,
            stamped: 0,
        }
    }

    /// Sends first transmissions until the window is full, then keeps
    /// the RTO chain armed.
    fn pump(&mut self, ctx: &mut Ctx<'_>, flow: FlowId) {
        let now = ctx.now();
        let at = (ctx.node(), now);
        let max_window = MAX_WINDOW as u64;
        let Some(s) = self.flows.get_mut(&flow) else {
            return;
        };
        let had_outstanding = s.snd_una < s.snd_nxt;
        let wnd = (s.window.window().floor() as u64).clamp(1, max_window);
        let (stamp, profile) = (self.stamp, s.window.profile(s.weight));
        let (credit, estimates) = (&mut s.credit, &mut self.estimates);
        while s.snd_nxt < s.snd_una + wnd {
            let mut packet = ctx.new_packet(flow).with_seq(s.snd_nxt, false);
            let stamped = stamp.apply(&mut packet, at, credit, estimates, profile);
            self.stamped += u64::from(stamped);
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
    }

    /// Redelivers the whole outstanding window (go-back-N), keeping each
    /// packet's original first-transmission timestamp.
    fn retransmit_window(&mut self, ctx: &mut Ctx<'_>, flow: FlowId) {
        let at = (ctx.node(), ctx.now());
        let Some(s) = self.flows.get_mut(&flow) else {
            return;
        };
        let (stamp, profile) = (self.stamp, s.window.profile(s.weight));
        let (credit, estimates) = (&mut s.credit, &mut self.estimates);
        for (seq, &orig) in (s.snd_una..).zip(&s.sent) {
            let mut packet = ctx.new_packet(flow).with_seq(seq, true);
            packet.sent_at = orig;
            let stamped = stamp.apply(&mut packet, at, credit, estimates, profile);
            self.stamped += u64::from(stamped);
            ctx.emit(packet);
        }
        self.retransmitted_packets += s.sent.len() as u64;
    }

    /// Delivers one recovery-guarded congestion signal to the flow's
    /// window: Corelite marker feedback and duplicate-ack losses funnel
    /// through here, and at most one signal per outstanding window gets
    /// through.
    fn signal(&mut self, now: SimTime, flow: FlowId) -> bool {
        let Some(s) = self.flows.get_mut(&flow).filter(|s| s.active) else {
            return false;
        };
        if s.snd_una < s.recover {
            return false;
        }
        s.recover = s.snd_nxt;
        s.window.on_signal(&self.agent, now);
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
        let Some(s) = self.flows.get_mut(&flow).filter(|s| s.active) else {
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
            s.window.on_ack(&self.agent, newly, srtt);
            s.rto_deadline = now + s.est.rto();
            self.pump(ctx, flow);
        } else {
            s.dup_acks += 1;
            if s.dup_acks >= DUPACK_THRESHOLD && s.snd_una < s.snd_nxt {
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
        s.window.on_rto(&self.agent, now);
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
        s.window.on_epoch(&self.agent, now);
        let (rate, ..) = s.window.profile(s.weight);
        s.series.push(now, rate);
        ctx.publish(Sample::for_flow("b_g", flow, rate));
        ctx.publish(Sample::for_flow("cwnd", flow, s.window.window()));
        self.pump(ctx, flow);
        ctx.set_timer(self.epoch, TimerKind::with_param(TIMER_GBN_TICK, param));
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
        let window = Window::start(
            info.transport,
            info.weight,
            self.stamp.floor(info.min_rate),
            &self.agent,
            now,
            base_rtt,
        );
        let weight = info.weight;
        // Everything but a static flow's rate record begins afresh: a
        // restart starts from sequence zero, mirroring the egress
        // receiver's reset.
        let series = match self.flows.remove(&flow) {
            Some(old) if !info.is_transient() => old.series,
            _ => TimeSeries::new(),
        };
        self.pacer.reset(flow.index());
        self.estimates.remove(&flow);
        self.flows.insert(
            flow,
            GbnFlow {
                active: true,
                window,
                est: RttEstimator::new(base_rtt),
                snd_una: 0,
                snd_nxt: 0,
                sent: VecDeque::new(),
                dup_acks: 0,
                recover: 0,
                weight,
                credit: 0.0,
                rto_deadline: now,
                series,
            },
        );
        self.pump(ctx, flow);
        let param = self.pacer.param(flow.index());
        ctx.set_timer(self.epoch, TimerKind::with_param(TIMER_GBN_TICK, param));
    }

    fn on_flow_stop(&mut self, ctx: &mut Ctx<'_>, flow: FlowId) {
        // Invalidate both timer chains; a churn flow never restarts, so
        // its state goes.
        self.pacer.reset(flow.index());
        self.estimates.remove(&flow);
        if ctx.flow(flow).is_transient() {
            self.flows.remove(&flow);
        } else if let Some(s) = self.flows.get_mut(&flow) {
            s.active = false;
            s.series.push(ctx.now(), 0.0);
        }
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
            // flow's window (recovery-guarded like a loss signal,
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
        let stamped = match self.stamp {
            Stamp::Marker { .. } => "markers_injected",
            Stamp::Label { .. } => "packets_labelled",
        };
        report.count(stamped, self.stamped as f64);
        report
    }
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;
    use std::rc::Rc;

    use super::*;
    use crate::flow::FlowSpec;
    use crate::link::LinkSpec;
    use crate::logic::ForwardLogic;
    use crate::monitor::SimReport;
    use crate::packet::{Packet, SeqInfo};
    use crate::topology::TopologyBuilder;

    #[test]
    fn rtt_estimator_converges_and_backs_off() {
        let mut est = RttEstimator::new(0.1);
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
        let mut cc = Reno::new(0.1);
        assert_eq!(cc.window(), 2.0);
        // Slow start: +1 per acked packet.
        cc.on_ack(2, 0.1);
        assert_eq!(cc.window(), 4.0);
        cc.on_signal();
        assert_eq!(cc.window(), 2.0);
        // Now in congestion avoidance: +n/cwnd.
        cc.on_ack(2, 0.1);
        assert!((cc.window() - 3.0).abs() < 1e-9);
        cc.on_rto();
        assert_eq!(cc.window(), 1.0);
    }

    fn sender() -> GbnSender {
        GbnSender::new(
            AgentConfig::default(),
            SimDuration::from_millis(100),
            Stamp::Marker { k1: 1 },
        )
    }

    #[test]
    fn signals_and_rtos_halve_the_agent_window_at_the_next_epoch() {
        let secs = SimTime::from_secs;
        let cfg = sender().agent;
        let mut w = Window::start(Transport::Gbn, 1, 0.0, &cfg, SimTime::ZERO, 0.1);
        // The first signal ends slow start immediately; silent epochs
        // then grow the window linearly.
        w.on_signal(&cfg, secs(1));
        w.on_epoch(&cfg, secs(2));
        w.on_epoch(&cfg, secs(3));
        let grown = w.window();
        assert!(grown > 1.0, "window never grew: {grown}");
        // A signal in the linear phase is accumulated feedback: the
        // throttle lands at the next epoch update.
        w.on_signal(&cfg, secs(4));
        assert_eq!(w.window(), grown);
        w.on_epoch(&cfg, secs(5));
        assert_eq!(w.window(), grown / 2.0);
        // An RTO counts as one congestion indication, throttled alike.
        w.on_epoch(&cfg, secs(6));
        let regrown = w.window();
        w.on_rto(&cfg, secs(7));
        let Window::Agent(agent) = &w else {
            unreachable!("a Gbn flow runs the agent");
        };
        assert_eq!(agent.feedback_max(), 1);
        w.on_epoch(&cfg, secs(8));
        assert_eq!(w.window(), regrown / 2.0);
    }

    /// A two-hop 500 pkt/s chain carrying one weight-1 flow of
    /// `transport` with contract `min_rate` per activation list in
    /// `flows`, run for `secs`.
    fn gbn_chain(
        transport: Transport,
        min_rate: f64,
        flows: &[&[(SimTime, Option<SimTime>)]],
        secs: u64,
    ) -> SimReport {
        let mut b = TopologyBuilder::new(7);
        let src = b.node("src", |_| Box::new(sender()));
        let mid = b.node("mid", |_| Box::new(ForwardLogic));
        let dst = b.node("dst", |_| Box::new(ForwardLogic));
        let spec = LinkSpec::new(4_000_000, SimDuration::from_millis(10), 40);
        b.link(src, mid, spec);
        b.link(mid, dst, spec);
        for periods in flows {
            let mut flow = FlowSpec::new(vec![src, mid, dst], 1)
                .transport(transport)
                .min_rate(min_rate);
            for &(start, stop) in *periods {
                flow = flow.active(start, stop);
            }
            b.flow(flow);
        }
        let end = SimTime::from_secs(secs);
        let mut net = b.build();
        net.run_until(end);
        net.into_report(end)
    }

    const ALWAYS: &[(SimTime, Option<SimTime>)] = &[(SimTime::ZERO, None)];

    #[test]
    fn gbn_reno_fills_the_pipe_without_duplicate_goodput() {
        let report = gbn_chain(Transport::Reno, 0.0, &[ALWAYS], 20);
        let fr = report.flow(FlowId::from_index(0));
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
        let a = gbn_chain(Transport::Reno, 0.0, &[ALWAYS], 20);
        let b = gbn_chain(Transport::Reno, 0.0, &[ALWAYS], 20);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    /// Regression: a stop used to drop a go-back-N flow's rate record
    /// with its connection state, so a restarted flow's series began at
    /// the restart and a flow that never restarted had none. A static
    /// flow now keeps one record across its activations, zero while
    /// stopped, as at the open-loop edge.
    #[test]
    fn a_static_flow_keeps_its_rate_record_across_stop_and_restart() {
        let secs = SimTime::from_secs;
        let restarts: &[_] = &[(SimTime::ZERO, Some(secs(20))), (secs(40), None)];
        let once: &[_] = &[(SimTime::ZERO, Some(secs(20)))];
        let report = gbn_chain(Transport::Gbn, 0.0, &[restarts, once], 60);
        let series = report.allotted_rate(FlowId::from_index(0)).unwrap();
        assert!(series.value_at(secs(10)).unwrap() > 0.0);
        assert_eq!(series.value_at(secs(30)), Some(0.0));
        assert!(series.value_at(secs(55)).unwrap() > 0.0);
        let stopped = report.allotted_rate(FlowId::from_index(1)).unwrap();
        assert_eq!(stopped.last_value(), Some(0.0));
    }

    /// Regression: the sender marked every `K1·w`-th first transmission
    /// of an agent window with `rate/w`, contract included, so cores saw
    /// a contracted flow's floor as excess and throttled it toward the
    /// floor. As at the open-loop edge (§2), only out-of-profile packets
    /// mark: a flow whose rate sits at its floor carries no marker.
    #[test]
    fn a_contracted_flow_at_its_floor_carries_no_marker() {
        let floor = 400.0;
        let markers = |report: &SimReport| {
            report.logic[&crate::ids::NodeId::from_index(0)].counters["markers_injected"]
        };
        let report = gbn_chain(Transport::Gbn, floor, &[ALWAYS], 1);
        let flow = FlowId::from_index(0);
        let series = report.allotted_rate(flow).unwrap();
        assert!(series.iter().all(|(_, rate)| rate == floor), "{series:?}");
        assert!(report.flow(flow).delivered_packets > 0);
        assert_eq!(markers(&report), 0.0);
        // Once the window's rate climbs past the floor, the excess marks.
        let report = gbn_chain(Transport::Gbn, floor, &[ALWAYS], 4);
        assert!(report.allotted_rate(flow).unwrap().last_value().unwrap() > floor);
        assert!(markers(&report) > 0.0);
    }

    /// Passes packets on, recording each one's sequence and whether it
    /// carries a marker.
    struct Tap(Rc<RefCell<Vec<(SeqInfo, bool)>>>);

    impl RouterLogic for Tap {
        fn on_packet(&mut self, ctx: &mut Ctx<'_>, packet: Packet) {
            let seq = packet.seq.expect("a go-back-N packet");
            self.0.borrow_mut().push((seq, packet.marker.is_some()));
            ctx.emit(packet);
        }
    }

    /// Pins the marker rule for a Reno window: with no contract, every
    /// first transmission earns one packet of credit, so markers land
    /// exactly on sequences `K1·w − 1, 2·K1·w − 1, …`, and never on a
    /// retransmit.
    #[test]
    fn a_reno_window_marks_every_k1_w_th_first_transmission() {
        let (k1, weight) = (3, 2);
        let seen = Rc::new(RefCell::new(Vec::new()));
        let tap = seen.clone();
        let mut b = TopologyBuilder::new(7);
        let src = b.node("src", |_| {
            let epoch = SimDuration::from_millis(100);
            Box::new(GbnSender::new(
                AgentConfig::default(),
                epoch,
                Stamp::Marker { k1 },
            ))
        });
        let mid = b.node("mid", move |_| Box::new(Tap(tap)));
        let dst = b.node("dst", |_| Box::new(ForwardLogic));
        let delay = SimDuration::from_millis(10);
        b.link(src, mid, LinkSpec::new(40_000_000, delay, 1_000));
        // A tiny queue behind the tap forces retransmits.
        b.link(mid, dst, LinkSpec::new(400_000, delay, 4));
        let flow = FlowSpec::new(vec![src, mid, dst], weight).transport(Transport::Reno);
        b.flow(flow.active(SimTime::ZERO, None));
        let end = SimTime::from_secs(20);
        let mut net = b.build();
        net.run_until(end);
        let seen = seen.borrow();
        assert!(seen.iter().any(|(seq, _)| seq.retransmit), "no retransmits");
        let spacing = u64::from(k1 * weight);
        for &(seq, marked) in seen.iter() {
            let due = !seq.retransmit && (seq.seq + 1).is_multiple_of(spacing);
            assert_eq!(marked, due, "{seq:?}");
        }
        assert!(seen.iter().filter(|(_, marked)| *marked).count() > 10);
    }

    #[test]
    fn retransmits_are_counted_as_duplicates_not_goodput() {
        // A tiny queue forces drops, RTOs, and whole-window redelivery.
        let mut b = TopologyBuilder::new(7);
        let src = b.node("src", |_| Box::new(sender()));
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
