//! The paper's adaptive source agent and the paced ingress edge it
//! drives.
//!
//! Paper §4 runs Corelite and CSFQ behind the *same* sources: slow-start
//! that doubles every second up to `ss_thresh`, a halving on the first
//! congestion indication, then `+α` per silent epoch and `−β` per
//! indication. [`SourceAgent`] is that agent for one flow: the allowed
//! rate `b_g`, the slow-start / linear phase machine, the per-core
//! feedback counts, the minimum-rate contract floor, the out-of-profile
//! marker credit and the recorded rate series. The hosting logic decides
//! *what* to emit (a shaped synthetic source at an ingress edge, a
//! store-and-forward buffer at a gateway, a go-back-N window); the agent
//! decides *how fast*.
//!
//! [`AgentEdge`] is the ingress edge both architectures use: it shapes
//! every flow entering at its node to its agent's rate and adapts once
//! per epoch. The two architectures differ only in its [`Stamp`] — what a
//! packet carries, and so what counts as congestion:
//!
//! * [`Stamp::Marker`] (Corelite, §2): a marker carrying the normalized
//!   *out-of-profile* rate `(b_g − min)/w` once per `K1·w` out-of-profile
//!   packets. Cores return selected markers, which the agent counts per
//!   core, reacting to the **maximum**; contracted traffic is never
//!   marked and the contract floor is honoured. Losses are ignored
//!   (*"edges react only to congestion indications"*, §4.3).
//! * [`Stamp::Label`] (CSFQ): every packet labelled with the flow's
//!   exponentially averaged rate estimate divided by its weight. Every
//!   loss is one congestion indication, and they add up. CSFQ has no
//!   contracts, so its agents run with floor 0.

use sim_core::stats::{ExpAvg, TimeSeries};
use sim_core::time::{SimDuration, SimTime};

use crate::ids::{FlowId, NodeId};
use crate::logic::{ControlMsg, Ctx, LogicReport, RouterLogic, TimerKind};
use crate::pacer::Pacer;
use crate::packet::Marker;
use crate::slab::{ActiveSet, DenseMap};
use crate::telemetry::Sample;

/// How an agent throttles a flow that received `m` congestion
/// indications in an epoch.
///
/// The paper presents both forms: the piecewise rule
/// `b_g ← max(0, b_g − β·m)` (§2.2, step 3) and — because `m ∝ b_g/w` —
/// its *weighted LIMD* reading `b_g ← b_g·(1 − β·m/w)` (§2.2, closing
/// discussion), which is the multiplicative decrease that the Chiu–Jain
/// argument needs. With the paper's `β = 1` only the absolute rule is
/// stable (it matches the §4 source agents: "decrease the sending rate
/// proportional to the number of congestion indication messages
/// received"), so it is the default; the multiplicative rule needs a
/// fractional `β` (e.g. 0.05) and is provided for the LIMD ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DecreasePolicy {
    /// `b_g ← max(0, b_g − β·m)`.
    #[default]
    Absolute,
    /// `b_g ← b_g · max(0, 1 − β·m/w)`.
    Multiplicative,
}

/// The rate-control algorithm an agent runs (§4.4 lists "different
/// adaptation schemes at the edge router" as ongoing work).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdaptationScheme {
    /// The paper's rate-based scheme: `+α` on silence, `−β·m` on
    /// feedback (with the configured [`DecreasePolicy`]).
    #[default]
    RateLimd,
    /// A TCP-like window scheme: the edge maintains a congestion window
    /// `cwnd` and shapes the flow to `cwnd/RTT` (RTT estimated from the
    /// path's propagation delay). `cwnd` doubles during slow-start, grows
    /// by one packet per epoch in congestion avoidance, and halves once
    /// per epoch that saw any marker feedback — so throttling frequency,
    /// not amplitude, tracks the normalized rate. Exploratory: this gives
    /// weight-*influenced* rather than exactly weight-proportional
    /// sharing (see the `window_agent` integration test).
    WindowAimd,
}

/// Linear increase step `α`, packets per second per silent epoch (paper:
/// 1), scaled by the flow's weight under
/// [`AgentConfig::alpha_per_weight`].
pub const ALPHA: f64 = 1.0;

/// Slow-start threshold, packets per second per unit weight (paper: 32):
/// a flow above it ends slow-start with a halving. Per unit weight, so
/// high-weight flows ride slow-start until near their larger fair share,
/// as §4.2 describes.
pub const SS_THRESH: f64 = 32.0;

/// Slow-start doubling interval (paper: every second).
pub const SLOW_START_INTERVAL: SimDuration = SimDuration::from_secs(1);

/// The agent's parameters. [`Default`] gives the paper's §4 values,
/// which Corelite and CSFQ share; the ones no experiment varies are the
/// constants [`ALPHA`], [`SS_THRESH`] and [`SLOW_START_INTERVAL`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AgentConfig {
    /// Rate of a newly started flow, packets per second (paper: 1).
    pub initial_rate: f64,
    /// Whether the increase scales with the flow's weight (`α·w`).
    /// Feedback trims every flow in proportion to its normalized rate,
    /// so scaling the probe step too keeps the relative oscillation
    /// equal across weight classes, at the price of a more aggressive
    /// aggregate probe. Off: the paper increases "by a constant".
    pub alpha_per_weight: bool,
    /// Decrease constant `β` (paper: 1): packets per second per
    /// indication under [`DecreasePolicy::Absolute`], the per-indication
    /// fraction `β/w` under [`DecreasePolicy::Multiplicative`].
    pub beta: f64,
    /// The throttling rule.
    pub decrease: DecreasePolicy,
    /// The rate-control algorithm.
    pub adaptation: AdaptationScheme,
}

impl Default for AgentConfig {
    fn default() -> Self {
        AgentConfig {
            initial_rate: 1.0,
            alpha_per_weight: false,
            beta: 1.0,
            decrease: DecreasePolicy::Absolute,
            adaptation: AdaptationScheme::RateLimd,
        }
    }
}

impl AgentConfig {
    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics on a non-positive `β` or initial rate.
    pub fn validate(&self) {
        assert!(self.beta > 0.0, "beta must be positive");
        assert!(self.initial_rate > 0.0, "initial rate must be positive");
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    SlowStart,
    Linear,
}

/// The bucket [`SourceAgent::on_signal`] counts in: one synthetic
/// source, so the per-core maximum is the total.
const SIGNAL_SOURCE: NodeId = NodeId::from_index(0);

/// Marker counts of the current epoch, per sending core router. A flow
/// hears from the few cores on its path, so the counts live inline in the
/// agent; only a path with more than [`CoreCounts::INLINE`] congested
/// cores spills to the heap.
#[derive(Debug)]
struct CoreCounts {
    inline: [(NodeId, u32); CoreCounts::INLINE],
    used: usize,
    spill: Vec<(NodeId, u32)>,
}

impl CoreCounts {
    const INLINE: usize = 4;

    fn new() -> Self {
        CoreCounts {
            inline: [(NodeId::from_index(0), 0); Self::INLINE],
            used: 0,
            spill: Vec::new(),
        }
    }

    fn bump(&mut self, from: NodeId) {
        let seen = self.inline[..self.used].iter_mut().chain(&mut self.spill);
        if let Some((_, count)) = seen.into_iter().find(|(core, _)| *core == from) {
            *count += 1;
        } else if self.used < Self::INLINE {
            self.inline[self.used] = (from, 1);
            self.used += 1;
        } else {
            self.spill.push((from, 1));
        }
    }

    /// The highest per-core count — the paper's `m(f)`.
    fn max(&self) -> u32 {
        let counts = self.inline[..self.used].iter().chain(&self.spill);
        counts.map(|&(_, count)| count).max().unwrap_or(0)
    }

    fn clear(&mut self) {
        self.used = 0;
        self.spill.clear();
    }
}

/// Rate-control state for one flow at one (ingress or gateway) edge.
#[derive(Debug)]
pub struct SourceAgent {
    weight: u32,
    min_rate: f64,
    active: bool,
    rate: f64,
    cwnd: f64,
    rtt: f64,
    phase: Phase,
    last_double: SimTime,
    marker_credit: f64,
    feedback: CoreCounts,
    series: TimeSeries,
    /// One-entry memo of `1 / rate` as a duration: the rate only changes
    /// on epoch boundaries and feedback, while the conversion runs once
    /// per emitted packet. Bit-identical on hits.
    gap_cache: (f64, SimDuration),
}

impl SourceAgent {
    /// Creates an inactive agent for a flow of the given `weight` and
    /// contract `min_rate` (0 for none). `base_rtt` is the flow's base
    /// round-trip estimate — the sum of its path links' propagation
    /// latencies, forward plus reverse — which seeds the window/rate
    /// conversion until live measurements arrive via
    /// [`update_rtt`](SourceAgent::update_rtt). There is deliberately
    /// no default: a hard-coded RTT made every `WindowAimd` flow start
    /// from the same window regardless of its actual path.
    pub fn new(weight: u32, min_rate: f64, base_rtt: f64) -> Self {
        SourceAgent {
            weight,
            min_rate,
            active: false,
            rate: 0.0,
            cwnd: 1.0,
            rtt: base_rtt.max(1e-3),
            phase: Phase::Linear,
            last_double: SimTime::ZERO,
            marker_credit: 0.0,
            feedback: CoreCounts::new(),
            series: TimeSeries::new(),
            gap_cache: (0.0, SimDuration::ZERO),
        }
    }

    /// Records into `series` (emptied first) instead of a fresh one: an
    /// edge under churn hands a departed flow's buffer to the next
    /// arrival (builder-style).
    pub fn recording_into(mut self, mut series: TimeSeries) -> Self {
        series.clear();
        self.series = series;
        self
    }

    /// Consumes the agent, returning its recorded series.
    pub fn into_series(self) -> TimeSeries {
        self.series
    }

    /// (Re)starts the flow at `now`: fresh slow-start for best-effort
    /// flows, linear probing from the contract for contracted flows.
    /// `rtt` is the flow's base round-trip estimate (propagation only).
    /// The initial window is `initial_rate · rtt` — RTT-proportional, so
    /// flows on long paths start with proportionally larger windows and
    /// identical initial *rates* (the old `max(…, 1.0)` floor collapsed
    /// every sub-second-RTT flow to the same one-packet window).
    pub fn start(&mut self, cfg: &AgentConfig, now: SimTime, rtt: f64) {
        self.active = true;
        self.rtt = rtt.max(1e-3);
        self.cwnd = cfg.initial_rate * self.rtt;
        if self.min_rate > 0.0 {
            self.rate = self.min_rate.max(cfg.initial_rate);
            self.phase = Phase::Linear;
        } else {
            self.rate = match cfg.adaptation {
                AdaptationScheme::RateLimd => cfg.initial_rate,
                AdaptationScheme::WindowAimd => self.cwnd / self.rtt,
            };
            self.phase = Phase::SlowStart;
        }
        self.last_double = now;
        self.marker_credit = 0.0;
        self.feedback.clear();
        self.record(now);
    }

    /// Stops the flow at `now`.
    pub fn stop(&mut self, now: SimTime) {
        self.active = false;
        self.feedback.clear();
        self.record(now);
    }

    /// Whether the flow is currently active.
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// The current allowed rate `b_g`, packets per second.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// The gap between packets at the current rate.
    #[expect(
        clippy::float_cmp,
        reason = "a memo key: recompute only when the rate is not bit-for-bit the cached one"
    )]
    pub fn gap(&mut self) -> SimDuration {
        if self.gap_cache.0 != self.rate {
            self.gap_cache = (self.rate, SimDuration::from_secs_f64(1.0 / self.rate));
        }
        self.gap_cache.1
    }

    /// The current congestion window, packets (meaningful under
    /// [`AdaptationScheme::WindowAimd`]).
    pub fn cwnd(&self) -> f64 {
        self.cwnd
    }

    /// Feeds a live round-trip measurement (e.g. an SRTT from an
    /// ack-clocked transport) into the window/rate conversion, replacing
    /// the static base estimate. Under `WindowAimd` the rate is re-derived
    /// immediately: the window is the control variable and the rate is a
    /// pure function of `(cwnd, rtt)`. Under `RateLimd` the rate is the
    /// control variable, so only the stored estimate changes.
    pub fn update_rtt(&mut self, cfg: &AgentConfig, rtt: f64) {
        self.rtt = rtt.max(1e-3);
        if self.active && cfg.adaptation == AdaptationScheme::WindowAimd {
            self.rate = (self.cwnd / self.rtt).max(self.min_rate);
        }
    }

    /// The flow's rate weight.
    pub fn weight(&self) -> u32 {
        self.weight
    }

    /// The recorded allotted-rate series.
    pub fn series(&self) -> &TimeSeries {
        &self.series
    }

    /// The flow's normalized out-of-profile rate `(b_g − min)/w` — the
    /// value carried in markers.
    pub fn normalized_excess(&self) -> f64 {
        (self.rate - self.min_rate).max(0.0) / self.weight as f64
    }

    /// Accounts one emitted packet toward marker injection. Returns
    /// `true` when this packet should carry a marker (every
    /// `spacing` = `N_w = K1·w` *out-of-profile* packets; contracted
    /// in-profile traffic never marks).
    pub fn take_marker(&mut self, spacing: u32) -> bool {
        let spacing = f64::from(spacing);
        let excess = (self.rate - self.min_rate).max(0.0);
        if excess > 0.0 && self.rate > 0.0 {
            self.marker_credit += excess / self.rate;
        }
        if self.marker_credit >= spacing {
            self.marker_credit -= spacing;
            true
        } else {
            false
        }
    }

    /// Records marker feedback from core router `from` at `now`. The
    /// first notification during slow-start halves the rate immediately
    /// (§4) and is consumed by the halving; later notifications
    /// accumulate for the epoch update. Returns `true` if this feedback
    /// ended slow-start.
    ///
    /// The halving follows `cfg.adaptation`: under `RateLimd` the rate is
    /// the control variable and `cwnd` must be left alone (halving it
    /// would plant stale window state that corrupts the derived rate if
    /// the scenario later switches to `WindowAimd`); under `WindowAimd`
    /// the window halves and the rate is re-derived from it.
    pub fn on_feedback(&mut self, cfg: &AgentConfig, from: NodeId, now: SimTime) -> bool {
        if !self.active {
            return false;
        }
        if self.phase == Phase::SlowStart {
            self.phase = Phase::Linear;
            match cfg.adaptation {
                AdaptationScheme::RateLimd => {
                    self.rate = (self.rate / 2.0).max(self.min_rate);
                }
                AdaptationScheme::WindowAimd => {
                    self.cwnd = (self.cwnd / 2.0).max(1.0);
                    self.rate = (self.cwnd / self.rtt).max(self.min_rate);
                }
            }
            self.record(now);
            true
        } else {
            self.feedback.bump(from);
            false
        }
    }

    /// Records one congestion indication that names no core — a loss, or
    /// a go-back-N sender's folded signal — like
    /// [`on_feedback`](Self::on_feedback) from one synthetic source, so
    /// an epoch's indications add up instead of taking a per-core
    /// maximum.
    pub fn on_signal(&mut self, cfg: &AgentConfig, now: SimTime) -> bool {
        self.on_feedback(cfg, SIGNAL_SOURCE, now)
    }

    /// The highest per-core marker count accumulated since the last epoch
    /// update — the paper's `m(f)`. Read it *before*
    /// [`epoch_update`](SourceAgent::epoch_update), which consumes the
    /// counts.
    pub fn feedback_max(&self) -> u32 {
        self.feedback.max()
    }

    /// Whether the agent is still in slow-start.
    pub fn in_slow_start(&self) -> bool {
        self.phase == Phase::SlowStart
    }

    /// Applies one adaptation epoch at `now` (§2 step 3): `+α` on
    /// silence, throttle on feedback (max per-core count), slow-start
    /// doubling on its own clock. Records the new rate.
    pub fn epoch_update(&mut self, cfg: &AgentConfig, now: SimTime) {
        if !self.active {
            self.feedback.clear();
            return;
        }
        let m = self.feedback.max();
        match cfg.adaptation {
            AdaptationScheme::RateLimd => {
                if m > 0 {
                    self.rate = match cfg.decrease {
                        DecreasePolicy::Absolute => (self.rate - cfg.beta * m as f64).max(0.0),
                        DecreasePolicy::Multiplicative => {
                            self.rate * (1.0 - cfg.beta * m as f64 / self.weight as f64).max(0.0)
                        }
                    }
                    .max(self.min_rate);
                    // Feedback always ends slow-start, even when the
                    // immediate halving path was skipped (e.g. the ending
                    // notification was lost and only epoch-accumulated
                    // counts remain): the phase must never stick.
                    self.phase = Phase::Linear;
                } else {
                    match self.phase {
                        Phase::SlowStart => self.try_double(now),
                        Phase::Linear => {
                            self.rate += if cfg.alpha_per_weight {
                                ALPHA * self.weight as f64
                            } else {
                                ALPHA
                            };
                        }
                    }
                }
            }
            AdaptationScheme::WindowAimd => {
                if m > 0 {
                    self.cwnd = (self.cwnd / 2.0).max(1.0);
                    self.phase = Phase::Linear;
                } else {
                    match self.phase {
                        Phase::SlowStart => self.try_double_window(now),
                        Phase::Linear => self.cwnd += 1.0,
                    }
                }
                self.rate = (self.cwnd / self.rtt).max(self.min_rate);
            }
        }
        self.feedback.clear();
        self.record(now);
    }

    /// One adaptation epoch as an edge runs it for `flow`: publishes
    /// `m_f` (which must be read before the update consumes the
    /// per-core counts), applies [`epoch_update`](Self::epoch_update),
    /// then publishes the new `b_g` and the slow-start flag. Inactive
    /// agents publish nothing.
    pub fn run_epoch(&mut self, ctx: &Ctx<'_>, cfg: &AgentConfig, flow: FlowId) {
        if self.active {
            ctx.publish(Sample::for_flow("m_f", flow, self.feedback_max() as f64));
        }
        self.epoch_update(cfg, ctx.now());
        if self.active {
            ctx.publish(Sample::for_flow("b_g", flow, self.rate));
            let slow_start = f64::from(self.in_slow_start());
            ctx.publish(Sample::for_flow("slow_start", flow, slow_start));
        }
    }

    /// The flow's slow-start threshold, [`SS_THRESH`]`·w`.
    fn ss_thresh(&self) -> f64 {
        SS_THRESH * self.weight as f64
    }

    fn try_double(&mut self, now: SimTime) {
        if now.saturating_since(self.last_double) >= SLOW_START_INTERVAL {
            self.rate *= 2.0;
            self.last_double = now;
            if self.rate > self.ss_thresh() {
                self.rate /= 2.0;
                self.phase = Phase::Linear;
            }
        }
    }

    fn try_double_window(&mut self, now: SimTime) {
        if now.saturating_since(self.last_double) >= SLOW_START_INTERVAL {
            self.cwnd *= 2.0;
            self.last_double = now;
            if self.cwnd / self.rtt > self.ss_thresh() {
                self.cwnd /= 2.0;
                self.phase = Phase::Linear;
            }
        }
    }

    fn record(&mut self, now: SimTime) {
        let value = if self.active { self.rate } else { 0.0 };
        self.series.push(now, value);
    }
}

/// What an [`AgentEdge`] writes on the packets it emits — and so which
/// congestion signal its agents react to (see the [module docs](self)).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Stamp {
    /// Corelite: a marker every `k1·w` out-of-profile packets;
    /// [`ControlMsg::MarkerFeedback`] is the signal, counted per core.
    Marker {
        /// Marker spacing constant `K1`.
        k1: u32,
    },
    /// CSFQ: every packet labelled with its flow's normalized rate
    /// estimate; [`ControlMsg::Loss`] is the signal, summed.
    Label {
        /// Time constant `K` of the per-flow rate estimate.
        k_flow: SimDuration,
    },
}

const TIMER_EPOCH: u32 = 1;
const TIMER_EMIT: u32 = 2;

/// Router logic for an ingress edge: the paper's sources are always
/// backlogged, so it emits each flow that begins at its node at exactly
/// the flow's [`SourceAgent`] rate, stamped per its [`Stamp`]. Built by
/// `corelite::CoreliteConfig::edge` and `csfq::CsfqConfig::edge`.
#[derive(Debug)]
pub struct AgentEdge {
    cfg: AgentConfig,
    epoch: SimDuration,
    stamp: Stamp,
    /// Per-flow state, slab-indexed by `FlowId::index()` (absent for
    /// flows not managed by this edge).
    flows: DenseMap<FlowId, SourceAgent>,
    /// Flows currently started at this edge. Epoch scans walk this
    /// instead of every slot ever occupied, so an epoch costs O(active)
    /// rather than O(all flows ever) under churn.
    active: ActiveSet<FlowId>,
    /// Per-flow rate estimates under [`Stamp::Label`], each built at the
    /// flow's first emission after a start (none for markers).
    estimates: DenseMap<FlowId, ExpAvg>,
    /// Per-slot emission chains, reset on every start and stop.
    pacer: Pacer,
    /// Series buffers of departed churn flows, for the next arrivals to
    /// record into: a flow's first sample then allocates nothing.
    spare_series: Vec<TimeSeries>,
    /// Packets that carried a stamp: markers injected, or labels.
    stamped: u64,
    /// Congestion signals heard: marker feedback, or losses.
    signals: u64,
}

impl AgentEdge {
    /// An edge whose agents run `cfg` and adapt every `epoch`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`AgentConfig::validate`] or `epoch` is
    /// zero.
    pub fn new(cfg: AgentConfig, epoch: SimDuration, stamp: Stamp) -> Self {
        cfg.validate();
        assert!(!epoch.is_zero(), "edge epoch must be positive");
        AgentEdge {
            cfg,
            epoch,
            stamp,
            flows: DenseMap::new(),
            active: ActiveSet::new(),
            estimates: DenseMap::new(),
            pacer: Pacer::new(TIMER_EMIT),
            spare_series: Vec::new(),
            stamped: 0,
            signals: 0,
        }
    }

    fn ensure_emission(&mut self, ctx: &mut Ctx<'_>, flow: FlowId) {
        let agent = self.flows.get_mut(&flow).expect("flow state exists");
        if agent.is_active() && agent.rate() > 0.0 {
            let gap = agent.gap();
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
        let Some(agent) = self.flows.get_mut(&flow) else {
            return;
        };
        if !agent.is_active() || agent.rate() <= 0.0 {
            return;
        }
        let mut packet = ctx.new_packet(flow);
        match self.stamp {
            Stamp::Marker { k1 } => {
                if agent.take_marker(k1 * agent.weight()) {
                    packet = packet.with_marker(Marker {
                        flow,
                        edge: ctx.node(),
                        normalized_rate: agent.normalized_excess(),
                    });
                    self.stamped += 1;
                }
            }
            Stamp::Label { k_flow } => {
                let estimate = self
                    .estimates
                    .entry_or_insert_with(flow, || ExpAvg::new(k_flow));
                let rate = estimate.observe(ctx.now(), 1.0);
                packet = packet.with_label(rate / agent.weight() as f64);
                self.stamped += 1;
            }
        }
        ctx.emit(packet);
        let gap = agent.gap();
        self.pacer.arm(ctx, idx, gap);
    }
}

impl RouterLogic for AgentEdge {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        if let Stamp::Marker { .. } = self.stamp {
            ctx.ignore_loss_notifications();
        }
        ctx.set_timer(self.epoch, TimerKind::tagged(TIMER_EPOCH));
    }

    fn on_flow_start(&mut self, ctx: &mut Ctx<'_>, flow: FlowId) {
        let now = ctx.now();
        let info = ctx.flow(flow);
        let (weight, transient) = (info.weight, info.is_transient());
        let min_rate = match self.stamp {
            Stamp::Marker { .. } => info.min_rate,
            Stamp::Label { .. } => 0.0,
        };
        let rtt = 2.0 * ctx.one_way_delay(flow).as_secs_f64();
        // Any chain left over from a previous activation (or a recycled
        // slot's previous occupant) is dead as of this start.
        self.pacer.reset(flow.index());
        self.active.insert(flow);
        self.estimates.remove(&flow);
        if transient {
            // A recycled slot may still hold the previous occupant's
            // state if its stop was swallowed (e.g. by a pause): churn
            // flows always begin from scratch.
            let series = self.spare_series.pop().unwrap_or_default();
            let agent = SourceAgent::new(weight, min_rate, rtt).recording_into(series);
            self.flows.insert(flow, agent);
        }
        let agent = self
            .flows
            .entry_or_insert_with(flow, || SourceAgent::new(weight, min_rate, rtt));
        // A restarting flow begins a fresh slow-start, like a new arrival.
        agent.start(&self.cfg, now, rtt);
        self.ensure_emission(ctx, flow);
    }

    fn on_flow_stop(&mut self, ctx: &mut Ctx<'_>, flow: FlowId) {
        let now = ctx.now();
        // Kill the outstanding emission chain: a pending `TIMER_EMIT`
        // must not survive the stop and leak into a later activation.
        self.pacer.reset(flow.index());
        self.active.remove(flow);
        self.estimates.remove(&flow);
        if ctx.flow(flow).is_transient() {
            // Departed churn flows never restart; drop their state so
            // edge memory tracks the active set, not total arrivals.
            if let Some(agent) = self.flows.remove(&flow) {
                self.spare_series.push(agent.into_series());
            }
        } else if let Some(agent) = self.flows.get_mut(&flow) {
            agent.stop(now);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, timer: TimerKind) {
        match timer.tag {
            TIMER_EPOCH => {
                // Walk only the started flows (position-indexed so the
                // body can borrow `self` mutably), in ascending slot
                // order. Stopped flows are skipped: `epoch_update` is a
                // no-op for inactive agents and they publish nothing.
                for pos in 0..self.active.len() {
                    // The occupant's full id (membership is per slot).
                    let flow = ctx.flow(self.active.get(pos)).id;
                    let Some(agent) = self.flows.get_mut(&flow) else {
                        continue;
                    };
                    agent.run_epoch(ctx, &self.cfg, flow);
                    self.ensure_emission(ctx, flow);
                }
                ctx.set_timer(self.epoch, TimerKind::tagged(TIMER_EPOCH));
            }
            TIMER_EMIT => self.handle_emit(ctx, timer.param),
            _ => {}
        }
    }

    fn on_control(&mut self, ctx: &mut Ctx<'_>, msg: ControlMsg) {
        match (self.stamp, msg) {
            (Stamp::Marker { .. }, ControlMsg::MarkerFeedback { marker, from }) => {
                self.signals += 1;
                if let Some(agent) = self.flows.get_mut(&marker.flow) {
                    agent.on_feedback(&self.cfg, from, ctx.now());
                }
            }
            (Stamp::Label { .. }, ControlMsg::Loss { flow, .. }) => {
                self.signals += 1;
                if let Some(agent) = self.flows.get_mut(&flow) {
                    agent.on_signal(&self.cfg, ctx.now());
                }
            }
            // Corelite performs loss-free rate adaptation (§4.3) and says
            // so in `on_start`; no CSFQ core sends markers. Acks belong
            // to the go-back-N transport (`crate::transport::GbnSender`);
            // this open-loop edge never receives them.
            _ => {}
        }
    }

    fn report(&self, _now: SimTime) -> LogicReport {
        let mut report = LogicReport::default();
        for (flow, agent) in self.flows.iter() {
            report.flow_rates.insert(flow, agent.series().clone());
        }
        let (stamped, signals) = match self.stamp {
            Stamp::Marker { .. } => ("markers_injected", "feedback_received"),
            Stamp::Label { .. } => ("packets_labelled", "losses_seen"),
        };
        report.count(stamped, self.stamped as f64);
        report.count(signals, self.signals as f64);
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::FlowSpec;
    use crate::link::LinkSpec;
    use crate::logic::ForwardLogic;
    use crate::topology::TopologyBuilder;
    use crate::SimReport;

    fn cfg() -> AgentConfig {
        AgentConfig::default()
    }

    fn t(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    #[test]
    fn slow_start_doubles_then_caps() {
        let c = cfg();
        let mut rc = SourceAgent::new(1, 0.0, 0.24);
        rc.start(&c, t(0.0), 0.24);
        assert_eq!(rc.rate(), 1.0);
        let mut now = t(0.0);
        for _ in 0..12 {
            now += SimDuration::from_millis(500);
            rc.epoch_update(&c, now);
        }
        // 1→2→4→8→16→32, then 64 > 32 triggers the halving to 32.
        assert!(rc.rate() >= 16.0 && rc.rate() <= 40.0, "rate {}", rc.rate());
    }

    #[test]
    fn feedback_in_slow_start_halves_once() {
        let c = cfg();
        let mut rc = SourceAgent::new(1, 0.0, 0.24);
        rc.start(&c, t(0.0), 0.24);
        rc.rate = 20.0;
        let exited = rc.on_feedback(&c, NodeId::from_index(1), t(1.0));
        assert!(exited);
        assert_eq!(rc.rate(), 10.0);
        // A second notification accumulates for the epoch instead.
        assert!(!rc.on_feedback(&c, NodeId::from_index(1), t(1.1)));
        rc.epoch_update(&c, t(1.5));
        assert_eq!(rc.rate(), 9.0); // −β·1
    }

    #[test]
    fn reacts_to_max_per_core_not_sum() {
        let c = cfg();
        let mut rc = SourceAgent::new(1, 0.0, 0.24);
        rc.start(&c, t(0.0), 0.24);
        rc.rate = 50.0;
        rc.phase = Phase::Linear;
        for _ in 0..3 {
            rc.on_feedback(&c, NodeId::from_index(1), t(1.0));
        }
        rc.on_feedback(&c, NodeId::from_index(2), t(1.0));
        rc.epoch_update(&c, t(1.5));
        // max(3, 1) = 3 ⇒ −3, not −4.
        assert_eq!(rc.rate(), 47.0);
    }

    #[test]
    fn contract_floor_is_never_pierced() {
        let c = cfg();
        let mut rc = SourceAgent::new(2, 100.0, 0.24);
        rc.start(&c, t(0.0), 0.24);
        assert!(rc.rate() >= 100.0);
        rc.phase = Phase::Linear;
        rc.rate = 103.0;
        for _ in 0..10 {
            rc.on_feedback(&c, NodeId::from_index(1), t(1.0));
        }
        rc.epoch_update(&c, t(1.5));
        assert_eq!(rc.rate(), 100.0);
    }

    #[test]
    fn marker_credit_tracks_excess_fraction() {
        let c = cfg();
        let mut rc = SourceAgent::new(1, 0.0, 0.24); // spacing 1, no contract
        rc.start(&c, t(0.0), 0.24);
        rc.rate = 10.0;
        // Best-effort: every packet is out-of-profile ⇒ every packet marks.
        assert!(rc.take_marker(1));
        assert!(rc.take_marker(1));
        // Contracted at half the rate: every second packet marks.
        let mut rc2 = SourceAgent::new(1, 5.0, 0.24);
        rc2.start(&c, t(0.0), 0.24);
        rc2.rate = 10.0;
        let marks = (0..100).filter(|_| rc2.take_marker(1)).count();
        assert!((48..=52).contains(&marks), "marks {marks}");
        assert!((rc2.normalized_excess() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn slow_start_exit_halving_is_scheme_aware() {
        // RateLimd (the default): the rate halves, the window is NOT
        // touched — halving it would leave stale window state behind if
        // the scheme were later switched per-scenario.
        let c = cfg();
        assert_eq!(c.adaptation, AdaptationScheme::RateLimd);
        let mut rc = SourceAgent::new(1, 0.0, 0.24);
        rc.start(&c, t(0.0), 0.24);
        let cwnd_before = rc.cwnd;
        rc.rate = 20.0;
        assert!(rc.on_feedback(&c, NodeId::from_index(1), t(1.0)));
        assert_eq!(rc.rate(), 10.0);
        assert_eq!(rc.cwnd, cwnd_before, "RateLimd must not halve cwnd");
        assert!(!rc.in_slow_start());

        // WindowAimd: the window halves and the rate is re-derived.
        let mut cw = cfg();
        cw.adaptation = AdaptationScheme::WindowAimd;
        let mut rc = SourceAgent::new(1, 0.0, 0.24);
        rc.start(&cw, t(0.0), 0.24);
        rc.cwnd = 16.0;
        rc.rate = rc.cwnd / rc.rtt;
        assert!(rc.on_feedback(&cw, NodeId::from_index(1), t(1.0)));
        assert_eq!(rc.cwnd, 8.0);
        assert!((rc.rate() - 8.0 / 0.24).abs() < 1e-9);
    }

    #[test]
    fn initial_window_scales_with_path_rtt() {
        // Regression: with a hard-coded 0.1 s default and
        // the `max(…, 1.0)` floor, a 24 ms-path flow and a 240 ms-path
        // flow both started from cwnd = 1.0. The initial window must be
        // RTT-proportional: 10× the path latency ⇒ 10× the window, and
        // identical initial *rates* (`initial_rate`, not `1/rtt`).
        let mut cw = cfg();
        cw.adaptation = AdaptationScheme::WindowAimd;
        let mut short = SourceAgent::new(1, 0.0, 0.024);
        let mut long = SourceAgent::new(1, 0.0, 0.24);
        short.start(&cw, t(0.0), 0.024);
        long.start(&cw, t(0.0), 0.24);
        assert!(
            (long.cwnd() / short.cwnd() - 10.0).abs() < 1e-9,
            "cwnd must scale with base RTT: short {} long {}",
            short.cwnd(),
            long.cwnd()
        );
        assert!(
            (short.rate() - cw.initial_rate).abs() < 1e-9,
            "{}",
            short.rate()
        );
        assert!(
            (long.rate() - cw.initial_rate).abs() < 1e-9,
            "{}",
            long.rate()
        );
    }

    #[test]
    fn update_rtt_rederives_rate_under_window_aimd() {
        let mut cw = cfg();
        cw.adaptation = AdaptationScheme::WindowAimd;
        let mut rc = SourceAgent::new(1, 0.0, 0.2);
        rc.start(&cw, t(0.0), 0.2);
        rc.cwnd = 10.0;
        rc.update_rtt(&cw, 0.5);
        assert!((rc.rate() - 20.0).abs() < 1e-9, "{}", rc.rate());
        assert_eq!(rc.rtt, 0.5);
        // RateLimd: the stored estimate moves, the rate does not.
        let c = cfg();
        let mut rc = SourceAgent::new(1, 0.0, 0.2);
        rc.start(&c, t(0.0), 0.2);
        rc.rate = 40.0;
        rc.update_rtt(&c, 0.5);
        assert_eq!(rc.rate(), 40.0);
    }

    #[test]
    fn feedback_max_reads_pending_epoch_counts() {
        let c = cfg();
        let mut rc = SourceAgent::new(1, 0.0, 0.24);
        rc.start(&c, t(0.0), 0.24);
        rc.phase = Phase::Linear;
        assert_eq!(rc.feedback_max(), 0);
        rc.on_feedback(&c, NodeId::from_index(1), t(1.0));
        rc.on_feedback(&c, NodeId::from_index(1), t(1.1));
        rc.on_feedback(&c, NodeId::from_index(2), t(1.2));
        assert_eq!(rc.feedback_max(), 2, "max per core, not the sum");
        rc.epoch_update(&c, t(1.5));
        assert_eq!(rc.feedback_max(), 0, "epoch update consumes the counts");
    }

    #[test]
    fn feedback_from_more_cores_than_fit_inline_is_still_counted_per_core() {
        let c = cfg();
        let mut rc = SourceAgent::new(1, 0.0, 0.24);
        rc.start(&c, t(0.0), 0.24);
        rc.phase = Phase::Linear;
        // Core k reports k times; cores 5 and 6 land in the spill.
        for round in 1..=6 {
            for core in round..=6 {
                rc.on_feedback(&c, NodeId::from_index(core), t(1.0));
            }
        }
        assert_eq!(rc.feedback.used, CoreCounts::INLINE);
        assert_eq!(rc.feedback.spill.len(), 2);
        assert_eq!(rc.feedback_max(), 6);
        rc.epoch_update(&c, t(1.5));
        assert_eq!(rc.feedback_max(), 0);
        rc.on_feedback(&c, NodeId::from_index(9), t(2.0));
        assert_eq!((rc.feedback.used, rc.feedback.spill.len()), (1, 0));
    }

    #[test]
    fn a_handed_down_series_buffer_starts_empty() {
        let c = cfg();
        let mut departed = SourceAgent::new(1, 0.0, 0.24);
        departed.start(&c, t(0.0), 0.24);
        departed.stop(t(1.0));
        let series = departed.into_series();
        assert_eq!(series.len(), 2);
        let mut arrival = SourceAgent::new(2, 0.0, 0.24).recording_into(series);
        assert!(arrival.series().is_empty(), "the departed flow's samples");
        arrival.start(&c, t(5.0), 0.24);
        let samples: Vec<_> = arrival.series().iter().collect();
        assert_eq!(samples, vec![(t(5.0), c.initial_rate)]);
    }

    #[test]
    fn stop_records_zero_and_blocks_feedback() {
        let c = cfg();
        let mut rc = SourceAgent::new(1, 0.0, 0.24);
        rc.start(&c, t(0.0), 0.24);
        rc.stop(t(5.0));
        assert!(!rc.is_active());
        assert_eq!(rc.series().last_value(), Some(0.0));
        assert!(!rc.on_feedback(&c, NodeId::from_index(1), t(6.0)));
    }

    const LABEL: Stamp = Stamp::Label {
        k_flow: SimDuration::from_millis(100),
    };

    /// At 10.25 s, reports two losses of flow 0, dropped at two different
    /// nodes, to node 0; forwards packets like [`ForwardLogic`].
    struct TwoLosses;

    impl RouterLogic for TwoLosses {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.set_timer(SimDuration::from_millis(10_250), TimerKind::tagged(0));
        }

        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _timer: TimerKind) {
            let flow = ctx.flow(FlowId::from_index(0)).id;
            for at in [1, 2].map(NodeId::from_index) {
                let loss = ControlMsg::Loss { flow, at };
                ctx.send_control(NodeId::from_index(0), SimDuration::ZERO, loss);
            }
        }
    }

    /// Flow 0, of contract `min_rate`, from an edge stamping `stamp`
    /// through `core` to a sink on uncongested 10 Mbps links.
    fn one_flow(
        stamp: Stamp,
        core: Box<dyn RouterLogic>,
        min_rate: f64,
        end: SimTime,
    ) -> SimReport {
        let mut b = TopologyBuilder::new(5);
        let epoch = SimDuration::from_millis(500);
        let edge = b.node("edge", |_| Box::new(AgentEdge::new(cfg(), epoch, stamp)));
        let core = b.node("core", |_| core);
        let sink = b.node("sink", |_| Box::new(ForwardLogic));
        let link = LinkSpec::new(10_000_000, SimDuration::from_millis(1), 100);
        b.link(edge, core, link);
        b.link(core, sink, link);
        let flow = FlowSpec::new(vec![edge, core, sink], 1).min_rate(min_rate);
        b.flow(flow.active(SimTime::ZERO, None));
        let mut net = b.build();
        net.run_until(end);
        net.into_report(end)
    }

    #[test]
    fn losses_from_two_nodes_in_one_epoch_add_up_for_a_label_flow() {
        // Slow-start ends at 6 s (64 > 32 halves to 32), so at 10.25 s
        // the flow is in the linear phase: two losses inside the
        // 10.0–10.5 s epoch are `m = 2`. Had they been counted per node
        // with the maximum taken, it would be 1.
        let report = one_flow(LABEL, Box::new(TwoLosses), 0.0, SimTime::from_secs(11));
        let rate = report.allotted_rate(FlowId::from_index(0)).unwrap();
        let before = rate.value_at(SimTime::from_secs(10)).unwrap();
        let after = rate.value_at(SimTime::from_millis(10_500)).unwrap();
        assert_eq!(before, 40.0, "32 at 6 s, +1 per epoch");
        assert_eq!(after, before - 2.0 * cfg().beta);
        assert_eq!(report.counter_total("losses_seen"), 2.0);
    }

    #[test]
    fn only_a_marker_edge_floors_a_contracted_flow() {
        let end = SimTime::from_secs(3);
        let corelite = one_flow(Stamp::Marker { k1: 1 }, Box::new(ForwardLogic), 50.0, end);
        let rate = corelite.allotted_rate(FlowId::from_index(0)).unwrap();
        assert!(rate.iter().all(|(_, r)| r >= 50.0), "{rate:?}");
        // CSFQ has no contracts: the same flow slow-starts from 1 pkt/s.
        let csfq = one_flow(LABEL, Box::new(ForwardLogic), 50.0, end);
        let rate = csfq.allotted_rate(FlowId::from_index(0)).unwrap();
        assert_eq!(rate.iter().next(), Some((SimTime::ZERO, 1.0)));
        assert!(rate.last_value().unwrap() < 50.0, "{rate:?}");
    }
}
