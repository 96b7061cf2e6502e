//! The per-flow rate-control state machine shared by Corelite ingress
//! edges and inter-cloud gateways.
//!
//! A [`RateController`] owns everything §2 step 3 and §4 prescribe for
//! one flow at one edge: the allowed rate `b_g`, the slow-start /
//! linear-increase phase machine, the per-core feedback bookkeeping (the
//! edge reacts to the **max** per-core marker count), the minimum-rate
//! contract floor, the out-of-profile marker credit, and the recorded
//! allotted-rate series. The hosting logic decides *what* to emit (a
//! shaped synthetic source at an ingress edge, a store-and-forward buffer
//! at a gateway); the controller decides *how fast*.

use sim_core::stats::TimeSeries;
use sim_core::time::SimTime;

use netsim::ids::{FlowId, NodeId};
use netsim::logic::Ctx;
use netsim::telemetry::Sample;

use crate::config::{AdaptationScheme, CoreliteConfig, DecreasePolicy};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    SlowStart,
    Linear,
}

/// Marker counts of the current epoch, per sending core router. A flow
/// hears from the few cores on its path, so the counts live inline in the
/// controller; only a path with more than [`CoreCounts::INLINE`]
/// congested cores spills to the heap.
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
pub struct RateController {
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
}

impl RateController {
    /// Creates an inactive controller for a flow of the given `weight`
    /// and contract `min_rate`. `base_rtt` is the flow's base round-trip
    /// estimate — the sum of its path links' propagation latencies,
    /// forward plus reverse — which seeds the window/rate conversion
    /// until live measurements arrive via
    /// [`update_rtt`](RateController::update_rtt). There is deliberately
    /// no default: a hard-coded RTT made every `WindowAimd` flow start
    /// from the same window regardless of its actual path.
    pub fn new(weight: u32, min_rate: f64, base_rtt: f64) -> Self {
        RateController {
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

    /// Consumes the controller, returning its recorded series.
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
    pub fn start(&mut self, cfg: &CoreliteConfig, now: SimTime, rtt: f64) {
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

    /// The current congestion window, packets (meaningful under
    /// [`AdaptationScheme::WindowAimd`]).
    pub fn cwnd(&self) -> f64 {
        self.cwnd
    }

    /// The round-trip estimate the window/rate conversion currently uses.
    pub fn rtt(&self) -> f64 {
        self.rtt
    }

    /// Feeds a live round-trip measurement (e.g. an SRTT from an
    /// ack-clocked transport) into the window/rate conversion, replacing
    /// the static base estimate. Under `WindowAimd` the rate is re-derived
    /// immediately: the window is the control variable and the rate is a
    /// pure function of `(cwnd, rtt)`. Under `RateLimd` the rate is the
    /// control variable, so only the stored estimate changes.
    pub fn update_rtt(&mut self, cfg: &CoreliteConfig, rtt: f64) {
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
    /// `N_w = K1·w` *out-of-profile* packets; contracted in-profile
    /// traffic never marks).
    pub fn take_marker(&mut self, cfg: &CoreliteConfig) -> bool {
        let spacing = cfg.marker_spacing(self.weight) as f64;
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
    pub fn on_feedback(&mut self, cfg: &CoreliteConfig, from: NodeId, now: SimTime) -> bool {
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

    /// The highest per-core marker count accumulated since the last epoch
    /// update — the paper's `m(f)`. Read it *before*
    /// [`epoch_update`](RateController::epoch_update), which consumes the
    /// counts.
    pub fn feedback_max(&self) -> u32 {
        self.feedback.max()
    }

    /// Whether the controller is still in slow-start.
    pub fn in_slow_start(&self) -> bool {
        self.phase == Phase::SlowStart
    }

    /// Applies one adaptation epoch at `now` (§2 step 3): `+α` on
    /// silence, throttle on feedback (max per-core count), slow-start
    /// doubling on its own clock. Records the new rate.
    pub fn epoch_update(&mut self, cfg: &CoreliteConfig, now: SimTime) {
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
                        Phase::SlowStart => self.try_double(cfg, now),
                        Phase::Linear => {
                            self.rate += if cfg.alpha_per_weight {
                                cfg.alpha * self.weight as f64
                            } else {
                                cfg.alpha
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
                        Phase::SlowStart => self.try_double_window(cfg, now),
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
    /// controllers publish nothing.
    pub fn run_epoch(&mut self, ctx: &Ctx<'_>, cfg: &CoreliteConfig, flow: FlowId) {
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

    fn ss_thresh(&self, cfg: &CoreliteConfig) -> f64 {
        if cfg.ss_thresh_per_weight {
            cfg.ss_thresh * self.weight as f64
        } else {
            cfg.ss_thresh
        }
    }

    fn try_double(&mut self, cfg: &CoreliteConfig, now: SimTime) {
        if now.saturating_since(self.last_double) >= cfg.slow_start_interval {
            self.rate *= 2.0;
            self.last_double = now;
            if self.rate > self.ss_thresh(cfg) {
                self.rate /= 2.0;
                self.phase = Phase::Linear;
            }
        }
    }

    fn try_double_window(&mut self, cfg: &CoreliteConfig, now: SimTime) {
        if now.saturating_since(self.last_double) >= cfg.slow_start_interval {
            self.cwnd *= 2.0;
            self.last_double = now;
            if self.cwnd / self.rtt > self.ss_thresh(cfg) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::time::SimDuration;

    fn cfg() -> CoreliteConfig {
        CoreliteConfig::default()
    }

    fn t(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    #[test]
    fn slow_start_doubles_then_caps() {
        let c = cfg();
        let mut rc = RateController::new(1, 0.0, 0.24);
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
        let mut rc = RateController::new(1, 0.0, 0.24);
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
        let mut rc = RateController::new(1, 0.0, 0.24);
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
        let mut rc = RateController::new(2, 100.0, 0.24);
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
        let mut rc = RateController::new(1, 0.0, 0.24); // spacing 1, no contract
        rc.start(&c, t(0.0), 0.24);
        rc.rate = 10.0;
        // Best-effort: every packet is out-of-profile ⇒ every packet marks.
        assert!(rc.take_marker(&c));
        assert!(rc.take_marker(&c));
        // Contracted at half the rate: every second packet marks.
        let mut rc2 = RateController::new(1, 5.0, 0.24);
        rc2.start(&c, t(0.0), 0.24);
        rc2.rate = 10.0;
        let marks = (0..100).filter(|_| rc2.take_marker(&c)).count();
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
        let mut rc = RateController::new(1, 0.0, 0.24);
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
        let mut rc = RateController::new(1, 0.0, 0.24);
        rc.start(&cw, t(0.0), 0.24);
        rc.cwnd = 16.0;
        rc.rate = rc.cwnd / rc.rtt;
        assert!(rc.on_feedback(&cw, NodeId::from_index(1), t(1.0)));
        assert_eq!(rc.cwnd, 8.0);
        assert!((rc.rate() - 8.0 / 0.24).abs() < 1e-9);
    }

    #[test]
    fn initial_window_scales_with_path_rtt() {
        // Regression (ISSUE 10): with the hard-coded 0.1 s default and
        // the `max(…, 1.0)` floor, a 24 ms-path flow and a 240 ms-path
        // flow both started from cwnd = 1.0. The initial window must be
        // RTT-proportional: 10× the path latency ⇒ 10× the window, and
        // identical initial *rates* (`initial_rate`, not `1/rtt`).
        let mut cw = cfg();
        cw.adaptation = AdaptationScheme::WindowAimd;
        let mut short = RateController::new(1, 0.0, 0.024);
        let mut long = RateController::new(1, 0.0, 0.24);
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
        let mut rc = RateController::new(1, 0.0, 0.2);
        rc.start(&cw, t(0.0), 0.2);
        rc.cwnd = 10.0;
        rc.update_rtt(&cw, 0.5);
        assert!((rc.rate() - 20.0).abs() < 1e-9, "{}", rc.rate());
        assert_eq!(rc.rtt(), 0.5);
        // RateLimd: the stored estimate moves, the rate does not.
        let c = cfg();
        let mut rc = RateController::new(1, 0.0, 0.2);
        rc.start(&c, t(0.0), 0.2);
        rc.rate = 40.0;
        rc.update_rtt(&c, 0.5);
        assert_eq!(rc.rate(), 40.0);
    }

    #[test]
    fn feedback_max_reads_pending_epoch_counts() {
        let c = cfg();
        let mut rc = RateController::new(1, 0.0, 0.24);
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
        let mut rc = RateController::new(1, 0.0, 0.24);
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
        let mut departed = RateController::new(1, 0.0, 0.24);
        departed.start(&c, t(0.0), 0.24);
        departed.stop(t(1.0));
        let series = departed.into_series();
        assert_eq!(series.len(), 2);
        let mut arrival = RateController::new(2, 0.0, 0.24).recording_into(series);
        assert!(arrival.series().is_empty(), "the departed flow's samples");
        arrival.start(&c, t(5.0), 0.24);
        let samples: Vec<_> = arrival.series().iter().collect();
        assert_eq!(samples, vec![(t(5.0), c.initial_rate)]);
    }

    #[test]
    fn stop_records_zero_and_blocks_feedback() {
        let c = cfg();
        let mut rc = RateController::new(1, 0.0, 0.24);
        rc.start(&c, t(0.0), 0.24);
        rc.stop(t(5.0));
        assert!(!rc.is_active());
        assert_eq!(rc.series().last_value(), Some(0.0));
        assert!(!rc.on_feedback(&c, NodeId::from_index(1), t(6.0)));
    }
}
