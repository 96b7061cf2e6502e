//! The CSFQ core router: fair-share estimation and probabilistic dropping.
//!
//! Per outgoing link the router keeps a [`FairShareEstimator`] — the
//! SIGCOMM '98 algorithm: exponentially averaged aggregate arrival rate
//! `A` and accepted rate `F`; when the link is congested (`A ≥ C`) the
//! fair share is updated multiplicatively every `K_link`
//! (`α ← α·C/F`), and while uncongested `α` tracks the largest label
//! seen in the window. Each arriving packet is dropped with probability
//! `max(0, 1 − α/label)` and forwarded packets are relabelled to
//! `min(label, α)`.
//!
//! This estimate-then-drop structure is exactly what the Corelite paper
//! criticises: when the fair share changes faster than the estimator
//! tracks, under-estimates drop packets from flows below their fair share
//! and over-estimates fill the buffer until tail drop (§4.2).

use sim_core::rng::DetRng;
use sim_core::stats::ExpAvg;
use sim_core::time::{SimDuration, SimTime};

use netsim::ids::LinkId;
use netsim::logic::{Ctx, LogicReport, RouterLogic};
use netsim::packet::Packet;
use netsim::slab::DenseMap;
use netsim::telemetry::Sample;

use crate::config::CsfqConfig;

/// The per-link fair-share estimation state of a CSFQ core router.
#[derive(Debug, Clone)]
pub struct FairShareEstimator {
    capacity_pps: f64,
    k_link: SimDuration,
    arrival: ExpAvg,
    accepted: ExpAvg,
    alpha: Option<f64>,
    tmp_alpha: f64,
    congested: bool,
    window_start: SimTime,
    /// `K_link` windows closed so far (the moments `α` is re-estimated).
    windows_closed: u64,
}

impl FairShareEstimator {
    /// Creates an estimator for a link of `capacity_pps` packets per
    /// second with update window `k_link`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_pps` is not positive or `k_link` is zero.
    pub fn new(capacity_pps: f64, k_link: SimDuration) -> Self {
        assert!(
            capacity_pps > 0.0,
            "link capacity must be positive, got {capacity_pps}"
        );
        assert!(!k_link.is_zero(), "K_link must be positive");
        FairShareEstimator {
            capacity_pps,
            k_link,
            arrival: ExpAvg::new(k_link),
            accepted: ExpAvg::new(k_link),
            alpha: None,
            tmp_alpha: 0.0,
            congested: false,
            window_start: SimTime::ZERO,
            windows_closed: 0,
        }
    }

    /// The current fair-share estimate `α` in normalized packets per
    /// second, or `None` before the first estimate exists.
    pub fn alpha(&self) -> Option<f64> {
        self.alpha
    }

    /// Whether the link currently measures as congested (`A ≥ C`).
    pub fn is_congested(&self) -> bool {
        self.congested
    }

    /// Processes one packet arrival with the given `label` (normalized
    /// rate) and returns the probability with which it should be dropped.
    ///
    /// The caller must then report the outcome via
    /// [`FairShareEstimator::on_accept`] for forwarded packets.
    pub fn on_arrival(&mut self, now: SimTime, label: f64) -> f64 {
        let a = self.arrival.observe(now, 1.0);
        if a >= self.capacity_pps {
            if !self.congested {
                self.congested = true;
                self.window_start = now;
                // Entering congestion: adopt the best uncongested estimate
                // (the largest label seen), falling back to the label at
                // hand — mirrors the ns implementation's initialisation.
                if self.alpha.is_none() {
                    self.alpha = Some(if self.tmp_alpha > 0.0 {
                        self.tmp_alpha
                    } else {
                        label
                    });
                }
            } else if now.saturating_since(self.window_start) >= self.k_link {
                let f = self.accepted.rate().max(1e-9);
                let current = self.alpha.unwrap_or(label);
                self.alpha = Some(current * self.capacity_pps / f);
                self.window_start = now;
                self.windows_closed += 1;
            }
        } else {
            if self.congested {
                self.congested = false;
                self.window_start = now;
                self.tmp_alpha = 0.0;
            }
            if now.saturating_since(self.window_start) < self.k_link {
                self.tmp_alpha = self.tmp_alpha.max(label);
            } else {
                // An uncongested window elapsed: the fair share is at least
                // the largest normalized rate currently using the link.
                self.alpha = Some(self.tmp_alpha.max(label));
                self.window_start = now;
                self.tmp_alpha = 0.0;
                self.windows_closed += 1;
            }
        }
        match self.alpha {
            Some(alpha) if self.congested && label > 0.0 => (1.0 - alpha / label).max(0.0),
            _ => 0.0,
        }
    }

    /// Records that the packet was forwarded (feeds the accepted-rate
    /// estimate `F`) and returns the relabelled value `min(label, α)`.
    pub fn on_accept(&mut self, now: SimTime, label: f64) -> f64 {
        self.accepted.observe(now, 1.0);
        match self.alpha {
            Some(alpha) => label.min(alpha),
            None => label,
        }
    }

    /// Applies the buffer-overflow penalty `α ← α·penalty` (the ns
    /// implementation decreases the estimate when the queue overflows
    /// despite probabilistic dropping).
    pub fn on_overflow(&mut self, penalty: f64) {
        if let Some(alpha) = self.alpha {
            self.alpha = Some(alpha * penalty);
        }
    }
}

/// Router logic for a CSFQ core router: probabilistic, label-driven
/// dropping with no per-flow state.
#[derive(Debug)]
pub struct CsfqCore {
    cfg: CsfqConfig,
    rng: DetRng,
    links: DenseMap<LinkId, FairShareEstimator>,
    policy_drops: u64,
    forwarded: u64,
}

impl CsfqCore {
    /// Creates core logic with the given component `seed` and
    /// configuration.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`CsfqConfig::validate`].
    pub fn new(seed: u64, cfg: CsfqConfig) -> Self {
        cfg.validate();
        CsfqCore {
            cfg,
            rng: DetRng::new(seed),
            links: DenseMap::new(),
            policy_drops: 0,
            forwarded: 0,
        }
    }

    /// The fair-share estimator of `link`, if the node owns it.
    pub fn estimator(&self, link: LinkId) -> Option<&FairShareEstimator> {
        self.links.get(&link)
    }
}

impl RouterLogic for CsfqCore {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        for link in ctx.outgoing_links() {
            let spec = ctx.link_spec(link);
            let capacity = spec.service_rate_pps(self.cfg.reference_packet_size);
            self.links
                .insert(link, FairShareEstimator::new(capacity, self.cfg.k_link));
        }
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, mut packet: Packet) {
        let Some(link) = ctx.next_hop(packet.flow) else {
            return;
        };
        let est = self
            .links
            .get_mut(&link)
            .expect("estimator initialised in on_start");
        let label = packet.label.unwrap_or(0.0);
        let now = ctx.now();
        let closed = est.windows_closed;
        let p_drop = est.on_arrival(now, label);
        // CSFQ has no epoch timer; its telemetry clock is the estimator's
        // own `K_link` window, so a probe adds no event.
        if est.windows_closed != closed {
            if let Some(alpha) = est.alpha() {
                ctx.publish(Sample::for_link("alpha", link, alpha));
            }
            ctx.publish(Sample::for_link(
                "congested",
                link,
                f64::from(est.is_congested()),
            ));
        }
        if self.rng.bernoulli(p_drop) {
            self.policy_drops += 1;
            ctx.drop_packet(packet);
            return;
        }
        let new_label = est.on_accept(now, label);
        // Approaching buffer exhaustion means the estimate is too high.
        if ctx.link_queue_len(link) >= ctx.link_spec(link).queue_capacity {
            let penalty = self.cfg.overflow_penalty;
            self.links
                .get_mut(&link)
                .expect("estimator exists")
                .on_overflow(penalty);
        }
        packet.label = Some(new_label);
        self.forwarded += 1;
        ctx.forward(link, packet);
    }

    fn report(&self, _now: SimTime) -> LogicReport {
        let mut report = LogicReport::default();
        report.count("csfq_policy_drops", self.policy_drops as f64);
        report.count("csfq_forwarded", self.forwarded as f64);
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn uncongested_link_never_drops() {
        let mut est = FairShareEstimator::new(500.0, SimDuration::from_millis(100));
        // 100 pkt/s aggregate on a 500 pkt/s link.
        for i in 1..=200u64 {
            let p = est.on_arrival(t(i * 10), 100.0);
            assert_eq!(p, 0.0);
            est.on_accept(t(i * 10), 100.0);
        }
        assert!(!est.is_congested());
        // Fair share settles at the largest label seen.
        assert!(est.alpha().unwrap() >= 100.0);
    }

    #[test]
    fn congested_link_drops_over_limit_flows() {
        let mut est = FairShareEstimator::new(500.0, SimDuration::from_millis(100));
        // 1000 pkt/s aggregate: every 1 ms, labels alternating 800 / 200.
        let mut high_drop = 0.0;
        let mut low_drop = 0.0;
        for i in 1..=4000u64 {
            let label = if i % 2 == 0 { 800.0 } else { 200.0 };
            let p = est.on_arrival(SimTime::from_micros(i * 1000), label);
            if i > 2000 {
                if label > 500.0 {
                    high_drop += p;
                } else {
                    low_drop += p;
                }
            }
            if p < 0.5 {
                est.on_accept(SimTime::from_micros(i * 1000), label);
            }
        }
        assert!(est.is_congested());
        assert!(
            high_drop > low_drop * 2.0,
            "high-label flows must be dropped much more: {high_drop} vs {low_drop}"
        );
    }

    #[test]
    fn relabel_caps_at_alpha() {
        let mut est = FairShareEstimator::new(500.0, SimDuration::from_millis(100));
        // Force congestion so alpha exists.
        for i in 1..=2000u64 {
            est.on_arrival(SimTime::from_micros(i * 500), 700.0);
            est.on_accept(SimTime::from_micros(i * 500), 700.0);
        }
        let alpha = est.alpha().unwrap();
        let relabelled = est.on_accept(t(2001), 10_000.0);
        assert!(relabelled <= alpha);
        let kept = est.on_accept(t(2002), alpha / 2.0);
        assert!((kept - alpha / 2.0).abs() < 1e-9);
    }

    #[test]
    fn overflow_penalty_shrinks_alpha() {
        let mut est = FairShareEstimator::new(500.0, SimDuration::from_millis(100));
        for i in 1..=2000u64 {
            est.on_arrival(SimTime::from_micros(i * 500), 700.0);
            est.on_accept(SimTime::from_micros(i * 500), 700.0);
        }
        let before = est.alpha().unwrap();
        est.on_overflow(0.99);
        assert!((est.alpha().unwrap() - before * 0.99).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn invalid_capacity_rejected() {
        FairShareEstimator::new(0.0, SimDuration::from_millis(100));
    }
}
