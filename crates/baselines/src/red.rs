//! Random Early Detection (RED) core router.
//!
//! Implements the Floyd–Jacobson gateway the paper cites as \[9\]: on
//! every packet arrival the router updates an exponentially weighted
//! moving average of the output queue length and drops the packet with a
//! probability that ramps linearly from 0 at `min_thresh` to `max_p` at
//! `max_thresh` (and 1 beyond). RED spreads losses over time and avoids
//! global synchronization, but — as the paper stresses — knows nothing of
//! flows or weights, so it cannot provide (weighted) fairness.

use sim_core::rng::DetRng;
use sim_core::time::SimTime;

use netsim::ids::LinkId;
use netsim::logic::{Ctx, LogicReport, RouterLogic};
use netsim::packet::Packet;

/// RED parameters (classic values from the 1993 paper, scaled to the
/// reproduction's 40-packet queues).
#[derive(Debug, Clone, PartialEq)]
pub struct RedConfig {
    /// EWMA gain `w_q` applied per arriving packet (classic: 0.002; we
    /// default higher because our queues are small).
    pub wq: f64,
    /// No drops while the average queue is below this (packets).
    pub min_thresh: f64,
    /// All packets dropped at or above this average (packets).
    pub max_thresh: f64,
    /// Drop probability at `max_thresh`.
    pub max_p: f64,
}

impl Default for RedConfig {
    fn default() -> Self {
        RedConfig {
            wq: 0.02,
            min_thresh: 5.0,
            max_thresh: 15.0,
            max_p: 0.1,
        }
    }
}

impl RedConfig {
    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range parameters.
    pub fn validate(&self) {
        assert!(self.wq > 0.0 && self.wq <= 1.0, "w_q must be in (0, 1]");
        assert!(
            self.min_thresh >= 0.0 && self.max_thresh > self.min_thresh,
            "thresholds must satisfy 0 <= min < max"
        );
        assert!(
            self.max_p > 0.0 && self.max_p <= 1.0,
            "max_p must be in (0, 1]"
        );
    }
}

#[derive(Debug, Clone, Default)]
struct LinkAvg {
    avg: f64,
    /// Packets since the last drop, for RED's drop-spacing correction.
    count: u64,
}

/// A RED core router: EWMA queue estimate + probabilistic early drop,
/// per outgoing link. No per-flow state of any kind.
#[derive(Debug)]
pub struct RedCore {
    cfg: RedConfig,
    rng: DetRng,
    // Indexed lazily; links discovered on first packet.
    links: netsim::slab::DenseMap<LinkId, LinkAvg>,
    early_drops: u64,
    forwarded: u64,
}

impl RedCore {
    /// Creates RED logic with the given component `seed` and parameters.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`RedConfig::validate`].
    pub fn new(seed: u64, cfg: RedConfig) -> Self {
        cfg.validate();
        RedCore {
            cfg,
            rng: DetRng::new(seed),
            links: netsim::slab::DenseMap::new(),
            early_drops: 0,
            forwarded: 0,
        }
    }
}

impl RouterLogic for RedCore {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, packet: Packet) {
        let Some(link) = ctx.next_hop(packet.flow) else {
            return;
        };
        let q = ctx.link_queue_len(link) as f64;
        let state = self.links.entry_or_insert_with(link, LinkAvg::default);
        state.avg = (1.0 - self.cfg.wq) * state.avg + self.cfg.wq * q;
        let p_base = if state.avg < self.cfg.min_thresh {
            0.0
        } else if state.avg >= self.cfg.max_thresh {
            1.0
        } else {
            self.cfg.max_p * (state.avg - self.cfg.min_thresh)
                / (self.cfg.max_thresh - self.cfg.min_thresh)
        };
        // Floyd–Jacobson drop-spacing: p = p_b / (1 − count·p_b) spreads
        // drops roughly uniformly between drops.
        let p = if p_base > 0.0 && p_base < 1.0 {
            (p_base / (1.0 - (state.count as f64) * p_base).max(p_base)).min(1.0)
        } else {
            p_base
        };
        if self.rng.bernoulli(p) {
            state.count = 0;
            self.early_drops += 1;
            ctx.drop_packet(packet);
        } else {
            state.count += 1;
            self.forwarded += 1;
            ctx.forward(link, packet);
        }
    }

    fn report(&self, _now: SimTime) -> LogicReport {
        let mut report = LogicReport::default();
        report.count("red_early_drops", self.early_drops as f64);
        report.count("red_forwarded", self.forwarded as f64);
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::flow::FlowSpec;
    use netsim::link::LinkSpec;
    use netsim::logic::{CbrSource, ForwardLogic};
    use netsim::topology::TopologyBuilder;
    use sim_core::time::SimDuration;

    #[test]
    #[should_panic(expected = "thresholds")]
    fn inverted_thresholds_rejected() {
        RedCore::new(
            0,
            RedConfig {
                min_thresh: 20.0,
                max_thresh: 10.0,
                ..RedConfig::default()
            },
        );
    }

    /// One CBR source overdriving a bottleneck through a RED router.
    fn overload_run(rate: f64) -> netsim::SimReport {
        let mut b = TopologyBuilder::new(77);
        let src = b.node("src", move |_| Box::new(CbrSource::new(rate)));
        let red = b.node("red", |s| Box::new(RedCore::new(s, RedConfig::default())));
        let dst = b.node("dst", |_| Box::new(ForwardLogic));
        b.link(
            src,
            red,
            LinkSpec::new(40_000_000, SimDuration::from_millis(1), 400),
        );
        b.link(
            red,
            dst,
            LinkSpec::new(4_000_000, SimDuration::from_millis(10), 40),
        );
        b.flow(FlowSpec::new(vec![src, red, dst], 1).active(SimTime::ZERO, None));
        let end = SimTime::from_secs(30);
        let mut net = b.build();
        net.run_until(end);
        net.into_report(end)
    }

    #[test]
    fn red_drops_early_under_overload() {
        let report = overload_run(700.0); // 700 pkt/s into 500 pkt/s
        let early = report.counter_total("red_early_drops");
        assert!(early > 0.0, "RED should drop before the queue fills");
        // Early drops keep the queue from riding at its 40-packet cap.
        assert!(
            report.links[1].peak_occupancy < 40,
            "peak {} should stay below the drop-tail cap",
            report.links[1].peak_occupancy
        );
    }

    #[test]
    fn red_is_transparent_when_uncongested() {
        let report = overload_run(100.0);
        assert_eq!(report.counter_total("red_early_drops"), 0.0);
        assert_eq!(report.total_drops(), 0);
        assert!(report.flows[0].delivered_packets > 2900);
    }
}
