//! The CSFQ edge: a [`netsim::agent::AgentEdge`] with a
//! [`Stamp::Label`]. It labels every packet with its flow's
//! exponentially averaged rate ([`K_FLOW`]) divided by the weight, and
//! runs the paper's §4 source agent — the same one as Corelite's edges —
//! with a packet *loss* as the congestion indication: each loss in an
//! epoch takes `β` off the rate.

use sim_core::time::SimDuration;

use netsim::agent::{AgentEdge, Source, Stamp};

use crate::config::CsfqConfig;

/// Time constant `K` of the edge's per-flow rate estimate (paper:
/// 100 ms).
pub const K_FLOW: SimDuration = SimDuration::from_millis(100);

/// Source-agent adaptation epoch: the Corelite edges' 500 ms default, per
/// §4's "similar rate adaptation schemes".
pub const EDGE_EPOCH: SimDuration = SimDuration::from_millis(500);

impl CsfqConfig {
    /// Logic for a CSFQ (ingress) edge router plus the paper's source
    /// agents. See the [crate docs](crate) for an example.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`CsfqConfig::validate`].
    pub fn edge(&self) -> AgentEdge {
        self.validate();
        let stamp = Stamp::Label { k_flow: K_FLOW };
        AgentEdge::new(self.agent(), EDGE_EPOCH, stamp, Source::Mint)
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
    use netsim::FlowId;
    use netsim::SimReport;
    use sim_core::time::SimTime;

    /// Two flows (weights `w1`, `w2`) share one 500 pkt/s bottleneck.
    fn bottleneck_scenario(w1: u32, w2: u32, end: SimTime) -> SimReport {
        let cfg = CsfqConfig::default();
        let mut b = TopologyBuilder::new(23);
        let e1 = b.node("edge1", |_| Box::new(cfg.edge()));
        let e2 = b.node("edge2", |_| Box::new(cfg.edge()));
        let core = b.node("core", |s| Box::new(CsfqCore::new(s)));
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
