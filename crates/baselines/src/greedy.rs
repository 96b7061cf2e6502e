//! Greedy, non-adaptive sources.
//!
//! Each flow sends at a fixed offered rate regardless of congestion
//! signals — the adversarial workload against which fairness mechanisms
//! are judged. Under plain FIFO or RED cores, goodput tracks the offered
//! load ("send more, get more"); under Corelite or CSFQ it tracks the
//! configured weights.

/// A source that emits every active flow whose ingress is this node at
/// one fixed rate, ignoring all feedback: `netsim`'s constant-rate
/// source, under the name the §5 experiments know it by.
pub use netsim::logic::CbrSource as GreedySource;

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::flow::FlowSpec;
    use netsim::link::LinkSpec;
    use netsim::logic::ForwardLogic;
    use netsim::topology::TopologyBuilder;
    use sim_core::time::{SimDuration, SimTime};

    #[test]
    fn greedy_ignores_losses() {
        // 800 pkt/s into a 500 pkt/s link: a greedy source keeps sending
        // at its offered rate; deliveries cap at the link rate.
        let mut b = TopologyBuilder::new(5);
        let src = b.node("src", |_| Box::new(GreedySource::new(800.0)));
        let dst = b.node("dst", |_| Box::new(ForwardLogic));
        b.link(
            src,
            dst,
            LinkSpec::new(4_000_000, SimDuration::from_millis(10), 40),
        );
        let f = b.flow(FlowSpec::new(vec![src, dst], 1).active(SimTime::ZERO, None));
        let end = SimTime::from_secs(10);
        let mut net = b.build();
        net.run_until(end);
        let report = net.into_report(end);
        let emitted = report.counter_total("emitted_packets");
        assert!((emitted - 8000.0).abs() < 20.0, "emitted {emitted}");
        let delivered = report.flow(f).delivered_packets as f64;
        assert!((delivered - 5000.0).abs() < 100.0, "delivered {delivered}");
        assert!(report.flow(f).tail_drops > 2500);
    }
}
