//! Greedy, non-adaptive sources.
//!
//! Each flow sends at a fixed offered rate regardless of congestion
//! signals — the adversarial workload against which fairness mechanisms
//! are judged. Under plain FIFO or RED cores, goodput tracks the offered
//! load ("send more, get more"); under Corelite or CSFQ it tracks the
//! configured weights.

use sim_core::time::{SimDuration, SimTime};

use netsim::ids::FlowId;
use netsim::logic::{Ctx, LogicReport, RouterLogic, TimerKind};
use netsim::pacer::Pacer;

const TIMER_EMIT: u32 = 1;

/// A source that emits every active flow (whose ingress is this node) at
/// a fixed per-flow rate, ignoring all feedback.
#[derive(Debug)]
pub struct GreedySource {
    /// Offered rate per flow id, packets per second; flows not listed use
    /// `default_rate`.
    rates: netsim::slab::DenseMap<FlowId, f64>,
    default_rate: f64,
    pacer: Pacer,
    emitted: u64,
}

impl GreedySource {
    /// Creates a source offering `default_rate` packets per second for
    /// every flow starting at this node.
    ///
    /// # Panics
    ///
    /// Panics if `default_rate` is not strictly positive.
    pub fn new(default_rate: f64) -> Self {
        assert!(default_rate > 0.0, "offered rate must be positive");
        GreedySource {
            rates: netsim::slab::DenseMap::new(),
            default_rate,
            pacer: Pacer::new(TIMER_EMIT),
            emitted: 0,
        }
    }

    /// Overrides the offered rate for one flow (builder-style).
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not strictly positive.
    pub fn with_rate(mut self, flow: FlowId, rate: f64) -> Self {
        assert!(rate > 0.0, "offered rate must be positive");
        self.rates.insert(flow, rate);
        self
    }

    fn rate_of(&self, flow: FlowId) -> f64 {
        self.rates.get(&flow).copied().unwrap_or(self.default_rate)
    }
}

impl RouterLogic for GreedySource {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.ignore_loss_notifications();
    }

    fn on_flow_start(&mut self, ctx: &mut Ctx<'_>, flow: FlowId) {
        // A restart kills whatever chain the previous activation left
        // pending; the chain itself ends when a fire finds the flow
        // stopped.
        self.pacer.reset(flow.index());
        self.pacer.arm(ctx, flow.index(), SimDuration::ZERO);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, timer: TimerKind) {
        let fired = self.pacer.fired(timer.param);
        let Some(flow) = fired.and_then(|slot| ctx.sending_flow(slot)) else {
            return;
        };
        let packet = ctx.new_packet(flow);
        ctx.emit(packet);
        self.emitted += 1;
        let gap = SimDuration::from_secs_f64(1.0 / self.rate_of(flow));
        self.pacer.arm(ctx, flow.index(), gap);
    }

    fn report(&self, _now: SimTime) -> LogicReport {
        let mut report = LogicReport::default();
        report.count("greedy_emitted", self.emitted as f64);
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::flow::FlowSpec;
    use netsim::link::LinkSpec;
    use netsim::logic::ForwardLogic;
    use netsim::topology::TopologyBuilder;

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
        let emitted = report.counter_total("greedy_emitted");
        assert!((emitted - 8000.0).abs() < 20.0, "emitted {emitted}");
        let delivered = report.flow(f).delivered_packets as f64;
        assert!((delivered - 5000.0).abs() < 100.0, "delivered {delivered}");
        assert!(report.flow(f).tail_drops > 2500);
    }

    #[test]
    fn per_flow_rate_overrides_apply() {
        let src = GreedySource::new(100.0).with_rate(FlowId::from_index(3), 250.0);
        assert_eq!(src.rate_of(FlowId::from_index(3)), 250.0);
        assert_eq!(src.rate_of(FlowId::from_index(0)), 100.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_rate_rejected() {
        GreedySource::new(0.0);
    }
}
