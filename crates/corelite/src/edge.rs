//! The Corelite edge router (§2, steps 1 and 3): a
//! [`netsim::agent::AgentEdge`] with a [`Stamp::Marker`]. It shapes each
//! flow to its allowed rate `b_g`, piggybacks a marker carrying the
//! normalized *out-of-profile* rate `(b_g − min)/w` once per `K1·w`
//! out-of-profile packets (contracted traffic is never marked, so never
//! throttled), and adapts per epoch on the **maximum** per-core marker
//! count. Losses are ignored: *"edges react only to congestion
//! indications"* (§4.3).
//!
//! The same edge fed by another [`Source`] is the paper's deferred
//! edge-to-edge machinery:
//!
//! * [`CoreliteConfig::gateway`] joins two clouds, each running Corelite
//!   independently (§2). It buffers a crossing flow's packets, re-shapes
//!   them at its own `b_g` and adapts to the *downstream* cloud's
//!   feedback: upstream markers end at it and fresh ones start. The flow
//!   converges to the minimum of its per-cloud weighted fair shares, the
//!   buffer absorbing the mismatch (`examples/two_clouds.rs`).
//! * [`CoreliteConfig::aggregating_edge`] treats all micro-flows sharing
//!   an egress as **one** edge-to-edge flow (§2, §6): one rate class,
//!   one `b_g`, one marker stream, its allowance divided round-robin
//!   among the active members.
//!
//! [`CoreliteConfig::ingress`] picks a flow's ingress by its transport:
//! this edge for `limd`, a marking go-back-N sender for `gbn` and `reno`.

use netsim::agent::{self, AgentEdge, Source, Stamp};
use netsim::logic::RouterLogic;
use netsim::Transport;

use crate::config::CoreliteConfig;

impl CoreliteConfig {
    /// Logic for a Corelite (ingress) edge router, managing every flow
    /// whose path begins at its node; see the [crate docs](crate) for an
    /// example.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`CoreliteConfig::validate`].
    pub fn edge(&self) -> AgentEdge {
        self.paced(Source::Mint)
    }

    /// Logic for a Corelite inter-cloud gateway with a per-flow buffer of
    /// `capacity` packets; see the [module docs](self).
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`CoreliteConfig::validate`] or
    /// `capacity` is zero.
    pub fn gateway(&self, capacity: usize) -> AgentEdge {
        self.paced(Source::Buffer { capacity })
    }

    /// Logic for an aggregating ingress edge: every group formed at it
    /// gets rate weight `weight` (its rate class), regardless of how many
    /// micro-flows it contains.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`CoreliteConfig::validate`] or
    /// `weight` is zero.
    pub fn aggregating_edge(&self, weight: u32) -> AgentEdge {
        self.paced(Source::Aggregate { weight })
    }

    fn paced(&self, source: Source) -> AgentEdge {
        self.validate();
        let stamp = Stamp::Marker { k1: self.k1 };
        AgentEdge::new(self.agent(), self.edge_epoch, stamp, source)
    }

    /// Logic for the ingress of flows of `transport` ([`agent::ingress`]);
    /// panics as [`CoreliteConfig::edge`] does. Reno flows mark too, which
    /// holds a mixed LIMD/Reno population to the weighted-fair allocation.
    pub fn ingress(&self, transport: Transport) -> Box<dyn RouterLogic> {
        self.validate();
        let stamp = Stamp::Marker { k1: self.k1 };
        agent::ingress(transport, self.agent(), self.edge_epoch, stamp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::flow::FlowSpec;
    use netsim::link::LinkSpec;
    use netsim::logic::ForwardLogic;
    use netsim::topology::TopologyBuilder;
    use netsim::trace::{TraceEvent, Tracer};
    use netsim::FlowId;
    use netsim::SimReport;
    use sim_core::time::{SimDuration, SimTime};
    use std::cell::RefCell;
    use std::rc::Rc;

    /// One edge, one sink, an uncongested 10 Mbps link, one flow of
    /// `weight` active over `periods`, run to `end`.
    fn edge_to_sink(
        weight: u32,
        periods: &[(SimTime, Option<SimTime>)],
        end: SimTime,
        tracer: Option<Rc<RefCell<dyn Tracer>>>,
    ) -> SimReport {
        let cfg = CoreliteConfig::default();
        let mut b = TopologyBuilder::new(5);
        let edge = b.node("edge", |_| Box::new(cfg.edge()));
        let sink = b.node("sink", |_| Box::new(ForwardLogic));
        b.link(
            edge,
            sink,
            LinkSpec::new(10_000_000, SimDuration::from_millis(10), 100),
        );
        let mut flow = FlowSpec::new(vec![edge, sink], weight);
        for &(start, stop) in periods {
            flow = flow.active(start, stop);
        }
        b.flow(flow);
        if let Some(tracer) = tracer {
            b.tracer(tracer);
        }
        let mut net = b.build();
        net.run_until(end);
        net.into_report(end)
    }

    const ALWAYS: &[(SimTime, Option<SimTime>)] = &[(SimTime::ZERO, None)];

    #[test]
    fn uncongested_flow_ramps_without_feedback() {
        let end = SimTime::from_secs(30);
        let report = edge_to_sink(1, ALWAYS, end, None);
        let rate = report
            .allotted_rate(FlowId::from_index(0))
            .unwrap()
            .last_value()
            .unwrap();
        // Slow-start 1→2→4→...→32 exits at ~5 s (halve to 16), then
        // linear +1 per 500 ms epoch = +2/s: after 30 s ≈ 16 + 50 = 66.
        assert!(rate > 50.0, "rate {rate} should keep climbing unimpeded");
        assert_eq!(report.total_drops(), 0);
        assert_eq!(report.counter_total("feedback_received"), 0.0);
    }

    #[test]
    fn marker_rate_reflects_normalized_rate() {
        // Weight 2 ⇒ one marker per 2 data packets (K1 = 1).
        let end = SimTime::from_secs(20);
        let report = edge_to_sink(2, ALWAYS, end, None);
        let markers = report.counter_total("markers_injected");
        let sent = report.flow(FlowId::from_index(0)).delivered_packets as f64;
        let ratio = markers / sent;
        assert!(
            (ratio - 0.5).abs() < 0.05,
            "marker/packet ratio {ratio}, want ≈ 1/2"
        );
    }

    #[test]
    fn slow_start_caps_at_ss_thresh() {
        let end = SimTime::from_secs(6);
        let report = edge_to_sink(1, ALWAYS, end, None);
        let series = report.allotted_rate(FlowId::from_index(0)).unwrap();
        let peak = series.iter().map(|(_, v)| v).fold(0.0f64, f64::max);
        // Doubling runs 1→2→4→8→16→32; the next doubling to 64 trips the
        // halving back to 32.
        assert!(peak <= 64.0, "peak {peak}");
        let last = series.last_value().unwrap();
        assert!(last >= 16.0, "rate after slow-start {last}");
    }

    #[test]
    fn flow_stop_silences_emission() {
        let end = SimTime::from_secs(10);
        let once = [(SimTime::ZERO, Some(SimTime::from_secs(5)))];
        let report = edge_to_sink(1, &once, end, None);
        let f = FlowId::from_index(0);
        let late = report
            .flow(f)
            .mean_goodput_in(SimTime::from_secs(6), end)
            .unwrap();
        assert!(late < 1.0, "goodput after stop {late}");
        // Series records a zero after the stop.
        let series = report.allotted_rate(f).unwrap();
        assert_eq!(series.value_at(SimTime::from_secs(6)), Some(0.0));
    }

    /// Regression (flow-lifecycle bugfix): a pending `TIMER_EMIT` used
    /// to survive `on_flow_stop` — its pending flag stayed set, so a
    /// restart before the stale timer fired rode the old chain instead
    /// of arming its own, and its first packet left at the *old*
    /// chain's instant rather than one fresh slow-start gap after the
    /// restart. Stops now reset the slot's pacer (DESIGN.md "Paced
    /// emission").
    #[test]
    fn stale_emission_chain_dies_on_stop() {
        struct Deliveries {
            log: Rc<RefCell<Vec<SimTime>>>,
        }
        impl Tracer for Deliveries {
            fn record(&mut self, now: SimTime, event: &TraceEvent) {
                if matches!(event, TraceEvent::Deliver { .. }) {
                    self.log.borrow_mut().push(now);
                }
            }
        }
        // Default config: initial rate 1 pps, so the chain armed at the
        // t=0 start is due at t=1 s — after the stop at 0.45 s and the
        // restart at 0.55 s.
        let periods = [
            (SimTime::ZERO, Some(SimTime::from_millis(450))),
            (SimTime::from_millis(550), Some(SimTime::from_secs(3))),
        ];
        let log = Rc::new(RefCell::new(Vec::new()));
        let tracer = Rc::new(RefCell::new(Deliveries { log: log.clone() }));
        edge_to_sink(1, &periods, SimTime::from_secs(3), Some(tracer));
        let log = log.borrow();
        let first = log.first().copied().expect("the restarted flow emits");
        // Fresh chain: first emission at 0.55 + 1.0 = 1.55 s (plus the
        // pipe). The stale chain would have emitted at t=1.0 s.
        assert!(
            first >= SimTime::from_millis(1550),
            "first delivery at {first:?} rode the stale pre-stop emission chain"
        );
    }
}
