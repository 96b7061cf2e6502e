//! The Corelite core router: simple forwarding, incipient congestion
//! detection, and weighted fair marker feedback (§2 step 2, §3).
//!
//! The core router keeps **no per-flow state**. Per outgoing link it holds
//! either a bounded [`MarkerCache`] (§2) or a [`StatelessSelector`]
//! (§3.2). Once per congestion epoch it reads the link's time-weighted
//! average queue length `q_avg`; if `q_avg > q_thresh` it computes
//! [`marker_feedback_count`](crate::congestion::marker_feedback_count)
//! markers (by default) and returns that many — selected
//! uniformly from the cache, or probabilistically from the next epoch's
//! arriving markers — to the edge routers that generated them. It never
//! drops a queued packet to signal congestion.

use sim_core::rng::DetRng;
use sim_core::time::SimTime;

use netsim::ids::LinkId;
use netsim::logic::{Ctx, LogicReport, RouterLogic, TimerKind};
use netsim::packet::{Packet, PACKET_SIZE};
use netsim::slab::DenseMap;
use netsim::telemetry::Sample;

use crate::cache::MarkerCache;
use crate::config::{CoreliteConfig, SelectorKind};
use crate::detector::feedback_count;
use crate::stateless::{StatelessSelector, RUNNING_AVG_GAIN};

const TIMER_EPOCH: u32 = 1;

#[derive(Debug)]
enum Selector {
    Cache(MarkerCache),
    Stateless(StatelessSelector),
}

#[derive(Debug)]
struct LinkState {
    selector: Selector,
    /// The RED detector's queue average (see
    /// [`DetectorKind::Red`](crate::detector::DetectorKind::Red)).
    red_avg: f64,
}

/// Router logic for a Corelite core router.
///
/// Install one per core node; it manages congestion detection and marker
/// feedback independently for each of the node's outgoing links. See the
/// [crate docs](crate) for a complete example.
#[derive(Debug)]
pub struct CoreliteCore {
    cfg: CoreliteConfig,
    rng: DetRng,
    /// Per-outgoing-link state, slab-indexed by `LinkId::index()`
    /// (absent for links that do not leave this node). Link ids are
    /// small dense integers, so direct indexing beats a map lookup on
    /// the per-packet marker path.
    links: DenseMap<LinkId, LinkState>,
    markers_seen: u64,
    feedback_sent: u64,
    congested_epochs: u64,
}

impl CoreliteCore {
    /// Creates core-router logic with the given component `seed` and
    /// configuration.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`CoreliteConfig::validate`].
    pub fn new(seed: u64, cfg: CoreliteConfig) -> Self {
        cfg.validate();
        CoreliteCore {
            cfg,
            rng: DetRng::new(seed),
            links: DenseMap::new(),
            markers_seen: 0,
            feedback_sent: 0,
            congested_epochs: 0,
        }
    }

    fn new_link_state(&self) -> LinkState {
        let selector = match self.cfg.selector {
            SelectorKind::Cache { capacity } => Selector::Cache(MarkerCache::new(capacity)),
            SelectorKind::Stateless => {
                Selector::Stateless(StatelessSelector::new(RUNNING_AVG_GAIN))
            }
        };
        LinkState {
            selector,
            red_avg: 0.0,
        }
    }

    fn run_epoch(&mut self, ctx: &mut Ctx<'_>) {
        for i in 0..self.links.key_bound() {
            let link = LinkId::from_index(i);
            if !self.links.contains_key(&link) {
                continue;
            }
            let q_avg = ctx.take_link_queue_average(link);
            let mu_pps = ctx.link_spec(link).service_rate_pps(PACKET_SIZE);
            let epoch_secs = self.cfg.core_epoch.as_secs_f64();
            let state = self.links.get_mut(&link).expect("link state exists");
            let fn_count = feedback_count(&self.cfg, &mut state.red_avg, q_avg, mu_pps, epoch_secs);
            assert!(
                fn_count.is_finite() && fn_count >= 0.0,
                "detector returned invalid feedback count {fn_count}"
            );
            if fn_count > 0.0 {
                self.congested_epochs += 1;
            }
            ctx.publish(Sample::for_link("q_avg", link, q_avg));
            ctx.publish(Sample::for_link("f_n", link, fn_count));
            // Round the fractional count probabilistically, preserving
            // the expectation (e.g. 2.3 → 2 with p 0.7, 3 with p 0.3).
            let floor = fn_count.floor();
            let rounded = floor as usize + usize::from(self.rng.bernoulli(fn_count - floor));
            let state = self.links.get_mut(&link).expect("link state exists");
            match &mut state.selector {
                Selector::Cache(cache) => {
                    if rounded > 0 {
                        let picks = cache.select(rounded, &mut self.rng);
                        self.feedback_sent += picks.len() as u64;
                        for marker in picks {
                            ctx.send_marker_feedback(marker);
                        }
                    }
                    ctx.publish(Sample::for_link("cache_len", link, cache.len() as f64));
                }
                Selector::Stateless(selector) => {
                    // The closing epoch's tallies, before `on_epoch`
                    // resets them for the next epoch.
                    ctx.publish(Sample::for_link(
                        "sent_this_epoch",
                        link,
                        selector.sent_this_epoch() as f64,
                    ));
                    // Arm the next epoch: its arriving markers are the
                    // selection candidates (§3.2's epoch-scoped scheme).
                    selector.on_epoch(fn_count);
                    if let Some(r_av) = selector.r_av() {
                        ctx.publish(Sample::for_link("r_av", link, r_av));
                    }
                    if let Some(w_av) = selector.w_av() {
                        ctx.publish(Sample::for_link("w_av", link, w_av));
                    }
                    ctx.publish(Sample::for_link("p_w", link, selector.p_w()));
                    ctx.publish(Sample::for_link("deficit", link, selector.deficit() as f64));
                }
            }
        }
    }
}

impl RouterLogic for CoreliteCore {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        for link in ctx.outgoing_links() {
            let state = self.new_link_state();
            self.links.insert(link, state);
        }
        ctx.set_timer(self.cfg.core_epoch, TimerKind::tagged(TIMER_EPOCH));
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, packet: Packet) {
        let Some(link) = ctx.next_hop(packet.flow) else {
            return; // not on this packet's path: absorb (cannot happen in practice)
        };
        if let Some(marker) = packet.marker {
            self.markers_seen += 1;
            match &mut self
                .links
                .get_mut(&link)
                .expect("link state initialised in on_start")
                .selector
            {
                Selector::Cache(cache) => cache.push(marker),
                Selector::Stateless(selector) => {
                    if selector.on_marker(&marker, &mut self.rng) {
                        self.feedback_sent += 1;
                        ctx.send_marker_feedback(marker);
                    }
                }
            }
        }
        ctx.forward(link, packet);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, timer: TimerKind) {
        if timer.tag == TIMER_EPOCH {
            self.run_epoch(ctx);
            ctx.set_timer(self.cfg.core_epoch, TimerKind::tagged(TIMER_EPOCH));
        }
    }

    fn report(&self, _now: SimTime) -> LogicReport {
        let mut report = LogicReport::default();
        report.count("markers_seen", self.markers_seen as f64);
        report.count("feedback_sent", self.feedback_sent as f64);
        report.count("congested_epochs", self.congested_epochs as f64);
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
    use netsim::{FlowId, SimReport};
    use sim_core::time::SimDuration;

    /// Two flows (weights `w1`, `w2`) share one 500 pkt/s bottleneck.
    fn bottleneck_scenario(cfg: CoreliteConfig, w1: u32, w2: u32, end: SimTime) -> SimReport {
        let mut b = TopologyBuilder::new(21);
        let e1 = b.node("edge1", |_| Box::new(cfg.edge()));
        let e2 = b.node("edge2", |_| Box::new(cfg.edge()));
        let core = b.node("core", |s| Box::new(CoreliteCore::new(s, cfg.clone())));
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

    fn steady_rate(report: &SimReport, flow: usize, from: SimTime, to: SimTime) -> f64 {
        report
            .allotted_rate(FlowId::from_index(flow))
            .unwrap()
            .mean_in(from, to)
            .unwrap()
    }

    #[test]
    fn stateless_selector_converges_to_weighted_shares() {
        // Shares are 167/333 pkt/s, far above the slow-start exit points,
        // so the flat +1/epoch linear increase needs ~150 s to arrive.
        let end = SimTime::from_secs(260);
        let report = bottleneck_scenario(CoreliteConfig::default(), 1, 2, end);
        let from = SimTime::from_secs(200);
        let r1 = steady_rate(&report, 0, from, end);
        let r2 = steady_rate(&report, 1, from, end);
        // Weighted shares of 500 pkt/s at weights 1:2 → ~167 and ~333.
        assert!((r1 - 167.0).abs() < 40.0, "r1 {r1}");
        assert!((r2 - 333.0).abs() < 60.0, "r2 {r2}");
    }

    #[test]
    fn cache_selector_converges_to_weighted_shares() {
        let cfg = CoreliteConfig::default().with_selector(SelectorKind::Cache { capacity: 512 });
        let end = SimTime::from_secs(260);
        let report = bottleneck_scenario(cfg, 1, 2, end);
        let from = SimTime::from_secs(200);
        let r1 = steady_rate(&report, 0, from, end);
        let r2 = steady_rate(&report, 1, from, end);
        assert!((r1 - 167.0).abs() < 40.0, "r1 {r1}");
        assert!((r2 - 333.0).abs() < 60.0, "r2 {r2}");
    }

    #[test]
    fn corelite_is_loss_free_in_steady_state() {
        // §2 design tenet: rate adaptation without any packet loss.
        let end = SimTime::from_secs(280);
        let report = bottleneck_scenario(CoreliteConfig::default(), 1, 1, end);
        assert_eq!(report.total_drops(), 0, "Corelite should not drop packets");
        // And the bottleneck stays well utilized.
        let bottleneck = &report.links[2];
        assert!(
            bottleneck.utilization > 0.75,
            "utilization {}",
            bottleneck.utilization
        );
    }

    #[test]
    fn feedback_is_sent_only_under_congestion() {
        // A single flow on a huge link never congests: no feedback at all.
        let cfg = CoreliteConfig::default();
        let mut b = TopologyBuilder::new(3);
        let edge = b.node("edge", |_| Box::new(cfg.edge()));
        let core = b.node("core", |s| Box::new(CoreliteCore::new(s, cfg.clone())));
        let sink = b.node("sink", |_| Box::new(ForwardLogic));
        let big = LinkSpec::new(100_000_000, SimDuration::from_millis(1), 1000);
        b.link(edge, core, big);
        b.link(core, sink, big);
        b.flow(FlowSpec::new(vec![edge, core, sink], 1).active(SimTime::ZERO, None));
        let end = SimTime::from_secs(20);
        let mut net = b.build();
        net.run_until(end);
        let report = net.into_report(end);
        assert_eq!(report.counter_total("feedback_sent"), 0.0);
        assert!(report.counter_total("markers_seen") > 0.0);
    }
}
