//! Corelite window dynamics behind the generic transport interface.
//!
//! [`CoreliteCc`] adapts the paper's [`SourceAgent`] — forced onto
//! the [`AdaptationScheme::WindowAimd`] window scheme — to `netsim`'s
//! [`CongestionControl`] trait, so the same LIMD adaptation that drives
//! the open-loop [`CoreliteConfig::edge`] can clock a
//! go-back-N sender instead. The closed loop upgrades two things the
//! open-loop edge has to approximate:
//!
//! * the **round trip**: each ack's SRTT sample is fed through
//!   [`SourceAgent::update_rtt`], so the window/rate conversion
//!   tracks live queueing delay instead of the static propagation-only
//!   estimate, and
//! * the **congestion signal**: marker feedback arrives at the sender
//!   already rate-limited to one per round trip (the go-back-N sender's
//!   recovery guard), matching the per-epoch throttling the agent
//!   expects. Signals name no core, so they add up
//!   ([`SourceAgent::on_signal`]).
//!
//! [`gbn_edge`] packages the adapter as a ready-made ingress logic: a
//! [`GbnSender`] whose marker cadence and epoch follow the
//! [`CoreliteConfig`], dispatching per-flow on the declared
//! [`Transport`] (Reno flows get stock Reno, everything else gets
//! Corelite's window LIMD).

use netsim::agent::{AdaptationScheme, AgentConfig, SourceAgent};
use netsim::{CongestionControl, GbnConfig, GbnSender, Reno, Transport};
use sim_core::time::SimTime;

use crate::config::CoreliteConfig;

/// The paper's [`SourceAgent`] (window flavour) speaking
/// [`CongestionControl`]. See the module docs for the mapping.
#[derive(Debug)]
pub struct CoreliteCc {
    cfg: AgentConfig,
    ctl: SourceAgent,
}

impl CoreliteCc {
    /// An agent for a flow of the given `weight` and contract
    /// `min_rate`. The adaptation scheme is forced to
    /// [`AdaptationScheme::WindowAimd`]: a window is the only control
    /// variable an ack-clocked sender can act on.
    pub fn new(cfg: &CoreliteConfig, weight: u32, min_rate: f64) -> Self {
        let cfg = AgentConfig {
            adaptation: AdaptationScheme::WindowAimd,
            ..cfg.agent()
        };
        let ctl = SourceAgent::new(weight, min_rate, 1e-3);
        CoreliteCc { cfg, ctl }
    }
}

impl CongestionControl for CoreliteCc {
    fn on_start(&mut self, now: SimTime, base_rtt: f64) {
        self.ctl.start(&self.cfg, now, base_rtt);
    }

    fn on_ack(&mut self, _now: SimTime, _newly_acked: u64, srtt: f64) {
        // The live SRTT replaces the static base estimate; WindowAimd
        // re-derives the rate immediately (tentpole: measured RTT in
        // place of the configured constant).
        self.ctl.update_rtt(&self.cfg, srtt);
    }

    fn on_signal(&mut self, now: SimTime) {
        self.ctl.on_signal(&self.cfg, now);
    }

    fn on_rto(&mut self, now: SimTime) {
        // The agent has no timeout notion; a lost window is the
        // strongest congestion evidence there is, so treat it as
        // feedback (a halving, under the configured decrease policy).
        self.ctl.on_signal(&self.cfg, now);
    }

    fn on_epoch(&mut self, now: SimTime) {
        self.ctl.epoch_update(&self.cfg, now);
    }

    fn window(&self) -> f64 {
        self.ctl.cwnd()
    }

    fn rate(&self) -> f64 {
        self.ctl.rate()
    }
}

/// A go-back-N ingress edge wired for Corelite: markers every
/// `K1·weight` first transmissions carrying the flow's normalized rate,
/// adaptation ticks on the configured edge epoch, and a congestion
/// controller per the flow's declared [`Transport`] —
/// [`CoreliteCc`] for [`Transport::Gbn`] (and the [`Transport::Limd`]
/// default, should a closed-loop edge host one), stock [`Reno`] for
/// [`Transport::Reno`]. Reno flows still inject markers, so cores see
/// their normalized rates and throttle them like any other flow — that
/// is what holds a mixed LIMD/Reno population to the weighted-fair
/// allocation.
pub fn gbn_edge(cfg: &CoreliteConfig) -> GbnSender {
    let gbn = GbnConfig {
        epoch: cfg.edge_epoch,
        marker_spacing: Some(cfg.k1),
    };
    let cc_cfg = cfg.clone();
    GbnSender::new(
        gbn,
        Box::new(move |info, _base_rtt| match info.transport {
            Transport::Reno => Box::new(Reno::new()) as Box<dyn CongestionControl>,
            _ => Box::new(CoreliteCc::new(&cc_cfg, info.weight, info.min_rate)),
        }),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn start_seeds_window_from_base_rtt() {
        let cfg = CoreliteConfig::default();
        let mut cc = CoreliteCc::new(&cfg, 1, 0.0);
        cc.on_start(SimTime::ZERO, 0.2);
        let short = {
            let mut cc = CoreliteCc::new(&cfg, 1, 0.0);
            cc.on_start(SimTime::ZERO, 0.02);
            cc.window()
        };
        // RTT-proportional initial windows, identical initial rates.
        assert!((cc.window() / short - 10.0).abs() < 1e-9);
        assert!((cc.rate() - cfg.initial_rate).abs() < 1e-9);
    }

    #[test]
    fn srtt_samples_rederive_the_rate() {
        let cfg = CoreliteConfig::default();
        let mut cc = CoreliteCc::new(&cfg, 1, 0.0);
        cc.on_start(SimTime::ZERO, 0.1);
        let before = cc.rate();
        // Queueing doubles the measured round trip: same window, half
        // the rate.
        cc.on_ack(SimTime::from_secs(1), 1, 0.2);
        assert!((cc.rate() - before / 2.0).abs() < 1e-9);
    }

    #[test]
    fn signals_halve_via_the_controller() {
        let cfg = CoreliteConfig::default();
        let mut cc = CoreliteCc::new(&cfg, 1, 0.0);
        cc.on_start(SimTime::ZERO, 0.1);
        // The first signal ends slow start immediately; silent epochs
        // then grow the window linearly.
        cc.on_signal(SimTime::from_secs(1));
        cc.on_epoch(SimTime::from_secs(2));
        cc.on_epoch(SimTime::from_secs(3));
        let grown = cc.window();
        assert!(grown > 1.0, "window never grew: {grown}");
        // A signal in the linear phase is accumulated feedback: the
        // throttle lands at the next epoch update.
        cc.on_signal(SimTime::from_secs(4));
        cc.on_epoch(SimTime::from_secs(5));
        assert!(cc.window() < grown, "{} not below {grown}", cc.window());
    }
}
