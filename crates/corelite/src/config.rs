//! Corelite parameters.
//!
//! [`CoreliteConfig`] holds what an experiment varies; its defaults
//! reproduce the paper's simulation setup (§4): `K1 = 1`, `β = 1`,
//! 100 ms core epochs. The values no experiment varies are constants
//! next to the code that reads them:
//!
//! * the source agents' `α`, slow-start threshold and doubling interval:
//!   [`netsim::agent::ALPHA`], [`netsim::agent::SS_THRESH`] (32 pkt/s per
//!   unit weight), [`netsim::agent::SLOW_START_INTERVAL`];
//! * the congestion threshold `q_thresh` = 8 packets:
//!   [`crate::congestion::Q_THRESH`];
//! * the stateless selector's running-average gain:
//!   [`crate::stateless::RUNNING_AVG_GAIN`];
//! * the gateway's idle-restart gap: [`crate::gateway::IDLE_RESTART`];
//! * the 1 KB packet in which a link's `μ` is counted:
//!   [`netsim::packet::PACKET_SIZE`].

use sim_core::time::SimDuration;

use netsim::agent::AgentConfig;
pub use netsim::agent::{AdaptationScheme, DecreasePolicy};

use crate::detector::DetectorKind;

/// The unit in which the link service rate `μ` enters the feedback-count
/// formula (§3.1).
///
/// The paper states `μ` is "the service rate of the outgoing link in
/// packets per congestion epoch", which makes the M/M/1 term a low-gain
/// proportional controller (gain = one epoch) and leaves the cubic term
/// to handle large excursions. Interpreting `μ` in packets per *second*
/// makes the term estimate the full arrival-rate excess per `β` = 1 pkt/s
/// marker — a high-gain controller. Both are provided; the ablation
/// benches compare them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MuUnit {
    /// `μ` in packets per congestion epoch (the paper's phrasing).
    #[default]
    PerEpoch,
    /// `μ` in packets per second (dimensional reading for `β` in pkt/s).
    PerSecond,
}

/// Which weighted fair marker-selection mechanism core routers run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelectorKind {
    /// §2: keep recently forwarded markers in a bounded circular cache and
    /// select feedback markers uniformly at random from it.
    Cache {
        /// Cache capacity in markers.
        capacity: usize,
    },
    /// §3.2: no cache — select arriving markers with probability
    /// `p_w = F_n / w_av`, send back only those whose labelled normalized
    /// rate is at or above the running average `r_av`, and keep a deficit
    /// counter to swap below-average selections for later above-average
    /// markers.
    Stateless,
}

/// Tunable parameters of the Corelite mechanisms — the ones an
/// experiment varies. The paper's fixed values are constants next to the
/// code that reads them (see the [module docs](self)).
///
/// Construct with [`CoreliteConfig::default`] for the paper's values and
/// adjust fields builder-style:
///
/// ```
/// use corelite::config::{CoreliteConfig, SelectorKind};
///
/// let cfg = CoreliteConfig::default().with_selector(SelectorKind::Cache { capacity: 256 });
/// assert_eq!(cfg.selector, SelectorKind::Cache { capacity: 256 });
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CoreliteConfig {
    /// Marker spacing constant `K1`: a marker is piggybacked on every
    /// `N_w = K1·w` data packets (paper: 1).
    pub k1: u32,
    /// The source agents' [`AgentConfig::alpha_per_weight`].
    pub alpha_per_weight: bool,
    /// The source agents' [`AgentConfig::beta`].
    pub beta: f64,
    /// The source agents' [`AgentConfig::decrease`].
    pub decrease: DecreasePolicy,
    /// The source agents' [`AgentConfig::adaptation`].
    pub adaptation: AdaptationScheme,
    /// Edge adaptation epoch. The paper specifies "an epoch size of
    /// 100 ms **at the core router**" but leaves the edge epoch open;
    /// 500 ms (between the core epoch and the slow-start second) gives
    /// the loss-free operation §4.2 reports, while 100 ms makes the
    /// control loop only marginally stable (see the `edge_epoch`
    /// ablation bench).
    pub edge_epoch: SimDuration,
    /// Core congestion-detection epoch (paper: 100 ms).
    pub core_epoch: SimDuration,
    /// The self-correcting cubic coefficient `k` in the feedback-count
    /// formula; 0 disables the correction term (§3.1).
    pub correction_k: f64,
    /// Unit of the service rate `μ` in the feedback-count formula.
    pub mu_unit: MuUnit,
    /// Congestion estimation module at core routers (§3.1 notes the
    /// module is replaceable; see [`crate::detector`]).
    pub detector: DetectorKind,
    /// The source agents' [`AgentConfig::initial_rate`].
    pub initial_rate: f64,
    /// Marker selection mechanism at core routers.
    pub selector: SelectorKind,
}

impl Default for CoreliteConfig {
    fn default() -> Self {
        let agent = AgentConfig::default();
        CoreliteConfig {
            k1: 1,
            alpha_per_weight: agent.alpha_per_weight,
            beta: agent.beta,
            decrease: agent.decrease,
            adaptation: agent.adaptation,
            edge_epoch: SimDuration::from_millis(500),
            core_epoch: SimDuration::from_millis(100),
            correction_k: 0.005,
            mu_unit: MuUnit::PerEpoch,
            detector: DetectorKind::Paper,
            initial_rate: agent.initial_rate,
            selector: SelectorKind::Stateless,
        }
    }
}

impl CoreliteConfig {
    /// Returns the marker spacing `N_w = K1·w` for a flow of weight `w`.
    ///
    /// # Panics
    ///
    /// Panics if `weight` is zero.
    pub fn marker_spacing(&self, weight: u32) -> u32 {
        assert!(weight > 0, "flow weight must be positive");
        self.k1 * weight
    }

    /// The source agents' parameters.
    pub fn agent(&self) -> AgentConfig {
        AgentConfig {
            initial_rate: self.initial_rate,
            alpha_per_weight: self.alpha_per_weight,
            beta: self.beta,
            decrease: self.decrease,
            adaptation: self.adaptation,
        }
    }

    /// Sets the marker selection mechanism (builder-style).
    pub fn with_selector(mut self, selector: SelectorKind) -> Self {
        self.selector = selector;
        self
    }

    /// Sets both epochs (builder-style) — the paper varies these together
    /// in its sensitivity discussion.
    pub fn with_epoch(mut self, epoch: SimDuration) -> Self {
        self.edge_epoch = epoch;
        self.core_epoch = epoch;
        self
    }

    /// Sets the cubic correction coefficient `k` (builder-style).
    pub fn with_correction_k(mut self, k: f64) -> Self {
        self.correction_k = k;
        self
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics on non-positive epochs, a negative correction coefficient,
    /// a zero `K1` or cache capacity, or out-of-range detector
    /// parameters.
    pub fn validate(&self) {
        self.agent().validate();
        assert!(self.k1 > 0, "K1 must be positive");
        assert!(!self.edge_epoch.is_zero(), "edge epoch must be positive");
        assert!(!self.core_epoch.is_zero(), "core epoch must be positive");
        assert!(
            self.correction_k >= 0.0,
            "correction k must be non-negative"
        );
        self.detector.validate();
        if let SelectorKind::Cache { capacity } = self.selector {
            assert!(capacity > 0, "marker cache capacity must be positive");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = CoreliteConfig::default();
        assert_eq!(c.k1, 1);
        assert_eq!(c.beta, 1.0);
        assert_eq!(c.edge_epoch, SimDuration::from_millis(500));
        assert_eq!(c.core_epoch, SimDuration::from_millis(100));
        assert_eq!(c.agent(), AgentConfig::default());
        c.validate();
    }

    #[test]
    fn marker_spacing_scales_with_weight() {
        let c = CoreliteConfig::default();
        assert_eq!(c.marker_spacing(1), 1);
        assert_eq!(c.marker_spacing(3), 3);
        let c2 = CoreliteConfig {
            k1: 2,
            ..CoreliteConfig::default()
        };
        assert_eq!(c2.marker_spacing(3), 6);
    }

    #[test]
    #[should_panic(expected = "weight")]
    fn zero_weight_spacing_panics() {
        CoreliteConfig::default().marker_spacing(0);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_cache_capacity_rejected() {
        CoreliteConfig::default()
            .with_selector(SelectorKind::Cache { capacity: 0 })
            .validate();
    }

    #[test]
    fn builder_methods_apply() {
        let c = CoreliteConfig::default()
            .with_epoch(SimDuration::from_millis(50))
            .with_correction_k(0.0);
        assert_eq!(c.core_epoch, SimDuration::from_millis(50));
        assert_eq!(c.edge_epoch, SimDuration::from_millis(50));
        assert_eq!(c.correction_k, 0.0);
        c.validate();
    }
}
