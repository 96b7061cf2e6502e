//! CSFQ parameters, defaulted to the Corelite paper's comparison setup
//! (§4): `K = K_link = 100 ms`, the same adaptive source agents, 1 KB
//! packets.

use sim_core::time::SimDuration;

use netsim::agent::AgentConfig;

/// Tunable parameters of the weighted CSFQ baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct CsfqConfig {
    /// Time constant `K` of the per-flow rate estimator at the edge
    /// (paper: 100 ms).
    pub k_flow: SimDuration,
    /// Averaging window `K_link` for the link's aggregate arrival and
    /// accepted-rate estimates and the fair-share update interval
    /// (paper: 100 ms).
    pub k_link: SimDuration,
    /// Source-agent adaptation epoch (identical to the Corelite edges'
    /// 500 ms epoch, per §4's "similar rate adaptation schemes").
    pub edge_epoch: SimDuration,
    /// Initial rate of a newly started flow, packets per second.
    pub initial_rate: f64,
    /// Reference packet size in bytes for expressing link capacity in
    /// packets per second (paper: fixed 1 KB packets).
    pub reference_packet_size: u32,
    /// Multiplicative fair-share penalty applied when a packet arrives to
    /// a full queue (the ns implementation's buffer-overflow correction).
    pub overflow_penalty: f64,
}

impl Default for CsfqConfig {
    fn default() -> Self {
        CsfqConfig {
            k_flow: SimDuration::from_millis(100),
            k_link: SimDuration::from_millis(100),
            edge_epoch: SimDuration::from_millis(500),
            initial_rate: AgentConfig::default().initial_rate,
            reference_packet_size: 1000,
            overflow_penalty: 0.99,
        }
    }
}

impl CsfqConfig {
    /// The source agents' parameters: the paper's §4 values, starting
    /// at [`initial_rate`](CsfqConfig::initial_rate). Each loss is one
    /// congestion indication, so `β` is packets per second per loss.
    pub fn agent(&self) -> AgentConfig {
        AgentConfig {
            initial_rate: self.initial_rate,
            ..AgentConfig::default()
        }
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics on non-positive time constants, initial rate, or packet
    /// size, or an overflow penalty outside `(0, 1]`.
    pub fn validate(&self) {
        self.agent().validate();
        assert!(!self.k_flow.is_zero(), "K (flow) must be positive");
        assert!(!self.k_link.is_zero(), "K_link must be positive");
        assert!(!self.edge_epoch.is_zero(), "edge epoch must be positive");
        assert!(
            self.reference_packet_size > 0,
            "reference packet size must be positive"
        );
        assert!(
            self.overflow_penalty > 0.0 && self.overflow_penalty <= 1.0,
            "overflow penalty must be in (0, 1]"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = CsfqConfig::default();
        assert_eq!(c.k_flow, SimDuration::from_millis(100));
        assert_eq!(c.k_link, SimDuration::from_millis(100));
        assert_eq!(c.agent(), AgentConfig::default());
        c.validate();
    }

    #[test]
    #[should_panic(expected = "overflow penalty")]
    fn bad_penalty_rejected() {
        CsfqConfig {
            overflow_penalty: 1.5,
            ..CsfqConfig::default()
        }
        .validate();
    }
}
