//! CSFQ parameters, defaulted to the Corelite paper's comparison setup
//! (§4): the same adaptive source agents as Corelite's edges. The values
//! no experiment varies are constants next to the code that reads them:
//! the edge's rate-estimate time constant `K` ([`crate::edge::K_FLOW`])
//! and adaptation epoch ([`crate::edge::EDGE_EPOCH`]), the core's window
//! `K_link` ([`crate::core::K_LINK`]) and overflow penalty
//! ([`crate::core::OVERFLOW_PENALTY`]), and the 1 KB packet in which a
//! link's capacity is counted ([`netsim::packet::PACKET_SIZE`]).

use netsim::agent::AgentConfig;

/// Tunable parameters of the weighted CSFQ baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct CsfqConfig {
    /// Initial rate of a newly started flow, packets per second.
    pub initial_rate: f64,
}

impl Default for CsfqConfig {
    fn default() -> Self {
        CsfqConfig {
            initial_rate: AgentConfig::default().initial_rate,
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
    /// Panics on a non-positive initial rate.
    pub fn validate(&self) {
        self.agent().validate();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = CsfqConfig::default();
        assert_eq!(c.agent(), AgentConfig::default());
        c.validate();
    }
}
