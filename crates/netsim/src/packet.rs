//! Packets and the Corelite marker they may carry.

use sim_core::time::SimTime;

use crate::ids::{FlowId, NodeId, PacketId};

/// The paper's fixed packet size, bytes (§4: 1 KB packets throughout):
/// every flow's default and every churn flow's size, and the unit in
/// which Corelite and CSFQ cores turn a link's bandwidth into packets per
/// second.
pub const PACKET_SIZE: u32 = 1000;

/// A Corelite marker, logically distinct from — but physically piggybacked
/// on — a data packet.
///
/// The paper (§2): *"The source address of the marker is the edge router
/// that generated it, and the contents of the marker identify the packet
/// flow to which it corresponds"*, and for the stateless selector (§3.2)
/// the edge *"also puts the normalized packet transmission rate,
/// `r_n = b_g/w`, for the flow in the marker packet"*.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Marker {
    /// The flow this marker belongs to.
    pub flow: FlowId,
    /// The edge router that generated the marker (the marker's source
    /// address); feedback is sent back to this node.
    pub edge: NodeId,
    /// The flow's normalized transmission rate `r_n = b_g(f)/w(f)` at the
    /// time the marker was injected, in packets per second per unit weight.
    pub normalized_rate: f64,
}

/// Transport sequencing metadata carried by packets of an ack-clocked
/// (go-back-N) flow. Open-loop sources leave [`Packet::seq`] unset and
/// take the legacy delivery path untouched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeqInfo {
    /// Zero-based cumulative sequence number within the flow.
    pub seq: u64,
    /// Whether this is a retransmission. Retransmits keep the *original*
    /// [`Packet::sent_at`] (so flow-completion accounting sees the first
    /// attempt), and the egress echoes this flag in the ack so the
    /// sender's RTT estimator can apply Karn's rule.
    pub retransmit: bool,
}

/// A data packet traversing the network.
///
/// Marker packets are carried piggybacked in [`Packet::marker`]: they
/// consume no link capacity of their own, matching the paper's note that a
/// marker "may be physically piggybacked to a data packet". A packet may
/// also carry a CSFQ label in [`Packet::label`] when running the baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct Packet {
    /// Unique packet identifier.
    pub id: PacketId,
    /// The flow the packet belongs to.
    pub flow: FlowId,
    /// Payload size in bytes (the paper uses 1 KB packets throughout).
    pub size: u32,
    /// Piggybacked Corelite marker, if this is the `N_w`-th packet.
    pub marker: Option<Marker>,
    /// CSFQ label: the flow's estimated normalized rate, stamped by the
    /// ingress edge and re-labelled by congested core routers.
    pub label: Option<f64>,
    /// Time the ingress edge emitted the packet.
    pub sent_at: SimTime,
    /// Go-back-N sequencing metadata; `None` for open-loop traffic.
    pub seq: Option<SeqInfo>,
}

impl Packet {
    /// Creates a plain data packet.
    pub fn data(id: PacketId, flow: FlowId, size: u32, sent_at: SimTime) -> Self {
        Packet {
            id,
            flow,
            size,
            marker: None,
            label: None,
            sent_at,
            seq: None,
        }
    }

    /// Attaches a Corelite marker (builder-style).
    pub fn with_marker(mut self, marker: Marker) -> Self {
        self.marker = Some(marker);
        self
    }

    /// Attaches a CSFQ label (builder-style).
    pub fn with_label(mut self, label: f64) -> Self {
        self.label = Some(label);
        self
    }

    /// Attaches go-back-N sequencing metadata (builder-style).
    pub fn with_seq(mut self, seq: u64, retransmit: bool) -> Self {
        self.seq = Some(SeqInfo { seq, retransmit });
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_attach_metadata() {
        let p = Packet::data(PacketId(1), FlowId::from_index(2), 1000, SimTime::ZERO)
            .with_marker(Marker {
                flow: FlowId::from_index(2),
                edge: NodeId(0),
                normalized_rate: 12.5,
            })
            .with_label(3.0);
        assert_eq!(p.marker.unwrap().normalized_rate, 12.5);
        assert_eq!(p.label, Some(3.0));
        assert_eq!(p.size, 1000);
    }

    #[test]
    fn data_packet_has_no_metadata() {
        let p = Packet::data(PacketId(0), FlowId::from_index(0), 1000, SimTime::ZERO);
        assert!(p.marker.is_none());
        assert!(p.label.is_none());
    }
}
