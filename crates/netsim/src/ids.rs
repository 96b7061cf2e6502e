//! Typed identifiers for simulation entities.
//!
//! Newtypes ([C-NEWTYPE]) prevent a `FlowId` from being used where a
//! `NodeId` is expected; all are cheap `Copy` indices into the network's
//! internal tables.

use std::fmt;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        // `u32` rather than `usize`: identifiers ride inside every
        // queued event, and the event queue moves entries constantly
        // (slot drains, sorts, cascades), so four spare bytes per id
        // are pure memory-traffic overhead. Four billion entities is
        // far beyond any simulation this repo runs.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub(crate) u32);

        impl $name {
            /// Returns the raw index of this identifier.
            pub const fn index(self) -> usize {
                self.0 as usize
            }

            /// Creates an identifier from a raw index.
            ///
            /// Intended for table-driven scenario construction; an index
            /// that does not name an existing entity will cause a panic
            /// when first used against a network.
            ///
            /// # Panics
            ///
            /// Panics if `index` exceeds `u32::MAX`.
            pub const fn from_index(index: usize) -> Self {
                assert!(index <= u32::MAX as usize, "entity index exceeds u32");
                $name(index as u32)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }
    };
}

id_type!(
    /// Identifies a node (host, edge router, or core router).
    NodeId,
    "n"
);
id_type!(
    /// Identifies a directed link between two nodes.
    LinkId,
    "l"
);

/// Identifies an edge-to-edge flow.
///
/// A flow id is a **slot index plus a generation**. Statically declared
/// flows always carry generation 0 and behave exactly like the other
/// plain-index ids. Under churn the network recycles flow-table slots
/// through a free-list, and each new occupant of a slot gets the next
/// generation — so a stale event, packet, or control message addressed
/// to a retired flow can be recognized (its id no longer matches the
/// slot's current occupant) and dropped instead of being misdelivered.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowId {
    pub(crate) idx: u32,
    pub(crate) gen: u32,
}

impl FlowId {
    /// Returns the raw slot index of this identifier.
    pub const fn index(self) -> usize {
        self.idx as usize
    }

    /// Creates a generation-0 identifier from a raw index — the id of a
    /// statically declared flow.
    ///
    /// # Panics
    ///
    /// Panics if `index` exceeds `u32::MAX`.
    pub const fn from_index(index: usize) -> Self {
        assert!(index <= u32::MAX as usize, "entity index exceeds u32");
        FlowId {
            idx: index as u32,
            gen: 0,
        }
    }

    /// The slot generation: 0 for statically declared flows, incremented
    /// for each successive churn occupant of a recycled slot.
    pub const fn generation(self) -> u32 {
        self.gen
    }

    /// Creates an identifier with an explicit generation (churn slot
    /// recycling; tests).
    ///
    /// # Panics
    ///
    /// Panics if `index` exceeds `u32::MAX`.
    pub const fn with_generation(index: usize, generation: u32) -> Self {
        assert!(index <= u32::MAX as usize, "entity index exceeds u32");
        FlowId {
            idx: index as u32,
            gen: generation,
        }
    }
}

impl fmt::Debug for FlowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Generation-0 ids render exactly like the other index newtypes
        // so static-scenario debug output (the determinism oracles'
        // byte-identity surface) is unchanged by the generation field.
        if self.gen == 0 {
            write!(f, "FlowId({})", self.idx)
        } else {
            write!(f, "FlowId({}g{})", self.idx, self.gen)
        }
    }
}

impl fmt::Display for FlowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.gen == 0 {
            write!(f, "f{}", self.idx)
        } else {
            write!(f, "f{}g{}", self.idx, self.gen)
        }
    }
}

/// Identifies a single packet; unique over a simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PacketId(pub(crate) u64);

impl PacketId {
    /// Returns the raw sequence number of this packet.
    pub const fn sequence(self) -> u64 {
        self.0
    }

    /// Creates a packet id from a raw sequence number. Intended for tests
    /// and tooling that drive [`Link`](crate::link::Link) directly; inside
    /// a simulation, ids are allocated by
    /// [`Ctx::new_packet`](crate::logic::Ctx::new_packet).
    pub const fn from_sequence(sequence: u64) -> Self {
        PacketId(sequence)
    }

    /// Packs a packet id from the minting node and its per-node counter:
    /// `(node + 1) << 40 | counter`. Ids minted by different nodes can
    /// never collide, so every node numbers its packets independently —
    /// which lets topology shards mint identical ids without sharing a
    /// global counter.
    pub(crate) const fn for_node(node: NodeId, counter: u64) -> Self {
        debug_assert!(counter < 1 << 40, "per-node packet counter overflow");
        PacketId(((node.index() as u64 + 1) << 40) | counter)
    }
}

impl fmt::Display for PacketId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_display_distinctly() {
        assert_eq!(NodeId(3).to_string(), "n3");
        assert_eq!(LinkId(3).to_string(), "l3");
        assert_eq!(FlowId::from_index(3).to_string(), "f3");
        assert_eq!(FlowId::with_generation(3, 2).to_string(), "f3g2");
        assert_eq!(PacketId(9).to_string(), "p9");
    }

    #[test]
    fn ids_round_trip_index() {
        assert_eq!(FlowId::from_index(5).index(), 5);
        assert_eq!(NodeId::from_index(2).index(), 2);
    }

    #[test]
    fn ids_order_by_index() {
        assert!(FlowId::from_index(1) < FlowId::from_index(2));
        assert!(PacketId(1) < PacketId(10));
    }

    #[test]
    fn flow_generations_share_a_slot_but_compare_distinct() {
        let a = FlowId::from_index(4);
        let b = FlowId::with_generation(4, 1);
        assert_eq!(a.index(), b.index());
        assert_ne!(a, b);
        assert!(a < b, "older generations sort first within a slot");
        assert_eq!(a.generation(), 0);
        assert_eq!(b.generation(), 1);
    }

    #[test]
    fn generation_zero_debug_matches_plain_ids() {
        // The determinism oracles Debug-render whole reports; static
        // flows must keep their pre-generation rendering.
        assert_eq!(format!("{:?}", FlowId::from_index(7)), "FlowId(7)");
        assert_eq!(
            format!("{:?}", FlowId::with_generation(7, 3)),
            "FlowId(7g3)"
        );
    }
}
