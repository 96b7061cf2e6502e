//! A packet-level discrete-event network simulator.
//!
//! `netsim` is the substrate on which the [Corelite] reproduction runs. It
//! models what ns-2 provided to the paper's authors:
//!
//! * directed **links** with a serialization rate, propagation delay, and a
//!   bounded tail-drop FIFO queue ([`link`]),
//! * **nodes** hosting pluggable per-node forwarding behaviour — the
//!   [`logic::RouterLogic`] trait — which is where Corelite edge/core
//!   routers and the CSFQ baseline plug in,
//! * **flows** with explicit hop-by-hop paths, weights and activation
//!   schedules ([`flow`]),
//! * the paper's adaptive **source agent** and the paced ingress edge that
//!   Corelite and CSFQ share, differing only in what a packet carries
//!   ([`agent`]),
//! * out-of-band **control messages** (marker feedback, loss notifications)
//!   that travel the reverse path with propagation delay ([`logic::ControlMsg`]),
//! * built-in **measurement**: per-flow goodput series, cumulative service,
//!   drop counts, and per-link queue statistics ([`monitor`]).
//!
//! The simulation is fully deterministic: all randomness comes from seeded
//! [`sim_core::rng::DetRng`] streams owned by the router logic, and the
//! event queue orders timestamp ties by a canonical per-site push key —
//! the same order the sharded executor ([`shard`]) merges to, which is
//! what makes multi-threaded runs byte-identical to serial ones.
//!
//! # Example
//!
//! Build a two-node network, let the built-in [`logic::PoissonSource`] push
//! packets through a bottleneck link, and read the delivered goodput:
//!
//! ```
//! use netsim::flow::FlowSpec;
//! use netsim::link::LinkSpec;
//! use netsim::logic::{ForwardLogic, PoissonSource};
//! use netsim::topology::TopologyBuilder;
//! use sim_core::time::{SimDuration, SimTime};
//!
//! let mut b = TopologyBuilder::new(42);
//! let src = b.node("src", |seed| Box::new(PoissonSource::new(seed, 100.0)));
//! let dst = b.node("dst", |_| Box::new(ForwardLogic));
//! b.link(src, dst, LinkSpec::new(1_000_000, SimDuration::from_millis(10), 40));
//! b.flow(FlowSpec::new(vec![src, dst], 1).active(SimTime::ZERO, None));
//! let mut net = b.build();
//! net.run_until(SimTime::from_secs(10));
//! let report = net.into_report(SimTime::from_secs(10));
//! let delivered = report.flows[0].delivered_packets;
//! assert!(delivered > 800 && delivered < 1200, "delivered {delivered}");
//! ```
//!
//! [Corelite]: https://doi.org/10.1109/ICDCS.2000.840934

#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::float_cmp))]

pub mod agent;
pub mod churn;
pub mod fault;
pub mod flow;
pub mod ids;
pub mod link;
pub mod logic;
pub mod monitor;
pub mod network;
pub mod pacer;
pub mod packet;
pub mod shard;
pub mod slab;
pub mod telemetry;
pub mod topology;
pub mod trace;
pub mod transport;

pub use agent::{AgentConfig, AgentEdge, SourceAgent, Stamp};
pub use churn::{ChurnReport, ChurnSpec, CohortStats};
pub use fault::{FaultPlan, FaultWindow};
pub use flow::{normalize_activations, FlowInfo, FlowSpec, Transport};
pub use ids::{FlowId, LinkId, NodeId, PacketId};
pub use link::LinkSpec;
pub use logic::{ControlMsg, Ctx, RouterLogic, TimerKind};
pub use monitor::SimReport;
pub use network::{DispatchMode, Network};
pub use pacer::Pacer;
pub use packet::{Marker, Packet};
pub use slab::{ActiveSet, DenseMap, SlabKey};
pub use telemetry::{Probe, ProbeRecord, RingProbe, Sample};
pub use topology::TopologyBuilder;
pub use transport::{CongestionControl, GbnConfig, GbnSender, Reno, RttEstimator};
