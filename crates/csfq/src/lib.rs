//! Weighted **Core-Stateless Fair Queueing** (CSFQ) — the baseline the
//! Corelite paper compares against.
//!
//! CSFQ (Stoica, Shenker, Zhang — SIGCOMM 1998) approximates weighted fair
//! bandwidth allocation without per-flow state in the core:
//!
//! * **Edge routers** estimate each flow's rate with exponential averaging
//!   ([`sim_core::stats::ExpAvg`], time constant `K = 100 ms` in the
//!   paper's runs) and label every packet with the flow's *normalized*
//!   estimated rate `r/w` ([`CsfqConfig::edge`]).
//! * **Core routers** estimate the link's fair share `α`
//!   ([`core::FairShareEstimator`]) and drop each arriving packet with
//!   probability `max(0, 1 − α/label)`, relabelling forwarded packets to
//!   `min(label, α)` ([`core::CsfqCore`]).
//!
//! The traffic sources are the same adaptive agents the Corelite paper
//! uses (§4) — literally the same code, [`netsim::agent::SourceAgent`]
//! behind a [`netsim::agent::AgentEdge`]: slow-start that doubles every
//! second until the first congestion indication — here a packet
//! **loss** — or `ss_thresh`, then linear increase / loss-proportional
//! decrease. This makes the two architectures differ only in the
//! mechanism under study, exactly as in the paper's evaluation.
//!
//! # Example
//!
//! ```
//! use csfq::{CsfqConfig, CsfqCore};
//! use netsim::flow::FlowSpec;
//! use netsim::link::LinkSpec;
//! use netsim::logic::ForwardLogic;
//! use netsim::topology::TopologyBuilder;
//! use sim_core::time::{SimDuration, SimTime};
//!
//! let cfg = CsfqConfig::default();
//! let mut b = TopologyBuilder::new(17);
//! let edge = b.node("edge", |_| Box::new(cfg.edge()));
//! let core = b.node("core", |s| Box::new(CsfqCore::new(s)));
//! let sink = b.node("sink", |_| Box::new(ForwardLogic));
//! b.link(edge, core, LinkSpec::new(40_000_000, SimDuration::from_millis(1), 400));
//! b.link(core, sink, LinkSpec::new(4_000_000, SimDuration::from_millis(10), 40));
//! b.flow(FlowSpec::new(vec![edge, core, sink], 1).active(SimTime::ZERO, None));
//! let mut net = b.build();
//! net.run_until(SimTime::from_secs(5));
//! let report = net.into_report(SimTime::from_secs(5));
//! assert!(report.flows[0].delivered_packets > 0);
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::float_cmp))]

pub mod config;
pub mod core;
pub mod edge;

pub use crate::core::{CsfqCore, FairShareEstimator};
pub use config::CsfqConfig;
