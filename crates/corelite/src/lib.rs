//! **Corelite**: per-flow weighted rate fairness in a core-stateless
//! network.
//!
//! This crate implements the QoS architecture of *"Achieving Per-Flow
//! Weighted Rate Fairness in a Core Stateless Network"* (Sivakumar, Kim,
//! Venkitaraman, Li, Bharghavan — ICDCS 2000) on top of the [`netsim`]
//! substrate. Three mechanisms cooperate:
//!
//! 1. **Shaping and marking at the edge** ([`CoreliteConfig::edge`]): every
//!    flow is shaped to its allowed rate `b_g(f)`, and a marker carrying
//!    the flow's *normalized rate* `r_n = b_g/w` is piggybacked on every
//!    `N_w = K1·w`-th data packet, so a flow's marker rate reflects its
//!    normalized rate. The same edge joins clouds or aggregates micro-flows
//!    ([`CoreliteConfig::gateway`], [`CoreliteConfig::aggregating_edge`]).
//! 2. **Incipient congestion detection and weighted fair marker feedback
//!    at the core** ([`router::CoreliteCore`]): each congestion epoch the
//!    core compares the average queue `q_avg` against `q_thresh` and, on
//!    congestion, returns [`congestion::marker_feedback_count`] markers to
//!    the edges that generated them — selected either from a bounded
//!    [`cache::MarkerCache`] (§2) or by the truly-stateless selective
//!    scheme of [`stateless::StatelessSelector`] (§3.2).
//! 3. **Rate adaptation at the edge** ([`netsim::agent::SourceAgent`], the
//!    agent CSFQ's edges run too): a
//!    weighted linear-increase/multiplicative-decrease rule —
//!    `b_g += α` on silence, `b_g = max(0, b_g − β·m)` on `m` markers,
//!    reacting to the **maximum** per-core marker count — plus the paper's
//!    slow-start (double every second until the first notification or
//!    `ss_thresh`).
//!
//! No core router keeps per-flow state: the marker cache holds opaque
//! recently-seen markers, and the stateless selector keeps exactly two
//! scalars per link (`r_av`, `w_av`) plus a deficit counter.
//!
//! # Example
//!
//! Two flows with weights 1 and 2 across one 500 pkt/s bottleneck
//! converge to rates in a 1:2 ratio:
//!
//! ```
//! use corelite::{CoreliteConfig, CoreliteCore};
//! use netsim::flow::FlowSpec;
//! use netsim::link::LinkSpec;
//! use netsim::logic::ForwardLogic;
//! use netsim::topology::TopologyBuilder;
//! use sim_core::time::{SimDuration, SimTime};
//!
//! let cfg = CoreliteConfig::default();
//! let mut b = TopologyBuilder::new(7);
//! let edge = b.node("edge", |_| Box::new(cfg.edge()));
//! let core = b.node("core", |s| Box::new(CoreliteCore::new(s, cfg.clone())));
//! let sink = b.node("sink", |_| Box::new(ForwardLogic));
//! b.link(edge, core, LinkSpec::new(40_000_000, SimDuration::from_millis(1), 400));
//! b.link(core, sink, LinkSpec::new(4_000_000, SimDuration::from_millis(10), 40));
//! b.flow(FlowSpec::new(vec![edge, core, sink], 1).active(SimTime::ZERO, None));
//! b.flow(FlowSpec::new(vec![edge, core, sink], 2).active(SimTime::ZERO, None));
//! let mut net = b.build();
//! let end = SimTime::from_secs(260);
//! net.run_until(end);
//! let report = net.into_report(end);
//! let r1 = report.allotted_rate(netsim::FlowId::from_index(0)).unwrap()
//!     .mean_in(SimTime::from_secs(200), end).unwrap();
//! let r2 = report.allotted_rate(netsim::FlowId::from_index(1)).unwrap()
//!     .mean_in(SimTime::from_secs(200), end).unwrap();
//! assert!((r2 / r1 - 2.0).abs() < 0.4, "ratio {}", r2 / r1);
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::float_cmp))]

pub mod cache;
pub mod config;
pub mod congestion;
pub mod detector;
pub mod edge;
pub mod fluid;
pub mod router;
pub mod stateless;

pub use cache::MarkerCache;
pub use config::{CoreliteConfig, DecreasePolicy, MuUnit, SelectorKind};
pub use congestion::marker_feedback_count;
pub use detector::DetectorKind;
pub use fluid::FluidModel;
pub use router::CoreliteCore;
pub use stateless::StatelessSelector;
