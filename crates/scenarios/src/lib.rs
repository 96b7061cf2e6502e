//! Topologies, flow schedules, and the experiment harness.
//!
//! This crate reconstructs the evaluation section (§4) of the Corelite
//! paper and generalizes it into an open experiment harness:
//!
//! * [`topology`] — the Figure-2 network (a chain of four core routers
//!   with three 4 Mbps / 40 ms congested links, per-flow ingress/egress
//!   edge routers on 4 Mbps / 40 ms access links) plus [`topology::TopologySpec`],
//!   which describes arbitrary core networks: chains of any length, the
//!   parking-lot configuration, and a small leaf–spine fat-tree.
//! * [`discipline`] — the open [`discipline::Discipline`] trait and the
//!   registry of in-tree schemes: `corelite`, `csfq`, `red`, `fred`,
//!   `fifo`, `greedy`. New disciplines plug in without runner changes.
//! * [`schedules`] — the flow sets and activation schedules behind every
//!   evaluation figure (Figures 3–10).
//! * [`runner`] — builds the network for a scenario and discipline, runs
//!   it, and extracts per-flow series plus the discipline's analytic
//!   reference allocation.
//! * [`exec`] — a deterministic parallel executor for experiment sweeps
//!   (results byte-identical to serial execution).
//! * [`fault`] — the control-loss degradation sweep behind the `faults`
//!   binary (a scenario's faults are a [`netsim::FaultPlan`]).
//! * [`report`] — expected-vs-measured tables, convergence summaries, and
//!   CSV export for replotting.
//! * [`plot`] — a dependency-free SVG line plotter; the `figures` binary
//!   writes an image per figure next to the CSV.
//! * [`cli`] — the flags a table binary accepts; anything else exits 2.
//!
//! The `figures` binary regenerates every figure, and `compare` runs the
//! §4.4 summary across every registered discipline:
//!
//! ```text
//! cargo run --release -p scenarios --bin figures -- all
//! cargo run --release -p scenarios --bin compare
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::float_cmp))]

pub mod churn;
pub mod cli;
pub mod discipline;
pub mod dsl;
pub mod exec;
pub mod fault;
pub mod plot;
pub mod report;
pub mod runner;
pub mod schedules;
pub mod topology;

pub use discipline::Discipline;
pub use runner::{
    ExperimentResult, ReferenceSpec, RunOptions, Scenario, ScenarioChurn, ScenarioFlow,
};
pub use schedules::{
    fig3_4, fig5_6, fig7_8, fig9_10, mixed_transports, mixed_transports_fat_tree, PaperFigure, SEED,
};
pub use topology::{CorePath, Route, TopologySpec};
