//! Reference allocations and fairness metrics.
//!
//! The paper's service model is **weighted max-min fairness** (§2.1): two
//! flows sharing a bottleneck receive bandwidth in the ratio of their rate
//! weights, and no flow's normalized rate `b(i)/w(i)` can be increased
//! without decreasing the normalized rate of a flow that already has less.
//!
//! This crate provides:
//!
//! * [`maxmin`] — an exact weighted max-min water-filling solver on
//!   arbitrary link/flow topologies. Every experiment compares the
//!   simulated rates against this analytic ground truth.
//! * [`incremental`] — the same allocation maintained incrementally under
//!   flow churn: joins and leaves update Kahan-compensated per-link
//!   aggregates in O(links crossed), and solving water-fills only the
//!   active set. Differential tests pin it to the batch solver at `1e-9`.
//! * [`metrics`] — Jain's fairness index on normalized rates, convergence
//!   time extraction, and weight-class ratio summaries used by the
//!   EXPERIMENTS.md tables.

#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::float_cmp))]

pub mod incremental;
pub mod maxmin;
pub mod metrics;

pub use incremental::{ChurnAllocation, IncrementalMaxMin, KahanSum};
pub use maxmin::{Allocation, MaxMinProblem};
pub use metrics::{convergence_time, jain_index, jain_series, normalized_spread, ConvergenceSpec};
