//! Deterministic discrete-event simulation substrate.
//!
//! This crate provides the building blocks every simulator in this
//! workspace is assembled from:
//!
//! * [`time::SimTime`] / [`time::SimDuration`] — virtual time with
//!   nanosecond resolution and exact integer arithmetic.
//! * [`event::EventQueue`] — a priority queue of timestamped events with a
//!   stable FIFO tie-break, so runs are bit-for-bit reproducible.
//! * [`rng::DetRng`] — seeded deterministic random streams; every component
//!   derives its own independent stream from one experiment seed.
//! * [`stats`] — time-series recording, time-weighted averages (used for
//!   the paper's `q_avg` congestion signal), windowed rate meters and
//!   exponential averaging (used by the CSFQ baseline).
//!
//! # Example
//!
//! ```
//! use sim_core::event::EventQueue;
//! use sim_core::time::SimTime;
//!
//! let mut q = EventQueue::new();
//! q.push(SimTime::from_secs_f64(2.0), "later");
//! q.push(SimTime::from_secs_f64(1.0), "sooner");
//! let (t, ev) = q.pop().unwrap();
//! assert_eq!(ev, "sooner");
//! assert_eq!(t, SimTime::from_secs_f64(1.0));
//! ```

#![forbid(unsafe_code)]

pub mod check;
pub mod event;
pub mod rng;
pub mod stats;
pub mod time;

pub use event::EventQueue;
pub use rng::DetRng;
pub use time::{SimDuration, SimTime};
