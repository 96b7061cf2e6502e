//! Related-work baselines from the paper's §5 discussion.
//!
//! The paper positions Corelite against queue-management schemes that
//! predate it:
//!
//! * plain drop-tail FIFO forwarding ([`FifoCore`] — what the bare
//!   [`netsim`] substrate gives you),
//! * **RED** (Floyd & Jacobson, cited as \[9\]): random early detection
//!   with an EWMA queue estimate and a probabilistic drop ramp
//!   ([`red::RedCore`]) — *"However, it provides no fairness guarantees"*,
//! * **FRED** (Lin & Morris, cited as \[2\]): RED plus per-active-flow
//!   buffer accounting ([`fred::FredCore`]) — fairer than RED, but
//!   carrying exactly the per-flow state §5 objects to,
//! * greedy, non-adaptive sources ([`greedy::GreedySource`]) to expose
//!   exactly that: under RED (or FIFO), goodput follows the *offered*
//!   load, not the configured rate weights.
//!
//! The integration tests use these to reproduce the §5 claim
//! quantitatively: RED spreads losses but does not equalize (weighted)
//! rates, while Corelite does.

#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::float_cmp))]

pub mod fred;
pub mod greedy;
pub mod red;

pub use fred::FredCore;
pub use greedy::GreedySource;
pub use red::RedCore;

/// Plain drop-tail FIFO forwarding — an alias for the substrate's
/// default behaviour, named for experiment legibility.
pub type FifoCore = netsim::logic::ForwardLogic;
