//! A deterministic fluid model of the Corelite control loop.
//!
//! The paper argues convergence "through both simulations and analysis"
//! (§2.2): the edge update is an enhanced LIMD whose feedback is
//! proportional to each flow's normalized rate, so by the Chiu–Jain
//! argument the normalized rates equalize. This module provides that
//! analysis as executable mathematics: a discrete-time recursion over
//! flow rates on a single bottleneck, with the §3.1 feedback-count
//! formula and the §3.2 above-average selection gate in expectation (no
//! packets, no randomness).
//!
//! The fluid model runs thousands of times faster than the packet
//! simulator and is used by the property tests to check convergence from
//! arbitrary initial conditions, and by users to predict equilibria when
//! designing weight/contract assignments.

use netsim::agent::ALPHA;

use crate::config::CoreliteConfig;
use crate::config::MuUnit;
use crate::congestion::{marker_feedback_count, Q_THRESH};

/// One flow in the fluid model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FluidFlow {
    /// Rate weight `w`.
    pub weight: f64,
    /// Minimum rate contract (floor), units of rate.
    pub min_rate: f64,
    /// Current rate `b_g`.
    pub rate: f64,
}

/// A single-bottleneck fluid recursion of the Corelite dynamics.
///
/// # Example
///
/// ```
/// use corelite::fluid::FluidModel;
/// use corelite::CoreliteConfig;
///
/// let mut m = FluidModel::new(CoreliteConfig::default(), 500.0);
/// m.add_flow(1.0, 0.0, 10.0);
/// m.add_flow(2.0, 0.0, 400.0); // way above its share
/// m.run(4_000);
/// let rates = m.rates();
/// // Converges to ≈ 167 / 333 (weighted shares of 500).
/// assert!((rates[0] - 167.0).abs() < 25.0, "{rates:?}");
/// assert!((rates[1] - 333.0).abs() < 40.0, "{rates:?}");
/// ```
#[derive(Debug, Clone)]
pub struct FluidModel {
    cfg: CoreliteConfig,
    capacity: f64,
    flows: Vec<FluidFlow>,
    queue: f64,
}

impl FluidModel {
    /// Creates a model of one bottleneck link with `capacity` (rate
    /// units; the experiments use packets per second).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is not finite and positive or `cfg` is
    /// invalid.
    pub fn new(cfg: CoreliteConfig, capacity: f64) -> Self {
        cfg.validate();
        assert!(
            capacity.is_finite() && capacity > 0.0,
            "capacity must be finite and positive"
        );
        FluidModel {
            cfg,
            capacity,
            flows: Vec::new(),
            queue: 0.0,
        }
    }

    /// Adds a flow with `weight`, contract `min_rate` and initial rate
    /// `rate`.
    ///
    /// # Panics
    ///
    /// Panics on non-positive weight or negative rates.
    pub fn add_flow(&mut self, weight: f64, min_rate: f64, rate: f64) -> usize {
        assert!(weight > 0.0, "weight must be positive");
        assert!(min_rate >= 0.0 && rate >= 0.0, "rates must be non-negative");
        self.flows.push(FluidFlow {
            weight,
            min_rate,
            rate: rate.max(min_rate),
        });
        self.flows.len() - 1
    }

    /// Current rates, in insertion order.
    pub fn rates(&self) -> Vec<f64> {
        self.flows.iter().map(|f| f.rate).collect()
    }

    /// Current fluid queue length (packets).
    pub fn queue(&self) -> f64 {
        self.queue
    }

    /// Advances the model by one core congestion epoch, applying the edge
    /// update in the same step (the fluid limit of the paper's two-epoch
    /// pipeline). Returns the feedback count `F_n` of the epoch.
    pub fn step(&mut self) -> f64 {
        let dt = self.cfg.core_epoch.as_secs_f64();
        let aggregate: f64 = self.flows.iter().map(|f| f.rate).sum();
        // Fluid queue: integrate excess arrivals over the epoch.
        self.queue = (self.queue + (aggregate - self.capacity) * dt).max(0.0);
        let mu = match self.cfg.mu_unit {
            MuUnit::PerEpoch => self.capacity * dt,
            MuUnit::PerSecond => self.capacity,
        };
        let fn_count = marker_feedback_count(self.queue, Q_THRESH, mu, self.cfg.correction_k);

        // §3.2 in expectation: markers go only to flows whose normalized
        // excess is at or above the marker-weighted average, in proportion
        // to their normalized excess.
        let excess: Vec<f64> = self
            .flows
            .iter()
            .map(|f| (f.rate - f.min_rate).max(0.0) / f.weight)
            .collect();
        let total_excess: f64 = excess.iter().sum();
        let r_av = if total_excess > 0.0 {
            // Marker-weighted mean of the labels (markers arrive ∝ excess).
            excess.iter().map(|x| x * x).sum::<f64>() / total_excess
        } else {
            0.0
        };
        let eligible: f64 = excess.iter().filter(|&&x| x >= r_av).sum();

        let beta = self.cfg.beta;
        for (f, &x) in self.flows.iter_mut().zip(&excess) {
            if fn_count > 0.0 && eligible > 0.0 && x >= r_av {
                let m = fn_count * x / eligible;
                f.rate = (f.rate - beta * m).max(f.min_rate);
            } else {
                let inc = if self.cfg.alpha_per_weight {
                    ALPHA * f.weight
                } else {
                    ALPHA
                };
                // The edge epoch is a multiple of the core epoch; scale the
                // probe step to per-core-epoch units.
                f.rate += inc * dt / self.cfg.edge_epoch.as_secs_f64();
            }
        }
        fn_count
    }

    /// Runs `epochs` steps.
    pub fn run(&mut self, epochs: usize) {
        for _ in 0..epochs {
            self.step();
        }
    }

    /// The analytic equilibrium the recursion should approach:
    /// floor + weighted share of the residual capacity.
    pub fn expected_rates(&self) -> Vec<f64> {
        let floors: f64 = self.flows.iter().map(|f| f.min_rate).sum();
        let residual = (self.capacity - floors).max(0.0);
        let total_weight: f64 = self.flows.iter().map(|f| f.weight).sum();
        self.flows
            .iter()
            .map(|f| f.min_rate + residual * f.weight / total_weight)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn converges_from_below_and_above() {
        let mut m = FluidModel::new(CoreliteConfig::default(), 500.0);
        m.add_flow(1.0, 0.0, 1.0); // far below
        m.add_flow(1.0, 0.0, 480.0); // hogging
        m.add_flow(3.0, 0.0, 100.0);
        m.run(6_000);
        let rates = m.rates();
        let expect = m.expected_rates();
        for (r, e) in rates.iter().zip(&expect) {
            assert!(
                (r - e).abs() / e < 0.25,
                "rates {rates:?} vs expected {expect:?}"
            );
        }
    }

    #[test]
    fn queue_stays_bounded_at_equilibrium() {
        let mut m = FluidModel::new(CoreliteConfig::default(), 500.0);
        for _ in 0..10 {
            m.add_flow(1.0, 0.0, 100.0); // 2x overload initially
        }
        m.run(10_000);
        assert!(
            m.queue() < 40.0,
            "fluid queue {} must stay below the buffer",
            m.queue()
        );
        let total: f64 = m.rates().iter().sum();
        assert!((total - 500.0).abs() < 75.0, "aggregate {total}");
    }

    #[test]
    fn contracts_hold_in_the_fluid_limit() {
        let mut m = FluidModel::new(CoreliteConfig::default(), 500.0);
        m.add_flow(1.0, 300.0, 300.0);
        m.add_flow(1.0, 0.0, 10.0);
        m.add_flow(1.0, 0.0, 10.0);
        m.run(6_000);
        let rates = m.rates();
        assert!(rates[0] >= 300.0, "contract pierced: {rates:?}");
        let expect = m.expected_rates(); // 366.7 / 66.7 / 66.7
        for (r, e) in rates.iter().zip(&expect) {
            assert!((r - e).abs() / e < 0.35, "{rates:?} vs {expect:?}");
        }
    }

    #[test]
    fn fluid_and_packet_equilibria_agree() {
        // The fluid prediction for the §4.2 weight ladder matches the
        // packet simulator's measured steady state within the packet
        // model's oscillation band (compare EXPERIMENTS.md, Fig 5).
        let mut m = FluidModel::new(CoreliteConfig::default(), 500.0);
        for w in [1.0, 1.0, 2.0, 2.0, 3.0, 3.0, 4.0, 4.0, 5.0, 5.0] {
            m.add_flow(w, 0.0, 1.0);
        }
        m.run(8_000);
        let rates = m.rates();
        let expect = m.expected_rates();
        for (r, e) in rates.iter().zip(&expect) {
            assert!((r - e).abs() / e < 0.3, "{rates:?} vs {expect:?}");
        }
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn bad_capacity_rejected() {
        FluidModel::new(CoreliteConfig::default(), 0.0);
    }
}
