//! Randomized property tests for the CSFQ estimators.

use csfq::FairShareEstimator;
use sim_core::check;
use sim_core::stats::ExpAvg;
use sim_core::time::{SimDuration, SimTime};

/// The rate estimate is always non-negative and never exceeds the
/// fastest instantaneous rate observed so far (1 packet per smallest
/// gap), up to the bootstrap term.
#[test]
fn rate_estimator_bounded() {
    check::cases(128, 0xCF_01, |g| {
        let gaps = g.vec_with(1, 300, |g| g.u64_in(1, 1_000_000));
        let k = SimDuration::from_millis(100);
        let mut est = ExpAvg::new(k);
        let mut now = SimTime::ZERO;
        let bootstrap = 1.0 / k.as_secs_f64();
        let mut max_inst = bootstrap;
        for &gap in &gaps {
            now += SimDuration::from_micros(gap);
            let r = est.observe(now, 1.0);
            max_inst = max_inst.max(1.0 / (gap as f64 * 1e-6));
            assert!(r >= 0.0);
            assert!(
                r <= max_inst + 1e-6,
                "estimate {r} above max instantaneous {max_inst}"
            );
        }
        // Decay never increases the estimate.
        assert!(est.decayed(now + SimDuration::from_secs(1)) <= est.rate() + 1e-12);
    });
}

/// Drop probabilities are always in [0, 1], and an uncongested link
/// never drops.
#[test]
fn drop_probability_is_a_probability() {
    check::cases(128, 0xCF_02, |g| {
        let capacity = g.f64_in(10.0, 10_000.0);
        let labels = g.vec_with(1, 500, |g| g.f64_in(0.0, 5_000.0));
        let gap_us = g.u64_in(1, 100_000);
        let mut est = FairShareEstimator::new(capacity, SimDuration::from_millis(100));
        let mut now = SimTime::ZERO;
        for &label in &labels {
            now += SimDuration::from_micros(gap_us);
            let p = est.on_arrival(now, label);
            assert!((0.0..=1.0).contains(&p), "p = {p}");
            if !est.is_congested() {
                assert_eq!(p, 0.0, "uncongested link must not drop");
            }
            if p < 0.5 {
                let relabel = est.on_accept(now, label);
                assert!(
                    relabel <= label + 1e-9,
                    "relabel must not increase the label"
                );
            }
        }
    });
}

/// The fair-share estimate is positive once set, and the overflow
/// penalty strictly decreases it.
#[test]
fn alpha_positive_and_penalized() {
    check::cases(128, 0xCF_03, |g| {
        let labels = g.vec_with(10, 200, |g| g.f64_in(1.0, 1_000.0));
        let penalty_pct = g.u64_in(1, 99) as u32;
        let mut est = FairShareEstimator::new(100.0, SimDuration::from_millis(100));
        let mut now = SimTime::ZERO;
        for &label in &labels {
            now += SimDuration::from_micros(500);
            let p = est.on_arrival(now, label);
            if p < 1.0 {
                est.on_accept(now, label);
            }
        }
        if let Some(alpha) = est.alpha() {
            assert!(alpha > 0.0);
            let penalty = penalty_pct as f64 / 100.0;
            est.on_overflow(penalty);
            let after = est.alpha().unwrap();
            assert!((after - alpha * penalty).abs() < 1e-9);
        }
    });
}

/// Two estimators fed identical inputs agree exactly (pure function
/// of the input stream — determinism of the baseline).
#[test]
fn estimator_is_deterministic() {
    check::cases(128, 0xCF_04, |g| {
        let labels = g.vec_with(1, 100, |g| g.f64_in(0.0, 100.0));
        let mut a = FairShareEstimator::new(500.0, SimDuration::from_millis(100));
        let mut b = FairShareEstimator::new(500.0, SimDuration::from_millis(100));
        let mut now = SimTime::ZERO;
        for &label in &labels {
            now += SimDuration::from_micros(800);
            assert_eq!(a.on_arrival(now, label), b.on_arrival(now, label));
            assert_eq!(a.on_accept(now, label), b.on_accept(now, label));
        }
        assert_eq!(a.alpha(), b.alpha());
    });
}
