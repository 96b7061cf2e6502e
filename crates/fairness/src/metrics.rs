//! Fairness and convergence metrics over simulated rate series.

use sim_core::stats::TimeSeries;
use sim_core::time::{SimDuration, SimTime};

/// Jain's fairness index over normalized rates `x_i = rate_i / weight_i`:
/// `(Σx)² / (n·Σx²)`. Equals 1 for a perfectly weighted-fair allocation
/// and approaches `1/n` as one flow dominates.
///
/// Returns 1.0 for an empty input (vacuously fair).
///
/// # Panics
///
/// Panics if the slices have different lengths or any weight is
/// non-positive.
///
/// # Example
///
/// ```
/// use fairness::metrics::jain_index;
///
/// // Rates 10 and 20 with weights 1 and 2 are perfectly weighted-fair.
/// let j = jain_index(&[10.0, 20.0], &[1.0, 2.0]);
/// assert!((j - 1.0).abs() < 1e-12);
/// ```
pub fn jain_index(rates: &[f64], weights: &[f64]) -> f64 {
    assert_eq!(
        rates.len(),
        weights.len(),
        "rates and weights must have equal length"
    );
    if rates.is_empty() {
        return 1.0;
    }
    let mut sum = 0.0;
    let mut sum_sq = 0.0;
    for (&r, &w) in rates.iter().zip(weights) {
        assert!(w > 0.0, "weights must be positive, got {w}");
        let x = r / w;
        sum += x;
        sum_sq += x * x;
    }
    if sum_sq <= 0.0 {
        return 1.0; // all-zero allocation: degenerate but uniform
    }
    (sum * sum) / (rates.len() as f64 * sum_sq)
}

/// The ratio of the largest to the smallest normalized rate
/// (`max_i r_i/w_i / min_i r_i/w_i`); 1.0 is perfectly weighted-fair.
///
/// Returns `f64::INFINITY` when some flow received nothing while another
/// did, and 1.0 for an empty input.
///
/// # Panics
///
/// Panics if the slices have different lengths or any weight is
/// non-positive.
pub fn normalized_spread(rates: &[f64], weights: &[f64]) -> f64 {
    assert_eq!(
        rates.len(),
        weights.len(),
        "rates and weights must have equal length"
    );
    let mut min = f64::INFINITY;
    let mut max: f64 = 0.0;
    for (&r, &w) in rates.iter().zip(weights) {
        assert!(w > 0.0, "weights must be positive, got {w}");
        let x = r / w;
        min = min.min(x);
        max = max.max(x);
    }
    if rates.is_empty() || max <= 0.0 {
        1.0
    } else if min <= 0.0 {
        f64::INFINITY
    } else {
        max / min
    }
}

/// Parameters for [`convergence_time`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConvergenceSpec {
    /// The target value the series should settle around.
    pub target: f64,
    /// Relative tolerance band, e.g. 0.2 accepts `[0.8, 1.2]·target`.
    pub tolerance: f64,
    /// How long the series must remain inside the band to count as
    /// converged.
    pub sustain: SimDuration,
}

/// Returns the first time from which the sample-and-hold series remains
/// inside `target·(1 ± tolerance)` for at least `sustain`, or `None` if it
/// never does (including when the final in-band stretch is shorter than
/// `sustain` at the end of the series).
///
/// This is the convergence measure used to quantify §4.2's claim that
/// Corelite converges faster than CSFQ.
///
/// # Panics
///
/// Panics if `tolerance` is negative or `target` is not finite.
pub fn convergence_time(series: &TimeSeries, spec: &ConvergenceSpec) -> Option<SimTime> {
    assert!(spec.tolerance >= 0.0, "tolerance must be non-negative");
    assert!(spec.target.is_finite(), "target must be finite");
    let lo = spec.target * (1.0 - spec.tolerance);
    let hi = spec.target * (1.0 + spec.tolerance);
    let mut entered: Option<SimTime> = None;
    let mut last_time: Option<SimTime> = None;
    for (t, v) in series.iter() {
        last_time = Some(t);
        let inside = v >= lo && v <= hi;
        match (inside, entered) {
            (true, None) => entered = Some(t),
            (true, Some(since)) => {
                if t.saturating_since(since) >= spec.sustain {
                    // keep scanning only if a later excursion invalidates —
                    // handled by resetting below; once sustained, report.
                    return Some(since);
                }
            }
            (false, _) => entered = None,
        }
    }
    // In-band at the end but not yet for `sustain`.
    match (entered, last_time) {
        (Some(since), Some(end)) if end.saturating_since(since) >= spec.sustain => Some(since),
        _ => None,
    }
}

/// Computes the weighted Jain index over time: for consecutive windows of
/// width `window`, the index of the flows' mean rates within that window
/// (flows with no samples in a window are skipped for it).
///
/// This is the "convergence to fairness" curve: it starts low while flows
/// ramp disparately and approaches 1.0 as the allocation settles.
///
/// # Panics
///
/// Panics if `window` is zero or any weight is non-positive.
pub fn jain_series(
    series: &[(&TimeSeries, u32)],
    horizon: SimTime,
    window: SimDuration,
) -> TimeSeries {
    assert!(!window.is_zero(), "window must be positive");
    let mut out = TimeSeries::new();
    let mut start = SimTime::ZERO;
    while start + window <= horizon {
        let end = start + window;
        let (rates, weights): (Vec<f64>, Vec<f64>) = series
            .iter()
            .filter_map(|(s, w)| s.mean_in(start, end).map(|m| (m, *w as f64)))
            .unzip();
        if !rates.is_empty() {
            out.push(end, jain_index(&rates, &weights));
        }
        start = end;
    }
    out
}

/// Half the peak-to-peak excursion of samples at or after `from`, as a
/// fraction of `reference` — the residual oscillation amplitude once a
/// series has settled. Returns 0.0 when fewer than two samples remain.
///
/// # Panics
///
/// Panics if `reference` is not strictly positive.
pub fn oscillation_amplitude(series: &TimeSeries, from: SimTime, reference: f64) -> f64 {
    assert!(
        reference > 0.0,
        "oscillation reference must be positive, got {reference}"
    );
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    let mut n = 0usize;
    for (t, v) in series.iter() {
        if t >= from {
            min = min.min(v);
            max = max.max(v);
            n += 1;
        }
    }
    if n < 2 {
        0.0
    } else {
        (max - min) / 2.0 / reference
    }
}

/// Convergence diagnostics of one rate series against an analytic
/// reference (the weighted max-min rate the flow should receive).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SettlingReport {
    /// First instant from which the series stays within
    /// `reference·(1 ± tolerance)` for the sustain window, if any.
    pub settling_time: Option<SimTime>,
    /// Residual oscillation after settling, as a fraction of the
    /// reference (half peak-to-peak); `None` when the series never
    /// settles.
    pub oscillation: Option<f64>,
}

/// Measures when `series` settles to within `tolerance` of `reference`
/// (sustained for `sustain`) and, if it does, how much it still
/// oscillates afterwards. This is the per-flow row of the telemetry
/// binary's convergence table.
///
/// # Panics
///
/// Panics if `reference` is not strictly positive or `tolerance` is
/// negative.
pub fn settling_report(
    series: &TimeSeries,
    reference: f64,
    tolerance: f64,
    sustain: SimDuration,
) -> SettlingReport {
    assert!(
        reference > 0.0,
        "settling reference must be positive, got {reference}"
    );
    let spec = ConvergenceSpec {
        target: reference,
        tolerance,
        sustain,
    };
    let settling_time = convergence_time(series, &spec);
    let oscillation = settling_time.map(|from| oscillation_amplitude(series, from, reference));
    SettlingReport {
        settling_time,
        oscillation,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    #[test]
    fn jain_perfect_fairness() {
        assert!((jain_index(&[25.0, 50.0, 75.0], &[1.0, 2.0, 3.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn jain_total_unfairness_tends_to_one_over_n() {
        let j = jain_index(&[100.0, 0.0, 0.0, 0.0], &[1.0, 1.0, 1.0, 1.0]);
        assert!((j - 0.25).abs() < 1e-12);
    }

    #[test]
    fn jain_empty_and_zero() {
        assert_eq!(jain_index(&[], &[]), 1.0);
        assert_eq!(jain_index(&[0.0, 0.0], &[1.0, 1.0]), 1.0);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn jain_length_mismatch_panics() {
        jain_index(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn spread_detects_imbalance() {
        assert!((normalized_spread(&[10.0, 20.0], &[1.0, 2.0]) - 1.0).abs() < 1e-12);
        assert!((normalized_spread(&[10.0, 40.0], &[1.0, 2.0]) - 2.0).abs() < 1e-12);
        assert_eq!(normalized_spread(&[0.0, 10.0], &[1.0, 1.0]), f64::INFINITY);
        assert_eq!(normalized_spread(&[], &[]), 1.0);
    }

    fn step_series(points: &[(f64, f64)]) -> TimeSeries {
        points.iter().map(|&(ts, v)| (t(ts), v)).collect()
    }

    #[test]
    fn convergence_found_after_transient() {
        let s = step_series(&[
            (0.0, 10.0),
            (1.0, 60.0),
            (2.0, 95.0),
            (3.0, 102.0),
            (4.0, 99.0),
            (10.0, 101.0),
        ]);
        let spec = ConvergenceSpec {
            target: 100.0,
            tolerance: 0.1,
            sustain: SimDuration::from_secs(5),
        };
        assert_eq!(convergence_time(&s, &spec), Some(t(2.0)));
    }

    #[test]
    fn convergence_resets_on_excursion() {
        let s = step_series(&[
            (0.0, 100.0),
            (1.0, 100.0),
            (2.0, 10.0), // excursion
            (3.0, 100.0),
            (9.0, 100.0),
        ]);
        let spec = ConvergenceSpec {
            target: 100.0,
            tolerance: 0.1,
            sustain: SimDuration::from_secs(5),
        };
        assert_eq!(convergence_time(&s, &spec), Some(t(3.0)));
    }

    #[test]
    fn convergence_none_when_band_never_sustained() {
        let s = step_series(&[(0.0, 100.0), (1.0, 10.0), (2.0, 100.0), (3.0, 10.0)]);
        let spec = ConvergenceSpec {
            target: 100.0,
            tolerance: 0.1,
            sustain: SimDuration::from_secs(5),
        };
        assert_eq!(convergence_time(&s, &spec), None);
    }

    #[test]
    fn convergence_accepts_sustained_tail() {
        let s = step_series(&[(0.0, 10.0), (1.0, 100.0), (7.0, 100.0)]);
        let spec = ConvergenceSpec {
            target: 100.0,
            tolerance: 0.1,
            sustain: SimDuration::from_secs(5),
        };
        assert_eq!(convergence_time(&s, &spec), Some(t(1.0)));
    }

    #[test]
    fn jain_series_rises_as_rates_converge() {
        // Two weight-1 flows: one constant at 50, one ramping 0 → 50.
        let a = step_series(&[(0.0, 50.0), (10.0, 50.0)]);
        let ramp: TimeSeries = (0..=10).map(|i| (t(i as f64), 5.0 * i as f64)).collect();
        let series = jain_series(&[(&a, 1), (&ramp, 1)], t(10.0), SimDuration::from_secs(2));
        let values: Vec<f64> = series.iter().map(|(_, v)| v).collect();
        assert!(values.first().unwrap() < values.last().unwrap());
        assert!(*values.last().unwrap() > 0.99, "{values:?}");
    }

    #[test]
    fn jain_series_skips_empty_windows() {
        let a = step_series(&[(5.0, 10.0)]);
        let series = jain_series(&[(&a, 1)], t(8.0), SimDuration::from_secs(2));
        // Only window [4,6) contains the sample; the empty windows
        // produce no points.
        assert_eq!(series.len(), 1);
        assert_eq!(series.last_value(), Some(1.0));
    }

    #[test]
    fn oscillation_measures_half_peak_to_peak() {
        let s = step_series(&[(0.0, 10.0), (5.0, 96.0), (6.0, 104.0), (7.0, 100.0)]);
        // From t=5: min 96, max 104 ⇒ half peak-to-peak 4, /100 = 0.04.
        assert!((oscillation_amplitude(&s, t(5.0), 100.0) - 0.04).abs() < 1e-12);
        // The pre-settling transient at t=0 is excluded.
        assert!(oscillation_amplitude(&s, t(0.0), 100.0) > 0.4);
        // Fewer than two post-settling samples: amplitude is undefined ⇒ 0.
        assert_eq!(oscillation_amplitude(&s, t(7.0), 100.0), 0.0);
    }

    #[test]
    fn settling_report_combines_time_and_oscillation() {
        let s = step_series(&[
            (0.0, 10.0),
            (2.0, 98.0),
            (4.0, 103.0),
            (6.0, 99.0),
            (10.0, 100.0),
        ]);
        let rep = settling_report(&s, 100.0, 0.1, SimDuration::from_secs(5));
        assert_eq!(rep.settling_time, Some(t(2.0)));
        // From t=2: min 98, max 103 ⇒ (5/2)/100.
        assert!((rep.oscillation.unwrap() - 0.025).abs() < 1e-12);

        let never = step_series(&[(0.0, 10.0), (5.0, 10.0)]);
        let rep = settling_report(&never, 100.0, 0.1, SimDuration::from_secs(5));
        assert_eq!(rep.settling_time, None);
        assert_eq!(rep.oscillation, None);
    }
}
