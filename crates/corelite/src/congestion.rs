//! Incipient congestion detection: how many markers to send back (§3.1).

/// The congestion threshold `q_thresh` on a link's average queue, packets
/// (paper: 8 of a 40-packet buffer): the paper detector and the
/// [`FluidModel`](crate::fluid::FluidModel) feed it to
/// [`marker_feedback_count`].
pub const Q_THRESH: f64 = 8.0;

/// Computes `F_n`, the number of marker notifications a core router must
/// send back when incipient congestion is detected:
///
/// ```text
/// F_n = μ · [ q_avg/(1+q_avg) − q_thresh/(1+q_thresh) ] + k·(q_avg − q_thresh)³
/// ```
///
/// where `μ` (`mu_pkts_per_epoch`) is the outgoing link's service rate in
/// packets *per congestion epoch*.
///
/// The first term is the excess arrival-rate estimate under an M/M/1
/// assumption (`ρ = q/(1+q)`): the difference between the arrival rate
/// that would sustain `q_avg` and the rate that would sustain `q_thresh`.
/// The second, self-correcting term (§3.1) guards against the M/M/1
/// assumption under-throttling: for large queues the cubic dominates and
/// forces enough feedback to keep queues from overflowing, while for small
/// excursions it is negligible.
///
/// Returns 0 when `q_avg ≤ q_thresh` (no incipient congestion).
///
/// # Panics
///
/// Panics if `mu_pkts_per_epoch` is negative, `q_avg`/`q_thresh` are
/// negative, or `k` is negative.
///
/// # Example
///
/// ```
/// use corelite::congestion::marker_feedback_count;
///
/// // No congestion: q_avg at or below the threshold.
/// assert_eq!(marker_feedback_count(8.0, 8.0, 50.0, 0.01), 0.0);
/// // Mild congestion: roughly μ(ρ(10) − ρ(8)) ≈ 1 marker.
/// let f = marker_feedback_count(10.0, 8.0, 50.0, 0.0);
/// assert!(f > 0.9 && f < 1.2, "{f}");
/// ```
pub fn marker_feedback_count(q_avg: f64, q_thresh: f64, mu_pkts_per_epoch: f64, k: f64) -> f64 {
    assert!(q_avg >= 0.0, "q_avg must be non-negative, got {q_avg}");
    assert!(
        q_thresh >= 0.0,
        "q_thresh must be non-negative, got {q_thresh}"
    );
    assert!(
        mu_pkts_per_epoch >= 0.0,
        "service rate must be non-negative, got {mu_pkts_per_epoch}"
    );
    assert!(k >= 0.0, "correction k must be non-negative, got {k}");
    if q_avg <= q_thresh {
        return 0.0;
    }
    let rho_excess = q_avg / (1.0 + q_avg) - q_thresh / (1.0 + q_thresh);
    let over = q_avg - q_thresh;
    mu_pkts_per_epoch * rho_excess + k * over * over * over
}

#[cfg(test)]
mod tests {
    use super::*;

    const MU: f64 = 50.0; // 500 pkt/s × 100 ms epoch

    #[test]
    fn zero_below_and_at_threshold() {
        assert_eq!(marker_feedback_count(0.0, 8.0, MU, 0.01), 0.0);
        assert_eq!(marker_feedback_count(7.9, 8.0, MU, 0.01), 0.0);
        assert_eq!(marker_feedback_count(8.0, 8.0, MU, 0.01), 0.0);
    }

    #[test]
    fn mm1_term_matches_closed_form() {
        // With k = 0 only the M/M/1 term remains.
        let f = marker_feedback_count(10.0, 8.0, MU, 0.0);
        let expect = MU * (10.0 / 11.0 - 8.0 / 9.0);
        assert!((f - expect).abs() < 1e-12);
    }

    #[test]
    fn mm1_term_saturates_for_large_queues() {
        // ρ(q) → 1, so the M/M/1 term is bounded by μ(1 − ρ(q_thresh)).
        let bound = MU * (1.0 - 8.0 / 9.0);
        let f = marker_feedback_count(1000.0, 8.0, MU, 0.0);
        assert!(f < bound);
        assert!(f > 0.95 * bound);
    }

    #[test]
    fn cubic_term_dominates_eventually() {
        // The self-correcting term must overtake the saturated M/M/1 term
        // as the queue grows (the paper's rationale for k > 0).
        let small = marker_feedback_count(12.0, 8.0, MU, 0.01);
        let large = marker_feedback_count(32.0, 8.0, MU, 0.01);
        let large_no_k = marker_feedback_count(32.0, 8.0, MU, 0.0);
        assert!(
            large > 2.0 * large_no_k,
            "cubic should dominate: {large} vs {large_no_k}"
        );
        assert!(small < 3.0, "small excursions stay conservative: {small}");
    }

    #[test]
    fn monotone_in_q_avg() {
        let mut prev = 0.0;
        for i in 0..100 {
            let q = 8.0 + i as f64 * 0.5;
            let f = marker_feedback_count(q, 8.0, MU, 0.01);
            assert!(f >= prev, "F_n must not decrease with q_avg");
            prev = f;
        }
    }

    #[test]
    fn scales_with_service_rate() {
        let f1 = marker_feedback_count(12.0, 8.0, 50.0, 0.0);
        let f2 = marker_feedback_count(12.0, 8.0, 100.0, 0.0);
        assert!((f2 / f1 - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_q_avg_panics() {
        marker_feedback_count(-1.0, 8.0, MU, 0.0);
    }
}
