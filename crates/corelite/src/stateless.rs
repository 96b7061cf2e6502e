//! The truly flow-stateless selective marker feedback scheme (§3.2).
//!
//! Instead of caching markers, the core router keeps exactly two running
//! scalars per link — `r_av`, the running average of the normalized rates
//! labelled on passing markers, and `w_av`, the running average of markers
//! observed per epoch — plus a per-epoch deficit counter.
//!
//! When congestion is detected, the router must return `F_n` markers. Each
//! arriving marker is *selected* with probability `p_w = F_n / w_av`:
//!
//! * selected and `r_n ≥ r_av` → sent back to its edge;
//! * selected but `r_n < r_av` → **not** sent; the deficit is incremented;
//! * not selected, but the deficit is positive and `r_n ≥ r_av` → sent
//!   back and the deficit decremented.
//!
//! The deficit swap ensures that a below-average flow's unlucky selection
//! is replaced by a later above-average marker, so only flows at or above
//! the average normalized rate — precisely the ones over-using the link —
//! ever receive feedback. `r_av` over-estimates the true average (faster
//! flows contribute more markers), which is what isolates the over-users;
//! this is the crate's improvement over CSFQ's explicit fair-share
//! estimate.

use sim_core::rng::DetRng;

use netsim::packet::Marker;

/// Exponential-average gain of the core routers' selectors for `r_av`
/// (per marker) and `w_av` (per epoch).
pub const RUNNING_AVG_GAIN: f64 = 0.1;

/// Per-link state of the stateless selective feedback scheme.
///
/// # Example
///
/// ```
/// use corelite::stateless::StatelessSelector;
/// use netsim::packet::Marker;
/// use netsim::{FlowId, NodeId};
/// use sim_core::rng::DetRng;
///
/// let mut sel = StatelessSelector::new(0.1);
/// let mut rng = DetRng::new(3);
/// let m = Marker { flow: FlowId::from_index(0), edge: NodeId::from_index(0), normalized_rate: 10.0 };
/// // No congestion signalled yet: nothing is ever selected.
/// assert!(!sel.on_marker(&m, &mut rng));
/// ```
#[derive(Debug, Clone)]
pub struct StatelessSelector {
    gain: f64,
    r_av: Option<f64>,
    w_av: Option<f64>,
    epoch_markers: u64,
    p_w: f64,
    deficit: u64,
    sent_this_epoch: u64,
}

impl StatelessSelector {
    /// Creates a selector whose running averages use exponential gain
    /// `gain` (per marker for `r_av`, per epoch for `w_av`).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < gain ≤ 1`.
    pub fn new(gain: f64) -> Self {
        assert!(
            gain > 0.0 && gain <= 1.0,
            "running average gain must be in (0, 1], got {gain}"
        );
        StatelessSelector {
            gain,
            r_av: None,
            w_av: None,
            epoch_markers: 0,
            p_w: 0.0,
            deficit: 0,
            sent_this_epoch: 0,
        }
    }

    /// Observes a marker passing through the link and decides whether to
    /// send it back as feedback. Always updates `r_av` and the per-epoch
    /// marker count, even when the link is uncongested.
    pub fn on_marker(&mut self, marker: &Marker, rng: &mut DetRng) -> bool {
        let rn = marker.normalized_rate;
        let r_av = match self.r_av {
            None => {
                self.r_av = Some(rn);
                rn
            }
            Some(prev) => {
                let next = (1.0 - self.gain) * prev + self.gain * rn;
                self.r_av = Some(next);
                next
            }
        };
        self.epoch_markers += 1;
        if self.p_w <= 0.0 {
            return false;
        }
        let above_average = rn >= r_av;
        if rng.bernoulli(self.p_w) {
            if above_average {
                self.sent_this_epoch += 1;
                true
            } else {
                self.deficit += 1;
                false
            }
        } else if self.deficit > 0 && above_average {
            self.deficit -= 1;
            self.sent_this_epoch += 1;
            true
        } else {
            false
        }
    }

    /// Closes a congestion epoch: folds the epoch's marker count into
    /// `w_av`, then arms the next epoch to return `fn_count` markers
    /// (`0` when the link is uncongested).
    ///
    /// # Panics
    ///
    /// Panics if `fn_count` is negative or not finite.
    pub fn on_epoch(&mut self, fn_count: f64) {
        assert!(
            fn_count.is_finite() && fn_count >= 0.0,
            "marker feedback count must be finite and non-negative, got {fn_count}"
        );
        let count = self.epoch_markers as f64;
        // Idle epochs (no markers at all) carry no information about the
        // per-epoch marker rate of *active* traffic — folding their zeros
        // in would drive `w_av → 0` during a lull and cap `p_w` at 1.0,
        // producing a spurious feedback burst on the first markers after
        // the idle period. Keep the last informed average instead. The
        // idle test is on the integer marker count, so it is exact.
        let w_av = match self.w_av {
            _ if self.epoch_markers == 0 => self.w_av.unwrap_or(0.0),
            None => {
                self.w_av = Some(count);
                count
            }
            Some(prev) => {
                let next = (1.0 - self.gain) * prev + self.gain * count;
                self.w_av = Some(next);
                next
            }
        };
        self.p_w = if fn_count > 0.0 && w_av > 0.0 {
            (fn_count / w_av).min(1.0)
        } else {
            0.0
        };
        self.epoch_markers = 0;
        self.deficit = 0;
        self.sent_this_epoch = 0;
    }

    /// The running average `r_av` of labelled normalized rates.
    pub fn r_av(&self) -> Option<f64> {
        self.r_av
    }

    /// The running average `w_av` of markers per epoch.
    pub fn w_av(&self) -> Option<f64> {
        self.w_av
    }

    /// The current selection probability `p_w`.
    pub fn p_w(&self) -> f64 {
        self.p_w
    }

    /// Markers sent back so far in the current epoch.
    pub fn sent_this_epoch(&self) -> u64 {
        self.sent_this_epoch
    }

    /// The carried-over selection deficit (selections owed from past
    /// epochs whose probabilistic picks came up short).
    pub fn deficit(&self) -> u64 {
        self.deficit
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::{FlowId, NodeId};

    fn m(flow: usize, rn: f64) -> Marker {
        Marker {
            flow: FlowId::from_index(flow),
            edge: NodeId::from_index(0),
            normalized_rate: rn,
        }
    }

    #[test]
    fn nothing_selected_without_congestion() {
        let mut s = StatelessSelector::new(0.1);
        let mut rng = DetRng::new(1);
        for _ in 0..1000 {
            assert!(!s.on_marker(&m(0, 50.0), &mut rng));
        }
        assert_eq!(s.sent_this_epoch(), 0);
    }

    #[test]
    fn r_av_tracks_marker_rates() {
        let mut s = StatelessSelector::new(0.5);
        let mut rng = DetRng::new(1);
        for _ in 0..64 {
            s.on_marker(&m(0, 10.0), &mut rng);
        }
        assert!((s.r_av().unwrap() - 10.0).abs() < 1e-6);
        // r_av over-estimates when a fast flow sends more markers.
        let mut s2 = StatelessSelector::new(0.1);
        for i in 0..900 {
            // 2 fast markers (rate 30) for every slow one (rate 3).
            let rn = if i % 3 == 2 { 3.0 } else { 30.0 };
            s2.on_marker(&m(0, rn), &mut rng);
        }
        let true_mean_of_flows = (30.0 + 3.0) / 2.0;
        assert!(s2.r_av().unwrap() > true_mean_of_flows);
    }

    #[test]
    fn only_above_average_flows_receive_feedback() {
        let mut s = StatelessSelector::new(0.05);
        let mut rng = DetRng::new(7);
        // Warm up the averages: fast flow rn=40 (3 of 4 markers), slow rn=5.
        for i in 0..400 {
            let flow = if i % 4 == 3 { 1 } else { 0 };
            let rn = if flow == 1 { 5.0 } else { 40.0 };
            s.on_marker(&m(flow, rn), &mut rng);
        }
        s.on_epoch(10.0); // congested: want 10 markers back
        let mut fast = 0u64;
        let mut slow = 0u64;
        for i in 0..400 {
            let flow = if i % 4 == 3 { 1 } else { 0 };
            let rn = if flow == 1 { 5.0 } else { 40.0 };
            if s.on_marker(&m(flow, rn), &mut rng) {
                if flow == 1 {
                    slow += 1;
                } else {
                    fast += 1;
                }
            }
        }
        assert_eq!(slow, 0, "below-average flow must never get feedback");
        assert!(fast > 0, "above-average flow must get feedback");
    }

    #[test]
    fn deficit_swaps_unlucky_selections() {
        let mut s = StatelessSelector::new(0.5);
        let mut rng = DetRng::new(1);
        // Alternating markers keep r_av strictly between 1 and 100, so
        // rn = 1 stays below average and rn = 100 at or above it.
        s.on_marker(&m(0, 100.0), &mut rng);
        s.on_marker(&m(1, 1.0), &mut rng);
        s.on_epoch(1.0); // w_av = 2 ⇒ p_w = 0.5
        let mut below_sent = 0u64;
        let mut above_sent = 0u64;
        let mut deficit_seen = false;
        for _ in 0..200 {
            if s.on_marker(&m(1, 1.0), &mut rng) {
                below_sent += 1;
            }
            if s.deficit > 0 {
                deficit_seen = true;
            }
            if s.on_marker(&m(0, 100.0), &mut rng) {
                above_sent += 1;
            }
        }
        assert_eq!(below_sent, 0, "below-average markers are never sent back");
        assert!(
            deficit_seen,
            "selecting a below-average marker accrues deficit"
        );
        // With p_w = 0.5 alone, ~100 of 200 fast markers would be sent;
        // deficit swaps push the count well above that.
        assert!(above_sent > 110, "above_sent {above_sent}");
    }

    #[test]
    fn expected_feedback_close_to_fn_when_all_above_average() {
        let mut s = StatelessSelector::new(0.2);
        let mut rng = DetRng::new(11);
        // Single flow: its rn equals r_av, so every marker is "above".
        for _ in 0..100 {
            s.on_marker(&m(0, 20.0), &mut rng);
        }
        s.on_epoch(0.0); // establish w_av = 100 markers/epoch
        let mut total = 0u64;
        let epochs = 200;
        for _ in 0..epochs {
            s.on_epoch(10.0);
            for _ in 0..100 {
                if s.on_marker(&m(0, 20.0), &mut rng) {
                    total += 1;
                }
            }
        }
        let mean = total as f64 / epochs as f64;
        assert!((mean - 10.0).abs() < 1.0, "mean feedback/epoch {mean}");
    }

    #[test]
    fn idle_epochs_do_not_collapse_w_av() {
        let mut s = StatelessSelector::new(0.1);
        let mut rng = DetRng::new(9);
        // Warm up the per-epoch marker average at 100 markers/epoch.
        for _ in 0..40 {
            for _ in 0..100 {
                s.on_marker(&m(0, 10.0), &mut rng);
            }
            s.on_epoch(0.0);
        }
        let warm = s.w_av().unwrap();
        assert!((warm - 100.0).abs() < 5.0, "warm w_av {warm}");
        // A long lull: epochs close with zero markers observed.
        for _ in 0..200 {
            s.on_epoch(0.0);
        }
        assert_eq!(
            s.w_av(),
            Some(warm),
            "idle epochs must not erode the informed average"
        );
        // Congestion right as traffic resumes: the selection probability
        // must reflect the informed average, not a collapsed one (which
        // would cap p_w at 1.0 and burst feedback to every flow).
        s.on_epoch(10.0);
        assert!(
            (s.p_w() - 10.0 / warm).abs() < 1e-9,
            "p_w {} after idle, expected {}",
            s.p_w(),
            10.0 / warm
        );
        assert!(s.p_w() < 0.2, "no spurious feedback burst after idle");
    }

    #[test]
    fn p_w_caps_at_one_and_resets() {
        let mut s = StatelessSelector::new(0.5);
        let mut rng = DetRng::new(1);
        s.on_marker(&m(0, 1.0), &mut rng);
        s.on_epoch(100.0); // F_n ≫ w_av ⇒ p_w capped
        assert_eq!(s.p_w(), 1.0);
        s.on_epoch(0.0);
        assert_eq!(s.p_w(), 0.0);
    }

    #[test]
    #[should_panic(expected = "gain")]
    fn invalid_gain_rejected() {
        StatelessSelector::new(0.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_fn_rejected() {
        StatelessSelector::new(0.5).on_epoch(-1.0);
    }
}
