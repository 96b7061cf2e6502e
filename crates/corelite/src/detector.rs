//! Pluggable incipient congestion detection.
//!
//! The paper notes that *"the congestion estimation module can be
//! replaced with no impact on the rest of the Corelite mechanisms"*
//! (§3.1). This module makes that claim concrete: a [`DetectorKind`]
//! turns one epoch's queue observations into a marker feedback count
//! `F_n`, and the core router runs whichever one the configuration
//! names. Three are provided:
//!
//! * [`DetectorKind::Paper`] — the §3.1 formula (M/M/1 excess + cubic
//!   self-correction), the default.
//! * [`DetectorKind::Red`] — an RED-inspired module (Floyd & Jacobson,
//!   cited as \[9\]): exponentially weighted queue average with min/max
//!   thresholds and a linear marking ramp.
//! * [`DetectorKind::Decbit`] — a DECbit-inspired module (Jain &
//!   Ramakrishnan, cited as \[7\]): congestion whenever the average queue
//!   reaches one packet, feedback proportional to the queue.

use crate::config::{CoreliteConfig, MuUnit};
use crate::congestion::{marker_feedback_count, Q_THRESH};

/// Which congestion estimation module core routers run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DetectorKind {
    /// The paper's §3.1 formula with threshold [`Q_THRESH`] and the
    /// [`CoreliteConfig`]'s `correction_k` and `mu_unit`.
    Paper,
    /// RED-style: EWMA queue average `avg ← (1−w_q)·avg + w_q·q_avg`,
    /// marking ramp between `min_thresh` and `max_thresh`.
    Red {
        /// EWMA gain `w_q` (RED's classic 0.002 is per *packet*; per
        /// *epoch* something like 0.25 is comparable).
        wq: f64,
        /// No feedback below this average queue length (packets).
        min_thresh: f64,
        /// Full-strength feedback at or above this average (packets).
        max_thresh: f64,
        /// Fraction of the per-epoch service that is fed back at the top
        /// of the ramp (RED's `max_p` analogue).
        max_p: f64,
    },
    /// DECbit-style: congestion whenever the average queue is at least
    /// `threshold` (classically 1 packet); feedback grows linearly with
    /// the average queue.
    Decbit {
        /// Average queue length at which congestion is declared.
        threshold: f64,
        /// Markers per packet of average queue above the threshold.
        gain: f64,
    },
}

impl DetectorKind {
    /// Checks the detector's parameters (part of
    /// [`CoreliteConfig::validate`]).
    pub(crate) fn validate(&self) {
        match *self {
            DetectorKind::Paper => {}
            DetectorKind::Red {
                wq,
                min_thresh,
                max_thresh,
                max_p,
            } => {
                assert!(wq > 0.0 && wq <= 1.0, "RED w_q must be in (0, 1]");
                assert!(
                    min_thresh >= 0.0 && max_thresh > min_thresh,
                    "RED thresholds must satisfy 0 <= min < max"
                );
                assert!(max_p > 0.0, "RED max_p must be positive");
            }
            DetectorKind::Decbit { threshold, gain } => {
                assert!(threshold >= 0.0, "DECbit threshold must be non-negative");
                assert!(gain > 0.0, "DECbit gain must be positive");
            }
        }
    }
}

/// One congestion epoch of one link under `cfg.detector`: the number of
/// feedback markers `F_n ≥ 0` to send (fractional counts are rounded
/// expectation-preservingly by the router).
///
/// * `red_avg` — the link's RED queue average, which only
///   [`DetectorKind::Red`] reads and updates (the other two are
///   memoryless);
/// * `q_avg` — time-weighted average queue length over the epoch,
///   packets;
/// * `mu_pps` — the link's service rate in packets per second;
/// * `epoch_secs` — the congestion epoch length in seconds.
pub(crate) fn feedback_count(
    cfg: &CoreliteConfig,
    red_avg: &mut f64,
    q_avg: f64,
    mu_pps: f64,
    epoch_secs: f64,
) -> f64 {
    match cfg.detector {
        DetectorKind::Paper => {
            let mu = match cfg.mu_unit {
                MuUnit::PerEpoch => mu_pps * epoch_secs,
                MuUnit::PerSecond => mu_pps,
            };
            marker_feedback_count(q_avg, Q_THRESH, mu, cfg.correction_k)
        }
        DetectorKind::Red {
            wq,
            min_thresh,
            max_thresh,
            max_p,
        } => {
            *red_avg = (1.0 - wq) * *red_avg + wq * q_avg;
            if *red_avg <= min_thresh {
                return 0.0;
            }
            let ramp = ((*red_avg - min_thresh) / (max_thresh - min_thresh)).min(1.0);
            ramp * max_p * mu_pps * epoch_secs
        }
        DetectorKind::Decbit { threshold, gain } => {
            if q_avg < threshold {
                0.0
            } else {
                gain * (q_avg - threshold + 1.0)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::CoreliteCore;

    fn with(detector: DetectorKind) -> CoreliteConfig {
        CoreliteConfig {
            detector,
            ..CoreliteConfig::default()
        }
    }

    #[test]
    fn paper_detector_matches_formula() {
        let cfg = CoreliteConfig::default();
        let mut avg = 0.0;
        let direct = marker_feedback_count(12.0, 8.0, 50.0, cfg.correction_k);
        assert_eq!(feedback_count(&cfg, &mut avg, 12.0, 500.0, 0.1), direct);
        assert_eq!(feedback_count(&cfg, &mut avg, 0.0, 500.0, 0.1), 0.0);
    }

    #[test]
    fn red_detector_ramps_between_thresholds() {
        let cfg = with(DetectorKind::Red {
            wq: 1.0, // no smoothing: avg = q_avg
            min_thresh: 5.0,
            max_thresh: 15.0,
            max_p: 0.1,
        });
        let mut avg = 0.0;
        assert_eq!(feedback_count(&cfg, &mut avg, 4.0, 500.0, 0.1), 0.0);
        let mid = feedback_count(&cfg, &mut avg, 10.0, 500.0, 0.1);
        let full = feedback_count(&cfg, &mut avg, 15.0, 500.0, 0.1);
        let beyond = feedback_count(&cfg, &mut avg, 40.0, 500.0, 0.1);
        assert!((mid - 0.5 * 0.1 * 50.0).abs() < 1e-9, "mid {mid}");
        assert!((full - 0.1 * 50.0).abs() < 1e-9, "full {full}");
        assert_eq!(full, beyond, "ramp saturates at max_p");
    }

    #[test]
    fn red_detector_smooths_across_epochs() {
        let cfg = with(DetectorKind::Red {
            wq: 0.5,
            min_thresh: 5.0,
            max_thresh: 15.0,
            max_p: 0.1,
        });
        let mut avg = 0.0;
        // A single spiky epoch is damped by the EWMA.
        let first = feedback_count(&cfg, &mut avg, 20.0, 500.0, 0.1); // avg = 10
        let second = feedback_count(&cfg, &mut avg, 20.0, 500.0, 0.1); // avg = 15
        assert!(
            first < second,
            "EWMA should build up: {first} then {second}"
        );
    }

    #[test]
    fn decbit_detector_fires_at_one_packet() {
        let cfg = with(DetectorKind::Decbit {
            threshold: 1.0,
            gain: 2.0,
        });
        let mut avg = 0.0;
        assert_eq!(feedback_count(&cfg, &mut avg, 0.5, 500.0, 0.1), 0.0);
        assert_eq!(feedback_count(&cfg, &mut avg, 1.0, 500.0, 0.1), 2.0);
        assert_eq!(feedback_count(&cfg, &mut avg, 3.0, 500.0, 0.1), 6.0);
    }

    /// An invalid detector is rejected when the core is built, not at its
    /// first epoch.
    #[test]
    #[should_panic(expected = "thresholds")]
    fn red_rejects_inverted_thresholds() {
        let cfg = with(DetectorKind::Red {
            wq: 0.5,
            min_thresh: 10.0,
            max_thresh: 5.0,
            max_p: 0.1,
        });
        CoreliteCore::new(0, cfg);
    }
}
