//! Randomized property tests for the Corelite mechanisms: the
//! feedback-count formula, the marker cache, and the stateless selective
//! selector.

#![allow(clippy::float_cmp)]

use corelite::congestion::marker_feedback_count;
use corelite::{MarkerCache, StatelessSelector};
use netsim::packet::Marker;
use netsim::{FlowId, NodeId};
use sim_core::check;
use sim_core::rng::DetRng;

fn marker(flow: usize, rn: f64) -> Marker {
    Marker {
        flow: FlowId::from_index(flow),
        edge: NodeId::from_index(0),
        normalized_rate: rn,
    }
}

/// F_n is zero at or below the threshold, non-negative, and monotone
/// non-decreasing in q_avg.
#[test]
fn feedback_count_properties() {
    check::cases(256, 0xC0_01, |g| {
        let q_thresh = g.f64_in(0.0, 40.0);
        let mu = g.f64_in(0.0, 10_000.0);
        let k = g.f64_in(0.0, 1.0);
        let q1 = g.f64_in(0.0, 200.0);
        let q2 = g.f64_in(0.0, 200.0);
        assert_eq!(marker_feedback_count(q_thresh, q_thresh, mu, k), 0.0);
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        let f_lo = marker_feedback_count(lo, q_thresh, mu, k);
        let f_hi = marker_feedback_count(hi, q_thresh, mu, k);
        assert!(f_lo >= 0.0 && f_hi >= 0.0);
        assert!(
            f_hi >= f_lo - 1e-12,
            "not monotone: F({lo})={f_lo}, F({hi})={f_hi}"
        );
    });
}

/// The cache never exceeds its capacity and `select(n)` returns
/// min(n, len) markers, all of which are present in the cache.
#[test]
fn cache_bounds() {
    check::cases(128, 0xC0_02, |g| {
        let capacity = g.usize_in(1, 64);
        let pushes = g.vec_with(0, 200, |g| (g.usize_in(0, 10), g.f64_in(0.0, 100.0)));
        let n = g.usize_in(0, 80);
        let seed = g.u64_in(0, 1000);
        let mut cache = MarkerCache::new(capacity);
        for &(flow, rn) in &pushes {
            cache.push(marker(flow, rn));
            assert!(cache.len() <= capacity);
        }
        let mut rng = DetRng::new(seed);
        let picks = cache.select(n, &mut rng);
        assert_eq!(picks.len(), n.min(cache.len()));
        for m in &picks {
            assert!(
                cache.count_for_flow(m.flow) > 0,
                "selected marker not in cache"
            );
        }
    });
}

/// The cache holds exactly the most recent `capacity` markers.
#[test]
fn cache_keeps_most_recent() {
    check::cases(128, 0xC0_03, |g| {
        let capacity = g.usize_in(1, 32);
        let total = g.usize_in(1, 200);
        let mut cache = MarkerCache::new(capacity);
        for i in 0..total {
            cache.push(marker(i, 0.0));
        }
        let kept = total.min(capacity);
        // The last `kept` flows are present; everything older is gone.
        for i in 0..total {
            let expected = usize::from(i >= total - kept);
            assert_eq!(
                cache.count_for_flow(FlowId::from_index(i)),
                expected,
                "flow {i} retention wrong"
            );
        }
    });
}

/// The stateless selector never sends feedback while the link is
/// uncongested (p_w = 0), regardless of the marker stream.
#[test]
fn stateless_silent_without_congestion() {
    check::cases(64, 0xC0_04, |g| {
        let markers = g.vec_with(1, 300, |g| (g.usize_in(0, 5), g.f64_in(0.1, 100.0)));
        let seed = g.u64_in(0, 1000);
        let mut sel = StatelessSelector::new(0.1);
        let mut rng = DetRng::new(seed);
        for &(flow, rn) in &markers {
            assert!(!sel.on_marker(&marker(flow, rn), &mut rng));
        }
        sel.on_epoch(0.0);
        for &(flow, rn) in &markers {
            assert!(!sel.on_marker(&marker(flow, rn), &mut rng));
        }
    });
}

/// A marker strictly below the running average is never sent back,
/// whatever the congestion level (the §3.2 selective-throttling
/// guarantee).
#[test]
fn stateless_never_throttles_below_average() {
    check::cases(64, 0xC0_05, |g| {
        let fn_count = g.f64_in(0.0, 100.0);
        let rounds = g.usize_in(1, 200);
        let seed = g.u64_in(0, 1000);
        let mut sel = StatelessSelector::new(0.5);
        let mut rng = DetRng::new(seed);
        // Alternate high (100) and low (1) markers so the running average
        // always sits strictly between them.
        sel.on_marker(&marker(0, 100.0), &mut rng);
        sel.on_marker(&marker(1, 1.0), &mut rng);
        sel.on_epoch(fn_count);
        for _ in 0..rounds {
            let sent_low = sel.on_marker(&marker(1, 1.0), &mut rng);
            assert!(!sent_low, "below-average marker was sent back");
            let _ = sel.on_marker(&marker(0, 100.0), &mut rng);
        }
    });
}

/// r_av stays within the range of observed normalized rates.
#[test]
fn stateless_r_av_bounded() {
    check::cases(64, 0xC0_06, |g| {
        let rates = g.vec_with(1, 200, |g| g.f64_in(0.1, 500.0));
        let gain = g.u64_in(1, 1000) as f64 / 1000.0;
        let mut sel = StatelessSelector::new(gain);
        let mut rng = DetRng::new(1);
        let mut lo = f64::INFINITY;
        let mut hi = 0.0f64;
        for &rn in &rates {
            sel.on_marker(&marker(0, rn), &mut rng);
            lo = lo.min(rn);
            hi = hi.max(rn);
            let r_av = sel.r_av().unwrap();
            assert!(
                r_av >= lo - 1e-9 && r_av <= hi + 1e-9,
                "r_av {r_av} outside [{lo}, {hi}]"
            );
        }
    });
}

/// Over many epochs with a steady over-share marker stream, the mean
/// feedback per epoch approaches F_n (selection preserves the target
/// in expectation when every marker is eligible).
#[test]
fn stateless_expectation_tracks_fn() {
    check::cases(50, 0xC0_07, |g| {
        let seed = g.u64_in(0, 50);
        let mut sel = StatelessSelector::new(0.2);
        let mut rng = DetRng::new(seed);
        for _ in 0..50 {
            sel.on_marker(&marker(0, 10.0), &mut rng);
        }
        sel.on_epoch(0.0); // learn w_av = 50
        let target = 5.0;
        let mut sent = 0u64;
        let epochs = 300;
        for _ in 0..epochs {
            sel.on_epoch(target);
            for _ in 0..50 {
                sent += u64::from(sel.on_marker(&marker(0, 10.0), &mut rng));
            }
        }
        let mean = sent as f64 / epochs as f64;
        assert!(
            (mean - target).abs() < 0.8,
            "mean feedback {mean} vs target {target}"
        );
    });
}

/// The fluid recursion converges to floor + weighted share of the
/// surplus from *any* initial condition — the executable version of
/// the paper's Chiu–Jain convergence argument (§2.2).
#[test]
fn fluid_model_converges_from_any_start() {
    use corelite::{CoreliteConfig, FluidModel};
    check::cases(48, 0xC0_08, |g| {
        let specs = g.vec_with(2, 7, |g| (g.f64_in(1.0, 5.0), g.f64_in(0.0, 600.0)));
        let mut m = FluidModel::new(CoreliteConfig::default(), 500.0);
        for &(w, r0) in &specs {
            m.add_flow(w, 0.0, r0);
        }
        m.run(8_000);
        let rates = m.rates();
        let expect = m.expected_rates();
        for (i, (r, e)) in rates.iter().zip(&expect).enumerate() {
            assert!(
                (r - e).abs() / e < 0.35,
                "flow {i}: {r:.1} vs expected {e:.1} (all: {rates:?})"
            );
        }
        assert!(m.queue() < 60.0, "fluid queue diverged: {}", m.queue());
    });
}
