//! Randomized property tests for the discrete-event substrate, driven by
//! the in-tree `sim_core::check` harness.

use sim_core::check;
use sim_core::event::EventQueue;
use sim_core::stats::{ExpAvg, TimeSeries, TimeWeightedMean};
use sim_core::time::{SimDuration, SimTime};

/// Popping returns events sorted by time, and FIFO within equal times.
#[test]
fn event_queue_pops_sorted_with_fifo_ties() {
    check::cases(64, 0xE0_01, |g| {
        let times = g.vec_with(1, 200, |g| g.u64_in(0, 1_000));
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_nanos(t), i);
        }
        let mut last: Option<(SimTime, usize)> = None;
        while let Some((t, idx)) = q.pop() {
            if let Some((lt, lidx)) = last {
                assert!(t >= lt, "time went backwards");
                if t == lt {
                    assert!(idx > lidx, "FIFO violated for equal times");
                }
            }
            last = Some((t, idx));
        }
    });
}

/// len/is_empty stay consistent through interleaved push/pop.
#[test]
fn event_queue_len_consistent() {
    check::cases(64, 0xE0_02, |g| {
        let ops = g.vec_with(1, 300, |g| g.bool());
        let mut q = EventQueue::new();
        let mut expected = 0usize;
        for (i, push) in ops.into_iter().enumerate() {
            if push {
                q.push(SimTime::from_nanos(i as u64), i);
                expected += 1;
            } else if q.pop().is_some() {
                expected -= 1;
            }
            assert_eq!(q.len(), expected);
            assert_eq!(q.is_empty(), expected == 0);
        }
    });
}

/// SimTime arithmetic round-trips: (t + d) − d == t and (t + d) − t == d.
#[test]
fn time_arithmetic_round_trips() {
    check::cases(256, 0xE0_03, |g| {
        let t = SimTime::from_nanos(g.u64_in(0, u64::MAX / 4));
        let d = SimDuration::from_nanos(g.u64_in(0, u64::MAX / 4));
        assert_eq!((t + d) - d, t);
        assert_eq!((t + d) - t, d);
    });
}

/// The time-weighted mean always lies within [min, max] of the values
/// the signal took.
#[test]
fn time_weighted_mean_bounded() {
    check::cases(64, 0xE0_04, |g| {
        let values = g.vec_with(1, 100, |g| (g.u64_in(1, 1_000), g.f64_in(0.0, 100.0)));
        let mut m = TimeWeightedMean::new(SimTime::ZERO, values[0].1);
        let mut now = SimTime::ZERO;
        let mut lo = values[0].1;
        let mut hi = values[0].1;
        for &(gap, v) in &values {
            now += SimDuration::from_micros(gap);
            m.set(now, v);
            lo = lo.min(v);
            hi = hi.max(v);
        }
        let end = now + SimDuration::from_micros(1);
        let mean = m.mean(end);
        assert!(
            mean >= lo - 1e-9 && mean <= hi + 1e-9,
            "mean {mean} outside [{lo}, {hi}]"
        );
    });
}

/// Restarting a window yields the same mean as a fresh integrator fed
/// the same tail.
#[test]
fn time_weighted_mean_restart_equivalence() {
    check::cases(64, 0xE0_05, |g| {
        let values = g.vec_with(2, 50, |g| (g.u64_in(1, 1_000), g.f64_in(0.0, 100.0)));
        let split = values.len() / 2;
        let mut now = SimTime::ZERO;
        let mut m = TimeWeightedMean::new(SimTime::ZERO, 0.0);
        for &(gap, v) in &values[..split] {
            now += SimDuration::from_micros(gap);
            m.set(now, v);
        }
        let split_time = now;
        let carried = m.current();
        m.restart(split_time);
        let mut fresh = TimeWeightedMean::new(split_time, carried);
        for &(gap, v) in &values[split..] {
            now += SimDuration::from_micros(gap);
            m.set(now, v);
            fresh.set(now, v);
        }
        let end = now + SimDuration::from_micros(7);
        assert!((m.mean(end) - fresh.mean(end)).abs() < 1e-9);
    });
}

/// The exponential average of a non-negative input stays non-negative
/// and below the largest instantaneous rate seen.
#[test]
fn exp_avg_bounded() {
    check::cases(64, 0xE0_06, |g| {
        let gaps = g.vec_with(2, 200, |g| g.u64_in(1, 100_000));
        let mut e = ExpAvg::new(SimDuration::from_millis(100));
        let mut now = SimTime::ZERO;
        let mut max_inst: f64 = 1.0 / 0.1; // bootstrap rate: amount / K
        for &gap in &gaps {
            now += SimDuration::from_micros(gap);
            let r = e.observe(now, 1.0);
            max_inst = max_inst.max(1.0 / (gap as f64 * 1e-6));
            assert!(r >= 0.0);
            assert!(
                r <= max_inst + 1e-6,
                "rate {r} above max instantaneous {max_inst}"
            );
        }
        assert!(e.decayed(now + SimDuration::from_secs(10)) <= e.rate());
    });
}

/// Resampling preserves the value range and produces monotone
/// timestamps.
#[test]
fn resample_mean_bounded_and_monotone() {
    check::cases(64, 0xE0_07, |g| {
        let samples = g.vec_with(1, 100, |g| (g.u64_in(1, 1_000_000), g.f64_in(-50.0, 50.0)));
        let mut series = TimeSeries::new();
        let mut now = SimTime::ZERO;
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for &(gap, v) in &samples {
            now += SimDuration::from_micros(gap);
            series.push(now, v);
            lo = lo.min(v);
            hi = hi.max(v);
        }
        let resampled = series.resample_mean(SimDuration::from_millis(10));
        assert!(!resampled.is_empty());
        let mut last_t = None;
        for (t, v) in resampled.iter() {
            assert!(v >= lo - 1e-9 && v <= hi + 1e-9);
            if let Some(lt) = last_t {
                assert!(t > lt);
            }
            last_t = Some(t);
        }
    });
}

/// value_at agrees with a linear scan of the samples.
#[test]
fn value_at_matches_linear_scan() {
    check::cases(128, 0xE0_08, |g| {
        let samples = g.vec_with(1, 50, |g| (g.u64_in(1, 1_000), g.f64_in(0.0, 10.0)));
        let probe = g.u64_in(0, 60_000);
        let mut series = TimeSeries::new();
        let mut now = SimTime::ZERO;
        for &(gap, v) in &samples {
            now += SimDuration::from_micros(gap);
            series.push(now, v);
        }
        let probe = SimTime::from_micros(probe);
        let expected = series
            .iter()
            .take_while(|&(t, _)| t <= probe)
            .last()
            .map(|(_, v)| v);
        assert_eq!(series.value_at(probe), expected);
    });
}

/// Histogram quantiles are monotone in q and bracketed by min/max.
#[test]
fn histogram_quantiles_monotone() {
    use sim_core::stats::LogHistogram;
    check::cases(64, 0xE0_09, |g| {
        let spans = g.vec_with(1, 500, |g| {
            SimDuration::from_secs_f64(g.f64_in(1e-6, 100.0))
        });
        let mut qs = g.vec_with(2, 9, |g| g.f64_in(0.0, 1.0));
        qs.push(0.0);
        qs.push(1.0);
        let mut h = LogHistogram::new();
        let mut lo = f64::INFINITY;
        let mut hi = 0.0f64;
        for &span in &spans {
            h.record(span);
            let v = span.as_secs_f64();
            lo = lo.min(v);
            hi = hi.max(v);
        }
        qs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut last = 0.0f64;
        for &q in &qs {
            let v = h.quantile(q).unwrap();
            assert!(
                v >= lo - 1e-12 && v <= hi + 1e-12,
                "q={q}: {v} outside [{lo}, {hi}]"
            );
            assert!(v >= last - 1e-12, "quantiles not monotone at q={q}");
            last = v;
        }
    });
}

/// Histograms filled shard by shard and merged, in either order, equal
/// the histogram that saw the whole stream: `==` and `Debug`, so the sum
/// too, which as an `f64` of seconds depended on the grouping.
#[test]
fn histogram_merge_is_the_single_stream_whatever_the_split() {
    use sim_core::stats::LogHistogram;
    let filled = |spans: &[SimDuration]| {
        let mut h = LogHistogram::new();
        spans.iter().for_each(|&span| h.record(span));
        h
    };
    let check = |spans: &[SimDuration], shard_of: &mut dyn FnMut(usize) -> usize, shards| {
        let mut dealt = vec![Vec::new(); shards];
        for (i, &span) in spans.iter().enumerate() {
            dealt[shard_of(i)].push(span);
        }
        let whole = filled(spans);
        let parts: Vec<LogHistogram> = dealt.iter().map(|d| filled(d)).collect();
        let (mut forward, mut backward) = (LogHistogram::new(), LogHistogram::new());
        parts.iter().for_each(|p| forward.merge(p));
        parts.iter().rev().for_each(|p| backward.merge(p));
        for merged in [forward, backward] {
            assert_eq!(merged, whole);
            assert_eq!(format!("{merged:?}"), format!("{whole:?}"));
            assert_eq!(merged.mean(), whole.mean());
        }
        whole
    };
    // The split the `f64` sum failed: (0.1 + 0.2) + 0.3 is
    // 0.6000000000000001 s, 0.1 + (0.2 + 0.3) is 0.6 s.
    let ms = SimDuration::from_millis;
    for cut in 0..=3 {
        let whole = check(
            &[ms(100), ms(200), ms(300)],
            &mut |i| usize::from(i >= cut),
            2,
        );
        assert_eq!(whole.mean(), Some(0.2));
    }
    check::cases(64, 0xE0_0A, |g| {
        let spans = g.vec_with(0, 400, |g| {
            SimDuration::from_nanos(g.u64_in(0, 20_000_000_000))
        });
        let shards = g.usize_in(1, 9);
        check(&spans, &mut |_| g.usize_in(0, shards), shards);
    });
}
