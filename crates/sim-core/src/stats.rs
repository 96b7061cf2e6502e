//! Measurement primitives shared by the simulators.
//!
//! * [`TimeSeries`] — append-only `(time, value)` samples with resampling
//!   helpers, used to record allotted rates and cumulative service.
//! * [`TimeWeightedMean`] — exact time-weighted average of a
//!   piecewise-constant signal; this is how a Corelite core router computes
//!   the average queue length `q_avg` over a congestion epoch.
//! * [`ExpAvg`] — the exponential averaging estimator from CSFQ
//!   (`r ← (1 − e^{−T/K})·(l/T) + e^{−T/K}·r`).
//! * [`WindowedRate`] — event count per fixed window, for goodput plots.

use crate::time::{SimDuration, SimTime, NANOS_PER_SEC};

/// An append-only series of `(time, value)` samples.
///
/// Sample times must be non-decreasing.
///
/// # Example
///
/// ```
/// use sim_core::stats::TimeSeries;
/// use sim_core::time::SimTime;
///
/// let mut s = TimeSeries::new();
/// s.push(SimTime::ZERO, 1.0);
/// s.push(SimTime::from_secs(1), 2.0);
/// assert_eq!(s.len(), 2);
/// assert_eq!(s.last_value(), Some(2.0));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TimeSeries {
    samples: Vec<(SimTime, f64)>,
}

impl TimeSeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        TimeSeries {
            samples: Vec::new(),
        }
    }

    /// Appends a sample.
    ///
    /// # Panics
    ///
    /// Panics if `time` is earlier than the previous sample's time.
    pub fn push(&mut self, time: SimTime, value: f64) {
        if let Some(&(last, _)) = self.samples.last() {
            assert!(
                time >= last,
                "TimeSeries samples must be time-ordered: {time} after {last}"
            );
        }
        self.samples.push((time, value));
    }

    /// Removes every sample, keeping the allocation for reuse.
    pub fn clear(&mut self) {
        self.samples.clear();
    }

    /// Returns the number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Returns `true` if the series holds no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Returns the most recent value, if any.
    pub fn last_value(&self) -> Option<f64> {
        self.samples.last().map(|&(_, v)| v)
    }

    /// Iterates over `(time, value)` samples in time order.
    pub fn iter(&self) -> impl Iterator<Item = (SimTime, f64)> + '_ {
        self.samples.iter().copied()
    }

    /// Returns the sample-and-hold value at `t`: the value of the latest
    /// sample at or before `t`, or `None` if `t` precedes the first sample.
    pub fn value_at(&self, t: SimTime) -> Option<f64> {
        match self.samples.binary_search_by(|&(st, _)| st.cmp(&t)) {
            Ok(i) => Some(self.samples[i].1),
            Err(0) => None,
            Err(i) => Some(self.samples[i - 1].1),
        }
    }

    /// Returns the plain mean of values sampled within `[from, to)`.
    pub fn mean_in(&self, from: SimTime, to: SimTime) -> Option<f64> {
        let mut sum = 0.0;
        let mut n = 0usize;
        for &(t, v) in &self.samples {
            if t >= from && t < to {
                sum += v;
                n += 1;
            }
        }
        (n > 0).then(|| sum / n as f64)
    }

    /// Returns the samples as a slice.
    pub fn as_slice(&self) -> &[(SimTime, f64)] {
        &self.samples
    }

    /// Resamples the series into buckets of width `window`, emitting one
    /// point per bucket (at the bucket's end) holding the mean of the
    /// samples inside it. Empty buckets repeat the previous bucket's
    /// value. Useful for smoothing a sawtooth before convergence
    /// detection.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn resample_mean(&self, window: SimDuration) -> TimeSeries {
        assert!(!window.is_zero(), "resample window must be positive");
        let mut out = TimeSeries::new();
        let Some(&(first, _)) = self.samples.first() else {
            return out;
        };
        let &(last, _) = self.samples.last().expect("non-empty");
        let mut bucket_start = first;
        let mut held = self.samples[0].1;
        let mut i = 0usize;
        while bucket_start <= last {
            let bucket_end = bucket_start + window;
            let mut sum = 0.0;
            let mut n = 0usize;
            while i < self.samples.len() && self.samples[i].0 < bucket_end {
                sum += self.samples[i].1;
                n += 1;
                i += 1;
            }
            if n > 0 {
                held = sum / n as f64;
            }
            out.push(bucket_end, held);
            bucket_start = bucket_end;
        }
        out
    }
}

impl FromIterator<(SimTime, f64)> for TimeSeries {
    fn from_iter<I: IntoIterator<Item = (SimTime, f64)>>(iter: I) -> Self {
        let mut s = TimeSeries::new();
        for (t, v) in iter {
            s.push(t, v);
        }
        s
    }
}

/// Exact time-weighted mean of a piecewise-constant signal.
///
/// Feed it every change of the signal via [`TimeWeightedMean::set`]; read
/// the mean over the elapsed window with [`TimeWeightedMean::mean`] and
/// start a fresh window with [`TimeWeightedMean::restart`].
///
/// Corelite core routers use this to compute `q_avg`, the average aggregate
/// queue length over each congestion epoch.
///
/// # Example
///
/// ```
/// use sim_core::stats::TimeWeightedMean;
/// use sim_core::time::SimTime;
///
/// let mut m = TimeWeightedMean::new(SimTime::ZERO, 0.0);
/// m.set(SimTime::from_secs(1), 10.0); // 0 for 1s
/// let mean = m.mean(SimTime::from_secs(2)); // then 10 for 1s
/// assert_eq!(mean, 5.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TimeWeightedMean {
    window_start: SimTime,
    last_change: SimTime,
    current: f64,
    integral: f64,
}

impl TimeWeightedMean {
    /// Starts integrating at `start` with initial signal value `value`.
    pub fn new(start: SimTime, value: f64) -> Self {
        TimeWeightedMean {
            window_start: start,
            last_change: start,
            current: value,
            integral: 0.0,
        }
    }

    /// Records that the signal changed to `value` at time `now`.
    ///
    /// # Panics
    ///
    /// Panics if `now` precedes the previous update.
    pub fn set(&mut self, now: SimTime, value: f64) {
        assert!(
            now >= self.last_change,
            "TimeWeightedMean updates must be time-ordered"
        );
        self.integral += self.current * (now - self.last_change).as_secs_f64();
        self.last_change = now;
        self.current = value;
    }

    /// Returns the current signal value.
    pub fn current(&self) -> f64 {
        self.current
    }

    /// Returns the time-weighted mean over `[window_start, now]`.
    ///
    /// If the window has zero width, returns the current value.
    pub fn mean(&self, now: SimTime) -> f64 {
        let span = now.saturating_since(self.window_start).as_secs_f64();
        if span <= 0.0 {
            return self.current;
        }
        let tail = self.current * now.saturating_since(self.last_change).as_secs_f64();
        (self.integral + tail) / span
    }

    /// Closes the window at `now` and starts a new one, keeping the current
    /// signal value. Returns the mean of the closed window.
    pub fn restart(&mut self, now: SimTime) -> f64 {
        let mean = self.mean(now);
        self.window_start = now;
        self.last_change = now;
        self.integral = 0.0;
        mean
    }
}

/// The exponential averaging estimator used by CSFQ.
///
/// On each update at inter-arrival gap `T` carrying quantity `l`, the
/// estimate becomes `r ← (1 − e^{−T/K})·(l/T) + e^{−T/K}·r` where `K` is the
/// averaging time constant. The exponential form makes the estimate
/// insensitive to packet-size variation.
#[derive(Debug, Clone, PartialEq)]
pub struct ExpAvg {
    k: f64,
    last: Option<SimTime>,
    rate: f64,
}

impl ExpAvg {
    /// Creates an estimator with time constant `k` (seconds).
    ///
    /// # Panics
    ///
    /// Panics if `k` is not strictly positive.
    pub fn new(k: SimDuration) -> Self {
        assert!(!k.is_zero(), "ExpAvg time constant must be positive");
        ExpAvg {
            k: k.as_secs_f64(),
            last: None,
            rate: 0.0,
        }
    }

    /// Records `amount` units arriving at `now` and returns the updated
    /// rate estimate (units per second).
    ///
    /// The first observation initializes the estimate to `amount / k`.
    pub fn observe(&mut self, now: SimTime, amount: f64) -> f64 {
        match self.last {
            None => {
                // Bootstrap: treat the first packet as spread over one time
                // constant, matching the ns CSFQ implementation.
                self.rate = amount / self.k;
            }
            Some(prev) => {
                let t = now.saturating_since(prev).as_secs_f64();
                if t <= 0.0 {
                    // Simultaneous arrival: fold the amount into the estimate
                    // as an instantaneous burst over a negligible interval.
                    self.rate += amount / self.k;
                } else {
                    let e = (-t / self.k).exp();
                    self.rate = (1.0 - e) * (amount / t) + e * self.rate;
                }
            }
        }
        self.last = Some(now);
        self.rate
    }

    /// Returns the current rate estimate, decayed to `now` with no new
    /// arrival (used when reading the estimate between packets).
    pub fn decayed(&self, now: SimTime) -> f64 {
        match self.last {
            None => 0.0,
            Some(prev) => {
                let t = now.saturating_since(prev).as_secs_f64();
                self.rate * (-t / self.k).exp()
            }
        }
    }

    /// Returns the current (undecayed) rate estimate.
    pub fn rate(&self) -> f64 {
        self.rate
    }
}

/// Counts events into fixed-size windows and exposes per-window rates.
///
/// Used to produce the paper's "number of packets per second" plots from
/// discrete delivery events.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowedRate {
    window: SimDuration,
    window_start: SimTime,
    in_window: f64,
    series: TimeSeries,
}

impl WindowedRate {
    /// Creates a meter with the given window size starting at `start`.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(start: SimTime, window: SimDuration) -> Self {
        assert!(!window.is_zero(), "WindowedRate window must be positive");
        WindowedRate {
            window,
            window_start: start,
            in_window: 0.0,
            series: TimeSeries::new(),
        }
    }

    /// Records `amount` units at time `now`, closing any windows that have
    /// elapsed since the last event.
    pub fn record(&mut self, now: SimTime, amount: f64) {
        self.roll_to(now);
        self.in_window += amount;
    }

    /// Closes every window that ends at or before `now`, emitting one
    /// series point per closed window (at the window's *end* time).
    pub fn roll_to(&mut self, now: SimTime) {
        while now >= self.window_start + self.window {
            let end = self.window_start + self.window;
            let rate = self.in_window / self.window.as_secs_f64();
            self.series.push(end, rate);
            self.window_start = end;
            self.in_window = 0.0;
        }
    }

    /// Returns the window width.
    pub fn window(&self) -> SimDuration {
        self.window
    }

    /// Returns the start of the window still open.
    pub fn window_start(&self) -> SimTime {
        self.window_start
    }

    /// Returns the per-window rate series (units per second, one point per
    /// closed window).
    pub fn series(&self) -> &TimeSeries {
        &self.series
    }

    /// Consumes the meter, closing the final partial window, and returns
    /// the series.
    pub fn finish(mut self, now: SimTime) -> TimeSeries {
        self.roll_to(now);
        self.series
    }
}

/// The mean, in seconds, of `count` spans that add up to `sum_ns`
/// nanoseconds; `None` of none. Integer sums of spans are exact and add in
/// any order, so accumulators keep those and divide when read.
pub fn mean_secs(sum_ns: u128, count: u64) -> Option<f64> {
    (count > 0).then(|| sum_ns as f64 / (NANOS_PER_SEC as f64 * count as f64))
}

/// A logarithmically bucketed histogram for positive quantities spanning
/// many orders of magnitude (packet delays: microseconds to seconds).
///
/// Values are assigned to buckets whose bounds grow geometrically from
/// 1 µs; quantiles are answered by linear interpolation inside the
/// winning bucket. Of its 120 buckets it stores only the span between
/// the lowest and the highest one it has seen (a flow's delays cover a
/// few dozen), and recording is O(1) — suitable for millions of
/// per-packet observations.
///
/// # Example
///
/// ```
/// use sim_core::stats::LogHistogram;
///
/// use sim_core::time::SimDuration;
///
/// let mut h = LogHistogram::new();
/// for i in 1..=1000 {
///     h.record(SimDuration::from_millis(i)); // 1 ms .. 1 s, uniform
/// }
/// let p50 = h.quantile(0.5).unwrap();
/// assert!(p50 > 0.4 && p50 < 0.6, "{p50}");
/// ```
#[derive(Clone)]
pub struct LogHistogram {
    /// `counts[j]` is bucket `offset + j`, which spans
    /// [MIN_VALUE·GROWTH^i, MIN_VALUE·GROWTH^(i+1)) for `i = offset + j`.
    /// Empty until the first `record`: most flows of a churn run never
    /// deliver a packet, and the buckets outside the span read as zeros.
    /// The observation count is their sum, so it is not stored: only
    /// report-time methods read it.
    counts: Vec<u64>,
    offset: usize,
    /// Exact: every observation is a whole number of nanoseconds, and a
    /// `u128` holds 2^64 observations of `u64::MAX` ns each, so the sum
    /// needs no overflow check where a `u64` would.
    sum_ns: u128,
    min_seen: f64,
    max_seen: f64,
}

impl LogHistogram {
    /// Number of buckets: covers 1 µs to ~1000 s at 20% growth.
    const BUCKETS: usize = 120;
    /// Upper bound of the first bucket, seconds.
    const MIN_VALUE: f64 = 1e-6;
    /// Ratio of a bucket's bounds.
    const GROWTH: f64 = 1.2;
    /// `GROWTH.ln()` (`f64::ln` is not `const`; a unit test compares).
    /// The three are the same for every histogram, so they are not
    /// fields: a flow monitor holds a histogram per flow.
    const LN_GROWTH: f64 = 0.1823215567939546;

    /// Creates a histogram covering roughly `1 µs ..= 1000 s`.
    pub fn new() -> Self {
        LogHistogram {
            counts: Vec::new(),
            offset: 0,
            sum_ns: 0,
            min_seen: f64::INFINITY,
            max_seen: 0.0,
        }
    }

    /// All 120 bucket counts, those outside the stored span as zeros.
    fn buckets(&self) -> impl Iterator<Item = u64> + '_ {
        let above = Self::BUCKETS - self.offset - self.counts.len();
        std::iter::repeat_n(0, self.offset)
            .chain(self.counts.iter().copied())
            .chain(std::iter::repeat_n(0, above))
    }

    /// Records one observation (clamped into the covered range). Buckets,
    /// extremes and quantiles work on the span in seconds.
    pub fn record(&mut self, span: SimDuration) {
        let value = span.as_secs_f64();
        let idx = if value <= Self::MIN_VALUE {
            0
        } else {
            ((value / Self::MIN_VALUE).ln() / Self::LN_GROWTH) as usize
        }
        .min(Self::BUCKETS - 1);
        // Below the span the index wraps past every length.
        match self.counts.get_mut(idx.wrapping_sub(self.offset)) {
            Some(n) => *n += 1,
            None => self.record_outside(idx),
        }
        self.sum_ns += u128::from(span.as_nanos());
        self.min_seen = self.min_seen.min(value);
        self.max_seen = self.max_seen.max(value);
    }

    /// Counts an observation in bucket `idx`, which the span does not
    /// cover yet.
    #[cold]
    #[inline(never)]
    fn record_outside(&mut self, idx: usize) {
        self.widen(idx, idx + 1);
        self.counts[idx - self.offset] += 1;
    }

    /// Widens the stored span to cover buckets `lo..hi` as well. When the
    /// span outgrows its allocation it reserves as many buckets again, so
    /// a span that keeps widening moves O(log k) times and never holds
    /// room for more than twice the k buckets it spans.
    fn widen(&mut self, lo: usize, hi: usize) {
        if self.counts.is_empty() {
            self.offset = lo;
        }
        let len = self.counts.len();
        let lo = lo.min(self.offset);
        let new_len = hi.max(self.offset + len) - lo;
        if new_len > self.counts.capacity() {
            let room = (2 * len).max(new_len).min(Self::BUCKETS);
            self.counts.reserve_exact(room - len);
        }
        // The new zeros go on the end; those for buckets below the old
        // span rotate round to the front.
        self.counts.resize(new_len, 0);
        self.counts.rotate_right(self.offset - lo);
        self.offset = lo;
    }

    /// Folds `other`'s observations into `self`.
    ///
    /// The result is, bit for bit, the histogram that recording both
    /// observation streams into one instance in any order would have
    /// produced: bucket counts and the sum are integer additions, the
    /// extremes a `min` and a `max`. (A floating-point sum would not be:
    /// it depends on the grouping in the last place.) So partial
    /// histograms built independently — one per topology shard — combine
    /// without re-observing anything.
    pub fn merge(&mut self, other: &LogHistogram) {
        if !other.counts.is_empty() {
            self.widen(other.offset, other.offset + other.counts.len());
            let from = other.offset - self.offset;
            for (b, o) in self.counts[from..].iter_mut().zip(&other.counts) {
                *b += o;
            }
        }
        self.sum_ns += other.sum_ns;
        self.min_seen = self.min_seen.min(other.min_seen);
        self.max_seen = self.max_seen.max(other.max_seen);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Mean of the recorded observations in seconds (from the exact sum,
    /// not bucketed).
    pub fn mean(&self) -> Option<f64> {
        mean_secs(self.sum_ns, self.count())
    }

    /// The `q`-quantile (`0 ≤ q ≤ 1`) by bucket interpolation, or `None`
    /// if nothing was recorded. Accuracy is bounded by the 20% bucket
    /// width; exact `min`/`max` are used at the extremes.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        let count = self.count();
        if count == 0 {
            return None;
        }
        if q <= 0.0 {
            return Some(self.min_seen);
        }
        if q >= 1.0 {
            return Some(self.max_seen);
        }
        let target = q * count as f64;
        let mut seen = 0.0;
        for (i, &n) in (self.offset..).zip(&self.counts) {
            if n == 0 {
                continue;
            }
            let next = seen + n as f64;
            if next >= target {
                let lo = Self::MIN_VALUE * Self::GROWTH.powi(i as i32);
                let hi = lo * Self::GROWTH;
                let frac = (target - seen) / n as f64;
                let v = lo + frac * (hi - lo);
                return Some(v.clamp(self.min_seen, self.max_seen));
            }
            seen = next;
        }
        Some(self.max_seen)
    }
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram::new()
    }
}

/// Which buckets are stored is not observable: equality and `Debug`
/// (which the serial/sharded report identity compares) read every
/// histogram as the 120 bucket counts it stands for.
impl PartialEq for LogHistogram {
    fn eq(&self, other: &Self) -> bool {
        self.buckets().eq(other.buckets())
            && self.sum_ns == other.sum_ns
            && (self.min_seen, self.max_seen) == (other.min_seen, other.max_seen)
    }
}

impl std::fmt::Debug for LogHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LogHistogram")
            .field("buckets", &self.buckets().collect::<Vec<_>>())
            .field("count", &self.count())
            .field("sum_ns", &self.sum_ns)
            .field("min_seen", &self.min_seen)
            .field("max_seen", &self.max_seen)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    #[test]
    fn series_value_at_sample_and_hold() {
        let s: TimeSeries = [(t(1.0), 10.0), (t(2.0), 20.0)].into_iter().collect();
        assert_eq!(s.value_at(t(0.5)), None);
        assert_eq!(s.value_at(t(1.0)), Some(10.0));
        assert_eq!(s.value_at(t(1.5)), Some(10.0));
        assert_eq!(s.value_at(t(2.5)), Some(20.0));
    }

    #[test]
    fn series_mean_in_window() {
        let s: TimeSeries = [(t(0.0), 1.0), (t(1.0), 3.0), (t(2.0), 5.0)]
            .into_iter()
            .collect();
        assert_eq!(s.mean_in(t(0.0), t(2.0)), Some(2.0));
        assert_eq!(s.mean_in(t(5.0), t(6.0)), None);
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn series_rejects_time_travel() {
        let mut s = TimeSeries::new();
        s.push(t(2.0), 0.0);
        s.push(t(1.0), 0.0);
    }

    #[test]
    fn time_weighted_mean_piecewise() {
        let mut m = TimeWeightedMean::new(t(0.0), 4.0);
        m.set(t(2.0), 0.0); // 4 for 2s
        m.set(t(3.0), 8.0); // 0 for 1s
                            // then 8 for 1s → (8 + 0 + 8) / 4 = 4
        assert!((m.mean(t(4.0)) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn time_weighted_mean_restart_resets_window() {
        let mut m = TimeWeightedMean::new(t(0.0), 2.0);
        let first = m.restart(t(1.0));
        assert_eq!(first, 2.0);
        m.set(t(1.5), 6.0);
        // window [1, 2]: 2 for 0.5s + 6 for 0.5s = 4
        assert!((m.mean(t(2.0)) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn time_weighted_mean_zero_width_window() {
        let m = TimeWeightedMean::new(t(1.0), 7.0);
        assert_eq!(m.mean(t(1.0)), 7.0);
    }

    #[test]
    fn exp_avg_converges_to_constant_rate() {
        let mut e = ExpAvg::new(SimDuration::from_millis(100));
        // 1 unit every 10 ms = 100 units/s.
        let mut now = t(0.0);
        for _ in 0..500 {
            now += SimDuration::from_millis(10);
            e.observe(now, 1.0);
        }
        assert!((e.rate() - 100.0).abs() < 1.0, "rate {}", e.rate());
    }

    #[test]
    fn exp_avg_insensitive_to_packet_size_split() {
        // Same long-run rate delivered as double-size packets half as often.
        let mut a = ExpAvg::new(SimDuration::from_millis(100));
        let mut b = ExpAvg::new(SimDuration::from_millis(100));
        let mut now = t(0.0);
        for i in 0..1000 {
            now += SimDuration::from_millis(5);
            a.observe(now, 1.0);
            if i % 2 == 1 {
                b.observe(now, 2.0);
            }
        }
        assert!((a.rate() - b.rate()).abs() / a.rate() < 0.05);
    }

    #[test]
    fn exp_avg_decays_when_idle() {
        let mut e = ExpAvg::new(SimDuration::from_millis(100));
        let mut now = t(0.0);
        for _ in 0..200 {
            now += SimDuration::from_millis(10);
            e.observe(now, 1.0);
        }
        let busy = e.decayed(now);
        let idle = e.decayed(now + SimDuration::from_secs(1));
        assert!(idle < busy * 0.01);
    }

    #[test]
    fn windowed_rate_emits_per_window_points() {
        let mut w = WindowedRate::new(t(0.0), SimDuration::from_secs(1));
        for i in 0..10 {
            w.record(t(0.25 * i as f64), 1.0);
        }
        let series = w.finish(t(3.0));
        let points: Vec<_> = series.iter().collect();
        assert_eq!(points.len(), 3);
        assert_eq!(points[0], (t(1.0), 4.0));
        assert_eq!(points[1], (t(2.0), 4.0));
    }

    #[test]
    fn windowed_rate_skips_empty_windows_with_zero() {
        let mut w = WindowedRate::new(t(0.0), SimDuration::from_secs(1));
        w.record(t(0.5), 2.0);
        w.record(t(3.5), 2.0);
        let series = w.finish(t(4.0));
        let vals: Vec<f64> = series.iter().map(|(_, v)| v).collect();
        assert_eq!(vals, vec![2.0, 0.0, 0.0, 2.0]);
    }

    #[test]
    fn histogram_empty_has_no_quantiles() {
        let h = LogHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), None);
        assert_eq!(h.quantile(0.5), None);
    }

    #[test]
    fn histogram_quantiles_bracket_uniform_data() {
        let mut h = LogHistogram::new();
        for i in 1..=10_000 {
            h.record(SimDuration::from_micros(i * 100)); // 0.1 ms .. 1 s
        }
        let p10 = h.quantile(0.1).unwrap();
        let p50 = h.quantile(0.5).unwrap();
        let p99 = h.quantile(0.99).unwrap();
        assert!(p10 < p50 && p50 < p99, "{p10} {p50} {p99}");
        assert!((p50 - 0.5).abs() < 0.12, "p50 {p50}");
        assert!((p99 - 0.99).abs() < 0.2, "p99 {p99}");
        assert_eq!(h.quantile(0.0), Some(1e-4));
        assert_eq!(h.quantile(1.0), Some(1.0));
        assert!((h.mean().unwrap() - 0.5).abs() < 0.01);
    }

    #[test]
    fn histogram_single_value() {
        let mut h = LogHistogram::new();
        h.record(SimDuration::from_millis(42));
        assert_eq!(h.quantile(0.5).unwrap(), 0.042);
        assert_eq!(h.mean(), Some(0.042));
    }

    #[test]
    fn histogram_clamps_out_of_range() {
        let mut h = LogHistogram::new();
        h.record(SimDuration::ZERO); // below min bucket
        h.record(SimDuration::from_secs(1_000_000_000)); // above max bucket
        assert_eq!(h.count(), 2);
        assert_eq!(h.quantile(0.0), Some(0.0));
        assert_eq!(h.quantile(1.0), Some(1e9));
    }

    /// The dense reference: all 120 buckets stored from the start, so
    /// recording and merging never widen its span.
    fn zero_filled() -> LogHistogram {
        LogHistogram {
            counts: vec![0; LogHistogram::BUCKETS],
            ..LogHistogram::new()
        }
    }

    #[test]
    fn never_recorded_histogram_equals_a_zero_filled_one() {
        assert!(LogHistogram::new().counts.is_empty(), "allocated lazily");
        assert_eq!(LogHistogram::new(), zero_filled());
        assert_eq!(zero_filled(), LogHistogram::new());
        let mut recorded = LogHistogram::new();
        recorded.record(SimDuration::from_millis(500));
        assert_ne!(recorded, LogHistogram::new());
    }

    #[test]
    fn never_recorded_histogram_debugs_like_a_zero_filled_one() {
        let (lazy, filled) = (LogHistogram::new(), zero_filled());
        assert_eq!(format!("{lazy:?}"), format!("{filled:?}"));
        assert_eq!(format!("{lazy:#?}"), format!("{filled:#?}"));
        // The rendering is the derived one: every bucket, no cached ln.
        let text = format!("{lazy:?}");
        assert!(
            text.starts_with("LogHistogram { buckets: [0, 0, "),
            "{text}"
        );
        assert!(
            text.ends_with("], count: 0, sum_ns: 0, min_seen: inf, max_seen: 0.0 }"),
            "{text}"
        );
    }

    #[test]
    fn never_recorded_histogram_merges_like_a_zero_filled_one() {
        let mut data = LogHistogram::new();
        for ms in [1, 20, 20, 3000] {
            data.record(SimDuration::from_millis(ms));
        }
        for empty in [LogHistogram::new(), zero_filled()] {
            // Empty into data, data into empty: both leave exactly `data`.
            let mut into_data = data.clone();
            into_data.merge(&empty);
            assert_eq!(into_data, data);
            let mut into_empty = empty.clone();
            into_empty.merge(&data);
            assert_eq!(into_empty, data);
            assert_eq!(format!("{into_empty:?}"), format!("{data:?}"));
            assert_eq!(into_empty.quantile(0.5), data.quantile(0.5));
        }
        let mut both_empty = LogHistogram::new();
        both_empty.merge(&LogHistogram::new());
        assert_eq!(both_empty, zero_filled());
        assert_eq!(both_empty.quantile(0.5), zero_filled().quantile(0.5));
    }

    #[test]
    fn cached_ln_growth_leaves_bucket_indices_bit_identical() {
        // The index is still a division by ln(growth); multiplying by a
        // cached reciprocal would move samples that sit on a bucket edge.
        assert_eq!(LogHistogram::LN_GROWTH, LogHistogram::GROWTH.ln());
        let mut rng = crate::rng::DetRng::new(3);
        for i in 0..20_000u32 {
            let span = SimDuration::from_secs_f64(if i % 2 == 0 {
                1e-6 * 1.2f64.powi((i / 2 % 130) as i32) // bucket edges
            } else {
                rng.next_f64() * 10f64.powi(i as i32 % 9 - 6)
            });
            let v = span.as_secs_f64();
            let mut h = LogHistogram::new();
            h.record(span);
            let want = if v <= 1e-6 {
                0
            } else {
                (((v / 1e-6).ln() / 1.2f64.ln()) as usize).min(LogHistogram::BUCKETS - 1)
            };
            assert_eq!(h.counts[want - h.offset], 1, "value {v} left bucket {want}");
        }
    }

    /// A span in seconds: a few clamped into bucket 0 (at most 1 µs,
    /// zero included) or bucket 119 (beyond ~1000 s), the rest spread
    /// log-uniformly between.
    fn any_span(g: &mut crate::check::Gen) -> SimDuration {
        match g.usize_in(0, 20) {
            0 => SimDuration::from_nanos(g.u64_in(0, 1_000)),
            1 => SimDuration::from_secs_f64(g.f64_in(1_100.0, 1e7)),
            _ => SimDuration::from_secs_f64(10f64.powf(g.f64_in(-6.0, 3.0))),
        }
    }

    fn assert_same(sparse: &LogHistogram, dense: &LogHistogram) {
        assert_eq!(format!("{sparse:?}"), format!("{dense:?}"));
        assert_eq!(format!("{sparse:#?}"), format!("{dense:#?}"));
        assert_eq!(sparse, dense);
        assert_eq!(dense, sparse);
        assert_eq!(sparse.count(), dense.count());
        assert_eq!(sparse.mean(), dense.mean());
        for q in [0.0, 0.01, 0.5, 0.99, 1.0] {
            assert_eq!(sparse.quantile(q), dense.quantile(q), "q = {q}");
        }
    }

    #[test]
    fn stored_span_is_invisible_against_the_dense_reference() {
        crate::check::cases(256, 0x5A_A5, |g| {
            // Around a first bucket anywhere, so later samples widen the
            // span downwards as well as upwards.
            let streams: [Vec<SimDuration>; 2] =
                std::array::from_fn(|_| g.vec_with(0, 300, any_span));
            let filled = |spans: &[SimDuration], mut h: LogHistogram| {
                spans.iter().for_each(|&span| h.record(span));
                h
            };
            let [a, b] = streams.each_ref().map(|s| filled(s, LogHistogram::new()));
            let whole: Vec<SimDuration> = streams.concat();
            let dense = filled(&whole, zero_filled());
            assert_same(&filled(&whole, LogHistogram::new()), &dense);
            for (first, second) in [(&a, &b), (&b, &a)] {
                let mut merged = first.clone();
                merged.merge(second);
                assert_same(&merged, &dense);
                let mut into_dense = filled(&[], zero_filled());
                into_dense.merge(first);
                into_dense.merge(second);
                assert_same(&into_dense, &dense);
            }
            let mut from_dense = LogHistogram::new();
            from_dense.merge(&dense);
            assert_same(&from_dense, &dense);
        });
    }

    #[test]
    fn samples_in_k_adjacent_buckets_keep_room_for_at_most_2k() {
        // Three a bucket, from 1 µs to beyond the last bucket, each with
        // the bucket a one-sample histogram puts it in.
        let samples: Vec<(usize, SimDuration)> = (0..3 * 125)
            .map(|i| {
                let span = SimDuration::from_secs_f64(1e-6 * 1.2f64.powf(f64::from(i) / 3.0));
                let mut h = LogHistogram::new();
                h.record(span);
                (h.offset, span)
            })
            .collect();
        for first in [0, 37, 60, 119] {
            for k in 1..=LogHistogram::BUCKETS - first {
                let mid = first + k / 2;
                // Ascending, descending and from the middle outwards.
                let up: Vec<(usize, SimDuration)> = samples
                    .iter()
                    .copied()
                    .filter(|(b, _)| (first..first + k).contains(b))
                    .collect();
                let down: Vec<_> = up.iter().rev().copied().collect();
                let mut outwards = up.clone();
                outwards.sort_by_key(|&(b, span)| (b.abs_diff(mid), span));
                for order in [up, down, outwards] {
                    let mut h = LogHistogram::new();
                    order.iter().for_each(|&(_, span)| h.record(span));
                    let stored = h.counts.len();
                    assert!(stored <= k, "{stored} buckets stored for samples in {k}");
                    assert!(
                        h.counts.capacity() <= 2 * stored,
                        "room for {} buckets, {stored} in use",
                        h.counts.capacity()
                    );
                }
            }
        }
    }

    #[test]
    fn a_histogram_stays_64_bytes() {
        assert_eq!(std::mem::size_of::<LogHistogram>(), 64);
    }
}
