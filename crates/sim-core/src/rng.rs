//! Seeded deterministic random streams.
//!
//! Every experiment takes a single `u64` seed. Each component (a router's
//! marker selector, a traffic source, ...) derives its own independent
//! stream with [`DetRng::stream`], keyed by a stable label, so adding a new
//! consumer of randomness never perturbs the draws seen by existing
//! components.
//!
//! The generator is a self-contained xoshiro256++ (public domain, Blackman
//! & Vigna), seeded through SplitMix64 — no external crates, so the
//! simulator builds in hermetic environments and the draw sequences are
//! pinned by this file alone.

/// A deterministic random number generator stream.
///
/// Wraps a xoshiro256++ generator; identical `(seed, label)` pairs always
/// produce identical draw sequences.
///
/// # Example
///
/// ```
/// use sim_core::rng::DetRng;
///
/// let mut a = DetRng::stream(42, "router-1");
/// let mut b = DetRng::stream(42, "router-1");
/// assert_eq!(a.next_u64(), b.next_u64());
/// let mut c = DetRng::stream(42, "router-2");
/// assert_ne!(DetRng::stream(42, "router-1").next_u64(), c.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct DetRng {
    state: [u64; 4],
}

/// SplitMix64 step: a strong 64-bit mixing function used to whiten derived
/// seeds.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a hash of a label, for stable stream derivation.
fn fnv1a(label: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in label.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

impl DetRng {
    /// Creates the root stream for `seed`.
    pub fn new(seed: u64) -> Self {
        Self::from_mixed(splitmix64(seed))
    }

    /// Derives the independent stream identified by `label` under `seed`.
    pub fn stream(seed: u64, label: &str) -> Self {
        Self::from_mixed(splitmix64(seed ^ splitmix64(fnv1a(label))))
    }

    /// Derives an independent sub-stream labelled by `label` and `index`
    /// (e.g. one stream per flow).
    pub fn substream(seed: u64, label: &str, index: u64) -> Self {
        Self::from_mixed(splitmix64(
            seed ^ splitmix64(fnv1a(label)) ^ splitmix64(index.wrapping_add(1)),
        ))
    }

    /// Expands a whitened 64-bit seed into the full 256-bit xoshiro state
    /// by iterating SplitMix64, the seeding procedure recommended by the
    /// generator's authors. The state is never all-zero because SplitMix64
    /// is a bijection composed with distinct constants.
    fn from_mixed(mixed: u64) -> Self {
        let mut s = mixed;
        let mut state = [0u64; 4];
        for slot in &mut state {
            s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            *slot = z ^ (z >> 31);
        }
        DetRng { state }
    }

    /// Advances the generator and returns the next 64 random bits
    /// (xoshiro256++ step).
    pub fn next_u64(&mut self) -> u64 {
        let [s0, s1, s2, s3] = self.state;
        let result = s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0);
        let t = s1 << 17;
        let mut s2 = s2 ^ s0;
        let mut s3 = s3 ^ s1;
        let s1 = s1 ^ s2;
        let s0 = s0 ^ s3;
        s2 ^= t;
        s3 = s3.rotate_left(45);
        self.state = [s0, s1, s2, s3];
        result
    }

    /// Draws a uniform value in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn bernoulli(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.next_f64() < p
        }
    }

    /// Draws a uniform integer in `[0, n)` via Lemire's unbiased
    /// multiply-shift rejection method.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "DetRng::index requires a non-empty range");
        let n = n as u64;
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(n as u128);
            let low = m as u64;
            if low >= n {
                return (m >> 64) as usize;
            }
            // Rejection zone: only reached when low < n; recompute the
            // threshold lazily since it is almost never needed.
            let threshold = n.wrapping_neg() % n;
            if low >= threshold {
                return (m >> 64) as usize;
            }
        }
    }

    /// Draws an exponentially distributed value with the given `rate`
    /// (mean `1/rate`). Used for Poisson traffic in sensitivity ablations.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not strictly positive.
    pub fn exp(&mut self, rate: f64) -> f64 {
        assert!(rate > 0.0, "exponential rate must be positive, got {rate}");
        let u = 1.0 - self.next_f64(); // in (0, 1]
        -u.ln() / rate
    }

    /// Draws a uniform value in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi, "invalid range [{lo}, {hi})");
        lo + (hi - lo) * self.next_f64()
    }

    /// Draws a Pareto-distributed value with minimum `scale` and tail
    /// index `shape` (inverse-CDF: `scale * u^(-1/shape)`). Heavy-tailed
    /// "web-like" flow sizes in the churn generator use this; the mean is
    /// `scale * shape / (shape - 1)` for `shape > 1` (infinite below).
    ///
    /// # Panics
    ///
    /// Panics unless `scale` and `shape` are strictly positive.
    pub fn pareto(&mut self, scale: f64, shape: f64) -> f64 {
        assert!(scale > 0.0, "pareto scale must be positive, got {scale}");
        assert!(shape > 0.0, "pareto shape must be positive, got {shape}");
        let u = 1.0 - self.next_f64(); // in (0, 1]
        scale * u.powf(-1.0 / shape)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::stream(7, "x");
        let mut b = DetRng::stream(7, "x");
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_labels_diverge() {
        let a = DetRng::stream(7, "x").next_u64();
        let b = DetRng::stream(7, "y").next_u64();
        assert_ne!(a, b);
    }

    #[test]
    fn different_indices_diverge() {
        let a = DetRng::substream(7, "flow", 0).next_u64();
        let b = DetRng::substream(7, "flow", 1).next_u64();
        assert_ne!(a, b);
    }

    #[test]
    fn bernoulli_edges() {
        let mut r = DetRng::new(1);
        assert!(!r.bernoulli(0.0));
        assert!(r.bernoulli(1.0));
        assert!(!r.bernoulli(-0.5));
        assert!(r.bernoulli(1.5));
    }

    #[test]
    fn bernoulli_mean_close_to_p() {
        let mut r = DetRng::new(99);
        let n = 20_000;
        let hits = (0..n).filter(|_| r.bernoulli(0.3)).count();
        let mean = hits as f64 / n as f64;
        assert!((mean - 0.3).abs() < 0.02, "mean {mean} too far from 0.3");
    }

    #[test]
    fn exp_mean_close_to_inverse_rate() {
        let mut r = DetRng::new(5);
        let n = 20_000;
        let sum: f64 = (0..n).map(|_| r.exp(4.0)).sum();
        let mean = sum / n as f64;
        assert!((mean - 0.25).abs() < 0.02, "mean {mean} too far from 0.25");
    }

    #[test]
    fn index_stays_in_bounds() {
        let mut r = DetRng::new(3);
        for _ in 0..1000 {
            assert!(r.index(7) < 7);
        }
    }

    #[test]
    fn index_is_unbiased_enough() {
        let mut r = DetRng::new(11);
        let mut counts = [0u32; 5];
        let n = 50_000;
        for _ in 0..n {
            counts[r.index(5)] += 1;
        }
        let expect = n as f64 / 5.0;
        for (i, &c) in counts.iter().enumerate() {
            let dev = (c as f64 - expect).abs() / expect;
            assert!(dev < 0.05, "bucket {i}: count {c}, expected ≈{expect}");
        }
    }

    #[test]
    fn pareto_respects_scale_and_mean() {
        let mut r = DetRng::new(8);
        let n = 50_000;
        let scale = 2.0;
        let shape = 2.5;
        let mut sum = 0.0;
        for _ in 0..n {
            let x = r.pareto(scale, shape);
            assert!(x >= scale, "pareto draws never fall below the scale: {x}");
            sum += x;
        }
        let mean = sum / n as f64;
        let expect = scale * shape / (shape - 1.0);
        assert!(
            (mean - expect).abs() / expect < 0.05,
            "mean {mean}, expected ≈{expect}"
        );
    }

    #[test]
    #[should_panic(expected = "shape")]
    fn pareto_zero_shape_panics() {
        DetRng::new(0).pareto(1.0, 0.0);
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut r = DetRng::new(17);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn index_zero_panics() {
        DetRng::new(0).index(0);
    }
}
