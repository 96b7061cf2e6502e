//! A minimal randomized property-testing harness.
//!
//! A drop-in replacement for the subset of `proptest` this workspace used,
//! built on [`DetRng`] so it needs no external crates
//! and every failure is reproducible from the printed `(seed, case)` pair.
//!
//! ```
//! use sim_core::check;
//!
//! check::cases(32, 0xC0DE, |g| {
//!     let xs = g.vec_with(1, 10, |g| g.f64_in(0.0, 1.0));
//!     assert!(xs.iter().all(|&x| x < 1.0));
//! });
//! ```

use crate::rng::DetRng;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

/// A source of random test inputs for one generated case.
pub struct Gen {
    rng: DetRng,
}

impl Gen {
    /// Draws a uniform `u64` in `[lo, hi)`.
    pub fn u64_in(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "invalid range [{lo}, {hi})");
        lo + self.rng.next_u64() % (hi - lo)
    }

    /// Draws a uniform `usize` in `[lo, hi)`.
    pub fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo < hi, "invalid range [{lo}, {hi})");
        lo + self.rng.index(hi - lo)
    }

    /// Draws a uniform `f64` in `[lo, hi)`.
    pub fn f64_in(&mut self, lo: f64, hi: f64) -> f64 {
        self.rng.range_f64(lo, hi)
    }

    /// Draws a fair boolean.
    pub fn bool(&mut self) -> bool {
        self.rng.bernoulli(0.5)
    }

    /// Generates a vector whose length is uniform in `[min_len, max_len]`,
    /// filling each slot with `item`.
    pub fn vec_with<T>(
        &mut self,
        min_len: usize,
        max_len: usize,
        mut item: impl FnMut(&mut Gen) -> T,
    ) -> Vec<T> {
        let len = self.usize_in(min_len, max_len + 1);
        (0..len).map(|_| item(self)).collect()
    }

    /// Picks a random non-empty subset of `0..n`, returned sorted.
    pub fn subset(&mut self, n: usize) -> Vec<usize> {
        assert!(n > 0, "subset of an empty range");
        let mut picked: Vec<usize> = (0..n).filter(|_| self.bool()).collect();
        if picked.is_empty() {
            picked.push(self.rng.index(n));
        }
        picked
    }
}

/// Runs `body` against `n` generated cases derived from `seed`.
///
/// Each case gets an independent RNG substream, so inserting or removing
/// draws in one case never perturbs the inputs of another. On failure the
/// panic is re-raised after printing which `(seed, case)` reproduces it.
pub fn cases(n: usize, seed: u64, mut body: impl FnMut(&mut Gen)) {
    for case in 0..n {
        let mut g = Gen {
            rng: DetRng::substream(seed, "check-case", case as u64),
        };
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| body(&mut g))) {
            eprintln!("property failed at seed {seed}, case {case}/{n}");
            resume_unwind(payload);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_values_respect_ranges() {
        cases(64, 42, |g| {
            assert!((3..7).contains(&g.usize_in(3, 7)));
            assert!((10..20).contains(&g.u64_in(10, 20)));
            let x = g.f64_in(-1.0, 1.0);
            assert!((-1.0..1.0).contains(&x));
            let v = g.vec_with(2, 5, |g| g.bool());
            assert!((2..=5).contains(&v.len()));
            let s = g.subset(4);
            assert!(!s.is_empty() && s.iter().all(|&i| i < 4));
        });
    }

    #[test]
    fn cases_are_deterministic() {
        let mut a = Vec::new();
        let mut b = Vec::new();
        cases(8, 7, |g| a.push(g.u64_in(0, 1 << 60)));
        cases(8, 7, |g| b.push(g.u64_in(0, 1 << 60)));
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "deliberate")]
    fn failures_propagate() {
        cases(4, 1, |_| panic!("deliberate"));
    }
}
