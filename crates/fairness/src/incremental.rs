//! Incremental weighted max-min under flow churn.
//!
//! The batch solver in [`crate::maxmin`] rebuilds its link aggregates
//! from scratch on every call — fine for a static scenario, O(total
//! arrivals) per churn event when flows come and go. This module keeps
//! the reference allocation **incrementally**: joins and leaves update
//! per-link aggregate weight and reserved floor in O(links crossed),
//! and solving water-fills only the currently active set.
//!
//! Repeatedly adding and subtracting weights from a plain `f64`
//! accumulator drifts (classic cancellation: after a million
//! join/leave pairs of weight 0.1 the naive residual is far above any
//! fairness tolerance). The per-link aggregates therefore use
//! [`KahanSum`] compensation, which keeps the running sums within one
//! ulp of the exact value for these magnitudes — the property the
//! differential tests pin: the incremental allocation matches a batch
//! solve of the same membership to `1e-9`.

use std::fmt;

use crate::maxmin::{Allocation, MaxMinProblem};

/// A compensated (Kahan) running sum.
///
/// Tracks the low-order bits lost by each addition in a carry term and
/// re-applies them, so long alternating add/subtract sequences do not
/// accumulate cancellation error.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct KahanSum {
    sum: f64,
    carry: f64,
}

impl KahanSum {
    /// A zero sum.
    pub fn new() -> Self {
        KahanSum::default()
    }

    /// Adds `v` (subtract by adding a negative value).
    pub fn add(&mut self, v: f64) {
        let y = v - self.carry;
        let t = self.sum + y;
        self.carry = (t - self.sum) - y;
        self.sum = t;
    }

    /// The compensated running total.
    pub fn value(&self) -> f64 {
        self.sum
    }
}

/// Identifies a link inside an [`IncrementalMaxMin`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LinkSlot(usize);

/// Identifies a joined flow inside an [`IncrementalMaxMin`].
///
/// Slots are recycled after [`leave`](IncrementalMaxMin::leave), mirroring
/// the simulator's generation-counted flow table; a stale slot is a
/// caller bug and panics rather than silently aliasing the new occupant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlowSlot {
    index: usize,
    generation: u32,
}

#[derive(Debug, Clone)]
struct Member {
    generation: u32,
    weight: f64,
    floor: f64,
    links: Vec<usize>,
}

/// An incrementally-maintained weighted max-min reference allocation.
///
/// # Example
///
/// ```
/// use fairness::incremental::IncrementalMaxMin;
///
/// let mut p = IncrementalMaxMin::new();
/// let l = p.link(30.0);
/// let a = p.join(1.0, 0.0, [l]);
/// let b = p.join(2.0, 0.0, [l]);
/// let rates = p.solve();
/// assert!((rates.rate_of(a).unwrap() - 10.0).abs() < 1e-9);
/// p.leave(a);
/// let rates = p.solve();
/// assert!((rates.rate_of(b).unwrap() - 30.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Default)]
pub struct IncrementalMaxMin {
    capacities: Vec<f64>,
    members: Vec<Option<Member>>,
    free: Vec<usize>,
    /// Next generation per slot; bumped on leave so recycled slots hand
    /// out distinguishable [`FlowSlot`]s.
    generations: Vec<u32>,
    /// Compensated aggregate weight of the active flows crossing each
    /// link — the quantity a batch solve recomputes by summation.
    link_weight: Vec<KahanSum>,
    /// Compensated total reserved floor crossing each link.
    link_floor: Vec<KahanSum>,
    active: usize,
}

/// The allocation for the active membership of an [`IncrementalMaxMin`].
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnAllocation {
    /// `(slot, rate)` in ascending slot-index order.
    rates: Vec<(FlowSlot, f64)>,
}

impl IncrementalMaxMin {
    /// Creates an empty instance.
    pub fn new() -> Self {
        IncrementalMaxMin::default()
    }

    /// Adds a link with the given capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is not finite and positive.
    pub fn link(&mut self, capacity: f64) -> LinkSlot {
        assert!(
            capacity.is_finite() && capacity > 0.0,
            "link capacity must be finite and positive, got {capacity}"
        );
        self.capacities.push(capacity);
        self.link_weight.push(KahanSum::new());
        self.link_floor.push(KahanSum::new());
        LinkSlot(self.capacities.len() - 1)
    }

    /// Number of currently active flows.
    pub fn active_count(&self) -> usize {
        self.active
    }

    /// A flow joins: weight `weight`, minimum-rate contract `floor`
    /// (0 for best effort), crossing `links`. O(|links|).
    ///
    /// # Panics
    ///
    /// Panics on a non-finite or non-positive weight, a negative floor,
    /// an empty link set, or a stale link reference.
    pub fn join(
        &mut self,
        weight: f64,
        floor: f64,
        links: impl IntoIterator<Item = LinkSlot>,
    ) -> FlowSlot {
        assert!(
            weight.is_finite() && weight > 0.0,
            "flow weight must be finite and positive, got {weight}"
        );
        assert!(
            floor.is_finite() && floor >= 0.0,
            "flow floor must be finite and non-negative, got {floor}"
        );
        let links: Vec<usize> = links.into_iter().map(|l| l.0).collect();
        assert!(!links.is_empty(), "a flow must cross at least one link");
        for &l in &links {
            assert!(l < self.capacities.len(), "unknown link index {l}");
            self.link_weight[l].add(weight);
            self.link_floor[l].add(floor);
        }
        let index = match self.free.pop() {
            Some(i) => i,
            None => {
                self.members.push(None);
                self.generations.push(0);
                self.members.len() - 1
            }
        };
        let generation = self.generations[index];
        self.members[index] = Some(Member {
            generation,
            weight,
            floor,
            links,
        });
        self.active += 1;
        FlowSlot { index, generation }
    }

    /// The flow in `slot` departs; its slot is recycled. O(|links|).
    ///
    /// # Panics
    ///
    /// Panics if `slot` is stale (already left, or recycled to a newer
    /// occupant).
    pub fn leave(&mut self, slot: FlowSlot) {
        let member = self.members[slot.index]
            .take()
            .filter(|m| m.generation == slot.generation)
            .expect("stale flow slot: the flow already left");
        for &l in &member.links {
            self.link_weight[l].add(-member.weight);
            self.link_floor[l].add(-member.floor);
        }
        self.generations[slot.index] = self.generations[slot.index].wrapping_add(1);
        self.free.push(slot.index);
        self.active -= 1;
    }

    /// Water-fills the residual capacity over the active membership,
    /// starting from the incrementally-maintained link aggregates.
    /// O(active × links) like a batch solve — but independent of how
    /// many flows have ever existed.
    ///
    /// # Panics
    ///
    /// Panics if the floors alone exceed some link's capacity.
    pub fn solve(&self) -> ChurnAllocation {
        let m = self.capacities.len();
        let mut residual = vec![0.0f64; m];
        let mut link_weight = vec![0.0f64; m];
        for l in 0..m {
            let r = self.capacities[l] - self.link_floor[l].value();
            assert!(
                r >= -1e-9 * self.capacities[l],
                "infeasible: minimum-rate contracts exceed the capacity {} of a link",
                self.capacities[l]
            );
            residual[l] = r.max(0.0);
            link_weight[l] = self.link_weight[l].value();
        }
        let active: Vec<(usize, &Member)> = self
            .members
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|member| (i, member)))
            .collect();
        let mut excess = vec![0.0f64; active.len()];
        let mut frozen = vec![false; active.len()];
        let mut unfrozen = active.len();
        while unfrozen > 0 {
            let mut level = f64::INFINITY;
            for l in 0..m {
                if link_weight[l] > 1e-12 {
                    level = level.min(residual[l] / link_weight[l]);
                }
            }
            assert!(
                level.is_finite(),
                "no constraining link for the remaining flows — every flow \
                 must cross at least one capacity-limited link"
            );
            let level = level.max(0.0);
            for (i, (_, member)) in active.iter().enumerate() {
                if frozen[i] {
                    continue;
                }
                let inc = level * member.weight;
                excess[i] += inc;
                for &l in &member.links {
                    residual[l] -= inc;
                }
            }
            let mut newly_frozen = 0;
            for (i, (_, member)) in active.iter().enumerate() {
                if frozen[i] {
                    continue;
                }
                if member
                    .links
                    .iter()
                    .any(|&l| residual[l] <= 1e-9 * self.capacities[l])
                {
                    frozen[i] = true;
                    newly_frozen += 1;
                    for &l in &member.links {
                        link_weight[l] -= member.weight;
                    }
                }
            }
            assert!(
                newly_frozen > 0,
                "water-filling failed to make progress (numerical issue)"
            );
            unfrozen -= newly_frozen;
        }
        let rates = active
            .iter()
            .zip(&excess)
            .map(|(&(index, member), &e)| {
                (
                    FlowSlot {
                        index,
                        generation: member.generation,
                    },
                    member.floor + e,
                )
            })
            .collect();
        ChurnAllocation { rates }
    }

    /// A batch [`MaxMinProblem`] over the current membership — the
    /// oracle the differential tests compare [`solve`] against.
    ///
    /// [`solve`]: IncrementalMaxMin::solve
    pub fn to_batch(&self) -> (MaxMinProblem, Vec<FlowSlot>) {
        let mut p = MaxMinProblem::new();
        let links: Vec<_> = self.capacities.iter().map(|&c| p.link(c)).collect();
        let mut slots = Vec::new();
        for (index, member) in self.members.iter().enumerate() {
            let Some(member) = member else { continue };
            p.flow_with_floor(
                member.weight,
                member.floor,
                member.links.iter().map(|&l| links[l]),
            );
            slots.push(FlowSlot {
                index,
                generation: member.generation,
            });
        }
        (p, slots)
    }
}

impl ChurnAllocation {
    /// The rate allocated to `slot`, or `None` if the flow was not
    /// active when the allocation was solved.
    pub fn rate_of(&self, slot: FlowSlot) -> Option<f64> {
        self.rates.iter().find(|(s, _)| *s == slot).map(|&(_, r)| r)
    }

    /// All `(slot, rate)` pairs in ascending slot-index order.
    pub fn rates(&self) -> &[(FlowSlot, f64)] {
        &self.rates
    }

    /// The largest absolute rate difference against a batch
    /// [`Allocation`] over the same membership in the same slot order.
    pub fn max_abs_diff(&self, batch: &Allocation) -> f64 {
        assert_eq!(self.rates.len(), batch.rates().len());
        self.rates
            .iter()
            .zip(batch.rates())
            .map(|(&(_, a), &b)| (a - b).abs())
            .fold(0.0f64, f64::max)
    }
}

impl fmt::Display for ChurnAllocation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, (_, r)) in self.rates.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{r:.3}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-9;

    #[test]
    fn kahan_beats_naive_accumulation() {
        // 0.1 is not representable; ten million naive additions drift
        // well past any fairness tolerance while the compensated sum
        // stays within one ulp of the exact total.
        let mut kahan = KahanSum::new();
        let mut naive = 0.0f64;
        for _ in 0..10_000_000 {
            kahan.add(0.1);
            naive += 0.1;
        }
        let exact = 1_000_000.0;
        assert!(
            (kahan.value() - exact).abs() < 1e-9,
            "compensated sum off by {:e}",
            kahan.value() - exact
        );
        assert!(
            (naive - exact).abs() > 1e-6,
            "the naive sum is supposed to drift ({naive}); if this ever \
             fails the test no longer demonstrates anything"
        );
    }

    #[test]
    fn kahan_returns_to_zero_after_mixed_magnitude_churn() {
        // Alternating joins and leaves at mixed magnitudes — the pattern
        // the per-link aggregates see under churn. The compensated sum
        // drains back to a zero far below the solver tolerance.
        let mut kahan = KahanSum::new();
        let weights: Vec<f64> = (0..10_000).map(|i| 0.1 + (i % 97) as f64 * 0.3).collect();
        for &w in &weights {
            kahan.add(w);
        }
        for &w in weights.iter().rev() {
            kahan.add(-w);
        }
        assert!(
            kahan.value().abs() < 1e-12,
            "residual {:e} after full drain",
            kahan.value()
        );
    }

    #[test]
    fn joins_and_leaves_match_batch_exactly() {
        let mut p = IncrementalMaxMin::new();
        let l1 = p.link(500.0);
        let l2 = p.link(500.0);
        let a = p.join(1.0, 0.0, [l1]);
        let b = p.join(2.0, 0.0, [l1, l2]);
        let _c = p.join(1.0, 0.0, [l2]);
        let (batch, _) = p.to_batch();
        assert!(p.solve().max_abs_diff(&batch.solve()) < EPS);
        p.leave(a);
        let (batch, _) = p.to_batch();
        assert!(p.solve().max_abs_diff(&batch.solve()) < EPS);
        p.leave(b);
        let (batch, _) = p.to_batch();
        assert!(p.solve().max_abs_diff(&batch.solve()) < EPS);
    }

    #[test]
    fn slots_are_recycled_with_fresh_generations() {
        let mut p = IncrementalMaxMin::new();
        let l = p.link(100.0);
        let a = p.join(1.0, 0.0, [l]);
        p.leave(a);
        let b = p.join(2.0, 0.0, [l]);
        assert_eq!(a.index, b.index, "the freed slot is reused");
        assert_ne!(a, b, "but under a new generation");
        let alloc = p.solve();
        assert_eq!(alloc.rate_of(a), None, "stale slots resolve to nothing");
        assert!((alloc.rate_of(b).unwrap() - 100.0).abs() < EPS);
        assert_eq!(p.active_count(), 1);
    }

    #[test]
    #[should_panic(expected = "stale flow slot")]
    fn double_leave_is_rejected() {
        let mut p = IncrementalMaxMin::new();
        let l = p.link(100.0);
        let a = p.join(1.0, 0.0, [l]);
        p.leave(a);
        p.leave(a);
    }

    #[test]
    fn floors_are_maintained_incrementally() {
        let mut p = IncrementalMaxMin::new();
        let l = p.link(100.0);
        let contracted = p.join(1.0, 60.0, [l]);
        let best_effort = p.join(1.0, 0.0, [l]);
        let alloc = p.solve();
        assert!((alloc.rate_of(contracted).unwrap() - 80.0).abs() < EPS);
        assert!((alloc.rate_of(best_effort).unwrap() - 20.0).abs() < EPS);
        p.leave(contracted);
        let alloc = p.solve();
        assert!((alloc.rate_of(best_effort).unwrap() - 100.0).abs() < EPS);
    }

    #[test]
    fn long_churn_sequence_stays_within_tolerance_of_batch() {
        use sim_core::rng::DetRng;

        // A parking-lot of three links; flows join with awkward
        // (non-representable) weights and leave in deterministic random
        // order. After every event the incrementally-maintained solve
        // must match a from-scratch batch solve to 1e-9 — the acceptance
        // bound for the churn reference.
        let mut rng = DetRng::stream(0xC0FFEE, "incremental-maxmin");
        let mut p = IncrementalMaxMin::new();
        let links = [p.link(500.0), p.link(400.0), p.link(300.0)];
        let mut live: Vec<FlowSlot> = Vec::new();
        for step in 0..400 {
            let join = live.len() < 3 || (live.len() < 40 && rng.next_f64() < 0.55);
            if join {
                let weight = 0.1 + 2.9 * rng.next_f64();
                let floor = if rng.next_f64() < 0.2 {
                    3.0 * rng.next_f64()
                } else {
                    0.0
                };
                let first = rng.index(links.len());
                let span = 1 + rng.index(links.len() - first);
                live.push(p.join(weight, floor, links[first..first + span].iter().copied()));
            } else {
                let victim = rng.index(live.len());
                p.leave(live.swap_remove(victim));
            }
            let (batch, order) = p.to_batch();
            let alloc = p.solve();
            let diff = alloc.max_abs_diff(&batch.solve());
            assert!(
                diff < EPS,
                "step {step}: incremental diverged from batch by {diff:e}"
            );
            assert_eq!(
                order.len(),
                p.active_count(),
                "batch projection covers the active set"
            );
        }
        // Drain completely: the compensated link aggregates return to
        // (exactly representable) zero-neighbourhood.
        for slot in live.drain(..) {
            p.leave(slot);
        }
        assert_eq!(p.active_count(), 0);
        for l in 0..3 {
            assert!(
                p.link_weight[l].value().abs() < EPS,
                "residual link weight {:e} after full drain",
                p.link_weight[l].value()
            );
        }
    }
}
