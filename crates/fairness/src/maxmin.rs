//! Exact weighted max-min fair allocation by water-filling.
//!
//! The algorithm (Bertsekas & Gallager, *Data Networks*): grow every
//! unfrozen flow's rate in proportion to its weight until some link
//! saturates; freeze the flows crossing saturated links at their current
//! rates; subtract their consumption and repeat. Terminates in at most one
//! iteration per link.

use std::fmt;

/// Identifies a link inside a [`MaxMinProblem`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LinkRef(usize);

/// Identifies a flow inside a [`MaxMinProblem`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlowRef(usize);

#[derive(Debug, Clone)]
struct FlowDef {
    weight: f64,
    floor: f64,
    links: Vec<usize>,
}

/// A weighted max-min fair allocation problem.
///
/// # Example
///
/// Two flows of weights 1 and 2 sharing one 30 pkt/s link:
///
/// ```
/// use fairness::maxmin::MaxMinProblem;
///
/// let mut p = MaxMinProblem::new();
/// let l = p.link(30.0);
/// let a = p.flow(1.0, [l]);
/// let b = p.flow(2.0, [l]);
/// let alloc = p.solve();
/// assert!((alloc.rate(a) - 10.0).abs() < 1e-9);
/// assert!((alloc.rate(b) - 20.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Default)]
pub struct MaxMinProblem {
    capacities: Vec<f64>,
    flows: Vec<FlowDef>,
}

/// The result of solving a [`MaxMinProblem`].
#[derive(Debug, Clone, PartialEq)]
pub struct Allocation {
    rates: Vec<f64>,
}

impl MaxMinProblem {
    /// Creates an empty problem.
    pub fn new() -> Self {
        MaxMinProblem::default()
    }

    /// Adds a link with the given capacity (any consistent unit; the
    /// experiments use packets per second).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is not finite and positive.
    pub fn link(&mut self, capacity: f64) -> LinkRef {
        assert!(
            capacity.is_finite() && capacity > 0.0,
            "link capacity must be finite and positive, got {capacity}"
        );
        self.capacities.push(capacity);
        LinkRef(self.capacities.len() - 1)
    }

    /// Adds a flow with rate weight `weight` crossing `links`.
    ///
    /// # Panics
    ///
    /// Panics if `weight` is not finite and positive, if `links` is empty,
    /// or if any link reference is stale.
    pub fn flow(&mut self, weight: f64, links: impl IntoIterator<Item = LinkRef>) -> FlowRef {
        assert!(
            weight.is_finite() && weight > 0.0,
            "flow weight must be finite and positive, got {weight}"
        );
        self.flow_with_floor(weight, 0.0, links)
    }

    /// Adds a flow with rate weight `weight`, a **minimum rate contract**
    /// `floor`, and the links it crosses.
    ///
    /// Contracted capacity is reserved up front (the flow's in-profile
    /// traffic), and the *residual* capacity of every link is then shared
    /// by weighted max-min among all flows' excess traffic:
    /// `rate = floor + excess`. This matches the Corelite edge mechanism,
    /// where markers are injected for out-of-profile traffic only, so a
    /// flow's marker rate reflects its normalized *excess* rate.
    ///
    /// # Panics
    ///
    /// Panics if `weight` is not finite and positive, `floor` is negative
    /// or not finite, `links` is empty, or a link reference is stale.
    /// [`MaxMinProblem::solve`] panics if the floors alone exceed some
    /// link's capacity (admission control is the caller's job).
    pub fn flow_with_floor(
        &mut self,
        weight: f64,
        floor: f64,
        links: impl IntoIterator<Item = LinkRef>,
    ) -> FlowRef {
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
        }
        self.flows.push(FlowDef {
            weight,
            floor,
            links,
        });
        FlowRef(self.flows.len() - 1)
    }

    /// Solves the problem, returning the unique weighted max-min fair rate
    /// vector (honouring minimum rate contracts, if any).
    ///
    /// # Panics
    ///
    /// Panics if the contracts alone exceed some link's capacity — the
    /// problem is then infeasible and admission control should have
    /// rejected a flow.
    pub fn solve(&self) -> Allocation {
        let n = self.flows.len();
        let m = self.capacities.len();

        // Reserve the contracted floors and validate feasibility.
        let mut residual = self.capacities.clone();
        for f in &self.flows {
            for &l in &f.links {
                residual[l] -= f.floor;
            }
        }
        for (r, &cap) in residual.iter_mut().zip(&self.capacities) {
            assert!(
                *r >= -1e-9 * cap,
                "infeasible: minimum-rate contracts exceed the capacity {cap} of a link"
            );
            *r = r.max(0.0);
        }

        // Weighted max-min water-filling of the residual capacity over
        // every flow's excess traffic.
        let mut excess = vec![0.0f64; n];
        let mut frozen = vec![false; n];
        let mut link_weight = vec![0.0f64; m];
        for f in &self.flows {
            for &l in &f.links {
                link_weight[l] += f.weight;
            }
        }
        let mut unfrozen = n;
        while unfrozen > 0 {
            // The next water level: the smallest per-unit-weight share any
            // link can still offer its unfrozen flows.
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
            for (i, f) in self.flows.iter().enumerate() {
                if frozen[i] {
                    continue;
                }
                let inc = level * f.weight;
                excess[i] += inc;
                for &l in &f.links {
                    residual[l] -= inc;
                }
            }
            let mut newly_frozen = 0;
            for (i, f) in self.flows.iter().enumerate() {
                if frozen[i] {
                    continue;
                }
                if f.links
                    .iter()
                    .any(|&l| residual[l] <= 1e-9 * self.capacities[l])
                {
                    frozen[i] = true;
                    newly_frozen += 1;
                    for &l in &f.links {
                        link_weight[l] -= f.weight;
                    }
                }
            }
            assert!(
                newly_frozen > 0,
                "water-filling failed to make progress (numerical issue)"
            );
            unfrozen -= newly_frozen;
        }
        let rates = self
            .flows
            .iter()
            .zip(&excess)
            .map(|(f, &e)| f.floor + e)
            .collect();
        Allocation { rates }
    }
}

impl Allocation {
    /// The rate allocated to `flow`.
    pub fn rate(&self, flow: FlowRef) -> f64 {
        self.rates[flow.0]
    }

    /// All rates, indexed by flow insertion order.
    pub fn rates(&self) -> &[f64] {
        &self.rates
    }
}

impl fmt::Display for Allocation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, r) in self.rates.iter().enumerate() {
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
    fn single_link_splits_by_weight() {
        let mut p = MaxMinProblem::new();
        let l = p.link(60.0);
        let a = p.flow(1.0, [l]);
        let b = p.flow(2.0, [l]);
        let c = p.flow(3.0, [l]);
        let alloc = p.solve();
        assert!((alloc.rate(a) - 10.0).abs() < EPS);
        assert!((alloc.rate(b) - 20.0).abs() < EPS);
        assert!((alloc.rate(c) - 30.0).abs() < EPS);
    }

    #[test]
    fn classic_parking_lot() {
        // One long flow over both links, one short flow per link; equal
        // weights, both links capacity 1 ⇒ everyone gets 1/2.
        let mut p = MaxMinProblem::new();
        let l1 = p.link(1.0);
        let l2 = p.link(1.0);
        let long = p.flow(1.0, [l1, l2]);
        let s1 = p.flow(1.0, [l1]);
        let s2 = p.flow(1.0, [l2]);
        let alloc = p.solve();
        assert!((alloc.rate(long) - 0.5).abs() < EPS);
        assert!((alloc.rate(s1) - 0.5).abs() < EPS);
        assert!((alloc.rate(s2) - 0.5).abs() < EPS);
    }

    #[test]
    fn unequal_bottlenecks_leave_slack_for_others() {
        // Long flow bottlenecked on the tight link; the short flow on the
        // loose link picks up the slack.
        let mut p = MaxMinProblem::new();
        let tight = p.link(1.0);
        let loose = p.link(10.0);
        let long = p.flow(1.0, [tight, loose]);
        let short_tight = p.flow(1.0, [tight]);
        let short_loose = p.flow(1.0, [loose]);
        let alloc = p.solve();
        assert!((alloc.rate(long) - 0.5).abs() < EPS);
        assert!((alloc.rate(short_tight) - 0.5).abs() < EPS);
        assert!((alloc.rate(short_loose) - 9.5).abs() < EPS);
    }

    #[test]
    fn paper_topology_all_flows_active() {
        // DESIGN.md §4: three 500 pkt/s links, total weight 20 on each
        // ⇒ 25 pkt/s per unit weight for every flow.
        let alloc = paper_problem(true).solve();
        let weights = paper_weights();
        for (i, &w) in weights.iter().enumerate() {
            let expect = 25.0 * w;
            assert!(
                (alloc.rates()[i] - expect).abs() < 1e-6,
                "flow {} got {} expected {expect}",
                i + 1,
                alloc.rates()[i]
            );
        }
    }

    #[test]
    fn paper_topology_subset_active() {
        // Without flows 1, 9, 10, 11, 16 the per-unit share is 33.33.
        let alloc = paper_problem(false).solve();
        let weights = paper_weights();
        let inactive = [1, 9, 10, 11, 16];
        let mut j = 0;
        for (i, &w) in weights.iter().enumerate() {
            if inactive.contains(&(i + 1)) {
                continue;
            }
            let expect = w * 500.0 / 15.0;
            assert!(
                (alloc.rates()[j] - expect).abs() < 1e-6,
                "flow {} got {} expected {expect}",
                i + 1,
                alloc.rates()[j]
            );
            j += 1;
        }
    }

    /// Weights of flows 1..=20 from the paper (§4.1).
    fn paper_weights() -> [f64; 20] {
        let mut w = [2.0; 20];
        w[0] = 1.0; // flow 1
        w[10] = 1.0; // flow 11
        w[15] = 1.0; // flow 16
        w[4] = 3.0; // flow 5
        w[14] = 3.0; // flow 15
        w
    }

    /// Builds the Figure-2 problem; when `all` is false, flows 1, 9, 10,
    /// 11, 16 are omitted (the paper's t<250 s / t>500 s regime).
    fn paper_problem(all: bool) -> MaxMinProblem {
        let mut p = MaxMinProblem::new();
        let l1 = p.link(500.0);
        let l2 = p.link(500.0);
        let l3 = p.link(500.0);
        let weights = paper_weights();
        for i in 1..=20usize {
            if !all && [1, 9, 10, 11, 16].contains(&i) {
                continue;
            }
            let links: Vec<_> = match i {
                1..=5 => vec![l1],
                6..=8 => vec![l1, l2],
                9..=10 => vec![l1, l2, l3],
                11..=12 => vec![l2],
                13..=15 => vec![l2, l3],
                16..=20 => vec![l3],
                _ => unreachable!(),
            };
            p.flow(weights[i - 1], links);
        }
        p
    }

    #[test]
    fn contract_reserves_then_shares_surplus() {
        // Weight-1 flow with a 60 pkt/s contract on a 100 pkt/s link
        // shared with a weight-1 best-effort flow: the 40 pkt/s surplus is
        // split 20/20, so the contracted flow ends at 80.
        let mut p = MaxMinProblem::new();
        let l = p.link(100.0);
        let contracted = p.flow_with_floor(1.0, 60.0, [l]);
        let best_effort = p.flow(1.0, [l]);
        let alloc = p.solve();
        assert!((alloc.rate(contracted) - 80.0).abs() < EPS);
        assert!((alloc.rate(best_effort) - 20.0).abs() < EPS);
    }

    #[test]
    fn small_contract_shifts_allocation_by_its_reservation() {
        // floor + share: the 10 pkt/s reservation comes off the top, the
        // 90 pkt/s surplus splits 45/45.
        let mut p = MaxMinProblem::new();
        let l = p.link(100.0);
        let a = p.flow_with_floor(1.0, 10.0, [l]);
        let b = p.flow(1.0, [l]);
        let alloc = p.solve();
        assert!((alloc.rate(a) - 55.0).abs() < EPS);
        assert!((alloc.rate(b) - 45.0).abs() < EPS);
    }

    #[test]
    fn floors_fill_link_exactly() {
        // Contracts consume the whole link: no surplus to share, everyone
        // sits exactly at the contract.
        let mut p = MaxMinProblem::new();
        let l = p.link(100.0);
        let a = p.flow_with_floor(1.0, 70.0, [l]);
        let b = p.flow_with_floor(5.0, 30.0, [l]);
        let alloc = p.solve();
        assert!((alloc.rate(a) - 70.0).abs() < 1e-6);
        assert!((alloc.rate(b) - 30.0).abs() < 1e-6);
    }

    #[test]
    fn floor_on_one_link_frees_capacity_elsewhere() {
        // The contract reserves most of link 1; surplus sharing happens
        // independently per bottleneck.
        let mut p = MaxMinProblem::new();
        let l1 = p.link(100.0);
        let l2 = p.link(100.0);
        let contracted = p.flow_with_floor(1.0, 80.0, [l1]);
        let long = p.flow(1.0, [l1, l2]);
        let local = p.flow(1.0, [l2]);
        let alloc = p.solve();
        // Link 1's 20 pkt/s surplus splits 10/10; the long flow is frozen
        // there, leaving 90 for the local flow on link 2.
        assert!((alloc.rate(contracted) - 90.0).abs() < 1e-6);
        assert!((alloc.rate(long) - 10.0).abs() < 1e-6);
        assert!((alloc.rate(local) - 90.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "infeasible")]
    fn infeasible_contracts_rejected() {
        let mut p = MaxMinProblem::new();
        let l = p.link(100.0);
        p.flow_with_floor(1.0, 70.0, [l]);
        p.flow_with_floor(1.0, 70.0, [l]);
        p.solve();
    }

    #[test]
    #[should_panic(expected = "floor")]
    fn negative_floor_rejected() {
        let mut p = MaxMinProblem::new();
        let l = p.link(1.0);
        p.flow_with_floor(1.0, -0.5, [l]);
    }

    #[test]
    #[should_panic(expected = "at least one link")]
    fn flow_without_links_rejected() {
        let mut p = MaxMinProblem::new();
        p.flow(1.0, []);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn non_positive_capacity_rejected() {
        MaxMinProblem::new().link(0.0);
    }

    #[test]
    fn display_shows_rates() {
        let mut p = MaxMinProblem::new();
        let l = p.link(4.0);
        p.flow(1.0, [l]);
        assert_eq!(p.solve().to_string(), "[4.000]");
    }
}
