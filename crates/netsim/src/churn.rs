//! Dynamic flow churn: Poisson arrivals, heavy-tailed flow sizes, and
//! recycled flow-table slots.
//!
//! A [`ChurnSpec`] describes an open-loop arrival process layered on top
//! of a built topology: flows arrive as a Poisson process, pick a route
//! template and a weight, draw a Pareto ("web-like") size, live for
//! `size / nominal_rate` seconds, and depart. Each arrival reuses a
//! retired flow-table slot when one is free — identified by a bumped
//! [`FlowId`](crate::ids::FlowId) generation — so resident per-flow state
//! is bounded by the *peak concurrent* flow count, not by the total
//! number of flows ever created.
//!
//! The process is driven entirely by seeded [`DetRng`] streams and the
//! deterministic event queue, so churn runs are byte-identical across
//! repeat invocations and queue backends like every other experiment.

use sim_core::rng::DetRng;
use sim_core::stats::{mean_secs, LogHistogram, TimeSeries};
use sim_core::time::{SimDuration, SimTime, NANOS_PER_SEC};

use crate::flow::Route;
use crate::ids::NodeId;

/// Declarative description of a churn process, installed with
/// [`TopologyBuilder::churn`](crate::topology::TopologyBuilder::churn).
#[derive(Debug, Clone)]
pub struct ChurnSpec {
    pub(crate) routes: Vec<Vec<NodeId>>,
    pub(crate) weights: Vec<u32>,
    pub(crate) arrival_rate: f64,
    pub(crate) mean_size_pkts: f64,
    pub(crate) pareto_shape: f64,
    pub(crate) nominal_rate_pps: f64,
    pub(crate) start: SimTime,
    pub(crate) stop: SimTime,
    pub(crate) linger: SimDuration,
    pub(crate) max_arrivals: Option<u64>,
    pub(crate) cohorts: usize,
}

impl ChurnSpec {
    /// Creates a churn process: `arrival_rate` flows per second, each
    /// drawing a Pareto size with the given mean (in
    /// [`PACKET_SIZE`](crate::packet::PACKET_SIZE) packets) and sending
    /// at `nominal_rate_pps` while alive. Add at least one route with
    /// [`route`](ChurnSpec::route) and set the arrival window with
    /// [`window`](ChurnSpec::window) before building.
    ///
    /// # Panics
    ///
    /// Panics if any argument is not strictly positive and finite.
    pub fn new(arrival_rate: f64, mean_size_pkts: f64, nominal_rate_pps: f64) -> Self {
        for (name, v) in [
            ("arrival rate", arrival_rate),
            ("mean size", mean_size_pkts),
            ("nominal rate", nominal_rate_pps),
        ] {
            assert!(
                v.is_finite() && v > 0.0,
                "churn {name} must be positive and finite, got {v}"
            );
        }
        ChurnSpec {
            routes: Vec::new(),
            weights: vec![1],
            arrival_rate,
            mean_size_pkts,
            pareto_shape: 1.8,
            nominal_rate_pps,
            start: SimTime::ZERO,
            stop: SimTime::ZERO,
            linger: SimDuration::from_secs(1),
            max_arrivals: None,
            cohorts: 8,
        }
    }

    /// Adds a route template (builder-style). Each arrival picks one
    /// uniformly at random.
    ///
    /// # Panics
    ///
    /// Panics if `path` has fewer than two nodes.
    pub fn route(mut self, path: Vec<NodeId>) -> Self {
        assert!(path.len() >= 2, "a churn route needs at least two nodes");
        self.routes.push(path);
        self
    }

    /// Sets the weight classes arrivals draw from uniformly (builder-style;
    /// default: every flow has weight 1).
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or contains a zero.
    pub fn weights(mut self, weights: Vec<u32>) -> Self {
        assert!(!weights.is_empty(), "churn weight list must be non-empty");
        assert!(
            weights.iter().all(|&w| w > 0),
            "rate weights must be positive"
        );
        self.weights = weights;
        self
    }

    /// Sets the Pareto tail index for flow sizes (builder-style; default
    /// 1.8 — heavy-tailed with a finite mean).
    ///
    /// # Panics
    ///
    /// Panics unless `shape > 1` (the mean would be infinite otherwise).
    pub fn pareto_shape(mut self, shape: f64) -> Self {
        assert!(
            shape.is_finite() && shape > 1.0,
            "pareto shape must exceed 1 for a finite mean, got {shape}"
        );
        self.pareto_shape = shape;
        self
    }

    /// Sets the arrival window (builder-style): arrivals occur in
    /// `[start, stop)`; flows arriving near `stop` still run to their
    /// natural end.
    ///
    /// # Panics
    ///
    /// Panics unless `stop > start`.
    pub fn window(mut self, start: SimTime, stop: SimTime) -> Self {
        assert!(stop > start, "churn window stop must come after start");
        self.start = start;
        self.stop = stop;
        self
    }

    /// Sets the drain delay between a flow's stop and the recycling of
    /// its table slot (builder-style; default 1 s). The linger must cover
    /// the network's residual in-flight time so a retired slot never
    /// receives packets from its previous occupant.
    pub fn linger(mut self, linger: SimDuration) -> Self {
        self.linger = linger;
        self
    }

    /// Caps the total number of arrivals (builder-style; default
    /// unlimited within the window).
    pub fn max_arrivals(mut self, n: u64) -> Self {
        self.max_arrivals = Some(n);
        self
    }

    pub(crate) fn validate(&self) {
        assert!(
            !self.routes.is_empty(),
            "a churn process needs at least one route"
        );
        assert!(
            self.stop > self.start,
            "churn window is empty; call ChurnSpec::window"
        );
    }
}

/// Per-arrival-cohort aggregates: flows are bucketed by arrival time into
/// a fixed number of equal-width cohorts over the arrival window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CohortStats {
    /// Flows that arrived in this cohort.
    pub arrivals: u64,
    /// Flows retired with at least one delivered packet.
    pub completed: u64,
    /// Sum of flow completion times over completed flows, nanoseconds:
    /// exact, so per-shard cohorts add up to the serial run's.
    pub fct_sum_ns: u128,
    /// Sum of settling times (arrival to first delivery) over completed
    /// flows, nanoseconds.
    pub settling_sum_ns: u128,
    /// Packets delivered across the cohort's flows.
    pub delivered_packets: u64,
}

impl CohortStats {
    /// Mean flow completion time in seconds, or `None` if no flow in the
    /// cohort completed.
    pub fn mean_fct(&self) -> Option<f64> {
        mean_secs(self.fct_sum_ns, self.completed)
    }

    /// Mean settling time (arrival to first delivered packet) in seconds.
    pub fn mean_settling(&self) -> Option<f64> {
        mean_secs(self.settling_sum_ns, self.completed)
    }
}

/// End-of-run churn measurements, attached to
/// [`SimReport::churn`](crate::monitor::SimReport::churn).
#[derive(Debug, Clone)]
pub struct ChurnReport {
    /// Flows created by the arrival process.
    pub arrivals: u64,
    /// Flows whose table slot was drained and recycled.
    pub retired: u64,
    /// Retired flows that delivered at least one packet.
    pub completed: u64,
    /// Highest concurrent active-flow count observed.
    pub peak_active: u64,
    /// Highest number of flow-table slots ever resident — the memory
    /// footprint bound; stays O(peak active), not O(total arrivals).
    pub peak_slots: usize,
    /// Events referencing a recycled slot's previous occupant that the
    /// engine discarded (stale packets, control messages, flow events).
    pub stale_events: u64,
    /// Flow completion times (arrival to last delivered packet), seconds.
    pub fct: LogHistogram,
    /// Settling times (arrival to first delivered packet), seconds.
    pub settling: LogHistogram,
    /// Concurrent active-flow count, sampled at measurement-window
    /// boundaries (bounded regardless of arrival count).
    pub active_series: TimeSeries,
    /// Per-arrival-cohort aggregates.
    pub cohorts: Vec<CohortStats>,
}

impl ChurnReport {
    /// Mean flow completion time over all completed flows, seconds.
    pub fn mean_fct(&self) -> Option<f64> {
        self.fct.mean()
    }

    /// The `q`-quantile of flow completion time, seconds.
    pub fn fct_quantile(&self, q: f64) -> Option<f64> {
        self.fct.quantile(q)
    }
}

impl ChurnReport {
    /// Adds the completions another shard of the same run accounted.
    /// Each completed flow is accounted by exactly one shard, the owner
    /// of its egress, and every statistic involved is a count, an exact
    /// nanosecond sum or an extreme, so the total does not depend on how
    /// the flows were dealt. Everything else in the report is replicated
    /// bookkeeping, identical on every shard.
    pub(crate) fn add_completions(&mut self, other: &ChurnReport) {
        self.completed += other.completed;
        self.fct.merge(&other.fct);
        self.settling.merge(&other.settling);
        for (mine, theirs) in self.cohorts.iter_mut().zip(&other.cohorts) {
            mine.completed += theirs.completed;
            mine.fct_sum_ns += theirs.fct_sum_ns;
            mine.settling_sum_ns += theirs.settling_sum_ns;
            mine.delivered_packets += theirs.delivered_packets;
        }
    }
}

/// A wrapped generation would hand the slot's 2^32-th occupant the id of
/// its first, and a packet, control message or lifecycle event still in
/// flight from *that* one would pass every `flows[i].id == id` guard.
#[cold]
fn generations_exhausted(slot: usize) -> ! {
    panic!(
        "flow slot {slot} has had 2^32 occupants; one more would reuse generation 0 \
         and let a stale event pass for the new flow's"
    );
}

/// `from` plus `secs` (non-negative), rounded to the nanosecond and
/// saturating at the end of the clock: a draw from a slow rate's tail can
/// lie beyond the `u64` nanosecond clock.
fn after(from: SimTime, secs: f64) -> SimTime {
    if secs * NANOS_PER_SEC as f64 >= u64::MAX as f64 {
        return SimTime::MAX;
    }
    from.checked_add(SimDuration::from_secs_f64(secs))
        .unwrap_or(SimTime::MAX)
}

/// One planned arrival, returned by [`ChurnState::plan_arrival`]; the
/// network turns it into a resident flow.
pub(crate) struct ArrivalPlan {
    /// Absolute flow-table slot index.
    pub(crate) slot: usize,
    /// Generation for the slot (0 for a fresh slot).
    pub(crate) generation: u32,
    /// Whether the slot extends the flow table (vs. recycling).
    pub(crate) fresh: bool,
    /// Index into the resolved route templates.
    pub(crate) route: usize,
    pub(crate) weight: u32,
    /// The flow's scheduled stop time.
    pub(crate) stop: SimTime,
    /// When to fire the next `ChurnArrival`, if any.
    pub(crate) next_arrival: Option<SimTime>,
}

/// Runtime state of the churn process, owned by the network.
pub(crate) struct ChurnState {
    spec: ChurnSpec,
    /// The route templates, resolved against the built topology; every
    /// arrival shares its template's route.
    routes: Vec<Route>,
    gaps: DetRng,
    sizes: DetRng,
    picks: DetRng,
    /// LIFO free list of churn slots (relative to `base_slots`).
    free: Vec<u32>,
    /// Per-churn-slot generation counters; never shrinks, O(peak slots).
    gens: Vec<u32>,
    /// Per-churn-slot arrival instants of the current occupant.
    arrived_at: Vec<SimTime>,
    /// Whether the current occupant's stop has been delivered (a paused
    /// ingress can defer a stop past the slot's retirement).
    stopped: Vec<bool>,
    /// Slots owned by statically configured flows; churn slots follow.
    base_slots: usize,
    active: u64,
    arrivals: u64,
    retired: u64,
    completed: u64,
    peak_active: u64,
    fct: LogHistogram,
    settling: LogHistogram,
    active_series: TimeSeries,
    last_sample: SimTime,
    window: SimDuration,
    cohorts: Vec<CohortStats>,
}

impl ChurnState {
    pub(crate) fn new(
        spec: ChurnSpec,
        routes: Vec<Route>,
        seed: u64,
        window: SimDuration,
        base_slots: usize,
    ) -> Self {
        spec.validate();
        debug_assert_eq!(spec.routes.len(), routes.len());
        let cohorts = vec![CohortStats::default(); spec.cohorts];
        ChurnState {
            gaps: DetRng::stream(seed, "churn-gaps"),
            sizes: DetRng::stream(seed, "churn-sizes"),
            picks: DetRng::stream(seed, "churn-picks"),
            routes,
            free: Vec::new(),
            gens: Vec::new(),
            arrived_at: Vec::new(),
            stopped: Vec::new(),
            base_slots,
            active: 0,
            arrivals: 0,
            retired: 0,
            completed: 0,
            peak_active: 0,
            fct: LogHistogram::new(),
            settling: LogHistogram::new(),
            active_series: TimeSeries::new(),
            last_sample: SimTime::ZERO,
            window,
            cohorts,
            spec,
        }
    }

    pub(crate) fn linger(&self) -> SimDuration {
        self.spec.linger
    }

    pub(crate) fn route(&self, i: usize) -> &Route {
        &self.routes[i]
    }

    /// Whether `slot` currently belongs to the churn process.
    fn rel(&self, slot: usize) -> usize {
        debug_assert!(slot >= self.base_slots, "static slot in churn path");
        slot - self.base_slots
    }

    /// The first `ChurnArrival` instant, or `None` for a degenerate spec.
    pub(crate) fn first_arrival(&mut self) -> Option<SimTime> {
        if self.spec.max_arrivals == Some(0) {
            return None;
        }
        let gap = self.gaps.exp(self.spec.arrival_rate);
        let t = after(self.spec.start, gap);
        (t < self.spec.stop).then_some(t)
    }

    /// Draws one arrival: route, weight, size, slot, and the next
    /// arrival instant. Called when a `ChurnArrival` event fires at `now`.
    pub(crate) fn plan_arrival(&mut self, now: SimTime) -> ArrivalPlan {
        // Fixed draw order (route, weight, size, next gap) pins the
        // stream consumption pattern regardless of downstream decisions.
        let route = self.picks.index(self.routes.len());
        let weight = self.spec.weights[self.picks.index(self.spec.weights.len())];
        let shape = self.spec.pareto_shape;
        let scale = self.spec.mean_size_pkts * (shape - 1.0) / shape;
        let size_pkts = self.sizes.pareto(scale, shape).max(1.0);
        // A lifetime past the clock saturates: such a flow simply outlives
        // the run (and so does its retirement, `stop + linger`).
        let lifetime = (size_pkts / self.spec.nominal_rate_pps).max(1e-6);
        let stop = after(now, lifetime);

        let (slot, generation, fresh) = match self.free.pop() {
            Some(rel) => {
                let rel = rel as usize;
                self.gens[rel] = match self.gens[rel].checked_add(1) {
                    Some(next) => next,
                    None => generations_exhausted(self.base_slots + rel),
                };
                self.arrived_at[rel] = now;
                self.stopped[rel] = false;
                (self.base_slots + rel, self.gens[rel], false)
            }
            None => {
                let rel = self.gens.len();
                self.gens.push(0);
                self.arrived_at.push(now);
                self.stopped.push(false);
                (self.base_slots + rel, 0, true)
            }
        };

        self.arrivals += 1;
        self.roll_series(now);
        self.active += 1;
        self.peak_active = self.peak_active.max(self.active);
        let arrived = self.arrivals;
        self.cohort_mut(now).arrivals += 1;

        let next_arrival = if self.spec.max_arrivals.is_some_and(|m| arrived >= m) {
            None
        } else {
            let gap = self.gaps.exp(self.spec.arrival_rate);
            let t = after(now, gap);
            (t < self.spec.stop).then_some(t)
        };

        ArrivalPlan {
            slot,
            generation,
            fresh,
            route,
            weight,
            stop,
            next_arrival,
        }
    }

    /// Notes that the current occupant of `slot` received its stop.
    pub(crate) fn note_stop(&mut self, now: SimTime, slot: usize) {
        let rel = self.rel(slot);
        if !self.stopped[rel] {
            self.stopped[rel] = true;
            self.roll_series(now);
            self.active -= 1;
        }
    }

    /// Retires `slot`'s occupant: records its completion metrics and
    /// returns the slot to the free list. `delivered` is the first and
    /// last delivery instants and the packet count; a shard whose monitor
    /// saw no delivery for the flow passes `None` and accounts nothing,
    /// so across shards each completion is counted once.
    pub(crate) fn retire(
        &mut self,
        now: SimTime,
        slot: usize,
        delivered: Option<(SimTime, SimTime, u64)>,
    ) {
        let rel = self.rel(slot);
        // A paused ingress can hold the stop past the linger; account the
        // departure here so the active count never leaks.
        if !self.stopped[rel] {
            self.stopped[rel] = true;
            self.roll_series(now);
            self.active -= 1;
        }
        let arrival = self.arrived_at[rel];
        self.retired += 1;
        if let Some((first, last, packets)) = delivered {
            let fct = last.saturating_since(arrival);
            let settling = first.saturating_since(arrival);
            self.completed += 1;
            self.fct.record(fct);
            self.settling.record(settling);
            let cohort = self.cohort_mut(arrival);
            cohort.completed += 1;
            cohort.fct_sum_ns += u128::from(fct.as_nanos());
            cohort.settling_sum_ns += u128::from(settling.as_nanos());
            cohort.delivered_packets += packets;
        }
        self.free.push(rel as u32);
    }

    fn cohort_mut(&mut self, arrival: SimTime) -> &mut CohortStats {
        let span = self
            .spec
            .stop
            .saturating_since(self.spec.start)
            .as_secs_f64();
        let offset = arrival.saturating_since(self.spec.start).as_secs_f64();
        let n = self.cohorts.len();
        let i = if span > 0.0 {
            (((offset / span) * n as f64) as usize).min(n - 1)
        } else {
            0
        };
        &mut self.cohorts[i]
    }

    /// Emits active-count samples for every measurement window fully
    /// elapsed before `now` (the count as of the last churn event, which
    /// is exact between events).
    fn roll_series(&mut self, now: SimTime) {
        while now >= self.last_sample + self.window {
            let end = self.last_sample + self.window;
            self.active_series.push(end, self.active as f64);
            self.last_sample = end;
        }
    }

    pub(crate) fn finish(mut self, end: SimTime, stale_events: u64) -> ChurnReport {
        self.roll_series(end);
        ChurnReport {
            arrivals: self.arrivals,
            retired: self.retired,
            completed: self.completed,
            peak_active: self.peak_active,
            peak_slots: self.gens.len(),
            stale_events,
            fct: self.fct,
            settling: self.settling,
            active_series: self.active_series,
            cohorts: self.cohorts,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::Hop;
    use crate::ids::LinkId;

    fn n(i: usize) -> NodeId {
        NodeId::from_index(i)
    }

    fn spec() -> ChurnSpec {
        ChurnSpec::new(10.0, 20.0, 100.0)
            .route(vec![n(0), n(1)])
            .window(SimTime::ZERO, SimTime::from_secs(10))
    }

    fn state(spec: ChurnSpec) -> ChurnState {
        let hop = |node, link, ms| Hop {
            node: n(node),
            link,
            reverse_delay: SimDuration::from_millis(ms),
        };
        let routes = vec![[hop(0, Some(LinkId::from_index(0)), 0), hop(1, None, 40)].into()];
        ChurnState::new(spec, routes, 7, SimDuration::from_secs(1), 3)
    }

    #[test]
    fn slots_are_recycled_lifo_with_bumped_generations() {
        let mut s = state(spec());
        let t = SimTime::from_secs(1);
        let a = s.plan_arrival(t);
        let b = s.plan_arrival(t);
        assert_eq!((a.slot, a.generation, a.fresh), (3, 0, true));
        assert_eq!((b.slot, b.generation, b.fresh), (4, 0, true));
        s.note_stop(SimTime::from_secs(2), a.slot);
        s.retire(SimTime::from_secs(3), a.slot, None);
        let c = s.plan_arrival(SimTime::from_secs(4));
        assert_eq!((c.slot, c.generation, c.fresh), (3, 1, false));
    }

    /// Regression: `gens[rel] += 1` wrapped silently in release builds.
    #[test]
    fn a_slot_out_of_generations_panics_naming_the_slot() {
        let mut s = state(spec());
        let a = s.plan_arrival(SimTime::from_secs(1));
        let recycle = |s: &mut ChurnState, at: u64| {
            s.note_stop(SimTime::from_secs(at), a.slot);
            s.retire(SimTime::from_secs(at), a.slot, None);
            s.plan_arrival(SimTime::from_secs(at))
        };
        s.gens[0] = u32::MAX - 1;
        let last = recycle(&mut s, 2);
        assert_eq!((last.slot, last.generation), (a.slot, u32::MAX));
        let wrapped = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            recycle(&mut s, 3).generation
        }));
        let message = *wrapped
            .expect_err("recycling past the last generation must panic")
            .downcast::<String>()
            .expect("a formatted panic message");
        assert!(message.contains("flow slot 3 "), "{message}");
    }

    #[test]
    fn retire_without_stop_still_balances_the_active_count() {
        let mut s = state(spec());
        let a = s.plan_arrival(SimTime::from_secs(1));
        // Stop never delivered (paused ingress): retire must not leak.
        s.retire(SimTime::from_secs(3), a.slot, None);
        let r = s.finish(SimTime::from_secs(10), 0);
        assert_eq!(r.arrivals, 1);
        assert_eq!(r.retired, 1);
        assert_eq!(r.completed, 0);
        assert_eq!(r.peak_active, 1);
        let last = r.active_series.iter().last().expect("series sampled");
        assert_eq!(last.1, 0.0, "active count must return to zero");
    }

    #[test]
    fn completion_metrics_split_settling_from_fct() {
        let mut s = state(spec());
        let a = s.plan_arrival(SimTime::from_secs(1));
        s.note_stop(SimTime::from_secs(2), a.slot);
        let delivered = (SimTime::from_millis(1250), SimTime::from_millis(2500), 42);
        s.retire(SimTime::from_secs(3), a.slot, Some(delivered));
        let r = s.finish(SimTime::from_secs(10), 0);
        assert_eq!(r.completed, 1);
        assert!((r.settling.mean().unwrap() - 0.25).abs() < 1e-6);
        assert!((r.mean_fct().unwrap() - 1.5).abs() < 0.1);
        let delivered: u64 = r.cohorts.iter().map(|c| c.delivered_packets).sum();
        assert_eq!(delivered, 42);
        let completed: u64 = r.cohorts.iter().map(|c| c.completed).sum();
        assert_eq!(completed, 1);
    }

    #[test]
    fn arrival_draws_are_deterministic() {
        let mk = || {
            let mut s = state(spec());
            let mut out = Vec::new();
            let mut t = s.first_arrival().expect("window admits arrivals");
            for _ in 0..20 {
                let p = s.plan_arrival(t);
                out.push((p.slot, p.weight, p.stop));
                match p.next_arrival {
                    Some(next) => t = next,
                    None => break,
                }
            }
            out
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn max_arrivals_caps_the_process() {
        let mut s = state(spec().max_arrivals(2));
        let t = s.first_arrival().expect("first arrival");
        let a = s.plan_arrival(t);
        let b = s.plan_arrival(a.next_arrival.expect("second arrival"));
        assert!(b.next_arrival.is_none(), "cap must end the process");
    }

    #[test]
    #[should_panic(expected = "at least one route")]
    fn route_less_spec_rejected() {
        ChurnSpec::new(1.0, 10.0, 100.0)
            .window(SimTime::ZERO, SimTime::from_secs(1))
            .validate();
    }

    #[test]
    #[should_panic(expected = "window")]
    fn empty_window_rejected() {
        ChurnSpec::new(1.0, 10.0, 100.0)
            .route(vec![n(0), n(1)])
            .validate();
    }
}
