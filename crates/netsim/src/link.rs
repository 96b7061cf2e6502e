//! Directed links with a serialization rate, propagation delay, and a
//! bounded tail-drop FIFO queue.
//!
//! A link does not hold packets: the FIFO discipline makes every
//! departure time computable at enqueue — `dep = max(now, previous
//! departure) + tx_time` — so [`Link::offer`] returns the departure time
//! immediately and the packet rides inside its delivery event. The link
//! only remembers the pending departure *train* (`(time, size)` pairs),
//! which [`Link::sync`] drains lazily: counters and the occupancy
//! integral are updated with the original departure timestamps, in
//! order, so statistics are identical to an eager per-departure
//! implementation no matter when `sync` runs (DESIGN.md §10).
//!
//! The queue occupancy (waiting packets plus the packet in service) is
//! integrated continuously with a [`TimeWeightedMean`], which is how a
//! Corelite core router obtains `q_avg` for incipient congestion detection.

// A panic a million events into a run must name the invariant it broke.
#![deny(clippy::unwrap_used)]

use std::collections::VecDeque;

use sim_core::stats::TimeWeightedMean;
use sim_core::time::{SimDuration, SimTime};

use crate::ids::NodeId;

/// Static parameters of a link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkSpec {
    /// Serialization rate in bits per second (the paper's links are 4 Mbps).
    pub bandwidth_bps: u64,
    /// Propagation delay.
    pub delay: SimDuration,
    /// Queue capacity in packets, counting the packet in service (the paper
    /// uses 40).
    pub queue_capacity: usize,
}

impl LinkSpec {
    /// Creates a spec from bandwidth (bits/s), propagation delay, and queue
    /// capacity in packets.
    ///
    /// # Panics
    ///
    /// Panics if `bandwidth_bps` is zero or `queue_capacity` is zero.
    pub fn new(bandwidth_bps: u64, delay: SimDuration, queue_capacity: usize) -> Self {
        assert!(bandwidth_bps > 0, "link bandwidth must be positive");
        assert!(queue_capacity > 0, "link queue capacity must be positive");
        LinkSpec {
            bandwidth_bps,
            delay,
            queue_capacity,
        }
    }

    /// Serialization time for a packet of `size` bytes.
    pub fn tx_time(&self, size: u32) -> SimDuration {
        // nanos = bytes * 8 * 1e9 / bps, computed in u128 to avoid overflow.
        let nanos = (size as u128 * 8 * 1_000_000_000) / self.bandwidth_bps as u128;
        SimDuration::from_nanos(nanos as u64)
    }

    /// Service rate in packets per second for packets of `size` bytes
    /// (the paper's `μ`, with 1 KB packets on 4 Mbps links: 500 pkt/s).
    pub fn service_rate_pps(&self, size: u32) -> f64 {
        self.bandwidth_bps as f64 / (size as f64 * 8.0)
    }
}

/// Runtime state of a directed link.
#[derive(Debug)]
pub struct Link {
    spec: LinkSpec,
    src: NodeId,
    dst: NodeId,
    /// Pending departures as `(departure time, size)` in departure order.
    /// Entries with time ≤ now are *departed but not yet accounted*;
    /// [`Link::sync`] retires them.
    departures: VecDeque<(SimTime, u32)>,
    /// Departure time of the most recently accepted packet; the link is
    /// serializing until then.
    last_departure: SimTime,
    occupancy: TimeWeightedMean,
    forwarded_packets: u64,
    forwarded_bytes: u64,
    dropped_packets: u64,
    peak_occupancy: usize,
    /// One-entry serialization-time cache. `tx_time` costs a 128-bit
    /// division; packet sizes are near-constant in practice, so caching
    /// the last `(size, tx_time)` pair removes it from the per-packet
    /// path while returning bit-identical durations.
    tx_cache: (u32, SimDuration),
}

impl Link {
    /// Creates an idle link from `src` to `dst`.
    pub fn new(src: NodeId, dst: NodeId, spec: LinkSpec) -> Self {
        Link {
            spec,
            src,
            dst,
            // Full capacity up front: a link queue never exceeds its
            // spec'd capacity, so offering never reallocates.
            departures: VecDeque::with_capacity(spec.queue_capacity),
            last_departure: SimTime::ZERO,
            occupancy: TimeWeightedMean::new(SimTime::ZERO, 0.0),
            forwarded_packets: 0,
            forwarded_bytes: 0,
            dropped_packets: 0,
            peak_occupancy: 0,
            // Size 0 never occurs, so the cache starts cold.
            tx_cache: (0, SimDuration::ZERO),
        }
    }

    /// Serialization time for `size` bytes via the one-entry cache.
    fn cached_tx_time(&mut self, size: u32) -> SimDuration {
        if self.tx_cache.0 != size {
            self.tx_cache = (size, self.spec.tx_time(size));
        }
        self.tx_cache.1
    }

    /// The node this link transmits from.
    pub fn src(&self) -> NodeId {
        self.src
    }

    /// The node this link delivers to.
    pub fn dst(&self) -> NodeId {
        self.dst
    }

    /// The link's static parameters.
    pub fn spec(&self) -> &LinkSpec {
        &self.spec
    }

    /// Queue occupancy in packets (waiting + in service) as of `now`:
    /// pending departures strictly after `now`. A packet departing
    /// exactly at `now` has left the queue (departures precede arrivals
    /// at the same instant).
    pub fn queue_len(&self, now: SimTime) -> usize {
        // Departures are time-ordered, so departed entries form a prefix.
        let departed = self
            .departures
            .iter()
            .take_while(|&&(dep, _)| dep <= now)
            .count();
        self.departures.len() - departed
    }

    /// Retires every departure up to and including `now`, updating the
    /// forwarded counters and feeding the occupancy integral with the
    /// original departure timestamps in order. Idempotent; callers may
    /// invoke it as rarely (lazily) or as often (per packet) as they
    /// like without changing any statistic.
    pub fn sync(&mut self, now: SimTime) {
        while let Some(&(dep, size)) = self.departures.front() {
            if dep > now {
                break;
            }
            self.departures.pop_front();
            self.forwarded_packets += 1;
            self.forwarded_bytes += size as u64;
            self.occupancy.set(dep, self.departures.len() as f64);
        }
    }

    /// Offers a packet of `size` bytes to the queue at time `now`.
    ///
    /// Returns the packet's departure time — `max(now, previous
    /// departure) + tx_time`, the FIFO service curve — or `None` when the
    /// occupancy has reached capacity and the packet is tail-dropped
    /// (the caller keeps the packet for drop accounting).
    pub fn offer(&mut self, now: SimTime, size: u32) -> Option<SimTime> {
        self.sync(now);
        if self.departures.len() >= self.spec.queue_capacity {
            self.dropped_packets += 1;
            return None;
        }
        let start = self.last_departure.max(now);
        let dep = start + self.cached_tx_time(size);
        self.departures.push_back((dep, size));
        self.last_departure = dep;
        self.peak_occupancy = self.peak_occupancy.max(self.departures.len());
        self.occupancy.set(now, self.departures.len() as f64);
        Some(dep)
    }

    /// Closes the queue-average window at `now` and returns the
    /// time-weighted mean occupancy since the previous call (the paper's
    /// `q_avg` over one congestion epoch).
    pub fn take_queue_average(&mut self, now: SimTime) -> f64 {
        self.sync(now);
        self.occupancy.restart(now)
    }

    /// Reads the time-weighted mean occupancy of the current window
    /// without restarting it.
    pub fn queue_average(&mut self, now: SimTime) -> f64 {
        self.sync(now);
        self.occupancy.mean(now)
    }

    /// Total packets fully serialized by this link (as of the last
    /// [`Link::sync`]).
    pub fn forwarded_packets(&self) -> u64 {
        self.forwarded_packets
    }

    /// Total bytes fully serialized by this link (as of the last
    /// [`Link::sync`]).
    pub fn forwarded_bytes(&self) -> u64 {
        self.forwarded_bytes
    }

    /// Total packets tail-dropped at this link.
    pub fn dropped_packets(&self) -> u64 {
        self.dropped_packets
    }

    /// Highest queue occupancy observed.
    pub fn peak_occupancy(&self) -> usize {
        self.peak_occupancy
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mbps4() -> LinkSpec {
        LinkSpec::new(4_000_000, SimDuration::from_millis(40), 40)
    }

    fn ms(n: u64) -> SimTime {
        SimTime::from_millis(n)
    }

    #[test]
    fn tx_time_matches_paper_numbers() {
        // 1 KB packets over 4 Mbps: 8000 bits / 4e6 bps = 2 ms, 500 pkt/s.
        let spec = mbps4();
        assert_eq!(spec.tx_time(1000), SimDuration::from_millis(2));
        assert!((spec.service_rate_pps(1000) - 500.0).abs() < 1e-9);
    }

    #[test]
    fn departures_follow_the_fifo_service_curve() {
        let mut l = Link::new(NodeId(0), NodeId(1), mbps4());
        // Idle link: service starts immediately.
        assert_eq!(l.offer(SimTime::ZERO, 1000), Some(ms(2)));
        // Busy link: the second packet waits for the first.
        assert_eq!(l.offer(SimTime::ZERO, 1000), Some(ms(4)));
        assert_eq!(l.queue_len(SimTime::ZERO), 2);
        // After the queue drains, service is arrival-limited again.
        assert_eq!(l.offer(ms(10), 1000), Some(ms(12)));
    }

    #[test]
    fn sync_retires_departed_packets_in_order() {
        let mut l = Link::new(NodeId(0), NodeId(1), mbps4());
        l.offer(SimTime::ZERO, 1000);
        l.offer(SimTime::ZERO, 1000);
        l.sync(ms(2));
        assert_eq!(l.forwarded_packets(), 1);
        assert_eq!(l.queue_len(ms(2)), 1);
        l.sync(ms(4));
        assert_eq!(l.forwarded_packets(), 2);
        assert_eq!(l.forwarded_bytes(), 2000);
        assert_eq!(l.queue_len(ms(4)), 0);
        // Idempotent.
        l.sync(ms(4));
        assert_eq!(l.forwarded_packets(), 2);
    }

    #[test]
    fn queue_len_is_exact_without_sync() {
        let mut l = Link::new(NodeId(0), NodeId(1), mbps4());
        l.offer(SimTime::ZERO, 1000);
        l.offer(SimTime::ZERO, 1000);
        // No sync calls: queue_len still reflects the service curve.
        assert_eq!(l.queue_len(ms(1)), 2);
        assert_eq!(l.queue_len(ms(2)), 1);
        assert_eq!(l.queue_len(ms(3)), 1);
        assert_eq!(l.queue_len(ms(4)), 0);
        assert_eq!(l.forwarded_packets(), 0, "accounting stays lazy");
    }

    #[test]
    fn departure_precedes_arrival_at_the_same_instant() {
        let spec = LinkSpec::new(4_000_000, SimDuration::ZERO, 1);
        let mut l = Link::new(NodeId(0), NodeId(1), spec);
        assert_eq!(l.offer(SimTime::ZERO, 1000), Some(ms(2)));
        // At exactly t = 2 ms the in-service packet has departed, so a
        // capacity-1 queue accepts the newcomer back-to-back.
        assert_eq!(l.offer(ms(2), 1000), Some(ms(4)));
        assert_eq!(l.dropped_packets(), 0);
    }

    #[test]
    fn tail_drop_at_capacity() {
        let spec = LinkSpec::new(4_000_000, SimDuration::ZERO, 2);
        let mut l = Link::new(NodeId(0), NodeId(1), spec);
        assert!(l.offer(SimTime::ZERO, 1000).is_some());
        assert!(l.offer(SimTime::ZERO, 1000).is_some());
        assert_eq!(l.offer(SimTime::ZERO, 1000), None);
        assert_eq!(l.dropped_packets(), 1);
        assert_eq!(l.queue_len(SimTime::ZERO), 2);
    }

    #[test]
    fn queue_average_integrates_occupancy() {
        let mut l = Link::new(NodeId(0), NodeId(1), mbps4());
        // Occupancy 1 during [0, 2ms) then 0 during [2ms, 4ms).
        l.offer(SimTime::ZERO, 1000);
        let avg = l.take_queue_average(ms(4));
        assert!((avg - 0.5).abs() < 1e-9, "avg {avg}");
        // New window starts empty.
        let avg2 = l.take_queue_average(ms(8));
        assert_eq!(avg2, 0.0);
    }

    #[test]
    fn queue_average_is_lazy_sync_invariant() {
        // Two links fed identically, one synced eagerly at every
        // departure, one only at the end: identical statistics.
        let mut eager = Link::new(NodeId(0), NodeId(1), mbps4());
        let mut lazy = Link::new(NodeId(0), NodeId(1), mbps4());
        for t in [0u64, 0, 1, 5, 5, 5, 9, 14] {
            eager.offer(ms(t), 1000);
            lazy.offer(ms(t), 1000);
            eager.sync(ms(t));
        }
        assert_eq!(
            eager.take_queue_average(ms(20)),
            lazy.take_queue_average(ms(20))
        );
        assert_eq!(eager.forwarded_packets(), lazy.forwarded_packets());
        assert_eq!(eager.forwarded_bytes(), lazy.forwarded_bytes());
    }

    #[test]
    fn peak_occupancy_tracks_high_water_mark() {
        let mut l = Link::new(NodeId(0), NodeId(1), mbps4());
        for _ in 0..5 {
            l.offer(SimTime::ZERO, 1000);
        }
        l.sync(ms(2));
        assert_eq!(l.peak_occupancy(), 5);
    }

    #[test]
    #[should_panic(expected = "bandwidth")]
    fn zero_bandwidth_rejected() {
        LinkSpec::new(0, SimDuration::ZERO, 1);
    }
}
