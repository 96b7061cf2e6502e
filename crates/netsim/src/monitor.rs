//! Built-in measurement: per-flow service and drops, per-link statistics.
//!
//! The monitors regenerate exactly the quantities the paper plots:
//! instantaneous ("alloted") rates come from the router logic's
//! [`crate::logic::LogicReport`]; delivered goodput and cumulative
//! service (Figure 4) come from the per-flow monitors behind
//! [`FlowReport`].

use sim_core::stats::{LogHistogram, TimeSeries, WindowedRate};
use sim_core::time::{SimDuration, SimTime};

use crate::churn::ChurnReport;
use crate::ids::{FlowId, LinkId, NodeId};
use crate::logic::{DropReason, LogicReport};
use crate::slab::DenseMap;

/// Per-flow measurement state, updated by the network on deliveries and
/// drops.
#[derive(Debug)]
pub(crate) struct FlowMonitor {
    /// Its windows are the cumulative series' too: both roll at every
    /// delivery and at the end, so one window and start serve the two.
    goodput: WindowedRate,
    cumulative: TimeSeries,
    delivered_packets: u64,
    delivered_bytes: u64,
    duplicate_packets: u64,
    duplicate_bytes: u64,
    tail_drops: u64,
    policy_drops: u64,
    fault_drops: u64,
    delay: LogHistogram,
    /// First and last delivery instants, once a packet has arrived.
    delivery_span: Option<(SimTime, SimTime)>,
}

impl FlowMonitor {
    pub(crate) fn new(start: SimTime, window: SimDuration) -> Self {
        FlowMonitor {
            goodput: WindowedRate::new(start, window),
            cumulative: TimeSeries::new(),
            delivered_packets: 0,
            delivered_bytes: 0,
            duplicate_packets: 0,
            duplicate_bytes: 0,
            tail_drops: 0,
            policy_drops: 0,
            fault_drops: 0,
            delay: LogHistogram::new(),
            delivery_span: None,
        }
    }

    pub(crate) fn record_delivery(&mut self, now: SimTime, bytes: u32, delay: SimDuration) {
        self.roll_cumulative(now);
        self.goodput.record(now, 1.0);
        self.delivered_packets += 1;
        self.delivered_bytes += bytes as u64;
        self.delay.record(delay);
        let first = self.delivery_span.map_or(now, |(first, _)| first);
        self.delivery_span = Some((first, now));
    }

    /// Accounts a packet that reached the egress but is *not* new
    /// in-order data: a go-back-N redelivery (sequence already
    /// acknowledged) or an out-of-order arrival the GBN sink discards.
    /// Deliberately touches none of the goodput/cumulative/delay state —
    /// redelivered windows must not double-count toward goodput.
    pub(crate) fn record_duplicate(&mut self, bytes: u32) {
        self.duplicate_packets += 1;
        self.duplicate_bytes += bytes as u64;
    }

    /// What the flow delivered so far — first and last delivery instants
    /// (churn settling and FCT) and the packet count — or `None` if
    /// nothing arrived. Read at churn retirement, before the monitor is
    /// replaced by the slot's next occupant.
    pub(crate) fn deliveries(&self) -> Option<(SimTime, SimTime, u64)> {
        self.delivery_span
            .map(|(first, last)| (first, last, self.delivered_packets))
    }

    pub(crate) fn record_drop(&mut self, reason: DropReason) {
        match reason {
            DropReason::Tail => self.tail_drops += 1,
            DropReason::Policy => self.policy_drops += 1,
            DropReason::Fault => self.fault_drops += 1,
        }
    }

    /// Emits cumulative-service points for every measurement window that
    /// has fully elapsed before `now`; the goodput meter, rolled next,
    /// closes the same windows.
    fn roll_cumulative(&mut self, now: SimTime) {
        let window = self.goodput.window();
        let mut end = self.goodput.window_start() + window;
        while now >= end {
            self.cumulative.push(end, self.delivered_packets as f64);
            end += window;
        }
    }

    /// Closes the series at `end` and yields the report of flow `id`.
    pub(crate) fn finish(mut self, end: SimTime, id: FlowId, weight: u32) -> FlowReport {
        self.roll_cumulative(end);
        // When `end` lands exactly on a window boundary, `roll_cumulative`
        // has already emitted the point at `end`; pushing again would
        // duplicate the final sample (TimeSeries accepts equal timestamps)
        // and double-weight the last bucket in resampling consumers.
        // (`WindowedRate::finish` has no analogous hazard: `roll_to` only
        // closes fully elapsed windows and drops the final partial one.)
        if self.cumulative.iter().last().map(|(t, _)| t) != Some(end) {
            self.cumulative.push(end, self.delivered_packets as f64);
        }
        FlowReport {
            id,
            weight,
            goodput: self.goodput.finish(end),
            cumulative: self.cumulative,
            delivered_packets: self.delivered_packets,
            delivered_bytes: self.delivered_bytes,
            duplicate_packets: self.duplicate_packets,
            duplicate_bytes: self.duplicate_bytes,
            tail_drops: self.tail_drops,
            policy_drops: self.policy_drops,
            fault_drops: self.fault_drops,
            mean_delay_secs: self.delay.mean().unwrap_or(0.0),
            delay: self.delay,
        }
    }
}

/// End-of-run measurements for one flow.
#[derive(Debug, Clone)]
pub struct FlowReport {
    /// The flow.
    pub id: FlowId,
    /// Its rate weight `w(f)`.
    pub weight: u32,
    /// Delivered goodput per measurement window, packets per second.
    pub goodput: TimeSeries,
    /// Cumulative delivered packets, sampled per measurement window
    /// (Figure 4's "number of packets successfully sent").
    pub cumulative: TimeSeries,
    /// Packets delivered to the egress.
    pub delivered_packets: u64,
    /// Bytes delivered to the egress.
    pub delivered_bytes: u64,
    /// Packets that reached the egress already-acknowledged or out of
    /// order (go-back-N redeliveries); excluded from goodput.
    pub duplicate_packets: u64,
    /// Bytes of such packets.
    pub duplicate_bytes: u64,
    /// Packets lost to full queues.
    pub tail_drops: u64,
    /// Packets dropped by router logic.
    pub policy_drops: u64,
    /// Packets lost to injected faults (flapped links).
    pub fault_drops: u64,
    /// Mean end-to-end delay of delivered packets, seconds.
    pub mean_delay_secs: f64,
    /// Distribution of end-to-end delays of delivered packets, seconds.
    pub delay: LogHistogram,
}

impl FlowReport {
    /// All drops regardless of cause.
    pub fn total_drops(&self) -> u64 {
        self.tail_drops + self.policy_drops + self.fault_drops
    }

    /// The `q`-quantile of the end-to-end delay in seconds, or `None` if
    /// no packet was delivered.
    pub fn delay_quantile(&self, q: f64) -> Option<f64> {
        self.delay.quantile(q)
    }

    /// Mean goodput over `[from, to)`, packets per second.
    pub fn mean_goodput_in(&self, from: SimTime, to: SimTime) -> Option<f64> {
        self.goodput.mean_in(from, to)
    }
}

/// End-of-run measurements for one link.
#[derive(Debug, Clone)]
pub struct LinkReport {
    /// The link.
    pub id: LinkId,
    /// Transmitting node.
    pub src: NodeId,
    /// Receiving node.
    pub dst: NodeId,
    /// Packets fully serialized.
    pub forwarded_packets: u64,
    /// Bytes fully serialized.
    pub forwarded_bytes: u64,
    /// Packets tail-dropped at this link's queue.
    pub dropped_packets: u64,
    /// Highest queue occupancy observed, packets.
    pub peak_occupancy: usize,
    /// Mean utilization of the link over the run, in `[0, 1]`.
    pub utilization: f64,
}

/// The complete result of a simulation run.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Simulated end time.
    pub end: SimTime,
    /// Per-flow measurements, indexed by flow id.
    pub flows: Vec<FlowReport>,
    /// Per-link measurements, indexed by link id.
    pub links: Vec<LinkReport>,
    /// Logic-exported measurements per node (allotted-rate series live
    /// here, under the node hosting the flow's ingress edge logic).
    pub logic: DenseMap<NodeId, LogicReport>,
    /// Total events processed.
    pub events_processed: u64,
    /// Loss notifications, among those events, that a node sent itself
    /// with no delay while its logic
    /// [ignores them](crate::logic::Ctx::ignore_loss_notifications): keyed,
    /// counted and traced, but never queued. A serial run pops
    /// `events_processed − Σ forwarded_packets − elided_notifications`
    /// events.
    pub elided_notifications: u64,
    /// Churn-process measurements, when a churn generator was installed
    /// (flow slots then cover static flows plus the churn peak).
    pub churn: Option<ChurnReport>,
}

impl SimReport {
    /// Looks up a flow's report.
    ///
    /// # Panics
    ///
    /// Panics if `flow` does not exist.
    pub fn flow(&self, flow: FlowId) -> &FlowReport {
        &self.flows[flow.index()]
    }

    /// Returns the allotted-rate series recorded by whichever node's logic
    /// reported one for `flow` (the flow's ingress edge router), if any.
    pub fn allotted_rate(&self, flow: FlowId) -> Option<&TimeSeries> {
        self.logic.values().find_map(|r| r.flow_rates.get(&flow))
    }

    /// Sums a named logic counter across all nodes.
    pub fn counter_total(&self, name: &str) -> f64 {
        self.logic
            .values()
            .filter_map(|r| r.counters.get(name))
            .sum()
    }

    /// Total packets dropped anywhere in the network.
    pub fn total_drops(&self) -> u64 {
        self.flows.iter().map(FlowReport::total_drops).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    fn finish(m: FlowMonitor, end: SimTime) -> FlowReport {
        m.finish(end, FlowId::from_index(0), 1)
    }

    #[test]
    fn monitor_accumulates_deliveries_and_drops() {
        let mut m = FlowMonitor::new(t(0.0), SimDuration::from_secs(1));
        m.record_delivery(t(0.2), 1000, SimDuration::from_millis(120));
        m.record_delivery(t(0.7), 1000, SimDuration::from_millis(80));
        m.record_drop(DropReason::Tail);
        m.record_drop(DropReason::Policy);
        m.record_drop(DropReason::Policy);
        let r = finish(m, t(2.0));
        assert_eq!((r.id, r.weight), (FlowId::from_index(0), 1));
        assert_eq!(r.delivered_packets, 2);
        assert_eq!(r.delivered_bytes, 2000);
        assert_eq!(r.tail_drops, 1);
        assert_eq!(r.policy_drops, 2);
        assert_eq!(r.total_drops(), 3);
        assert!((r.mean_delay_secs - 0.1).abs() < 1e-9);
        assert_eq!(r.delay.count(), 2);
        assert!(r.delay_quantile(1.0).unwrap() >= 0.12 - 1e-9);
        // Window [0,1): 2 pkt/s; window [1,2): 0.
        let g: Vec<f64> = r.goodput.iter().map(|(_, v)| v).collect();
        assert_eq!(g, vec![2.0, 0.0]);
        // Cumulative sampled at window ends plus the final instant.
        let c: Vec<(SimTime, f64)> = r.cumulative.iter().collect();
        assert_eq!(c.last(), Some(&(t(2.0), 2.0)));
    }

    #[test]
    fn finish_on_window_boundary_does_not_duplicate_sample() {
        let mut m = FlowMonitor::new(t(0.0), SimDuration::from_secs(1));
        m.record_delivery(t(0.2), 1000, SimDuration::from_millis(10));
        m.record_delivery(t(1.4), 1000, SimDuration::from_millis(10));
        // `end` falls exactly on a window edge: the rolled point at 2.0
        // must not be followed by a second sample at the same instant.
        let c: Vec<(SimTime, f64)> = finish(m, t(2.0)).cumulative.iter().collect();
        assert_eq!(c, vec![(t(1.0), 1.0), (t(2.0), 2.0)]);
    }

    #[test]
    fn finish_off_boundary_still_emits_final_sample() {
        let mut m = FlowMonitor::new(t(0.0), SimDuration::from_secs(1));
        m.record_delivery(t(0.2), 1000, SimDuration::from_millis(10));
        let c: Vec<(SimTime, f64)> = finish(m, t(1.5)).cumulative.iter().collect();
        assert_eq!(c, vec![(t(1.0), 1.0), (t(1.5), 1.0)]);
    }

    /// 240 B × 4,096 slots was one block at `k16_churn`'s peak; the
    /// window the goodput meter already holds is not stored twice.
    #[test]
    fn a_flow_monitor_stays_within_232_bytes() {
        assert!(std::mem::size_of::<FlowMonitor>() <= 232);
    }

    #[test]
    fn monitor_empty_flow_reports_zeroes() {
        let m = FlowMonitor::new(t(0.0), SimDuration::from_secs(1));
        let r = finish(m, t(1.0));
        assert_eq!(r.delivered_packets, 0);
        assert_eq!(r.mean_delay_secs, 0.0);
    }
}
