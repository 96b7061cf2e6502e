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

/// A flow slot's drops by cause. Every shard keeps one per slot: a drop
/// happens wherever the queue or fault is, on any node of the path.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct FlowDrops {
    tail: u64,
    policy: u64,
    fault: u64,
}

impl FlowDrops {
    pub(crate) fn record(&mut self, reason: DropReason) {
        match reason {
            DropReason::Tail => self.tail += 1,
            DropReason::Policy => self.policy += 1,
            DropReason::Fault => self.fault += 1,
        }
    }

    /// The report of flow `id` from a shard that delivers none of its
    /// packets: its drops, and nothing else.
    pub(crate) fn report_alone(self, id: FlowId, weight: u32) -> FlowReport {
        FlowReport {
            id,
            weight,
            goodput: TimeSeries::new(),
            cumulative: TimeSeries::new(),
            delivered_packets: 0,
            delivered_bytes: 0,
            duplicate_packets: 0,
            duplicate_bytes: 0,
            tail_drops: self.tail,
            policy_drops: self.policy,
            fault_drops: self.fault,
            mean_delay_secs: 0.0,
            delay: LogHistogram::new(),
        }
    }
}

/// The delivery record of a flow: what its egress sees arrive. It exists
/// only where the flow's egress runs (see [`DeliveryRecords`]).
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

    /// Closes the series at `end` and yields the report of flow `id`,
    /// whose drops this shard counted as `drops`.
    pub(crate) fn finish(
        mut self,
        end: SimTime,
        id: FlowId,
        weight: u32,
        drops: FlowDrops,
    ) -> FlowReport {
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
            goodput: self.goodput.finish(end),
            cumulative: self.cumulative,
            delivered_packets: self.delivered_packets,
            delivered_bytes: self.delivered_bytes,
            duplicate_packets: self.duplicate_packets,
            duplicate_bytes: self.duplicate_bytes,
            mean_delay_secs: self.delay.mean().unwrap_or(0.0),
            delay: self.delay,
            ..drops.report_alone(id, weight)
        }
    }
}

/// Records per chunk of a [`DeliveryRecords`] table.
const RECORDS_PER_CHUNK: usize = 64;

/// Flow slot → delivery record, for the slots whose current occupant is
/// delivered by a node this network runs: every slot on the serial
/// engine, the slots whose egress a shard owns on a sharded run. A slot
/// without a record costs its four index bytes. A record a recycled slot
/// gives up keeps its room for the next slot that needs one.
///
/// Records sit in chunks of up to [`RECORDS_PER_CHUNK`], so the table
/// holds at most a chunk more room than records: a vector that doubled
/// would hold up to twice as much, and a shard that delivers half the
/// flows would keep nearly the serial table. The first chunk starts at
/// the static flows' count, and a chunk doubles up to its bound.
pub(crate) struct DeliveryRecords {
    /// `slot[i]` is one more than the position of slot `i`'s record in
    /// `chunks`, or 0.
    slot: Vec<u32>,
    /// Record `p` is `chunks[p / RECORDS_PER_CHUNK][p % RECORDS_PER_CHUNK]`;
    /// every chunk but the last is full.
    chunks: Vec<Vec<Option<FlowMonitor>>>,
    /// Positions in `chunks` that no slot uses.
    free: Vec<u32>,
}

impl DeliveryRecords {
    pub(crate) fn with_capacity(slots: usize) -> Self {
        DeliveryRecords {
            slot: Vec::with_capacity(slots),
            chunks: (slots > 0)
                .then(|| Vec::with_capacity(slots.min(RECORDS_PER_CHUNK)))
                .into_iter()
                .collect(),
            free: Vec::new(),
        }
    }

    #[inline]
    fn at(&mut self, p: usize) -> &mut Option<FlowMonitor> {
        &mut self.chunks[p / RECORDS_PER_CHUNK][p % RECORDS_PER_CHUNK]
    }

    /// Stores `record` in a free position, or in a new one at the end.
    fn place(&mut self, record: FlowMonitor) -> usize {
        if let Some(p) = self.free.pop() {
            *self.at(p as usize) = Some(record);
            return p as usize;
        }
        if self
            .chunks
            .last()
            .is_none_or(|chunk| chunk.len() == RECORDS_PER_CHUNK)
        {
            self.chunks.push(Vec::new());
        }
        let full = (self.chunks.len() - 1) * RECORDS_PER_CHUNK;
        let last = self.chunks.last_mut().expect("a chunk with room");
        if last.len() == last.capacity() {
            let len = last.len();
            last.reserve_exact(len.max(4).min(RECORDS_PER_CHUNK - len));
        }
        last.push(Some(record));
        full + last.len() - 1
    }

    #[inline]
    fn position(&self, slot: usize) -> Option<usize> {
        (*self.slot.get(slot)? as usize).checked_sub(1)
    }

    /// Gives `slot` the record `record` (a fresh one for a new occupant),
    /// or with `None` takes its record away.
    pub(crate) fn set(&mut self, slot: usize, record: Option<FlowMonitor>) {
        if slot >= self.slot.len() {
            self.slot.resize(slot + 1, 0);
        }
        match (self.position(slot), record) {
            (Some(p), Some(record)) => *self.at(p) = Some(record),
            (Some(p), None) => {
                *self.at(p) = None;
                self.free.push(p as u32);
                self.slot[slot] = 0;
            }
            (None, Some(record)) => {
                let p = self.place(record);
                self.slot[slot] = u32::try_from(p + 1).expect("fewer than 2^32 records");
            }
            (None, None) => {}
        }
    }

    pub(crate) fn get(&self, slot: usize) -> Option<&FlowMonitor> {
        let p = self.position(slot)?;
        self.chunks[p / RECORDS_PER_CHUNK][p % RECORDS_PER_CHUNK].as_ref()
    }

    pub(crate) fn get_mut(&mut self, slot: usize) -> Option<&mut FlowMonitor> {
        let p = self.position(slot)?;
        self.at(p).as_mut()
    }

    /// Moves `slot`'s record out, for its report.
    pub(crate) fn take(&mut self, slot: usize) -> Option<FlowMonitor> {
        let p = self.position(slot)?;
        self.at(p).take()
    }
}

/// Whether `report` came from a delivery record: a record's cumulative
/// series always ends with a point at the horizon, and a report of drops
/// alone has none.
pub(crate) fn has_delivery_record(report: &FlowReport) -> bool {
    !report.cumulative.is_empty()
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
        m.finish(end, FlowId::from_index(0), 1, FlowDrops::default())
    }

    #[test]
    fn monitor_accumulates_deliveries_and_drops() {
        let mut m = FlowMonitor::new(t(0.0), SimDuration::from_secs(1));
        m.record_delivery(t(0.2), 1000, SimDuration::from_millis(120));
        m.record_delivery(t(0.7), 1000, SimDuration::from_millis(80));
        let mut drops = FlowDrops::default();
        drops.record(DropReason::Tail);
        drops.record(DropReason::Policy);
        drops.record(DropReason::Policy);
        let r = m.finish(t(2.0), FlowId::from_index(0), 1, drops);
        assert!(has_delivery_record(&r));
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
    /// window the goodput meter already holds is not stored twice, and
    /// the drop counts live beside the record, on every shard.
    #[test]
    fn a_flow_monitor_stays_within_192_bytes() {
        assert!(std::mem::size_of::<FlowMonitor>() <= 192);
        // A freed record's room costs no more than the record.
        assert_eq!(
            std::mem::size_of::<Option<FlowMonitor>>(),
            std::mem::size_of::<FlowMonitor>()
        );
    }

    #[test]
    fn a_report_of_drops_alone_is_told_from_a_record() {
        let mut drops = FlowDrops::default();
        drops.record(DropReason::Fault);
        let r = drops.report_alone(FlowId::from_index(3), 2);
        assert_eq!((r.fault_drops, r.total_drops()), (1, 1));
        assert!(!has_delivery_record(&r));
        // A record that delivered nothing still closes its series.
        let m = FlowMonitor::new(t(0.0), SimDuration::from_secs(1));
        assert!(has_delivery_record(&finish(m, t(0.5))));
    }

    #[test]
    fn a_released_record_is_reused_by_the_next_slot_that_needs_one() {
        let fresh = || Some(FlowMonitor::new(t(0.0), SimDuration::from_secs(1)));
        let mut records = DeliveryRecords::with_capacity(4);
        records.set(0, fresh());
        records.set(2, fresh());
        records.set(1, None);
        assert!(records.get(0).is_some() && records.get(2).is_some());
        assert!(records.get(1).is_none() && records.get(7).is_none());
        records.set(0, None);
        assert!(records.get(0).is_none());
        // Slot 5 takes the room slot 0 gave up; nothing grows.
        records.set(5, fresh());
        assert_eq!((records.chunks.len(), records.chunks[0].len()), (1, 2));
        assert!(records.free.is_empty());
        // A chunk fills before the next one opens.
        for slot in 6..6 + RECORDS_PER_CHUNK {
            records.set(slot, fresh());
        }
        let lens: Vec<usize> = records.chunks.iter().map(Vec::len).collect();
        assert_eq!(lens, [RECORDS_PER_CHUNK, 2]);
        let room: Vec<usize> = records.chunks.iter().map(Vec::capacity).collect();
        assert_eq!(room, [RECORDS_PER_CHUNK, 4]);
        assert!(records.get(6 + RECORDS_PER_CHUNK - 1).is_some());
        records
            .get_mut(5)
            .expect("slot 5 has a record")
            .record_delivery(t(0.1), 1000, SimDuration::from_millis(5));
        let delivered = records.take(5).and_then(|m| m.deliveries());
        assert_eq!(delivered.map(|(_, _, packets)| packets), Some(1));
        assert!(records.take(5).is_none());
    }

    #[test]
    fn monitor_empty_flow_reports_zeroes() {
        let m = FlowMonitor::new(t(0.0), SimDuration::from_secs(1));
        let r = finish(m, t(1.0));
        assert_eq!(r.delivered_packets, 0);
        assert_eq!(r.mean_delay_secs, 0.0);
    }
}
