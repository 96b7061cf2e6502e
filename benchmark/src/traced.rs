//! The tracer: a [`Discipline`] wrapper whose router logics time every
//! callback of the logic they wrap.
//!
//! Kind = the discipline's registered name plus the node's role
//! (`corelite.edge`, `csfq.core`, …; `.gbn` for the ingress of an
//! ack-clocked flow), so a new discipline is covered with no change here.
//! Each [`TracedLogic`] accumulates in plain fields and merges them into
//! the shared [`TraceSink`] when the network drops it, which also works
//! inside the sharded engine's worker threads.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use netsim::logic::LogicReport;
use netsim::{ControlMsg, Ctx, FlowId, Packet, RouterLogic, TimerKind, Transport};
use scenarios::{Discipline, ScenarioFlow};
use sim_core::time::SimTime;

use crate::clock;

/// The callback groups the report distinguishes.
pub const CALLBACKS: [&str; 4] = ["on_packet", "on_timer", "on_control", "lifecycle"];
const PACKET: usize = 0;
const TIMER: usize = 1;
const CONTROL: usize = 2;
const LIFECYCLE: usize = 3;

/// log2 buckets: bucket `i` counts calls of `[2^i, 2^(i+1))` ns; the last
/// one takes everything from about half a second up.
pub const BUCKETS: usize = 30;

/// Count, total time and duration histogram of one callback group.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CallStats {
    pub calls: u64,
    /// Sum of measured intervals, clock gap included (see `clock.rs`).
    pub total_ns: u64,
    pub hist: [u64; BUCKETS],
}

impl CallStats {
    #[inline]
    fn record(&mut self, ns: u64) {
        self.calls += 1;
        self.total_ns += ns;
        let bucket = (63 - (ns | 1).leading_zeros()) as usize;
        self.hist[bucket.min(BUCKETS - 1)] += 1;
    }

    fn merge(&mut self, other: &CallStats) {
        self.calls += other.calls;
        self.total_ns += other.total_ns;
        for (a, b) in self.hist.iter_mut().zip(&other.hist) {
            *a += b;
        }
    }
}

/// Everything recorded for one kind, indexed like [`CALLBACKS`].
pub type KindStats = [CallStats; 4];

/// Where dropped logics leave their numbers, keyed by kind.
pub type TraceSink = Arc<Mutex<BTreeMap<String, KindStats>>>;

/// Wraps `inner` so that every core and ingress logic it builds is traced
/// into `sink`. Egress logics are handed out bare: the network delivers at
/// the egress without calling them.
pub struct TracedDiscipline<'a> {
    pub inner: &'a dyn Discipline,
    pub sink: TraceSink,
}

impl TracedDiscipline<'_> {
    fn wrap(&self, role: &str, logic: Box<dyn RouterLogic>) -> Box<dyn RouterLogic> {
        Box::new(TracedLogic {
            inner: logic,
            kind: format!("{}.{role}", self.inner.name()),
            stats: KindStats::default(),
            sink: Arc::clone(&self.sink),
        })
    }
}

impl Discipline for TracedDiscipline<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn core_logic(&self, seed: u64) -> Box<dyn RouterLogic> {
        self.wrap("core", self.inner.core_logic(seed))
    }

    fn edge_logic(&self, seed: u64, flow: &ScenarioFlow) -> Box<dyn RouterLogic> {
        let role = match flow.transport {
            Transport::Limd => "edge",
            Transport::Gbn | Transport::Reno => "gbn",
        };
        self.wrap(role, self.inner.edge_logic(seed, flow))
    }

    fn egress_logic(&self, seed: u64) -> Box<dyn RouterLogic> {
        self.inner.egress_logic(seed)
    }

    fn reference_weight(&self, flow: &ScenarioFlow) -> f64 {
        self.inner.reference_weight(flow)
    }

    fn offered_rate(&self, flow: &ScenarioFlow) -> Option<f64> {
        self.inner.offered_rate(flow)
    }
}

/// Times each callback of `inner`; changes nothing the simulation sees.
struct TracedLogic {
    inner: Box<dyn RouterLogic>,
    kind: String,
    stats: KindStats,
    sink: TraceSink,
}

impl RouterLogic for TracedLogic {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let t = clock::start();
        self.inner.on_start(ctx);
        self.stats[LIFECYCLE].record(t.elapsed_ns());
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, packet: Packet) {
        let t = clock::start();
        self.inner.on_packet(ctx, packet);
        self.stats[PACKET].record(t.elapsed_ns());
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, timer: TimerKind) {
        let t = clock::start();
        self.inner.on_timer(ctx, timer);
        self.stats[TIMER].record(t.elapsed_ns());
    }

    fn on_control(&mut self, ctx: &mut Ctx<'_>, msg: ControlMsg) {
        let t = clock::start();
        self.inner.on_control(ctx, msg);
        self.stats[CONTROL].record(t.elapsed_ns());
    }

    fn on_flow_start(&mut self, ctx: &mut Ctx<'_>, flow: FlowId) {
        let t = clock::start();
        self.inner.on_flow_start(ctx, flow);
        self.stats[LIFECYCLE].record(t.elapsed_ns());
    }

    fn on_flow_stop(&mut self, ctx: &mut Ctx<'_>, flow: FlowId) {
        let t = clock::start();
        self.inner.on_flow_stop(ctx, flow);
        self.stats[LIFECYCLE].record(t.elapsed_ns());
    }

    fn report(&self, now: SimTime) -> LogicReport {
        self.inner.report(now)
    }
}

impl Drop for TracedLogic {
    fn drop(&mut self) {
        // A poisoned sink means another logic's thread panicked; the
        // numbers merged so far are still whole, so keep merging.
        let mut sink = self.sink.lock().unwrap_or_else(|e| e.into_inner());
        let entry = sink.entry(std::mem::take(&mut self.kind)).or_default();
        for (into, from) in entry.iter_mut().zip(&self.stats) {
            into.merge(from);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_log2_and_saturate() {
        let mut s = CallStats::default();
        for ns in [0, 1, 2, 3, 1024, 1 << 40] {
            s.record(ns);
        }
        assert_eq!(s.calls, 6);
        assert_eq!(s.hist[0], 2, "0 and 1 ns share the first bucket");
        assert_eq!(s.hist[1], 2);
        assert_eq!(s.hist[10], 1);
        assert_eq!(s.hist[BUCKETS - 1], 1);
    }
}
