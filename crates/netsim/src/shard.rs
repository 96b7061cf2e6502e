//! Sharded conservative-parallel execution: one simulation, many cores,
//! byte-identical output.
//!
//! # Partitioning
//!
//! [`Partition::compute`] cuts the topology *at links*: nodes joined by
//! zero-delay links are fused into one group (a cut there would admit
//! same-instant cross-shard causality, destroying any lookahead), groups
//! are ordered by their minimum node index, and contiguous runs of
//! groups are dealt to shards so each holds roughly `nodes / shards`
//! nodes. The partition is a pure function of `(shards, topology)` — no
//! randomness, no iteration-order dependence — pinned by a unit test.
//!
//! # Lookahead and epochs
//!
//! Every cross-shard event travels a cut link, so it fires at least
//! `L = min cut-link propagation delay` after the instant it was pushed.
//! That is the conservative *lookahead promise* of classic null-message
//! PDES: if every shard has executed all events strictly before time
//! `t`, no event it has yet to send can fire before `t + L`. The
//! executor therefore runs barrier-synchronised epochs of width `L`:
//!
//! ```text
//! while t + L < end:  run_before(t + L); exchange mailboxes; t += L
//! loop:               run_until(end); exchange; stop when nothing moved
//! ```
//!
//! [`run_before`](Network::run_before) executes *strictly* before the
//! boundary because events at exactly `t + L` may still arrive from a
//! peer at the next exchange. The drain loop settles events scheduled at
//! or beyond the last boundary; each round every shard processes what it
//! has and exchanges again, until a round moves zero events (the count
//! is agreed through a double-buffered atomic, so every worker leaves
//! the loop on the same round).
//!
//! # Why the output is byte-identical to the serial engine
//!
//! Every event carries a canonical key assigned at *push* time from the
//! pushing site's private counter (see
//! [`KEY_SITE_SHIFT`](crate::network::KEY_SITE_SHIFT)), and both engines
//! pop in `(time, key)` order. Sites are replicated deterministically:
//! a shard runs the *same* pushes for the nodes it owns as the serial
//! engine does, in the same order, so the same logical event gets the
//! same key everywhere and the merged execution is a permutation-free
//! reordering of the serial one. Mailbox delivery order is irrelevant —
//! injected events re-sort by `(time, key)` in the receiving wheel.
//! Float-order hazards (churn completion sums) are sidestepped by
//! logging raw completions and replaying them in canonical order at
//! merge time ([`CompletionRecord`]). Probe and trace streams are
//! captured per shard with `(event time, event key, intra-event seq)`
//! tags and merged by sorting on that key, which *is* the serial
//! emission order.
//!
//! Threading in this module is the sanctioned exception to the
//! `thread-spawn` simlint rule: determinism is proven by the
//! sharded-vs-serial identity suite (`tests/sharded_identity.rs`), not
//! assumed.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};

use sim_core::time::{SimDuration, SimTime};

use crate::churn::CompletionRecord;
use crate::ids::NodeId;
use crate::logic::LogicReport;
use crate::monitor::{FlowReport, LinkReport, SimReport};
use crate::network::{Event, EventCursor, Network, ShardView};
use crate::slab::DenseMap;
use crate::telemetry::{Probe, Sample};
use crate::topology::TopologyBuilder;
use crate::trace::{TraceEvent, Tracer};

/// A deterministic assignment of nodes to shards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// `shard_of_node[n]` is the shard owning node `n`.
    pub shard_of_node: Vec<u32>,
    /// Minimum propagation delay over cut links — the conservative
    /// lookahead. `None` when no link is cut (single shard, or fully
    /// disconnected parts): the executor then skips straight to the
    /// drain loop.
    pub lookahead: Option<SimDuration>,
    /// The requested shard count (shards left empty by a coarse
    /// partition still participate in barriers and replicated work).
    pub shards: u32,
}

impl Partition {
    /// Partitions `nodes` nodes connected by `links` (`(src, dst,
    /// delay)` triples) into `shards` shards. Pure function of its
    /// arguments; see the module docs for the algorithm.
    pub fn compute(shards: usize, nodes: usize, links: &[(u32, u32, SimDuration)]) -> Self {
        assert!(shards >= 1, "need at least one shard");
        assert!(shards <= u32::MAX as usize, "shard count overflow");
        // Union-find over zero-delay links, always rooting at the lower
        // index so each group's root is its minimum member.
        fn find(parent: &mut [u32], mut x: u32) -> u32 {
            while parent[x as usize] != x {
                parent[x as usize] = parent[parent[x as usize] as usize];
                x = parent[x as usize];
            }
            x
        }
        let mut parent: Vec<u32> = (0..nodes as u32).collect();
        for &(a, b, delay) in links {
            if delay == SimDuration::ZERO {
                let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
                if ra != rb {
                    parent[ra.max(rb) as usize] = ra.min(rb);
                }
            }
        }
        // Scanning nodes in index order visits each group at its minimum
        // member first, so `groups` comes out ordered by min node index.
        let mut group_of_root: Vec<Option<u32>> = vec![None; nodes];
        let mut groups: Vec<Vec<u32>> = Vec::new();
        for n in 0..nodes as u32 {
            let root = find(&mut parent, n) as usize;
            let gi = *group_of_root[root].get_or_insert_with(|| {
                groups.push(Vec::new());
                (groups.len() - 1) as u32
            });
            groups[gi as usize].push(n);
        }
        // Deal contiguous runs of groups: a shard keeps taking groups
        // until it holds its node quota, except the last shard, which
        // takes the remainder.
        let quota = nodes.div_ceil(shards).max(1);
        let mut shard_of_node = vec![0u32; nodes];
        let mut current = 0u32;
        let mut held = 0usize;
        for group in &groups {
            if held >= quota && (current as usize) < shards - 1 {
                current += 1;
                held = 0;
            }
            for &n in group {
                shard_of_node[n as usize] = current;
            }
            held += group.len();
        }
        let lookahead = links
            .iter()
            .filter(|&&(a, b, _)| shard_of_node[a as usize] != shard_of_node[b as usize])
            .map(|&(_, _, delay)| delay)
            .min();
        debug_assert!(
            lookahead != Some(SimDuration::ZERO),
            "zero-delay links are never cut"
        );
        Partition {
            shard_of_node,
            lookahead,
            shards: shards as u32,
        }
    }
}

/// A cross-shard event in a mailbox: `(fire time, canonical key, event)`.
type Envelope = (SimTime, u64, Event);

/// Merge key of a captured record: `(event time, event key, intra-event
/// sequence)`.
type MergeKey = (SimTime, u64, u64);

/// A captured probe record: the original `record` arguments.
type ProbeRec = (SimTime, NodeId, Sample);

/// A captured trace record.
type TraceRec = (SimTime, TraceEvent);

/// A [`Probe`] or [`Tracer`] that logs records tagged with the shard's
/// event cursor, for the canonical-order merge.
struct CaptureLog<R> {
    cursor: EventCursor,
    last: (SimTime, u64),
    intra: u64,
    log: Vec<(MergeKey, R)>,
}

impl<R> CaptureLog<R> {
    fn new(cursor: EventCursor) -> Self {
        CaptureLog {
            cursor,
            last: (SimTime::ZERO, 0),
            intra: 0,
            log: Vec::new(),
        }
    }

    fn push(&mut self, rec: R) {
        let cur = self.cursor.get();
        if cur != self.last {
            self.last = cur;
            self.intra = 0;
        }
        self.log.push(((cur.0, cur.1, self.intra), rec));
        self.intra += 1;
    }
}

impl Probe for CaptureLog<ProbeRec> {
    fn record(&mut self, now: SimTime, node: NodeId, sample: &Sample) {
        self.push((now, node, *sample));
    }
}

impl Tracer for CaptureLog<TraceRec> {
    fn record(&mut self, now: SimTime, event: &TraceEvent) {
        self.push((now, *event));
    }
}

/// Concatenates the shards' capture logs, sorts on the merge key — which
/// *is* the serial emission order — and strips it.
fn merge_logs<R>(logs: impl Iterator<Item = Vec<(MergeKey, R)>>) -> Vec<R> {
    let mut recs: Vec<(MergeKey, R)> = logs.flatten().collect();
    recs.sort_unstable_by_key(|r| r.0);
    recs.into_iter().map(|(_, rec)| rec).collect()
}

/// What one shard worker hands back for the merge.
struct ShardPartial {
    report: SimReport,
    flow_egress: Vec<u32>,
    events: u64,
    probes: Vec<(MergeKey, ProbeRec)>,
    traces: Vec<(MergeKey, TraceRec)>,
    completions: Vec<CompletionRecord>,
    churn_window: Option<(SimTime, SimTime)>,
}

/// The result of a sharded run.
pub struct ShardedOutcome {
    /// Byte-identical to the serial engine's report for the same
    /// topology, seed and horizon.
    pub report: SimReport,
    /// Events popped from each shard's queue (load-balance telemetry).
    /// Not the same quantity as [`SimReport::events_processed`], which
    /// adds one serialization per forwarded packet that train dispatch
    /// never pops: on one shard `popped + Σ forwarded_packets` equals
    /// it exactly. Across `N` shards node-addressed events pop once in
    /// total and each replicated lifecycle event once per shard, so the
    /// sum exceeds the one-shard count by `(N − 1) ×` the lifecycle
    /// events — and falls short of `events_processed` whenever forwarded
    /// packets outnumber that excess.
    pub per_shard_events: Vec<u64>,
    /// Every probe record in canonical (serial) order; replay into a
    /// real [`Probe`] to reproduce the serial telemetry stream.
    pub probe_log: Vec<(SimTime, NodeId, Sample)>,
    /// Every trace record in canonical (serial) order.
    pub trace_log: Vec<(SimTime, TraceEvent)>,
}

/// Runs the topology produced by `factory` to `end` on `shards` worker
/// threads and merges the results; see the module docs for the protocol.
///
/// `factory` is invoked once per worker (plus once up front for the
/// partitioner) and must yield identical builders each time — same
/// seed, same topology, same flow schedule. It must *not* install a
/// probe or tracer; set `capture_probe` / `capture_trace` instead and
/// replay [`ShardedOutcome::probe_log`] / [`ShardedOutcome::trace_log`]
/// after the run.
pub fn run_sharded<F>(
    factory: F,
    shards: usize,
    end: SimTime,
    capture_probe: bool,
    capture_trace: bool,
) -> ShardedOutcome
where
    F: Fn() -> TopologyBuilder + Sync,
{
    let (nodes, links) = factory().partition_inputs();
    let partition = Partition::compute(shards, nodes, &links);
    let mailboxes: Vec<Vec<Mutex<Vec<Envelope>>>> = (0..shards)
        .map(|_| (0..shards).map(|_| Mutex::new(Vec::new())).collect())
        .collect();
    let barrier = Barrier::new(shards);
    let moved = [AtomicU64::new(0), AtomicU64::new(0)];

    let partials: Vec<ShardPartial> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..shards)
            .map(|me| {
                let factory = &factory;
                let partition = &partition;
                let mailboxes = &mailboxes;
                let barrier = &barrier;
                let moved = &moved;
                scope.spawn(move || {
                    run_shard(
                        factory,
                        partition,
                        me,
                        shards,
                        end,
                        mailboxes,
                        barrier,
                        moved,
                        capture_probe,
                        capture_trace,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("shard worker panicked"))
            .collect()
    });

    merge(partials, &partition)
}

/// One worker: builds its own full topology (networks are not `Send`),
/// restricted to its shard view, and runs the epoch + drain loops.
#[allow(clippy::too_many_arguments)]
fn run_shard<F>(
    factory: &F,
    partition: &Partition,
    me: usize,
    shards: usize,
    end: SimTime,
    mailboxes: &[Vec<Mutex<Vec<Envelope>>>],
    barrier: &Barrier,
    moved: &[AtomicU64; 2],
    capture_probe: bool,
    capture_trace: bool,
) -> ShardPartial
where
    F: Fn() -> TopologyBuilder + Sync,
{
    let mut builder = factory();
    builder.shard_view(ShardView {
        shard_of_node: partition.shard_of_node.clone(),
        me: me as u32,
        lookahead: partition.lookahead,
    });
    let cursor: EventCursor = Rc::new(Cell::new((SimTime::ZERO, 0)));
    let probe =
        capture_probe.then(|| Rc::new(RefCell::new(CaptureLog::<ProbeRec>::new(cursor.clone()))));
    if let Some(p) = &probe {
        builder.probe(p.clone());
    }
    let tracer =
        capture_trace.then(|| Rc::new(RefCell::new(CaptureLog::<TraceRec>::new(cursor.clone()))));
    if let Some(t) = &tracer {
        builder.tracer(t.clone());
    }
    let mut net = builder.build();
    if capture_probe || capture_trace {
        net.install_cursor(cursor);
    }

    let mut round = 0usize;
    // Conservative epochs: everything strictly before each lookahead
    // boundary is safe to execute without hearing from peers.
    if let Some(lookahead) = partition.lookahead {
        let mut t = SimTime::ZERO;
        while t + lookahead < end {
            let boundary = t + lookahead;
            net.run_before(boundary);
            exchange(&mut net, me, round, shards, mailboxes, barrier, moved);
            round += 1;
            t = boundary;
        }
    }
    // Drain: run to the horizon, exchange, repeat until a whole round
    // moves nothing anywhere.
    loop {
        net.run_until(end);
        let total = exchange(&mut net, me, round, shards, mailboxes, barrier, moved);
        round += 1;
        if total == 0 {
            break;
        }
    }

    let completions = net.take_completions();
    let churn_window = net.churn_window();
    let flow_egress = net.flow_egress_nodes();
    let events = net.events_popped();
    let report = net.into_report(end);
    ShardPartial {
        report,
        flow_egress,
        events,
        probes: probe
            .map(|p| std::mem::take(&mut p.borrow_mut().log))
            .unwrap_or_default(),
        traces: tracer
            .map(|t| std::mem::take(&mut t.borrow_mut().log))
            .unwrap_or_default(),
        completions,
        churn_window,
    }
}

/// One barrier exchange: deposit this shard's outbox, wait for every
/// deposit, drain own mailboxes, and agree on the round's total moved
/// count. Two barriers per round; the count lives in a double-buffered
/// atomic indexed by round parity, reset for the *next* round after the
/// second barrier (every thread stores the same zero, and the store is
/// ordered after all of this round's reads by the barrier).
fn exchange(
    net: &mut Network,
    me: usize,
    round: usize,
    shards: usize,
    mailboxes: &[Vec<Mutex<Vec<Envelope>>>],
    barrier: &Barrier,
    moved: &[AtomicU64; 2],
) -> u64 {
    for (dst, time, key, event) in net.take_outgoing() {
        mailboxes[me][dst as usize]
            .lock()
            .expect("mailbox poisoned")
            .push((time, key, event));
    }
    barrier.wait();
    let mut injected = 0u64;
    for row in mailboxes.iter().take(shards) {
        let batch = std::mem::take(&mut *row[me].lock().expect("mailbox poisoned"));
        injected += batch.len() as u64;
        for (time, key, event) in batch {
            net.inject(time, key, event);
        }
    }
    // Barriers order everything here, so relaxed atomics suffice.
    moved[round & 1].fetch_add(injected, Ordering::Relaxed);
    barrier.wait();
    let total = moved[round & 1].load(Ordering::Relaxed);
    moved[(round + 1) & 1].store(0, Ordering::Relaxed);
    total
}

/// Stitches per-shard partials into the serial report: every quantity is
/// taken from the shard that observed it (egress owner for flow
/// delivery, link source owner for link counters, node owner for logic
/// state), summed where serial accounting sums over nodes (drops, event
/// counts), or replayed in canonical order where float accumulation is
/// order-sensitive (churn completions, probe/trace streams).
fn merge(mut partials: Vec<ShardPartial>, partition: &Partition) -> ShardedOutcome {
    let per_shard_events: Vec<u64> = partials.iter().map(|p| p.events).collect();
    let owner = |node: u32| partition.shard_of_node[node as usize] as usize;
    // Identical on every shard (replicated flow-table bookkeeping).
    let flow_egress = std::mem::take(&mut partials[0].flow_egress);

    let flows: Vec<FlowReport> = flow_egress
        .iter()
        .enumerate()
        .map(|(i, &egress)| {
            let own = owner(egress);
            let mut fr = partials[own].report.flows[i].clone();
            // Deliveries all land on the egress owner, but drops are
            // recorded where they happen — any node on the path.
            for (s, p) in partials.iter().enumerate() {
                if s != own {
                    let other = &p.report.flows[i];
                    fr.tail_drops += other.tail_drops;
                    fr.policy_drops += other.policy_drops;
                    fr.fault_drops += other.fault_drops;
                }
            }
            fr
        })
        .collect();

    // A link's traffic is transmitted entirely by its source node.
    let links: Vec<LinkReport> = partials[0]
        .report
        .links
        .iter()
        .enumerate()
        .map(|(i, l)| partials[owner(l.src.index() as u32)].report.links[i].clone())
        .collect();

    let logic: DenseMap<NodeId, LogicReport> = (0..partition.shard_of_node.len())
        .map(|n| {
            let id = NodeId::from_index(n);
            let report = partials[owner(n as u32)]
                .report
                .logic
                .get(&id)
                .expect("every shard reports every node")
                .clone();
            (id, report)
        })
        .collect();

    let events_processed = partials.iter().map(|p| p.report.events_processed).sum();

    // Replicated churn bookkeeping is identical everywhere; completion
    // metrics were deferred on every shard and are replayed here in
    // canonical retire order, which is exactly the serial fold order.
    let churn = partials[0].report.churn.clone().map(|mut c| {
        c.stale_events = partials
            .iter()
            .map(|p| p.report.churn.as_ref().map_or(0, |r| r.stale_events))
            .sum();
        let (start, stop) = partials[0].churn_window.expect("churn window present");
        let mut records: Vec<CompletionRecord> = partials
            .iter_mut()
            .flat_map(|p| std::mem::take(&mut p.completions))
            .collect();
        records.sort_unstable_by_key(|r| (r.time, r.key));
        for r in &records {
            c.absorb_completion(start, stop, r);
        }
        c
    });

    ShardedOutcome {
        report: SimReport {
            end: partials[0].report.end,
            flows,
            links,
            logic,
            events_processed,
            churn,
        },
        per_shard_events,
        probe_log: merge_logs(partials.iter_mut().map(|p| std::mem::take(&mut p.probes))),
        trace_log: merge_logs(partials.iter_mut().map(|p| std::mem::take(&mut p.traces))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    /// The partition is a pure function of the topology: this pins the
    /// exact assignment so any algorithm change is a conscious one.
    #[test]
    fn partition_assignment_is_deterministic_and_pinned() {
        // 6 nodes; 0-1 fused by a zero-delay link, the rest 10ms apart.
        let links = vec![
            (0u32, 1u32, SimDuration::ZERO),
            (1, 2, ms(10)),
            (2, 3, ms(20)),
            (3, 4, ms(10)),
            (4, 5, ms(30)),
        ];
        let p = Partition::compute(3, 6, &links);
        // quota = ceil(6/3) = 2: {0,1} fill shard 0, {2},{3} fill shard
        // 1, {4},{5} fill shard 2.
        assert_eq!(p.shard_of_node, vec![0, 0, 1, 1, 2, 2]);
        // Cut links: 1-2 (10ms), 3-4 (10ms) -> lookahead 10ms.
        assert_eq!(p.lookahead, Some(ms(10)));
        assert_eq!(p.shards, 3);
        // Recomputing yields the identical partition.
        assert_eq!(Partition::compute(3, 6, &links), p);
    }

    #[test]
    fn single_shard_partition_has_no_cut_links() {
        let links = vec![(0u32, 1u32, ms(5)), (1, 2, ms(5))];
        let p = Partition::compute(1, 3, &links);
        assert_eq!(p.shard_of_node, vec![0, 0, 0]);
        assert_eq!(p.lookahead, None);
    }

    #[test]
    fn zero_delay_groups_are_never_split() {
        // A chain fused end-to-end by zero-delay links cannot be cut.
        let links = vec![
            (0u32, 1u32, SimDuration::ZERO),
            (1, 2, SimDuration::ZERO),
            (2, 3, SimDuration::ZERO),
        ];
        let p = Partition::compute(4, 4, &links);
        assert_eq!(p.shard_of_node, vec![0, 0, 0, 0]);
        assert_eq!(p.lookahead, None);
    }

    #[test]
    fn extra_shards_stay_empty_but_counted() {
        let links = vec![(0u32, 1u32, ms(5))];
        let p = Partition::compute(8, 2, &links);
        assert_eq!(p.shard_of_node, vec![0, 1]);
        assert_eq!(p.shards, 8);
        assert_eq!(p.lookahead, Some(ms(5)));
    }
}
