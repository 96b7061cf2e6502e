//! Sharded conservative-parallel execution: one simulation, many cores,
//! byte-identical output.
//!
//! # Partitioning
//!
//! [`Partition::compute`] cuts the topology *at links*: nodes joined by
//! zero-delay links are fused into one group (a cut there would admit
//! same-instant cross-shard causality, destroying any lookahead). Every
//! node carries a weight — 1 plus the events the builder expects it to
//! execute, from the offered load of the static flows and churn routes
//! through it, ingresses counted several times over for their emission
//! timers and feedback (`TopologyBuilder::partition_inputs`) — and the
//! groups are dealt by longest-processing-time-first: heaviest group
//! first, ties by minimum node index, each to the lightest shard so far,
//! ties to the lowest shard id. The partition is a pure function of
//! `(shards, weights, links)` — no randomness, no iteration-order
//! dependence — pinned by unit tests and a property test; the event
//! balance it yields is pinned in `tests/shard_balance.rs`. There is no
//! refinement pass trading balance for fewer cut links: a cut route
//! costs one buffer swap per epoch, not one lock per event (below), and
//! on the k = 16 fat-tree a balanced split that cuts *every* churn route
//! ran as fast as a minimum-cut one.
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
//! `run_before` executes *strictly* before the
//! boundary because events at exactly `t + L` may still arrive from a
//! peer at the next exchange. The drain loop settles events scheduled at
//! or beyond the last boundary; each round every shard processes what it
//! has and exchanges again, until a round moves zero events (the count
//! is agreed through a double-buffered atomic, so every worker leaves
//! the loop on the same round).
//!
//! # The exchange: mailboxes and barrier
//!
//! A `Network` keeps one outbox per destination shard. An exchange is
//! two barrier waits: before the first, a worker swaps each outbox,
//! whole, into `mailboxes[me][dst]`; after it, it drains every
//! `mailboxes[src][me]` in place into its queue. The emptied buffer stays
//! in the mailbox and returns to its owner at the owner's next swap, so
//! each (src, dst) pair circulates two buffers that keep their capacity:
//! one uncontended lock per pair and side per round, and no allocation
//! once the buffers have grown (`tests/zero_alloc.rs`).
//!
//! The barrier is a small sense-reversing one (`EpochBarrier`). A waiter
//! first polls the generation a bounded number of times (`SPIN_POLLS`,
//! chosen by measurement, about 0.6 ms; every `YIELD_EVERY`th poll is a
//! yield, in case the peer sits runnable on the waiter's own core): an
//! epoch is a fraction of a millisecond of work, and parking costs a
//! kernel round trip and, on a virtual CPU, a halt and a wake-up that
//! outlast the wait itself. It parks at once when the process has more
//! live barrier parties than cores — `shards > available_parallelism()`,
//! or several sharded runs side by side under `run_parallel` or `cargo
//! test` — because a polling waiter would then hold the core its peer
//! needs. A worker that unwinds poisons the barrier; its peers unwind too
//! instead of waiting for a party that will never arrive, and
//! [`run_sharded`] re-raises the original panic.
//!
//! # Why the output is byte-identical to the serial engine
//!
//! Every event carries a canonical key assigned at *push* time from the
//! pushing site's private counter (see
//! `network::KEY_SITE_SHIFT`), and both engines
//! pop in `(time, key)` order. Sites are replicated deterministically:
//! a shard runs the *same* pushes for the nodes it owns as the serial
//! engine does, in the same order, so the same logical event gets the
//! same key everywhere and the merged execution is a permutation-free
//! reordering of the serial one. Mailbox delivery order is irrelevant —
//! injected events re-sort by `(time, key)` in the receiving wheel.
//! Churn completion statistics are counts, exact nanosecond sums and
//! extremes, so the shards' shares simply add
//! ([`ChurnReport::add_completions`](crate::churn::ChurnReport)). Probe
//! and trace streams are the one thing whose order matters: they are
//! captured per shard with `(event time, event key, intra-event seq)`
//! tags and merged by sorting on that key, which *is* the serial
//! emission order.
//!
//! Threading in this module is a sanctioned exception to the workspace's
//! `disallowed-methods` lint on threads (`clippy.toml`): determinism is
//! proven by the sharded-vs-serial identity suite
//! (`tests/sharded_identity.rs`), not assumed.

use std::cell::{Cell, RefCell};
use std::panic::resume_unwind;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

use sim_core::time::{SimDuration, SimTime};

use crate::ids::NodeId;
use crate::logic::LogicReport;
use crate::monitor::{FlowReport, LinkReport, SimReport};
use crate::network::{Envelope, EventCursor, Network, ShardView};
use crate::slab::DenseMap;
use crate::telemetry::{Probe, Sample};
use crate::topology::{PartitionLink, TopologyBuilder};
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
    /// Partitions the nodes weighted by `weights` (one entry per node)
    /// and connected by `links` into `shards` shards. Pure function of
    /// its arguments; see the module docs for the algorithm.
    pub fn compute(shards: usize, weights: &[u64], links: &[PartitionLink]) -> Self {
        assert!(shards >= 1, "need at least one shard");
        assert!(shards <= u32::MAX as usize, "shard count overflow");
        let nodes = weights.len();
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
        let mut groups: Vec<(u64, Vec<u32>)> = Vec::new();
        for n in 0..nodes as u32 {
            let root = find(&mut parent, n) as usize;
            let gi = *group_of_root[root].get_or_insert_with(|| {
                groups.push((0, Vec::new()));
                (groups.len() - 1) as u32
            });
            let (weight, members) = &mut groups[gi as usize];
            *weight = weight.saturating_add(weights[n as usize]);
            members.push(n);
        }
        // Longest-processing-time deal: heaviest group first (the stable
        // sort keeps equal weights in min-node-index order), each to the
        // lightest shard so far (`min_by_key` keeps the lowest id on a
        // tie).
        groups.sort_by_key(|&(weight, _)| std::cmp::Reverse(weight));
        let mut load = vec![0u64; shards];
        let mut shard_of_node = vec![0u32; nodes];
        for (weight, members) in &groups {
            let lightest = (0..shards)
                .min_by_key(|&s| load[s])
                .expect("at least one shard");
            load[lightest] = load[lightest].saturating_add(*weight);
            for &n in members {
                shard_of_node[n as usize] = lightest as u32;
            }
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

/// How often a waiter re-reads the barrier before it parks, when every
/// live party has a core of its own. A poll (two loads and a `PAUSE`)
/// takes 15.6 ns on the 2-vCPU KVM guest this was tuned on. The bound
/// has to cover how far behind a peer usually is. On `k16_churn_shard2`
/// (600 waits a run, 0.5 ms of work per shard and epoch) half the waits
/// outlast 2 000 polls and 4 outlast 5 000. On `fat_tree_k16_100k` at 2
/// shards (1 000 waits, epochs of 30-100 us) a peer that had parked is
/// late by its wake-up — its vCPU had halted — and parking so feeds
/// itself: 10 000 polls leave up to 88 waits of a run parked, 40 000 at
/// most 8. At 40 000 (about 0.6 ms) a late peer — a lopsided partition,
/// a preempted thread — costs its waiter's core that long per wait at
/// most. Chosen by measurement (EXPERIMENTS.md, "Two shards that pay"),
/// not a knob.
const SPIN_POLLS: u32 = 40_000;

/// Every so many polls a waiter yields instead of pausing. The kernel
/// likes to wake a parked thread on its waker's core. If the peer this
/// waiter polls for sits runnable on *this* core, polling only keeps it
/// from running: the polls run out, the waiter parks, and its peer later
/// wakes it onto its own core in turn. Without the yield 3 runs of 164
/// parked 946-956 of their 1 000 waits (0.75 s a run instead of 0.12);
/// with it none of 184 parked more than 8. The yield runs a stacked peer
/// at once and leaves both threads runnable for the balancer to
/// separate; with the core to itself it returns immediately.
const YIELD_EVERY: u32 = 256;

/// Barrier parties alive in this process, over every concurrent run
/// (a `run_parallel` sweep of sharded scenarios, `cargo test` threads).
/// A statistic only: nothing is published through it.
static LIVE_PARTIES: AtomicUsize = AtomicUsize::new(0);

/// Unwind payload of a worker that stops because a peer panicked;
/// [`run_sharded`] skips it to re-raise the peer's own panic.
struct PeerPanicked;

/// A sense-reversing barrier for the epoch loop: the last arrival flips
/// `generation`, which releases the others. Unlike `std::sync::Barrier`
/// a waiter polls before it parks, and a panicking party poisons the
/// barrier so that its peers unwind instead of waiting forever.
///
/// Every atomic access is `SeqCst`: the generation flip publishes the
/// mailbox and `moved` writes made before it, and the park/wake
/// handshake is a store-then-load on both sides (`generation` then
/// `parked` by the releaser, `parked` then `generation` by the waiter),
/// which only a total order makes safe.
struct EpochBarrier {
    parties: usize,
    cores: usize,
    /// Polls before parking ([`SPIN_POLLS`]; tests force either path).
    spin: u32,
    arrived: AtomicUsize,
    generation: AtomicUsize,
    poisoned: AtomicBool,
    parked: AtomicUsize,
    lock: Mutex<()>,
    wake: Condvar,
}

impl EpochBarrier {
    fn new(parties: usize) -> Self {
        LIVE_PARTIES.fetch_add(parties, Ordering::Relaxed);
        EpochBarrier {
            parties,
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            spin: SPIN_POLLS,
            arrived: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            poisoned: AtomicBool::new(false),
            parked: AtomicUsize::new(0),
            lock: Mutex::new(()),
            wake: Condvar::new(),
        }
    }

    /// Blocks until all parties have arrived: polling first when the
    /// process's live parties each have a core, parking at once when they
    /// do not — there a polling waiter holds the core its peer needs
    /// (pure spin-and-yield doubled to quadrupled the 4- and 8-shard runs
    /// on 2 cores).
    ///
    /// Unwinds (quietly, with [`PeerPanicked`]) if the barrier is
    /// poisoned before the release.
    fn wait(&self) {
        let generation = self.generation.load(Ordering::SeqCst);
        let released =
            || self.generation.load(Ordering::SeqCst) != generation || self.is_poisoned();
        let polls = if LIVE_PARTIES.load(Ordering::Relaxed) <= self.cores {
            self.spin
        } else {
            0
        };
        if self.arrived.fetch_add(1, Ordering::SeqCst) + 1 == self.parties {
            // Reset first: nobody re-arrives before seeing the flip.
            self.arrived.store(0, Ordering::SeqCst);
            self.generation
                .store(generation.wrapping_add(1), Ordering::SeqCst);
            self.wake_parked();
        } else if !(0..polls).any(|poll| {
            if poll % YIELD_EVERY == YIELD_EVERY - 1 {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
            released()
        }) {
            // The mutex guards no data; it only closes the window between
            // a parker's last check and its wait (see `wake_parked`).
            let mut guard = self.lock.lock().expect("barrier lock poisoned");
            self.parked.fetch_add(1, Ordering::SeqCst);
            while !released() {
                guard = self.wake.wait(guard).expect("barrier lock poisoned");
            }
            self.parked.fetch_sub(1, Ordering::SeqCst);
        }
        if self.is_poisoned() {
            // `resume_unwind` skips the panic hook: the peer's message is
            // the one worth printing.
            resume_unwind(Box::new(PeerPanicked));
        }
    }

    fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::SeqCst)
    }

    /// Marks the barrier broken and releases every waiter.
    fn poison(&self) {
        self.poisoned.store(true, Ordering::SeqCst);
        self.wake_parked();
    }

    /// Wakes parked waiters after a state change they wait for. A waiter
    /// that has not yet counted itself in `parked` will re-check the
    /// state after it does and see the change; one that has is either
    /// inside `Condvar::wait` or still holds the lock, so taking the lock
    /// once before notifying cannot miss it.
    fn wake_parked(&self) {
        if self.parked.load(Ordering::SeqCst) > 0 {
            drop(self.lock.lock());
            self.wake.notify_all();
        }
    }
}

impl Drop for EpochBarrier {
    fn drop(&mut self) {
        LIVE_PARTIES.fetch_sub(self.parties, Ordering::Relaxed);
    }
}

/// Poisons the barrier when its worker unwinds, so peers stop waiting
/// for a party that will never arrive.
struct PoisonOnPanic<'a>(&'a EpochBarrier);

impl Drop for PoisonOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.poison();
        }
    }
}

/// What the workers of one run share.
struct Exchange {
    /// `mailboxes[src][dst]`: events `src` has pushed for nodes `dst`
    /// owns. `src` swaps its whole outbox in before the first barrier of
    /// a round, `dst` drains it in place after, and the emptied buffer
    /// goes back to `src` at its next swap — two buffers per pair, both
    /// keeping their capacity, one uncontended lock per side per round.
    mailboxes: Vec<Vec<Mutex<Vec<Envelope>>>>,
    barrier: EpochBarrier,
    /// Events injected per round, double-buffered by round parity.
    moved: [AtomicU64; 2],
}

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
    let (weights, links) = factory().partition_inputs(end);
    let partition = Partition::compute(shards, &weights, &links);
    let exchange = Exchange {
        mailboxes: (0..shards)
            .map(|_| (0..shards).map(|_| Mutex::new(Vec::new())).collect())
            .collect(),
        barrier: EpochBarrier::new(shards),
        moved: [AtomicU64::new(0), AtomicU64::new(0)],
    };

    #[expect(
        clippy::disallowed_methods,
        reason = "workers advance in barrier-lockstep epochs; tests/sharded_identity.rs proves byte-identity with serial"
    )]
    let partials: Vec<ShardPartial> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..shards)
            .map(|me| {
                let (factory, partition, exchange) = (&factory, &partition, &exchange);
                scope.spawn(move || {
                    run_shard(
                        factory,
                        partition,
                        me,
                        end,
                        exchange,
                        capture_probe,
                        capture_trace,
                    )
                })
            })
            .collect();
        // Join everyone before re-raising, and re-raise the panic that
        // started it rather than a peer's `PeerPanicked`.
        let mut partials = Vec::with_capacity(shards);
        let mut panic = None;
        for handle in handles {
            match handle.join() {
                Ok(partial) => partials.push(partial),
                Err(payload) if payload.is::<PeerPanicked>() => {}
                Err(payload) => panic = panic.or(Some(payload)),
            }
        }
        if let Some(payload) = panic {
            resume_unwind(payload);
        }
        partials
    });

    merge(partials, &partition)
}

/// One worker: builds its own full topology (networks are not `Send`),
/// restricted to its shard view, and runs the epoch + drain loops.
fn run_shard<F>(
    factory: &F,
    partition: &Partition,
    me: usize,
    end: SimTime,
    exchange: &Exchange,
    capture_probe: bool,
    capture_trace: bool,
) -> ShardPartial
where
    F: Fn() -> TopologyBuilder + Sync,
{
    let _poison_on_panic = PoisonOnPanic(&exchange.barrier);
    let mut builder = factory();
    builder.shard_view(ShardView {
        shard_of_node: partition.shard_of_node.clone(),
        me: me as u32,
        shards: partition.shards,
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
            exchange.round(&mut net, me, round);
            round += 1;
            t = boundary;
        }
    }
    // Drain: run to the horizon, exchange, repeat until a whole round
    // moves nothing anywhere.
    loop {
        net.run_until(end);
        let total = exchange.round(&mut net, me, round);
        round += 1;
        if total == 0 {
            break;
        }
    }

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
    }
}

impl Exchange {
    /// One barrier exchange: hand over this shard's outboxes, wait for
    /// every hand-over, drain own mailboxes, and agree on the round's
    /// total moved count. Two barriers per round; the count lives in a
    /// double-buffered atomic indexed by round parity, reset for the
    /// *next* round after the second barrier (every thread stores the
    /// same zero, and the store is ordered after all of this round's
    /// reads by the barrier).
    fn round(&self, net: &mut Network, me: usize, round: usize) -> u64 {
        let peers = || (0..self.mailboxes.len()).filter(move |&s| s != me);
        for dst in peers() {
            let mut slot = self.mailboxes[me][dst].lock().expect("mailbox poisoned");
            debug_assert!(slot.is_empty(), "last round's hand-over was drained");
            std::mem::swap(&mut *slot, net.outbox(dst));
        }
        self.barrier.wait();
        let mut injected = 0u64;
        for src in peers() {
            let mut slot = self.mailboxes[src][me].lock().expect("mailbox poisoned");
            injected += slot.len() as u64;
            for (time, key, event) in slot.drain(..) {
                net.inject(time, key, event);
            }
        }
        // Barriers order everything here, so relaxed atomics suffice.
        self.moved[round & 1].fetch_add(injected, Ordering::Relaxed);
        self.barrier.wait();
        let total = self.moved[round & 1].load(Ordering::Relaxed);
        self.moved[(round + 1) & 1].store(0, Ordering::Relaxed);
        total
    }
}

/// Stitches per-shard partials into the serial report: every quantity is
/// taken from the shard that observed it (egress owner for flow
/// delivery, link source owner for link counters, node owner for logic
/// state), summed where serial accounting sums over nodes (drops, event
/// counts, churn completions), or — probe and trace streams only — sorted
/// back into the serial emission order.
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
    let elided_notifications = partials.iter().map(|p| p.report.elided_notifications).sum();

    // Replicated churn bookkeeping is identical everywhere; stale events
    // and completions are each accounted by one shard, and add.
    let churn = partials[0].report.churn.take().map(|mut c| {
        for other in partials[1..].iter().filter_map(|p| p.report.churn.as_ref()) {
            c.stale_events += other.stale_events;
            c.add_completions(other);
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
            elided_notifications,
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

    /// A chain of 6 nodes: 0-1 fused by a zero-delay link, the rest 10
    /// to 30 ms apart.
    fn fused_chain() -> Vec<PartitionLink> {
        vec![
            (0, 1, SimDuration::ZERO),
            (1, 2, ms(10)),
            (2, 3, ms(20)),
            (3, 4, ms(10)),
            (4, 5, ms(30)),
        ]
    }

    /// The partition is a pure function of its inputs: this pins the
    /// exact assignment so any algorithm change is a conscious one.
    #[test]
    fn partition_assignment_is_deterministic_and_pinned() {
        let links = fused_chain();
        let p = Partition::compute(3, &[1; 6], &links);
        // Equal weights: {0,1} weighs 2 and goes first, to shard 0; the
        // singletons follow in index order, each to the lightest shard:
        // 2 -> 1, 3 -> 2, 4 -> 1 (a tie, lowest id), 5 -> 2.
        assert_eq!(p.shard_of_node, vec![0, 0, 1, 2, 1, 2]);
        // Every positive-delay link is cut -> lookahead 10ms.
        assert_eq!(p.lookahead, Some(ms(10)));
        assert_eq!(p.shards, 3);
        // Recomputing yields the identical partition.
        assert_eq!(Partition::compute(3, &[1; 6], &links), p);
    }

    #[test]
    fn weighted_partition_deals_heaviest_first_to_the_lightest_shard() {
        // Node 5 carries most of the traffic.
        let weights = [3, 4, 5, 2, 5, 20];
        let p = Partition::compute(2, &weights, &fused_chain());
        // Order: {5}=20, {0,1}=7, {2}=5, {4}=5 (tie, lower index first),
        // {3}=2. Loads: 5 -> s0 (20|0), {0,1} -> s1 (20|7), 2 -> s1
        // (20|12), 4 -> s1 (20|17), 3 -> s1 (20|19).
        assert_eq!(p.shard_of_node, vec![1, 1, 1, 1, 1, 0]);
        // Only 4-5 is cut.
        assert_eq!(p.lookahead, Some(ms(30)));
    }

    #[test]
    fn single_shard_partition_has_no_cut_links() {
        let links = vec![(0u32, 1u32, ms(5)), (1, 2, ms(5))];
        let p = Partition::compute(1, &[1; 3], &links);
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
        let p = Partition::compute(4, &[1, 9, 1, 9], &links);
        assert_eq!(p.shard_of_node, vec![0, 0, 0, 0]);
        assert_eq!(p.lookahead, None);
    }

    #[test]
    fn extra_shards_stay_empty_but_counted() {
        let links = vec![(0u32, 1u32, ms(5))];
        let p = Partition::compute(8, &[1; 2], &links);
        assert_eq!(p.shard_of_node, vec![0, 1]);
        assert_eq!(p.shards, 8);
        assert_eq!(p.lookahead, Some(ms(5)));
    }

    /// The barrier releases everyone once per generation, whether the
    /// waiters poll or park, and keeps doing so round after round.
    #[test]
    fn barrier_releases_all_parties_every_round() {
        for spin in [0, u32::MAX] {
            let mut barrier = EpochBarrier::new(2);
            // Park at once, or poll for ever whatever else is running.
            (barrier.spin, barrier.cores) = (spin, usize::MAX);
            let passed = AtomicUsize::new(0);
            #[expect(
                clippy::disallowed_methods,
                reason = "the barrier under test needs two threads"
            )]
            std::thread::scope(|scope| {
                for _ in 0..2 {
                    scope.spawn(|| {
                        for round in 1..=200 {
                            barrier.wait();
                            passed.fetch_add(1, Ordering::SeqCst);
                            barrier.wait();
                            // Both counted this round, and neither is into
                            // the next one before the other arrives.
                            assert_eq!(passed.load(Ordering::SeqCst), 2 * round);
                        }
                    });
                }
            });
            assert_eq!(passed.load(Ordering::SeqCst), 400);
        }
    }

    /// A poisoned barrier unwinds its waiters — parked or polling —
    /// instead of holding them for a party that never comes.
    #[test]
    fn poisoned_barrier_unwinds_its_waiters() {
        for spin in [0, u32::MAX] {
            let mut barrier = EpochBarrier::new(2);
            (barrier.spin, barrier.cores) = (spin, usize::MAX);
            #[expect(
                clippy::disallowed_methods,
                reason = "the barrier under test needs two threads"
            )]
            let waiter = std::thread::scope(|scope| {
                let waiter = scope.spawn(|| barrier.wait());
                // Poison only once the waiter has arrived.
                while barrier.arrived.load(Ordering::SeqCst) == 0 {
                    std::thread::yield_now();
                }
                barrier.poison();
                waiter.join()
            });
            let payload = waiter.expect_err("the waiter unwound");
            assert!(payload.is::<PeerPanicked>());
        }
    }
}
