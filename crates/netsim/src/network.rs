//! The event loop tying links, flows, logic and monitors together.

// A panic a million events into a run must name the invariant it broke.
#![deny(clippy::unwrap_used)]

use sim_core::event::{EventQueue, QueueBackend};
use sim_core::time::{SimDuration, SimTime};

use crate::churn::ChurnState;
use crate::fault::FaultState;
use crate::flow::FlowInfo;
use crate::ids::{FlowId, LinkId, NodeId};
use crate::link::Link;
use crate::logic::{ControlMsg, Ctx, DropReason, RouterLogic, TimerKind};
use crate::monitor::{FlowMonitor, LinkReport, SimReport};
use crate::packet::{Packet, PACKET_SIZE};
use crate::telemetry::Probe;
use crate::trace::{FaultKind, TraceEvent, Tracer};

use std::cell::{Cell, RefCell};
use std::rc::Rc;

/// How link serializations are turned into queue events.
///
/// Both modes produce byte-identical reports, traces and telemetry (see
/// `tests/train_batching.rs`): departure times are computed at enqueue
/// either way, so the per-packet checkpoints of [`PerPacket`] only add
/// no-op sync work.
///
/// [`PerPacket`]: DispatchMode::PerPacket
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DispatchMode {
    /// Coalesce back-to-back serializations into a train: a packet's
    /// delivery event is scheduled directly at `departure + propagation`
    /// and link accounting is synced lazily (the default).
    #[default]
    Train,
    /// Additionally schedule one `TxDone` checkpoint per packet at its
    /// departure instant — the pre-train engine's event shape — kept for
    /// differential testing of the batching path.
    PerPacket,
}

/// Canonical causal keys: every event is pushed under a key
/// `(site + 1) << KEY_SITE_SHIFT | per-site counter`, where the *site* is
/// the stable identity of the pushing code path — [`SITE_GLOBAL`] for
/// pushes every shard replicates identically (initial schedules, churn
/// arrivals, lifecycle deferrals), or `node.index() + 1` for pushes made
/// while executing that node. Same-time events pop in ascending key
/// order, so the total event order is a pure function of the topology and
/// seed — *not* of which queue (serial, or one per shard) the events
/// happened to traverse. That is the whole byte-identity argument: the
/// serial engine and every shard assign the same key to the same logical
/// event, so any schedule that respects `(time, key)` produces the same
/// execution. Keys below `1 << KEY_SITE_SHIFT` never collide with event
/// keys and are reserved for the `on_start` sweep's pseudo-cursor (one
/// per node, in node order, before all real events).
pub(crate) const KEY_SITE_SHIFT: u32 = 40;

/// The pseudo-site for pushes that are replicated on every shard.
pub(crate) const SITE_GLOBAL: u64 = 0;

/// The most nodes a network may hold. Node `n` pushes under site
/// `n + 1`, whose keys carry `n + 2` above [`KEY_SITE_SHIFT`]; one more
/// node and the last site's bits would shift out of the `u64`, silently
/// aliasing another site's keys.
pub(crate) const MAX_NODES: usize = (1 << (u64::BITS - KEY_SITE_SHIFT)) - 2;

#[inline]
fn node_site(node: NodeId) -> u64 {
    node.index() as u64 + 1
}

/// # Panics
///
/// Panics if a topology of `nodes` nodes exceeds [`MAX_NODES`].
fn check_node_count(nodes: usize) {
    assert!(
        nodes <= MAX_NODES,
        "{nodes} nodes exceed the {MAX_NODES} the canonical key layout can address \
         (site << {KEY_SITE_SHIFT} must fit a u64)"
    );
}

#[cold]
fn key_space_exhausted(site: u64) -> ! {
    let who = match site.checked_sub(1) {
        None => "the global (lifecycle) site".to_owned(),
        Some(node) => format!("node site {}", NodeId::from_index(node as usize)),
    };
    panic!(
        "{who} has pushed 2^{KEY_SITE_SHIFT} events; one more would alias another site's \
         canonical keys"
    );
}

/// Cursor published to capture probes/tracers: the `(time, key)` of the
/// event (or `on_start` sweep step) currently being dispatched.
pub(crate) type EventCursor = Rc<Cell<(SimTime, u64)>>;

/// A cross-shard event en route: `(fire time, canonical key, event)`.
pub(crate) type Envelope = (SimTime, u64, Event);

/// A shard worker's view of the partition.
pub(crate) struct ShardView {
    /// `shard_of_node[n]` is the shard that owns node `n`.
    pub shard_of_node: Vec<u32>,
    /// This worker's shard id.
    pub me: u32,
    /// The shard count (one outbox each).
    pub shards: u32,
    /// Minimum propagation delay over cut links: events emitted for a
    /// remote node are promised to fire at least this far in the future.
    pub lookahead: Option<SimDuration>,
}

#[derive(Debug)]
pub(crate) enum Event {
    /// `packet` arrives at `node` (after serialization and propagation).
    Arrive { node: NodeId, packet: Packet },
    /// Per-packet sync checkpoint on `link` ([`DispatchMode::PerPacket`]
    /// only).
    TxDone { link: LinkId },
    /// A logic-scheduled timer on `node` expired.
    Timer { node: NodeId, timer: TimerKind },
    /// A control message reaches `node`.
    Control { node: NodeId, msg: ControlMsg },
    /// `flow` becomes active (delivered to its ingress logic).
    FlowStart { flow: FlowId },
    /// `flow` stops (delivered to its ingress logic).
    FlowStop { flow: FlowId },
    /// The churn process creates its next flow.
    ChurnArrival,
    /// A churn flow's drain period ended; recycle its table slot.
    ChurnRetire { flow: FlowId },
}

/// What a callback borrows beside the [`Engine`]: the node's own logic
/// and its fixed adjacency.
struct NodeSlot {
    name: Box<str>,
    logic: Box<dyn RouterLogic>,
    /// The node's outgoing links in creation order (for
    /// [`Ctx::outgoing_links`]).
    outgoing: Vec<LinkId>,
}

/// A runnable simulated network; construct one with
/// [`TopologyBuilder`](crate::topology::TopologyBuilder).
pub struct Network {
    nodes: Vec<NodeSlot>,
    engine: Engine,
}

/// Everything an effect touches — clock, queue, links, flow table,
/// accounting — and nothing a callback holds while it runs, so a
/// [`Ctx`] can lend the whole of it to the logic being called.
pub(crate) struct Engine {
    pub(crate) now: SimTime,
    /// Pending events, pushed under their canonical key: same-time ties
    /// pop in key order, and the pop hands the key back.
    queue: EventQueue<Event>,
    pub(crate) links: Vec<Link>,
    pub(crate) flows: Vec<FlowInfo>,
    monitors: Vec<FlowMonitor>,
    /// Per-flow go-back-N receiver state: the next in-order sequence
    /// number expected at the egress. Only consulted for packets carrying
    /// [`SeqInfo`](crate::packet::SeqInfo); open-loop flows never touch
    /// it. Reset alongside the lifecycle bookkeeping (on every shard, so
    /// the egress owner always sees a fresh counter).
    rx_next: Vec<u64>,
    /// Which activation window slot `i`'s flow last received an
    /// `on_flow_start` for, with no `on_flow_stop` delivered since
    /// (`None` when the slot is stopped). A second start for the *same*
    /// window (two pause-deferred starts colliding) is stale and
    /// discarded; a start for a *later* window is legitimate even if the
    /// previous window's stop was swallowed by a pause. A stop with no
    /// live start is stale.
    lifecycle_started: Vec<Option<u32>>,
    /// Per-node packet id counters; ids are node-packed (see
    /// [`PacketId::for_node`](crate::ids::PacketId::for_node)) so every
    /// shard mints the same id for the same packet without coordination.
    pub(crate) packet_counters: Vec<u64>,
    /// `ignores_loss[n]`: node `n`'s logic declared that it ignores
    /// [`ControlMsg::Loss`] ([`Ctx::ignore_loss_notifications`]).
    pub(crate) ignores_loss: Vec<bool>,
    /// Per-site push counters backing the canonical keys: index 0 is
    /// [`SITE_GLOBAL`], node `n` lives at `n + 1`.
    site_counters: Vec<u64>,
    /// The slice of the topology this instance executes, as one shard of
    /// a partitioned run (see [`crate::shard`]); `None` on the serial
    /// engine, where every node is local.
    shard: Option<ShardView>,
    /// `outboxes[s]`: events addressed to nodes shard `s` owns, awaiting
    /// the next barrier exchange (none on the serial engine).
    outboxes: Vec<Vec<Envelope>>,
    /// When capture hooks are installed, the `(time, key)` of the event
    /// being dispatched (shard workers use it to tag probe/trace records
    /// for the deterministic merge).
    cursor: Option<EventCursor>,
    /// The canonical key of the event currently being dispatched; its
    /// site tells `push_control` whether a node event is running.
    current_key: u64,
    started: bool,
    tracer: Option<Rc<RefCell<dyn Tracer>>>,
    pub(crate) probe: Option<Rc<RefCell<dyn Probe>>>,
    faults: Option<FaultState>,
    churn: Option<ChurnState>,
    /// Measurement window, kept for monitors created at runtime by churn
    /// arrivals.
    window: SimDuration,
    /// Events addressed to a recycled slot's previous occupant (stale
    /// packets, control messages, or flow lifecycle events) that the
    /// dispatcher discarded.
    stale_events: u64,
    dispatch: DispatchMode,
    /// Logical events dispatched, excluding `TxDone` checkpoints (which
    /// exist only under [`DispatchMode::PerPacket`]). Reported as
    /// `events_processed` together with the per-link forwarded counts, so
    /// the total is identical across dispatch modes — and identical to
    /// the event count of the pre-train engine, which popped one `TxDone`
    /// per forwarded packet.
    logical_events: u64,
    /// Loss notifications accounted without a queue round trip; see
    /// [`push_control`](Self::push_control).
    elided_notifications: u64,
}

/// What a [`TopologyBuilder`](crate::topology::TopologyBuilder) collects
/// and a network takes over as it is; flows, faults and churn are
/// resolved against the topology first and handed to
/// [`Network::assemble`] beside it.
pub(crate) struct Parts {
    pub names: Vec<String>,
    pub logics: Vec<Box<dyn RouterLogic>>,
    pub links: Vec<Link>,
    pub window: SimDuration,
    pub tracer: Option<Rc<RefCell<dyn Tracer>>>,
    pub probe: Option<Rc<RefCell<dyn Probe>>>,
    pub queue_backend: QueueBackend,
    pub dispatch: DispatchMode,
    /// The shard this instance is to run as (see [`crate::shard`]).
    pub shard: Option<ShardView>,
}

impl Network {
    pub(crate) fn assemble(
        p: Parts,
        flows: Vec<FlowInfo>,
        faults: Option<FaultState>,
        churn: Option<ChurnState>,
    ) -> Self {
        check_node_count(p.names.len());
        let monitors = flows
            .iter()
            .map(|_| FlowMonitor::new(SimTime::ZERO, p.window))
            .collect();
        let mut nodes: Vec<NodeSlot> = p
            .names
            .into_iter()
            .zip(p.logics)
            .map(|(name, logic)| NodeSlot {
                name: name.into_boxed_str(),
                logic,
                outgoing: Vec::new(),
            })
            .collect();
        for (i, link) in p.links.iter().enumerate() {
            nodes[link.src().index()]
                .outgoing
                .push(LinkId::from_index(i));
        }
        let shards = p.shard.as_ref().map_or(0, |v| v.shards);
        let mut engine = Engine {
            now: SimTime::ZERO,
            queue: EventQueue::with_backend(p.queue_backend, 1024),
            monitors,
            rx_next: vec![0; flows.len()],
            lifecycle_started: vec![None; flows.len()],
            packet_counters: vec![0; nodes.len()],
            site_counters: vec![0; nodes.len() + 1],
            ignores_loss: vec![false; nodes.len()],
            links: p.links,
            flows,
            shard: p.shard,
            outboxes: (0..shards).map(|_| Vec::new()).collect(),
            cursor: None,
            current_key: 0,
            started: false,
            tracer: p.tracer,
            probe: p.probe,
            faults,
            churn,
            window: p.window,
            stale_events: 0,
            dispatch: p.dispatch,
            logical_events: 0,
            elided_notifications: 0,
        };
        // The initial schedule is replicated on every shard, in the same
        // order, so the GLOBAL site counter advances identically and the
        // resulting keys agree everywhere.
        if let Some(t) = engine.churn.as_mut().and_then(ChurnState::first_arrival) {
            engine.push_event(t, SITE_GLOBAL, Event::ChurnArrival);
        }
        for i in 0..engine.flows.len() {
            let id = engine.flows[i].id;
            for w in 0..engine.flows[i].activations.len() {
                let (start, stop) = engine.flows[i].activations[w];
                engine.push_event(start, SITE_GLOBAL, Event::FlowStart { flow: id });
                if let Some(stop) = stop {
                    engine.push_event(stop, SITE_GLOBAL, Event::FlowStop { flow: id });
                }
            }
        }
        Network { nodes, engine }
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.engine.now
    }

    /// The flows in the network.
    pub fn flows(&self) -> &[FlowInfo] {
        &self.engine.flows
    }

    /// The human-readable name of `node`.
    pub fn node_name(&self, node: NodeId) -> &str {
        &self.nodes[node.index()].name
    }

    /// Propagation delay along the reverse path from `node` back to
    /// `flow`'s ingress (exposed for tests and tooling).
    ///
    /// # Panics
    ///
    /// Panics if `node` is not on `flow`'s path.
    pub fn reverse_delay(&self, flow: FlowId, node: NodeId) -> SimDuration {
        self.engine.flows[flow.index()].reverse_delay_from(node)
    }

    /// Runs the simulation until virtual time `end`, processing every
    /// event scheduled at or before it. Can be called repeatedly with
    /// increasing horizons.
    pub fn run_until(&mut self, end: SimTime) {
        self.engine.drain(&mut self.nodes, end);
        // Advance to the horizon, but never rewind: a caller passing an
        // `end` earlier than the current time must not move the clock (and
        // with it the measurement windows) backwards.
        if end > self.engine.now {
            self.engine.now = end;
        }
    }

    /// Runs every event *strictly* before `boundary` without advancing
    /// the clock to it — the per-epoch step of a sharded run, where
    /// events at exactly `boundary` may still arrive from peer shards at
    /// the next barrier exchange.
    pub(crate) fn run_before(&mut self, boundary: SimTime) {
        if let Some(limit) = boundary.as_nanos().checked_sub(1) {
            self.engine
                .drain(&mut self.nodes, SimTime::from_nanos(limit));
        }
    }

    /// Installs the capture cursor (shard workers only); see
    /// [`EventCursor`].
    pub(crate) fn install_cursor(&mut self, cursor: EventCursor) {
        self.engine.cursor = Some(cursor);
    }

    /// The events bound for shard `dst` accumulated since the last
    /// exchange. The exchange swaps the whole buffer for an empty one that
    /// keeps its capacity, so steady-state rounds allocate nothing.
    pub(crate) fn outbox(&mut self, dst: usize) -> &mut Vec<Envelope> {
        &mut self.engine.outboxes[dst]
    }

    /// Enqueues an event received from a peer shard under its original
    /// canonical key.
    pub(crate) fn inject(&mut self, time: SimTime, key: u64, event: Event) {
        self.engine.queue.push_keyed(time, key, event);
    }

    /// The egress node index of every flow slot (identical on every
    /// shard; used to pick each flow's owning shard during the merge).
    pub(crate) fn flow_egress_nodes(&self) -> Vec<u32> {
        self.engine
            .flows
            .iter()
            .map(|f| f.egress().index() as u32)
            .collect()
    }

    /// Events popped from this instance's queue (per-shard work measure).
    pub(crate) fn events_popped(&self) -> u64 {
        self.engine.queue.delivered()
    }

    /// Consumes the network and assembles the final [`SimReport`].
    ///
    /// `end` should be the time passed to the final
    /// [`run_until`](Network::run_until) call; series are closed at that
    /// instant.
    pub fn into_report(self, end: SimTime) -> SimReport {
        let Network { nodes, mut engine } = self;
        // Retire every departure up to the horizon so the forwarded
        // counters and the occupancy integrals are final. (Under lazy
        // train dispatch this is where the last trains are accounted.)
        for l in &mut engine.links {
            l.sync(end);
        }
        // Logical events plus one serialization per forwarded packet:
        // identical across dispatch modes, and numerically equal to the
        // popped-event count of the per-TxDone engine.
        let events_processed = engine.logical_events
            + engine
                .links
                .iter()
                .map(Link::forwarded_packets)
                .sum::<u64>();
        let flows = engine
            .monitors
            .into_iter()
            .zip(&engine.flows)
            .map(|(monitor, info)| monitor.finish(end, info.id, info.weight))
            .collect();
        let horizon = end.as_secs_f64();
        let links = engine
            .links
            .iter()
            .enumerate()
            .map(|(i, l)| LinkReport {
                id: LinkId::from_index(i),
                src: l.src(),
                dst: l.dst(),
                forwarded_packets: l.forwarded_packets(),
                forwarded_bytes: l.forwarded_bytes(),
                dropped_packets: l.dropped_packets(),
                peak_occupancy: l.peak_occupancy(),
                utilization: if horizon > 0.0 {
                    (l.forwarded_bytes() as f64 * 8.0) / (l.spec().bandwidth_bps as f64 * horizon)
                } else {
                    0.0
                },
            })
            .collect();
        let logic: crate::slab::DenseMap<NodeId, _> = nodes
            .iter()
            .enumerate()
            .map(|(i, slot)| (NodeId::from_index(i), slot.logic.report(end)))
            .collect();
        let stale_events = engine.stale_events;
        SimReport {
            end,
            flows,
            links,
            logic,
            events_processed,
            elided_notifications: engine.elided_notifications,
            churn: engine.churn.map(|c| c.finish(end, stale_events)),
        }
    }
}

impl Engine {
    /// Mints the next canonical key for `site` (see [`KEY_SITE_SHIFT`]).
    ///
    /// # Panics
    ///
    /// Panics when `site` has minted all 2^40 of its keys: the next one
    /// would alias the following site's first key and silently break the
    /// `(time, key)` total order every identity argument rests on.
    #[inline]
    fn next_key(&mut self, site: u64) -> u64 {
        let counter = &mut self.site_counters[site as usize];
        if *counter >= 1 << KEY_SITE_SHIFT {
            key_space_exhausted(site);
        }
        let key = ((site + 1) << KEY_SITE_SHIFT) | *counter;
        *counter += 1;
        key
    }

    /// Whether this instance executes `node` (always true when serial).
    #[inline]
    fn owns(&self, node: NodeId) -> bool {
        self.shard
            .as_ref()
            .is_none_or(|v| v.shard_of_node[node.index()] == v.me)
    }

    /// Whether this instance is the designated counter of fully
    /// replicated work (serial, or shard 0).
    #[inline]
    fn is_lead(&self) -> bool {
        self.shard.as_ref().is_none_or(|v| v.me == 0)
    }

    /// Keys a fresh event at `site` and routes it: locally queued, or —
    /// when its destination node belongs to another shard — into the
    /// outbox for the next barrier exchange. The site counter advances
    /// either way, keeping key streams identical across shards.
    fn push_event(&mut self, time: SimTime, site: u64, event: Event) {
        let key = self.next_key(site);
        let dst = match &event {
            Event::Arrive { node, .. }
            | Event::Timer { node, .. }
            | Event::Control { node, .. } => Some(*node),
            // `TxDone` syncs a link the executing node owns; lifecycle and
            // churn events are replicated rather than routed.
            Event::TxDone { .. }
            | Event::FlowStart { .. }
            | Event::FlowStop { .. }
            | Event::ChurnArrival
            | Event::ChurnRetire { .. } => None,
        };
        if let (Some(v), Some(node)) = (&self.shard, dst) {
            let shard = v.shard_of_node[node.index()];
            if shard != v.me {
                debug_assert!(
                    v.lookahead.is_some_and(|l| time >= self.now + l),
                    "cross-shard event violates the lookahead promise"
                );
                self.outboxes[shard as usize].push((time, key, event));
                return;
            }
        }
        self.queue.push_keyed(time, key, event);
    }

    fn trace(&self, event: TraceEvent) {
        if let Some(tracer) = &self.tracer {
            tracer.borrow_mut().record(self.now, &event);
        }
    }

    /// Delivers the one-time `on_start` sweep. Each node's start runs on
    /// its owner only, under a pseudo-cursor key (`node.index()`, below
    /// every real event key) so captured records merge ahead of all t=0
    /// events in node order — exactly the serial sweep order.
    fn start_if_needed(&mut self, nodes: &mut [NodeSlot]) {
        if self.started {
            return;
        }
        self.started = true;
        for i in 0..nodes.len() {
            let node = NodeId::from_index(i);
            if !self.owns(node) {
                continue;
            }
            if let Some(cursor) = &self.cursor {
                cursor.set((SimTime::ZERO, i as u64));
            }
            self.with_logic(nodes, node, |logic, ctx| logic.on_start(ctx));
        }
    }

    /// Dispatches every pending event at or before `limit`, in
    /// `(time, key)` order; the clock stops at the last one.
    fn drain(&mut self, nodes: &mut [NodeSlot], limit: SimTime) {
        self.start_if_needed(nodes);
        while let Some((time, key, event)) = self.queue.pop_keyed_at_or_before(limit) {
            debug_assert!(time >= self.now, "event queue went backwards");
            self.now = time;
            self.current_key = key;
            if let Some(cursor) = &self.cursor {
                cursor.set((time, key));
            }
            self.dispatch(nodes, event);
        }
    }

    /// The instant `node`'s control plane resumes, if it is paused now.
    fn pause_end(&self, node: NodeId) -> Option<SimTime> {
        self.faults
            .as_ref()
            .and_then(|f| f.paused_until(node, self.now))
    }

    /// Whether this instance accounts `event` in `logical_events` and any
    /// per-event staleness. Node-addressed events only ever reach their
    /// owner, so they always count; replicated lifecycle events are
    /// processed by every shard but counted once, by the owner of the
    /// slot's *current* occupant's ingress (identical on every shard, so
    /// the choice is deterministic); the churn arrival process itself is
    /// counted by the lead shard.
    fn counts(&self, event: &Event) -> bool {
        match event {
            Event::TxDone { .. } => false,
            Event::Arrive { .. } | Event::Timer { .. } | Event::Control { .. } => true,
            Event::FlowStart { flow } | Event::FlowStop { flow } | Event::ChurnRetire { flow } => {
                self.owns(self.flows[flow.index()].ingress())
            }
            Event::ChurnArrival => self.is_lead(),
        }
    }

    fn dispatch(&mut self, nodes: &mut [NodeSlot], event: Event) {
        let counting = self.counts(&event);
        self.logical_events += u64::from(counting);
        match event {
            Event::Arrive { node, packet } => self.handle_arrive(nodes, node, packet),
            // A checkpoint: retire the link's departures up to now. The
            // train path does the same lazily, so this changes nothing
            // observable — it only restores per-packet event granularity.
            Event::TxDone { link } => self.links[link.index()].sync(self.now),
            Event::Timer { node, timer } => {
                if let Some(until) = self.pause_end(node) {
                    // Defer to the pause's end so self-rescheduling timer
                    // chains (epochs, pacing) resume afterwards.
                    self.trace(TraceEvent::Fault {
                        kind: FaultKind::RouterPaused,
                        node,
                        flow: None,
                    });
                    self.push_event(until, node_site(node), Event::Timer { node, timer });
                    return;
                }
                self.with_logic(nodes, node, |logic, ctx| logic.on_timer(ctx, timer));
            }
            Event::Control { node, msg } => {
                if self.admit_control(node, msg) {
                    self.with_logic(nodes, node, |logic, ctx| logic.on_control(ctx, msg));
                }
            }
            Event::FlowStart { flow } => {
                let again = Event::FlowStart { flow };
                let Some(ingress) = self.lifecycle_gate(flow, counting, again) else {
                    return;
                };
                // A start that slid (via pause deferral) outside its
                // activation window is stale: the flow is not scheduled
                // to run now, so starting it would contradict the
                // schedule the monitors and reference solvers see. A
                // start for a window the slot is already started in (two
                // deferred starts landing in the same window) is equally
                // stale — but a start for a *later* window goes through
                // even when the previous window's stop was swallowed by
                // a pause, so a restart is never lost.
                let window = self.flows[flow.index()].activation_index_at(self.now);
                let Some(window) = window else {
                    self.stale_events += u64::from(counting);
                    return;
                };
                if self.lifecycle_started[flow.index()] == Some(window as u32) {
                    self.stale_events += u64::from(counting);
                    return;
                }
                self.lifecycle_started[flow.index()] = Some(window as u32);
                // Replicated on every shard (like the bookkeeping above)
                // so the *egress* owner — which may not be the counting
                // shard — starts the new activation with a fresh receiver.
                self.rx_next[flow.index()] = 0;
                if counting {
                    self.with_logic(nodes, ingress, |logic, ctx| logic.on_flow_start(ctx, flow));
                }
            }
            Event::FlowStop { flow } => {
                let again = Event::FlowStop { flow };
                let Some(ingress) = self.lifecycle_gate(flow, counting, again) else {
                    return;
                };
                // A deferred stop landing inside a *later* activation
                // window is stale: delivering it would kill the new
                // activation (the stop's own window already ended, or it
                // would not have been deferred past its instant). A stop
                // for a slot that never (or no longer) counts as started
                // is stale too — its start was itself discarded.
                if self.flows[flow.index()].is_active_at(self.now)
                    || self.lifecycle_started[flow.index()].is_none()
                {
                    self.stale_events += u64::from(counting);
                    return;
                }
                self.lifecycle_started[flow.index()] = None;
                let transient = self.flows[flow.index()].is_transient();
                if counting {
                    self.with_logic(nodes, ingress, |logic, ctx| logic.on_flow_stop(ctx, flow));
                }
                if transient {
                    if let Some(churn) = self.churn.as_mut() {
                        churn.note_stop(self.now, flow.index());
                    }
                }
            }
            Event::ChurnArrival => self.handle_churn_arrival(),
            Event::ChurnRetire { flow } => self.handle_churn_retire(flow),
        }
    }

    /// What a `FlowStart` and a `FlowStop` for `flow` open with; `again`
    /// is the event itself. Lifecycle events are replicated on every
    /// shard: the slot bookkeeping their handlers do must advance
    /// everywhere, while staleness accounting, traces and the logic
    /// callback belong to the `counting` shard (the ingress owner) alone.
    /// Returns the flow's ingress, or `None` when the event is dealt
    /// with: addressed to the slot's previous occupant (stale), or put
    /// off to the end of the ingress's pause.
    fn lifecycle_gate(&mut self, flow: FlowId, counting: bool, again: Event) -> Option<NodeId> {
        if self.flows[flow.index()].id != flow {
            self.stale_events += u64::from(counting);
            return None;
        }
        let ingress = self.flows[flow.index()].ingress();
        if let Some(until) = self.pause_end(ingress) {
            if counting {
                self.trace(TraceEvent::Fault {
                    kind: FaultKind::RouterPaused,
                    node: ingress,
                    flow: Some(flow),
                });
            }
            self.push_event(until, SITE_GLOBAL, again);
            return None;
        }
        Some(ingress)
    }

    /// Everything the arrival of `msg` at `node` does short of calling
    /// the logic: the staleness and pause checks and the trace record.
    /// Returns whether the logic is to see the message.
    fn admit_control(&mut self, node: NodeId, msg: ControlMsg) -> bool {
        let flow = msg.flow();
        let is_feedback = matches!(msg, ControlMsg::MarkerFeedback { .. });
        // A control message that outlived its flow's slot (the slot was
        // recycled to a new generation) must not be delivered as if it
        // concerned the new occupant.
        if self.flows[flow.index()].id != flow {
            self.stale_events += 1;
            return false;
        }
        if self.pause_end(node).is_some() {
            // A paused control plane cannot receive signalling.
            self.trace(TraceEvent::Fault {
                kind: FaultKind::ControlLost,
                node,
                flow: Some(flow),
            });
            return false;
        }
        self.trace(TraceEvent::Control {
            node,
            flow,
            is_feedback,
        });
        true
    }

    /// Creates the next churn flow: draws its route, weight and size,
    /// installs it in a (possibly recycled) table slot, and schedules its
    /// lifecycle events.
    fn handle_churn_arrival(&mut self) {
        let now = self.now;
        let churn = self.churn.as_mut().expect("ChurnArrival without churn");
        let plan = churn.plan_arrival(now);
        let linger = churn.linger();
        let route = Rc::clone(churn.route(plan.route));
        if let Some(next) = plan.next_arrival {
            self.push_event(next, SITE_GLOBAL, Event::ChurnArrival);
        }
        let id = FlowId::with_generation(plan.slot, plan.generation);
        if plan.fresh {
            debug_assert_eq!(plan.slot, self.flows.len(), "fresh slot extends the table");
            // simlint: allow(hot-alloc) a fresh slot extends every table; a recycled one (below) reuses its own
            let window = vec![(now, Some(plan.stop))];
            self.flows
                .push(FlowInfo::new(id, plan.weight, PACKET_SIZE, 0.0, route, window).transient());
            self.monitors.push(FlowMonitor::new(now, self.window));
            self.lifecycle_started.push(None);
            self.rx_next.push(0);
        } else {
            self.flows[plan.slot].reoccupy(id, plan.weight, route, now, plan.stop);
            self.monitors[plan.slot] = FlowMonitor::new(now, self.window);
            self.rx_next[plan.slot] = 0;
            // The previous occupant's stop may still sit deferred behind
            // a pause; its delivery is blocked by the generation guard,
            // so the new occupant starts from a clean lifecycle state.
            self.lifecycle_started[plan.slot] = None;
        }
        // Deliver the start through the regular (pause-aware) path, and
        // schedule the stop and the slot's retirement after the drain.
        self.push_event(now, SITE_GLOBAL, Event::FlowStart { flow: id });
        self.push_event(plan.stop, SITE_GLOBAL, Event::FlowStop { flow: id });
        let retire = plan.stop.checked_add(linger).unwrap_or(SimTime::MAX);
        self.push_event(retire, SITE_GLOBAL, Event::ChurnRetire { flow: id });
    }

    /// Finalizes a drained churn flow: records its completion metrics and
    /// returns its slot to the free list.
    fn handle_churn_retire(&mut self, flow: FlowId) {
        let idx = flow.index();
        debug_assert_eq!(
            self.flows[idx].id, flow,
            "slot recycled before its retire event"
        );
        let delivered = self.monitors[idx].deliveries();
        self.churn
            .as_mut()
            .expect("ChurnRetire without churn")
            .retire(self.now, idx, delivered);
    }

    fn handle_arrive(&mut self, nodes: &mut [NodeSlot], node: NodeId, packet: Packet) {
        let flow = &self.flows[packet.flow.index()];
        // A packet still in flight when its slot was recycled belongs to
        // the previous generation; it must not be forwarded along (or
        // accounted to) the new occupant's flow.
        if flow.id != packet.flow {
            self.stale_events += 1;
            return;
        }
        if flow.egress() == node {
            match packet.seq {
                None => self.deliver(node, &packet),
                Some(si) => self.handle_gbn_arrival(node, &packet, si),
            }
        } else if self.pause_end(node).is_some() {
            // A paused router's data plane keeps moving packets, but its
            // control plane does not run: forward blindly along the path
            // with no marking, detection, or shaping.
            let next_hop = flow.next_hop(node);
            self.trace(TraceEvent::Fault {
                kind: FaultKind::RouterPaused,
                node,
                flow: Some(packet.flow),
            });
            if let Some(link) = next_hop {
                self.forward(node, link, packet);
            }
        } else {
            self.with_logic(nodes, node, |logic, ctx| logic.on_packet(ctx, packet));
        }
    }

    /// Accounts `packet` as delivered at its egress `node`.
    fn deliver(&mut self, node: NodeId, packet: &Packet) {
        self.trace(TraceEvent::Deliver {
            node,
            packet: packet.id,
            flow: packet.flow,
        });
        let delay = self.now.saturating_since(packet.sent_at);
        self.monitors[packet.flow.index()].record_delivery(self.now, packet.size, delay);
    }

    /// The egress side of the go-back-N transport: deliver in-order
    /// packets, discard (but account) duplicates and out-of-order
    /// arrivals, and send a cumulative ack back to the ingress along the
    /// reverse path.
    ///
    /// Retransmitted packets keep their *original* `sent_at`, so an
    /// in-order retransmit's delivery delay spans back to the first
    /// attempt (flow-completion accounting sees when the byte was first
    /// offered). The ack echoes that timestamp together with the
    /// retransmit flag so the sender's RTT estimator can apply Karn's
    /// rule and skip the ambiguous sample.
    fn handle_gbn_arrival(&mut self, node: NodeId, packet: &Packet, si: crate::packet::SeqInfo) {
        let idx = packet.flow.index();
        if si.seq == self.rx_next[idx] {
            self.rx_next[idx] = si.seq + 1;
            self.deliver(node, packet);
        } else {
            // A go-back-N receiver accepts only the next in-order
            // sequence number; everything else (redelivered windows
            // after an RTO, reordered arrivals) is discarded without
            // touching the goodput counters.
            self.monitors[idx].record_duplicate(packet.size);
        }
        // Every arrival is (re-)acked cumulatively — duplicate acks are
        // the sender's fast-retransmit signal.
        let flow = &self.flows[idx];
        debug_assert_eq!(flow.egress(), node, "gbn ack sink off the egress");
        let delay = flow.one_way_delay();
        let ingress = flow.ingress();
        let msg = ControlMsg::Ack {
            flow: packet.flow,
            cum_seq: self.rx_next[idx],
            echo: packet.sent_at,
            retx: si.retransmit,
        };
        self.push_control(node, ingress, delay, msg);
    }

    /// Calls `node`'s logic with a [`Ctx`] over this engine.
    fn with_logic<F>(&mut self, nodes: &mut [NodeSlot], node: NodeId, f: F)
    where
        F: FnOnce(&mut dyn RouterLogic, &mut Ctx<'_>),
    {
        let slot = &mut nodes[node.index()];
        f(
            slot.logic.as_mut(),
            &mut Ctx::new(self, node, &slot.outgoing),
        );
    }

    /// Offers `packet` to `link` on behalf of `node` ([`Ctx::forward`],
    /// and a paused router's blind forwarding).
    pub(crate) fn forward(&mut self, node: NodeId, link: LinkId, mut packet: Packet) {
        if self
            .faults
            .as_ref()
            .is_some_and(|f| f.link_down(link, self.now))
        {
            self.trace(TraceEvent::Fault {
                kind: FaultKind::LinkDown,
                node,
                flow: Some(packet.flow),
            });
            self.record_drop(node, &packet, DropReason::Fault);
            return;
        }
        if packet.marker.is_some() {
            let stripped = self
                .faults
                .as_mut()
                .is_some_and(|f| f.marker_stripped(link));
            if stripped {
                packet.marker = None;
                self.trace(TraceEvent::Fault {
                    kind: FaultKind::MarkerStripped,
                    node,
                    flow: Some(packet.flow),
                });
            }
        }
        // The whole transmission is resolved at enqueue: `offer` computes
        // the FIFO departure time, so the delivery event can be scheduled
        // immediately and no per-packet TxDone is needed (a burst becomes
        // one train of Arrives).
        let accepted = {
            let l = &mut self.links[link.index()];
            assert_eq!(
                l.src(),
                node,
                "node {node} forwarded on link {link} it does not own"
            );
            l.offer(self.now, packet.size)
                .map(|dep| (dep, l.queue_len(self.now), l.dst(), l.spec().delay))
        };
        match accepted {
            Some((dep, queue_len, dst, prop)) => {
                self.trace(TraceEvent::Enqueue {
                    link,
                    packet: packet.id,
                    flow: packet.flow,
                    queue_len,
                });
                if self.dispatch == DispatchMode::PerPacket {
                    self.push_event(dep, node_site(node), Event::TxDone { link });
                }
                self.push_event(
                    dep + prop,
                    node_site(node),
                    Event::Arrive { node: dst, packet },
                );
            }
            // `offer` already counted the tail drop on the link; the
            // packet stays with us for flow-level accounting.
            None => self.record_drop(node, &packet, DropReason::Tail),
        }
    }

    /// Schedules `timer` on `node` after `delay` ([`Ctx::set_timer`]).
    pub(crate) fn push_timer(&mut self, node: NodeId, delay: SimDuration, timer: TimerKind) {
        self.push_event(
            self.now + delay,
            node_site(node),
            Event::Timer { node, timer },
        );
    }

    /// Schedules a control message sent by `from` for delivery after
    /// `delay`, applying any configured control-plane faults (loss, extra
    /// delay/jitter). Fault draws come from `from`'s dedicated stream, so
    /// a shard executing `from` reproduces the serial draw sequence
    /// without seeing any other node's sends.
    ///
    /// **Elided notifications.** A [`ControlMsg::Loss`] that `from` sends
    /// itself with no delay, while executing one of its own events, to a
    /// logic that [ignores losses](Ctx::ignore_loss_notifications), is
    /// accounted here instead of queued: it mints its key, counts as a
    /// logical event and is traced exactly as its dispatch would have
    /// been, and only the logic call that does nothing is skipped. Had it
    /// been queued it would have popped at this same instant, after the
    /// instant's GLOBAL events (the current key is a node's, so those are
    /// done) and with only node-site events in between, which change
    /// neither the flow table nor the pause schedule `admit_control`
    /// reads — so every count, key and fault draw of the run is the same
    /// (DESIGN.md §9).
    pub(crate) fn push_control(
        &mut self,
        from: NodeId,
        to: NodeId,
        delay: SimDuration,
        msg: ControlMsg,
    ) {
        let flow = msg.flow();
        // Decide first, trace after: the fault state needs `&mut self`
        // while tracing borrows `&self`.
        let (lost, extra) = match self.faults.as_mut() {
            Some(f) => {
                if f.control_lost(from) {
                    (true, SimDuration::ZERO)
                } else {
                    (false, f.control_extra_delay(from))
                }
            }
            None => (false, SimDuration::ZERO),
        };
        if lost {
            self.trace(TraceEvent::Fault {
                kind: FaultKind::ControlLost,
                node: to,
                flow: Some(flow),
            });
            return;
        }
        if !extra.is_zero() {
            self.trace(TraceEvent::Fault {
                kind: FaultKind::ControlDelayed,
                node: to,
                flow: Some(flow),
            });
        }
        if from == to
            && matches!(msg, ControlMsg::Loss { .. })
            && (delay + extra).is_zero()
            && self.ignores_loss[to.index()]
            // In a node event: their keys carry prefixes from 2 up, a
            // lifecycle callback runs under GLOBAL's 1, `on_start` under 0.
            && self.current_key >> KEY_SITE_SHIFT > SITE_GLOBAL + 1
        {
            self.next_key(node_site(from));
            self.logical_events += 1;
            self.elided_notifications += 1;
            self.admit_control(to, msg);
            return;
        }
        self.push_event(
            self.now + delay + extra,
            node_site(from),
            Event::Control { node: to, msg },
        );
    }

    pub(crate) fn record_drop(&mut self, at: NodeId, packet: &Packet, reason: DropReason) {
        // Stale-generation packets are not accounted to the slot's new
        // occupant (mirrors the delivery-side guard in `handle_arrive`).
        if self.flows[packet.flow.index()].id != packet.flow {
            self.stale_events += 1;
            return;
        }
        self.trace(TraceEvent::Drop {
            node: at,
            packet: packet.id,
            flow: packet.flow,
            reason,
        });
        self.monitors[packet.flow.index()].record_drop(reason);
        let flow = &self.flows[packet.flow.index()];
        // The drop site is always on the flow's path; notify the
        // ingress after the reverse propagation delay.
        if let Some(hop) = flow.hop_at(at) {
            let delay = hop.reverse_delay;
            let ingress = flow.ingress();
            let msg = ControlMsg::Loss {
                flow: packet.flow,
                at,
            };
            self.push_control(at, ingress, delay, msg);
        }
    }
}

/// Runs `f` as a callback of a one-node network and returns the params
/// of the timers it set, in firing order.
#[cfg(test)]
pub(crate) fn timer_params_set_by(f: impl FnOnce(&mut Ctx<'_>)) -> Vec<u64> {
    let mut b = crate::topology::TopologyBuilder::new(0);
    let node = b.node("n", |_| Box::new(crate::logic::ForwardLogic));
    let Network {
        mut nodes,
        mut engine,
    } = b.build();
    engine.with_logic(&mut nodes, node, |_, ctx| f(ctx));
    std::iter::from_fn(|| engine.queue.pop())
        .map(|(_, event)| match event {
            Event::Timer { timer, .. } => timer.param,
            other => panic!("unexpected {other:?}"),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::FlowSpec;
    use crate::link::LinkSpec;
    use crate::logic::{CbrSource, ForwardLogic};
    use crate::topology::TopologyBuilder;

    fn fast_link() -> LinkSpec {
        LinkSpec::new(4_000_000, SimDuration::from_millis(40), 40)
    }

    /// src --40ms--> mid --40ms--> dst, CBR 100 pkt/s, capacity 500 pkt/s.
    fn chain(rate: f64) -> (Network, FlowId) {
        let mut b = TopologyBuilder::new(11);
        let src = b.node("src", move |_| Box::new(CbrSource::new(rate)));
        let mid = b.node("mid", |_| Box::new(ForwardLogic));
        let dst = b.node("dst", |_| Box::new(ForwardLogic));
        b.link(src, mid, fast_link());
        b.link(mid, dst, fast_link());
        let f = b.flow(FlowSpec::new(vec![src, mid, dst], 1).active(SimTime::ZERO, None));
        (b.build(), f)
    }

    #[test]
    fn cbr_traffic_is_delivered_at_source_rate() {
        let (mut net, f) = chain(100.0);
        let end = SimTime::from_secs(10);
        net.run_until(end);
        let report = net.into_report(end);
        let fr = report.flow(f);
        // 100 pkt/s for 10 s minus packets still in flight at the end
        // (≈ 84 ms of pipeline ⇒ up to ~9 packets).
        assert!(
            (988..=1000).contains(&(fr.delivered_packets as i64)),
            "delivered {}",
            fr.delivered_packets
        );
        assert_eq!(fr.total_drops(), 0);
        // End-to-end delay: 2 hops × (2 ms tx + 40 ms prop) = 84 ms.
        assert!(
            (fr.mean_delay_secs - 0.084).abs() < 1e-3,
            "delay {}",
            fr.mean_delay_secs
        );
    }

    #[test]
    fn goodput_series_tracks_source_rate() {
        let (mut net, f) = chain(100.0);
        let end = SimTime::from_secs(10);
        net.run_until(end);
        let report = net.into_report(end);
        let mean = report
            .flow(f)
            .mean_goodput_in(SimTime::from_secs(2), SimTime::from_secs(10))
            .expect("goodput window lies within the run");
        assert!((mean - 100.0).abs() < 2.0, "mean goodput {mean}");
    }

    #[test]
    fn overload_tail_drops_and_notifies() {
        // 1000 pkt/s into a 500 pkt/s link: half the traffic must drop.
        let (mut net, f) = chain(1000.0);
        let end = SimTime::from_secs(5);
        net.run_until(end);
        let report = net.into_report(end);
        let fr = report.flow(f);
        assert!(fr.tail_drops > 1000, "drops {}", fr.tail_drops);
        let delivered = fr.delivered_packets as f64;
        assert!(
            (delivered - 2500.0).abs() < 100.0,
            "delivered {delivered} should be near link capacity"
        );
        // Queue stayed bounded.
        assert!(report.links[0].peak_occupancy <= 40);
    }

    #[test]
    fn cumulative_series_is_monotonic() {
        let (mut net, f) = chain(200.0);
        let end = SimTime::from_secs(5);
        net.run_until(end);
        let report = net.into_report(end);
        let cum: Vec<f64> = report.flow(f).cumulative.iter().map(|(_, v)| v).collect();
        assert!(cum.windows(2).all(|w| w[1] >= w[0]));
        // The horizon is an exact window boundary: timestamps must still
        // be strictly increasing (no duplicated final sample).
        let times: Vec<SimTime> = report.flow(f).cumulative.iter().map(|(t, _)| t).collect();
        assert!(
            times.windows(2).all(|w| w[1] > w[0]),
            "duplicate cumulative sample at a window boundary"
        );
        assert_eq!(
            *cum.last().expect("cumulative series is never empty"),
            report.flow(f).delivered_packets as f64
        );
    }

    #[test]
    fn flow_activation_window_limits_traffic() {
        let mut b = TopologyBuilder::new(3);
        let src = b.node("src", |_| Box::new(CbrSource::new(100.0)));
        let dst = b.node("dst", |_| Box::new(ForwardLogic));
        b.link(src, dst, fast_link());
        let f = b.flow(
            FlowSpec::new(vec![src, dst], 1)
                .active(SimTime::from_secs(2), Some(SimTime::from_secs(4))),
        );
        let end = SimTime::from_secs(10);
        let mut net = b.build();
        net.run_until(end);
        let report = net.into_report(end);
        let delivered = report.flow(f).delivered_packets;
        assert!(
            (195..=201).contains(&delivered),
            "delivered {delivered}, expected ~200 over the 2 s window"
        );
    }

    #[test]
    fn restart_after_stop_resumes_traffic() {
        let mut b = TopologyBuilder::new(3);
        let src = b.node("src", |_| Box::new(CbrSource::new(100.0)));
        let dst = b.node("dst", |_| Box::new(ForwardLogic));
        b.link(src, dst, fast_link());
        let f = b.flow(
            FlowSpec::new(vec![src, dst], 1)
                .active(SimTime::ZERO, Some(SimTime::from_secs(1)))
                .active(SimTime::from_secs(3), Some(SimTime::from_secs(4))),
        );
        let end = SimTime::from_secs(5);
        let mut net = b.build();
        net.run_until(end);
        let report = net.into_report(end);
        let delivered = report.flow(f).delivered_packets;
        assert!(
            (195..=202).contains(&delivered),
            "delivered {delivered}, expected ~200 over two 1 s windows"
        );
        // Nothing delivered while the flow was inactive.
        let idle = report
            .flow(f)
            .mean_goodput_in(SimTime::from_secs(2), SimTime::from_secs(3))
            .expect("idle window lies within the run");
        assert!(idle < 5.0, "idle-period goodput {idle}");
    }

    #[test]
    fn run_until_is_resumable() {
        let (mut net, f) = chain(100.0);
        net.run_until(SimTime::from_secs(2));
        assert_eq!(net.now(), SimTime::from_secs(2));
        net.run_until(SimTime::from_secs(4));
        let report = net.into_report(SimTime::from_secs(4));
        assert!(report.flow(f).delivered_packets > 300);
    }

    #[test]
    fn run_until_never_rewinds_the_clock() {
        let (mut net, f) = chain(100.0);
        net.run_until(SimTime::from_secs(4));
        assert_eq!(net.now(), SimTime::from_secs(4));
        // A stale (earlier) horizon must not move time backwards.
        net.run_until(SimTime::from_secs(2));
        assert_eq!(net.now(), SimTime::from_secs(4));
        // And the network still works after the stale call.
        net.run_until(SimTime::from_secs(6));
        let report = net.into_report(SimTime::from_secs(6));
        let delivered = report.flow(f).delivered_packets;
        assert!(
            (590..=600).contains(&delivered),
            "delivered {delivered}, expected ~600 over 6 s"
        );
    }

    #[test]
    fn a_site_counter_at_its_bound_panics_naming_the_site() {
        let (mut net, _) = chain(100.0);
        let mid = 2; // site of node index 1
        let engine = &mut net.engine;
        engine.site_counters[mid] = (1 << KEY_SITE_SHIFT) - 1;
        // The last key of the site is still its own...
        assert_eq!(
            engine.next_key(mid as u64) >> KEY_SITE_SHIFT,
            mid as u64 + 1
        );
        // ...and the one after it would be the next site's first.
        let overflow_message = |engine: &mut Engine, site: u64| {
            let minted =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| engine.next_key(site)));
            *minted
                .expect_err("minting past the bound must panic")
                .downcast::<String>()
                .expect("a formatted panic message")
        };
        let message = overflow_message(engine, mid as u64);
        assert!(message.contains("node site n1"), "{message}");
        engine.site_counters[SITE_GLOBAL as usize] = 1 << KEY_SITE_SHIFT;
        let message = overflow_message(engine, SITE_GLOBAL);
        assert!(message.contains("global"), "{message}");
    }

    #[test]
    fn a_pending_event_is_its_payload_and_nothing_else() {
        // The canonical key lives in the queue's ordering entry alone; a
        // `(u64, Event)` payload would put 8 bytes back on every cell.
        assert_eq!(std::mem::size_of::<Event>(), 104);
        assert_eq!(EventQueue::<Event>::CELL_BYTES, 104);
    }

    #[test]
    fn node_count_is_bounded_by_the_key_layout() {
        // The key prefix of a node's site survives the shift for the
        // last legal node and loses its top bit for the next one.
        let prefix_fits = |node: usize| {
            let prefix = node_site(NodeId::from_index(node)) + 1;
            (prefix << KEY_SITE_SHIFT) >> KEY_SITE_SHIFT == prefix
        };
        assert!(prefix_fits(MAX_NODES - 1));
        assert!(!prefix_fits(MAX_NODES));
        check_node_count(MAX_NODES);
        let rejected = std::panic::catch_unwind(|| check_node_count(MAX_NODES + 1));
        let message = *rejected
            .expect_err("one node past the bound must panic")
            .downcast::<String>()
            .expect("a formatted panic message");
        assert!(message.contains(&MAX_NODES.to_string()), "{message}");
    }

    #[test]
    fn report_exposes_link_utilization() {
        let (mut net, _) = chain(250.0);
        let end = SimTime::from_secs(10);
        net.run_until(end);
        let report = net.into_report(end);
        // 250 pkt/s of 500 pkt/s capacity ⇒ ~50% utilization.
        let u = report.links[0].utilization;
        assert!((u - 0.5).abs() < 0.02, "utilization {u}");
    }
}

#[cfg(test)]
mod trace_tests {
    use std::cell::RefCell;
    use std::rc::Rc;

    use super::*;
    use crate::flow::FlowSpec;
    use crate::link::LinkSpec;
    use crate::logic::{CbrSource, ForwardLogic};
    use crate::topology::TopologyBuilder;
    use crate::trace::{CountingTracer, CsvTracer};

    #[test]
    fn counting_tracer_sees_all_event_kinds() {
        let tracer = Rc::new(RefCell::new(CountingTracer::default()));
        let mut b = TopologyBuilder::new(3);
        b.tracer(tracer.clone());
        // Overdriven link: enqueues, drops, deliveries and loss controls.
        let src = b.node("src", |_| Box::new(CbrSource::new(900.0)));
        let dst = b.node("dst", |_| Box::new(ForwardLogic));
        b.link(
            src,
            dst,
            LinkSpec::new(4_000_000, SimDuration::from_millis(10), 10),
        );
        b.flow(FlowSpec::new(vec![src, dst], 1).active(SimTime::ZERO, None));
        let end = SimTime::from_secs(5);
        let mut net = b.build();
        net.run_until(end);
        let report = net.into_report(end);
        let counts = *tracer.borrow();
        assert_eq!(counts.delivers, report.flows[0].delivered_packets);
        assert_eq!(counts.drops, report.flows[0].total_drops());
        // Every accepted packet is delivered except those still queued or
        // in flight at the horizon.
        // Bound: queue capacity (10) + one in service + packets inside
        // the 10 ms propagation pipe (~5 at 500 pkt/s).
        let outstanding = counts.enqueues - counts.delivers;
        assert!(outstanding <= 25, "outstanding {outstanding}");
        assert_eq!(
            counts.controls, counts.drops,
            "every drop produces one loss notification"
        );
        assert!(counts.drops > 0, "scenario should overdrive the queue");
    }

    #[test]
    fn csv_tracer_produces_parseable_rows() {
        let tracer = Rc::new(RefCell::new(CsvTracer::new(Vec::new())));
        let mut b = TopologyBuilder::new(3);
        b.tracer(tracer.clone());
        let src = b.node("src", |_| Box::new(CbrSource::new(50.0)));
        let dst = b.node("dst", |_| Box::new(ForwardLogic));
        b.link(
            src,
            dst,
            LinkSpec::new(4_000_000, SimDuration::from_millis(10), 40),
        );
        b.flow(FlowSpec::new(vec![src, dst], 1).active(SimTime::ZERO, None));
        let end = SimTime::from_secs(2);
        let mut net = b.build();
        net.run_until(end);
        drop(net);
        let rows = tracer.borrow().rows();
        assert!(rows > 100, "rows {rows}");
        // Times are non-decreasing in the emitted CSV.
        let tracer = Rc::try_unwrap(tracer).expect("sole owner").into_inner();
        let text =
            String::from_utf8(tracer.into_inner()).expect("CsvTracer emits only valid UTF-8");
        let mut last = 0.0f64;
        for line in text.lines().skip(1) {
            let t: f64 = line
                .split(',')
                .next()
                .expect("every CSV row starts with a time column")
                .parse()
                .expect("the time column is a decimal number");
            assert!(t >= last, "trace went backwards: {line}");
            last = t;
        }
    }
}

#[cfg(test)]
mod fault_tests {
    use std::cell::RefCell;
    use std::rc::Rc;

    use super::*;
    use crate::fault::FaultPlan;
    use crate::flow::FlowSpec;
    use crate::link::LinkSpec;
    use crate::logic::{CbrSource, Ctx, ForwardLogic, RouterLogic};
    use crate::packet::Marker;
    use crate::topology::TopologyBuilder;
    use crate::trace::CountingTracer;

    fn fast_link() -> LinkSpec {
        LinkSpec::new(4_000_000, SimDuration::from_millis(40), 40)
    }

    /// src --> mid --> dst with a CBR source and an installed fault plan.
    fn faulty_chain(rate: f64, plan: FaultPlan) -> (Network, FlowId, Rc<RefCell<CountingTracer>>) {
        let tracer = Rc::new(RefCell::new(CountingTracer::default()));
        let mut b = TopologyBuilder::new(11);
        b.tracer(tracer.clone());
        b.faults(plan);
        let src = b.node("src", move |_| Box::new(CbrSource::new(rate)));
        let mid = b.node("mid", |_| Box::new(ForwardLogic));
        let dst = b.node("dst", |_| Box::new(ForwardLogic));
        b.link(src, mid, fast_link());
        b.link(mid, dst, fast_link());
        let f = b.flow(FlowSpec::new(vec![src, mid, dst], 1).active(SimTime::ZERO, None));
        (b.build(), f, tracer)
    }

    #[test]
    fn total_control_loss_suppresses_all_notifications() {
        // Overdriven link: every drop would normally yield one loss
        // notification; with control_loss = 1.0 none may arrive.
        let (mut net, f, tracer) = faulty_chain(1000.0, FaultPlan::new().control_loss(1.0));
        let end = SimTime::from_secs(5);
        net.run_until(end);
        let report = net.into_report(end);
        let counts = *tracer.borrow();
        assert!(report.flow(f).tail_drops > 1000);
        assert_eq!(counts.controls, 0, "all control messages must be lost");
        assert_eq!(
            counts.faults,
            report.flow(f).tail_drops,
            "one ControlLost fault per suppressed notification"
        );
    }

    #[test]
    fn control_delay_defers_but_delivers_notifications() {
        let plan = FaultPlan::new().control_delay(SimDuration::from_millis(200), SimDuration::ZERO);
        let (mut net, f, tracer) = faulty_chain(1000.0, plan);
        let end = SimTime::from_secs(5);
        net.run_until(end);
        let report = net.into_report(end);
        let counts = *tracer.borrow();
        assert!(report.flow(f).tail_drops > 1000);
        // Delayed, not lost: notifications still arrive (except those
        // pushed past the horizon by the extra delay).
        assert!(counts.controls > 0);
        assert!(counts.faults > 0, "each delay is traced");
    }

    #[test]
    fn flap_window_drops_then_recovers() {
        let flap = FaultPlan::new().flap(
            LinkId::from_index(0),
            SimTime::from_secs(1),
            SimTime::from_secs(2),
        );
        let (mut net, f, _tracer) = faulty_chain(100.0, flap);
        let end = SimTime::from_secs(10);
        net.run_until(end);
        let report = net.into_report(end);
        let fr = report.flow(f);
        // One second of 100 pkt/s lost to the downed link.
        assert!(
            (95..=105).contains(&(fr.fault_drops as i64)),
            "fault drops {}",
            fr.fault_drops
        );
        assert_eq!(fr.tail_drops, 0);
        assert!(
            (885..=905).contains(&(fr.delivered_packets as i64)),
            "delivered {}",
            fr.delivered_packets
        );
        // Traffic resumed after the flap: goodput over [3 s, 10 s) is the
        // full source rate.
        let after = fr
            .mean_goodput_in(SimTime::from_secs(3), SimTime::from_secs(10))
            .expect("post-flap window lies within the run");
        assert!((after - 100.0).abs() < 2.0, "post-flap goodput {after}");
    }

    #[test]
    fn paused_ingress_defers_timer_chains() {
        // Pausing the source's control plane for [1 s, 2 s) stops its
        // emission timers; the chain resumes at the window's end.
        let pause = FaultPlan::new().pause(
            NodeId::from_index(0),
            SimTime::from_secs(1),
            SimTime::from_secs(2),
        );
        let (mut net, f, tracer) = faulty_chain(100.0, pause);
        let end = SimTime::from_secs(10);
        net.run_until(end);
        let report = net.into_report(end);
        let fr = report.flow(f);
        assert!(
            (885..=910).contains(&(fr.delivered_packets as i64)),
            "delivered {}, expected ~900 with 1 s of emissions deferred",
            fr.delivered_packets
        );
        assert_eq!(fr.total_drops(), 0);
        assert!(tracer.borrow().faults > 0);
    }

    #[test]
    fn paused_transit_router_blind_forwards() {
        // Pausing a mid-path router must not lose data packets: its data
        // plane keeps forwarding along the path.
        let pause = FaultPlan::new().pause(
            NodeId::from_index(1),
            SimTime::from_secs(1),
            SimTime::from_secs(2),
        );
        let (mut net, f, tracer) = faulty_chain(100.0, pause);
        let end = SimTime::from_secs(10);
        net.run_until(end);
        let report = net.into_report(end);
        let fr = report.flow(f);
        assert!(
            (988..=1000).contains(&(fr.delivered_packets as i64)),
            "delivered {}",
            fr.delivered_packets
        );
        assert_eq!(fr.total_drops(), 0);
        // ~100 blind-forwarded packets traced as RouterPaused faults.
        assert!(tracer.borrow().faults >= 95);
    }

    /// Emits CBR traffic with a marker on every packet.
    struct MarkingSource {
        gap: SimDuration,
        pacer: crate::pacer::Pacer,
    }

    impl RouterLogic for MarkingSource {
        fn on_flow_start(&mut self, ctx: &mut Ctx<'_>, flow: FlowId) {
            self.pacer.reset(flow.index());
            self.pacer.arm(ctx, flow.index(), SimDuration::ZERO);
        }

        fn on_timer(&mut self, ctx: &mut Ctx<'_>, timer: TimerKind) {
            let fired = self.pacer.fired(timer.param);
            let Some(flow) = fired.and_then(|slot| ctx.sending_flow(slot)) else {
                return;
            };
            let node = ctx.node();
            let packet = ctx.new_packet(flow).with_marker(Marker {
                flow,
                edge: node,
                normalized_rate: 1.0,
            });
            ctx.emit(packet);
            self.pacer.arm(ctx, flow.index(), self.gap);
        }
    }

    /// Counts marker-carrying packets passing through.
    #[derive(Default)]
    struct MarkerCounter {
        markers_seen: Rc<RefCell<u64>>,
    }

    impl RouterLogic for MarkerCounter {
        fn on_packet(&mut self, ctx: &mut Ctx<'_>, packet: Packet) {
            if packet.marker.is_some() {
                *self.markers_seen.borrow_mut() += 1;
            }
            ctx.emit(packet);
        }
    }

    fn marker_run(plan: FaultPlan) -> (u64, u64) {
        let seen = Rc::new(RefCell::new(0u64));
        let seen_handle = seen.clone();
        let mut b = TopologyBuilder::new(5);
        b.faults(plan);
        let src = b.node("src", |_| {
            Box::new(MarkingSource {
                gap: SimDuration::from_millis(10),
                pacer: crate::pacer::Pacer::new(77),
            })
        });
        let mid = b.node("mid", move |_| {
            Box::new(MarkerCounter {
                markers_seen: seen_handle,
            })
        });
        let dst = b.node("dst", |_| Box::new(ForwardLogic));
        b.link(src, mid, fast_link());
        b.link(mid, dst, fast_link());
        let f = b.flow(FlowSpec::new(vec![src, mid, dst], 1).active(SimTime::ZERO, None));
        let end = SimTime::from_secs(5);
        let mut net = b.build();
        net.run_until(end);
        let report = net.into_report(end);
        let delivered = report.flow(f).delivered_packets;
        let markers = *seen.borrow();
        (delivered, markers)
    }

    #[test]
    fn marker_strip_removes_markers_but_keeps_packets() {
        let (clean_delivered, clean_markers) = marker_run(FaultPlan::new());
        assert!(clean_markers >= 490, "markers {clean_markers}");

        let strip = FaultPlan::new().marker_loss(LinkId::from_index(0), 1.0);
        let (delivered, markers) = marker_run(strip);
        assert_eq!(markers, 0, "all markers must be stripped on link 0");
        assert_eq!(
            delivered, clean_delivered,
            "stripping markers must not lose data packets"
        );

        // Stripping on the second hop leaves the mid-node observation
        // intact.
        let strip_late = FaultPlan::new().marker_loss(LinkId::from_index(1), 1.0);
        let (_, markers_late) = marker_run(strip_late);
        assert_eq!(markers_late, clean_markers);
    }

    #[test]
    fn faulty_runs_are_deterministic() {
        let plan = FaultPlan::new()
            .control_loss(0.3)
            .control_delay(SimDuration::from_millis(5), SimDuration::from_millis(20))
            .flap(
                LinkId::from_index(1),
                SimTime::from_secs(2),
                SimTime::from_millis(2300),
            );
        let run = |plan: FaultPlan| {
            let (mut net, f, tracer) = faulty_chain(700.0, plan);
            let end = SimTime::from_secs(5);
            net.run_until(end);
            let report = net.into_report(end);
            let counts = *tracer.borrow();
            (
                report.flow(f).delivered_packets,
                report.flow(f).total_drops(),
                report.flow(f).fault_drops,
                counts,
            )
        };
        let a = run(plan.clone());
        let b = run(plan);
        assert_eq!(a, b, "same seed and plan must reproduce exactly");
        assert!(a.2 > 0, "flap must cause fault drops");
        assert!(a.3.faults > 0);
    }
}
