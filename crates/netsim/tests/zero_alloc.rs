//! Proof that steady-state dispatch performs zero heap allocations.
//!
//! A counting global allocator wraps the system allocator; after a
//! warmup that establishes every one-time capacity (the event queue's
//! payload slab and wheel buffers, link queues, monitor series, the flow
//! table under churn), continuing the simulation must not allocate at
//! all. This pins the engine's zero-alloc contract (ISSUE 4, DESIGN.md
//! §9): a callback's effects go straight to the link and the event queue,
//! with no per-callback collection in between, and a regression
//! reintroducing one fails here, not just in a profiler.
//!
//! This lives in its own integration-test binary so the allocator hook
//! does not interfere with other tests.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};

use netsim::flow::FlowSpec;
use netsim::ids::LinkId;
use netsim::link::LinkSpec;
use netsim::logic::{CbrSource, Ctx, ForwardLogic, RouterLogic, TimerKind};
use netsim::shard::run_sharded;
use netsim::telemetry::{Probe, RingProbe, Sample};
use netsim::topology::TopologyBuilder;
use netsim::{ChurnSpec, FlowId};
use sim_core::time::{SimDuration, SimTime};

thread_local! {
    /// Allocations made by this thread: a test measures its own work, not
    /// what the harness or a neighbouring test does meanwhile.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

fn count_one() {
    // `try_with`: a thread may free or allocate while it is torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

/// Counts every allocation and reallocation (frees are irrelevant to
/// the steady-state contract).
struct CountingAllocator;

// simlint: allow(hot-alloc) — this file measures allocations.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

#[test]
fn steady_state_dispatch_does_not_allocate() {
    // src --> mid --> dst chain, CBR at 200 pkt/s under a 500 pkt/s
    // link: forwarding, timers and transmissions but no drops. The
    // measurement window is pushed past the horizon so monitors do not
    // roll (window rolls allocate once per window by design).
    let link = LinkSpec::new(4_000_000, SimDuration::from_millis(40), 40);
    let mut b = TopologyBuilder::new(3);
    b.measurement_window(SimDuration::from_secs(10_000));
    let src = b.node("src", |_| Box::new(CbrSource::new(200.0)));
    let mid = b.node("mid", |_| Box::new(ForwardLogic));
    let dst = b.node("dst", |_| Box::new(ForwardLogic));
    b.link(src, mid, link);
    b.link(mid, dst, link);
    let f = b.flow(FlowSpec::new(vec![src, mid, dst], 1).active(SimTime::ZERO, None));
    let mut net = b.build();

    // Warmup: let every lazily-grown capacity reach its steady state,
    // and go once around the timer wheel (2^24 ticks ≈ 2199 simulated
    // seconds) so the measured window runs on a wheel that has wrapped.
    // (`freed_wheel_blocks_are_reused` shows 40 s are enough for
    // the capacities.)
    net.run_until(SimTime::from_secs(2_300));

    let before = allocations();
    net.run_until(SimTime::from_secs(2_400));
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "steady-state dispatch allocated {} times over 100 simulated seconds",
        after - before
    );

    // The run did real work both before and during the measured phase.
    let report = net.into_report(SimTime::from_secs(2_400));
    let fr = report.flow(f);
    assert!(
        fr.delivered_packets > 470_000,
        "delivered {}",
        fr.delivered_packets
    );
    assert_eq!(fr.total_drops(), 0);
}

const TIMER_SCAN: u32 = 9;

/// A forwarding logic that keeps slab-backed per-flow and per-link
/// state on the packet path — one `DenseMap` counter bumped per packet
/// plus an epoch-grained `key_bound` index scan over the whole slab.
/// Per-epoch discipline loops walk an `ActiveSet` instead (DESIGN.md
/// §12); the full scan is the costlier access pattern, so it must be
/// allocation-free too.
struct SlabCountingForward {
    per_flow: netsim::slab::DenseMap<FlowId, u64>,
    per_link: netsim::slab::DenseMap<LinkId, u64>,
    scanned: u64,
}

impl RouterLogic for SlabCountingForward {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(SimDuration::from_millis(100), TimerKind::tagged(TIMER_SCAN));
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, packet: netsim::packet::Packet) {
        let Some(link) = ctx.next_hop(packet.flow) else {
            return;
        };
        *self.per_flow.entry_or_insert_with(packet.flow, || 0) += 1;
        *self.per_link.entry_or_insert_with(link, || 0) += 1;
        ctx.forward(link, packet);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, timer: TimerKind) {
        // Allocation-free iteration: index scan over the slab's key
        // bound, skipping empty slots.
        for i in 0..self.per_flow.key_bound() {
            let flow = FlowId::from_index(i);
            if self.per_flow.get(&flow).is_some() {
                self.scanned += 1;
            }
        }
        ctx.set_timer(SimDuration::from_millis(100), timer);
    }
}

#[test]
fn slab_backed_dispatch_does_not_allocate() {
    // Same chain, but the mid node now updates DenseMap-held per-flow
    // and per-link state on every packet and walks the slab each epoch:
    // the state plane introduced by the flat-state refactor must be as
    // allocation-free in steady state as the event plane (slots are
    // grown once at first insert, then reused forever).
    let link = LinkSpec::new(4_000_000, SimDuration::from_millis(40), 40);
    let mut b = TopologyBuilder::new(3);
    b.measurement_window(SimDuration::from_secs(10_000));
    let src = b.node("src", |_| Box::new(CbrSource::new(200.0)));
    let mid = b.node("mid", |_| {
        Box::new(SlabCountingForward {
            per_flow: netsim::slab::DenseMap::new(),
            per_link: netsim::slab::DenseMap::new(),
            scanned: 0,
        })
    });
    let dst = b.node("dst", |_| Box::new(ForwardLogic));
    b.link(src, mid, link);
    b.link(mid, dst, link);
    let f = b.flow(FlowSpec::new(vec![src, mid, dst], 1).active(SimTime::ZERO, None));
    let mut net = b.build();

    // Warm past one full timer-wheel rotation, as above.
    net.run_until(SimTime::from_secs(2_300));

    let before = allocations();
    net.run_until(SimTime::from_secs(2_400));
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "slab-backed dispatch allocated {} times over 100 simulated seconds",
        after - before
    );

    let report = net.into_report(SimTime::from_secs(2_400));
    assert!(report.flow(f).delivered_packets > 470_000);
}

const TIMER_TELEMETRY: u32 = 7;

/// A forwarding logic that publishes telemetry samples on a 100 ms
/// clock — the epoch-grained cadence the Corelite/CSFQ hooks use.
struct PublishingForward;

impl RouterLogic for PublishingForward {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(
            SimDuration::from_millis(100),
            TimerKind::tagged(TIMER_TELEMETRY),
        );
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, timer: TimerKind) {
        ctx.publish(Sample::scalar("tick", 1.0));
        ctx.publish(Sample::for_flow("b_g", FlowId::from_index(0), 42.0));
        ctx.publish(Sample::for_link("q_avg", LinkId::from_index(1), 0.5));
        ctx.set_timer(SimDuration::from_millis(100), timer);
    }
}

#[test]
fn telemetry_publishing_does_not_allocate() {
    // Same chain as above, but the mid node publishes three samples per
    // 100 ms epoch into a RingProbe that wraps long before the measured
    // window: the telemetry hot path — `Ctx::publish` through
    // `RingProbe::record`, including the overwrite-oldest branch — must
    // be as allocation-free as dispatch itself (ISSUE 5).
    let probe = Rc::new(RefCell::new(RingProbe::with_capacity(1024)));
    let link = LinkSpec::new(4_000_000, SimDuration::from_millis(40), 40);
    let mut b = TopologyBuilder::new(3);
    b.measurement_window(SimDuration::from_secs(10_000));
    b.probe(probe.clone() as Rc<RefCell<dyn Probe>>);
    let src = b.node("src", |_| Box::new(CbrSource::new(200.0)));
    let mid = b.node("mid", |_| Box::new(PublishingForward));
    let dst = b.node("dst", |_| Box::new(ForwardLogic));
    b.link(src, mid, link);
    b.link(mid, dst, link);
    b.flow(FlowSpec::new(vec![src, mid, dst], 1).active(SimTime::ZERO, None));
    let mut net = b.build();

    // Warm past one full timer-wheel rotation, as above; by then the
    // ring has wrapped thousands of times.
    net.run_until(SimTime::from_secs(2_300));

    let before = allocations();
    net.run_until(SimTime::from_secs(2_400));
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "telemetry-enabled dispatch allocated {} times over 100 simulated seconds",
        after - before
    );

    // The probe really was recording the whole time.
    let p = probe.borrow();
    assert_eq!(p.len(), 1024, "ring should be full");
    assert!(
        p.dropped() > 10_000,
        "ring should have wrapped: {}",
        p.dropped()
    );
    assert!(p.iter().any(|r| r.sample.name == "b_g"));
}

const SLOTS: u64 = 500;
const TIMER_ONE_SLOT: u32 = 11;
const TIMER_ALL_SLOTS: u32 = 12;
const TIMER_SLOT: u32 = 13;

/// Arms a timer and forwards a packet for each of [`SLOTS`] slots, twice:
/// first one slot per callback (a chain of zero-delay timers, all at one
/// instant), then — one lap of the wheel's level 2 later, so every event
/// lands where its twin did — all of them in a single callback, whose
/// allocations it counts.
struct SlotBurst {
    in_one_callback: Rc<Cell<Option<u64>>>,
}

impl SlotBurst {
    fn serve_slot(ctx: &mut Ctx<'_>, slot: u64) {
        let packet = ctx.new_packet(FlowId::from_index(0));
        ctx.emit(packet);
        ctx.set_timer(
            SimDuration::from_millis(20),
            TimerKind::with_param(TIMER_SLOT, slot),
        );
    }
}

impl RouterLogic for SlotBurst {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(SimDuration::from_secs(1), TimerKind::tagged(TIMER_ONE_SLOT));
        // 2^17 ns ticks × 64^3: where the wheel's level 2 wraps.
        let lap = SimDuration::from_nanos(1 << (17 + 18));
        ctx.set_timer(
            SimDuration::from_secs(1) + lap,
            TimerKind::tagged(TIMER_ALL_SLOTS),
        );
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, timer: TimerKind) {
        match timer.tag {
            TIMER_ONE_SLOT if timer.param < SLOTS => {
                Self::serve_slot(ctx, timer.param);
                let next = TimerKind::with_param(TIMER_ONE_SLOT, timer.param + 1);
                ctx.set_timer(SimDuration::ZERO, next);
            }
            TIMER_ALL_SLOTS => {
                let before = allocations();
                for slot in 0..SLOTS {
                    Self::serve_slot(ctx, slot);
                }
                self.in_one_callback.set(Some(allocations() - before));
            }
            _ => {}
        }
    }
}

#[test]
fn a_burst_of_effects_allocates_nothing() {
    // Once the queue has held as many pending events, a thousand effects
    // from one callback allocate nothing: each goes to its link and into
    // the event queue as it is called, and there is no buffer in between
    // left to grow. (The command queue this replaced kept 8 actions
    // inline and 64 in a spill vector, which reallocated here.)
    let in_one_callback = Rc::new(Cell::new(None));
    let handle = in_one_callback.clone();
    let mut b = TopologyBuilder::new(3);
    b.measurement_window(SimDuration::from_secs(10_000));
    let src = b.node("src", move |_| {
        Box::new(SlotBurst {
            in_one_callback: handle,
        })
    });
    let dst = b.node("dst", |_| Box::new(ForwardLogic));
    b.link(
        src,
        dst,
        LinkSpec::new(400_000_000, SimDuration::from_millis(5), 1_000),
    );
    let f = b.flow(FlowSpec::new(vec![src, dst], 1).active(SimTime::ZERO, None));
    let end = SimTime::from_secs(40);
    let mut net = b.build();
    net.run_until(end);
    assert_eq!(in_one_callback.get(), Some(0));
    let report = net.into_report(end);
    assert_eq!(report.flow(f).delivered_packets, 2 * SLOTS);
}

#[test]
fn freed_wheel_blocks_are_reused() {
    // The chain of the first test, warmed for 40 s — one lap of wheel
    // level 2 and the first level-3 cascade — instead of a full rotation.
    // The 100 s that follow cross 186 level-2 slots (0.537 s each) and
    // three more level-3 slots, every crossing a cascade through the
    // levels below. A wheel whose slots each kept a buffer of their own
    // would allocate at every slot it fills for the first time, for the
    // first 37 minutes. Here every slot chains blocks from one arena, a
    // drained slot's blocks go back to its free list, and the next slot
    // to fill takes them from there, so the arena only grows with what
    // is pending at once and has what it needs after its first crossings.
    let link = LinkSpec::new(4_000_000, SimDuration::from_millis(40), 40);
    let mut b = TopologyBuilder::new(3);
    b.measurement_window(SimDuration::from_secs(10_000));
    let src = b.node("src", |_| Box::new(CbrSource::new(200.0)));
    let mid = b.node("mid", |_| Box::new(ForwardLogic));
    let dst = b.node("dst", |_| Box::new(ForwardLogic));
    b.link(src, mid, link);
    b.link(mid, dst, link);
    let f = b.flow(FlowSpec::new(vec![src, mid, dst], 1).active(SimTime::ZERO, None));
    let mut net = b.build();
    net.run_until(SimTime::from_secs(40));

    let before = allocations();
    net.run_until(SimTime::from_secs(140));
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "dispatch allocated {} times in the 100 s after a 40 s warmup",
        after - before
    );
    let report = net.into_report(SimTime::from_secs(140));
    assert!(report.flow(f).delivered_packets > 27_000);
}

#[test]
fn churn_on_recycled_slots_does_not_allocate() {
    // 2000 arrivals/s of ~10 ms flows between two forwarding nodes: about
    // 220 resident slots, each recycled some nine times a second. An
    // arrival -> start -> stop -> retire cycle on a recycled slot shares
    // its template's route, refills the slot's `FlowInfo` in place and
    // gets a monitor that owns no heap memory until a packet is
    // delivered — so it allocates nothing. Only a new concurrency record
    // extends the flow table, and after a long warmup the measured
    // window has none (the run is deterministic).
    let mut b = TopologyBuilder::new(3);
    b.measurement_window(SimDuration::from_secs(10_000));
    let ingress = b.node("ingress", |_| Box::new(ForwardLogic));
    let egress = b.node("egress", |_| Box::new(ForwardLogic));
    b.link(
        ingress,
        egress,
        LinkSpec::new(40_000_000, SimDuration::from_millis(5), 400),
    );
    b.churn(
        ChurnSpec::new(2_000.0, 10.0, 1_000.0)
            .route(vec![ingress, egress])
            .window(SimTime::ZERO, SimTime::from_secs(10_000))
            .linger(SimDuration::from_millis(100)),
    );
    let mut net = b.build();
    net.run_until(SimTime::from_secs(400));

    let (before, slots_before) = (allocations(), net.flows().len());
    net.run_until(SimTime::from_secs(420));
    let (after, slots_after) = (allocations(), net.flows().len());
    assert_eq!(slots_after, slots_before, "a fresh slot in the window");
    assert_eq!(
        after - before,
        0,
        "{} allocations over 20 s of churn on {slots_after} recycled slots",
        after - before,
    );
    let report = net.into_report(SimTime::from_secs(420));
    let churn = report.churn.expect("a churn process was installed");
    assert!(churn.arrivals > 800_000, "arrivals {}", churn.arrivals);
    assert!(churn.retired > 800_000, "retired {}", churn.retired);
    assert!(churn.peak_slots < 400, "slots {}", churn.peak_slots);
    assert_eq!(churn.stale_events, 0);
}

/// `STAMPS[node][i]`: the allocation count of the worker thread that owns
/// `node`, read inside its run at the `i`-th stamp instant.
static STAMPS: [[AtomicU64; 2]; 3] = [const { [const { AtomicU64::new(u64::MAX) }; 2] }; 3];

/// Wraps a node's logic and stamps its thread's allocation count at two
/// instants. A shard worker's allocations are invisible from the test
/// thread; a logic callback runs on the worker, so it can read them.
struct Stamping {
    node: usize,
    at: [SimTime; 2],
    stamped: usize,
    inner: Box<dyn RouterLogic>,
}

impl Stamping {
    /// The traffic is the clock: a timer of its own would put events into
    /// the wheel that the measured traffic does not.
    fn tick(&mut self, now: SimTime) {
        let due = self.at.iter().filter(|&&at| at <= now).count();
        for stamp in &STAMPS[self.node][self.stamped..due] {
            stamp.store(allocations(), Ordering::SeqCst);
        }
        self.stamped = due;
    }
}

impl RouterLogic for Stamping {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, packet: netsim::packet::Packet) {
        self.tick(ctx.now());
        self.inner.on_packet(ctx, packet);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, timer: TimerKind) {
        self.tick(ctx.now());
        self.inner.on_timer(ctx, timer);
    }

    fn on_flow_start(&mut self, ctx: &mut Ctx<'_>, flow: FlowId) {
        self.inner.on_flow_start(ctx, flow);
    }
}

#[test]
fn sharded_epoch_rounds_do_not_allocate() {
    // a <-> m <-> z with a CBR flow each way, on two shards: the
    // partitioner gives the two ingresses a shard each, so packets cross
    // the cut in both directions every 40 ms epoch. After the warm-up of
    // `freed_wheel_blocks_are_reused`, 100 s — 2500 exchange rounds,
    // 20 000 packets handed over each way — must allocate nothing on
    // either worker: outboxes are swapped whole into the mailboxes and
    // come back drained with their capacity. (A `mem::take`n outbox
    // regrew every round: 10 000 allocations over the same window.)
    let stamps = [SimTime::from_secs(40), SimTime::from_secs(140)];
    let end = SimTime::from_secs(141);
    let factory = || {
        let link = LinkSpec::new(4_000_000, SimDuration::from_millis(40), 40);
        let mut b = TopologyBuilder::new(3);
        b.measurement_window(SimDuration::from_secs(10_000));
        let mut node = |node: usize, name: &str, inner: Box<dyn RouterLogic>| {
            b.node(name, |_| {
                Box::new(Stamping {
                    node,
                    at: stamps,
                    stamped: 0,
                    inner,
                })
            })
        };
        let a = node(0, "a", Box::new(CbrSource::new(200.0)));
        let m = node(1, "m", Box::new(ForwardLogic));
        let z = node(2, "z", Box::new(CbrSource::new(200.0)));
        b.duplex_link(a, m, link);
        b.duplex_link(m, z, link);
        b.flow(FlowSpec::new(vec![a, m, z], 1).active(SimTime::ZERO, None));
        b.flow(FlowSpec::new(vec![z, m, a], 1).active(SimTime::ZERO, None));
        b
    };
    let outcome = run_sharded(factory, 2, end, false, false);

    assert!(
        outcome
            .per_shard_events
            .iter()
            .all(|&events| events > 50_000),
        "both shards worked: {:?}",
        outcome.per_shard_events
    );
    for flow in &outcome.report.flows {
        assert!(flow.delivered_packets > 27_000, "{flow:?}");
    }
    for (node, stamp) in STAMPS.iter().enumerate() {
        let [before, after] = [0, 1].map(|i| stamp[i].load(Ordering::SeqCst));
        assert!(after != u64::MAX, "node {node} never stamped");
        assert_eq!(
            after - before,
            0,
            "the worker owning node {node} allocated {} times over 2500 epoch rounds",
            after - before
        );
    }
}
