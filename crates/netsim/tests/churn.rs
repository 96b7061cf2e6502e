//! Behavioural tests for the churn subsystem: slot recycling under load,
//! memory bounded by the active set, byte-identical determinism, and the
//! flow-lifecycle staleness guards.

#![allow(clippy::float_cmp)]

use std::cell::RefCell;
use std::rc::Rc;

use netsim::fault::FaultPlan;
use netsim::flow::FlowSpec;
use netsim::link::LinkSpec;
use netsim::logic::{CbrSource, Ctx, ForwardLogic, RouterLogic, TimerKind};
use netsim::shard::run_sharded;
use netsim::topology::TopologyBuilder;
use netsim::{ChurnSpec, DispatchMode, FlowId};
use sim_core::event::QueueBackend;
use sim_core::time::{SimDuration, SimTime};

fn fast() -> LinkSpec {
    LinkSpec::new(40_000_000, SimDuration::from_millis(5), 400)
}

/// ingress --5ms--> egress with a CBR emitter at the ingress.
fn churn_net(
    spec_rate: f64,
    backend: QueueBackend,
    dispatch: DispatchMode,
) -> (netsim::Network, SimTime) {
    let mut b = TopologyBuilder::new(42);
    b.queue_backend(backend);
    b.dispatch_mode(dispatch);
    let e = b.node("ingress", |_| Box::new(CbrSource::new(200.0)));
    let x = b.node("egress", |_| Box::new(ForwardLogic));
    b.link(e, x, fast());
    b.churn(
        ChurnSpec::new(spec_rate, 10.0, 100.0)
            .route(vec![e, x])
            .weights(vec![1, 2, 4])
            .window(SimTime::ZERO, SimTime::from_secs(5))
            .linger(SimDuration::from_secs(1)),
    );
    (b.build(), SimTime::from_secs(8))
}

#[test]
fn churn_creates_completes_and_retires_flows() {
    let (mut net, end) = churn_net(20.0, QueueBackend::Wheel, DispatchMode::Train);
    net.run_until(end);
    let report = net.into_report(end);
    let churn = report.churn.as_ref().expect("churn report present");
    assert!(churn.arrivals > 50, "arrivals {}", churn.arrivals);
    assert_eq!(
        churn.retired, churn.arrivals,
        "every flow drains before the horizon"
    );
    assert!(
        churn.completed > churn.arrivals / 2,
        "completed {} of {}",
        churn.completed,
        churn.arrivals
    );
    // With a linger covering the 5 ms pipe, no packet ever outlives its
    // slot: the staleness guards must stay silent.
    assert_eq!(churn.stale_events, 0);
    // FCT and settling are sane: settling ≈ one-way delay, FCT bounded
    // by the flow's own duration plus the pipe.
    let settle = churn.settling.mean().expect("settling recorded");
    assert!(settle < 0.1, "mean settling {settle}");
    let fct = churn.mean_fct().expect("fct recorded");
    assert!(fct > settle && fct < 5.0, "mean fct {fct}");
    // Cohort totals reconcile with the global counters.
    let cohort_arrivals: u64 = churn.cohorts.iter().map(|c| c.arrivals).sum();
    let cohort_completed: u64 = churn.cohorts.iter().map(|c| c.completed).sum();
    assert_eq!(cohort_arrivals, churn.arrivals);
    assert_eq!(cohort_completed, churn.completed);
}

#[test]
fn recycled_slots_bound_the_flow_table() {
    let (mut net, end) = churn_net(40.0, QueueBackend::Wheel, DispatchMode::Train);
    net.run_until(end);
    let report = net.into_report(end);
    let churn = report.churn.as_ref().expect("churn report present");
    // ~200 arrivals, each alive ~0.1 s + 1 s linger ⇒ ~45 concurrent
    // slot occupants; the table must not grow with total arrivals.
    assert!(churn.arrivals > 120, "arrivals {}", churn.arrivals);
    assert!(
        churn.peak_slots < (churn.arrivals as usize) / 2,
        "peak_slots {} vs arrivals {}",
        churn.peak_slots,
        churn.arrivals
    );
    assert_eq!(report.flows.len(), churn.peak_slots);
    assert!(churn.peak_active as usize <= churn.peak_slots);
    // The active series returns to zero once the window closes and the
    // last flows drain.
    let (_, last) = churn.active_series.iter().last().expect("series sampled");
    assert_eq!(last, 0.0);
}

/// Regression: at 1e-9 pkt/s a 50-packet flow lives 5e10 s, past the
/// `u64` nanosecond clock, and the first arrival panicked converting
/// it. The lifetime now saturates and the flow outlives the run.
#[test]
fn a_lifetime_past_the_clock_outlives_the_run() {
    let mut b = TopologyBuilder::new(3);
    let e = b.node("ingress", |_| Box::new(CbrSource::new(200.0)));
    let x = b.node("egress", |_| Box::new(ForwardLogic));
    b.link(e, x, fast());
    let end = SimTime::from_secs(2);
    b.churn(
        ChurnSpec::new(10.0, 50.0, 1e-9)
            .route(vec![e, x])
            .window(SimTime::ZERO, end),
    );
    let mut net = b.build();
    net.run_until(end);
    let report = net.into_report(end);
    let churn = report.churn.as_ref().expect("churn report present");
    assert!(churn.arrivals > 0, "no arrival in 2 s at 10/s");
    assert_eq!(churn.retired, 0, "no flow can have stopped");
    assert!(
        report.flows[0].delivered_packets > 0,
        "first flow never ran"
    );
    let (_, active) = churn.active_series.iter().last().expect("series sampled");
    assert_eq!(active, churn.arrivals as f64, "every flow still active");
}

/// The acceptance bound: one million arrivals with memory O(active
/// flows). ForwardLogic ingresses emit nothing, so the run is pure
/// lifecycle machinery (~4 M events).
#[test]
fn million_flow_churn_keeps_resident_state_o_active() {
    let mut b = TopologyBuilder::new(7);
    let e = b.node("ingress", |_| Box::new(ForwardLogic));
    let x = b.node("egress", |_| Box::new(ForwardLogic));
    b.link(e, x, fast());
    // The cap, not the window, ends the process: exactly 1 M arrivals
    // (~50 s at 20 k/s), then a generous drain for the Pareto tail.
    b.churn(
        ChurnSpec::new(20_000.0, 10.0, 1_000.0)
            .route(vec![e, x])
            .window(SimTime::ZERO, SimTime::from_secs(200))
            .linger(SimDuration::from_millis(100))
            .max_arrivals(1_000_000),
    );
    let end = SimTime::from_secs(100);
    let mut net = b.build();
    net.run_until(end);
    let report = net.into_report(end);
    let churn = report.churn.as_ref().expect("churn report present");
    assert_eq!(churn.arrivals, 1_000_000);
    assert_eq!(churn.retired, 1_000_000);
    // Slot occupancy ≈ rate × (mean duration 10 ms + linger 100 ms)
    // ≈ 2200 expected; the Pareto tail pushes the peak above that, but
    // the table must stay three orders of magnitude below arrivals.
    assert!(
        churn.peak_slots < 10_000,
        "peak_slots {} is not O(active)",
        churn.peak_slots
    );
    assert_eq!(report.flows.len(), churn.peak_slots);
}

#[test]
fn churn_runs_are_byte_identical_across_backends_and_repeats() {
    let render = |backend, dispatch| {
        let (mut net, end) = churn_net(20.0, backend, dispatch);
        net.run_until(end);
        format!("{:?}", net.into_report(end))
    };
    let baseline = render(QueueBackend::Wheel, DispatchMode::Train);
    assert_eq!(
        baseline,
        render(QueueBackend::Wheel, DispatchMode::Train),
        "repeat run diverged"
    );
    assert_eq!(
        baseline,
        render(QueueBackend::Heap, DispatchMode::Train),
        "heap backend diverged"
    );
    assert_eq!(
        baseline,
        render(QueueBackend::Wheel, DispatchMode::PerPacket),
        "per-packet dispatch diverged"
    );
}

/// Two ingresses feeding two egresses through one core; arrivals pick
/// either route, so on a sharded run the completions are accounted on
/// more than one shard (a flow's egress owner holds its monitor).
fn two_egress_churn() -> TopologyBuilder {
    let mut b = TopologyBuilder::new(42);
    let a = b.node("a", |_| Box::new(CbrSource::new(200.0)));
    let c = b.node("c", |_| Box::new(CbrSource::new(300.0)));
    let m = b.node("m", |_| Box::new(ForwardLogic));
    let y = b.node("y", |_| Box::new(ForwardLogic));
    let z = b.node("z", |_| Box::new(ForwardLogic));
    let spec = LinkSpec::new(4_000_000, SimDuration::from_millis(10), 40);
    for (src, dst) in [(a, m), (c, m), (m, y), (m, z)] {
        b.link(src, dst, spec);
    }
    b.churn(
        ChurnSpec::new(60.0, 10.0, 100.0)
            .route(vec![a, m, y])
            .route(vec![c, m, z])
            .window(SimTime::ZERO, SimTime::from_secs(4))
            .linger(SimDuration::from_millis(500)),
    );
    b
}

/// Completion statistics are exact integers, so the shards' shares add
/// up to the serial run's, cohort by cohort and field for field.
#[test]
fn cohort_statistics_add_up_across_shards_to_the_serial_run() {
    let end = SimTime::from_secs(6);
    let mut net = two_egress_churn().build();
    net.run_until(end);
    let serial = net.into_report(end).churn.expect("churn report present");
    assert!(serial.completed > 100, "completed {}", serial.completed);
    let cohort_completed: u64 = serial.cohorts.iter().map(|c| c.completed).sum();
    assert_eq!(cohort_completed, serial.completed);
    for shards in [1, 2, 4] {
        let outcome = run_sharded(two_egress_churn, shards, end, false, false);
        let sharded = outcome.report.churn.expect("churn report present");
        assert_eq!(sharded.completed, serial.completed, "{shards} shards");
        assert_eq!(sharded.cohorts.len(), serial.cohorts.len());
        for (i, (got, want)) in sharded.cohorts.iter().zip(&serial.cohorts).enumerate() {
            let at = format!("cohort {i} at {shards} shards");
            assert_eq!(got.arrivals, want.arrivals, "{at}");
            assert_eq!(got.completed, want.completed, "{at}");
            assert_eq!(got.fct_sum_ns, want.fct_sum_ns, "{at}");
            assert_eq!(got.settling_sum_ns, want.settling_sum_ns, "{at}");
            assert_eq!(got.delivered_packets, want.delivered_packets, "{at}");
        }
        assert_eq!(
            format!("{sharded:?}"),
            format!("{serial:?}"),
            "{shards} shards"
        );
    }
}

/// Records the lifecycle callbacks its node receives.
#[derive(Debug)]
struct LifecycleRecorder {
    log: Rc<RefCell<Vec<(SimTime, &'static str)>>>,
}

impl RouterLogic for LifecycleRecorder {
    fn on_flow_start(&mut self, ctx: &mut Ctx<'_>, _flow: FlowId) {
        self.log.borrow_mut().push((ctx.now(), "start"));
    }

    fn on_flow_stop(&mut self, ctx: &mut Ctx<'_>, _flow: FlowId) {
        self.log.borrow_mut().push((ctx.now(), "stop"));
    }
}

/// Regression (flow-lifecycle bugfix): a control-plane pause deferring a
/// `FlowStop` to the exact instant a later activation window opens used
/// to deliver the stale stop *after* the new window's start — killing the
/// fresh activation. The dispatcher now drops a stop that lands inside an
/// active window.
#[test]
fn pause_deferred_stop_does_not_kill_a_restart() {
    let log = Rc::new(RefCell::new(Vec::new()));
    let handle = log.clone();
    let mut b = TopologyBuilder::new(5);
    let src = b.node("src", move |_| Box::new(LifecycleRecorder { log: handle }));
    let dst = b.node("dst", |_| Box::new(ForwardLogic));
    b.link(src, dst, fast());
    // Pause the ingress over the first window's stop; the pause ends
    // exactly when the second window starts.
    b.faults(FaultPlan::new().pause(src, SimTime::from_millis(900), SimTime::from_secs(3)));
    b.flow(
        FlowSpec::new(vec![src, dst], 1)
            .active(SimTime::ZERO, Some(SimTime::from_secs(1)))
            .active(SimTime::from_secs(3), Some(SimTime::from_secs(4))),
    );
    let end = SimTime::from_secs(5);
    let mut net = b.build();
    net.run_until(end);
    drop(net);
    let log = log.borrow();
    assert_eq!(
        *log,
        vec![
            (SimTime::ZERO, "start"),
            (SimTime::from_secs(3), "start"),
            (SimTime::from_secs(4), "stop"),
        ],
        "the deferred stop at t=3 must be discarded, not delivered after the restart"
    );
}

/// A start deferred past its own window's end is equally stale.
#[test]
fn pause_deferred_start_outside_its_window_is_dropped() {
    let log = Rc::new(RefCell::new(Vec::new()));
    let handle = log.clone();
    let mut b = TopologyBuilder::new(5);
    let src = b.node("src", move |_| Box::new(LifecycleRecorder { log: handle }));
    let dst = b.node("dst", |_| Box::new(ForwardLogic));
    b.link(src, dst, fast());
    // Pause covers the entire (1 s, 2 s) window: its start slides to
    // t=3, where the flow is no longer scheduled.
    b.faults(FaultPlan::new().pause(src, SimTime::from_millis(500), SimTime::from_secs(3)));
    b.flow(
        FlowSpec::new(vec![src, dst], 1).active(SimTime::from_secs(1), Some(SimTime::from_secs(2))),
    );
    let end = SimTime::from_secs(5);
    let mut net = b.build();
    net.run_until(end);
    drop(net);
    assert!(
        log.borrow().is_empty(),
        "neither lifecycle event may be delivered outside the window: {:?}",
        log.borrow()
    );
}

/// Back-to-back activations (`stop == next start`) are coalesced at spec
/// level, so the engine never sees the ambiguous same-instant pair and
/// traffic flows continuously across the seam.
#[test]
fn back_to_back_activations_never_gap() {
    let mut b = TopologyBuilder::new(9);
    let src = b.node("src", |_| Box::new(CbrSource::new(100.0)));
    let dst = b.node("dst", |_| Box::new(ForwardLogic));
    b.link(src, dst, fast());
    let f = b.flow(
        FlowSpec::new(vec![src, dst], 1)
            .active(SimTime::ZERO, Some(SimTime::from_secs(2)))
            .active(SimTime::from_secs(2), Some(SimTime::from_secs(4))),
    );
    let end = SimTime::from_secs(5);
    let mut net = b.build();
    net.run_until(end);
    let report = net.into_report(end);
    let delivered = report.flow(f).delivered_packets;
    assert!(
        (395..=401).contains(&delivered),
        "delivered {delivered}: the seam at t=2 must not interrupt emission"
    );
}

/// A lifecycle callback: which one, when, for which flow, and the
/// flow's scheduled stop.
type Heard = (&'static str, SimTime, FlowId, SimTime);

/// A `CbrSource` that logs each start and stop it hears.
#[derive(Debug)]
struct StopRecorder {
    inner: CbrSource,
    log: Rc<RefCell<Vec<Heard>>>,
}

impl StopRecorder {
    fn note(&self, ctx: &Ctx<'_>, what: &'static str, flow: FlowId) {
        let scheduled = ctx.flow(flow).activations[0].1.expect("a churn flow stops");
        self.log
            .borrow_mut()
            .push((what, ctx.now(), flow, scheduled));
    }
}

impl RouterLogic for StopRecorder {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.inner.on_start(ctx);
    }

    fn on_flow_start(&mut self, ctx: &mut Ctx<'_>, flow: FlowId) {
        self.note(ctx, "start", flow);
        self.inner.on_flow_start(ctx, flow);
    }

    fn on_flow_stop(&mut self, ctx: &mut Ctx<'_>, flow: FlowId) {
        self.note(ctx, "stop", flow);
        self.inner.on_flow_stop(ctx, flow);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, timer: TimerKind) {
        self.inner.on_timer(ctx, timer);
    }
}

const PAUSE: (SimTime, SimTime) = (SimTime::from_secs(1), SimTime::from_secs(2));
const LINGER: SimDuration = SimDuration::from_millis(100);

/// `churn_net`'s pipe with the ingress's control plane paused over
/// [`PAUSE`]: a flow that stops more than [`LINGER`] before the pause
/// ends is retired while its stop waits.
fn paused_churn_with(ingress: impl FnOnce(u64) -> Box<dyn RouterLogic>) -> TopologyBuilder {
    let mut b = TopologyBuilder::new(42);
    let e = b.node("ingress", ingress);
    let x = b.node("egress", |_| Box::new(ForwardLogic));
    b.link(e, x, fast());
    b.faults(FaultPlan::new().pause(e, PAUSE.0, PAUSE.1));
    b.churn(
        ChurnSpec::new(20.0, 10.0, 100.0)
            .route(vec![e, x])
            .window(SimTime::ZERO, SimTime::from_secs(4))
            .linger(LINGER),
    );
    b
}

fn paused_churn() -> TopologyBuilder {
    paused_churn_with(|_| Box::new(CbrSource::new(200.0)))
}

/// An exact pin of a pause held across churn stops for longer than the
/// linger: the retirement fires at `stop + linger`, before the stop the
/// pause put off, so that stop reaches a retired slot and is counted
/// stale, whether the slot was recycled meanwhile or not. Serial, one
/// shard and two shards read the same numbers.
#[test]
fn a_stop_paused_past_its_linger_retires_first_and_arrives_stale() {
    let end = SimTime::from_secs(5);
    let log = Rc::new(RefCell::new(Vec::new()));
    let handle = log.clone();
    let mut net = paused_churn_with(move |_| {
        Box::new(StopRecorder {
            inner: CbrSource::new(200.0),
            log: handle,
        })
    })
    .build();
    net.run_until(end);
    let serial = net.into_report(end);
    // The flows whose stops the pause held past their retirement. The
    // slot of the first went to a newer flow under the pause; the
    // second's was still free at the pause's end. Neither hears its stop:
    // a retired flow's stop is stale.
    let log = log.borrow();
    let held: Vec<FlowId> = log
        .iter()
        .filter(|&&(what, _, _, stop)| {
            what == "start" && stop >= PAUSE.0 && stop + LINGER < PAUSE.1
        })
        .map(|&(_, _, flow, _)| flow)
        .collect();
    let heard: Vec<(FlowId, SimTime)> = log
        .iter()
        .filter(|&&(what, _, flow, _)| what == "stop" && held.contains(&flow))
        .map(|&(_, now, flow, _)| (flow, now))
        .collect();
    assert_eq!(
        held,
        [FlowId::with_generation(4, 4), FlowId::with_generation(1, 1)]
    );
    assert_eq!(heard, []);

    let reports = [
        ("serial", serial),
        (
            "1 shard",
            run_sharded(paused_churn, 1, end, false, false).report,
        ),
        (
            "2 shards",
            run_sharded(paused_churn, 2, end, false, false).report,
        ),
    ];
    for (run, report) in &reports {
        let churn = report.churn.as_ref().expect("churn report present");
        let counts = (
            churn.arrivals,
            churn.retired,
            churn.completed,
            churn.stale_events,
            report.events_processed,
        );
        assert_eq!(counts, (69, 69, 54, 32, 2965), "{run}");
        let flows: Vec<_> = report
            .flows
            .iter()
            .map(|f| {
                let dropped = f.tail_drops + f.policy_drops + f.fault_drops;
                (f.delivered_packets, dropped)
            })
            .collect();
        let want = [
            (18, 0),
            (72, 0),
            (14, 0),
            (10, 0),
            (42, 0),
            (22, 0),
            (23, 0),
        ];
        assert_eq!(flows, want, "{run}");
        let mut buckets = vec![0u64; 120];
        buckets[55..=70].copy_from_slice(&[1, 0, 0, 2, 16, 7, 9, 7, 5, 2, 2, 0, 2, 0, 0, 1]);
        let fct = format!(
            "LogHistogram {{ buckets: {buckets:?}, count: 54, sum_ns: 4596742977, \
             min_seen: 0.0252, max_seen: 0.3602 }}"
        );
        assert_eq!(format!("{:?}", churn.fct), fct, "{run}");
    }
}
