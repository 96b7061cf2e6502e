//! Packet-level tracing for debugging router logic: attach a
//! [`CsvTracer`](netsim::trace::CsvTracer) to a run and inspect every
//! enqueue, drop, delivery and control message in simulation order.
//!
//! ```text
//! cargo run --release -p scenarios --example trace_debugging
//! ```

use std::cell::RefCell;
use std::rc::Rc;

use corelite::{CoreliteConfig, CoreliteCore};
use netsim::flow::FlowSpec;
use netsim::link::LinkSpec;
use netsim::logic::ForwardLogic;
use netsim::topology::TopologyBuilder;
use netsim::trace::{CountingTracer, CsvTracer};
use sim_core::time::{SimDuration, SimTime};

fn main() {
    // A short congested run with the CSV tracer capturing everything.
    let cfg = CoreliteConfig::default();
    let tracer = Rc::new(RefCell::new(CsvTracer::new(Vec::new())));
    let counter = Rc::new(RefCell::new(CountingTracer::default()));

    let mut b = TopologyBuilder::new(5);
    b.tracer(tracer.clone());
    let e1 = b.node("edge1", |_| Box::new(cfg.edge()));
    let e2 = b.node("edge2", |_| Box::new(cfg.edge()));
    let core = b.node("core", |s| Box::new(CoreliteCore::new(s, cfg.clone())));
    let sink = b.node("sink", |_| Box::new(ForwardLogic));
    let access = LinkSpec::new(40_000_000, SimDuration::from_millis(1), 400);
    b.link(e1, core, access);
    b.link(e2, core, access);
    b.link(
        core,
        sink,
        LinkSpec::new(1_000_000, SimDuration::from_millis(10), 40), // 125 pkt/s
    );
    b.flow(FlowSpec::new(vec![e1, core, sink], 1).active(SimTime::ZERO, None));
    b.flow(FlowSpec::new(vec![e2, core, sink], 2).active(SimTime::ZERO, None));

    let end = SimTime::from_secs(30);
    let mut net = b.build();
    net.run_until(end);
    let report = net.into_report(end);

    let rows = tracer.borrow().rows();
    let csv_tracer = Rc::try_unwrap(tracer).expect("sole owner").into_inner();
    let text = String::from_utf8(csv_tracer.into_inner()).expect("utf8 trace");

    println!("captured {rows} packet-level events; first 12 rows:\n");
    for line in text.lines().take(13) {
        println!("  {line}");
    }
    // The control rows are the marker feedback driving the rate control.
    let feedback_rows = text
        .lines()
        .filter(|l| l.contains(",control,") && l.contains("feedback=true"))
        .count();
    println!("\nmarker-feedback control events: {feedback_rows}");
    println!(
        "deliveries traced: {} (matches the report: {})",
        text.lines().filter(|l| l.contains(",deliver,")).count(),
        report
            .flows
            .iter()
            .map(|f| f.delivered_packets)
            .sum::<u64>(),
    );
    println!(
        "\nPipe the CSV into your own tooling, or attach a CountingTracer\n\
         ({:?}) when only totals matter.",
        *counter.borrow()
    );
}
