//! Quickstart: two flows with weights 1 and 2 share a 1 Mbps bottleneck
//! under Corelite, and the network allocates the link in a 1:2 ratio
//! without dropping a packet.
//!
//! ```text
//! cargo run --release -p scenarios --example quickstart
//! ```

use corelite::{CoreliteConfig, CoreliteCore};
use netsim::flow::FlowSpec;
use netsim::link::LinkSpec;
use netsim::logic::ForwardLogic;
use netsim::topology::TopologyBuilder;
use netsim::FlowId;
use sim_core::time::{SimDuration, SimTime};

fn main() {
    let cfg = CoreliteConfig::default(); // the paper's parameters
    let mut b = TopologyBuilder::new(42);

    // Two ingress edge routers, one core router, one egress.
    let edge_a = b.node("edge-a", |_| Box::new(cfg.edge()));
    let edge_b = b.node("edge-b", |_| Box::new(cfg.edge()));
    let core = b.node("core", |seed| {
        Box::new(CoreliteCore::new(seed, cfg.clone()))
    });
    let sink = b.node("sink", |_| Box::new(ForwardLogic));

    // Uncongested access links into the core; a 1 Mbps (125 pkt/s at 1 KB
    // packets) bottleneck out of it.
    let access = LinkSpec::new(40_000_000, SimDuration::from_millis(1), 400);
    b.link(edge_a, core, access);
    b.link(edge_b, core, access);
    b.link(
        core,
        sink,
        LinkSpec::new(1_000_000, SimDuration::from_millis(10), 40),
    );

    // Flow 0 has rate weight 1, flow 1 rate weight 2.
    b.flow(FlowSpec::new(vec![edge_a, core, sink], 1).active(SimTime::ZERO, None));
    b.flow(FlowSpec::new(vec![edge_b, core, sink], 2).active(SimTime::ZERO, None));

    let horizon = SimTime::from_secs(120);
    let mut net = b.build();
    net.run_until(horizon);
    let report = net.into_report(horizon);

    println!("After {horizon} of simulated time:");
    for i in 0..2 {
        let flow = FlowId::from_index(i);
        let rate = report
            .allotted_rate(flow)
            .and_then(|s| s.mean_in(SimTime::from_secs(90), horizon))
            .unwrap_or(0.0);
        let fr = report.flow(flow);
        println!(
            "  flow {} (weight {}): allotted ≈ {rate:6.1} pkt/s, delivered {} packets, {} drops",
            i + 1,
            fr.weight,
            fr.delivered_packets,
            fr.total_drops(),
        );
    }
    println!(
        "  bottleneck utilization: {:.0}%",
        report.links[2].utilization * 100.0
    );
    println!("  total drops anywhere: {}", report.total_drops());
    println!("\nWeighted rate fairness: the weight-2 flow receives ~2x the weight-1 flow,");
    println!("with no per-flow state at the core router and no packet loss.");
}
