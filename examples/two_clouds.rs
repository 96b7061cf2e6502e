//! Two Corelite clouds in series, joined by an inter-cloud gateway — the
//! deployment story from the paper's §2: each network cloud runs Corelite
//! independently, and a cross-cloud flow is re-shaped at the gateway edge
//! router between them.
//!
//! ```text
//!            cloud A                 cloud B
//!   E ──► A1 ══► A2 ──► G ──► B1 ══► B2 ──► X
//!                             ▲
//!                       EB ───┘   (local competitor in cloud B)
//! ```
//!
//! The cross-cloud flow ends up with the *minimum* of its per-cloud
//! weighted fair shares; the gateway's buffer absorbs the mismatch.
//!
//! ```text
//! cargo run --release -p scenarios --example two_clouds
//! ```

use corelite::{CoreliteConfig, CoreliteCore, CoreliteGateway};
use netsim::flow::FlowSpec;
use netsim::link::LinkSpec;
use netsim::logic::ForwardLogic;
use netsim::topology::TopologyBuilder;
use netsim::FlowId;
use sim_core::time::{SimDuration, SimTime};

fn main() {
    let cfg = CoreliteConfig::default();
    let mut b = TopologyBuilder::new(2026);

    let e = b.node("E", |_| Box::new(cfg.edge()));
    let a1 = b.node("A1", |s| Box::new(CoreliteCore::new(s, cfg.clone())));
    let a2 = b.node("A2", |s| Box::new(CoreliteCore::new(s, cfg.clone())));
    let g = b.node("G", |s| Box::new(CoreliteGateway::new(s, cfg.clone(), 200)));
    let b1 = b.node("B1", |s| Box::new(CoreliteCore::new(s, cfg.clone())));
    let b2 = b.node("B2", |s| Box::new(CoreliteCore::new(s, cfg.clone())));
    let x = b.node("X", |_| Box::new(ForwardLogic));
    let eb = b.node("EB", |_| Box::new(cfg.edge()));
    let xb = b.node("XB", |_| Box::new(ForwardLogic));

    let fast = LinkSpec::new(40_000_000, SimDuration::from_millis(5), 400);
    let bottleneck = LinkSpec::new(4_000_000, SimDuration::from_millis(10), 40);
    b.link(e, a1, fast);
    b.link(a1, a2, bottleneck); // cloud A's congested link (uncontested)
    b.link(a2, g, fast);
    b.link(g, b1, fast);
    b.link(b1, b2, bottleneck); // cloud B's congested link (shared 1:1)
    b.link(b2, x, fast);
    b.link(eb, b1, fast);
    b.link(b2, xb, fast);

    let cross = b.flow(FlowSpec::new(vec![e, a1, a2, g, b1, b2, x], 1).active(SimTime::ZERO, None));
    let local = b.flow(FlowSpec::new(vec![eb, b1, b2, xb], 1).active(SimTime::ZERO, None));

    let end = SimTime::from_secs(200);
    let mut net = b.build();
    net.run_until(end);
    let report = net.into_report(end);

    let goodput = |f: FlowId| {
        report
            .flow(f)
            .mean_goodput_in(SimTime::from_secs(150), end)
            .unwrap_or(0.0)
    };
    println!("steady state (t ∈ [150s, 200s)):");
    println!(
        "  cross-cloud flow: {:6.1} pkt/s  (cloud A offers 500, cloud B's fair share is 250)",
        goodput(cross)
    );
    println!("  cloud-B local   : {:6.1} pkt/s", goodput(local));
    println!(
        "  gateway: {} markers injected downstream, {} feedback received, {} buffer drops (peak {} pkts)",
        report.counter_total("gateway_markers_injected"),
        report.counter_total("gateway_feedback_received"),
        report.counter_total("gateway_buffer_drops"),
        report.counter_total("gateway_buffer_peak"),
    );
    println!(
        "\nEach cloud enforces weighted fairness independently; the gateway\n\
         re-marks and re-shapes the flow for the downstream cloud, so no\n\
         mechanism ever spans more than one cloud (paper §2)."
    );
}
