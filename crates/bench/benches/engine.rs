//! End-to-end simulator throughput: the seven rows the CI bench smoke
//! step gates against `BENCH_19.json`.

use bench::Runner;
use corelite::CoreliteConfig;
use netsim::link::LinkSpec;
use netsim::logic::ForwardLogic;
use netsim::topology::TopologyBuilder;
use netsim::ChurnSpec;
use scenarios::discipline::Corelite;
use scenarios::runner::Scenario;
use scenarios::{fig3_4, Discipline, PaperFigure};
use sim_core::time::{SimDuration, SimTime};

fn serial(scenario: &Scenario, discipline: &dyn Discipline) -> (u64, Vec<u64>) {
    (scenario.run(discipline).report.events_processed, Vec::new())
}

/// Flow-lifecycle throughput: 100 k Poisson arrivals with Pareto
/// lifetimes through the recycled flow table. ForwardLogic ingresses
/// emit nothing, so every event is churn machinery — arrival scheduling,
/// slot allocation and recycling, lifecycle timers, linger retirement —
/// the same shape as the million-arrival acceptance test in
/// `netsim/tests/churn.rs`, scaled to a bench iteration.
fn churn_100k() -> (u64, Vec<u64>) {
    let mut b = TopologyBuilder::new(7);
    let e = b.node("ingress", |_| Box::new(ForwardLogic));
    let x = b.node("egress", |_| Box::new(ForwardLogic));
    let link = LinkSpec::new(40_000_000, SimDuration::from_millis(5), 400);
    b.link(e, x, link);
    // The cap ends the process: exactly 100 k arrivals (~5 s at 20 k/s),
    // then the horizon covers the Pareto tail's drain.
    b.churn(
        ChurnSpec::new(20_000.0, 10.0, 1_000.0)
            .route(vec![e, x])
            .window(SimTime::ZERO, SimTime::from_secs(20))
            .linger(SimDuration::from_millis(100))
            .max_arrivals(100_000),
    );
    let end = SimTime::from_secs(10);
    let mut net = b.build();
    net.run_until(end);
    (net.into_report(end).events_processed, Vec::new())
}

fn main() {
    let mut runner = Runner::new(std::env::args().skip(1));
    let corelite = Corelite::new(CoreliteConfig::default());

    // The paper's §4.2 chain (Figure 3's scenario under its discipline),
    // compressed to 20 simulated seconds.
    let mut chain = fig3_4(1);
    chain.horizon = SimTime::from_secs(20);
    let fig3 = PaperFigure::Fig3.discipline();
    runner.bench_events("engine/paper_chain_20s", || serial(&chain, fig3.as_ref()));

    // A k = 8 two-tier fat-tree (8 leaves × 4 spines, 16 cross flows) —
    // the wide-fan-out counterpart to the chain.
    let k8 = Scenario::fat_tree_k_mix(8, 4, SimTime::from_secs(20), 1);
    runner.bench_events("engine/fat_tree_k8_20s", || serial(&k8, &corelite));

    // The sharded-engine workload: a k = 16 fat-tree (16 leaves × 8
    // spines, 32 long-lived cross flows) carrying a 100 000-arrival churn
    // process, serial and at 2/4/8 shards. The sharded rows report the
    // serial row's merged event total (the identity suite pins
    // byte-equality) plus the per-shard popped-event split. Speedup only
    // means something on a machine with as many cores as shards.
    let k16 = Scenario::fat_tree_k16_100k(SimTime::from_secs(20), 1);
    runner.bench_events("engine/fat_tree_k16_100k", || serial(&k16, &corelite));
    for shards in [2usize, 4, 8] {
        runner.bench_events(&format!("engine/fat_tree_k16_100k_sharded{shards}"), || {
            let (result, per_shard) = k16.run_sharded(&corelite, shards);
            (result.report.events_processed, per_shard)
        });
    }

    runner.bench_events("engine/churn_100k", churn_100k);
    if let Err(e) = runner.finish() {
        eprintln!("bench: {e}");
        std::process::exit(1);
    }
}
