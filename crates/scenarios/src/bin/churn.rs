//! `churn` — flow-lifecycle metrics under dynamic arrivals.
//!
//! ```text
//! cargo run --release -p scenarios --bin churn [-- --serial] [-- --smoke]
//! ```
//!
//! Runs the adaptive disciplines (`corelite`, `csfq`) on a paper-chain
//! workload where a Poisson process creates Pareto-sized flows on top of
//! a static background mix, and prints a markdown table of arrivals,
//! completions, flow-completion-time and settling distributions, peak
//! concurrency, and the recycled flow-table footprint. The sweep goes
//! through the deterministic parallel executor, so the table is
//! byte-identical across runs and across `--serial` execution — the
//! property the CI smoke step checks with `cmp`. `--smoke` shrinks the
//! horizon and arrival volume for CI.

use corelite::CoreliteConfig;
use csfq::CsfqConfig;
use scenarios::churn::{churn_markdown, churn_rows};
use scenarios::discipline::{Corelite, Csfq, Discipline};
use scenarios::topology::Route;
use scenarios::{Scenario, ScenarioChurn, ScenarioFlow};
use sim_core::time::SimTime;

const SEED: u64 = 20000; // ICDCS 2000

/// A paper-chain scenario with static background flows plus churn:
/// one long-lived weight-2 flow per chain stretch, and Poisson arrivals
/// drawing one-hop and full-chain templates with mixed weights.
fn churn_scenario(smoke: bool) -> Scenario {
    let (horizon, arrival_rate, window_stop) = if smoke {
        (40u64, 5.0, 20u64)
    } else {
        (120u64, 20.0, 90u64)
    };
    let background = vec![
        ScenarioFlow::best_effort(Route::new(0, 3), 2, SimTime::ZERO),
        ScenarioFlow::best_effort(Route::new(0, 1), 2, SimTime::ZERO),
        ScenarioFlow::best_effort(Route::new(2, 3), 2, SimTime::ZERO),
    ];
    Scenario::paper("paper_churn", background, SimTime::from_secs(horizon), SEED).with_churn(
        ScenarioChurn::new(arrival_rate, 50.0, 100.0)
            .route(Route::new(0, 1))
            .route(Route::new(1, 2))
            .route(Route::new(0, 3))
            .weights(vec![1, 2, 4])
            .window(SimTime::ZERO, SimTime::from_secs(window_stop)),
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let serial = args.iter().any(|a| a == "--serial");
    let smoke = args.iter().any(|a| a == "--smoke");
    // Churn workloads are short-flow dominated: the default 1 pkt/s
    // initial rate would leave sub-second flows without a single
    // delivery, so give the edges a faster start (still below any fair
    // share of the 500 pkt/s paper link).
    let corelite_config = CoreliteConfig {
        initial_rate: 25.0,
        ..CoreliteConfig::default()
    };
    let csfq_config = CsfqConfig { initial_rate: 25.0 };
    let registry: Vec<Box<dyn Discipline>> = vec![
        Box::new(Corelite::new(corelite_config)),
        Box::new(Csfq::new(csfq_config)),
    ];
    let scenarios = vec![churn_scenario(smoke)];
    eprintln!(
        "running {} disciplines × {} churn workloads ({} executor)...",
        registry.len(),
        scenarios.len(),
        if serial { "serial" } else { "parallel" }
    );
    let rows = churn_rows(&scenarios, &registry, serial);
    println!("# Flow lifecycle under churn\n");
    print!("{}", churn_markdown(&rows));
    println!(
        "\nEach row runs a Poisson arrival process (Pareto flow sizes, mixed\n\
         weight classes) over a static background mix on the paper chain.\n\
         FCT is arrival to last delivered packet; settle is arrival to first\n\
         delivery. `peak slots` bounds the recycled flow-table footprint —\n\
         it must track peak concurrency, not total arrivals — and `stale`\n\
         counts discarded events that referenced a recycled slot's previous\n\
         occupant (0 whenever the linger covers residual in-flight time)."
    );
}
