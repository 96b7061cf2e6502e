//! Quality ablations over the design choices DESIGN.md calls out.
//!
//! ```text
//! cargo run --release -p scenarios --bin ablations
//! ```
//!
//! Every ablation runs the §4.2 workload (10 flows, weights ⌈i/2⌉,
//! simultaneous start, 80 s) varying one axis at a time and reports
//! drops, steady-state aggregate rate, bottleneck utilization, Jain
//! index, and mean settling time. The companion *cost* measurements are
//! `benchmark/`'s isolated `corelite.stateless.on_marker_ns` and
//! `corelite.cache.select_ns`.

use corelite::{CoreliteConfig, DecreasePolicy, DetectorKind, MuUnit, SelectorKind};
use netsim::link::LinkSpec;
use scenarios::discipline::Corelite;
use scenarios::report::{mean_convergence, window_jain_index};
use scenarios::runner::{ExperimentResult, RunOptions};
use scenarios::{cli, fig5_6, topology, SEED};
use sim_core::time::{SimDuration, SimTime};

fn main() {
    cli::flags(&[]);
    println!("# Corelite design-choice ablations (§4.2 workload)\n");

    run_axis(
        "Marker selector (§2 cache vs §3.2 stateless)",
        vec![
            ("stateless (default)", CoreliteConfig::default()),
            (
                "cache, 64 markers",
                CoreliteConfig::default().with_selector(SelectorKind::Cache { capacity: 64 }),
            ),
            (
                "cache, 256 markers",
                CoreliteConfig::default().with_selector(SelectorKind::Cache { capacity: 256 }),
            ),
        ],
    );

    run_axis(
        "Congestion estimation module (§3.1: \"can be replaced\")",
        vec![
            ("paper formula (default)", CoreliteConfig::default()),
            (
                "RED-style (EWMA ramp 5..15)",
                CoreliteConfig {
                    detector: DetectorKind::Red {
                        wq: 0.25,
                        min_thresh: 5.0,
                        max_thresh: 15.0,
                        max_p: 0.2,
                    },
                    ..CoreliteConfig::default()
                },
            ),
            (
                "DECbit-style (thresh 2)",
                CoreliteConfig {
                    detector: DetectorKind::Decbit {
                        threshold: 2.0,
                        gain: 1.0,
                    },
                    ..CoreliteConfig::default()
                },
            ),
        ],
    );

    run_axis(
        "Self-correcting cubic term k (§3.1)",
        vec![
            (
                "k = 0 (M/M/1 only)",
                CoreliteConfig::default().with_correction_k(0.0),
            ),
            ("k = 0.005 (default)", CoreliteConfig::default()),
            (
                "k = 0.05",
                CoreliteConfig::default().with_correction_k(0.05),
            ),
        ],
    );

    run_axis(
        "Service-rate unit in F_n (paper's per-epoch μ vs per-second μ)",
        vec![
            ("μ per epoch (default)", CoreliteConfig::default()),
            (
                "μ per second",
                CoreliteConfig {
                    mu_unit: MuUnit::PerSecond,
                    ..CoreliteConfig::default()
                },
            ),
        ],
    );

    run_axis(
        "Edge adaptation epoch (paper leaves it open)",
        vec![
            (
                "100 ms (= core epoch)",
                CoreliteConfig {
                    edge_epoch: SimDuration::from_millis(100),
                    ..CoreliteConfig::default()
                },
            ),
            ("500 ms (default)", CoreliteConfig::default()),
            (
                "1 s (= slow-start step)",
                CoreliteConfig {
                    edge_epoch: SimDuration::from_secs(1),
                    ..CoreliteConfig::default()
                },
            ),
        ],
    );

    run_axis(
        "Core congestion epoch (paper: 100 ms; §4.4 sensitivity)",
        vec![
            (
                "50 ms",
                CoreliteConfig {
                    core_epoch: SimDuration::from_millis(50),
                    ..CoreliteConfig::default()
                },
            ),
            ("100 ms (default)", CoreliteConfig::default()),
            (
                "200 ms",
                CoreliteConfig {
                    core_epoch: SimDuration::from_millis(200),
                    ..CoreliteConfig::default()
                },
            ),
        ],
    );

    run_axis(
        "Marking threshold K1 (§4.4 sensitivity)",
        vec![
            ("K1 = 1 (default)", CoreliteConfig::default()),
            (
                "K1 = 2",
                CoreliteConfig {
                    k1: 2,
                    ..CoreliteConfig::default()
                },
            ),
            (
                "K1 = 4",
                CoreliteConfig {
                    k1: 4,
                    ..CoreliteConfig::default()
                },
            ),
        ],
    );

    run_axis(
        "Edge decrease rule (absolute β·m vs multiplicative LIMD)",
        vec![
            ("absolute, β = 1 (default)", CoreliteConfig::default()),
            (
                "multiplicative, β = 0.05",
                CoreliteConfig {
                    beta: 0.05,
                    decrease: DecreasePolicy::Multiplicative,
                    ..CoreliteConfig::default()
                },
            ),
        ],
    );

    run_axis(
        "Additive increase scaling (flat α vs α·w)",
        vec![
            ("flat α (paper, default)", CoreliteConfig::default()),
            (
                "α·w",
                CoreliteConfig {
                    alpha_per_weight: true,
                    ..CoreliteConfig::default()
                },
            ),
        ],
    );

    // Link latency sensitivity (§4.4: "channels with large latencies").
    println!("## Link propagation delay (default config)\n");
    print_header();
    for (label, delay_ms) in [("2 ms", 2u64), ("40 ms (paper)", 40), ("100 ms", 100)] {
        let link = LinkSpec::new(4_000_000, SimDuration::from_millis(delay_ms), 40);
        let options = RunOptions {
            link,
            ..RunOptions::default()
        };
        let result = fig5_6(SEED).run_with(&Corelite::default(), &options);
        print_row(label, &result);
    }
    println!();
}

fn run_axis(title: &str, cases: Vec<(&str, CoreliteConfig)>) {
    println!("## {title}\n");
    print_header();
    for (label, cfg) in cases {
        let result = fig5_6(SEED).run(&Corelite::new(cfg));
        print_row(label, &result);
    }
    println!();
}

fn print_header() {
    println!(
        "| variant | drops | agg rate (of {:.0}) | bottleneck util | Jain | mean settle (s) |",
        topology::LINK_CAPACITY_PPS
    );
    println!("|---|---|---|---|---|---|");
}

fn print_row(label: &str, result: &ExperimentResult) {
    let horizon = result.scenario.horizon;
    let from = SimTime::from_secs(60);
    let agg: f64 = (0..result.scenario.flows.len())
        .map(|i| result.mean_rate_in(i, from, horizon))
        .sum();
    let (mean_settle, unsettled) = mean_convergence(
        result,
        horizon - SimDuration::from_secs(1),
        0.25,
        SimDuration::from_secs(10),
    );
    let settle = match mean_settle {
        Some(m) if unsettled == 0 => format!("{m:.1}"),
        Some(m) => format!("{m:.1} ({unsettled} unsettled)"),
        None => "never".into(),
    };
    println!(
        "| {label} | {} | {agg:.1} | {:.3} | {:.4} | {settle} |",
        result.total_drops(),
        result.report.links[0].utilization,
        window_jain_index(result, from, horizon),
    );
}
