//! `corelite-sim` — run a scenario file under a chosen discipline and
//! report the outcome.
//!
//! ```text
//! corelite-sim <scenario-file> [--discipline <name>] [--shards <n>]
//!              [--csv out.csv] [--svg out.svg]
//! ```
//!
//! `--discipline` accepts any name in the discipline registry
//! ([`scenarios::discipline::names`]); the default is `corelite`.
//! `--shards` runs the scenario on the sharded parallel engine with `n`
//! workers, overriding any `shards` directive in the file and checked
//! like one (at most the scenario's nodes); results are byte-identical at
//! every shard count.
//!
//! The scenario format is described in [`scenarios::dsl`]; an example:
//!
//! ```text
//! name     demo
//! topology paper
//! horizon  120
//! flow     route=0-1 weight=1
//! flow     route=0-1 weight=2
//! flow     route=0-2 weight=3 start=40 min_rate=50
//! ```
//!
//! The report compares each flow's measured steady-state rate (last 25%
//! of the run) against the analytic weighted max-min share and prints
//! drop and delay statistics.

use std::fs;
use std::process::ExitCode;

use scenarios::discipline::{self, Discipline};
use scenarios::dsl::parse_scenario;
use scenarios::plot::{render_lines, PlotSpec};
use scenarios::report::{
    rate_series_csv, steady_state_summary, summary_markdown, window_jain_index,
};
use sim_core::stats::TimeSeries;
use sim_core::time::{SimDuration, SimTime};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut file: Option<String> = None;
    let mut discipline: Box<dyn Discipline> =
        discipline::by_name("corelite").expect("corelite is registered");
    let mut csv_out: Option<String> = None;
    let mut svg_out: Option<String> = None;
    let mut shards: Option<usize> = None;

    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--discipline" => {
                let value = it.next();
                match value.as_deref().and_then(discipline::by_name) {
                    Some(d) => discipline = d,
                    None => {
                        eprintln!(
                            "--discipline needs one of {}, got {value:?}",
                            discipline::names().join("|")
                        );
                        return ExitCode::from(2);
                    }
                }
            }
            "--csv" => csv_out = it.next(),
            "--svg" => svg_out = it.next(),
            "--shards" => {
                let value = it.next();
                match value.as_deref().and_then(|v| v.parse::<usize>().ok()) {
                    Some(n) if n >= 1 => shards = Some(n),
                    _ => {
                        eprintln!("--shards needs a positive integer, got {value:?}");
                        return ExitCode::from(2);
                    }
                }
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: corelite-sim <scenario-file> [--discipline {}] \
                     [--shards n] [--csv out.csv] [--svg out.svg]",
                    discipline::names().join("|")
                );
                return ExitCode::SUCCESS;
            }
            other if file.is_none() && !other.starts_with('-') => file = Some(other.to_owned()),
            other => {
                eprintln!("unexpected argument {other:?} (try --help)");
                return ExitCode::from(2);
            }
        }
    }
    let Some(file) = file else {
        eprintln!("usage: corelite-sim <scenario-file> [options]; try --help");
        return ExitCode::from(2);
    };

    let text = match fs::read_to_string(&file) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {file}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut scenario = match parse_scenario(&text) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{file}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(n) = shards {
        // The override goes through the file's own `shards` check (at
        // most the scenario's nodes) as its last directive: the file
        // parsed, so no block is left open to swallow it.
        match parse_scenario(&format!("{text}\nshards {n}\n")) {
            Ok(s) => scenario = s,
            Err(e) => {
                eprintln!("--shards {n}: {}", e.message);
                return ExitCode::from(2);
            }
        }
    }

    eprintln!(
        "running `{}` on `{}` under {} ({} flows, {} simulated, {} shard{})...",
        scenario.name,
        scenario.topology.name,
        discipline.name(),
        scenario.flows.len(),
        scenario.horizon,
        scenario.shards,
        if scenario.shards == 1 { "" } else { "s" }
    );
    if let Some(note) = discipline::transport_override(discipline.as_ref(), &scenario.flows) {
        eprintln!("{note}");
    }
    let result = scenario.run(discipline.as_ref());

    let horizon = result.scenario.horizon;
    let from = SimTime::from_secs_f64(horizon.as_secs_f64() * 0.75);
    println!("# `{}` under {}", scenario.name, result.discipline_name);
    println!(
        "\n## steady state (last 25% of the run, t ∈ [{:.0}s, {:.0}s))\n",
        from.as_secs_f64(),
        horizon.as_secs_f64()
    );
    print!(
        "{}",
        summary_markdown(&steady_state_summary(&result, from, horizon))
    );
    println!(
        "\nweighted Jain index: {:.4}",
        window_jain_index(&result, from, horizon)
    );
    println!("total drops: {}", result.total_drops());
    if let Some(churn) = &result.report.churn {
        println!(
            "churn: {} arrivals, {} retired, {} completed, {} stale events",
            churn.arrivals, churn.retired, churn.completed, churn.stale_events
        );
    }
    for (i, f) in result.report.flows.iter().enumerate() {
        if let (Some(p50), Some(p99)) = (f.delay_quantile(0.5), f.delay_quantile(0.99)) {
            println!(
                "flow {:2}: delivered {:7}, delay p50 {:6.1} ms, p99 {:6.1} ms",
                i + 1,
                f.delivered_packets,
                p50 * 1e3,
                p99 * 1e3
            );
        }
    }

    if let Some(path) = csv_out {
        let csv = rate_series_csv(&result, SimDuration::from_millis(500));
        if let Err(e) = fs::write(&path, csv) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("rate series written to {path}");
    }
    if let Some(path) = svg_out {
        let smoothed: Vec<TimeSeries> = (0..result.scenario.flows.len())
            .map(|i| {
                result
                    .rate_series(i)
                    .resample_mean(SimDuration::from_secs(1))
            })
            .collect();
        let series: Vec<(String, &TimeSeries)> = smoothed
            .iter()
            .enumerate()
            .map(|(i, s)| (format!("flow{}", i + 1), s))
            .collect();
        let spec = PlotSpec {
            title: format!("{} ({})", scenario.name, result.discipline_name),
            ..PlotSpec::default()
        };
        if let Err(e) = fs::write(&path, render_lines(&spec, &series)) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("plot written to {path}");
    }
    ExitCode::SUCCESS
}
