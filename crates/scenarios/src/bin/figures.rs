//! Regenerates every evaluation figure of the Corelite paper.
//!
//! ```text
//! cargo run --release -p scenarios --bin figures -- all
//! cargo run --release -p scenarios --bin figures -- fig5 fig6
//! cargo run --release -p scenarios --bin figures -- summary
//! ```
//!
//! For each figure the harness runs the corresponding scenario, writes the
//! plotted series to `results/<fig>_<discipline>.{csv,svg}`, and prints an
//! expected-vs-measured table against the analytic weighted max-min
//! shares. `summary` reruns the Corelite-vs-CSFQ pairs and prints the
//! §4.4 comparison (convergence times, packet drops, fairness indices).

use std::fs;

use scenarios::plot::{render_lines, PlotSpec};
use scenarios::report::{
    cumulative_csv, headline_cells, rate_series_csv, steady_state_summary, summary_markdown,
    window_jain_index,
};
use scenarios::runner::ExperimentResult;
use scenarios::{PaperFigure, SEED};
use sim_core::stats::TimeSeries;
use sim_core::time::{SimDuration, SimTime};

const RESULTS_DIR: &str = "results";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut requested: Vec<&str> = args.iter().map(String::as_str).collect();
    if requested.is_empty() || requested.contains(&"all") {
        requested = vec![
            "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "jain", "summary",
        ];
    }

    let mut cache: Vec<(String, ExperimentResult)> = Vec::new();
    for name in requested {
        if name == "summary" {
            print_summary(&mut cache);
            continue;
        }
        if name == "jain" {
            emit_jain_figure(&mut cache);
            continue;
        }
        let Some(figure) = PaperFigure::from_name(name) else {
            eprintln!("unknown figure {name:?}; expected fig3..fig10, summary, or all");
            std::process::exit(2);
        };
        let idx = run_cached(&mut cache, figure);
        emit_figure(figure, &cache[idx].1);
    }
}

/// Runs (or reuses) the simulation behind `figure`. Figures sharing a
/// scenario and discipline (3/4) share one run.
fn run_cached(cache: &mut Vec<(String, ExperimentResult)>, figure: PaperFigure) -> usize {
    let scenario = figure.scenario(SEED);
    let discipline = figure.discipline();
    let key = format!("{}-{}", scenario.name, discipline.name());
    if let Some(pos) = cache.iter().position(|(k, _)| *k == key) {
        return pos;
    }
    eprintln!(
        "running {key} ({}s simulated)...",
        scenario.horizon.as_secs_f64()
    );
    let result = scenario.run(discipline.as_ref());
    cache.push((key, result));
    cache.len() - 1
}

fn emit_figure(figure: PaperFigure, result: &ExperimentResult) {
    let step = SimDuration::from_millis(500);
    let csv = if figure.is_cumulative() {
        cumulative_csv(result, step)
    } else {
        rate_series_csv(result, step)
    };
    let stem = format!("{}_{}", figure.name(), result.discipline_name);
    let path = write_result(&format!("{stem}.csv"), &csv);
    let svg_path = write_result(&format!("{stem}.svg"), &render_figure_svg(figure, result));
    println!(
        "\n## {} ({}, scenario `{}`)",
        figure.name(),
        result.discipline_name,
        result.scenario.name
    );
    println!("series written to `{path}` and `{svg_path}`");
    let horizon = result.scenario.horizon;
    let windows: Vec<(SimTime, SimTime, &str)> = match figure {
        PaperFigure::Fig3 | PaperFigure::Fig4 => vec![
            (
                SimTime::from_secs(150),
                SimTime::from_secs(250),
                "15 flows (t∈[150,250))",
            ),
            (
                SimTime::from_secs(400),
                SimTime::from_secs(500),
                "20 flows (t∈[400,500))",
            ),
            (
                SimTime::from_secs(650),
                SimTime::from_secs(750),
                "15 flows (t∈[650,750))",
            ),
        ],
        PaperFigure::Fig9 | PaperFigure::Fig10 => vec![
            (
                SimTime::from_secs(40),
                SimTime::from_secs(60),
                "steady (t∈[40,60))",
            ),
            (SimTime::from_secs(120), horizon, "post-churn (t∈[120,160))"),
        ],
        _ => vec![(SimTime::from_secs(60), horizon, "steady state (t∈[60,80))")],
    };
    for (from, to, label) in windows {
        let summaries = steady_state_summary(result, from, to);
        println!("\n### {label}");
        print!("{}", summary_markdown(&summaries));
        println!(
            "Jain index (weighted, active flows): {:.4}",
            window_jain_index(result, from, to)
        );
    }
    println!("total packet drops: {}", result.total_drops());
}

/// Writes `results/<file>`, making the directory on first use (so
/// `summary` alone writes nothing), and returns the path written.
fn write_result(file: &str, contents: &str) -> String {
    fs::create_dir_all(RESULTS_DIR).expect("create results directory");
    let path = format!("{RESULTS_DIR}/{file}");
    fs::write(&path, contents).expect("write figure file");
    path
}

/// Renders the figure's series (allotted rate, or cumulative service for
/// Figure 4) in the paper's plotting style.
fn render_figure_svg(figure: PaperFigure, result: &ExperimentResult) -> String {
    let n = result.scenario.flows.len();
    let smoothed: Vec<TimeSeries> = (0..n)
        .map(|i| {
            if figure.is_cumulative() {
                result.report.flows[i].cumulative.clone()
            } else {
                result
                    .allotted_rate(i)
                    .resample_mean(SimDuration::from_secs(1))
            }
        })
        .collect();
    let series: Vec<(String, &TimeSeries)> = smoothed
        .iter()
        .enumerate()
        .map(|(i, s)| (format!("flow{}", i + 1), s))
        .collect();
    let spec = PlotSpec {
        title: format!(
            "{} — {} ({})",
            figure.name(),
            result.scenario.name,
            result.discipline_name
        ),
        y_label: if figure.is_cumulative() {
            "total_sent".to_owned()
        } else {
            "alloted_rate".to_owned()
        },
        ..PlotSpec::default()
    };
    render_lines(&spec, &series)
}

/// Supplementary figure: the weighted Jain fairness index over time for
/// the §4.2 simultaneous-start scenario, Corelite vs CSFQ — the
/// "convergence to fairness" claim as one curve per discipline.
fn emit_jain_figure(cache: &mut Vec<(String, ExperimentResult)>) {
    let mut curves: Vec<(String, TimeSeries)> = Vec::new();
    for figure in [PaperFigure::Fig5, PaperFigure::Fig6] {
        let idx = run_cached(cache, figure);
        let (_, result) = &cache[idx];
        let series_refs: Vec<(&TimeSeries, u32)> = (0..result.scenario.flows.len())
            .map(|i| (result.allotted_rate(i), result.scenario.flows[i].weight))
            .collect();
        let jain = fairness::metrics::jain_series(
            &series_refs,
            result.scenario.horizon,
            SimDuration::from_secs(2),
        );
        curves.push((result.discipline_name.to_owned(), jain));
    }
    let series: Vec<(String, &TimeSeries)> = curves.iter().map(|(n, s)| (n.clone(), s)).collect();
    let spec = PlotSpec {
        title: "weighted Jain index over time — §4.2 simultaneous start".to_owned(),
        y_label: "jain_index".to_owned(),
        ..PlotSpec::default()
    };
    let path = write_result("jain_fig5_6.svg", &render_lines(&spec, &series));
    println!(
        "
## jain (supplementary)
fairness-over-time curves written to `{path}`"
    );
    for (name, s) in &curves {
        let last = s.last_value().unwrap_or(0.0);
        println!("  {name}: final weighted Jain {last:.4}");
    }
}

fn print_summary(cache: &mut Vec<(String, ExperimentResult)>) {
    println!("\n## §4.4 summary: Corelite vs CSFQ");
    println!(
        "| scenario | discipline | mean settle (s) | last settle (s) | total drops | Jain (steady) | p99 delay (ms) |"
    );
    println!("|---|---|---|---|---|---|---|");
    for figure in [
        PaperFigure::Fig5,
        PaperFigure::Fig6,
        PaperFigure::Fig7,
        PaperFigure::Fig8,
        PaperFigure::Fig9,
        PaperFigure::Fig10,
    ] {
        let idx = run_cached(cache, figure);
        let (_, result) = &cache[idx];
        let cells = headline_cells(result);
        println!(
            "| {} | {} | {} | {} | {} | {} | {} |",
            result.scenario.name,
            result.discipline_name,
            cells.mean_settle,
            cells.last_settle,
            cells.drops,
            cells.jain,
            cells.p99_ms,
        );
    }
}
