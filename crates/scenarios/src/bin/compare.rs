//! `compare` — the §4.4 summary table across every registered discipline.
//!
//! ```text
//! cargo run --release -p scenarios --bin compare [-- --serial]
//! ```
//!
//! Runs every discipline in [`scenarios::discipline::default_registry`]
//! on two workloads — the paper's §4.2 simultaneous-start schedule on the
//! Figure-2 chain, and an eight-flow mix on the leaf–spine fat-tree (a
//! non-chain [`scenarios::topology::TopologySpec`]) — and prints one
//! table of the §4.4 headline metrics: weighted Jain index over the
//! steady-state window, total packet drops, mean/last settling time of
//! the flows due a share (each against its own realized operating point),
//! and mean p99 queueing delay. The sweep goes through the deterministic parallel
//! executor; `--serial` forces one-at-a-time execution (same output).

use scenarios::discipline::default_registry;
use scenarios::exec;
use scenarios::report::headline_cells;
use scenarios::runner::ExperimentResult;
use scenarios::{cli, fig5_6, Scenario, SEED};
use sim_core::time::SimTime;

fn scenario(index: usize) -> Scenario {
    match index {
        0 => fig5_6(SEED),
        1 => Scenario::fat_tree_mix(SimTime::from_secs(200), SEED),
        _ => unreachable!("two comparison workloads"),
    }
}

fn main() {
    let serial = cli::flags(&["--serial"]).serial;
    let registry = default_registry();
    let jobs: Vec<(usize, usize)> = (0..2)
        .flat_map(|s| (0..registry.len()).map(move |d| (s, d)))
        .collect();
    eprintln!(
        "running {} disciplines × 2 workloads ({} executor)...",
        registry.len(),
        if serial { "serial" } else { "parallel" }
    );
    let work = |(s, d): (usize, usize)| scenario(s).run(registry[d].as_ref());
    let results = exec::run(serial, jobs, work);

    println!("# §4.4 comparison: every registered discipline\n");
    println!(
        "| scenario | topology | discipline | Jain (steady) | total drops | mean settle (s) | last settle (s) | p99 delay (ms) |"
    );
    println!("|---|---|---|---|---|---|---|---|");
    for result in &results {
        println!("{}", row(result));
    }
    println!(
        "\nSettling times count the flows the discipline's analytic reference\n\
         (weighted max-min for corelite/csfq/fifo, equal shares capped at\n\
         the offered rate for red/fred/greedy) gives a share, each measured\n\
         against its own realized operating point; `never` means a flow\n\
         stayed outside the 25% band. Weight-oblivious schemes keep a\n\
         high *unweighted* smoothness yet score poorly on the weighted Jain\n\
         column — the paper's core argument."
    );
}

fn row(result: &ExperimentResult) -> String {
    let cells = headline_cells(result);
    format!(
        "| {} | {} | {} | {} | {} | {} | {} | {} |",
        result.scenario.name,
        result.scenario.topology.name,
        result.discipline_name,
        cells.jain,
        cells.drops,
        cells.mean_settle,
        cells.last_settle,
        cells.p99_ms,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use scenarios::discipline::by_name;

    /// FRED delivers nothing on the chain (ROADMAP item 1 tracks the
    /// defect); the table used to print the Jain index of ten zeros.
    #[test]
    fn a_cell_that_delivered_nothing_prints_no_fairness_index() {
        let mut scenario = fig5_6(SEED);
        scenario.horizon = SimTime::from_secs(30);
        let cell = |name: &str| row(&scenario.run(by_name(name).expect("registered").as_ref()));
        let fred = cell("fred");
        assert!(
            fred.starts_with("| fig5_6_simultaneous_start | paper_chain | fred | — | "),
            "{fred}"
        );
        let corelite = cell("corelite");
        assert!(
            corelite.starts_with("| fig5_6_simultaneous_start | paper_chain | corelite | 0.9"),
            "{corelite}"
        );
    }
}
