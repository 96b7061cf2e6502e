//! `faults` — the control-loss degradation sweep across every
//! registered discipline.
//!
//! ```text
//! cargo run --release -p scenarios --bin faults [-- --serial]
//! ```
//!
//! Runs every discipline in [`scenarios::discipline::default_registry`]
//! on the paper's §4.2 schedule (Figure-2 chain) and the eight-flow
//! fat-tree mix, under control-message loss of 0, 5, 20 and 50%, and
//! prints a markdown table of the steady-state weighted Jain index and
//! aggregate goodput next to their degradation versus the loss-free
//! baseline. The sweep goes through the deterministic parallel executor,
//! so the table is byte-identical across runs and across `--serial`
//! (one-at-a-time) execution.

use scenarios::discipline::default_registry;
use scenarios::fault::{degradation_markdown, degradation_rows};
use scenarios::{cli, fig5_6, Scenario, SEED};
use sim_core::time::SimTime;

fn main() {
    let serial = cli::flags(&["--serial"]).serial;
    let registry = default_registry();
    let scenarios = [
        fig5_6(SEED),
        Scenario::fat_tree_mix(SimTime::from_secs(200), SEED),
    ];
    let losses = [0, 5, 20, 50];
    eprintln!(
        "running {} disciplines × {} workloads × {} loss levels ({} executor)...",
        registry.len(),
        scenarios.len(),
        losses.len(),
        if serial { "serial" } else { "parallel" }
    );
    let rows = degradation_rows(&scenarios, &registry, &losses, serial);
    println!("# Degradation under control-message loss\n");
    print!("{}", degradation_markdown(&rows));
    println!(
        "\nEach row injects the given control-loss percentage (lost marker\n\
         feedback and loss notifications) on top of a clean network; ΔJain\n\
         and Δgoodput are relative to the 0% row of the same scenario and\n\
         discipline. The open-loop disciplines (red/fred/fifo/greedy) carry\n\
         no feedback, so their rows double as a no-op control group — any\n\
         drift there would indicate a leak in the fault plumbing. Positive\n\
         deltas mean degradation (lower Jain / lower goodput than baseline)."
    );
}
