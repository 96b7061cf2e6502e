//! `telemetry` — per-epoch control-plane probe dump and convergence
//! diagnostics on the paper's §4.2 schedule (Figure-2 chain).
//!
//! ```text
//! cargo run --release -p scenarios --bin telemetry [-- --out DIR]
//! ```
//!
//! Runs Figure 5/6's simultaneous-start workload under Corelite with the
//! stateless selector, Corelite with the bounded marker cache, and the
//! CSFQ baseline, each with a [`RingProbe`] installed on every node.
//! The probes capture the disciplines' per-epoch internals — detector
//! `q_avg` and feedback count, selector `r_av`/`w_av`/`p_w`/deficit,
//! per-flow granted rate `b_g` and feedback maximum `m_f`, CSFQ fair
//! share `alpha` — and the run dumps each stream as JSONL under the
//! output directory (default `target/telemetry`). Everything is
//! deterministic: two invocations produce byte-identical stdout and
//! JSONL files, which CI checks.
//!
//! Stdout is a markdown report: per-variant sample inventories, the
//! settling-time/oscillation table against the analytic weighted
//! max-min reference, the Jain-index trajectory, and a cross-variant
//! settling diff table.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use corelite::{CoreliteConfig, SelectorKind};
use csfq::CsfqConfig;
use netsim::telemetry::{Probe, RingProbe};
use scenarios::discipline::{Corelite, Csfq, Discipline};
use scenarios::report::{
    jain_trajectory, jain_trajectory_markdown, settling_markdown, settling_summary, SettlingRow,
};
use scenarios::{cli, fig5_6, ExperimentResult, SEED};
use sim_core::event::QueueBackend;
use sim_core::time::SimDuration;

/// Ring capacity per variant: comfortably above the ~10^5 samples an
/// 80 s Figure-2 run publishes, so nothing is overwritten.
const PROBE_CAPACITY: usize = 1 << 18;

fn variants() -> Vec<(&'static str, Box<dyn Discipline>)> {
    vec![
        (
            "corelite-stateless",
            Box::new(Corelite::new(CoreliteConfig::default())) as Box<dyn Discipline>,
        ),
        (
            "corelite-cache",
            Box::new(Corelite::new(
                CoreliteConfig::default().with_selector(SelectorKind::Cache { capacity: 512 }),
            )),
        ),
        ("csfq", Box::new(Csfq::new(CsfqConfig::default()))),
    ]
}

struct VariantRun {
    name: &'static str,
    result: ExperimentResult,
    probe: Rc<RefCell<RingProbe>>,
}

fn sample_inventory(probe: &RingProbe) -> BTreeMap<&'static str, u64> {
    let mut counts = BTreeMap::new();
    for record in probe.iter() {
        *counts.entry(record.sample.name).or_insert(0) += 1;
    }
    counts
}

fn settling_diff_markdown(runs: &[(&'static str, Vec<SettlingRow>)]) -> String {
    let mut out = String::from("| flow | weight | reference (pkt/s) |");
    for (name, _) in runs {
        out.push_str(&format!(" {name} settling (s) |"));
    }
    out.push('\n');
    out.push_str(&"|---".repeat(3 + runs.len()));
    out.push_str("|\n");
    let flows = runs.first().map_or(0, |(_, rows)| rows.len());
    for i in 0..flows {
        let base = &runs[0].1[i];
        out.push_str(&format!(
            "| {} | {} | {:.2} |",
            base.flow, base.weight, base.reference
        ));
        for (_, rows) in runs {
            match rows[i].settling_time {
                Some(t) => out.push_str(&format!(" {:.1} |", t.as_secs_f64())),
                None => out.push_str(" — |"),
            }
        }
        out.push('\n');
    }
    out
}

fn main() {
    let out_dir = cli::flags(&["--out"])
        .out
        .unwrap_or_else(|| "target/telemetry".to_owned());
    let scenario = fig5_6(SEED);
    let probe_at = scenario.horizon;
    let tolerance = 0.3;
    let sustain = SimDuration::from_secs(10);

    std::fs::create_dir_all(&out_dir).expect("create telemetry output directory");
    let mut runs = Vec::new();
    for (name, discipline) in variants() {
        eprintln!("running {} on {}...", name, scenario.name);
        let probe = Rc::new(RefCell::new(RingProbe::with_capacity(PROBE_CAPACITY)));
        let result = scenario.run_instrumented(
            discipline.as_ref(),
            QueueBackend::Wheel,
            probe.clone() as Rc<RefCell<dyn Probe>>,
        );
        let path = format!("{out_dir}/{name}.jsonl");
        std::fs::write(&path, probe.borrow().to_jsonl()).expect("write probe JSONL");
        eprintln!("  {} samples -> {path}", probe.borrow().len());
        runs.push(VariantRun {
            name,
            result,
            probe,
        });
    }

    println!("# Control-plane telemetry: {}\n", scenario.name);
    // The output directory goes to stderr only: stdout must be
    // byte-identical across invocations regardless of `--out`.
    eprintln!("JSONL streams written to {out_dir}/");
    println!(
        "Probe horizon {} s, settling tolerance ±{:.0}% of the analytic\n\
         share, sustain {} s.\n",
        scenario.horizon.as_secs_f64(),
        tolerance * 100.0,
        sustain.as_secs_f64(),
    );

    println!("## Sample inventory\n");
    println!("| variant | samples | dropped | distinct metrics |");
    println!("|---|---|---|---|");
    for run in &runs {
        let probe = run.probe.borrow();
        let inventory = sample_inventory(&probe);
        println!(
            "| {} | {} | {} | {} |",
            run.name,
            probe.len(),
            probe.dropped(),
            inventory.len()
        );
    }
    println!();
    for run in &runs {
        let probe = run.probe.borrow();
        let inventory = sample_inventory(&probe);
        println!("### {}\n", run.name);
        println!("| metric | samples |");
        println!("|---|---|");
        for (name, count) in &inventory {
            println!("| {name} | {count} |");
        }
        println!();
    }

    let mut settled = Vec::new();
    for run in &runs {
        let rows = settling_summary(&run.result, probe_at, tolerance, sustain);
        println!("## Settling vs weighted max-min reference: {}\n", run.name);
        print!("{}", settling_markdown(&rows));
        println!();
        let traj = jain_trajectory(&run.result, SimDuration::from_secs(10));
        println!("### Jain-index trajectory: {}\n", run.name);
        print!("{}", jain_trajectory_markdown(&traj));
        println!();
        settled.push((run.name, rows));
    }

    println!("## Settling-time diff across variants\n");
    print!("{}", settling_diff_markdown(&settled));
    println!(
        "\nSettling is the first instant from which the 4-s-smoothed rate\n\
         stays inside the tolerance band around the flow's analytic share\n\
         for the sustain window; — marks flows that never settle within\n\
         the horizon. The diff table compares the marker-cache and\n\
         stateless Corelite selectors against the CSFQ baseline on the\n\
         same schedule and seed."
    );
}
