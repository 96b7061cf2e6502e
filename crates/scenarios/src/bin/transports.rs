//! `transports` — closed-loop vs open-loop transport fairness tables.
//!
//! ```text
//! cargo run --release -p scenarios --bin transports [-- --serial]
//! ```
//!
//! Runs the mixed-transport scenarios (the paper chain with LIMD and
//! Reno cohorts interleaved, and the 4×2 fat-tree cycling all three
//! transports) under the default Corelite discipline, and prints
//! markdown tables of per-flow steady-state goodput against the
//! weighted max-min reference, flow completion times (time to deliver
//! the first `FCT_PACKETS` packets), and the weighted Jain index per
//! transport cohort. Everything is computed from the deterministic
//! engine, so the output is byte-identical across runs; `--serial`
//! switches from the two-shard parallel engine to the serial one (same
//! bytes — CI diffs the two).

use fairness::metrics::jain_index;
use netsim::Transport;
use scenarios::discipline::Corelite;
use scenarios::{cli, mixed_transports, mixed_transports_fat_tree, ExperimentResult, SEED};
use sim_core::stats::TimeSeries;
use sim_core::time::SimTime;

/// FCT threshold: time to deliver this many packets.
const FCT_PACKETS: f64 = 500.0;

fn transport_name(t: Transport) -> &'static str {
    match t {
        Transport::Limd => "limd",
        Transport::Gbn => "gbn",
        Transport::Reno => "reno",
    }
}

/// First time the cumulative-delivery series reaches `n` packets.
fn completion_time(cumulative: &TimeSeries, n: f64) -> Option<f64> {
    cumulative
        .iter()
        .find(|&(_, v)| v >= n)
        .map(|(t, _)| t.as_secs_f64())
}

fn print_tables(result: &ExperimentResult) {
    let horizon = result.scenario.horizon;
    let from = SimTime::from_secs_f64(horizon.as_secs_f64() / 2.0);
    let mid = SimTime::from_secs_f64((from.as_secs_f64() + horizon.as_secs_f64()) / 2.0);
    let expected = result.expected_rates_at(mid);

    println!("## {}\n", result.scenario.name);
    println!("| flow | transport | weight | expected pkt/s | goodput pkt/s | error % | fct s |");
    println!("|-----:|:----------|-------:|---------------:|--------------:|--------:|------:|");
    let mut cohorts: Vec<(Transport, Vec<f64>, Vec<f64>)> = Vec::new();
    for (i, f) in result.scenario.flows.iter().enumerate() {
        let flow = &result.report.flows[i];
        let measured = flow.goodput.mean_in(from, horizon).unwrap_or(0.0);
        let err = if expected[i] > 0.0 {
            100.0 * (measured - expected[i]) / expected[i]
        } else {
            0.0
        };
        let fct = completion_time(&flow.cumulative, FCT_PACKETS)
            .map(|t| format!("{t:.1}"))
            .unwrap_or_else(|| "-".into());
        println!(
            "| {} | {} | {} | {:.2} | {:.2} | {:+.1} | {} |",
            i + 1,
            transport_name(f.transport),
            f.weight,
            expected[i],
            measured,
            err,
            fct,
        );
        match cohorts.iter_mut().find(|(t, _, _)| *t == f.transport) {
            Some((_, rates, weights)) => {
                rates.push(measured);
                weights.push(f.weight as f64);
            }
            None => cohorts.push((f.transport, vec![measured], vec![f.weight as f64])),
        }
    }

    println!("\n| cohort | flows | weighted Jain | mean pkt/s per weight |");
    println!("|:-------|------:|--------------:|----------------------:|");
    let mut all_rates = Vec::new();
    let mut all_weights = Vec::new();
    for (t, rates, weights) in &cohorts {
        let per_weight: f64 =
            rates.iter().zip(weights).map(|(r, w)| r / w).sum::<f64>() / rates.len() as f64;
        println!(
            "| {} | {} | {:.4} | {:.2} |",
            transport_name(*t),
            rates.len(),
            jain_index(rates, weights),
            per_weight,
        );
        all_rates.extend_from_slice(rates);
        all_weights.extend_from_slice(weights);
    }
    println!(
        "| all | {} | {:.4} | - |\n",
        all_rates.len(),
        jain_index(&all_rates, &all_weights),
    );
}

fn main() {
    let serial = cli::flags(&["--serial"]).serial;
    let mut scenarios = [mixed_transports(SEED), mixed_transports_fat_tree(SEED)];
    for s in &mut scenarios {
        s.shards = if serial { 1 } else { 2 };
    }
    eprintln!(
        "running {} mixed-transport scenarios ({} executor)...",
        scenarios.len(),
        if serial { "serial" } else { "2-shard" }
    );
    println!("# Mixed-transport fairness under Corelite\n");
    let discipline = Corelite::default();
    for s in &scenarios {
        let result = s.run(&discipline);
        print_tables(&result);
    }
    println!(
        "Goodput is delivered packets at the egress (retransmitted\n\
         duplicates excluded) averaged over the second half of the run;\n\
         the expected column is the weighted max-min share. The cohort\n\
         table shows Jain's index weighted by flow weight within each\n\
         transport, plus the pooled index over every flow — closed-loop\n\
         cohorts are held to the same weighted shares as the open-loop\n\
         LIMD edge by Corelite's marker feedback. FCT is the time to\n\
         deliver the first {FCT_PACKETS} packets."
    );
}
