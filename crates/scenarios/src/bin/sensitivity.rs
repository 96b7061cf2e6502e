//! Multi-seed robustness check: reruns the §4.2 and §4.3 comparisons
//! under ten different seeds and reports the spread of every headline
//! metric, confirming the EXPERIMENTS.md conclusions are not artifacts of
//! one random draw.
//!
//! ```text
//! cargo run --release -p scenarios --bin sensitivity [-- --serial]
//! ```
//!
//! The per-seed runs go through the deterministic parallel executor
//! ([`scenarios::exec::run_parallel`]); `--serial` forces one-at-a-time
//! execution, which produces byte-identical output.

use scenarios::exec::{run_parallel, run_serial};
use scenarios::report::{mean_convergence, window_jain_index};
use scenarios::{fig5_6, fig7_8, PaperFigure};
use sim_core::time::SimDuration;

struct Sample {
    jain: f64,
    drops: f64,
    settle: f64,
}

fn main() {
    let serial = std::env::args().skip(1).any(|a| a == "--serial");
    let seeds: Vec<u64> = (1..=10).collect();
    println!(
        "# Seed sensitivity ({} seeds per cell, {} executor)\n",
        seeds.len(),
        if serial { "serial" } else { "parallel" }
    );
    println!("| scenario | discipline | Jain (mean ± std) | drops (mean ± std) | mean settle s (mean ± std) |");
    println!("|---|---|---|---|---|");
    let (mut corelite_drops, mut csfq_drops) = (f64::NAN, f64::NAN);
    for (label, figure) in [
        ("fig5_6 §4.2", PaperFigure::Fig5),
        ("fig5_6 §4.2", PaperFigure::Fig6),
        ("fig7_8 §4.3", PaperFigure::Fig7),
        ("fig7_8 §4.3", PaperFigure::Fig8),
    ] {
        let discipline = figure.discipline();
        let samples: Vec<Sample> = sweep(serial, seeds.clone(), |seed| {
            let scenario = match figure {
                PaperFigure::Fig5 | PaperFigure::Fig6 => fig5_6(seed),
                _ => fig7_8(seed),
            };
            let horizon = scenario.horizon;
            let result = scenario.run(discipline.as_ref());
            let (settle, unsettled) = mean_convergence(
                &result,
                horizon - SimDuration::from_secs(1),
                0.25,
                SimDuration::from_secs(10),
            );
            Sample {
                jain: window_jain_index(&result, horizon - SimDuration::from_secs(20), horizon),
                drops: result.total_drops() as f64,
                settle: settle.unwrap_or(horizon.as_secs_f64()) + 10.0 * unsettled as f64, // penalize unsettled flows
            }
        });
        let (jm, js) = mean_std(samples.iter().map(|s| s.jain));
        let (dm, ds) = mean_std(samples.iter().map(|s| s.drops));
        let (sm, ss) = mean_std(samples.iter().map(|s| s.settle));
        match figure {
            PaperFigure::Fig5 => corelite_drops = dm,
            PaperFigure::Fig6 => csfq_drops = dm,
            _ => {}
        }
        println!(
            "| {label} | {} | {jm:.4} ± {js:.4} | {dm:.0} ± {ds:.0} | {sm:.1} ± {ss:.1} |",
            discipline.name()
        );
    }
    println!(
        "\nExpected shape across every seed: Corelite rows show (near-)zero\n\
         drops; CSFQ rows show hundreds to thousands; both stay above 0.98\n\
         Jain. Run `figures -- summary` for the single-seed detail (t=0\n\
         timestamp column omitted by design: runs are deterministic per seed)."
    );

    // Guard: the binary fails loudly if the headline conclusion flips.
    assert!(
        corelite_drops * 10.0 < csfq_drops,
        "drop asymmetry violated: corelite {corelite_drops}, csfq {csfq_drops}"
    );
}

/// Routes a sweep through the parallel executor or its serial twin.
fn sweep<T, R, F>(serial: bool, jobs: Vec<T>, work: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    if serial {
        run_serial(jobs, work)
    } else {
        run_parallel(jobs, work)
    }
}

fn mean_std(values: impl Iterator<Item = f64>) -> (f64, f64) {
    let v: Vec<f64> = values.collect();
    let n = v.len() as f64;
    let mean = v.iter().sum::<f64>() / n;
    let var = v.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
    (mean, var.sqrt())
}
