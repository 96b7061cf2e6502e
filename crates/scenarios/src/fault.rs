//! The loss-degradation sweep shared by the `faults` binary and the
//! robustness tests.
//!
//! A scenario carries its faults as a [`netsim::FaultPlan`]
//! ([`Scenario::faults`]); [`Scenario::run_with`] builds core routers
//! and core links first, so core index `i` is `NodeId(i)` and topology
//! link index `j` is `LinkId(j)`.
//!
//! [`degradation_rows`] runs a `scenarios × disciplines × loss levels`
//! sweep through the deterministic executor and reports, per cell, the
//! steady-state weighted Jain index and aggregate goodput next to their
//! loss-free baselines. [`degradation_markdown`] renders the table with
//! fixed-precision formatting, so equal sweeps yield identical bytes.

use sim_core::time::SimDuration;

use crate::discipline::Discipline;
use crate::exec;
use crate::report::window_jain_index;
use crate::runner::Scenario;

/// One cell of the loss-degradation table.
#[derive(Debug, Clone)]
pub struct DegradationRow {
    /// Scenario name.
    pub scenario: &'static str,
    /// Topology name.
    pub topology: &'static str,
    /// Discipline name.
    pub discipline: &'static str,
    /// Control-message loss percentage injected for this cell.
    pub loss_pct: u32,
    /// Weighted Jain index over the last 20 s of the run.
    pub jain: f64,
    /// Aggregate steady-state goodput across all flows, packets/s.
    pub goodput: f64,
    /// Total packets dropped anywhere during the run.
    pub drops: u64,
    /// Jain degradation versus the loss-free baseline, percent
    /// (positive = worse than baseline).
    pub jain_drop_pct: f64,
    /// Goodput degradation versus the loss-free baseline, percent.
    pub goodput_drop_pct: f64,
}

/// Runs every `(scenario, discipline, loss level)` combination and
/// returns one [`DegradationRow`] per cell, in sweep order. The first
/// entry of `loss_pcts` is the baseline the deltas are computed
/// against (pass `0` there for a loss-free reference). Each lossy cell
/// layers `control_loss` on top of whatever faults the scenario
/// already carries.
///
/// The sweep goes through [`exec::run_parallel`] unless `serial` is set;
/// both orders produce identical rows.
///
/// # Panics
///
/// Panics if `loss_pcts` is empty or any percentage exceeds 100.
pub fn degradation_rows(
    scenarios: &[Scenario],
    registry: &[Box<dyn Discipline>],
    loss_pcts: &[u32],
    serial: bool,
) -> Vec<DegradationRow> {
    assert!(!loss_pcts.is_empty(), "need at least a baseline loss level");
    assert!(
        loss_pcts.iter().all(|&p| p <= 100),
        "loss percentages must be at most 100"
    );
    let jobs: Vec<(usize, usize, usize)> = (0..scenarios.len())
        .flat_map(|s| {
            (0..registry.len()).flat_map(move |d| (0..loss_pcts.len()).map(move |l| (s, d, l)))
        })
        .collect();
    let work = |(s, d, l): (usize, usize, usize)| {
        let mut scenario = scenarios[s].clone();
        let pct = loss_pcts[l];
        if pct > 0 {
            scenario.faults = scenario.faults.control_loss(f64::from(pct) / 100.0);
        }
        let result = scenario.run(registry[d].as_ref());
        let horizon = result.scenario.horizon;
        let steady_from = horizon - SimDuration::from_secs(20);
        let goodput: f64 = (0..result.scenario.flows.len())
            .filter_map(|i| result.report.flows[i].mean_goodput_in(steady_from, horizon))
            .sum();
        (
            window_jain_index(&result, steady_from, horizon),
            goodput,
            result.total_drops(),
        )
    };
    let cells = exec::run(serial, jobs.clone(), work);
    jobs.iter()
        .zip(&cells)
        .map(|(&(s, d, l), &(jain, goodput, drops))| {
            // The baseline cell shares (s, d) and sits at loss index 0.
            let base = jobs
                .iter()
                .position(|&(bs, bd, bl)| bs == s && bd == d && bl == 0)
                .expect("every cell has a baseline");
            let (base_jain, base_goodput, _) = cells[base];
            let drop_pct = |base: f64, now: f64| {
                if base > 0.0 {
                    100.0 * (base - now) / base
                } else {
                    0.0
                }
            };
            DegradationRow {
                scenario: scenarios[s].name,
                topology: scenarios[s].topology.name,
                discipline: registry[d].name(),
                loss_pct: loss_pcts[l],
                jain,
                goodput,
                drops,
                jain_drop_pct: drop_pct(base_jain, jain),
                goodput_drop_pct: drop_pct(base_goodput, goodput),
            }
        })
        .collect()
}

/// Renders [`degradation_rows`] output as a markdown table. All numeric
/// columns use fixed precision, so identical rows render to identical
/// bytes — the determinism contract the `faults` binary is tested
/// against.
pub fn degradation_markdown(rows: &[DegradationRow]) -> String {
    let mut out = String::new();
    out.push_str(
        "| scenario | topology | discipline | loss % | Jain (steady) | ΔJain % | goodput (pkt/s) | Δgoodput % | drops |\n",
    );
    out.push_str("|---|---|---|---|---|---|---|---|---|\n");
    for r in rows {
        // The index of an all-zero allocation reads 1.0000 and says
        // nothing: a cell that delivered nothing prints no index.
        let (jain, jain_drop) = if r.goodput > 0.0 {
            (format!("{:.4}", r.jain), format!("{:+.1}", r.jain_drop_pct))
        } else {
            ("—".to_owned(), "—".to_owned())
        };
        out.push_str(&format!(
            "| {} | {} | {} | {} | {} | {} | {:.1} | {:+.1} | {} |\n",
            r.scenario,
            r.topology,
            r.discipline,
            r.loss_pct,
            jain,
            jain_drop,
            r.goodput,
            r.goodput_drop_pct,
            r.drops,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::time::SimTime;

    #[test]
    fn degradation_rows_report_deltas_against_baseline() {
        use crate::runner::ScenarioFlow;
        use crate::topology::Route;
        let scenario = Scenario::paper(
            "mini",
            vec![
                ScenarioFlow::best_effort(Route::new(0, 1), 1, SimTime::ZERO),
                ScenarioFlow::best_effort(Route::new(0, 1), 2, SimTime::ZERO),
            ],
            SimTime::from_secs(30),
            7,
        );
        let registry = vec![crate::discipline::by_name("corelite").unwrap()];
        let rows = degradation_rows(&[scenario], &registry, &[0, 50], true);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].loss_pct, 0);
        assert_eq!(rows[0].jain_drop_pct, 0.0);
        assert_eq!(rows[0].goodput_drop_pct, 0.0);
        assert!(rows[0].jain > 0.9, "baseline Jain {}", rows[0].jain);
        assert_eq!(rows[1].loss_pct, 50);
        // Half the control messages lost: the table must still carry a
        // finite, formatted row (the *bound* on degradation lives in the
        // integration tests).
        assert!(rows[1].jain.is_finite() && rows[1].goodput.is_finite());
        let md = degradation_markdown(&rows);
        assert!(md.contains("| mini |"), "{md}");
        assert_eq!(md.lines().count(), 2 + rows.len());
        // A cell that delivered nothing has no fairness to index: its
        // all-zero allocation would read 1.0000.
        let silent = DegradationRow {
            jain: 1.0,
            goodput: 0.0,
            jain_drop_pct: 0.0,
            ..rows[1].clone()
        };
        let line = degradation_markdown(&[silent]);
        assert!(line.contains("| 50 | — | — | 0.0 |"), "{line}");
    }
}
