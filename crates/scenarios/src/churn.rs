//! The churn sweep shared by the `churn` binary and the lifecycle tests.
//!
//! [`churn_rows`] runs a `scenarios × disciplines` sweep of dynamic-
//! arrival workloads through the deterministic executor and reports, per
//! cell, the flow-completion-time distribution, settling time, peak
//! concurrency and table footprint from the run's
//! [`netsim::ChurnReport`]. [`churn_markdown`] renders the table with
//! fixed-precision formatting, so equal sweeps yield identical bytes —
//! the determinism contract a CI step compares across runs.

use crate::discipline::Discipline;
use crate::exec;
use crate::runner::Scenario;

/// One cell of the churn table.
#[derive(Debug, Clone)]
pub struct ChurnRow {
    /// Scenario name.
    pub scenario: &'static str,
    /// Topology name.
    pub topology: &'static str,
    /// Discipline name.
    pub discipline: &'static str,
    /// Flows created by the arrival process.
    pub arrivals: u64,
    /// Retired flows that delivered at least one packet.
    pub completed: u64,
    /// Mean flow completion time, seconds (0 if nothing completed).
    pub mean_fct: f64,
    /// 95th-percentile flow completion time, seconds.
    pub p95_fct: f64,
    /// Mean settling time (arrival to first delivery), seconds.
    pub mean_settling: f64,
    /// Highest concurrent active-flow count observed.
    pub peak_active: u64,
    /// Highest number of flow-table slots ever resident.
    pub peak_slots: usize,
    /// Stale events the engine discarded (recycled-slot hygiene; should
    /// be 0 whenever the linger covers the residual in-flight time).
    pub stale_events: u64,
}

/// Runs every `(scenario, discipline)` combination and returns one
/// [`ChurnRow`] per cell, in sweep order. The sweep goes through
/// [`exec::run_parallel`] unless `serial` is set; both orders produce
/// identical rows.
///
/// # Panics
///
/// Panics if a scenario carries no churn process — the sweep would
/// produce empty rows, which always indicates a mis-built scenario.
pub fn churn_rows(
    scenarios: &[Scenario],
    registry: &[Box<dyn Discipline>],
    serial: bool,
) -> Vec<ChurnRow> {
    for s in scenarios {
        assert!(
            s.churn.is_some(),
            "scenario `{}` has no churn process",
            s.name
        );
    }
    let jobs: Vec<(usize, usize)> = (0..scenarios.len())
        .flat_map(|s| (0..registry.len()).map(move |d| (s, d)))
        .collect();
    let work = |(s, d): (usize, usize)| {
        let result = scenarios[s].run(registry[d].as_ref());
        result
            .report
            .churn
            .clone()
            .expect("churn scenarios produce a churn report")
    };
    let cells = exec::run(serial, jobs.clone(), work);
    jobs.iter()
        .zip(&cells)
        .map(|(&(s, d), churn)| ChurnRow {
            scenario: scenarios[s].name,
            topology: scenarios[s].topology.name,
            discipline: registry[d].name(),
            arrivals: churn.arrivals,
            completed: churn.completed,
            mean_fct: churn.mean_fct().unwrap_or(0.0),
            p95_fct: churn.fct_quantile(0.95).unwrap_or(0.0),
            mean_settling: churn.settling.mean().unwrap_or(0.0),
            peak_active: churn.peak_active,
            peak_slots: churn.peak_slots,
            stale_events: churn.stale_events,
        })
        .collect()
}

/// Renders [`churn_rows`] output as a markdown table. All numeric
/// columns use fixed precision, so identical rows render to identical
/// bytes.
pub fn churn_markdown(rows: &[ChurnRow]) -> String {
    let mut out = String::new();
    out.push_str(
        "| scenario | topology | discipline | arrivals | completed | mean FCT (s) | p95 FCT (s) | settle (s) | peak active | peak slots | stale |\n",
    );
    out.push_str("|---|---|---|---|---|---|---|---|---|---|---|\n");
    for r in rows {
        out.push_str(&format!(
            "| {} | {} | {} | {} | {} | {:.3} | {:.3} | {:.3} | {} | {} | {} |\n",
            r.scenario,
            r.topology,
            r.discipline,
            r.arrivals,
            r.completed,
            r.mean_fct,
            r.p95_fct,
            r.mean_settling,
            r.peak_active,
            r.peak_slots,
            r.stale_events,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{ScenarioChurn, ScenarioFlow};
    use crate::topology::Route;
    use sim_core::time::SimTime;

    fn churn_scenario(horizon_secs: u64) -> Scenario {
        Scenario::paper(
            "churn_mini",
            vec![ScenarioFlow::best_effort(
                Route::new(0, 3),
                2,
                SimTime::ZERO,
            )],
            SimTime::from_secs(horizon_secs),
            11,
        )
        .with_churn(
            ScenarioChurn::new(4.0, 20.0, 100.0)
                .route(Route::new(0, 1))
                .route(Route::new(2, 3))
                .weights(vec![1, 2])
                .window(SimTime::ZERO, SimTime::from_secs(horizon_secs / 2)),
        )
    }

    #[test]
    fn churn_rows_collect_lifecycle_metrics() {
        let registry = vec![crate::discipline::by_name("corelite").unwrap()];
        let rows = churn_rows(&[churn_scenario(30)], &registry, true);
        assert_eq!(rows.len(), 1);
        let r = &rows[0];
        assert!(r.arrivals > 20, "arrivals {}", r.arrivals);
        assert!(r.completed > 0, "completed {}", r.completed);
        assert!(r.mean_fct > 0.0 && r.p95_fct >= r.mean_settling);
        assert!(r.peak_active as usize <= r.peak_slots);
        let md = churn_markdown(&rows);
        assert!(md.contains("| churn_mini |"), "{md}");
        assert_eq!(md.lines().count(), 2 + rows.len());
    }

    #[test]
    #[should_panic(expected = "no churn process")]
    fn static_scenarios_are_rejected() {
        let mut s = churn_scenario(30);
        s.churn = None;
        let registry = vec![crate::discipline::by_name("corelite").unwrap()];
        churn_rows(&[s], &registry, true);
    }
}
