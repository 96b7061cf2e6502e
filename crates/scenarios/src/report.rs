//! Expected-vs-measured tables, convergence summaries, and CSV export.

use fairness::metrics::{convergence_time, jain_index, settling_report, ConvergenceSpec};
use sim_core::stats::TimeSeries;
use sim_core::time::{SimDuration, SimTime};

use crate::runner::ExperimentResult;

/// Expected-vs-measured summary for one flow over a steady-state window.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowSummary {
    /// 1-based paper flow number.
    pub flow: usize,
    /// The flow's rate weight.
    pub weight: u32,
    /// Analytic weighted max-min share at the window midpoint, pkt/s.
    pub expected: f64,
    /// Measured mean allotted rate over the window, pkt/s.
    pub measured: f64,
}

impl FlowSummary {
    /// Relative error of the measurement against the analytic share
    /// (0 when both are 0).
    pub fn relative_error(&self) -> f64 {
        if self.expected.abs() < 1e-9 {
            if self.measured.abs() < 1e-9 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            (self.measured - self.expected).abs() / self.expected
        }
    }
}

/// Compares each flow's mean allotted rate over `[from, to)` against the
/// analytic weighted max-min share at the window midpoint.
pub fn steady_state_summary(
    result: &ExperimentResult,
    from: SimTime,
    to: SimTime,
) -> Vec<FlowSummary> {
    let mid = SimTime::from_secs_f64((from.as_secs_f64() + to.as_secs_f64()) / 2.0);
    let expected = result.expected_rates_at(mid);
    (0..result.scenario.flows.len())
        .map(|i| FlowSummary {
            flow: i + 1,
            weight: result.scenario.flows[i].weight,
            expected: expected[i],
            measured: result.mean_rate_in(i, from, to),
        })
        .collect()
}

/// Jain's fairness index of the measured rates of the flows expected to be
/// active over the window (weights respected).
pub fn window_jain_index(result: &ExperimentResult, from: SimTime, to: SimTime) -> f64 {
    let summaries = steady_state_summary(result, from, to);
    let (rates, weights): (Vec<f64>, Vec<f64>) = summaries
        .iter()
        .filter(|s| s.expected > 0.0)
        .map(|s| (s.measured, s.weight as f64))
        .unzip();
    jain_index(&rates, &weights)
}

/// Per-flow settling times: the first instant from which the allotted
/// rate — smoothed over 4 s buckets, since both disciplines oscillate
/// around their operating point by design (the paper reads convergence
/// off the plotted curves) — stays within ±`tolerance` of the flow's own
/// realized steady-state mean (its smoothed mean over the window ending
/// at `probe`) for at least `sustain`.
///
/// Settling is measured against the *realized* operating point rather
/// than the analytic share: accuracy against the analytic share is
/// reported separately by [`steady_state_summary`], and conflating the
/// two makes the metric fail for flows whose equilibrium sits slightly
/// off the ideal (e.g. multi-bottleneck flows reacting to the max
/// per-core feedback).
pub fn convergence_summary(
    result: &ExperimentResult,
    probe: SimTime,
    tolerance: f64,
    sustain: SimDuration,
) -> Vec<(usize, Option<SimTime>)> {
    let expected = result.expected_rates_at(probe);
    let window = SimDuration::from_secs(10);
    (0..result.scenario.flows.len())
        .map(|i| {
            if expected[i] <= 0.0 {
                return (i + 1, None);
            }
            let smoothed = result
                .rate_series(i)
                .resample_mean(SimDuration::from_secs(4));
            let from = if probe.saturating_since(SimTime::ZERO) > window {
                probe - window
            } else {
                SimTime::ZERO
            };
            let Some(target) = smoothed.mean_in(from, probe) else {
                return (i + 1, None);
            };
            if target <= 0.0 {
                return (i + 1, None);
            }
            let spec = ConvergenceSpec {
                target,
                tolerance,
                sustain,
            };
            (i + 1, convergence_time(&smoothed, &spec))
        })
        .collect()
}

/// The mean per-flow settling time over the expected-active flows that
/// settle at all, together with the count that never settle. More robust
/// than the maximum when a single low-weight flow oscillates across the
/// band boundary.
pub fn mean_convergence(
    result: &ExperimentResult,
    probe: SimTime,
    tolerance: f64,
    sustain: SimDuration,
) -> (Option<f64>, usize) {
    let expected = result.expected_rates_at(probe);
    let mut sum = 0.0;
    let mut n = 0usize;
    let mut unsettled = 0usize;
    for (i, t) in convergence_summary(result, probe, tolerance, sustain) {
        if expected[i - 1] <= 0.0 {
            continue;
        }
        match t {
            Some(t) => {
                sum += t.as_secs_f64();
                n += 1;
            }
            None => unsettled += 1,
        }
    }
    ((n > 0).then(|| sum / n as f64), unsettled)
}

/// The latest per-flow convergence time, or `None` if any expected-active
/// flow never converges — the scalar used to compare §4.2's "Corelite
/// converges more than 30 seconds faster than CSFQ".
pub fn last_convergence(
    result: &ExperimentResult,
    probe: SimTime,
    tolerance: f64,
    sustain: SimDuration,
) -> Option<SimTime> {
    let expected = result.expected_rates_at(probe);
    let mut latest = SimTime::ZERO;
    for (i, t) in convergence_summary(result, probe, tolerance, sustain) {
        if expected[i - 1] <= 0.0 {
            continue;
        }
        latest = latest.max(t?);
    }
    Some(latest)
}

/// The §4.4 headline cells of one run, formatted as `compare` and
/// `figures` print them. Settling uses a ±25 % band held for 10 s,
/// probed 1 s before the horizon; Jain is taken over the last 20 s.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeadlineCells {
    /// Weighted Jain index over the steady window, or `—` when no flow
    /// due a share measured a rate (the index of all zeros reads 1.0000
    /// and says nothing).
    pub jain: String,
    /// Packets dropped anywhere in the network.
    pub drops: u64,
    /// [`mean_convergence`], with the count of flows that never settle.
    pub mean_settle: String,
    /// [`last_convergence`], or `never`.
    pub last_settle: String,
    /// Mean over flows of the p99 queueing delay, milliseconds.
    pub p99_ms: String,
}

/// Computes the [`HeadlineCells`] of `result`.
pub fn headline_cells(result: &ExperimentResult) -> HeadlineCells {
    let horizon = result.scenario.horizon;
    let steady_from = horizon - SimDuration::from_secs(20);
    let probe = horizon - SimDuration::from_secs(1);
    let sustain = SimDuration::from_secs(10);
    let last_settle = last_convergence(result, probe, 0.25, sustain)
        .map(|t| format!("{:.1}", t.as_secs_f64()))
        .unwrap_or_else(|| "never".to_owned());
    let mean_settle = match mean_convergence(result, probe, 0.25, sustain) {
        (Some(m), 0) => format!("{m:.1}"),
        (Some(m), unsettled) => format!("{m:.1} ({unsettled} unsettled)"),
        (None, _) => "never".to_owned(),
    };
    let p99s: Vec<f64> = result
        .report
        .flows
        .iter()
        .filter_map(|f| f.delay_quantile(0.99))
        .collect();
    let p99_ms = if p99s.is_empty() {
        0.0
    } else {
        1e3 * p99s.iter().sum::<f64>() / p99s.len() as f64
    };
    let served = steady_state_summary(result, steady_from, horizon)
        .iter()
        .any(|s| s.expected > 0.0 && s.measured > 0.0);
    let jain = if served {
        format!("{:.4}", window_jain_index(result, steady_from, horizon))
    } else {
        "—".to_owned()
    };
    HeadlineCells {
        jain,
        drops: result.total_drops(),
        mean_settle,
        last_settle,
        p99_ms: format!("{p99_ms:.0}"),
    }
}

/// One flow's convergence diagnostics against the analytic weighted
/// max-min reference (contrast with [`convergence_summary`], which
/// measures against the flow's own realized operating point).
#[derive(Debug, Clone, PartialEq)]
pub struct SettlingRow {
    /// 1-based paper flow number.
    pub flow: usize,
    /// The flow's rate weight.
    pub weight: u32,
    /// Analytic weighted max-min share at the probe instant, pkt/s.
    pub reference: f64,
    /// First instant from which the smoothed rate stays within the
    /// tolerance band around `reference` for the sustain window, or
    /// `None` if the flow never settles.
    pub settling_time: Option<SimTime>,
    /// Half the peak-to-peak rate excursion after settling, as a
    /// fraction of `reference`; `None` while unsettled.
    pub oscillation: Option<f64>,
}

/// Per-flow settling time and post-settling oscillation amplitude
/// against the **analytic** weighted max-min reference at `probe`
/// (the §4.2 convergence diagnostic). Rates are smoothed over 4 s
/// buckets, as in [`convergence_summary`]. Flows whose reference share
/// is 0 (inactive at `probe`) report `None` for both diagnostics.
pub fn settling_summary(
    result: &ExperimentResult,
    probe: SimTime,
    tolerance: f64,
    sustain: SimDuration,
) -> Vec<SettlingRow> {
    let expected = result.expected_rates_at(probe);
    (0..result.scenario.flows.len())
        .map(|i| {
            let weight = result.scenario.flows[i].weight;
            if expected[i] <= 0.0 {
                return SettlingRow {
                    flow: i + 1,
                    weight,
                    reference: expected[i],
                    settling_time: None,
                    oscillation: None,
                };
            }
            let smoothed = result
                .rate_series(i)
                .resample_mean(SimDuration::from_secs(4));
            let r = settling_report(&smoothed, expected[i], tolerance, sustain);
            SettlingRow {
                flow: i + 1,
                weight,
                reference: expected[i],
                settling_time: r.settling_time,
                oscillation: r.oscillation,
            }
        })
        .collect()
}

/// Jain's weighted fairness index sampled every `step` across the run:
/// at each instant the index is computed over the 4-s-smoothed rates of
/// the flows whose analytic share at that instant is positive. Empty
/// active sets contribute no sample, so the series starts at the first
/// instant with traffic expected.
pub fn jain_trajectory(result: &ExperimentResult, step: SimDuration) -> TimeSeries {
    assert!(!step.is_zero(), "trajectory sampling step must be positive");
    let n = result.scenario.flows.len();
    let smoothed: Vec<TimeSeries> = (0..n)
        .map(|i| {
            result
                .rate_series(i)
                .resample_mean(SimDuration::from_secs(4))
        })
        .collect();
    let mut out = TimeSeries::new();
    let mut t = SimTime::ZERO;
    while t <= result.scenario.horizon {
        let expected = result.expected_rates_at(t);
        let (rates, weights): (Vec<f64>, Vec<f64>) = (0..n)
            .filter(|&i| expected[i] > 0.0)
            .map(|i| {
                (
                    smoothed[i].value_at(t).unwrap_or(0.0),
                    result.scenario.flows[i].weight as f64,
                )
            })
            .unzip();
        if !rates.is_empty() {
            out.push(t, jain_index(&rates, &weights));
        }
        t += step;
    }
    out
}

/// Renders a settling summary as a Markdown table.
pub fn settling_markdown(rows: &[SettlingRow]) -> String {
    let mut out =
        String::from("| flow | weight | reference (pkt/s) | settling (s) | oscillation |\n");
    out.push_str("|---|---|---|---|---|\n");
    for r in rows {
        let settle = match r.settling_time {
            Some(t) => format!("{:.1}", t.as_secs_f64()),
            None => "—".to_owned(),
        };
        let osc = match r.oscillation {
            Some(a) => format!("{:.1}%", a * 100.0),
            None => "—".to_owned(),
        };
        out.push_str(&format!(
            "| {} | {} | {:.2} | {} | {} |\n",
            r.flow, r.weight, r.reference, settle, osc
        ));
    }
    out
}

/// Renders a Jain-index trajectory as a Markdown table (one row per
/// sample).
pub fn jain_trajectory_markdown(trajectory: &TimeSeries) -> String {
    let mut out = String::from("| t (s) | Jain index |\n|---|---|\n");
    for (t, j) in trajectory.iter() {
        out.push_str(&format!("| {:.0} | {j:.4} |\n", t.as_secs_f64()));
    }
    out
}

/// Renders a steady-state summary as a Markdown table.
pub fn summary_markdown(summaries: &[FlowSummary]) -> String {
    let mut out =
        String::from("| flow | weight | expected (pkt/s) | measured (pkt/s) | rel. error |\n");
    out.push_str("|---|---|---|---|---|\n");
    for s in summaries {
        let err = s.relative_error();
        out.push_str(&format!(
            "| {} | {} | {:.2} | {:.2} | {:.1}% |\n",
            s.flow,
            s.weight,
            s.expected,
            s.measured,
            err * 100.0
        ));
    }
    out
}

/// Exports every flow's rate series (edge-recorded allotted rate, or
/// measured goodput for open-loop disciplines) as a wide CSV
/// (`time,flow1,...,flowN`), sampled-and-held every `step`.
pub fn rate_series_csv(result: &ExperimentResult, step: SimDuration) -> String {
    series_csv(result, step, |r, i, t| {
        r.rate_series(i).value_at(t).unwrap_or(0.0)
    })
}

/// Exports every flow's cumulative delivered packets as a wide CSV
/// (Figure 4's quantity).
pub fn cumulative_csv(result: &ExperimentResult, step: SimDuration) -> String {
    series_csv(result, step, |r, i, t| {
        r.report.flows[i].cumulative.value_at(t).unwrap_or(0.0)
    })
}

fn series_csv(
    result: &ExperimentResult,
    step: SimDuration,
    value: impl Fn(&ExperimentResult, usize, SimTime) -> f64,
) -> String {
    assert!(!step.is_zero(), "CSV sampling step must be positive");
    let n = result.scenario.flows.len();
    let mut out = String::from("time");
    for i in 0..n {
        out.push_str(&format!(",flow{}", i + 1));
    }
    out.push('\n');
    let mut t = SimTime::ZERO;
    while t <= result.scenario.horizon {
        out.push_str(&format!("{:.3}", t.as_secs_f64()));
        for i in 0..n {
            out.push_str(&format!(",{:.3}", value(result, i, t)));
        }
        out.push('\n');
        t += step;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::discipline::Corelite;
    use crate::runner::{Scenario, ScenarioFlow};
    use crate::topology::Route;
    use corelite::CoreliteConfig;

    fn small_result() -> ExperimentResult {
        let scenario = Scenario::paper(
            "report_test",
            vec![
                ScenarioFlow {
                    transport: Default::default(),
                    path: Route::new(0, 1).into(),
                    weight: 1,
                    min_rate: 0.0,
                    activations: vec![(SimTime::ZERO, None)],
                },
                ScenarioFlow {
                    transport: Default::default(),
                    path: Route::new(0, 1).into(),
                    weight: 2,
                    min_rate: 0.0,
                    activations: vec![(SimTime::ZERO, None)],
                },
            ],
            SimTime::from_secs(260),
            3,
        );
        scenario.run(&Corelite::new(CoreliteConfig::default()))
    }

    #[test]
    fn summary_compares_measured_to_analytic() {
        let result = small_result();
        let s = steady_state_summary(&result, SimTime::from_secs(200), SimTime::from_secs(260));
        assert_eq!(s.len(), 2);
        assert!((s[0].expected - 500.0 / 3.0).abs() < 1e-6);
        assert!((s[1].expected - 1000.0 / 3.0).abs() < 1e-6);
        assert!(s[0].relative_error() < 0.3, "err {}", s[0].relative_error());
        assert!(s[1].relative_error() < 0.3, "err {}", s[1].relative_error());
    }

    #[test]
    fn jain_index_high_in_steady_state() {
        let result = small_result();
        let j = window_jain_index(&result, SimTime::from_secs(200), SimTime::from_secs(260));
        assert!(j > 0.95, "jain {j}");
    }

    #[test]
    fn markdown_has_row_per_flow() {
        let result = small_result();
        let s = steady_state_summary(&result, SimTime::from_secs(200), SimTime::from_secs(260));
        let md = summary_markdown(&s);
        assert_eq!(md.lines().count(), 2 + s.len());
        assert!(md.contains("| 1 | 1 |"));
    }

    #[test]
    fn csv_has_header_and_rows() {
        let result = small_result();
        let csv = rate_series_csv(&result, SimDuration::from_secs(10));
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some("time,flow1,flow2"));
        assert_eq!(csv.lines().count(), 1 + 27); // t = 0, 10, ..., 260
        let cum = cumulative_csv(&result, SimDuration::from_secs(30));
        assert!(cum.lines().count() >= 3);
    }

    #[test]
    fn convergence_summary_reports_each_flow() {
        let result = small_result();
        let conv = convergence_summary(
            &result,
            SimTime::from_secs(250),
            0.25,
            SimDuration::from_secs(10),
        );
        assert_eq!(conv.len(), 2);
        assert!(conv.iter().all(|(_, t)| t.is_some()), "{conv:?}");
        let last = last_convergence(
            &result,
            SimTime::from_secs(250),
            0.25,
            SimDuration::from_secs(10),
        );
        assert!(last.is_some());
    }

    #[test]
    fn settling_summary_measures_against_analytic_reference() {
        let result = small_result();
        let rows = settling_summary(
            &result,
            SimTime::from_secs(250),
            0.3,
            SimDuration::from_secs(10),
        );
        assert_eq!(rows.len(), 2);
        assert!((rows[0].reference - 500.0 / 3.0).abs() < 1e-6);
        assert!((rows[1].reference - 1000.0 / 3.0).abs() < 1e-6);
        for r in &rows {
            assert!(r.settling_time.is_some(), "{r:?}");
            let osc = r.oscillation.expect("settled flows report oscillation");
            assert!((0.0..0.6).contains(&osc), "{r:?}");
        }
        let md = settling_markdown(&rows);
        assert_eq!(md.lines().count(), 2 + rows.len());
        assert!(md.contains("| 1 | 1 |"));
    }

    #[test]
    fn jain_trajectory_rises_toward_one() {
        let result = small_result();
        let traj = jain_trajectory(&result, SimDuration::from_secs(20));
        assert!(!traj.is_empty());
        let late = traj
            .mean_in(SimTime::from_secs(200), SimTime::from_secs(261))
            .unwrap();
        assert!(late > 0.9, "late jain {late}");
        let md = jain_trajectory_markdown(&traj);
        assert!(md.lines().count() >= 3);
        assert!(md.starts_with("| t (s) | Jain index |"));
    }

    #[test]
    fn relative_error_edge_cases() {
        let zero_zero = FlowSummary {
            flow: 1,
            weight: 1,
            expected: 0.0,
            measured: 0.0,
        };
        assert_eq!(zero_zero.relative_error(), 0.0);
        let zero_some = FlowSummary {
            flow: 1,
            weight: 1,
            expected: 0.0,
            measured: 5.0,
        };
        assert_eq!(zero_some.relative_error(), f64::INFINITY);
    }
}
