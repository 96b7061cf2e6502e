//! `benchmark compare A B`: judges capture B (the change) against capture
//! A (the parent) by the bounds in `metrics.rs`.
//!
//! A capture is a text file of `workload metric value unit` lines, as
//! every run writes to `results.txt`; several runs concatenated into one
//! file give each (workload, metric) a sample, whose median is compared
//! and whose quartile distance is the run-to-run spread.

use std::collections::BTreeMap;

use crate::metrics::{self, Better};
use crate::stats::{summary, Summary};

type Capture = BTreeMap<(String, String), Vec<f64>>;

/// Collects the end-to-end samples of a capture; every other line
/// (per-layer metrics, digests, notes) is skipped.
pub fn parse(text: &str) -> Capture {
    let mut out = Capture::new();
    for line in text.lines() {
        let mut fields = line.split_whitespace();
        let (Some(workload), Some(metric), Some(value)) =
            (fields.next(), fields.next(), fields.next())
        else {
            continue;
        };
        if metrics::end_to_end(metric).is_none() {
            continue;
        }
        if let Ok(v) = value.parse::<f64>() {
            out.entry((workload.to_owned(), metric.to_owned()))
                .or_default()
                .push(v);
        }
    }
    out
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regression,
    /// The run-to-run spread is wider than the bound, so the medians
    /// cannot tell a regression from noise.
    Unresolved,
}

/// How much worse `b` is than `a`, as a share of `a`; negative = better.
fn worse_by(better: Better, a: f64, b: f64) -> f64 {
    let change = (b - a) / a.abs();
    match better {
        Better::Lower => change,
        Better::Higher => -change,
    }
}

pub fn judge(
    better: Better,
    bound: f64,
    a: &[f64],
    b: &[f64],
) -> Option<(Summary, Summary, Verdict)> {
    let (sa, sb) = (summary(a)?, summary(b)?);
    let verdict = if worse_by(better, sa.median, sb.median) > bound {
        Verdict::Regression
    } else if sa.spread().max(sb.spread()) > bound {
        // Unless every run of the change reads better than every run of
        // the parent, the medians alone do not show "no regression".
        let all_better = match better {
            Better::Lower => sb.max < sa.min,
            Better::Higher => sb.min > sa.max,
        };
        if all_better {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        }
    } else {
        Verdict::Ok
    };
    Some((sa, sb, verdict))
}

/// Prints one row per (workload, end-to-end metric) of `a` and returns
/// the number of regressions, a metric missing from `b` included.
pub fn report(a: &Capture, b: &Capture, mut print: impl FnMut(String)) -> usize {
    let mut regressions = 0;
    for ((workload, metric), va) in a {
        let &(_, unit, better, bound) =
            metrics::end_to_end(metric).expect("parse kept known names");
        let judged = b
            .get(&(workload.clone(), metric.clone()))
            .and_then(|vb| judge(better, bound, va, vb));
        let Some((sa, sb, verdict)) = judged else {
            regressions += 1;
            print(format!(
                "{workload} {metric} missing from the second capture: regression"
            ));
            continue;
        };
        if verdict == Verdict::Regression {
            regressions += 1;
        }
        print(format!(
            "{workload} {metric} A={} (n={}, spread {:.3}) B={} (n={}, spread {:.3}) {unit} \
             B/A={:.4} {} is better, bound {bound}: {}",
            sa.median,
            sa.n,
            sa.spread(),
            sb.median,
            sb.n,
            sb.spread(),
            sb.median / sa.median,
            better.as_str(),
            match verdict {
                Verdict::Ok => "ok",
                Verdict::Regression => "regression",
                Verdict::Unresolved => "unresolved",
            }
        ));
    }
    regressions
}

#[cfg(test)]
mod tests {
    use super::*;

    const CAPTURE: &str = "\
# a comment, then two runs
chain_corelite wall_s 1.00 s q1=0.99 q3=1.02 n=12
chain_corelite wall_s 1.02 s
chain_corelite pkts_per_s 1500000 pkt/s
chain_corelite jain 0.9995 ratio
chain_corelite sim_digest 0x1234 hex
chain_corelite corelite.edge.calls 12 count
";

    fn verdicts(a: &str, b: &str) -> (usize, Vec<String>) {
        let mut rows = Vec::new();
        let n = report(&parse(a), &parse(b), |r| rows.push(r));
        (n, rows)
    }

    #[test]
    fn parses_only_end_to_end_lines() {
        let c = parse(CAPTURE);
        assert_eq!(c.len(), 3);
        assert_eq!(c[&("chain_corelite".into(), "wall_s".into())], [1.00, 1.02]);
    }

    #[test]
    fn a_capture_compared_with_itself_is_all_ok() {
        let (regressions, rows) = verdicts(CAPTURE, CAPTURE);
        assert_eq!(regressions, 0);
        assert_eq!(rows.len(), 3);
        assert!(rows.iter().all(|r| r.ends_with(": ok")), "{rows:?}");
    }

    #[test]
    fn a_timing_inflated_past_its_bound_is_a_regression() {
        let slower = CAPTURE.replace("wall_s 1.0", "wall_s 2.0");
        let (regressions, rows) = verdicts(CAPTURE, &slower);
        assert_eq!(regressions, 1);
        assert!(rows
            .iter()
            .any(|r| r.contains("wall_s") && r.ends_with(": regression")));
        // The same change read the other way round is a gain, not a regression.
        assert_eq!(verdicts(&slower, CAPTURE).0, 0);
        // Throughput is better when higher.
        let fewer = CAPTURE.replace("1500000", "700000");
        assert_eq!(verdicts(CAPTURE, &fewer).0, 1);
        assert_eq!(verdicts(&fewer, CAPTURE).0, 0);
    }

    #[test]
    fn a_missing_metric_is_a_regression() {
        let without = CAPTURE.replace("chain_corelite jain", "chain_corelite other");
        assert_eq!(verdicts(CAPTURE, &without).0, 1);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_every_run_is_better() {
        let noisy =
            |base: f64| -> Vec<f64> { (0..8).map(|i| base * (1.0 + 0.05 * i as f64)).collect() };
        let (a, b) = (noisy(1.0), noisy(1.01));
        let (_, _, v) = judge(Better::Lower, 0.10, &a, &b).unwrap();
        assert_eq!(v, Verdict::Unresolved);
        let (_, _, v) = judge(Better::Lower, 0.10, &a, &noisy(0.5)).unwrap();
        assert_eq!(v, Verdict::Ok, "every run of B beats every run of A");
        let (_, _, v) = judge(Better::Lower, 0.10, &a, &noisy(1.5)).unwrap();
        assert_eq!(v, Verdict::Regression);
    }
}
