//! The repository's benchmark: five workloads measured from the outside,
//! through public API only. `README.md` beside `Cargo.toml` is the manual;
//! `BENCHMARK.json` at the repository root is the contract.
//!
//! ```text
//! benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--out DIR] [--smoke]
//! benchmark compare A B
//! benchmark manifest
//! ```

mod adapter;
mod alloc;
mod checks;
mod clock;
mod compare;
mod isolated;
mod json;
mod metrics;
mod run;
mod stats;
mod traced;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use run::{Options, RunOutput};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

struct Args {
    workload: Option<String>,
    trace: Option<bool>,
    out: PathBuf,
    opts: Options,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    // simlint: allow(thread-spawn) reads the core count, spawns nothing
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut parsed = Args {
        workload: None,
        trace: None,
        out: PathBuf::from("target/benchmark"),
        opts: Options {
            seed: 1,
            seconds: metrics::RUN_SECONDS as f64,
            scale: adapter::Scale::Full,
            nproc,
        },
    };
    while let Some(flag) = args.next() {
        if flag == "--smoke" {
            parsed.opts.scale = adapter::Scale::Smoke;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} takes a value"))?;
        let bad = || format!("{flag} cannot take `{value}`");
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value),
            "--seed" => parsed.opts.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                let seconds: f64 = value.parse().map_err(|_| bad())?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(bad());
                }
                parsed.opts.seconds = seconds;
            }
            "--trace" => {
                parsed.trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            "--out" => parsed.out = PathBuf::from(value),
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(parsed)
}

/// `workload metric value unit`, then the sample behind a timing.
fn lines(run: &RunOutput) -> Vec<String> {
    let w = run.workload;
    let mut out: Vec<String> = run
        .metrics
        .iter()
        .map(|m| match m.summary {
            Some(s) => format!(
                "{w} {} {} {} median={} q1={} q3={} min={} max={} n={}",
                m.name, m.value, m.unit, s.median, s.q1, s.q3, s.min, s.max, s.n
            ),
            None => format!("{w} {} {} {}", m.name, m.value, m.unit),
        })
        .collect();
    out.push(format!("{w} sim_digest {:#018x} hex", run.digest));
    out.push(format!("{w} ops_attempted {} count", run.attempted));
    out.push(format!("{w} ops_failed {} count", run.failed));
    out.extend(run.notes.iter().map(|n| format!("# {w} {n}")));
    out
}

/// A metric as a JSON object, with the sample behind it if asked for.
fn metric_json(m: &run::Metric, sample: bool) -> String {
    let mut fields = vec![
        ("value", json::number(m.value)),
        ("unit", json::string(m.unit)),
    ];
    if let Some(s) = m.summary.filter(|_| sample) {
        fields.extend([
            ("median", json::number(s.median)),
            ("q1", json::number(s.q1)),
            ("q3", json::number(s.q3)),
            ("min", json::number(s.min)),
            ("max", json::number(s.max)),
            ("n", s.n.to_string()),
        ]);
    }
    json::object(fields)
}

fn metrics_json(run: &RunOutput, sample: bool) -> String {
    json::object(
        run.metrics
            .iter()
            .map(|m| (m.name.as_str(), metric_json(m, sample))),
    )
}

/// The result line the driver reads.
fn result_line(run: &RunOutput) -> String {
    json::object([
        ("correct", (run.failed == 0).to_string()),
        ("attempted", run.attempted.to_string()),
        ("failed", run.failed.to_string()),
        ("metrics", metrics_json(run, false)),
    ])
}

fn results_json(runs: &[RunOutput], args: &Args) -> String {
    let tool = |program: &str, args: &[&str]| match Command::new(program).args(args).output() {
        Ok(o) if o.status.success() => String::from_utf8_lossy(&o.stdout).trim().to_owned(),
        _ => "unknown".to_owned(),
    };
    let runs = runs.iter().map(|r| {
        let reps = r
            .reps
            .iter()
            .map(|(name, values)| (*name, json::array(values.iter().map(|&v| json::number(v)))));
        json::object([
            ("workload", json::string(r.workload)),
            ("trace", r.trace.to_string()),
            ("ops_attempted", r.attempted.to_string()),
            ("ops_failed", r.failed.to_string()),
            ("sim_digest", json::string(&format!("{:#018x}", r.digest))),
            (
                "notes",
                json::array(r.notes.iter().map(|n| json::string(n))),
            ),
            ("metrics", metrics_json(r, true)),
            ("repetitions", json::object(reps)),
        ])
    });
    json::object([
        ("seed", args.opts.seed.to_string()),
        ("seconds", json::number(args.opts.seconds)),
        (
            "smoke",
            (args.opts.scale == adapter::Scale::Smoke).to_string(),
        ),
        ("nproc", args.opts.nproc.to_string()),
        ("rustc", json::string(&tool("rustc", &["--version"]))),
        (
            "git_commit",
            json::string(&tool("git", &["rev-parse", "HEAD"])),
        ),
        ("runs", json::array(runs)),
    ])
}

/// Phase spans of every run; the callback spans of a traced repetition
/// are stored as per-kind aggregates on its `scenarios.run` span, raw
/// beside clock-corrected so the correction can be audited.
fn trace_json(runs: &[RunOutput]) -> String {
    let spans = runs.iter().flat_map(|r| {
        r.spans.iter().map(move |s| {
            let mut fields = vec![
                ("id", s.id.to_string()),
                (
                    "parent",
                    s.parent.map_or("null".to_owned(), |p| p.to_string()),
                ),
                ("name", json::string(s.name)),
                ("workload", json::string(r.workload)),
                ("traced_run", r.trace.to_string()),
                ("rep", s.rep.to_string()),
                ("start_s", json::number(s.start_secs)),
                ("end_s", json::number(s.end_secs)),
            ];
            if r.traced_span == Some(s.id) {
                let kinds = r.kinds.iter().map(|(kind, callbacks)| {
                    let groups = callbacks.iter().zip(traced::CALLBACKS).map(|(c, name)| {
                        let group = json::object([
                            ("calls", c.calls.to_string()),
                            ("raw_ns", c.raw_ns.to_string()),
                            ("corrected_ns", json::number(c.corrected_ns)),
                            (
                                "log2_ns_hist",
                                json::array(c.hist.iter().map(u64::to_string)),
                            ),
                        ]);
                        (name, group)
                    });
                    (kind.as_str(), json::object(groups))
                });
                fields.push(("callbacks", json::object(kinds)));
            }
            json::object(fields)
        })
    });
    json::object([("spans", json::array(spans))])
}

fn write_outputs(dir: &Path, runs: &[RunOutput], args: &Args) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let text: String = runs.iter().flat_map(lines).map(|l| l + "\n").collect();
    std::fs::write(dir.join("results.txt"), text)?;
    std::fs::write(dir.join("results.json"), results_json(runs, args) + "\n")?;
    std::fs::write(dir.join("trace.json"), trace_json(runs) + "\n")
}

fn compare_files(a: &str, b: &str) -> Result<usize, String> {
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}"));
    let (a, b) = (compare::parse(&read(a)?), compare::parse(&read(b)?));
    if a.is_empty() {
        return Err("the first capture holds no end-to-end metric".to_owned());
    }
    Ok(compare::report(&a, &b, |row| println!("{row}")))
}

fn measure(args: &Args) -> Result<(), String> {
    let workloads: Vec<&str> = match &args.workload {
        Some(name) => vec![name.as_str()],
        None => adapter::WORKLOADS.iter().map(|w| w.0).collect(),
    };
    let traces = args.trace.map_or(vec![false, true], |t| vec![t]);
    let mut runs = Vec::new();
    for name in workloads {
        for &trace in &traces {
            let run = if trace {
                run::per_layer(name, &args.opts)?
            } else {
                run::end_to_end(name, &args.opts)?
            };
            lines(&run).iter().for_each(|l| println!("{l}"));
            runs.push(run);
        }
    }
    write_outputs(&args.out, &runs, args)
        .map_err(|e| format!("cannot write to {}: {e}", args.out.display()))?;
    // Last, so that a single run ends on the line the driver parses.
    runs.iter().for_each(|r| println!("{}", result_line(r)));
    Ok(())
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1).peekable();
    let outcome = match args.peek().map(String::as_str) {
        Some("manifest") => {
            print!("{}", metrics::manifest());
            Ok(true)
        }
        Some("compare") => match (args.nth(1), args.next(), args.next()) {
            (Some(a), Some(b), None) => compare_files(&a, &b).map(|regressions| regressions == 0),
            _ => Err("usage: benchmark compare A B".to_owned()),
        },
        _ => parse_args(args).and_then(|parsed| measure(&parsed).map(|()| true)),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_txt_round_trips_through_compare() {
        let opts = Options {
            seed: 1,
            seconds: 0.5,
            scale: adapter::Scale::Smoke,
            nproc: 2,
        };
        let run = run::end_to_end("chain_corelite", &opts).unwrap();
        let text = lines(&run).join("\n");
        let capture = compare::parse(&text);
        assert_eq!(capture.len(), metrics::END_TO_END.len());
        let mut rows = Vec::new();
        assert_eq!(compare::report(&capture, &capture, |r| rows.push(r)), 0);
        assert!(rows.iter().all(|r| r.ends_with(": ok")), "{rows:?}");

        let wall = run
            .metrics
            .iter()
            .find(|m| m.name == "wall_s")
            .unwrap()
            .value;
        let inflated = text.replace(
            &format!("chain_corelite wall_s {wall} "),
            &format!("chain_corelite wall_s {} ", wall * 1.5),
        );
        assert_ne!(inflated, text);
        assert_eq!(
            compare::report(&capture, &compare::parse(&inflated), |_| ()),
            1
        );
    }

    #[test]
    fn the_result_line_has_exactly_the_contract_keys() {
        let run = RunOutput {
            workload: "chain_corelite",
            trace: false,
            attempted: 3,
            failed: 1,
            digest: 7,
            metrics: vec![run::Metric {
                name: "wall_s".into(),
                unit: "s",
                value: 1.25,
                summary: None,
            }],
            notes: Vec::new(),
            reps: Vec::new(),
            spans: Vec::new(),
            kinds: Vec::new(),
            traced_span: None,
        };
        assert_eq!(
            result_line(&run),
            r#"{"correct":false,"attempted":3,"failed":1,"metrics":{"wall_s":{"value":1.25,"unit":"s"}}}"#
        );
    }

    #[test]
    fn arguments_are_checked() {
        let parse = |args: &[&str]| parse_args(args.iter().map(|s| s.to_string()));
        let ok = parse(&[
            "--workload",
            "k16_churn",
            "--seed",
            "9",
            "--seconds",
            "2",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (ok.workload.as_deref(), ok.opts.seed, ok.trace),
            (Some("k16_churn"), 9, Some(true))
        );
        assert!(parse(&["--trace", "2"]).is_err());
        assert!(parse(&["--seconds", "0"]).is_err());
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--frobnicate", "1"]).is_err());
    }
}
