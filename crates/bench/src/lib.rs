//! The hand-rolled harness behind the one bench target, `engine`: the
//! seven end-to-end throughput rows CI gates against `BENCH_19.json`.
//!
//! This is a collapse alarm, not a measuring stick: every perf claim is
//! an alternating parent-vs-change A/B on the standalone `benchmark/`
//! package (`benchmark/README.md`), which also isolates each layer. The
//! rows kept here are the ones a frozen `benchmark/` cannot take — the
//! k = 8 fat-tree, the pure-lifecycle churn run, the 4/8-shard engine —
//! next to the paper chain and the serial/2-shard k = 16 run.
//!
//! Each row runs one warm-up iteration, then exactly `--iters <n>`
//! (default 10) timed ones. Other arguments:
//!
//! * `--json <path>` — write `{"results": [{"name", "mean_ns_per_iter",
//!   "iters", "events_per_iter", "events_per_sec"}]}` (sharded rows add
//!   `"shards"` and `"per_shard_events"`), after checking that the
//!   document reads back as the results.
//! * `--baseline <path>` — a file of that same shape; fail when a row's
//!   events/sec is more than `--max-regress <fraction>` (default 0.30)
//!   below its same-named baseline row, when a row has none, or when no
//!   row ran.
//! * anything else not starting with `-` — a substring filter on names.
//!
//! Relative paths are anchored at the workspace root, not `crates/bench`.

#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::float_cmp))]

pub mod json;

use std::hint::black_box;
use std::time::Instant;

/// The runner of the `engine` target (`harness = false`).
pub struct Runner {
    filters: Vec<String>,
    iters: u64,
    json_path: Option<String>,
    baseline_path: Option<String>,
    max_regress: f64,
    /// One JSON object per finished row: the `--json` document's body.
    rows: Vec<String>,
    /// `(name, events_per_sec)` per finished row: what the gate compares.
    gated: Vec<(String, f64)>,
}

impl Runner {
    /// A runner configured from `args` (the process arguments after the
    /// program name) as documented on the crate; flags such as `--bench`,
    /// which cargo appends, are ignored.
    pub fn new(args: impl IntoIterator<Item = String>) -> Self {
        let mut runner = Runner {
            filters: Vec::new(),
            iters: 10,
            json_path: None,
            baseline_path: None,
            max_regress: 0.30,
            rows: Vec::new(),
            gated: Vec::new(),
        };
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--json" => runner.json_path = args.next(),
                "--baseline" => runner.baseline_path = args.next(),
                "--iters" => {
                    let n = args.next().and_then(|v| v.parse().ok()).filter(|&n| n > 0);
                    runner.iters = n.expect("--iters takes a positive integer");
                }
                "--max-regress" => {
                    let f = args.next().and_then(|v| v.parse().ok());
                    runner.max_regress = f
                        .filter(|f| (0.0..1.0).contains(f))
                        .expect("--max-regress takes a fraction in [0, 1)");
                }
                a if a.starts_with('-') => {} // cargo's --bench etc.
                filter => runner.filters.push(filter.to_owned()),
            }
        }
        runner
    }

    /// Benchmarks `f`, which reports per iteration the simulation events
    /// it processed and — for a sharded-engine run — the events each
    /// shard popped (empty otherwise; the row keeps the last iteration's
    /// split as its load-balance record). Skips silently when `name`
    /// matches no filter. Sharded rows carry distinct names, so the gate
    /// compares shard counts like for like.
    pub fn bench_events(&mut self, name: &str, mut f: impl FnMut() -> (u64, Vec<u64>)) {
        if !(self.filters.is_empty() || self.filters.iter().any(|f| name.contains(f.as_str()))) {
            return;
        }
        // One warm-up iteration. The bench harness is the one place
        // wall-clock time is the measurement itself; nothing simulated
        // depends on it, so deterministic replay is unaffected.
        let (mut events, mut per_shard) = black_box(f());
        #[expect(
            clippy::disallowed_methods,
            reason = "wall-clock time is the measurement"
        )]
        let t = Instant::now();
        for _ in 0..self.iters {
            (events, per_shard) = black_box(f());
        }
        let mean_s = t.elapsed().as_secs_f64() / self.iters as f64;
        let events_per_sec = events as f64 / mean_s;
        println!(
            "{name:<40} {:>10.3} ms/iter  ({} iters, {:.3} Mev/s)",
            mean_s * 1e3,
            self.iters,
            events_per_sec / 1e6
        );
        let mut row = format!(
            "    {{\"name\": {}, \"mean_ns_per_iter\": {}, \"iters\": {}, \
             \"events_per_iter\": {events}, \"events_per_sec\": {}",
            json::escape(name),
            json::number(mean_s * 1e9),
            self.iters,
            json::number(events_per_sec),
        );
        if !per_shard.is_empty() {
            let split: Vec<String> = per_shard.iter().map(u64::to_string).collect();
            let shards = split.len();
            let split = split.join(", ");
            row += &format!(", \"shards\": {shards}, \"per_shard_events\": [{split}]");
        }
        self.rows.push(row + "}");
        self.gated.push((name.to_owned(), events_per_sec));
    }

    /// The `--json` document of the rows recorded so far.
    fn to_json(&self) -> String {
        format!("{{\n  \"results\": [\n{}\n  ]\n}}\n", self.rows.join(",\n"))
    }

    /// Finishes the run: checks and writes `--json` output and applies
    /// the `--baseline` gate. `main` exits non-zero on an error.
    pub fn finish(&self) -> Result<(), String> {
        let doc = self.to_json();
        // A consumer reads the document, not `self.gated`: the two must
        // agree before anything is written.
        if baseline_entries(&doc)? != self.gated {
            return Err(format!("JSON output does not read back:\n{doc}"));
        }
        if let Some(path) = &self.json_path {
            let path = anchor(path);
            std::fs::write(&path, &doc).map_err(|e| format!("{}: {e}", path.display()))?;
            println!("bench: wrote {}", path.display());
        }
        let Some(path) = &self.baseline_path else {
            return Ok(());
        };
        let path = anchor(path);
        let baseline = std::fs::read_to_string(&path).map_err(|e| e.to_string());
        baseline
            .and_then(|text| self.gate(&text))
            .map_err(|e| format!("baseline {}: {e}", path.display()))
    }

    /// The regression gate against the `baseline` document: an error when
    /// a row's events/sec is more than `max_regress` below its same-named
    /// baseline row, when a row has none (a renamed row must not leave
    /// the gate silently), or when no row ran at all.
    fn gate(&self, baseline: &str) -> Result<(), String> {
        let entries = baseline_entries(baseline)?;
        if self.gated.is_empty() {
            return Err("no benchmark ran — the gate is vacuous".to_owned());
        }
        let mut failures = 0u32;
        for (name, eps) in &self.gated {
            let Some((_, base)) = entries.iter().find(|(n, _)| n == name) else {
                failures += 1;
                println!("bench: {name:<40} MISSING from the baseline");
                continue;
            };
            let ratio = eps / base;
            let regressed = ratio < 1.0 - self.max_regress;
            failures += u32::from(regressed);
            println!(
                "bench: {name:<40} {:>8.3} Mev/s vs baseline {:>8.3} Mev/s ({:+.1}%) {}",
                eps / 1e6,
                base / 1e6,
                (ratio - 1.0) * 100.0,
                if regressed { "REGRESSION" } else { "ok" }
            );
        }
        if failures > 0 {
            let bound = self.max_regress * 100.0;
            return Err(format!(
                "{failures} row(s) missing or over {bound:.0}% below it"
            ));
        }
        Ok(())
    }
}

/// Reads `(name, events_per_sec)` from each row of the `results` array of
/// the JSON document `text` — the harness's own `--json` shape, which is
/// also the shape of the checked-in baseline.
fn baseline_entries(text: &str) -> Result<Vec<(String, f64)>, String> {
    let doc = json::parse(text)?;
    let rows = doc.get("results").and_then(json::Value::as_arr);
    let entry = |row: &json::Value| {
        let name = row.get("name").and_then(json::Value::as_str)?;
        let eps = row.get("events_per_sec").and_then(json::Value::as_f64)?;
        (eps > 0.0).then(|| (name.to_owned(), eps))
    };
    rows.ok_or("no `results` array")?
        .iter()
        .map(|row| entry(row).ok_or(format!("no `name` or positive `events_per_sec`: {row:?}")))
        .collect()
}

/// Anchors a relative `--json`/`--baseline` path at the workspace root:
/// cargo runs bench binaries with the *package* directory as their
/// working directory, two levels below where the invoker ran cargo.
/// (`join` returns an absolute argument untouched.)
fn anchor(path: &str) -> std::path::PathBuf {
    std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../..")).join(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runner(args: &[&str]) -> Runner {
        Runner::new(args.iter().map(|a| a.to_string()))
    }

    /// A `--max-regress 0.10` runner whose one row, `x`, made
    /// `events_per_sec`.
    fn runner_with_row(events_per_sec: f64) -> Runner {
        let mut r = runner(&["--max-regress", "0.10"]);
        r.gated.push(("x".to_owned(), events_per_sec));
        r
    }

    /// Field `key` of row `i` of `r`'s parsed `--json` document.
    fn field(r: &Runner, i: usize, key: &str) -> Option<json::Value> {
        let doc = json::parse(&r.to_json()).expect("harness JSON is valid");
        doc.get("results")?.as_arr()?[i].get(key).cloned()
    }

    const BASELINE: &str = r#"{"results": [{"name": "x", "iters": 1, "events_per_sec": 100.0}]}"#;

    #[test]
    fn runner_filters_by_substring() {
        let mut r = runner(&["--bench", "paper", "k8"]);
        for name in ["engine/churn", "engine/paper_chain", "engine/fat_tree_k8"] {
            r.bench_events(name, || (1, Vec::new()));
        }
        let ran: Vec<&str> = r.gated.iter().map(|(name, _)| name.as_str()).collect();
        assert_eq!(ran, ["engine/paper_chain", "engine/fat_tree_k8"]);
    }

    #[test]
    fn pinned_mode_runs_exact_iterations() {
        let mut r = runner(&["--iters", "7"]);
        let mut calls = 0u64;
        r.bench_events("pinned", || {
            calls += 1;
            (1, Vec::new())
        });
        // One warm-up iteration plus exactly seven timed ones.
        assert_eq!(calls, 8);
        assert_eq!(field(&r, 0, "iters"), Some(json::Value::Num(7.0)));
    }

    #[test]
    fn bench_events_derives_events_per_sec() {
        let mut r = runner(&["--iters", "3"]);
        r.bench_events("ev", || (5_000, Vec::new()));
        let num = |key| field(&r, 0, key).and_then(|v| v.as_f64()).unwrap();
        assert_eq!(num("events_per_iter"), 5_000.0);
        // events/sec must equal events per iteration / mean seconds.
        let expected = 5_000.0 / (num("mean_ns_per_iter") / 1e9);
        assert!((num("events_per_sec") - expected).abs() / expected < 1e-9);
    }

    #[test]
    fn json_output_parses_back() {
        let mut r = runner(&["--iters", "2"]);
        r.bench_events("a", || (100, Vec::new()));
        r.bench_events("b\"\n", || (200, Vec::new()));
        assert_eq!(baseline_entries(&r.to_json()).as_ref(), Ok(&r.gated));
        assert_eq!(r.finish(), Ok(()));
        // A document that disagrees with the gated pairs is refused.
        r.gated[1].1 += 1.0;
        assert!(r.finish().is_err());
    }

    #[test]
    fn sharded_rows_carry_shards_and_per_shard_split() {
        let mut r = runner(&["--iters", "2"]);
        r.bench_events("sharded", || (1_000, vec![400, 300, 200, 100]));
        r.bench_events("serial", || (1_000, Vec::new()));
        assert_eq!(field(&r, 0, "shards"), Some(json::Value::Num(4.0)));
        let split = field(&r, 0, "per_shard_events");
        let split = split.as_ref().and_then(json::Value::as_arr);
        assert_eq!(split.map(|s| &s[3]), Some(&json::Value::Num(100.0)));
        // Serial rows carry no sharded keys at all.
        assert_eq!(field(&r, 1, "shards"), None);
        assert_eq!(field(&r, 1, "per_shard_events"), None);
    }

    #[test]
    fn anchor_resolves_relative_paths_at_workspace_root() {
        // Two levels above the bench crate, next to the workspace manifest.
        assert!(anchor("Cargo.lock").exists());
        assert_eq!(anchor("/tmp/x.json").to_str(), Some("/tmp/x.json"));
    }

    #[test]
    fn baseline_entries_read_the_flat_results_array() {
        let x = ("x".to_owned(), 100.0);
        assert_eq!(baseline_entries(BASELINE), Ok(vec![x]));
        // Rows nested anywhere else are not a baseline, and a row without
        // the gated metric is an error rather than a silent skip.
        for bad in [
            r#"{"groups": {"engine": {"after": [{"name": "x", "events_per_sec": 2.0}]}}}"#,
            r#"{"results": [{"name": "x", "events_per_sec": null}]}"#,
            "{",
        ] {
            assert!(baseline_entries(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn gate_fails_a_row_15_percent_under_its_baseline() {
        assert_eq!(runner_with_row(91.0).gate(BASELINE), Ok(()));
        assert!(runner_with_row(85.0).gate(BASELINE).is_err());
    }

    #[test]
    fn gate_fails_a_row_missing_from_the_baseline() {
        let mut r = runner_with_row(100.0);
        r.gated.push(("renamed".to_owned(), 100.0));
        assert!(r.gate(BASELINE).is_err());
    }

    #[test]
    fn gate_fails_an_empty_intersection() {
        // No row ran (the filter matched nothing) …
        let mut r = runner(&["matches-nothing"]);
        r.bench_events("x", || (1, Vec::new()));
        assert!(r.gate(BASELINE).is_err());
        // … or the baseline holds none of the rows that did.
        assert!(runner_with_row(100.0).gate(r#"{"results": []}"#).is_err());
    }
}
