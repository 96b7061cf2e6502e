//! The `.scn` regression corpus and the parser's no-panic property.
//!
//! `tests/scn/ok/` holds the documented examples (the `scenarios::dsl`
//! module docs, the README demo) plus inputs that once crashed at run
//! time; each must parse and run. `tests/scn/bad/` holds inputs that once
//! crashed or hung `corelite-sim`; each must be a parse error, and its
//! first line, `# expect: FRAGMENT`, names what the error must say
//! (line number included). CI runs the binary over both directories too.

use std::fs;
use std::path::PathBuf;
use std::process::Command;

use scenarios::discipline;
use scenarios::dsl::parse_scenario;
use sim_core::check::{self, Gen};
use sim_core::time::SimTime;

fn corpus(dir: &str) -> Vec<(String, String)> {
    let dir: PathBuf = [env!("CARGO_MANIFEST_DIR"), "../../tests/scn", dir]
        .iter()
        .collect();
    let mut files: Vec<(String, String)> = fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|entry| {
            let path = entry.expect("directory entry").path();
            let text = fs::read_to_string(&path).expect("corpus files are UTF-8");
            (
                path.file_name().unwrap().to_string_lossy().into_owned(),
                text,
            )
        })
        .collect();
    files.sort();
    assert!(!files.is_empty(), "{} is empty", dir.display());
    files
}

/// Parses `text` and, if it is a scenario, runs its first 0.1 simulated
/// seconds under the `discipline`-th registered discipline. Panics only
/// if the simulator does.
fn parse_and_run(text: &str, discipline: usize) -> bool {
    let Ok(mut scenario) = parse_scenario(text) else {
        return false;
    };
    scenario.horizon = scenario.horizon.min(SimTime::from_millis(100));
    let names = discipline::names();
    let d = discipline::by_name(names[discipline % names.len()]).expect("registered");
    scenario.run(d.as_ref());
    true
}

#[test]
fn documented_examples_parse_and_run() {
    for (i, (name, text)) in corpus("ok").iter().enumerate() {
        assert!(
            parse_and_run(text, i),
            "{name}: {:?}",
            parse_scenario(text).err()
        );
    }
}

#[test]
fn inputs_that_crashed_or_hung_are_line_numbered_errors() {
    for (name, text) in corpus("bad") {
        let expected = text
            .lines()
            .next()
            .and_then(|l| l.strip_prefix("# expect: "))
            .unwrap_or_else(|| panic!("{name}: first line must be `# expect: ...`"));
        let e = parse_scenario(&text).expect_err(&name).to_string();
        assert!(e.contains(expected), "{name}: {e}");
    }
}

/// A flag a table binary does not take (`--smoke` here) exits 2 with the
/// binary's usage line instead of running the full sweep.
#[test]
fn table_binaries_reject_a_flag_they_do_not_take() {
    for (exe, usage) in [
        (env!("CARGO_BIN_EXE_faults"), "usage: faults [--serial]"),
        (env!("CARGO_BIN_EXE_churn"), "usage: churn [--serial]"),
        (
            env!("CARGO_BIN_EXE_transports"),
            "usage: transports [--serial]",
        ),
        (
            env!("CARGO_BIN_EXE_telemetry"),
            "usage: telemetry [--out DIR]",
        ),
    ] {
        let out = Command::new(exe)
            .arg("--smoke")
            .current_dir(env!("CARGO_TARGET_TMPDIR"))
            .output()
            .expect("table binary starts");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{exe}: {stderr}");
        assert!(stderr.contains(usage), "{exe}: {stderr}");
        assert!(out.stdout.is_empty(), "{exe} ran anyway");
    }
}

/// Values that sit on or past a converter's edge.
const HOSTILE: [&str; 7] = [
    "-1",
    "nan",
    "inf",
    "1e300",
    "0",
    "1.0000000000001",
    "18446744073709551616",
];

/// One random edit of a valid file: a number swapped for a hostile one,
/// a line dropped or duplicated, or two tokens of a line swapped.
fn mutate(g: &mut Gen, text: &str) -> String {
    let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
    if lines.is_empty() {
        return String::new();
    }
    let at = g.usize_in(0, lines.len());
    match g.usize_in(0, 4) {
        0 => {
            // Numbers are maximal runs of digits, dots and exponents.
            let line = &lines[at];
            let starts: Vec<usize> = line
                .char_indices()
                .filter(|&(i, c)| {
                    c.is_ascii_digit() && !line[..i].ends_with(|p: char| p.is_ascii_alphanumeric())
                })
                .map(|(i, _)| i)
                .collect();
            if !starts.is_empty() {
                let from = starts[g.usize_in(0, starts.len())];
                let len = line[from..]
                    .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == 'e'))
                    .unwrap_or(line.len() - from);
                let value = HOSTILE[g.usize_in(0, HOSTILE.len())];
                lines[at].replace_range(from..from + len, value);
            }
        }
        1 => {
            lines.remove(at);
        }
        2 => lines.insert(at, lines[at].clone()),
        _ => {
            let mut tokens: Vec<&str> = lines[at].split_whitespace().collect();
            if tokens.len() >= 2 {
                let (a, b) = (g.usize_in(0, tokens.len()), g.usize_in(0, tokens.len()));
                tokens.swap(a, b);
                lines[at] = tokens.join(" ");
            }
        }
    }
    lines.join("\n")
}

/// ROADMAP item 2: the parser returns `Err`, never panics, on arbitrary
/// bytes and on mutated valid files; whatever it accepts runs. A tier-1
/// budget: 5000 cases take well under a second.
#[test]
fn the_parser_never_panics_and_what_it_accepts_runs() {
    let valid: Vec<String> = corpus("ok").into_iter().map(|(_, text)| text).collect();
    let mut accepted = 0;
    check::cases(5000, 0x5C4E, |g| {
        let text = if g.usize_in(0, 8) == 0 {
            let bytes = g.vec_with(0, 200, |g| g.u64_in(0, 256) as u8);
            String::from_utf8_lossy(&bytes).into_owned()
        } else {
            let mut text = valid[g.usize_in(0, valid.len())].clone();
            for _ in 0..g.usize_in(1, 4) {
                text = mutate(g, &text);
            }
            text
        };
        let discipline = g.usize_in(0, 64);
        if parse_and_run(&text, discipline) {
            accepted += 1;
        }
    });
    // The mutations must leave enough files valid to exercise the runs.
    assert!(accepted > 1000, "only {accepted} of 5000 inputs parsed");
}
