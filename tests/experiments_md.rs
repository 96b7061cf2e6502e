//! EXPERIMENTS.md's tables are the binaries' own output.
//!
//! A generated block is the whole stdout of one command, between a line
//! `<!-- generated: <bin> [args] -->` and a line `<!-- /generated -->`:
//! `<bin>` is a binary of this package, and an argument under `tests/`
//! names a file of the workspace. The check runs every block's command at
//! once, each in a scratch directory of its own under `CARGO_TARGET_TMPDIR`
//! (so nothing is written into the checkout), always writes the document
//! with every block regenerated to `$CARGO_TARGET_TMPDIR/EXPERIMENTS.md`,
//! and fails on each block that differs, naming its command and its first
//! differing line. The runs are deterministic, and the binaries print the
//! same bytes in the test profile as in release.

use std::fs::{self, File};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::process::{Child, Command};

const OPEN: &str = "<!-- generated: ";
const CLOSE: &str = "<!-- /generated -->";

/// One generated block: the command it names, and where its body (the
/// lines between its markers) sits in the document.
struct Block {
    command: String,
    body: Range<usize>,
}

/// Every generated block of `doc`, in order.
fn blocks(doc: &str) -> Result<Vec<Block>, String> {
    let mut blocks = Vec::new();
    let mut open: Option<(usize, String)> = None;
    let mut at = 0;
    for (n, line) in doc.split_inclusive('\n').enumerate() {
        let start = at;
        at += line.len();
        let text = line.trim_end_matches('\n');
        if let Some(rest) = text.strip_prefix(OPEN) {
            let command = rest
                .strip_suffix(" -->")
                .ok_or_else(|| format!("line {}: a marker ends in ` -->`", n + 1))?;
            if let Some((_, outer)) = &open {
                return Err(format!("line {}: opens a block inside `{outer}`'s", n + 1));
            }
            open = Some((at, command.to_owned()));
        } else if text == CLOSE {
            let (from, command) = open
                .take()
                .ok_or_else(|| format!("line {}: `{CLOSE}` closes no block", n + 1))?;
            blocks.push(Block {
                command,
                body: from..start,
            });
        }
    }
    match open {
        Some((_, command)) => Err(format!("the block of `{command}` is never closed")),
        None => Ok(blocks),
    }
}

/// `doc` with each block's body replaced by its command's output, and one
/// line for each block that differs: its command and first differing line.
fn regenerate(doc: &str, blocks: &[Block], outputs: &[String]) -> (String, Vec<String>) {
    let mut fresh = String::with_capacity(doc.len());
    let mut stale = Vec::new();
    let mut copied = 0;
    for (block, output) in blocks.iter().zip(outputs) {
        fresh.push_str(&doc[copied..block.body.start]);
        fresh.push_str(output);
        copied = block.body.end;
        let old = &doc[block.body.clone()];
        if old != output {
            let first_line = doc[..block.body.start].matches('\n').count() + 1;
            stale.push(format!(
                "`{}`: {}",
                block.command,
                first_difference(old, output, first_line)
            ));
        }
    }
    fresh.push_str(&doc[copied..]);
    (fresh, stale)
}

/// Where two differing bodies part, as `EXPERIMENTS.md:<line>` and what
/// each side has there; the body starts on the document's `first_line`.
fn first_difference(old: &str, new: &str, first_line: usize) -> String {
    let (mut old_lines, mut new_lines) = (old.split('\n'), new.split('\n'));
    let mut line = first_line;
    loop {
        match (old_lines.next(), new_lines.next()) {
            (Some(a), Some(b)) if a == b => line += 1,
            (a, b) => {
                return format!(
                    "EXPERIMENTS.md:{line} reads {:?}, the command prints {:?}",
                    a.unwrap_or("<end of block>"),
                    b.unwrap_or("<end of output>")
                )
            }
        }
    }
}

/// The binary a block names; `env!` needs each name spelt out.
fn exe(bin: &str) -> &'static str {
    match bin {
        "ablations" => env!("CARGO_BIN_EXE_ablations"),
        "churn" => env!("CARGO_BIN_EXE_churn"),
        "compare" => env!("CARGO_BIN_EXE_compare"),
        "corelite-sim" => env!("CARGO_BIN_EXE_corelite-sim"),
        "faults" => env!("CARGO_BIN_EXE_faults"),
        "figures" => env!("CARGO_BIN_EXE_figures"),
        "sensitivity" => env!("CARGO_BIN_EXE_sensitivity"),
        "telemetry" => env!("CARGO_BIN_EXE_telemetry"),
        "transports" => env!("CARGO_BIN_EXE_transports"),
        other => panic!("EXPERIMENTS.md runs `{other}`, which is no binary of `scenarios`"),
    }
}

/// Starts every block's command at once, the `i`-th in `scratch/<i>` with
/// its stdout and stderr in files there, and returns the stdouts in block
/// order.
fn run_all(blocks: &[Block], root: &Path, scratch: &Path) -> Vec<String> {
    let children: Vec<(PathBuf, Child)> = blocks
        .iter()
        .enumerate()
        .map(|(i, block)| {
            let dir = scratch.join(i.to_string());
            let _ = fs::remove_dir_all(&dir);
            fs::create_dir_all(&dir).expect("create a scratch directory");
            let mut words = block.command.split_whitespace();
            let bin = words.next().expect("a marker names a binary");
            let args: Vec<PathBuf> = words
                .map(|w| {
                    if w.starts_with("tests/") {
                        root.join(w)
                    } else {
                        PathBuf::from(w)
                    }
                })
                .collect();
            let child = Command::new(exe(bin))
                .args(&args)
                .current_dir(&dir)
                .stdout(File::create(dir.join("stdout")).expect("create stdout file"))
                .stderr(File::create(dir.join("stderr")).expect("create stderr file"))
                .spawn()
                .unwrap_or_else(|e| panic!("`{}`: {e}", block.command));
            (dir, child)
        })
        .collect();
    children
        .into_iter()
        .zip(blocks)
        .map(|((dir, mut child), block)| {
            let status = child.wait().expect("wait for a block's command");
            let read = |file: &str| fs::read_to_string(dir.join(file)).expect("UTF-8 output");
            assert!(
                status.success(),
                "`{}` failed ({status}):\n{}",
                block.command,
                read("stderr")
            );
            let stdout = read("stdout");
            assert!(
                stdout.ends_with('\n'),
                "`{}`'s stdout does not end in a newline",
                block.command
            );
            stdout
        })
        .collect()
}

#[test]
fn every_generated_block_is_its_commands_stdout() {
    let root = fs::canonicalize(Path::new(env!("CARGO_MANIFEST_DIR")).join("../.."))
        .expect("workspace root");
    let path = root.join("EXPERIMENTS.md");
    let doc = fs::read_to_string(&path).expect("read EXPERIMENTS.md");
    let blocks = blocks(&doc).unwrap_or_else(|e| panic!("EXPERIMENTS.md: {e}"));
    assert!(!blocks.is_empty(), "EXPERIMENTS.md has no generated block");
    let tmp = Path::new(env!("CARGO_TARGET_TMPDIR"));
    let outputs = run_all(&blocks, &root, &tmp.join("experiments_md"));
    let (fresh, stale) = regenerate(&doc, &blocks, &outputs);
    let written = tmp.join("EXPERIMENTS.md");
    fs::write(&written, &fresh).expect("write the regenerated document");
    assert!(
        stale.is_empty(),
        "{} of EXPERIMENTS.md's {} generated blocks are stale:\n{}\n\n\
         to accept the regenerated document:\n  cp {} {}",
        stale.len(),
        blocks.len(),
        stale.join("\n"),
        written.display(),
        path.display()
    );
}

#[test]
fn an_edited_cell_names_its_command_and_line() {
    let doc = "# t\n<!-- generated: churn -->\n| a | 1 |\n| b | 2 |\n<!-- /generated -->\n\
               prose\n<!-- generated: faults --serial -->\nx\n<!-- /generated -->\n";
    let found = blocks(doc).expect("well-formed");
    let commands: Vec<&str> = found.iter().map(|b| b.command.as_str()).collect();
    assert_eq!(commands, ["churn", "faults --serial"]);
    let outputs = ["| a | 1 |\n| b | 3 |\n".to_owned(), "x\n".to_owned()];
    let (fresh, stale) = regenerate(doc, &found, &outputs);
    assert_eq!(fresh, doc.replace("| b | 2 |", "| b | 3 |"));
    assert_eq!(
        stale,
        ["`churn`: EXPERIMENTS.md:4 reads \"| b | 2 |\", the command prints \"| b | 3 |\""]
    );
    // The regenerated document is accepted as it stands.
    let (again, none) = regenerate(&fresh, &blocks(&fresh).expect("well-formed"), &outputs);
    assert_eq!(again, fresh);
    assert!(none.is_empty(), "{none:?}");
    // A line the command no longer prints is named too.
    let (_, stale) = regenerate(doc, &found, &["| a | 1 |\n".to_owned(), "x\n".to_owned()]);
    assert_eq!(
        stale,
        ["`churn`: EXPERIMENTS.md:4 reads \"| b | 2 |\", the command prints \"\""]
    );
}

#[test]
fn a_malformed_block_is_an_error() {
    for doc in [
        "<!-- generated: churn -->\nx\n",
        "x\n<!-- /generated -->\n",
        "<!-- generated: churn -->\n<!-- generated: faults -->\n",
        "<!-- generated: churn\n",
    ] {
        assert!(blocks(doc).is_err(), "{doc:?}");
    }
}
