//! CLI for the in-repo lint pass. See the crate docs and DESIGN.md §17.
//!
//! ```text
//! simlint --workspace             # lint the whole tree (CI entry point)
//! simlint path/to/file.rs ...     # lint specific files
//! simlint --list-rules            # print every rule one-liner
//! simlint --explain <rule>        # print a rule's full rationale
//! ```

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use simlint::walker::{find_workspace_root, rel_to_string};
use simlint::{explain, lint_paths, lint_workspace, RULES};

fn main() -> ExitCode {
    match run() {
        Ok(0) => ExitCode::SUCCESS,
        Ok(violations) => {
            eprintln!("simlint: {violations} violation(s)");
            ExitCode::FAILURE
        }
        Err(msg) => {
            eprintln!("simlint: error: {msg}");
            ExitCode::from(2)
        }
    }
}

fn run() -> Result<usize, String> {
    let mut workspace = false;
    let mut files: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workspace" => workspace = true,
            "--list-rules" => {
                for (name, description) in RULES {
                    println!("{name:<22} {description}");
                }
                return Ok(0);
            }
            "--explain" => {
                let rule = args
                    .next()
                    .ok_or_else(|| "--explain needs a rule name (see --list-rules)".to_owned())?;
                let text = explain(&rule)
                    .ok_or_else(|| format!("unknown rule `{rule}` (see --list-rules)"))?;
                println!("{rule}\n");
                println!("{text}");
                return Ok(0);
            }
            "--help" | "-h" => {
                println!(
                    "usage: simlint [--workspace] [--list-rules] [--explain RULE] [FILE.rs ...]\n\
                     Lints the Corelite workspace for core-statelessness, hot-path, unit\n\
                     and RNG-stream invariants. With no arguments, behaves as --workspace.\n\
                     Violations print as `file:line: rule — message`; exit code 1 on any\n\
                     violation, 2 on usage errors.\n\
                     Exempt a site with `// simlint: allow(<rule>) <reason>` on its line\n\
                     or the line above."
                );
                return Ok(0);
            }
            _ if arg.starts_with('-') => {
                return Err(format!("unknown flag `{arg}` (try --help)"));
            }
            _ => files.push(arg),
        }
    }

    let cwd = std::env::current_dir().map_err(|e| format!("cannot read cwd: {e}"))?;
    let root = find_workspace_root(&cwd)?;

    let violations = if workspace || files.is_empty() {
        lint_workspace(&root)?
    } else {
        let rels: Vec<String> = files
            .iter()
            .map(|f| to_workspace_rel(&root, f))
            .collect::<Result<_, _>>()?;
        lint_paths(&root, &rels)?
    };
    for v in &violations {
        println!("{v}");
    }
    Ok(violations.len())
}

/// Maps a CLI path (absolute or cwd-relative) to a workspace-relative
/// path so rule scoping applies regardless of invocation directory.
fn to_workspace_rel(root: &Path, file: &str) -> Result<String, String> {
    let path = PathBuf::from(file);
    let abs = if path.is_absolute() {
        path
    } else {
        std::env::current_dir()
            .map_err(|e| format!("cannot read cwd: {e}"))?
            .join(path)
    };
    let abs = abs
        .canonicalize()
        .map_err(|e| format!("cannot resolve {file}: {e}"))?;
    let rel = abs
        .strip_prefix(root)
        .map_err(|_| format!("{file} is outside the workspace at {}", root.display()))?;
    Ok(rel_to_string(rel))
}
