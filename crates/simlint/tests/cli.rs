//! End-to-end CLI tests: exit codes and output format, as CI consumes
//! them.

use std::path::Path;
use std::process::Command;

use simlint::walker::find_workspace_root;

fn run(args: &[&str]) -> std::process::Output {
    let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root must exist");
    Command::new(env!("CARGO_BIN_EXE_simlint"))
        .args(args)
        .current_dir(root)
        .output()
        .expect("simlint binary must run")
}

#[test]
fn workspace_scan_exits_zero_on_clean_tree() {
    let out = run(&["--workspace"]);
    assert!(
        out.status.success(),
        "stdout:\n{}\nstderr:\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn fixture_violation_exits_nonzero_with_file_line_rule() {
    let out = run(&["crates/simlint/fixtures/core_state_bad.rs"]);
    assert_eq!(out.status.code(), Some(1), "violations must exit 1");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("crates/simlint/fixtures/core_state_bad.rs:")
            && stdout.contains("core-state"),
        "output must be `file:line: rule — message`, got:\n{stdout}"
    );
}

#[test]
fn list_rules_names_every_rule() {
    let out = run(&["--list-rules"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for (rule, _) in simlint::RULES {
        assert!(stdout.contains(rule), "missing {rule} in:\n{stdout}");
    }
}

#[test]
fn unknown_flag_exits_two() {
    let out = run(&["--bogus"]);
    assert_eq!(out.status.code(), Some(2), "usage errors must exit 2");
}

#[test]
fn explain_prints_rationale_and_rejects_unknown_rules() {
    for (rule, _) in simlint::RULES {
        let out = run(&["--explain", rule]);
        assert!(out.status.success(), "--explain {rule} must succeed");
        assert!(
            out.stdout.len() > 100,
            "--explain {rule} must print a real rationale"
        );
    }
    let out = run(&["--explain", "no-such-rule"]);
    assert_eq!(out.status.code(), Some(2));
}
