//! Workspace discovery: finds the workspace root and enumerates the
//! `.rs` files the lint pass covers.

use std::path::{Path, PathBuf};

/// Directories never descended into. `fixtures` holds simlint's own
/// deliberately-violating snippets; they are linted one-by-one from the
//  fixture tests, never as part of a tree scan.
const SKIP_DIRS: &[&str] = &["target", ".git", "fixtures", "results"];

/// Walks up from `start` to the directory whose `Cargo.toml` declares
/// `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Result<PathBuf, String> {
    let mut dir = start
        .canonicalize()
        .map_err(|e| format!("cannot resolve {}: {e}", start.display()))?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Ok(dir);
            }
        }
        if !dir.pop() {
            return Err(format!(
                "no workspace Cargo.toml found above {}",
                start.display()
            ));
        }
    }
}

/// All `.rs` files under `root`, as workspace-relative `/`-separated
/// paths, sorted for deterministic output.
pub fn collect_rs_files(root: &Path) -> Result<Vec<String>, String> {
    let mut files = Vec::new();
    walk(root, root, &mut files)?;
    files.sort();
    Ok(files)
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<String>) -> Result<(), String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("cannot read entry in {}: {e}", dir.display()))?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name.as_ref()) && !name.starts_with('.') {
                walk(root, &path, out)?;
            }
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .map_err(|e| format!("path {} escapes root: {e}", path.display()))?;
            out.push(rel_to_string(rel));
        }
    }
    Ok(())
}

/// Renders a relative path with `/` separators regardless of platform,
/// so rule scoping is portable.
pub fn rel_to_string(rel: &Path) -> String {
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_this_workspace_root() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_workspace_root(here).expect("workspace root must exist");
        assert!(root.join("Cargo.toml").exists());
        assert!(root.join("crates/simlint").exists());
    }

    #[test]
    fn collects_sorted_rs_files_and_skips_fixtures() {
        let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
            .expect("workspace root must exist");
        let files = collect_rs_files(&root).expect("walk must succeed");
        assert!(files.iter().any(|f| f == "crates/netsim/src/network.rs"));
        assert!(
            !files.iter().any(|f| f.contains("fixtures/")),
            "fixtures must be excluded from tree scans"
        );
        let mut sorted = files.clone();
        sorted.sort();
        assert_eq!(files, sorted);
    }
}
