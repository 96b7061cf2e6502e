//! The checked-in allowlist (`simlint.toml`), parsed with a hand-rolled
//! TOML-subset reader: `[allow]` tables whose keys are rule names and
//! whose values are arrays of workspace-relative path prefixes.
//!
//! ```toml
//! [allow]
//! core-state = [
//!     "crates/baselines/src/fred.rs", # per-flow state is FRED's point
//! ]
//! dense-state = ["crates/baselines/src/fred.rs"]
//! ```
//!
//! Only this shape is supported (no nested tables, no non-string
//! values); anything else is a hard error so typos cannot silently
//! disable enforcement.

use std::collections::BTreeMap;

use crate::rules::is_known_rule;

/// Per-rule path-prefix allowlist.
#[derive(Debug, Clone, Default)]
pub struct Allowlist {
    entries: BTreeMap<String, Vec<String>>,
}

impl Allowlist {
    /// Adds one `rule → path-prefix` entry (used by tests and the
    /// parser).
    pub fn insert(&mut self, rule: &str, prefix: &str) {
        self.entries
            .entry(rule.to_owned())
            .or_default()
            .push(prefix.trim_end_matches('/').to_owned());
    }

    /// Iterates every `(rule, path-prefix)` entry, in rule order — used
    /// by `validate_allowlist` to reject stale prefixes.
    pub fn entries(&self) -> impl Iterator<Item = (&str, &str)> {
        self.entries
            .iter()
            .flat_map(|(rule, prefixes)| prefixes.iter().map(move |p| (rule.as_str(), p.as_str())))
    }

    /// True when `rel` is allowlisted for `rule`: an entry equals the
    /// path or is a directory prefix of it.
    pub fn allows(&self, rule: &str, rel: &str) -> bool {
        self.entries.get(rule).is_some_and(|prefixes| {
            prefixes
                .iter()
                .any(|p| rel == p || rel.starts_with(&format!("{p}/")))
        })
    }

    /// Parses the `simlint.toml` text. Errors carry the offending line
    /// number.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut out = Allowlist::default();
        let mut in_allow = false;
        let mut pending: Option<(String, String, usize)> = None; // key, buffered array text, start line
        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx + 1;
            let line = strip_comment(raw).trim().to_owned();
            if let Some((key, mut buf, start)) = pending.take() {
                // Continuing a multi-line array.
                buf.push(' ');
                buf.push_str(&line);
                if line.contains(']') {
                    out.finish_entry(&key, &buf, start)?;
                } else {
                    pending = Some((key, buf, start));
                }
                continue;
            }
            if line.is_empty() {
                continue;
            }
            if let Some(section) = line.strip_prefix('[') {
                let section = section
                    .strip_suffix(']')
                    .ok_or_else(|| format!("simlint.toml:{lineno}: unterminated section header"))?
                    .trim();
                in_allow = section == "allow";
                if !in_allow {
                    return Err(format!(
                        "simlint.toml:{lineno}: unknown section `[{section}]` (only `[allow]` is supported)"
                    ));
                }
                continue;
            }
            if !in_allow {
                return Err(format!(
                    "simlint.toml:{lineno}: entry outside an `[allow]` section"
                ));
            }
            let (key, value) = line.split_once('=').ok_or_else(|| {
                format!("simlint.toml:{lineno}: expected `rule = [\"path\", ...]`")
            })?;
            let key = key.trim().trim_matches('"').to_owned();
            let value = value.trim().to_owned();
            if !value.starts_with('[') {
                return Err(format!(
                    "simlint.toml:{lineno}: value for `{key}` must be an array of path strings"
                ));
            }
            if value.contains(']') {
                out.finish_entry(&key, &value, lineno)?;
            } else {
                pending = Some((key, value, lineno));
            }
        }
        if let Some((key, _, start)) = pending {
            return Err(format!(
                "simlint.toml:{start}: unterminated array for `{key}`"
            ));
        }
        Ok(out)
    }

    fn finish_entry(&mut self, key: &str, array: &str, lineno: usize) -> Result<(), String> {
        if !is_known_rule(key) {
            return Err(format!(
                "simlint.toml:{lineno}: unknown rule `{key}` (run `simlint --list-rules`)"
            ));
        }
        let inner = array
            .trim()
            .strip_prefix('[')
            .and_then(|s| s.strip_suffix(']'))
            .ok_or_else(|| format!("simlint.toml:{lineno}: malformed array for `{key}`"))?;
        for item in inner.split(',') {
            let item = item.trim();
            if item.is_empty() {
                continue; // trailing comma
            }
            let path = item
                .strip_prefix('"')
                .and_then(|s| s.strip_suffix('"'))
                .ok_or_else(|| {
                    format!("simlint.toml:{lineno}: array items must be \"quoted paths\"")
                })?;
            self.insert(key, path);
        }
        Ok(())
    }
}

/// Drops a `#`-comment, respecting `#` inside quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_single_and_multiline_arrays() {
        let text = r#"
# repo allowlist
[allow]
core-state = ["crates/baselines/src/fred.rs"] # FRED is per-flow by design
unit-safety = [
    "crates/scenarios/src/exec.rs",
    "crates/bench",
]
"#;
        let a = Allowlist::parse(text).expect("valid config must parse");
        assert!(a.allows("core-state", "crates/baselines/src/fred.rs"));
        assert!(!a.allows("core-state", "crates/baselines/src/red.rs"));
        assert!(a.allows("unit-safety", "crates/bench/src/lib.rs"));
        assert!(!a.allows("unit-safety", "crates/benchmarks/src/lib.rs"));
    }

    #[test]
    fn unknown_rule_is_an_error() {
        let err = Allowlist::parse("[allow]\nhot-aloc = [\"x\"]\n").expect_err("typo must error");
        assert!(err.contains("unknown rule"), "{err}");
    }

    #[test]
    fn unknown_section_is_an_error() {
        let err = Allowlist::parse("[deny]\n").expect_err("section must error");
        assert!(err.contains("unknown section"), "{err}");
    }

    #[test]
    fn hash_inside_quotes_is_not_a_comment() {
        let a = Allowlist::parse("[allow]\nhot-alloc = [\"crates/a#b\"]\n")
            .expect("quoted # must parse");
        assert!(a.allows("hot-alloc", "crates/a#b"));
    }

    #[test]
    fn empty_config_allows_nothing() {
        let a = Allowlist::parse("").expect("empty config is valid");
        assert!(!a.allows("hot-alloc", "crates/x.rs"));
    }
}
