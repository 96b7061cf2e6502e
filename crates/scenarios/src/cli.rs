//! The command line of a table binary (`compare`, `faults`, …): the flags
//! it accepts, and exit 2 with a usage line on anything else, as
//! `corelite-sim` does.

/// What a table binary's command line asked for.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Flags {
    /// `--serial`: run one job at a time (the output is the same bytes).
    pub serial: bool,
    /// `--out DIR`: where the binary writes its files.
    pub out: Option<String>,
}

/// Reads the process's arguments against `accepted` (a subset of
/// `--serial` and `--out`). Any other argument prints
/// `usage: <bin> [--serial] [--out DIR]` (the accepted ones) and exits 2.
pub fn flags(accepted: &[&str]) -> Flags {
    let mut args = std::env::args();
    let bin = args.next().unwrap_or_default();
    parse(args, accepted).unwrap_or_else(|bad| {
        let bin = bin.rsplit('/').next().unwrap_or_default();
        let usage: String = accepted
            .iter()
            .map(|&f| {
                if f == "--out" {
                    " [--out DIR]"
                } else {
                    " [--serial]"
                }
            })
            .collect();
        eprintln!("{bad}\nusage: {bin}{usage}");
        std::process::exit(2)
    })
}

fn parse(mut args: impl Iterator<Item = String>, accepted: &[&str]) -> Result<Flags, String> {
    let mut flags = Flags::default();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--serial" if accepted.contains(&"--serial") => flags.serial = true,
            "--out" if accepted.contains(&"--out") => {
                flags.out = Some(args.next().ok_or("--out needs a directory")?);
            }
            _ => return Err(format!("unexpected argument {arg:?}")),
        }
    }
    Ok(flags)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parsed(args: &[&str], accepted: &[&str]) -> Result<Flags, String> {
        parse(args.iter().map(|a| a.to_string()), accepted)
    }

    #[test]
    fn accepted_flags_are_read() {
        let both = ["--serial", "--out"];
        assert_eq!(parsed(&[], &both), Ok(Flags::default()));
        assert_eq!(
            parsed(&["--out", "dir", "--serial"], &both),
            Ok(Flags {
                serial: true,
                out: Some("dir".into())
            })
        );
    }

    #[test]
    fn anything_else_is_an_error() {
        assert_eq!(
            parsed(&["--quick"], &["--serial"]),
            Err("unexpected argument \"--quick\"".into())
        );
        assert!(parsed(&["--out", "dir"], &["--serial"]).is_err());
        assert!(parsed(&["--serial"], &["--out"]).is_err());
        assert!(parsed(&["--serial"], &[]).is_err());
        assert_eq!(
            parsed(&["--out"], &["--out"]),
            Err("--out needs a directory".into())
        );
    }
}
