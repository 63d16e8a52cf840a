//! A tiny argument parser for the `paper` runner.

/// Parsed arguments: the panels to run and the options they share.
#[derive(Debug, Clone)]
pub struct Args {
    /// Panel or figure names to run (positional, e.g. `fig4 tab2`).
    pub names: Vec<String>,
    /// RNG seed (`--seed`, default 42).
    pub seed: u64,
    /// Paper-scale sizes instead of the quick defaults (`--full`).
    pub full: bool,
    /// Output directory for CSVs (`--out`, default `results`).
    pub out_dir: String,
}

impl Args {
    /// Parses `std::env::args()`.
    ///
    /// # Panics
    ///
    /// Panics with a usage message on malformed arguments — this is a
    /// developer-facing binary.
    pub fn parse() -> Self {
        Self::parse_from(std::env::args().skip(1))
    }

    /// Parses from an explicit iterator (testable).
    pub fn parse_from<I: IntoIterator<Item = String>>(iter: I) -> Self {
        let mut args = Args {
            names: Vec::new(),
            seed: 42,
            full: false,
            out_dir: "results".into(),
        };
        let mut it = iter.into_iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--seed" => {
                    args.seed = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| panic!("--seed needs a u64"));
                }
                "--full" => args.full = true,
                "--out" => {
                    args.out_dir = it.next().unwrap_or_else(|| panic!("--out needs a path"));
                }
                flag if flag.starts_with("--") => {
                    panic!("unknown flag {flag} (expected --seed/--full/--out)")
                }
                _ => args.names.push(arg),
            }
        }
        args
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &[&str]) -> Args {
        Args::parse_from(s.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults() {
        let a = parse(&[]);
        assert!(a.names.is_empty());
        assert_eq!(a.seed, 42);
        assert!(!a.full);
        assert_eq!(a.out_dir, "results");
    }

    #[test]
    fn all_flags() {
        let a = parse(&["fig4", "--seed", "7", "--full", "tab2", "--out", "tmp"]);
        assert_eq!(a.names, ["fig4", "tab2"]);
        assert_eq!(a.seed, 7);
        assert!(a.full);
        assert_eq!(a.out_dir, "tmp");
    }

    #[test]
    #[should_panic(expected = "unknown flag")]
    fn unknown_flag_panics() {
        parse(&["--panel", "a"]);
    }
}
