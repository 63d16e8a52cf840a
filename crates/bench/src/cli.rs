//! A tiny argument parser for the experiment binaries.

/// Parsed common arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// RNG seed (`--seed`, default 42).
    pub seed: u64,
    /// Panel selector for two-panel figures (`--panel a|b`, default
    /// both).
    pub panel: Option<char>,
    /// Paper-scale sizes instead of the quick defaults (`--full`).
    pub full: bool,
    /// Output directory for CSVs (`--out`, default `results`).
    pub out_dir: String,
}

impl Default for Args {
    fn default() -> Self {
        Self {
            seed: 42,
            panel: None,
            full: false,
            out_dir: "results".into(),
        }
    }
}

impl Args {
    /// Parses `std::env::args()`.
    ///
    /// # Panics
    ///
    /// Panics with a usage message on malformed arguments — these are
    /// developer-facing binaries.
    pub fn parse() -> Self {
        Self::parse_from(std::env::args().skip(1))
    }

    /// Parses from an explicit iterator (testable).
    pub fn parse_from<I: IntoIterator<Item = String>>(iter: I) -> Self {
        let mut args = Args::default();
        let mut it = iter.into_iter();
        while let Some(flag) = it.next() {
            match flag.as_str() {
                "--seed" => {
                    args.seed = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| panic!("--seed needs a u64"));
                }
                "--panel" => {
                    let v = it.next().unwrap_or_else(|| panic!("--panel needs a|b"));
                    let c = v.chars().next().unwrap_or('a').to_ascii_lowercase();
                    assert!(c == 'a' || c == 'b', "--panel must be a or b");
                    args.panel = Some(c);
                }
                "--full" => args.full = true,
                "--out" => {
                    args.out_dir = it.next().unwrap_or_else(|| panic!("--out needs a path"));
                }
                other => panic!("unknown flag {other} (expected --seed/--panel/--full/--out)"),
            }
        }
        args
    }

    /// Whether to run a given panel.
    pub fn wants_panel(&self, p: char) -> bool {
        self.panel.is_none_or(|sel| sel == p)
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
        assert_eq!(a.seed, 42);
        assert_eq!(a.panel, None);
        assert!(!a.full);
        assert!(a.wants_panel('a') && a.wants_panel('b'));
    }

    #[test]
    fn all_flags() {
        let a = parse(&["--seed", "7", "--panel", "b", "--full", "--out", "tmp"]);
        assert_eq!(a.seed, 7);
        assert_eq!(a.panel, Some('b'));
        assert!(a.full);
        assert_eq!(a.out_dir, "tmp");
        assert!(!a.wants_panel('a'));
        assert!(a.wants_panel('b'));
    }

    #[test]
    #[should_panic(expected = "unknown flag")]
    fn unknown_flag_panics() {
        parse(&["--bogus"]);
    }

    #[test]
    #[should_panic(expected = "--panel must be")]
    fn bad_panel_panics() {
        parse(&["--panel", "c"]);
    }
}
