//! `dpack-check`: vendored, std-only property testing.
//!
//! The offline build environment cannot fetch `proptest`, so this crate
//! provides the subset the workspace's property suites need, built on
//! the vendored xoshiro256++ shim in `crates/rand`:
//!
//! * [`Strategy`] — value generators with combinators: integer and
//!   float ranges ([`ints`], [`floats`]), collections ([`vecs`]),
//!   tuples, constants ([`just`]), weighted and uniform choice
//!   ([`weighted`], [`one_of`]), [`Strategy::prop_map`] and
//!   [`Strategy::prop_filter`].
//! * A runner ([`check`], [`check_cases`]) with a configurable case
//!   count and deterministic per-case seeds.
//! * Greedy input shrinking that minimizes failing cases and prints the
//!   reproducing seed.
//! * The history oracle ([`check_history`], [`diff_states`]): the rules
//!   every crash, promotion and chaos suite judges its run by, stated
//!   once over plain data.
//!
//! # Design: draw-stream generation
//!
//! A strategy builds its value from a [`Source`] — a stream of `u64`
//! draws that is *recorded* during generation and *replayed* during
//! shrinking (the Hypothesis approach). Shrinking never inverts a
//! generator: it mutates the recorded draw buffer (deleting spans,
//! minimizing individual draws toward zero) and re-runs the generator
//! on the mutated stream. Because every primitive strategy maps
//! smaller draws to "smaller" values (range strategies collapse toward
//! their start, vector lengths toward their minimum, choices toward
//! their first alternative), buffer minimization is value minimization
//! — and it composes through [`Strategy::prop_map`] and
//! [`Strategy::prop_filter`] with no extra machinery.
//!
//! # Reproducibility
//!
//! Each case runs from a deterministic seed derived from the test name
//! and case index. A failure report prints that seed; re-running with
//! `DPACK_CHECK_SEED=<seed>` replays exactly that case (and its
//! deterministic shrink). `DPACK_CHECK_CASES=<n>` overrides every
//! suite's case count, e.g. to crank nightly runs.
//!
//! # Examples
//!
//! ```
//! use dpack_check::{check, floats, vecs, prop_assert, PropResult};
//!
//! check("sum_is_monotone", vecs(floats(0.0..1.0), 0..20), |xs| {
//!     let sum: f64 = xs.iter().sum();
//!     prop_assert!(sum >= 0.0, "negative sum {sum}");
//!     Ok(())
//! });
//! ```

mod history;
mod runner;
mod shrink;
mod source;
mod strategy;

pub use history::{check_history, diff_states, BlockView, Grant, History, HistoryError};
pub use runner::{check, check_cases, run, Config, Failed, Failure, PropResult, RunSummary};
pub use source::Source;
pub use strategy::{
    bools, floats, ints, just, one_of, options, vecs, weighted, BoxedStrategy, Rejected, Strategy,
};

/// Fails the enclosing property with a message when the condition does
/// not hold (the `dpack-check` analogue of proptest's `prop_assert!`).
///
/// Must be used inside a closure returning [`PropResult`].
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return Err($crate::Failed::new(format!(
                "assertion failed: {}",
                stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err($crate::Failed::new(format!($($fmt)+)));
        }
    };
}

/// Fails the enclosing property when the two expressions are unequal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        if l != r {
            return Err($crate::Failed::new(format!(
                "assertion failed: `{:?}` != `{:?}` ({} != {})",
                l,
                r,
                stringify!($left),
                stringify!($right)
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if l != r {
            return Err($crate::Failed::new(format!(
                "assertion failed: `{:?}` != `{:?}`: {}",
                l,
                r,
                format!($($fmt)+)
            )));
        }
    }};
}
