//! Rényi differential privacy (RDP) accounting.
//!
//! This crate is the accounting substrate of the DPack reproduction. It
//! provides:
//!
//! * [`AlphaGrid`] — the discrete set of Rényi orders on which curves are
//!   tracked (the standard grid of Mironov '17 by default, or a degenerate
//!   single-order grid for traditional DP).
//! * [`RdpCurve`] — an `ε(α)` vector on a grid, with additive composition.
//! * Mechanism curves ([`mechanisms`]): Gaussian, Laplace, subsampled
//!   Gaussian (Mironov–Talwar–Zhang), subsampled Laplace (Wang et al.
//!   generic amplification bound), and arbitrary compositions.
//! * Conversion ([`convert`]): RDP → `(ε, δ)`-DP (Eq. 2 of the paper) and
//!   the block-capacity initialization `ε(α) = ε_G − log(1/δ_G)/(α−1)`
//!   from §3.4.
//! * Privacy filters ([`filter`]): per-block adaptive-composition filters
//!   that enforce a preset RDP bound (Prop. 6 of the paper).
//! * Executable mechanisms ([`noise`], [`dpsgd`]): Laplace/Gaussian noise
//!   on statistics and a miniature DP-SGD trainer, so that examples and
//!   integration tests can run *real* DP computations when a task is
//!   scheduled.
//!
//! # Examples
//!
//! ```
//! use dp_accounting::{AlphaGrid, mechanisms::{Mechanism, GaussianMechanism}};
//!
//! let grid = AlphaGrid::standard();
//! let curve = GaussianMechanism::new(2.0).unwrap().curve(&grid);
//! // ε(α) = α / (2σ²); at α = 6 and σ = 2 this is 0.75.
//! let six = grid.index_of(6.0).unwrap();
//! assert!((curve.epsilon(six) - 0.75).abs() < 1e-12);
//! ```

pub mod alpha;
pub mod convert;
pub mod curve;
pub mod dpsgd;
pub mod error;
pub mod filter;
pub mod intern;
pub mod math;
pub mod mechanisms;
pub mod noise;
pub mod pure;

pub use alpha::AlphaGrid;
pub use convert::{block_capacity, rdp_to_dp, DpGuarantee};
pub use curve::RdpCurve;
pub use error::AccountingError;
pub use filter::{FilterDecision, RenyiFilter};
pub use intern::{CurveId, CurveInterner};
pub use pure::PureDpAccountant;

/// Relative tolerance used for floating-point budget comparisons.
///
/// Budget checks of the form `consumed + demand <= capacity` are performed
/// with this relative slack so that a demand that exactly exhausts a block
/// (a common case in tests and in the microbenchmark, where demands are
/// expressed as exact fractions of capacity) is not rejected due to
/// floating-point rounding.
pub const BUDGET_RTOL: f64 = 1e-9;

/// The largest consumption that [`fits`] `capacity`: `capacity` plus
/// [`BUDGET_RTOL`] of its magnitude, or of 1 if that is smaller. This
/// is the one place the tolerance is applied; a kernel that tests many
/// sums against one capacity computes the limit once. NaN for
/// `-inf`, which nothing fits.
#[inline]
pub fn fit_limit(capacity: f64) -> f64 {
    capacity + BUDGET_RTOL * capacity.abs().max(1.0)
}

/// Returns `true` if `used <= capacity` up to [`BUDGET_RTOL`].
#[inline]
pub fn fits(used: f64, capacity: f64) -> bool {
    used <= fit_limit(capacity)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fit_limit_is_the_largest_fitting_consumption() {
        let capacities = [
            f64::NEG_INFINITY,
            -1.0,
            -0.0,
            0.0,
            f64::from_bits(1),
            1e-9,
            1.0,
            2.5,
            1e300,
            f64::INFINITY,
        ];
        for c in capacities {
            let limit = fit_limit(c);
            assert_eq!(fits(limit, c), c != f64::NEG_INFINITY, "capacity {c:e}");
            if c.is_finite() {
                assert!(!fits(limit.next_up(), c), "capacity {c:e}");
            }
        }
        assert!(fit_limit(f64::NEG_INFINITY).is_nan());
    }
}
