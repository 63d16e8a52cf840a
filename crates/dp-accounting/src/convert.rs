//! Conversions between RDP and traditional `(ε, δ)`-DP.

use crate::alpha::AlphaGrid;
use crate::curve::RdpCurve;
use crate::error::AccountingError;

/// A traditional `(ε, δ)`-DP guarantee obtained from an RDP curve,
/// remembering which order produced it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DpGuarantee {
    /// The traditional DP `ε`.
    pub epsilon: f64,
    /// The failure probability `δ`.
    pub delta: f64,
    /// The Rényi order that yielded the tightest translation — the
    /// "best alpha" of §3.2.
    pub best_alpha: f64,
}

/// Translates an RDP curve to the tightest `(ε, δ)`-DP guarantee on its
/// grid (Eq. 2 of the paper):
///
/// ```text
/// ε_DP = min_α [ ε(α) + log(1/δ) / (α − 1) ]
/// ```
///
/// Every order yields a *valid* guarantee simultaneously; the minimum is
/// therefore also valid, and the argmin is the mechanism's best alpha.
///
/// # Errors
///
/// Returns [`AccountingError::InvalidParameter`] if `δ ∉ (0, 1)`.
///
/// # Examples
///
/// ```
/// use dp_accounting::{AlphaGrid, rdp_to_dp};
/// use dp_accounting::mechanisms::{Mechanism, GaussianMechanism};
///
/// let grid = AlphaGrid::standard();
/// let curve = GaussianMechanism::new(2.0).unwrap().curve(&grid);
/// let g = rdp_to_dp(&curve, 1e-6).unwrap();
/// assert!(g.epsilon > 0.0 && g.best_alpha >= 1.5);
/// ```
pub fn rdp_to_dp(curve: &RdpCurve, delta: f64) -> Result<DpGuarantee, AccountingError> {
    if !delta.is_finite() || delta <= 0.0 || delta >= 1.0 {
        return Err(AccountingError::InvalidParameter(format!(
            "delta must be in (0, 1) (got {delta})"
        )));
    }
    let ln_inv_delta = (1.0 / delta).ln();
    let mut best: Option<DpGuarantee> = None;
    for (i, alpha) in curve.grid().iter() {
        let eps = curve.epsilon(i) + ln_inv_delta / (alpha - 1.0);
        if best.is_none_or(|b| eps < b.epsilon) {
            best = Some(DpGuarantee {
                epsilon: eps,
                delta,
                best_alpha: alpha,
            });
        }
    }
    best.ok_or(AccountingError::NoValidOrder)
}

/// Initializes a block's per-order RDP capacity from a global
/// `(ε_G, δ_G)`-DP guarantee (§3.4 of the paper):
///
/// ```text
/// c(α) = ε_G − log(1/δ_G) / (α − 1)
/// ```
///
/// Consuming within `c(α)` at *any single* order and translating back via
/// Eq. 2 recovers `(ε_G, δ_G)`-DP. Orders where the formula is negative
/// are unusable for this global budget (common for small α: on the
/// standard grid with `(10, 10⁻⁷)`, orders below 3 are negative — which
/// is why the paper's best alphas start at 3). Negative values are kept
/// as-is so that normalization code can detect unusable orders.
///
/// # Errors
///
/// Returns [`AccountingError::InvalidParameter`] for non-positive `ε_G`
/// or `δ_G ∉ (0, 1)`.
pub fn block_capacity(
    grid: &AlphaGrid,
    epsilon_g: f64,
    delta_g: f64,
) -> Result<RdpCurve, AccountingError> {
    if !epsilon_g.is_finite() || epsilon_g <= 0.0 {
        return Err(AccountingError::InvalidParameter(format!(
            "global epsilon must be finite and > 0 (got {epsilon_g})"
        )));
    }
    if !delta_g.is_finite() || delta_g <= 0.0 || delta_g >= 1.0 {
        return Err(AccountingError::InvalidParameter(format!(
            "global delta must be in (0, 1) (got {delta_g})"
        )));
    }
    let ln_inv_delta = (1.0 / delta_g).ln();
    Ok(RdpCurve::from_fn(grid, |a| {
        epsilon_g - ln_inv_delta / (a - 1.0)
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mechanisms::{GaussianMechanism, LaplaceMechanism, Mechanism};

    #[test]
    fn gaussian_conversion_close_to_continuous_optimum() {
        // Continuous optimum of α/(2σ²) + ln(1/δ)/(α−1) is at
        // α* = 1 + √(2σ² ln(1/δ)), value 1/(2σ²) + √(2 ln(1/δ))/σ.
        let sigma = 5.0;
        let delta = 1e-6;
        let grid = AlphaGrid::new((3..400).map(|i| i as f64 / 2.0).collect()).unwrap();
        let curve = GaussianMechanism::new(sigma).unwrap().curve(&grid);
        let g = rdp_to_dp(&curve, delta).unwrap();
        let continuous = 1.0 / (2.0 * sigma * sigma) + (2.0 * (1.0f64 / delta).ln()).sqrt() / sigma;
        assert!(g.epsilon >= continuous - 1e-9, "grid min below true min");
        assert!(g.epsilon <= continuous * 1.02, "grid min far from true min");
    }

    #[test]
    fn conversion_picks_argmin_order() {
        let grid = AlphaGrid::standard();
        let curve = GaussianMechanism::new(2.0).unwrap().curve(&grid);
        let g = rdp_to_dp(&curve, 1e-6).unwrap();
        // The reported guarantee equals the value at the reported order...
        let idx = grid.index_of(g.best_alpha).unwrap();
        let at_best = curve.epsilon(idx) + (1e6f64).ln() / (g.best_alpha - 1.0);
        assert!((g.epsilon - at_best).abs() < 1e-12);
        // ...and no other order does better.
        for (i, a) in grid.iter() {
            let v = curve.epsilon(i) + (1e6f64).ln() / (a - 1.0);
            assert!(g.epsilon <= v + 1e-12);
        }
    }

    #[test]
    fn laplace_best_alpha_is_large_gaussian_is_moderate() {
        // Fig. 2(b): Laplace's tightest translation sits at large α,
        // the Gaussian's at a moderate α.
        let grid = AlphaGrid::standard();
        let lap = LaplaceMechanism::new(std::f64::consts::SQRT_2)
            .unwrap()
            .curve(&grid);
        let gau = GaussianMechanism::new(2.0).unwrap().curve(&grid);
        let lap_g = rdp_to_dp(&lap, 1e-6).unwrap();
        let gau_g = rdp_to_dp(&gau, 1e-6).unwrap();
        assert!(
            lap_g.best_alpha >= 32.0,
            "laplace best α = {}",
            lap_g.best_alpha
        );
        assert!(
            (4.0..=32.0).contains(&gau_g.best_alpha),
            "gaussian best α = {}",
            gau_g.best_alpha
        );
    }

    #[test]
    fn rdp_composition_beats_basic_composition() {
        // The RDP advantage of Fig. 2: composing m Gaussian mechanisms in
        // RDP and converting once is far tighter than converting each and
        // adding the ε's.
        let grid = AlphaGrid::standard();
        let delta = 1e-6;
        let one = GaussianMechanism::new(2.0).unwrap().curve(&grid);
        let m = 16;
        let composed = one.compose_k(m);
        let rdp_eps = rdp_to_dp(&composed, delta).unwrap().epsilon;
        let basic_eps = m as f64 * rdp_to_dp(&one, delta).unwrap().epsilon;
        assert!(
            rdp_eps < 0.5 * basic_eps,
            "rdp {rdp_eps} vs basic {basic_eps}"
        );
    }

    #[test]
    fn conversion_rejects_bad_delta() {
        let grid = AlphaGrid::standard();
        let c = RdpCurve::zero(&grid);
        assert!(rdp_to_dp(&c, 0.0).is_err());
        assert!(rdp_to_dp(&c, 1.0).is_err());
        assert!(rdp_to_dp(&c, -0.5).is_err());
        assert!(rdp_to_dp(&c, f64::NAN).is_err());
    }

    #[test]
    fn block_capacity_formula() {
        let grid = AlphaGrid::standard();
        let cap = block_capacity(&grid, 10.0, 1e-7).unwrap();
        let ln = (1e7f64).ln();
        for (i, a) in grid.iter() {
            assert!((cap.epsilon(i) - (10.0 - ln / (a - 1.0))).abs() < 1e-12);
        }
        // Small orders are negative (unusable), large orders positive.
        let at = |a: f64| cap.epsilon(grid.index_of(a).unwrap());
        assert!(at(1.5) < 0.0);
        assert!(at(2.5) < 0.0);
        assert!(at(3.0) > 0.0);
        assert!(at(64.0) > 0.0);
    }

    #[test]
    fn capacity_round_trips_to_global_guarantee() {
        // Exactly filling the capacity at one order α and translating back
        // must recover (ε_G, δ_G) at that order.
        let grid = AlphaGrid::standard();
        let (eg, dg) = (5.0, 1e-5);
        let cap = block_capacity(&grid, eg, dg).unwrap();
        for (i, a) in grid.iter() {
            let c = cap.epsilon(i);
            if c <= 0.0 {
                continue;
            }
            let back = c + (1.0f64 / dg).ln() / (a - 1.0);
            assert!((back - eg).abs() < 1e-12);
        }
    }

    #[test]
    fn block_capacity_rejects_bad_params() {
        let grid = AlphaGrid::standard();
        assert!(block_capacity(&grid, 0.0, 1e-7).is_err());
        assert!(block_capacity(&grid, -1.0, 1e-7).is_err());
        assert!(block_capacity(&grid, 10.0, 0.0).is_err());
        assert!(block_capacity(&grid, 10.0, 2.0).is_err());
    }
}
