//! The Laplace mechanism.

use super::Mechanism;
use crate::error::AccountingError;

/// Laplace mechanism with scale `b` (noise scale divided by the query's
/// ℓ₁ sensitivity).
///
/// Its RDP curve, from Mironov '17 (Table II), for `α > 1`:
///
/// ```text
/// ε(α) = 1/(α−1) · log( α/(2α−1) · e^{(α−1)/b}  +  (α−1)/(2α−1) · e^{−α/b} )
/// ```
///
/// The curve saturates at the pure-DP bound `ε(∞) = 1/b`, which makes
/// Laplace "tighter for large α's" (Fig. 2 of the paper) — the opposite
/// ordering of the Gaussian's linear curve, and the source of best-alpha
/// heterogeneity in mixed workloads.
#[derive(Debug, Clone, PartialEq)]
pub struct LaplaceMechanism {
    scale: f64,
}

impl LaplaceMechanism {
    /// Creates the mechanism; `scale` must be finite and positive.
    pub fn new(scale: f64) -> Result<Self, AccountingError> {
        if !scale.is_finite() || scale <= 0.0 {
            return Err(AccountingError::InvalidParameter(format!(
                "laplace scale must be finite and > 0 (got {scale})"
            )));
        }
        Ok(Self { scale })
    }

    /// The noise scale `b`.
    pub fn scale(&self) -> f64 {
        self.scale
    }
}

impl Mechanism for LaplaceMechanism {
    fn rdp_epsilon(&self, alpha: f64) -> f64 {
        debug_assert!(alpha > 1.0);
        let b = self.scale;
        let t1 = (alpha / (2.0 * alpha - 1.0)).ln() + (alpha - 1.0) / b;
        let t2 = ((alpha - 1.0) / (2.0 * alpha - 1.0)).ln() - alpha / b;
        crate::math::log_add_exp(t1, t2) / (alpha - 1.0)
    }

    fn pure_dp_epsilon(&self) -> Option<f64> {
        Some(1.0 / self.scale)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hand_computed_value() {
        // b = √2 (std-dev 2, as in Fig. 2), α = 6:
        // ε = (1/5)·ln( (6/11)·e^{5/√2} + (5/11)·e^{−6/√2} ).
        let b = std::f64::consts::SQRT_2;
        let m = LaplaceMechanism::new(b).unwrap();
        let expected =
            ((6.0 / 11.0) * (5.0 / b).exp() + (5.0 / 11.0) * (-6.0 / b).exp()).ln() / 5.0;
        assert!((m.rdp_epsilon(6.0) - expected).abs() < 1e-12);
    }

    #[test]
    fn curve_is_increasing_in_alpha() {
        let m = LaplaceMechanism::new(1.0).unwrap();
        let grid = crate::alpha::AlphaGrid::standard();
        let c = m.curve(&grid);
        for w in c.values().windows(2) {
            assert!(w[1] >= w[0] - 1e-12, "RDP must be non-decreasing in α");
        }
    }

    #[test]
    fn saturates_at_pure_dp_bound() {
        let m = LaplaceMechanism::new(0.5).unwrap();
        let pure = m.pure_dp_epsilon().unwrap();
        assert_eq!(pure, 2.0);
        // At very large α the curve approaches but never exceeds ε(∞).
        let at_large = m.rdp_epsilon(10_000.0);
        assert!(at_large < pure);
        assert!(at_large > 0.95 * pure);
    }

    #[test]
    fn rejects_bad_scale() {
        assert!(LaplaceMechanism::new(0.0).is_err());
        assert!(LaplaceMechanism::new(-2.0).is_err());
        assert!(LaplaceMechanism::new(f64::NAN).is_err());
    }

    #[test]
    fn weaker_noise_means_more_loss() {
        let strong = LaplaceMechanism::new(4.0).unwrap();
        let weak = LaplaceMechanism::new(0.5).unwrap();
        for a in [1.5, 4.0, 64.0] {
            assert!(strong.rdp_epsilon(a) < weak.rdp_epsilon(a));
        }
    }

    #[test]
    fn positive_at_all_grid_orders() {
        let grid = crate::alpha::AlphaGrid::standard();
        let c = LaplaceMechanism::new(3.0).unwrap().curve(&grid);
        assert!(c.values().iter().all(|&e| e > 0.0 && e.is_finite()));
    }
}
