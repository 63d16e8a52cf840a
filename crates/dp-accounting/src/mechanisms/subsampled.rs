//! Privacy amplification by Poisson subsampling.
//!
//! Two subsampled mechanisms are provided:
//!
//! * [`SubsampledGaussian`] — the sampled Gaussian mechanism of DP-SGD,
//!   using the exact integer-order formula of Mironov, Talwar & Zhang
//!   ("Rényi Differential Privacy of the Sampled Gaussian Mechanism",
//!   2019).
//! * [`SubsampledLaplace`] — via the generic integer-order amplification
//!   bound of Wang, Balle & Kasiviswanathan ("Subsampled Rényi
//!   Differential Privacy and Analytical Moments Accountant", 2019),
//!   applicable to any base mechanism with a known RDP curve and pure-DP
//!   bound.
//!
//! Both formulas are exact (respectively, valid upper bounds) at integer
//! orders. At the three fractional orders of the standard grid (1.5,
//! 1.75, 2.5) we use the monotone bound `ε(α) ≤ ε(⌈α⌉)`, which is sound
//! because Rényi divergence is non-decreasing in the order. The bound is
//! loose at those three orders but does not affect scheduling outcomes:
//! every best alpha in the paper's evaluation lies in `{3, …, 64}`.

use super::{GaussianMechanism, LaplaceMechanism, Mechanism};
use crate::error::AccountingError;
use crate::math::{ln_binomial, log_sum_exp};

/// Validates a Poisson sampling rate `q ∈ [0, 1]`.
fn check_rate(q: f64) -> Result<(), AccountingError> {
    if !q.is_finite() || !(0.0..=1.0).contains(&q) {
        return Err(AccountingError::InvalidParameter(format!(
            "sampling rate must be in [0, 1] (got {q})"
        )));
    }
    Ok(())
}

/// The sampled Gaussian mechanism (SGM): Poisson-subsample with rate `q`,
/// then apply a Gaussian mechanism with noise multiplier `σ`.
///
/// For integer `α ≥ 2` the Rényi loss is computed exactly:
///
/// ```text
/// ε(α) = 1/(α−1) · log Σ_{k=0}^{α} C(α,k) (1−q)^{α−k} q^k exp((k²−k)/(2σ²))
/// ```
///
/// This is the per-step cost of DP-SGD; a training run composes it over
/// its step count (see [`crate::dpsgd`]).
///
/// # Examples
///
/// ```
/// use dp_accounting::mechanisms::{Mechanism, SubsampledGaussian};
///
/// let m = SubsampledGaussian::new(2.0, 0.01).unwrap();
/// // Amplification: far below the un-subsampled Gaussian at the same σ.
/// assert!(m.rdp_epsilon(4.0) < 0.25 * 4.0 / 8.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SubsampledGaussian {
    sigma: f64,
    q: f64,
}

impl SubsampledGaussian {
    /// Creates the mechanism; `sigma > 0`, `q ∈ [0, 1]`.
    pub fn new(sigma: f64, q: f64) -> Result<Self, AccountingError> {
        let _ = GaussianMechanism::new(sigma)?;
        check_rate(q)?;
        Ok(Self { sigma, q })
    }

    /// The noise multiplier.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// The Poisson sampling rate.
    pub fn sampling_rate(&self) -> f64 {
        self.q
    }

    /// Exact integer-order Rényi loss (Mironov–Talwar–Zhang).
    fn integer_order(&self, alpha: u64) -> f64 {
        debug_assert!(alpha >= 2);
        if self.q == 0.0 {
            return 0.0;
        }
        if self.q == 1.0 {
            // No amplification: plain Gaussian.
            return alpha as f64 / (2.0 * self.sigma * self.sigma);
        }
        let ln_q = self.q.ln();
        let ln_1mq = (1.0 - self.q).ln();
        let s2 = 2.0 * self.sigma * self.sigma;
        let terms: Vec<f64> = (0..=alpha)
            .map(|k| {
                let kf = k as f64;
                ln_binomial(alpha, k)
                    + kf * ln_q
                    + (alpha - k) as f64 * ln_1mq
                    + (kf * kf - kf) / s2
            })
            .collect();
        log_sum_exp(&terms) / (alpha as f64 - 1.0)
    }
}

impl Mechanism for SubsampledGaussian {
    fn rdp_epsilon(&self, alpha: f64) -> f64 {
        debug_assert!(alpha > 1.0);
        // Integer orders: exact formula. Fractional: sound ceiling bound.
        let ceil = alpha.ceil().max(2.0) as u64;
        self.integer_order(ceil)
    }
}

/// Poisson-subsampled Laplace mechanism, via the generic amplification
/// bound of Wang et al. 2019 (Thm. 9 therein), at integer `α ≥ 2`:
///
/// ```text
/// ε'(α) ≤ 1/(α−1) · log( 1
///     + C(α,2) q² · min{ 4(e^{ε(2)}−1),  e^{ε(2)} · min{2, (e^{ε∞}−1)²} }
///     + Σ_{j=3}^{α} C(α,j) q^j e^{(j−1)ε(j)} · min{2, (e^{ε∞}−1)^j } )
/// ```
///
/// where `ε(j)` is the base Laplace curve and `ε∞ = 1/b` its pure-DP
/// bound. The bound is what the paper's "Subsampled Laplace"
/// microbenchmark family uses.
#[derive(Debug, Clone, PartialEq)]
pub struct SubsampledLaplace {
    base: LaplaceMechanism,
    q: f64,
}

impl SubsampledLaplace {
    /// Creates the mechanism; `scale > 0`, `q ∈ [0, 1]`.
    pub fn new(scale: f64, q: f64) -> Result<Self, AccountingError> {
        check_rate(q)?;
        Ok(Self {
            base: LaplaceMechanism::new(scale)?,
            q,
        })
    }

    /// The base Laplace noise scale `b`.
    pub fn scale(&self) -> f64 {
        self.base.scale()
    }

    /// The Poisson sampling rate.
    pub fn sampling_rate(&self) -> f64 {
        self.q
    }

    /// Integer-order amplification bound (Wang et al. 2019).
    fn integer_order(&self, alpha: u64) -> f64 {
        debug_assert!(alpha >= 2);
        if self.q == 0.0 {
            return 0.0;
        }
        if self.q == 1.0 {
            return self.base.rdp_epsilon(alpha as f64);
        }
        let ln_q = self.q.ln();
        let eps_inf = self.base.pure_dp_epsilon().expect("laplace is pure-DP");
        // ln(e^{ε∞} − 1); ε∞ > 0 so the argument is positive.
        let ln_em1 = eps_inf.exp_m1().ln();
        let eps2 = self.base.rdp_epsilon(2.0);

        // j = 2 term: C(α,2) q² · min{4(e^{ε(2)}−1), e^{ε(2)}·min{2, (e^{ε∞}−1)²}}.
        let ln_opt_a = (4.0 * eps2.exp_m1()).ln();
        let ln_opt_b = eps2 + f64::min(2f64.ln(), 2.0 * ln_em1);
        let ln_t2 = ln_binomial(alpha, 2) + 2.0 * ln_q + f64::min(ln_opt_a, ln_opt_b);

        // j ≥ 3 terms: C(α,j) q^j e^{(j−1)ε(j)} · min{2, (e^{ε∞}−1)^j}.
        let mut terms = vec![0.0_f64, ln_t2]; // The leading "1 +" is exp(0).
        for j in 3..=alpha {
            let jf = j as f64;
            let ln_min = f64::min(2f64.ln(), jf * ln_em1);
            terms.push(
                ln_binomial(alpha, j) + jf * ln_q + (jf - 1.0) * self.base.rdp_epsilon(jf) + ln_min,
            );
        }
        log_sum_exp(&terms) / (alpha as f64 - 1.0)
    }
}

impl Mechanism for SubsampledLaplace {
    fn rdp_epsilon(&self, alpha: f64) -> f64 {
        debug_assert!(alpha > 1.0);
        let ceil = alpha.ceil().max(2.0) as u64;
        self.integer_order(ceil)
    }

    fn pure_dp_epsilon(&self) -> Option<f64> {
        // Subsampling a pure ε-DP mechanism gives ln(1 + q(e^ε − 1))-DP.
        let e = self.base.pure_dp_epsilon()?;
        Some((self.q * e.exp_m1()).ln_1p())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alpha::AlphaGrid;

    #[test]
    fn sgm_alpha2_closed_form() {
        // At α = 2 the MTZ sum collapses to ln(1 + q²(e^{1/σ²} − 1)).
        for (sigma, q) in [(1.0, 0.1), (2.0, 0.5), (0.7, 0.01)] {
            let m = SubsampledGaussian::new(sigma, q).unwrap();
            let expected = (q * q * (1.0 / (sigma * sigma)).exp_m1()).ln_1p();
            assert!(
                (m.rdp_epsilon(2.0) - expected).abs() < 1e-12,
                "sigma={sigma} q={q}"
            );
        }
    }

    #[test]
    fn sgm_q1_equals_plain_gaussian() {
        let m = SubsampledGaussian::new(2.0, 1.0).unwrap();
        for a in [2.0, 4.0, 16.0, 64.0] {
            assert!((m.rdp_epsilon(a) - a / 8.0).abs() < 1e-12);
        }
    }

    #[test]
    fn sgm_q0_is_free() {
        let m = SubsampledGaussian::new(1.0, 0.0).unwrap();
        for a in [2.0, 8.0, 64.0] {
            assert_eq!(m.rdp_epsilon(a), 0.0);
        }
    }

    #[test]
    fn sgm_amplification_beats_plain_gaussian() {
        let grid = AlphaGrid::standard();
        let sub = SubsampledGaussian::new(2.0, 0.1).unwrap().curve(&grid);
        let plain = GaussianMechanism::new(2.0).unwrap().curve(&grid);
        for i in 0..grid.len() {
            assert!(sub.epsilon(i) < plain.epsilon(i));
        }
    }

    #[test]
    fn sgm_monotone_in_q_and_alpha() {
        let lo = SubsampledGaussian::new(1.0, 0.05).unwrap();
        let hi = SubsampledGaussian::new(1.0, 0.2).unwrap();
        for a in [2.0, 4.0, 16.0] {
            assert!(lo.rdp_epsilon(a) < hi.rdp_epsilon(a));
        }
        let m = SubsampledGaussian::new(1.0, 0.1).unwrap();
        let grid = AlphaGrid::standard();
        let c = m.curve(&grid);
        for w in c.values().windows(2) {
            assert!(w[1] >= w[0] - 1e-12);
        }
    }

    #[test]
    fn sgm_small_q_is_quadratic() {
        // For small q, ε(2) ≈ q²(e^{1/σ²}−1): quartering q should divide
        // the loss by ≈ 16.
        let m1 = SubsampledGaussian::new(1.0, 0.04).unwrap();
        let m2 = SubsampledGaussian::new(1.0, 0.01).unwrap();
        let ratio = m1.rdp_epsilon(2.0) / m2.rdp_epsilon(2.0);
        assert!((ratio - 16.0).abs() < 0.2, "ratio={ratio}");
    }

    #[test]
    fn fractional_orders_use_sound_ceiling_bound() {
        let m = SubsampledGaussian::new(2.0, 0.3).unwrap();
        assert_eq!(m.rdp_epsilon(2.5), m.rdp_epsilon(3.0));
        assert!(m.rdp_epsilon(1.5) >= 0.0);
        // The bound is still below the un-subsampled Gaussian at that order.
        assert!(m.rdp_epsilon(2.5) <= 3.0 / 8.0);
    }

    #[test]
    fn sublaplace_q1_equals_plain_laplace() {
        let m = SubsampledLaplace::new(1.0, 1.0).unwrap();
        let base = LaplaceMechanism::new(1.0).unwrap();
        for a in [2.0, 4.0, 8.0] {
            assert!((m.rdp_epsilon(a) - base.rdp_epsilon(a)).abs() < 1e-12);
        }
    }

    #[test]
    fn sublaplace_amplifies() {
        let grid = AlphaGrid::standard();
        let sub = SubsampledLaplace::new(1.0, 0.05).unwrap().curve(&grid);
        let plain = LaplaceMechanism::new(1.0).unwrap().curve(&grid);
        for i in 0..grid.len() {
            assert!(
                sub.epsilon(i) < plain.epsilon(i),
                "order idx {i}: {} vs {}",
                sub.epsilon(i),
                plain.epsilon(i)
            );
        }
    }

    #[test]
    fn sublaplace_pure_dp_amplification() {
        let m = SubsampledLaplace::new(0.5, 0.1).unwrap();
        // ln(1 + 0.1(e² − 1)).
        let expected = (0.1 * 2f64.exp_m1()).ln_1p();
        assert!((m.pure_dp_epsilon().unwrap() - expected).abs() < 1e-12);
    }

    #[test]
    fn sublaplace_q0_is_free() {
        let m = SubsampledLaplace::new(1.0, 0.0).unwrap();
        assert_eq!(m.rdp_epsilon(4.0), 0.0);
    }

    #[test]
    fn rejects_bad_rates() {
        assert!(SubsampledGaussian::new(1.0, -0.1).is_err());
        assert!(SubsampledGaussian::new(1.0, 1.1).is_err());
        assert!(SubsampledGaussian::new(0.0, 0.5).is_err());
        assert!(SubsampledLaplace::new(1.0, f64::NAN).is_err());
        assert!(SubsampledLaplace::new(-1.0, 0.5).is_err());
    }

    #[test]
    fn composition_over_steps_scales_linearly() {
        // k-fold composition of the per-step curve = k × per-step curve.
        let grid = AlphaGrid::standard();
        let step = SubsampledGaussian::new(1.0, 0.01).unwrap().curve(&grid);
        let run = step.compose_k(1000);
        for i in 0..grid.len() {
            assert!((run.epsilon(i) - 1000.0 * step.epsilon(i)).abs() < 1e-9);
        }
    }
}
