//! Numerical helpers used by the RDP formulas.
//!
//! All binomial-coefficient arithmetic is done in log space so the
//! subsampled-mechanism formulas remain stable up to the largest grid
//! order (α = 64 on the standard grid) and beyond. Only
//! [`ln_factorial`] is public, so that `tests/prop_accounting.rs` can
//! hold its table to the plain summation bit for bit.

use std::sync::LazyLock;

/// Orders below this read [`ln_factorial`] from a table built once.
const TABLE_LEN: usize = 256;

/// `ln n!` for `n < TABLE_LEN`, as the prefix fold `t[n] = t[n−1] +
/// ln n` started from the summation's own start (an empty `f64` sum is
/// `-0.0`): the same additions in the same order as the summation, so
/// the same bits.
static LN_FACTORIAL: LazyLock<[f64; TABLE_LEN]> = LazyLock::new(|| {
    let mut t = [ln_factorial_sum(0); TABLE_LEN];
    for n in 2..TABLE_LEN {
        t[n] = t[n - 1] + (n as f64).ln();
    }
    t
});

/// Natural log of `n!`: `Σ_{i=2}^{n} ln i`, summed in order.
///
/// Below 256 it is one table read, bit-identical to the summation; a
/// larger `n` is summed. Does not allocate.
pub fn ln_factorial(n: u64) -> f64 {
    match usize::try_from(n).ok().and_then(|i| LN_FACTORIAL.get(i)) {
        Some(&v) => v,
        None => ln_factorial_sum(n),
    }
}

fn ln_factorial_sum(n: u64) -> f64 {
    (2..=n).map(|i| (i as f64).ln()).sum()
}

/// Natural log of the binomial coefficient `C(n, k)`.
///
/// # Panics
///
/// Panics if `k > n`.
pub(crate) fn ln_binomial(n: u64, k: u64) -> f64 {
    assert!(k <= n, "ln_binomial requires k <= n (got k={k}, n={n})");
    ln_factorial(n) - ln_factorial(k) - ln_factorial(n - k)
}

/// Numerically stable `log(Σ exp(xᵢ))`.
///
/// Returns `f64::NEG_INFINITY` for an empty slice, matching the convention
/// `log(0) = -∞`.
pub(crate) fn log_sum_exp(xs: &[f64]) -> f64 {
    let m = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if m == f64::NEG_INFINITY {
        return f64::NEG_INFINITY;
    }
    if m == f64::INFINITY {
        return f64::INFINITY;
    }
    m + xs.iter().map(|x| (x - m).exp()).sum::<f64>().ln()
}

/// Numerically stable `log(exp(a) + exp(b))`.
pub(crate) fn log_add_exp(a: f64, b: f64) -> f64 {
    if a == f64::NEG_INFINITY {
        return b;
    }
    if b == f64::NEG_INFINITY {
        return a;
    }
    let (hi, lo) = if a >= b { (a, b) } else { (b, a) };
    hi + (lo - hi).exp().ln_1p()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol * a.abs().max(b.abs()).max(1.0)
    }

    #[test]
    fn ln_factorial_small_values() {
        assert_eq!(ln_factorial(0), 0.0);
        assert_eq!(ln_factorial(1), 0.0);
        assert!(close(ln_factorial(5), 120f64.ln(), 1e-12));
        assert!(close(ln_factorial(10), 3_628_800f64.ln(), 1e-12));
    }

    #[test]
    fn ln_binomial_matches_pascal() {
        for n in 0..20u64 {
            let mut row = vec![1.0f64];
            for _ in 0..n {
                let mut next = vec![1.0];
                for w in row.windows(2) {
                    next.push(w[0] + w[1]);
                }
                next.push(1.0);
                row = next;
            }
            for (k, &v) in row.iter().enumerate() {
                assert!(close(ln_binomial(n, k as u64), v.ln(), 1e-10), "C({n},{k})");
            }
        }
    }

    #[test]
    #[should_panic(expected = "k <= n")]
    fn ln_binomial_rejects_k_gt_n() {
        ln_binomial(3, 4);
    }

    #[test]
    fn log_sum_exp_agrees_with_direct() {
        let xs = [0.1f64, -2.0, 3.5, 1.0];
        let direct = xs.iter().map(|x| x.exp()).sum::<f64>().ln();
        assert!(close(log_sum_exp(&xs), direct, 1e-12));
    }

    #[test]
    fn log_sum_exp_handles_large_magnitudes() {
        // Direct evaluation would overflow; the stable version must not.
        let xs = [1000.0, 1000.0];
        assert!(close(log_sum_exp(&xs), 1000.0 + 2f64.ln(), 1e-12));
        let xs = [-1000.0, -1000.0];
        assert!(close(log_sum_exp(&xs), -1000.0 + 2f64.ln(), 1e-12));
    }

    #[test]
    fn log_sum_exp_empty_is_neg_infinity() {
        assert_eq!(log_sum_exp(&[]), f64::NEG_INFINITY);
    }

    #[test]
    fn log_add_exp_matches_log_sum_exp() {
        for (a, b) in [(0.0f64, 0.0f64), (-5.0, 2.0), (700.0, 690.0)] {
            assert!(close(log_add_exp(a, b), log_sum_exp(&[a, b]), 1e-12));
        }
        assert_eq!(log_add_exp(f64::NEG_INFINITY, 3.0), 3.0);
    }
}
