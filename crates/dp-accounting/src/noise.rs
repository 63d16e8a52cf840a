//! Executable noise mechanisms.
//!
//! These run *actual* DP computations (noisy counts, histograms)
//! so that examples and integration tests can execute the tasks they
//! schedule, not just account for them. The samplers are implemented
//! directly (inverse-CDF Laplace, Box–Muller Gaussian) to stay within the
//! approved dependency set.

use rand::{Rng, RngExt};

use crate::error::AccountingError;

/// Draws one sample from `Laplace(0, scale)` via the inverse CDF.
///
/// # Panics
///
/// Panics if `scale` is not finite and positive.
pub fn sample_laplace<R: Rng + ?Sized>(rng: &mut R, scale: f64) -> f64 {
    assert!(
        scale.is_finite() && scale > 0.0,
        "laplace scale must be finite and > 0 (got {scale})"
    );
    // u ∈ (−1/2, 1/2); inverse CDF: −b·sign(u)·ln(1 − 2|u|).
    let u: f64 = rng.random::<f64>() - 0.5;
    -scale * u.signum() * (1.0 - 2.0 * u.abs()).ln()
}

/// Draws one sample from `N(0, sigma²)` via Box–Muller.
///
/// # Panics
///
/// Panics if `sigma` is not finite and positive.
pub fn sample_gaussian<R: Rng + ?Sized>(rng: &mut R, sigma: f64) -> f64 {
    assert!(
        sigma.is_finite() && sigma > 0.0,
        "gaussian sigma must be finite and > 0 (got {sigma})"
    );
    // Avoid ln(0) by nudging u1 away from zero.
    let u1: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
    let u2: f64 = rng.random::<f64>();
    sigma * (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// A Laplace-noised count: `|data| + Laplace(Δ/ε)` with sensitivity 1.
///
/// # Errors
///
/// Rejects non-positive `epsilon`.
pub fn noisy_count<R: Rng + ?Sized, T>(
    rng: &mut R,
    data: &[T],
    epsilon: f64,
) -> Result<f64, AccountingError> {
    if !epsilon.is_finite() || epsilon <= 0.0 {
        return Err(AccountingError::InvalidParameter(format!(
            "epsilon must be finite and > 0 (got {epsilon})"
        )));
    }
    Ok(data.len() as f64 + sample_laplace(rng, 1.0 / epsilon))
}

/// A Gaussian-noised histogram over `bins` buckets; each record
/// contributes to exactly one bucket, so the ℓ₂ sensitivity is 1 and the
/// mechanism is `(α, α/(2σ²))`-RDP.
///
/// # Errors
///
/// Rejects `bins == 0`, non-positive `sigma`, or an out-of-range bucket
/// index.
pub fn noisy_histogram<R: Rng + ?Sized>(
    rng: &mut R,
    bucket_of: &[usize],
    bins: usize,
    sigma: f64,
) -> Result<Vec<f64>, AccountingError> {
    if bins == 0 {
        return Err(AccountingError::InvalidParameter(
            "histogram must have at least one bin".into(),
        ));
    }
    if !sigma.is_finite() || sigma <= 0.0 {
        return Err(AccountingError::InvalidParameter(format!(
            "sigma must be finite and > 0 (got {sigma})"
        )));
    }
    let mut hist = vec![0.0; bins];
    for &b in bucket_of {
        let slot = hist.get_mut(b).ok_or_else(|| {
            AccountingError::InvalidParameter(format!("bucket {b} out of range 0..{bins}"))
        })?;
        *slot += 1.0;
    }
    for h in &mut hist {
        *h += sample_gaussian(rng, sigma);
    }
    Ok(hist)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn laplace_sample_moments() {
        let mut r = rng();
        let n = 200_000;
        let scale = 2.0;
        let samples: Vec<f64> = (0..n).map(|_| sample_laplace(&mut r, scale)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        // Var of Laplace(b) is 2b² = 8.
        assert!((var - 8.0).abs() < 0.4, "var {var}");
    }

    #[test]
    fn gaussian_sample_moments() {
        let mut r = rng();
        let n = 200_000;
        let sigma = 3.0;
        let samples: Vec<f64> = (0..n).map(|_| sample_gaussian(&mut r, sigma)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 9.0).abs() < 0.3, "var {var}");
    }

    #[test]
    fn noisy_count_is_near_true_count() {
        let mut r = rng();
        let data = vec![(); 1000];
        let est = noisy_count(&mut r, &data, 1.0).unwrap();
        assert!((est - 1000.0).abs() < 30.0);
        assert!(noisy_count(&mut r, &data, 0.0).is_err());
    }

    #[test]
    fn noisy_histogram_counts_and_validates() {
        let mut r = rng();
        let buckets = [0usize, 0, 1, 2, 2, 2];
        let hist = noisy_histogram(&mut r, &buckets, 3, 0.5).unwrap();
        assert_eq!(hist.len(), 3);
        assert!((hist[0] - 2.0).abs() < 3.0);
        assert!((hist[2] - 3.0).abs() < 3.0);
        assert!(noisy_histogram(&mut r, &buckets, 0, 0.5).is_err());
        assert!(noisy_histogram(&mut r, &[7], 3, 0.5).is_err());
    }

    #[test]
    fn determinism_under_fixed_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(sample_laplace(&mut a, 1.0), sample_laplace(&mut b, 1.0));
        }
    }
}
