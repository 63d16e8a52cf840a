//! Distribution samplers used by the workload generators.
//!
//! Implemented directly on [`rand::Rng`] (Box–Muller, inverse-CDF,
//! inversion-by-table) to stay within the approved dependency set — the
//! paper's generators need normal, discrete/truncated-normal, Poisson
//! process, log-normal, Pareto (power-law) and Zipf draws.

use rand::{Rng, RngExt};

/// One standard-normal sample via Box–Muller.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
    let u2: f64 = rng.random::<f64>();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// A normal sample with the given mean and standard deviation (σ may be
/// zero, collapsing to the mean).
///
/// # Panics
///
/// Panics on negative or non-finite `sigma`.
pub fn normal<R: Rng + ?Sized>(rng: &mut R, mu: f64, sigma: f64) -> f64 {
    assert!(
        sigma.is_finite() && sigma >= 0.0,
        "sigma must be finite and >= 0 (got {sigma})"
    );
    if sigma == 0.0 {
        return mu;
    }
    mu + sigma * standard_normal(rng)
}

/// A discrete Gaussian: a rounded normal sample (the paper's block-count
/// and best-alpha knobs, §6.2).
pub fn discrete_gaussian<R: Rng + ?Sized>(rng: &mut R, mu: f64, sigma: f64) -> i64 {
    normal(rng, mu, sigma).round() as i64
}

/// A truncated discrete Gaussian over `[lo, hi]`: resamples up to 64
/// times, then clamps (so the function always terminates even for
/// extreme parameters).
///
/// # Panics
///
/// Panics if `lo > hi`.
pub fn truncated_discrete_gaussian<R: Rng + ?Sized>(
    rng: &mut R,
    mu: f64,
    sigma: f64,
    lo: i64,
    hi: i64,
) -> i64 {
    assert!(lo <= hi, "truncation range must be non-empty ({lo} > {hi})");
    for _ in 0..64 {
        let v = discrete_gaussian(rng, mu, sigma);
        if (lo..=hi).contains(&v) {
            return v;
        }
    }
    discrete_gaussian(rng, mu, sigma).clamp(lo, hi)
}

/// An exponential inter-arrival time for a Poisson process with the
/// given rate (events per unit time).
///
/// # Panics
///
/// Panics on non-positive `rate`.
pub fn exponential<R: Rng + ?Sized>(rng: &mut R, rate: f64) -> f64 {
    assert!(
        rate.is_finite() && rate > 0.0,
        "rate must be finite and > 0 (got {rate})"
    );
    let u: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
    -u.ln() / rate
}

/// A log-normal sample `exp(N(mu, sigma²))` — the heavy-tailed shape of
/// cluster-trace resource usage.
pub fn lognormal<R: Rng + ?Sized>(rng: &mut R, mu: f64, sigma: f64) -> f64 {
    normal(rng, mu, sigma).exp()
}

/// A Pareto (power-law) sample with scale `x_m > 0` and shape
/// `alpha > 0`: `x_m / U^{1/alpha}`.
///
/// # Panics
///
/// Panics on non-positive parameters.
pub fn pareto<R: Rng + ?Sized>(rng: &mut R, x_m: f64, alpha: f64) -> f64 {
    assert!(x_m > 0.0 && x_m.is_finite(), "x_m must be > 0 (got {x_m})");
    assert!(
        alpha > 0.0 && alpha.is_finite(),
        "alpha must be > 0 (got {alpha})"
    );
    let u: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
    x_m / u.powf(1.0 / alpha)
}

/// A Zipf sampler over ranks `1..=n` with exponent `s`, via a
/// precomputed cumulative table (O(log n) per draw).
#[derive(Debug, Clone)]
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    /// Builds the sampler.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `s` is not finite and positive.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        assert!(s.is_finite() && s > 0.0, "Zipf exponent must be > 0");
        let mut cumulative = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cumulative.push(acc);
        }
        let total = acc;
        for c in &mut cumulative {
            *c /= total;
        }
        Self { cumulative }
    }

    /// Draws a rank in `1..=n` (rank 1 is the most likely).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.random::<f64>();
        let i = self.cumulative.partition_point(|c| *c < u);
        (i + 1).min(self.cumulative.len())
    }
}

/// Samples `k` distinct values uniformly from `0..n` (partial
/// Fisher–Yates).
///
/// # Panics
///
/// Panics if `k > n`.
pub fn sample_without_replacement<R: Rng + ?Sized>(rng: &mut R, n: usize, k: usize) -> Vec<usize> {
    assert!(k <= n, "cannot sample {k} distinct values from {n}");
    let mut pool: Vec<usize> = (0..n).collect();
    for i in 0..k {
        let j = i + rng.random_range(0..(n - i));
        pool.swap(i, j);
    }
    pool.truncate(k);
    pool
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(11)
    }

    #[test]
    fn normal_moments() {
        let mut r = rng();
        let n = 100_000;
        let samples: Vec<f64> = (0..n).map(|_| normal(&mut r, 3.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.05);
        assert!((var - 4.0).abs() < 0.15);
    }

    #[test]
    fn zero_sigma_is_deterministic() {
        let mut r = rng();
        assert_eq!(normal(&mut r, 5.0, 0.0), 5.0);
        assert_eq!(discrete_gaussian(&mut r, 5.4, 0.0), 5);
    }

    #[test]
    fn truncated_discrete_gaussian_respects_bounds() {
        let mut r = rng();
        for _ in 0..1000 {
            let v = truncated_discrete_gaussian(&mut r, 0.0, 10.0, 0, 7);
            assert!((0..=7).contains(&v));
        }
        // Extreme sigma still terminates and lands in range.
        let v = truncated_discrete_gaussian(&mut r, 100.0, 0.0, 0, 7);
        assert_eq!(v, 7);
    }

    #[test]
    fn exponential_has_unit_over_rate_mean() {
        let mut r = rng();
        let n = 100_000;
        let mean = (0..n).map(|_| exponential(&mut r, 4.0)).sum::<f64>() / n as f64;
        assert!((mean - 0.25).abs() < 0.01);
    }

    #[test]
    fn pareto_is_heavy_tailed_with_min_xm() {
        let mut r = rng();
        let samples: Vec<f64> = (0..50_000).map(|_| pareto(&mut r, 2.0, 1.5)).collect();
        assert!(samples.iter().all(|&x| x >= 2.0));
        // The tail: some samples should be far above the median.
        let max = samples.iter().copied().fold(0.0f64, f64::max);
        assert!(max > 50.0);
    }

    #[test]
    fn zipf_rank_one_dominates() {
        let mut r = rng();
        let z = Zipf::new(100, 1.2);
        let mut counts = vec![0usize; 101];
        for _ in 0..50_000 {
            counts[z.sample(&mut r)] += 1;
        }
        assert!(counts[1] > counts[2]);
        assert!(counts[2] > counts[10]);
        assert_eq!(counts[0], 0); // Ranks start at 1.
    }

    #[test]
    fn sampling_without_replacement_is_distinct() {
        let mut r = rng();
        for _ in 0..100 {
            let s = sample_without_replacement(&mut r, 20, 10);
            let set: std::collections::BTreeSet<_> = s.iter().collect();
            assert_eq!(set.len(), 10);
            assert!(s.iter().all(|&x| x < 20));
        }
        assert_eq!(sample_without_replacement(&mut r, 5, 5).len(), 5);
    }

    #[test]
    fn lognormal_is_positive() {
        let mut r = rng();
        assert!((0..1000).all(|_| lognormal(&mut r, 0.0, 2.0) > 0.0));
    }
}
