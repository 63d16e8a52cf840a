//! Property-based tests for the accounting substrate, on `dpack-check`
//! (ported from the former proptest suite; runs in tier-1).

use dp_accounting::math::ln_factorial;
use dp_accounting::mechanisms::{
    GaussianMechanism, LaplaceMechanism, Mechanism, SubsampledGaussian, SubsampledLaplace,
};
use dp_accounting::{block_capacity, fits, rdp_to_dp, AlphaGrid, RdpCurve, RenyiFilter};
use dpack_check::{check_cases, floats, ints, just, one_of, options, prop_assert, vecs, Strategy};

const CASES: u32 = 128;

/// True Rényi divergences are non-negative and non-decreasing in the
/// order. This holds for the Gaussian, Laplace, and sampled-Gaussian
/// curves (the MTZ integer formula is the exact divergence; the
/// ceiling mapping preserves monotonicity). It deliberately does
/// *not* cover the subsampled Laplace: the Wang et al. formula is an
/// upper *bound*, which can decrease in α — we only require it to be
/// non-negative and finite below the blowup region.
#[test]
fn mechanism_curves_are_monotone() {
    check_cases(
        "mechanism_curves_are_monotone",
        CASES,
        (floats(0.2..20.0), floats(0.2..20.0), floats(0.0..1.0)),
        |&(sigma, scale, q)| {
            let grid = AlphaGrid::standard();
            let monotone = [
                GaussianMechanism::new(sigma).unwrap().curve(&grid),
                LaplaceMechanism::new(scale).unwrap().curve(&grid),
                SubsampledGaussian::new(sigma, q).unwrap().curve(&grid),
            ];
            for c in &monotone {
                for v in c.values() {
                    prop_assert!(*v >= 0.0);
                }
                for w in c.values().windows(2) {
                    prop_assert!(w[1] >= w[0] - 1e-9, "curve decreased: {:?}", c.values());
                }
            }
            let sublap = SubsampledLaplace::new(scale, q).unwrap().curve(&grid);
            for v in sublap.values() {
                prop_assert!(*v >= 0.0);
            }
            Ok(())
        },
    );
}

/// Subsampling never hurts at the orders where the formula is exact
/// (integer α ≥ 2): the subsampled curve is bounded by the plain
/// mechanism's. At the fractional grid orders our conservative
/// ceiling bound `ε(α) ≤ ε(⌈α⌉)` may exceed the plain curve, which is
/// sound but not tight — so those are excluded (see the module docs of
/// `dp_accounting::mechanisms::subsampled`).
#[test]
fn subsampling_amplifies() {
    check_cases(
        "subsampling_amplifies",
        CASES,
        (floats(0.3..10.0), floats(0.0..1.0)),
        |&(sigma, q)| {
            let grid = AlphaGrid::standard();
            let base = GaussianMechanism::new(sigma).unwrap().curve(&grid);
            let sub = SubsampledGaussian::new(sigma, q).unwrap().curve(&grid);
            for (i, a) in grid.iter() {
                if a >= 2.0 && a.fract() == 0.0 {
                    prop_assert!(sub.epsilon(i) <= base.epsilon(i) + 1e-9, "alpha {a}");
                }
            }
            Ok(())
        },
    );
}

/// RDP→DP conversion returns the minimum over orders, and composing
/// before converting is never worse than converting then adding.
#[test]
fn conversion_minimality_and_composition_advantage() {
    check_cases(
        "conversion_minimality_and_composition_advantage",
        CASES,
        (floats(0.5..10.0), ints(1u32..50), floats(-9.0..-2.0)),
        |&(sigma, k, log_delta)| {
            let delta = 10f64.powf(log_delta);
            let grid = AlphaGrid::standard();
            let one = GaussianMechanism::new(sigma).unwrap().curve(&grid);
            let g = rdp_to_dp(&one, delta).unwrap();
            for (i, a) in grid.iter() {
                let v = one.epsilon(i) + (1.0 / delta).ln() / (a - 1.0);
                prop_assert!(g.epsilon <= v + 1e-9);
            }
            let composed = one.compose_k(k);
            let rdp_eps = rdp_to_dp(&composed, delta).unwrap().epsilon;
            let basic_eps = f64::from(k) * g.epsilon;
            prop_assert!(rdp_eps <= basic_eps + 1e-9);
            Ok(())
        },
    );
}

/// Filter soundness under arbitrary accept/reject interleavings:
/// after any sequence, some order stays within capacity, and the
/// translated guarantee never exceeds the configured budget.
#[test]
fn filter_never_breaks_global_guarantee() {
    check_cases(
        "filter_never_breaks_global_guarantee",
        CASES,
        (
            floats(1.0..20.0),
            vecs((floats(0.1..5.0), floats(0.0..1.0)), 1..60),
        ),
        |(eps_g, demands)| {
            let delta_g = 1e-7;
            let grid = AlphaGrid::standard();
            let cap = block_capacity(&grid, *eps_g, delta_g).unwrap();
            let mut filter = RenyiFilter::new(cap.clone());
            for (sigma, q) in demands {
                let d = SubsampledGaussian::new(*sigma, *q).unwrap().curve(&grid);
                let _ = filter.try_consume(&d);
            }
            // Find a witness order and translate.
            let witness = grid.iter().find(|&(i, _)| {
                fits(filter.consumed().epsilon(i), cap.epsilon(i)) && cap.epsilon(i) >= 0.0
            });
            prop_assert!(witness.is_some(), "no order within capacity");
            let (i, a) = witness.unwrap();
            let eps_dp = filter.consumed().epsilon(i) + (1.0 / delta_g).ln() / (a - 1.0);
            prop_assert!(eps_dp <= *eps_g + 1e-6, "{eps_dp} > {eps_g}");
            Ok(())
        },
    );
}

/// Curve arithmetic: scaling distributes over composition.
#[test]
fn scale_distributes_over_compose() {
    check_cases(
        "scale_distributes_over_compose",
        CASES,
        (
            vecs(floats(0.0..3.0), 12..13),
            vecs(floats(0.0..3.0), 12..13),
            floats(0.0..10.0),
        ),
        |(a, b, k)| {
            let grid = AlphaGrid::standard();
            let ca = RdpCurve::new(&grid, a.clone()).unwrap();
            let cb = RdpCurve::new(&grid, b.clone()).unwrap();
            let left = ca.compose(&cb).unwrap().scale(*k);
            let right = ca.scale(*k).compose(&cb.scale(*k)).unwrap();
            for i in 0..grid.len() {
                prop_assert!((left.epsilon(i) - right.epsilon(i)).abs() < 1e-9);
            }
            Ok(())
        },
    );
}

/// `block_capacity` is monotone in ε_G and in δ_G.
#[test]
fn capacity_monotonicity() {
    check_cases(
        "capacity_monotonicity",
        CASES,
        (floats(0.5..10.0), floats(0.1..5.0), floats(-9.0..-2.0)),
        |&(eps1, bump, log_delta)| {
            let delta = 10f64.powf(log_delta);
            let grid = AlphaGrid::standard();
            let lo = block_capacity(&grid, eps1, delta).unwrap();
            let hi = block_capacity(&grid, eps1 + bump, delta).unwrap();
            for i in 0..grid.len() {
                prop_assert!(hi.epsilon(i) >= lo.epsilon(i));
            }
            let looser_delta = block_capacity(&grid, eps1, (delta * 10.0).min(0.5)).unwrap();
            for i in 0..grid.len() {
                prop_assert!(looser_delta.epsilon(i) >= lo.epsilon(i) - 1e-12);
            }
            Ok(())
        },
    );
}

/// The O(α²) formulas: `ln n!` summed afresh on every call, and every
/// order of a subsampled curve built from its own binomials and, for
/// the Laplace, its own base `ε(j)`. The fast paths must match them bit
/// for bit.
mod reference {
    use dp_accounting::mechanisms::{LaplaceMechanism, Mechanism};

    pub fn ln_factorial(n: u64) -> f64 {
        (2..=n).map(|i| (i as f64).ln()).sum()
    }

    fn ln_binomial(n: u64, k: u64) -> f64 {
        ln_factorial(n) - ln_factorial(k) - ln_factorial(n - k)
    }

    fn log_sum_exp(xs: &[f64]) -> f64 {
        let m = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        if m.is_infinite() {
            return m;
        }
        m + xs.iter().map(|x| (x - m).exp()).sum::<f64>().ln()
    }

    pub fn sgm(sigma: f64, q: f64, alpha: u64) -> f64 {
        if q == 0.0 {
            return 0.0;
        }
        if q == 1.0 {
            return alpha as f64 / (2.0 * sigma * sigma);
        }
        let (ln_q, ln_1mq, s2) = (q.ln(), (1.0 - q).ln(), 2.0 * sigma * sigma);
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

    pub fn sublaplace(b: f64, q: f64, alpha: u64) -> f64 {
        let base = LaplaceMechanism::new(b).unwrap();
        if q == 0.0 {
            return 0.0;
        }
        if q == 1.0 {
            return base.rdp_epsilon(alpha as f64);
        }
        let ln_q = q.ln();
        let ln_em1 = base.pure_dp_epsilon().unwrap().exp_m1().ln();
        let eps2 = base.rdp_epsilon(2.0);
        let ln_opt_a = (4.0 * eps2.exp_m1()).ln();
        let ln_opt_b = eps2 + f64::min(2f64.ln(), 2.0 * ln_em1);
        let ln_t2 = ln_binomial(alpha, 2) + 2.0 * ln_q + f64::min(ln_opt_a, ln_opt_b);
        let mut terms = vec![0.0, ln_t2];
        for j in 3..=alpha {
            let jf = j as f64;
            let ln_min = f64::min(2f64.ln(), jf * ln_em1);
            terms.push(
                ln_binomial(alpha, j) + jf * ln_q + (jf - 1.0) * base.rdp_epsilon(jf) + ln_min,
            );
        }
        log_sum_exp(&terms) / (alpha as f64 - 1.0)
    }
}

/// `ln_factorial` reads its table with the summation's bits, `-0.0` at
/// `n < 2` included, and sums past the table's end.
#[test]
fn ln_factorial_is_the_summation_bit_for_bit() {
    for n in 0..300 {
        assert_eq!(
            ln_factorial(n).to_bits(),
            reference::ln_factorial(n).to_bits(),
            "n = {n}"
        );
    }
}

/// Both subsampled curves, and `rdp_epsilon` at each of their orders,
/// equal the O(α²) reference bit for bit, on drawn grids with fractional
/// orders and, in half the cases, one order past the `ln n!` table.
#[test]
fn subsampled_curves_match_the_reference_bit_for_bit() {
    let rate = one_of(vec![
        floats(0.0..1.0).boxed(),
        just(0.0).boxed(),
        just(1.0).boxed(),
    ]);
    let orders = (vecs(floats(1.01..70.0), 1..8), options(ints(256u64..270)));
    check_cases(
        "subsampled_curves_match_the_reference_bit_for_bit",
        CASES,
        (floats(0.2..20.0), rate, orders),
        |(noise, q, (low, high))| {
            let mut orders = low.clone();
            orders.extend(high.map(|a| a as f64));
            let grid = AlphaGrid::new(orders).unwrap();
            let sgm = SubsampledGaussian::new(*noise, *q).unwrap();
            let lap = SubsampledLaplace::new(*noise, *q).unwrap();
            let (sgm_curve, lap_curve) = (sgm.curve(&grid), lap.curve(&grid));
            for (i, a) in grid.iter() {
                let ceil = a.ceil().max(2.0) as u64;
                let want = reference::sgm(*noise, *q, ceil).to_bits();
                prop_assert!(sgm_curve.epsilon(i).to_bits() == want, "SGM curve at {a}");
                prop_assert!(sgm.rdp_epsilon(a).to_bits() == want, "SGM at {a}");
                let want = reference::sublaplace(*noise, *q, ceil).to_bits();
                prop_assert!(
                    lap_curve.epsilon(i).to_bits() == want,
                    "Laplace curve at {a}"
                );
                prop_assert!(lap.rdp_epsilon(a).to_bits() == want, "Laplace at {a}");
            }
            Ok(())
        },
    );
}
