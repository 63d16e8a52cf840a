//! Property-based tests for the accounting substrate, on `dpack-check`
//! (ported from the former proptest suite; runs in tier-1).

use dp_accounting::mechanisms::{
    GaussianMechanism, LaplaceMechanism, Mechanism, SubsampledGaussian, SubsampledLaplace,
};
use dp_accounting::{block_capacity, fits, rdp_to_dp, AlphaGrid, RdpCurve, RenyiFilter};
use dpack_check::{check_cases, floats, ints, prop_assert, vecs};

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
