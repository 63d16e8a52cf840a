//! Property-based cross-validation of the knapsack solvers, on
//! `dpack-check` (ported from the former proptest suite; runs in
//! tier-1).

use dpack_check::{check_cases, floats, ints, prop_assert, vecs, Strategy};
use knapsack::dp::integer_profit_exact;
use knapsack::exact::branch_and_bound;
use knapsack::fptas::{fptas, fptas_value};
use knapsack::greedy::{greedy_with_best_item, unit_profit_exact};
use knapsack::multidim::{solve as solve_multidim, MultiItem};
use knapsack::privacy::{solve, solve_with_warm_start, PrivacyInstance, PrivacyItem, SolveLimits};
use knapsack::Item;

const CASES: u32 = 96;

fn item_strategy() -> impl Strategy<Value = Item> {
    (floats(0.0..4.0), floats(0.0..6.0)).prop_map(|(w, p)| Item::new(w, p).unwrap())
}

/// The solver hierarchy: greedy ≤ FPTAS ≤ exact, with the known
/// approximation factors.
#[test]
fn solver_hierarchy() {
    check_cases(
        "solver_hierarchy",
        CASES,
        (
            vecs(item_strategy(), 1..12),
            floats(0.5..8.0),
            floats(0.1..0.8),
        ),
        |(items, cap, eta)| {
            let (cap, eta) = (*cap, *eta);
            let opt = branch_and_bound(items, cap, u64::MAX);
            prop_assert!(opt.proven_optimal);
            let opt = opt.solution.profit;
            let g = greedy_with_best_item(items, cap).profit;
            let f = fptas_value(items, cap, eta);
            prop_assert!(g <= opt + 1e-9);
            prop_assert!(f <= opt + 1e-9);
            prop_assert!(g >= 0.5 * opt - 1e-9);
            prop_assert!(f >= (1.0 - eta) * opt - 1e-9);
            // Reconstruction agrees with the value variant.
            let fs = fptas(items, cap, eta);
            prop_assert!((fs.profit - f).abs() < 1e-9);
            prop_assert!(fs.is_feasible(items, cap));
            Ok(())
        },
    );
}

/// Unit-profit instances: the ascending-demand prefix is exactly
/// optimal.
#[test]
fn unit_profit_prefix_is_optimal() {
    check_cases(
        "unit_profit_prefix_is_optimal",
        CASES,
        (vecs(floats(0.0..3.0), 1..12), floats(0.5..6.0)),
        |(weights, cap)| {
            let items: Vec<Item> = weights
                .iter()
                .map(|&w| Item::new(w, 1.0).unwrap())
                .collect();
            let prefix = unit_profit_exact(&items, *cap).unwrap();
            let opt = branch_and_bound(&items, *cap, u64::MAX).solution;
            prop_assert!((prefix.profit - opt.profit).abs() < 1e-9);
            Ok(())
        },
    );
}

/// Integer-profit DP matches branch-and-bound.
#[test]
fn integer_dp_matches_exact() {
    check_cases(
        "integer_dp_matches_exact",
        CASES,
        (
            vecs(floats(0.0..3.0), 1..10),
            vecs(ints(0u64..40), 10..11),
            floats(0.5..6.0),
        ),
        |(weights, profits, cap)| {
            let items: Vec<Item> = weights
                .iter()
                .enumerate()
                .map(|(i, &w)| Item::new(w, profits[i % profits.len()] as f64).unwrap())
                .collect();
            let dp = integer_profit_exact(&items, *cap, 1_000_000).unwrap();
            let bb = branch_and_bound(&items, *cap, u64::MAX).solution;
            prop_assert!((dp.profit - bb.profit).abs() < 1e-9);
            Ok(())
        },
    );
}

/// A multidim solution is feasible in every dimension and at least
/// as good as any single item.
#[test]
fn multidim_feasible_and_sane() {
    check_cases(
        "multidim_feasible_and_sane",
        CASES,
        (
            vecs(floats(0.1..5.0), 2..8),
            vecs(floats(0.0..2.0), 16..17),
            vecs(floats(0.5..4.0), 1..3),
        ),
        |(profits, demands, caps)| {
            let m = caps.len();
            let items: Vec<MultiItem> = profits
                .iter()
                .enumerate()
                .map(|(i, &p)| {
                    MultiItem::new(
                        (0..m)
                            .map(|j| demands[(i * m + j) % demands.len()])
                            .collect(),
                        p,
                    )
                    .unwrap()
                })
                .collect();
            let out = solve_multidim(&items, caps, u64::MAX).unwrap();
            prop_assert!(out.proven_optimal);
            // Feasibility.
            let mut used = vec![0.0; m];
            for &i in &out.solution.selected {
                for (j, u) in used.iter_mut().enumerate() {
                    *u += items[i].weights[j];
                }
            }
            for j in 0..m {
                prop_assert!(knapsack::fits(used[j], caps[j]));
            }
            // At least the best single feasible item.
            for (i, it) in items.iter().enumerate() {
                let fits_alone = (0..m).all(|j| knapsack::fits(it.weights[j], caps[j]));
                if fits_alone {
                    prop_assert!(
                        out.solution.profit >= it.profit - 1e-9,
                        "item {i} alone beats the optimum"
                    );
                }
            }
            Ok(())
        },
    );
}

/// Warm starts never make the privacy solver worse, and bounded
/// solves never beat unbounded ones.
#[test]
fn privacy_warm_start_and_budget_sanity() {
    check_cases(
        "privacy_warm_start_and_budget_sanity",
        CASES,
        (
            vecs(floats(0.1..3.0), 2..7),
            vecs(floats(0.0..1.2), 28..29),
            vecs(ints(0usize..7), 0..7),
        ),
        |(profits, demands, warm)| {
            let n = profits.len();
            let (m, orders) = (2usize, 2usize);
            let items: Vec<PrivacyItem> = (0..n)
                .map(|i| PrivacyItem {
                    demand: (0..m)
                        .map(|j| {
                            (0..orders)
                                .map(|a| demands[(i * m * orders + j * orders + a) % demands.len()])
                                .collect()
                        })
                        .collect(),
                    profit: profits[i],
                })
                .collect();
            let inst = PrivacyInstance {
                capacity: vec![vec![1.0, 1.2]; m],
                items,
            };
            let unlimited = SolveLimits {
                node_budget: u64::MAX,
                time_limit: None,
            };
            let full = solve(&inst, unlimited);
            prop_assert!(full.proven_optimal);
            let warm: Vec<usize> = warm.iter().copied().filter(|&i| i < n).collect();
            let warmed = solve_with_warm_start(&inst, unlimited, Some(&warm));
            prop_assert!((warmed.solution.profit - full.solution.profit).abs() < 1e-9);
            // A tiny budget cannot exceed the true optimum and is at least
            // as good as the internal greedy seed (non-negative profit).
            let bounded = solve(
                &inst,
                SolveLimits {
                    node_budget: 2,
                    time_limit: None,
                },
            );
            prop_assert!(bounded.solution.profit <= full.solution.profit + 1e-9);
            prop_assert!(bounded.solution.profit >= 0.0);
            Ok(())
        },
    );
}
