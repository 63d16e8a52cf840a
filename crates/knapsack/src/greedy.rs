//! Greedy density-ordered knapsack heuristics.

use std::cmp::Reverse;

use crate::item::{density_order, Item, Solution};
use crate::order_bits;

/// Packs items in descending profit-density order, skipping items that
/// do not fit.
///
/// This is the classic greedy heuristic. On its own it has no constant
/// approximation factor; combined with the best single item
/// ([`greedy_with_best_item`]) it is a 1/2-approximation — the packing
/// step DPack's analysis relies on (Prop. 5 of the paper).
pub fn greedy(items: &[Item], capacity: f64) -> Solution {
    let mut used = 0.0;
    let mut selected = Vec::new();
    for i in density_order(items) {
        let w = items[i].weight;
        if crate::fits(used + w, capacity) {
            used += w;
            selected.push(i);
        }
    }
    Solution::from_indices(items, selected)
}

/// Greedy packing, or the single most profitable feasible item if that is
/// better — the standard 1/2-approximation for 0/1 knapsack.
///
/// # Examples
///
/// ```
/// use knapsack::{Item, greedy::greedy_with_best_item};
///
/// // Greedy alone packs the high-density small item (profit 1) and
/// // misses the big item (profit 10); the combined rule recovers it.
/// let items = vec![
///     Item::new(1.0, 1.0).unwrap(),
///     Item::new(10.0, 10.0).unwrap(),
/// ];
/// let s = greedy_with_best_item(&items, 10.0);
/// assert_eq!(s.profit, 10.0);
/// ```
pub fn greedy_with_best_item(items: &[Item], capacity: f64) -> Solution {
    let g = greedy(items, capacity);
    let best_single = items
        .iter()
        .enumerate()
        .filter(|(_, it)| crate::fits(it.weight, capacity))
        .max_by_key(|&(i, it)| (order_bits(it.profit), Reverse(i)));
    match best_single {
        Some((i, it)) if it.profit > g.profit => Solution::from_indices(items, vec![i]),
        _ => g,
    }
}

/// Exact solver for the special case of **equal profits**: sorting by
/// ascending weight and taking the longest feasible prefix maximizes the
/// number of packed items.
///
/// This is the common case in the paper's evaluation (all tasks have
/// weight 1 except Fig. 7(b)), where it replaces the FPTAS at zero
/// approximation error.
///
/// Returns `None` if profits are not all equal.
pub fn unit_profit_exact(items: &[Item], capacity: f64) -> Option<Solution> {
    let first = items.first().map(|i| i.profit)?;
    if items.iter().any(|i| i.profit != first) {
        return None;
    }
    let mut order: Vec<usize> = (0..items.len()).collect();
    order.sort_unstable_by_key(|&i| (order_bits(items[i].weight), i));
    let mut used = 0.0;
    let mut selected = Vec::new();
    for i in order {
        if crate::fits(used + items[i].weight, capacity) {
            used += items[i].weight;
            selected.push(i);
        } else {
            break;
        }
    }
    Some(Solution::from_indices(items, selected))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::branch_and_bound;

    fn items(spec: &[(f64, f64)]) -> Vec<Item> {
        spec.iter()
            .map(|&(w, p)| Item::new(w, p).unwrap())
            .collect()
    }

    #[test]
    fn greedy_packs_by_density() {
        let it = items(&[(2.0, 1.0), (1.0, 2.0), (3.0, 3.0)]);
        let s = greedy(&it, 4.0);
        // Density order: item 1 (2.0), item 2 (1.0), item 0 (0.5).
        assert_eq!(s.selected, vec![1, 2]);
        assert_eq!(s.profit, 5.0);
    }

    #[test]
    fn greedy_with_best_item_achieves_half_of_optimal() {
        // Adversarial case for plain greedy.
        let it = items(&[(0.01, 0.02), (10.0, 10.0)]);
        let g = greedy(&it, 10.0);
        assert_eq!(g.profit, 0.02);
        let s = greedy_with_best_item(&it, 10.0);
        assert_eq!(s.profit, 10.0);
    }

    #[test]
    fn zero_capacity_packs_only_zero_weight() {
        let it = items(&[(0.0, 5.0), (1.0, 10.0)]);
        let s = greedy_with_best_item(&it, 0.0);
        assert_eq!(s.selected, vec![0]);
    }

    #[test]
    fn empty_input_gives_empty_solution() {
        let s = greedy_with_best_item(&[], 10.0);
        assert!(s.selected.is_empty());
        assert_eq!(s.profit, 0.0);
    }

    #[test]
    fn unit_profit_exact_matches_branch_and_bound() {
        let it = items(&[(3.0, 1.0), (1.0, 1.0), (2.0, 1.0), (5.0, 1.0)]);
        let s = unit_profit_exact(&it, 6.0).unwrap();
        let opt = branch_and_bound(&it, 6.0, u64::MAX).solution;
        assert_eq!(s.profit, opt.profit);
        assert_eq!(
            s.selected,
            vec![1, 2, 0]
                .into_iter()
                .collect::<std::collections::BTreeSet<_>>()
                .into_iter()
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn unit_profit_exact_rejects_mixed_profits() {
        let it = items(&[(1.0, 1.0), (1.0, 2.0)]);
        assert!(unit_profit_exact(&it, 5.0).is_none());
    }

    #[test]
    fn greedy_half_approximation_randomized() {
        // Randomized cross-check of the 1/2 guarantee against the exact
        // solver on small instances.
        let mut state = 0x12345678u64;
        let mut next = move || {
            // Tiny xorshift for dependency-free determinism.
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for _ in 0..50 {
            let n = 8;
            let it: Vec<Item> = (0..n)
                .map(|_| Item::new(next() * 10.0, next() * 10.0).unwrap())
                .collect();
            let cap = next() * 20.0;
            let approx = greedy_with_best_item(&it, cap);
            let opt = branch_and_bound(&it, cap, u64::MAX).solution;
            assert!(
                approx.profit >= 0.5 * opt.profit - 1e-9,
                "approx {} < half of {}",
                approx.profit,
                opt.profit
            );
        }
    }
}
