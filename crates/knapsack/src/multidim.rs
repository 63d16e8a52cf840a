//! Exact multidimensional 0/1 knapsack (Eq. 3 of the paper).
//!
//! An allocation must fit within capacity along **every** dimension —
//! the semantics of data blocks under traditional DP accounting. Solved
//! by depth-first branch-and-bound; the upper bound at a node is the
//! minimum over dimensions of the single-dimension Dantzig bound, which
//! is valid because any completion must respect each dimension.

use crate::descending_order;
use crate::item::Solution;

/// An item with one demand per dimension.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiItem {
    /// Demand along each dimension; must match the instance's dimension
    /// count.
    pub weights: Vec<f64>,
    /// Utility if packed.
    pub profit: f64,
}

impl MultiItem {
    /// Creates an item; demands and profit must be finite and
    /// non-negative.
    pub fn new(weights: Vec<f64>, profit: f64) -> Result<Self, crate::item::InvalidItem> {
        if weights.iter().any(|w| !w.is_finite() || *w < 0.0) {
            return Err(crate::item::InvalidItem(
                "weights must be finite and >= 0".into(),
            ));
        }
        if !profit.is_finite() || profit < 0.0 {
            return Err(crate::item::InvalidItem(
                "profit must be finite and >= 0".into(),
            ));
        }
        Ok(Self { weights, profit })
    }
}

/// Result of a bounded multidimensional solve.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiOutcome {
    /// Best solution found.
    pub solution: Solution,
    /// `true` iff the search completed, proving optimality.
    pub proven_optimal: bool,
    /// Nodes explored.
    pub nodes: u64,
}

struct Search<'a> {
    items: &'a [MultiItem],
    capacities: &'a [f64],
    order: Vec<usize>,
    /// Position of each item in `order` — items at positions `< pos` are
    /// decided; the rest are free.
    pos_of: Vec<usize>,
    /// Per-dimension item orders by descending `profit / weight_d`, used
    /// for valid Dantzig bounds.
    dim_orders: Vec<Vec<usize>>,
    used: Vec<f64>,
    chosen: Vec<usize>,
    best: Solution,
    nodes: u64,
    node_budget: u64,
    exhausted: bool,
}

impl Search<'_> {
    /// Min-over-dimensions Dantzig bound over the free items (those at
    /// `order` positions `>= pos`). For each dimension the free items
    /// are walked in that dimension's own density order, whole items are
    /// packed until the first overflow, and a fractional share of that
    /// one is added — the LP optimum of the relaxed single-constraint
    /// problem, hence a valid upper bound; the minimum over dimensions is
    /// therefore valid for the joint problem.
    fn upper_bound(&self, pos: usize) -> f64 {
        let mut min_bound = f64::INFINITY;
        for (d, &cap) in self.capacities.iter().enumerate() {
            let mut remaining = cap - self.used[d];
            let mut bound = 0.0;
            if remaining >= 0.0 {
                for &i in &self.dim_orders[d] {
                    if self.pos_of[i] < pos {
                        continue; // Already decided.
                    }
                    let w = self.items[i].weights[d];
                    if w <= remaining {
                        remaining -= w;
                        bound += self.items[i].profit;
                    } else {
                        if remaining > 0.0 && w > 0.0 {
                            bound += self.items[i].profit * remaining / w;
                        }
                        break;
                    }
                }
            }
            min_bound = min_bound.min(bound);
        }
        min_bound
    }

    fn fits(&self, item: &MultiItem) -> bool {
        self.used
            .iter()
            .zip(&item.weights)
            .zip(self.capacities)
            .all(|((u, w), c)| crate::fits(u + w, *c))
    }

    fn dfs(&mut self, pos: usize, profit: f64) {
        self.nodes += 1;
        if self.nodes > self.node_budget {
            self.exhausted = true;
            return;
        }
        if profit > self.best.profit {
            let mut selected = self.chosen.clone();
            selected.sort_unstable();
            self.best = Solution { selected, profit };
        }
        if pos >= self.order.len() || self.exhausted {
            return;
        }
        if profit + self.upper_bound(pos) <= self.best.profit + 1e-12 {
            return;
        }
        let i = self.order[pos];
        // Include branch first: greedy dives find strong incumbents early.
        let item = self.items[i].clone();
        if self.fits(&item) {
            for (u, w) in self.used.iter_mut().zip(&item.weights) {
                *u += w;
            }
            self.chosen.push(i);
            self.dfs(pos + 1, profit + item.profit);
            self.chosen.pop();
            for (u, w) in self.used.iter_mut().zip(&item.weights) {
                *u -= w;
            }
        }
        if self.exhausted {
            return;
        }
        self.dfs(pos + 1, profit);
    }
}

/// Solves the multidimensional knapsack exactly, exploring at most
/// `node_budget` nodes.
///
/// # Panics
///
/// Panics if any item's dimension count differs from `capacities.len()`.
///
/// # Examples
///
/// ```
/// use knapsack::multidim::{MultiItem, solve};
///
/// // Fig. 1 of the paper: T1 wants all 3 blocks, T2–T4 one block each.
/// let t1 = MultiItem::new(vec![0.6, 0.6, 0.6], 1.0).unwrap();
/// let t2 = MultiItem::new(vec![0.8, 0.0, 0.0], 1.0).unwrap();
/// let t3 = MultiItem::new(vec![0.0, 0.8, 0.0], 1.0).unwrap();
/// let t4 = MultiItem::new(vec![0.0, 0.0, 0.8], 1.0).unwrap();
/// let out = solve(&[t1, t2, t3, t4], &[1.0, 1.0, 1.0], u64::MAX);
/// assert_eq!(out.solution.profit, 3.0); // T2 + T3 + T4 beats T1.
/// ```
pub fn solve(items: &[MultiItem], capacities: &[f64], node_budget: u64) -> MultiOutcome {
    for it in items {
        assert_eq!(
            it.weights.len(),
            capacities.len(),
            "item dimension count must match capacities"
        );
    }
    // Order by profit per unit of average normalized demand.
    let score = |i: usize| -> f64 {
        let it = &items[i];
        let denom: f64 = it
            .weights
            .iter()
            .zip(capacities)
            .map(|(w, c)| if *c > 0.0 { w / c } else { f64::INFINITY })
            .sum();
        if denom == 0.0 {
            f64::INFINITY
        } else {
            it.profit / denom
        }
    };
    let order = descending_order(items.len(), score);

    let mut pos_of = vec![0usize; items.len()];
    for (p, &i) in order.iter().enumerate() {
        pos_of[i] = p;
    }
    let dim_orders: Vec<Vec<usize>> = (0..capacities.len())
        .map(|d| {
            let density = |i: usize| {
                let w = items[i].weights[d];
                if w == 0.0 {
                    f64::INFINITY
                } else {
                    items[i].profit / w
                }
            };
            descending_order(items.len(), density)
        })
        .collect();

    let mut search = Search {
        items,
        capacities,
        order,
        pos_of,
        dim_orders,
        used: vec![0.0; capacities.len()],
        chosen: Vec::new(),
        best: Solution::empty(),
        nodes: 0,
        node_budget,
        exhausted: false,
    };
    search.dfs(0, 0.0);
    MultiOutcome {
        solution: search.best,
        proven_optimal: !search.exhausted,
        nodes: search.nodes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn brute_force(items: &[MultiItem], caps: &[f64]) -> f64 {
        let n = items.len();
        let mut best = 0.0f64;
        for mask in 0u32..(1 << n) {
            let mut used = vec![0.0; caps.len()];
            let mut p = 0.0;
            for (i, item) in items.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    for (u, w) in used.iter_mut().zip(&item.weights) {
                        *u += w;
                    }
                    p += item.profit;
                }
            }
            if used.iter().zip(caps).all(|(u, c)| crate::fits(*u, *c)) && p > best {
                best = p;
            }
        }
        best
    }

    #[test]
    fn fig1_instance_prefers_three_small_tasks() {
        let t1 = MultiItem::new(vec![0.6, 0.6, 0.6], 1.0).unwrap();
        let t2 = MultiItem::new(vec![0.8, 0.0, 0.0], 1.0).unwrap();
        let t3 = MultiItem::new(vec![0.0, 0.8, 0.0], 1.0).unwrap();
        let t4 = MultiItem::new(vec![0.0, 0.0, 0.8], 1.0).unwrap();
        let out = solve(&[t1, t2, t3, t4], &[1.0; 3], u64::MAX);
        assert!(out.proven_optimal);
        assert_eq!(out.solution.profit, 3.0);
        assert_eq!(out.solution.selected, vec![1, 2, 3]);
    }

    #[test]
    fn matches_brute_force_on_random_instances() {
        let mut state = 0xABCDEFu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for trial in 0..60 {
            let n = 3 + trial % 8;
            let m = 1 + trial % 4;
            let items: Vec<MultiItem> = (0..n)
                .map(|_| {
                    MultiItem::new((0..m).map(|_| next() * 3.0).collect(), 0.1 + next() * 5.0)
                        .unwrap()
                })
                .collect();
            let caps: Vec<f64> = (0..m).map(|_| 1.0 + next() * 5.0).collect();
            let out = solve(&items, &caps, u64::MAX);
            let bf = brute_force(&items, &caps);
            assert!(
                (out.solution.profit - bf).abs() < 1e-9,
                "trial {trial}: {} vs {}",
                out.solution.profit,
                bf
            );
        }
    }

    #[test]
    fn node_budget_is_respected() {
        let items: Vec<MultiItem> = (0..25)
            .map(|i| MultiItem::new(vec![1.0 + (i % 3) as f64, (i % 5) as f64], 1.0).unwrap())
            .collect();
        let out = solve(&items, &[10.0, 10.0], 5);
        assert!(!out.proven_optimal);
        assert!(out.nodes <= 6);
    }

    #[test]
    #[should_panic(expected = "dimension count")]
    fn dimension_mismatch_panics() {
        let item = MultiItem::new(vec![1.0], 1.0).unwrap();
        solve(&[item], &[1.0, 1.0], u64::MAX);
    }

    #[test]
    fn rejects_invalid_items() {
        assert!(MultiItem::new(vec![-1.0], 1.0).is_err());
        assert!(MultiItem::new(vec![1.0], f64::NAN).is_err());
    }
}
