//! The privacy knapsack (Eq. 5 of the paper) and its exact solver.
//!
//! An allocation is feasible iff **for every block** the cumulative
//! demand fits the capacity **at at least one Rényi order** (`∀j ∃α`).
//! The decision problem is NP-hard (Prop. 1), and no FPTAS exists for
//! `m ≥ 2` blocks unless P=NP (Prop. 3), so the exact solver here — a
//! depth-first branch-and-bound replacing the paper's Gurobi baseline —
//! is only intended for the small instances where the paper itself runs
//! "Optimal" (§6.1). A node budget bounds the search, mirroring the
//! intractability wall the paper reports at 7 blocks / 200 tasks.

use std::time::{Duration, Instant};

use crate::descending_order;
use crate::item::Solution;
use crate::multidim::{solve as solve_multidim, MultiItem};

/// A task in a privacy-knapsack instance: `demand[j][a]` is the ε demand
/// on block `j` at order index `a`. Blocks the task does not request
/// carry all-zero rows.
#[derive(Debug, Clone, PartialEq)]
pub struct PrivacyItem {
    /// Per-block, per-order demand; dimensions must match the instance.
    pub demand: Vec<Vec<f64>>,
    /// Utility if scheduled (the task weight `w_i`).
    pub profit: f64,
}

/// A privacy-knapsack instance.
#[derive(Debug, Clone, PartialEq)]
pub struct PrivacyInstance {
    /// `capacity[j][a]`: remaining budget of block `j` at order index
    /// `a`, finite. Non-positive entries mark unusable orders.
    pub capacity: Vec<Vec<f64>>,
    /// The tasks.
    pub items: Vec<PrivacyItem>,
}

impl PrivacyInstance {
    /// Number of blocks.
    pub fn blocks(&self) -> usize {
        self.capacity.len()
    }

    /// Number of Rényi orders.
    pub fn orders(&self) -> usize {
        self.capacity.first().map_or(0, |c| c.len())
    }

    /// Validates dimensions and value ranges.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency found.
    pub fn validate(&self) -> Result<(), String> {
        let m = self.blocks();
        let a = self.orders();
        if self.capacity.iter().any(|c| c.len() != a) {
            return Err("ragged capacity matrix".into());
        }
        if self.capacity.iter().flatten().any(|c| !c.is_finite()) {
            return Err("non-finite capacity".into());
        }
        for (i, it) in self.items.iter().enumerate() {
            if it.demand.len() != m || it.demand.iter().any(|d| d.len() != a) {
                return Err(format!("item {i} has mismatched demand dimensions"));
            }
            if it
                .demand
                .iter()
                .flatten()
                .any(|d| !d.is_finite() || *d < 0.0)
            {
                return Err(format!("item {i} has negative or non-finite demand"));
            }
            if !it.profit.is_finite() || it.profit < 0.0 {
                return Err(format!("item {i} has invalid profit"));
            }
        }
        Ok(())
    }

    /// Checks `∀j ∃α` feasibility of a cumulative usage matrix.
    pub fn usage_feasible(&self, used: &[Vec<f64>]) -> bool {
        used.iter()
            .zip(&self.capacity)
            .all(|(u_j, c_j)| u_j.iter().zip(c_j).any(|(u, c)| crate::fits(*u, *c)))
    }
}

/// Result of a bounded privacy-knapsack solve.
#[derive(Debug, Clone, PartialEq)]
pub struct PrivacyOutcome {
    /// Best allocation found.
    pub solution: Solution,
    /// `true` iff the search completed within its budgets, proving
    /// optimality.
    pub proven_optimal: bool,
    /// Nodes explored.
    pub nodes: u64,
    /// Wall-clock time spent in the solver.
    pub elapsed: Duration,
}

struct Search<'a> {
    inst: &'a PrivacyInstance,
    order: Vec<usize>,
    /// Position of each item in `order` — items at positions `< pos` are
    /// decided; the rest are free.
    pos_of: Vec<usize>,
    /// Per-(block, order) item orderings by descending
    /// `profit / demand[j][a]`, for valid Dantzig bounds.
    dim_orders: Vec<Vec<Vec<usize>>>,
    used: Vec<Vec<f64>>,
    chosen: Vec<usize>,
    best_profit: f64,
    best_chosen: Vec<usize>,
    /// Suffix profit sums in `order` position space: `suffix[p]` is the
    /// total profit of `order[p..]`, a cheap always-valid bound.
    suffix: Vec<f64>,
    nodes: u64,
    node_budget: u64,
    deadline: Option<Instant>,
    exhausted: bool,
}

impl Search<'_> {
    /// Per-block bound: any completion must fit some order of each
    /// block, so its extra profit is at most
    /// `min_j max_α dantzig_bound(j, α)` over the free items. Each
    /// `(j, α)` bound walks that dimension's own density order (whole
    /// items until the first overflow, plus a fractional share), i.e.
    /// the LP optimum of the relaxed single-constraint problem — valid.
    fn upper_bound(&self, pos: usize) -> f64 {
        let mut ub = self.suffix[pos];
        for (j, c_j) in self.inst.capacity.iter().enumerate() {
            let mut best_alpha_bound = 0.0f64;
            for (a, &cap) in c_j.iter().enumerate() {
                let mut remaining = cap - self.used[j][a];
                if remaining < 0.0 {
                    continue;
                }
                let mut bound = 0.0;
                for &i in &self.dim_orders[j][a] {
                    if self.pos_of[i] < pos {
                        continue; // Already decided.
                    }
                    let w = self.inst.items[i].demand[j][a];
                    if w <= remaining {
                        remaining -= w;
                        bound += self.inst.items[i].profit;
                    } else {
                        if remaining > 0.0 && w > 0.0 {
                            bound += self.inst.items[i].profit * remaining / w;
                        }
                        break;
                    }
                }
                best_alpha_bound = best_alpha_bound.max(bound);
            }
            ub = ub.min(best_alpha_bound);
        }
        ub
    }

    fn include_feasible(&self, i: usize) -> bool {
        self.inst.items[i]
            .demand
            .iter()
            .zip(&self.used)
            .zip(&self.inst.capacity)
            .all(|((d_j, u_j), c_j)| {
                d_j.iter()
                    .zip(u_j)
                    .zip(c_j)
                    .any(|((d, u), c)| crate::fits(u + d, *c))
            })
    }

    fn dfs(&mut self, pos: usize, profit: f64) {
        self.nodes += 1;
        if self.nodes > self.node_budget {
            self.exhausted = true;
            return;
        }
        if self.nodes.is_multiple_of(4096) {
            if let Some(d) = self.deadline {
                if Instant::now() >= d {
                    self.exhausted = true;
                    return;
                }
            }
        }
        if profit > self.best_profit {
            self.best_profit = profit;
            self.best_chosen = self.chosen.clone();
        }
        if pos >= self.order.len() || self.exhausted {
            return;
        }
        if profit + self.upper_bound(pos) <= self.best_profit + 1e-12 {
            return;
        }
        let i = self.order[pos];
        if self.include_feasible(i) {
            for (j, d_j) in self.inst.items[i].demand.iter().enumerate() {
                for (a, d) in d_j.iter().enumerate() {
                    self.used[j][a] += d;
                }
            }
            self.chosen.push(i);
            self.dfs(pos + 1, profit + self.inst.items[i].profit);
            self.chosen.pop();
            for (j, d_j) in self.inst.items[i].demand.iter().enumerate() {
                for (a, d) in d_j.iter().enumerate() {
                    self.used[j][a] -= d;
                }
            }
        }
        if self.exhausted {
            return;
        }
        self.dfs(pos + 1, profit);
    }
}

/// Configuration for [`solve`].
#[derive(Debug, Clone, Copy)]
pub struct SolveLimits {
    /// Maximum branch-and-bound nodes.
    pub node_budget: u64,
    /// Optional wall-clock limit.
    pub time_limit: Option<Duration>,
}

impl Default for SolveLimits {
    fn default() -> Self {
        Self {
            node_budget: 50_000_000,
            time_limit: Some(Duration::from_secs(60)),
        }
    }
}

/// Greedily packs items in the given order under the `∀j ∃α` rule,
/// returning `(profit, chosen)`. Repeated indices (possible in
/// caller-supplied warm starts) are packed at most once.
fn greedy_pack_order(inst: &PrivacyInstance, order: &[usize]) -> (f64, Vec<usize>) {
    let mut used = vec![vec![0.0; inst.orders()]; inst.blocks()];
    let mut chosen = Vec::new();
    let mut taken = vec![false; inst.items.len()];
    let mut profit = 0.0;
    for &i in order {
        if taken[i] {
            continue;
        }
        let feasible = inst.items[i]
            .demand
            .iter()
            .zip(&used)
            .zip(&inst.capacity)
            .all(|((d_j, u_j), c_j)| {
                d_j.iter()
                    .zip(u_j)
                    .zip(c_j)
                    .any(|((d, u), c)| crate::fits(u + d, *c))
            });
        if feasible {
            for (j, d_j) in inst.items[i].demand.iter().enumerate() {
                for (a, d) in d_j.iter().enumerate() {
                    used[j][a] += d;
                }
            }
            profit += inst.items[i].profit;
            taken[i] = true;
            chosen.push(i);
        }
    }
    (profit, chosen)
}

/// Computes a strong initial incumbent from a family of greedy passes:
/// one density ordering per global Rényi order, so the search starts at
/// least as good as "commit to order α everywhere and pack greedily" —
/// without this, a budget-limited search can return an incumbent worse
/// than the heuristics it is supposed to upper-bound.
fn greedy_seeds(inst: &PrivacyInstance) -> (f64, Vec<usize>) {
    let n = inst.items.len();
    let mut best = (0.0, Vec::new());
    for alpha in 0..inst.orders() {
        let score = |i: usize| -> f64 {
            let it = &inst.items[i];
            let mut denom = 0.0f64;
            for (j, d_j) in it.demand.iter().enumerate() {
                let d = d_j[alpha];
                if d == 0.0 {
                    continue;
                }
                let c = inst.capacity[j][alpha];
                if c > 0.0 {
                    denom += d / c;
                } else {
                    return 0.0; // Unpackable at this order.
                }
            }
            if denom == 0.0 {
                f64::INFINITY
            } else {
                it.profit / denom
            }
        };
        let cand = greedy_pack_order(inst, &descending_order(n, score));
        if cand.0 > best.0 {
            best = cand;
        }
    }
    best
}

/// Solves the privacy knapsack exactly (within the given limits).
///
/// # Panics
///
/// Panics if the instance fails [`PrivacyInstance::validate`] — malformed
/// instances are a programming error, not a runtime condition.
pub fn solve(inst: &PrivacyInstance, limits: SolveLimits) -> PrivacyOutcome {
    solve_with_warm_start(inst, limits, None)
}

/// [`solve`] with an optional warm-start selection (e.g. a DPack
/// allocation) used as the initial incumbent alongside the internal
/// greedy seeds. Infeasible or out-of-range warm starts are ignored.
///
/// # Panics
///
/// Panics if the instance fails [`PrivacyInstance::validate`].
pub fn solve_with_warm_start(
    inst: &PrivacyInstance,
    limits: SolveLimits,
    warm: Option<&[usize]>,
) -> PrivacyOutcome {
    if let Err(e) = inst.validate() {
        panic!("invalid privacy-knapsack instance: {e}");
    }
    let start = Instant::now();

    let mut seed = greedy_seeds(inst);
    if let Some(warm) = warm {
        if warm.iter().all(|&i| i < inst.items.len()) {
            let (profit, chosen) = greedy_pack_order(inst, warm);
            if profit > seed.0 {
                seed = (profit, chosen);
            }
        }
    }
    // Order tasks by profit per unit of optimistic normalized demand
    // (taking each block's cheapest order), a DPack-like ordering that
    // gives the DFS strong early incumbents.
    let score = |i: usize| -> f64 {
        let it = &inst.items[i];
        let denom: f64 = it
            .demand
            .iter()
            .zip(&inst.capacity)
            .map(|(d_j, c_j)| {
                d_j.iter()
                    .zip(c_j)
                    .map(|(d, c)| {
                        if *d == 0.0 {
                            0.0
                        } else if *c > 0.0 {
                            d / c
                        } else {
                            f64::INFINITY
                        }
                    })
                    .fold(f64::INFINITY, f64::min)
            })
            .sum();
        if denom == 0.0 {
            f64::INFINITY
        } else {
            it.profit / denom
        }
    };
    let order = descending_order(inst.items.len(), score);

    let mut suffix = vec![0.0; order.len() + 1];
    for p in (0..order.len()).rev() {
        suffix[p] = suffix[p + 1] + inst.items[order[p]].profit;
    }

    let mut pos_of = vec![0usize; inst.items.len()];
    for (p, &i) in order.iter().enumerate() {
        pos_of[i] = p;
    }
    let dim_orders: Vec<Vec<Vec<usize>>> = (0..inst.blocks())
        .map(|j| {
            (0..inst.orders())
                .map(|a| {
                    let density = |i: usize| {
                        let w = inst.items[i].demand[j][a];
                        if w == 0.0 {
                            f64::INFINITY
                        } else {
                            inst.items[i].profit / w
                        }
                    };
                    descending_order(inst.items.len(), density)
                })
                .collect()
        })
        .collect();

    let mut search = Search {
        inst,
        order,
        pos_of,
        dim_orders,
        used: vec![vec![0.0; inst.orders()]; inst.blocks()],
        chosen: Vec::new(),
        best_profit: seed.0,
        best_chosen: seed.1,
        suffix,
        nodes: 0,
        node_budget: limits.node_budget,
        deadline: limits.time_limit.map(|t| start + t),
        exhausted: false,
    };
    search.dfs(0, 0.0);

    let mut selected = search.best_chosen;
    selected.sort_unstable();
    PrivacyOutcome {
        solution: Solution {
            selected,
            profit: search.best_profit,
        },
        proven_optimal: !search.exhausted,
        nodes: search.nodes,
        elapsed: start.elapsed(),
    }
}

/// Exact reference solver by enumerating one order per block and solving
/// the induced multidimensional knapsack — `|A|^m` multidim solves.
///
/// The privacy-knapsack optimum equals the maximum over per-block order
/// assignments `(α_j)` of the multidim optimum with constraints
/// `Σ d[i][j][α_j] ≤ c[j][α_j]`. Exponential in the number of blocks;
/// used to cross-validate [`solve`] on tiny instances.
pub fn alpha_enumeration(inst: &PrivacyInstance) -> Solution {
    if let Err(e) = inst.validate() {
        panic!("invalid privacy-knapsack instance: {e}");
    }
    let m = inst.blocks();
    let a = inst.orders();
    if m == 0 || a == 0 {
        return Solution::empty();
    }
    let mut assignment = vec![0usize; m];
    let mut best = Solution::empty();
    loop {
        // Build and solve the induced multidim instance.
        let caps: Vec<f64> = (0..m).map(|j| inst.capacity[j][assignment[j]]).collect();
        if caps.iter().all(|c| *c >= 0.0) {
            let items: Vec<MultiItem> = inst
                .items
                .iter()
                .map(|it| MultiItem {
                    weights: (0..m).map(|j| it.demand[j][assignment[j]]).collect(),
                    profit: it.profit,
                })
                .collect();
            let out = solve_multidim(&items, &caps, u64::MAX)
                .expect("a validated instance has finite capacities");
            if out.solution.profit > best.profit {
                best = out.solution;
            }
        }
        // Next assignment (odometer).
        let mut j = 0;
        loop {
            if j == m {
                return best;
            }
            assignment[j] += 1;
            if assignment[j] < a {
                break;
            }
            assignment[j] = 0;
            j += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn limits() -> SolveLimits {
        SolveLimits {
            node_budget: u64::MAX,
            time_limit: None,
        }
    }

    /// The Fig. 3 instance of the paper: 2 blocks × 2 orders, 6 tasks.
    /// DPF allocates 2 tasks; the efficient allocation packs 4 by using
    /// block 1's order α₁ and block 2's order α₂.
    fn fig3_instance() -> PrivacyInstance {
        let cap = vec![vec![1.0, 1.0], vec![1.0, 1.0]];
        let zero = vec![0.0, 0.0];
        let items = vec![
            // T1, T2: cheap at B1's α1 (0.5), expensive at α2 (1.5).
            PrivacyItem {
                demand: vec![vec![0.5, 1.5], zero.clone()],
                profit: 1.0,
            },
            PrivacyItem {
                demand: vec![vec![0.5, 1.5], zero.clone()],
                profit: 1.0,
            },
            // T3: moderate on B1 at α1.
            PrivacyItem {
                demand: vec![vec![0.5, 1.5], zero.clone()],
                profit: 1.0,
            },
            // T4, T5: cheap at B2's α2.
            PrivacyItem {
                demand: vec![zero.clone(), vec![1.5, 0.5]],
                profit: 1.0,
            },
            PrivacyItem {
                demand: vec![zero.clone(), vec![1.5, 0.5]],
                profit: 1.0,
            },
            // T6: balanced but large on B2.
            PrivacyItem {
                demand: vec![zero, vec![0.9, 0.9]],
                profit: 1.0,
            },
        ];
        PrivacyInstance {
            capacity: cap,
            items,
        }
    }

    #[test]
    fn fig3_optimal_packs_four_tasks() {
        let inst = fig3_instance();
        let out = solve(&inst, limits());
        assert!(out.proven_optimal);
        assert_eq!(out.solution.profit, 4.0, "selected {:?}", out.solution);
        // Verify feasibility under ∀j ∃α.
        let mut used = vec![vec![0.0; 2]; 2];
        for &i in &out.solution.selected {
            for (j, row) in used.iter_mut().enumerate() {
                for (a, slot) in row.iter_mut().enumerate() {
                    *slot += inst.items[i].demand[j][a];
                }
            }
        }
        assert!(inst.usage_feasible(&used));
    }

    #[test]
    fn matches_alpha_enumeration_on_random_instances() {
        let mut state = 0xFEEDFACEu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for trial in 0..40 {
            let m = 1 + trial % 2;
            let a = 2 + trial % 2;
            let n = 4 + trial % 6;
            let capacity: Vec<Vec<f64>> = (0..m)
                .map(|_| (0..a).map(|_| 0.5 + next() * 2.0).collect())
                .collect();
            let items: Vec<PrivacyItem> = (0..n)
                .map(|_| PrivacyItem {
                    demand: (0..m)
                        .map(|_| (0..a).map(|_| next() * 1.5).collect())
                        .collect(),
                    profit: 0.1 + next() * 3.0,
                })
                .collect();
            let inst = PrivacyInstance { capacity, items };
            let bb = solve(&inst, limits());
            let reference = alpha_enumeration(&inst);
            assert!(
                (bb.solution.profit - reference.profit).abs() < 1e-9,
                "trial {trial}: bb {} vs enum {}",
                bb.solution.profit,
                reference.profit
            );
        }
    }

    #[test]
    fn at_least_one_order_semantics() {
        // One block, two orders: two tasks each fit alone at a different
        // order; together they exceed both orders at once only if no
        // single order can host both.
        let inst = PrivacyInstance {
            capacity: vec![vec![1.0, 1.0]],
            items: vec![
                PrivacyItem {
                    demand: vec![vec![0.9, 0.2]],
                    profit: 1.0,
                },
                PrivacyItem {
                    demand: vec![vec![0.2, 0.9]],
                    profit: 1.0,
                },
            ],
        };
        // Both tasks: usage (1.1, 1.1) — infeasible at every order, so the
        // optimum is a single task.
        let out = solve(&inst, limits());
        assert_eq!(out.solution.profit, 1.0);

        // Loosen one order: both fit at order 0.
        let inst2 = PrivacyInstance {
            capacity: vec![vec![1.2, 1.0]],
            ..inst
        };
        let out2 = solve(&inst2, limits());
        assert_eq!(out2.solution.profit, 2.0);
    }

    #[test]
    fn node_budget_reports_not_proven() {
        let inst = fig3_instance();
        let out = solve(
            &inst,
            SolveLimits {
                node_budget: 2,
                time_limit: None,
            },
        );
        assert!(!out.proven_optimal);
    }

    #[test]
    fn unusable_orders_are_skipped() {
        // Negative capacity at order 0 models the §3.4 initialization
        // where small alphas are unusable.
        let inst = PrivacyInstance {
            capacity: vec![vec![-0.5, 1.0]],
            items: vec![
                PrivacyItem {
                    demand: vec![vec![0.0, 0.6]],
                    profit: 1.0,
                },
                PrivacyItem {
                    demand: vec![vec![0.0, 0.6]],
                    profit: 1.0,
                },
            ],
        };
        let out = solve(&inst, limits());
        assert_eq!(out.solution.profit, 1.0);
    }

    #[test]
    #[should_panic(expected = "invalid privacy-knapsack instance")]
    fn malformed_instance_panics() {
        let inst = PrivacyInstance {
            capacity: vec![vec![1.0, 1.0]],
            items: vec![PrivacyItem {
                demand: vec![vec![1.0]], // Wrong order count.
                profit: 1.0,
            }],
        };
        solve(&inst, limits());
    }

    #[test]
    fn empty_instance_is_trivial() {
        let inst = PrivacyInstance {
            capacity: vec![],
            items: vec![],
        };
        let out = solve(&inst, limits());
        assert_eq!(out.solution.profit, 0.0);
        assert!(out.proven_optimal);
    }
}
