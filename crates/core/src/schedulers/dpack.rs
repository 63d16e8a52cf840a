//! DPack (Alg. 1 of the paper).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use crate::dense::{fan_out, Certificate, Dense, Sweep};
use crate::problem::{Allocation, BlockId, PackingRule, ProblemState};
use crate::schedulers::{allocate, finish_allocation, sort_by_efficiency, Scheduler};
use knapsack::{
    fptas::fptas_value, greedy::greedy_with_best_item, greedy::unit_profit_exact, Item,
};

/// How DPack solves the per-(block, order) single-block knapsacks that
/// determine each block's best alpha.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KnapsackOracle {
    /// Pick automatically: exact prefix packing when all task weights are
    /// equal (the common unweighted case — zero approximation error),
    /// the FPTAS when the task count is small enough, and the greedy
    /// 1/2-approximation otherwise.
    Auto,
    /// Profit-scaling FPTAS at factor `2/3·η` (the Alg. 1 setting).
    Fptas,
    /// Greedy density packing with the best-single-item fix (1/2-approx).
    Greedy,
}

/// The DPack scheduler.
///
/// Offline Alg. 1:
///
/// 1. For every block `j`, estimate `ŵ_max(j, α)` — the value of the
///    single-block knapsack restricted to order `α` — for each usable
///    order, and set the block's *best alpha* to the argmax.
/// 2. Score each task with the efficiency metric of Eq. 6, which charges
///    a task only for its demand at each requested block's best alpha:
///    `e_i = w_i / Σ_j d_ij,α̂(j) / c_j,α̂(j)`.
/// 3. Sort by efficiency and greedily allocate under the `∀j ∃α`
///    feasibility rule.
///
/// With a single-order grid the metric reduces to the multidimensional
/// knapsack heuristic of Eq. 4 (Prop. 4), and in the single-block case
/// the algorithm is a `(1/2 + η)`-approximation (Prop. 5).
#[derive(Debug, Clone, Copy)]
pub struct DPack {
    /// Approximation parameter `η > 0`; the per-block knapsacks are
    /// solved at factor `2/3·η`.
    pub eta: f64,
    /// Single-block knapsack solver choice.
    pub oracle: KnapsackOracle,
}

impl Default for DPack {
    fn default() -> Self {
        Self {
            eta: 0.5,
            oracle: KnapsackOracle::Auto,
        }
    }
}

/// Task count above which `Auto` falls back from the FPTAS to greedy for
/// weighted instances (the FPTAS table grows as `n²/η`).
const FPTAS_TASK_LIMIT: usize = 300;

impl DPack {
    /// Creates a DPack scheduler with the given `η`.
    ///
    /// # Panics
    ///
    /// Panics if `η ∉ (0, 1.5)` — the FPTAS requires `2/3·η < 1`.
    pub fn with_eta(eta: f64) -> Self {
        assert!(
            eta.is_finite() && eta > 0.0 && eta < 1.5,
            "DPack eta must be in (0, 1.5) (got {eta})"
        );
        Self {
            eta,
            ..Self::default()
        }
    }

    fn solve_single_block(&self, items: &[Item], capacity: f64) -> f64 {
        match self.oracle {
            KnapsackOracle::Greedy => greedy_with_best_item(items, capacity).profit,
            KnapsackOracle::Fptas => fptas_value(items, capacity, (self.eta * 2.0 / 3.0).min(0.99)),
            KnapsackOracle::Auto => {
                if let Some(sol) = unit_profit_exact(items, capacity) {
                    return sol.profit;
                }
                // Integer weight grids (the paper's weighted workloads)
                // admit an exact pseudo-polynomial DP.
                if let Some(sol) = knapsack::dp::integer_profit_exact(items, capacity, 2_000_000) {
                    return sol.profit;
                }
                if items.len() <= FPTAS_TASK_LIMIT {
                    fptas_value(items, capacity, (self.eta * 2.0 / 3.0).min(0.99))
                } else {
                    greedy_with_best_item(items, capacity).profit
                }
            }
        }
    }

    /// `COMPUTE_BEST_ALPHA` of Alg. 1 for every block: returns, per block,
    /// the grid index of the order whose single-block knapsack packs the
    /// most weight, or `None` when no order is usable or no task requests
    /// the block.
    pub fn best_alphas(&self, state: &ProblemState) -> BTreeMap<BlockId, Option<usize>> {
        self.best_alphas_threaded(state, 1)
    }

    /// [`DPack::best_alphas`] with the orders — whose knapsacks are
    /// independent — split over `threads` threads. Same result for any
    /// thread count.
    pub fn best_alphas_threaded(
        &self,
        state: &ProblemState,
        threads: usize,
    ) -> BTreeMap<BlockId, Option<usize>> {
        let (best, _) = self.dense_best_alphas(state.dense(), threads);
        let ids = state.dense().block_ids().iter().copied();
        ids.zip(best).collect()
    }

    /// Best alpha per block index, and whether all tasks fit jointly. One
    /// pass per order fills in every block's knapsack value at that order;
    /// a block keeps the first order that reaches its highest value.
    fn dense_best_alphas(&self, dense: &Dense, threads: usize) -> (Vec<Option<usize>>, bool) {
        // Equal weights everywhere: every knapsack is "longest prefix
        // by ascending demand", and one sweep per unsettled order finds
        // them all. Otherwise each (block, order) knapsack is solved on
        // its own over the block's requester list.
        let sweep = self.oracle == KnapsackOracle::Auto && dense.uniform_weight();
        let certificate = sweep.then(|| Certificate::new(dense));
        let by_block = (!sweep).then(|| dense.by_block());
        let orders = certificate.as_ref().map_or(dense.n_orders(), |c| c.orders);
        // Orders cost anything from a slot per block to a full sort, so
        // each worker takes the next one left; its own still ascend.
        let next = AtomicUsize::new(0);
        let take = || Some(next.fetch_add(1, Ordering::Relaxed)).filter(|&a| a < orders);
        let threads = threads.clamp(1, orders.max(1));
        let mut parts = fan_out(threads, |_| {
            let mut best: Best = vec![(f64::NEG_INFINITY, None); dense.n_blocks()];
            let (mut sweeper, mut items) = (Sweep::default(), Vec::new());
            while let Some(a) = take() {
                if let Some(certificate) = &certificate {
                    for (j, value) in sweeper.run(dense, certificate, a).enumerate() {
                        offer(&mut best, j, a, value);
                    }
                } else if let Some(lists) = &by_block {
                    self.solve_order(dense, lists, a, &mut items, &mut best);
                }
            }
            best
        })
        .into_iter();
        // The first order reaching the highest value wins, whichever
        // worker saw it.
        let mut best = parts.next().expect("at least one worker");
        for part in parts {
            for (mine, theirs) in best.iter_mut().zip(part) {
                if theirs.0 > mine.0 || (theirs.0 == mine.0 && theirs.1 < mine.1) {
                    *mine = theirs;
                }
            }
        }
        let all_fit = certificate.is_some_and(|c| c.all_settled);
        (best.into_iter().map(|(_, alpha)| alpha).collect(), all_fit)
    }

    /// Solves order `a`'s knapsack of every block that is usable there,
    /// over the block's requesters in ascending task order.
    fn solve_order(
        &self,
        dense: &Dense,
        (starts, members): &(Vec<usize>, Vec<u32>),
        a: usize,
        items: &mut Vec<Item>,
        best: &mut Best,
    ) {
        for j in 0..dense.n_blocks() {
            let capacity = dense.capacity(j)[a];
            let requesters = &members[starts[j]..starts[j + 1]];
            if capacity <= 0.0 || requesters.is_empty() {
                continue;
            }
            items.clear();
            items.extend(requesters.iter().map(|&t| Item {
                weight: dense.demand(t as usize)[a],
                profit: dense.weight(t as usize),
            }));
            offer(best, j, a, self.solve_single_block(items, capacity));
        }
    }

    /// `COMPUTE_EFFICIENCY` of Alg. 1 (Eq. 6) for every task, given the
    /// per-block best alphas.
    pub fn efficiencies(
        &self,
        state: &ProblemState,
        best_alphas: &BTreeMap<BlockId, Option<usize>>,
    ) -> Vec<f64> {
        let ids = state.dense().block_ids().iter();
        let best: Vec<Option<usize>> = ids.map(|b| best_alphas.get(b).copied().flatten()).collect();
        dense_efficiencies(state.dense(), &best)
    }

    /// [`Scheduler::schedule`] with the best-alpha step on `threads`
    /// threads; the allocation does not depend on the thread count.
    /// `CANRUN` is skipped where every subset of the tasks is certified to fit.
    pub fn schedule_threaded(&self, state: &ProblemState, threads: usize) -> Allocation {
        let started = Instant::now();
        let dense = state.dense();
        let (best, all_fit) = self.dense_best_alphas(dense, threads);
        let eff = dense_efficiencies(dense, &best);
        let order = sort_by_efficiency(state, &eff);
        if all_fit {
            return finish_allocation(state, &order, started, None);
        }
        allocate(state, &order, PackingRule::Skip, started)
    }
}

/// Eq. 6 over the dense view: a task is charged, per requested block,
/// its demand at that block's best alpha relative to the capacity there.
fn dense_efficiencies(dense: &Dense, best: &[Option<usize>]) -> Vec<f64> {
    let at_best: Vec<Option<(usize, f64)>> = best
        .iter()
        .enumerate()
        .map(|(j, alpha)| alpha.map(|a| (a, dense.capacity(j)[a])))
        .collect();
    (0..dense.n_tasks())
        .map(|t| {
            let demand = dense.demand(t);
            let mut denom = 0.0;
            for &j in dense.blocks_of(t) {
                // A requested block with no usable order makes the
                // task unschedulable.
                let Some((a, capacity)) = at_best[j as usize] else {
                    return 0.0;
                };
                denom += demand[a] / capacity;
            }
            if denom == 0.0 {
                f64::INFINITY
            } else {
                dense.weight(t) / denom
            }
        })
        .collect()
}

/// Per block, the highest knapsack value seen so far and the first
/// order that reached it.
type Best = Vec<(f64, Option<usize>)>;

/// Records block `j`'s knapsack value at order `a`; a block's orders
/// must be offered in ascending order.
fn offer(best: &mut Best, j: usize, a: usize, value: f64) {
    if value > best[j].0 {
        best[j] = (value, Some(a));
    }
}

impl Scheduler for DPack {
    fn name(&self) -> &'static str {
        "DPack"
    }

    fn schedule(&self, state: &ProblemState) -> Allocation {
        self.schedule_threaded(state, 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{Block, Task};
    use crate::schedulers::{Dpf, GreedyArea};
    use dp_accounting::{AlphaGrid, RdpCurve};

    #[test]
    fn fig1_dpack_packs_three_tasks() {
        let state = crate::scenarios::fig1_state();
        let alloc = DPack::default().schedule(&state);
        assert_eq!(alloc.scheduled.len(), 3);
        assert!(!alloc.scheduled.contains(&1)); // T1 is the inefficient one.
                                                // DPF schedules only T1 on the same instance.
        assert_eq!(Dpf.schedule(&state).scheduled.len(), 1);
    }

    #[test]
    fn fig3_dpack_packs_four_tasks_dpf_two() {
        let state = crate::scenarios::fig3_state();
        let dpack = DPack::default().schedule(&state);
        let dpf = Dpf.schedule(&state);
        assert_eq!(dpack.scheduled.len(), 4, "DPack: {:?}", dpack.scheduled);
        assert_eq!(dpf.scheduled.len(), 2, "DPF: {:?}", dpf.scheduled);
    }

    #[test]
    fn best_alpha_picks_the_packing_order() {
        let state = crate::scenarios::fig3_state();
        let dpack = DPack::default();
        let best = dpack.best_alphas(&state);
        // Block 0's best order is index 0 (α₁), block 1's is index 1
        // (α₂) — the construction of Fig. 3.
        assert_eq!(best[&0], Some(0));
        assert_eq!(best[&1], Some(1));
    }

    #[test]
    fn prop4_reduction_matches_greedy_area_on_single_order() {
        // With one alpha, DPack's metric must order identically to the
        // Eq. 4 area heuristic (Prop. 4).
        let g = AlphaGrid::single(2.0).unwrap();
        let blocks: Vec<Block> = (0..4)
            .map(|i| Block::new(i, RdpCurve::constant(&g, 1.0), 0.0))
            .collect();
        let tasks = vec![
            Task::new(0, 1.0, vec![0, 1, 2], RdpCurve::constant(&g, 0.3), 0.0),
            Task::new(1, 2.0, vec![1], RdpCurve::constant(&g, 0.5), 0.0),
            Task::new(2, 1.0, vec![2, 3], RdpCurve::constant(&g, 0.45), 0.0),
            Task::new(3, 1.5, vec![0], RdpCurve::constant(&g, 0.7), 0.0),
        ];
        let state = ProblemState::new(g, blocks, tasks).unwrap();
        let dpack = DPack::default().schedule(&state);
        let area = GreedyArea.schedule(&state);
        assert_eq!(dpack.scheduled, area.scheduled);
    }

    #[test]
    fn zero_demand_tasks_schedule_first() {
        let g = AlphaGrid::single(2.0).unwrap();
        let blocks = vec![Block::new(0, RdpCurve::constant(&g, 0.5), 0.0)];
        let tasks = vec![
            Task::new(0, 1.0, vec![0], RdpCurve::constant(&g, 0.5), 0.0),
            Task::new(1, 1.0, vec![0], RdpCurve::zero(&g), 0.0),
        ];
        let state = ProblemState::new(g, blocks, tasks).unwrap();
        let alloc = DPack::default().schedule(&state);
        assert_eq!(alloc.scheduled, vec![1, 0]);
    }

    #[test]
    fn unschedulable_blocks_zero_out_tasks() {
        let g = AlphaGrid::new(vec![2.0, 4.0]).unwrap();
        let blocks = vec![
            Block::new(0, RdpCurve::constant(&g, -1.0), 0.0), // Depleted.
            Block::new(1, RdpCurve::constant(&g, 1.0), 0.0),
        ];
        let tasks = vec![
            Task::new(0, 1.0, vec![0, 1], RdpCurve::constant(&g, 0.1), 0.0),
            Task::new(1, 1.0, vec![1], RdpCurve::constant(&g, 0.1), 0.0),
        ];
        let state = ProblemState::new(g, blocks, tasks).unwrap();
        let alloc = DPack::default().schedule(&state);
        assert_eq!(alloc.scheduled, vec![1]);
    }

    #[test]
    fn oracles_agree_on_unweighted_instances() {
        let state = crate::scenarios::fig3_state();
        for oracle in [
            KnapsackOracle::Auto,
            KnapsackOracle::Fptas,
            KnapsackOracle::Greedy,
        ] {
            let d = DPack { eta: 0.5, oracle };
            assert_eq!(d.schedule(&state).scheduled.len(), 4, "{oracle:?}");
        }
    }

    #[test]
    fn single_block_half_plus_eta_approximation() {
        // Prop. 5 randomized check: on single-block instances DPack is a
        // (1/2 + η)-approximation of the privacy-knapsack optimum.
        let mut seed = 0xC0FFEEu64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed >> 11) as f64 / (1u64 << 53) as f64
        };
        let g = AlphaGrid::new(vec![2.0, 4.0, 8.0]).unwrap();
        for trial in 0..25 {
            let cap = RdpCurve::new(&g, vec![1.0 + next(), 1.0 + next(), 1.0 + next()]).unwrap();
            let blocks = vec![Block::new(0, cap.clone(), 0.0)];
            let n = 6 + trial % 5;
            let tasks: Vec<Task> = (0..n)
                .map(|i| {
                    let d =
                        RdpCurve::new(&g, vec![next() * 1.2, next() * 1.2, next() * 1.2]).unwrap();
                    Task::new(i as u64, 0.5 + next() * 2.0, vec![0], d, 0.0)
                })
                .collect();
            let state = ProblemState::new(g.clone(), blocks, tasks).unwrap();
            let dpack = DPack::default().schedule(&state);
            let opt = crate::schedulers::Optimal::unbounded().schedule(&state);
            let eta = 0.5;
            assert!(
                (1.0 + 0.5 + eta) * dpack.total_weight >= opt.total_weight - 1e-9,
                "trial {trial}: dpack {} vs opt {}",
                dpack.total_weight,
                opt.total_weight
            );
        }
    }

    #[test]
    #[should_panic(expected = "eta must be in")]
    fn with_eta_rejects_out_of_range() {
        DPack::with_eta(2.0);
    }
}
