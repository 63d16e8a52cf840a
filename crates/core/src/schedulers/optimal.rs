//! The Optimal baseline: exact privacy-knapsack solving.

use std::time::Instant;

use crate::problem::{Allocation, ProblemState};
use crate::schedulers::{finish_allocation, DPack, Scheduler};
use knapsack::privacy::{solve_with_warm_start, PrivacyInstance, PrivacyItem, SolveLimits};

/// Exact privacy-knapsack scheduler (the paper's Gurobi baseline, §6.1).
///
/// Only tractable for small instances; the paper reports its solver
/// becoming intractable at 7 blocks / 200 tasks (Fig. 5), and ours hits
/// the same qualitative wall. Give it explicit [`SolveLimits`]; within
/// limits the returned allocation carries `proven_optimal == Some(true)`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Optimal {
    /// Node/time budgets for the branch-and-bound search.
    pub limits: SolveLimits,
}

impl Optimal {
    /// An Optimal solver with no limits — use only in tests on tiny
    /// instances.
    pub fn unbounded() -> Self {
        Self {
            limits: SolveLimits {
                node_budget: u64::MAX,
                time_limit: None,
            },
        }
    }

    /// Builds the [`PrivacyInstance`] corresponding to a problem state.
    pub fn instance(state: &ProblemState) -> PrivacyInstance {
        let dense = state.dense();
        let capacity: Vec<Vec<f64>> = (0..dense.n_blocks())
            .map(|j| dense.capacity(j).to_vec())
            .collect();
        let items: Vec<PrivacyItem> = (0..dense.n_tasks())
            .map(|t| {
                let mut demand = vec![vec![0.0; dense.n_orders()]; dense.n_blocks()];
                for &j in dense.blocks_of(t) {
                    demand[j as usize] = dense.demand(t).to_vec();
                }
                PrivacyItem {
                    demand,
                    profit: dense.weight(t),
                }
            })
            .collect();
        PrivacyInstance { capacity, items }
    }
}

impl Scheduler for Optimal {
    fn name(&self) -> &'static str {
        "Optimal"
    }

    fn schedule(&self, state: &ProblemState) -> Allocation {
        let started = Instant::now();
        let inst = Self::instance(state);
        // Warm-start the search with the DPack allocation so that a
        // budget-limited solve never reports a solution below the
        // heuristic it benchmarks against.
        let warm: Vec<usize> = DPack::default()
            .schedule(state)
            .scheduled
            .iter()
            .filter_map(|id| state.index_of(*id))
            .collect();
        let outcome = solve_with_warm_start(&inst, self.limits, Some(&warm));
        finish_allocation(
            state,
            &outcome.solution.selected,
            started,
            Some(outcome.proven_optimal),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{Block, Task};
    use crate::schedulers::{DPack, Dpf};
    use dp_accounting::{AlphaGrid, RdpCurve};

    #[test]
    fn optimal_dominates_heuristics_on_fig_examples() {
        for state in [
            crate::scenarios::fig1_state(),
            crate::scenarios::fig3_state(),
        ] {
            let opt = Optimal::unbounded().schedule(&state);
            assert_eq!(opt.proven_optimal, Some(true));
            for sched in [DPack::default().schedule(&state), Dpf.schedule(&state)] {
                assert!(opt.total_weight >= sched.total_weight - 1e-9);
            }
        }
        // And on these two it exactly matches DPack.
        let fig3 = crate::scenarios::fig3_state();
        assert_eq!(
            Optimal::unbounded().schedule(&fig3).scheduled.len(),
            DPack::default().schedule(&fig3).scheduled.len()
        );
    }

    #[test]
    fn bounded_solver_reports_unproven() {
        let state = crate::scenarios::fig3_state();
        let opt = Optimal {
            limits: SolveLimits {
                node_budget: 1,
                time_limit: None,
            },
        };
        assert_eq!(opt.schedule(&state).proven_optimal, Some(false));
    }

    #[test]
    fn instance_mapping_zeroes_unrequested_blocks() {
        let g = AlphaGrid::new(vec![2.0, 4.0]).unwrap();
        let blocks = vec![
            Block::new(0, RdpCurve::constant(&g, 1.0), 0.0),
            Block::new(5, RdpCurve::constant(&g, 2.0), 0.0),
        ];
        let tasks = vec![Task::new(
            9,
            3.0,
            vec![5],
            RdpCurve::new(&g, vec![0.1, 0.2]).unwrap(),
            0.0,
        )];
        let state = ProblemState::new(g, blocks, tasks).unwrap();
        let inst = Optimal::instance(&state);
        assert_eq!(inst.capacity.len(), 2);
        assert_eq!(inst.items[0].demand[0], vec![0.0, 0.0]); // Block 0 untouched.
        assert_eq!(inst.items[0].demand[1], vec![0.1, 0.2]);
        assert_eq!(inst.items[0].profit, 3.0);
    }
}
