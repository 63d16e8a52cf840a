//! The schedulers: DPack, DPF, greedy-area, FCFS, and Optimal.

mod dpack;
mod dpf;
mod fcfs;
mod greedy_area;
mod optimal;

pub use crate::parallel::ParallelDPack;
pub use dpack::{DPack, KnapsackOracle};
pub use dpf::{dominant_share, dpf_schedule, Dpf, DpfStrict};
pub use fcfs::Fcfs;
pub use greedy_area::GreedyArea;
pub use optimal::Optimal;

use std::time::Instant;

use knapsack::order_bits;

use crate::problem::{Allocation, PackingRule, ProblemState};

/// A privacy-budget scheduler.
///
/// Schedulers are pure: they read a [`ProblemState`] snapshot and return
/// an [`Allocation`]; committing the allocation to privacy filters is the
/// caller's job (see [`crate::online::OnlineEngine`]). The offline and
/// online evaluations therefore exercise exactly the same code.
pub trait Scheduler {
    /// A short display name ("DPack", "DPF", ...).
    fn name(&self) -> &'static str;

    /// Computes which pending tasks to allocate given the available
    /// capacities.
    fn schedule(&self, state: &ProblemState) -> Allocation;
}

/// Sorts task indices by descending efficiency, breaking ties by arrival
/// time then id — the deterministic ordering used by every greedy
/// scheduler in this crate (public so external scheduler wrappers order
/// identically).
///
/// The sort runs on 16-byte keys of integers that order as the
/// efficiencies do, with the index as the tie-break. When the state is
/// [`ProblemState::in_arrival_order`], index order is `(arrival, id)`
/// order, so that sort is the answer and no task is read. Otherwise
/// each run of equal efficiencies reads its tasks and is sorted again
/// by `(arrival, id, index)`. Either way the result is the order of
/// the full 4-key sort, with the index as last key, which is what a
/// stable sort of the indices would yield.
pub fn sort_by_efficiency(state: &ProblemState, eff: &[f64]) -> Vec<usize> {
    // Dense indices fit in `u32`.
    let tasks = state.tasks();
    let mut keyed: Vec<(u64, u32)> = eff[..tasks.len()]
        .iter()
        .enumerate()
        .map(|(i, &e)| (!order_bits(e), i as u32))
        .collect();
    keyed.sort_unstable();
    if !state.in_arrival_order() {
        for run in keyed.chunk_by_mut(|a, b| a.0 == b.0) {
            if run.len() > 1 {
                run.sort_unstable_by_key(|&(_, i)| (tasks[i as usize].arrival_key(), i));
            }
        }
    }
    keyed.into_iter().map(|(_, i)| i as usize).collect()
}

/// Builds an [`Allocation`] from the indices (into `state.tasks()`) of
/// the scheduled tasks, in allocation order, filling in ids, weights
/// and timing.
pub fn finish_allocation(
    state: &ProblemState,
    taken: &[usize],
    started: Instant,
    proven_optimal: Option<bool>,
) -> Allocation {
    let tasks = state.tasks();
    Allocation {
        scheduled: taken.iter().map(|&t| tasks[t].id).collect(),
        total_weight: taken.iter().map(|&t| tasks[t].weight).sum(),
        runtime: started.elapsed(),
        proven_optimal,
    }
}

/// Packs `order` under `rule` and wraps the result up — the tail every
/// ordering-based scheduler shares.
pub(crate) fn allocate(
    state: &ProblemState,
    order: &[usize],
    rule: PackingRule,
    started: Instant,
) -> Allocation {
    let taken = state.dense().pack(order, rule);
    finish_allocation(state, &taken, started, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{Block, Task};
    use dp_accounting::{AlphaGrid, RdpCurve};

    #[test]
    fn efficiency_sort_is_deterministic() {
        let g = AlphaGrid::single(2.0).unwrap();
        let blocks = vec![Block::new(0, RdpCurve::constant(&g, 1.0), 0.0)];
        let tasks = vec![
            Task::new(0, 1.0, vec![0], RdpCurve::zero(&g), 5.0),
            Task::new(1, 1.0, vec![0], RdpCurve::zero(&g), 3.0),
            Task::new(2, 1.0, vec![0], RdpCurve::zero(&g), 3.0),
        ];
        let state = crate::problem::ProblemState::new(g.clone(), blocks, tasks).unwrap();
        assert!(!state.in_arrival_order());
        // Equal efficiency: fall back to arrival then id.
        let order = sort_by_efficiency(&state, &[1.0, 1.0, 1.0]);
        assert_eq!(order, vec![1, 2, 0]);
        // Higher efficiency wins regardless of arrival.
        let order = sort_by_efficiency(&state, &[5.0, 1.0, 1.0]);
        assert_eq!(order, vec![0, 1, 2]);
        // The same tasks in arrival order: ties go by index, unread.
        let in_order = [1, 2, 0].map(|i| state.tasks()[i].clone()).to_vec();
        let blocks = vec![Block::new(0, RdpCurve::constant(&g, 1.0), 0.0)];
        let state = crate::problem::ProblemState::new(g, blocks, in_order).unwrap();
        assert!(state.in_arrival_order());
        assert_eq!(sort_by_efficiency(&state, &[1.0, 1.0, 1.0]), vec![0, 1, 2]);
        assert_eq!(sort_by_efficiency(&state, &[1.0, 1.0, 5.0]), vec![2, 0, 1]);
    }
}
