//! DPF: Dominating Privacy-block Fairness (the baseline of §3.1–3.2).

use std::ops::Range;
use std::time::Instant;

use crate::dense::{fan_out, Dense};
use crate::problem::{Allocation, PackingRule, ProblemState, Task};
use crate::schedulers::{allocate, sort_by_efficiency, Scheduler};
use dp_accounting::RdpCurve;

/// The fairness-oriented scheduler of PrivateKube, viewed as a greedy
/// heuristic for the privacy knapsack with efficiency metric
///
/// ```text
/// e_i = w_i / max_{j,α} (d_ijα / c_jα)
/// ```
///
/// i.e. tasks with the smallest (weighted) dominant share run first. The
/// maximum ranges over the task's requested blocks and the *usable*
/// orders (positive available capacity); a requested block with no
/// usable order makes the task unschedulable (efficiency 0).
///
/// As the paper shows (Fig. 1, Fig. 3), the max ignores both the "area"
/// of a multi-block demand and the best-alpha semantics of RDP, so DPF
/// can stray arbitrarily far from the efficiency-optimal allocation.
#[derive(Debug, Clone, Copy, Default)]
pub struct Dpf;

/// The largest `demand/capacity` ratio over one block's
/// positive-capacity orders; `f64::INFINITY` when none is usable.
fn block_share(demand: &[f64], capacity: &[f64]) -> f64 {
    let (mut lowest, mut highest) = (f64::INFINITY, 0.0f64);
    for (d, c) in demand.iter().zip(capacity) {
        if *c > 0.0 {
            let share = d / c;
            (lowest, highest) = (lowest.min(share), highest.max(share));
        }
    }
    // DPF's max is over all usable (j, α) pairs of d/c; the lowest
    // ratio only tells whether any order is usable at all.
    if lowest == f64::INFINITY {
        f64::INFINITY
    } else {
        highest
    }
}

/// The dominant share of a task against the given capacities: the
/// largest `demand/capacity` ratio across its requested blocks and the
/// positive-capacity orders. Returns `f64::INFINITY` when a requested
/// block has no usable order.
pub fn dominant_share(
    task: &Task,
    capacities: &std::collections::BTreeMap<crate::problem::BlockId, RdpCurve>,
) -> f64 {
    let mut share = 0.0f64;
    for b in &task.blocks {
        let Some(cap) = capacities.get(b) else {
            return f64::INFINITY;
        };
        let block = block_share(task.demand.values(), cap.values());
        if block == f64::INFINITY {
            return f64::INFINITY; // No usable order on this block.
        }
        share = share.max(block);
    }
    share
}

/// The DPF efficiency (inverse weighted dominant share) of tasks
/// `tasks` of the dense view.
fn dpf_efficiencies(dense: &Dense, tasks: Range<usize>) -> Vec<f64> {
    tasks
        .map(|t| {
            let mut share = 0.0f64;
            for &j in dense.blocks_of(t) {
                let block = block_share(dense.demand(t), dense.capacity(j as usize));
                if block == f64::INFINITY {
                    return 0.0;
                }
                share = share.max(block);
            }
            if share == 0.0 {
                f64::INFINITY
            } else {
                dense.weight(t) / share
            }
        })
        .collect()
}

/// One DPF pass: smallest weighted dominant share first, packed under
/// `rule`, with the per-task shares computed on `threads` threads. The
/// allocation does not depend on the thread count.
pub fn dpf_schedule(state: &ProblemState, rule: PackingRule, threads: usize) -> Allocation {
    let started = Instant::now();
    let dense = state.dense();
    let n = dense.n_tasks();
    let threads = threads.clamp(1, n.max(1));
    let chunk = n.div_ceil(threads);
    let eff = fan_out(threads, |w| {
        dpf_efficiencies(dense, (w * chunk).min(n)..((w + 1) * chunk).min(n))
    })
    .concat();
    let order = sort_by_efficiency(state, &eff);
    allocate(state, &order, rule, started)
}

impl Scheduler for Dpf {
    fn name(&self) -> &'static str {
        "DPF"
    }

    fn schedule(&self, state: &ProblemState) -> Allocation {
        dpf_schedule(state, PackingRule::Skip, 1)
    }
}

/// DPF with head-of-line blocking: within one scheduling round no task
/// may run before a smaller-dominant-share task that cannot yet fit.
///
/// The paper analyses DPF offline as a skip-greedy heuristic ([`Dpf`]),
/// but a fairness-preserving *online* DPF must not leapfrog: granting a
/// larger-share task while a smaller-share one waits would violate the
/// dominant-share priority that DPF's max-min guarantee rests on. The
/// two variants coincide on the paper's illustrative examples (Figs. 1
/// and 3) and differ online exactly by the efficiency the paper
/// attributes to DPack. With skip semantics the online retry loop lets
/// *any* ordering converge to a near-efficient allocation, which
/// contradicts the paper's measured DPF; with strict semantics the
/// DPack/DPF gap lands in the reported 1.3–1.7× band. See README's
/// "Which DPF is the paper's" paragraph, and the `paper` runner's `gap`
/// panel for the sensitivity study.
#[derive(Debug, Clone, Copy, Default)]
pub struct DpfStrict;

impl Scheduler for DpfStrict {
    fn name(&self) -> &'static str {
        "DPF"
    }

    fn schedule(&self, state: &ProblemState) -> Allocation {
        dpf_schedule(state, PackingRule::Stop, 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::Block;
    use dp_accounting::AlphaGrid;

    #[test]
    fn dominant_share_takes_max_over_blocks_and_orders() {
        let g = AlphaGrid::new(vec![2.0, 4.0]).unwrap();
        let mut caps = std::collections::BTreeMap::new();
        caps.insert(0u64, RdpCurve::new(&g, vec![1.0, 2.0]).unwrap());
        caps.insert(1u64, RdpCurve::new(&g, vec![4.0, 4.0]).unwrap());
        let t = Task::new(
            0,
            1.0,
            vec![0, 1],
            RdpCurve::new(&g, vec![0.5, 1.0]).unwrap(),
            0.0,
        );
        // Shares: block 0 → max(0.5/1, 1/2) = 0.5; block 1 → 0.25.
        assert!((dominant_share(&t, &caps) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn negative_capacity_orders_are_ignored() {
        let g = AlphaGrid::new(vec![2.0, 4.0]).unwrap();
        let mut caps = std::collections::BTreeMap::new();
        // Order 0 unusable (§3.4 initialization), order 1 usable.
        caps.insert(0u64, RdpCurve::new(&g, vec![-5.0, 2.0]).unwrap());
        let t = Task::new(
            0,
            1.0,
            vec![0],
            RdpCurve::new(&g, vec![9.0, 1.0]).unwrap(),
            0.0,
        );
        assert!((dominant_share(&t, &caps) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn block_with_no_usable_order_is_infinite() {
        let g = AlphaGrid::single(2.0).unwrap();
        let mut caps = std::collections::BTreeMap::new();
        caps.insert(0u64, RdpCurve::constant(&g, -1.0));
        let t = Task::new(0, 1.0, vec![0], RdpCurve::constant(&g, 0.1), 0.0);
        assert_eq!(dominant_share(&t, &caps), f64::INFINITY);
    }

    #[test]
    fn prefers_small_dominant_share() {
        // The Fig. 1 pathology: the 3-block task has the smallest
        // dominant share, so DPF schedules it first and starves the rest.
        let state = crate::scenarios::fig1_state();
        let alloc = Dpf.schedule(&state);
        assert_eq!(alloc.scheduled, vec![1]); // Only T1 (id 1).
    }

    #[test]
    fn strict_variant_agrees_on_paper_examples() {
        // On Figs. 1 and 3 the first infeasible task is followed only by
        // infeasible ones, so both variants coincide.
        for state in [
            crate::scenarios::fig1_state(),
            crate::scenarios::fig3_state(),
        ] {
            assert_eq!(
                Dpf.schedule(&state).scheduled,
                DpfStrict.schedule(&state).scheduled
            );
        }
    }

    #[test]
    fn strict_variant_blocks_behind_infeasible_task() {
        let g = AlphaGrid::single(2.0).unwrap();
        let blocks = vec![Block::new(0, RdpCurve::constant(&g, 1.0), 0.0)];
        // Weighted efficiencies order the tasks [0, 1, 2]; task 1 does
        // not fit after task 0, while the lighter task 2 would.
        let tasks = vec![
            Task::new(0, 1.0, vec![0], RdpCurve::constant(&g, 0.5), 0.0), // eff 2.0
            Task::new(1, 1.0, vec![0], RdpCurve::constant(&g, 0.6), 0.0), // eff 1.67
            Task::new(2, 0.2, vec![0], RdpCurve::constant(&g, 0.15), 0.0), // eff 1.33
        ];
        let state = ProblemState::new(g, blocks, tasks).unwrap();
        // Skip semantics leapfrogs task 1; strict stops behind it.
        assert_eq!(Dpf.schedule(&state).scheduled, vec![0, 2]);
        assert_eq!(DpfStrict.schedule(&state).scheduled, vec![0]);
    }

    #[test]
    fn weights_fold_into_the_metric() {
        let g = AlphaGrid::single(2.0).unwrap();
        let blocks = vec![Block::new(0, RdpCurve::constant(&g, 1.0), 0.0)];
        // Same demand, different weights: the heavy task goes first.
        let t0 = Task::new(0, 1.0, vec![0], RdpCurve::constant(&g, 0.6), 0.0);
        let t1 = Task::new(1, 10.0, vec![0], RdpCurve::constant(&g, 0.6), 0.0);
        let state = ProblemState::new(g, blocks, vec![t0, t1]).unwrap();
        let alloc = Dpf.schedule(&state);
        assert_eq!(alloc.scheduled, vec![1]);
        assert_eq!(alloc.total_weight, 10.0);
    }
}
