//! The "area" heuristic of Eq. 4 (traditional multidimensional
//! knapsack), without best-alpha awareness.

use std::time::Instant;

use crate::problem::{Allocation, PackingRule, ProblemState};
use crate::schedulers::{allocate, Scheduler};

/// Greedy scheduler ordering tasks by
///
/// ```text
/// e_i = w_i / Σ_{j,α usable} (d_ijα / c_jα)
/// ```
///
/// — the natural multi-block extension of the single-knapsack density
/// metric (Panigrahy et al.'s L1 heuristic, Eq. 4 of the paper), summed
/// over *all* usable orders.
///
/// For traditional DP (one order) this *is* Eq. 4 and fixes the Fig. 1
/// inefficiency of DPF; under RDP it still charges tasks for demand at
/// orders that will never matter, which is the gap DPack's best-alpha
/// focus closes (§3.2). Kept as a standalone scheduler for the ablation
/// benches.
#[derive(Debug, Clone, Copy, Default)]
pub struct GreedyArea;

impl Scheduler for GreedyArea {
    fn name(&self) -> &'static str {
        "GreedyArea"
    }

    fn schedule(&self, state: &ProblemState) -> Allocation {
        let started = Instant::now();
        let dense = state.dense();
        let eff: Vec<f64> = (0..dense.n_tasks())
            .map(|t| {
                let mut denom = 0.0;
                for &j in dense.blocks_of(t) {
                    let mut usable = false;
                    for (d, c) in dense.demand(t).iter().zip(dense.capacity(j as usize)) {
                        if *c > 0.0 {
                            usable = true;
                            denom += d / c;
                        }
                    }
                    if !usable {
                        return 0.0;
                    }
                }
                if denom == 0.0 {
                    f64::INFINITY
                } else {
                    dense.weight(t) / denom
                }
            })
            .collect();
        allocate(state, &eff, PackingRule::Skip, started)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{Block, ProblemState, Task};
    use dp_accounting::{AlphaGrid, RdpCurve};

    #[test]
    fn fixes_fig1_but_not_fig3() {
        // On Fig. 1 (traditional DP) the area metric recovers the
        // efficient allocation...
        let fig1 = crate::scenarios::fig1_state();
        assert_eq!(GreedyArea.schedule(&fig1).scheduled.len(), 3);
        // ...but on Fig. 3 (RDP) it cannot reach DPack's 4 tasks because
        // it charges tasks at non-best orders too. (It still does no
        // worse than DPF's 2.)
        let fig3 = crate::scenarios::fig3_state();
        let n = GreedyArea.schedule(&fig3).scheduled.len();
        assert!((2..=4).contains(&n));
    }

    #[test]
    fn area_beats_dominant_share_on_heterogeneous_block_counts() {
        let g = AlphaGrid::single(2.0).unwrap();
        let blocks: Vec<Block> = (0..4)
            .map(|i| Block::new(i, RdpCurve::constant(&g, 1.0), 0.0))
            .collect();
        // One task wants everything at 0.55; four tasks want one block
        // each at 0.6.
        let mut tasks = vec![Task::new(
            0,
            1.0,
            vec![0, 1, 2, 3],
            RdpCurve::constant(&g, 0.55),
            0.0,
        )];
        for i in 0..4u64 {
            tasks.push(Task::new(
                i + 1,
                1.0,
                vec![i],
                RdpCurve::constant(&g, 0.6),
                0.0,
            ));
        }
        let state = ProblemState::new(g, blocks, tasks).unwrap();
        let area = GreedyArea.schedule(&state);
        assert_eq!(area.scheduled.len(), 4);
        let dpf = crate::schedulers::Dpf.schedule(&state);
        assert_eq!(dpf.scheduled.len(), 1);
    }
}
