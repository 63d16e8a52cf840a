//! First-come-first-serve (the online baseline of §6.1).

use std::time::Instant;

use crate::problem::{Allocation, PackingRule, ProblemState};
use crate::schedulers::{finish_allocation, Scheduler};

/// Allocates tasks strictly in arrival order (ties by id), skipping any
/// task that no longer fits. No prioritization of low-demand tasks —
/// which is why FCFS flatlines as load grows (Fig. 6). A state that is
/// [`ProblemState::in_arrival_order`] is taken in index order, unsorted.
#[derive(Debug, Clone, Copy, Default)]
pub struct Fcfs;

impl Scheduler for Fcfs {
    fn name(&self) -> &'static str {
        "FCFS"
    }

    fn schedule(&self, state: &ProblemState) -> Allocation {
        let started = Instant::now();
        let tasks = state.tasks();
        let mut order: Vec<usize> = (0..tasks.len()).collect();
        if !state.in_arrival_order() {
            order.sort_unstable_by_key(|&i| (tasks[i].arrival_key(), i));
        }
        let taken = state.dense().pack(&order, PackingRule::Skip);
        finish_allocation(state, &taken, started, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{Block, ProblemState, Task};
    use dp_accounting::{AlphaGrid, RdpCurve};

    #[test]
    fn allocates_in_arrival_order() {
        let g = AlphaGrid::single(2.0).unwrap();
        let blocks = vec![Block::new(0, RdpCurve::constant(&g, 1.0), 0.0)];
        let tasks = vec![
            Task::new(0, 1.0, vec![0], RdpCurve::constant(&g, 0.7), 2.0),
            Task::new(1, 1.0, vec![0], RdpCurve::constant(&g, 0.7), 1.0),
            Task::new(2, 1.0, vec![0], RdpCurve::constant(&g, 0.2), 3.0),
        ];
        let state = ProblemState::new(g, blocks, tasks).unwrap();
        let alloc = Fcfs.schedule(&state);
        // Task 1 arrived first and takes 0.7; task 0 no longer fits;
        // task 2 squeezes in.
        assert_eq!(alloc.scheduled, vec![1, 2]);
    }

    #[test]
    fn ignores_efficiency_entirely() {
        // FCFS schedules the early expensive task even when two later
        // cheap tasks would fit instead.
        let g = AlphaGrid::single(2.0).unwrap();
        let blocks = vec![Block::new(0, RdpCurve::constant(&g, 1.0), 0.0)];
        let tasks = vec![
            Task::new(0, 1.0, vec![0], RdpCurve::constant(&g, 0.9), 0.0),
            Task::new(1, 1.0, vec![0], RdpCurve::constant(&g, 0.5), 1.0),
            Task::new(2, 1.0, vec![0], RdpCurve::constant(&g, 0.5), 1.0),
        ];
        let state = ProblemState::new(g, blocks, tasks).unwrap();
        assert_eq!(Fcfs.schedule(&state).scheduled, vec![0]);
        assert_eq!(
            crate::schedulers::DPack::default()
                .schedule(&state)
                .scheduled
                .len(),
            2
        );
    }
}
