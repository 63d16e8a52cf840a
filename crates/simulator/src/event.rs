//! The replay's event order: every event of a workload, sorted once.

use dpack_core::problem::{Block, Task};
use workloads::OnlineWorkload;

use crate::SimulationConfig;

/// One event of a workload replay, handed to the backend callback by
/// [`replay_workload`].
#[derive(Debug, Clone, Copy)]
pub enum ReplayEvent<'a> {
    /// A block becomes available.
    Block(&'a Block),
    /// A task is submitted.
    Task(&'a Task),
    /// A scheduling step runs at the given virtual time.
    Tick(f64),
}

impl ReplayEvent<'_> {
    /// The event's time and its priority *within* one timestamp: blocks,
    /// then tasks, then the tick, so arrivals are visible to the tick at
    /// the same instant.
    fn time_and_rank(&self) -> (f64, u8) {
        match *self {
            ReplayEvent::Block(b) => (b.arrival, 0),
            ReplayEvent::Task(t) => (t.arrival, 1),
            ReplayEvent::Tick(now) => (now, 2),
        }
    }
}

/// Drives a workload's deterministic event loop — block arrivals, task
/// arrivals, scheduling ticks every `T` until the drain horizon — and
/// hands each event to `on_event` in simulation order: by time, then
/// blocks before tasks before the tick, then in workload order. Shared
/// by every backend so replays cannot drift.
///
/// # Panics
///
/// Panics on a negative or non-finite event time (virtual time starts
/// at 0).
pub fn replay_workload<F: FnMut(ReplayEvent<'_>)>(
    workload: &OnlineWorkload,
    config: &SimulationConfig,
    on_event: F,
) {
    let last_arrival = workload
        .blocks
        .iter()
        .map(|b| b.arrival)
        .chain(workload.tasks.iter().map(|t| t.arrival))
        .fold(0.0f64, f64::max);
    let horizon = last_arrival + config.drain_steps as f64 * config.scheduling_period;
    let ticks = std::iter::successors(Some(config.scheduling_period), |t| {
        Some(t + config.scheduling_period)
    })
    .take_while(|&t| t <= horizon);
    let mut events: Vec<ReplayEvent<'_>> = (workload.blocks.iter().map(ReplayEvent::Block))
        .chain(workload.tasks.iter().map(ReplayEvent::Task))
        .chain(ticks.map(ReplayEvent::Tick))
        .collect();
    for (time, _) in events.iter().map(ReplayEvent::time_and_rank) {
        assert!(
            time.is_finite() && time >= 0.0,
            "event time must be finite and >= 0 (got {time})"
        );
    }
    // `to_bits` orders non-negative finite times as the times do; the
    // sort is stable, so workload order breaks the remaining ties.
    events.sort_by_key(|e| {
        let (time, rank) = e.time_and_rank();
        (time.to_bits(), rank)
    });
    events.into_iter().for_each(on_event);
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_accounting::{AlphaGrid, RdpCurve};

    /// The events a replay of these (id, arrival) blocks and tasks hands
    /// out, with ticks every `period` up to the last arrival: (kind, id)
    /// for an arrival, ('T', time) for a tick.
    fn replayed(blocks: &[(u64, f64)], tasks: &[(u64, f64)], period: f64) -> Vec<(char, f64)> {
        let grid = AlphaGrid::single(2.0).unwrap();
        let curve = RdpCurve::constant(&grid, 1.0);
        let workload = OnlineWorkload {
            blocks: blocks
                .iter()
                .map(|&(id, at)| Block::new(id, curve.clone(), at))
                .collect(),
            tasks: tasks
                .iter()
                .map(|&(id, at)| Task::new(id, 1.0, vec![0], curve.clone(), at))
                .collect(),
            grid,
        };
        let config = SimulationConfig {
            scheduling_period: period,
            drain_steps: 0,
            ..SimulationConfig::default()
        };
        let mut out = Vec::new();
        replay_workload(&workload, &config, |e| {
            out.push(match e {
                ReplayEvent::Block(b) => ('b', b.id as f64),
                ReplayEvent::Task(t) => ('t', t.id as f64),
                ReplayEvent::Tick(now) => ('T', now),
            })
        });
        out
    }

    #[test]
    fn pops_in_time_order() {
        // Block 1 at 0.5, the one tick at 1.0, task 0 at 1.5.
        assert_eq!(
            replayed(&[(1, 0.5)], &[(0, 1.5)], 1.0),
            [('b', 1.0), ('T', 1.0), ('t', 0.0)]
        );
    }

    #[test]
    fn same_time_orders_blocks_tasks_tick() {
        assert_eq!(
            replayed(&[(2, 1.0)], &[(3, 1.0)], 1.0),
            [('b', 2.0), ('t', 3.0), ('T', 1.0)]
        );
    }

    #[test]
    fn insertion_order_breaks_remaining_ties() {
        assert_eq!(
            replayed(&[], &[(8, 1.0), (7, 1.0)], 1.0),
            [('t', 8.0), ('t', 7.0), ('T', 1.0)]
        );
    }

    #[test]
    #[should_panic(expected = "event time")]
    fn rejects_negative_time() {
        replayed(&[(0, -1.0)], &[], 1.0);
    }
}
