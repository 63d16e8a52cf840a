//! Discrete-event simulator for online privacy-budget scheduling.
//!
//! The Rust counterpart of the paper's Python/simpy simulator (§5): a
//! virtual clock in *block inter-arrival periods*, an event heap over
//! block arrivals, task arrivals, and scheduling ticks every `T`, all
//! driving the [`dpack_core::online::OnlineEngine`]. Deterministic: ties
//! in event time are broken by event kind (blocks, then tasks, then the
//! tick) and then by insertion order.
//!
//! # Examples
//!
//! ```
//! use simulator::{SimulationConfig, simulate};
//! use dpack_core::schedulers::DPack;
//! use workloads::amazon::{self, AmazonConfig};
//!
//! let wl = amazon::generate(&AmazonConfig {
//!     n_blocks: 10,
//!     mean_tasks_per_block: 20.0,
//!     ..Default::default()
//! }, 1);
//! let result = simulate(&wl, DPack::default(), &SimulationConfig::default());
//! assert!(result.allocated() > 0);
//! ```

pub mod event;
pub mod result;
pub mod service_backend;

pub use event::{Event, EventKind, EventQueue};
pub use result::SimulationResult;
pub use service_backend::{simulate_service, simulate_service_durable};

use std::time::Instant;

use dpack_core::online::{OnlineConfig, OnlineEngine};
use dpack_core::problem::{Block, Task};
use dpack_core::schedulers::Scheduler;
use workloads::OnlineWorkload;

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

/// Drives a workload's deterministic event loop — block arrivals, task
/// arrivals, scheduling ticks every `T` until the drain horizon — and
/// hands each event to `on_event` in simulation order. Shared by the
/// engine and service backends so the two replays cannot drift.
pub fn replay_workload<F: FnMut(ReplayEvent<'_>)>(
    workload: &OnlineWorkload,
    config: &SimulationConfig,
    mut on_event: F,
) {
    let mut queue = EventQueue::new();
    for (i, b) in workload.blocks.iter().enumerate() {
        queue.push(b.arrival, EventKind::BlockArrival(i));
    }
    for (i, t) in workload.tasks.iter().enumerate() {
        queue.push(t.arrival, EventKind::TaskArrival(i));
    }
    // Scheduling ticks from T until the horizon.
    let last_arrival = workload
        .blocks
        .iter()
        .map(|b| b.arrival)
        .chain(workload.tasks.iter().map(|t| t.arrival))
        .fold(0.0f64, f64::max);
    let horizon = last_arrival + config.drain_steps as f64 * config.scheduling_period;
    let mut t = config.scheduling_period;
    while t <= horizon {
        queue.push(t, EventKind::ScheduleTick);
        t += config.scheduling_period;
    }

    while let Some(ev) = queue.pop() {
        match ev.kind {
            EventKind::BlockArrival(i) => on_event(ReplayEvent::Block(&workload.blocks[i])),
            EventKind::TaskArrival(i) => on_event(ReplayEvent::Task(&workload.tasks[i])),
            EventKind::ScheduleTick => on_event(ReplayEvent::Tick(ev.time)),
        }
    }
}

/// Simulation parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimulationConfig {
    /// Scheduling period `T` in virtual time units.
    pub scheduling_period: f64,
    /// Unlocking steps `N` (§3.4).
    pub unlock_steps: u32,
    /// Default task timeout; `None` keeps tasks queued forever.
    pub task_timeout: Option<f64>,
    /// Extra scheduling ticks after the last arrival, so queued tasks
    /// see fully unlocked budget before the run ends.
    pub drain_steps: u32,
}

impl Default for SimulationConfig {
    fn default() -> Self {
        Self {
            scheduling_period: 1.0,
            unlock_steps: 50,
            task_timeout: None,
            drain_steps: 55,
        }
    }
}

/// Runs a workload to completion under one scheduler.
///
/// # Panics
///
/// Panics if the workload is internally inconsistent (tasks referencing
/// blocks that never arrive) or if a privacy filter rejects a scheduled
/// task — the budget-soundness invariant.
pub fn simulate<S: Scheduler>(
    workload: &OnlineWorkload,
    scheduler: S,
    config: &SimulationConfig,
) -> SimulationResult {
    let started = Instant::now();
    let mut engine = OnlineEngine::new(
        scheduler,
        workload.grid.clone(),
        OnlineConfig {
            scheduling_period: config.scheduling_period,
            unlock_period: 1.0,
            unlock_steps: config.unlock_steps,
            default_timeout: config.task_timeout,
        },
    );

    replay_workload(workload, config, |event| match event {
        ReplayEvent::Block(b) => {
            engine
                .add_block(b.clone())
                .expect("workload blocks are unique and on the grid");
        }
        ReplayEvent::Task(t) => {
            engine
                .submit_task(t.clone())
                .expect("workload tasks reference arrived blocks");
        }
        ReplayEvent::Tick(now) => {
            engine.run_step(now).expect("budget-soundness invariant");
        }
    });

    let final_pending = engine.pending().len();
    let total_capacities = engine.total_capacities();
    SimulationResult {
        stats: engine.into_stats(),
        n_submitted: workload.tasks.len(),
        final_pending,
        total_capacities,
        wall_time: started.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_accounting::{AlphaGrid, RdpCurve};
    use dpack_core::problem::{Block, Task};
    use dpack_core::schedulers::{DPack, Dpf, Fcfs};

    /// A tiny hand-built workload: 3 blocks, tasks that all fit.
    fn tiny_workload() -> OnlineWorkload {
        let grid = AlphaGrid::new(vec![4.0, 16.0]).unwrap();
        let cap = RdpCurve::constant(&grid, 1.0);
        let blocks: Vec<Block> = (0..3u64)
            .map(|j| Block::new(j, cap.clone(), j as f64))
            .collect();
        let tasks: Vec<Task> = (0..6u64)
            .map(|i| {
                let arrival = 0.2 + i as f64 * 0.4;
                let newest = (arrival.floor() as u64).min(2);
                Task::new(
                    i,
                    1.0,
                    vec![newest],
                    RdpCurve::constant(&grid, 0.25),
                    arrival,
                )
            })
            .collect();
        OnlineWorkload {
            grid,
            blocks,
            tasks,
        }
    }

    #[test]
    fn all_feasible_tasks_eventually_run() {
        let wl = tiny_workload();
        let cfg = SimulationConfig {
            unlock_steps: 2,
            drain_steps: 5,
            ..Default::default()
        };
        let r = simulate(&wl, DPack::default(), &cfg);
        assert_eq!(r.allocated(), 6);
        assert_eq!(r.final_pending, 0);
        assert_eq!(r.n_submitted, 6);
    }

    #[test]
    fn contended_workload_allocates_subset() {
        let grid = AlphaGrid::single(2.0).unwrap();
        let cap = RdpCurve::constant(&grid, 1.0);
        let blocks = vec![Block::new(0, cap, 0.0)];
        let tasks: Vec<Task> = (0..10u64)
            .map(|i| {
                Task::new(
                    i,
                    1.0,
                    vec![0],
                    RdpCurve::constant(&grid, 0.3),
                    0.1 * i as f64,
                )
            })
            .collect();
        let wl = OnlineWorkload {
            grid,
            blocks,
            tasks,
        };
        let cfg = SimulationConfig {
            unlock_steps: 1,
            drain_steps: 3,
            ..Default::default()
        };
        let r = simulate(&wl, Fcfs, &cfg);
        assert_eq!(r.allocated(), 3); // 3 × 0.3 ≤ 1.0 < 4 × 0.3.
        assert_eq!(r.final_pending, 7);
    }

    #[test]
    fn unlocking_delays_allocation() {
        let wl = tiny_workload();
        let eager = simulate(
            &wl,
            DPack::default(),
            &SimulationConfig {
                unlock_steps: 1,
                drain_steps: 3,
                ..Default::default()
            },
        );
        let slow = simulate(
            &wl,
            DPack::default(),
            &SimulationConfig {
                unlock_steps: 8,
                drain_steps: 12,
                ..Default::default()
            },
        );
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        assert!(
            mean(&slow.stats.delays()) >= mean(&eager.stats.delays()),
            "slower unlocking should not reduce delay"
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let wl = tiny_workload();
        let cfg = SimulationConfig::default();
        let a = simulate(&wl, Dpf, &cfg);
        let b = simulate(&wl, Dpf, &cfg);
        assert_eq!(a.stats.allocated, b.stats.allocated);
    }

    #[test]
    fn larger_t_batches_more() {
        // With T = 10 all tasks of the tiny workload are scheduled in one
        // batch at t = 10.
        let wl = tiny_workload();
        let cfg = SimulationConfig {
            scheduling_period: 10.0,
            unlock_steps: 1,
            drain_steps: 2,
            ..Default::default()
        };
        let r = simulate(&wl, DPack::default(), &cfg);
        assert_eq!(r.allocated(), 6);
        assert!(r
            .stats
            .allocated
            .iter()
            .all(|a| (a.allocated_at - 10.0).abs() < 1e-9));
    }
}
