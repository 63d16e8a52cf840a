//! Discrete-event simulator for online privacy-budget scheduling.
//!
//! The Rust counterpart of the paper's Python/simpy simulator (§5): a
//! virtual clock in *block inter-arrival periods*, and one replay loop,
//! [`replay_workload`], over block arrivals, task arrivals and
//! scheduling ticks every `T`. [`simulate_service`] replays a workload
//! on the budget service — the product, which every online panel of the
//! paper runs on. [`simulate`] replays it on
//! [`dpack_core::online::OnlineEngine`], the plain reference model the
//! equivalence tests hold the service to. Deterministic: ties in event
//! time are broken by event kind (blocks, then tasks, then the tick)
//! and then by workload order.
//!
//! # Examples
//!
//! ```
//! use dpack_service::ServiceConfig;
//! use simulator::{simulate_service, SimulationConfig};
//! use workloads::amazon::{self, AmazonConfig};
//!
//! let wl = amazon::generate(&AmazonConfig {
//!     n_blocks: 10,
//!     mean_tasks_per_block: 20.0,
//!     ..Default::default()
//! }, 1);
//! let result = simulate_service(&wl, &ServiceConfig::default(), &SimulationConfig::default());
//! assert!(result.allocated() > 0);
//! ```

pub mod event;
pub mod result;
pub mod service_backend;

pub use event::{replay_workload, ReplayEvent};
pub use result::SimulationResult;
pub use service_backend::{simulate_service, simulate_service_durable};

use std::time::Instant;

use dpack_core::online::{OnlineConfig, OnlineEngine};
use dpack_core::schedulers::Scheduler;
use workloads::OnlineWorkload;

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

/// Runs a workload to completion on the [`OnlineEngine`] reference
/// model under one scheduler: what the equivalence tests compare
/// [`simulate_service`] against.
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
        ReplayEvent::Block(b) => engine
            .add_block(b.clone())
            .expect("unique block on the grid"),
        ReplayEvent::Task(t) => engine
            .submit_task(t.clone())
            .expect("task on arrived blocks"),
        ReplayEvent::Tick(now) => drop(engine.run_step(now).expect("budget-soundness invariant")),
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
    use dpack_service::{SchedulerChoice, ServiceConfig};

    /// The replay on the service, at its default sharding.
    fn run(
        wl: &OnlineWorkload,
        scheduler: SchedulerChoice,
        cfg: &SimulationConfig,
    ) -> SimulationResult {
        simulate_service(
            wl,
            &ServiceConfig {
                scheduler,
                ..ServiceConfig::default()
            },
            cfg,
        )
    }

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
        let r = run(&wl, SchedulerChoice::DPack, &cfg);
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
        let r = run(&wl, SchedulerChoice::Fcfs, &cfg);
        assert_eq!(r.allocated(), 3); // 3 × 0.3 ≤ 1.0 < 4 × 0.3.
        assert_eq!(r.final_pending, 7);
    }

    #[test]
    fn unlocking_delays_allocation() {
        let wl = tiny_workload();
        let eager = run(
            &wl,
            SchedulerChoice::DPack,
            &SimulationConfig {
                unlock_steps: 1,
                drain_steps: 3,
                ..Default::default()
            },
        );
        let slow = run(
            &wl,
            SchedulerChoice::DPack,
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
        let a = run(&wl, SchedulerChoice::Dpf, &cfg);
        let b = run(&wl, SchedulerChoice::Dpf, &cfg);
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
        let r = run(&wl, SchedulerChoice::DPack, &cfg);
        assert_eq!(r.allocated(), 6);
        assert!(r
            .stats
            .allocated
            .iter()
            .all(|a| (a.allocated_at - 10.0).abs() < 1e-9));
    }
}
