//! Compute-aware privacy scheduling (§8 of the paper, future work).
//!
//! The paper closes by calling out "better scheduling of traditional
//! computing resources alongside privacy blocks". This module provides
//! that extension: a [`ComputeAwareScheduler`] wraps any privacy
//! scheduler and additionally enforces a per-round CPU/GPU capacity.
//!
//! The two resources compose asymmetrically:
//!
//! * **privacy budget is non-renewable** — once consumed it is gone, so
//!   the inner scheduler's efficiency ordering decides *who ever runs*;
//! * **compute is renewable** — a task deferred for lack of GPUs simply
//!   stays pending and competes again next round, with the compute
//!   capacity reset.
//!
//! The wrapper therefore takes the inner scheduler's (privacy-feasible)
//! allocation order and truncates it greedily against the compute
//! capacity. Dropping tasks from a privacy-feasible allocation never
//! breaks privacy feasibility (demands are non-negative), so the result
//! remains sound; deferred tasks are retried by the online engine on
//! later rounds.

use std::time::Instant;

use dp_accounting::fits;

use crate::problem::{Allocation, ProblemState, Task};
use crate::schedulers::Scheduler;

/// CPU/GPU demand of one task, in abstract slot units.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ComputeDemand {
    /// CPU slots held while the task runs.
    pub cpu: f64,
    /// GPU slots held while the task runs.
    pub gpu: f64,
}

impl ComputeDemand {
    /// A CPU-only demand.
    pub fn cpu(cpu: f64) -> Self {
        Self { cpu, gpu: 0.0 }
    }

    /// A GPU (plus host CPU) demand.
    pub fn gpu(cpu: f64, gpu: f64) -> Self {
        Self { cpu, gpu }
    }
}

/// Per-round compute capacity of the cluster.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComputeCapacity {
    /// Total CPU slots per scheduling round.
    pub cpu: f64,
    /// Total GPU slots per scheduling round.
    pub gpu: f64,
}

impl ComputeCapacity {
    /// Creates a capacity; both axes must be finite and non-negative.
    ///
    /// # Panics
    ///
    /// Panics on negative or non-finite capacities.
    pub fn new(cpu: f64, gpu: f64) -> Self {
        assert!(
            cpu.is_finite() && cpu >= 0.0 && gpu.is_finite() && gpu >= 0.0,
            "compute capacities must be finite and >= 0 (got cpu={cpu}, gpu={gpu})"
        );
        Self { cpu, gpu }
    }

    fn admits(&self, used: ComputeDemand, extra: ComputeDemand) -> bool {
        fits(used.cpu + extra.cpu, self.cpu) && fits(used.gpu + extra.gpu, self.gpu)
    }
}

/// A scheduler that respects both privacy budgets and per-round compute
/// capacity.
///
/// # Examples
///
/// ```
/// use dpack_core::compute::{ComputeAwareScheduler, ComputeCapacity, ComputeDemand};
/// use dpack_core::scenarios::fig1_state;
/// use dpack_core::schedulers::{DPack, Scheduler};
///
/// // Enough compute for only two of DPack's three picks per round.
/// let sched = ComputeAwareScheduler::new(
///     DPack::default(),
///     ComputeCapacity::new(2.0, 0.0),
///     |_task| ComputeDemand::cpu(1.0),
/// );
/// let allocation = sched.schedule(&fig1_state());
/// assert_eq!(allocation.scheduled.len(), 2);
/// ```
pub struct ComputeAwareScheduler<S, F> {
    inner: S,
    capacity: ComputeCapacity,
    demand_of: F,
}

impl<S, F> ComputeAwareScheduler<S, F>
where
    S: Scheduler,
    F: Fn(&Task) -> ComputeDemand + Send + Sync,
{
    /// Wraps `inner` with a compute capacity and a per-task compute
    /// demand function (typically derived from task metadata, e.g. the
    /// Alibaba machine type).
    pub fn new(inner: S, capacity: ComputeCapacity, demand_of: F) -> Self {
        Self {
            inner,
            capacity,
            demand_of,
        }
    }

    /// The wrapped scheduler.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// The per-round compute capacity.
    pub fn capacity(&self) -> ComputeCapacity {
        self.capacity
    }
}

impl<S, F> Scheduler for ComputeAwareScheduler<S, F>
where
    S: Scheduler,
    F: Fn(&Task) -> ComputeDemand + Send + Sync,
{
    fn name(&self) -> &'static str {
        "ComputeAware"
    }

    fn schedule(&self, state: &ProblemState) -> Allocation {
        let started = Instant::now();
        let privacy_allocation = self.inner.schedule(state);
        let mut used = ComputeDemand::default();
        let mut scheduled = Vec::new();
        let mut total_weight = 0.0;
        for id in privacy_allocation.scheduled {
            let task = state.task(id).expect("inner scheduled a known task");
            let demand = (self.demand_of)(task);
            if self.capacity.admits(used, demand) {
                used.cpu += demand.cpu;
                used.gpu += demand.gpu;
                total_weight += task.weight;
                scheduled.push(id);
            }
            // Else: deferred — compute renews next round, privacy does
            // not need to be released because the task never consumed it.
        }
        Allocation {
            scheduled,
            total_weight,
            runtime: started.elapsed(),
            proven_optimal: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::online::{OnlineConfig, OnlineEngine};
    use crate::problem::{Block, ProblemState};
    use crate::scenarios::fig1_state;
    use crate::schedulers::DPack;
    use dp_accounting::{AlphaGrid, RdpCurve};

    #[test]
    fn compute_cap_truncates_a_round() {
        let sched =
            ComputeAwareScheduler::new(DPack::default(), ComputeCapacity::new(2.0, 0.0), |_| {
                ComputeDemand::cpu(1.0)
            });
        let a = sched.schedule(&fig1_state());
        assert_eq!(a.scheduled.len(), 2); // DPack alone packs 3.
    }

    #[test]
    fn unlimited_compute_is_transparent() {
        let sched = ComputeAwareScheduler::new(
            DPack::default(),
            ComputeCapacity::new(f64::MAX, f64::MAX),
            |_| ComputeDemand::gpu(1.0, 1.0),
        );
        let state = fig1_state();
        assert_eq!(
            sched.schedule(&state).scheduled,
            DPack::default().schedule(&state).scheduled
        );
    }

    #[test]
    fn gpu_scarcity_only_defers_gpu_tasks() {
        // Odd ids are GPU tasks; with zero GPUs, only CPU tasks run.
        let sched =
            ComputeAwareScheduler::new(DPack::default(), ComputeCapacity::new(100.0, 0.0), |t| {
                if t.id % 2 == 1 {
                    ComputeDemand::gpu(1.0, 1.0)
                } else {
                    ComputeDemand::cpu(1.0)
                }
            });
        let g = AlphaGrid::single(2.0).unwrap();
        let blocks = vec![Block::new(0, RdpCurve::constant(&g, 10.0), 0.0)];
        let tasks: Vec<Task> = (0..6u64)
            .map(|i| Task::new(i, 1.0, vec![0], RdpCurve::constant(&g, 0.5), 0.0))
            .collect();
        let state = ProblemState::new(g, blocks, tasks).unwrap();
        let a = sched.schedule(&state);
        assert_eq!(a.scheduled, vec![0, 2, 4]);
    }

    #[test]
    fn deferred_tasks_run_in_later_rounds() {
        // Compute renews each round: with capacity 1 per round, the
        // three feasible tasks run over three rounds.
        let g = AlphaGrid::single(2.0).unwrap();
        let sched =
            ComputeAwareScheduler::new(DPack::default(), ComputeCapacity::new(1.0, 0.0), |_| {
                ComputeDemand::cpu(1.0)
            });
        let mut engine = OnlineEngine::new(
            sched,
            g.clone(),
            OnlineConfig {
                scheduling_period: 1.0,
                unlock_period: 1.0,
                unlock_steps: 1,
                default_timeout: None,
            },
        );
        engine
            .add_block(Block::new(0, RdpCurve::constant(&g, 1.0), 0.0))
            .unwrap();
        for i in 0..3u64 {
            engine
                .submit_task(Task::new(i, 1.0, vec![0], RdpCurve::constant(&g, 0.3), 0.0))
                .unwrap();
        }
        for step in 1..=3 {
            let a = engine.run_step(step as f64).unwrap();
            assert_eq!(a.scheduled.len(), 1, "round {step}");
        }
        assert_eq!(engine.stats().allocated.len(), 3);
    }

    #[test]
    #[should_panic(expected = "compute capacities")]
    fn negative_capacity_rejected() {
        ComputeCapacity::new(-1.0, 0.0);
    }

    #[test]
    fn weighted_totals_reflect_truncation() {
        let g = AlphaGrid::single(2.0).unwrap();
        let blocks = vec![Block::new(0, RdpCurve::constant(&g, 10.0), 0.0)];
        let tasks = vec![
            Task::new(0, 5.0, vec![0], RdpCurve::constant(&g, 0.1), 0.0),
            Task::new(1, 3.0, vec![0], RdpCurve::constant(&g, 0.1), 0.0),
        ];
        let state = ProblemState::new(g, blocks, tasks).unwrap();
        let sched =
            ComputeAwareScheduler::new(DPack::default(), ComputeCapacity::new(1.0, 0.0), |_| {
                ComputeDemand::cpu(1.0)
            });
        let a = sched.schedule(&state);
        assert_eq!(a.scheduled.len(), 1);
        assert_eq!(a.total_weight, 5.0);
    }
}
