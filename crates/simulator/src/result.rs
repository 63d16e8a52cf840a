//! Simulation results and derived metrics.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;

use dp_accounting::RdpCurve;
use dpack_core::metrics::{fairness_report, FairnessReport};
use dpack_core::online::OnlineStats;
use dpack_core::problem::{BlockId, Task, TaskId};

/// The outcome of one simulated run.
#[derive(Debug, Clone)]
pub struct SimulationResult {
    /// The run's statistics (allocations with delays, evictions,
    /// scheduler runtime, step count).
    pub stats: OnlineStats,
    /// Number of submitted tasks.
    pub n_submitted: usize,
    /// Tasks still queued when the run ended.
    pub final_pending: usize,
    /// Total (initial) capacities of all blocks, for fairness analysis.
    pub total_capacities: BTreeMap<BlockId, RdpCurve>,
    /// Wall-clock duration of the whole simulation.
    pub wall_time: Duration,
}

impl SimulationResult {
    /// Number of allocated tasks (the paper's unweighted global
    /// efficiency).
    pub fn allocated(&self) -> usize {
        self.stats.allocated.len()
    }

    /// Sum of allocated weights (the weighted global efficiency).
    pub fn total_weight(&self) -> f64 {
        self.stats.total_weight()
    }

    /// The ids of allocated tasks.
    pub fn allocated_ids(&self) -> BTreeSet<TaskId> {
        self.stats.allocated.iter().map(|a| a.id).collect()
    }

    /// Mean scheduling delay in virtual time; `None` if nothing ran.
    pub fn mean_delay(&self) -> Option<f64> {
        let d = self.stats.delays();
        (!d.is_empty()).then(|| d.iter().sum::<f64>() / d.len() as f64)
    }

    /// The §6.3 fairness report for this run against the workload's full
    /// task list.
    pub fn fairness(&self, workload_tasks: &[Task], n_fair: u32) -> FairnessReport {
        fairness_report(
            workload_tasks,
            &self.allocated_ids(),
            &self.total_capacities,
            n_fair,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_accounting::AlphaGrid;
    use dpack_core::online::AllocatedTask;

    #[test]
    fn derived_metrics() {
        let grid = AlphaGrid::single(2.0).unwrap();
        let mut caps = BTreeMap::new();
        caps.insert(0u64, RdpCurve::constant(&grid, 10.0));
        let stats = OnlineStats {
            allocated: vec![
                AllocatedTask {
                    id: 0,
                    weight: 2.0,
                    arrival: 0.0,
                    allocated_at: 1.0,
                },
                AllocatedTask {
                    id: 1,
                    weight: 3.0,
                    arrival: 0.5,
                    allocated_at: 2.0,
                },
            ],
            evicted: vec![],
            scheduler_runtime: Duration::ZERO,
            steps: 2,
        };
        let r = SimulationResult {
            stats,
            n_submitted: 3,
            final_pending: 1,
            total_capacities: caps,
            wall_time: Duration::ZERO,
        };
        assert_eq!(r.allocated(), 2);
        assert_eq!(r.total_weight(), 5.0);
        assert_eq!(r.mean_delay(), Some(1.25));
        assert_eq!(r.allocated_ids().len(), 2);
    }
}
