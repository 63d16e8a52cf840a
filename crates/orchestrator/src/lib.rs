//! A PrivateKube-like orchestrator substrate.
//!
//! The paper's Q4 evaluation (§6.4) runs DPack inside Kubernetes, where
//! "system-related overheads dominate runtime" and the scheduler is
//! parallelized. Kubernetes is not available in this reproduction
//! environment, so this crate provides the substitution documented in
//! DESIGN.md (#2): a multithreaded orchestrator service with
//!
//! * a submission channel (standing in for the API server's task CRDs),
//! * a block registry behind the same privacy filters as the simulator,
//! * a configurable [`LatencyModel`] injecting per-operation service
//!   latencies (list/watch, status writes, commit round-trips), and
//! * [`parallel::ParallelDPack`] / [`parallel::ParallelDpf`] scheduler
//!   wrappers that run `dpack-core`'s kernels with a thread count — the
//!   per-order best-alpha passes and per-task shares fan out over
//!   `std::thread::scope` workers, as the Go implementation does with
//!   goroutines.
//!
//! The scheduling *decisions* are bit-identical to the single-threaded
//! `dpack-core` schedulers — parallelism and latency only affect the
//! measured runtimes, which is precisely what Fig. 8 and Tab. 2 study.

pub mod driver;
pub mod latency;
pub mod parallel;
pub mod service;

pub use driver::CycleLoop;
pub use latency::LatencyModel;
pub use parallel::{ParallelDPack, ParallelDpf};
pub use service::{CycleReport, Orchestrator, OrchestratorConfig, OrchestratorService};

#[cfg(test)]
mod tests {
    use super::*;
    use dp_accounting::{AlphaGrid, RdpCurve};
    use dpack_core::problem::{Block, Task};

    #[test]
    fn end_to_end_cycle_matches_engine_semantics() {
        let grid = AlphaGrid::new(vec![4.0, 16.0]).unwrap();
        let config = OrchestratorConfig {
            scheduling_period: 1.0,
            unlock_steps: 1,
            latency: LatencyModel::zero(),
            threads: 2,
        };
        let mut orch = Orchestrator::new(
            ParallelDPack::new(Default::default(), 2),
            grid.clone(),
            config,
        );
        orch.register_block(Block::new(0, RdpCurve::constant(&grid, 1.0), 0.0))
            .unwrap();
        for i in 0..5u64 {
            orch.submit(Task::new(
                i,
                1.0,
                vec![0],
                RdpCurve::constant(&grid, 0.4),
                0.0,
            ))
            .unwrap();
        }
        let report = orch.run_cycle(1.0).unwrap();
        assert_eq!(report.allocation.scheduled.len(), 2); // 2 × 0.4 ≤ 1.0.
        assert_eq!(orch.stats().allocated.len(), 2);
    }
}
