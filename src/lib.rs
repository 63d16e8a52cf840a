//! DPack: efficiency-oriented privacy budget scheduling, in Rust.
//!
//! This is the umbrella crate of the workspace — a from-scratch
//! reproduction of *DPack: Efficiency-Oriented Privacy Budget
//! Scheduling* (EuroSys '25). It re-exports the member crates and a
//! [`prelude`] for downstream users.
//!
//! * [`accounting`] — RDP curves, mechanisms, conversion, privacy
//!   filters, executable DP mechanisms and a miniature DP-SGD trainer.
//! * [`solvers`] — knapsack machinery, including the exact privacy
//!   knapsack (Eq. 5) replacing the paper's Gurobi baseline.
//! * [`core`] — the schedulers (DPack, DPF, FCFS, greedy-area, Optimal,
//!   and `ParallelDPack`, DPack with a thread count) and the §3.4
//!   online engine, the plain reference model the service is tested
//!   against.
//! * [`gen`] — the microbenchmark, Alibaba-DP and Amazon Reviews
//!   workload generators.
//! * [`sim`] — the discrete-event simulator: one replay loop, which
//!   drives the service (or, in the equivalence tests, the engine).
//! * [`service`] — the sharded, concurrent budget service: striped
//!   ledger, bounded multi-tenant admission queue, batched scheduling
//!   loop with two-phase cross-shard commits. Every online experiment
//!   of §6 (Figs. 6–9, Tab. 2 and the fairness study) runs on it.
//! * [`net`] — the service's wire protocol, remote tenant frontend,
//!   replication and self-healing cluster.
//!
//! # Examples
//!
//! ```
//! use dpack::prelude::*;
//!
//! let grid = AlphaGrid::standard();
//! let capacity = block_capacity(&grid, 10.0, 1e-7).unwrap();
//! let blocks = vec![Block::new(0, capacity, 0.0)];
//! let demand = GaussianMechanism::new(5.0).unwrap().curve(&grid);
//! let tasks = vec![Task::new(0, 1.0, vec![0], demand, 0.0)];
//! let state = ProblemState::new(grid, blocks, tasks).unwrap();
//! assert_eq!(DPack::default().schedule(&state).scheduled, vec![0]);
//! ```

pub use dp_accounting as accounting;
pub use dpack_core as core;
pub use dpack_net as net;
pub use dpack_service as service;
pub use knapsack as solvers;
pub use simulator as sim;
pub use workloads as gen;

/// The most common imports, re-exported flat.
pub mod prelude {
    pub use dp_accounting::mechanisms::{
        GaussianMechanism, LaplaceGaussianComposition, LaplaceMechanism, Mechanism,
        SubsampledGaussian, SubsampledLaplace,
    };
    pub use dp_accounting::{
        block_capacity, rdp_to_dp, AlphaGrid, DpGuarantee, RdpCurve, RenyiFilter,
    };
    pub use dpack_core::problem::{Allocation, Block, BlockId, ProblemState, Task, TaskId};
    pub use dpack_core::schedulers::{DPack, Dpf, DpfStrict, Fcfs, GreedyArea, Optimal, Scheduler};
    pub use dpack_service::{BudgetService, SchedulerChoice, ServiceConfig};
    pub use simulator::{simulate_service, SimulationConfig, SimulationResult};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_covers_the_quickstart_path() {
        let grid = AlphaGrid::standard();
        let capacity = block_capacity(&grid, 10.0, 1e-7).unwrap();
        let blocks = vec![Block::new(0, capacity, 0.0)];
        let demand = GaussianMechanism::new(5.0).unwrap().curve(&grid);
        let tasks = vec![Task::new(0, 1.0, vec![0], demand, 0.0)];
        let state = ProblemState::new(grid, blocks, tasks).unwrap();
        assert_eq!(DPack::default().schedule(&state).scheduled, vec![0]);
    }
}
