//! The `dpack-service` backend: replaying a workload through the
//! sharded budget service.
//!
//! Arrivals register/submit into a [`BudgetService`] and ticks run its
//! batched cycle. The allocations are identical to the
//! [`crate::simulate`] reference at every shard and worker count: the
//! service decides in one global pass and only its commit is striped.

use std::time::Instant;

use dpack_service::wal::SimStorage;
use dpack_service::{BudgetService, DurabilityOptions, ServiceConfig, StatsRetention};
use workloads::OnlineWorkload;

use crate::{replay_workload, ReplayEvent, SimulationConfig, SimulationResult};

/// Runs a workload to completion on the service backend.
///
/// The service's `scheduling_period`, `unlock_steps` and
/// `default_timeout` are taken from `config`; sharding, worker count and
/// scheduler choice come from `service_config`. The replay lifts the admission bounds
/// (queue capacity, tenant quota, ingest batch): a trace replay is
/// single-threaded, so backpressure would deadlock it, and admission
/// limits are a live-service concern — exercised by the service's own
/// tests. Stats retention is forced to [`StatsRetention::Unbounded`]:
/// simulator parity compares the run allocation-for-allocation with
/// the engine, which needs the full per-event logs (the bounded
/// window is for always-on deployments).
/// All tasks are submitted as tenant 0 (workload traces carry no
/// tenant labels).
///
/// # Panics
///
/// Panics if the workload is internally inconsistent (tasks referencing
/// blocks that never arrive, duplicate block or task ids) or if a
/// block's privacy filter ends the run overdrawn — the budget-soundness
/// invariant (Prop. 6) — the same runs on which [`crate::simulate`]
/// panics.
pub fn simulate_service(
    workload: &OnlineWorkload,
    service_config: &ServiceConfig,
    config: &SimulationConfig,
) -> SimulationResult {
    run_service(workload, service_config, config, false)
}

/// [`simulate_service`] with write-ahead logging enabled (the
/// `durability = sim` config toggle): the service runs through a
/// `dpack-wal` ledger on in-memory [`SimStorage`], so every grant pays
/// the logging path. Durability is decision-invisible — allocations
/// are identical to [`simulate_service`] — which the tests assert.
pub fn simulate_service_durable(
    workload: &OnlineWorkload,
    service_config: &ServiceConfig,
    config: &SimulationConfig,
) -> SimulationResult {
    run_service(workload, service_config, config, true)
}

fn run_service(
    workload: &OnlineWorkload,
    service_config: &ServiceConfig,
    config: &SimulationConfig,
    durable: bool,
) -> SimulationResult {
    let started = Instant::now();
    let resolved = ServiceConfig {
        scheduling_period: config.scheduling_period,
        unlock_period: 1.0,
        unlock_steps: config.unlock_steps,
        default_timeout: config.task_timeout,
        queue_capacity: usize::MAX,
        tenant_quota: usize::MAX,
        ingest_batch: usize::MAX,
        retention: StatsRetention::Unbounded,
        ..*service_config
    };
    // Replays run with observability fully off: the simulator's
    // contract is bit-identical decisions run-to-run, so it opts out of
    // even the (decision-invisible) instrumentation cost.
    let service = if durable {
        BudgetService::recover_with_obs(
            workload.grid.clone(),
            resolved,
            &SimStorage::new(),
            DurabilityOptions::default(),
            dpack_service::obs::Obs::off(),
        )
        .expect("fresh sim storage opens")
    } else {
        BudgetService::with_obs(
            workload.grid.clone(),
            resolved,
            dpack_service::obs::Obs::off(),
        )
    };

    replay_workload(workload, config, |event| match event {
        ReplayEvent::Block(b) => service
            .register_block(b.clone())
            .expect("unique block on the grid"),
        ReplayEvent::Task(t) => service
            .submit(0, t.clone())
            .expect("replay admits every task"),
        ReplayEvent::Tick(now) => drop(service.run_cycle(now)),
    });

    assert!(
        service.ledger().unsound_blocks().is_empty(),
        "budget-soundness invariant"
    );
    let final_pending = service.pending_count() + service.queue_depth();
    SimulationResult {
        stats: service.stats().to_online(),
        n_submitted: workload.tasks.len(),
        final_pending,
        total_capacities: service.ledger().total_capacities(),
        wall_time: started.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_accounting::{AlphaGrid, RdpCurve};
    use dpack_core::problem::{Block, Task};
    use dpack_core::schedulers::DPack;
    use dpack_service::SchedulerChoice;

    fn tiny_workload() -> OnlineWorkload {
        let grid = AlphaGrid::new(vec![4.0, 16.0]).unwrap();
        let cap = RdpCurve::constant(&grid, 1.0);
        let blocks: Vec<Block> = (0..4u64)
            .map(|j| Block::new(j, cap.clone(), j as f64))
            .collect();
        let tasks: Vec<Task> = (0..12u64)
            .map(|i| {
                let arrival = 0.2 + i as f64 * 0.3;
                let newest = (arrival.floor() as u64).min(3);
                let blocks = if i % 3 == 0 && newest > 0 {
                    vec![newest - 1, newest] // Cross-shard at S=2.
                } else {
                    vec![newest]
                };
                Task::new(i, 1.0, blocks, RdpCurve::constant(&grid, 0.2), arrival)
            })
            .collect();
        OnlineWorkload {
            grid,
            blocks,
            tasks,
        }
    }

    #[test]
    fn sequential_backend_matches_engine_backend_exactly() {
        let wl = tiny_workload();
        let cfg = SimulationConfig {
            unlock_steps: 2,
            drain_steps: 6,
            ..Default::default()
        };
        let engine = crate::simulate(&wl, DPack::default(), &cfg);
        let service = simulate_service(
            &wl,
            &ServiceConfig {
                shards: 1,
                workers: 1,
                scheduler: SchedulerChoice::DPack,
                ..ServiceConfig::default()
            },
            &cfg,
        );
        assert_eq!(service.stats.allocated, engine.stats.allocated);
        assert_eq!(service.final_pending, engine.final_pending);
    }

    #[test]
    fn durable_backend_is_decision_identical_to_the_in_memory_one() {
        let wl = tiny_workload();
        let cfg = SimulationConfig {
            unlock_steps: 2,
            drain_steps: 6,
            ..Default::default()
        };
        let service_config = ServiceConfig {
            shards: 2,
            workers: 2,
            scheduler: SchedulerChoice::DPack,
            ..ServiceConfig::default()
        };
        let plain = simulate_service(&wl, &service_config, &cfg);
        let durable = simulate_service_durable(&wl, &service_config, &cfg);
        assert_eq!(durable.stats.allocated, plain.stats.allocated);
        assert_eq!(durable.final_pending, plain.final_pending);
    }

    #[test]
    fn sharded_backend_is_sound_and_live() {
        let wl = tiny_workload();
        let cfg = SimulationConfig {
            unlock_steps: 2,
            drain_steps: 6,
            ..Default::default()
        };
        let r = simulate_service(
            &wl,
            &ServiceConfig {
                shards: 2,
                workers: 2,
                scheduler: SchedulerChoice::DPack,
                ..ServiceConfig::default()
            },
            &cfg,
        );
        assert!(r.allocated() > 0);
        assert_eq!(r.allocated() + r.final_pending, r.n_submitted);
    }
}
