//! Acceptance tests for the sharded service on the §6.2 microbenchmark:
//! a 10k-task workload scheduled across ≥4 shards with ≥2 worker
//! threads must be filter-sound (no block over budget at every order),
//! and the S=1 single-thread configuration must reproduce the online
//! engine's allocation exactly.

use dp_accounting::AlphaGrid;
use dpack_core::online::{OnlineConfig, OnlineEngine};
use dpack_core::problem::{Block, ProblemState, Task};
use dpack_core::schedulers::DPack;
use dpack_service::{BudgetService, SchedulerChoice, ServiceConfig};
use workloads::curves::CurveLibrary;
use workloads::microbenchmark::{generate, MicrobenchmarkConfig};

/// The shared 10k-task instance: moderate block-count heterogeneity so
/// single-block (shard-local) and multi-block (cross-shard) tasks both
/// occur.
fn microbenchmark_10k() -> ProblemState {
    let lib = CurveLibrary::standard();
    generate(
        &lib,
        &MicrobenchmarkConfig {
            n_tasks: 10_000,
            n_blocks: 32,
            mu_blocks: 2.0,
            sigma_blocks: 1.5,
            sigma_alpha: 2.0,
            // Light per-task demand: block capacity (not task count) is
            // the binding constraint at ~100 grants per block.
            eps_min: 0.01,
            ..Default::default()
        },
        42,
    )
}

fn service_for(state: &ProblemState, shards: usize, workers: usize) -> BudgetService {
    let service = BudgetService::new(
        state.grid().clone(),
        ServiceConfig {
            shards,
            workers,
            unlock_steps: 1, // Offline replay: full budget from t = 1.
            scheduler: SchedulerChoice::DPack,
            ..ServiceConfig::default()
        },
    );
    for (id, cap) in state.blocks() {
        service
            .register_block(Block::new(*id, cap.clone(), 0.0))
            .unwrap();
    }
    for t in state.tasks() {
        let tenant = (t.id % 8) as u32;
        service.submit(tenant, t.clone()).unwrap();
    }
    service
}

#[test]
fn sharded_service_schedules_10k_tasks_filter_soundly() {
    let state = microbenchmark_10k();
    assert_eq!(state.tasks().len(), 10_000);
    let service = service_for(&state, 8, 4);
    assert!(service.config().shards >= 4);
    assert!(service.config().workers >= 2);

    let cycle = service.run_cycle(1.0);
    assert_eq!(cycle.ingested, 10_000);
    // Both scheduling paths must have run: single-shard tasks locally,
    // multi-block tasks through the cross-shard two-phase pass.
    assert!(cycle.local_granted > 0, "no shard-local grants");
    assert!(cycle.cross_granted > 0, "no cross-shard grants");
    let granted = cycle.granted();
    assert!(granted > 1000, "only {granted} grants on 10k tasks");

    // Filter soundness: every block has at least one Rényi order whose
    // cumulative consumption is within its total capacity (Prop. 6).
    assert_eq!(service.ledger().unsound_blocks(), Vec::<u64>::new());

    // Stats agree with the ledger.
    let stats = service.stats();
    assert_eq!(stats.granted.len(), granted);
    assert_eq!(stats.admitted, 10_000);
    assert!(stats.throughput().unwrap() > 0.0);
    let tenant_total: u64 = stats.tenants.values().map(|t| t.granted).sum();
    assert_eq!(tenant_total, granted as u64);
}

#[test]
fn sequential_service_reproduces_the_online_engine_exactly() {
    // A 2k slice of the same workload keeps the double DPack run fast;
    // the semantics under test (S=1, W=1 vs OnlineEngine) are identical
    // at any scale.
    let lib = CurveLibrary::standard();
    let state = generate(
        &lib,
        &MicrobenchmarkConfig {
            n_tasks: 2_000,
            n_blocks: 32,
            mu_blocks: 2.0,
            sigma_blocks: 1.5,
            sigma_alpha: 2.0,
            eps_min: 0.05,
            ..Default::default()
        },
        42,
    );
    let service = service_for(&state, 1, 1);

    let mut engine = OnlineEngine::new(
        DPack::default(),
        state.grid().clone(),
        OnlineConfig {
            scheduling_period: 1.0,
            unlock_period: 1.0,
            unlock_steps: 1,
            default_timeout: None,
        },
    );
    for (id, cap) in state.blocks() {
        engine.add_block(Block::new(*id, cap.clone(), 0.0)).unwrap();
    }
    for t in state.tasks() {
        engine.submit_task(t.clone()).unwrap();
    }

    for step in 1..=3 {
        let now = step as f64;
        service.run_cycle(now);
        engine.run_step(now).unwrap();
    }

    let svc = service.stats().to_online();
    let eng = engine.stats().clone();
    assert!(!svc.allocated.is_empty());
    assert_eq!(
        svc.allocated, eng.allocated,
        "S=1 service diverged from the engine"
    );
}

#[test]
fn shard_count_does_not_break_soundness_or_liveness() {
    // The same small workload across shard counts: soundness and basic
    // liveness must hold everywhere.
    let lib = CurveLibrary::standard();
    let state = generate(
        &lib,
        &MicrobenchmarkConfig {
            n_tasks: 500,
            n_blocks: 16,
            mu_blocks: 2.0,
            sigma_blocks: 1.0,
            sigma_alpha: 1.0,
            eps_min: 0.1,
            ..Default::default()
        },
        7,
    );
    for (shards, workers) in [(1, 1), (2, 2), (4, 2), (8, 4)] {
        let service = service_for(&state, shards, workers);
        let cycle = service.run_cycle(1.0);
        assert!(
            cycle.granted() > 50,
            "S={shards}: {} grants",
            cycle.granted()
        );
        assert!(
            service.ledger().unsound_blocks().is_empty(),
            "S={shards} violated Prop. 6"
        );
    }
}

/// A task spanning every shard: the release path must not lose it.
#[test]
fn released_cross_shard_tasks_are_retried_next_cycle() {
    let grid = AlphaGrid::new(vec![4.0, 16.0]).unwrap();
    let service = BudgetService::new(
        grid.clone(),
        ServiceConfig {
            shards: 4,
            workers: 2,
            unlock_steps: 2, // Half the budget per step.
            scheduler: SchedulerChoice::DPack,
            ..ServiceConfig::default()
        },
    );
    for j in 0..4u64 {
        service
            .register_block(Block::new(
                j,
                dp_accounting::RdpCurve::constant(&grid, 1.0),
                0.0,
            ))
            .unwrap();
    }
    // Needs 0.8 on all four blocks; only 0.5 is unlocked at t=1.
    let t = Task::new(
        0,
        1.0,
        vec![0, 1, 2, 3],
        dp_accounting::RdpCurve::constant(&grid, 0.8),
        0.0,
    );
    service.submit(0, t).unwrap();
    let c1 = service.run_cycle(1.0);
    assert_eq!(c1.granted(), 0);
    assert_eq!(service.pending_count(), 1);
    // Fully unlocked at t=2: the task commits across all four shards.
    let c2 = service.run_cycle(2.0);
    assert_eq!(c2.cross_granted, 1);
    assert_eq!(service.pending_count(), 0);
    assert!(service.ledger().unsound_blocks().is_empty());
}
