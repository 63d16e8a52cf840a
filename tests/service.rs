//! Cross-crate decision-equivalence tests on the microbenchmark and
//! Alibaba-DP workloads: the parallel scheduler wrappers must be
//! bit-identical to the single-threaded `dpack-core` schedulers, and
//! the service — at any shard and worker count — must allocate what the
//! online engine allocates.

use dpack::core::problem::PackingRule;
use dpack::core::schedulers::{dpf_schedule, DPack, Dpf, DpfStrict, ParallelDPack, Scheduler};
use dpack::gen::curves::CurveLibrary;
use dpack::gen::microbenchmark::{generate, MicrobenchmarkConfig};
use dpack::service::{SchedulerChoice, ServiceConfig};
use dpack::sim::{
    replay_workload, simulate, BackendKind, ReplayEvent, SchedulerKind, SimulationConfig,
    SimulationSpec, WorkloadKind,
};

fn micro_state(n_tasks: usize, seed: u64) -> dpack::core::problem::ProblemState {
    let lib = CurveLibrary::standard();
    generate(
        &lib,
        &MicrobenchmarkConfig {
            n_tasks,
            n_blocks: 16,
            mu_blocks: 4.0,
            sigma_blocks: 2.0,
            sigma_alpha: 2.0,
            eps_min: 0.05,
            ..Default::default()
        },
        seed,
    )
}

#[test]
fn parallel_dpack_is_bit_identical_on_the_microbenchmark() {
    for seed in [1, 42] {
        let state = micro_state(400, seed);
        let seq = DPack::default().schedule(&state);
        assert!(!seq.scheduled.is_empty());
        for threads in [1, 2, 4, 8] {
            let par = ParallelDPack::new(DPack::default(), threads).schedule(&state);
            assert_eq!(
                par.scheduled, seq.scheduled,
                "seed {seed}, threads {threads}"
            );
        }
    }
}

/// The repo benchmark's `offline_micro` instances (`benchmark/src/
/// inputs.rs`): the allocation counts every earlier kernel produced on
/// them, so a kernel change that moves the paper's metric fails here
/// before it reaches the benchmark.
#[test]
fn benchmark_instances_allocate_their_pinned_counts() {
    let lib = CurveLibrary::standard();
    for (seed, allocated) in [(7, 1_437), (11, 1_450)] {
        let config = MicrobenchmarkConfig {
            n_tasks: 20_000,
            n_blocks: 100,
            mu_blocks: 10.0,
            sigma_blocks: 3.0,
            sigma_alpha: 4.0,
            eps_min: 0.01,
            ..Default::default()
        };
        let state = generate(&lib, &config, seed);
        let seq = DPack::default().schedule(&state);
        assert_eq!(seq.scheduled.len(), allocated, "seed {seed}");
        let par = ParallelDPack::new(DPack::default(), 2).schedule(&state);
        assert_eq!(par.scheduled, seq.scheduled, "seed {seed}");
    }
}

#[test]
fn parallel_dpf_is_bit_identical_on_the_microbenchmark() {
    for seed in [1, 42] {
        let state = micro_state(400, seed);
        let seq = Dpf.schedule(&state);
        let strict = DpfStrict.schedule(&state);
        for threads in [1, 3, 8] {
            let par = dpf_schedule(&state, PackingRule::Skip, threads);
            assert_eq!(
                par.scheduled, seq.scheduled,
                "seed {seed}, threads {threads}"
            );
            let par = dpf_schedule(&state, PackingRule::Stop, threads);
            assert_eq!(par.scheduled, strict.scheduled, "strict, threads {threads}");
        }
    }
}

#[test]
fn service_backend_at_one_shard_matches_the_engine_backend() {
    for scheduler in [SchedulerKind::DPack, SchedulerKind::Dpf] {
        let spec = SimulationSpec {
            workload: WorkloadKind::Microbenchmark,
            scheduler,
            backend: BackendKind::Engine,
            n_blocks: 8,
            n_tasks: 200,
            ..Default::default()
        };
        let engine = spec.run();
        let service = SimulationSpec {
            backend: BackendKind::Service,
            shards: 1,
            workers: 1,
            ..spec
        }
        .run();
        assert!(!engine.stats.allocated.is_empty());
        assert_eq!(
            service.stats.allocated, engine.stats.allocated,
            "{scheduler:?}: service backend diverged"
        );
        assert_eq!(service.final_pending, engine.final_pending);
    }
}

#[test]
fn sharded_service_backend_stays_sound_on_the_microbenchmark() {
    let wl = SimulationSpec {
        workload: WorkloadKind::Microbenchmark,
        n_blocks: 8,
        n_tasks: 200,
        ..Default::default()
    }
    .build_workload();
    let result = dpack::sim::simulate_service(
        &wl,
        &ServiceConfig {
            shards: 4,
            workers: 2,
            scheduler: SchedulerChoice::DPack,
            ..ServiceConfig::default()
        },
        &dpack::sim::SimulationConfig::default(),
    );
    assert!(result.allocated() > 0);
    assert_eq!(
        result.allocated() + result.final_pending,
        result.n_submitted
    );
}

/// The repo benchmark's `online_alibaba` instance (`benchmark/src/
/// inputs.rs`, replayed as `benchmark/src/workloads/online_alibaba.rs`
/// does: T = 1, 50 unlock steps, timeout 10): the paper's count on it
/// is the engine's, and the service must reach it at one shard and at
/// its default sharding alike — the same tasks at the same steps — so a
/// cycle change that schedules worse at S > 1 fails here before it
/// reaches the benchmark.
#[test]
fn alibaba_instance_allocates_the_engine_count_at_every_sharding() {
    use dpack::gen::alibaba::{generate, AlibabaDpConfig};
    let sim = SimulationConfig {
        scheduling_period: 1.0,
        unlock_steps: 50,
        task_timeout: Some(10.0),
        drain_steps: 12,
    };
    // Full size, so ~5 s per seed in the debug profile: one thread each.
    let pin = |seed: u64, allocated: usize| {
        let config = AlibabaDpConfig {
            n_blocks: 45,
            n_tasks: 20_000,
            ..AlibabaDpConfig::default()
        };
        let workload = generate(&config, seed);
        let engine = simulate(&workload, DPack::default(), &sim);
        assert_eq!(engine.allocated(), allocated, "seed {seed}");
        for (shards, workers) in [(1, 1), (4, 2)] {
            let service = dpack::service::BudgetService::with_obs(
                workload.grid.clone(),
                ServiceConfig {
                    shards,
                    workers,
                    unlock_steps: sim.unlock_steps,
                    default_timeout: sim.task_timeout,
                    queue_capacity: usize::MAX,
                    retention: dpack::service::StatsRetention::Unbounded,
                    ..ServiceConfig::default()
                },
                dpack::service::obs::Obs::off(),
            );
            replay_workload(&workload, &sim, |event| match event {
                ReplayEvent::Block(b) => service.register_block(b.clone()).expect("unique"),
                ReplayEvent::Task(t) => service.submit(0, t.clone()).expect("admitted"),
                ReplayEvent::Tick(now) => drop(service.run_cycle(now)),
            });
            assert_eq!(
                service.stats().to_online().allocated,
                engine.stats.allocated,
                "seed {seed}, S = {shards}, W = {workers}"
            );
            assert!(service.ledger().unsound_blocks().is_empty());
        }
    };
    std::thread::scope(|scope| {
        scope.spawn(|| pin(7, 2_738));
        pin(11, 2_716);
    });
}
