//! `online_alibaba` — paper §6.3 Alibaba-DP, replayed in virtual time
//! (T = 1, 50 unlock steps, timeout 10) through a non-durable service.
//! Heavy contention keeps thousands of multi-block tasks pending across
//! cycles, so the work is inside the cycle: problem build, snapshots,
//! best-alpha rescoring and cross-shard two-phase commit.

use std::sync::Arc;
use std::time::Instant;

use dpack_core::online::{OnlineConfig, OnlineEngine};
use dpack_core::problem::ProblemState;
use dpack_core::schedulers::DPack;
use dpack_service::{BudgetService, SchedulerChoice, ServiceConfig, StatsRetention};
use simulator::{replay_workload, simulate_service, ReplayEvent, SimulationConfig};
use workloads::OnlineWorkload;

use crate::drive::{check_ledger, report_load_spans, InFlight, LoopStats};
use crate::harness::{percentile, timed, Bench};
use crate::trace::{open, Tracer};
use crate::workloads::service_config;
use crate::{inputs, probes};

/// Every task is decided (granted, or evicted at its timeout of 10)
/// within 11 ticks of the last arrival; one more tick for slack.
fn sim_config() -> SimulationConfig {
    SimulationConfig {
        scheduling_period: 1.0,
        unlock_steps: 50,
        task_timeout: Some(10.0),
        drain_steps: 12,
    }
}

fn build_service(workload: &OnlineWorkload, config: ServiceConfig) -> BudgetService {
    let sim = sim_config();
    BudgetService::new(
        workload.grid.clone(),
        ServiceConfig {
            scheduling_period: sim.scheduling_period,
            unlock_period: 1.0,
            unlock_steps: sim.unlock_steps,
            default_timeout: sim.task_timeout,
            queue_capacity: usize::MAX,
            ..config
        },
    )
}

/// Replays the workload as fast as the service goes: blocks register
/// and tasks submit at their virtual arrival, every tick runs a cycle,
/// and a task's latency is the wall time from its submit call to its
/// resolved ticket.
fn replay(
    workload: &OnlineWorkload,
    service: &BudgetService,
    tracer: Option<&Arc<Tracer>>,
) -> LoopStats {
    let mut stats = LoopStats::default();
    let mut waiting: Vec<InFlight> = Vec::new();
    let started = stats.start();
    let replay_span = open(tracer, "simulator.replay", 0);
    replay_workload(workload, &sim_config(), |event| match event {
        ReplayEvent::Block(block) => {
            let span = open(tracer, "service.register_block", block.id);
            let registered = service.register_block(block.clone());
            drop(span);
            stats.failed += u64::from(registered.is_err());
        }
        ReplayEvent::Task(task) => stats.submit(service, task.clone(), &mut waiting, tracer),
        ReplayEvent::Tick(now) => {
            stats.run_cycle(service, now, tracer);
            stats.collect(&mut waiting, tracer);
            // One slice per tick: the replay is deterministic, so tick
            // `i` does the same work in every round.
            stats.cut_slice(1);
        }
    });
    drop(replay_span);
    // Whatever the drain left undecided is a lost decision.
    stats.failed += waiting.len() as u64;
    stats.finish(started);
    stats
}

/// The workload is generated (and set-up sampled) in every fourth
/// round; the rounds between replay the same generated inputs, since
/// generation takes as long as the replay it feeds.
const GENERATE_EVERY: usize = 4;

pub fn run(bench: &mut Bench) {
    let mut last: Option<(OnlineWorkload, BudgetService)> = None;
    let mut round = 0;
    while bench.next_round().is_some() {
        let tracer = bench.tracer().cloned();
        let tracer = tracer.as_ref();
        let _round = open(tracer, "bench.round", 0);

        let setup = Instant::now();
        let (workload, fresh) = match last.take() {
            Some((workload, _)) if round % GENERATE_EVERY != 0 => (workload, false),
            _ => {
                let span = open(tracer, "workloads.generate", 0);
                let (generate_s, workload) = timed(|| inputs::alibaba(bench.seed, bench.smoke));
                drop(span);
                bench.sample("workloads.generate_s", generate_s);
                (workload, true)
            }
        };
        round += 1;
        let service = build_service(&workload, service_config());
        if fresh {
            bench.sample("setup_s", setup.elapsed().as_secs_f64());
        }

        let stats = replay(&workload, &service, tracer);
        stats.report(bench);
        check_ledger(bench, &service, &stats);
        if bench.is_traced() {
            stats.report_cycles(bench);
            let events = workload.blocks.len() + workload.tasks.len() + stats.cycles.len();
            bench.sample(
                "simulator.replay_events_per_s",
                events as f64 / stats.wall_s,
            );
        }
        last = Some((workload, service));
    }
    bench.check_exact("allocated_tasks");
    engine_equivalence(bench);

    let (true, Some((workload, service))) = (bench.is_traced(), last) else {
        return;
    };
    if let Some(tracer) = bench.probe_tracer().cloned() {
        report_load_spans(bench, &tracer);
    }
    let granted = bench.value_of("allocated_tasks");
    // The paper's comparisons, as untimed side replays of the same
    // workload: one ledger (S = 1) and DPF.
    for (name, config) in [
        (
            "paper.shard_efficiency",
            ServiceConfig {
                shards: 1,
                ..service_config()
            },
        ),
        (
            "paper.allocated_vs_dpf",
            ServiceConfig {
                scheduler: SchedulerChoice::Dpf,
                ..service_config()
            },
        ),
    ] {
        let side = build_service(&workload, config);
        let stats = replay(&workload, &side, None);
        check_ledger(bench, &side, &stats);
        bench.count(stats.submitted, stats.failed);
        bench.once(name, granted / stats.granted.max(1) as f64);
    }

    probes::snapshot(bench, &service, workload.blocks.len() as f64);
    let head = &workload.tasks[..workload.tasks.len().min(5_000)];
    let state = ProblemState::new(
        workload.grid.clone(),
        workload.blocks.clone(),
        head.to_vec(),
    )
    .expect("generated workload is consistent");
    probes::core(bench, &state);
    if let Some(block) = workload.blocks.first() {
        probes::accounting(bench, &block.capacity, &workload.tasks);
    }
    probes::ledger_commit(bench, &service_config(), &workload.blocks, &workload.tasks);
}

/// Output check, and the S = 1 reference for the cycle: on the
/// smoke-size instance the S = 1, W = 1 service must allocate exactly
/// what `OnlineEngine` allocates (the full-size engine run would not
/// fit a round). Times each engine step on the way.
fn engine_equivalence(bench: &mut Bench) {
    let workload = inputs::alibaba(bench.seed, true);
    let sim = sim_config();
    let mut engine = OnlineEngine::new(
        DPack::default(),
        workload.grid.clone(),
        OnlineConfig {
            scheduling_period: sim.scheduling_period,
            unlock_period: 1.0,
            unlock_steps: sim.unlock_steps,
            default_timeout: sim.task_timeout,
        },
    );
    let tracer = bench.probe_tracer().cloned();
    let mut step_ms = Vec::new();
    let mut sound = true;
    replay_workload(&workload, &sim, |event| match event {
        ReplayEvent::Block(b) => sound &= engine.add_block(b.clone()).is_ok(),
        ReplayEvent::Task(t) => sound &= engine.submit_task(t.clone()).is_ok(),
        ReplayEvent::Tick(now) => {
            let span = open(tracer.as_ref(), "core.engine_step", now as u64);
            let (s, step) = timed(|| engine.run_step(now));
            drop(span);
            step_ms.push(s * 1e3);
            sound &= step.is_ok();
        }
    });
    bench.check(sound, || "OnlineEngine refused its own allocation".into());
    bench.once("core.engine_step_ms_p50", percentile(&step_ms, 0.5));
    let by_service = simulate_service(
        &workload,
        &ServiceConfig {
            shards: 1,
            workers: 1,
            retention: StatsRetention::Unbounded,
            ..service_config()
        },
        &sim,
    );
    let by_engine = engine.into_stats();
    bench.check(by_service.stats.allocated == by_engine.allocated, || {
        format!(
            "S = 1, W = 1 service allocated {} tasks, OnlineEngine {}: not the same allocation",
            by_service.stats.allocated.len(),
            by_engine.allocated.len()
        )
    });
}
