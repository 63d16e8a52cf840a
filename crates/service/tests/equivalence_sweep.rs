//! Seed-sweep decision equivalence: the service must allocate what the
//! online engine allocates — same ids, in the same order, at the same
//! steps, with the same evictions — not just on one hardcoded scenario,
//! but across a dpack-check generator sweep over schedulers, unlocking
//! schedules, timeouts, and random arrival patterns, in memory and
//! write-ahead-logged: durability must never change a decision.
//!
//! The first sweep is the S = 1, W = 1 service on single-block tasks
//! over blocks known up front. The second holds the claim the service's
//! module docs make: one global pass decides, so the shard count and
//! the worker count decide nothing — S ∈ {1, 2, 4} × W ∈ {1, 2}, with
//! multi-block tasks that span shards and blocks registered mid-run.

use dp_accounting::{block_capacity, AlphaGrid, RdpCurve};
use dpack_check::{check_cases, floats, ints, options, prop_assert, prop_assert_eq, vecs};
use dpack_core::online::{AllocatedTask, OnlineConfig, OnlineEngine};
use dpack_core::problem::{Block, BlockId, Task, TaskId};
use dpack_core::schedulers::{DPack, Dpf, DpfStrict, Fcfs, GreedyArea};
use dpack_service::wal::SimStorage;
use dpack_service::{
    BudgetService, DurabilityOptions, SchedulerChoice, ServiceConfig, StatsRetention,
};

const STEPS: u64 = 12;

fn grid() -> AlphaGrid {
    AlphaGrid::new(vec![3.0, 8.0, 32.0]).expect("valid")
}

/// The knobs both sides share: scheduler pick (mod 5), unlock steps,
/// default timeout.
type Knobs = (u8, u32, Option<f64>);

/// What reaches the system just before the cycle at a step: the blocks
/// registering, then the tasks arriving.
type Feed<'a> = &'a dyn Fn(u64) -> (Vec<Block>, Vec<Task>);

/// Everything a run decided.
#[derive(Debug, PartialEq)]
struct Run {
    /// In grant order, each with the step that granted it.
    allocated: Vec<AllocatedTask>,
    /// In eviction order.
    evicted: Vec<TaskId>,
    /// How many of them each step evicted.
    evicted_per_step: Vec<usize>,
    pending: usize,
}

fn drive_engine((scheduler_pick, unlock_steps, timeout): Knobs, feed: Feed) -> Run {
    let config = OnlineConfig {
        scheduling_period: 1.0,
        unlock_period: 1.0,
        unlock_steps,
        default_timeout: timeout,
    };
    macro_rules! run {
        ($sched:expr) => {{
            let mut engine = OnlineEngine::new($sched, grid(), config);
            let mut evicted_per_step = Vec::new();
            for step in 1..=STEPS {
                let (blocks, tasks) = feed(step);
                for b in blocks {
                    engine.add_block(b).expect("unique");
                }
                for t in tasks {
                    engine.submit_task(t).expect("valid");
                }
                let before = engine.stats().evicted.len();
                engine.run_step(step as f64).expect("sound");
                evicted_per_step.push(engine.stats().evicted.len() - before);
            }
            let pending = engine.pending().len();
            let stats = engine.into_stats();
            Run {
                allocated: stats.allocated,
                evicted: stats.evicted,
                evicted_per_step,
                pending,
            }
        }};
    }
    match scheduler_pick % 5 {
        0 => run!(DPack::default()),
        1 => run!(Dpf),
        2 => run!(DpfStrict),
        3 => run!(Fcfs),
        _ => run!(GreedyArea),
    }
}

/// Tasks are dealt to three tenants by id.
const TENANTS: u64 = 3;

/// Drives the service over the same feed; also returns how many grants
/// it credited to each tenant.
fn drive_service(
    (scheduler_pick, unlock_steps, timeout): Knobs,
    (shards, workers): (usize, usize),
    durable: bool,
    feed: Feed,
) -> (Run, Vec<u64>) {
    let scheduler = match scheduler_pick % 5 {
        0 => SchedulerChoice::DPack,
        1 => SchedulerChoice::Dpf,
        2 => SchedulerChoice::DpfStrict,
        3 => SchedulerChoice::Fcfs,
        _ => SchedulerChoice::GreedyArea,
    };
    let config = ServiceConfig {
        shards,
        workers,
        scheduling_period: 1.0,
        unlock_period: 1.0,
        unlock_steps,
        default_timeout: timeout,
        scheduler,
        retention: StatsRetention::Unbounded,
        ..ServiceConfig::default()
    };
    let service = if durable {
        // Small segments + a tight snapshot cadence so the sweep also
        // exercises rotation and compaction on the hot path.
        let opts = DurabilityOptions {
            segment_bytes: 256,
            snapshot_every_cycles: Some(5),
        };
        BudgetService::recover(grid(), config, &SimStorage::new(), opts)
            .expect("fresh sim storage opens")
    } else {
        BudgetService::new(grid(), config)
    };
    let mut evicted_per_step = Vec::new();
    for step in 1..=STEPS {
        let (blocks, tasks) = feed(step);
        for b in blocks {
            service.register_block(b).expect("unique");
        }
        for t in tasks {
            service.submit((t.id % TENANTS) as u32, t).expect("valid");
        }
        evicted_per_step.push(service.run_cycle(step as f64).evicted);
    }
    assert!(service.ledger().unsound_blocks().is_empty());
    let stats = service.stats();
    let credited = (0..TENANTS as u32).map(|t| stats.tenants.get(&t).map_or(0, |t| t.granted));
    let credited = credited.collect();
    let online = stats.to_online();
    let run = Run {
        allocated: online.allocated,
        evicted: online.evicted,
        evicted_per_step,
        pending: service.pending_count(),
    };
    (run, credited)
}

/// Every task the feed submits is granted, evicted or still pending.
fn conserved(run: &Run, feed: Feed) -> bool {
    let submitted: usize = (1..=STEPS).map(|step| feed(step).1.len()).sum();
    run.allocated.len() + run.evicted.len() + run.pending == submitted
}

// ---- S = 1, W = 1: single-block tasks, blocks known up front. ---------

const N_BLOCKS: u64 = 3;

/// Three blocks before the first step, arriving (and so unlocking) one
/// step apart; each task asks for one block that has arrived.
fn single_block_feed(specs: &[(f64, f64, u8)], step: u64) -> (Vec<Block>, Vec<Task>) {
    let g = grid();
    let now = step as f64;
    let blocks = if step == 1 {
        let cap = block_capacity(&g, 8.0, 1e-6).expect("valid");
        (0..N_BLOCKS)
            .map(|j| Block::new(j, cap.clone(), j as f64))
            .collect()
    } else {
        Vec::new()
    };
    let tasks = specs
        .iter()
        .enumerate()
        .filter_map(|(i, (scale, frac, which))| {
            let arrival = frac * 10.0;
            (arrival <= now && arrival > now - 1.0).then(|| {
                let block = (u64::from(*which) % N_BLOCKS).min((arrival.floor() as u64).min(2));
                let demand = RdpCurve::from_fn(&g, |a| scale * 0.2 * a / 8.0);
                Task::new(i as u64, 1.0, vec![block], demand, arrival)
            })
        })
        .collect();
    (blocks, tasks)
}

/// The engine and the sequential service must agree allocation-for-
/// allocation (ids, weights, arrival and allocation times), eviction-
/// for-eviction, and on the final pending count — for every scheduler,
/// unlock schedule, timeout choice, and arrival pattern.
#[test]
fn sequential_service_matches_engine_across_the_sweep() {
    check_cases(
        "sequential_service_matches_engine_across_the_sweep",
        32,
        (
            (ints(0u8..5), ints(1u32..8), options(floats(1.0..6.0))),
            vecs((floats(0.1..3.0), floats(0.0..1.0), ints(0u8..3)), 1..25),
        ),
        |(knobs, specs): &(Knobs, Vec<(f64, f64, u8)>)| {
            let feed = |step| single_block_feed(specs, step);
            let engine = drive_engine(*knobs, &feed);
            for durable in [false, true] {
                let (service, _) = drive_service(*knobs, (1, 1), durable, &feed);
                prop_assert_eq!(&service, &engine, "durable: {}", durable);
            }
            prop_assert!(conserved(&engine, &feed));
            Ok(())
        },
    );
}

// ---- Every S and W: tasks that span shards, blocks arriving mid-run. --

/// Blocks in the order they register, one per step from step 1 on:
/// ids neither ascending overall nor within a shard (S = 2 sees 4 then
/// 0, S = 4 sees 5 then 1), so the pending state's block set grows at
/// the end on some steps and in the middle on others.
const REGISTRATION_ORDER: [BlockId; 6] = [4, 5, 0, 2, 1, 3];

/// (scale, arrival fraction, block mask, heavy) per task.
type SpanningSpecs = Vec<(f64, f64, u8, bool)>;

/// One new block per step (while there are any), then the tasks
/// arriving in the step. A task asks for the registered blocks its mask
/// picks — with six ids over up to four shards, most masks span shards
/// — and for the newest, registered this very step, when it picks none.
fn spanning_feed(specs: &SpanningSpecs, step: u64) -> (Vec<Block>, Vec<Task>) {
    let g = grid();
    let now = step as f64;
    let block = REGISTRATION_ORDER.get(step as usize - 1).map(|id| {
        let cap = block_capacity(&g, 8.0, 1e-6).expect("valid");
        Block::new(*id, cap, now - 1.0)
    });
    let registered = &REGISTRATION_ORDER[..(step as usize).min(REGISTRATION_ORDER.len())];
    let tasks = specs
        .iter()
        .enumerate()
        .filter_map(|(i, (scale, frac, mask, heavy))| {
            let arrival = frac * 10.0;
            (arrival <= now && arrival > now - 1.0).then(|| {
                let mut blocks: Vec<BlockId> = registered
                    .iter()
                    .enumerate()
                    .filter(|(k, _)| mask >> k & 1 == 1)
                    .map(|(_, id)| *id)
                    .collect();
                if blocks.is_empty() {
                    blocks.push(*registered.last().expect("a block registers at step 1"));
                }
                // Four times the single-block sweep's demands: tasks
                // wait, and time out, whatever they ask for.
                let demand = RdpCurve::from_fn(&g, |a| scale * 0.8 * a / 8.0);
                let weight = if *heavy { 2.0 } else { 1.0 };
                Task::new(i as u64, weight, blocks, demand, arrival)
            })
        })
        .collect();
    (block.into_iter().collect(), tasks)
}

/// At every shard count and worker count, in memory and write-ahead-
/// logged, the service allocates exactly what the engine allocates —
/// multi-block tasks spanning shards, unequal weights, timeouts, gradual
/// unlocking, blocks registered mid-run and requested in the step they
/// register.
#[test]
fn service_matches_engine_at_every_shard_and_worker_count() {
    check_cases(
        "service_matches_engine_at_every_shard_and_worker_count",
        32,
        (
            (ints(0u8..5), ints(1u32..8), options(floats(1.0..6.0))),
            vecs(
                (
                    floats(0.1..3.0),
                    floats(0.0..1.0),
                    ints(0u8..64),
                    dpack_check::bools(),
                ),
                1..40,
            ),
        ),
        |(knobs, specs): &(Knobs, SpanningSpecs)| {
            let feed = |step| spanning_feed(specs, step);
            let engine = drive_engine(*knobs, &feed);
            let mut want_credited = vec![0u64; TENANTS as usize];
            for a in &engine.allocated {
                want_credited[(a.id % TENANTS) as usize] += 1;
            }
            for shards in [1, 2, 4] {
                for workers in [1, 2] {
                    for durable in [false, true] {
                        let (service, credited) =
                            drive_service(*knobs, (shards, workers), durable, &feed);
                        prop_assert_eq!(
                            &service,
                            &engine,
                            "S = {}, W = {}, durable: {}",
                            shards,
                            workers,
                            durable
                        );
                        // A grant finds its tenant however often the
                        // pending set was compacted around it.
                        prop_assert_eq!(&credited, &want_credited);
                    }
                }
            }
            prop_assert!(conserved(&engine, &feed));
            Ok(())
        },
    );
}
