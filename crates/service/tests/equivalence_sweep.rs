//! Seed-sweep decision equivalence: the S=1, W=1 service must
//! reproduce the online engine bit-identically — not just on one
//! hardcoded scenario, but across a dpack-check generator sweep over
//! schedulers (DPack/DPF/DPF-strict/FCFS), unlocking schedules,
//! timeouts, and random arrival patterns. Both the in-memory service
//! and the durable (write-ahead-logged) service are swept: durability
//! must never change a scheduling decision.
//!
//! A second sweep holds the sharded service (S ∈ {2, 4}, W = 2), whose
//! pending tasks live in long-lived lanes, against a cycle written out
//! here from the ledger's public calls that rebuilds every
//! `ProblemState` from scratch: same grants and evictions, cycle by
//! cycle, id by id, in the same order.

use dp_accounting::{block_capacity, AlphaGrid, RdpCurve};
use dpack_check::{bools, check_cases, floats, ints, options, prop_assert, prop_assert_eq, vecs};
use dpack_core::online::{AllocatedTask, OnlineConfig, OnlineEngine};
use dpack_core::problem::{Block, BlockId, ProblemState, Task, TaskId};
use dpack_core::schedulers::{DPack, Dpf, DpfStrict, Fcfs};
use dpack_service::wal::SimStorage;
use dpack_service::{
    BudgetService, CommitOutcome, DurabilityOptions, SchedulerChoice, ServiceConfig, ShardedLedger,
    StatsRetention,
};

const STEPS: u64 = 12;
const N_BLOCKS: u64 = 3;

/// One generated scenario.
type Scenario = (u8, u32, Option<f64>, Vec<(f64, f64, u8)>);

fn grid() -> AlphaGrid {
    AlphaGrid::new(vec![3.0, 8.0, 32.0]).expect("valid")
}

fn tasks_arriving_at(specs: &[(f64, f64, u8)], now: f64) -> Vec<Task> {
    let g = grid();
    specs
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
        .collect()
}

fn drive_engine(
    scheduler_pick: u8,
    unlock_steps: u32,
    timeout: Option<f64>,
    specs: &[(f64, f64, u8)],
) -> (Vec<AllocatedTask>, Vec<TaskId>, usize) {
    let g = grid();
    let cap = block_capacity(&g, 8.0, 1e-6).expect("valid");
    let config = OnlineConfig {
        scheduling_period: 1.0,
        unlock_period: 1.0,
        unlock_steps,
        default_timeout: timeout,
    };
    macro_rules! run {
        ($sched:expr) => {{
            let mut engine = OnlineEngine::new($sched, g.clone(), config);
            for j in 0..N_BLOCKS {
                engine
                    .add_block(Block::new(j, cap.clone(), j as f64))
                    .expect("unique");
            }
            for step in 1..=STEPS {
                let now = step as f64;
                for t in tasks_arriving_at(specs, now) {
                    engine.submit_task(t).expect("valid");
                }
                engine.run_step(now).expect("sound");
            }
            let pending = engine.pending().len();
            let stats = engine.into_stats();
            (stats.allocated, stats.evicted, pending)
        }};
    }
    match scheduler_pick % 4 {
        0 => run!(DPack::default()),
        1 => run!(Dpf),
        2 => run!(DpfStrict),
        _ => run!(Fcfs),
    }
}

fn drive_service(
    scheduler_pick: u8,
    unlock_steps: u32,
    timeout: Option<f64>,
    specs: &[(f64, f64, u8)],
    durable: bool,
) -> (Vec<AllocatedTask>, Vec<TaskId>, usize) {
    let g = grid();
    let cap = block_capacity(&g, 8.0, 1e-6).expect("valid");
    let scheduler = match scheduler_pick % 4 {
        0 => SchedulerChoice::DPack,
        1 => SchedulerChoice::Dpf,
        2 => SchedulerChoice::DpfStrict,
        _ => SchedulerChoice::Fcfs,
    };
    let config = ServiceConfig {
        shards: 1,
        workers: 1,
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
        BudgetService::recover(
            g.clone(),
            config,
            &SimStorage::new(),
            DurabilityOptions {
                segment_bytes: 256,
                snapshot_every_cycles: Some(5),
            },
        )
        .expect("fresh sim storage opens")
    } else {
        BudgetService::new(g.clone(), config)
    };
    for j in 0..N_BLOCKS {
        service
            .register_block(Block::new(j, cap.clone(), j as f64))
            .expect("unique");
    }
    for step in 1..=STEPS {
        let now = step as f64;
        for t in tasks_arriving_at(specs, now) {
            service.submit(0, t).expect("valid");
        }
        service.run_cycle(now);
    }
    let stats = service.stats();
    let online = stats.to_online();
    (online.allocated, online.evicted, service.pending_count())
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
            ints(0u8..4),
            ints(1u32..8),
            options(floats(1.0..6.0)),
            vecs((floats(0.1..3.0), floats(0.0..1.0), ints(0u8..3)), 1..25),
        ),
        |(scheduler_pick, unlock_steps, timeout, specs): &Scenario| {
            let (eng_alloc, eng_evicted, eng_pending) =
                drive_engine(*scheduler_pick, *unlock_steps, *timeout, specs);
            let (svc_alloc, svc_evicted, svc_pending) =
                drive_service(*scheduler_pick, *unlock_steps, *timeout, specs, false);
            prop_assert_eq!(
                &svc_alloc,
                &eng_alloc,
                "S=1 service diverged from the engine (scheduler {})",
                scheduler_pick % 4
            );
            // Durability is decision-invisible: the write-ahead-logged
            // service makes the same allocations at the same steps.
            let (dur_alloc, dur_evicted, dur_pending) =
                drive_service(*scheduler_pick, *unlock_steps, *timeout, specs, true);
            prop_assert_eq!(
                &dur_alloc,
                &eng_alloc,
                "S=1 durable service diverged from the engine (scheduler {})",
                scheduler_pick % 4
            );
            prop_assert_eq!(&dur_evicted, &svc_evicted);
            prop_assert_eq!(dur_pending, svc_pending);
            // Evictions: same set (the eviction scan order inside a
            // step is an implementation detail).
            let mut eng_evicted = eng_evicted.clone();
            let mut svc_evicted = svc_evicted.clone();
            eng_evicted.sort_unstable();
            svc_evicted.sort_unstable();
            prop_assert_eq!(svc_evicted, eng_evicted);
            prop_assert_eq!(svc_pending, eng_pending);
            // Conservation on both sides.
            let submitted = (1..=STEPS)
                .map(|s| tasks_arriving_at(specs, s as f64).len())
                .sum::<usize>();
            prop_assert_eq!(eng_alloc.len() + eng_evicted.len() + eng_pending, submitted);
            prop_assert!(
                !eng_alloc.is_empty()
                    || submitted == 0
                    || eng_pending + eng_evicted.len() == submitted
            );
            Ok(())
        },
    );
}

// ---- Sharded service vs a from-scratch cycle. -------------------------

/// Blocks in the order they register, one per step from step 1 on:
/// ids neither ascending overall nor within a shard (S = 2 sees 4 then
/// 0, S = 4 sees 5 then 1), so a lane's block set grows at the end on
/// some steps and in the middle on others.
const REGISTRATION_ORDER: [BlockId; 6] = [4, 5, 0, 2, 1, 3];
const WORKERS: usize = 2;

/// (scale, arrival fraction, block mask, heavy) per task.
type ShardedSpecs = Vec<(f64, f64, u8, bool)>;
/// (four shards?, scheduler, unlock steps, timeout, tasks).
type ShardedScenario = (bool, u8, u32, Option<f64>, ShardedSpecs);
/// What one cycle decided: granted ids, then evicted ids, in order.
type Decided = (Vec<TaskId>, Vec<TaskId>);

fn scheduler_choice(pick: u8) -> SchedulerChoice {
    match pick % 5 {
        0 => SchedulerChoice::DPack,
        1 => SchedulerChoice::Dpf,
        2 => SchedulerChoice::DpfStrict,
        3 => SchedulerChoice::Fcfs,
        _ => SchedulerChoice::GreedyArea,
    }
}

/// What reaches the system just before the cycle at `step`: one new
/// block (while there are any), then the tasks arriving in the step.
/// A task asks for the registered blocks its mask picks, and for the
/// newest — registered this very step — when it picks none.
fn arrivals_at(specs: &ShardedSpecs, step: u64) -> (Option<Block>, Vec<Task>) {
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
                // Four times the S = 1 sweep's demands: tasks wait,
                // and time out, in every lane.
                let demand = RdpCurve::from_fn(&g, |a| scale * 0.8 * a / 8.0);
                let weight = if *heavy { 2.0 } else { 1.0 };
                Task::new(i as u64, weight, blocks, demand, arrival)
            })
        })
        .collect();
    (block, tasks)
}

/// The cycle as the service's module docs describe it, with nothing
/// kept between cycles but the pending tasks themselves: every pass
/// builds its `ProblemState` from a fresh snapshot and clones.
struct FromScratch {
    ledger: ShardedLedger,
    scheduler: SchedulerChoice,
    timeout: Option<f64>,
    /// In submission order.
    pending: Vec<Task>,
}

impl FromScratch {
    /// The shard a task is local to; `None` when it spans shards.
    fn home(&self, task: &Task) -> Option<usize> {
        let first = self.ledger.shard_of(task.blocks[0]);
        let local = task
            .blocks
            .iter()
            .all(|b| self.ledger.shard_of(*b) == first);
        local.then_some(first)
    }

    fn submit(&mut self, mut task: Task) {
        task.timeout = task.timeout.or(self.timeout);
        self.pending.push(task);
    }

    fn run_cycle(&mut self, now: f64) -> Decided {
        let lanes: Vec<Option<usize>> = (0..self.ledger.n_shards())
            .map(Some)
            .chain([None])
            .collect();
        // Evictions, lane by lane.
        let expired = |t: &Task| t.timeout.is_some_and(|dt| now - t.arrival > dt);
        let mut evicted = Vec::new();
        for lane in &lanes {
            let of_lane = self.pending.iter().filter(|t| self.home(t) == *lane);
            evicted.extend(of_lane.filter(|t| expired(t)).map(|t| t.id));
        }
        self.pending.retain(|t| !expired(t));
        // One pass per lane: the shards in order, then the cross pass
        // over a snapshot that already holds the shards' commits.
        let mut granted = Vec::new();
        for lane in &lanes {
            let tasks: Vec<Task> = self
                .pending
                .iter()
                .filter(|t| self.home(t) == *lane)
                .cloned()
                .collect();
            if tasks.is_empty() {
                continue;
            }
            let (snapshot, threads) = match lane {
                Some(shard) => (self.ledger.snapshot_shard_uncached(*shard, now), 1),
                None => (self.ledger.snapshot_all(now), WORKERS),
            };
            let state = ProblemState::from_available(grid(), snapshot, tasks).expect("valid");
            let allocation = self.scheduler.schedule(&state, threads);
            let scheduled: Vec<&Task> = allocation
                .scheduled
                .iter()
                .map(|id| state.task(*id).expect("a task of the state"))
                .collect();
            let outcomes = match lane {
                Some(shard) => self.ledger.commit_shard_batch(*shard, &scheduled),
                None => self.ledger.commit_cross_batch(&scheduled),
            };
            for (task, outcome) in scheduled.iter().zip(outcomes) {
                if outcome == CommitOutcome::Committed {
                    granted.push(task.id);
                }
            }
        }
        self.pending.retain(|t| !granted.contains(&t.id));
        (granted, evicted)
    }
}

/// Drives the reference; returns each cycle's decisions and what is
/// left pending.
fn drive_from_scratch(scenario: &ShardedScenario) -> (Vec<Decided>, usize) {
    let (four, scheduler_pick, unlock_steps, timeout, specs) = scenario;
    let shards = if *four { 4 } else { 2 };
    let mut reference = FromScratch {
        ledger: ShardedLedger::new(grid(), shards, 1.0, *unlock_steps),
        scheduler: scheduler_choice(*scheduler_pick),
        timeout: *timeout,
        pending: Vec::new(),
    };
    let mut cycles = Vec::new();
    for step in 1..=STEPS {
        let (block, tasks) = arrivals_at(specs, step);
        if let Some(block) = block {
            reference.ledger.register_block(block).expect("unique");
        }
        for t in tasks {
            reference.submit(t);
        }
        cycles.push(reference.run_cycle(step as f64));
    }
    (cycles, reference.pending.len())
}

/// Tasks are dealt to three tenants by id.
const TENANTS: u64 = 3;

/// Drives the service over the same arrivals; also returns how many
/// grants the service credited to each tenant.
fn drive_sharded_service(
    scenario: &ShardedScenario,
    durable: bool,
) -> (Vec<Decided>, usize, Vec<u64>) {
    let (four, scheduler_pick, unlock_steps, timeout, specs) = scenario;
    let config = ServiceConfig {
        shards: if *four { 4 } else { 2 },
        workers: WORKERS,
        scheduling_period: 1.0,
        unlock_period: 1.0,
        unlock_steps: *unlock_steps,
        default_timeout: *timeout,
        scheduler: scheduler_choice(*scheduler_pick),
        retention: StatsRetention::Unbounded,
        ..ServiceConfig::default()
    };
    let service = if durable {
        let opts = DurabilityOptions {
            segment_bytes: 256,
            snapshot_every_cycles: Some(5),
        };
        BudgetService::recover(grid(), config, &SimStorage::new(), opts)
            .expect("fresh sim storage opens")
    } else {
        BudgetService::new(grid(), config)
    };
    let mut cycles = Vec::new();
    let (mut granted_before, mut evicted_before) = (0, 0);
    for step in 1..=STEPS {
        let (block, tasks) = arrivals_at(specs, step);
        if let Some(block) = block {
            service.register_block(block).expect("unique");
        }
        for t in tasks {
            service.submit((t.id % TENANTS) as u32, t).expect("valid");
        }
        let cycle = service.run_cycle(step as f64);
        let stats = service.stats();
        let granted: Vec<TaskId> = stats
            .granted
            .iter()
            .skip(granted_before)
            .map(|a| a.id)
            .collect();
        let evicted: Vec<TaskId> = stats.evicted.iter().skip(evicted_before).copied().collect();
        assert_eq!(
            (cycle.granted(), cycle.evicted),
            (granted.len(), evicted.len())
        );
        granted_before += granted.len();
        evicted_before += evicted.len();
        cycles.push((granted, evicted));
    }
    let tenants = service.stats().tenants;
    let credited = (0..TENANTS as u32).map(|t| tenants.get(&t).map_or(0, |t| t.granted));
    (cycles, service.pending_count(), credited.collect())
}

/// The sharded service, in memory and write-ahead-logged, decides each
/// cycle exactly what the from-scratch cycle decides — multi-block
/// tasks, timeouts, gradual unlocking, blocks registered mid-run and
/// requested in the step they register.
#[test]
fn sharded_service_matches_a_from_scratch_cycle() {
    check_cases(
        "sharded_service_matches_a_from_scratch_cycle",
        32,
        (
            bools(),
            ints(0u8..5),
            ints(1u32..8),
            options(floats(1.0..6.0)),
            vecs(
                (floats(0.1..3.0), floats(0.0..1.0), ints(0u8..64), bools()),
                1..40,
            ),
        ),
        |scenario: &ShardedScenario| {
            let (want, want_pending) = drive_from_scratch(scenario);
            let granted = want.iter().flat_map(|(granted, _)| granted);
            let mut want_credited = vec![0u64; TENANTS as usize];
            granted.for_each(|id| want_credited[(id % TENANTS) as usize] += 1);
            for durable in [false, true] {
                let (got, got_pending, credited) = drive_sharded_service(scenario, durable);
                for (step, (got, want)) in got.iter().zip(&want).enumerate() {
                    prop_assert_eq!(got, want, "cycle {}, durable: {}", step + 1, durable);
                }
                prop_assert_eq!(got_pending, want_pending);
                // A grant finds its tenant however often its lane was
                // compacted around it.
                prop_assert_eq!(&credited, &want_credited);
            }
            // Every task is accounted for.
            let decided: usize = want.iter().map(|(g, e)| g.len() + e.len()).sum();
            let submitted: usize = (1..=STEPS)
                .map(|step| arrivals_at(&scenario.4, step).1.len())
                .sum();
            prop_assert_eq!(decided + want_pending, submitted);
            Ok(())
        },
    );
}
