//! Seed-sweep decision equivalence: the S=1, W=1 service must
//! reproduce the online engine bit-identically — not just on one
//! hardcoded scenario, but across a dpack-check generator sweep over
//! schedulers (DPack/DPF/DPF-strict/FCFS), unlocking schedules,
//! timeouts, and random arrival patterns. Both the in-memory service
//! and the durable (write-ahead-logged) service are swept: durability
//! must never change a scheduling decision.

use dp_accounting::{block_capacity, AlphaGrid, RdpCurve};
use dpack_check::{check_cases, floats, ints, options, prop_assert, prop_assert_eq, vecs};
use dpack_core::online::{AllocatedTask, OnlineConfig, OnlineEngine};
use dpack_core::problem::{Block, Task, TaskId};
use dpack_core::schedulers::{DPack, Dpf, DpfStrict, Fcfs};
use dpack_service::wal::SimStorage;
use dpack_service::{
    BudgetService, DurabilityOptions, SchedulerChoice, ServiceConfig, StatsRetention,
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
