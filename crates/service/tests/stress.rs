//! Deterministic concurrent stress harness for the budget service.
//!
//! N submitter threads drive seeded random multi-tenant workloads —
//! single-shard and cross-shard tasks, deliberate duplicate ids,
//! quota-busting bursts, and malformed submissions — against the
//! sharded ledger while a background thread runs scheduling cycles.
//! The *workload* is a pure function of the seed (each thread owns a
//! xoshiro256++ stream); thread interleavings are not, so every
//! assertion below is interleaving-independent:
//!
//! * **A correct history** — `dpack_check::check_history` judges every
//!   grant against the ledger: after any schedule of commits, every
//!   block keeps a Rényi order within capacity (Prop. 6), and each
//!   block carries exactly one charge per grant naming it, so a
//!   partially-committed cross-shard task breaks the count.
//! * **Exact conservation** — granted + evicted + still-live (queued
//!   or pending) + rejected == submitted, cross-checked against the
//!   submitters' own counts.
//! * **Counters balance at every read** — a monitor polling
//!   `stats_summary` mid-run never sees a grant or eviction its
//!   admission does not cover, nor a submission counted neither
//!   admitted nor rejected.

mod common;

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use common::{acked, grant};
use dp_accounting::{AlphaGrid, RdpCurve};
use dpack_check::check_history;
use dpack_core::problem::{Block, Task, TaskId};
use dpack_service::{AdmissionError, BudgetService, SchedulerChoice, ServiceConfig};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

const SHARDS: usize = 8;
const WORKERS: usize = 4;
const N_BLOCKS: u64 = 16;
const N_THREADS: u64 = 6;
const OPS_PER_THREAD: u64 = 150;
const TENANT_QUOTA: usize = 24;
const BLOCK_CAPACITY: f64 = 3.0;
/// An id every thread races to submit (the cross-thread duplicate).
const CONTESTED_ID: TaskId = 424_242;

fn grid() -> AlphaGrid {
    AlphaGrid::new(vec![4.0, 16.0]).unwrap()
}

fn service() -> Arc<BudgetService> {
    let service = BudgetService::new(
        grid(),
        ServiceConfig {
            shards: SHARDS,
            workers: WORKERS,
            unlock_steps: 1,
            queue_capacity: 512,
            tenant_quota: TENANT_QUOTA,
            // Virtual time advances one period per cycle; pending tasks
            // outlive the submission phase and are reaped in the drain.
            default_timeout: Some(1e6),
            scheduler: SchedulerChoice::DPack,
            ..ServiceConfig::default()
        },
    );
    for j in 0..N_BLOCKS {
        service
            .register_block(Block::new(
                j,
                RdpCurve::constant(&grid(), BLOCK_CAPACITY),
                0.0,
            ))
            .unwrap();
    }
    Arc::new(service)
}

/// What one submitter observed, for the cross-checks.
#[derive(Debug, Default, PartialEq)]
struct ThreadLog {
    /// Every *admitted* submission, in submission order.
    admitted: Vec<Task>,
    rejected_invalid: u64,
    rejected_quota: u64,
    rejected_full: u64,
    rejected_duplicate: u64,
    submitted: u64,
}

fn feasible_task(id: TaskId, blocks: Vec<u64>, eps: f64) -> Task {
    Task::new(id, 1.0, blocks, RdpCurve::constant(&grid(), eps), 0.0)
}

/// One submitter: a seeded stream of mixed operations.
fn submitter(service: &BudgetService, thread: u64, seed: u64) -> ThreadLog {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_add(thread));
    let mut log = ThreadLog::default();
    let tenant = thread as u32;
    let mut next_local = 0u64;
    let fresh_id = |next_local: &mut u64| {
        let id = 1 + thread * 1_000_000 + *next_local;
        *next_local += 1;
        id
    };
    let submit = |log: &mut ThreadLog, task: Task| {
        log.submitted += 1;
        match service.submit(tenant, task.clone()) {
            Ok(()) => log.admitted.push(task),
            Err(AdmissionError::InvalidTask { .. })
            | Err(AdmissionError::UnknownBlock { .. })
            | Err(AdmissionError::GridMismatch { .. }) => log.rejected_invalid += 1,
            Err(AdmissionError::QuotaExceeded { .. }) => log.rejected_quota += 1,
            Err(AdmissionError::QueueFull { .. }) => log.rejected_full += 1,
            Err(AdmissionError::DuplicateTask { .. }) => log.rejected_duplicate += 1,
        }
    };

    // Every thread races the same id once, up front: at most one can be
    // live at a time, the rest observe DuplicateTask.
    submit(
        &mut log,
        feasible_task(CONTESTED_ID, vec![CONTESTED_ID % N_BLOCKS], 0.02),
    );

    for _ in 0..OPS_PER_THREAD {
        match rng.random_range(0..100u32) {
            // Valid single-shard task (one block).
            0..=39 => {
                let block = rng.random_range(0..N_BLOCKS);
                let eps = 0.01 + rng.random::<f64>() * 0.15;
                let id = fresh_id(&mut next_local);
                submit(&mut log, feasible_task(id, vec![block], eps));
            }
            // Valid cross-shard task (2–4 distinct blocks on distinct
            // shards: consecutive ids stripe consecutively mod S).
            40..=59 => {
                let first = rng.random_range(0..N_BLOCKS - 4);
                let span = rng.random_range(2..5u64);
                let blocks: Vec<u64> = (first..first + span).collect();
                let eps = 0.01 + rng.random::<f64>() * 0.1;
                let id = fresh_id(&mut next_local);
                submit(&mut log, feasible_task(id, blocks, eps));
            }
            // Duplicate: re-submit one of our own earlier tasks with
            // its original block list. Admitted only if the original
            // resolved (granted or evicted); DuplicateTask otherwise.
            60..=69 => {
                let pick = (!log.admitted.is_empty())
                    .then(|| log.admitted[rng.random_range(0..log.admitted.len())].clone());
                if let Some(task) = pick {
                    submit(&mut log, feasible_task(task.id, task.blocks, 0.02));
                }
            }
            // Quota-busting burst: more live tasks than the quota allows.
            70..=74 => {
                for _ in 0..TENANT_QUOTA / 2 {
                    let block = rng.random_range(0..N_BLOCKS);
                    let id = fresh_id(&mut next_local);
                    submit(&mut log, feasible_task(id, vec![block], 0.01));
                }
            }
            // Malformed: every rejection class, round-robin by draw.
            75..=94 => {
                let id = fresh_id(&mut next_local);
                let task = match rng.random_range(0..6u32) {
                    // Unknown block.
                    0 => feasible_task(id, vec![N_BLOCKS + 77], 0.1),
                    // Empty block list.
                    1 => Task::new(id, 1.0, vec![], RdpCurve::constant(&grid(), 0.1), 0.0),
                    // Non-finite weight.
                    2 => Task::new(
                        id,
                        f64::NAN,
                        vec![id % N_BLOCKS],
                        RdpCurve::constant(&grid(), 0.1),
                        0.0,
                    ),
                    // Negative demand.
                    3 => Task::new(
                        id,
                        1.0,
                        vec![id % N_BLOCKS],
                        RdpCurve::constant(&grid(), -0.5),
                        0.0,
                    ),
                    // Duplicated block list (bypasses Task::new's dedup).
                    4 => {
                        let mut t = feasible_task(id, vec![id % N_BLOCKS], 0.1);
                        t.blocks = vec![id % N_BLOCKS, id % N_BLOCKS];
                        t
                    }
                    // Wrong alpha grid.
                    _ => {
                        let other = AlphaGrid::new(vec![2.0, 32.0]).unwrap();
                        Task::new(
                            id,
                            1.0,
                            vec![id % N_BLOCKS],
                            RdpCurve::constant(&other, 0.1),
                            0.0,
                        )
                    }
                };
                submit(&mut log, task);
            }
            // Infeasible demand with a short timeout: exercises eviction.
            _ => {
                let id = fresh_id(&mut next_local);
                let mut t = Task::new(
                    id,
                    1.0,
                    vec![rng.random_range(0..N_BLOCKS)],
                    RdpCurve::constant(&grid(), BLOCK_CAPACITY * 10.0),
                    0.0,
                );
                t.timeout = Some(50.0);
                submit(&mut log, t);
            }
        }
    }
    log
}

#[test]
fn concurrent_seeded_stress_conserves_soundness_and_atomicity() {
    let service = service();

    // Background cycle thread: virtual time advances one scheduling
    // period per cycle, concurrent with all submitters.
    let stop = Arc::new(AtomicBool::new(false));
    let last_now = Arc::new(AtomicU64::new(0));
    let cycle_thread = {
        let service = Arc::clone(&service);
        let stop = Arc::clone(&stop);
        let last_now = Arc::clone(&last_now);
        std::thread::spawn(move || {
            let mut now = 0u64;
            while !stop.load(Ordering::Relaxed) {
                now += 1;
                service.run_cycle(now as f64);
                last_now.store(now, Ordering::Relaxed);
                std::thread::sleep(Duration::from_micros(200));
            }
            now
        })
    };

    // Live monitor: every summary read mid-run must already balance.
    // A grant or eviction is never counted before its admission, and
    // a submission is counted once, admitted or rejected, at the same
    // instant it is counted submitted.
    let monitor = {
        let service = Arc::clone(&service);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut reads = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let s = service.stats_summary();
                assert!(
                    s.granted + s.evicted <= s.admitted,
                    "decided before admitted: {s:?}"
                );
                assert_eq!(
                    s.admitted + s.rejected,
                    s.submitted,
                    "torn admission: {s:?}"
                );
                reads += 1;
                std::thread::yield_now();
            }
            reads
        })
    };

    let seed = 0xD9AC_2024;
    let logs: Vec<ThreadLog> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..N_THREADS)
            .map(|t| {
                let service = Arc::clone(&service);
                s.spawn(move || submitter(&service, t, seed))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Drain: keep cycling until the queue is ingested and the
    // short-timeout (50.0) infeasible tasks are evicted.
    let target = last_now.load(Ordering::Relaxed) + 120;
    while last_now.load(Ordering::Relaxed) < target {
        std::thread::sleep(Duration::from_millis(1));
    }
    stop.store(true, Ordering::Relaxed);
    let final_now = cycle_thread.join().unwrap();
    assert!(monitor.join().unwrap() > 0, "the monitor never read");
    // One quiescent cycle after the last submission, for a stable read.
    service.run_cycle(final_now as f64 + 1.0);

    let stats = service.stats();
    let summary = service.stats_summary();

    // The submitters' own books agree with the service's counters.
    let submitted: u64 = logs.iter().map(|l| l.submitted).sum();
    let admitted: u64 = logs.iter().map(|l| l.admitted.len() as u64).sum();
    let invalid: u64 = logs.iter().map(|l| l.rejected_invalid).sum();
    let quota: u64 = logs.iter().map(|l| l.rejected_quota).sum();
    let full: u64 = logs.iter().map(|l| l.rejected_full).sum();
    let duplicate: u64 = logs.iter().map(|l| l.rejected_duplicate).sum();
    assert_eq!(summary.submitted, submitted);
    assert_eq!(summary.admitted, admitted);
    assert_eq!(stats.rejected_invalid, invalid + duplicate);
    assert_eq!(stats.rejected_quota, quota);
    assert_eq!(stats.rejected_full, full);

    // The workload mix actually exercised every path.
    assert!(invalid > 0, "no malformed submissions hit");
    assert!(quota > 0, "no quota-bust observed");
    assert!(duplicate > 0, "no duplicate rejection observed");
    assert!(summary.evicted > 0, "no timeout evictions observed");
    assert!(summary.granted > 0, "nothing was granted");
    let cross_granted: usize = stats.cycles.iter().map(|c| c.cross_granted).sum();
    assert!(
        cross_granted > 0,
        "no cross-shard grants in the retained cycles"
    );

    // Exact conservation:
    //   granted + evicted + live (queued or pending) + rejected == submitted.
    let live = service.queue_depth() as u64 + service.pending_count() as u64;
    assert_eq!(
        summary.granted + summary.evicted + live + summary.rejected,
        summary.submitted,
        "conservation broken: {summary:?} live={live}"
    );

    // The history: Prop. 6 on every block, and exactly one charge per
    // (granted task, requested block) pair — nothing partial. An id is
    // live at most once at a time, and a feasible admission leaves only
    // by a grant (its timeout outlasts the run), so an id's k-th grant
    // resolved its k-th feasible admission; at most one is left live.
    let feasible = |t: &Task| t.demand.values().iter().any(|&d| d <= BLOCK_CAPACITY);
    let mut bodies: BTreeMap<TaskId, VecDeque<&Task>> = BTreeMap::new();
    for t in logs
        .iter()
        .flat_map(|l| &l.admitted)
        .filter(|t| feasible(t))
    {
        bodies.entry(t.id).or_default().push_back(t);
    }
    let acked = acked(&service, |id| {
        let body = bodies.get_mut(&id).and_then(VecDeque::pop_front);
        grant(body.expect("a grant resolves a feasible admission"))
    });
    assert!(bodies.values().all(|live| live.len() <= 1), "{bodies:?}");
    let states = service.ledger().block_states();
    check_history(&common::history(acked, &states)).expect("the history holds");

    // Per-tenant accounting adds up to the global grant count.
    let tenant_granted: u64 = stats.tenants.values().map(|t| t.granted).sum();
    assert_eq!(tenant_granted, summary.granted);
}

/// The same seed must produce the same per-thread submission streams:
/// the harness's determinism contract (interleavings may differ, the
/// workload may not).
#[test]
fn stress_workload_is_a_pure_function_of_the_seed() {
    let run = || {
        let service = service();
        // No cycles at all: admission outcomes still depend only on
        // the serialized order of this single submitter.
        let log = submitter(&service, 3, 0xFEED);
        (
            log.submitted,
            log.admitted,
            log.rejected_invalid,
            log.rejected_quota,
        )
    };
    assert_eq!(run(), run());
}
