//! Crash-injection recovery suite for the durable budget service.
//!
//! The PR 2 stress style, plus a power cord: seeded multi-tenant
//! submitter threads drive single- and cross-shard traffic against a
//! durable service whose `SimStorage` kills the storage at a drawn
//! byte offset (possibly mid-record, possibly between a cross-shard
//! intent and its coordinator decision, possibly never). Then
//! [`BudgetService::recover`] reboots from the surviving bytes and the
//! suite asserts, per seeded case:
//!
//! * **Bit-identical reference replay** — the recovered ledger equals
//!   the reference fold of the surviving WAL records
//!   (`common::fold_log`: plain f64 composition in log order), exact to
//!   the bit patterns.
//! * **A correct history, no phantoms** — `dpack_check::check_history`
//!   judges the acked grants against the fold: Prop. 6, no acked grant
//!   lost, none charged twice, one charge per (acked task, requested
//!   block) pair; and the log applies no grant the live service never
//!   acknowledged.
//! * **2PC atomicity** — a committed cross-shard attempt has durable
//!   intents covering exactly the task's blocks; an undecided attempt
//!   charges nothing anywhere.
//! * **Liveness** — the recovered service keeps granting.
//! * **Replay determinism** — recovering twice yields identical state.
//!
//! Everything is a pure function of the dpack-check seed except thread
//! interleavings; every assertion is interleaving-independent.

mod common;

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use common::{acked, fold_log, grant, ledger, views};
use dp_accounting::{AlphaGrid, RdpCurve};
use dpack_check::{check_cases, check_history, diff_states, ints, prop_assert, prop_assert_eq};
use dpack_check::{BlockView, Failed, Grant, PropResult};
use dpack_core::problem::{Block, BlockId, Task, TaskId};
use dpack_service::obs::{Event, EventKind};
use dpack_service::wal::{FsStorage, SimStorage};
use dpack_service::{
    BudgetService, DurabilityOptions, SchedulerChoice, ServiceConfig, StatsRetention,
};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

const SHARDS: usize = 4;
const N_BLOCKS: u64 = 8;
const N_THREADS: u64 = 3;
const OPS_PER_THREAD: u64 = 30;
const BLOCK_CAPACITY: f64 = 4.0;

fn grid() -> AlphaGrid {
    AlphaGrid::new(vec![4.0, 16.0]).unwrap()
}

fn config() -> ServiceConfig {
    ServiceConfig {
        shards: SHARDS,
        workers: 2,
        unlock_steps: 1,
        queue_capacity: 4096,
        scheduler: SchedulerChoice::DPack,
        retention: StatsRetention::Unbounded,
        ..ServiceConfig::default()
    }
}

fn opts() -> DurabilityOptions {
    DurabilityOptions {
        // Small segments + frequent snapshots: rotation and compaction
        // both happen inside every case's lifetime, and the crash
        // sweep exercises group-committed (batched) flushes.
        segment_bytes: 512,
        snapshot_every_cycles: Some(3),
    }
}

fn recover(storage: &SimStorage) -> Result<BudgetService, Failed> {
    BudgetService::recover(grid(), config(), storage, opts())
        .map_err(|e| Failed::new(format!("recover failed: {e}")))
}

/// The flight-recorder contract for one recovery: the dump opens with
/// `RecoveryStarted` → `RecoveryCoordinator`, walks the shards in
/// ascending order (each `RecoveryShard` followed by its
/// `RecoveryApplied` events), closes with `RecoveryFinished` — and
/// never applies a grant the live service did not acknowledge, nor
/// emits any `TaskGranted` event (recovery replays; it does not grant).
fn assert_recovery_trace(trace: &[Event], acked: &BTreeSet<TaskId>) -> PropResult {
    prop_assert!(trace.len() >= 3 + SHARDS, "recovery recorded no trace");
    for (i, e) in trace.iter().enumerate() {
        prop_assert_eq!(e.seq, i as u64 + 1, "seqs must be dense from 1");
    }
    prop_assert_eq!(trace[0].kind, EventKind::RecoveryStarted);
    prop_assert_eq!(trace[0].a, SHARDS as u64);
    prop_assert_eq!(trace[1].kind, EventKind::RecoveryCoordinator);
    let last = trace.last().expect("nonempty");
    prop_assert_eq!(last.kind, EventKind::RecoveryFinished);
    let mut shard_cursor: Option<u64> = None;
    let mut shards_seen = 0usize;
    for e in &trace[2..trace.len() - 1] {
        match e.kind {
            EventKind::RecoveryShard => {
                prop_assert!(
                    shard_cursor.is_none_or(|s| e.a > s),
                    "shard {} replayed out of order",
                    e.a
                );
                shard_cursor = Some(e.a);
                shards_seen += 1;
            }
            EventKind::RecoveryApplied => {
                prop_assert!(shard_cursor.is_some(), "apply before any shard replay");
                prop_assert!(
                    acked.contains(&e.a),
                    "recovery applied task {} the live service never acknowledged",
                    e.a
                );
            }
            other => {
                return Err(Failed::new(format!(
                    "unexpected {other:?} event inside the recovery trace"
                )))
            }
        }
    }
    prop_assert_eq!(shards_seen, SHARDS, "every shard must be replayed");
    Ok(())
}

/// One seeded submitter; returns the grant of every *admitted* task.
fn submitter(service: &BudgetService, thread: u64, seed: u64) -> BTreeMap<TaskId, Grant> {
    let mut rng = StdRng::seed_from_u64(seed ^ (thread << 32));
    let mut admitted = BTreeMap::new();
    for i in 0..OPS_PER_THREAD {
        let id = 1 + thread * 1_000_000 + i;
        let blocks: Vec<u64> = if rng.random_range(0..100u32) < 45 {
            vec![rng.random_range(0..N_BLOCKS)]
        } else {
            // 2–4 consecutive blocks: consecutive ids stripe onto
            // distinct shards, so these are cross-shard tasks.
            let first = rng.random_range(0..N_BLOCKS - 4);
            let span = rng.random_range(2..5u64);
            (first..first + span).collect()
        };
        let eps = 0.01 + rng.random::<f64>() * 0.05;
        let task = Task::new(id, 1.0, blocks, RdpCurve::constant(&grid(), eps), 0.0);
        let granted = grant(&task);
        // Post-crash submissions still validate but their grants will
        // release at commit; both outcomes are fine for the model.
        if service.submit(thread as u32, task).is_ok() {
            admitted.insert(id, granted);
        }
    }
    admitted
}

/// What one crashing service lifetime left behind.
struct RunOutcome {
    sim: SimStorage,
    /// The grants the live service acknowledged (its stats — grants are
    /// recorded only after the WAL append was durable).
    acked: Vec<Grant>,
    /// The live ledger at quiescence. In-memory mutations only ever
    /// follow a durable append, so recovery must reproduce this exactly
    /// — crash or no crash.
    live: Vec<BlockView>,
}

impl RunOutcome {
    fn acked_ids(&self) -> BTreeSet<TaskId> {
        self.acked.iter().map(|g| g.task).collect()
    }
}

/// Runs one crashing service lifetime to quiescence.
fn run_crashing_service(seed: u64, crash_at: u64) -> Result<RunOutcome, Failed> {
    let sim = SimStorage::with_crash_after(crash_at);
    let service = match BudgetService::recover(grid(), config(), &sim, opts()) {
        Ok(s) => Arc::new(s),
        // A tiny crash budget can kill even the empty open; that run
        // trivially recovers to an empty ledger.
        Err(_) => {
            return Ok(RunOutcome {
                sim,
                acked: Vec::new(),
                live: Vec::new(),
            })
        }
    };
    for j in 0..N_BLOCKS {
        // Registration may die when the budget lands inside it; the
        // submissions referencing the block are then rejected, which
        // the model handles (they are simply never admitted).
        let _ = service.register_block(Block::new(
            j,
            RdpCurve::constant(&grid(), BLOCK_CAPACITY),
            0.0,
        ));
    }

    let stop = Arc::new(AtomicBool::new(false));
    let cycle_thread = {
        let service = Arc::clone(&service);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut now = 0u64;
            while !stop.load(Ordering::Relaxed) {
                now += 1;
                service.run_cycle(now as f64);
                std::thread::sleep(std::time::Duration::from_micros(100));
            }
            now
        })
    };
    let admitted: BTreeMap<TaskId, Grant> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..N_THREADS)
            .map(|t| {
                let service = Arc::clone(&service);
                s.spawn(move || submitter(&service, t, seed))
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("submitter panicked"))
            .collect()
    });
    stop.store(true, Ordering::Relaxed);
    let final_now = cycle_thread.join().expect("cycle thread panicked");
    // Drain: give everything still pending a chance to commit (or
    // release forever, post-crash).
    for extra in 1..=6u64 {
        service.run_cycle((final_now + extra) as f64);
    }

    let acked = acked(&service, |id| admitted[&id].clone());
    let live = ledger(&service);
    Ok(RunOutcome { sim, acked, live })
}

#[test]
fn crashed_service_recovers_exactly_the_acknowledged_state() {
    check_cases(
        "crashed_service_recovers_exactly_the_acknowledged_state",
        16,
        (ints(0u64..u64::MAX), ints(0u64..40_000)),
        |&(seed, crash_at)| {
            let run = run_crashing_service(seed, crash_at)?;
            let fold = fold_log(&run.sim, SHARDS, opts())?;
            let acked = run.acked_ids();

            // No phantoms: the surviving post-snapshot records name
            // only acknowledged tasks. The history holds: Prop. 6, no
            // acked grant lost or charged twice, and one charge per
            // (acknowledged task, requested block) pair — a partially-
            // applied 2PC grant would break the count.
            prop_assert!(
                fold.applied_tasks().is_subset(&acked),
                "WAL applies a grant the service never acknowledged (crash_at {})",
                crash_at
            );
            check_history(&fold.history(run.acked.clone()))?;

            // Bit-identical durability: the recovered ledger equals
            // the live ledger at quiescence (mutations only ever
            // followed durable appends) *and* the reference fold of
            // the surviving records.
            let recovered = recover(&run.sim.surviving())?;
            let recovered_states = ledger(&recovered);
            diff_states("recovered vs live", &recovered_states, &run.live)?;
            diff_states("recovered vs fold", &recovered_states, &views(&fold.blocks))?;

            // The flight recorder narrates the recovery, in order, and
            // names no task the live service never acknowledged.
            let trace = recovered.obs().recorder.dump();
            assert_recovery_trace(&trace, &acked)?;

            // 2PC atomicity at the log level: a committed attempt was
            // acknowledged, and its surviving intents charge only the
            // task's requested blocks (a compaction may have folded its
            // intents into the snapshot — the bit-identical state
            // checks above prove those charges landed too). An
            // undecided attempt is never acknowledged
            // (unless a later retry of the same task committed).
            let mut committed: BTreeMap<u64, (TaskId, BTreeSet<BlockId>)> = BTreeMap::new();
            for (attempt, task, blocks, _) in fold.intents.iter().filter(|i| i.3) {
                let entry = committed
                    .entry(*attempt)
                    .or_insert((*task, BTreeSet::new()));
                entry.1.extend(blocks);
            }
            for (attempt, (task, covered)) in &committed {
                let Some(acked_grant) = run.acked.iter().find(|g| g.task == *task) else {
                    let never = format!(
                        "attempt {attempt} committed but task {task} was never acknowledged"
                    );
                    return Err(Failed::new(never));
                };
                let requested: BTreeSet<BlockId> = acked_grant.blocks.iter().copied().collect();
                prop_assert!(
                    covered.is_subset(&requested),
                    "attempt {} charges blocks task {} never requested",
                    attempt,
                    task
                );
            }
            for (attempt, task, _, _) in fold.intents.iter().filter(|i| !i.3) {
                let retried = committed.values().any(|(t, _)| t == task);
                prop_assert!(
                    !acked.contains(task) || retried,
                    "attempt {attempt}: task {task} acknowledged without a durable decision"
                );
            }

            // Replay determinism: a second reboot agrees bit-for-bit —
            // including an identical event trace (recorder events carry
            // no timestamps, so the dumps match exactly).
            let again = recover(&run.sim.surviving())?;
            diff_states("second recovery", &ledger(&again), &recovered_states)?;
            prop_assert_eq!(
                again.obs().recorder.dump(),
                trace,
                "recovery event traces diverged between identical reboots"
            );

            // Liveness: the recovered (healthy) service keeps granting.
            if recovered.ledger().contains(0) {
                let id = 999_999_999;
                let t = Task::new(id, 1.0, vec![0], RdpCurve::constant(&grid(), 1e-9), 0.0);
                recovered
                    .submit(0, t)
                    .map_err(|e| Failed::new(format!("post-recovery submit: {e}")))?;
                let cycle = recovered.run_cycle(1.0);
                prop_assert_eq!(cycle.granted(), 1, "recovered service failed to grant");
            }
            Ok(())
        },
    );
}

/// The acceptance direction without a crash: after a quiescent run,
/// recovery from the (complete) logs reproduces the live ledger
/// bit-identically — durability with nothing lost.
#[test]
fn uncrashed_service_recovers_bit_identically_to_the_live_ledger() {
    check_cases(
        "uncrashed_service_recovers_bit_identically_to_the_live_ledger",
        8,
        ints(0u64..u64::MAX),
        |&seed| {
            let run = run_crashing_service(seed, u64::MAX)?;
            prop_assert!(!run.acked.is_empty(), "workload granted nothing");
            let recovered = ledger(&recover(&run.sim.surviving())?);
            diff_states("recovered vs live", &recovered, &run.live)?;
            let fold = fold_log(&run.sim, SHARDS, opts())?;
            diff_states("recovered vs fold", &recovered, &views(&fold.blocks))?;
            prop_assert!(fold.applied_tasks().is_subset(&run.acked_ids()));
            check_history(&fold.history(run.acked))?;
            Ok(())
        },
    );
}

/// The filesystem path end to end: a service writes through an
/// `FsStorage`, restarts from the same directory, and the rebooted
/// ledger is bit-identical — all inside the panic-safe [`TempDir`].
///
/// [`TempDir`]: dpack_service::wal::TempDir
#[test]
fn fs_backed_service_recovers_across_restart() {
    let tmp = dpack_service::wal::TempDir::new("svc-restart").expect("tempdir");
    let open = || {
        let storage = FsStorage::new(tmp.path()).expect("storage");
        BudgetService::recover(grid(), config(), &storage, opts())
    };
    let first = open().expect("open");
    for j in 0..N_BLOCKS {
        first
            .register_block(Block::new(
                j,
                RdpCurve::constant(&grid(), BLOCK_CAPACITY),
                0.0,
            ))
            .unwrap();
    }
    let mut acked = Vec::new();
    for i in 0..20u64 {
        let blocks: Vec<u64> = if i % 3 == 0 {
            vec![i % N_BLOCKS, (i + 1) % N_BLOCKS] // Cross-shard.
        } else {
            vec![i % N_BLOCKS]
        };
        let t = Task::new(i, 1.0, blocks, RdpCurve::constant(&grid(), 0.05), 0.0);
        acked.push(grant(&t));
        first.submit(0, t).unwrap();
    }
    for step in 1..=4u64 {
        first.run_cycle(step as f64); // Compaction cadence (3) fires here.
    }
    let granted = first.stats().granted.len();
    assert_eq!(granted, 20, "everything fits");
    let live = ledger(&first);
    assert!(first.stats().durability.unwrap().records > 0);
    drop(first);

    let rebooted = open().expect("reopen");
    diff_states("rebooted vs live", &ledger(&rebooted), &live).expect("bit-identical reboot");
    let states = rebooted.ledger().block_states();
    check_history(&common::history(acked, &states)).expect("the rebooted history holds");
    // And it keeps scheduling.
    let t = Task::new(999, 1.0, vec![0], RdpCurve::constant(&grid(), 0.01), 0.0);
    rebooted.submit(0, t).unwrap();
    assert_eq!(rebooted.run_cycle(5.0).granted(), 1);
}
