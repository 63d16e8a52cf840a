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
//!   a test-local fold of the surviving WAL records (plain f64
//!   composition in log order), exact to the bit patterns.
//! * **Durability, no phantoms** — the set of grants the live service
//!   acknowledged equals the set recovery applies.
//! * **2PC atomicity** — a committed cross-shard attempt has durable
//!   intents covering exactly the task's blocks; an undecided attempt
//!   charges nothing anywhere.
//! * **Prop. 6 soundness** after recovery, and liveness (the recovered
//!   service keeps granting).
//! * **Replay determinism** — recovering twice yields identical state.
//!
//! Everything is a pure function of the dpack-check seed except thread
//! interleavings; every assertion is interleaving-independent.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use dp_accounting::{AlphaGrid, RdpCurve};
use dpack_check::{check_cases, ints, prop_assert, prop_assert_eq, Failed, PropResult};
use dpack_core::problem::{Block, BlockId, Task, TaskId};
use dpack_service::durability::{decode_snapshot, BlockState, LogRecord};
use dpack_service::obs::{Event, EventKind};
use dpack_service::wal::{FsStorage, SimStorage, Wal, WalOptions, WalStorage};
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

/// One seeded submitter; returns the blocks of every *admitted* task.
fn submitter(service: &BudgetService, thread: u64, seed: u64) -> BTreeMap<TaskId, Vec<BlockId>> {
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
        let task = Task::new(
            id,
            1.0,
            blocks.clone(),
            RdpCurve::constant(&grid(), eps),
            0.0,
        );
        // Post-crash submissions still validate but their grants will
        // release at commit; both outcomes are fine for the model.
        if service.submit(thread as u32, task).is_ok() {
            admitted.insert(id, blocks);
        }
    }
    admitted
}

/// What one crashing service lifetime left behind.
struct RunOutcome {
    sim: SimStorage,
    /// Blocks of every admitted task.
    admitted: BTreeMap<TaskId, Vec<BlockId>>,
    /// Grant ids the live service acknowledged (its stats — grants are
    /// recorded only after the WAL append was durable).
    acked: BTreeSet<TaskId>,
    /// The live ledger's state at quiescence. In-memory mutations only
    /// ever follow a durable append, so recovery must reproduce this
    /// exactly — crash or no crash.
    live_states: BTreeMap<BlockId, BlockState>,
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
                admitted: BTreeMap::new(),
                acked: BTreeSet::new(),
                live_states: BTreeMap::new(),
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
    let admitted: BTreeMap<TaskId, Vec<BlockId>> = std::thread::scope(|s| {
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

    let acked: BTreeSet<TaskId> = service.stats().granted.iter().map(|a| a.id).collect();
    let live_states = service.ledger().block_states();
    Ok(RunOutcome {
        sim,
        admitted,
        acked,
        live_states,
    })
}

/// Decoded view of the surviving logs: per-block reference states and
/// the applied task set, folded exactly as recovery must fold them.
struct Reference {
    blocks: BTreeMap<BlockId, BlockState>,
    applied: BTreeSet<TaskId>,
    /// attempt → (task, union of intent blocks across shards).
    committed_attempts: BTreeMap<u64, (TaskId, BTreeSet<BlockId>)>,
    undecided_intents: Vec<(u64, TaskId)>,
}

fn wal_options() -> WalOptions {
    WalOptions {
        segment_bytes: opts().segment_bytes,
    }
}

/// An independent replay of the surviving bytes: the one log
/// demultiplexed by stream tag, then plain `f64` addition in log order
/// (the same order recovery applies), no service code.
fn fold_reference(storage: &SimStorage) -> Result<Reference, Failed> {
    let fail = |e: dpack_service::wal::WalError| Failed::new(e.to_string());
    let sub = storage
        .surviving()
        .sub("wal")
        .map_err(|e| Failed::new(format!("sub: {e}")))?;
    let (_, log) = Wal::open(sub, wal_options()).map_err(fail)?;

    let mut committed: BTreeMap<u64, TaskId> = BTreeMap::new();
    let mut shards: Vec<Vec<LogRecord>> = vec![Vec::new(); SHARDS];
    for record in &log.records {
        match LogRecord::decode(record).map_err(fail)? {
            LogRecord::Commit { attempt, task } => {
                committed.insert(attempt, task);
            }
            LogRecord::Abort { .. } => {}
            LogRecord::Base { .. } => return Err(Failed::new("a resync base on a primary")),
            record @ (LogRecord::Block { shard, .. }
            | LogRecord::Apply { shard, .. }
            | LogRecord::Intent { shard, .. }) => shards
                .get_mut(shard as usize)
                .ok_or_else(|| Failed::new(format!("record on shard {shard}")))?
                .push(record),
        }
    }
    let mut reference = Reference {
        blocks: BTreeMap::new(),
        applied: BTreeSet::new(),
        committed_attempts: BTreeMap::new(),
        undecided_intents: Vec::new(),
    };
    let mut apply = |blocks: &mut BTreeMap<BlockId, BlockState>,
                     task: TaskId,
                     demand: &[f64],
                     charged: &[BlockId]|
     -> PropResult {
        for b in charged {
            let state = blocks
                .get_mut(b)
                .ok_or_else(|| Failed::new(format!("task {task} charges unknown block {b}")))?;
            for (slot, d) in state.consumed.iter_mut().zip(demand) {
                *slot += d; // Same op, same order as RdpCurve::compose.
            }
            state.granted += 1;
        }
        reference.applied.insert(task);
        Ok(())
    };

    let mut blocks: BTreeMap<BlockId, BlockState> = BTreeMap::new();
    if let Some(snap) = &log.snapshot {
        for state in decode_snapshot(snap).map_err(fail)? {
            blocks.insert(state.id, state);
        }
    }
    for records in shards {
        for record in records {
            match record {
                LogRecord::Block {
                    id,
                    arrival,
                    capacity,
                    ..
                } => {
                    blocks.insert(
                        id,
                        BlockState {
                            id,
                            arrival,
                            consumed: vec![0.0; capacity.len()],
                            total: capacity,
                            granted: 0,
                        },
                    );
                }
                LogRecord::Apply {
                    task,
                    demand,
                    blocks: charged,
                    ..
                } => apply(&mut blocks, task, &demand, &charged)?,
                LogRecord::Intent {
                    attempt,
                    task,
                    demand,
                    blocks: charged,
                    ..
                } => {
                    if committed.contains_key(&attempt) {
                        apply(&mut blocks, task, &demand, &charged)?;
                        reference
                            .committed_attempts
                            .entry(attempt)
                            .or_insert_with(|| (task, BTreeSet::new()))
                            .1
                            .extend(charged.iter().copied());
                    } else {
                        reference.undecided_intents.push((attempt, task));
                    }
                }
                _ => unreachable!("only shard records were demultiplexed here"),
            }
        }
    }
    reference.blocks = blocks;
    Ok(reference)
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

fn assert_states_bit_identical(
    what: &str,
    got: &BTreeMap<BlockId, BlockState>,
    want: &BTreeMap<BlockId, BlockState>,
) -> PropResult {
    prop_assert_eq!(
        got.keys().collect::<Vec<_>>(),
        want.keys().collect::<Vec<_>>(),
        "{}: block set diverged",
        what
    );
    for (id, g) in got {
        let w = &want[id];
        prop_assert_eq!(g.granted, w.granted, "{}: block {} grant count", what, id);
        prop_assert_eq!(
            bits(&g.consumed),
            bits(&w.consumed),
            "{}: block {} consumed bits diverged",
            what,
            id
        );
        prop_assert_eq!(
            bits(&g.total),
            bits(&w.total),
            "{}: block {} total",
            what,
            id
        );
        prop_assert_eq!(g.arrival.to_bits(), w.arrival.to_bits());
    }
    Ok(())
}

#[test]
fn crashed_service_recovers_exactly_the_acknowledged_state() {
    check_cases(
        "crashed_service_recovers_exactly_the_acknowledged_state",
        16,
        (ints(0u64..u64::MAX), ints(0u64..40_000)),
        |&(seed, crash_at)| {
            let run = run_crashing_service(seed, crash_at)?;
            let reference = fold_reference(&run.sim)?;

            // Bit-identical durability: the recovered ledger equals
            // the live ledger at quiescence (mutations only ever
            // followed durable appends) *and* the independent fold of
            // the surviving records.
            let recovered = recover(&run.sim.surviving())?;
            let recovered_states = recovered.ledger().block_states();
            assert_states_bit_identical("recovered vs live", &recovered_states, &run.live_states)?;
            assert_states_bit_identical("recovered vs fold", &recovered_states, &reference.blocks)?;

            // The flight recorder narrates the recovery, in order, and
            // names no task the live service never acknowledged.
            let trace = recovered.obs().recorder.dump();
            assert_recovery_trace(&trace, &run.acked)?;

            // No phantoms, exact conservation: the surviving post-
            // snapshot records name only acknowledged tasks, and the
            // recovered per-block grant counts sum to exactly one
            // charge per (acknowledged task, requested block) pair —
            // a partially-applied 2PC grant would break the equality.
            prop_assert!(
                reference.applied.is_subset(&run.acked),
                "WAL applies a grant the service never acknowledged (crash_at {})",
                crash_at
            );
            let expected_charges: u64 =
                run.acked.iter().map(|t| run.admitted[t].len() as u64).sum();
            let recovered_charges: u64 = recovered_states.values().map(|b| b.granted).sum();
            prop_assert_eq!(
                recovered_charges,
                expected_charges,
                "grant-count conservation broken (crash_at {})",
                crash_at
            );

            // 2PC atomicity at the log level: a committed attempt was
            // acknowledged, and its surviving intents charge only the
            // task's requested blocks (a compaction may have folded its
            // intents into the snapshot — the bit-identical state
            // checks above prove those charges landed too). An
            // undecided attempt is never acknowledged
            // (unless a later retry of the same task committed).
            for (attempt, (task, covered)) in &reference.committed_attempts {
                let requested: BTreeSet<BlockId> = run.admitted[task].iter().copied().collect();
                prop_assert!(
                    covered.is_subset(&requested),
                    "attempt {} charges blocks task {} never requested",
                    attempt,
                    task
                );
                prop_assert!(
                    run.acked.contains(task),
                    "attempt {} committed but task {} was never acknowledged",
                    attempt,
                    task
                );
            }
            for (attempt, task) in &reference.undecided_intents {
                let retried = reference
                    .committed_attempts
                    .values()
                    .any(|(t, _)| t == task);
                prop_assert!(
                    !run.acked.contains(task) || retried,
                    "attempt {attempt}: task {task} acknowledged without a durable decision"
                );
            }

            // Prop. 6 soundness survives the crash.
            prop_assert_eq!(recovered.ledger().unsound_blocks(), Vec::<u64>::new());

            // Replay determinism: a second reboot agrees bit-for-bit —
            // including an identical event trace (recorder events carry
            // no timestamps, so the dumps match exactly).
            let again = recover(&run.sim.surviving())?;
            assert_states_bit_identical(
                "second recovery",
                &again.ledger().block_states(),
                &recovered_states,
            )?;
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
            let recovered = recover(&run.sim.surviving())?;
            let recovered_states = recovered.ledger().block_states();
            assert_states_bit_identical("recovered vs live", &recovered_states, &run.live_states)?;
            let reference = fold_reference(&run.sim)?;
            assert_states_bit_identical("recovered vs fold", &recovered_states, &reference.blocks)?;
            prop_assert!(reference.applied.is_subset(&run.acked));
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
    for i in 0..20u64 {
        let blocks: Vec<u64> = if i % 3 == 0 {
            vec![i % N_BLOCKS, (i + 1) % N_BLOCKS] // Cross-shard.
        } else {
            vec![i % N_BLOCKS]
        };
        let t = Task::new(i, 1.0, blocks, RdpCurve::constant(&grid(), 0.05), 0.0);
        first.submit(0, t).unwrap();
    }
    for step in 1..=4u64 {
        first.run_cycle(step as f64); // Compaction cadence (3) fires here.
    }
    let granted = first.stats().granted.len();
    assert_eq!(granted, 20, "everything fits");
    let live_states = first.ledger().block_states();
    assert!(first.stats().durability.unwrap().records > 0);
    drop(first);

    let rebooted = open().expect("reopen");
    let recovered_states = rebooted.ledger().block_states();
    assert_eq!(recovered_states.len(), live_states.len());
    for (id, got) in &recovered_states {
        let want = &live_states[id];
        assert_eq!(got.granted, want.granted, "block {id}");
        assert_eq!(bits(&got.consumed), bits(&want.consumed), "block {id}");
    }
    assert!(rebooted.ledger().unsound_blocks().is_empty());
    // And it keeps scheduling.
    let t = Task::new(999, 1.0, vec![0], RdpCurve::constant(&grid(), 0.01), 0.0);
    rebooted.submit(0, t).unwrap();
    assert_eq!(rebooted.run_cycle(5.0).granted(), 1);
}
