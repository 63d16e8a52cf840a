//! Batched crash atomicity: the group-commit counterpart of the
//! recovery suite, with a deterministic single-threaded driver so the
//! *cycle schedule itself* is a pure function of the dpack-check seed.
//!
//! Each case draws a schedule of scheduling cycles (how many tasks
//! arrive before each cycle, their shapes) and a crash byte offset. A
//! cycle's shard-local grants flush as one `append_batch` into the one
//! log for every shard, so the crash can land anywhere inside a batched
//! write: before the batch header, mid-record, between two records of
//! the batch (or of two shards' slices of it), or in a cross-shard
//! intent or decision batch. The invariants, per seeded case:
//!
//! * **Acked-prefix recovery** — the set of grants recovery applies is
//!   exactly the set the live service acknowledged. A batch is
//!   acknowledged as a unit, so a crash inside a batched write
//!   surfaces *no* record of it: recovery never resurrects a grant
//!   the service released, and never loses one it acked. Equivalently
//!   the recovered log is a prefix of the acked record sequence — the
//!   crashed batch is the dropped suffix.
//! * **Independent fold** — the recovered ledger equals a test-local
//!   fold of the surviving WAL records (demultiplexed by their stream
//!   tags, plain `f64` composition in log order), bit for bit, and
//!   equals the live ledger.
//! * **Conservation** — recovered per-block grant counts sum to one
//!   charge per (acked task, requested block) pair.

use std::collections::{BTreeMap, BTreeSet};

use dp_accounting::{AlphaGrid, RdpCurve};
use dpack_check::{check_cases, ints, prop_assert, prop_assert_eq, Failed, PropResult};
use dpack_core::problem::{Block, BlockId, Task, TaskId};
use dpack_service::durability::{decode_snapshot, BlockState, LogRecord};
use dpack_service::wal::{SimStorage, Wal, WalOptions, WalStorage};
use dpack_service::{
    BudgetService, DurabilityOptions, DurabilityStats, SchedulerChoice, ServiceConfig,
    StatsRetention,
};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

const SHARDS: usize = 4;
const N_BLOCKS: u64 = 8;

fn grid() -> AlphaGrid {
    AlphaGrid::new(vec![2.0, 8.0]).unwrap()
}

fn config() -> ServiceConfig {
    ServiceConfig {
        shards: SHARDS,
        workers: 2,
        unlock_steps: 1,
        scheduler: SchedulerChoice::DPack,
        retention: StatsRetention::Unbounded,
        ..ServiceConfig::default()
    }
}

fn opts() -> DurabilityOptions {
    DurabilityOptions {
        // Small segments so batches cross rotation boundaries. No
        // compaction: the acked-set equality below identifies grants
        // by their surviving log records, which a snapshot would fold
        // away (crash-mid-compaction is the recovery suite's job).
        segment_bytes: 512,
        snapshot_every_cycles: None,
    }
}

/// Drives a seeded cycle schedule against a durable service on `sim`.
/// Returns `(acked task → its blocks, live block states)`.
#[allow(clippy::type_complexity)]
fn drive(
    sim: &SimStorage,
    seed: u64,
    cycles: u64,
) -> Result<
    (
        BTreeMap<TaskId, Vec<BlockId>>,
        BTreeMap<BlockId, BlockState>,
    ),
    Failed,
> {
    let service = match BudgetService::recover(grid(), config(), sim, opts()) {
        Ok(s) => s,
        // The crash budget can kill even the empty open; that run
        // trivially recovers to an empty ledger.
        Err(_) => return Ok((BTreeMap::new(), BTreeMap::new())),
    };
    for j in 0..N_BLOCKS {
        let _ = service.register_block(Block::new(j, RdpCurve::constant(&grid(), 8.0), 0.0));
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut admitted: BTreeMap<TaskId, Vec<BlockId>> = BTreeMap::new();
    let mut next_id = 0u64;
    for step in 1..=cycles {
        for _ in 0..rng.random_range(0..12u32) {
            next_id += 1;
            let blocks: Vec<u64> = if rng.random_range(0..100u32) < 60 {
                vec![rng.random_range(0..N_BLOCKS)]
            } else {
                // Consecutive ids stripe onto distinct shards: a
                // cross-shard task whose intents join shard batches.
                let first = rng.random_range(0..N_BLOCKS - 3);
                (first..first + rng.random_range(2..4u64)).collect()
            };
            let eps = 0.01 + rng.random::<f64>() * 0.2;
            let t = Task::new(
                next_id,
                1.0,
                blocks.clone(),
                RdpCurve::constant(&grid(), eps),
                0.0,
            );
            if service.submit(0, t).is_ok() {
                admitted.insert(next_id, blocks);
            }
        }
        service.run_cycle(step as f64);
    }
    let acked: BTreeMap<TaskId, Vec<BlockId>> = service
        .stats()
        .granted
        .iter()
        .map(|a| (a.id, admitted[&a.id].clone()))
        .collect();
    Ok((acked, service.ledger().block_states()))
}

/// An independent replay of the surviving bytes: the one log
/// demultiplexed by stream tag, then plain `f64` addition in log order,
/// `Apply` unconditionally, `Intent` iff the coordinator committed the
/// attempt. Returns `(block states, applied task set)`.
#[allow(clippy::type_complexity)]
fn fold_surviving(
    sim: &SimStorage,
) -> Result<(BTreeMap<BlockId, BlockState>, BTreeSet<TaskId>), Failed> {
    let fail = |e: dpack_service::wal::WalError| Failed::new(e.to_string());
    let sub = sim
        .surviving()
        .sub("wal")
        .map_err(|e| Failed::new(format!("sub: {e}")))?;
    let segment_bytes = opts().segment_bytes;
    let (_, log) = Wal::open(sub, WalOptions { segment_bytes }).map_err(fail)?;
    let mut committed: BTreeSet<u64> = BTreeSet::new();
    let mut shards: Vec<Vec<LogRecord>> = vec![Vec::new(); SHARDS];
    for record in &log.records {
        match LogRecord::decode(record).map_err(fail)? {
            LogRecord::Commit { attempt, .. } => {
                committed.insert(attempt);
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
    let mut blocks: BTreeMap<BlockId, BlockState> = BTreeMap::new();
    if let Some(snap) = &log.snapshot {
        for state in decode_snapshot(snap).map_err(fail)? {
            blocks.insert(state.id, state);
        }
    }
    let mut applied: BTreeSet<TaskId> = BTreeSet::new();
    for record in shards.into_iter().flatten() {
        let (task, demand, charged) = match record {
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
                continue;
            }
            LogRecord::Apply {
                task,
                demand,
                blocks,
                ..
            } => (task, demand, blocks),
            LogRecord::Intent {
                attempt,
                task,
                demand,
                blocks,
                ..
            } => {
                if !committed.contains(&attempt) {
                    continue;
                }
                (task, demand, blocks)
            }
            _ => unreachable!("only shard records were demultiplexed here"),
        };
        for b in &charged {
            let state = blocks
                .get_mut(b)
                .ok_or_else(|| Failed::new(format!("task {task} charges unknown block {b}")))?;
            for (slot, d) in state.consumed.iter_mut().zip(&demand) {
                *slot += d; // Same op, same order as RdpCurve::compose.
            }
            state.granted += 1;
        }
        applied.insert(task);
    }
    Ok((blocks, applied))
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
    }
    Ok(())
}

#[test]
fn any_cycle_schedule_and_crash_byte_recovers_exactly_the_acked_grants() {
    check_cases(
        "any_cycle_schedule_and_crash_byte_recovers_exactly_the_acked_grants",
        24,
        (ints(0u64..u64::MAX), ints(1u64..8), ints(0u64..24_000)),
        |&(seed, cycles, crash_at)| {
            let sim = SimStorage::with_crash_after(crash_at);
            let (acked, live_states) = drive(&sim, seed, cycles)?;
            let (fold_states, applied) = fold_surviving(&sim)?;

            // Acked-prefix recovery, both directions: a crashed batch
            // resurfaces nothing (applied ⊆ acked), an acked batch
            // loses nothing (acked ⊆ applied).
            let acked_ids: BTreeSet<TaskId> = acked.keys().copied().collect();
            prop_assert_eq!(
                &applied,
                &acked_ids,
                "recovered grants are not exactly the acked set (crash_at {})",
                crash_at
            );

            // The recovered ledger, the live ledger, and the
            // independent fold agree bit for bit.
            let recovered = BudgetService::recover(grid(), config(), &sim.surviving(), opts())
                .map_err(|e| Failed::new(format!("recover: {e}")))?;
            let recovered_states = recovered.ledger().block_states();
            assert_states_bit_identical("recovered vs live", &recovered_states, &live_states)?;
            assert_states_bit_identical("recovered vs fold", &recovered_states, &fold_states)?;

            // Conservation: one charge per (acked task, block) pair.
            let expected: u64 = acked.values().map(|blocks| blocks.len() as u64).sum();
            let charged: u64 = recovered_states.values().map(|b| b.granted).sum();
            prop_assert_eq!(charged, expected, "grant-count conservation broken");
            prop_assert!(recovered.ledger().unsound_blocks().is_empty());
            Ok(())
        },
    );
}

/// The same driver with the crash aimed *inside* a batched flush: run
/// the schedule once crash-free to find the bytes a batch begins at,
/// then re-run with the crash landing at every interesting offset
/// inside that batch (header, first record, mid-record, last byte).
#[test]
fn crashes_aimed_inside_a_specific_batch_drop_it_wholesale() {
    check_cases(
        "crashes_aimed_inside_a_specific_batch_drop_it_wholesale",
        12,
        ints(0u64..u64::MAX),
        |&seed| {
            // Probe run: find where the final cycle's flushes start.
            let probe = SimStorage::new();
            let before = {
                let (acked, _) = drive(&probe, seed, 2)?;
                if acked.is_empty() {
                    return Ok(()); // Nothing granted; nothing to aim at.
                }
                probe.bytes_written()
            };
            let probe2 = SimStorage::new();
            drive(&probe2, seed, 3)?;
            let after = probe2.bytes_written();
            if after <= before {
                return Ok(()); // Third cycle wrote nothing.
            }
            // Sweep a few offsets inside the third cycle's writes.
            for frac in [0u64, 1, 2, 3] {
                let crash_at = before + (after - before - 1) * frac / 3;
                let sim = SimStorage::with_crash_after(crash_at);
                let (acked, live_states) = drive(&sim, seed, 3)?;
                let (fold_states, applied) = fold_surviving(&sim)?;
                let acked_ids: BTreeSet<TaskId> = acked.keys().copied().collect();
                prop_assert_eq!(
                    &applied,
                    &acked_ids,
                    "crash at byte {} inside the cycle-3 writes leaked a partial batch",
                    crash_at
                );
                assert_states_bit_identical("live vs fold", &live_states, &fold_states)?;
            }
            Ok(())
        },
    );
}

fn durability(service: &BudgetService) -> DurabilityStats {
    service
        .ledger()
        .durability_stats()
        .expect("durable service")
}

/// The group-commit sync count at service level: a cycle's shard-local
/// grants on all `S` shards are one commit step — one write, one sync,
/// one batch in the one log — whatever `S`, `W` and the grant count
/// are; and a cycle that also grants tasks spanning shards adds exactly
/// two steps, its intents and its decisions, however many attempts it
/// makes.
#[test]
fn shard_local_grants_cost_one_sync_per_commit_step() {
    const CYCLES: u64 = 6;
    const PER_BLOCK: u64 = 3;
    let sim = SimStorage::new();
    let service = BudgetService::recover(grid(), config(), &sim, opts()).expect("open");
    for j in 0..N_BLOCKS {
        service
            .register_block(Block::new(j, RdpCurve::constant(&grid(), 8.0), 0.0))
            .expect("unique blocks");
    }
    let registered = durability(&service);
    assert_eq!(registered.sync_calls, N_BLOCKS, "one sync per registration");
    let mut next_id = 0u64;
    let mut submit = |blocks: Vec<u64>| {
        next_id += 1;
        let t = Task::new(next_id, 1.0, blocks, RdpCurve::constant(&grid(), 0.01), 0.0);
        service.submit(0, t).expect("admitted");
    };
    for step in 1..=CYCLES {
        for j in 0..N_BLOCKS {
            for _ in 0..PER_BLOCK {
                submit(vec![j]);
            }
        }
        let before = durability(&service);
        let cycle = service.run_cycle(step as f64);
        let after = durability(&service);
        let granted = N_BLOCKS * PER_BLOCK;
        assert_eq!(cycle.granted() as u64, granted, "everything fits");
        assert_eq!(after.sync_calls - before.sync_calls, 1, "cycle {step}");
        assert_eq!(after.batches - before.batches, 1, "cycle {step}");
        assert_eq!(after.batched_records - before.batched_records, granted);
    }
    // Local grants on every shard plus four attempts spanning two to
    // four shards: locals, intents, decisions — three syncs.
    for j in 0..N_BLOCKS {
        submit(vec![j]);
    }
    for blocks in [vec![0, 1], vec![1, 2, 3], vec![4, 5], vec![3, 4, 5, 6]] {
        submit(blocks);
    }
    let before = durability(&service);
    let cycle = service.run_cycle(CYCLES as f64 + 1.0);
    let after = durability(&service);
    assert_eq!(
        (cycle.local_granted, cycle.cross_granted),
        (N_BLOCKS as usize, 4)
    );
    assert_eq!(after.sync_calls - before.sync_calls, 3);
    assert_eq!(after.batches - before.batches, 3);
}

/// The commit shape of one global pass: a single cycle whose one
/// scheduling pass selects shard-local tasks on every shard *and* tasks
/// spanning shards, so its grants leave as one group commit of every
/// shard's `Apply` records followed by one two-phase batch (a group
/// commit of intents, one of decisions). Crashed at every byte that
/// cycle writes — inside any shard's slice of the local batch, in the
/// intents, in the decisions — recovery reproduces exactly the grants
/// the journal decided, bit for bit, and no block is overdrawn.
#[test]
fn one_pass_granting_local_and_spanning_tasks_recovers_from_a_crash_at_every_byte() {
    // Two local tasks per block, then tasks spanning two to four
    // shards; everything fits.
    let spanning: [&[u64]; 5] = [&[0, 1], &[1, 2, 3], &[4, 5], &[3, 4, 5, 6], &[6, 7]];
    let tasks: Vec<Task> = (0..2 * N_BLOCKS)
        .map(|i| vec![i % N_BLOCKS])
        .chain(spanning.iter().map(|blocks| blocks.to_vec()))
        .enumerate()
        .map(|(i, blocks)| {
            let eps = 0.01 * (i + 1) as f64;
            Task::new(i as u64, 1.0, blocks, RdpCurve::constant(&grid(), eps), 0.0)
        })
        .collect();
    // Registers the blocks, runs the one cycle; returns the bytes
    // written before it, the cycle's grants by commit path, the acked
    // ids and the live states.
    let run_once = |sim: &SimStorage| {
        let service = BudgetService::recover(grid(), config(), sim, opts()).expect("open");
        for j in 0..N_BLOCKS {
            service
                .register_block(Block::new(j, RdpCurve::constant(&grid(), 8.0), 0.0))
                .expect("the crash lands after registration");
        }
        let before = sim.bytes_written();
        for t in &tasks {
            service.submit(0, t.clone()).expect("admitted");
        }
        let cycle = service.run_cycle(1.0);
        let acked: BTreeSet<TaskId> = service.stats().granted.iter().map(|a| a.id).collect();
        let by_path = (cycle.local_granted, cycle.cross_granted);
        (before, by_path, acked, service.ledger().block_states())
    };
    let probe = SimStorage::new();
    let (before, by_path, decided, _) = run_once(&probe);
    assert_eq!(by_path, (2 * N_BLOCKS as usize, spanning.len()));
    let after = probe.bytes_written();

    for crash_at in before..after {
        let sim = SimStorage::with_crash_after(crash_at);
        let (_, by_path, acked, live_states) = run_once(&sim);
        assert_eq!(by_path.0 + by_path.1, acked.len());
        assert!(acked.is_subset(&decided) && acked.len() < decided.len());
        let (fold_states, applied) = fold_surviving(&sim).expect("surviving bytes fold");
        assert_eq!(applied, acked, "crash at byte {crash_at}");
        let recovered = BudgetService::recover(grid(), config(), &sim.surviving(), opts())
            .expect("surviving bytes recover");
        let recovered_states = recovered.ledger().block_states();
        assert_states_bit_identical("recovered vs live", &recovered_states, &live_states)
            .and_then(|()| {
                assert_states_bit_identical("recovered vs fold", &recovered_states, &fold_states)
            })
            .unwrap_or_else(|failed| panic!("crash at byte {crash_at}: {failed:?}"));
        assert!(recovered.ledger().unsound_blocks().is_empty());
    }
}
