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
//! * **Independent fold** — the recovered ledger equals the reference
//!   fold of the surviving WAL records (`common::fold_log`), bit for
//!   bit, and equals the live ledger.
//! * **A correct history** — `dpack_check::check_history` judges the
//!   acked grants against the fold: no block overdrawn (Prop. 6), no
//!   acked charge missing, none applied twice, and one charge per
//!   (acked task, requested block) pair.

mod common;

use std::collections::{BTreeMap, BTreeSet};

use common::{acked, fold_log, grant, ledger};
use dp_accounting::{AlphaGrid, RdpCurve};
use dpack_check::{check_cases, check_history, diff_states, ints, prop_assert, Failed, Grant};
use dpack_check::{BlockView, PropResult};
use dpack_core::problem::{Block, Task, TaskId};
use dpack_service::wal::SimStorage;
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
/// Returns `(acked grants, live ledger)`.
fn drive(sim: &SimStorage, seed: u64, cycles: u64) -> Result<(Vec<Grant>, Vec<BlockView>), Failed> {
    let service = match BudgetService::recover(grid(), config(), sim, opts()) {
        Ok(s) => s,
        // The crash budget can kill even the empty open; that run
        // trivially recovers to an empty ledger.
        Err(_) => return Ok((Vec::new(), Vec::new())),
    };
    for j in 0..N_BLOCKS {
        let _ = service.register_block(Block::new(j, RdpCurve::constant(&grid(), 8.0), 0.0));
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut admitted: BTreeMap<TaskId, Grant> = BTreeMap::new();
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
            let t = Task::new(next_id, 1.0, blocks, RdpCurve::constant(&grid(), eps), 0.0);
            let granted = grant(&t);
            if service.submit(0, t).is_ok() {
                admitted.insert(next_id, granted);
            }
        }
        service.run_cycle(step as f64);
    }
    let acked = acked(&service, |id| admitted[&id].clone());
    Ok((acked, ledger(&service)))
}

/// Judges one crashed run: the history the surviving log tells about
/// the acked grants, no phantom grant in it, and the recovered ledger
/// bit-identical to the live one and to the reference fold.
fn check_crash(sim: &SimStorage, acked: Vec<Grant>, live: &[BlockView]) -> PropResult {
    let fold = fold_log(sim, SHARDS, opts())?;
    let acked_ids: BTreeSet<TaskId> = acked.iter().map(|g| g.task).collect();
    prop_assert!(
        fold.applied_tasks().is_subset(&acked_ids),
        "a phantom grant"
    );
    check_history(&fold.history(acked))?;
    let recovered = BudgetService::recover(grid(), config(), &sim.surviving(), opts())
        .map_err(|e| Failed::new(format!("recover: {e}")))?;
    let recovered = ledger(&recovered);
    diff_states("recovered vs live", &recovered, live)?;
    diff_states(
        "recovered vs fold",
        &recovered,
        &common::views(&fold.blocks),
    )
}

#[test]
fn any_cycle_schedule_and_crash_byte_recovers_exactly_the_acked_grants() {
    check_cases(
        "any_cycle_schedule_and_crash_byte_recovers_exactly_the_acked_grants",
        24,
        (ints(0u64..u64::MAX), ints(1u64..8), ints(0u64..24_000)),
        |&(seed, cycles, crash_at)| {
            let sim = SimStorage::with_crash_after(crash_at);
            let (acked, live) = drive(&sim, seed, cycles)?;
            check_crash(&sim, acked, &live)
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
                let (acked, live) = drive(&sim, seed, 3)?;
                check_crash(&sim, acked, &live).map_err(|failed| {
                    Failed::new(format!("crash at byte {crash_at} of cycle 3: {failed}"))
                })?;
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
    // grants and the live ledger.
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
        let acked = acked(&service, |id| grant(&tasks[id as usize]));
        let by_path = (cycle.local_granted, cycle.cross_granted);
        (before, by_path, acked, ledger(&service))
    };
    let probe = SimStorage::new();
    let (before, by_path, decided, _) = run_once(&probe);
    assert_eq!(by_path, (2 * N_BLOCKS as usize, spanning.len()));
    let after = probe.bytes_written();

    for crash_at in before..after {
        let sim = SimStorage::with_crash_after(crash_at);
        let (_, by_path, acked, live) = run_once(&sim);
        assert_eq!(by_path.0 + by_path.1, acked.len());
        assert!(acked.iter().all(|g| decided.contains(g)) && acked.len() < decided.len());
        check_crash(&sim, acked, &live)
            .unwrap_or_else(|failed| panic!("crash at byte {crash_at}: {failed:?}"));
    }
}
