//! Hostile bytes on the one log's record format: junk that passes the
//! WAL's frame checksum must fail *typed* — [`WalError::Corrupt`] from
//! recovery and replica reopen, [`ReplicaApplyError`] from a replica
//! applying a shipped batch — and never panic.
//!
//! Each case draws one hostile record and puts it behind a valid prefix
//! (registrations and a grant), framed by the WAL itself so the
//! checksum holds:
//!
//! * an **unknown stream tag**;
//! * a well-formed record on a **shard the ledger does not have**
//!   (`shard ≥ S`);
//! * a well-formed record **truncated** anywhere short of its end;
//! * a well-formed record whose **tag disagrees with the stream** of
//!   the `Replicate` batch it rides into a replica (or a resync base
//!   riding a shipped batch);
//! * a well-formed record that holds a value the **live path refuses**:
//!   a block (registration, resync base or compaction snapshot) with a
//!   non-finite arrival or capacity, a block (resync base or compaction
//!   snapshot) whose consumption is negative or `-inf` at some order, a
//!   grant (`Apply`, or a committed `Intent`) with a negative or `-inf`
//!   demand — which would replay as a filter that never refuses, or as
//!   a refund.

use dp_accounting::{AlphaGrid, RdpCurve};
use dpack_check::{check_cases, ints, prop_assert, prop_assert_eq, vecs, Failed, PropResult};
use dpack_core::problem::{Block, Task};
use dpack_service::durability::{encode_snapshot, BlockState, LogRecord};
use dpack_service::obs::Obs;
use dpack_service::wal::{SimStorage, Wal, WalError, WalOptions, WalStorage};
use dpack_service::{DurabilityOptions, ReplStream, ReplicaApplyError, ReplicaWal, ShardedLedger};

const SHARDS: usize = 4;
const SEGMENT_BYTES: u64 = 1 << 16;

fn grid() -> AlphaGrid {
    AlphaGrid::new(vec![2.0, 8.0]).unwrap()
}

/// A well-formed record of kind `kind % 6` — block, apply, intent,
/// commit, abort, base — on shard `shard`'s stream (the coordinator's
/// for the two decisions), its fields spun from `seed`.
fn record(kind: u8, shard: u32, seed: u64) -> LogRecord {
    let (demand, blocks) = (vec![f64::from_bits(seed); 2], vec![seed % 8, seed >> 61]);
    match kind % 6 {
        0 => LogRecord::Block {
            shard,
            id: seed,
            arrival: 0.5,
            capacity: demand,
        },
        1 => LogRecord::Apply {
            shard,
            task: seed,
            demand,
            blocks,
        },
        2 => LogRecord::Intent {
            shard,
            attempt: seed >> 3,
            task: seed,
            demand,
            blocks,
        },
        3 => LogRecord::Commit {
            attempt: seed,
            task: seed,
        },
        4 => LogRecord::Abort {
            attempt: seed,
            task: seed,
        },
        _ => {
            let state = BlockState {
                id: seed,
                arrival: 0.0,
                total: demand.clone(),
                consumed: demand,
                granted: seed >> 40,
            };
            LogRecord::Base {
                stream: ReplStream::Shard(shard),
                seq: seed,
                snapshot: encode_snapshot(&[state]),
            }
        }
    }
}

fn open_ledger(storage: &SimStorage) -> Result<ShardedLedger, WalError> {
    let opts = DurabilityOptions {
        segment_bytes: SEGMENT_BYTES,
        snapshot_every_cycles: None,
    };
    ShardedLedger::open_durable(grid(), SHARDS, 1.0, 1, storage, opts, &Obs::off())
}

/// A primary's log with registrations and two grants (one shard-local,
/// one spanning shards).
fn primary_log() -> SimStorage {
    let sim = SimStorage::new();
    let ledger = open_ledger(&sim).expect("fresh storage opens");
    for j in 0..8u64 {
        let block = Block::new(j, RdpCurve::constant(&grid(), 1.0), 0.0);
        ledger.register_block(block).expect("unique blocks");
    }
    let demand = RdpCurve::constant(&grid(), 0.1);
    ledger.commit_task(&Task::new(1, 1.0, vec![2], demand.clone(), 0.0));
    ledger.commit_task(&Task::new(2, 1.0, vec![0, 1], demand, 0.0));
    drop(ledger);
    sim
}

/// [`primary_log`], then `junk` appended as a record of its own.
fn primary_log_with(junk: &[u8]) -> SimStorage {
    let sim = primary_log();
    append_raw(&sim, junk);
    sim
}

/// The log under `sim`, reopened through the WAL itself, so whatever
/// it writes carries a valid frame checksum whatever the bytes.
fn raw_wal(sim: &SimStorage) -> Wal {
    let sub = sim.sub("wal").expect("sim scopes");
    let opts = WalOptions {
        segment_bytes: SEGMENT_BYTES,
    };
    Wal::open(sub, opts).expect("the prefix is valid").0
}

/// Appends `record` to the log under `sim`.
fn append_raw(sim: &SimStorage, record: &[u8]) {
    raw_wal(sim).append(record).expect("sim storage accepts");
}

/// [`primary_log`] plus one record of kind `kind % 5` — registration,
/// resync base, compaction snapshot, `Apply`, committed `Intent` — that
/// holds one value `register_block` or admission refuses, drawn from
/// `seed`: a non-finite arrival or capacity for a block, a negative or
/// `-inf` consumption for a base's or snapshot's block (which the live
/// path, charging only chargeable demands from 0, never holds), a
/// negative or `-inf` demand for a grant. Returns the log and what it
/// holds.
fn refused_value_log(kind: u8, seed: u64) -> (SimStorage, String) {
    let unlivable = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][(seed % 3) as usize];
    let refund = [-0.5, -f64::from_bits(1), -1e300, f64::NEG_INFINITY][(seed >> 2) as usize % 4];
    let order = (seed >> 4) as usize % 2;
    let id = 100 + (seed >> 5) % 64;
    let shard = (id % SHARDS as u64) as u32;
    let (mut arrival, mut capacity, mut consumed) = (0.5, vec![1.0; 2], vec![0.0; 2]);
    // Only a snapshot's or a base's block carries a consumption.
    let carries_consumption = matches!(kind % 5, 1 | 2);
    match (seed >> 11) % 3 {
        0 => arrival = unlivable,
        2 if carries_consumption => consumed[order] = refund,
        _ => capacity[order] = unlivable,
    }
    let state = BlockState {
        id,
        arrival,
        total: capacity.clone(),
        consumed,
        granted: 0,
    };
    let mut demand = vec![0.1; 2];
    demand[order] = refund;
    let sim = primary_log();
    let what = match kind % 5 {
        0 => {
            let block = LogRecord::Block {
                shard,
                id,
                arrival,
                capacity,
            };
            append_raw(&sim, &block.encode());
            format!("{block:?}")
        }
        1 => {
            let base = LogRecord::Base {
                stream: ReplStream::Shard(shard),
                seq: seed,
                snapshot: encode_snapshot(std::slice::from_ref(&state)),
            };
            append_raw(&sim, &base.encode());
            format!("a resync base holding {state:?}")
        }
        2 => {
            let snapshot = encode_snapshot(std::slice::from_ref(&state));
            raw_wal(&sim)
                .snapshot(&snapshot)
                .expect("sim storage accepts");
            format!("a compaction snapshot holding {state:?}")
        }
        3 => {
            let apply = LogRecord::Apply {
                shard: 2,
                task: 99,
                demand,
                blocks: vec![2],
            };
            append_raw(&sim, &apply.encode());
            format!("{apply:?}")
        }
        _ => {
            let intent = LogRecord::Intent {
                shard: 2,
                attempt: 1000,
                task: 98,
                demand,
                blocks: vec![2],
            };
            append_raw(&sim, &intent.encode());
            let commit = LogRecord::Commit {
                attempt: 1000,
                task: 98,
            };
            append_raw(&sim, &commit.encode());
            format!("committed {intent:?}")
        }
    };
    (sim, what)
}

/// Recovery from `sim` must fail with [`WalError::Corrupt`].
fn recovery_is_corrupt(sim: &SimStorage, what: &str) -> PropResult {
    match open_ledger(sim) {
        Err(WalError::Corrupt(_)) => Ok(()),
        Err(e) => Err(Failed::new(format!("{what}: recovery failed untyped: {e}"))),
        Ok(_) => Err(Failed::new(format!("{what}: recovery accepted it"))),
    }
}

/// A replica log holding one valid shipped batch, then `junk` as an
/// append unit of its own: reopening must fail with
/// [`WalError::Corrupt`].
fn replica_reopen_is_corrupt(junk: &[u8], what: &str) -> PropResult {
    let sim = SimStorage::new();
    let replica = ReplicaWal::open(&sim, SHARDS, SEGMENT_BYTES).expect("fresh replica");
    let valid = record(1, 0, 7).encode();
    replica
        .apply(ReplStream::Shard(0), 1, &[valid])
        .map_err(|e| Failed::new(format!("valid batch refused: {e}")))?;
    drop(replica);
    append_raw(&sim, junk);
    match ReplicaWal::open(&sim, SHARDS, SEGMENT_BYTES) {
        Err(WalError::Corrupt(_)) => Ok(()),
        Err(e) => Err(Failed::new(format!("{what}: reopen failed untyped: {e}"))),
        Ok(_) => Err(Failed::new(format!("{what}: reopen accepted it"))),
    }
}

#[test]
fn junk_under_a_valid_checksum_fails_typed_and_never_panics() {
    check_cases(
        "junk_under_a_valid_checksum_fails_typed_and_never_panics",
        64,
        (
            ints(0u8..5),
            ints(0u8..6),
            ints(0u64..u64::MAX),
            vecs(ints(0u8..255), 0..48),
        ),
        |(case, kind, seed, bytes)| {
            let (case, kind, seed) = (*case, *kind, *seed);
            match case {
                // An unknown stream tag: 0, or anything past the two.
                0 => {
                    let tag = [0, 3, 0x7F, 0xFF][(seed % 4) as usize];
                    let junk: Vec<u8> = std::iter::once(tag).chain(bytes.iter().copied()).collect();
                    prop_assert!(LogRecord::decode(&junk).is_err());
                    recovery_is_corrupt(&primary_log_with(&junk), "unknown stream tag")?;
                    replica_reopen_is_corrupt(&junk, "unknown stream tag")
                }
                // A well-formed record on a shard the ledger lacks.
                1 => {
                    let shard = SHARDS as u32 + (seed as u32 % (u32::MAX - SHARDS as u32));
                    let kind = [0, 1, 2, 5][(kind % 4) as usize];
                    let junk = record(kind, shard, seed).encode();
                    recovery_is_corrupt(&primary_log_with(&junk), "shard past the ledger")?;
                    replica_reopen_is_corrupt(&junk, "shard past the replica")
                }
                // A well-formed record cut short anywhere.
                2 => {
                    let full = record(kind, (seed % SHARDS as u64) as u32, seed).encode();
                    let cut = (seed as usize ^ bytes.len()) % full.len();
                    let junk = &full[..cut];
                    prop_assert!(LogRecord::decode(junk).is_err(), "a prefix decoded");
                    recovery_is_corrupt(&primary_log_with(junk), "truncated record")
                }
                // A well-formed record holding a value the live path refuses.
                3 => {
                    let (sim, what) = refused_value_log(kind, seed);
                    recovery_is_corrupt(&sim, &what)
                }
                // A shipped batch carrying a record of another stream.
                _ => {
                    let sim = SimStorage::new();
                    let replica = ReplicaWal::open(&sim, SHARDS, SEGMENT_BYTES).expect("fresh");
                    let frame = ReplStream::Shard((seed % SHARDS as u64) as u32);
                    let ReplStream::Shard(on) = frame else {
                        unreachable!()
                    };
                    let own = record(1, on, seed).encode();
                    replica
                        .apply(frame, 1, std::slice::from_ref(&own))
                        .map_err(|e| Failed::new(format!("valid batch refused: {e}")))?;
                    let before = replica.vector();
                    let stray = match kind % 3 {
                        0 => record(1, (on + 1 + (seed >> 8) as u32 % 3) % SHARDS as u32, seed),
                        1 => record(3, on, seed),
                        _ => record(5, on, seed),
                    };
                    let batch = vec![own, stray.encode()];
                    match replica.apply(frame, 2, &batch) {
                        Err(ReplicaApplyError::Wal(WalError::Corrupt(_))) => {}
                        other => {
                            return Err(Failed::new(format!(
                                "{stray:?} rode a {frame} batch: {other:?}"
                            )))
                        }
                    }
                    prop_assert_eq!(replica.vector(), before.clone(), "the batch was applied");
                    drop(replica);
                    let reopened = ReplicaWal::open(&sim, SHARDS, SEGMENT_BYTES)
                        .map_err(|e| Failed::new(format!("reopen: {e}")))?;
                    prop_assert_eq!(reopened.vector(), before);
                    Ok(())
                }
            }
        },
    );
}

/// The four refunded-consumption logs — a compaction snapshot or a
/// resync base whose block consumed `-0.5` (a refund) or `-inf` (a
/// filter that never refuses) at one order — each fail recovery typed,
/// whatever the drawn suite above happens to reach.
#[test]
fn refunded_consumption_in_a_snapshot_or_base_is_corrupt() {
    for kind in [1, 2] {
        // (seed >> 11) % 3 == 2 puts the refund in `consumed`, and
        // (seed >> 2) % 4 picks -0.5 (0) or -inf (3).
        for refund in [0, 3] {
            let (sim, what) = refused_value_log(kind, (2 << 11) | (refund << 2));
            assert!(what.contains("consumed: [-"), "{what}");
            recovery_is_corrupt(&sim, &what).unwrap();
        }
    }
}
