//! Replication under seeded crashes: the WAL-shipping counterpart of
//! the batch-crash suite. A primary drives the same deterministic
//! cycle schedule while shipping every durable append into an
//! in-process replica log; the crash budget then kills either side's
//! storage at a seeded byte offset. The invariants, per seeded case:
//!
//! * **Promotion loses nothing, resurrects nothing** — recovering a
//!   fresh service from the *replica's* storage applies exactly the
//!   set of grants the primary acknowledged to tenants. A grant is
//!   only acked after its ship succeeded, and a failed ship (or a
//!   failed local append) releases the work, so acked ⊆ replica and
//!   replica ⊆ acked both hold — even with the crash landing inside a
//!   group-commit batch.
//! * **Bit-identical promotion** — the promoted ledger equals the dead
//!   primary's live ledger and an independent fold of the replica's
//!   surviving records, bit for bit.
//! * **One refused stream releases one shard** — a cycle ships its
//!   shards' batches in one round; refusing any one stream of any round
//!   (a shard's local batch, its intents, the coordinator's decisions)
//!   releases exactly the work that rode it, and the three-way
//!   identity above still holds.
//! * **Idempotent failover resubmission** — resubmitting a grant the
//!   promoted ledger already holds is refused as a duplicate; fresh
//!   work is admitted.
//! * **Reopen keeps the stream** — a replica restarted mid-stream
//!   recovers every stream's sequence from its one log, takes the
//!   stream up where it left off, and promotes to the primary's fold.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use dp_accounting::{AlphaGrid, RdpCurve};
use dpack_check::{check_cases, ints, prop_assert, prop_assert_eq, Failed, PropResult};
use dpack_core::problem::{Block, BlockId, Task, TaskId};
use dpack_service::durability::{BlockState, LogRecord};
use dpack_service::wal::{SimStorage, Wal, WalOptions, WalStorage};
use dpack_service::{
    AdmissionError, BudgetService, DurabilityOptions, ReplShipError, ReplStream, ReplicaWal,
    ReplicationSink, SchedulerChoice, ServiceConfig, StatsRetention,
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
        // Small segments so batches cross rotation boundaries; no
        // compaction, so grants are identified by surviving records.
        segment_bytes: 512,
        snapshot_every_cycles: None,
    }
}

/// The test-local quorum-of-one sink: ships straight into a
/// [`ReplicaWal`], assigning each stream's sequence numbers the way
/// [`dpack_net::Replicator`]'s counter does.
#[derive(Debug)]
struct InProcessSink {
    replica: Mutex<ReplicaWal>,
    seqs: Vec<AtomicU64>,
    /// Refuse, once, the batch that would be this stream's `n`-th —
    /// one stream of whatever ship round carries it — without
    /// consuming its sequence number.
    refuse: Option<(ReplStream, u64)>,
    refused: AtomicBool,
}

impl InProcessSink {
    fn new(replica: ReplicaWal, refuse: Option<(ReplStream, u64)>) -> Self {
        let n = replica.n_shards();
        Self {
            replica: Mutex::new(replica),
            seqs: (0..=n).map(|_| AtomicU64::new(0)).collect(),
            refuse,
            refused: AtomicBool::new(false),
        }
    }
}

impl InProcessSink {
    /// The primary's per-stream counters: shard streams, coordinator.
    fn vector(&self) -> Vec<u64> {
        self.seqs
            .iter()
            .map(|s| s.load(Ordering::Relaxed))
            .collect()
    }

    /// The replica process restarts on its own storage.
    fn reopen(&self, storage: &SimStorage) {
        let reopened = ReplicaWal::open(storage, SHARDS, opts().segment_bytes).expect("reopen");
        *self.replica.lock().unwrap() = reopened;
    }
}

impl ReplicationSink for InProcessSink {
    fn ship(&self, stream: ReplStream, records: &[&[u8]]) -> Result<(), ReplShipError> {
        let slot = match stream {
            ReplStream::Shard(s) => s as usize,
            ReplStream::Coordinator => self.seqs.len() - 1,
        };
        let next = self.seqs[slot].load(Ordering::Relaxed) + 1;
        if self.refuse == Some((stream, next)) && !self.refused.swap(true, Ordering::Relaxed) {
            return Err(ReplShipError::Sink(format!(
                "refused {stream} batch {next}"
            )));
        }
        let seq = self.seqs[slot].fetch_add(1, Ordering::Relaxed) + 1;
        let owned: Vec<Vec<u8>> = records.iter().map(|r| r.to_vec()).collect();
        self.replica
            .lock()
            .unwrap()
            .apply(stream, seq, &owned)
            .map(|_| ())
            .map_err(|e| ReplShipError::Sink(e.to_string()))
    }
}

/// Drives the batch-crash suite's seeded cycle schedule against a
/// replicated durable service: primary storage `sim_primary`, replica
/// log on `sim_replica`. Returns `(acked task → its blocks, live
/// block states, failed ship count)`.
#[allow(clippy::type_complexity)]
fn drive_replicated(
    sim_primary: &SimStorage,
    sim_replica: &SimStorage,
    seed: u64,
    cycles: u64,
    refuse: Option<(ReplStream, u64)>,
) -> Result<
    (
        BTreeMap<TaskId, Vec<BlockId>>,
        BTreeMap<BlockId, BlockState>,
        u64,
    ),
    Failed,
> {
    let mut service = match BudgetService::recover(grid(), config(), sim_primary, opts()) {
        Ok(s) => s,
        // The crash budget can kill even the empty open; that run
        // trivially recovers to an empty ledger.
        Err(_) => return Ok((BTreeMap::new(), BTreeMap::new(), 0)),
    };
    let replica = match ReplicaWal::open(sim_replica, SHARDS, opts().segment_bytes) {
        Ok(r) => r,
        // Same for the replica-side crash budget: no replica, no run.
        Err(_) => return Ok((BTreeMap::new(), BTreeMap::new(), 0)),
    };
    service.replicate_to(Arc::new(InProcessSink::new(replica, refuse)));
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
    let failed_ships = service
        .ledger()
        .durability_stats()
        .map_or(0, |d| d.failed_ships);
    Ok((acked, service.ledger().block_states(), failed_ships))
}

/// An independent replay of a node's surviving bytes: the one log
/// demultiplexed by stream tag, then plain `f64` addition in log order,
/// `Apply` unconditionally, `Intent` iff the coordinator committed the
/// attempt.
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
    if log.snapshot.is_some() {
        return Err(Failed::new("nothing here compacts"));
    }
    let mut committed: BTreeSet<u64> = BTreeSet::new();
    let mut shards: Vec<Vec<LogRecord>> = vec![Vec::new(); SHARDS];
    for record in &log.records {
        match LogRecord::decode(record).map_err(fail)? {
            LogRecord::Commit { attempt, .. } => {
                committed.insert(attempt);
            }
            LogRecord::Abort { .. } => {}
            LogRecord::Base { .. } => return Err(Failed::new("nothing here resyncs")),
            record @ (LogRecord::Block { shard, .. }
            | LogRecord::Apply { shard, .. }
            | LogRecord::Intent { shard, .. }) => shards
                .get_mut(shard as usize)
                .ok_or_else(|| Failed::new(format!("record on shard {shard}")))?
                .push(record),
        }
    }
    let mut blocks: BTreeMap<BlockId, BlockState> = BTreeMap::new();
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

/// Shared per-case check: promote from the replica's surviving bytes
/// and hold every invariant against the acked set and the live ledger.
fn check_promotion(
    sim_replica: &SimStorage,
    acked: &BTreeMap<TaskId, Vec<BlockId>>,
    live_states: &BTreeMap<BlockId, BlockState>,
    crash_at: u64,
) -> PropResult {
    let (fold_states, applied) = fold_surviving(sim_replica)?;
    let acked_ids: BTreeSet<TaskId> = acked.keys().copied().collect();
    prop_assert_eq!(
        &applied,
        &acked_ids,
        "replica grants are not exactly the acked set (crash_at {})",
        crash_at
    );

    let promoted = BudgetService::recover(grid(), config(), &sim_replica.surviving(), opts())
        .map_err(|e| Failed::new(format!("promote: {e}")))?;
    let promoted_states = promoted.ledger().block_states();
    assert_states_bit_identical("promoted vs live", &promoted_states, live_states)?;
    assert_states_bit_identical("promoted vs fold", &promoted_states, &fold_states)?;

    // Conservation: one charge per (acked task, block) pair.
    let expected: u64 = acked.values().map(|blocks| blocks.len() as u64).sum();
    let charged: u64 = promoted_states.values().map(|b| b.granted).sum();
    prop_assert_eq!(charged, expected, "grant-count conservation broken");
    prop_assert!(promoted.ledger().unsound_blocks().is_empty());
    Ok(())
}

/// The tentpole sweep: kill the *primary's* storage at a seeded byte
/// offset — anywhere inside a group-commit batch, a registration, or a
/// cross-shard intent/commit pair — and promote the replica.
#[test]
fn a_primary_crash_promotes_the_replica_with_exactly_the_acked_grants() {
    check_cases(
        "a_primary_crash_promotes_the_replica_with_exactly_the_acked_grants",
        24,
        (ints(0u64..u64::MAX), ints(1u64..8), ints(0u64..24_000)),
        |&(seed, cycles, crash_at)| {
            let sim_p = SimStorage::with_crash_after(crash_at);
            let sim_r = SimStorage::new();
            let (acked, live_states, _) = drive_replicated(&sim_p, &sim_r, seed, cycles, None)?;
            check_promotion(&sim_r, &acked, &live_states, crash_at)
        },
    );
}

/// The dual sweep: kill the *replica's* storage instead. Failed ships
/// release the primary's work exactly like failed local appends, so
/// the replica still holds exactly the acked set — and the sweep must
/// actually witness failed ships to be exercising anything.
#[test]
fn a_replica_crash_releases_unshipped_work_and_still_promotes_exactly() {
    let witnessed_failures = AtomicU64::new(0);
    check_cases(
        "a_replica_crash_releases_unshipped_work_and_still_promotes_exactly",
        24,
        // A tighter crash window than the primary sweep: short
        // schedules write a few KB, and the witness assert below needs
        // offsets that actually land inside the run.
        (ints(0u64..u64::MAX), ints(2u64..8), ints(0u64..4_000)),
        |&(seed, cycles, crash_at)| {
            let sim_p = SimStorage::new();
            let sim_r = SimStorage::with_crash_after(crash_at);
            let (acked, live_states, failed_ships) =
                drive_replicated(&sim_p, &sim_r, seed, cycles, None)?;
            witnessed_failures.fetch_add(failed_ships, Ordering::Relaxed);
            check_promotion(&sim_r, &acked, &live_states, crash_at)
        },
    );
    // A DPACK_CHECK_SEED replay runs exactly one drawn case, which may
    // legitimately place its crash past the run's bytes; the coverage
    // witness is a property of the full sweep only.
    if std::env::var_os("DPACK_CHECK_SEED").is_none() {
        assert!(
            witnessed_failures.load(Ordering::Relaxed) > 0,
            "the sweep never exercised a failed ship"
        );
    }
}

/// No crash, one refusal: every stream in turn has its second, third
/// and fourth batch refused once. The grants of that batch are
/// released (never acked), everything else the same round carried
/// stands, and live ≡ promoted ≡ independent fold.
#[test]
fn a_refused_stream_of_a_round_releases_only_what_rode_it() {
    let streams = (0..SHARDS as u32)
        .map(ReplStream::Shard)
        .chain([ReplStream::Coordinator]);
    for stream in streams {
        for nth in 2..=4 {
            let (sim_p, sim_r) = (SimStorage::new(), SimStorage::new());
            let (acked, live_states, failed_ships) =
                drive_replicated(&sim_p, &sim_r, 20250808, 6, Some((stream, nth)))
                    .expect("refused run");
            assert_eq!(failed_ships, 1, "{stream} batch {nth} was never shipped");
            assert!(!acked.is_empty(), "seed must grant something");
            check_promotion(&sim_r, &acked, &live_states, 0)
                .unwrap_or_else(|e| panic!("{stream} batch {nth}: {e:?}"));
        }
    }
}

/// Crash-free failover: promote the replica of a healthy run, then
/// resubmit — everything already acked is refused as a duplicate (no
/// double charge), fresh work is admitted and granted.
#[test]
fn failover_resubmission_is_idempotent_on_the_promoted_service() {
    let sim_p = SimStorage::new();
    let sim_r = SimStorage::new();
    let (acked, live_states, failed_ships) =
        drive_replicated(&sim_p, &sim_r, 20250808, 6, None).expect("healthy run");
    assert_eq!(failed_ships, 0);
    assert!(!acked.is_empty(), "seed must grant something");
    check_promotion(&sim_r, &acked, &live_states, 0).expect("promotion invariants");

    let promoted = BudgetService::recover(grid(), config(), &sim_r.surviving(), opts())
        .expect("promote replica");
    // Idempotent resubmission of every acked grant.
    for (&id, blocks) in &acked {
        let t = Task::new(
            id,
            1.0,
            blocks.clone(),
            RdpCurve::constant(&grid(), 0.01),
            0.0,
        );
        match promoted.submit(0, t) {
            Err(AdmissionError::DuplicateTask { task }) => assert_eq!(task, id),
            other => panic!("acked task {id} must be refused as a duplicate, got {other:?}"),
        }
    }
    // Fresh work flows on the promoted service.
    let fresh = Task::new(
        999_999_999,
        1.0,
        vec![0],
        RdpCurve::constant(&grid(), 0.01),
        0.0,
    );
    promoted.submit(0, fresh).expect("fresh task admitted");
    promoted.run_cycle(100.0);
    assert_eq!(
        promoted
            .stats()
            .granted
            .iter()
            .filter(|a| a.id == 999_999_999)
            .count(),
        1,
        "the fresh task is granted on the promoted service"
    );
    assert!(promoted.ledger().unsound_blocks().is_empty());
}

/// A replica restarted mid-stream: it reopens on its own storage, counts
/// every stream's sequence back out of its one log — the vector it had
/// before the restart — and takes the stream up where it left off.
/// Promoted at the end, it holds exactly what an independent fold of
/// the primary's own log holds, and what the live primary holds.
#[test]
fn a_replica_reopened_mid_stream_keeps_its_vector_and_promotes_to_the_primary_fold() {
    let (sim_p, sim_r) = (SimStorage::new(), SimStorage::new());
    let mut service = BudgetService::recover(grid(), config(), &sim_p, opts()).expect("primary");
    let replica = ReplicaWal::open(&sim_r, SHARDS, opts().segment_bytes).expect("replica");
    let sink = Arc::new(InProcessSink::new(replica, None));
    service.replicate_to(Arc::clone(&sink) as Arc<dyn ReplicationSink>);
    for j in 0..N_BLOCKS {
        service
            .register_block(Block::new(j, RdpCurve::constant(&grid(), 8.0), 0.0))
            .expect("unique blocks");
    }
    // Every cycle grants shard-local tasks and tasks spanning shards.
    let cycle = |step: u64| {
        for i in 0..8u64 {
            let blocks = if i % 3 == 0 {
                vec![i, (i + 1) % N_BLOCKS]
            } else {
                vec![i]
            };
            let eps = 0.01 * (1 + (step + i) % 5) as f64;
            let t = Task::new(
                100 * step + i,
                1.0,
                blocks,
                RdpCurve::constant(&grid(), eps),
                0.0,
            );
            service.submit(0, t).expect("admitted");
        }
        assert_eq!(service.run_cycle(step as f64).granted(), 8, "cycle {step}");
    };
    for step in 1..=3 {
        cycle(step);
    }
    let before = sink.replica.lock().unwrap().vector();
    assert_eq!(before, sink.vector(), "the replica holds the whole stream");
    assert!(
        before.iter().all(|seq| *seq > 0),
        "every stream shipped: {before:?}"
    );

    sink.reopen(&sim_r);
    assert_eq!(sink.replica.lock().unwrap().vector(), before);
    for step in 4..=6 {
        cycle(step);
    }
    assert_eq!(sink.replica.lock().unwrap().vector(), sink.vector());
    let durable = service.ledger().durability_stats().expect("durable");
    assert_eq!((durable.failed_appends, durable.failed_ships), (0, 0));

    let live = service.ledger().block_states();
    let (primary_fold, _) = fold_surviving(&sim_p).expect("primary log folds");
    let promoted = BudgetService::recover(grid(), config(), &sim_r.surviving(), opts())
        .expect("promote replica");
    let promoted_states = promoted.ledger().block_states();
    assert_states_bit_identical("promoted vs primary fold", &promoted_states, &primary_fold)
        .and_then(|()| assert_states_bit_identical("promoted vs live", &promoted_states, &live))
        .expect("promotion is bit-identical");
    assert_eq!(promoted.ledger().granted_count(), 6 * (8 + 3));
    assert!(promoted.ledger().unsound_blocks().is_empty());
}
