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
//!   `dpack_check::check_history` judges the acked grants against the
//!   replica's log this way, along with Prop. 6 and one charge per
//!   (acked task, requested block) pair.
//! * **Bit-identical promotion** — the promoted ledger equals the dead
//!   primary's live ledger and the reference fold of the replica's
//!   surviving records (`common::fold_log`), bit for bit.
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

mod common;

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use common::{acked, fold_log, grant, ledger};
use dp_accounting::{AlphaGrid, RdpCurve};
use dpack_check::{check_cases, check_history, diff_states, ints, prop_assert, Failed, Grant};
use dpack_check::{BlockView, PropResult};
use dpack_core::problem::{Block, Task, TaskId};
use dpack_service::wal::SimStorage;
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
/// log on `sim_replica`. Returns `(acked grants, live ledger, failed
/// ship count)`.
fn drive_replicated(
    sim_primary: &SimStorage,
    sim_replica: &SimStorage,
    seed: u64,
    cycles: u64,
    refuse: Option<(ReplStream, u64)>,
) -> Result<(Vec<Grant>, Vec<BlockView>, u64), Failed> {
    let mut service = match BudgetService::recover(grid(), config(), sim_primary, opts()) {
        Ok(s) => s,
        // The crash budget can kill even the empty open; that run
        // trivially recovers to an empty ledger.
        Err(_) => return Ok((Vec::new(), Vec::new(), 0)),
    };
    let replica = match ReplicaWal::open(sim_replica, SHARDS, opts().segment_bytes) {
        Ok(r) => r,
        // Same for the replica-side crash budget: no replica, no run.
        Err(_) => return Ok((Vec::new(), Vec::new(), 0)),
    };
    service.replicate_to(Arc::new(InProcessSink::new(replica, refuse)));
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
    let failed_ships = service
        .ledger()
        .durability_stats()
        .map_or(0, |d| d.failed_ships);
    Ok((acked, ledger(&service), failed_ships))
}

/// Shared per-case check: the history the replica's surviving log
/// tells about the acked grants, no phantom grant in it, and the
/// ledger promoted from it bit-identical to the live primary's and to
/// the reference fold.
fn check_promotion(sim_replica: &SimStorage, acked: &[Grant], live: &[BlockView]) -> PropResult {
    let fold = fold_log(sim_replica, SHARDS, opts())?;
    let acked_ids: BTreeSet<TaskId> = acked.iter().map(|g| g.task).collect();
    prop_assert!(
        fold.applied_tasks().is_subset(&acked_ids),
        "a phantom grant"
    );
    check_history(&fold.history(acked.to_vec()))?;
    let promoted = BudgetService::recover(grid(), config(), &sim_replica.surviving(), opts())
        .map_err(|e| Failed::new(format!("promote: {e}")))?;
    let promoted = ledger(&promoted);
    diff_states("promoted vs live", &promoted, live)?;
    diff_states("promoted vs fold", &promoted, &common::views(&fold.blocks))
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
            let (acked, live, _) = drive_replicated(&sim_p, &sim_r, seed, cycles, None)?;
            check_promotion(&sim_r, &acked, &live)
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
            let (acked, live, failed_ships) = drive_replicated(&sim_p, &sim_r, seed, cycles, None)?;
            witnessed_failures.fetch_add(failed_ships, Ordering::Relaxed);
            check_promotion(&sim_r, &acked, &live)
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
            let (acked, live, failed_ships) =
                drive_replicated(&sim_p, &sim_r, 20250808, 6, Some((stream, nth)))
                    .expect("refused run");
            assert_eq!(failed_ships, 1, "{stream} batch {nth} was never shipped");
            assert!(!acked.is_empty(), "seed must grant something");
            check_promotion(&sim_r, &acked, &live)
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
    let (mut acked, live, failed_ships) =
        drive_replicated(&sim_p, &sim_r, 20250808, 6, None).expect("healthy run");
    assert_eq!(failed_ships, 0);
    assert!(!acked.is_empty(), "seed must grant something");
    check_promotion(&sim_r, &acked, &live).expect("promotion invariants");

    let promoted = BudgetService::recover(grid(), config(), &sim_r.surviving(), opts())
        .expect("promote replica");
    // Idempotent resubmission of every acked grant.
    for g in &acked {
        let (id, blocks) = (g.task, g.blocks.clone());
        let t = Task::new(id, 1.0, blocks, RdpCurve::constant(&grid(), 0.01), 0.0);
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
    acked.push(grant(&fresh));
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
    let states = promoted.ledger().block_states();
    check_history(&common::history(acked, &states)).expect("the promoted history holds");
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
    let mut acked = Vec::new();
    let mut cycle = |step: u64| {
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
            acked.push(grant(&t));
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

    let live = ledger(&service);
    let primary = fold_log(&sim_p, SHARDS, opts()).expect("primary log folds");
    check_history(&primary.history(acked)).expect("the primary history holds");
    let promoted = BudgetService::recover(grid(), config(), &sim_r.surviving(), opts())
        .expect("promote replica");
    let promoted_states = ledger(&promoted);
    let primary_fold = common::views(&primary.blocks);
    diff_states("promoted vs primary fold", &promoted_states, &primary_fold)
        .and_then(|()| diff_states("promoted vs live", &promoted_states, &live))
        .expect("promotion is bit-identical");
    assert_eq!(promoted.ledger().granted_count(), 6 * (8 + 3));
}
