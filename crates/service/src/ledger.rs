//! The striped budget ledger.
//!
//! Blocks are partitioned across `S` shards by `block_id mod S`; each
//! shard holds its blocks' [`BlockLedger`] entries (total capacity +
//! RDP privacy filter) behind its own lock. Registrations, snapshots
//! and commits that touch different shards never contend — the striped
//! layout from the PrivateKube service design, rebuilt in-process.
//!
//! This module is striping, locking, write-ahead logging and
//! replication. *Where* a shard keeps its blocks — all in memory, or a
//! bounded hot set over a spilled cold tier — is the `BlockStore`'s
//! business (`store.rs`): the ledger reads and commits through it and
//! never sees a cold block. Snapshots are computed from the store on
//! every call; nothing is cached between cycles.
//!
//! A task whose blocks span several shards is committed with a
//! two-phase protocol: all involved shard locks are acquired in
//! ascending shard order (a global order, so concurrent cross-shard
//! commits cannot deadlock), every filter is checked, and only if *all*
//! grant is the demand consumed anywhere. Otherwise nothing is charged
//! and the task is released back to the caller.
//!
//! # Durability
//!
//! A ledger opened with [`ShardedLedger::open_durable`] writes ahead:
//! each shard owns a `dpack-wal` log appended *under the shard lock and
//! before the in-memory mutation*, and a coordinator log records the
//! cross-shard two-phase-commit decisions (see [`crate::durability`]
//! for the record formats and the recovery argument). A failed append
//! releases the task instead of charging it — an unlogged grant must
//! never reach the filters — and [`ShardedLedger::compact`] folds the
//! logs into per-shard snapshots at a global quiescent point.
//!
//! The grant path is **batch-first**: a scheduling cycle commits its
//! shard-local grants through [`ShardedLedger::commit_shard_batch`]
//! (stage → one group-committed flush → mutate) and its cross-shard
//! grants through [`ShardedLedger::commit_cross_batch`] (intents join
//! their home shard's batch; each decision stays a single synchronous
//! coordinator append), so durable throughput pays about one sync per
//! shard per cycle instead of one per record. [`Wal::append_batch`]'s
//! all-or-nothing acknowledgement is what keeps the recovery argument
//! intact: a failed flush releases the whole batch and recovery is
//! guaranteed to resurface none of it.

use std::collections::{BTreeMap, BTreeSet};
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use dp_accounting::{AlphaGrid, RdpCurve};
use dpack_core::online::BlockLedger;
use dpack_core::problem::{Block, BlockId, ProblemError, Task, TaskId};
use dpack_wal::{Wal, WalError, WalOptions, WalStorage};

use dpack_obs::trace::{span_id, with_active_traces, SpanKind, SpanRing};
use dpack_obs::{Clock, EventKind, FlightRecorder, Histogram, Obs};

use crate::config::{DurabilityOptions, TierConfig};
use crate::durability::{self, BlockState, CoordRecord, ShardRecord};
use crate::replication::{ReplStream, ReplicationSink};
use crate::stats::DurabilityStats;
use crate::store::{BlockStore, TierActivity, TierMeter};

/// Observability hooks the ledger reports into (attached by
/// [`ShardedLedger::instrument`]; absent on an un-instrumented
/// ledger, so the commit paths stay untouched by default).
#[derive(Debug, Clone)]
struct LedgerTelemetry {
    clock: Arc<dyn Clock>,
    /// `dpack_shard_lock_hold_nanos`: time one batched commit holds a
    /// shard lock (excluding the wait to acquire it).
    lock_hold: Histogram,
    /// `dpack_cross_commit_nanos`: one whole 2PC round.
    cross_commit: Histogram,
    recorder: FlightRecorder,
    /// Where traced commits record their WAL-flush spans.
    spans: SpanRing,
}

/// The WAL-flush span salt for coordinator-log appends — mirrors the
/// coordinator's wire stream id, so one constant names the stream in
/// spans, replication frames, and lag gauges alike.
const COORD_FLUSH_SALT: u64 = u32::MAX as u64;

impl LedgerTelemetry {
    /// Opens a WAL-flush span: reads the clock only when the thread
    /// has trace contexts pinned, so untraced commits (and the
    /// deterministic manual-clock suites, which count clock reads)
    /// see zero extra reads.
    fn flush_started(&self) -> Option<u64> {
        let mut started = None;
        with_active_traces(|_| started = Some(self.clock.now_nanos()));
        started
    }

    /// Closes the WAL-flush span for every pinned trace. `salt`
    /// distinguishes the flushed log (shard index, or the coordinator
    /// stream id) and doubles as the span's attribute.
    fn record_flush(&self, started: Option<u64>, salt: u64) {
        let Some(start) = started else { return };
        let end = self.clock.now_nanos();
        with_active_traces(|ctxs| {
            for ctx in ctxs {
                self.spans.record(
                    ctx.trace,
                    span_id(ctx.trace, SpanKind::WalFlush, salt),
                    span_id(ctx.trace, SpanKind::Cycle, 0),
                    SpanKind::WalFlush,
                    start,
                    end,
                    salt,
                );
            }
        });
    }
}

/// One stripe: its blocks plus (when durable) its own log. The log
/// lives *inside* the lock so append order always equals mutation
/// order — the property that makes recovery bit-identical.
#[derive(Debug, Default)]
struct Shard {
    blocks: BlockStore,
    wal: Option<Wal>,
    /// Reusable staging buffer for a cycle's batched records: cleared
    /// per batch, never shrunk, so the steady-state commit path does
    /// no per-record (or even per-cycle) allocation.
    scratch: Vec<u8>,
    /// Record boundaries into `scratch` (kept alongside it for reuse).
    bounds: Vec<usize>,
}

/// A shard locked by a path that may grow its hot set (registration,
/// commits). Dropping it is the one point where the store is handed
/// back, so the hot-tier bound is restored *there* — on every return
/// path, including refused and released commits that faulted blocks in
/// and charged nothing.
struct Checkout<'a> {
    stripe: MutexGuard<'a, Shard>,
    tier: &'a TierMeter,
}

impl Deref for Checkout<'_> {
    type Target = Shard;

    fn deref(&self) -> &Shard {
        &self.stripe
    }
}

impl DerefMut for Checkout<'_> {
    fn deref_mut(&mut self) -> &mut Shard {
        &mut self.stripe
    }
}

impl Drop for Checkout<'_> {
    fn drop(&mut self) {
        // A panicking commit poisons the lock anyway; no I/O for it.
        if !std::thread::panicking() {
            self.stripe.blocks.spill(self.tier);
        }
    }
}

/// The sharded ledger: `S` lock-striped maps of block ledgers.
#[derive(Debug)]
pub struct ShardedLedger {
    grid: AlphaGrid,
    unlock_period: f64,
    unlock_steps: u32,
    shards: Vec<Mutex<Shard>>,
    /// Cross-shard 2PC decision log; locked *after* shard locks
    /// (commit) and compact takes the same order, so no cycle exists.
    coord: Option<Mutex<Wal>>,
    /// Next cross-shard attempt id (unique across recoveries).
    next_attempt: AtomicU64,
    /// Grants released because a WAL append failed.
    wal_failures: AtomicU64,
    /// Where every durable append is shipped before it is acknowledged
    /// (see [`crate::replication`]); `None` on an unreplicated ledger.
    repl: Option<Arc<dyn ReplicationSink>>,
    /// Work released because a ship failed *after* its local append
    /// succeeded — those records live on this primary's disk but were
    /// never acknowledged, which is why a replicated primary hands
    /// over to a promoted replica instead of recovering itself.
    repl_failures: AtomicU64,
    /// Task ids whose grants recovery re-applied, drained once by
    /// [`ShardedLedger::take_recovered_grants`] — the duplicate
    /// history a promoted service rejects failover resubmissions with.
    recovered_grants: BTreeSet<TaskId>,
    compactions: AtomicU64,
    /// Whether [`ShardedLedger::enable_tier`] has run.
    tiered: bool,
    /// Tier occupancy and traffic, summed over the shards' stores.
    tier: TierMeter,
    telemetry: Option<LedgerTelemetry>,
}

/// The outcome of a (two-phase) commit attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommitOutcome {
    /// Every involved filter granted; the demand is charged on all
    /// requested blocks.
    Committed,
    /// At least one filter refused — or, on a durable ledger, the
    /// write-ahead append failed — nothing was charged anywhere and
    /// the task should stay pending.
    Released,
}

pub(crate) fn shard_dir(shard: usize) -> String {
    format!("shard-{shard}")
}

fn tier_dir(shard: usize) -> String {
    format!("tier-{shard}")
}

pub(crate) const COORD_DIR: &str = "coord";

impl ShardedLedger {
    /// Creates an in-memory (non-durable) ledger with `shards` stripes
    /// and the §3.4 unlocking schedule (`unlock_steps = 1` unlocks
    /// everything immediately).
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`, `unlock_steps == 0`, or the unlock
    /// period is not finite and positive.
    pub fn new(grid: AlphaGrid, shards: usize, unlock_period: f64, unlock_steps: u32) -> Self {
        assert!(shards >= 1, "need at least one ledger shard");
        assert!(unlock_steps >= 1, "unlock steps must be >= 1");
        assert!(
            unlock_period > 0.0 && unlock_period.is_finite(),
            "unlock period must be finite and > 0"
        );
        Self {
            grid,
            unlock_period,
            unlock_steps,
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            coord: None,
            next_attempt: AtomicU64::new(0),
            wal_failures: AtomicU64::new(0),
            repl: None,
            repl_failures: AtomicU64::new(0),
            recovered_grants: BTreeSet::new(),
            compactions: AtomicU64::new(0),
            tiered: false,
            tier: TierMeter::default(),
            telemetry: None,
        }
    }

    /// Attaches observability: commit paths report shard-lock holds,
    /// 2PC round durations, and batch-flush events; every WAL (shard
    /// and coordinator) reports append latency and batch sizes. No-op
    /// for a fully disabled [`Obs`], keeping the un-instrumented paths
    /// byte-identical.
    pub fn instrument(&mut self, obs: &Obs) {
        if !obs.is_enabled() && obs.recorder.capacity() == 0 {
            return;
        }
        let clock = Arc::clone(obs.clock());
        let append_nanos = obs.registry.histogram("dpack_wal_append_nanos", "");
        let batch_records = obs.registry.histogram("dpack_wal_batch_records", "");
        for shard in &mut self.shards {
            let shard = shard.get_mut().expect("instrument before sharing");
            if let Some(wal) = &mut shard.wal {
                wal.instrument(dpack_wal::WalTelemetry {
                    clock: Arc::clone(&clock),
                    append_nanos: append_nanos.clone(),
                    batch_records: batch_records.clone(),
                });
            }
        }
        if let Some(coord) = &mut self.coord {
            coord
                .get_mut()
                .expect("instrument before sharing")
                .instrument(dpack_wal::WalTelemetry {
                    clock: Arc::clone(&clock),
                    append_nanos,
                    batch_records,
                });
        }
        self.telemetry = Some(LedgerTelemetry {
            lock_hold: obs.registry.histogram("dpack_shard_lock_hold_nanos", ""),
            cross_commit: obs.registry.histogram("dpack_cross_commit_nanos", ""),
            recorder: obs.recorder.clone(),
            spans: obs.spans.clone(),
            clock,
        });
        self.tier.instrument(obs);
    }

    /// Enables tiered block storage: each shard gets a checksummed
    /// segment store under `storage` (`tier-<s>`, sibling to the
    /// WAL's `shard-<s>`, so a shared fault-injecting storage covers
    /// both), and blocks beyond [`TierConfig::hot_capacity`] spill
    /// least-recently-touched first. Spill space is ephemeral — the
    /// WAL remains the only durability source and recovery
    /// re-materializes everything hot — so opening wipes leftovers,
    /// and the spill files of a shared `storage` never perturb what
    /// recovery sees.
    ///
    /// Call before the ledger is shared (it takes `&mut self`); on a
    /// recovered ledger the hot set is spilled down to the bound
    /// immediately.
    ///
    /// # Errors
    ///
    /// Storage errors from opening (or wiping) the spill directories.
    pub fn enable_tier(
        &mut self,
        storage: &dyn WalStorage,
        config: TierConfig,
    ) -> Result<(), WalError> {
        for (s, shard) in self.shards.iter_mut().enumerate() {
            let shard = shard.get_mut().expect("enable tier before sharing");
            shard
                .blocks
                .enable_tier(storage.sub(&tier_dir(s))?, config, &self.tier)?;
        }
        self.tiered = true;
        Ok(())
    }

    /// Whether tiered block storage is enabled.
    pub fn tier_enabled(&self) -> bool {
        self.tiered
    }

    /// Tier occupancy and traffic since start (`None` when tiering is
    /// off). `spill_bytes` counts live (non-released) spill bytes.
    pub fn tier_activity(&self) -> Option<TierActivity> {
        if !self.tiered {
            return None;
        }
        let mut activity = self.tier.activity();
        for s in 0..self.shards.len() {
            let (segments, bytes) = self.lock(s).blocks.spill_footprint();
            activity.segments += segments;
            activity.spill_bytes += bytes;
        }
        Some(activity)
    }

    /// Available curves for exactly `ids` on one shard at `now` — the
    /// demand-driven view scheduling cycles read on a tiered ledger,
    /// so a cycle's snapshot cost scales with the blocks its tasks
    /// reference rather than with every block registered. Bit-identical
    /// to [`ShardedLedger::snapshot_shard_uncached`] on the ids it
    /// covers, wherever they reside; ids that are unknown or homed on
    /// other shards are skipped.
    pub fn snapshot_blocks(
        &self,
        shard: usize,
        now: f64,
        ids: &[BlockId],
    ) -> BTreeMap<BlockId, RdpCurve> {
        let guard = self.lock(shard);
        ids.iter()
            .filter(|id| self.shard_of(**id) == shard)
            .filter_map(|id| {
                let curve = guard
                    .blocks
                    .with_block(*id, &self.grid, |b| self.available(b, now))?;
                Some((*id, curve))
            })
            .collect()
    }

    /// [`ShardedLedger::snapshot_blocks`] across all shards (one lock
    /// at a time) — the cross-shard pass's demand-driven view.
    pub fn snapshot_blocks_all(&self, now: f64, ids: &[BlockId]) -> BTreeMap<BlockId, RdpCurve> {
        let mut all = BTreeMap::new();
        for s in 0..self.shards.len() {
            all.extend(self.snapshot_blocks(s, now, ids));
        }
        all
    }

    /// Opens a durable ledger in `storage`, recovering whatever state
    /// the logs hold: per-shard snapshots are restored, then each
    /// shard's records replay in append order — `Apply` records
    /// unconditionally, `Intent` records iff the coordinator committed
    /// their attempt (presumed abort otherwise) — reproducing the
    /// pre-crash filter state bit-identically. On empty storage this
    /// is simply a fresh durable ledger.
    ///
    /// # Errors
    ///
    /// Storage errors, or [`WalError::Corrupt`] if the logs cannot be
    /// interpreted (they validate frame-by-frame, so this means a
    /// format mismatch, not a torn tail).
    ///
    /// # Panics
    ///
    /// Panics on the same degenerate parameters as
    /// [`ShardedLedger::new`].
    pub fn open_durable(
        grid: AlphaGrid,
        shards: usize,
        unlock_period: f64,
        unlock_steps: u32,
        storage: &dyn WalStorage,
        opts: DurabilityOptions,
    ) -> Result<Self, WalError> {
        Self::open_durable_obs(
            grid,
            shards,
            unlock_period,
            unlock_steps,
            storage,
            opts,
            &Obs::off(),
        )
    }

    /// [`ShardedLedger::open_durable`] with an observability context:
    /// every recovery step lands in the flight recorder (started →
    /// coordinator fold → per-shard replays, with one
    /// [`EventKind::RecoveryApplied`] per re-applied grant → finished),
    /// so a post-crash dump reconstructs exactly what recovery did.
    ///
    /// # Errors
    ///
    /// See [`ShardedLedger::open_durable`].
    #[allow(clippy::too_many_arguments)]
    pub fn open_durable_obs(
        grid: AlphaGrid,
        shards: usize,
        unlock_period: f64,
        unlock_steps: u32,
        storage: &dyn WalStorage,
        opts: DurabilityOptions,
        obs: &Obs,
    ) -> Result<Self, WalError> {
        let recorder = &obs.recorder;
        recorder.record(EventKind::RecoveryStarted, shards as u64, 0);
        let mut ledger = Self::new(grid, shards, unlock_period, unlock_steps);
        let wal_opts = WalOptions {
            segment_bytes: opts.segment_bytes,
        };

        // Coordinator first: shard replay needs the decided set.
        let (coord, recovered) = Wal::open(storage.sub(COORD_DIR)?, wal_opts)?;
        let mut committed: BTreeSet<u64> = BTreeSet::new();
        let mut max_attempt: Option<u64> = None;
        for record in &recovered.records {
            match CoordRecord::decode(record)? {
                CoordRecord::Commit { attempt, .. } => {
                    committed.insert(attempt);
                    max_attempt = max_attempt.max(Some(attempt));
                }
                CoordRecord::Abort { attempt, .. } => {
                    max_attempt = max_attempt.max(Some(attempt));
                }
            }
        }
        recorder.record(
            EventKind::RecoveryCoordinator,
            committed.len() as u64,
            max_attempt.unwrap_or(0),
        );
        ledger.coord = Some(Mutex::new(coord));

        let mut total_blocks = 0u64;
        for s in 0..shards {
            let (wal, recovered) = Wal::open(storage.sub(&shard_dir(s))?, wal_opts)?;
            recorder.record(
                EventKind::RecoveryShard,
                s as u64,
                recovered.records.len() as u64,
            );
            let shard = ledger.shards[s].get_mut().expect("fresh ledger");
            if let Some(snapshot) = &recovered.snapshot {
                for state in durability::decode_snapshot(snapshot)? {
                    let entry = state.to_ledger(&ledger.grid)?;
                    shard.blocks.put(state.id, entry, &ledger.tier);
                }
            }
            for record in &recovered.records {
                match ShardRecord::decode(record)? {
                    ShardRecord::Block {
                        id,
                        arrival,
                        capacity,
                    } => {
                        let capacity = RdpCurve::new(&ledger.grid, capacity)
                            .map_err(|e| WalError::Corrupt(format!("block {id}: {e}")))?;
                        let entry = BlockLedger::new(Block::new(id, capacity, arrival));
                        shard.blocks.put(id, entry, &ledger.tier);
                    }
                    ShardRecord::Apply {
                        task,
                        demand,
                        blocks,
                    } => {
                        replay_apply(&ledger.grid, shard, task, &demand, &blocks)?;
                        ledger.recovered_grants.insert(task);
                        recorder.record(EventKind::RecoveryApplied, task, 0);
                    }
                    ShardRecord::Intent {
                        attempt,
                        task,
                        demand,
                        blocks,
                    } => {
                        max_attempt = max_attempt.max(Some(attempt));
                        if committed.contains(&attempt) {
                            replay_apply(&ledger.grid, shard, task, &demand, &blocks)?;
                            ledger.recovered_grants.insert(task);
                            // Attempt ids start at 0; shift so 0 can
                            // mean "shard-local" in the event payload.
                            recorder.record(EventKind::RecoveryApplied, task, attempt + 1);
                        }
                    }
                }
            }
            total_blocks += shard.blocks.len() as u64;
            shard.wal = Some(wal);
        }
        recorder.record(EventKind::RecoveryFinished, total_blocks, 0);

        ledger.next_attempt = AtomicU64::new(max_attempt.map_or(0, |a| a + 1));
        Ok(ledger)
    }

    /// Whether this ledger writes ahead.
    pub fn is_durable(&self) -> bool {
        self.coord.is_some()
    }

    /// Attaches a replication sink: from now on every durable append —
    /// registration, group-commit batch, 2PC intent, coordinator
    /// decision — is shipped through `sink` after its local append and
    /// before it is acknowledged, and a failed ship releases the work
    /// exactly like a failed local append. See [`crate::replication`]
    /// for the model (and for why a replicated primary must be
    /// replaced by promotion, never restarted from its own logs).
    ///
    /// # Panics
    ///
    /// Panics on a non-durable ledger (there is nothing to ship) and
    /// on a ledger that already holds state — replicas start empty, so
    /// attaching mid-stream would promote to a truncated history;
    /// bootstrap/catch-up is future work.
    pub fn set_replication(&mut self, sink: Arc<dyn ReplicationSink>) {
        assert!(
            self.is_durable(),
            "replication ships the write-ahead stream; open the ledger durable first"
        );
        assert!(
            self.n_blocks() == 0 && self.next_attempt.load(Ordering::Relaxed) == 0,
            "attach replication to a fresh ledger (replica bootstrap is not supported)"
        );
        self.repl = Some(sink);
    }

    /// [`ShardedLedger::set_replication`] for a **promoted** ledger:
    /// attaches the sink to a ledger that already holds recovered
    /// state. The caller must resume the sink's per-stream sequence
    /// counters from the replica log it folded (the new primary's ship
    /// stream continues the old one), which is exactly what
    /// [`Replicator::resume`]-style constructors exist for — a fresh
    /// sink here would re-number the streams and every replica would
    /// refuse the ships as duplicates.
    ///
    /// # Panics
    ///
    /// Panics on a non-durable ledger.
    pub fn set_replication_resumed(&mut self, sink: Arc<dyn ReplicationSink>) {
        assert!(
            self.is_durable(),
            "replication ships the write-ahead stream; open the ledger durable first"
        );
        self.repl = Some(sink);
    }

    /// Whether a replication sink is attached.
    pub fn is_replicated(&self) -> bool {
        self.repl.is_some()
    }

    /// Per-shard snapshot payloads of the current block states — the
    /// same bytes [`ShardedLedger::compact`] folds into the logs,
    /// captured without writing anything. The resync path ships these
    /// as a lagging replica's new base (snapshot + suffix, reusing the
    /// compaction law); call at a replication-quiescent point so the
    /// payloads and the ship counters agree.
    pub fn shard_snapshot_payloads(&self) -> Vec<Vec<u8>> {
        (0..self.shards.len())
            .map(|s| durability::encode_snapshot(&self.lock(s).blocks.states()))
            .collect()
    }

    /// Drains the task ids whose grants recovery re-applied. The
    /// service seeds its duplicate-rejection history from these, so a
    /// tenant resubmitting an in-flight task after failover — the
    /// idempotent-retry path — cannot double-charge a grant the
    /// promoted ledger already holds.
    pub fn take_recovered_grants(&mut self) -> BTreeSet<TaskId> {
        std::mem::take(&mut self.recovered_grants)
    }

    /// Work released because a replication ship failed after its local
    /// append succeeded.
    pub fn replication_failures(&self) -> u64 {
        self.repl_failures.load(Ordering::Relaxed)
    }

    /// Ships locally appended records to the replication sink; `true`
    /// without one. A `false` releases the caller's work: the records
    /// are on the local disk but quorum durability — the ack
    /// precondition — was not reached.
    fn ship(&self, stream: ReplStream, records: &[&[u8]]) -> bool {
        match &self.repl {
            None => true,
            Some(sink) => match sink.ship(stream, records) {
                Ok(()) => true,
                Err(_) => {
                    self.repl_failures.fetch_add(1, Ordering::Relaxed);
                    false
                }
            },
        }
    }

    /// The alpha grid all curves share.
    pub fn grid(&self) -> &AlphaGrid {
        &self.grid
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard owning a block.
    pub fn shard_of(&self, block: BlockId) -> usize {
        (block % self.shards.len() as u64) as usize
    }

    fn lock(&self, shard: usize) -> MutexGuard<'_, Shard> {
        self.shards[shard]
            .lock()
            .expect("ledger shard lock poisoned")
    }

    /// [`ShardedLedger::lock`] for a path that may grow the hot set.
    fn checkout(&self, shard: usize) -> Checkout<'_> {
        Checkout {
            stripe: self.lock(shard),
            tier: &self.tier,
        }
    }

    /// The §3.4 unlocked-minus-consumed capacity of one block at `now`.
    fn available(&self, block: &BlockLedger, now: f64) -> RdpCurve {
        block.available(now, self.unlock_period, self.unlock_steps)
    }

    /// Registers a newly arrived block on its shard, durably when the
    /// ledger has a WAL (the registration is logged before it becomes
    /// visible).
    ///
    /// # Errors
    ///
    /// Rejects duplicate ids, grid mismatches, and failed WAL appends.
    pub fn register_block(&self, block: Block) -> Result<(), ProblemError> {
        if block.capacity.grid() != &self.grid {
            return Err(ProblemError(format!(
                "block {} is on a different grid",
                block.id
            )));
        }
        // A non-finite arrival pins the §3.4 unlocked fraction at 0
        // forever (`(now − NaN).ceil()` never exceeds 0), leaving a
        // block that exists but can never serve a grant — and every
        // task referencing it admitted-but-undecidable. Blocks arrive
        // bit-verbatim over the wire, so reject it here like the task
        // validator rejects non-finite arrivals.
        if !block.arrival.is_finite() {
            return Err(ProblemError(format!(
                "block {} arrival must be finite",
                block.id
            )));
        }
        // Same for the capacity: `+inf` at any order is a filter that
        // never refuses (Prop. 6 holds vacuously), and `RdpCurve::new`
        // only rules out NaN. Negative finite values stay legal —
        // `block_capacity` produces them at low orders.
        if block.capacity.values().iter().any(|c| !c.is_finite()) {
            return Err(ProblemError(format!(
                "block {} capacity must be finite at every order",
                block.id
            )));
        }
        let mut shard = self.checkout(self.shard_of(block.id));
        if shard.blocks.contains(block.id) {
            return Err(ProblemError(format!("duplicate block id {}", block.id)));
        }
        if let Some(wal) = shard.wal.as_mut() {
            let record = ShardRecord::Block {
                id: block.id,
                arrival: block.arrival,
                capacity: block.capacity.values().to_vec(),
            }
            .encode();
            if let Err(e) = wal.append(&record) {
                self.wal_failures.fetch_add(1, Ordering::Relaxed);
                return Err(ProblemError(format!(
                    "block {} not registered: {e}",
                    block.id
                )));
            }
            let stream = ReplStream::Shard(self.shard_of(block.id) as u32);
            if !self.ship(stream, &[&record]) {
                return Err(ProblemError(format!(
                    "block {} not registered: replication quorum not reached",
                    block.id
                )));
            }
        }
        shard
            .blocks
            .put(block.id, BlockLedger::new(block), &self.tier);
        Ok(())
    }

    /// Whether a block is registered (in either tier).
    pub fn contains(&self, block: BlockId) -> bool {
        self.lock(self.shard_of(block)).blocks.contains(block)
    }

    /// Total number of registered blocks, hot and cold (sums across
    /// shards).
    pub fn n_blocks(&self) -> usize {
        (0..self.shards.len())
            .map(|s| self.lock(s).blocks.len())
            .sum()
    }

    /// Snapshots one shard's available capacities at time `now` (§3.4
    /// unlocked-minus-consumed), holding only that shard's lock: every
    /// block's curve is recomputed under it, so the cost scales with
    /// the blocks registered on the shard. This is the whole-shard view
    /// an untiered scheduling cycle reads. (The name dates from a
    /// per-shard cache that never hit; the benchmark crate calls it,
    /// so it stays until a benchmark PR renames both.)
    pub fn snapshot_shard_uncached(&self, shard: usize, now: f64) -> BTreeMap<BlockId, RdpCurve> {
        let mut view = BTreeMap::new();
        self.lock(shard).blocks.for_each(&self.grid, |id, b| {
            view.insert(id, self.available(b, now));
        });
        view
    }

    /// Snapshots all shards' available capacities at time `now`, taking
    /// shard locks one at a time.
    pub fn snapshot_all(&self, now: f64) -> BTreeMap<BlockId, RdpCurve> {
        let mut all = BTreeMap::new();
        for s in 0..self.shards.len() {
            all.extend(self.snapshot_shard_uncached(s, now));
        }
        all
    }

    /// Total (initial) capacities of all blocks, for fairness metrics.
    pub fn total_capacities(&self) -> BTreeMap<BlockId, RdpCurve> {
        self.block_states()
            .into_iter()
            .map(|(id, state)| {
                let total = RdpCurve::new(&self.grid, state.total)
                    .expect("registered under the ledger grid");
                (id, total)
            })
            .collect()
    }

    /// Every block's persisted-form state (arrival, capacity,
    /// consumption bit patterns, grant count) — the recovery suites
    /// compare these across crash/recover runs, wherever each block
    /// resides.
    pub fn block_states(&self) -> BTreeMap<BlockId, BlockState> {
        let mut all = BTreeMap::new();
        for s in 0..self.shards.len() {
            let states = self.lock(s).blocks.states();
            all.extend(states.into_iter().map(|state| (state.id, state)));
        }
        all
    }

    /// Two-phase commit of a task's demand across all its blocks.
    ///
    /// Locks the involved shards in ascending shard order, checks every
    /// block's filter, and consumes on all of them only if all grant —
    /// the task either commits everywhere or nowhere. On a durable
    /// ledger the grant is logged before any mutation: a single-shard
    /// task appends one `Apply` record; a cross-shard task appends an
    /// `Intent` per involved shard and then the coordinator's `Commit`
    /// (any append failure releases the task, appending a best-effort
    /// `Abort` so readers of the log can tell the attempt died).
    ///
    /// # Panics
    ///
    /// Panics if the task references an unregistered block (admission
    /// validates block existence, and blocks are never removed).
    pub fn commit_task(&self, task: &Task) -> CommitOutcome {
        // Involved shards, ascending and deduplicated: the global lock
        // order that makes concurrent cross-shard commits deadlock-free.
        let mut involved: Vec<usize> = task.blocks.iter().map(|b| self.shard_of(*b)).collect();
        involved.sort_unstable();
        involved.dedup();

        let mut guards: BTreeMap<usize, Checkout<'_>> =
            involved.iter().map(|s| (*s, self.checkout(*s))).collect();

        for s in &involved {
            let stripe = guards.get_mut(s).expect("locked above");
            if !self.ensure_hot(stripe, task, *s) {
                return CommitOutcome::Released;
            }
        }

        // Phase 1: check every filter under the locks.
        for b in &task.blocks {
            let shard = &guards[&self.shard_of(*b)];
            if !shard.blocks.hot(task.id, *b).check(&task.demand) {
                return CommitOutcome::Released;
            }
        }

        // Write-ahead phase: the grant must be durable before any
        // filter mutates. Still under every involved lock, so log
        // order is mutation order.
        if self.coord.is_some() && !self.log_grant(task, &involved, &mut guards) {
            return CommitOutcome::Released;
        }

        // Phase 2: consume on every block; cannot fail after phase 1
        // because we still hold every involved lock.
        for b in &task.blocks {
            let shard = guards.get_mut(&self.shard_of(*b)).expect("locked above");
            shard
                .blocks
                .hot_mut(*b)
                .expect("checked in phase 1")
                .commit(&task.demand)
                .expect("filter re-check cannot fail under the held locks");
        }
        CommitOutcome::Committed
    }

    /// Appends the write-ahead records for a checked grant. Returns
    /// `false` (caller releases) if any append fails.
    fn log_grant(
        &self,
        task: &Task,
        involved: &[usize],
        guards: &mut BTreeMap<usize, Checkout<'_>>,
    ) -> bool {
        let demand = task.demand.values().to_vec();
        if let [only] = involved {
            let record = ShardRecord::Apply {
                task: task.id,
                demand,
                blocks: task.blocks.clone(),
            }
            .encode();
            let wal = guards
                .get_mut(only)
                .expect("locked above")
                .wal
                .as_mut()
                .expect("durable ledger has a wal per shard");
            if wal.append(&record).is_err() {
                self.wal_failures.fetch_add(1, Ordering::Relaxed);
                return false;
            }
            return self.ship(ReplStream::Shard(*only as u32), &[&record]);
        }

        let attempt = self.next_attempt.fetch_add(1, Ordering::Relaxed);
        let coord = self.coord.as_ref().expect("checked by caller");
        for s in involved {
            let blocks: Vec<BlockId> = task
                .blocks
                .iter()
                .copied()
                .filter(|b| self.shard_of(*b) == *s)
                .collect();
            let record = ShardRecord::Intent {
                attempt,
                task: task.id,
                demand: demand.clone(),
                blocks,
            }
            .encode();
            let wal = guards
                .get_mut(s)
                .expect("locked above")
                .wal
                .as_mut()
                .expect("durable ledger has a wal per shard");
            let appended = wal.append(&record).is_ok();
            if !appended || !self.ship(ReplStream::Shard(*s as u32), &[&record]) {
                // Presumed abort: without a coordinator Commit these
                // intents charge nothing on recovery. The Abort record
                // is advisory (and itself best-effort, shipped or not).
                if !appended {
                    self.wal_failures.fetch_add(1, Ordering::Relaxed);
                }
                let abort = CoordRecord::Abort {
                    attempt,
                    task: task.id,
                }
                .encode();
                let mut coord = coord.lock().expect("coordinator lock poisoned");
                if coord.append(&abort).is_ok() {
                    let _ = self.ship(ReplStream::Coordinator, &[&abort]);
                }
                return false;
            }
        }
        let commit = CoordRecord::Commit {
            attempt,
            task: task.id,
        }
        .encode();
        let mut coord = coord.lock().expect("coordinator lock poisoned");
        if coord.append(&commit).is_err() {
            // The decision never became durable: recovery will presume
            // abort, so the in-memory state must not change either.
            self.wal_failures.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        // The decision counts only once it is quorum-durable: a failed
        // ship releases the grant, and promotion (which never sees this
        // Commit) presumes abort — consistent with the release.
        self.ship(ReplStream::Coordinator, &[&commit])
    }

    /// Commits a scheduling cycle's shard-local grants as **one
    /// group-committed batch** under a single acquisition of the shard
    /// lock. Every task must have all of its blocks on `shard` (the
    /// cycle's partition guarantees it).
    ///
    /// Semantics match committing the tasks one by one in order: each
    /// task's filter check sees the consumption of the tasks staged
    /// before it (a shadow copy of the touched block ledgers carries
    /// that state), and the outcomes vector lines up with `tasks`. On
    /// a durable ledger the staged records flush with one write + one
    /// sync ([`Wal::append_batch`]); only then do the real filters
    /// mutate — by swapping the shadow in, so the in-memory state is
    /// bit-for-bit the state the staging arithmetic computed and the
    /// state replaying the batch reproduces. A failed flush releases
    /// the *whole* batch, which is sound because a failed
    /// `append_batch` is guaranteed to resurface nothing.
    ///
    /// On a non-durable ledger there is nothing to flush, so this is
    /// the sequential per-task path under the same single lock hold.
    ///
    /// # Panics
    ///
    /// Panics if a task references an unregistered block, like
    /// [`ShardedLedger::commit_task`].
    pub fn commit_shard_batch(&self, shard: usize, tasks: &[&Task]) -> Vec<CommitOutcome> {
        if tasks.is_empty() {
            return Vec::new();
        }
        debug_assert!(tasks
            .iter()
            .all(|t| t.blocks.iter().all(|b| self.shard_of(*b) == shard)));
        let mut guard = self.checkout(shard);
        let held = self.telemetry.as_ref().map(|t| t.clock.now_nanos());
        let durable = guard.wal.is_some();
        let outcomes = self.commit_shard_batch_locked(&mut guard, shard, tasks);
        drop(guard); // Spills: part of the hold the histogram reports.
        if let (Some(t), Some(held)) = (&self.telemetry, held) {
            t.lock_hold.record(t.clock.now_nanos().saturating_sub(held));
            let committed = outcomes
                .iter()
                .filter(|o| matches!(o, CommitOutcome::Committed))
                .count() as u64;
            if durable && committed > 0 {
                t.recorder
                    .record(EventKind::BatchFlushed, shard as u64, committed);
            }
        }
        outcomes
    }

    /// [`ShardedLedger::commit_shard_batch`] under an already-held
    /// shard lock.
    fn commit_shard_batch_locked(
        &self,
        stripe: &mut Shard,
        shard: usize,
        tasks: &[&Task],
    ) -> Vec<CommitOutcome> {
        if stripe.wal.is_none() {
            return tasks
                .iter()
                .map(|task| self.commit_one_local(stripe, shard, task))
                .collect();
        }

        // Stage: check against the shadow, encode into the reusable
        // scratch, consume on the shadow.
        let mut outcomes = vec![CommitOutcome::Released; tasks.len()];
        let mut shadow: BTreeMap<BlockId, BlockLedger> = BTreeMap::new();
        let mut staged: Vec<usize> = Vec::with_capacity(tasks.len());
        stripe.scratch.clear();
        stripe.bounds.clear();
        stripe.bounds.push(0);
        for (i, task) in tasks.iter().enumerate() {
            if !self.ensure_hot(stripe, task, shard) {
                continue;
            }
            let granted = task.blocks.iter().all(|b| {
                shadow
                    .get(b)
                    .unwrap_or_else(|| stripe.blocks.hot(task.id, *b))
                    .check(&task.demand)
            });
            if !granted {
                continue;
            }
            durability::encode_apply_into(
                &mut stripe.scratch,
                task.id,
                task.demand.values(),
                &task.blocks,
            );
            stripe.bounds.push(stripe.scratch.len());
            for b in &task.blocks {
                shadow
                    .entry(*b)
                    .or_insert_with(|| stripe.blocks.hot(task.id, *b).clone())
                    .commit(&task.demand)
                    .expect("checked against the shadow");
            }
            staged.push(i);
        }
        if staged.is_empty() {
            return outcomes;
        }

        // Flush: one write, one sync, then (and only then) mutate.
        let views: Vec<&[u8]> = stripe
            .bounds
            .windows(2)
            .map(|w| &stripe.scratch[w[0]..w[1]])
            .collect();
        let wal = stripe.wal.as_mut().expect("checked above");
        let flush = self
            .telemetry
            .as_ref()
            .and_then(LedgerTelemetry::flush_started);
        if wal.append_batch(&views).is_err() {
            // All-or-nothing: no record of this batch survives, so
            // releasing every staged grant keeps live ≡ recovered.
            self.wal_failures.fetch_add(1, Ordering::Relaxed);
            return outcomes;
        }
        if let Some(t) = &self.telemetry {
            t.record_flush(flush, shard as u64);
        }
        // One ship per flush: quorum durability rides the same batch
        // boundary as the fsync. A failed ship releases the whole
        // batch (locally durable, never acknowledged).
        if !self.ship(ReplStream::Shard(shard as u32), &views) {
            return outcomes;
        }
        for (b, entry) in shadow {
            stripe.blocks.put(b, entry, &self.tier);
        }
        for i in staged {
            outcomes[i] = CommitOutcome::Committed;
        }
        outcomes
    }

    /// The sequential local commit of a non-durable ledger: check,
    /// mutate. One task, lock already held.
    fn commit_one_local(&self, stripe: &mut Shard, shard: usize, task: &Task) -> CommitOutcome {
        debug_assert!(stripe.wal.is_none(), "durable grants flush as a batch");
        if !self.ensure_hot(stripe, task, shard) {
            return CommitOutcome::Released;
        }
        for b in &task.blocks {
            if !stripe.blocks.hot(task.id, *b).check(&task.demand) {
                return CommitOutcome::Released;
            }
        }
        for b in &task.blocks {
            stripe
                .blocks
                .hot_mut(*b)
                .expect("checked above")
                .commit(&task.demand)
                .expect("filter re-check cannot fail under the held lock");
        }
        CommitOutcome::Committed
    }

    /// Commits a scheduling cycle's cross-shard grants as one batch:
    /// the union of involved shard locks is taken in ascending order
    /// (the same global order as everything else, so still
    /// deadlock-free), each granted task's per-shard `Intent` records
    /// join their home shard's staged batch, the batches flush with
    /// one sync per shard — and then each attempt is decided by its
    /// own **single synchronous** coordinator `Commit` append, exactly
    /// as in the per-task path, so the presumed-abort recovery
    /// argument is untouched: an intent whose decision never became
    /// durable charges nothing. Real filters mutate per task only
    /// after that task's decision is durable.
    ///
    /// Falls back to per-task [`ShardedLedger::commit_task`] on a
    /// non-durable ledger.
    ///
    /// # Panics
    ///
    /// Panics if a task references an unregistered block.
    pub fn commit_cross_batch(&self, tasks: &[&Task]) -> Vec<CommitOutcome> {
        if tasks.is_empty() {
            return Vec::new();
        }
        let started = self.telemetry.as_ref().map(|t| t.clock.now_nanos());
        let outcomes = self.commit_cross_batch_inner(tasks);
        if let (Some(t), Some(started)) = (&self.telemetry, started) {
            t.cross_commit
                .record(t.clock.now_nanos().saturating_sub(started));
        }
        outcomes
    }

    /// The 2PC round [`ShardedLedger::commit_cross_batch`] times.
    fn commit_cross_batch_inner(&self, tasks: &[&Task]) -> Vec<CommitOutcome> {
        if self.coord.is_none() {
            return tasks.iter().map(|t| self.commit_task(t)).collect();
        }

        let involved: BTreeSet<usize> = tasks
            .iter()
            .flat_map(|t| t.blocks.iter().map(|b| self.shard_of(*b)))
            .collect();
        let mut guards: BTreeMap<usize, Checkout<'_>> =
            involved.iter().map(|s| (*s, self.checkout(*s))).collect();
        for stripe in guards.values_mut() {
            stripe.scratch.clear();
            stripe.bounds.clear();
            stripe.bounds.push(0);
        }

        // Stage every grantable task: shadow-checked, intents encoded
        // into each home shard's scratch.
        let mut outcomes = vec![CommitOutcome::Released; tasks.len()];
        let mut shadow: BTreeMap<BlockId, BlockLedger> = BTreeMap::new();
        let mut staged: Vec<(usize, u64)> = Vec::new(); // (task index, attempt)
        for (i, task) in tasks.iter().enumerate() {
            let mut task_shards: Vec<usize> =
                task.blocks.iter().map(|b| self.shard_of(*b)).collect();
            task_shards.sort_unstable();
            task_shards.dedup();
            let hot = task_shards.iter().all(|s| {
                let stripe = guards.get_mut(s).expect("locked above");
                self.ensure_hot(stripe, task, *s)
            });
            if !hot {
                continue;
            }
            let granted = task.blocks.iter().all(|b| {
                shadow
                    .get(b)
                    .unwrap_or_else(|| guards[&self.shard_of(*b)].blocks.hot(task.id, *b))
                    .check(&task.demand)
            });
            if !granted {
                continue;
            }
            let attempt = self.next_attempt.fetch_add(1, Ordering::Relaxed);
            for s in task_shards {
                let blocks: Vec<BlockId> = task
                    .blocks
                    .iter()
                    .copied()
                    .filter(|b| self.shard_of(*b) == s)
                    .collect();
                let stripe = &mut **guards.get_mut(&s).expect("locked above");
                durability::encode_intent_into(
                    &mut stripe.scratch,
                    attempt,
                    task.id,
                    task.demand.values(),
                    &blocks,
                );
                let end = stripe.scratch.len();
                stripe.bounds.push(end);
            }
            for b in &task.blocks {
                shadow
                    .entry(*b)
                    .or_insert_with(|| guards[&self.shard_of(*b)].blocks.hot(task.id, *b).clone())
                    .commit(&task.demand)
                    .expect("checked against the shadow");
            }
            staged.push((i, attempt));
        }
        if staged.is_empty() {
            return outcomes;
        }

        // Flush each home shard's intent batch: one sync (and one
        // replication ship) per shard.
        let coord = self.coord.as_ref().expect("checked above");
        for (s, stripe) in guards.iter_mut() {
            let stripe = &mut **stripe;
            if stripe.scratch.is_empty() {
                continue;
            }
            let views: Vec<&[u8]> = stripe
                .bounds
                .windows(2)
                .map(|w| &stripe.scratch[w[0]..w[1]])
                .collect();
            let wal = stripe
                .wal
                .as_mut()
                .expect("durable ledger has a wal per shard");
            let flush = self
                .telemetry
                .as_ref()
                .and_then(LedgerTelemetry::flush_started);
            let appended = wal.append_batch(&views).is_ok();
            if appended {
                if let Some(t) = &self.telemetry {
                    t.record_flush(flush, *s as u64);
                }
            }
            if !appended || !self.ship(ReplStream::Shard(*s as u32), &views) {
                // Presumed abort: no attempt in this batch got (or
                // will get) a durable decision, so nothing is charged
                // anywhere — on recovery or in memory. The aborts are
                // advisory, as in the per-task path.
                if !appended {
                    self.wal_failures.fetch_add(1, Ordering::Relaxed);
                }
                let mut coord = coord.lock().expect("coordinator lock poisoned");
                for (i, attempt) in &staged {
                    let abort = CoordRecord::Abort {
                        attempt: *attempt,
                        task: tasks[*i].id,
                    }
                    .encode();
                    if coord.append(&abort).is_ok() {
                        let _ = self.ship(ReplStream::Coordinator, &[&abort]);
                    }
                }
                return outcomes;
            }
        }

        // Decide: one synchronous coordinator append per attempt, then
        // — once per cross batch, not per attempt — one replication
        // ship of the whole decided prefix. The real filters mutate
        // (in staging order) only for attempts whose decision is both
        // locally durable and quorum-replicated.
        let mut coord = coord.lock().expect("coordinator lock poisoned");
        let mut decided: Vec<(usize, Vec<u8>)> = Vec::with_capacity(staged.len());
        let flush = self
            .telemetry
            .as_ref()
            .and_then(LedgerTelemetry::flush_started);
        for (i, attempt) in staged {
            let mut decision = Vec::with_capacity(17);
            CoordRecord::Commit {
                attempt,
                task: tasks[i].id,
            }
            .encode_into(&mut decision);
            if coord.append(&decision).is_err() {
                // The coordinator log is broken: this and every later
                // attempt presumes abort; earlier commits stand.
                self.wal_failures.fetch_add(1, Ordering::Relaxed);
                break;
            }
            decided.push((i, decision));
        }
        if !decided.is_empty() {
            if let Some(t) = &self.telemetry {
                t.record_flush(flush, COORD_FLUSH_SALT);
            }
        }
        let shipped = decided.is_empty() || {
            let views: Vec<&[u8]> = decided.iter().map(|(_, d)| d.as_slice()).collect();
            self.ship(ReplStream::Coordinator, &views)
        };
        if shipped {
            for (i, _) in &decided {
                let task = tasks[*i];
                for b in &task.blocks {
                    let stripe = guards.get_mut(&self.shard_of(*b)).expect("locked above");
                    stripe
                        .blocks
                        .hot_mut(*b)
                        .expect("checked while staging")
                        .commit(&task.demand)
                        .expect("staged arithmetic cannot diverge");
                }
                outcomes[*i] = CommitOutcome::Committed;
            }
        }
        outcomes
    }

    /// Folds the logs into per-shard snapshots and truncates the
    /// coordinator, at a global quiescent point (all shard locks plus
    /// the coordinator, in the commit path's order). Shards are
    /// snapshotted before the coordinator is truncated — a crash
    /// anywhere inside leaves a recoverable mix of old segments,
    /// snapshots, and a coordinator that is at worst a superset of
    /// what the surviving intents need.
    ///
    /// A log broken by an earlier failed append is
    /// [repaired](Wal::repair) first, so a *transient* storage fault
    /// (ENOSPC, EIO) only suppresses grants until the next compaction
    /// cycle instead of until a process restart.
    ///
    /// No-op on a non-durable ledger.
    ///
    /// # Errors
    ///
    /// The first WAL error; shards already compacted stay compacted.
    pub fn compact(&self) -> Result<(), WalError> {
        let mut guards: Vec<MutexGuard<'_, Shard>> =
            (0..self.shards.len()).map(|s| self.lock(s)).collect();
        // Tier maintenance first: rewrite spill segments dominated by
        // dead entries, so the cold tier's disk footprint tracks its
        // live set even on a non-durable ledger.
        for shard in &mut guards {
            shard.blocks.compact_spill()?;
        }
        let Some(coord) = &self.coord else {
            return Ok(());
        };
        for shard in &mut guards {
            let wal = shard
                .wal
                .as_mut()
                .expect("durable ledger has a wal per shard");
            wal.repair()?;
            // Every block, whichever tier holds it: the WAL stays the
            // only durable copy regardless of residency.
            let payload = durability::encode_snapshot(&shard.blocks.states());
            shard
                .wal
                .as_mut()
                .expect("durable ledger has a wal per shard")
                .snapshot(&payload)?;
        }
        // Last: every live intent is now baked into a shard snapshot,
        // so the decision log can restart empty.
        let mut coord = coord.lock().expect("coordinator lock poisoned");
        coord.repair()?;
        coord.snapshot(&[])?;
        self.compactions.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Write-ahead activity counters (`None` for an in-memory ledger).
    pub fn durability_stats(&self) -> Option<DurabilityStats> {
        let coord = self.coord.as_ref()?;
        let mut stats = DurabilityStats {
            failed_appends: self.wal_failures.load(Ordering::Relaxed),
            failed_ships: self.repl_failures.load(Ordering::Relaxed),
            compactions: self.compactions.load(Ordering::Relaxed),
            ..DurabilityStats::default()
        };
        let mut counters = dpack_wal::WalCounters::default();
        for s in 0..self.shards.len() {
            if let Some(wal) = &self.lock(s).wal {
                counters.absorb(wal.counters());
            }
        }
        counters.absorb(coord.lock().expect("coordinator lock poisoned").counters());
        stats.records = counters.records;
        stats.bytes = counters.bytes;
        stats.sync_calls = counters.syncs;
        stats.batches = counters.batches;
        stats.batched_records = counters.batched_records;
        stats.batch_min = counters.batch_min;
        stats.batch_max = counters.batch_max;
        Some(stats)
    }

    /// The Prop. 6 soundness invariant over the whole ledger: every
    /// block has at least one Rényi order whose cumulative consumption
    /// is within its total capacity. Returns the ids of violating
    /// blocks (empty = sound).
    pub fn unsound_blocks(&self) -> Vec<BlockId> {
        let mut bad = Vec::new();
        for s in 0..self.shards.len() {
            self.lock(s).blocks.for_each(&self.grid, |id, b| {
                if !b.is_sound() {
                    bad.push(id);
                }
            });
        }
        bad.sort_unstable();
        bad
    }

    /// Total demands granted across all blocks (each task counts once
    /// per requested block).
    pub fn granted_count(&self) -> u64 {
        (0..self.shards.len())
            .map(|s| self.lock(s).blocks.granted())
            .sum()
    }

    /// Faults `task`'s cold blocks homed on `shard` back in — commits
    /// run on hot, full-vector state. `false` = release the task.
    fn ensure_hot(&self, stripe: &mut Shard, task: &Task, shard: usize) -> bool {
        let homed = task.blocks.iter().filter(|b| self.shard_of(**b) == shard);
        stripe
            .blocks
            .ensure_hot(task.id, homed.copied(), &self.grid, &self.tier)
    }
}

/// Replays one logged grant on a shard being recovered.
fn replay_apply(
    grid: &AlphaGrid,
    shard: &mut Shard,
    task: u64,
    demand: &[f64],
    blocks: &[BlockId],
) -> Result<(), WalError> {
    let demand = RdpCurve::new(grid, demand.to_vec())
        .map_err(|e| WalError::Corrupt(format!("task {task}: {e}")))?;
    for b in blocks {
        let entry = shard.blocks.hot_mut(*b).ok_or_else(|| {
            WalError::Corrupt(format!("task {task} charges unregistered block {b}"))
        })?;
        entry
            .commit(&demand)
            .map_err(|e| WalError::Corrupt(format!("task {task} replay rejected: {e}")))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_accounting::AlphaGrid;
    use dpack_wal::SimStorage;

    fn grid() -> AlphaGrid {
        AlphaGrid::new(vec![2.0, 8.0]).unwrap()
    }

    fn ledger(shards: usize) -> ShardedLedger {
        let g = grid();
        let l = ShardedLedger::new(g.clone(), shards, 1.0, 1);
        for j in 0..8u64 {
            l.register_block(Block::new(j, RdpCurve::constant(&g, 1.0), 0.0))
                .unwrap();
        }
        l
    }

    fn task(id: u64, blocks: Vec<u64>, eps: f64) -> Task {
        Task::new(id, 1.0, blocks, RdpCurve::constant(&grid(), eps), 0.0)
    }

    #[test]
    fn blocks_map_to_stable_shards() {
        let l = ledger(4);
        assert_eq!(l.n_shards(), 4);
        assert_eq!(l.n_blocks(), 8);
        for j in 0..8u64 {
            assert_eq!(l.shard_of(j), (j % 4) as usize);
            assert!(l.contains(j));
        }
        assert!(!l.contains(99));
        assert!(!l.is_durable());
        assert_eq!(l.durability_stats(), None);
    }

    #[test]
    fn duplicate_and_mismatched_blocks_are_rejected() {
        let l = ledger(2);
        let g = grid();
        assert!(l
            .register_block(Block::new(0, RdpCurve::constant(&g, 1.0), 0.0))
            .is_err());
        let other = AlphaGrid::single(3.0).unwrap();
        assert!(l
            .register_block(Block::new(100, RdpCurve::constant(&other, 1.0), 0.0))
            .is_err());
        // A non-finite arrival would freeze the unlock fraction at 0
        // forever — rejected like any other malformed registration.
        for arrival in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(
                l.register_block(Block::new(101, RdpCurve::constant(&g, 1.0), arrival))
                    .is_err(),
                "arrival {arrival} registered"
            );
        }
        // A non-finite capacity at any order is a filter that never
        // refuses (or never grants); negative finite values are what
        // `block_capacity` yields at low orders and stay legal.
        for bad in [f64::INFINITY, f64::NEG_INFINITY] {
            for order in 0..g.len() {
                let mut eps = vec![1.0; g.len()];
                eps[order] = bad;
                let capacity = RdpCurve::new(&g, eps).unwrap();
                assert!(
                    l.register_block(Block::new(101, capacity, 0.0)).is_err(),
                    "capacity {bad} at order {order} registered"
                );
            }
        }
        assert!(!l.contains(101));
        let mut eps = vec![1.0; g.len()];
        eps[0] = -0.5;
        l.register_block(Block::new(101, RdpCurve::new(&g, eps).unwrap(), 0.0))
            .expect("negative finite capacity is legal");
    }

    #[test]
    fn cross_shard_commit_is_atomic() {
        let l = ledger(4);
        // Drain block 1 (shard 1) completely.
        assert_eq!(
            l.commit_task(&task(0, vec![1], 1.0)),
            CommitOutcome::Committed
        );
        // A task spanning shards 0 and 1 must release without touching
        // block 0 on shard 0.
        assert_eq!(
            l.commit_task(&task(1, vec![0, 1], 0.5)),
            CommitOutcome::Released
        );
        let snap = l.snapshot_all(1.0);
        assert_eq!(snap[&0].epsilon(0), 1.0, "block 0 must be untouched");
        // Block 0 alone still has full capacity.
        assert_eq!(
            l.commit_task(&task(2, vec![0], 1.0)),
            CommitOutcome::Committed
        );
        assert!(l.unsound_blocks().is_empty());
    }

    #[test]
    fn snapshot_respects_unlocking_schedule() {
        let g = grid();
        let l = ShardedLedger::new(g.clone(), 2, 1.0, 4);
        l.register_block(Block::new(0, RdpCurve::constant(&g, 1.0), 0.0))
            .unwrap();
        let early = l.snapshot_all(1.0);
        assert!((early[&0].epsilon(0) - 0.25).abs() < 1e-12);
        let late = l.snapshot_all(10.0);
        assert!((late[&0].epsilon(0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn concurrent_commits_on_disjoint_shards_all_land() {
        let l = std::sync::Arc::new(ledger(4));
        std::thread::scope(|s| {
            for j in 0..8u64 {
                let l = std::sync::Arc::clone(&l);
                s.spawn(move || {
                    for i in 0..4u64 {
                        let t = task(j * 10 + i, vec![j], 0.25);
                        assert_eq!(l.commit_task(&t), CommitOutcome::Committed);
                    }
                });
            }
        });
        assert_eq!(l.granted_count(), 32);
        assert!(l.unsound_blocks().is_empty());
        // Every block is now exactly full: one more 0.25 must release.
        assert_eq!(
            l.commit_task(&task(999, vec![3], 0.25)),
            CommitOutcome::Released
        );
    }

    #[test]
    #[should_panic(expected = "unregistered block")]
    fn committing_an_unknown_block_panics() {
        let l = ledger(2);
        l.commit_task(&task(0, vec![55], 0.1));
    }

    fn durable(storage: &SimStorage) -> ShardedLedger {
        ShardedLedger::open_durable(grid(), 4, 1.0, 1, storage, DurabilityOptions::default())
            .unwrap()
    }

    fn assert_states_bit_identical(a: &ShardedLedger, b: &ShardedLedger) {
        let (sa, sb) = (a.block_states(), b.block_states());
        assert_eq!(sa.keys().collect::<Vec<_>>(), sb.keys().collect::<Vec<_>>());
        for (id, x) in &sa {
            let y = &sb[id];
            assert_eq!(x.granted, y.granted, "block {id} grant count");
            assert_eq!(x.arrival.to_bits(), y.arrival.to_bits());
            let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&x.total), bits(&y.total), "block {id} total");
            assert_eq!(bits(&x.consumed), bits(&y.consumed), "block {id} consumed");
        }
    }

    #[test]
    fn durable_ledger_recovers_commits_bit_identically() {
        let sim = SimStorage::new();
        let l = durable(&sim);
        for j in 0..8u64 {
            l.register_block(Block::new(j, RdpCurve::constant(&grid(), 1.0), 0.0))
                .unwrap();
        }
        assert!(l.is_durable());
        l.commit_task(&task(0, vec![2], 0.3));
        l.commit_task(&task(1, vec![0, 1, 2], 0.25)); // Cross-shard.
        l.commit_task(&task(2, vec![5], 0.7));
        let recovered = durable(&sim.surviving());
        assert_states_bit_identical(&l, &recovered);
        assert_eq!(recovered.granted_count(), 5);
        assert!(recovered.unsound_blocks().is_empty());
        let stats = l.durability_stats().unwrap();
        assert!(stats.records >= 14, "{stats:?}"); // 8 blocks + 3 local + 2 intents + 1 commit
        assert_eq!(stats.failed_appends, 0);
    }

    #[test]
    fn compaction_preserves_state_and_shrinks_the_logs() {
        let sim = SimStorage::new();
        let l = durable(&sim);
        for j in 0..8u64 {
            l.register_block(Block::new(j, RdpCurve::constant(&grid(), 2.0), 0.0))
                .unwrap();
        }
        for i in 0..10u64 {
            l.commit_task(&task(i, vec![i % 8, (i + 1) % 8], 0.1));
        }
        l.compact().unwrap();
        assert_eq!(l.durability_stats().unwrap().compactions, 1);
        // More traffic after the snapshot.
        l.commit_task(&task(100, vec![3], 0.2));
        let recovered = durable(&sim.surviving());
        assert_states_bit_identical(&l, &recovered);
        // Recovery after compaction must also keep working forward.
        assert_eq!(
            recovered.commit_task(&task(101, vec![4], 0.2)),
            CommitOutcome::Committed
        );
    }

    /// Bytes a given driver writes to a fresh durable ledger — used to
    /// place crash points at exact record boundaries.
    fn probe_bytes(drive: impl Fn(&ShardedLedger)) -> u64 {
        let probe = SimStorage::new();
        drive(&durable(&probe));
        probe.bytes_written()
    }

    #[test]
    fn a_crashed_wal_releases_grants_instead_of_charging() {
        let register = |l: &ShardedLedger| {
            for j in 0..8u64 {
                l.register_block(Block::new(j, RdpCurve::constant(&grid(), 1.0), 0.0))
                    .unwrap();
            }
        };
        // Crash budget: registrations land exactly, nothing after.
        let sim = SimStorage::with_crash_after(probe_bytes(register));
        let l = durable(&sim);
        register(&l);
        let before = l.block_states();
        assert_eq!(
            l.commit_task(&task(0, vec![1], 0.4)),
            CommitOutcome::Released,
            "an unloggable grant must release"
        );
        assert_eq!(
            l.commit_task(&task(1, vec![0, 1], 0.2)),
            CommitOutcome::Released
        );
        assert!(l.durability_stats().unwrap().failed_appends >= 2);
        // In-memory state is untouched and recovery sees zero grants.
        assert_eq!(l.block_states(), before);
        let recovered = durable(&sim.surviving());
        assert_eq!(recovered.granted_count(), 0);
        assert!(recovered.unsound_blocks().is_empty());
        // The reopened (healthy) log accepts grants again.
        assert_eq!(
            recovered.commit_task(&task(0, vec![1], 0.4)),
            CommitOutcome::Committed
        );
    }

    #[test]
    fn transient_storage_faults_heal_at_the_next_compaction() {
        let sim = SimStorage::new();
        let l = durable(&sim);
        for j in 0..8u64 {
            l.register_block(Block::new(j, RdpCurve::constant(&grid(), 1.0), 0.0))
                .unwrap();
        }
        // An ENOSPC-like fault: appends fail cleanly, then recover.
        sim.set_append_errors(true);
        assert_eq!(
            l.commit_task(&task(0, vec![0], 0.2)),
            CommitOutcome::Released
        );
        assert_eq!(
            l.commit_task(&task(1, vec![0, 1], 0.2)),
            CommitOutcome::Released
        );
        sim.set_append_errors(false);
        // Still broken until compaction repairs the logs...
        assert_eq!(
            l.commit_task(&task(0, vec![0], 0.2)),
            CommitOutcome::Released
        );
        l.compact().unwrap();
        // ...after which grants resume, and recovery agrees.
        assert_eq!(
            l.commit_task(&task(0, vec![0], 0.2)),
            CommitOutcome::Committed
        );
        assert_eq!(
            l.commit_task(&task(1, vec![0, 1], 0.2)),
            CommitOutcome::Committed
        );
        let recovered = durable(&sim.surviving());
        assert_states_bit_identical(&l, &recovered);
        assert_eq!(recovered.granted_count(), 3);
    }

    /// Committing the same tasks one by one — the semantics the batch
    /// paths must reproduce decision-for-decision and bit-for-bit.
    fn sequential_reference(tasks: &[Task]) -> (Vec<CommitOutcome>, ShardedLedger) {
        let l = ledger(4);
        let outcomes = tasks.iter().map(|t| l.commit_task(t)).collect();
        (outcomes, l)
    }

    #[test]
    fn shard_batch_matches_sequential_commits_bit_identically() {
        // Mixed feasible/infeasible single-shard traffic on shard 1:
        // task 2 must see task 1's consumption when it is checked.
        let tasks = vec![
            task(0, vec![1], 0.6),
            task(1, vec![5], 0.5),
            task(2, vec![1], 0.6), // Refused: 0.6 + 0.6 > 1.0.
            task(3, vec![1], 0.4), // Fits exactly.
        ];
        let (want, reference) = sequential_reference(&tasks);

        for durable_storage in [None, Some(SimStorage::new())] {
            let l = match &durable_storage {
                Some(sim) => durable(sim),
                None => ledger(4),
            };
            for j in 0..8u64 {
                if !l.contains(j) {
                    l.register_block(Block::new(j, RdpCurve::constant(&grid(), 1.0), 0.0))
                        .unwrap();
                }
            }
            let refs: Vec<&Task> = tasks.iter().collect();
            let outcomes = l.commit_shard_batch(1, &refs);
            assert_eq!(outcomes, want);
            assert_states_bit_identical(&l, &reference);
            if let Some(sim) = &durable_storage {
                // One flush for the whole batch, and recovery agrees.
                let stats = l.durability_stats().unwrap();
                assert_eq!(stats.batches, 1);
                assert_eq!((stats.batch_min, stats.batch_max), (3, 3));
                assert_eq!(stats.sync_calls, 8 + 1, "8 registrations + 1 batch");
                assert_states_bit_identical(&l, &durable(&sim.surviving()));
            }
        }
    }

    #[test]
    fn cross_batch_matches_sequential_commits_and_recovers() {
        let tasks = vec![
            task(0, vec![0, 1], 0.6),
            task(1, vec![1, 2, 3], 0.5), // Refused on block 1.
            task(2, vec![2, 3], 0.8),
            task(3, vec![0, 1], 0.4), // Fits exactly after task 0.
        ];
        let (want, reference) = sequential_reference(&tasks);
        let sim = SimStorage::new();
        let l = durable(&sim);
        for j in 0..8u64 {
            l.register_block(Block::new(j, RdpCurve::constant(&grid(), 1.0), 0.0))
                .unwrap();
        }
        let refs: Vec<&Task> = tasks.iter().collect();
        let outcomes = l.commit_cross_batch(&refs);
        assert_eq!(outcomes, want);
        assert_states_bit_identical(&l, &reference);
        // Intents batched per home shard (blocks 0..4 span shards
        // 0..4), decisions one synchronous append per attempt.
        let stats = l.durability_stats().unwrap();
        assert!(stats.batches >= 2, "{stats:?}");
        assert_states_bit_identical(&l, &durable(&sim.surviving()));
        assert!(l.unsound_blocks().is_empty());
    }

    #[test]
    fn a_crash_inside_a_shard_batch_releases_everything() {
        let register = |l: &ShardedLedger| {
            for j in 0..8u64 {
                l.register_block(Block::new(j, RdpCurve::constant(&grid(), 1.0), 0.0))
                    .unwrap();
            }
        };
        let tasks: Vec<Task> = (0..4u64).map(|i| task(i, vec![1], 0.2)).collect();
        // Sweep crash points across the whole batched flush: whatever
        // byte the power dies on, the batch must vanish as a unit.
        let batch_bytes = probe_bytes(|l| {
            register(l);
            let refs: Vec<&Task> = tasks.iter().collect();
            l.commit_shard_batch(1, &refs);
        }) - probe_bytes(register);
        for extra in [0, 1, batch_bytes / 2, batch_bytes - 1] {
            let sim = SimStorage::with_crash_after(probe_bytes(register) + extra);
            let l = durable(&sim);
            register(&l);
            let before = l.block_states();
            let refs: Vec<&Task> = tasks.iter().collect();
            let outcomes = l.commit_shard_batch(1, &refs);
            assert!(
                outcomes.iter().all(|o| *o == CommitOutcome::Released),
                "crash at +{extra}: {outcomes:?}"
            );
            assert_eq!(l.block_states(), before, "unlogged grants must not charge");
            assert!(l.durability_stats().unwrap().failed_appends >= 1);
            let recovered = durable(&sim.surviving());
            assert_eq!(
                recovered.granted_count(),
                0,
                "crash at +{extra} resurfaced part of a failed batch"
            );
            assert_states_bit_identical(&l, &recovered);
        }
    }

    #[test]
    fn aborted_cross_shard_attempts_charge_nothing_on_recovery() {
        let register = |l: &ShardedLedger| {
            for j in 0..8u64 {
                l.register_block(Block::new(j, RdpCurve::constant(&grid(), 1.0), 0.0))
                    .unwrap();
            }
        };
        let registered = probe_bytes(register);
        let full_grant = probe_bytes(|l| {
            register(l);
            assert_eq!(
                l.commit_task(&task(7, vec![0, 1], 0.25)),
                CommitOutcome::Committed
            );
        }) - registered;
        // Crash one byte short of the full cross-shard grant: both
        // intents may land but the coordinator decision is torn.
        let sim = SimStorage::with_crash_after(registered + full_grant - 1);
        let l = durable(&sim);
        register(&l);
        assert_eq!(
            l.commit_task(&task(7, vec![0, 1], 0.25)),
            CommitOutcome::Released,
            "a torn decision must release"
        );
        assert!(l.durability_stats().unwrap().failed_appends >= 1);
        let recovered = durable(&sim.surviving());
        assert_eq!(recovered.granted_count(), 0, "no partial 2PC may survive");
        assert!(recovered.unsound_blocks().is_empty());
        // Attempt ids move past the aborted attempt and commits resume.
        assert_eq!(
            recovered.commit_task(&task(7, vec![0, 1], 0.25)),
            CommitOutcome::Committed
        );
    }

    /// An in-memory ledger with `blocks` unit-capacity blocks and the
    /// tier enabled at the given hot bound, over its own spill storage.
    fn tiered(shards: usize, blocks: u64, hot_capacity: usize) -> (ShardedLedger, SimStorage) {
        let g = grid();
        let mut l = ShardedLedger::new(g.clone(), shards, 1.0, 1);
        for j in 0..blocks {
            l.register_block(Block::new(j, RdpCurve::constant(&g, 1.0), 0.0))
                .unwrap();
        }
        let sim = SimStorage::new();
        l.enable_tier(
            &sim,
            TierConfig {
                hot_capacity,
                segment_bytes: 512,
            },
        )
        .unwrap();
        (l, sim)
    }

    #[test]
    fn tiered_ledger_spills_and_faults_transparently() {
        let (l, _sim) = tiered(1, 32, 4);
        assert!(l.tier_enabled());
        let a = l.tier_activity().unwrap();
        assert_eq!(a.hot_blocks + a.cold_blocks, 32);
        assert_eq!(a.cold_blocks, 28, "{a:?}");
        assert_eq!(a.spilled, 28);
        assert_eq!(a.spill_failures, 0);
        assert!(a.segments >= 1 && a.spill_bytes > 0, "{a:?}");
        // Cold blocks are still fully registered.
        assert_eq!(l.n_blocks(), 32);
        assert!((0..32u64).all(|j| l.contains(j)));
        // Commits on cold blocks fault them in transparently and still
        // decide correctly; the hot set stays at its bound throughout.
        for j in 0..32u64 {
            assert_eq!(
                l.commit_task(&task(j, vec![j], 0.5)),
                CommitOutcome::Committed
            );
            assert!(l.tier_activity().unwrap().hot_blocks <= 4);
        }
        assert_eq!(l.granted_count(), 32);
        let a = l.tier_activity().unwrap();
        assert_eq!(a.faults, 32, "every single-block commit faulted, {a:?}");
        assert_eq!(a.hot_blocks + a.cold_blocks, 32);
        // A commit on a still-hot block is a hit — no fault, no I/O.
        assert_eq!(
            l.commit_task(&task(200, vec![31], 0.1)),
            CommitOutcome::Committed
        );
        let after = l.tier_activity().unwrap();
        assert_eq!((after.hits, after.faults), (a.hits + 1, a.faults));
        // The filter state round-tripped: a demand over the remaining
        // capacity is refused no matter which tier the block sits in.
        assert_eq!(
            l.commit_task(&task(100, vec![0], 0.6)),
            CommitOutcome::Released
        );
        assert!(l.unsound_blocks().is_empty());
    }

    #[test]
    fn snapshots_taken_mid_spill_stay_bit_identical() {
        // A block's bits don't change by moving tier: the whole-shard
        // view taken before the spill (all hot) equals the one taken
        // after it (mostly rebuilt from cold summaries), under gradual
        // unlocking and with some blocks charged. The step-by-step
        // version against an untiered twin is the
        // `tiered_views_match_an_untiered_twin` property.
        let g = grid();
        let mut l = ShardedLedger::new(g.clone(), 1, 1.0, 4);
        for j in 0..12u64 {
            l.register_block(Block::new(j, RdpCurve::constant(&g, 1.0), 0.3 * j as f64))
                .unwrap();
        }
        for j in 0..6u64 {
            l.commit_task(&task(j, vec![j, j + 6], 0.02 * (j + 1) as f64));
        }
        let before = l.snapshot_shard_uncached(0, 2.1);
        l.enable_tier(
            &SimStorage::new(),
            TierConfig {
                hot_capacity: 2,
                segment_bytes: 512,
            },
        )
        .unwrap();
        assert!(l.tier_activity().unwrap().cold_blocks >= 10);
        let after = l.snapshot_shard_uncached(0, 2.1);
        assert_eq!(before.len(), 12);
        assert_eq!(
            before.keys().collect::<Vec<_>>(),
            after.keys().collect::<Vec<_>>()
        );
        let bits = |c: &RdpCurve| c.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for (id, want) in &before {
            assert_eq!(bits(&after[id]), bits(want), "block {id}");
        }
    }

    #[test]
    fn refused_commits_keep_the_hot_tier_bound() {
        // Every return path hands the shards back within the bound —
        // also the ones that faulted blocks in and then charged nothing
        // (a refused filter check, an empty staged batch).
        let sim = SimStorage::new();
        let mut l =
            ShardedLedger::open_durable(grid(), 2, 1.0, 1, &sim, DurabilityOptions::default())
                .unwrap();
        for j in 0..64u64 {
            l.register_block(Block::new(j, RdpCurve::constant(&grid(), 1.0), 0.0))
                .unwrap();
        }
        l.enable_tier(
            &sim,
            TierConfig {
                hot_capacity: 2,
                segment_bytes: 512,
            },
        )
        .unwrap();
        let bound = 2 * l.n_shards() as u64;
        assert!(l.tier_activity().unwrap().hot_blocks <= bound);
        // Over-capacity cross-shard demands over distinct cold blocks.
        for i in 0..15u64 {
            let t = task(i, vec![2 * i, 2 * i + 1], 1.5);
            assert_eq!(l.commit_task(&t), CommitOutcome::Released);
            let hot = l.tier_activity().unwrap().hot_blocks;
            assert!(hot <= bound, "commit_task left {hot} hot blocks");
        }
        for i in 15..30u64 {
            let t = task(i, vec![2 * i, 2 * i + 1], 1.5);
            assert_eq!(l.commit_cross_batch(&[&t]), [CommitOutcome::Released]);
            let hot = l.tier_activity().unwrap().hot_blocks;
            assert!(hot <= bound, "commit_cross_batch left {hot} hot blocks");
        }
        assert!(l.tier_activity().unwrap().faults >= 60);
        assert_eq!(l.granted_count(), 0);
    }

    #[test]
    fn durable_tiered_ledger_recovers_bit_identically() {
        let sim = SimStorage::new();
        let mut l =
            ShardedLedger::open_durable(grid(), 4, 1.0, 1, &sim, DurabilityOptions::default())
                .unwrap();
        for j in 0..24u64 {
            l.register_block(Block::new(j, RdpCurve::constant(&grid(), 1.0), 0.0))
                .unwrap();
        }
        // The spill tier shares the WAL's storage (tier-<s> next to
        // shard-<s>) — its files must never leak into what recovery
        // reads.
        l.enable_tier(
            &sim,
            TierConfig {
                hot_capacity: 2,
                segment_bytes: 512,
            },
        )
        .unwrap();
        for i in 0..24u64 {
            assert_eq!(
                l.commit_task(&task(i, vec![i % 24, (i + 7) % 24], 0.1)),
                CommitOutcome::Committed
            );
        }
        // Compaction folds the cold summaries into the durable
        // snapshots without faulting anything in.
        l.compact().unwrap();
        l.commit_task(&task(100, vec![3], 0.2));
        let recovered = durable(&sim.surviving());
        assert_states_bit_identical(&l, &recovered);
        assert!(recovered.unsound_blocks().is_empty());
    }

    #[test]
    fn crashes_under_a_tiered_durable_ledger_recover_bit_identically() {
        let run = |sim: &SimStorage| -> ShardedLedger {
            let mut l =
                ShardedLedger::open_durable(grid(), 4, 1.0, 1, sim, DurabilityOptions::default())
                    .unwrap();
            for j in 0..16u64 {
                l.register_block(Block::new(j, RdpCurve::constant(&grid(), 1.0), 0.0))
                    .unwrap();
            }
            l.enable_tier(
                &sim.clone(),
                TierConfig {
                    hot_capacity: 2,
                    segment_bytes: 512,
                },
            )
            .unwrap();
            for i in 0..16u64 {
                l.commit_task(&task(i, vec![i % 16, (i + 5) % 16], 0.05));
            }
            l
        };
        // Registration must finish (the driver unwraps it); sweep crash
        // points across everything after — initial spill writes, WAL
        // intents/decisions, and fault-in-triggered re-spills all share
        // the one injected storage.
        let registered = {
            let probe = SimStorage::new();
            let l = ShardedLedger::open_durable(
                grid(),
                4,
                1.0,
                1,
                &probe,
                DurabilityOptions::default(),
            )
            .unwrap();
            for j in 0..16u64 {
                l.register_block(Block::new(j, RdpCurve::constant(&grid(), 1.0), 0.0))
                    .unwrap();
            }
            probe.bytes_written()
        };
        let total = {
            let probe = SimStorage::new();
            run(&probe);
            probe.bytes_written()
        };
        assert!(total > registered);
        let span = total - registered;
        for frac in [1u64, 2, 3, 5, 7] {
            let sim = SimStorage::with_crash_after(registered + span * frac / 8);
            let l = run(&sim);
            assert!(sim.crashed(), "crash point {frac}/8 never hit");
            // Whatever the crash interrupted — spill or WAL — the
            // in-memory ledger only ever charged durably-decided
            // grants, so a reboot agrees bit-for-bit.
            let recovered = durable(&sim.surviving());
            assert_states_bit_identical(&l, &recovered);
            assert!(recovered.unsound_blocks().is_empty());
        }
    }

    #[test]
    fn tier_compaction_reclaims_dead_spill_space() {
        let (l, _sim) = tiered(1, 64, 8);
        // Churn: every commit faults one block in (its old spill entry
        // dies) and re-spills another, so dead bytes pile up.
        let mut id = 1000u64;
        for _ in 0..3 {
            for j in 0..64u64 {
                assert_eq!(
                    l.commit_task(&task(id, vec![j], 0.001)),
                    CommitOutcome::Committed
                );
                id += 1;
            }
        }
        let before = l.tier_activity().unwrap();
        assert!(before.cold_blocks >= 56, "{before:?}");
        l.compact().unwrap(); // Non-durable: tier maintenance only.
        let after = l.tier_activity().unwrap();
        assert_eq!(after.cold_blocks, before.cold_blocks);
        assert!(after.segments <= before.segments, "{before:?} -> {after:?}");
        // The rewrite reproduced every entry: all blocks still fault in
        // and the filters pick up exactly where they left off.
        for j in 0..64u64 {
            assert_eq!(
                l.commit_task(&task(id, vec![j], 0.001)),
                CommitOutcome::Committed
            );
            id += 1;
        }
        assert!(l.unsound_blocks().is_empty());
    }
}
