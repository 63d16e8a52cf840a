//! The striped budget ledger.
//!
//! Blocks are partitioned across `S` shards by `block_id mod S`; each
//! shard holds its blocks' [`BlockLedger`] entries (total capacity +
//! RDP privacy filter) behind its own lock. Registrations, snapshots
//! and commits that touch different shards never contend — the striped
//! layout from the PrivateKube service design, rebuilt in-process.
//!
//! This module is striping, locking and the commit protocol. *How* a
//! shard keeps its blocks — one compact entry each, checked, charged
//! and read in place — is the `BlockStore`'s business (`store.rs`).
//! *How* a grant becomes durable — records, group commit, coordinator
//! decisions, shipping, recovery — is the `Journal`'s (`journal.rs`):
//! the ledger never sees a record. Snapshots are computed from the
//! store on every call; nothing is cached between cycles. A scheduling
//! cycle has [`ShardedLedger::fill_available`] write exactly the blocks
//! its tasks request straight into its scheduler's capacity rows, so a
//! registry of any size costs a cycle only the blocks in demand.
//!
//! # One commit path
//!
//! Every grant, on every kind of ledger, takes the same route. The
//! involved shard locks are acquired in ascending shard order (a global
//! order, so concurrent commits cannot deadlock) and held from the
//! first stage to the last restore. Under them each task of a batch is
//! *staged* in order: every requested filter is checked, and only if
//! **all** grant is the demand consumed — on the real filters, so the
//! next task's check sees it. Otherwise nothing is charged anywhere and
//! the task is released back to the caller.
//! [`ShardedLedger::commit_local`] takes a cycle's shard-local grants,
//! one batch per shard, under **one** hold of all their locks;
//! [`ShardedLedger::commit_spanning`] takes the grants that span shards
//! under the union of theirs. [`ShardedLedger::commit_shard_batch`] and
//! [`ShardedLedger::commit_cross_batch`] are the same calls for one
//! untraced batch, and [`ShardedLedger::commit_task`] is a batch of
//! one.
//!
//! # Durability
//!
//! A ledger opened with [`ShardedLedger::open_durable`] has a journal
//! — one write-ahead log whose records name their shard's (or the
//! coordinator's) stream — which adds two steps. While staging, the
//! first touch of a block saves its entry as a **pre-image**, one set
//! per shard for the shard-local batches. After staging, the journal
//! makes the step durable with **one** group commit — one write, one
//! sync — for every shard's batch, then **one** ship round on a
//! replicated ledger; spanning grants take two more such steps, intents
//! then decisions (see [`crate::durability`]). A cycle thus pays at
//! most three syncs and three quorum waits, whatever the shard count.
//! Per stream, ship order = append order = mutation order: the shard
//! locks are held throughout, and the journal's lock is taken after
//! them. Nothing staged is visible before every outcome is known, and
//! whatever did not become durable is undone from the pre-images, bit
//! for bit: a failed append releases every batch of its step (recovery
//! resurfaces no record of it); a refused ship releases only the shard
//! that rode it; a spanning step is decided all at once or not at all.
//! [`ShardedLedger::compact`] folds the log into one snapshot at a
//! global quiescent point.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex, MutexGuard};

use dp_accounting::{AlphaGrid, RdpCurve};
use dpack_core::problem::{Block, BlockId, ProblemError, Task, TaskId};
use dpack_wal::{WalError, WalStorage};

use dpack_obs::{Clock, Histogram, Obs, TraceContext};

use crate::config::{DurabilityOptions, TierActivity};
use crate::durability::{self, BlockState};
use crate::journal::{self, Journal, Replay};
use crate::replication::ReplicationSink;
use crate::stats::DurabilityStats;
use crate::store::{BlockEntry, BlockStore};

/// Observability hooks the ledger reports into (attached by
/// [`ShardedLedger::instrument`]; absent on an un-instrumented
/// ledger, so the commit paths stay untouched by default).
#[derive(Debug, Clone)]
struct LedgerTelemetry {
    clock: Arc<dyn Clock>,
    /// `dpack_shard_lock_hold_nanos`: time a cycle's shard-local
    /// commit holds its shard locks (excluding the wait to acquire
    /// them).
    lock_hold: Histogram,
    /// `dpack_cross_commit_nanos`: one whole 2PC round.
    cross_commit: Histogram,
}

/// The shards a commit holds locked, ascending by shard.
struct Held<'a> {
    shards: Vec<(usize, MutexGuard<'a, BlockStore>)>,
}

impl Held<'_> {
    fn shard(&mut self, shard: usize) -> &mut BlockStore {
        let at = self.shards.binary_search_by_key(&shard, |(s, _)| *s);
        &mut self.shards[at.expect("a commit locks every shard its tasks touch")].1
    }
}

/// What the blocks a durable batch touched held before it, so that
/// whatever the journal fails to make durable can be undone exactly.
type PreImages = BTreeMap<BlockId, BlockEntry>;

/// A task on its way into the ledger, with its distributed-trace
/// context if it is traced: the write-ahead flush and the replication
/// ship that carry its grant record their spans under it.
pub type Traced<'a> = (&'a Task, Option<TraceContext>);

/// The sharded ledger: `S` lock-striped maps of block ledgers.
#[derive(Debug)]
pub struct ShardedLedger {
    grid: AlphaGrid,
    unlock_period: f64,
    unlock_steps: u32,
    shards: Vec<Mutex<BlockStore>>,
    /// The write-ahead half of a durable ledger (`None` in memory).
    journal: Option<Journal>,
    /// Task ids whose grants recovery re-applied, drained once by
    /// [`ShardedLedger::take_recovered_grants`] — the duplicate
    /// history a promoted service rejects failover resubmissions with.
    recovered_grants: BTreeSet<TaskId>,
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
            shards: (0..shards).map(|_| Mutex::default()).collect(),
            journal: None,
            recovered_grants: BTreeSet::new(),
            telemetry: None,
        }
    }

    /// Attaches observability: commit paths report shard-lock holds,
    /// 2PC round durations, and batch-flush events; the WAL reports
    /// append latency and batch sizes. No-op
    /// for a fully disabled [`Obs`], keeping the un-instrumented paths
    /// byte-identical.
    pub fn instrument(&mut self, obs: &Obs) {
        if !obs.is_enabled() && obs.recorder.capacity() == 0 {
            return;
        }
        journal::instrument(obs, self.journal.as_mut());
        self.telemetry = Some(LedgerTelemetry {
            lock_hold: obs.registry.histogram("dpack_shard_lock_hold_nanos", ""),
            cross_commit: obs.registry.histogram("dpack_cross_commit_nanos", ""),
            clock: Arc::clone(obs.clock()),
        });
    }

    /// Always `None`: no ledger has a tier, and no block moves between
    /// forms. Kept only because the benchmark crate reads it.
    pub fn tier_activity(&self) -> Option<TierActivity> {
        None
    }

    /// Writes the §3.4 available capacity at `now` of `ids[i]` into row
    /// `i` of `rows` (one value per grid order, one row per id, panics
    /// otherwise) with the bits of [`ShardedLedger::snapshot_all`]'s
    /// curve, taking each shard's lock once and allocating nothing.
    ///
    /// # Errors
    ///
    /// An id no shard holds; earlier shards' rows may be written by then.
    pub fn fill_available(
        &self,
        now: f64,
        ids: &[BlockId],
        rows: &mut [f64],
    ) -> Result<(), ProblemError> {
        let orders = self.grid.len();
        assert_eq!(rows.len(), ids.len() * orders, "one row per block id");
        let (period, steps) = (self.unlock_period, self.unlock_steps);
        for shard in 0..self.shards.len() {
            let store = self.lock(shard);
            let rows = ids.iter().zip(rows.chunks_exact_mut(orders));
            for (id, row) in rows.filter(|(id, _)| self.shard_of(**id) == shard) {
                if store
                    .write_available(*id, now, period, steps, row)
                    .is_none()
                {
                    return Err(ProblemError(format!("block {id} is not registered")));
                }
            }
        }
        Ok(())
    }

    /// Opens a durable ledger in `storage`, recovering whatever state
    /// the log holds: the snapshot is restored, then shard by shard the
    /// shard's records replay in log order — `Apply` records
    /// unconditionally, `Intent` records iff the coordinator committed
    /// their attempt (presumed abort otherwise) — reproducing the
    /// pre-crash filter state bit-identically. On empty storage this
    /// is simply a fresh durable ledger. Every recovery step lands in
    /// `obs`'s flight recorder (pass [`Obs::off`] to record nothing),
    /// so a post-crash dump reconstructs exactly what recovery did.
    ///
    /// # Errors
    ///
    /// Storage errors, or [`WalError::Corrupt`] if the log cannot be
    /// interpreted (it validates frame-by-frame, so this means a format
    /// mismatch or a different shard count, not a torn tail).
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
        obs: &Obs,
    ) -> Result<Self, WalError> {
        let mut ledger = Self::new(grid, shards, unlock_period, unlock_steps);
        let journal = Journal::open(storage, shards, opts, &obs.recorder, |event| {
            ledger.replay(event)
        })?;
        ledger.journal = Some(journal);
        Ok(ledger)
    }

    /// Applies one recovered fact, in the journal's order, to the
    /// shards its blocks live on.
    fn replay(&mut self, event: Replay) -> Result<(), WalError> {
        match event {
            Replay::Block(state) => {
                // The rule registration applies live, so a log cannot
                // restore what the live path refuses.
                if let Some(defect) = Block::defect_of(state.arrival, &state.total) {
                    return Err(WalError::Corrupt(format!("block {} {defect}", state.id)));
                }
                // The live path charges only chargeable demands from 0,
                // so consumption below 0 (or NaN) is a refund no grant
                // made — and `-inf` a filter that never refuses.
                if !state.consumed.iter().all(|c| *c >= 0.0) {
                    return Err(WalError::Corrupt(format!(
                        "block {} consumption must be >= 0 at every order",
                        state.id
                    )));
                }
                let orders = self.grid.len();
                if state.total.len() != orders || state.consumed.len() != orders {
                    return Err(WalError::Corrupt(format!(
                        "block {}: persisted curves do not fit the grid's {orders} orders",
                        state.id
                    )));
                }
                let home = self.shard_of(state.id);
                let blocks = self.shards[home].get_mut().expect("fresh ledger");
                blocks.restore(state);
            }
            Replay::Grant(task, demand, charged) => {
                if let Some(defect) = Task::demand_defect(&demand) {
                    return Err(WalError::Corrupt(format!("task {task}: {defect}")));
                }
                let demand = RdpCurve::new(&self.grid, demand)
                    .map_err(|e| WalError::Corrupt(format!("task {task}: {e}")))?;
                for b in charged {
                    let home = self.shard_of(b);
                    let blocks = self.shards[home].get_mut().expect("fresh ledger");
                    if !blocks.contains(b) {
                        let e = format!("task {task} charges unregistered block {b}");
                        return Err(WalError::Corrupt(e));
                    }
                    if !blocks.charge(b, demand.values()) {
                        let e = format!("task {task} replay rejected: no order has room");
                        return Err(WalError::Corrupt(e));
                    }
                }
                self.recovered_grants.insert(task);
            }
        }
        Ok(())
    }

    /// Attaches a replication sink: from now on every durable append —
    /// registration, group-commit batch, 2PC intent, coordinator
    /// decision — is shipped through `sink` after its local append and
    /// before it is acknowledged, the appends of one commit step in one
    /// round, and a failed ship releases the work that rode it exactly
    /// like a failed local append. See [`crate::replication`]
    /// for the model (and for why a replicated primary must be
    /// replaced by promotion, never restarted from its own logs).
    ///
    /// # Panics
    ///
    /// Panics on a non-durable ledger (there is nothing to ship), on
    /// one that already ships through a sink, and on a ledger that
    /// already holds state — replicas start empty, so
    /// attaching mid-stream would promote to a truncated history;
    /// bootstrap/catch-up is future work.
    pub fn set_replication(&self, sink: Arc<dyn ReplicationSink>) {
        assert!(
            self.n_blocks() == 0 && self.journal.as_ref().is_none_or(Journal::no_attempts),
            "attach replication to a fresh ledger (replica bootstrap is not supported)"
        );
        self.set_replication_resumed(sink);
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
    /// Panics on a non-durable ledger, and on one that already ships
    /// through a sink.
    pub fn set_replication_resumed(&self, sink: Arc<dyn ReplicationSink>) {
        self.journal
            .as_ref()
            .expect("replication ships the write-ahead stream; open the ledger durable first")
            .attach_sink(sink);
    }

    /// Per-shard snapshot payloads of the current block states — what
    /// [`ShardedLedger::compact`] folds into the log, shard by shard,
    /// captured without writing anything. The resync path ships these
    /// as a lagging replica's new base (snapshot + suffix, reusing the
    /// compaction law); call at a replication-quiescent point so the
    /// payloads and the ship counters agree.
    pub fn shard_snapshot_payloads(&self) -> Vec<Vec<u8>> {
        (0..self.shards.len())
            .map(|s| durability::encode_snapshot(&self.lock(s).states()))
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

    fn lock(&self, shard: usize) -> MutexGuard<'_, BlockStore> {
        self.shards[shard]
            .lock()
            .expect("ledger shard lock poisoned")
    }

    /// Locks `shards` for a commit — ascending, the global lock order
    /// that makes concurrent cross-shard commits deadlock-free.
    fn hold(&self, shards: impl IntoIterator<Item = usize>) -> Held<'_> {
        Held {
            shards: shards.into_iter().map(|s| (s, self.lock(s))).collect(),
        }
    }

    /// Registers a newly arrived block on its shard, durably when the
    /// ledger has a WAL (the registration is logged before it becomes
    /// visible).
    ///
    /// # Errors
    ///
    /// Rejects grid mismatches, a [`Block::defect`], duplicate ids, and
    /// failed WAL appends.
    pub fn register_block(&self, block: Block) -> Result<(), ProblemError> {
        if block.capacity.grid() != &self.grid {
            return Err(ProblemError(format!(
                "block {} is on a different grid",
                block.id
            )));
        }
        if let Some(defect) = block.defect() {
            return Err(ProblemError(format!("block {} {defect}", block.id)));
        }
        let home = self.shard_of(block.id);
        let mut blocks = self.lock(home);
        if blocks.contains(block.id) {
            return Err(ProblemError(format!("duplicate block id {}", block.id)));
        }
        if let Some(journal) = &self.journal {
            journal
                .log_block(home, &block)
                .map_err(|e| ProblemError(format!("block {} not registered: {e}", block.id)))?;
        }
        blocks.register(&block);
        Ok(())
    }

    /// Whether a block is registered.
    pub fn contains(&self, block: BlockId) -> bool {
        self.lock(self.shard_of(block)).contains(block)
    }

    /// Total number of registered blocks (sums across shards).
    pub fn n_blocks(&self) -> usize {
        (0..self.shards.len()).map(|s| self.lock(s).len()).sum()
    }

    /// Snapshots one shard's available capacities at time `now` (§3.4
    /// unlocked-minus-consumed), holding only that shard's lock: every
    /// block's curve is recomputed under it, so the cost scales with
    /// the blocks registered on the shard. (The name dates from a
    /// per-shard cache that never hit; the benchmark crate calls it,
    /// so it stays until a benchmark PR renames both.)
    pub fn snapshot_shard_uncached(&self, shard: usize, now: f64) -> BTreeMap<BlockId, RdpCurve> {
        let (period, steps) = (self.unlock_period, self.unlock_steps);
        let blocks = self.lock(shard);
        blocks
            .available_all(&self.grid, now, period, steps)
            .collect()
    }

    /// Snapshots all shards' available capacities at time `now`, taking
    /// shard locks one at a time: the whole-ledger view a remote
    /// tenant's `Snapshot` request reads.
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
    /// compare these across crash/recover runs.
    pub fn block_states(&self) -> BTreeMap<BlockId, BlockState> {
        let mut all = BTreeMap::new();
        for s in 0..self.shards.len() {
            let states = self.lock(s).states();
            all.extend(states.into_iter().map(|state| (state.id, state)));
        }
        all
    }

    /// Commits one task as a batch of one — a shard batch when all its
    /// blocks live on one shard, a cross batch otherwise: it commits
    /// everywhere or nowhere.
    ///
    /// # Panics
    ///
    /// Panics if the task references an unregistered block (admission
    /// validates block existence, and blocks are never removed).
    pub fn commit_task(&self, task: &Task) -> CommitOutcome {
        match self.home_shard(task) {
            Some(home) => self.commit_shard_batch(home, &[task])[0],
            None => self.commit_cross_batch(&[task])[0],
        }
    }

    /// The one shard all of a task's blocks live on — such a task can
    /// ride [`ShardedLedger::commit_shard_batch`] — or `None` when its
    /// blocks span shards (or it has none).
    pub fn home_shard(&self, task: &Task) -> Option<usize> {
        let mut shards = task.blocks.iter().map(|b| self.shard_of(*b));
        let home = shards.next()?;
        shards.all(|s| s == home).then_some(home)
    }

    /// Stages one task under the held locks — the one check → consume
    /// sequence every commit runs (see the module docs): the demand is
    /// consumed on the real filters only if every one of them grants,
    /// saving a block's entry in `pre` on its first touch. `Released` =
    /// nothing changed.
    fn stage(
        &self,
        held: &mut Held<'_>,
        task: &Task,
        mut pre: Option<&mut PreImages>,
    ) -> CommitOutcome {
        // A demand on another grid is refused like one without room.
        let on_grid = task.demand.grid() == &self.grid;
        let demand = task.demand.values();
        for b in &task.blocks {
            let blocks = held.shard(self.shard_of(*b));
            let granted = blocks.grants(*b, demand);
            let granted = granted
                .unwrap_or_else(|| panic!("task {} references unregistered block {b}", task.id));
            if !(on_grid && granted) {
                return CommitOutcome::Released;
            }
        }
        for b in &task.blocks {
            let blocks = held.shard(self.shard_of(*b));
            if let Some(pre) = pre.as_deref_mut() {
                let entry = || blocks.entry(*b).expect("checked above").clone();
                pre.entry(*b).or_insert_with(entry);
            }
            // Cannot fail after the check: every involved lock is held.
            let charged = blocks.charge(*b, demand);
            assert!(charged, "filter re-check cannot fail under the held locks");
        }
        CommitOutcome::Committed
    }

    /// Puts the pre-images back.
    fn restore(&self, held: &mut Held<'_>, pre: PreImages) {
        for (b, entry) in pre {
            held.shard(self.shard_of(b)).reinstate(b, entry);
        }
    }

    /// Commits a scheduling cycle's shard-local grants: one batch per
    /// shard, ascending by shard, every task with all of its blocks on
    /// that shard (the cycle's partition guarantees both). One hold of
    /// all the involved locks; each batch staged on the calling thread
    /// with the semantics of committing its tasks one by one; on a
    /// durable ledger one journal step — one group commit, one ship
    /// round — for all of them (see the module docs). A failed append
    /// releases every batch; a batch whose own ship failed is released
    /// whole while the others stand. The outcomes line up with
    /// `batches` and their tasks.
    ///
    /// # Panics
    ///
    /// Panics if a task references an unregistered block, like
    /// [`ShardedLedger::commit_task`].
    pub fn commit_local(&self, batches: &[(usize, &[Traced<'_>])]) -> Vec<Vec<CommitOutcome>> {
        if batches.is_empty() {
            return Vec::new();
        }
        debug_assert!(batches.windows(2).all(|w| w[0].0 < w[1].0));
        debug_assert!(batches.iter().all(|(shard, tasks)| tasks
            .iter()
            .all(|(t, _)| t.blocks.iter().all(|b| self.shard_of(*b) == *shard))));
        let mut held = self.hold(batches.iter().map(|(shard, _)| *shard));
        let since = self.telemetry.as_ref().map(|t| t.clock.now_nanos());
        // One set of pre-images per shard: a shard is undone alone.
        let mut pres: Vec<Option<PreImages>> = batches
            .iter()
            .map(|_| self.journal.as_ref().map(|_| PreImages::new()))
            .collect();
        let mut outcomes: Vec<Vec<CommitOutcome>> = batches
            .iter()
            .zip(&mut pres)
            .map(|((_, tasks), pre)| {
                let stage = |(task, _): &Traced<'_>| self.stage(&mut held, task, pre.as_mut());
                tasks.iter().map(stage).collect()
            })
            .collect();
        if let Some(journal) = &self.journal {
            let logged: Vec<(usize, Vec<Traced<'_>>)> = batches
                .iter()
                .zip(&outcomes)
                .map(|((shard, tasks), outcomes)| {
                    let granted = tasks
                        .iter()
                        .zip(outcomes)
                        .filter(|(_, outcome)| **outcome == CommitOutcome::Committed);
                    (*shard, granted.map(|(task, _)| *task).collect())
                })
                .collect();
            let durable = journal.commit_local(&logged);
            for ((durable, pre), outcomes) in durable.into_iter().zip(pres).zip(&mut outcomes) {
                if !durable {
                    self.restore(&mut held, pre.expect("a durable ledger keeps pre-images"));
                    outcomes.fill(CommitOutcome::Released);
                }
            }
        }
        drop(held); // Unlocks: part of the hold the histogram reports.
        if let (Some(t), Some(since)) = (&self.telemetry, since) {
            t.lock_hold
                .record(t.clock.now_nanos().saturating_sub(since));
        }
        outcomes
    }

    /// [`ShardedLedger::commit_local`] for one shard's batch of
    /// untraced tasks: one lock, one group commit, one ship.
    pub fn commit_shard_batch(&self, shard: usize, tasks: &[&Task]) -> Vec<CommitOutcome> {
        if tasks.is_empty() {
            return Vec::new();
        }
        let untraced: Vec<Traced<'_>> = tasks.iter().map(|task| (*task, None)).collect();
        self.commit_local(&[(shard, &untraced[..])]).remove(0)
    }

    /// Commits a scheduling cycle's cross-shard grants as one batch
    /// under the union of the involved shard locks, staged like a
    /// shard-local batch; the outcomes line up with `tasks`. On a
    /// durable ledger the granted tasks' per-shard `Intent` records
    /// are one group commit and their coordinator `Commit`s another —
    /// presumed abort: an intent whose decision never became durable
    /// charges nothing, on recovery or in memory. The decisions are
    /// durable all together or not at all, so unless the journal
    /// answers that they are, the pre-images go back and every staged
    /// grant is released.
    ///
    /// # Panics
    ///
    /// Panics if a task references an unregistered block.
    pub fn commit_spanning(&self, tasks: &[Traced<'_>]) -> Vec<CommitOutcome> {
        if tasks.is_empty() {
            return Vec::new();
        }
        let since = self.telemetry.as_ref().map(|t| t.clock.now_nanos());
        let involved: BTreeSet<usize> = tasks
            .iter()
            .flat_map(|(t, _)| t.blocks.iter().map(|b| self.shard_of(*b)))
            .collect();
        let held = &mut self.hold(involved);
        let mut pre = self.journal.as_ref().map(|_| PreImages::new());
        let mut outcomes: Vec<CommitOutcome> = tasks
            .iter()
            .map(|(task, _)| self.stage(held, task, pre.as_mut()))
            .collect();
        if let (Some(journal), Some(pre)) = (&self.journal, pre) {
            let staged: Vec<usize> = (0..tasks.len())
                .filter(|i| outcomes[*i] == CommitOutcome::Committed)
                .collect();
            let granted: Vec<Traced<'_>> = staged.iter().map(|i| tasks[*i]).collect();
            if !journal.commit_cross(&granted, |b| self.shard_of(b)) {
                self.restore(held, pre);
                for i in staged {
                    outcomes[i] = CommitOutcome::Released;
                }
            }
        }
        if let (Some(t), Some(since)) = (&self.telemetry, since) {
            t.cross_commit
                .record(t.clock.now_nanos().saturating_sub(since));
        }
        outcomes
    }

    /// [`ShardedLedger::commit_spanning`] for untraced tasks.
    pub fn commit_cross_batch(&self, tasks: &[&Task]) -> Vec<CommitOutcome> {
        let untraced: Vec<Traced<'_>> = tasks.iter().map(|task| (*task, None)).collect();
        self.commit_spanning(&untraced)
    }

    /// Folds the log into one snapshot of every shard's blocks, at a
    /// global quiescent point (all shard locks, then the journal's —
    /// the commit path's order). A log broken by an earlier failed
    /// append is repaired first, so a *transient* storage fault
    /// (ENOSPC, EIO) only suppresses grants until the next compaction
    /// cycle instead of until a process restart.
    ///
    /// On a non-durable ledger this is a no-op.
    ///
    /// # Errors
    ///
    /// The first WAL error, counted in
    /// [`DurabilityStats::failed_compactions`].
    pub fn compact(&self) -> Result<(), WalError> {
        let Some(journal) = &self.journal else {
            return Ok(());
        };
        let guards: Vec<MutexGuard<'_, BlockStore>> =
            (0..self.shards.len()).map(|s| self.lock(s)).collect();
        let states: Vec<BlockState> = guards.iter().flat_map(|blocks| blocks.states()).collect();
        journal.compact(&states)
    }

    /// Write-ahead activity counters (`None` for an in-memory ledger).
    pub fn durability_stats(&self) -> Option<DurabilityStats> {
        self.journal.as_ref().map(Journal::stats)
    }

    /// The Prop. 6 soundness invariant over the whole ledger: every
    /// block has at least one Rényi order whose cumulative consumption
    /// is within its total capacity. Returns the ids of violating
    /// blocks (empty = sound).
    pub fn unsound_blocks(&self) -> Vec<BlockId> {
        let mut bad = Vec::new();
        for s in 0..self.shards.len() {
            bad.extend(self.lock(s).unsound());
        }
        bad.sort_unstable();
        bad
    }

    /// Total demands granted across all blocks (each task counts once
    /// per requested block).
    pub fn granted_count(&self) -> u64 {
        (0..self.shards.len()).map(|s| self.lock(s).granted()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::durability::LogRecord;
    use crate::replication::{ReplShipError, ReplStream};
    use dp_accounting::AlphaGrid;
    use dpack_core::online::BlockLedger;
    use dpack_wal::SimStorage;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn grid() -> AlphaGrid {
        AlphaGrid::new(vec![2.0, 8.0]).unwrap()
    }

    /// Registers blocks `0..8` at unit capacity.
    fn register(l: &ShardedLedger) {
        for j in 0..8u64 {
            l.register_block(Block::new(j, RdpCurve::constant(&grid(), 1.0), 0.0))
                .unwrap();
        }
    }

    fn ledger(shards: usize) -> ShardedLedger {
        let l = ShardedLedger::new(grid(), shards, 1.0, 1);
        register(&l);
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

    /// A fill that meets an id no shard holds fails typed, and the state
    /// it was filling keeps its rows and its block map — even though the
    /// earlier shards' rows were written before the unknown id's shard
    /// came up.
    #[test]
    fn an_unknown_block_leaves_the_filled_state_as_it_was() {
        use dpack_core::problem::ProblemState;
        let l = ledger(4);
        let fill = |ids: &[BlockId], rows: &mut [f64]| l.fill_available(1.0, ids, rows);
        let mut state = ProblemState::from_available(grid(), BTreeMap::new(), vec![]).unwrap();
        state.set_capacity(vec![1, 4, 6], fill).unwrap();
        state.push_task(task(0, vec![4, 6], 0.5)).unwrap();
        let (before, view) = (format!("{state:?}"), format!("{:?}", state.blocks()));
        // Block 9 is homed on shard 1, after shard 0's rows (blocks 0 and 4)
        // are written.
        let refused = state.set_capacity(vec![0, 4, 6, 9], fill);
        let unknown = ProblemError("block 9 is not registered".into());
        assert_eq!(refused, Err(unknown));
        assert_eq!(format!("{state:?}"), before);
        assert_eq!(format!("{:?}", state.blocks()), view);
        assert_eq!(state.blocks()[&4].values(), [1.0, 1.0]);
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
        ShardedLedger::open_durable(
            grid(),
            4,
            1.0,
            1,
            storage,
            DurabilityOptions::default(),
            &Obs::off(),
        )
        .unwrap()
    }

    type States = BTreeMap<BlockId, BlockState>;

    fn assert_bits(sa: &States, sb: &States) {
        assert_eq!(sa.keys().collect::<Vec<_>>(), sb.keys().collect::<Vec<_>>());
        for (id, x) in sa {
            let y = &sb[id];
            assert_eq!(x.granted, y.granted, "block {id} grant count");
            assert_eq!(x.arrival.to_bits(), y.arrival.to_bits());
            let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&x.total), bits(&y.total), "block {id} total");
            assert_eq!(bits(&x.consumed), bits(&y.consumed), "block {id} consumed");
        }
    }

    fn assert_states_bit_identical(a: &ShardedLedger, b: &ShardedLedger) {
        assert_bits(&a.block_states(), &b.block_states());
    }

    #[test]
    fn durable_ledger_recovers_commits_bit_identically() {
        let sim = SimStorage::new();
        let l = durable(&sim);
        for j in 0..8u64 {
            l.register_block(Block::new(j, RdpCurve::constant(&grid(), 1.0), 0.0))
                .unwrap();
        }
        assert!(l.durability_stats().is_some());
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

    /// The semantics every commit path must reproduce decision for
    /// decision and bit for bit, sharing nothing with the ledger: plain
    /// block entries in a map, tasks taken one by one — check every
    /// requested block, then charge them all.
    struct Model(BTreeMap<BlockId, BlockLedger>);

    impl Model {
        /// Blocks `0..8` at unit capacity, like [`ledger`].
        fn new() -> Self {
            let fresh = |j| BlockLedger::new(Block::new(j, RdpCurve::constant(&grid(), 1.0), 0.0));
            Self((0..8u64).map(|j| (j, fresh(j))).collect())
        }

        fn commit(&mut self, tasks: &[Task]) -> Vec<CommitOutcome> {
            let mut one = |t: &Task| {
                if !t.blocks.iter().all(|b| self.0[b].check(&t.demand)) {
                    return CommitOutcome::Released;
                }
                for b in &t.blocks {
                    self.0.get_mut(b).unwrap().commit(&t.demand).unwrap();
                }
                CommitOutcome::Committed
            };
            tasks.iter().map(&mut one).collect()
        }

        fn states(&self) -> States {
            let state = |(id, b): (&BlockId, &BlockLedger)| BlockState {
                id: *id,
                arrival: b.arrival(),
                total: b.total().values().to_vec(),
                consumed: b.consumed().values().to_vec(),
                granted: b.granted_count(),
            };
            self.0.iter().map(|e| (*e.0, state(e))).collect()
        }
    }

    /// One ledger of each kind the one commit path serves, blocks
    /// `0..8` registered: in memory and durable.
    fn every_kind() -> Vec<(ShardedLedger, Option<SimStorage>)> {
        let logged = SimStorage::new();
        let durable = durable(&logged);
        register(&durable);
        vec![(ledger(4), None), (durable, Some(logged))]
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
        let mut model = Model::new();
        let want = model.commit(&tasks);
        assert_eq!(want[2], CommitOutcome::Released);

        for (l, storage) in every_kind() {
            let refs: Vec<&Task> = tasks.iter().collect();
            let outcomes = l.commit_shard_batch(1, &refs);
            assert_eq!(outcomes, want);
            assert_bits(&l.block_states(), &model.states());
            if let Some(sim) = &storage {
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
            task(0, vec![0, 1, 4], 0.6),
            task(1, vec![1, 2, 3], 0.5), // Refused on block 1.
            task(2, vec![2, 3, 6, 7], 0.8),
            task(3, vec![0, 1, 5], 0.4), // Fits exactly after task 0.
        ];
        let mut model = Model::new();
        let want = model.commit(&tasks);
        assert_eq!(want[1], CommitOutcome::Released);

        for (l, storage) in every_kind() {
            let refs: Vec<&Task> = tasks.iter().collect();
            let outcomes = l.commit_cross_batch(&refs);
            assert_eq!(outcomes, want);
            assert_bits(&l.block_states(), &model.states());
            assert!(l.unsound_blocks().is_empty());
            if let Some(sim) = &storage {
                // 8 registrations, then one group commit of the six
                // intents (three attempts over all four shards' streams)
                // and one of the three decisions: 8 + 1 + 1 syncs. With
                // a log per shard plus a coordinator log and one append
                // per decision it was 8 + 4 + 3.
                let stats = l.durability_stats().unwrap();
                assert_eq!(stats.batches, 2, "{stats:?}");
                assert_eq!(stats.batched_records, 6 + 3, "{stats:?}");
                assert_eq!(stats.sync_calls, 8 + 1 + 1, "{stats:?}");
                assert_states_bit_identical(&l, &durable(&sim.surviving()));
            }
        }
    }

    /// Registers blocks `0..8` on `l` and charges it — shard-locally and
    /// across shards, so pre-images are not blank blocks. Returns the
    /// model that agrees with it and the two batches the restore tests
    /// run on it: four tasks on shard 1, and four across shards 0–2
    /// (three attempts; the second task is refused on block 1).
    fn charged(l: &ShardedLedger) -> (Model, Vec<Task>, Vec<Task>) {
        register(l);
        let prior = [task(90, vec![1], 0.1), task(91, vec![0, 1, 2], 0.1)];
        let mut model = Model::new();
        for t in &prior {
            assert_eq!(l.commit_task(t), CommitOutcome::Committed);
        }
        model.commit(&prior);
        assert_bits(&l.block_states(), &model.states());
        let local = (0..4u64).map(|i| task(i, vec![1, 5], 0.05)).collect();
        let cross = vec![
            task(10, vec![0, 1], 0.3),
            task(11, vec![1, 2], 0.9),
            task(12, vec![0, 1, 2], 0.1),
            task(13, vec![2, 0], 0.2),
        ];
        (model, local, cross)
    }

    #[test]
    fn a_failed_flush_restores_the_pre_batch_bits() {
        let sim = SimStorage::new();
        let l = durable(&sim);
        let (mut model, local, cross) = charged(&l);
        let (local_refs, cross_refs): (Vec<&Task>, Vec<&Task>) =
            (local.iter().collect(), cross.iter().collect());

        // An ENOSPC-like fault: both batches stage, fail to flush, and
        // must leave no trace in memory.
        sim.set_append_errors(true);
        let failures = l.durability_stats().unwrap().failed_appends;
        let released = [CommitOutcome::Released; 4];
        assert_eq!(l.commit_shard_batch(1, &local_refs), released);
        assert_bits(&l.block_states(), &model.states());
        assert_eq!(l.commit_cross_batch(&cross_refs), released);
        assert_bits(&l.block_states(), &model.states());
        assert!(l.durability_stats().unwrap().failed_appends >= failures + 2);

        // Healed and repaired, the very same batches commit, and
        // recovery agrees with the live ledger and the model.
        sim.set_append_errors(false);
        l.compact().unwrap();
        assert_eq!(l.commit_shard_batch(1, &local_refs), model.commit(&local));
        assert_eq!(l.commit_cross_batch(&cross_refs), model.commit(&cross));
        assert_eq!(l.granted_count(), (1 + 3) + 4 * 2 + (2 + 3 + 2));
        assert_bits(&l.block_states(), &model.states());
        assert_states_bit_identical(&l, &durable(&sim.surviving()));
    }

    #[test]
    fn a_crash_inside_the_decisions_releases_every_attempt() {
        // What the whole cross batch and its last write — the three
        // coordinator decisions (18-byte records) as one group commit —
        // cost on disk.
        let decisions = {
            let probe = SimStorage::new();
            let (mut wal, _) =
                dpack_wal::Wal::open(Box::new(probe.clone()), Default::default()).unwrap();
            wal.append_batch(&[&[0u8; 18][..]; 3]).unwrap();
            probe.bytes_written()
        };
        let batch = {
            let probe = SimStorage::new();
            let l = durable(&probe);
            let (_, _, cross) = charged(&l);
            let before = probe.bytes_written();
            l.commit_cross_batch(&cross.iter().collect::<Vec<_>>());
            probe.bytes_written() - before
        };
        // Tear the decisions at every byte: the intents are durable, no
        // decision is, and every attempt is released — in memory and on
        // recovery alike.
        for torn in 0..decisions {
            let sim = SimStorage::new();
            let l = durable(&sim);
            let (model, _, cross) = charged(&l);
            sim.arm_crash_after(batch - decisions + torn);
            let outcomes = l.commit_cross_batch(&cross.iter().collect::<Vec<_>>());
            assert!(sim.crashed());
            assert_eq!(outcomes, [CommitOutcome::Released; 4], "torn at +{torn}");
            assert_bits(&l.block_states(), &model.states());
            assert_states_bit_identical(&l, &durable(&sim.surviving()));
        }
    }

    /// A replica that keeps every ship it accepts and refuses exactly
    /// the one [`FlakySink::refuse_in`] names.
    #[derive(Debug, Default)]
    struct FlakySink {
        accepted: Mutex<Vec<(ReplStream, Vec<Vec<u8>>)>>,
        ships: AtomicU64,
        refused: AtomicU64,
    }

    impl ReplicationSink for FlakySink {
        fn ship(&self, stream: ReplStream, records: &[&[u8]]) -> Result<(), ReplShipError> {
            if self.ships.fetch_add(1, Ordering::Relaxed) + 1
                == self.refused.load(Ordering::Relaxed)
            {
                return Err(ReplShipError::Sink("refused".into()));
            }
            let records = records.iter().map(|r| r.to_vec()).collect();
            self.accepted.lock().unwrap().push((stream, records));
            Ok(())
        }
    }

    impl FlakySink {
        /// Refuses the `n`-th ship from now.
        fn refuse_in(&self, n: u64) {
            let next = self.ships.load(Ordering::Relaxed) + n;
            self.refused.store(next, Ordering::Relaxed);
        }

        /// What a replica promoted from the accepted records holds:
        /// `Apply` records charged unconditionally, `Intent` records
        /// iff a `Commit` for their attempt was accepted too.
        fn fold(&self) -> States {
            let accepted = self.accepted.lock().unwrap();
            let records: Vec<LogRecord> = accepted
                .iter()
                .flat_map(|(stream, records)| {
                    records.iter().map(move |r| {
                        let (tagged, _) = LogRecord::head(r).unwrap();
                        assert_eq!(tagged, *stream, "a record shipped off its stream");
                        LogRecord::decode(r).unwrap()
                    })
                })
                .collect();
            let committed: BTreeSet<u64> = records
                .iter()
                .filter_map(|r| match r {
                    LogRecord::Commit { attempt, .. } => Some(*attempt),
                    _ => None,
                })
                .collect();
            let mut replica = Model(BTreeMap::new());
            for record in records {
                let (demand, blocks) = match record {
                    LogRecord::Block {
                        id,
                        arrival,
                        capacity,
                        ..
                    } => {
                        let capacity = RdpCurve::new(&grid(), capacity).unwrap();
                        let entry = BlockLedger::new(Block::new(id, capacity, arrival));
                        replica.0.insert(id, entry);
                        continue;
                    }
                    LogRecord::Apply { demand, blocks, .. } => (demand, blocks),
                    LogRecord::Intent {
                        attempt,
                        demand,
                        blocks,
                        ..
                    } if committed.contains(&attempt) => (demand, blocks),
                    _ => continue,
                };
                let demand = RdpCurve::new(&grid(), demand).unwrap();
                for b in blocks {
                    replica.0.get_mut(&b).unwrap().commit(&demand).unwrap();
                }
            }
            replica.states()
        }
    }

    #[test]
    fn a_refused_ship_restores_the_pre_batch_bits() {
        // (cross batch?, which of its ships is refused): the shard
        // batch's only ship; the cross batch's second intent ship (its
        // attempts span shards 0, 1, 2); its decision ship.
        for (cross_batch, refused) in [(false, 1), (true, 2), (true, 4)] {
            let sink = Arc::new(FlakySink::default());
            let l = durable(&SimStorage::new());
            l.set_replication(Arc::clone(&sink) as Arc<dyn ReplicationSink>);
            let (mut model, local, cross) = charged(&l);
            let batch = if cross_batch { &cross } else { &local };
            let refs: Vec<&Task> = batch.iter().collect();
            let commit = |refs: &[&Task]| {
                if cross_batch {
                    l.commit_cross_batch(refs)
                } else {
                    l.commit_shard_batch(1, refs)
                }
            };
            assert_bits(&sink.fold(), &l.block_states());

            sink.refuse_in(refused);
            assert_eq!(commit(&refs), [CommitOutcome::Released; 4], "{refused}");
            assert_bits(&l.block_states(), &model.states());
            assert_eq!(l.durability_stats().unwrap().failed_ships, 1);
            // The replicas hold whatever shipped before the refusal —
            // intents without a decision at most — and fold to the
            // same state. (Local recovery is not asserted: a replicated
            // primary hands over, it never restarts from its own log.)
            assert_bits(&sink.fold(), &l.block_states());

            // The stream goes on: the same batch now commits.
            assert_eq!(commit(&refs), model.commit(batch));
            assert_bits(&l.block_states(), &model.states());
            assert_bits(&sink.fold(), &l.block_states());
        }
    }

    /// One two-block task per shard of a four-shard ledger — blocks
    /// `s` and `s + 4` — as the cycle's shard-local bundle.
    fn one_batch_per_shard() -> Vec<Vec<Task>> {
        (0..4u64)
            .map(|s| {
                let on_shard = |i| task(20 + 2 * s + i, vec![s, s + 4], 0.05 + 0.01 * i as f64);
                (0..2u64).map(on_shard).collect()
            })
            .collect()
    }

    /// Commits `bundle` as one `commit_local` call. The bundle tests
    /// run at both worker counts a cycle runs at; the commit itself no
    /// longer depends on the count, which they hold it to.
    fn commit_bundle(
        l: &ShardedLedger,
        bundle: &[Vec<Task>],
        _workers: usize,
    ) -> Vec<Vec<CommitOutcome>> {
        let traced: Vec<Vec<Traced<'_>>> = bundle
            .iter()
            .map(|batch| batch.iter().map(|t| (t, None)).collect())
            .collect();
        let batches: Vec<(usize, &[Traced<'_>])> = traced
            .iter()
            .enumerate()
            .map(|(shard, batch)| (shard, batch.as_slice()))
            .collect();
        l.commit_local(&batches)
    }

    #[test]
    fn one_refused_stream_of_a_bundle_releases_only_its_shard() {
        for workers in [1, 2] {
            let sink = Arc::new(FlakySink::default());
            let l = durable(&SimStorage::new());
            l.set_replication(Arc::clone(&sink) as Arc<dyn ReplicationSink>);
            let (mut model, _, _) = charged(&l);
            let bundle = one_batch_per_shard();
            let shipped = sink.ships.load(Ordering::Relaxed);

            // The bundle's four streams ship in shard order; the third
            // (shard 2) is refused.
            sink.refuse_in(3);
            let outcomes = commit_bundle(&l, &bundle, workers);
            assert_eq!(sink.ships.load(Ordering::Relaxed), shipped + 4);
            for (shard, batch) in bundle.iter().enumerate() {
                if shard == 2 {
                    assert_eq!(outcomes[shard], [CommitOutcome::Released; 2]);
                } else {
                    assert_eq!(outcomes[shard], model.commit(batch), "shard {shard}");
                }
            }
            // Blocks 2 and 6 hold their pre-images bit for bit; the
            // other three shards' grants stand.
            assert_bits(&l.block_states(), &model.states());
            let stats = l.durability_stats().unwrap();
            assert_eq!((stats.failed_ships, stats.failed_appends), (1, 0));
            // A replica promoted from what was accepted folds to the
            // live state — independently of the ledger.
            assert_bits(&sink.fold(), &l.block_states());
            assert!(l.unsound_blocks().is_empty());

            // The stream goes on: shard 2's batch now commits alone.
            let refs: Vec<&Task> = bundle[2].iter().collect();
            assert_eq!(l.commit_shard_batch(2, &refs), model.commit(&bundle[2]));
            assert_bits(&l.block_states(), &model.states());
            assert_bits(&sink.fold(), &l.block_states());
        }
    }

    #[test]
    fn a_failed_journal_append_releases_the_whole_step() {
        let sim = SimStorage::new();
        let l = durable(&sim);
        let sink = Arc::new(FlakySink::default());
        l.set_replication(Arc::clone(&sink) as Arc<dyn ReplicationSink>);
        let (mut model, _, _) = charged(&l);
        let bundle = one_batch_per_shard();
        let accepted = sink.accepted.lock().unwrap().len();

        // The step's one group commit fails: no record of any of the
        // four shards' batches is durable…
        sim.set_append_errors(true);
        let outcomes = commit_bundle(&l, &bundle, 1);
        sim.set_append_errors(false);
        // …so nothing of the step was shipped, and every batch of it is
        // released, its blocks back at their pre-images bit for bit.
        assert_eq!(sink.accepted.lock().unwrap().len(), accepted);
        assert_eq!(outcomes, vec![[CommitOutcome::Released; 2]; 4]);
        assert_bits(&l.block_states(), &model.states());
        let stats = l.durability_stats().unwrap();
        assert_eq!((stats.failed_appends, stats.failed_ships), (1, 0));
        // The failed step resurfaces nowhere: the replica's fold and
        // recovery from the primary's own bytes agree with the live
        // ledger (nothing was refused, so the log holds exactly the
        // acknowledged state).
        assert_bits(&sink.fold(), &l.block_states());
        assert_states_bit_identical(&l, &durable(&sim.surviving()));

        // Repaired, the same bundle commits whole, and all three agree.
        l.compact().unwrap();
        let outcomes = commit_bundle(&l, &bundle, 1);
        for (shard, batch) in bundle.iter().enumerate() {
            assert_eq!(outcomes[shard], model.commit(batch), "shard {shard}");
        }
        assert_bits(&l.block_states(), &model.states());
        assert_bits(&sink.fold(), &l.block_states());
        assert_states_bit_identical(&l, &durable(&sim.surviving()));
    }

    #[test]
    fn cross_batch_flushes_show_in_the_flight_recorder() {
        let (obs, _clock) = Obs::manual(1);
        let sim = SimStorage::new();
        let opts = DurabilityOptions::default();
        let mut l = ShardedLedger::open_durable(grid(), 4, 1.0, 1, &sim, opts, &obs).unwrap();
        l.instrument(&obs);
        let (_, _, cross) = charged(&l);
        let flushed = || -> Vec<(u64, u64)> {
            let events = obs.recorder.dump();
            let flushes = events
                .iter()
                .filter(|e| e.kind == dpack_obs::EventKind::BatchFlushed);
            flushes.map(|e| (e.a, e.b)).collect()
        };
        // So far: eight registrations (block j on shard j mod 4), one
        // shard-local grant on shard 1, and one three-shard attempt —
        // its intents on shards 0–2, then its decision on the
        // coordinator's stream. Every stream a flush writes to reports
        // its records.
        const COORD: u64 = u32::MAX as u64;
        let registered = [(0, 1), (1, 1), (2, 1), (3, 1)].repeat(2);
        let charged = [(1, 1), (0, 1), (1, 1), (2, 1), (COORD, 1)];
        assert_eq!(flushed(), [&registered[..], &charged[..]].concat());
        // Tasks 10 and 12 span shards 0 and 1, task 12 shard 2 too: one
        // group commit of two intents on each of shards 0 and 1 and one
        // on shard 2 (task 11 is refused and logs nothing), then one of
        // the two decisions.
        let refs: Vec<&Task> = cross[..3].iter().collect();
        assert_eq!(l.commit_cross_batch(&refs)[1], CommitOutcome::Released);
        assert_eq!(flushed()[13..], [(0, 2), (1, 2), (2, 1), (COORD, 2)]);
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

    #[test]
    fn with_tier_writes_nothing_to_its_storage() {
        let storage = SimStorage::new();
        let service = crate::BudgetService::with_tier(
            grid(),
            crate::ServiceConfig::default(),
            &storage,
            crate::TierConfig::default(),
        )
        .unwrap();
        let l = service.ledger();
        register(l);
        for j in 0..8u64 {
            let t = task(j, vec![j], 0.5);
            assert_eq!(l.commit_task(&t), CommitOutcome::Committed);
        }
        assert_eq!(l.tier_activity(), None);
        assert_eq!(storage.bytes_written(), 0);
        assert!(storage.list().unwrap().is_empty());
    }

    #[test]
    fn durable_tiered_ledger_recovers_bit_identically() {
        let sim = SimStorage::new();
        let l = ShardedLedger::open_durable(
            grid(),
            4,
            1.0,
            1,
            &sim,
            DurabilityOptions::default(),
            &Obs::off(),
        )
        .unwrap();
        for j in 0..24u64 {
            l.register_block(Block::new(j, RdpCurve::constant(&grid(), 1.0), 0.0))
                .unwrap();
        }
        for i in 0..24u64 {
            assert_eq!(
                l.commit_task(&task(i, vec![i % 24, (i + 7) % 24], 0.1)),
                CommitOutcome::Committed
            );
        }
        l.compact().unwrap();
        l.commit_task(&task(100, vec![3], 0.2));
        let recovered = durable(&sim.surviving());
        assert_states_bit_identical(&l, &recovered);
        assert!(recovered.unsound_blocks().is_empty());
    }

    #[test]
    fn crashes_under_a_tiered_durable_ledger_recover_bit_identically() {
        let run = |sim: &SimStorage| -> ShardedLedger {
            let l = ShardedLedger::open_durable(
                grid(),
                4,
                1.0,
                1,
                sim,
                DurabilityOptions::default(),
                &Obs::off(),
            )
            .unwrap();
            for j in 0..16u64 {
                l.register_block(Block::new(j, RdpCurve::constant(&grid(), 1.0), 0.0))
                    .unwrap();
            }
            for i in 0..16u64 {
                l.commit_task(&task(i, vec![i % 16, (i + 5) % 16], 0.05));
            }
            l
        };
        // Registration must finish (the driver unwraps it); sweep crash
        // points across everything after: the WAL's intents and
        // decisions.
        let registered = {
            let probe = SimStorage::new();
            let l = ShardedLedger::open_durable(
                grid(),
                4,
                1.0,
                1,
                &probe,
                DurabilityOptions::default(),
                &Obs::off(),
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
            // Whatever step the crash interrupted, the in-memory ledger
            // only ever charged durably-decided grants, so a reboot
            // agrees bit-for-bit.
            let recovered = durable(&sim.surviving());
            assert_states_bit_identical(&l, &recovered);
            assert!(recovered.unsound_blocks().is_empty());
        }
    }
}
