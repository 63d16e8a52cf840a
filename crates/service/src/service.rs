//! The budget service: admission, batched scheduling, commit.
//!
//! A [`BudgetService`] is driven entirely through `&self` — producers
//! submit tasks and register blocks from any thread while the
//! scheduling loop runs cycles; all interior state is behind the
//! striped ledger locks and two service locks. The **books** lock
//! guards everything admission touches — the queue, the live-task
//! table, each tenant's live count and counters, and the stats — so a
//! submission takes it once, after validation has read block existence
//! under the shard locks. The **cycle** lock serializes cycles (two
//! overlapping cycles would double-schedule the same pending tasks),
//! and block registration, so the block set is fixed for the length of
//! a cycle; submissions stay concurrent throughout.
//!
//! **Decide globally, commit striped.** The paper's scheduler (§3,
//! Alg. 1) picks each block's best alpha from *all* of the block's
//! requesters and packs in one global efficiency order, so the service
//! keeps **one** pending set and runs **one** scheduling pass per cycle
//! over every shard's blocks, however many shards the ledger has. Striping
//! stays where it pays: submit-time validation, registration, snapshot
//! reads and the commit each take only the shard locks they need.
//!
//! The pending set is a [`ProblemState`] the cycle lock owns and that
//! survives from cycle to cycle — tasks and their dense scheduler rows,
//! in arrival order — with each task's admission stamp and trace
//! context beside it (its tenant is in the live-task table). A
//! submission is *moved* in when it is ingested; from then on a cycle
//! only writes the state's capacities over with a fresh ledger
//! snapshot, schedules, commits, and compacts out what was granted or
//! evicted. Nothing is cloned or rebuilt for a
//! task that merely waits.
//!
//! One cycle runs four phases, mirroring the §6.4 "scheduling
//! procedure" (ingest → snapshot → algorithm → commit):
//!
//! 1. **Ingest** — swap the admission queue out for the pending set's
//!    empty arrivals buffer (each keeps its capacity for the next
//!    cycle) and evict timed-out tasks, in arrival order.
//! 2. **Decide** — one snapshot of exactly the blocks the pending tasks
//!    request, one pass of the
//!    configured scheduler over every pending task; its alpha orders
//!    (or DPF's per-task shares) fan out over as many worker threads
//!    as the pass's size pays for (none for a small pass).
//! 3. **Commit** — the pass's grants split by shard set. Grants whose
//!    blocks all live on one shard go to the ledger as one batch per
//!    shard in one call: it holds the shards' locks once, stages on
//!    this thread, makes every shard's batch durable with one
//!    write-ahead group commit — one sync — and ships them to the
//!    replicas in one quorum round. Then the grants spanning shards
//!    commit as one two-phase batch: two more syncs and rounds, its
//!    intents and its decisions.
//! 4. **Finalize** — under one hold of the books lock, tickets resolve
//!    as their tasks leave the live table and the grants and evictions
//!    are counted; then one short hold records the cycle.
//!
//! The pending set never reorders its tasks, so the pass sees exactly
//! the state a from-scratch rebuild over the same pending tasks would
//! give, and the worker count changes neither the snapshot nor the
//! pass: the service allocates what the
//! [`OnlineEngine`](dpack_core::online::OnlineEngine) — which does
//! rebuild every step — allocates: same ids, same order, same steps,
//! same evictions, which the equivalence sweep asserts at
//! `S ∈ {1, 2, 4}`. The bit-level claim is **per block**: a block is
//! charged its shard-local grants in allocation order, then its
//! spanning grants in allocation order — the order its shard's log
//! replays, so recovery is bit-identical — where the engine charges one
//! global allocation order. The two `f64` sums can differ in the last
//! bit at `S > 1`, and that conditions the claim twice. A selected task
//! that fills a block to that last bit of the filter's tolerance edge
//! can pass the pass's check and fail the ledger's: the filter releases
//! it ([`CycleStats::released`]), and it stays pending and is granted a
//! cycle later than the engine grants it. And the next snapshot carries
//! the last bit, so a pass whose choice rests on a near-tie can choose
//! otherwise: on the weighted Amazon Reviews instance of
//! `tests/integration.rs` (seed 3), every `S > 1` grants task 374 where
//! the engine grants task 386, of equal weight. No block is overdrawn
//! either way.

use std::collections::{hash_map::Entry, HashMap, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use dp_accounting::AlphaGrid;
use dpack_core::online::AllocatedTask;
use dpack_core::problem::{Block, BlockId, ProblemError, ProblemState, Task, TaskId};
use dpack_obs::trace::{span_id, SpanKind};
use dpack_obs::{EventKind, Obs, TraceContext};
use dpack_wal::{WalError, WalStorage};

use crate::admission::{AdmissionError, Submission, TenantId};
use crate::config::{DurabilityOptions, ServiceConfig, TierConfig};
use crate::ledger::{CommitOutcome, ShardedLedger, Traced};
use crate::stats::{CycleStats, ServiceStats, TenantStats};
use crate::telemetry::ServiceTelemetry;
use crate::ticket::{Decision, SubmissionTicket, TicketCell};

/// What rides beside a pending task: when it was admitted (telemetry
/// clock, see [`Submission::admitted_nanos`]) and its distributed-trace
/// context if traced.
#[derive(Debug, Clone, Copy)]
struct Tag {
    admitted_nanos: u64,
    trace: Option<TraceContext>,
}

/// Every pending task of the service, kept across cycles: what the
/// cycle lock guards.
struct Pending {
    /// The tasks and their scheduler rows, in arrival order. The
    /// capacities are those of the last pass.
    state: ProblemState,
    /// One per task of `state`, in its order.
    tags: Vec<Tag>,
    /// Ingested this cycle. They enter `state` in the decide phase,
    /// once it holds a snapshot taken after their blocks registered,
    /// which leaves the buffer empty for the next ingest to swap with
    /// the admission queue.
    arrivals: VecDeque<Submission>,
}

impl Pending {
    fn new(grid: &AlphaGrid) -> Self {
        let state = ProblemState::from_available(grid.clone(), Default::default(), Vec::new())
            .expect("the empty state is valid");
        Self {
            state,
            tags: Vec::new(),
            arrivals: VecDeque::new(),
        }
    }

    fn len(&self) -> usize {
        self.state.tasks().len() + self.arrivals.len()
    }

    /// Drops the tasks whose flag in `keep` is `false`, and their tags.
    fn retain(&mut self, keep: &[bool]) {
        self.state.retain_tasks(keep);
        let mut flags = keep.iter();
        self.tags
            .retain(|_| *flags.next().expect("one flag per task"));
    }

    /// Evicts what timed out by `now` (the engine's rule: `now −
    /// arrival > timeout`), this cycle's arrivals included, so a stale
    /// submission can be evicted on its first cycle.
    fn evict_expired(&mut self, now: f64, evicted: &mut Vec<TaskId>) {
        let mut expired = |t: &Task| {
            let expired = t.timeout.is_some_and(|dt| now - t.arrival > dt);
            if expired {
                evicted.push(t.id);
            }
            expired
        };
        let keep: Vec<bool> = self.state.tasks().iter().map(|t| !expired(t)).collect();
        self.retain(&keep);
        self.arrivals.retain(|s| !expired(&s.task));
    }

    /// The blocks a cycle's capacity rows cover, ascending and each once:
    /// those the pending rows request, which the state counts, and
    /// this cycle's arrivals' blocks.
    fn requested_blocks(&self) -> Vec<BlockId> {
        let mut ids: Vec<BlockId> = self.state.requested_blocks().collect();
        ids.extend(self.arrivals.iter().flat_map(|s| &s.task.blocks));
        // An ascending run and a short tail, which the stable sort
        // merges rather than sorting from scratch.
        ids.sort();
        ids.dedup();
        ids
    }
}

/// A committed grant on its way to the cycle's bookkeeping.
struct Grant {
    tag: Tag,
    task: AllocatedTask,
}

/// What a cycle's commit phase did with the pass's selection.
struct Committed {
    /// In allocation order.
    granted: Vec<Grant>,
    /// How many of them committed as part of a shard batch; the rest
    /// took the two-phase path.
    local: usize,
    /// Selected, then released by a filter or a failed flush.
    released: usize,
}

/// One tenant's record: its live tasks, which the quota caps, and its
/// counters.
#[derive(Default)]
struct TenantBook {
    live: usize,
    stats: TenantStats,
}

/// Everything admission reads or writes, under the one lock a
/// submission takes: the bounded FIFO queue, the tasks currently
/// *live* — queued or pending — each with its tenant and, for a
/// [`BudgetService::submit_async`] task, its completion cell, one
/// record per tenant, and the stats. Ids are the commit keys, so
/// admission rejects collisions (even across tenants) instead of
/// letting one task double-charge and shadow the other; a tenant's
/// live count backs its quota, which holds until a task is granted or
/// evicted (not merely drained), so a noisy tenant cannot grow the
/// pending set without bound. Counting under the lock that makes a
/// task visible to a cycle means a monitor never sees a grant whose
/// admission is not counted. The registry's service families read
/// these counts at scrape time (see [`crate::telemetry`]).
pub(crate) struct Books {
    pub(crate) queue: VecDeque<Submission>,
    live: HashMap<TaskId, (TenantId, Option<Arc<TicketCell>>)>,
    tenants: HashMap<TenantId, TenantBook>,
    /// `tenants` stays empty here: [`BudgetService::stats`] fills it
    /// from the tenant records.
    pub(crate) stats: ServiceStats,
}

impl Books {
    /// Ends a live task with its decision: resolves its ticket, frees
    /// the id and the quota slot, all under the one lock a
    /// resubmission of the id must take. Returns the tenant's record.
    fn decide(&mut self, id: TaskId, decision: Decision) -> &mut TenantBook {
        let (tenant, ticket) = self.live.remove(&id).expect("only live tasks are decided");
        if let Some(cell) = ticket {
            cell.resolve(decision);
        }
        let book = self
            .tenants
            .get_mut(&tenant)
            .expect("its tenant is counted");
        book.live -= 1;
        book
    }
}

/// The multi-tenant, sharded privacy-budget scheduling service.
pub struct BudgetService {
    config: ServiceConfig,
    durability: Option<DurabilityOptions>,
    /// Shared with the registry's views, which hold it by `Weak`; so
    /// are the books and the pending count.
    ledger: Arc<ShardedLedger>,
    books: Arc<Mutex<Books>>,
    /// Task ids whose grants recovery re-applied — immutable after
    /// construction. Admission rejects them as duplicates, so a tenant
    /// idempotently resubmitting in-flight work after failover cannot
    /// double-charge a grant the promoted ledger already holds.
    recovered_granted: std::collections::BTreeSet<TaskId>,
    /// Serializes cycles and block registrations, and owns the pending
    /// set: only a running cycle touches it.
    cycle_lock: Mutex<Pending>,
    /// Tasks pending, as the running (or else the last) cycle last
    /// counted them.
    pending: Arc<AtomicUsize>,
    /// The observability context (registry + flight recorder + clock).
    obs: Arc<Obs>,
    telemetry: ServiceTelemetry,
}

impl BudgetService {
    /// Creates an in-memory service on the given alpha grid — state
    /// does not survive a restart; see [`BudgetService::recover`] for
    /// the durable variant.
    ///
    /// # Panics
    ///
    /// Panics on degenerate configuration: zero shards, workers,
    /// unlock steps, queue capacity, tenant quota or ingest batch; a
    /// scheduling or unlock period that is not finite and > 0; a
    /// default timeout that is not finite and >= 0 (a NaN, infinite or
    /// negative one would never evict, pinning every task without its
    /// own timeout — and its id and quota slot — forever, as would an
    /// ingest batch of zero).
    pub fn new(grid: AlphaGrid, config: ServiceConfig) -> Self {
        Self::with_obs(grid, config, Obs::wall())
    }

    /// [`BudgetService::new`] on an explicit observability context:
    /// [`Obs::off`] for decision-parity replays and overhead baselines,
    /// a [`dpack_obs::ManualClock`]-backed context for deterministic
    /// timing tests.
    ///
    /// # Panics
    ///
    /// Panics on the same degenerate configurations as
    /// [`BudgetService::new`].
    pub fn with_obs(grid: AlphaGrid, config: ServiceConfig, obs: Arc<Obs>) -> Self {
        let mut ledger = ShardedLedger::new(
            grid,
            config.shards,
            config.unlock_period,
            config.unlock_steps,
        );
        ledger.instrument(&obs);
        Self::from_parts(ledger, config, None, obs)
    }

    /// Opens a durable service whose ledger writes ahead to `storage`,
    /// recovering whatever committed state the logs hold — on empty
    /// storage this is a fresh durable service; after a crash it
    /// rebuilds the exact pre-crash ledger (bit-identical filter
    /// state, with in-flight cross-shard grants resolved atomically by
    /// the coordinator's decisions). Queued and pending tasks are *not*
    /// durable — an unacknowledged submission is the tenant's to
    /// retry, as in PrivateKube's etcd deployment.
    ///
    /// # Errors
    ///
    /// Storage errors and log-format corruption; see
    /// [`ShardedLedger::open_durable`].
    ///
    /// # Panics
    ///
    /// Panics on the same degenerate configurations as
    /// [`BudgetService::new`].
    pub fn recover(
        grid: AlphaGrid,
        config: ServiceConfig,
        storage: &dyn WalStorage,
        opts: DurabilityOptions,
    ) -> Result<Self, WalError> {
        Self::recover_with_obs(grid, config, storage, opts, Obs::wall())
    }

    /// [`BudgetService::recover`] on an explicit observability context.
    /// Recovery itself is traced: the flight recorder receives the
    /// ordered step events (started → coordinator fold → per-shard
    /// replays → finished), so a post-crash
    /// [dump](dpack_obs::FlightRecorder::dump) shows exactly what was
    /// rebuilt.
    ///
    /// # Errors
    ///
    /// See [`BudgetService::recover`].
    ///
    /// # Panics
    ///
    /// Panics on the same degenerate configurations as
    /// [`BudgetService::new`].
    pub fn recover_with_obs(
        grid: AlphaGrid,
        config: ServiceConfig,
        storage: &dyn WalStorage,
        opts: DurabilityOptions,
        obs: Arc<Obs>,
    ) -> Result<Self, WalError> {
        let mut ledger = ShardedLedger::open_durable(
            grid,
            config.shards,
            config.unlock_period,
            config.unlock_steps,
            storage,
            opts,
            &obs,
        )?;
        ledger.instrument(&obs);
        Ok(Self::from_parts(ledger, config, Some(opts), obs))
    }

    /// [`BudgetService::new`]. A million-block registry needs nothing
    /// of its own: every service's cycles read only the blocks their
    /// tasks request.
    ///
    /// `storage` and `tier` are not used, and this never returns
    /// `Err`; the name and signature stay only because the benchmark
    /// crate calls them, until one service builder replaces the
    /// constructors.
    ///
    /// # Panics
    ///
    /// Panics on the same degenerate configurations as
    /// [`BudgetService::new`].
    pub fn with_tier(
        grid: AlphaGrid,
        config: ServiceConfig,
        _storage: &dyn WalStorage,
        _tier: TierConfig,
    ) -> Result<Self, WalError> {
        Ok(Self::new(grid, config))
    }

    fn from_parts(
        mut ledger: ShardedLedger,
        config: ServiceConfig,
        durability: Option<DurabilityOptions>,
        obs: Arc<Obs>,
    ) -> Self {
        let recovered_granted = ledger.take_recovered_grants();
        assert!(config.workers >= 1, "need at least one worker thread");
        assert!(
            config.scheduling_period > 0.0 && config.scheduling_period.is_finite(),
            "scheduling period must be finite and > 0"
        );
        assert!(config.tenant_quota >= 1, "tenant quota must be >= 1");
        assert!(config.queue_capacity >= 1, "queue capacity must be >= 1");
        assert!(config.ingest_batch >= 1, "ingest batch must be >= 1");
        assert!(
            config
                .default_timeout
                .is_none_or(|t| t.is_finite() && t >= 0.0),
            "default timeout must be finite and >= 0"
        );
        let books = Arc::new(Mutex::new(Books {
            queue: VecDeque::new(),
            live: HashMap::new(),
            tenants: HashMap::new(),
            stats: ServiceStats::with_retention(config.retention),
        }));
        let cycle_lock = Mutex::new(Pending::new(ledger.grid()));
        let (ledger, pending) = (Arc::new(ledger), Arc::new(AtomicUsize::new(0)));
        let telemetry = ServiceTelemetry::new(&obs, &books, &pending, &ledger);
        Self {
            ledger,
            durability,
            books,
            recovered_granted,
            cycle_lock,
            pending,
            obs,
            telemetry,
            config,
        }
    }

    /// The observability context: the registry behind the `Metrics`
    /// wire reply and the flight recorder behind `Trace`.
    pub fn obs(&self) -> &Arc<Obs> {
        &self.obs
    }

    /// Folds the write-ahead logs into fresh snapshots now (no-op for
    /// an in-memory service). Runs automatically every
    /// [`DurabilityOptions::snapshot_every_cycles`] cycles.
    ///
    /// # Errors
    ///
    /// The first WAL error encountered.
    pub fn compact(&self) -> Result<(), WalError> {
        self.ledger.compact()
    }

    /// The service configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// The striped ledger (for soundness checks and fairness metrics).
    pub fn ledger(&self) -> &ShardedLedger {
        &self.ledger
    }

    /// Attaches a replication sink: every durable append is shipped
    /// through it before the corresponding grant (or registration) is
    /// acknowledged, so a quorum of replicas can take over losing
    /// nothing a tenant was told. Call on a freshly recovered durable
    /// service, before sharing it. See [`crate::replication`].
    ///
    /// # Panics
    ///
    /// Panics on a non-durable service or one that already recovered
    /// state — replicas start empty, and bootstrapping one from a
    /// non-empty primary is not supported.
    pub fn replicate_to(&mut self, sink: Arc<dyn crate::replication::ReplicationSink>) {
        self.ledger.set_replication(sink);
    }

    /// [`BudgetService::replicate_to`] for a service that already
    /// recovered state — the promotion path. The sink must resume the
    /// per-stream sequence counters of the replica log this node folded
    /// during promotion; see
    /// [`ShardedLedger::set_replication_resumed`](crate::ShardedLedger::set_replication_resumed).
    ///
    /// # Panics
    ///
    /// Panics on a non-durable service.
    pub fn replicate_to_resumed(&mut self, sink: Arc<dyn crate::replication::ReplicationSink>) {
        self.ledger.set_replication_resumed(sink);
    }

    /// Runs `f` with scheduling and replication quiesced: the cycle
    /// lock is held, so no cycle commits and no WAL batch ships while
    /// `f` runs. The resync path uses this to capture snapshot payloads
    /// that agree exactly with the ship counters.
    pub fn quiesced<R>(&self, f: impl FnOnce() -> R) -> R {
        let _cycle = self.cycle_lock.lock().expect("cycle lock poisoned");
        f()
    }

    /// Registers a data block on its shard. Callable from any thread,
    /// but not *during* a cycle: registration takes the cycle lock, so
    /// it waits for a running cycle to end and the block set is fixed
    /// for the length of every cycle — which is what lets the pending
    /// state keep its tasks' block indices from pass to pass.
    ///
    /// The lock is there for replication: a registration's durable
    /// append ships on the same per-shard stream as cycle flushes, and
    /// serializing the two keeps every replica's sequence vector a
    /// prefix of the primary's (which leader election compares).
    ///
    /// # Errors
    ///
    /// Propagates ledger validation errors (duplicate id, wrong grid).
    pub fn register_block(&self, block: Block) -> Result<(), ProblemError> {
        let _cycle = self.cycle_lock.lock().expect("cycle lock poisoned");
        self.ledger.register_block(block)
    }

    /// Submits a task for `tenant`: validates it against the ledger,
    /// then enqueues it subject to the queue bound and tenant quota.
    /// Callable from any thread.
    ///
    /// # Errors
    ///
    /// [`AdmissionError`] describing the rejection; the service state
    /// is unchanged except for the rejection counters.
    pub fn submit(&self, tenant: TenantId, task: Task) -> Result<(), AdmissionError> {
        // Validation runs before the books lock — it probes shard
        // locks (block existence) and scans the demand curve, so
        // serializing producers through it would defeat the striping.
        let validated = self.validate(&task);
        self.admit(tenant, task, validated, None, None)
    }

    /// The admission tail shared by [`BudgetService::submit`] and
    /// [`BudgetService::submit_async`]: the stateful gates — duplicate
    /// id, tenant quota, queue bound, in that order — and the counters
    /// for an already-validated task (and its ticket, if any), under
    /// one hold of the books lock.
    fn admit(
        &self,
        tenant: TenantId,
        task: Task,
        validated: Result<(), AdmissionError>,
        trace: Option<TraceContext>,
        ticket: Option<Arc<TicketCell>>,
    ) -> Result<(), AdmissionError> {
        // Enqueueing and counting under the one lock makes them atomic
        // with the task becoming visible to a cycle, which counts its
        // grants under this same lock holding no shard lock, so there
        // is no ordering cycle.
        let task_id = task.id;
        let books = &mut *self.books();
        let book = books.tenants.entry(tenant).or_default();
        let result = validated.and_then(|()| {
            let Entry::Vacant(slot) = books.live.entry(task_id) else {
                return Err(AdmissionError::DuplicateTask { task: task_id });
            };
            if self.recovered_granted.contains(&task_id) {
                return Err(AdmissionError::DuplicateTask { task: task_id });
            }
            let quota = self.config.tenant_quota;
            if book.live >= quota {
                return Err(AdmissionError::QuotaExceeded { tenant, quota });
            }
            let capacity = self.config.queue_capacity;
            if books.queue.len() >= capacity {
                return Err(AdmissionError::QueueFull { capacity });
            }
            // Open the grant-latency span: the stamp rides in the
            // submission itself (no side map), read only when
            // telemetry is live. A traced submission always stamps —
            // its root span starts here.
            let admitted_nanos = if self.telemetry.grant_latency.is_enabled() || trace.is_some() {
                self.obs.now_nanos()
            } else {
                0
            };
            books.queue.push_back(Submission {
                task,
                admitted_nanos,
                trace,
            });
            slot.insert((tenant, ticket));
            book.live += 1;
            Ok(())
        });
        let stats = &mut books.stats;
        stats.submitted += 1;
        book.stats.submitted += 1;
        match &result {
            Ok(()) => stats.admitted += 1,
            Err(AdmissionError::QueueFull { .. }) => stats.rejected_full += 1,
            Err(AdmissionError::QuotaExceeded { .. }) => stats.rejected_quota += 1,
            Err(_) => stats.rejected_invalid += 1,
        }
        if result.is_ok() {
            book.stats.admitted += 1;
            self.obs
                .recorder()
                .record(EventKind::TaskAdmitted, task_id, u64::from(tenant));
        }
        result
    }

    /// Everything the cycle loop assumes about a pending task is
    /// enforced here — a malformed submission must be a rejected
    /// submission, never a panic inside the scheduling loop. Core's
    /// [`Task::defect`] is the rule for the task itself; the grid and
    /// the blocks are the service's to check.
    fn validate(&self, task: &Task) -> Result<(), AdmissionError> {
        if task.demand.grid() != self.ledger.grid() {
            return Err(AdmissionError::GridMismatch { task: task.id });
        }
        if let Some(reason) = task.defect() {
            return Err(AdmissionError::InvalidTask {
                task: task.id,
                reason,
            });
        }
        for b in &task.blocks {
            if !self.ledger.contains(*b) {
                return Err(AdmissionError::UnknownBlock {
                    task: task.id,
                    block: *b,
                });
            }
        }
        Ok(())
    }

    /// Submits a task and returns a completion handle that resolves to
    /// the **final decision** — [`Decision::Granted`] when a scheduling
    /// cycle commits the grant, [`Decision::Evicted`] when the task
    /// times out — instead of the enqueue ack [`BudgetService::submit`]
    /// answers with. This is the submission surface remote frontends
    /// build on: an RPC handler parks the request on the ticket and
    /// replies with the outcome.
    ///
    /// The ticket is registered atomically with the enqueue: a cycle
    /// that grants the task is guaranteed to see (and resolve) it, with
    /// no window where a decision could race past an unregistered
    /// ticket.
    ///
    /// # Errors
    ///
    /// [`AdmissionError`] exactly as [`BudgetService::submit`]; a
    /// rejected submission never creates a ticket (the rejection *is*
    /// the final decision).
    pub fn submit_async(
        &self,
        tenant: TenantId,
        task: Task,
    ) -> Result<SubmissionTicket, AdmissionError> {
        self.submit_async_inner(tenant, task, None)
    }

    /// [`BudgetService::submit_async`] under a distributed-trace
    /// context: the grant's root span opens at admission and every
    /// layer it touches (cycle phases, WAL flush, replication) records
    /// child spans into the node's [`dpack_obs::SpanRing`].
    ///
    /// # Errors
    ///
    /// [`AdmissionError`] exactly as [`BudgetService::submit_async`].
    pub fn submit_async_traced(
        &self,
        tenant: TenantId,
        task: Task,
        trace: TraceContext,
    ) -> Result<SubmissionTicket, AdmissionError> {
        self.submit_async_inner(tenant, task, Some(trace))
    }

    fn submit_async_inner(
        &self,
        tenant: TenantId,
        task: Task,
        trace: Option<TraceContext>,
    ) -> Result<SubmissionTicket, AdmissionError> {
        let id = task.id;
        let validated = self.validate(&task);
        let cell = Arc::new(TicketCell::default());
        self.admit(tenant, task, validated, trace, Some(Arc::clone(&cell)))?;
        Ok(SubmissionTicket::new(id, cell))
    }

    fn books(&self) -> MutexGuard<'_, Books> {
        self.books.lock().expect("books lock poisoned")
    }

    /// Current admission-queue depth.
    pub fn queue_depth(&self) -> usize {
        self.books().queue.len()
    }

    /// Tasks ingested but not yet granted or evicted, as of the last
    /// cycle's end (during a cycle: as of its ingest phase).
    pub fn pending_count(&self) -> usize {
        self.pending.load(Ordering::Relaxed)
    }

    /// A clone of the full statistics record so far. This copies the
    /// per-event logs (see [`ServiceStats`] retention notes); poll
    /// [`BudgetService::stats_summary`] instead from hot loops.
    pub fn stats(&self) -> ServiceStats {
        let books = self.books();
        let mut stats = books.stats.clone();
        let tenants = books.tenants.iter();
        stats.tenants = tenants
            .map(|(id, book)| (*id, book.stats.clone()))
            .collect();
        stats
    }

    /// A fixed-size counter snapshot, computed under the books lock
    /// without cloning the per-event logs.
    pub fn stats_summary(&self) -> crate::stats::StatsSummary {
        self.books().stats.summary()
    }

    /// Runs one scheduling cycle at virtual time `now`. Concurrent
    /// calls are serialized, and so are block registrations (see
    /// [`BudgetService::register_block`]): the cycle sees one block set
    /// from start to end. Submissions stay concurrent throughout.
    pub fn run_cycle(&self, now: f64) -> CycleStats {
        let mut pending = self.cycle_lock.lock().expect("cycle lock poisoned");
        let pending = &mut *pending;
        // Five telemetry-clock reads bound the cycle's phases: t0
        // (start), after ingest/evict, after the scheduling pass, after
        // the commit, and at the end. Under a ManualClock with tick T
        // an empty cycle is exactly 4·T long with each phase exactly T
        // — the timing tests assert this.
        let t_start = self.obs.now_nanos();

        // Phase 1: ingest the admission queue, then evict timed-out
        // tasks in arrival order. A whole queue is swapped for the
        // empty arrivals buffer, so neither is reallocated next cycle.
        // The books count the cycles this lock has run to their end.
        let (cycle_index, queue_depth) = {
            let books = &mut *self.books();
            let queue = &mut books.queue;
            let max = self.config.ingest_batch;
            debug_assert!(pending.arrivals.is_empty(), "decide drains them");
            if max >= queue.len() {
                std::mem::swap(queue, &mut pending.arrivals);
            } else {
                pending.arrivals.extend(queue.drain(..max));
            }
            (books.stats.cycles_total + 1, queue.len())
        };
        let ingested = pending.arrivals.len();
        for s in &mut pending.arrivals {
            s.task.timeout = s.task.timeout.or(self.config.default_timeout);
        }
        let mut evicted: Vec<TaskId> = Vec::new();
        pending.evict_expired(now, &mut evicted);
        self.pending.store(pending.len(), Ordering::Relaxed);
        let t_ingest = self.obs.now_nanos();

        // Phase 2: one pass over every pending task.
        let (selected, algorithm) = if pending.len() > 0 {
            self.decide(pending, now)
        } else {
            (Vec::new(), Duration::ZERO)
        };
        let t_decide = self.obs.now_nanos();

        // Phase 3: the striped commit.
        let Committed {
            granted,
            local: local_granted,
            released,
        } = self.commit(pending, &selected, now);
        // Commit point of the cycle: every grant below was decided by
        // here, so this timestamp closes the grant-latency spans.
        let t_commit = self.obs.now_nanos();

        // Phase 4: bookkeeping.
        let pending_after = pending.len();
        self.pending.store(pending_after, Ordering::Relaxed);

        // Close the latency spans of the grants — the stamp travelled
        // with the task, so no per-task lookup is needed. Traced
        // grants' service-side spans are recorded once `t_end` is
        // known.
        if self.telemetry.grant_latency.is_enabled() {
            for g in &granted {
                self.telemetry
                    .grant_latency
                    .record(t_commit.saturating_sub(g.tag.admitted_nanos));
            }
        }
        // Granted and evicted tasks are no longer live: their tickets
        // resolve, their ids may be reused, their tenants' quota slots
        // free up, and they are counted — all in one hold of the books
        // lock, before compaction. Their flight-recorder events close
        // here too — the recorder lock and the tickets' parking locks
        // are leaves, so holding the books lock across them creates no
        // ordering cycle.
        {
            let mut books = self.books();
            for Grant { task, .. } in &granted {
                let allocated_at = task.allocated_at;
                let tenant = books.decide(task.id, Decision::Granted { allocated_at });
                tenant.stats.granted += 1;
                tenant.stats.granted_weight += task.weight;
                books.stats.record_granted(task.clone());
                self.obs
                    .recorder()
                    .record(EventKind::TaskGranted, task.id, now.to_bits());
            }
            for id in &evicted {
                books.decide(*id, Decision::Evicted);
                books.stats.record_evicted(*id);
                self.obs
                    .recorder()
                    .record(EventKind::TaskEvicted, *id, now.to_bits());
            }
            books.stats.released += released as u64;
        }

        // Durable bookkeeping: fold the logs into snapshots on the
        // configured cadence. Compaction also repairs logs broken by a
        // transient storage fault, so grants resume then; a still-
        // failing storage just counts a failed compaction and the
        // service keeps (safely) releasing.
        if let Some(every) = self.durability.and_then(|d| d.snapshot_every_cycles) {
            if cycle_index.is_multiple_of(every) {
                let _ = self.compact();
            }
        }

        // Close the cycle's spans. The counters and gauges need no
        // write: the registry reads them from the books at scrape time.
        let t_end = self.obs.now_nanos();
        self.telemetry
            .phase_ingest
            .record(t_ingest.saturating_sub(t_start));
        self.telemetry
            .phase_decide
            .record(t_decide.saturating_sub(t_ingest));
        self.telemetry
            .phase_commit
            .record(t_commit.saturating_sub(t_decide));
        self.telemetry
            .phase_finalize
            .record(t_end.saturating_sub(t_commit));
        self.telemetry
            .cycle_nanos
            .record(t_end.saturating_sub(t_start));

        // Close the service-side spans of every traced grant: the root
        // (admission → decision durable), the queue wait, and the
        // cycle with its four phases. All child ids derive from the
        // trace id alone ([`span_id`]), so the WAL and replication
        // spans recorded during the commit — and the replica-side
        // spans recorded on other nodes — parent onto these without
        // any id exchange.
        let traced = granted
            .iter()
            .filter_map(|g| Some((g.tag.trace?, g.tag.admitted_nanos)));
        for (ctx, admitted) in traced {
            let spans = &self.obs.spans();
            let cycle_span = span_id(ctx.trace, SpanKind::Cycle, 0);
            spans.record(ctx.trace, ctx.span, 0, SpanKind::Grant, admitted, t_end, 0);
            spans.record(
                ctx.trace,
                span_id(ctx.trace, SpanKind::QueueWait, 0),
                ctx.span,
                SpanKind::QueueWait,
                admitted,
                t_start,
                0,
            );
            spans.record(
                ctx.trace,
                cycle_span,
                ctx.span,
                SpanKind::Cycle,
                t_start,
                t_end,
                0,
            );
            for (kind, lo, hi) in [
                (SpanKind::PhaseIngest, t_start, t_ingest),
                (SpanKind::PhaseDecide, t_ingest, t_decide),
                (SpanKind::PhaseCommit, t_decide, t_commit),
                (SpanKind::PhaseFinalize, t_commit, t_end),
            ] {
                spans.record(
                    ctx.trace,
                    span_id(ctx.trace, kind, 0),
                    cycle_span,
                    kind,
                    lo,
                    hi,
                    0,
                );
            }
        }

        let cycle = CycleStats {
            now,
            ingested,
            evicted: evicted.len(),
            local_granted,
            cross_granted: granted.len() - local_granted,
            released,
            queue_depth,
            pending_after,
            algorithm,
            total: Duration::from_nanos(t_end.saturating_sub(t_start)),
        };
        let stats = &mut self.books().stats;
        stats.scheduler_runtime += algorithm;
        stats.record_cycle(cycle.clone());
        cycle
    }

    /// The decide phase: have the ledger write the available
    /// capacities at `now` straight into the pending state's rows, let
    /// this cycle's arrivals in, and run the configured scheduler once
    /// over all of it. Returns the selected tasks' positions in the
    /// state, in allocation order, and the scheduler's runtime.
    ///
    /// The rows cover exactly the blocks the pending tasks and the
    /// arrivals request, so their cost follows the demand, not the
    /// registry. Those blocks read the same bits the whole ledger
    /// would give, and no scheduler looks at a block no task requests,
    /// so the decisions are the whole ledger's.
    fn decide(&self, pending: &mut Pending, now: f64) -> (Vec<usize>, Duration) {
        let ids = pending.requested_blocks();
        let fill = |ids: &[BlockId], rows: &mut [f64]| self.ledger.fill_available(now, ids, rows);
        pending
            .state
            .set_capacity(ids, fill)
            .expect("blocks are never unregistered");
        for s in pending.arrivals.drain(..) {
            pending.tags.push(Tag {
                admitted_nanos: s.admitted_nanos,
                trace: s.trace,
            });
            pending
                .state
                .push_task(s.task)
                .expect("admission validated every pending task");
        }
        let state = &pending.state;
        let allocation = self.config.scheduler.schedule(state, self.config.workers);
        let selected = allocation
            .scheduled
            .iter()
            .map(|id| {
                state
                    .index_of(*id)
                    .expect("scheduler only returns state tasks")
            })
            .collect();
        (selected, allocation.runtime)
    }

    /// The commit phase: the pass's selection, split by shard set. The
    /// tasks whose blocks all live on one shard commit as **one batch
    /// per shard** under one hold of the involved shard locks — a
    /// cycle's shard-local grants cost one write-ahead sync for all the
    /// shards, and ship to the replicas in one round (see
    /// [`ShardedLedger::commit_local`]; an in-memory ledger commits
    /// them in a plain loop). Then the tasks spanning shards commit as
    /// one two-phase batch: one group commit of their intents, one of
    /// their decisions. Every selected task fits
    /// the snapshot together with all the others, so the order between
    /// the two groups decides nothing; within a group, tasks keep their
    /// allocation order. What commits leaves the pending set;
    /// everything else waits in place.
    fn commit(&self, pending: &mut Pending, selected: &[usize], now: f64) -> Committed {
        let ledger = &self.ledger;
        let (tasks, tags) = (pending.state.tasks(), &pending.tags);
        // Per shard and for the spanning group: the tasks, each with
        // its trace context, and their positions in `selected`.
        let mut local: Vec<(Vec<Traced<'_>>, Vec<usize>)> =
            vec![Default::default(); ledger.n_shards()];
        let mut spanning: (Vec<Traced<'_>>, Vec<usize>) = Default::default();
        for (at, &i) in selected.iter().enumerate() {
            let group = match ledger.home_shard(&tasks[i]) {
                Some(home) => &mut local[home],
                None => &mut spanning,
            };
            group.0.push((&tasks[i], tags[i].trace));
            group.1.push(at);
        }
        let batches: Vec<(usize, &[Traced<'_>])> = local
            .iter()
            .enumerate()
            .filter(|(_, (batch, _))| !batch.is_empty())
            .map(|(shard, (batch, _))| (shard, batch.as_slice()))
            .collect();
        let mut outcomes = vec![CommitOutcome::Released; selected.len()];
        let committed = ledger.commit_local(&batches);
        let positions = batches.iter().map(|(shard, _)| &local[*shard].1);
        for (at, outcome) in positions.flatten().zip(committed.into_iter().flatten()) {
            outcomes[*at] = outcome;
        }
        let n_local = outcomes
            .iter()
            .filter(|o| **o == CommitOutcome::Committed)
            .count();
        for (at, outcome) in spanning.1.iter().zip(ledger.commit_spanning(&spanning.0)) {
            outcomes[*at] = outcome;
        }

        let mut keep = vec![true; tasks.len()];
        let mut granted = Vec::new();
        for (&i, outcome) in selected.iter().zip(&outcomes) {
            if *outcome == CommitOutcome::Committed {
                keep[i] = false;
                granted.push(Grant {
                    tag: tags[i],
                    task: AllocatedTask {
                        id: tasks[i].id,
                        weight: tasks[i].weight,
                        arrival: tasks[i].arrival,
                        allocated_at: now,
                    },
                });
            }
        }
        let released = selected.len() - granted.len();
        pending.retain(&keep);
        Committed {
            granted,
            local: n_local,
            released,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SchedulerChoice;
    use crate::replication::{ReplShipError, ReplStream, ReplicationSink, ShipBatch};
    use crate::ServiceHandle;
    use dp_accounting::RdpCurve;
    use dpack_check::{bools, check_cases, ints, prop_assert, prop_assert_eq, vecs, weighted};
    use dpack_core::online::{OnlineConfig, OnlineEngine};
    use dpack_core::schedulers::DPack;

    fn grid() -> AlphaGrid {
        AlphaGrid::new(vec![4.0, 16.0]).unwrap()
    }

    fn immediate_unlock(shards: usize, workers: usize) -> ServiceConfig {
        ServiceConfig {
            shards,
            workers,
            unlock_steps: 1,
            ..ServiceConfig::default()
        }
    }

    fn simple_task(id: TaskId, blocks: Vec<u64>, eps: f64) -> Task {
        Task::new(id, 1.0, blocks, RdpCurve::constant(&grid(), eps), 0.0)
    }

    #[test]
    fn single_shard_cycle_matches_online_engine() {
        // The same arrivals through the S=1 W=1 service and the engine
        // must grant the same tasks at the same steps.
        let service = BudgetService::new(
            grid(),
            ServiceConfig {
                unlock_steps: 4,
                scheduler: SchedulerChoice::DPack,
                ..ServiceConfig::sequential()
            },
        );
        let mut engine = OnlineEngine::new(
            DPack::default(),
            grid(),
            OnlineConfig {
                scheduling_period: 1.0,
                unlock_period: 1.0,
                unlock_steps: 4,
                default_timeout: None,
            },
        );
        for j in 0..3u64 {
            let b = Block::new(j, RdpCurve::constant(&grid(), 1.0), 0.0);
            service.register_block(b.clone()).unwrap();
            engine.add_block(b).unwrap();
        }
        for i in 0..12u64 {
            let t = simple_task(i, vec![i % 3], 0.3);
            service.submit(0, t.clone()).unwrap();
            engine.submit_task(t).unwrap();
        }
        for step in 1..=6 {
            let now = step as f64;
            service.run_cycle(now);
            engine.run_step(now).unwrap();
        }
        let svc = service.stats();
        let eng = engine.stats();
        assert_eq!(svc.to_online().allocated, eng.allocated);
        assert!(!svc.granted.is_empty());
    }

    #[test]
    fn cross_shard_tasks_commit_atomically_or_stay_pending() {
        let service = BudgetService::new(grid(), immediate_unlock(4, 2));
        for j in 0..4u64 {
            service
                .register_block(Block::new(j, RdpCurve::constant(&grid(), 1.0), 0.0))
                .unwrap();
        }
        // Shard-local tasks drain block 1 fully...
        service.submit(0, simple_task(0, vec![1], 1.0)).unwrap();
        // ...so this cross-shard task (blocks 0 and 1) cannot commit.
        service.submit(1, simple_task(1, vec![0, 1], 0.5)).unwrap();
        // While this one (blocks 2 and 3) can.
        service.submit(1, simple_task(2, vec![2, 3], 0.5)).unwrap();
        let cycle = service.run_cycle(1.0);
        assert_eq!(cycle.local_granted, 1);
        assert_eq!(cycle.cross_granted, 1);
        assert_eq!(service.pending_count(), 1, "task 1 stays pending");
        assert!(service.ledger().unsound_blocks().is_empty());
        // Block 0 was not touched by the released task.
        let snap = service.ledger().snapshot_all(1.0);
        assert_eq!(snap[&0].epsilon(0), 1.0);
    }

    #[test]
    fn a_cycle_reads_only_the_blocks_its_tasks_request() {
        let service = BudgetService::new(grid(), immediate_unlock(4, 1));
        for j in 0..1_000u64 {
            service
                .register_block(Block::new(j, RdpCurve::constant(&grid(), 1.0), 0.0))
                .unwrap();
        }
        let pending_blocks = || {
            let pending = service.cycle_lock.lock().unwrap();
            pending.state.blocks().keys().copied().collect::<Vec<_>>()
        };
        // More than a block holds: both wait, on three blocks.
        service.submit(0, simple_task(0, vec![7], 2.0)).unwrap();
        service
            .submit(0, simple_task(1, vec![500, 999], 2.0))
            .unwrap();
        service.run_cycle(1.0);
        assert_eq!(pending_blocks(), [7, 500, 999]);
        // An arrival's block joins the view of the cycle that grants
        // it, and leaves the next one.
        service.submit(0, simple_task(2, vec![42], 0.5)).unwrap();
        assert_eq!(service.run_cycle(2.0).local_granted, 1);
        assert_eq!(pending_blocks(), [7, 42, 500, 999]);
        service.run_cycle(3.0);
        assert_eq!(pending_blocks(), [7, 500, 999]);
        assert_eq!(service.pending_count(), 2);
    }

    /// A sink that accepts everything and keeps, per ship round, the
    /// streams it carried.
    #[derive(Debug, Default)]
    struct RoundCounter(Mutex<Vec<Vec<ReplStream>>>);

    impl ReplicationSink for RoundCounter {
        fn ship(&self, stream: ReplStream, _: &[&[u8]]) -> Result<(), ReplShipError> {
            self.0.lock().unwrap().push(vec![stream]);
            Ok(())
        }

        fn ship_all(&self, batches: &[ShipBatch<'_>]) -> Vec<Result<(), ReplShipError>> {
            let streams = batches.iter().map(|b| b.stream).collect();
            self.0.lock().unwrap().push(streams);
            batches.iter().map(|_| Ok(())).collect()
        }
    }

    #[test]
    fn a_cycle_ships_in_at_most_three_rounds_whatever_the_shard_count() {
        let sink = Arc::new(RoundCounter::default());
        let mut service = BudgetService::recover(
            grid(),
            immediate_unlock(4, 2),
            &dpack_wal::SimStorage::new(),
            DurabilityOptions::default(),
        )
        .unwrap();
        service.replicate_to(Arc::clone(&sink) as Arc<dyn ReplicationSink>);
        for j in 0..8u64 {
            service
                .register_block(Block::new(j, RdpCurve::constant(&grid(), 1.0), 0.0))
                .unwrap();
        }
        let rounds = || std::mem::take(&mut *sink.0.lock().unwrap());
        assert_eq!(rounds().len(), 8, "one round per registration");

        // Shard-local grants on all four shards: one round, one batch
        // per shard, in shard order.
        for i in 0..8u64 {
            service.submit(0, simple_task(i, vec![i], 0.2)).unwrap();
        }
        assert_eq!(service.run_cycle(1.0).local_granted, 8);
        let shard = ReplStream::Shard;
        assert_eq!(rounds(), [[shard(0), shard(1), shard(2), shard(3)]]);

        // Local and spanning grants: the locals' round, the intents'
        // round (tasks 10 and 11 span shards 0–1 and 2–3), and the
        // decisions' round.
        for i in 0..3u64 {
            service
                .submit(0, simple_task(20 + i, vec![i], 0.2))
                .unwrap();
        }
        service.submit(0, simple_task(10, vec![0, 1], 0.2)).unwrap();
        service.submit(0, simple_task(11, vec![2, 3], 0.2)).unwrap();
        let cycle = service.run_cycle(2.0);
        assert_eq!((cycle.local_granted, cycle.cross_granted), (3, 2));
        assert_eq!(
            rounds(),
            [
                vec![shard(0), shard(1), shard(2)],
                vec![shard(0), shard(1), shard(2), shard(3)],
                vec![ReplStream::Coordinator],
            ]
        );
        assert_eq!(service.ledger().durability_stats().unwrap().failed_ships, 0);
    }

    #[test]
    fn timeouts_evict_pending_tasks() {
        let service = BudgetService::new(
            grid(),
            ServiceConfig {
                default_timeout: Some(2.0),
                ..immediate_unlock(2, 1)
            },
        );
        service
            .register_block(Block::new(0, RdpCurve::constant(&grid(), 1.0), 0.0))
            .unwrap();
        // Infeasible task: demand exceeds capacity at every order.
        service.submit(3, simple_task(0, vec![0], 5.0)).unwrap();
        service.run_cycle(1.0);
        service.run_cycle(2.0);
        assert_eq!(service.pending_count(), 1);
        let c = service.run_cycle(3.0);
        assert_eq!(c.evicted, 1);
        assert_eq!(service.pending_count(), 0);
        assert_eq!(service.stats().evicted, vec![0]);
    }

    /// A service on `config` over [`immediate_unlock`]`(1, 1)`.
    fn degenerate(config: impl FnOnce(&mut ServiceConfig)) -> BudgetService {
        let mut c = immediate_unlock(1, 1);
        config(&mut c);
        BudgetService::new(grid(), c)
    }

    #[test]
    #[should_panic(expected = "default timeout must be finite and >= 0")]
    fn a_nan_default_timeout_is_refused() {
        degenerate(|c| c.default_timeout = Some(f64::NAN));
    }

    #[test]
    #[should_panic(expected = "default timeout must be finite and >= 0")]
    fn an_infinite_default_timeout_is_refused() {
        degenerate(|c| c.default_timeout = Some(f64::INFINITY));
    }

    #[test]
    #[should_panic(expected = "default timeout must be finite and >= 0")]
    fn a_negative_default_timeout_is_refused() {
        degenerate(|c| c.default_timeout = Some(-1.0));
    }

    #[test]
    #[should_panic(expected = "ingest batch must be >= 1")]
    fn a_zero_ingest_batch_is_refused() {
        degenerate(|c| c.ingest_batch = 0);
    }

    #[test]
    #[should_panic(expected = "queue capacity must be >= 1")]
    fn a_zero_queue_capacity_is_refused() {
        degenerate(|c| c.queue_capacity = 0);
    }

    #[test]
    fn invalid_submissions_are_counted_and_rejected() {
        let service = BudgetService::new(grid(), immediate_unlock(2, 1));
        service
            .register_block(Block::new(0, RdpCurve::constant(&grid(), 1.0), 0.0))
            .unwrap();
        // Unknown block.
        assert!(matches!(
            service.submit(0, simple_task(0, vec![9], 0.1)),
            Err(AdmissionError::UnknownBlock { block: 9, .. })
        ));
        // Wrong grid.
        let other = AlphaGrid::single(2.0).unwrap();
        let t = Task::new(1, 1.0, vec![0], RdpCurve::constant(&other, 0.1), 0.0);
        assert!(matches!(
            service.submit(0, t),
            Err(AdmissionError::GridMismatch { task: 1 })
        ));
        let stats = service.stats();
        assert_eq!(stats.rejected_invalid, 2);
        assert_eq!(stats.admitted, 0);
    }

    #[test]
    fn malformed_tasks_are_rejected_at_admission_not_in_the_loop() {
        let service = BudgetService::new(grid(), immediate_unlock(2, 1));
        service
            .register_block(Block::new(0, RdpCurve::constant(&grid(), 1.0), 0.0))
            .unwrap();
        // No blocks.
        let t = Task::new(0, 1.0, vec![], RdpCurve::constant(&grid(), 0.1), 0.0);
        assert!(matches!(
            service.submit(0, t),
            Err(AdmissionError::InvalidTask { .. })
        ));
        // Non-positive and non-finite weights.
        for weight in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let t = Task::new(1, weight, vec![0], RdpCurve::constant(&grid(), 0.1), 0.0);
            assert!(
                matches!(
                    service.submit(0, t),
                    Err(AdmissionError::InvalidTask { .. })
                ),
                "weight {weight} admitted"
            );
        }
        // Negative demand.
        let t = Task::new(2, 1.0, vec![0], RdpCurve::constant(&grid(), -0.1), 0.0);
        assert!(matches!(
            service.submit(0, t),
            Err(AdmissionError::InvalidTask { .. })
        ));
        assert_eq!(service.stats().rejected_invalid, 6);
        // The loop stays healthy after the rejections.
        service.submit(0, simple_task(3, vec![0], 0.1)).unwrap();
        assert_eq!(service.run_cycle(1.0).granted(), 1);
    }

    #[test]
    fn non_finite_arrival_or_timeout_is_rejected_at_admission() {
        // `now − arrival > dt` is unsatisfiable for NaN/∞ inputs, so
        // such a task could never be evicted — admission must refuse
        // it (these fields arrive bit-verbatim from remote tenants).
        let service = BudgetService::new(grid(), immediate_unlock(2, 1));
        service
            .register_block(Block::new(0, RdpCurve::constant(&grid(), 1.0), 0.0))
            .unwrap();
        for arrival in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let t = Task::new(0, 1.0, vec![0], RdpCurve::constant(&grid(), 0.1), arrival);
            assert!(
                matches!(
                    service.submit(0, t),
                    Err(AdmissionError::InvalidTask { .. })
                ),
                "arrival {arrival} admitted"
            );
        }
        for timeout in [f64::NAN, f64::INFINITY, -1.0] {
            let t = Task::new(1, 1.0, vec![0], RdpCurve::constant(&grid(), 0.1), 0.0)
                .with_timeout(timeout);
            assert!(
                matches!(
                    service.submit(0, t),
                    Err(AdmissionError::InvalidTask { .. })
                ),
                "timeout {timeout} admitted"
            );
        }
        // Finite timeouts (zero included) stay legal: at now=1.0 the
        // zero-timeout task (1.0 − 0.0 > 0.0) evicts on ingest while
        // the roomier one is granted.
        let t = Task::new(2, 1.0, vec![0], RdpCurve::constant(&grid(), 0.1), 0.0).with_timeout(0.0);
        service.submit(0, t).unwrap();
        let t = Task::new(3, 1.0, vec![0], RdpCurve::constant(&grid(), 0.1), 0.0).with_timeout(2.0);
        service.submit(0, t).unwrap();
        let cycle = service.run_cycle(1.0);
        assert_eq!((cycle.granted(), cycle.evicted), (1, 1));
    }

    /// The live table as `(task ids, live tasks per tenant)`, both
    /// sorted, tenants with no live task left out.
    fn live_entries(service: &BudgetService) -> (Vec<TaskId>, Vec<(TenantId, usize)>) {
        let books = service.books();
        let mut ids: Vec<_> = books.live.keys().copied().collect();
        ids.sort_unstable();
        let counts = books.tenants.iter().filter(|(_, b)| b.live > 0);
        let mut counts: Vec<_> = counts.map(|(t, b)| (*t, b.live)).collect();
        counts.sort_unstable();
        (ids, counts)
    }

    /// A task as the admission model sees it.
    #[derive(Debug, Clone, Copy)]
    struct ModelTask {
        tenant: TenantId,
        id: TaskId,
        /// Fits every block together with any other feasible task;
        /// the others fit nowhere.
        feasible: bool,
        arrival: f64,
        timeout: Option<f64>,
        /// Its ticket's index in the run's ticket list.
        ticket: Option<usize>,
    }

    /// The plain reference admission and ingest follow: a FIFO with a
    /// bound, a live-id table, a per-tenant live cap, and a cycle that
    /// drains a batch, evicts what expired and grants every feasible
    /// task left.
    #[derive(Debug, Default)]
    struct AdmissionModel {
        now: f64,
        queue: std::collections::VecDeque<ModelTask>,
        pending: Vec<ModelTask>,
        live: std::collections::BTreeMap<TaskId, TenantId>,
        /// submitted, admitted, rejected full, quota, invalid.
        counters: [u64; 5],
        tenants: std::collections::BTreeMap<TenantId, crate::stats::TenantStats>,
        /// Each ticket's expected decision so far.
        decisions: Vec<Option<Decision>>,
    }

    const MODEL_QUEUE: usize = 3;
    const MODEL_QUOTA: usize = 2;
    const MODEL_INGEST: usize = 2;
    const MODEL_TIMEOUT: f64 = 3.0;

    impl AdmissionModel {
        fn live_entries(&self) -> (Vec<TaskId>, Vec<(TenantId, usize)>) {
            let mut counts = std::collections::BTreeMap::new();
            for tenant in self.live.values() {
                *counts.entry(*tenant).or_insert(0) += 1;
            }
            (
                self.live.keys().copied().collect(),
                counts.into_iter().collect(),
            )
        }

        fn submit(
            &mut self,
            task: ModelTask,
            invalid: Option<AdmissionError>,
        ) -> Result<(), AdmissionError> {
            let tenant_live = self.live.values().filter(|t| **t == task.tenant).count();
            let result = if let Some(e) = invalid {
                Err(e)
            } else if self.live.contains_key(&task.id) {
                Err(AdmissionError::DuplicateTask { task: task.id })
            } else if tenant_live >= MODEL_QUOTA {
                Err(AdmissionError::QuotaExceeded {
                    tenant: task.tenant,
                    quota: MODEL_QUOTA,
                })
            } else if self.queue.len() >= MODEL_QUEUE {
                Err(AdmissionError::QueueFull {
                    capacity: MODEL_QUEUE,
                })
            } else {
                self.live.insert(task.id, task.tenant);
                self.queue.push_back(task);
                Ok(())
            };
            let counter = match &result {
                Ok(()) => 1,
                Err(AdmissionError::QueueFull { .. }) => 2,
                Err(AdmissionError::QuotaExceeded { .. }) => 3,
                Err(_) => 4,
            };
            self.counters[0] += 1;
            self.counters[counter] += 1;
            let t = self.tenants.entry(task.tenant).or_default();
            t.submitted += 1;
            t.admitted += u64::from(result.is_ok());
            result
        }

        /// One cycle at `now + 1`: `(ingested, evicted ids in order,
        /// granted ids sorted)`.
        fn cycle(&mut self) -> (usize, Vec<TaskId>, Vec<TaskId>) {
            self.now += 1.0;
            let now = self.now;
            let ingested = self.queue.len().min(MODEL_INGEST);
            self.pending
                .extend(self.queue.drain(..ingested).map(|mut t| {
                    t.timeout = t.timeout.or(Some(MODEL_TIMEOUT));
                    t
                }));
            let (mut evicted, mut granted) = (Vec::new(), Vec::new());
            let mut left = Vec::new();
            for t in std::mem::take(&mut self.pending) {
                let decision = if t.timeout.is_some_and(|dt| now - t.arrival > dt) {
                    evicted.push(t.id);
                    Decision::Evicted
                } else if t.feasible {
                    granted.push(t.id);
                    let stats = self.tenants.get_mut(&t.tenant).unwrap();
                    stats.granted += 1;
                    stats.granted_weight += 1.0;
                    Decision::Granted { allocated_at: now }
                } else {
                    left.push(t);
                    continue;
                };
                self.live.remove(&t.id);
                if let Some(at) = t.ticket {
                    self.decisions[at] = Some(decision);
                }
            }
            self.pending = left;
            granted.sort_unstable();
            (ingested, evicted, granted)
        }
    }

    /// Admission and ingest against [`AdmissionModel`]: drawn runs of
    /// `submit`/`submit_async` over a few tenants and repeated ids —
    /// feasible tasks, doomed ones that time out, malformed ones —
    /// against a three-slot queue and a two-task tenant quota, and
    /// cycles that ingest two submissions each. Every answer is the
    /// model's exact `Result`, and after every step the queue depth,
    /// the sorted live table, the per-tenant live counts, the
    /// admission counters, the tenant counters and every ticket agree
    /// with it; every cycle ingests, evicts (in arrival order) and
    /// grants what the model's FIFO does.
    #[test]
    fn admission_follows_a_plain_model() {
        // (kind, tenant, id, async): kinds 0–2 run a cycle, 3–6 submit
        // a feasible task, 7 and 8 a doomed one (with its own timeout
        // or the default), 9 a malformed one.
        let op = (ints(0u8..10), ints(0u32..3), ints(0u64..6), bools());
        check_cases(
            "admission_follows_a_plain_model",
            64,
            vecs(op, 1..48),
            |ops| {
                let service = BudgetService::new(
                    grid(),
                    ServiceConfig {
                        queue_capacity: MODEL_QUEUE,
                        tenant_quota: MODEL_QUOTA,
                        ingest_batch: MODEL_INGEST,
                        default_timeout: Some(MODEL_TIMEOUT),
                        ..immediate_unlock(2, 1)
                    },
                );
                for j in 0..2u64 {
                    let b = Block::new(j, RdpCurve::constant(&grid(), 1_000.0), 0.0);
                    service.register_block(b).unwrap();
                }
                let mut model = AdmissionModel::default();
                let mut tickets = Vec::new();
                for &(kind, tenant, id, is_async) in ops {
                    if kind < 3 {
                        let (ingested, evicted, granted) = model.cycle();
                        let before = service.stats();
                        let cycle = service.run_cycle(model.now);
                        let after = service.stats();
                        prop_assert_eq!(cycle.ingested, ingested);
                        prop_assert_eq!(cycle.queue_depth, model.queue.len());
                        prop_assert_eq!(service.pending_count(), model.pending.len());
                        let fresh = after.evicted.iter().skip(before.evicted.len());
                        prop_assert_eq!(fresh.copied().collect::<Vec<_>>(), evicted);
                        let fresh = after.granted.iter().skip(before.granted.len());
                        let mut ids: Vec<_> = fresh.map(|a| a.id).collect();
                        ids.sort_unstable();
                        prop_assert_eq!(ids, granted);
                    } else {
                        let feasible = kind < 7;
                        let blocks = if id % 3 == 0 {
                            vec![0, 1]
                        } else {
                            vec![id % 2]
                        };
                        let eps = if feasible { 0.01 } else { 1e6 };
                        let mut task =
                            Task::new(id, 1.0, blocks, RdpCurve::constant(&grid(), eps), model.now);
                        task.timeout = (kind == 7).then_some(1.5);
                        let invalid = (kind == 9).then(|| {
                            if id % 2 == 0 {
                                task.blocks = vec![9];
                                AdmissionError::UnknownBlock { task: id, block: 9 }
                            } else {
                                task.weight = f64::NAN;
                                AdmissionError::InvalidTask {
                                    task: id,
                                    reason: "weight must be finite and > 0",
                                }
                            }
                        });
                        let entry = ModelTask {
                            tenant,
                            id,
                            feasible,
                            arrival: model.now,
                            timeout: task.timeout,
                            ticket: is_async.then_some(tickets.len()),
                        };
                        let expected = model.submit(entry, invalid);
                        let got = if is_async {
                            service.submit_async(tenant, task).map(|ticket| {
                                tickets.push(ticket);
                                model.decisions.push(None);
                            })
                        } else {
                            service.submit(tenant, task)
                        };
                        prop_assert_eq!(got, expected);
                    }
                    prop_assert_eq!(service.queue_depth(), model.queue.len());
                    prop_assert_eq!(live_entries(&service), model.live_entries());
                    let stats = service.stats();
                    let counters = [
                        stats.submitted,
                        stats.admitted,
                        stats.rejected_full,
                        stats.rejected_quota,
                        stats.rejected_invalid,
                    ];
                    prop_assert_eq!(counters, model.counters);
                    prop_assert_eq!(&stats.tenants, &model.tenants);
                    let decisions: Vec<_> = tickets.iter().map(|t| t.try_decision()).collect();
                    prop_assert_eq!(decisions, model.decisions);
                }
                Ok(())
            },
        );
    }

    /// Hostile numbers — NaN, ±inf, negatives — drawn into any mix of
    /// a task's demand, weight, arrival and timeout, as a remote tenant
    /// can send them bit for bit. `submit_async` answers each with a
    /// typed `InvalidTask` and no ticket, and the live table, the queue
    /// and the tenant's quota are as they were: the task's id and the
    /// tenant's last free slot then take one valid task, and no more.
    #[test]
    fn hostile_numbers_are_rejected_typed_at_admission() {
        let hostile = weighted(vec![
            (1, f64::NAN),
            (1, f64::INFINITY),
            (1, f64::NEG_INFINITY),
            (1, -1.0),
            (1, -f64::from_bits(1)),
        ]);
        // (field, value, order): demand at `order`, weight, arrival,
        // timeout.
        let poison = (ints(0u8..4), hostile, ints(0usize..2));
        check_cases(
            "hostile_numbers_are_rejected_typed_at_admission",
            64,
            vecs(poison, 1..4),
            |poisons| {
                let service = BudgetService::new(
                    grid(),
                    ServiceConfig {
                        tenant_quota: 2,
                        ..immediate_unlock(2, 1)
                    },
                );
                service
                    .register_block(Block::new(0, RdpCurve::constant(&grid(), 1.0), 0.0))
                    .unwrap();
                service
                    .submit_async(3, simple_task(1, vec![0], 0.1))
                    .unwrap();
                let (live, depth) = (live_entries(&service), service.queue_depth());

                let mut task = simple_task(2, vec![0], 0.1).with_timeout(5.0);
                let mut demand = task.demand.values().to_vec();
                for &(field, value, order) in poisons {
                    match field {
                        0 => demand[order] = value,
                        1 => task.weight = value,
                        // A negative arrival is legal: NaN stands in.
                        2 if value.is_finite() => task.arrival = f64::NAN,
                        2 => task.arrival = value,
                        _ => task.timeout = Some(value),
                    }
                }
                let mut demand = demand.into_iter();
                task.demand = RdpCurve::from_fn(&grid(), |_| demand.next().unwrap());
                let rejected = service.submit_async(3, task);
                prop_assert!(
                    matches!(rejected, Err(AdmissionError::InvalidTask { task: 2, .. })),
                    "{poisons:?} got {:?}",
                    rejected.map(|ticket| ticket.task_id())
                );
                prop_assert_eq!(live_entries(&service), live);
                prop_assert_eq!(service.queue_depth(), depth);
                prop_assert_eq!(service.stats().rejected_invalid, 1);

                service
                    .submit_async(3, simple_task(2, vec![0], 0.1))
                    .unwrap();
                prop_assert!(matches!(
                    service.submit_async(3, simple_task(4, vec![0], 0.1)),
                    Err(AdmissionError::QuotaExceeded {
                        tenant: 3,
                        quota: 2
                    })
                ));
                Ok(())
            },
        );
    }

    #[test]
    fn duplicate_task_ids_are_rejected_until_resolved() {
        let service = BudgetService::new(
            grid(),
            ServiceConfig {
                default_timeout: Some(1.0),
                ..immediate_unlock(2, 1)
            },
        );
        service
            .register_block(Block::new(0, RdpCurve::constant(&grid(), 1.0), 0.0))
            .unwrap();
        service.submit(0, simple_task(7, vec![0], 0.2)).unwrap();
        // Same id from another tenant: rejected while queued...
        assert!(matches!(
            service.submit(1, simple_task(7, vec![0], 0.2)),
            Err(AdmissionError::DuplicateTask { task: 7 })
        ));
        service.run_cycle(1.0); // Task 7 is granted here.
                                // ...and accepted again once the id is no longer live.
        service.submit(1, simple_task(7, vec![0], 0.2)).unwrap();
        // An id held by an infeasible pending task stays blocked until
        // eviction releases it.
        let infeasible = Task::new(8, 1.0, vec![0], RdpCurve::constant(&grid(), 9.0), 2.0);
        service.submit(0, infeasible).unwrap();
        service.run_cycle(2.5); // Pending (0.5 elapsed < timeout 1.0).
        assert!(matches!(
            service.submit(1, simple_task(8, vec![0], 0.1)),
            Err(AdmissionError::DuplicateTask { task: 8 })
        ));
        service.run_cycle(4.0); // 2.0 elapsed > 1.0: task 8 is evicted.
        assert!(service.stats().evicted.contains(&8));
        service.submit(1, simple_task(8, vec![0], 0.1)).unwrap();
    }

    #[test]
    fn tenant_quota_caps_live_tasks_not_just_queued() {
        let service = BudgetService::new(
            grid(),
            ServiceConfig {
                tenant_quota: 2,
                default_timeout: Some(1.0),
                ..immediate_unlock(2, 1)
            },
        );
        service
            .register_block(Block::new(0, RdpCurve::constant(&grid(), 1.0), 0.0))
            .unwrap();
        // Two infeasible tasks occupy the quota...
        for i in 0..2u64 {
            let t = Task::new(i, 1.0, vec![0], RdpCurve::constant(&grid(), 9.0), 1.0);
            service.submit(3, t).unwrap();
        }
        assert!(matches!(
            service.submit(3, simple_task(2, vec![0], 0.1)),
            Err(AdmissionError::QuotaExceeded {
                tenant: 3,
                quota: 2
            })
        ));
        // ...and draining them into pending does NOT free it: they are
        // still live, so the noisy tenant stays capped.
        service.run_cycle(1.5);
        assert_eq!(service.pending_count(), 2);
        assert!(matches!(
            service.submit(3, simple_task(2, vec![0], 0.1)),
            Err(AdmissionError::QuotaExceeded {
                tenant: 3,
                quota: 2
            })
        ));
        // Other tenants are unaffected.
        service.submit(4, simple_task(10, vec![0], 0.1)).unwrap();
        // Eviction (timeout 1.0, arrival 1.0) releases the quota.
        service.run_cycle(3.0);
        assert_eq!(service.pending_count(), 0);
        service.submit(3, simple_task(2, vec![0], 0.1)).unwrap();
    }

    #[test]
    fn resubmitted_ids_get_fresh_tickets_and_free_one_quota_slot() {
        let storage = dpack_wal::SimStorage::new();
        let opts = DurabilityOptions {
            snapshot_every_cycles: None,
            ..DurabilityOptions::default()
        };
        let config = ServiceConfig {
            tenant_quota: 2,
            default_timeout: Some(1.0),
            ..immediate_unlock(2, 1)
        };
        let service = BudgetService::recover(grid(), config, &storage, opts).unwrap();
        service
            .register_block(Block::new(0, RdpCurve::constant(&grid(), 1.0), 0.0))
            .unwrap();
        let live = |s: &BudgetService| {
            let books = s.books();
            (books.live.len(), books.tenants.get(&3).map(|b| b.live))
        };
        // Demand 9.0 never fits the block; 0.2 always does.
        let task = |id, eps, arrival| {
            Task::new(id, 1.0, vec![0], RdpCurve::constant(&grid(), eps), arrival)
        };

        // Resubmitted after its grant: a fresh ticket that reads `None`
        // until its own cycle grants it.
        let first = service.submit_async(3, task(7, 0.2, 0.0)).unwrap();
        service.run_cycle(1.0);
        let at = |t: f64| Some(Decision::Granted { allocated_at: t });
        assert_eq!(first.try_decision(), at(1.0));
        assert_eq!(live(&service), (0, Some(0)));
        let again = service.submit_async(3, task(7, 0.2, 1.0)).unwrap();
        assert_eq!(again.try_decision(), None);
        let doomed = service.submit_async(3, task(8, 9.0, 1.0)).unwrap();
        assert_eq!(live(&service), (2, Some(2)));
        assert!(matches!(
            service.submit(3, task(9, 0.2, 1.0)),
            Err(AdmissionError::QuotaExceeded { tenant: 3, .. })
        ));
        service.run_cycle(1.5);
        assert_eq!(again.try_decision(), at(1.5));
        assert_eq!(doomed.try_decision(), None);
        assert_eq!(live(&service), (1, Some(1)));

        // Resubmitted after its eviction: likewise.
        service.run_cycle(3.0);
        assert_eq!(doomed.try_decision(), Some(Decision::Evicted));
        assert_eq!(live(&service), (0, Some(0)));
        let redo = service.submit_async(3, task(8, 9.0, 3.0)).unwrap();
        assert_eq!(redo.try_decision(), None);
        // Each decision freed its quota slot exactly once: one more
        // task fits, a second does not.
        service.submit(3, task(10, 0.2, 3.0)).unwrap();
        assert!(matches!(
            service.submit(3, task(11, 0.2, 3.0)),
            Err(AdmissionError::QuotaExceeded { tenant: 3, .. })
        ));
        service.run_cycle(3.5);
        assert_eq!(redo.try_decision(), None);
        service.run_cycle(5.0);
        assert_eq!(redo.try_decision(), Some(Decision::Evicted));
        assert_eq!(live(&service), (0, Some(0)));
        assert_eq!(service.stats_summary().granted, 3);
        drop(service);

        // After recovery, a granted id is still refused; an evicted
        // one is not.
        let service = BudgetService::recover(grid(), config, &storage, opts).unwrap();
        assert!(matches!(
            service.submit_async(3, task(7, 0.2, 5.0)),
            Err(AdmissionError::DuplicateTask { task: 7 })
        ));
        let fresh = service.submit_async(3, task(8, 0.2, 5.0)).unwrap();
        assert_eq!(fresh.try_decision(), None);
        assert_eq!(live(&service), (1, Some(1)));
    }

    #[test]
    fn unsorted_or_duplicate_block_lists_are_rejected() {
        let service = BudgetService::new(grid(), immediate_unlock(2, 1));
        for j in 0..2u64 {
            service
                .register_block(Block::new(j, RdpCurve::constant(&grid(), 1.0), 0.0))
                .unwrap();
        }
        // Bypass Task::new's normalization via the public fields.
        let mut dup = simple_task(0, vec![0], 0.6);
        dup.blocks = vec![0, 0];
        assert!(matches!(
            service.submit(0, dup),
            Err(AdmissionError::InvalidTask { .. })
        ));
        let mut unsorted = simple_task(1, vec![0], 0.1);
        unsorted.blocks = vec![1, 0];
        assert!(matches!(
            service.submit(0, unsorted),
            Err(AdmissionError::InvalidTask { .. })
        ));
        // The loop keeps running and a well-formed task is granted.
        service.submit(0, simple_task(2, vec![0, 1], 0.1)).unwrap();
        assert_eq!(service.run_cycle(1.0).granted(), 1);
        assert!(service.ledger().unsound_blocks().is_empty());
    }

    #[test]
    fn retention_window_bounds_service_logs() {
        use crate::stats::StatsRetention;
        let service = BudgetService::new(
            grid(),
            ServiceConfig {
                retention: StatsRetention::Window(3),
                ..immediate_unlock(2, 1)
            },
        );
        service
            .register_block(Block::new(0, RdpCurve::constant(&grid(), 100.0), 0.0))
            .unwrap();
        // 8 feasible grants and 2 timeout evictions across cycles.
        for i in 0..8u64 {
            service.submit(0, simple_task(i, vec![0], 0.1)).unwrap();
        }
        for i in 8..10u64 {
            let mut t = Task::new(i, 1.0, vec![0], RdpCurve::constant(&grid(), 500.0), 0.0);
            t.timeout = Some(1.5); // Evicted at the second cycle.
            service.submit(0, t).unwrap();
        }
        for step in 1..=5u64 {
            service.run_cycle(step as f64);
        }
        let stats = service.stats();
        // Logs are evicted at capacity (oldest first)...
        assert_eq!(stats.granted.len(), 3);
        assert_eq!(stats.cycles.len(), 3);
        assert!(stats.evicted.len() <= 3);
        // ...while the counters and summary stay exact.
        let summary = service.stats_summary();
        assert_eq!(summary.granted, 8);
        assert_eq!(summary.evicted, 2);
        assert_eq!(summary.cycles, 5);
        assert_eq!(stats.total_weight(), 8.0);
        assert_eq!(stats.to_online().steps, 5);
        // Tenant counters are unaffected by the window.
        assert_eq!(stats.tenants[&0].granted, 8);
    }

    #[test]
    fn summary_matches_full_stats() {
        let service = BudgetService::new(grid(), immediate_unlock(2, 1));
        service
            .register_block(Block::new(0, RdpCurve::constant(&grid(), 1.0), 0.0))
            .unwrap();
        for i in 0..4u64 {
            service.submit(0, simple_task(i, vec![0], 0.3)).unwrap();
        }
        service.run_cycle(1.0);
        let full = service.stats();
        let summary = service.stats_summary();
        assert_eq!(summary.granted, full.granted.len() as u64);
        assert_eq!(summary.admitted, full.admitted);
        assert_eq!(summary.cycles, 1);
        assert_eq!(summary.throughput, full.throughput().unwrap_or(0.0));
    }

    #[test]
    fn per_tenant_stats_track_grant_rates() {
        let service = BudgetService::new(grid(), immediate_unlock(2, 2));
        service
            .register_block(Block::new(0, RdpCurve::constant(&grid(), 1.0), 0.0))
            .unwrap();
        // Tenant 0 asks for more than fits; tenant 1 fits entirely.
        for i in 0..4u64 {
            service.submit(0, simple_task(i, vec![0], 0.4)).unwrap();
        }
        service.submit(1, simple_task(10, vec![0], 0.2)).unwrap();
        service.run_cycle(1.0);
        let stats = service.stats();
        assert_eq!(stats.tenants[&1].grant_rate(), Some(1.0));
        let rate0 = stats.tenants[&0].grant_rate().unwrap();
        assert!(rate0 < 1.0, "tenant 0 cannot be fully granted");
        assert_eq!(
            stats.granted.len() as u64,
            stats.tenants[&0].granted + stats.tenants[&1].granted
        );
    }

    #[test]
    fn concurrent_submitters_and_cycles_stay_sound() {
        let service = Arc::new(BudgetService::new(
            grid(),
            ServiceConfig {
                queue_capacity: 64,
                ..immediate_unlock(4, 2)
            },
        ));
        for j in 0..8u64 {
            service
                .register_block(Block::new(j, RdpCurve::constant(&grid(), 2.0), 0.0))
                .unwrap();
        }
        let handle = ServiceHandle::spawn(Arc::clone(&service), Duration::from_millis(1));
        std::thread::scope(|s| {
            for tenant in 0..4u32 {
                let service = Arc::clone(&service);
                s.spawn(move || {
                    for i in 0..50u64 {
                        let id = tenant as u64 * 1000 + i;
                        let t = simple_task(id, vec![id % 8], 0.05);
                        // Backpressure: on a full queue, park and retry.
                        while let Err(e) = service.submit(tenant, t.clone()) {
                            assert!(matches!(e, AdmissionError::QueueFull { .. }), "{e:?}");
                            std::thread::sleep(Duration::from_micros(50));
                        }
                    }
                });
            }
        });
        // Drain: run until the queue and pending set are empty.
        for _ in 0..200 {
            if service.queue_depth() == 0 && service.pending_count() == 0 {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        let service = handle.stop();
        let stats = service.stats();
        assert_eq!(stats.admitted, 200);
        // 0.05 × 25 per block = 1.25 ≤ 2.0: everything fits.
        assert_eq!(stats.granted.len(), 200);
        assert!(service.ledger().unsound_blocks().is_empty());
    }

    #[test]
    fn async_tickets_resolve_to_the_cycle_decision() {
        let service = BudgetService::new(
            grid(),
            ServiceConfig {
                default_timeout: Some(1.5),
                ..immediate_unlock(2, 1)
            },
        );
        service
            .register_block(Block::new(0, RdpCurve::constant(&grid(), 1.0), 0.0))
            .unwrap();
        // Feasible task: resolves Granted at the committing cycle.
        let granted = service
            .submit_async(0, simple_task(0, vec![0], 0.3))
            .unwrap();
        // Infeasible task: stays pending until its timeout evicts it.
        let evicted = service
            .submit_async(1, simple_task(1, vec![0], 9.0))
            .unwrap();
        assert!(!granted.is_resolved() && !evicted.is_resolved());
        service.run_cycle(1.0);
        assert_eq!(
            granted.try_decision(),
            Some(Decision::Granted { allocated_at: 1.0 })
        );
        assert_eq!(evicted.try_decision(), None, "still pending");
        service.run_cycle(3.0); // 3.0 − 0.0 > 1.5: evicted.
        assert_eq!(evicted.wait(), Decision::Evicted);
        // A rejected submission is its own final decision: no ticket.
        assert!(matches!(
            service.submit_async(2, simple_task(1, vec![9], 0.1)),
            Err(AdmissionError::UnknownBlock { .. })
        ));
        assert!(service.books().live.is_empty());
    }

    #[test]
    fn async_tickets_resolve_under_concurrent_submitters_and_cycles() {
        let service = Arc::new(BudgetService::new(
            grid(),
            ServiceConfig {
                queue_capacity: 64,
                ..immediate_unlock(4, 2)
            },
        ));
        for j in 0..8u64 {
            service
                .register_block(Block::new(j, RdpCurve::constant(&grid(), 4.0), 0.0))
                .unwrap();
        }
        let handle = ServiceHandle::spawn(Arc::clone(&service), Duration::from_millis(1));
        std::thread::scope(|s| {
            for tenant in 0..4u32 {
                let service = Arc::clone(&service);
                s.spawn(move || {
                    for i in 0..40u64 {
                        let id = tenant as u64 * 1000 + i;
                        let t = simple_task(id, vec![id % 8], 0.05);
                        let ticket = loop {
                            match service.submit_async(tenant, t.clone()) {
                                Ok(ticket) => break ticket,
                                Err(AdmissionError::QueueFull { .. }) => {
                                    std::thread::sleep(Duration::from_micros(50));
                                }
                                Err(e) => panic!("unexpected rejection: {e}"),
                            }
                        };
                        // Every ticket resolves Granted: capacity fits
                        // the whole workload.
                        assert!(matches!(
                            ticket.wait_timeout(Duration::from_secs(20)),
                            Some(Decision::Granted { .. })
                        ));
                    }
                });
            }
        });
        let service = handle.stop();
        assert_eq!(service.stats_summary().granted, 160);
        assert!(service.books().live.is_empty());
        assert!(service.ledger().unsound_blocks().is_empty());
    }

    #[test]
    fn backpressure_bounds_the_queue() {
        let service = BudgetService::new(
            grid(),
            ServiceConfig {
                queue_capacity: 3,
                ..immediate_unlock(1, 1)
            },
        );
        service
            .register_block(Block::new(0, RdpCurve::constant(&grid(), 10.0), 0.0))
            .unwrap();
        for i in 0..3u64 {
            service.submit(0, simple_task(i, vec![0], 0.1)).unwrap();
        }
        assert!(matches!(
            service.submit(0, simple_task(3, vec![0], 0.1)),
            Err(AdmissionError::QueueFull { capacity: 3 })
        ));
        assert_eq!(service.stats().rejected_full, 1);
        service.run_cycle(1.0);
        service.submit(0, simple_task(3, vec![0], 0.1)).unwrap();
    }

    #[test]
    fn manual_clock_makes_empty_cycle_phases_exactly_assertable() {
        const TICK: u64 = 1_000;
        let (obs, _clock) = Obs::manual(TICK);
        let service = BudgetService::with_obs(grid(), immediate_unlock(1, 1), Arc::clone(&obs));
        let cycle = service.run_cycle(1.0);
        // An empty cycle reads the clock exactly five times (t0 and the
        // four phase boundaries), so with an auto-ticking manual clock
        // its total is exactly 4 ticks and each phase exactly 1.
        assert_eq!(cycle.total, Duration::from_nanos(4 * TICK));
        let snap = obs.registry.snapshot();
        for phase in ["ingest", "decide", "commit", "finalize"] {
            let labels = format!("phase=\"{phase}\"");
            let h = snap
                .histogram("dpack_cycle_phase_nanos", &labels)
                .expect("phase histogram registered");
            assert_eq!((h.count, h.sum), (1, TICK), "phase {phase}");
        }
        let total = snap.histogram("dpack_cycle_nanos", "").unwrap();
        assert_eq!((total.count, total.sum, total.max), (1, 4 * TICK, 4 * TICK));
        assert_eq!(snap.counter_total("dpack_cycles_total"), 1);
    }

    #[test]
    fn manual_clock_makes_grant_latency_exactly_assertable() {
        const TICK: u64 = 1_000;
        let (obs, _clock) = Obs::manual(TICK);
        let service = BudgetService::with_obs(grid(), immediate_unlock(1, 1), Arc::clone(&obs));
        service
            .register_block(Block::new(0, RdpCurve::constant(&grid(), 1.0), 0.0))
            .unwrap();
        // Clock read #1: the admission stamp (returns 0).
        service.submit(7, simple_task(42, vec![0], 0.3)).unwrap();
        // Cycle reads: t0, t_ingest, t_decide, two lock-hold reads
        // inside the shard batch commit, t_commit, t_end — 7 reads, so
        // t_commit is read #7 = 6 ticks after the stamp.
        let cycle = service.run_cycle(1.0);
        assert_eq!(cycle.granted(), 1);
        assert_eq!(cycle.total, Duration::from_nanos(6 * TICK));
        let snap = obs.registry.snapshot();
        let lat = snap.histogram("dpack_grant_latency_nanos", "").unwrap();
        assert_eq!((lat.count, lat.sum), (1, 6 * TICK));
        let hold = snap.histogram("dpack_shard_lock_hold_nanos", "").unwrap();
        assert_eq!((hold.count, hold.sum), (1, TICK));
        // The phase the commit ran in absorbed its two extra reads.
        let commit = snap
            .histogram("dpack_cycle_phase_nanos", "phase=\"commit\"")
            .unwrap();
        assert_eq!((commit.count, commit.sum), (1, 3 * TICK));
        // The flight recorder saw admission then grant, in order.
        let events = obs.recorder().dump();
        let kinds: Vec<EventKind> = events.iter().map(|e| e.kind).collect();
        assert_eq!(kinds, [EventKind::TaskAdmitted, EventKind::TaskGranted]);
        assert_eq!(events[0].a, 42);
        assert_eq!(events[0].b, 7);
        assert_eq!(events[1].a, 42);
        assert_eq!(events[1].b, 1.0f64.to_bits());
    }

    #[test]
    fn grant_latency_spread_keeps_distinct_quantiles() {
        // Three tasks admitted together but granted one per cycle
        // (gradual unlocking rations the block): their manual-clock
        // latencies differ by whole cycles, so the histogram must
        // report p50 < p99 — a bucket scheme coarse enough to
        // collapse such a spread once shipped.
        const TICK: u64 = 1_000;
        let (obs, _clock) = Obs::manual(TICK);
        let config = ServiceConfig {
            shards: 1,
            workers: 1,
            unlock_steps: 3,
            ..ServiceConfig::default()
        };
        let service = BudgetService::with_obs(grid(), config, Arc::clone(&obs));
        service
            .register_block(Block::new(0, RdpCurve::constant(&grid(), 1.0), 0.0))
            .unwrap();
        for id in 0..3 {
            service.submit(0, simple_task(id, vec![0], 0.3)).unwrap();
        }
        let mut granted = 0;
        for step in 1..=3 {
            granted += service.run_cycle(step as f64).granted();
        }
        assert_eq!(granted, 3);
        let snap = obs.registry.snapshot();
        let lat = snap.histogram("dpack_grant_latency_nanos", "").unwrap();
        assert_eq!(lat.count, 3);
        assert!(
            lat.p50() < lat.p99(),
            "p50 {} must stay below p99 {} for latencies a cycle apart",
            lat.p50(),
            lat.p99()
        );
    }

    #[test]
    fn off_context_records_nothing_and_skips_the_stamp() {
        let service = BudgetService::with_obs(grid(), immediate_unlock(2, 2), Obs::off());
        service
            .register_block(Block::new(0, RdpCurve::constant(&grid(), 1.0), 0.0))
            .unwrap();
        service.submit(0, simple_task(1, vec![0], 0.3)).unwrap();
        let stamps: Vec<u64> = service
            .books()
            .queue
            .iter()
            .map(|s| s.admitted_nanos)
            .collect();
        assert_eq!(stamps, [0]);
        let cycle = service.run_cycle(1.0);
        assert_eq!(cycle.granted(), 1);
        assert!(service.obs().registry.snapshot().samples.is_empty());
        assert!(service.obs().recorder().dump().is_empty());
    }

    /// Every service counter and gauge family of a scrape against the
    /// record it is a view of.
    fn assert_scrape_is_the_record(service: &BudgetService, step: &str) {
        use dpack_obs::Value;
        let scraped = service.obs().registry.snapshot();
        let s = service.stats_summary();
        let counters = [
            ("dpack_submitted_total", s.submitted),
            ("dpack_admitted_total", s.admitted),
            ("dpack_rejected_total", s.rejected),
            ("dpack_granted_total", s.granted),
            ("dpack_evicted_total", s.evicted),
            ("dpack_cycles_total", s.cycles),
        ];
        for (name, want) in counters {
            let got = scraped.get(name, "");
            assert_eq!(got, Some(&Value::Counter(want)), "{name} after {step}");
        }
        let d = service.ledger().durability_stats().unwrap_or_default();
        let gauges = [
            ("dpack_queue_depth", service.queue_depth() as u64),
            ("dpack_pending_tasks", service.pending_count() as u64),
            ("dpack_wal_records", d.records),
            ("dpack_wal_bytes", d.bytes),
            ("dpack_wal_syncs", d.sync_calls),
            ("dpack_wal_batches", d.batches),
            ("dpack_wal_failed_appends", d.failed_appends),
            ("dpack_compactions", d.compactions),
        ];
        for (name, want) in gauges {
            let got = scraped.get(name, "");
            assert_eq!(got, Some(&Value::Gauge(want as f64)), "{name} after {step}");
        }
    }

    #[test]
    fn a_scrape_reads_the_service_record_at_any_point() {
        let durable = BudgetService::recover(
            grid(),
            immediate_unlock(2, 1),
            &dpack_wal::SimStorage::new(),
            DurabilityOptions::default(),
        )
        .unwrap();
        let in_memory = BudgetService::new(grid(), immediate_unlock(2, 1));
        for service in [durable, in_memory] {
            let check = |step| assert_scrape_is_the_record(&service, step);
            check("construction");
            for j in 0..2u64 {
                let block = Block::new(j, RdpCurve::constant(&grid(), 1.0), 0.0);
                service.register_block(block).unwrap();
            }
            check("registration");
            for id in 0..3 {
                service
                    .submit(0, simple_task(id, vec![id % 2], 0.4))
                    .unwrap();
            }
            let mut late = simple_task(3, vec![0], 0.9);
            late.timeout = Some(0.5);
            service.submit(1, late).unwrap();
            assert!(service.submit(1, simple_task(4, vec![9], 0.1)).is_err());
            check("admission, before any cycle");
            service.run_cycle(1.0);
            check("a cycle");
            service.run_cycle(2.0);
            check("an eviction");
            service.compact().unwrap();
            check("a compaction");
            let block = Block::new(2, RdpCurve::constant(&grid(), 1.0), 0.0);
            service.register_block(block).unwrap();
            check("a registration after the last cycle");
            let durable = service.ledger().durability_stats().is_some();
            let s = service.stats_summary();
            assert_eq!((s.submitted, s.rejected, s.evicted), (5, 1, 1));
            assert_eq!(s.granted, 3, "durable: {durable}");
        }
    }

    #[test]
    fn a_dropped_service_leaves_the_scrape_and_the_next_one_counts_afresh() {
        let obs = Obs::wall();
        let first = BudgetService::with_obs(grid(), immediate_unlock(1, 1), Arc::clone(&obs));
        first.submit(0, simple_task(0, vec![0], 0.1)).unwrap_err();
        first.run_cycle(1.0);
        assert_scrape_is_the_record(&first, "the first service's cycle");
        drop(first);
        let scraped = obs.registry.snapshot();
        for sample in &scraped.samples {
            assert!(
                matches!(sample.value, dpack_obs::Value::Histogram(_))
                    || sample.name == "dpack_recorder_dropped_total",
                "{} outlived its service",
                sample.name
            );
        }
        let second = BudgetService::with_obs(grid(), immediate_unlock(1, 1), Arc::clone(&obs));
        assert_scrape_is_the_record(&second, "a second service on the same context");
        assert_eq!(
            obs.registry.snapshot().counter_total("dpack_cycles_total"),
            0
        );
    }

    #[test]
    fn wall_service_exposes_the_full_metric_family_set() {
        let service = BudgetService::new(grid(), immediate_unlock(2, 1));
        service
            .register_block(Block::new(0, RdpCurve::constant(&grid(), 1.0), 0.0))
            .unwrap();
        service.submit(0, simple_task(1, vec![0], 0.3)).unwrap();
        service.run_cycle(1.0);
        let text = service.obs().registry.snapshot().render();
        for family in [
            "dpack_submitted_total",
            "dpack_admitted_total",
            "dpack_rejected_total",
            "dpack_granted_total",
            "dpack_evicted_total",
            "dpack_cycles_total",
            "dpack_queue_depth",
            "dpack_pending_tasks",
            "dpack_grant_latency_nanos",
            "dpack_cycle_nanos",
            "dpack_cycle_phase_nanos",
            "dpack_shard_lock_hold_nanos",
            "dpack_cross_commit_nanos",
            "dpack_wal_append_nanos",
            "dpack_wal_batch_records",
            "dpack_wal_records",
            "dpack_wal_failed_appends",
        ] {
            assert!(text.contains(family), "missing family {family}");
        }
        assert!(text.contains("dpack_granted_total 1"));
    }
}
