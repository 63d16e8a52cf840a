//! `dpack-service`: a sharded, concurrent privacy-budget service.
//!
//! The paper's §6.4 evaluation shows that once DPack runs inside a real
//! orchestrator, system overheads dominate runtime — the scheduler must
//! be engineered as a *service*, not a function call. This crate is
//! that service, in-process:
//!
//! * [`ShardedLedger`] — data blocks striped across `S` lock-guarded
//!   shards (`block_id mod S`), each holding its blocks'
//!   [`dpack_core::online::BlockLedger`] filters, with a deadlock-free
//!   two-phase commit for tasks spanning shards.
//! * **Admission** — [`BudgetService::submit`] validates a task against
//!   the ledger, then takes one lock, the service's books, for the
//!   duplicate-id check, the per-tenant quota, the bounded queue's
//!   backpressure and the counters ([`AdmissionError`] says why a task
//!   was refused).
//! * [`BudgetService`] — the batched scheduling loop: per cycle, one
//!   scheduling pass over every pending task (Alg. 1 wants each block's
//!   best alpha from *all* its requesters), then a striped commit —
//!   the grants on one shard as one batch per shard, all under one
//!   hold of their locks and one write-ahead sync, and the grants
//!   spanning shards all-or-nothing.
//! * [`ServiceStats`] / [`CycleStats`] — throughput, queue depth, cycle
//!   latency and per-tenant grant rates, consumable by the bench
//!   binaries and convertible to the engine's
//!   [`dpack_core::online::OnlineStats`] for the existing metrics.
//! * **Durability** — a service opened with [`BudgetService::recover`]
//!   writes ahead through `dpack-wal` into one log whose records name
//!   their shard's stream (commit records; cross-shard grants via
//!   intent/commit/abort two-phase records on the coordinator's
//!   stream) before they become visible, and recovery rebuilds the
//!   exact pre-crash ledger from snapshot + replay. There is one
//!   commit path: a batch is staged on the filters under the shard
//!   locks, a durable ledger saving a pre-image of each block it
//!   touches, and a cycle's grants on every shard flush as a single
//!   group-committed write + sync ([`ShardedLedger::commit_local`]),
//!   amortizing the fsync that would otherwise gate durable throughput
//!   — and, on a replicated ledger, every shard's slice ships to the
//!   replicas in one quorum round; what did not become durable is
//!   undone from the pre-images before the locks drop. The
//!   private `journal` module is the one place that knows records,
//!   group commit, coordinator decisions and replication shipping; see
//!   [`durability`] for the record formats and crash-ordering argument.
//!
//! At every shard and worker count the loop is decision-identical to
//! [`dpack_core::online::OnlineEngine`]: one pass per cycle decides
//! over every pending task, and only the commit is striped (the one
//! last-bit condition at `S > 1` is in the [`service`] module docs).
//! The scheduling algorithms themselves are the unmodified `dpack-core`
//! schedulers; [`SchedulerChoice::schedule`] picks each pass's threads.
//!
//! # Examples
//!
//! ```
//! use dp_accounting::{AlphaGrid, RdpCurve};
//! use dpack_core::problem::{Block, Task};
//! use dpack_service::{BudgetService, ServiceConfig};
//!
//! let grid = AlphaGrid::new(vec![4.0, 16.0]).unwrap();
//! let service = BudgetService::new(grid.clone(), ServiceConfig {
//!     shards: 4,
//!     workers: 2,
//!     unlock_steps: 1,
//!     ..ServiceConfig::default()
//! });
//! for j in 0..8u64 {
//!     service.register_block(Block::new(j, RdpCurve::constant(&grid, 1.0), 0.0)).unwrap();
//! }
//! for i in 0..16u64 {
//!     let task = Task::new(i, 1.0, vec![i % 8], RdpCurve::constant(&grid, 0.4), 0.0);
//!     service.submit((i % 4) as u32, task).unwrap();
//! }
//! let cycle = service.run_cycle(1.0);
//! assert_eq!(cycle.granted(), 16); // 2 × 0.4 per block fits in 1.0.
//! assert!(service.ledger().unsound_blocks().is_empty());
//! ```

pub mod admission;
pub mod config;
pub mod durability;
mod journal;
pub mod ledger;
pub mod replication;
pub mod service;
pub mod stats;
mod store;
mod telemetry;
pub mod ticket;

/// The write-ahead-log crate the durable ledger is built on, re-exported
/// so service users can name storages ([`wal::SimStorage`],
/// [`wal::FsStorage`]) without a separate dependency.
pub use dpack_wal as wal;

/// The observability crate the service reports into, re-exported so
/// callers can construct contexts ([`obs::Obs::off`], manual clocks)
/// and consume snapshots without a separate dependency.
pub use dpack_obs as obs;

pub use admission::{AdmissionError, Submission, TenantId};
pub use config::{DurabilityOptions, SchedulerChoice, ServiceConfig, TierConfig};
pub use ledger::{CommitOutcome, ShardedLedger};
pub use replication::{
    ReplShipError, ReplStream, ReplicaApplyError, ReplicaWal, ReplicationSink, ShipBatch,
};
pub use service::{BudgetService, ServiceHandle};
pub use stats::{
    CycleStats, DurabilityStats, ServiceStats, StatsRetention, StatsSummary, TenantStats,
};
pub use store::TierActivity;
pub use ticket::{Decision, SubmissionTicket};
