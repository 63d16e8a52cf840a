//! `dpack-wal`: a std-only append-only write-ahead log.
//!
//! DPack's DP guarantee (Prop. 6) is only as durable as the filter
//! state backing it: a budget service that forgets committed grants
//! after a crash silently re-grants spent privacy budget. This crate
//! is the durability layer the `dpack-service` sharded ledger writes
//! through — PrivateKube persists the same state in etcd; here it is
//! rebuilt natively with no dependencies. The log is the crate's one
//! on-disk format: the ledger's cold tier keeps its blocks in memory
//! and writes nothing here.
//!
//! * [`Wal`] — framed, checksummed records over rotating segments,
//!   torn-tail truncation on [`Wal::open`], [`Wal::append_batch`]
//!   group commit (N records, one write + one sync, acknowledged and
//!   recovered all-or-nothing), and [`Wal::snapshot`] compaction (see
//!   the [`log`] module docs for the on-disk format and crash-ordering
//!   argument).
//! * [`codec`] — the one byte codec: the checksummed frame, the field
//!   [`Reader`](codec::Reader) and [`Codec`](codec::Codec) trait every
//!   log record, snapshot and wire message is written and read with.
//! * [`WalStorage`] — the storage abstraction; [`FsStorage`] is the
//!   real directory backend.
//! * [`SimStorage`] — deterministic in-memory storage that injects a
//!   crash (including a mid-record torn write) at a chosen byte
//!   offset, then exposes the [`surviving`](SimStorage::surviving)
//!   bytes a reboot would see. The recovery property suites draw that
//!   offset from `dpack-check`, which is what makes crash-recovery
//!   testable at all.
//! * [`TempDir`] — the panic-safe temp directory every fs-backed WAL
//!   test routes through.
//!
//! # Examples
//!
//! ```
//! use dpack_wal::{SimStorage, Wal, WalOptions, WalStorage};
//!
//! let sim = SimStorage::with_crash_after(1_000);
//! let (mut wal, _) = Wal::open(Box::new(sim.clone()), WalOptions::default()).unwrap();
//! let mut acknowledged = 0;
//! while wal.append(format!("record {acknowledged}").as_bytes()).is_ok() {
//!     acknowledged += 1;
//! }
//! // Reboot: exactly the acknowledged prefix survives.
//! let (_, recovered) = Wal::open(Box::new(sim.surviving()), WalOptions::default()).unwrap();
//! assert_eq!(recovered.records.len(), acknowledged);
//! ```

pub mod codec;
pub mod log;
pub mod storage;
pub mod temp;

pub use log::{AppendReceipt, Recovered, Wal, WalCounters, WalError, WalOptions, WalTelemetry};
pub use storage::{FsStorage, SimStorage, WalStorage, CRASH_ERROR};
pub use temp::TempDir;
