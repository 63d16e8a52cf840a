//! The flight recorder: a fixed-capacity ring of structured events.
//!
//! Counters say *how much*; the recorder says *what happened, in what
//! order*. Every event carries a process-unique sequence number, a
//! typed kind, and two `u64` payload words whose meaning the kind
//! fixes (task id + tenant, shard + record count, …) — no timestamps,
//! so a dump taken after a deterministic run is itself deterministic
//! and tests can assert against it byte-for-byte.
//!
//! The ring holds the most recent `capacity` events; older ones fall
//! off the front (their sequence numbers keep counting, so a dump
//! always reveals whether it is complete: a gap before the first
//! retained seq means truncation).
//!
//! Recording is **lock-free**: the recorder is a typed view over the
//! crate's one seqlock ring (`ring.rs`, shared with the span ring),
//! three words per event (`kind`, `a`, `b`), and pays only the ring's
//! own atomics: what the ring lost follows from its sequence number.
//! Writers on the grant path never contend on a mutex; a concurrent
//! [`FlightRecorder::dump`] simply skips slots caught mid-overwrite.
//! Dumps taken at quiescence — how every test and post-mortem uses
//! them — are exact and deterministic.

use std::sync::Arc;

use crate::ring::Ring;

/// What happened. The payload words `a`/`b` are per-kind:
///
/// | kind | `a` | `b` |
/// |---|---|---|
/// | `TaskAdmitted` | task id | tenant |
/// | `TaskGranted` | task id | virtual grant time (`f64::to_bits`) |
/// | `TaskEvicted` | task id | virtual eviction time (`f64::to_bits`) |
/// | `BatchFlushed` | shard (`u32::MAX`: coordinator) | records of the stream in the flush |
/// | `RecoveryStarted` | shard count | 0 |
/// | `RecoveryCoordinator` | committed attempts | highest attempt |
/// | `RecoveryShard` | shard | records replayed |
/// | `RecoveryApplied` | task id | 2PC attempt + 1 (0 = shard-local) |
/// | `RecoveryFinished` | blocks recovered | 0 |
/// | `ProtocolViolation` | connection ordinal | 0 |
/// | `ReplicaApplied` | stream (shard, `u32::MAX` = coordinator) | batch seq |
/// | `AcceptRejected` | 0 | 0 |
/// | `LeaderElected` | term | winning node id |
/// | `PeerStateChanged` | peer node id | new state (0 up / 1 suspect / 2 down) |
/// | `ReplicaResynced` | peer node id | lineage (the installing primary's term) |
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum EventKind {
    /// A submission passed admission into the queue.
    TaskAdmitted = 1,
    /// A scheduling cycle committed the task's grant.
    TaskGranted = 2,
    /// The task timed out and left the pending set.
    TaskEvicted = 3,
    /// A group-commit batch flushed to one shard's WAL.
    BatchFlushed = 4,
    /// Crash recovery began.
    RecoveryStarted = 5,
    /// The coordinator log was folded (2PC decisions known).
    RecoveryCoordinator = 6,
    /// One shard's log was replayed.
    RecoveryShard = 7,
    /// Recovery re-applied one durable grant.
    RecoveryApplied = 8,
    /// Recovery completed; the ledger is live.
    RecoveryFinished = 9,
    /// A peer broke the wire protocol and was disconnected.
    ProtocolViolation = 10,
    /// A replica durably applied one replicated WAL batch.
    ReplicaApplied = 11,
    /// The accept loop refused an incoming socket (setup failed).
    AcceptRejected = 12,
    /// A node won a leader election and promoted.
    LeaderElected = 13,
    /// A peer's failure-detector state changed (up/suspect/down).
    PeerStateChanged = 14,
    /// A lagging replica was resynced (snapshot install + commit).
    ReplicaResynced = 15,
}

impl EventKind {
    /// Decodes the wire byte; `None` for unknown kinds.
    pub fn from_u8(v: u8) -> Option<Self> {
        Some(match v {
            1 => Self::TaskAdmitted,
            2 => Self::TaskGranted,
            3 => Self::TaskEvicted,
            4 => Self::BatchFlushed,
            5 => Self::RecoveryStarted,
            6 => Self::RecoveryCoordinator,
            7 => Self::RecoveryShard,
            8 => Self::RecoveryApplied,
            9 => Self::RecoveryFinished,
            10 => Self::ProtocolViolation,
            11 => Self::ReplicaApplied,
            12 => Self::AcceptRejected,
            13 => Self::LeaderElected,
            14 => Self::PeerStateChanged,
            15 => Self::ReplicaResynced,
            _ => return None,
        })
    }
}

/// One recorded event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Process-unique, strictly increasing sequence number (from 1).
    pub seq: u64,
    /// What happened.
    pub kind: EventKind,
    /// First payload word (see [`EventKind`]).
    pub a: u64,
    /// Second payload word.
    pub b: u64,
}

/// A shared, fixed-capacity event ring. Cloning shares the ring;
/// entries are `[kind, a, b]`.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    ring: Arc<Ring<3>>,
}

impl FlightRecorder {
    /// A recorder retaining the most recent `capacity` events.
    pub fn new(capacity: usize) -> Self {
        Self {
            ring: Arc::new(Ring::new(capacity)),
        }
    }

    /// Events the ring lost, evicted or dropped: recorded − retained
    /// at quiescence, the truncation a dump's seq gaps imply, scraped
    /// as `dpack_recorder_dropped_total`.
    pub fn dropped(&self) -> u64 {
        self.ring.lost()
    }

    /// A recorder that drops everything (capacity 0): recording is an
    /// early return.
    pub fn disabled() -> Self {
        Self::new(0)
    }

    /// The retention capacity.
    pub fn capacity(&self) -> usize {
        self.ring.capacity()
    }

    /// Appends one event, evicting the oldest at capacity; dropped
    /// instead if a writer a lap away holds its slot. Lock-free (see
    /// [`crate::ring`]).
    pub fn record(&self, kind: EventKind, a: u64, b: u64) {
        self.ring.push([u64::from(kind as u8), a, b]);
    }

    /// The retained events in sequence order. Concurrent with writers,
    /// events caught mid-overwrite are skipped; at quiescence the dump
    /// is exact.
    pub fn dump(&self) -> Vec<Event> {
        self.dump_since(0)
    }

    /// The retained events with `seq >= since`, in sequence order —
    /// the incremental form a remote trace scrape uses.
    pub fn dump_since(&self, since: u64) -> Vec<Event> {
        self.ring
            .dump_since(since)
            .into_iter()
            .filter_map(|(seq, [kind, a, b])| {
                let kind = EventKind::from_u8(u8::try_from(kind).ok()?)?;
                Some(Event { seq, kind, a, b })
            })
            .collect()
    }

    /// Total events ever recorded (including evicted and dropped ones).
    pub fn recorded(&self) -> u64 {
        self.ring.recorded()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequences_are_dense_and_ordered() {
        let r = FlightRecorder::new(8);
        for i in 0..5u64 {
            r.record(EventKind::TaskAdmitted, i, 0);
        }
        let dump = r.dump();
        assert_eq!(dump.len(), 5);
        assert_eq!(
            dump.iter().map(|e| e.seq).collect::<Vec<_>>(),
            [1, 2, 3, 4, 5]
        );
        assert_eq!(r.dump_since(4).len(), 2);
        assert_eq!(r.recorded(), 5);
    }

    #[test]
    fn ring_evicts_oldest_but_keeps_counting() {
        let r = FlightRecorder::new(3);
        for i in 0..10u64 {
            r.record(EventKind::BatchFlushed, i, i * 2);
        }
        let dump = r.dump();
        assert_eq!(dump.len(), 3);
        assert_eq!(dump[0].seq, 8, "oldest retained");
        assert_eq!(
            dump[2],
            Event {
                seq: 10,
                kind: EventKind::BatchFlushed,
                a: 9,
                b: 18
            }
        );
        assert_eq!(r.recorded(), 10);
    }

    #[test]
    fn evictions_count_on_the_dropped_counter() {
        let (obs, _) = crate::Obs::manual(1);
        let r = FlightRecorder::new(3);
        for i in 0..10u64 {
            r.record(EventKind::BatchFlushed, i, 0);
        }
        assert_eq!(r.dropped(), 7, "10 recorded, 3 retained");
        assert_eq!(r.dropped(), r.recorded() - r.dump().len() as u64);
        let over = crate::DEFAULT_RECORDER_CAPACITY as u64 + 5;
        for i in 0..over {
            obs.recorder.record(EventKind::BatchFlushed, i, 0);
        }
        let scraped = obs.registry.snapshot();
        assert_eq!(scraped.counter_total("dpack_recorder_dropped_total"), 5);
    }

    #[test]
    fn disabled_recorder_drops_everything() {
        let r = FlightRecorder::disabled();
        r.record(EventKind::ProtocolViolation, 1, 2);
        assert!(r.dump().is_empty());
        assert_eq!(r.recorded(), 0);
    }

    #[test]
    fn concurrent_writers_never_lose_or_duplicate_sequences() {
        let r = FlightRecorder::new(64);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let r = r.clone();
                s.spawn(move || {
                    for i in 0..1_000u64 {
                        r.record(EventKind::TaskGranted, t, i);
                    }
                });
            }
        });
        assert_eq!(r.recorded(), 4_000, "every claim counted exactly once");
        let dump = r.dump();
        assert_eq!(dump.len(), 64, "every slot holds a published event");
        // Each seq maps to one slot, so a dump can never repeat one;
        // racing writers may leave an older survivor in a wrapped
        // slot, so density is not guaranteed — order and bounds are.
        for pair in dump.windows(2) {
            assert!(pair[0].seq < pair[1].seq, "strictly ordered dump");
        }
        assert!(dump.iter().all(|e| e.seq >= 1 && e.seq <= 4_000));
        assert_eq!(r.dropped(), r.recorded() - dump.len() as u64);
    }

    #[test]
    fn kind_bytes_roundtrip() {
        for k in 1..=15u8 {
            let kind = EventKind::from_u8(k).expect("dense kinds");
            assert_eq!(kind as u8, k);
        }
        assert_eq!(EventKind::from_u8(0), None);
        assert_eq!(EventKind::from_u8(16), None);
    }
}
