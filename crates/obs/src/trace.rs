//! Distributed causal tracing: follow one grant across the whole
//! deployment.
//!
//! Per-node metrics say how the *population* of grants behaved; a
//! trace says where *one* grant's latency went — admission queue,
//! scheduling cycle, WAL fsync, replication ship, the slowest replica
//! of the quorum. The model is Dapper's: every traced submission
//! carries a [`TraceContext`] (a process-independent trace id plus the
//! root span id), each layer records [`Span`]s into its node-local
//! [`SpanRing`], and a [`SpanTree`] assembler merges the per-node
//! dumps back into one causal tree keyed by trace id.
//!
//! Three properties keep the propagation cheap and deterministic:
//!
//! * **Ids come from the seeded rand shim.** A [`Tracer`] draws trace
//!   and root-span ids from the vendored xoshiro256++ PRNG; under a
//!   fixed seed (the [`ManualClock`](crate::ManualClock) test setup)
//!   every id — and therefore every span tree — is reproducible.
//! * **Child span ids are derived, not carried.** [`span_id`] hashes
//!   `(trace, kind, salt)`, so the WAL layer, the replicator, and a
//!   replica on the other end of the wire all compute the same span
//!   (and parent) ids from the trace id alone — only the trace id
//!   crosses layer and node boundaries.
//! * **Recording is lock-free.** [`SpanRing`] is a typed view over the
//!   crate's one seqlock ring (`ring.rs`, shared with the
//!   [`FlightRecorder`](crate::FlightRecorder)): eight words per span
//!   plus the node stamp; writers on the grant path never take a
//!   mutex.
//!
//! The current trace set rides a thread-local ([`scoped_traces`]):
//! a scheduling cycle pins the traced tasks it is about to commit,
//! and the ledger/replication layers below read it without any
//! signature changes.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::ring::Ring;

/// What one span measured. The payload word `a` is per-kind: the
/// shard for [`SpanKind::WalFlush`], the wire stream address for
/// [`SpanKind::ReplShip`], the quorum-closing link ordinal for
/// [`SpanKind::QuorumWait`], the shipped batch seq for
/// [`SpanKind::ReplicaAppend`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum SpanKind {
    /// The root: admission enqueue to decision ack.
    Grant = 1,
    /// Admission enqueue to the start of the deciding cycle.
    QueueWait = 2,
    /// The scheduling cycle that committed the grant.
    Cycle = 3,
    /// Cycle phase: queue drain + eviction sweep.
    PhaseIngest = 4,
    /// Cycle phase: ledger snapshot + the one scheduling pass.
    PhaseDecide = 5,
    /// Cycle phase: per-shard batch commits + cross-shard 2PC commit.
    PhaseCommit = 6,
    /// Cycle phase: ticket resolution + bookkeeping.
    PhaseFinalize = 7,
    /// One shard's group-commit WAL append + fsync (`a` = shard).
    WalFlush = 8,
    /// One replication ship: pipeline + quorum collection (`a` = wire
    /// stream address).
    ReplShip = 9,
    /// The wait for the quorum-closing ack inside a ship (`a` = the
    /// link ordinal whose ack closed the quorum — the slowest replica
    /// the grant waited for).
    QuorumWait = 10,
    /// A replica's durable apply of one shipped batch (`a` = the
    /// shipped batch seq; the applying node rides [`Span::node`]).
    /// Recorded on the replica, in its clock domain.
    ReplicaAppend = 11,
}

impl SpanKind {
    /// Decodes the wire byte; `None` for unknown kinds.
    pub fn from_u8(v: u8) -> Option<Self> {
        Some(match v {
            1 => Self::Grant,
            2 => Self::QueueWait,
            3 => Self::Cycle,
            4 => Self::PhaseIngest,
            5 => Self::PhaseDecide,
            6 => Self::PhaseCommit,
            7 => Self::PhaseFinalize,
            8 => Self::WalFlush,
            9 => Self::ReplShip,
            10 => Self::QuorumWait,
            11 => Self::ReplicaAppend,
            _ => return None,
        })
    }

    /// The chrome-trace event name.
    pub fn name(self) -> &'static str {
        match self {
            Self::Grant => "grant",
            Self::QueueWait => "queue_wait",
            Self::Cycle => "cycle",
            Self::PhaseIngest => "phase_ingest",
            Self::PhaseDecide => "phase_decide",
            Self::PhaseCommit => "phase_commit",
            Self::PhaseFinalize => "phase_finalize",
            Self::WalFlush => "wal_flush",
            Self::ReplShip => "repl_ship",
            Self::QuorumWait => "quorum_wait",
            Self::ReplicaAppend => "replica_append",
        }
    }
}

/// The context a traced submission carries: the trace id and the root
/// span id, both drawn by a [`Tracer`]. Everything else is derived.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct TraceContext {
    /// The deployment-unique trace id (nonzero).
    pub trace: u64,
    /// The root ([`SpanKind::Grant`]) span id (nonzero).
    pub span: u64,
}

/// One recorded span. Timestamps are node-local clock readings —
/// cross-node causality comes from the parent ids, not the clocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Ring sequence number (process-unique, from 1).
    pub seq: u64,
    /// The trace this span belongs to.
    pub trace: u64,
    /// This span's id.
    pub span: u64,
    /// The parent span id (0 for the root).
    pub parent: u64,
    /// What was measured.
    pub kind: SpanKind,
    /// The recording node's deployment id.
    pub node: u64,
    /// Start, in the recording node's clock domain.
    pub start_nanos: u64,
    /// End, same clock domain.
    pub end_nanos: u64,
    /// The per-kind payload word (see [`SpanKind`]).
    pub a: u64,
}

impl Span {
    /// The span's duration (saturating — a manual clock can be set
    /// backwards between the two reads).
    pub fn duration_nanos(&self) -> u64 {
        self.end_nanos.saturating_sub(self.start_nanos)
    }
}

/// SplitMix64's finalizer: the bijective mixer the id derivation and
/// the rand shim's seeding both build on.
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives a child span id from `(trace, kind, salt)`. Deterministic
/// and computed independently on every node/layer, so only the trace
/// id needs to cross boundaries: the primary's ship span and the
/// replica's notion of its parent agree by construction. Never 0.
pub fn span_id(trace: u64, kind: SpanKind, salt: u64) -> u64 {
    let id = mix64(
        trace
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(u64::from(kind as u8))
            .wrapping_add(salt.wrapping_mul(0xD1B5_4A32_D192_ED03)),
    );
    if id == 0 {
        1
    } else {
        id
    }
}

/// Draws trace and root-span ids from the seeded rand shim. Seed it
/// from the wall clock in production and from a constant in tests —
/// the id stream (and with it every derived span id) replays exactly.
#[derive(Debug)]
pub struct Tracer {
    rng: Mutex<StdRng>,
}

impl Tracer {
    /// A tracer over the shim's SplitMix64-seeded xoshiro256++.
    pub fn seeded(seed: u64) -> Self {
        Self {
            rng: Mutex::new(StdRng::seed_from_u64(seed)),
        }
    }

    /// Starts a new trace: fresh nonzero trace id + root span id.
    pub fn start(&self) -> TraceContext {
        let mut rng = self.rng.lock().expect("tracer rng poisoned");
        let mut draw = || loop {
            let v = rng.next_u64();
            if v != 0 {
                return v;
            }
        };
        TraceContext {
            trace: draw(),
            span: draw(),
        }
    }
}

// ---- the span ring ----------------------------------------------------

#[derive(Debug)]
struct RingInner {
    /// Entries are `[trace, span, parent, kind, node, start, end, a]`.
    ring: Ring<8>,
    node: AtomicU64,
}

/// A shared, fixed-capacity span ring — the tracing sibling of the
/// flight recorder, dumped over the wire by the `SpanDump` request.
/// Cloning shares the ring.
#[derive(Debug, Clone)]
pub struct SpanRing {
    inner: Arc<RingInner>,
}

impl SpanRing {
    /// A ring retaining the most recent `capacity` spans.
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: Arc::new(RingInner {
                ring: Ring::new(capacity),
                node: AtomicU64::new(0),
            }),
        }
    }

    /// A ring that drops everything (capacity 0).
    pub fn disabled() -> Self {
        Self::new(0)
    }

    /// The retention capacity.
    pub fn capacity(&self) -> usize {
        self.inner.ring.capacity()
    }

    /// Whether recording does anything.
    pub fn is_enabled(&self) -> bool {
        self.capacity() > 0
    }

    /// Stamps the deployment node id every subsequent span carries
    /// (defaults to 0 for standalone deployments).
    pub fn set_node(&self, node: u64) {
        self.inner.node.store(node, Ordering::Relaxed);
    }

    /// The node id spans are stamped with.
    pub fn node(&self) -> u64 {
        self.inner.node.load(Ordering::Relaxed)
    }

    /// Appends one span, evicting the oldest at capacity. Lock-free
    /// (see [`crate::ring`]).
    #[allow(clippy::similar_names, clippy::too_many_arguments)]
    pub fn record(
        &self,
        trace: u64,
        span: u64,
        parent: u64,
        kind: SpanKind,
        start_nanos: u64,
        end_nanos: u64,
        a: u64,
    ) {
        self.inner.ring.push([
            trace,
            span,
            parent,
            u64::from(kind as u8),
            self.node(),
            start_nanos,
            end_nanos,
            a,
        ]);
    }

    /// The retained spans in sequence order.
    pub fn dump(&self) -> Vec<Span> {
        self.dump_since(0)
    }

    /// The retained spans with `seq >= since`, in sequence order —
    /// the incremental form the wire dump paginates with.
    pub fn dump_since(&self, since: u64) -> Vec<Span> {
        self.inner
            .ring
            .dump_since(since)
            .into_iter()
            .filter_map(|(seq, [trace, span, parent, kind, node, start, end, a])| {
                Some(Span {
                    seq,
                    trace,
                    span,
                    parent,
                    kind: SpanKind::from_u8(u8::try_from(kind).ok()?)?,
                    node,
                    start_nanos: start,
                    end_nanos: end,
                    a,
                })
            })
            .collect()
    }

    /// Total spans ever recorded (including evicted ones).
    pub fn recorded(&self) -> u64 {
        self.inner.ring.recorded()
    }
}

// ---- the scoped trace set ---------------------------------------------

thread_local! {
    static ACTIVE: RefCell<Vec<TraceContext>> = const { RefCell::new(Vec::new()) };
}

/// Clears the thread's pinned trace set on drop.
#[derive(Debug)]
pub struct ScopedTraces(());

impl Drop for ScopedTraces {
    fn drop(&mut self) {
        ACTIVE.with(|a| a.borrow_mut().clear());
    }
}

/// Pins `ctxs` as the thread's current trace set until the guard
/// drops. A scheduling cycle pins the traced tasks it is committing;
/// the WAL-flush and replication layers underneath read the set with
/// [`active_traces`] — no plumbing through their signatures, and no
/// cross-thread races because each cycle worker commits on its own
/// thread.
pub fn scoped_traces(ctxs: Vec<TraceContext>) -> ScopedTraces {
    ACTIVE.with(|a| *a.borrow_mut() = ctxs);
    ScopedTraces(())
}

/// The thread's pinned trace set (empty outside a traced commit).
pub fn active_traces() -> Vec<TraceContext> {
    ACTIVE.with(|a| a.borrow().clone())
}

/// Runs `f` over the pinned set without cloning; `f` is skipped
/// entirely when the set is empty — the untraced hot path costs one
/// thread-local read.
pub fn with_active_traces(f: impl FnOnce(&[TraceContext])) {
    ACTIVE.with(|a| {
        let ctxs = a.borrow();
        if !ctxs.is_empty() {
            f(&ctxs);
        }
    });
}

// ---- the tree assembler -----------------------------------------------

/// One trace's spans, merged across node dumps, as a causal tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanTree {
    /// The trace id.
    pub trace: u64,
    /// Every span of the trace, deduplicated by span id, ordered by
    /// (kind, node, a) — deterministic regardless of dump order.
    pub spans: Vec<Span>,
}

impl SpanTree {
    /// The root ([`SpanKind::Grant`]) span, if the dump caught it.
    pub fn root(&self) -> Option<&Span> {
        self.spans.iter().find(|s| s.kind == SpanKind::Grant)
    }

    /// The children of `parent`, in the tree's deterministic order.
    pub fn children(&self, parent: u64) -> Vec<&Span> {
        self.spans.iter().filter(|s| s.parent == parent).collect()
    }

    /// The spans of one kind.
    pub fn of_kind(&self, kind: SpanKind) -> Vec<&Span> {
        self.spans.iter().filter(|s| s.kind == kind).collect()
    }

    /// End-to-end latency: the root span's duration (0 if the root is
    /// missing).
    pub fn duration_nanos(&self) -> u64 {
        self.root().map_or(0, Span::duration_nanos)
    }

    /// Whether the tree tells the whole story of a replicated grant:
    /// root, cycle, at least one WAL flush and one ship, replica
    /// appends from at least `quorum` distinct nodes, and every
    /// non-root span's parent present — the well-formedness the slow
    /// sampler requires before a tree is worth exporting.
    pub fn is_complete(&self, quorum: usize) -> bool {
        let ids: std::collections::BTreeSet<u64> = self.spans.iter().map(|s| s.span).collect();
        let parents_ok = self
            .spans
            .iter()
            .all(|s| s.parent == 0 || ids.contains(&s.parent));
        let appended_nodes: std::collections::BTreeSet<u64> = self
            .of_kind(SpanKind::ReplicaAppend)
            .iter()
            .map(|s| s.node)
            .collect();
        parents_ok
            && self.root().is_some()
            && !self.of_kind(SpanKind::Cycle).is_empty()
            && !self.of_kind(SpanKind::WalFlush).is_empty()
            && !self.of_kind(SpanKind::ReplShip).is_empty()
            && appended_nodes.len() >= quorum
    }
}

/// Merges span dumps (one per node, any order, duplicates allowed —
/// a paginated scrape can overlap) into one [`SpanTree`] per trace
/// id, ascending by trace id.
pub fn assemble_trees(dumps: impl IntoIterator<Item = Vec<Span>>) -> Vec<SpanTree> {
    let mut by_trace: BTreeMap<u64, BTreeMap<u64, Span>> = BTreeMap::new();
    for dump in dumps {
        for span in dump {
            by_trace
                .entry(span.trace)
                .or_default()
                .insert(span.span, span);
        }
    }
    by_trace
        .into_iter()
        .map(|(trace, spans)| {
            let mut spans: Vec<Span> = spans.into_values().collect();
            spans.sort_by_key(|s| (s.kind, s.node, s.a, s.span));
            SpanTree { trace, spans }
        })
        .collect()
}

// ---- the slow-trace sampler + chrome export ---------------------------

/// Keeps the N slowest *complete* trees seen so far — the post-mortem
/// working set a chrome-trace export renders.
#[derive(Debug)]
pub struct SlowTraceSampler {
    capacity: usize,
    quorum: usize,
    trees: Vec<SpanTree>,
}

impl SlowTraceSampler {
    /// A sampler retaining the `capacity` slowest trees that are
    /// complete at `quorum` replica appends.
    pub fn new(capacity: usize, quorum: usize) -> Self {
        Self {
            capacity,
            quorum,
            trees: Vec::new(),
        }
    }

    /// Offers one assembled tree; it is kept iff it is complete and
    /// among the `capacity` slowest so far. Re-offering a trace id
    /// replaces its earlier (possibly less complete) tree.
    pub fn offer(&mut self, tree: SpanTree) {
        if !tree.is_complete(self.quorum) {
            return;
        }
        self.trees.retain(|t| t.trace != tree.trace);
        self.trees.push(tree);
        self.trees
            .sort_by_key(|t| (std::cmp::Reverse(t.duration_nanos()), t.trace));
        self.trees.truncate(self.capacity);
    }

    /// The retained trees, slowest first.
    pub fn trees(&self) -> &[SpanTree] {
        &self.trees
    }

    /// The chrome://tracing export of the retained trees.
    pub fn export_chrome(&self) -> String {
        chrome_trace_json(&self.trees)
    }
}

/// Renders trees as chrome://tracing JSON (the "JSON Array Format"
/// with complete `ph:"X"` events): load the string in
/// `chrome://tracing` or Perfetto. `pid` is the recording node,
/// `tid` the trace id truncated to its low 32 bits, timestamps are
/// microseconds in each node's clock domain.
pub fn chrome_trace_json(trees: &[SpanTree]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    for tree in trees {
        for s in &tree.spans {
            if !first {
                out.push(',');
            }
            first = false;
            let ts = s.start_nanos as f64 / 1_000.0;
            let dur = s.duration_nanos() as f64 / 1_000.0;
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"dpack\",\"ph\":\"X\",\"ts\":{ts:.3},\
                 \"dur\":{dur:.3},\"pid\":{},\"tid\":{},\"args\":{{\"trace\":\"{:016x}\",\
                 \"span\":\"{:016x}\",\"parent\":\"{:016x}\",\"a\":{}}}}}",
                s.kind.name(),
                s.node,
                s.trace & 0xFFFF_FFFF,
                s.trace,
                s.span,
                s.parent,
                s.a,
            );
        }
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_tracer_replays_and_derivation_is_stable() {
        let a = Tracer::seeded(7);
        let b = Tracer::seeded(7);
        let (ca, cb) = (a.start(), b.start());
        assert_eq!(ca, cb, "same seed, same ids");
        assert_ne!(ca.trace, 0);
        assert_ne!(a.start(), ca, "the stream advances");
        let id1 = span_id(ca.trace, SpanKind::WalFlush, 3);
        assert_eq!(id1, span_id(ca.trace, SpanKind::WalFlush, 3));
        assert_ne!(id1, span_id(ca.trace, SpanKind::WalFlush, 4));
        assert_ne!(id1, span_id(ca.trace, SpanKind::ReplShip, 3));
    }

    #[test]
    fn ring_evicts_oldest_and_stamps_the_node() {
        let ring = SpanRing::new(2);
        ring.set_node(9);
        for i in 0..3u64 {
            ring.record(1, 10 + i, 0, SpanKind::Cycle, i, i + 5, 0);
        }
        let dump = ring.dump();
        assert_eq!(dump.len(), 2);
        assert_eq!(dump[0].seq, 2, "oldest retained");
        assert_eq!(dump[1].span, 12);
        assert!(dump.iter().all(|s| s.node == 9));
        assert_eq!(ring.recorded(), 3);
        assert_eq!(ring.dump_since(3).len(), 1);
        let off = SpanRing::disabled();
        off.record(1, 2, 0, SpanKind::Grant, 0, 1, 0);
        assert!(off.dump().is_empty() && !off.is_enabled());
    }

    #[test]
    fn concurrent_writers_never_lose_or_duplicate_sequences() {
        let ring = SpanRing::new(64);
        ring.set_node(3);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let ring = ring.clone();
                s.spawn(move || {
                    for i in 0..1_000u64 {
                        ring.record(t, i + 1, 0, SpanKind::WalFlush, i, i + 1, t);
                    }
                });
            }
        });
        assert_eq!(ring.recorded(), 4_000, "every claim counted exactly once");
        let dump = ring.dump();
        assert_eq!(dump.len(), 64, "every slot holds a published span");
        // As in the flight recorder: a wrapped slot may keep an older
        // survivor, so density is not guaranteed — order and bounds are.
        for pair in dump.windows(2) {
            assert!(pair[0].seq < pair[1].seq, "strictly ordered dump");
        }
        assert!(dump.iter().all(|s| s.seq >= 1 && s.seq <= 4_000));
        assert!(dump
            .iter()
            .all(|s| s.node == 3 && s.a == s.trace && s.end_nanos == s.span));
    }

    #[test]
    fn scoped_traces_pin_and_clear() {
        assert!(active_traces().is_empty());
        {
            let _g = scoped_traces(vec![TraceContext { trace: 1, span: 2 }]);
            assert_eq!(active_traces().len(), 1);
            let mut seen = 0;
            with_active_traces(|c| seen = c.len());
            assert_eq!(seen, 1);
        }
        assert!(active_traces().is_empty(), "guard drop clears the set");
    }

    fn span(trace: u64, span: u64, parent: u64, kind: SpanKind, node: u64) -> Span {
        Span {
            seq: span, // seq only orders dumps; any unique value works
            trace,
            span,
            parent,
            kind,
            node,
            start_nanos: 10,
            end_nanos: 20,
            a: 0,
        }
    }

    /// A minimal complete tree: root ← cycle ← {flush, ship ← appends}.
    fn complete_tree_spans(trace: u64, appends: usize) -> Vec<Span> {
        let mut v = vec![
            span(trace, 1, 0, SpanKind::Grant, 0),
            span(trace, 2, 1, SpanKind::Cycle, 0),
            span(trace, 3, 2, SpanKind::WalFlush, 0),
            span(trace, 4, 2, SpanKind::ReplShip, 0),
        ];
        for n in 0..appends {
            v.push(span(
                trace,
                5 + n as u64,
                4,
                SpanKind::ReplicaAppend,
                n as u64 + 1,
            ));
        }
        v
    }

    #[test]
    fn assembler_merges_dedups_and_checks_completeness() {
        let spans = complete_tree_spans(42, 2);
        // Two overlapping per-node dumps plus an unrelated trace.
        let dump_a: Vec<Span> = spans[..4].to_vec();
        let mut dump_b: Vec<Span> = spans[2..].to_vec();
        dump_b.push(span(7, 1, 0, SpanKind::Grant, 0));
        let trees = assemble_trees([dump_a, dump_b]);
        assert_eq!(trees.len(), 2);
        assert_eq!(trees[0].trace, 7);
        let t = &trees[1];
        assert_eq!(t.spans.len(), 6, "duplicates collapse by span id");
        assert!(t.is_complete(2));
        assert!(!t.is_complete(3), "only two distinct appending nodes");
        assert_eq!(t.children(2).len(), 2, "flush and ship under the cycle");
        // Lose the root: incomplete, and the orphaned cycle fails the
        // parent check too.
        let rootless: Vec<Span> = t.spans.iter().copied().filter(|s| s.span != 1).collect();
        assert!(!assemble_trees([rootless])[0].is_complete(1));
    }

    #[test]
    fn sampler_keeps_the_n_slowest_complete_trees() {
        let mut sampler = SlowTraceSampler::new(2, 1);
        for (trace, dur) in [(1u64, 50u64), (2, 10), (3, 99)] {
            let mut spans = complete_tree_spans(trace, 1);
            spans[0].end_nanos = spans[0].start_nanos + dur;
            sampler.offer(SpanTree { trace, spans });
        }
        // Incomplete trees are refused outright.
        sampler.offer(SpanTree {
            trace: 4,
            spans: complete_tree_spans(4, 0),
        });
        let kept: Vec<u64> = sampler.trees().iter().map(|t| t.trace).collect();
        assert_eq!(kept, [3, 1], "slowest two, slowest first");
        let json = sampler.export_chrome();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        assert!(json.contains("\"name\":\"replica_append\""));
        assert!(json.contains("\"ph\":\"X\""));
    }
}
