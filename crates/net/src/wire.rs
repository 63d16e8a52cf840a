//! The wire protocol: framing and message codecs.
//!
//! # Framing
//!
//! Every message — request and response alike — travels in one frame
//! under magic [`MAGIC`], the WAL's magic+len+checksum frame: both are
//! written and checked by `dpack_wal::codec`, the one place the frame
//! and field rules live. A torn or corrupted stream is detected at the
//! frame boundary, never half-decoded. A frame whose magic, length
//! bound, or checksum fails marks the stream unrecoverable — unlike a
//! log file there is no "truncate and resume" for a socket, so both
//! ends drop the connection.
//!
//! # Messages
//!
//! The payload is `tag u8 ‖ request_id u64 ‖ body`. The request id is
//! chosen by the client and echoed verbatim in the response, which is
//! what makes **pipelining** work: a client may send any number of
//! requests before reading, and the server may answer *out of order*
//! (submissions resolve at a later scheduling cycle; stats answer
//! immediately). Each message is described once, in the `messages!`
//! tables below — its tag, its variant, and its fields in byte order —
//! and each payload struct once, in a `codec_struct!`; both directions
//! are generated from that one list. The codec's field rules carry
//! curves as raw bits, so a budget round-trips exactly, and check every
//! list length against the bytes left, so a hostile length prefix is a
//! decode error, never a huge allocation.

use std::fmt;

use dp_accounting::AlphaGrid;
use dpack_core::problem::Task;
use dpack_obs::{Event, Sample, Span, TraceContext};
use dpack_service::wal::codec::{self, capped, list_where, Codec, CodecError, Frame, Reader};
use dpack_service::wal::codec_struct;
use dpack_service::AdmissionError;

use crate::error::{ErrorCode, NetError};

/// First byte of every frame (distinct from the WAL's 0xD7/0xD8 so a
/// file/socket mix-up fails loudly).
pub const MAGIC: u8 = 0xDA;
/// Frame header bytes: magic + length + checksum.
pub const HEADER: usize = codec::HEADER;
/// Upper bound on one frame's payload; a peer claiming more is
/// violating the protocol (far above any real message, far below an
/// allocation attack).
pub const MAX_FRAME: u32 = 1 << 24;
/// Upper bound on tasks in one [`Request::SubmitBatch`]. Bounding the
/// *request* bounds its `BatchDecision` reply too — an unbounded batch
/// of minimal tasks could otherwise decode fine yet produce a reply
/// larger than [`MAX_FRAME`] (rejection outcomes are bigger than the
/// malformed tasks that cause them).
pub const MAX_BATCH_TASKS: u32 = 4096;

/// Frames a payload into `out`.
///
/// # Panics
///
/// Panics if the payload exceeds [`MAX_FRAME`] (a local bug: messages
/// are bounded far below it).
pub fn frame_into(out: &mut Vec<u8>, payload: &[u8]) {
    codec::frame_into(out, MAGIC, MAX_FRAME, payload);
}

/// Frames a payload into a fresh buffer.
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER + payload.len());
    frame_into(&mut out, payload);
    out
}

/// Incremental frame decoder over a byte stream: feed reads in with
/// [`FrameDecoder::extend`], pop complete payloads with
/// [`FrameDecoder::next_frame`]. Both the server reactor (nonblocking
/// reads arrive in arbitrary chunks) and the blocking client transport
/// run their inbound bytes through this.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Consumed prefix of `buf` (compacted opportunistically).
    at: usize,
}

impl FrameDecoder {
    /// Creates an empty decoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends raw bytes read from the stream.
    pub fn extend(&mut self, bytes: &[u8]) {
        // Compact before growing: the steady state keeps the buffer at
        // one in-flight frame.
        if self.at > 0 && self.at == self.buf.len() {
            self.buf.clear();
            self.at = 0;
        } else if self.at > 4096 {
            self.buf.drain(..self.at);
            self.at = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Pops the next complete frame's payload, `Ok(None)` if more bytes
    /// are needed.
    ///
    /// # Errors
    ///
    /// [`NetError::Protocol`] on bad magic, an oversized length, or a
    /// checksum mismatch — the stream cannot be resynchronized and the
    /// connection should be dropped.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, NetError> {
        match codec::parse_frame(&self.buf[self.at..], MAGIC, MAX_FRAME) {
            Frame::Whole(payload) => {
                let payload = payload.to_vec();
                self.at += HEADER + payload.len();
                Ok(Some(payload))
            }
            Frame::Short => Ok(None),
            Frame::Bad(e) => Err(e.into()),
        }
    }

    /// Bytes buffered but not yet consumed.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.at
    }
}

// ---- payload structs ----------------------------------------------------

codec_struct! {
    /// A task as it travels on the wire: curve values without a grid (the
    /// server rebuilds them on its own grid; mismatched lengths surface as
    /// [`ErrorCode::GridMismatch`]).
    #[derive(Debug, Clone, PartialEq)]
    pub struct WireTask {
        /// The task id (the commit key; unique while live).
        pub id: u64,
        /// Utility weight.
        pub weight: f64,
        /// Arrival in virtual time.
        pub arrival: f64,
        /// Relative eviction timeout.
        pub timeout: Option<f64>,
        /// Per-order demand values (bit-exact).
        pub demand: Vec<f64>,
        /// Requested block ids.
        pub blocks: Vec<u64>,
    }
}

impl WireTask {
    /// Captures an in-process task for the wire.
    pub fn from_task(task: &Task) -> Self {
        Self {
            id: task.id,
            weight: task.weight,
            arrival: task.arrival,
            timeout: task.timeout,
            demand: task.demand.values().to_vec(),
            blocks: task.blocks.clone(),
        }
    }

    /// Rebuilds the in-process task on the service's grid. The block
    /// list is carried **verbatim** — deliberately not normalized the
    /// way [`Task::new`] sorts and deduplicates — so the service's
    /// admission validation judges exactly what the tenant sent, and a
    /// malformed remote submission is rejected precisely when the same
    /// raw task would be rejected in-process (the equivalence the
    /// protocol suite asserts).
    ///
    /// # Errors
    ///
    /// [`AdmissionError::GridMismatch`] when the demand values do not
    /// fit the grid — the same rejection an in-process mismatch gets.
    pub fn into_task(self, grid: &AlphaGrid) -> Result<Task, AdmissionError> {
        let demand = dp_accounting::RdpCurve::new(grid, self.demand)
            .map_err(|_| AdmissionError::GridMismatch { task: self.id })?;
        let mut task = Task::new(self.id, self.weight, Vec::new(), demand, self.arrival);
        task.blocks = self.blocks;
        task.timeout = self.timeout;
        Ok(task)
    }
}

/// A stable failure code travels as its `u16`.
impl Codec for ErrorCode {
    const MIN_BYTES: usize = 2;
    fn put(&self, out: &mut Vec<u8>) {
        self.as_u16().put(out);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let raw = r.u16()?;
        Self::from_u16(raw).ok_or_else(|| CodecError::new(format!("unknown error code {raw}")))
    }
}

/// The final outcome of one submitted task, as reported to a remote
/// tenant. This is a *decision*, not a transport error: the request
/// round-trip succeeded and the service answered.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// A scheduling cycle committed the grant.
    Granted {
        /// Virtual time of the committing cycle.
        allocated_at: f64,
    },
    /// Admission refused the task; the code is stable
    /// ([`crate::error::admission_code`]).
    Rejected {
        /// The stable rejection code.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// The task timed out in the pending set and was evicted.
    Evicted,
}

impl Outcome {
    /// Whether this outcome is a grant.
    pub fn is_granted(&self) -> bool {
        matches!(self, Self::Granted { .. })
    }
}

/// An outcome is a tag byte — 1 granted, 2 rejected, 3 evicted — then
/// its fields.
impl Codec for Outcome {
    const MIN_BYTES: usize = 1;
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            Self::Granted { allocated_at } => (1u8, *allocated_at).put(out),
            Self::Rejected { code, message } => {
                (2u8, *code).put(out);
                message.put(out);
            }
            Self::Evicted => 3u8.put(out),
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(match r.u8()? {
            1 => Self::Granted {
                allocated_at: r.get()?,
            },
            2 => Self::Rejected {
                code: r.get()?,
                message: r.get()?,
            },
            3 => Self::Evicted,
            t => return Err(CodecError::new(format!("unknown outcome tag {t}"))),
        })
    }
}

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Granted { allocated_at } => write!(f, "granted at t={allocated_at}"),
            Self::Rejected { code, message } => write!(f, "rejected [{code}]: {message}"),
            Self::Evicted => write!(f, "evicted (timeout)"),
        }
    }
}

codec_struct! {
    /// Service counters as reported over the wire (a fixed-size subset of
    /// [`dpack_service::StatsSummary`] plus the live queue/pending depths).
    #[derive(Debug, Clone, Copy, PartialEq, Default)]
    pub struct WireStats {
        /// Submissions attempted.
        pub submitted: u64,
        /// Submissions admitted.
        pub admitted: u64,
        /// Submissions rejected at admission.
        pub rejected: u64,
        /// Tasks granted budget.
        pub granted: u64,
        /// Tasks evicted by timeout.
        pub evicted: u64,
        /// Scheduling cycles run.
        pub cycles: u64,
        /// Sum of granted weights.
        pub granted_weight: f64,
        /// Granted tasks per second of cycle wall time.
        pub throughput: f64,
        /// Current admission-queue depth.
        pub queue_depth: u64,
        /// Tasks ingested but not yet granted or evicted.
        pub pending: u64,
    }
}

/// A healthy peer (a replica link that receives ships). The `PEER_*`
/// states are what [`WirePeer::state`] carries, for the cluster's
/// failure detector and the replicator's links alike.
pub const PEER_UP: u8 = 0;
/// A peer that failed once: skipped and redialed.
pub const PEER_SUSPECT: u8 = 1;
/// A peer that failed [`SUSPECT_FAILS_TO_DOWN`] times in a row.
pub const PEER_DOWN: u8 = 2;
/// Consecutive failures (missed pings, failed redials) to `Down`.
pub const SUSPECT_FAILS_TO_DOWN: u32 = 3;

codec_struct! {
    /// A peer as one node sees it, inside a [`WireClusterStatus`].
    #[derive(Debug, Clone, PartialEq)]
    pub struct WirePeer {
        /// The peer's node id.
        pub id: u64,
        /// The peer's advertised address.
        pub addr: String,
        /// Failure-detector state: [`PEER_UP`], [`PEER_SUSPECT`] or
        /// [`PEER_DOWN`].
        pub state: u8 = |r| match r.u8()? {
            s @ PEER_UP..=PEER_DOWN => Ok(s),
            s => Err(CodecError::new(format!("bad peer state {s}"))),
        },
        /// The peer's last observed election term.
        pub term: u64,
        /// Whether the peer last claimed to be primary.
        pub is_primary: bool,
        /// Per-stream replication lag (primary's durable seq − the peer's
        /// acked seq), shards in index order then the coordinator stream.
        /// Populated only when the answering node is the primary; empty
        /// otherwise.
        pub lag: Vec<u64>,
        /// Current redial backoff on the peer's replication link (nanos;
        /// 0 when the link is healthy).
        pub backoff_nanos: u64,
        /// Completed resync rounds this primaryship has run for the peer.
        pub resyncs: u64,
    }
}

codec_struct! {
    /// One node's answer to [`Request::ClusterStatus`]: its own identity
    /// and durable state, plus its live view of every peer.
    #[derive(Debug, Clone, PartialEq)]
    pub struct WireClusterStatus {
        /// The answering node's id.
        pub node_id: u64,
        /// Whether it currently holds the primary role.
        pub is_primary: bool,
        /// Its current election term.
        pub term: u64,
        /// The node it believes leads (0 = unknown).
        pub leader: u64,
        /// Its durable per-stream seq vector (shards in index order, then
        /// the coordinator stream).
        pub vector: Vec<u64>,
        /// Its view of each configured peer.
        pub peers: Vec<WirePeer>,
    }
}

// ---- messages -----------------------------------------------------------

/// Describes a message enum once — each variant's tag, name, and fields
/// in byte order — and generates the enum and its frame's [`Codec`]:
/// `tag u8 ‖ id u64 ‖ fields`. A field may name its own decoder after
/// `=`, as in `codec_struct!`; a one-field tuple variant names its
/// field for the encoder (`Stats(stats: WireStats)`).
macro_rules! messages {
    (
        $(#[$m:meta])*
        pub enum $enum:ident in $frame:ident, $noun:literal {
            $(
                $(#[$vm:meta])*
                $tag:literal => $var:ident
                $( { $( $(#[$fm:meta])* $f:ident : $ft:ty $(= $dec:expr)? ),* $(,)? } )?
                $( ( $tf:ident : $tt:ty ) )?
            ),* $(,)?
        }
    ) => {
        $(#[$m])*
        #[derive(Debug, Clone, PartialEq)]
        pub enum $enum {
            $( $(#[$vm])* $var $( { $( $(#[$fm])* $f: $ft ),* } )? $( ($tt) )?, )*
        }

        impl Codec for $frame {
            const MIN_BYTES: usize = 1 + 8;
            #[inline]
            fn put(&self, out: &mut Vec<u8>) {
                match &self.body {
                    $( $enum::$var $( { $($f),* } )? $( { 0: $tf } )? => {
                        let tag: u8 = $tag;
                        (tag, self.id).put(out);
                        $( $( $f.put(out); )* )?
                        $( $tf.put(out); )?
                    } )*
                }
            }
            #[inline]
            fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
                let (tag, id) = (r.u8()?, r.u64()?);
                let body = match tag {
                    $( $tag => {
                        $( $( let $f: $ft = codec_struct!(@get r $ft $(, $dec)?); )* )?
                        $enum::$var $( { $($f),* } )? $( (r.get::<$tt>()?) )?
                    } )*
                    t => return Err(CodecError::new(format!("unknown {} tag {t}", $noun))),
                };
                Ok(Self { id, body })
            }
        }

        impl $frame {
            /// Serializes the message payload (unframed).
            pub fn encode(&self) -> Vec<u8> {
                codec::encode(self)
            }

            /// Deserializes a message payload.
            ///
            /// # Errors
            ///
            /// [`NetError::Protocol`] on an unknown tag, malformed body,
            /// or trailing bytes.
            pub fn decode(bytes: &[u8]) -> Result<Self, NetError> {
                Ok(codec::decode(bytes)?)
            }
        }
    };
}

/// The shard field value that addresses the coordinator stream in a
/// [`Request::Replicate`] (shard streams use their index).
pub const REPL_COORD_STREAM: u32 = u32::MAX;

/// Upper bound on records per `Replicate` batch (the frame cap bounds
/// the bytes; this bounds the allocation count against hostile
/// headers). Matches the service's group-commit reality: one batch is
/// one scheduling cycle's grants on one shard.
pub const MAX_REPL_RECORDS: u32 = 65_536;

/// Upper bound on trace ids riding one `Replicate` batch — traces are
/// a sampled minority of traffic, so a batch carrying more is a
/// protocol violation, not a bigger allocation.
pub const MAX_REPL_TRACES: u32 = 1024;

/// A framed request: client-chosen id + body. The id is echoed in the
/// response, enabling pipelining and out-of-order completion.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestFrame {
    /// Client-chosen correlation id.
    pub id: u64,
    /// The request body.
    pub body: Request,
}

messages! {
    /// A client request body.
    pub enum Request in RequestFrame, "request" {
        /// Protocol handshake: asks for the service's alpha grid so the
        /// tenant can build demand curves that fit. On a node configured
        /// with a shared secret, `token` must match or the handshake is
        /// refused [`ErrorCode::Unauthorized`] — and every other request
        /// on the connection is refused until a handshake succeeds.
        1 => Hello {
            /// Optional shared-secret token (compared in constant time).
            token: Option<String>,
        },
        /// Submit one task; the response is the **final decision**.
        2 => Submit {
            /// The submitting tenant.
            tenant: u32,
            /// The task.
            task: WireTask,
            /// Distributed-trace context: when present, the grant records
            /// spans across every node it touches under this trace id.
            trace: Option<TraceContext>,
        },
        /// Submit many tasks in one frame; one response carries every
        /// decision once the last one is made.
        3 => SubmitBatch {
            /// The submitting tenant.
            tenant: u32,
            /// The tasks, decided independently.
            tasks: Vec<WireTask> = |r| capped(r, MAX_BATCH_TASKS, "task"),
            /// Per-task trace contexts: empty (nothing traced) or exactly
            /// one per task, in task order.
            traces: Vec<TraceContext> = |r| list_where(r, |n| {
                if n != 0 && n != tasks.len() {
                    return Err(CodecError::new(
                        "batch trace list must be empty or match the task count",
                    ));
                }
                Ok(())
            }),
        },
        /// Register a data block (arrives with its full capacity curve).
        4 => RegisterBlock {
            /// The block id.
            id: u64,
            /// Arrival in virtual time.
            arrival: f64,
            /// Per-order capacity values (bit-exact).
            capacity: Vec<f64>,
        },
        /// Read the service counters.
        5 => Stats,
        /// Read every block's available budget at a virtual time.
        6 => Snapshot {
            /// The §3.4 unlocking time to evaluate at.
            now: f64,
        },
        /// Scrape the service's metrics registry (counters, gauges,
        /// histograms) as one point-in-time snapshot.
        7 => Metrics,
        /// Dump the service's flight recorder from a sequence number
        /// (`since = 0` for everything retained); a scraper remembers the
        /// last seq it saw and asks incrementally.
        8 => Trace {
            /// Only events with `seq >= since` are returned.
            since: u64,
        },
        /// Primary → replica: one durably appended WAL batch of one
        /// stream, verbatim record payloads in append order. Streams are
        /// per-shard (`shard` = shard index) plus the coordinator decision
        /// log (`shard` = [`REPL_COORD_STREAM`]); `seq` numbers batches
        /// per stream from 1, so a replica detects duplicates (idempotent
        /// ack) and gaps (refused — applying out of order would diverge).
        /// `term` is the sender's election term: a replica that has seen a
        /// newer term refuses the ship with [`ErrorCode::StaleTerm`], which
        /// is how a deposed primary learns it must stop acknowledging.
        9 => Replicate {
            /// The shipping primary's election term (0 before any
            /// election).
            term: u64,
            /// Stream address: shard index, or [`REPL_COORD_STREAM`].
            shard: u32,
            /// Per-stream batch sequence number, from 1.
            seq: u64,
            /// The record payloads, exactly as appended on the primary.
            records: Vec<Vec<u8>> = |r| capped(r, MAX_REPL_RECORDS, "record"),
            /// Trace ids of the traced grants in this batch: the replica
            /// derives every span id it records from these alone, so the
            /// ship carries no span structure.
            traces: Vec<u64> = |r| capped(r, MAX_REPL_TRACES, "trace"),
        },
        /// Failure-detector heartbeat. Carries the sender's term and its
        /// durable per-stream sequence vector (shards in index order, then
        /// the coordinator stream) so peers can cheaply judge how current
        /// it is; the [`Response::Pong`] reply carries the receiver's.
        10 => Ping {
            /// The sender's current election term.
            term: u64,
            /// The sender's durable per-stream seq vector.
            vector: Vec<u64>,
        },
        /// Leader election: the candidate asks for this peer's vote in
        /// `term`. The vote is granted iff the term is newer than anything
        /// the voter has seen or voted in **and** the candidate's ballot
        /// (its durable seq vector) is at least as current as the voter's
        /// own — the highest-durable-seq-wins rule that keeps every
        /// acknowledged grant on whichever node wins.
        11 => Vote {
            /// The proposed (new) term.
            term: u64,
            /// The candidate's node id (the deterministic tiebreak).
            candidate: u64,
            /// The candidate's durable per-stream seq vector.
            ballot: Vec<u64>,
        },
        /// Catch-up: the primary installs one stream's snapshot on a
        /// lagging replica, resetting that stream to `base_seq` (the
        /// compaction law: snapshot + suffix replays to the same state).
        /// The first install of a round durably marks the replica dirty;
        /// only [`Request::ResyncCommit`] clears the mark.
        12 => ResyncStream {
            /// The installing primary's term.
            term: u64,
            /// Stream address: shard index, or [`REPL_COORD_STREAM`].
            shard: u32,
            /// The stream's new base: ships resume at `base_seq + 1`.
            base_seq: u64,
            /// The snapshot payload (empty for the coordinator stream).
            snapshot: Vec<u8>,
        },
        /// Catch-up: every stream is installed; the replica persists
        /// `lineage` (the installing primary's term), clears its dirty
        /// mark, and resumes counting toward the quorum.
        13 => ResyncCommit {
            /// The installing primary's term.
            term: u64,
            /// The lineage to persist (the installing primary's term).
            lineage: u64,
        },
        /// Cluster introspection: the node's own role/term/vector plus its
        /// view of every peer (state, term, per-stream replication lag on
        /// the primary, resync/backoff state). Served by every node.
        14 => ClusterStatus,
        /// Dump the node's span ring from a sequence number (`since = 0`
        /// for everything retained) — the per-node half of cross-node
        /// trace assembly. Paginated exactly like [`Request::Trace`].
        15 => SpanDump {
            /// Only spans with `seq >= since` are returned.
            since: u64,
        },
    }
}

/// A framed response: the echoed request id + body.
#[derive(Debug, Clone, PartialEq)]
pub struct ResponseFrame {
    /// The request id this answers.
    pub id: u64,
    /// The response body.
    pub body: Response,
}

messages! {
    /// A server response body.
    pub enum Response in ResponseFrame, "response" {
        /// The handshake answer: the service's Rényi orders.
        1 => Hello {
            /// The alpha grid, ascending.
            alphas: Vec<f64>,
        },
        /// The final decision for one submitted task.
        2 => Decision {
            /// The task the decision is for.
            task: u64,
            /// Its outcome.
            outcome: Outcome,
        },
        /// The final decisions for a batch, in submission order.
        3 => BatchDecision {
            /// `(task id, outcome)` per submitted task.
            decisions: Vec<(u64, Outcome)>,
        },
        /// The block was registered.
        4 => BlockRegistered {
            /// The registered block id.
            id: u64,
        },
        /// The service counters.
        5 => Stats(stats: WireStats),
        /// Every block's available budget values at the requested time.
        6 => Snapshot {
            /// `(block id, per-order available values)` ascending by id.
            blocks: Vec<(u64, Vec<f64>)>,
        },
        /// The request failed; the code is stable.
        7 => Error {
            /// The stable failure code.
            code: ErrorCode,
            /// Human-readable detail.
            message: String,
        },
        /// The metrics snapshot, sorted by (name, labels). Rebuild a
        /// [`dpack_obs::MetricsSnapshot`] from it for rendering.
        8 => Metrics {
            /// Every registered instrument's sampled value.
            samples: Vec<Sample>,
        },
        /// The flight-recorder dump, in sequence order.
        9 => Trace {
            /// The retained events matching the request's `since`.
            events: Vec<Event>,
        },
        /// Replica → primary: the batch is durable. `durable` is the
        /// stream's highest contiguously applied sequence number, so a
        /// duplicate delivery acks idempotently (`durable >= seq`) and the
        /// primary can compute replication lag.
        10 => ReplicateAck {
            /// The acknowledged batch's stream address.
            shard: u32,
            /// The acknowledged sequence number (echoed).
            seq: u64,
            /// Highest durably applied seq on that stream.
            durable: u64,
        },
        /// Heartbeat reply: the receiver's term, role, lineage, and durable
        /// per-stream seq vector. The redial fast path compares `lineage`
        /// and `vector` against the primary's to decide whether a
        /// reconnecting replica needs a resync at all.
        11 => Pong {
            /// The responder's current election term.
            term: u64,
            /// Whether the responder believes it is the primary.
            is_primary: bool,
            /// The responder's persisted lineage (the term of the primary
            /// whose stream it follows; 0 = unattached).
            lineage: u64,
            /// The responder's durable per-stream seq vector.
            vector: Vec<u64>,
        },
        /// Election reply. `term` is the voter's (possibly newer) term so a
        /// refused candidate adopts it and campaigns above it next time.
        12 => VoteReply {
            /// The voter's current term after processing the request.
            term: u64,
            /// Whether the vote was granted.
            granted: bool,
        },
        /// Catch-up acknowledgement: the install (or commit) is durable.
        13 => ResyncAck {
            /// The echoed stream address (a commit ack echoes
            /// [`REPL_COORD_STREAM`]'s value; the pairing request
            /// disambiguates).
            stream: u32,
            /// The stream's new durable seq (the install's `base_seq`; a
            /// commit ack echoes the persisted lineage).
            durable: u64,
        },
        /// The node's introspection answer.
        14 => ClusterStatus(status: WireClusterStatus),
        /// The span-ring dump, in sequence order.
        15 => SpanDump {
            /// The retained spans matching the request's `since`.
            spans: Vec<Span>,
        },
    }
}

#[cfg(test)]
mod tests {
    use dpack_obs::{EventKind, HistogramSnapshot, SpanKind, Value};

    use super::*;

    #[test]
    fn frames_round_trip_through_the_incremental_decoder() {
        let payloads: Vec<Vec<u8>> = vec![vec![], vec![1, 2, 3], vec![0xDA; 100]];
        let mut stream = Vec::new();
        for p in &payloads {
            frame_into(&mut stream, p);
        }
        // Feed one byte at a time: frames pop exactly at boundaries.
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        for b in &stream {
            dec.extend(&[*b]);
            while let Some(p) = dec.next_frame().expect("valid stream") {
                got.push(p);
            }
        }
        assert_eq!(got, payloads);
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn corrupt_frames_are_protocol_errors() {
        let mut ok = frame(b"hello");
        ok[HEADER + 1] ^= 0x40; // Flip a payload bit.
        let mut dec = FrameDecoder::new();
        dec.extend(&ok);
        assert!(matches!(dec.next_frame(), Err(NetError::Protocol(_))));
        // Bad magic.
        let mut dec = FrameDecoder::new();
        dec.extend(&[0x00; HEADER]);
        assert!(dec.next_frame().is_err());
        // Oversized length claim fails before any buffering happens.
        let mut dec = FrameDecoder::new();
        let mut huge = vec![MAGIC];
        huge.extend_from_slice(&(MAX_FRAME + 1).to_le_bytes());
        huge.extend_from_slice(&[0u8; 8]);
        dec.extend(&huge);
        assert!(dec.next_frame().is_err());
    }

    fn sample_hist() -> Box<HistogramSnapshot> {
        let h = dpack_obs::Histogram::new();
        h.record(3);
        h.record(100);
        h.record(100_000);
        Box::new(h.snapshot())
    }

    fn sample_task() -> WireTask {
        WireTask {
            id: 42,
            weight: 2.5,
            arrival: 0.1 + 0.2, // Not 0.3: bit-exactness matters.
            timeout: Some(7.0),
            demand: vec![0.25, f64::MIN_POSITIVE, 1.0],
            blocks: vec![1, 5, 9],
        }
    }

    #[test]
    fn requests_round_trip() {
        let requests = vec![
            RequestFrame {
                id: 1,
                body: Request::Hello { token: None },
            },
            RequestFrame {
                id: 2,
                body: Request::Hello {
                    token: Some("s3cret".into()),
                },
            },
            RequestFrame {
                id: u64::MAX,
                body: Request::Submit {
                    tenant: 7,
                    task: sample_task(),
                    trace: None,
                },
            },
            RequestFrame {
                id: 16,
                body: Request::Submit {
                    tenant: 7,
                    task: sample_task(),
                    trace: Some(TraceContext {
                        trace: 0xDEAD_BEEF,
                        span: 0x5EED,
                    }),
                },
            },
            RequestFrame {
                id: 3,
                body: Request::SubmitBatch {
                    tenant: 0,
                    tasks: vec![sample_task(), sample_task()],
                    traces: Vec::new(),
                },
            },
            RequestFrame {
                id: 17,
                body: Request::SubmitBatch {
                    tenant: 0,
                    tasks: vec![sample_task(), sample_task()],
                    traces: vec![
                        TraceContext { trace: 1, span: 2 },
                        TraceContext { trace: 3, span: 4 },
                    ],
                },
            },
            RequestFrame {
                id: 4,
                body: Request::RegisterBlock {
                    id: 11,
                    arrival: 2.0,
                    capacity: vec![1.0, -3.5],
                },
            },
            RequestFrame {
                id: 5,
                body: Request::Stats,
            },
            RequestFrame {
                id: 6,
                body: Request::Snapshot { now: 4.25 },
            },
            RequestFrame {
                id: 7,
                body: Request::Metrics,
            },
            RequestFrame {
                id: 8,
                body: Request::Trace { since: 1234 },
            },
            RequestFrame {
                id: 9,
                body: Request::Replicate {
                    term: 0,
                    shard: 3,
                    seq: 17,
                    records: vec![vec![], vec![0xD7, 1, 2, 3], vec![0xD8; 64]],
                    traces: vec![0xABCD, 0xEF01],
                },
            },
            RequestFrame {
                id: 10,
                body: Request::Replicate {
                    term: 4,
                    shard: REPL_COORD_STREAM,
                    seq: 1,
                    records: vec![vec![0xFF]],
                    traces: Vec::new(),
                },
            },
            RequestFrame {
                id: 11,
                body: Request::Ping {
                    term: 3,
                    vector: vec![9, 4, 12],
                },
            },
            RequestFrame {
                id: 12,
                body: Request::Vote {
                    term: 5,
                    candidate: 2,
                    ballot: vec![9, 4, 12],
                },
            },
            RequestFrame {
                id: 13,
                body: Request::ResyncStream {
                    term: 5,
                    shard: REPL_COORD_STREAM,
                    base_seq: 12,
                    snapshot: vec![],
                },
            },
            RequestFrame {
                id: 14,
                body: Request::ResyncStream {
                    term: 5,
                    shard: 1,
                    base_seq: 4,
                    snapshot: vec![0xD7, 0, 1, 2],
                },
            },
            RequestFrame {
                id: 15,
                body: Request::ResyncCommit {
                    term: 5,
                    lineage: 5,
                },
            },
            RequestFrame {
                id: 18,
                body: Request::ClusterStatus,
            },
            RequestFrame {
                id: 19,
                body: Request::SpanDump { since: 77 },
            },
        ];
        for req in requests {
            let back = RequestFrame::decode(&req.encode()).expect("round trip");
            assert_eq!(back, req);
        }
    }

    #[test]
    fn batch_trace_lists_must_be_empty_or_pair_with_the_tasks() {
        let frame = RequestFrame {
            id: 1,
            body: Request::SubmitBatch {
                tenant: 0,
                tasks: vec![sample_task(), sample_task()],
                traces: vec![TraceContext { trace: 1, span: 2 }],
            },
        }
        .encode();
        let err = RequestFrame::decode(&frame).expect_err("mismatched trace list");
        assert!(err.to_string().contains("trace list"));
    }

    #[test]
    fn responses_round_trip() {
        let responses = vec![
            ResponseFrame {
                id: 1,
                body: Response::Hello {
                    alphas: vec![2.0, 4.0],
                },
            },
            ResponseFrame {
                id: 2,
                body: Response::Decision {
                    task: 9,
                    outcome: Outcome::Granted { allocated_at: 3.0 },
                },
            },
            ResponseFrame {
                id: 3,
                body: Response::BatchDecision {
                    decisions: vec![
                        (1, Outcome::Evicted),
                        (
                            2,
                            Outcome::Rejected {
                                code: ErrorCode::DuplicateTask,
                                message: "task id 2 is already queued or pending".into(),
                            },
                        ),
                    ],
                },
            },
            ResponseFrame {
                id: 4,
                body: Response::BlockRegistered { id: 11 },
            },
            ResponseFrame {
                id: 5,
                body: Response::Stats(WireStats {
                    submitted: 10,
                    admitted: 9,
                    rejected: 1,
                    granted: 8,
                    evicted: 1,
                    cycles: 4,
                    granted_weight: 8.0,
                    throughput: 123.5,
                    queue_depth: 2,
                    pending: 1,
                }),
            },
            ResponseFrame {
                id: 6,
                body: Response::Snapshot {
                    blocks: vec![(0, vec![0.5, 0.25]), (3, vec![])],
                },
            },
            ResponseFrame {
                id: 7,
                body: Response::Error {
                    code: ErrorCode::Protocol,
                    message: "bad".into(),
                },
            },
            ResponseFrame {
                id: 8,
                body: Response::Metrics {
                    samples: vec![
                        Sample {
                            name: "dpack_granted_total".into(),
                            labels: String::new(),
                            value: Value::Counter(42),
                        },
                        Sample {
                            name: "dpack_queue_depth".into(),
                            labels: "tenant=\"3\"".into(),
                            value: Value::Gauge(7.5),
                        },
                        Sample {
                            name: "dpack_grant_latency_nanos".into(),
                            labels: String::new(),
                            value: Value::Histogram(sample_hist()),
                        },
                    ],
                },
            },
            ResponseFrame {
                id: 9,
                body: Response::Trace {
                    events: vec![
                        dpack_obs::Event {
                            seq: 1,
                            kind: EventKind::TaskAdmitted,
                            a: 42,
                            b: 7,
                        },
                        dpack_obs::Event {
                            seq: 2,
                            kind: EventKind::TaskGranted,
                            a: 42,
                            b: 1.0f64.to_bits(),
                        },
                    ],
                },
            },
            ResponseFrame {
                id: 10,
                body: Response::ReplicateAck {
                    shard: REPL_COORD_STREAM,
                    seq: 17,
                    durable: 17,
                },
            },
            ResponseFrame {
                id: 11,
                body: Response::Pong {
                    term: 3,
                    is_primary: true,
                    lineage: 2,
                    vector: vec![9, 4, 12],
                },
            },
            ResponseFrame {
                id: 12,
                body: Response::VoteReply {
                    term: 5,
                    granted: false,
                },
            },
            ResponseFrame {
                id: 13,
                body: Response::ResyncAck {
                    stream: 1,
                    durable: 4,
                },
            },
            ResponseFrame {
                id: 14,
                body: Response::ClusterStatus(WireClusterStatus {
                    node_id: 2,
                    is_primary: true,
                    term: 9,
                    leader: 2,
                    vector: vec![17, 4],
                    peers: vec![
                        WirePeer {
                            id: 1,
                            addr: "10.0.0.1:7001".into(),
                            state: 0,
                            term: 9,
                            is_primary: false,
                            lag: vec![0, 0],
                            backoff_nanos: 0,
                            resyncs: 0,
                        },
                        WirePeer {
                            id: 3,
                            addr: String::new(),
                            state: 2,
                            term: 8,
                            is_primary: false,
                            lag: vec![17, 4],
                            backoff_nanos: 1_500_000_000,
                            resyncs: 2,
                        },
                    ],
                }),
            },
            ResponseFrame {
                id: 15,
                body: Response::SpanDump {
                    spans: vec![dpack_obs::Span {
                        seq: 1,
                        trace: 0xABCD,
                        span: 0x1234,
                        parent: 0,
                        kind: SpanKind::Grant,
                        node: 2,
                        start_nanos: 100,
                        end_nanos: 900,
                        a: 42,
                    }],
                },
            },
        ];
        for resp in responses {
            let back = ResponseFrame::decode(&resp.encode()).expect("round trip");
            assert_eq!(back, resp);
        }
    }

    #[test]
    fn over_cap_replication_batches_are_rejected_at_decode() {
        let mut buf = Vec::new();
        (9u8, 1u64).put(&mut buf); // Replicate's tag, request id
        (0u64, 0u32).put(&mut buf); // term, shard
                                    // The seq, the record count, then enough backing bytes that the
                                    // length claim itself is plausible, so the record cap (not the
                                    // length check) fires.
        1u64.put(&mut buf);
        (MAX_REPL_RECORDS + 1).put(&mut buf);
        buf.extend(std::iter::repeat_n(
            0u8,
            (MAX_REPL_RECORDS as usize + 1) * 4,
        ));
        let err = RequestFrame::decode(&buf).expect_err("over cap");
        assert!(matches!(err, NetError::Protocol(_)));
        assert!(err.to_string().contains("record cap"));
    }

    #[test]
    fn wire_tasks_rebuild_bit_exactly_or_reject_on_grid_mismatch() {
        let grid = AlphaGrid::new(vec![2.0, 4.0, 8.0]).unwrap();
        let wire = sample_task();
        let task = wire.clone().into_task(&grid).expect("3 values fit");
        assert_eq!(task.id, 42);
        assert_eq!(task.timeout, Some(7.0));
        assert_eq!(
            task.demand
                .values()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            wire.demand.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        assert_eq!(WireTask::from_task(&task), wire);
        let narrow = AlphaGrid::new(vec![2.0, 4.0]).unwrap();
        assert!(matches!(
            wire.into_task(&narrow),
            Err(AdmissionError::GridMismatch { task: 42 })
        ));
    }

    #[test]
    fn over_cap_batches_are_rejected_at_decode() {
        // Bounding the request bounds the reply: the cap is what keeps
        // a maximal BatchDecision under MAX_FRAME.
        let tiny = WireTask {
            id: 0,
            weight: 1.0,
            arrival: 0.0,
            timeout: None,
            demand: vec![],
            blocks: vec![],
        };
        let frame = |n: usize| {
            RequestFrame {
                id: 1,
                body: Request::SubmitBatch {
                    tenant: 0,
                    tasks: vec![tiny.clone(); n],
                    traces: Vec::new(),
                },
            }
            .encode()
        };
        assert!(RequestFrame::decode(&frame(MAX_BATCH_TASKS as usize)).is_ok());
        assert!(RequestFrame::decode(&frame(MAX_BATCH_TASKS as usize + 1)).is_err());
    }

    #[test]
    fn histograms_travel_sparse_and_rebuild_exactly() {
        let snap = sample_hist();
        // The payload carries only the 3 touched buckets, not 64.
        let frame = ResponseFrame {
            id: 1,
            body: Response::Metrics {
                samples: vec![Sample {
                    name: "h".into(),
                    labels: String::new(),
                    value: Value::Histogram(snap.clone()),
                }],
            },
        };
        let bytes = frame.encode();
        // tag+id+list + name+labels+kind + count/sum/max + bucket list
        // + 3 × (u16 idx + count).
        assert_eq!(bytes.len(), 9 + 4 + (5 + 4 + 1) + 24 + 4 + 3 * 10);
        let back = ResponseFrame::decode(&bytes).expect("round trip");
        let Response::Metrics { samples } = back.body else {
            panic!("metrics body");
        };
        assert_eq!(samples[0].value, Value::Histogram(snap));
    }

    #[test]
    fn unknown_event_kinds_and_value_kinds_are_protocol_errors() {
        let mut bytes = vec![9]; // Trace's response tag
        bytes.extend_from_slice(&1u64.to_le_bytes()); // request id
        bytes.extend_from_slice(&1u32.to_le_bytes()); // one event
        bytes.extend_from_slice(&1u64.to_le_bytes()); // seq
        bytes.push(99); // no such kind
        bytes.extend_from_slice(&[0u8; 16]);
        assert!(ResponseFrame::decode(&bytes).is_err());

        let mut bytes = vec![8]; // Metrics' response tag
        bytes.extend_from_slice(&1u64.to_le_bytes()); // request id
        bytes.extend_from_slice(&1u32.to_le_bytes()); // one sample
        bytes.extend_from_slice(&1u32.to_le_bytes()); // name len 1
        bytes.push(b'x');
        bytes.extend_from_slice(&0u32.to_le_bytes()); // empty labels
        bytes.push(9); // no such value kind
        bytes.extend_from_slice(&[0u8; 8]);
        assert!(ResponseFrame::decode(&bytes).is_err());
    }

    #[test]
    fn malformed_messages_are_errors_not_panics() {
        assert!(RequestFrame::decode(&[]).is_err());
        assert!(RequestFrame::decode(&[99, 0, 0, 0, 0, 0, 0, 0, 0]).is_err());
        assert!(ResponseFrame::decode(&[99, 0, 0, 0, 0, 0, 0, 0, 0]).is_err());
        // Trailing garbage is rejected.
        let mut bytes = RequestFrame {
            id: 1,
            body: Request::Stats,
        }
        .encode();
        bytes.push(0);
        assert!(RequestFrame::decode(&bytes).is_err());
        // Hostile list length: claims 2^32-1 tasks in a tiny message.
        let mut bytes = vec![3]; // SubmitBatch's request tag
        bytes.extend_from_slice(&1u64.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(RequestFrame::decode(&bytes).is_err());
    }
}
