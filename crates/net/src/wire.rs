//! The wire protocol: framing and message codecs.
//!
//! # Framing
//!
//! Every message — request and response alike — travels in one frame,
//! the same magic+len+checksum discipline as the WAL's on-disk format
//! (a torn or corrupted stream is detected at the frame boundary,
//! never half-decoded):
//!
//! ```text
//! ┌──────────┬────────────┬──────────────┬──────────────┐
//! │ 0xDA  u8 │ len u32 LE │ check u64 LE │ payload[len] │
//! └──────────┴────────────┴──────────────┴──────────────┘
//! ```
//!
//! with `check = fnv1a64(len_le ‖ payload)`. A frame whose magic,
//! length bound, or checksum fails marks the stream unrecoverable —
//! unlike a log file there is no "truncate and resume" for a socket,
//! so both ends drop the connection.
//!
//! # Messages
//!
//! The payload is `tag u8 ‖ request_id u64 ‖ body`. The request id is
//! chosen by the client and echoed verbatim in the response, which is
//! what makes **pipelining** work: a client may send any number of
//! requests before reading, and the server may answer *out of order*
//! (submissions resolve at a later scheduling cycle; stats answer
//! immediately). All integers and float bit patterns are
//! little-endian; curves travel as raw `f64::to_bits` so a budget
//! round-trips bit-exactly.
//!
//! Lists carry a `u32` length validated against the bytes actually
//! remaining before any allocation, so a hostile length prefix is a
//! decode error, never a huge allocation.

use std::fmt;

use dp_accounting::AlphaGrid;
use dpack_core::problem::Task;
use dpack_obs::{Event, EventKind, HistogramSnapshot, Sample, Span, SpanKind, TraceContext, Value};
use dpack_service::wal::log::{fnv1a, FNV_INIT};
use dpack_service::AdmissionError;

use crate::error::{ErrorCode, NetError};

/// First byte of every frame (distinct from the WAL's 0xD7/0xD8 so a
/// file/socket mix-up fails loudly).
pub const MAGIC: u8 = 0xDA;
/// Frame header bytes: magic + length + checksum.
pub const HEADER: usize = 1 + 4 + 8;
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
    let len = u32::try_from(payload.len()).expect("frame exceeds u32 length");
    assert!(len <= MAX_FRAME, "frame exceeds the {MAX_FRAME}-byte cap");
    let len_le = len.to_le_bytes();
    let check = fnv1a(fnv1a(FNV_INIT, &len_le), payload);
    out.reserve(HEADER + payload.len());
    out.push(MAGIC);
    out.extend_from_slice(&len_le);
    out.extend_from_slice(&check.to_le_bytes());
    out.extend_from_slice(payload);
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
        let rest = &self.buf[self.at..];
        if rest.len() < HEADER {
            return Ok(None);
        }
        if rest[0] != MAGIC {
            return Err(NetError::Protocol(format!(
                "bad frame magic 0x{:02X}",
                rest[0]
            )));
        }
        let len = u32::from_le_bytes(rest[1..5].try_into().expect("sized slice"));
        if len > MAX_FRAME {
            return Err(NetError::Protocol(format!(
                "frame length {len} exceeds the {MAX_FRAME}-byte cap"
            )));
        }
        if rest.len() - HEADER < len as usize {
            return Ok(None);
        }
        let check = u64::from_le_bytes(rest[5..13].try_into().expect("sized slice"));
        let payload = &rest[HEADER..HEADER + len as usize];
        if fnv1a(fnv1a(FNV_INIT, &len.to_le_bytes()), payload) != check {
            return Err(NetError::Protocol("frame checksum mismatch".into()));
        }
        let payload = payload.to_vec();
        self.at += HEADER + len as usize;
        Ok(Some(payload))
    }

    /// Bytes buffered but not yet consumed.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.at
    }
}

// ---- primitive codec --------------------------------------------------

fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    put_u64(buf, v.to_bits());
}

fn put_len(buf: &mut Vec<u8>, n: usize) {
    put_u32(buf, u32::try_from(n).expect("list exceeds u32 length"));
}

fn put_f64s(buf: &mut Vec<u8>, vs: &[f64]) {
    put_len(buf, vs.len());
    for v in vs {
        put_f64(buf, *v);
    }
}

fn put_u64s(buf: &mut Vec<u8>, vs: &[u64]) {
    put_len(buf, vs.len());
    for v in vs {
        put_u64(buf, *v);
    }
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_len(buf, s.len());
    buf.extend_from_slice(s.as_bytes());
}

fn bad(what: impl Into<String>) -> NetError {
    NetError::Protocol(what.into())
}

struct Reader<'a> {
    bytes: &'a [u8],
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], NetError> {
        if self.bytes.len() < n {
            return Err(bad("message truncated"));
        }
        let (head, tail) = self.bytes.split_at(n);
        self.bytes = tail;
        Ok(head)
    }

    fn u8(&mut self) -> Result<u8, NetError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, NetError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("sized")))
    }

    fn u32(&mut self) -> Result<u32, NetError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("sized")))
    }

    fn u64(&mut self) -> Result<u64, NetError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("sized")))
    }

    fn f64(&mut self) -> Result<f64, NetError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A list length validated against the bytes actually remaining
    /// (`elem_bytes` per element) — a hostile length prefix must be a
    /// protocol error, never an allocation request.
    fn list_len(&mut self, elem_bytes: usize) -> Result<usize, NetError> {
        let n = self.u32()? as usize;
        if n.checked_mul(elem_bytes)
            .is_none_or(|b| b > self.bytes.len())
        {
            return Err(bad("list length exceeds the message"));
        }
        Ok(n)
    }

    fn f64s(&mut self) -> Result<Vec<f64>, NetError> {
        let n = self.list_len(8)?;
        (0..n).map(|_| self.f64()).collect()
    }

    fn u64s(&mut self) -> Result<Vec<u64>, NetError> {
        let n = self.list_len(8)?;
        (0..n).map(|_| self.u64()).collect()
    }

    fn str(&mut self) -> Result<String, NetError> {
        let n = self.list_len(1)?;
        String::from_utf8(self.take(n)?.to_vec()).map_err(|_| bad("string is not utf-8"))
    }

    /// A length-prefixed byte blob (opaque record payloads).
    fn blob(&mut self) -> Result<Vec<u8>, NetError> {
        let n = self.list_len(1)?;
        Ok(self.take(n)?.to_vec())
    }

    fn done(self) -> Result<(), NetError> {
        if self.bytes.is_empty() {
            Ok(())
        } else {
            Err(bad("trailing bytes after message"))
        }
    }
}

// ---- task / block payloads -------------------------------------------

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

    fn encode_into(&self, buf: &mut Vec<u8>) {
        put_u64(buf, self.id);
        put_f64(buf, self.weight);
        put_f64(buf, self.arrival);
        match self.timeout {
            Some(t) => {
                buf.push(1);
                put_f64(buf, t);
            }
            None => buf.push(0),
        }
        put_f64s(buf, &self.demand);
        put_u64s(buf, &self.blocks);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, NetError> {
        let id = r.u64()?;
        let weight = r.f64()?;
        let arrival = r.f64()?;
        let timeout = match r.u8()? {
            0 => None,
            1 => Some(r.f64()?),
            t => return Err(bad(format!("bad timeout flag {t}"))),
        };
        Ok(Self {
            id,
            weight,
            arrival,
            timeout,
            demand: r.f64s()?,
            blocks: r.u64s()?,
        })
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

    fn encode_into(&self, buf: &mut Vec<u8>) {
        match self {
            Self::Granted { allocated_at } => {
                buf.push(1);
                put_f64(buf, *allocated_at);
            }
            Self::Rejected { code, message } => {
                buf.push(2);
                put_u16(buf, code.as_u16());
                put_str(buf, message);
            }
            Self::Evicted => buf.push(3),
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, NetError> {
        Ok(match r.u8()? {
            1 => Self::Granted {
                allocated_at: r.f64()?,
            },
            2 => {
                let raw = r.u16()?;
                let code = ErrorCode::from_u16(raw)
                    .ok_or_else(|| bad(format!("unknown error code {raw}")))?;
                Self::Rejected {
                    code,
                    message: r.str()?,
                }
            }
            3 => Self::Evicted,
            t => return Err(bad(format!("unknown outcome tag {t}"))),
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

impl WireStats {
    fn encode_into(&self, buf: &mut Vec<u8>) {
        for v in [
            self.submitted,
            self.admitted,
            self.rejected,
            self.granted,
            self.evicted,
            self.cycles,
        ] {
            put_u64(buf, v);
        }
        put_f64(buf, self.granted_weight);
        put_f64(buf, self.throughput);
        put_u64(buf, self.queue_depth);
        put_u64(buf, self.pending);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, NetError> {
        Ok(Self {
            submitted: r.u64()?,
            admitted: r.u64()?,
            rejected: r.u64()?,
            granted: r.u64()?,
            evicted: r.u64()?,
            cycles: r.u64()?,
            granted_weight: r.f64()?,
            throughput: r.f64()?,
            queue_depth: r.u64()?,
            pending: r.u64()?,
        })
    }
}

/// A peer as one node sees it, inside a [`WireClusterStatus`].
#[derive(Debug, Clone, PartialEq)]
pub struct WirePeer {
    /// The peer's node id.
    pub id: u64,
    /// The peer's advertised address.
    pub addr: String,
    /// Failure-detector state: 0 = up, 1 = suspect, 2 = down.
    pub state: u8,
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

impl WirePeer {
    fn encode_into(&self, buf: &mut Vec<u8>) {
        put_u64(buf, self.id);
        put_str(buf, &self.addr);
        buf.push(self.state);
        put_u64(buf, self.term);
        buf.push(u8::from(self.is_primary));
        put_u64s(buf, &self.lag);
        put_u64(buf, self.backoff_nanos);
        put_u64(buf, self.resyncs);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, NetError> {
        Ok(Self {
            id: r.u64()?,
            addr: r.str()?,
            state: match r.u8()? {
                s @ 0..=2 => s,
                s => return Err(bad(format!("bad peer state {s}"))),
            },
            term: r.u64()?,
            is_primary: match r.u8()? {
                0 => false,
                1 => true,
                t => return Err(bad(format!("bad primary flag {t}"))),
            },
            lag: r.u64s()?,
            backoff_nanos: r.u64()?,
            resyncs: r.u64()?,
        })
    }
}

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

impl WireClusterStatus {
    fn encode_into(&self, buf: &mut Vec<u8>) {
        put_u64(buf, self.node_id);
        buf.push(u8::from(self.is_primary));
        put_u64(buf, self.term);
        put_u64(buf, self.leader);
        put_u64s(buf, &self.vector);
        put_len(buf, self.peers.len());
        for p in &self.peers {
            p.encode_into(buf);
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, NetError> {
        let node_id = r.u64()?;
        let is_primary = match r.u8()? {
            0 => false,
            1 => true,
            t => return Err(bad(format!("bad primary flag {t}"))),
        };
        let term = r.u64()?;
        let leader = r.u64()?;
        let vector = r.u64s()?;
        // A peer is at least id + addr len + state + term + flag +
        // lag len + backoff + resyncs = 42 bytes.
        let n = r.list_len(42)?;
        let peers = (0..n)
            .map(|_| WirePeer::decode(&mut *r))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            node_id,
            is_primary,
            term,
            leader,
            vector,
            peers,
        })
    }
}

// ---- observability payloads ------------------------------------------

// A [`dpack_obs::Value`] travels as a kind byte + body. Histograms go
// sparse: only non-empty buckets are sent (a idle histogram is 3 words
// + an empty list, not 64 buckets of zero).
const VALUE_COUNTER: u8 = 0;
const VALUE_GAUGE: u8 = 1;
const VALUE_HISTOGRAM: u8 = 2;

fn encode_sample(buf: &mut Vec<u8>, s: &Sample) {
    put_str(buf, &s.name);
    put_str(buf, &s.labels);
    match &s.value {
        Value::Counter(n) => {
            buf.push(VALUE_COUNTER);
            put_u64(buf, *n);
        }
        Value::Gauge(v) => {
            buf.push(VALUE_GAUGE);
            put_f64(buf, *v);
        }
        Value::Histogram(h) => {
            buf.push(VALUE_HISTOGRAM);
            put_u64(buf, h.count);
            put_u64(buf, h.sum);
            put_u64(buf, h.max);
            let nonzero = h.nonzero_buckets();
            put_len(buf, nonzero.len());
            for (idx, count) in nonzero {
                put_u16(buf, idx);
                put_u64(buf, count);
            }
        }
    }
}

fn decode_sample(r: &mut Reader<'_>) -> Result<Sample, NetError> {
    let name = r.str()?;
    let labels = r.str()?;
    let value = match r.u8()? {
        VALUE_COUNTER => Value::Counter(r.u64()?),
        VALUE_GAUGE => Value::Gauge(r.f64()?),
        VALUE_HISTOGRAM => {
            let count = r.u64()?;
            let sum = r.u64()?;
            let max = r.u64()?;
            // A bucket entry is a u16 index + count = 10 bytes (the
            // log-linear histogram has more than 256 buckets).
            let n = r.list_len(10)?;
            let buckets = (0..n)
                .map(|_| Ok((r.u16()?, r.u64()?)))
                .collect::<Result<Vec<_>, NetError>>()?;
            Value::Histogram(Box::new(HistogramSnapshot::from_parts(
                count, sum, max, &buckets,
            )))
        }
        t => return Err(bad(format!("unknown metric value kind {t}"))),
    };
    Ok(Sample {
        name,
        labels,
        value,
    })
}

fn encode_span(buf: &mut Vec<u8>, s: &Span) {
    put_u64(buf, s.seq);
    put_u64(buf, s.trace);
    put_u64(buf, s.span);
    put_u64(buf, s.parent);
    buf.push(s.kind as u8);
    put_u64(buf, s.node);
    put_u64(buf, s.start_nanos);
    put_u64(buf, s.end_nanos);
    put_u64(buf, s.a);
}

/// Bytes one encoded span occupies (eight words + the kind byte) —
/// the `list_len` element bound and the reply-budget divisor.
pub const SPAN_WIRE_BYTES: usize = 8 * 8 + 1;

fn decode_span(r: &mut Reader<'_>) -> Result<Span, NetError> {
    let seq = r.u64()?;
    let trace = r.u64()?;
    let span = r.u64()?;
    let parent = r.u64()?;
    let raw = r.u8()?;
    let kind = SpanKind::from_u8(raw).ok_or_else(|| bad(format!("unknown span kind {raw}")))?;
    Ok(Span {
        seq,
        trace,
        span,
        parent,
        kind,
        node: r.u64()?,
        start_nanos: r.u64()?,
        end_nanos: r.u64()?,
        a: r.u64()?,
    })
}

fn encode_trace_ctx(buf: &mut Vec<u8>, ctx: &TraceContext) {
    put_u64(buf, ctx.trace);
    put_u64(buf, ctx.span);
}

fn decode_trace_ctx(r: &mut Reader<'_>) -> Result<TraceContext, NetError> {
    Ok(TraceContext {
        trace: r.u64()?,
        span: r.u64()?,
    })
}

fn encode_event(buf: &mut Vec<u8>, e: &Event) {
    put_u64(buf, e.seq);
    buf.push(e.kind as u8);
    put_u64(buf, e.a);
    put_u64(buf, e.b);
}

fn decode_event(r: &mut Reader<'_>) -> Result<Event, NetError> {
    let seq = r.u64()?;
    let raw = r.u8()?;
    let kind = EventKind::from_u8(raw).ok_or_else(|| bad(format!("unknown event kind {raw}")))?;
    Ok(Event {
        seq,
        kind,
        a: r.u64()?,
        b: r.u64()?,
    })
}

// ---- requests ---------------------------------------------------------

const REQ_HELLO: u8 = 1;
const REQ_SUBMIT: u8 = 2;
const REQ_SUBMIT_BATCH: u8 = 3;
const REQ_REGISTER_BLOCK: u8 = 4;
const REQ_STATS: u8 = 5;
const REQ_SNAPSHOT: u8 = 6;
const REQ_METRICS: u8 = 7;
const REQ_TRACE: u8 = 8;
const REQ_REPLICATE: u8 = 9;
const REQ_PING: u8 = 10;
const REQ_VOTE: u8 = 11;
const REQ_RESYNC_STREAM: u8 = 12;
const REQ_RESYNC_COMMIT: u8 = 13;
const REQ_CLUSTER_STATUS: u8 = 14;
const REQ_SPAN_DUMP: u8 = 15;

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

/// A client request body.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Protocol handshake: asks for the service's alpha grid so the
    /// tenant can build demand curves that fit. On a node configured
    /// with a shared secret, `token` must match or the handshake is
    /// refused [`ErrorCode::Unauthorized`] — and every other request
    /// on the connection is refused until a handshake succeeds.
    Hello {
        /// Optional shared-secret token (compared in constant time).
        token: Option<String>,
    },
    /// Submit one task; the response is the **final decision**.
    Submit {
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
    SubmitBatch {
        /// The submitting tenant.
        tenant: u32,
        /// The tasks, decided independently.
        tasks: Vec<WireTask>,
        /// Per-task trace contexts: empty (nothing traced) or exactly
        /// one per task, in task order.
        traces: Vec<TraceContext>,
    },
    /// Register a data block (arrives with its full capacity curve).
    RegisterBlock {
        /// The block id.
        id: u64,
        /// Arrival in virtual time.
        arrival: f64,
        /// Per-order capacity values (bit-exact).
        capacity: Vec<f64>,
    },
    /// Read the service counters.
    Stats,
    /// Read every block's available budget at a virtual time.
    Snapshot {
        /// The §3.4 unlocking time to evaluate at.
        now: f64,
    },
    /// Scrape the service's metrics registry (counters, gauges,
    /// histograms) as one point-in-time snapshot.
    Metrics,
    /// Dump the service's flight recorder from a sequence number
    /// (`since = 0` for everything retained); a scraper remembers the
    /// last seq it saw and asks incrementally.
    Trace {
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
    Replicate {
        /// The shipping primary's election term (0 before any
        /// election).
        term: u64,
        /// Stream address: shard index, or [`REPL_COORD_STREAM`].
        shard: u32,
        /// Per-stream batch sequence number, from 1.
        seq: u64,
        /// The record payloads, exactly as appended on the primary.
        records: Vec<Vec<u8>>,
        /// Trace ids of the traced grants in this batch: the replica
        /// derives every span id it records from these alone, so the
        /// ship carries no span structure.
        traces: Vec<u64>,
    },
    /// Failure-detector heartbeat. Carries the sender's term and its
    /// durable per-stream sequence vector (shards in index order, then
    /// the coordinator stream) so peers can cheaply judge how current
    /// it is; the [`Response::Pong`] reply carries the receiver's.
    Ping {
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
    Vote {
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
    ResyncStream {
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
    ResyncCommit {
        /// The installing primary's term.
        term: u64,
        /// The lineage to persist (the installing primary's term).
        lineage: u64,
    },
    /// Cluster introspection: the node's own role/term/vector plus its
    /// view of every peer (state, term, per-stream replication lag on
    /// the primary, resync/backoff state). Served by every node.
    ClusterStatus,
    /// Dump the node's span ring from a sequence number (`since = 0`
    /// for everything retained) — the per-node half of cross-node
    /// trace assembly. Paginated exactly like [`Request::Trace`].
    SpanDump {
        /// Only spans with `seq >= since` are returned.
        since: u64,
    },
}

/// A framed request: client-chosen id + body. The id is echoed in the
/// response, enabling pipelining and out-of-order completion.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestFrame {
    /// Client-chosen correlation id.
    pub id: u64,
    /// The request body.
    pub body: Request,
}

impl RequestFrame {
    /// Serializes the message payload (unframed).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        match &self.body {
            Request::Hello { token } => {
                buf.push(REQ_HELLO);
                put_u64(&mut buf, self.id);
                match token {
                    Some(t) => {
                        buf.push(1);
                        put_str(&mut buf, t);
                    }
                    None => buf.push(0),
                }
            }
            Request::Submit {
                tenant,
                task,
                trace,
            } => {
                buf.push(REQ_SUBMIT);
                put_u64(&mut buf, self.id);
                put_u32(&mut buf, *tenant);
                task.encode_into(&mut buf);
                match trace {
                    Some(ctx) => {
                        buf.push(1);
                        encode_trace_ctx(&mut buf, ctx);
                    }
                    None => buf.push(0),
                }
            }
            Request::SubmitBatch {
                tenant,
                tasks,
                traces,
            } => {
                buf.push(REQ_SUBMIT_BATCH);
                put_u64(&mut buf, self.id);
                put_u32(&mut buf, *tenant);
                put_len(&mut buf, tasks.len());
                for t in tasks {
                    t.encode_into(&mut buf);
                }
                put_len(&mut buf, traces.len());
                for ctx in traces {
                    encode_trace_ctx(&mut buf, ctx);
                }
            }
            Request::RegisterBlock {
                id,
                arrival,
                capacity,
            } => {
                buf.push(REQ_REGISTER_BLOCK);
                put_u64(&mut buf, self.id);
                put_u64(&mut buf, *id);
                put_f64(&mut buf, *arrival);
                put_f64s(&mut buf, capacity);
            }
            Request::Stats => {
                buf.push(REQ_STATS);
                put_u64(&mut buf, self.id);
            }
            Request::Snapshot { now } => {
                buf.push(REQ_SNAPSHOT);
                put_u64(&mut buf, self.id);
                put_f64(&mut buf, *now);
            }
            Request::Metrics => {
                buf.push(REQ_METRICS);
                put_u64(&mut buf, self.id);
            }
            Request::Trace { since } => {
                buf.push(REQ_TRACE);
                put_u64(&mut buf, self.id);
                put_u64(&mut buf, *since);
            }
            Request::Replicate {
                term,
                shard,
                seq,
                records,
                traces,
            } => {
                buf.push(REQ_REPLICATE);
                put_u64(&mut buf, self.id);
                put_u64(&mut buf, *term);
                put_u32(&mut buf, *shard);
                put_u64(&mut buf, *seq);
                put_len(&mut buf, records.len());
                for r in records {
                    put_len(&mut buf, r.len());
                    buf.extend_from_slice(r);
                }
                put_u64s(&mut buf, traces);
            }
            Request::Ping { term, vector } => {
                buf.push(REQ_PING);
                put_u64(&mut buf, self.id);
                put_u64(&mut buf, *term);
                put_u64s(&mut buf, vector);
            }
            Request::Vote {
                term,
                candidate,
                ballot,
            } => {
                buf.push(REQ_VOTE);
                put_u64(&mut buf, self.id);
                put_u64(&mut buf, *term);
                put_u64(&mut buf, *candidate);
                put_u64s(&mut buf, ballot);
            }
            Request::ResyncStream {
                term,
                shard,
                base_seq,
                snapshot,
            } => {
                buf.push(REQ_RESYNC_STREAM);
                put_u64(&mut buf, self.id);
                put_u64(&mut buf, *term);
                put_u32(&mut buf, *shard);
                put_u64(&mut buf, *base_seq);
                put_len(&mut buf, snapshot.len());
                buf.extend_from_slice(snapshot);
            }
            Request::ResyncCommit { term, lineage } => {
                buf.push(REQ_RESYNC_COMMIT);
                put_u64(&mut buf, self.id);
                put_u64(&mut buf, *term);
                put_u64(&mut buf, *lineage);
            }
            Request::ClusterStatus => {
                buf.push(REQ_CLUSTER_STATUS);
                put_u64(&mut buf, self.id);
            }
            Request::SpanDump { since } => {
                buf.push(REQ_SPAN_DUMP);
                put_u64(&mut buf, self.id);
                put_u64(&mut buf, *since);
            }
        }
        buf
    }

    /// Deserializes a message payload.
    ///
    /// # Errors
    ///
    /// [`NetError::Protocol`] on an unknown tag, malformed body, or
    /// trailing bytes.
    pub fn decode(bytes: &[u8]) -> Result<Self, NetError> {
        let mut r = Reader::new(bytes);
        let tag = r.u8()?;
        let id = r.u64()?;
        let body = match tag {
            REQ_HELLO => Request::Hello {
                token: match r.u8()? {
                    0 => None,
                    1 => Some(r.str()?),
                    t => return Err(bad(format!("bad token flag {t}"))),
                },
            },
            REQ_SUBMIT => Request::Submit {
                tenant: r.u32()?,
                task: WireTask::decode(&mut r)?,
                trace: match r.u8()? {
                    0 => None,
                    1 => Some(decode_trace_ctx(&mut r)?),
                    t => return Err(bad(format!("bad trace flag {t}"))),
                },
            },
            REQ_SUBMIT_BATCH => {
                let tenant = r.u32()?;
                // A task is at least id+weight+arrival+flag+two list
                // lengths = 33 bytes.
                let n = r.list_len(33)?;
                if n > MAX_BATCH_TASKS as usize {
                    return Err(bad(format!(
                        "batch of {n} tasks exceeds the {MAX_BATCH_TASKS}-task cap"
                    )));
                }
                let tasks = (0..n)
                    .map(|_| WireTask::decode(&mut r))
                    .collect::<Result<Vec<_>, _>>()?;
                let nt = r.list_len(16)?;
                if nt != 0 && nt != tasks.len() {
                    return Err(bad(
                        "batch trace list must be empty or match the task count",
                    ));
                }
                let traces = (0..nt)
                    .map(|_| decode_trace_ctx(&mut r))
                    .collect::<Result<Vec<_>, _>>()?;
                Request::SubmitBatch {
                    tenant,
                    tasks,
                    traces,
                }
            }
            REQ_REGISTER_BLOCK => Request::RegisterBlock {
                id: r.u64()?,
                arrival: r.f64()?,
                capacity: r.f64s()?,
            },
            REQ_STATS => Request::Stats,
            REQ_SNAPSHOT => Request::Snapshot { now: r.f64()? },
            REQ_METRICS => Request::Metrics,
            REQ_TRACE => Request::Trace { since: r.u64()? },
            REQ_REPLICATE => {
                let term = r.u64()?;
                let shard = r.u32()?;
                let seq = r.u64()?;
                // A record is at least its own length prefix.
                let n = r.list_len(4)?;
                if n > MAX_REPL_RECORDS as usize {
                    return Err(bad(format!(
                        "replication batch of {n} records exceeds the {MAX_REPL_RECORDS}-record cap"
                    )));
                }
                let records = (0..n).map(|_| r.blob()).collect::<Result<Vec<_>, _>>()?;
                let nt = r.list_len(8)?;
                if nt > MAX_REPL_TRACES as usize {
                    return Err(bad(format!(
                        "replication batch of {nt} traces exceeds the {MAX_REPL_TRACES}-trace cap"
                    )));
                }
                let traces = (0..nt).map(|_| r.u64()).collect::<Result<Vec<_>, _>>()?;
                Request::Replicate {
                    term,
                    shard,
                    seq,
                    records,
                    traces,
                }
            }
            REQ_PING => Request::Ping {
                term: r.u64()?,
                vector: r.u64s()?,
            },
            REQ_VOTE => Request::Vote {
                term: r.u64()?,
                candidate: r.u64()?,
                ballot: r.u64s()?,
            },
            REQ_RESYNC_STREAM => Request::ResyncStream {
                term: r.u64()?,
                shard: r.u32()?,
                base_seq: r.u64()?,
                snapshot: r.blob()?,
            },
            REQ_RESYNC_COMMIT => Request::ResyncCommit {
                term: r.u64()?,
                lineage: r.u64()?,
            },
            REQ_CLUSTER_STATUS => Request::ClusterStatus,
            REQ_SPAN_DUMP => Request::SpanDump { since: r.u64()? },
            t => return Err(bad(format!("unknown request tag {t}"))),
        };
        r.done()?;
        Ok(Self { id, body })
    }
}

// ---- responses --------------------------------------------------------

const RESP_HELLO: u8 = 1;
const RESP_DECISION: u8 = 2;
const RESP_BATCH: u8 = 3;
const RESP_BLOCK_REGISTERED: u8 = 4;
const RESP_STATS: u8 = 5;
const RESP_SNAPSHOT: u8 = 6;
const RESP_ERROR: u8 = 7;
const RESP_METRICS: u8 = 8;
const RESP_TRACE: u8 = 9;
const RESP_REPLICATE_ACK: u8 = 10;
const RESP_PONG: u8 = 11;
const RESP_VOTE_REPLY: u8 = 12;
const RESP_RESYNC_ACK: u8 = 13;
const RESP_CLUSTER_STATUS: u8 = 14;
const RESP_SPAN_DUMP: u8 = 15;

/// A server response body.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The handshake answer: the service's Rényi orders.
    Hello {
        /// The alpha grid, ascending.
        alphas: Vec<f64>,
    },
    /// The final decision for one submitted task.
    Decision {
        /// The task the decision is for.
        task: u64,
        /// Its outcome.
        outcome: Outcome,
    },
    /// The final decisions for a batch, in submission order.
    BatchDecision {
        /// `(task id, outcome)` per submitted task.
        decisions: Vec<(u64, Outcome)>,
    },
    /// The block was registered.
    BlockRegistered {
        /// The registered block id.
        id: u64,
    },
    /// The service counters.
    Stats(WireStats),
    /// Every block's available budget values at the requested time.
    Snapshot {
        /// `(block id, per-order available values)` ascending by id.
        blocks: Vec<(u64, Vec<f64>)>,
    },
    /// The request failed; the code is stable.
    Error {
        /// The stable failure code.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// The metrics snapshot, sorted by (name, labels). Rebuild a
    /// [`dpack_obs::MetricsSnapshot`] from it for rendering.
    Metrics {
        /// Every registered instrument's sampled value.
        samples: Vec<Sample>,
    },
    /// The flight-recorder dump, in sequence order.
    Trace {
        /// The retained events matching the request's `since`.
        events: Vec<Event>,
    },
    /// Replica → primary: the batch is durable. `durable` is the
    /// stream's highest contiguously applied sequence number, so a
    /// duplicate delivery acks idempotently (`durable >= seq`) and the
    /// primary can compute replication lag.
    ReplicateAck {
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
    Pong {
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
    VoteReply {
        /// The voter's current term after processing the request.
        term: u64,
        /// Whether the vote was granted.
        granted: bool,
    },
    /// Catch-up acknowledgement: the install (or commit) is durable.
    ResyncAck {
        /// The echoed stream address (a commit ack echoes
        /// [`REPL_COORD_STREAM`]'s value; the pairing request
        /// disambiguates).
        stream: u32,
        /// The stream's new durable seq (the install's `base_seq`; a
        /// commit ack echoes the persisted lineage).
        durable: u64,
    },
    /// The node's introspection answer.
    ClusterStatus(WireClusterStatus),
    /// The span-ring dump, in sequence order.
    SpanDump {
        /// The retained spans matching the request's `since`.
        spans: Vec<Span>,
    },
}

/// A framed response: the echoed request id + body.
#[derive(Debug, Clone, PartialEq)]
pub struct ResponseFrame {
    /// The request id this answers.
    pub id: u64,
    /// The response body.
    pub body: Response,
}

impl ResponseFrame {
    /// Serializes the message payload (unframed).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        match &self.body {
            Response::Hello { alphas } => {
                buf.push(RESP_HELLO);
                put_u64(&mut buf, self.id);
                put_f64s(&mut buf, alphas);
            }
            Response::Decision { task, outcome } => {
                buf.push(RESP_DECISION);
                put_u64(&mut buf, self.id);
                put_u64(&mut buf, *task);
                outcome.encode_into(&mut buf);
            }
            Response::BatchDecision { decisions } => {
                buf.push(RESP_BATCH);
                put_u64(&mut buf, self.id);
                put_len(&mut buf, decisions.len());
                for (task, outcome) in decisions {
                    put_u64(&mut buf, *task);
                    outcome.encode_into(&mut buf);
                }
            }
            Response::BlockRegistered { id } => {
                buf.push(RESP_BLOCK_REGISTERED);
                put_u64(&mut buf, self.id);
                put_u64(&mut buf, *id);
            }
            Response::Stats(stats) => {
                buf.push(RESP_STATS);
                put_u64(&mut buf, self.id);
                stats.encode_into(&mut buf);
            }
            Response::Snapshot { blocks } => {
                buf.push(RESP_SNAPSHOT);
                put_u64(&mut buf, self.id);
                put_len(&mut buf, blocks.len());
                for (id, values) in blocks {
                    put_u64(&mut buf, *id);
                    put_f64s(&mut buf, values);
                }
            }
            Response::Error { code, message } => {
                buf.push(RESP_ERROR);
                put_u64(&mut buf, self.id);
                put_u16(&mut buf, code.as_u16());
                put_str(&mut buf, message);
            }
            Response::Metrics { samples } => {
                buf.push(RESP_METRICS);
                put_u64(&mut buf, self.id);
                put_len(&mut buf, samples.len());
                for s in samples {
                    encode_sample(&mut buf, s);
                }
            }
            Response::Trace { events } => {
                buf.push(RESP_TRACE);
                put_u64(&mut buf, self.id);
                put_len(&mut buf, events.len());
                for e in events {
                    encode_event(&mut buf, e);
                }
            }
            Response::ReplicateAck {
                shard,
                seq,
                durable,
            } => {
                buf.push(RESP_REPLICATE_ACK);
                put_u64(&mut buf, self.id);
                put_u32(&mut buf, *shard);
                put_u64(&mut buf, *seq);
                put_u64(&mut buf, *durable);
            }
            Response::Pong {
                term,
                is_primary,
                lineage,
                vector,
            } => {
                buf.push(RESP_PONG);
                put_u64(&mut buf, self.id);
                put_u64(&mut buf, *term);
                buf.push(u8::from(*is_primary));
                put_u64(&mut buf, *lineage);
                put_u64s(&mut buf, vector);
            }
            Response::VoteReply { term, granted } => {
                buf.push(RESP_VOTE_REPLY);
                put_u64(&mut buf, self.id);
                put_u64(&mut buf, *term);
                buf.push(u8::from(*granted));
            }
            Response::ResyncAck { stream, durable } => {
                buf.push(RESP_RESYNC_ACK);
                put_u64(&mut buf, self.id);
                put_u32(&mut buf, *stream);
                put_u64(&mut buf, *durable);
            }
            Response::ClusterStatus(status) => {
                buf.push(RESP_CLUSTER_STATUS);
                put_u64(&mut buf, self.id);
                status.encode_into(&mut buf);
            }
            Response::SpanDump { spans } => {
                buf.push(RESP_SPAN_DUMP);
                put_u64(&mut buf, self.id);
                put_len(&mut buf, spans.len());
                for s in spans {
                    encode_span(&mut buf, s);
                }
            }
        }
        buf
    }

    /// Deserializes a message payload.
    ///
    /// # Errors
    ///
    /// [`NetError::Protocol`] on an unknown tag, malformed body, or
    /// trailing bytes.
    pub fn decode(bytes: &[u8]) -> Result<Self, NetError> {
        let mut r = Reader::new(bytes);
        let tag = r.u8()?;
        let id = r.u64()?;
        let body = match tag {
            RESP_HELLO => Response::Hello { alphas: r.f64s()? },
            RESP_DECISION => Response::Decision {
                task: r.u64()?,
                outcome: Outcome::decode(&mut r)?,
            },
            RESP_BATCH => {
                // A decision is at least task id + outcome tag = 9.
                let n = r.list_len(9)?;
                let decisions = (0..n)
                    .map(|_| Ok((r.u64()?, Outcome::decode(&mut r)?)))
                    .collect::<Result<Vec<_>, NetError>>()?;
                Response::BatchDecision { decisions }
            }
            RESP_BLOCK_REGISTERED => Response::BlockRegistered { id: r.u64()? },
            RESP_STATS => Response::Stats(WireStats::decode(&mut r)?),
            RESP_SNAPSHOT => {
                // A snapshot entry is at least id + list length = 12.
                let n = r.list_len(12)?;
                let blocks = (0..n)
                    .map(|_| Ok((r.u64()?, r.f64s()?)))
                    .collect::<Result<Vec<_>, NetError>>()?;
                Response::Snapshot { blocks }
            }
            RESP_ERROR => {
                let raw = r.u16()?;
                let code = ErrorCode::from_u16(raw)
                    .ok_or_else(|| bad(format!("unknown error code {raw}")))?;
                Response::Error {
                    code,
                    message: r.str()?,
                }
            }
            RESP_METRICS => {
                // A sample is at least two list lengths + kind + one
                // word = 17 bytes.
                let n = r.list_len(17)?;
                let samples = (0..n)
                    .map(|_| decode_sample(&mut r))
                    .collect::<Result<Vec<_>, _>>()?;
                Response::Metrics { samples }
            }
            RESP_TRACE => {
                // An event is seq + kind + two payload words = 25 bytes.
                let n = r.list_len(25)?;
                let events = (0..n)
                    .map(|_| decode_event(&mut r))
                    .collect::<Result<Vec<_>, _>>()?;
                Response::Trace { events }
            }
            RESP_REPLICATE_ACK => Response::ReplicateAck {
                shard: r.u32()?,
                seq: r.u64()?,
                durable: r.u64()?,
            },
            RESP_PONG => Response::Pong {
                term: r.u64()?,
                is_primary: match r.u8()? {
                    0 => false,
                    1 => true,
                    t => return Err(bad(format!("bad primary flag {t}"))),
                },
                lineage: r.u64()?,
                vector: r.u64s()?,
            },
            RESP_VOTE_REPLY => Response::VoteReply {
                term: r.u64()?,
                granted: match r.u8()? {
                    0 => false,
                    1 => true,
                    t => return Err(bad(format!("bad granted flag {t}"))),
                },
            },
            RESP_RESYNC_ACK => Response::ResyncAck {
                stream: r.u32()?,
                durable: r.u64()?,
            },
            RESP_CLUSTER_STATUS => Response::ClusterStatus(WireClusterStatus::decode(&mut r)?),
            RESP_SPAN_DUMP => {
                let n = r.list_len(SPAN_WIRE_BYTES)?;
                let spans = (0..n)
                    .map(|_| decode_span(&mut r))
                    .collect::<Result<Vec<_>, _>>()?;
                Response::SpanDump { spans }
            }
            t => return Err(bad(format!("unknown response tag {t}"))),
        };
        r.done()?;
        Ok(Self { id, body })
    }
}

#[cfg(test)]
mod tests {
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
        buf.push(REQ_REPLICATE);
        put_u64(&mut buf, 1); // request id
        put_u64(&mut buf, 0); // term
        put_u32(&mut buf, 0); // shard
        put_u64(&mut buf, 1); // seq
        put_len(&mut buf, MAX_REPL_RECORDS as usize + 1);
        // Enough backing bytes that the length claim itself is
        // plausible, so the record cap (not the length check) fires.
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
        let mut bytes = vec![RESP_TRACE];
        bytes.extend_from_slice(&1u64.to_le_bytes()); // request id
        bytes.extend_from_slice(&1u32.to_le_bytes()); // one event
        bytes.extend_from_slice(&1u64.to_le_bytes()); // seq
        bytes.push(99); // no such kind
        bytes.extend_from_slice(&[0u8; 16]);
        assert!(ResponseFrame::decode(&bytes).is_err());

        let mut bytes = vec![RESP_METRICS];
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
        let mut bytes = vec![REQ_SUBMIT_BATCH];
        bytes.extend_from_slice(&1u64.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(RequestFrame::decode(&bytes).is_err());
    }
}
