//! Spans recorded by the benchmark around its calls into each layer,
//! the per-layer self-time table derived from them, and the three
//! decorators (`TimedStorage`, `TimedSink`, `CountingTransport`) that
//! put a span at the seams the program exposes as public traits.
//!
//! Spans stay in memory and are written out once, when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use dpack_net::wire::{frame_into, FrameDecoder};
use dpack_net::{NetError, Transport};
use dpack_service::wal::WalStorage;
use dpack_service::{ReplShipError, ReplStream, ReplicationSink};

/// One timed call. `parent` is the id (index + 1) of the span that was
/// open on the load thread when this one started; 0 means a root.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u64,
    /// Task id or cycle id the call served.
    pub request: u64,
}

/// The span store. One load-generating thread opens nested spans
/// ([`Tracer::open`]); decorator calls made on the program's own
/// threads attach as leaves under whatever the load thread has open.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
    current: AtomicU64,
}

impl Tracer {
    pub fn new() -> Arc<Self> {
        Arc::new(Self {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
            current: AtomicU64::new(0),
        })
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    fn push(&self, span: Span) -> u64 {
        let mut spans = self.spans.lock().expect("span store poisoned");
        spans.push(span);
        spans.len() as u64
    }

    /// Opens a span on the load thread; it closes when the guard drops.
    pub fn open(self: &Arc<Self>, name: &'static str, request: u64) -> OpenSpan {
        let parent = self.current.load(Ordering::Acquire);
        let start = Instant::now();
        let id = self.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: 0,
            parent,
            request,
        });
        self.current.store(id, Ordering::Release);
        OpenSpan {
            tracer: Arc::clone(self),
            id,
            parent,
        }
    }

    /// Records a finished call as a leaf under the currently open span.
    pub fn leaf(&self, name: &'static str, request: u64, start: Instant, end: Instant) {
        self.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: self.current.load(Ordering::Acquire),
            request,
        });
    }

    /// Records a child whose duration the program reported (e.g.
    /// `CycleStats::algorithm`), placed at the start of its parent and
    /// clipped to it.
    pub fn reported_child(&self, name: &'static str, request: u64, parent: &OpenSpan, nanos: u64) {
        let start_ns = {
            let spans = self.spans.lock().expect("span store poisoned");
            spans[parent.id as usize - 1].start_ns
        };
        let now = self.ns(Instant::now());
        self.push(Span {
            name,
            start_ns,
            end_ns: (start_ns + nanos).min(now),
            parent: parent.id,
            request,
        });
    }

    /// Durations (ns) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        let spans = self.spans.lock().expect("span store poisoned");
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns.saturating_sub(s.start_ns) as f64)
            .collect()
    }

    pub fn count(&self, name: &str) -> usize {
        let spans = self.spans.lock().expect("span store poisoned");
        spans.iter().filter(|s| s.name == name).count()
    }

    /// Self time per span name: a span's duration minus the part of
    /// that interval its children cover (children on worker threads may
    /// overlap each other, so the union is taken, not the sum).
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let spans = self.spans.lock().expect("span store poisoned");
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
        for s in spans.iter() {
            if s.parent != 0 {
                children[s.parent as usize - 1].push((s.start_ns, s.end_ns));
            }
        }
        let mut table: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (s, kids) in spans.iter().zip(children.iter_mut()) {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            let total = s.end_ns.saturating_sub(s.start_ns);
            let row = table.entry(s.name).or_default();
            row.calls += 1;
            row.total_ns += total;
            row.self_ns += total.saturating_sub(covered);
        }
        table
    }

    /// The trace file: every span up to `MAX_SPANS_WRITTEN`, then the
    /// self-time table over *all* spans.
    pub fn to_json(&self, workload: &str) -> String {
        const MAX_SPANS_WRITTEN: usize = 50_000;
        let table = self.self_times();
        let spans = self.spans.lock().expect("span store poisoned");
        let mut out = String::new();
        let _ = writeln!(out, "{{\"workload\": \"{workload}\",");
        let _ = writeln!(out, " \"spans_recorded\": {},", spans.len());
        let _ = writeln!(
            out,
            " \"spans_written\": {},",
            spans.len().min(MAX_SPANS_WRITTEN)
        );
        out.push_str(" \"self_time\": [\n");
        let rows: Vec<String> = table
            .iter()
            .map(|(name, t)| {
                format!(
                    "  {{\"name\": \"{name}\", \"calls\": {}, \"total_ns\": {}, \"self_ns\": {}}}",
                    t.calls, t.total_ns, t.self_ns
                )
            })
            .collect();
        out.push_str(&rows.join(",\n"));
        out.push_str("\n ],\n \"spans\": [\n");
        let rows: Vec<String> = spans
            .iter()
            .take(MAX_SPANS_WRITTEN)
            .enumerate()
            .map(|(i, s)| {
                format!(
                    "  {{\"id\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"request\": {}}}",
                    i + 1,
                    s.name,
                    s.start_ns,
                    s.end_ns,
                    s.parent,
                    s.request
                )
            })
            .collect();
        out.push_str(&rows.join(",\n"));
        out.push_str("\n ]\n}\n");
        out
    }
}

/// Calls, total time and self time of one span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct SelfTime {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// The layer a span name belongs to: the text before the first `.`.
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Self time summed per layer, largest first.
pub fn layer_table(table: &BTreeMap<&'static str, SelfTime>) -> Vec<(String, u64)> {
    let mut layers: BTreeMap<&str, u64> = BTreeMap::new();
    for (name, t) in table {
        *layers.entry(layer_of(name)).or_default() += t.self_ns;
    }
    let mut rows: Vec<(String, u64)> = layers
        .into_iter()
        .map(|(l, ns)| (l.to_string(), ns))
        .collect();
    rows.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    rows
}

/// Guard of a span opened with [`Tracer::open`].
#[derive(Debug)]
pub struct OpenSpan {
    tracer: Arc<Tracer>,
    id: u64,
    parent: u64,
}

impl Drop for OpenSpan {
    fn drop(&mut self) {
        let end = self.tracer.ns(Instant::now());
        if let Ok(mut spans) = self.tracer.spans.lock() {
            spans[self.id as usize - 1].end_ns = end;
        }
        self.tracer.current.store(self.parent, Ordering::Release);
    }
}

/// Opens a span when tracing is on; the `None` guard costs nothing.
pub fn open(tracer: Option<&Arc<Tracer>>, name: &'static str, request: u64) -> Option<OpenSpan> {
    tracer.map(|t| t.open(name, request))
}

/// What a [`TimedStorage`] saw, shared by every namespace handle
/// derived from it.
#[derive(Debug, Default)]
pub struct StorageCounters {
    pub appends: AtomicU64,
    pub append_bytes: AtomicU64,
    pub reads: AtomicU64,
    pub read_bytes: AtomicU64,
}

/// A [`WalStorage`] that times every call into the wrapped backend.
pub struct TimedStorage {
    inner: Box<dyn WalStorage>,
    tracer: Arc<Tracer>,
    counters: Arc<StorageCounters>,
}

impl TimedStorage {
    pub fn new(inner: Box<dyn WalStorage>, tracer: Arc<Tracer>) -> Self {
        Self {
            inner,
            tracer,
            counters: Arc::default(),
        }
    }

    pub fn counters(&self) -> Arc<StorageCounters> {
        Arc::clone(&self.counters)
    }

    fn wrap(&self, inner: Box<dyn WalStorage>) -> Box<dyn WalStorage> {
        Box::new(Self {
            inner,
            tracer: Arc::clone(&self.tracer),
            counters: Arc::clone(&self.counters),
        })
    }

    fn timed<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.tracer.leaf(name, 0, start, Instant::now());
        out
    }

    fn count_read(&self, result: &io::Result<Vec<u8>>) {
        if let Ok(bytes) = result {
            self.counters.reads.fetch_add(1, Ordering::Relaxed);
            self.counters
                .read_bytes
                .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        }
    }

    fn count_append(&self, data: &[u8]) {
        self.counters.appends.fetch_add(1, Ordering::Relaxed);
        self.counters
            .append_bytes
            .fetch_add(data.len() as u64, Ordering::Relaxed);
    }
}

impl WalStorage for TimedStorage {
    fn sub(&self, name: &str) -> io::Result<Box<dyn WalStorage>> {
        Ok(self.wrap(self.inner.sub(name)?))
    }

    fn list(&self) -> io::Result<Vec<String>> {
        self.timed("wal.list", || self.inner.list())
    }

    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        let out = self.timed("wal.read", || self.inner.read(name));
        self.count_read(&out);
        out
    }

    fn read_range(&self, name: &str, offset: u64, len: usize) -> io::Result<Vec<u8>> {
        let out = self.timed("wal.read_range", || {
            self.inner.read_range(name, offset, len)
        });
        self.count_read(&out);
        out
    }

    fn append(&self, name: &str, data: &[u8]) -> io::Result<()> {
        self.count_append(data);
        self.timed("wal.append_sync", || self.inner.append(name, data))
    }

    fn append_nosync(&self, name: &str, data: &[u8]) -> io::Result<()> {
        self.count_append(data);
        self.timed("wal.append_nosync", || self.inner.append_nosync(name, data))
    }

    fn truncate(&self, name: &str, len: u64) -> io::Result<()> {
        self.timed("wal.truncate", || self.inner.truncate(name, len))
    }

    fn remove(&self, name: &str) -> io::Result<()> {
        self.timed("wal.remove", || self.inner.remove(name))
    }

    fn clone_handle(&self) -> Box<dyn WalStorage> {
        self.wrap(self.inner.clone_handle())
    }
}

/// A [`ReplicationSink`] that times every ship (send + quorum wait).
#[derive(Debug)]
pub struct TimedSink {
    inner: Arc<dyn ReplicationSink>,
    tracer: Arc<Tracer>,
}

impl TimedSink {
    pub fn new(inner: Arc<dyn ReplicationSink>, tracer: Arc<Tracer>) -> Self {
        Self { inner, tracer }
    }
}

impl ReplicationSink for TimedSink {
    fn ship(&self, stream: ReplStream, records: &[&[u8]]) -> Result<(), ReplShipError> {
        let start = Instant::now();
        let out = self.inner.ship(stream, records);
        self.tracer
            .leaf("net.ship", records.len() as u64, start, Instant::now());
        out
    }
}

/// What a [`CountingTransport`] did on its socket.
#[derive(Debug, Default)]
pub struct SocketCounters {
    pub writes: AtomicU64,
    pub reads: AtomicU64,
    pub bytes_out: AtomicU64,
    pub bytes_in: AtomicU64,
}

/// The client side of one TCP connection, built from the same public
/// framing functions as the program's own `TcpTransport`, that counts
/// and times each `write`/`read` it issues. `TcpTransport` keeps its
/// stream private, so syscalls can only be counted from a transport the
/// benchmark owns.
pub struct CountingTransport {
    stream: TcpStream,
    decoder: FrameDecoder,
    scratch: Vec<u8>,
    tracer: Arc<Tracer>,
    counters: Arc<SocketCounters>,
}

impl CountingTransport {
    pub fn connect(addr: SocketAddr, tracer: Arc<Tracer>) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self {
            stream,
            decoder: FrameDecoder::new(),
            scratch: Vec::new(),
            tracer,
            counters: Arc::default(),
        })
    }

    pub fn counters(&self) -> Arc<SocketCounters> {
        Arc::clone(&self.counters)
    }
}

impl Transport for CountingTransport {
    fn send_frame(&mut self, payload: &[u8]) -> Result<(), NetError> {
        self.scratch.clear();
        frame_into(&mut self.scratch, payload);
        let start = Instant::now();
        self.stream.write_all(&self.scratch)?;
        self.tracer.leaf("net.write", 0, start, Instant::now());
        self.counters.writes.fetch_add(1, Ordering::Relaxed);
        self.counters
            .bytes_out
            .fetch_add(self.scratch.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    fn recv_frame(&mut self) -> Result<Vec<u8>, NetError> {
        loop {
            if let Some(payload) = self.decoder.next_frame()? {
                return Ok(payload);
            }
            let mut chunk = [0u8; 8192];
            let start = Instant::now();
            let n = match self.stream.read(&mut chunk) {
                Ok(0) => return Err(NetError::Closed),
                Ok(n) => n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(NetError::Io(e)),
            };
            self.tracer.leaf("net.read", 0, start, Instant::now());
            self.counters.reads.fetch_add(1, Ordering::Relaxed);
            self.counters
                .bytes_in
                .fetch_add(n as u64, Ordering::Relaxed);
            self.decoder.extend(&chunk[..n]);
        }
    }
}
