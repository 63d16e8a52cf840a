//! `dpack-obs`: the observability spine of the DPack service stack.
//!
//! The paper's operational claims (§6.4: "system-related overheads
//! dominate runtime"; the Fig. 8 latency regime) are claims about
//! *measured* behavior — and PrivateKube's production experience shows
//! a budget scheduler is operated through its queue depths, grant
//! latencies, and consumption counters. This crate is the std-only
//! substrate those measurements flow through:
//!
//! * [`Registry`] — atomic counters and gauges plus log-bucketed,
//!   lock-free [`Histogram`]s (power-of-two buckets, mergeable
//!   [`HistogramSnapshot`]s with p50/p95/p99/max), registered by name
//!   and label set, and **views** ([`Registry::counter_view`]) read at
//!   scrape time from what their owner already counts. Handles from a
//!   [`Registry::disabled`] registry are inert, so instrumentation
//!   costs one branch when unused.
//! * [`Clock`] — the time seam. Production uses [`WallClock`];
//!   deterministic tests substitute a [`ManualClock`] and assert span
//!   timings exactly.
//! * [`FlightRecorder`] — a fixed-capacity ring of structured
//!   [`Event`]s with sequence numbers, dumpable for post-mortems and
//!   assertable in crash-recovery tests. It and the [`SpanRing`] are
//!   typed views over one lock-free seqlock ring (`ring.rs`), whose
//!   losses (`dpack_recorder_dropped_total`) follow from its seq.
//! * [`expo`] — Prometheus-style text exposition over a
//!   [`MetricsSnapshot`]; the same snapshot travels the dpack-net wire
//!   as the `Metrics` response.
//! * [`trace`] — distributed causal tracing: seeded trace/span ids, a
//!   [`SpanRing`], and the [`SpanTree`] assembler that merges per-node
//!   dumps into one causal tree per traced grant.
//!
//! [`Obs`] bundles the seams into the single handle the service,
//! WAL, and reactor layers thread through their constructors.

pub mod clock;
pub mod expo;
pub mod hist;
pub mod recorder;
pub mod registry;
mod ring;
pub mod trace;

use std::sync::Arc;

pub use clock::{Clock, ManualClock, WallClock};
pub use hist::{Histogram, HistogramSnapshot, BUCKETS};
pub use recorder::{Event, EventKind, FlightRecorder};
pub use registry::{Counter, Gauge, MetricsSnapshot, Registry, Sample, Value};
pub use trace::{Span, SpanKind, SpanRing, SpanTree, TraceContext, Tracer};

/// Default flight-recorder retention: generous enough to hold a full
/// crash-recovery trace plus steady-state traffic, small enough to be
/// memory-irrelevant.
pub const DEFAULT_RECORDER_CAPACITY: usize = 4096;

/// Default span-ring retention, sized like the recorder: a traced
/// replicated grant emits on the order of ten spans, so this holds
/// hundreds of recent traces.
pub const DEFAULT_SPAN_CAPACITY: usize = 4096;

/// The tracer seed for deterministic (non-wall) contexts: every
/// manual-clock test draws the same trace-id stream.
const MANUAL_TRACER_SEED: u64 = 0x00DA_0000_7ACE_0001;

/// The bundled observability context one component tree shares: a
/// registry, a flight recorder, a span ring + tracer, and a clock.
#[derive(Debug, Clone)]
pub struct Obs {
    /// The instrument registry.
    pub registry: Registry,
    /// Fixed at construction: `dpack_recorder_dropped_total` reads this
    /// ring's losses.
    recorder: FlightRecorder,
    spans: SpanRing,
    tracer: Arc<Tracer>,
    clock: Arc<dyn Clock>,
}

impl Obs {
    /// The production default: live registry and recorder, wall clock.
    /// The tracer seed is drawn from the clock, so distinct processes
    /// draw distinct trace-id streams.
    pub fn wall() -> Arc<Self> {
        let clock = Arc::new(WallClock::new());
        let seed = clock.now_nanos();
        Arc::new(Self::live(clock, seed))
    }

    fn live(clock: Arc<dyn Clock>, tracer_seed: u64) -> Self {
        let registry = Registry::new();
        let recorder = FlightRecorder::new(DEFAULT_RECORDER_CAPACITY);
        let lost = recorder.clone();
        registry.counter_view("dpack_recorder_dropped_total", "", move || {
            Some(lost.dropped())
        });
        Self {
            registry,
            recorder,
            spans: SpanRing::new(DEFAULT_SPAN_CAPACITY),
            tracer: Arc::new(Tracer::seeded(tracer_seed)),
            clock,
        }
    }

    /// Fully disabled: inert handles, zero-capacity recorder and span
    /// ring, frozen clock. This is the "metrics off" leg of the
    /// overhead benchmark and the right default for decision-parity
    /// replays.
    pub fn off() -> Arc<Self> {
        Arc::new(Self {
            registry: Registry::disabled(),
            recorder: FlightRecorder::disabled(),
            spans: SpanRing::disabled(),
            tracer: Arc::new(Tracer::seeded(MANUAL_TRACER_SEED)),
            clock: Arc::new(ManualClock::new()),
        })
    }

    /// A live context on a [`ManualClock`], returned alongside the
    /// clock so the test can drive it. The tracer runs on the fixed
    /// seed: trace ids (and every span id derived from them) replay
    /// exactly.
    pub fn manual(tick: u64) -> (Arc<Self>, Arc<ManualClock>) {
        let clock = Arc::new(ManualClock::with_tick(tick));
        (
            Arc::new(Self::live(
                Arc::clone(&clock) as Arc<dyn Clock>,
                MANUAL_TRACER_SEED,
            )),
            clock,
        )
    }

    /// The event ring.
    pub fn recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// The span ring distributed traces record into.
    pub fn spans(&self) -> &SpanRing {
        &self.spans
    }

    /// The clock seam.
    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.clock
    }

    /// The trace-id source (seeded rand shim; see [`Tracer`]).
    pub fn tracer(&self) -> &Arc<Tracer> {
        &self.tracer
    }

    /// Reads the clock.
    pub fn now_nanos(&self) -> u64 {
        self.clock.now_nanos()
    }

    /// Whether the registry records anything.
    pub fn is_enabled(&self) -> bool {
        self.registry.is_enabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_context_is_live() {
        let obs = Obs::wall();
        assert!(obs.is_enabled());
        obs.registry.counter("c", "").inc();
        assert_eq!(obs.registry.snapshot().counter_total("c"), 1);
        obs.recorder().record(EventKind::TaskAdmitted, 1, 0);
        assert_eq!(obs.recorder().dump().len(), 1);
    }

    #[test]
    fn off_context_records_nothing() {
        let obs = Obs::off();
        assert!(!obs.is_enabled());
        obs.registry.counter("c", "").inc();
        obs.recorder().record(EventKind::TaskAdmitted, 1, 0);
        assert!(obs.registry.snapshot().samples.is_empty());
        assert!(obs.recorder().dump().is_empty());
        assert_eq!(obs.now_nanos(), 0);
    }

    #[test]
    fn manual_context_ticks_deterministically() {
        let (obs, clock) = Obs::manual(250);
        assert_eq!(obs.now_nanos(), 0);
        assert_eq!(obs.now_nanos(), 250);
        clock.advance(1_000);
        assert_eq!(obs.now_nanos(), 1_500);
    }
}
