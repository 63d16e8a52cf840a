//! The service's registered instrument set.
//!
//! Every metric the service exports lives here, registered eagerly at
//! construction so the exposition always shows the full family list
//! (a scraper can alert on `dpack_wal_failed_appends` without waiting
//! for the first failure). `ServiceStats` remains the structured
//! in-process record; the registry is the canonical *export* surface —
//! both are updated at the same points under the same locks, so they
//! cannot diverge.
//!
//! | metric | kind | meaning |
//! |---|---|---|
//! | `dpack_submitted_total` | counter | submissions offered |
//! | `dpack_admitted_total` | counter | submissions admitted |
//! | `dpack_rejected_total` | counter | submissions rejected (any reason) |
//! | `dpack_granted_total` | counter | tasks granted |
//! | `dpack_evicted_total` | counter | tasks evicted on timeout |
//! | `dpack_cycles_total` | counter | scheduling cycles run |
//! | `dpack_queue_depth` | gauge | admission-queue depth after ingest |
//! | `dpack_pending_tasks` | gauge | pending set after the cycle |
//! | `dpack_wal_records` | gauge | WAL records acknowledged |
//! | `dpack_wal_bytes` | gauge | WAL bytes acknowledged |
//! | `dpack_wal_syncs` | gauge | storage write+sync calls |
//! | `dpack_wal_batches` | gauge | group-commit batches |
//! | `dpack_wal_failed_appends` | gauge | appends that broke a log |
//! | `dpack_compactions` | gauge | log compactions completed |
//! | `dpack_grant_latency_nanos` | histogram | admission → committed grant |
//! | `dpack_cycle_nanos` | histogram | whole-cycle duration |
//! | `dpack_cycle_phase_nanos{phase=…}` | histogram | per-phase breakdown |
//! | `dpack_shard_lock_hold_nanos` | histogram | shard-lock hold per shard-local commit |
//! | `dpack_cross_commit_nanos` | histogram | 2PC round duration |
//! | `dpack_wal_append_nanos` | histogram | WAL write+sync latency |
//! | `dpack_wal_batch_records` | histogram | records per flushed batch |

use dpack_obs::{Counter, Gauge, Histogram, Obs};

/// Handles for every service-level instrument. All of them are inert
/// when the underlying registry is disabled.
#[derive(Debug, Clone)]
pub(crate) struct ServiceTelemetry {
    pub submitted: Counter,
    pub admitted: Counter,
    pub rejected: Counter,
    pub granted: Counter,
    pub evicted: Counter,
    pub cycles: Counter,
    pub queue_depth: Gauge,
    pub pending_tasks: Gauge,
    pub wal_records: Gauge,
    pub wal_bytes: Gauge,
    pub wal_syncs: Gauge,
    pub wal_batches: Gauge,
    pub wal_failed_appends: Gauge,
    pub compactions: Gauge,
    pub grant_latency: Histogram,
    pub cycle_nanos: Histogram,
    pub phase_ingest: Histogram,
    pub phase_decide: Histogram,
    pub phase_commit: Histogram,
    pub phase_finalize: Histogram,
}

impl ServiceTelemetry {
    pub fn new(obs: &Obs) -> Self {
        let r = &obs.registry;
        Self {
            submitted: r.counter("dpack_submitted_total", ""),
            admitted: r.counter("dpack_admitted_total", ""),
            rejected: r.counter("dpack_rejected_total", ""),
            granted: r.counter("dpack_granted_total", ""),
            evicted: r.counter("dpack_evicted_total", ""),
            cycles: r.counter("dpack_cycles_total", ""),
            queue_depth: r.gauge("dpack_queue_depth", ""),
            pending_tasks: r.gauge("dpack_pending_tasks", ""),
            wal_records: r.gauge("dpack_wal_records", ""),
            wal_bytes: r.gauge("dpack_wal_bytes", ""),
            wal_syncs: r.gauge("dpack_wal_syncs", ""),
            wal_batches: r.gauge("dpack_wal_batches", ""),
            wal_failed_appends: r.gauge("dpack_wal_failed_appends", ""),
            compactions: r.gauge("dpack_compactions", ""),
            grant_latency: r.histogram("dpack_grant_latency_nanos", ""),
            cycle_nanos: r.histogram("dpack_cycle_nanos", ""),
            phase_ingest: r.histogram("dpack_cycle_phase_nanos", "phase=\"ingest\""),
            phase_decide: r.histogram("dpack_cycle_phase_nanos", "phase=\"decide\""),
            phase_commit: r.histogram("dpack_cycle_phase_nanos", "phase=\"commit\""),
            phase_finalize: r.histogram("dpack_cycle_phase_nanos", "phase=\"finalize\""),
        }
    }
}
