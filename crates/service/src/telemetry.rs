//! The service's registered instrument set.
//!
//! Every family is registered eagerly at construction, so the
//! exposition always lists them all (a scraper can alert on
//! `dpack_wal_failed_appends` before the first failure). The service
//! writes only its histograms. Each counter and gauge is a **view** the
//! registry reads at scrape time from the record the service keeps
//! anyway (the books' `StatsSummary` and queue, the pending count, the
//! ledger's [`DurabilityStats`], 0 in memory), so each event is counted
//! once and a scrape equals those accessors at any point. Views hold
//! their sources by `Weak`: a dropped service's families leave the
//! scrape, and the next service on the same context (a promoted node's
//! new primary) counts from its own start, as after a restart.
//!
//! What each family means is README's "Metric families" table.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use dpack_obs::{Histogram, Obs};

use crate::ledger::ShardedLedger;
use crate::service::Books;
use crate::stats::{DurabilityStats, StatsSummary};

/// The service's histograms, inert when the registry is disabled.
pub(crate) struct ServiceTelemetry {
    pub grant_latency: Histogram,
    pub cycle_nanos: Histogram,
    pub phase_ingest: Histogram,
    pub phase_decide: Histogram,
    pub phase_commit: Histogram,
    pub phase_finalize: Histogram,
}

impl ServiceTelemetry {
    /// Registers the histograms, and every counter and gauge family as
    /// a view over the service's books, pending count and ledger.
    pub fn new(
        obs: &Obs,
        books: &Arc<Mutex<Books>>,
        pending: &Arc<AtomicUsize>,
        ledger: &Arc<ShardedLedger>,
    ) -> Self {
        let r = &obs.registry;
        let counters: [Family<StatsSummary>; 6] = [
            ("dpack_submitted_total", |s| s.submitted),
            ("dpack_admitted_total", |s| s.admitted),
            ("dpack_rejected_total", |s| s.rejected),
            ("dpack_granted_total", |s| s.granted),
            ("dpack_evicted_total", |s| s.evicted),
            ("dpack_cycles_total", |s| s.cycles),
        ];
        for (name, field) in counters {
            let get = over(books, move |b| field(&read(b).stats.summary()));
            r.counter_view(name, "", get);
        }
        let queue_depth = over(books, |b| read(b).queue.len() as f64);
        r.gauge_view("dpack_queue_depth", "", queue_depth);
        let pending = over(pending, |p| p.load(Ordering::Relaxed) as f64);
        r.gauge_view("dpack_pending_tasks", "", pending);
        let durability: [Family<DurabilityStats>; 6] = [
            ("dpack_wal_records", |d| d.records),
            ("dpack_wal_bytes", |d| d.bytes),
            ("dpack_wal_syncs", |d| d.sync_calls),
            ("dpack_wal_batches", |d| d.batches),
            ("dpack_wal_failed_appends", |d| d.failed_appends),
            ("dpack_compactions", |d| d.compactions),
        ];
        for (name, field) in durability {
            let get = over(ledger, move |l| {
                field(&l.durability_stats().unwrap_or_default()) as f64
            });
            r.gauge_view(name, "", get);
        }
        Self {
            grant_latency: r.histogram("dpack_grant_latency_nanos", ""),
            cycle_nanos: r.histogram("dpack_cycle_nanos", ""),
            phase_ingest: r.histogram("dpack_cycle_phase_nanos", "phase=\"ingest\""),
            phase_decide: r.histogram("dpack_cycle_phase_nanos", "phase=\"decide\""),
            phase_commit: r.histogram("dpack_cycle_phase_nanos", "phase=\"commit\""),
            phase_finalize: r.histogram("dpack_cycle_phase_nanos", "phase=\"finalize\""),
        }
    }
}

/// A family's name and the field of the record it reads.
type Family<T> = (&'static str, fn(&T) -> u64);

/// `get` over `source`, held by `Weak`: `None` once it is dropped.
fn over<T: Send + Sync + 'static, V>(
    source: &Arc<T>,
    get: impl Fn(&T) -> V + Send + Sync + 'static,
) -> impl Fn() -> Option<V> + Send + Sync + 'static {
    let source = Arc::downgrade(source);
    move || Some(get(&*source.upgrade()?))
}

fn read(books: &Mutex<Books>) -> MutexGuard<'_, Books> {
    books.lock().expect("books lock poisoned")
}
