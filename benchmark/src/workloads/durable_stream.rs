//! `durable_stream` — single-block tasks that all fit, driven in
//! process against a durable service on a real directory (group commit,
//! compaction every 64 cycles). At most 256 trivially fitting tasks per
//! cycle make scheduling negligible, so ledger commit, WAL append/fsync
//! and compaction do the work. A traced run also replays the full log
//! through `recover`, which uses the same WAL layer for reads — so a
//! write-path win that bloats or slows the record format shows.

use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use dp_accounting::AlphaGrid;
use dpack_service::obs::Obs;
use dpack_service::wal::{FsStorage, WalError};
use dpack_service::{BudgetService, DurabilityOptions, DurabilityStats};

use crate::drive::{self, check_ledger, LoopStats};
use crate::harness::{percentile, timed, Bench, ScratchDir, SliceTable};
use crate::inputs::{self, Stream};
use crate::probes;
use crate::trace::{open, StorageCounters, TimedStorage, Tracer};
use crate::workloads::{check_wal, report_wal, service_config};

/// Opens (or recovers) the durable service on `dir` — through a
/// `TimedStorage` when tracing, on the raw `FsStorage` otherwise.
fn open_service(
    grid: &AlphaGrid,
    dir: &Path,
    opts: DurabilityOptions,
    obs: Arc<Obs>,
    tracer: Option<&Arc<Tracer>>,
) -> Result<(BudgetService, Option<Arc<StorageCounters>>), WalError> {
    let fs = FsStorage::new(dir)?;
    let (grid, config) = (grid.clone(), service_config());
    match tracer {
        None => Ok((
            BudgetService::recover_with_obs(grid, config, &fs, opts, obs)?,
            None,
        )),
        Some(tracer) => {
            let storage = TimedStorage::new(Box::new(fs), Arc::clone(tracer));
            let counters = storage.counters();
            let service = BudgetService::recover_with_obs(grid, config, &storage, opts, obs)?;
            Ok((service, Some(counters)))
        }
    }
}

/// One leg: a fresh durable service, every block registered, the whole
/// stream driven through the closed loop.
struct Leg {
    stats: LoopStats,
    service: BudgetService,
    /// The ledger's WAL counters around the timed phase (so that
    /// registrations are excluded).
    wal_before: DurabilityStats,
    wal_after: DurabilityStats,
}

fn run_leg(
    bench: &mut Bench,
    stream: Stream,
    dir: &Path,
    opts: DurabilityOptions,
    obs: Arc<Obs>,
    tracer: Option<&Arc<Tracer>>,
) -> Leg {
    let (service, _) =
        open_service(&stream.grid, dir, opts, obs, tracer).expect("fresh directory opens");
    for block in &stream.blocks {
        let span = open(tracer, "service.register_block", block.id);
        let registered = service.register_block(block.clone());
        drop(span);
        bench.check(registered.is_ok(), || format!("block {} refused", block.id));
    }
    let wal_before = service.ledger().durability_stats().unwrap_or_default();
    let stats = drive::in_process(&service, stream.tasks, tracer);
    let wal_after = service.ledger().durability_stats().unwrap_or_default();
    check_ledger(bench, &service, &stats);
    check_wal(bench, &wal_after);
    Leg {
        stats,
        service,
        wal_before,
        wal_after,
    }
}

/// Drops the leg's service and recovers it from `dir`: the recovered
/// block states must equal the ones before the drop. Returns the
/// recovery time and the bytes it read (when counted).
fn recover_and_compare(
    bench: &mut Bench,
    leg: Leg,
    dir: &Path,
    opts: DurabilityOptions,
    tracer: Option<&Arc<Tracer>>,
) -> (f64, u64) {
    let before = leg.service.ledger().block_states();
    let grid = leg.service.ledger().grid().clone();
    drop(leg.service);
    let span = open(tracer, "service.recover", 0);
    let (recover_s, reopened) = timed(|| open_service(&grid, dir, opts, Obs::wall(), tracer));
    drop(span);
    match reopened {
        Ok((recovered, counters)) => {
            bench.check(recovered.ledger().block_states() == before, || {
                "recovered block states differ from the ones before the drop".into()
            });
            let read = counters.map_or(0, |c| c.read_bytes.load(Ordering::Relaxed));
            (recover_s, read)
        }
        Err(e) => {
            bench.check(false, || format!("recovery failed: {e}"));
            (recover_s, 0)
        }
    }
}

pub fn run(bench: &mut Bench) {
    let n_tasks = bench.size(200_000, 2_000);
    let opts = DurabilityOptions::default();
    while bench.next_round().is_some() {
        let tracer = bench.tracer().cloned();
        let tracer = tracer.as_ref();
        let _round = open(tracer, "bench.round", 0);

        let setup = Instant::now();
        let span = open(tracer, "workloads.generate", 0);
        let (generate_s, stream) = timed(|| inputs::stream(bench.seed, n_tasks));
        drop(span);
        bench.sample("workloads.generate_s", generate_s);
        let dir = ScratchDir::new("durable");
        // run_leg registers the blocks (set-up) and drives the stream
        // (timed), so set-up is everything up to here minus the drive.
        let leg = run_leg(bench, stream, dir.path(), opts, Obs::wall(), tracer);
        bench.sample("setup_s", setup.elapsed().as_secs_f64() - leg.stats.wall_s);
        leg.stats.report(bench);
        if bench.is_traced() {
            leg.stats.report_cycles(bench);
            report_wal(bench, &leg.wal_before, &leg.wal_after, leg.stats.granted);
            let span = open(tracer, "wal.compact", 0);
            let (compact_s, compacted) = timed(|| leg.service.compact());
            drop(span);
            bench.check(compacted.is_ok(), || "explicit compaction failed".into());
            bench.sample("wal.compact_ms", compact_s * 1e3);
        }
        recover_and_compare(bench, leg, dir.path(), opts, None);
    }
    bench.check_exact("allocated_tasks");
    bench.check_exact("wal.syncs_per_kgrant");
    bench.check_exact("wal.bytes_per_grant");

    let Some(tracer) = bench.probe_tracer().cloned() else {
        return;
    };
    let stream = inputs::stream(bench.seed, n_tasks);
    let micros = |name: &str, q: f64| percentile(&tracer.durations(name), q) / 1e3;
    bench.once("wal.append_sync_us_p50", micros("wal.append_sync", 0.5));
    bench.once("wal.append_sync_us_p99", micros("wal.append_sync", 0.99));
    drive::report_load_spans(bench, &tracer);

    // Recovery over the full log: the same stream with compaction off,
    // so every record is still in the WAL when the service is dropped.
    let no_snapshots = DurabilityOptions {
        snapshot_every_cycles: None,
        ..opts
    };
    let dir = ScratchDir::new("replay");
    let leg = run_leg(
        bench,
        stream.clone(),
        dir.path(),
        no_snapshots,
        Obs::wall(),
        Some(&tracer),
    );
    bench.count(leg.stats.submitted, leg.stats.failed);
    let records = leg.wal_after.records;
    probes::snapshot(bench, &leg.service, 1.0);
    let (recover_s, read) =
        recover_and_compare(bench, leg, dir.path(), no_snapshots, Some(&tracer));
    bench.once("wal.recover_records_per_s", records as f64 / recover_s);
    bench.once("wal.read_bytes_on_recover", read as f64);

    // What the instrumentation costs: two rounds with `Obs::off()`
    // against the untraced rounds above, which ran with `Obs::wall()`.
    let mut off = SliceTable::default();
    for _ in 0..2 {
        let dir = ScratchDir::new("obs-off");
        let leg = run_leg(bench, stream.clone(), dir.path(), opts, Obs::off(), None);
        bench.count(leg.stats.submitted, leg.stats.failed);
        off.add_round(&leg.stats.slices);
    }
    bench.once(
        "obs.overhead_ratio",
        off.decisions_per_s() / bench.value_of("decisions_per_s"),
    );

    probes::accounting(bench, &stream.blocks[0].capacity, &stream.tasks);
    probes::ledger_commit(bench, &service_config(), &stream.blocks, &stream.tasks);
}
