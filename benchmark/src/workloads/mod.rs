//! The five workloads. Each `run` drives rounds until the bench says
//! stop, posts its samples and output checks, and — in a traced run —
//! the per-layer metrics of the layers it exercises.

pub mod durable_stream;
pub mod offline_micro;
pub mod online_alibaba;
pub mod remote_quorum;
pub mod tiered_zipf;

use dpack_service::{DurabilityStats, SchedulerChoice, ServiceConfig, StatsRetention};

use crate::harness::Bench;

/// Runs the named workload.
///
/// # Errors
///
/// The name is not one of [`crate::catalogue::WORKLOADS`].
pub fn run(name: &str, bench: &mut Bench) -> Result<(), String> {
    match name {
        "offline_micro" => offline_micro::run(bench),
        "online_alibaba" => online_alibaba::run(bench),
        "durable_stream" => durable_stream::run(bench),
        "remote_quorum" => remote_quorum::run(bench),
        "tiered_zipf" => tiered_zipf::run(bench),
        other => return Err(format!("unknown workload {other}")),
    }
    Ok(())
}

/// The service shape every workload uses: S = 4 shards, W = 2 workers,
/// DPack, everything unlocked at once (the online replay overrides the
/// unlocking schedule).
pub fn service_config() -> ServiceConfig {
    ServiceConfig {
        shards: 4,
        workers: 2,
        unlock_steps: 1,
        scheduler: SchedulerChoice::DPack,
        retention: StatsRetention::Window(1024),
        ..ServiceConfig::default()
    }
}

/// Output check of every durable workload: no append, ship or
/// compaction failed.
pub fn check_wal(bench: &mut Bench, after: &DurabilityStats) {
    let failures = after.failed_appends + after.failed_ships + after.failed_compactions;
    bench.check(failures == 0, || {
        format!("{failures} WAL appends, ships or compactions failed")
    });
}

/// Posts the WAL-layer samples of one timed phase from the ledger's
/// durability counters before and after it.
pub fn report_wal(
    bench: &mut Bench,
    before: &DurabilityStats,
    after: &DurabilityStats,
    granted: u64,
) {
    let granted = granted.max(1) as f64;
    let bytes = (after.bytes - before.bytes) as f64;
    let batches = (after.batches - before.batches).max(1) as f64;
    bench.sample(
        "wal.syncs_per_kgrant",
        1e3 * (after.sync_calls - before.sync_calls) as f64 / granted,
    );
    bench.sample(
        "wal.records_per_batch_mean",
        (after.batched_records - before.batched_records) as f64 / batches,
    );
    bench.sample("wal.bytes_written", bytes);
    bench.sample("wal.bytes_per_grant", bytes / granted);
    bench.sample(
        "wal.compactions",
        (after.compactions - before.compactions) as f64,
    );
}
