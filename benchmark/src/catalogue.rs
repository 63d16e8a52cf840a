//! Every workload and metric the benchmark has, by name. `BENCHMARK.json`
//! at the repo root lists the same names (`tests/contract.rs` holds the
//! two together); `README.md` says what moves each one.

/// One metric: its unit, which direction is better and — end-to-end
/// only — the share of the parent's median by which it may get worse.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better: higher,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, higher: bool) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better: higher,
        bound: None,
    }
}

/// `(name, why it was chosen)`.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "offline_micro",
        "paper 6.2 microbenchmark: the scheduler kernel (core, dp-accounting, knapsack) does all the work; service, WAL and net do none",
    ),
    (
        "online_alibaba",
        "paper 6.3 Alibaba-DP replay: thousands of multi-block tasks stay pending, so ProblemState build, snapshots, best-alpha rescoring and cross-shard 2PC dominate; WAL and net are bypassed",
    ),
    (
        "durable_stream",
        "single-block tasks that all fit: scheduling is negligible, so ledger commit, WAL append/fsync and compaction do the work",
    ),
    (
        "remote_quorum",
        "the same stream over loopback TCP to a primary shipping to 2 replicas at quorum 2: wire codec, reactor, ship and quorum wait dominate; loopback only, so delay is processor time, not a network",
    ),
    (
        "tiered_zipf",
        "Zipf-picked blocks over a registry 12x the hot tier: block faults, spills and demand-driven snapshots do the work; the only workload that runs the tier code",
    ),
];

/// How long one run measures (`run_seconds` of `BENCHMARK.json`, and
/// the default of `--seconds`): long enough that each slice of work is
/// repeated 20–50 times, spread over more than one of the box's slow
/// spells (README, "Noise").
pub const RUN_SECONDS: u64 = 20;

/// What a user of the system sees; every workload reports all of them.
/// The bounds come from the run-to-run spreads measured on the
/// reference box (README, "Noise"); 0.25 is the most a bound may be.
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", false, 0.25),
    e2e("decisions_per_s", "1/s", true, 0.25),
    e2e("decision_p50_ms", "ms", false, 0.25),
    e2e("allocated_tasks", "count", true, 0.1),
    e2e("peak_rss_mb", "MB", false, 0.25),
];

/// Single layers, from isolated probes and from the decorators and
/// spans of the traced rounds. A layer a workload bypasses reports 0.
pub const PER_LAYER: &[Metric] = &[
    layer("core.problem_build_ns_per_task", "ns", false),
    layer("core.best_alphas_ns_per_block", "ns", false),
    layer("core.efficiencies_ns_per_task", "ns", false),
    layer("core.pack_ns_per_task", "ns", false),
    layer("core.dpack_schedule_ns_per_task", "ns", false),
    layer("core.dpf_schedule_ns_per_task", "ns", false),
    layer("core.engine_step_ms_p50", "ms", false),
    layer("dp-accounting.filter_commit_ns", "ns", false),
    layer("dp-accounting.curve_intern_ns", "ns", false),
    layer("knapsack.optimal_solve_ms", "ms", false),
    layer("orchestrator.parallel_dpack_speedup", "ratio", true),
    layer("paper.allocated_vs_dpf", "ratio", true),
    layer("paper.allocated_vs_optimal", "ratio", true),
    layer("paper.shard_efficiency", "ratio", true),
    layer("client.decision_p99_ms", "ms", false),
    layer("service.submit_ns", "ns", false),
    layer("service.cycle_ms_p50", "ms", false),
    layer("service.cycle_ms_p99", "ms", false),
    layer("service.cycle_busy_share", "ratio", true),
    layer("service.tasks_per_cycle_mean", "count", true),
    layer("service.pending_mean", "count", false),
    layer("service.ticket_wait_ns", "ns", false),
    layer("service.grant_ratio", "ratio", true),
    layer("service.snapshot_shard_us", "us", false),
    layer("service.commit_batch_ns_per_task", "ns", false),
    layer("service.commit_cross_ns_per_task", "ns", false),
    layer("service.cross_task_share", "ratio", false),
    layer("service.tier_fault_ratio", "ratio", false),
    layer("service.tier_spilled", "count", false),
    layer("service.tier_live_spill_mb", "MB", false),
    layer("service.register_block_us", "us", false),
    layer("wal.append_sync_us_p50", "us", false),
    layer("wal.append_sync_us_p99", "us", false),
    layer("wal.syncs_per_kgrant", "count", false),
    layer("wal.records_per_batch_mean", "count", true),
    layer("wal.bytes_written", "B", false),
    layer("wal.bytes_per_grant", "B", false),
    layer("wal.read_bytes_on_recover", "B", false),
    layer("wal.recover_records_per_s", "1/s", true),
    layer("wal.compact_ms", "ms", false),
    layer("wal.compactions", "count", false),
    layer("net.encode_request_ns", "ns", false),
    layer("net.decode_request_ns", "ns", false),
    layer("net.encode_response_ns", "ns", false),
    layer("net.decode_response_ns", "ns", false),
    layer("net.frame_mb_per_s", "MB/s", true),
    layer("net.core_handle_ns", "ns", false),
    layer("net.bytes_per_decision", "B", false),
    layer("net.syscalls_per_decision", "count", false),
    layer("net.ship_us_p50", "us", false),
    layer("net.ship_us_p99", "us", false),
    layer("net.ships_per_kgrant", "count", false),
    layer("net.replica_lag_max", "count", false),
    layer("net.standalone_decisions_per_s", "1/s", true),
    layer("net.quorum_cost_ratio", "ratio", true),
    layer("obs.overhead_ratio", "ratio", false),
    layer("workloads.generate_s", "s", false),
    layer("simulator.replay_events_per_s", "1/s", true),
    layer("bench.trace_overhead_ratio", "ratio", false),
    layer("trace.core_self_share", "ratio", true),
    layer("trace.service_self_share", "ratio", true),
    layer("trace.wal_self_share", "ratio", true),
    layer("trace.net_self_share", "ratio", true),
];
