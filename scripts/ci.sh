#!/usr/bin/env bash
# Tier-1 gate: everything here runs offline (no crates.io access) and
# must stay green. Run from the repository root.
#
#   ./scripts/ci.sh
#
# The property suites (dpack-check) run un-gated with a fixed default
# case budget; crank them nightly-style with e.g.
#
#   DPACK_CHECK_CASES=5000 ./scripts/ci.sh
#
# A failing property prints its reproducing seed; replay one case with
# DPACK_CHECK_SEED=<seed> (see README.md "Testing"). The micro-benches
# run on the vendored std-only harness (crates/bench/src/micro.rs) and
# are smoke-run here (1 iteration) so they cannot rot.
set -euo pipefail
cd "$(dirname "$0")/.."

# Fixed case budget by default, overridable for nightly-style runs.
export DPACK_CHECK_CASES="${DPACK_CHECK_CASES:-64}"

echo "==> checking that no stale feature gate remains"
if grep -rn "proptest-tests" --include="*.rs" --include="*.toml" \
    src crates tests Cargo.toml 2>/dev/null; then
  echo "ERROR: stale 'proptest-tests' gate found — the property suites run un-gated on dpack-check" >&2
  exit 1
fi
if grep -rn "criterion-benches" --include="*.rs" --include="*.toml" \
    src crates tests Cargo.toml 2>/dev/null; then
  echo "ERROR: stale 'criterion-benches' gate found — the micro-benches run un-gated on the vendored harness" >&2
  exit 1
fi

echo "==> checking new counter structs go through dpack-obs"
# New metrics belong in the dpack-obs registry (named, labelled,
# scrapable), not in one-off counter structs. The legacy pre-obs
# structs below are frozen; anything new fails the gate.
adhoc_allow="$(cat <<'EOF'
crates/core/src/online.rs:OnlineStats
crates/net/src/wire.rs:WireStats
crates/service/src/stats.rs:CycleStats
crates/service/src/stats.rs:DurabilityStats
crates/service/src/stats.rs:ServiceStats
crates/service/src/stats.rs:TenantStats
crates/wal/src/log.rs:WalCounters
crates/wal/src/log.rs:WalTelemetry
EOF
)"
adhoc_found="$(grep -rn --include='*.rs' -E 'pub struct [A-Za-z]*(Counters|Stats|Telemetry)\b' \
    src crates 2>/dev/null \
  | grep -v '^crates/obs/' \
  | sed -E 's|^([^:]+):[0-9]+:.*pub struct ([A-Za-z]+).*|\1:\2|' \
  | sort -u || true)"
adhoc_new="$(comm -13 <(sort -u <<<"${adhoc_allow}") <(echo "${adhoc_found}") || true)"
if [ -n "${adhoc_new}" ]; then
  echo "ERROR: new ad-hoc counter/stats struct(s) outside dpack-obs:" >&2
  echo "${adhoc_new}" >&2
  echo "register counters/gauges/histograms on the dpack-obs registry instead" >&2
  exit 1
fi

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy (all targets, warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q (DPACK_CHECK_CASES=${DPACK_CHECK_CASES})"
before_tests="$(git status --porcelain)"
cargo test -q

# Fs-backed WAL tests route through dpack-wal's TempDir (removed on
# drop, even on panic), so tests must not litter the workspace or
# mutate tracked files; fail loudly if the tree changed across the run.
echo "==> checking the tests left the workspace as they found it"
after_tests="$(git status --porcelain)"
if [ "${before_tests}" != "${after_tests}" ]; then
  echo "ERROR: tests changed the workspace:" >&2
  diff <(echo "${before_tests}") <(echo "${after_tests}") >&2 || true
  exit 1
fi

# The vendored micro-benches must keep compiling *and running*; smoke
# mode runs each benchmark for exactly one iteration.
echo "==> vendored micro-benches (smoke mode)"
for b in ablation filters knapsack_solvers rdp_accounting sched_kernels; do
  cargo bench -q -p dpack-bench --bench "${b}" -- --smoke
done

# The repo's one benchmark (BENCHMARK.json) is a workspace of its own
# under benchmark/, so nothing above builds it: a signature change in
# a crate it drives would break it unnoticed. Smoke-run all five
# workloads with every output check on (~3 s; the run fails on a
# failed check), then its own tests (catalogue vs BENCHMARK.json, seed
# determinism). It writes only under benchmark/target and
# benchmark/results, both ignored.
echo "==> benchmark/ crate (smoke run, contract and seed tests)"
benchmark/run.sh --smoke
cargo test -q --release --offline --manifest-path benchmark/Cargo.toml

# Perf trajectory: record durable vs non-durable service throughput
# (group commit vs per-record sync vs in-memory) for this PR. The
# binary itself asserts the group-commit sync bound
# (syncs <= shards x cycles on the grant path).
echo "==> service_throughput -> BENCH_4.json"
cargo run --release -q -p dpack-bench --bin service_throughput -- --json BENCH_4.json
grep -E "speedup|ops_per_sec" BENCH_4.json

# Remote frontend smoke: a real tenant over a real 127.0.0.1 socket —
# handshake, block registration, pipelined submits answered with final
# decisions, stats, metrics scrape, flight-recorder dump, snapshot,
# graceful shutdown. The example asserts every step; the greps below
# pin the metric families a monitor depends on to the scrape output.
echo "==> remote frontend smoke (example over 127.0.0.1)"
remote_out="$(cargo run --release -q --example remote_tenant)"
echo "${remote_out}" | grep -v '^dpack_\|^# TYPE'
for fam in dpack_submitted_total dpack_granted_total dpack_grant_latency_nanos \
    dpack_cycle_phase_nanos dpack_reactor_sweep_nanos dpack_open_connections \
    dpack_conn_queue_depth; do
  if ! grep -q "^# TYPE ${fam} " <<<"${remote_out}"; then
    echo "ERROR: remote metrics scrape is missing family ${fam}" >&2
    exit 1
  fi
done

# Introspection-plane smoke: a real three-node cluster behind
# 127.0.0.1 sockets — unassisted leader election, traced submissions
# through the primary, then one monitor-style scrape per node:
# ClusterStatus, the three registry snapshots merged into one
# cluster-wide view, and the span dumps assembled into causal trees
# exported as chrome://tracing JSON. The example asserts tree
# completeness and JSON well-formedness itself; the greps below pin the
# status section and the replication/tracing metric families to the
# merged scrape, and the file check pins the exported trace envelope.
echo "==> cluster introspection smoke (cluster_top example, 3 nodes over 127.0.0.1)"
top_out="$(cargo run --release -q --example cluster_top)"
echo "${top_out}" | grep -v '^dpack_\|^# TYPE'
if ! grep -q "^== ClusterStatus" <<<"${top_out}"; then
  echo "ERROR: cluster_top printed no ClusterStatus section" >&2
  exit 1
fi
for fam in dpack_repl_lag dpack_recorder_dropped_total dpack_repl_live_replicas \
    dpack_granted_total; do
  if ! grep -q "^# TYPE ${fam} " <<<"${top_out}"; then
    echo "ERROR: merged cluster scrape is missing family ${fam}" >&2
    exit 1
  fi
done
if [ ! -s target/cluster_top.trace.json ]; then
  echo "ERROR: cluster_top did not export target/cluster_top.trace.json" >&2
  exit 1
fi
if ! head -c 16 target/cluster_top.trace.json | grep -q '{"traceEvents":\['; then
  echo "ERROR: exported chrome trace lacks the traceEvents envelope" >&2
  exit 1
fi

# Perf trajectory for the remote surface: final-decision throughput
# through dpack-net vs the in-process async surface, same workload.
echo "==> service_throughput --remote -> BENCH_5.json"
cargo run --release -q -p dpack-bench --bin service_throughput -- --remote --json BENCH_5.json
grep -E "ops_per_sec|relative" BENCH_5.json

# Observability cost: instrumentation on vs off on the same workload
# (the binary asserts the overhead ratio stays under 3%), plus the
# hot-path latency percentiles scraped from the metrics registry.
echo "==> service_throughput --obs -> BENCH_6.json"
cargo run --release -q -p dpack-bench --bin service_throughput -- --obs --json BENCH_6.json
grep -E "overhead_ratio|p50|p99" BENCH_6.json

# Distributed-tracing cost: every submission traced vs none, with the
# instrumentation live in *both* legs so the delta isolates the tracing
# machinery itself (context propagation through the pending set, span
# starts at every hop, ring writes). The binary asserts the best paired
# ratio over five on/off rounds; the awk rail re-checks the committed
# number so a stale BENCH_10.json cannot hide a regression.
echo "==> service_throughput --traced -> BENCH_10.json"
cargo run --release -q -p dpack-bench --bin service_throughput -- --traced --json BENCH_10.json
grep -E "tracing_overhead_ratio|ops_per_sec|spans_recorded" BENCH_10.json
tov="$(sed -nE 's/.*"tracing_overhead_ratio": ([0-9.]+).*/\1/p' BENCH_10.json)"
spans="$(sed -nE 's/.*"spans_recorded": ([0-9]+).*/\1/p' BENCH_10.json)"
if ! awk -v o="${tov}" 'BEGIN { exit !(o >= 0 && o < 0.03) }'; then
  echo "ERROR: tracing overhead ratio ${tov} breaches the 3% budget" >&2
  exit 1
fi
if [ "${spans}" -le 0 ]; then
  echo "ERROR: traced leg recorded no spans — the instrumentation is dead" >&2
  exit 1
fi

# Million-block scaling: the tiered ledger holds a million registered
# blocks by spilling cold ones to segment files, so RSS must stay
# bounded (the all-hot equivalent needs well over a gigabyte) and the
# per-cycle latency must stay within a small constant factor of the
# 10k-block baseline — the residual is cold-block fault I/O, not
# scheduling work, which scales with the task count only.
echo "==> service_throughput --million -> BENCH_7.json"
cargo run --release -q -p dpack-bench --bin service_throughput -- --million --json BENCH_7.json
grep -E "cycle_slowdown_ratio|peak_rss_mb|million_blocks" BENCH_7.json
blocks="$(sed -nE 's/.*"million_blocks": ([0-9]+).*/\1/p' BENCH_7.json)"
rss="$(sed -nE 's/.*"peak_rss_mb": ([0-9.]+).*/\1/p' BENCH_7.json)"
ratio="$(sed -nE 's/.*"cycle_slowdown_ratio": ([0-9.]+).*/\1/p' BENCH_7.json)"
if [ "${blocks}" -lt 1000000 ]; then
  echo "ERROR: million-block bench ran ${blocks} blocks (< 1000000)" >&2
  exit 1
fi
if ! awk -v r="${rss}" 'BEGIN { exit !(r > 0 && r <= 600) }'; then
  echo "ERROR: million-block peak RSS ${rss} MB exceeds the 600 MB budget" >&2
  exit 1
fi
if ! awk -v s="${ratio}" 'BEGIN { exit !(s > 0 && s <= 6) }'; then
  echo "ERROR: million-block cycle slowdown ${ratio}x vs the 10k baseline (budget 6x)" >&2
  exit 1
fi

# Replication cost and failover: the quorum-2 replicated grant path
# (every append on both socket replicas before the tenant is acked) vs
# the standalone durable one, plus the primary-kill -> first-grant
# failover time through the client pool. The bounds are loose sanity
# rails, not perf targets: replication must not eat the grant path,
# and a failover must resolve in well under a second on loopback.
echo "==> service_throughput --replicated -> BENCH_8.json + BENCH_9.json"
cargo run --release -q -p dpack-bench --bin service_throughput -- --replicated \
  --json BENCH_8.json --cluster-json BENCH_9.json
grep -E "ops_per_sec|relative|failover" BENCH_8.json
rel="$(sed -nE 's/.*"replicated_relative_to_standalone": ([0-9.]+).*/\1/p' BENCH_8.json)"
fo="$(sed -nE 's/.*"failover_to_first_grant_ms": ([0-9.]+).*/\1/p' BENCH_8.json)"
if ! awk -v r="${rel}" 'BEGIN { exit !(r > 0.2) }'; then
  echo "ERROR: quorum-2 replication kept only ${rel} of standalone durable throughput (floor 0.2)" >&2
  exit 1
fi
if ! awk -v f="${fo}" 'BEGIN { exit !(f > 0 && f <= 1000) }'; then
  echo "ERROR: failover took ${fo} ms to the first granted decision (budget 1000 ms)" >&2
  exit 1
fi

# Automatic failover: the three-node cluster leg kills the elected
# leader and measures until the survivors — failure detector, election,
# promotion, catch-up resync — grant a fresh task with NO harness hand
# on the wheel. Detection (3 x 20 ms misses) + election (100 ms base +
# stagger) + promotion/resync lands around 150-250 ms on loopback; the
# 1500 ms rail catches a protocol stall, not jitter.
grep -E "auto_failover" BENCH_9.json
afo="$(sed -nE 's/.*"auto_failover_to_first_grant_ms": ([0-9.]+).*/\1/p' BENCH_9.json)"
if ! awk -v f="${afo}" 'BEGIN { exit !(f > 0 && f <= 1500) }'; then
  echo "ERROR: automatic failover took ${afo} ms to the first granted decision (budget 1500 ms)" >&2
  exit 1
fi

# Replay-determinism guard: the crash-recovery harness must produce
# byte-identical output when replayed from the same seed — a diff here
# means a failure report would not reproduce. The timing line of the
# test summary is the only legitimately nondeterministic output.
echo "==> replay determinism guard (recovery suite, fixed DPACK_CHECK_SEED)"
run_recovery_seeded() {
  DPACK_CHECK_SEED=20250742 cargo test -q -p dpack-service --test recovery 2>&1 \
    | sed 's/finished in [0-9.]*s//'
}
first="$(run_recovery_seeded)"
second="$(run_recovery_seeded)"
if [ "${first}" != "${second}" ]; then
  echo "ERROR: recovery suite output diverged between two runs of the same seed:" >&2
  diff <(echo "${first}") <(echo "${second}") >&2 || true
  exit 1
fi

# Same guard for the replication crash-promotion suite: it is the
# acceptance evidence that a promoted replica equals the independent
# fold of the acked records bit for bit, so its seeded sweeps (primary
# crash, replica crash, idempotent resubmission) must replay
# byte-identically too.
echo "==> replay determinism guard (replication crash-promotion suite)"
run_replication_seeded() {
  DPACK_CHECK_SEED=20250742 cargo test -q -p dpack-service --test replication_crash 2>&1 \
    | sed 's/finished in [0-9.]*s//'
}
first="$(run_replication_seeded)"
second="$(run_replication_seeded)"
if [ "${first}" != "${second}" ]; then
  echo "ERROR: replication crash-promotion suite diverged between two runs of the same seed:" >&2
  diff <(echo "${first}") <(echo "${second}") >&2 || true
  exit 1
fi

# And for the cluster chaos suite: three nodes under virtual time,
# drawn kill/rejoin schedules, automatic elections. Its invariants
# (one leader per term, acked grants survive any single-node loss,
# bit-identical replica convergence, grant conservation) must replay
# byte-identically from a fixed seed or a chaos failure report would
# not reproduce.
echo "==> replay determinism guard (cluster chaos suite)"
run_chaos_seeded() {
  DPACK_CHECK_SEED=20250742 cargo test -q -p dpack-net --test cluster_chaos 2>&1 \
    | sed 's/finished in [0-9.]*s//'
}
first="$(run_chaos_seeded)"
second="$(run_chaos_seeded)"
if [ "${first}" != "${second}" ]; then
  echo "ERROR: cluster chaos suite diverged between two runs of the same seed:" >&2
  diff <(echo "${first}") <(echo "${second}") >&2 || true
  exit 1
fi

echo "CI OK"
