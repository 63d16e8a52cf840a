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
#
# No step writes a tracked or un-ignored file: the script fails if
# `git status --porcelain` differs between its start and its end.
set -euo pipefail
cd "$(dirname "$0")/.."

tree_before="$(git status --porcelain)"

# Fixed case budget by default, overridable for nightly-style runs.
export DPACK_CHECK_CASES="${DPACK_CHECK_CASES:-64}"

echo "==> checking the design guards"
# Each row of the table pins one design decision, in two lines: SCOPE
# FILES REGEX COUNT PLANTED, then the reason, printed when the row fails.
# FILES are comma-separated globs (globstar, dotglob); an entry !PREFIX
# drops the paths before it that start with PREFIX. REGEX (grep -E;
# write a space as \s) runs over the `FILE:LINE: text` lines of SCOPE:
# `all` lines; `program`, the lines above a .rs file's first
# #[cfg(test)]; `code`, the program lines that are not // comments;
# `fn:NAME`, the program lines outside every fn NAME. COUNT lines may
# match: 0, 1 or <=1. PLANTED is a line the regex must catch; every run
# checks it, and that the files exist, so no edit leaves a row toothless
# unnoticed.
lines() {
  local scope="$1"
  shift
  awk -v scope="${scope}" '
    FNR == 1 { fn = "" }
    scope != "all" && FILENAME ~ /\.rs$/ && /#\[cfg\(test\)\]/ { nextfile }
    scope == "code" && /^ *\/\// { next }
    match($0, /fn [a-z_0-9]+/) { fn = substr($0, RSTART + 3, RLENGTH - 3) }
    scope != ("fn:" fn) { print FILENAME ":" FNR ": " $0 }' "$@"
}
failed=0
fail() { echo "ERROR: $*" >&2; failed=1; }
shopt -s globstar nullglob dotglob
while read -r scope globs regex count planted && read -r why; do
  grep -qE -- "${regex}" <<<"${planted}" || fail "/${regex}/ no longer catches its planted line: ${planted}"
  files=()
  for f in ${globs//,/ }; do
    if [[ "${f}" != '!'* ]]; then files+=("${f}"); continue; fi
    for i in "${!files[@]}"; do [[ "${files[i]}" != "${f#!}"* ]] || unset 'files[i]'; done
  done
  [ "${#files[@]}" -gt 0 ] && scoped="$(lines "${scope}" "${files[@]}")" \
    || { fail "${globs} names no readable file"; continue; }
  hits="$(grep -E -- "${regex}" <<<"${scoped}" || true)"
  case "${count}:$(grep -c . <<<"${hits}" || true)" in
    0:0 | 1:1 | '<=1':[01]) ;;
    *) [ -z "${hits}" ] || echo "${hits}" >&2; fail "${count} line(s) may match /${regex}/: ${why}" ;;
  esac
done <<'EOF'
all src/**/*.rs,src/**/*.toml,crates/**/*.rs,crates/**/*.toml,tests/**/*.rs,tests/**/*.toml,Cargo.toml proptest-tests 0 proptest-tests = []
  a stale 'proptest-tests' gate: the property suites run un-gated on dpack-check
all src/**/*.rs,src/**/*.toml,crates/**/*.rs,crates/**/*.toml,tests/**/*.rs,tests/**/*.toml,Cargo.toml criterion-benches 0 criterion-benches = ["dep:criterion"]
  a stale 'criterion-benches' gate: the micro-benches run un-gated on the vendored harness
program crates/service/src/ledger.rs ShardRecord|CoordRecord|append_batch|WalOptions|log_grant|commit_one_local 0 fn log_grant(&self, record: ShardRecord) {}
  ledger.rs stages on the filters and asks journal.rs whether a batch became durable: records, group commit and WAL options are the journal's, and the per-record and in-memory commit forks stay deleted
program crates/service/src/service.rs CommitTarget|Lanes|Vec<(Lane|Pending)> 0 lanes: Vec<Lane>,
  the cycle decides once over every pending task and stripes only the commit: per-shard pending lanes, their routing and a per-lane commit target granted 21 % fewer Alibaba-DP tasks than one ledger
code crates/service/src/*.rs,!crates/service/src/config.rs tickets:|Parallel(DPack|Dpf)|schedule_threaded|dpf_schedule|pass_threads 0 let threads = pass_threads(tasks, orders);
  only SchedulerChoice::schedule (config.rs) sizes a pass's threads, from its tasks x orders; tickets live in the live-task table (Books), with no map beside it
code crates/service/src/*.rs AdmissionQueue|live:\sMutex 0 live: Mutex<HashMap<TaskId, Live>>,
  a submission takes the one books lock: the admission queue type and the live-task lock that made it take four stay deleted
code crates/service/src/journal.rs \.ship_all\( 1 self.sink.ship_all(&slices)?;
  journal.rs ships every stream's slice of a commit step in one ReplicationSink::ship_all round, from exactly one place, so a cycle pays one quorum wait
code crates/service/src/journal.rs \.ship\( 0 sink.ship(shard, &records)?;
  no per-shard ship is reachable from a cycle: journal.rs reaches the sink only through ship_all
program crates/service/src/service.rs fan_out 0 self.fan_out(grants);
  service.rs commits a cycle's shard-local grants in one ledger call: a fanned-out commit is how each shard came to pay its own quorum wait
code crates/service/src/journal.rs Wal::open\( 1 let wal = Wal::open(storage, options)?;
  a durable ledger writes one log: one Wal holds every shard's stream and the coordinator's, opened once in journal.rs
code crates/service/src/journal.rs thread::scope|spawn 0 std::thread::spawn(move || wal.append(batch));
  journal.rs appends to the one log on the calling thread
program crates/*/src/**/*.rs shard_dir|COORD_DIR|SEQBASE_FILE 0 let dir = shard_dir(&root, shard);
  the per-stream log directories and sidecars the one log replaced stay deleted
code crates/net/src/*.rs \bWal::open\( 0 let log = Wal::open(dir, WalOptions::default())?;
  a replica's durable standing (term, lineage, dirty mark) lives in ReplicaWal's one crash-safe log (crates/service/src/replication.rs): dpack-net opens no log of its own
all crates/service/src/*.rs read_u64_file|write_u64_file 0 write_u64_file(&path, term)?;
  the sidecar files a replica wrote by remove-then-append stay deleted: its standing lives only in ReplicaWal's log
code crates/net/src/*.rs \b(ClientPool|PooledClient|SharedConnector|Condvar)\b 0 pool: ClientPool,
  a tenant or peer holds one NetClient per connection, drops a broken one and finds the primary again with connect_primary: the thread-shared pool stays deleted
code crates/net/src/*.rs \btype\s+[A-Za-z_]*Connector\b <=1 pub type Connector = Arc<dyn Fn() -> NetClient>;
  crates/net redials through one connector type (client.rs): the pool's second connector type stays deleted
program crates/*/src/**/*.rs SegmentStore|EntryRef|MAGIC_TIER|"tier-|\.read_range\(|\.append_nosync\( 0 let bytes = storage.read_range(offset, len)?;
  a block lives only in its store's entry (store.rs) and the write-ahead log: the segment store's second copy on disk stays deleted, and nothing reads a range back or appends unsynced (WalStorage keeps both for the benchmark's TimedStorage)
program crates/*/src/**/*.rs,src/**/*.rs,examples/**/*.rs,benchmark/src/**/*.rs enable_tier|tier_enabled|recover_with_tier 0 if self.tier_enabled {
  every cycle reads exactly the blocks its tasks request (BudgetService::decide): the tier flag that chose the whole ledger instead, and its constructor, stay deleted
code crates/service/src/*.rs snapshot_blocks_all|\.blocks\(\) 0 let curves = ledger.snapshot_blocks_all();
  a cycle's ledger writes each requested block's capacity straight into its state's rows (fill_available through set_capacity): the per-cycle curve map stays deleted, and ProblemState::blocks is for callers outside the service
fn:fit_limit crates/*/src/**/*.rs BUDGET_RTOL\s\* 0 let limit = capacity + BUDGET_RTOL * capacity.abs();
  dp_accounting::fit_limit is the one tolerance formula behind Prop. 6's filter check: fits, the kernels' limits and the tests' edges all go through it, so no copy can drift
code crates/*/src/**/*.rs,src/**/*.rs partial_cmp 0 order.sort_by(|a, b| a.partial_cmp(b).unwrap());
  every float sort keys on knapsack::order_bits (or descending_order, Task::arrival_key, total_cmp): partial_cmp is no total order once a NaN gets in, and the standard sort may panic on one
code crates/*/src/**/*.rs,!crates/wal/src/codec.rs,!crates/check/ (to|from)_le_bytes|struct\sReader\b|fnv1a\( 0 let term = u64::from_le_bytes(buf);
  crates/wal/src/codec.rs holds the one checksummed frame, field Reader and Codec for every log record, snapshot and wire message (crates/check hashes test names into seeds, not bytes)
code crates/*/src/**/*.rs,!crates/net/src/readiness.rs \bunsafe\b 0 let slot = unsafe { &*ptr };
  every program file but crates/net/src/readiness.rs is safe Rust
code crates/net/src/readiness.rs \bunsafe\b 1 let ready = unsafe { ppoll(fds, nfds, &timeout, null()) };
  readiness.rs declares the reactor's ppoll(2) shim, and its one unsafe block is the workspace's only one
code crates/*/src/**/*.rs,!crates/obs/src/ring.rs \bseq:\sAtomicU64 0 seq: AtomicU64,
  crates/obs/src/ring.rs is the one seqlock ring (fetch_add draws a slot, a CAS claims it, fences order the payload): the flight recorder and the span ring are typed views over it
fn:put crates/service/src/store.rs \.(intern(_curve)?|resolve)\( 0 let capacity = interner.resolve(id);
  an entry's capacity CurveId is resolved once into its store's own table by BlockStore::put (registration and restore): anywhere else the interner's process-wide lock lands on the check, charge or snapshot path
all src/**/*.rs,crates/**/*.rs,tests/**/*.rs,examples/**/*.rs \b(LatencyModel|busy_wait|CycleLoop)\b|\borchestrator:: 0 use orchestrator::CycleLoop;
  Fig. 8 and Tab. 2 run on BudgetService (dpack_bench::run_q4): the second engine's latency model, sleeps and cycle loop stay deleted, and no code names the orchestrator crate
all src/**/*.rs,crates/**/*.rs,tests/**/*.rs,examples/**/*.rs \b(SimulationSpec|BackendKind)\b 0 let spec = SimulationSpec::parse(&text)?;
  the key = value config-file simulator stays deleted: call simulator::simulate (the reference) or simulate_service (the product) directly
all crates/bench/src/paper.rs \bsimulate\(|\bOnlineEngine\b|\bdpack_core::online\b 0 let result = simulate(&workload, DPack::default(), &sim);
  every online panel replays on the service (simulate_service, or run_q4 for Fig. 8 and Tab. 2): OnlineEngine is only the reference the equivalence tests hold it to
code crates/service/src/*.rs \.(counter|gauge)\( 0 let granted = registry.counter("dpack_granted_total", "");
  the service's counters and gauges are views the registry reads from its record at scrape time (telemetry.rs): no cell is written beside it
code crates/net/src/repl.rs \.gauge\( 0 let lag = registry.gauge("dpack_repl_lag", "");
  replication levels are views that leave with their role: repl.rs registers no gauge cell (its counters stay cells)
EOF
shopt -u globstar nullglob dotglob
locks="$(awk '/^pub struct BudgetService \{/ { on = 1 } on && /^\}/ { exit }
    on && !/^ *\/\// && /Mutex</ { sub(/:.*/, ""); printf "%s", $1 " " }' crates/service/src/service.rs)"
[ "${locks}" = "books cycle_lock " ] || fail "BudgetService's Mutex fields must be exactly books (the queue, live-task table, tenant records and stats: all a submission touches) and cycle_lock (got: ${locks})"
[ "$(find crates/orchestrator/src -type f)" = crates/orchestrator/src/lib.rs ] \
  && [ "$(cat crates/orchestrator/src/lib.rs)" = 'pub use dpack_core::schedulers::ParallelDPack;' ] \
  || fail "crates/orchestrator/src must be lib.rs holding only the ParallelDPack re-export: the second online engine stays deleted"
if awk '/^[[:space:]]*\[/ { section = $0 }
    (/^[[:space:]]*orchestrator[[:space:]]*=/ && section != "[target.\x27cfg(any())\x27.dependencies]") \
      || /dependencies\.orchestrator\]/ { print FILENAME ":" FNR ": " $0; found = 1 }
    END { exit !found }' Cargo.toml crates/*/Cargo.toml; then
  fail "no crate may depend on orchestrator, a member only because benchmark/Cargo.toml names it (its one entry sits in a never-compiled cfg(any()) table); use dpack_core::schedulers"
fi
bench_bins="$(find crates/bench/src/bin -type f | sort)"
[ "${bench_bins}" = crates/bench/src/bin/paper.rs ] || fail "crates/bench/src/bin must hold only paper.rs, the one runner of the evaluation; add a row to PANELS in crates/bench/src/paper.rs instead of a main; found: ${bench_bins}"
history_copies="$(grep -rnE --include='*.rs' \
    'fn (fold_surviving|fold_reference|assert_states_bit_identical|ledger_bits)\b' \
    crates/*/tests tests | grep -v '/tests/common/' || true)"
for f in $(grep -rlE --include='*.rs' 'LogRecord::decode\(' crates/*/tests tests | grep -v '/tests/common/'); do
  if grep -qE 'in &*[a-z_.]+\.records\b|\.records\.(into_)?iter\(' "${f}"; then
    history_copies+="${history_copies:+$'\n'}${f}: folds LogRecord::decode over a recovered log"
  fi
done
[ -z "${history_copies}" ] || { echo "${history_copies}" >&2; fail "judge a history with dpack_check::check_history and diff_states (Prop. 6, acked grants, charges, one leader per term), and fold a log with crates/service/tests/common/mod.rs"; }
adhoc_allow="$(cat <<'EOF'
crates/core/src/online.rs:OnlineStats
crates/net/src/wire.rs:WireStats
crates/service/src/stats.rs:CycleStats
crates/service/src/stats.rs:DurabilityStats
crates/service/src/stats.rs:ServiceStats
crates/service/src/stats.rs:TenantStats
crates/wal/src/log.rs:WalCounters
EOF
)"
adhoc_found="$(grep -rn --include='*.rs' -E 'pub struct [A-Za-z]*(Counters|Stats|Telemetry)\b' src crates 2>/dev/null \
  | grep -v '^crates/obs/' | sed -E 's|^([^:]+):[0-9]+:.*pub struct ([A-Za-z]+).*|\1:\2|' | sort -u || true)"
adhoc_new="$(comm -13 <(sort -u <<<"${adhoc_allow}") <(echo "${adhoc_found}") || true)"
adhoc_gone="$(comm -23 <(sort -u <<<"${adhoc_allow}") <(echo "${adhoc_found}") || true)"
[ -z "${adhoc_new}${adhoc_gone}" ] || fail "counter/stats structs outside dpack-obs must match the frozen legacy list exactly; register new metrics on the dpack-obs registry (new: ${adhoc_new:-none}; gone, drop from the list: ${adhoc_gone:-none})"
[ "${failed}" = 0 ] || exit 1

# The ruler simplicity PRs are measured with; printed, no threshold.
echo "==> non-test lines: $(scripts/loc.sh \
  | awk '$2 == "crates/service" { service = $1 } $2 == "crates/net" { net = $1 }
         END { print $1 ", " service " in crates/service, " net " in crates/net" }') (scripts/loc.sh)"

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy (all targets, warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q (DPACK_CHECK_CASES=${DPACK_CHECK_CASES})"
cargo test -q

# The service keeps its pending tasks' scheduler rows alive across
# cycles and edits them in place; this suite is the only thing between
# a wrong incremental row and a silently different schedule, and it is
# cheap (0.04 s at 64 cases), so it runs once more at 2000.
echo "==> prop_dense_kernel at DPACK_CHECK_CASES=2000"
DPACK_CHECK_CASES=2000 cargo test -q -p dpack-core --test prop_dense_kernel

# Admission's gates, counters and FIFO ingest against a plain model
# (~2 s at 2000 cases): the one check on their order and error values.
echo "==> admission model property at DPACK_CHECK_CASES=2000"
DPACK_CHECK_CASES=2000 cargo test -q -p dpack-service --lib service::tests::admission_follows_a_plain_model

# Lost wake-ups hang and torn decisions fail a bit check; races show
# best optimized, so the ticket race suite runs in release, 20 times.
echo "==> ticket race suite in release, 20 runs"
for run in $(seq 20); do
  race="$(cargo test -q --release -p dpack-service --lib ticket::tests:: 2>&1)" \
    || { echo "${race}" >&2; echo "ERROR: ticket race suite failed on run ${run}" >&2; exit 1; }
done

# Every commit stages on the real filters and undoes what the journal
# could not make durable; these four suites are all that stands between
# a wrong restore and a silently overdrawn block, and they are cheap
# (~20 s at 500 cases), so they run once more at 500. So does the
# service ≡ OnlineEngine sweep (~15 s): it is what holds the sharded
# service to the paper's allocation at every S and W.
echo "==> batch_crash, recovery, replication_crash, registry, equivalence_sweep at DPACK_CHECK_CASES=500"
DPACK_CHECK_CASES=500 cargo test -q -p dpack-service \
  --test batch_crash --test recovery --test replication_crash --test registry \
  --test equivalence_sweep

# Junk under a valid WAL frame checksum must fail typed, never panic.
echo "==> hostile_log at DPACK_CHECK_CASES=2000"
DPACK_CHECK_CASES=2000 cargo test -q -p dpack-service --test hostile_log

# A block entry is checked, charged and read in place, so it must
# decide and carry every bit pattern core's BlockLedger does (-0.0,
# subnormals, the tolerance edge); the store-level property against it
# is cheap (~2 s). The filter's in-place check and charge must match the
# compose-based definitions on the same bit patterns (~0.1 s). The table-backed
# `ln_factorial` and the one-pass subsampled curves must match the
# O(α²) reference formulas bit for bit on drawn grids (~8 s).
echo "==> store entry, filter in-place and curve bit-identity properties at DPACK_CHECK_CASES=2000"
DPACK_CHECK_CASES=2000 cargo test -q -p dpack-service --lib store::tests::
DPACK_CHECK_CASES=2000 cargo test -q -p dp-accounting --test prop_filter
DPACK_CHECK_CASES=2000 cargo test -q -p dp-accounting --test prop_accounting \
  -- ln_factorial_is_the_summation_bit_for_bit subsampled_curves_match_the_reference_bit_for_bit


# The vendored micro-benches must keep compiling *and running*; smoke
# mode runs each benchmark for exactly one iteration.
echo "==> vendored micro-benches (smoke mode)"
for b in ablation filters knapsack_solvers rdp_accounting sched_kernels; do
  cargo bench -q -p dpack-bench --bench "${b}" -- --smoke
done

# The paper runner's panels that finish in seconds (~6-7 s together on
# a 2-vCPU box), every online one but fig7b and gap among them, all on
# the service, run so they cannot rot. The slow ones (fig4a, fig5,
# fig7b, gap) are left to a person. Their CSVs go to a temporary
# directory, not results/.
echo "==> paper runner smoke run (fig1 fig2 fig3 fig4b fig6 fig7a fig8 fig9 tab2 fairness)"
paper_out="$(mktemp -d)"
cargo run --release -q -p dpack-bench --bin paper -- \
  fig1 fig2 fig3 fig4b fig6 fig7a fig8 fig9 tab2 fairness --out "${paper_out}"
rm -rf "${paper_out}"

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
# not reproduce. The self-heal suite rides along: its ship rounds
# (a replica dying or hanging mid-round) run under manual clocks and
# must be as repeatable.
echo "==> replay determinism guard (cluster chaos and self-heal suites)"
run_chaos_seeded() {
  DPACK_CHECK_SEED=20250742 cargo test -q -p dpack-net --test cluster_chaos --test repl_selfheal 2>&1 \
    | sed 's/finished in [0-9.]*s//'
}
first="$(run_chaos_seeded)"
second="$(run_chaos_seeded)"
if [ "${first}" != "${second}" ]; then
  echo "ERROR: cluster chaos suite diverged between two runs of the same seed:" >&2
  diff <(echo "${first}") <(echo "${second}") >&2 || true
  exit 1
fi

# Fs-backed tests route through dpack-wal's TempDir (removed on drop,
# even on panic), the benchmark and the examples write only under
# ignored directories, and nothing above rewrites a tracked file — so
# any difference here is a step that dirtied the tree.
echo "==> checking CI left the workspace as it found it"
tree_after="$(git status --porcelain)"
if [ "${tree_before}" != "${tree_after}" ]; then
  echo "ERROR: CI changed the workspace:" >&2
  diff <(echo "${tree_before}") <(echo "${tree_after}") >&2 || true
  exit 1
fi

echo "CI OK"
