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

echo "==> checking the ledger stays behind its journal"
# ledger.rs stages on the filters and asks journal.rs whether the batch
# became durable; records, group commit and WAL options are the
# journal's alone, and the per-record and in-memory commit forks stay
# deleted. Tests below `#[cfg(test)]` may name anything.
if awk '/#\[cfg\(test\)\]/ { exit } { print FILENAME ":" FNR ": " $0 }' \
    crates/service/src/ledger.rs \
  | grep -E 'ShardRecord|CoordRecord|append_batch|WalOptions|log_grant|commit_one_local'; then
  echo "ERROR: crates/service/src/ledger.rs names journal-side machinery (see above)" >&2
  exit 1
fi

echo "==> checking the cycle stays one pending set and one pass"
# service.rs decides once per cycle over every pending task and stripes
# only the commit; per-shard pending lanes, their routing and a
# per-lane commit target are how a sharded service came to grant 21 %
# fewer Alibaba-DP tasks than one ledger, and stay deleted.
if awk '/#\[cfg\(test\)\]/ { exit } { print FILENAME ":" FNR ": " $0 }' \
    crates/service/src/service.rs \
  | grep -E 'CommitTarget|Lanes|Vec<(Lane|Pending)>'; then
  echo "ERROR: crates/service/src/service.rs shards the scheduling decision again (see above)" >&2
  exit 1
fi

echo "==> checking a pass's threads are chosen in one place and tickets live in the live-task table"
# SchedulerChoice::schedule (config.rs) sizes every pass from its tasks ×
# orders; the ticket map beside the live-task table (in Books) stays deleted.
if awk 'FNR == 1 { on = 1 } /#\[cfg\(test\)\]/ { on = 0 } on { print FILENAME ":" FNR ": " $0 }' \
    crates/service/src/*.rs | grep -vE '^[^ ]+ *//|^crates/service/src/config.rs:' \
  | grep -E 'tickets:|Parallel(DPack|Dpf)|schedule_threaded|dpf_schedule|pass_threads'; then
  echo "ERROR: only SchedulerChoice::schedule picks a pass's threads, and tickets live in Books (see above)" >&2
  exit 1
fi

echo "==> checking a submission takes one service lock"
# BudgetService (service.rs) holds two locks: `books` — the queue, the
# live-task table, the tenant records and the stats, all a submission
# touches — and `cycle_lock`. The queue type and live-task lock that
# made admission take four stay deleted.
locks="$(awk '/^pub struct BudgetService \{/ { on = 1 } on && /^\}/ { exit }
    on && !/^ *\/\// && /Mutex</ { sub(/:.*/, ""); printf "%s", $1 " " }' crates/service/src/service.rs)"
if [ "${locks}" != "books cycle_lock " ] || awk '/#\[cfg\(test\)\]/ { nextfile } { print FILENAME ":" FNR ": " $0 }' \
    crates/service/src/*.rs | grep -vE '^[^ ]+ *//' | grep -E 'AdmissionQueue|live: Mutex'; then
  echo "ERROR: BudgetService's Mutex fields must be exactly books and cycle_lock, with no AdmissionQueue or live-task lock (got: ${locks})" >&2
  exit 1
fi

echo "==> checking a cycle pays one quorum round per commit step"
# journal.rs appends a step's records to the one log and then ships
# every stream's slice in one ReplicationSink::ship_all round — from
# exactly one place, so no per-shard ship is reachable from a cycle —
# and service.rs commits a cycle's shard-local grants in one ledger
# call. A fan-out of the commit itself is how each shard came to pay
# its own quorum wait.
journal_code="$(awk '/#\[cfg\(test\)\]/ { exit } { print FILENAME ":" FNR ": " $0 }' \
    crates/service/src/journal.rs | grep -vE '^[^ ]+ *//' || true)"
if [ "$(grep -cE '\.ship_all\(' <<<"${journal_code}")" != 1 ] \
    || grep -E '\.ship\(' <<<"${journal_code}"; then
  echo "ERROR: crates/service/src/journal.rs must reach the sink through ship_all, in exactly one place" >&2
  exit 1
fi
if awk '/#\[cfg\(test\)\]/ { exit } { print FILENAME ":" FNR ": " $0 }' \
    crates/service/src/service.rs \
  | grep -E 'fan_out'; then
  echo "ERROR: crates/service/src/service.rs fans the commit out again (see above)" >&2
  exit 1
fi

echo "==> checking a durable ledger writes one log"
# One Wal holds every shard's stream and the coordinator's: journal.rs
# opens it once and appends on the calling thread, and no source names
# the per-stream directories or sidecars it replaced.
if [ "$(grep -cE 'Wal::open\(' <<<"${journal_code}")" != 1 ] \
    || grep -E 'thread::scope|spawn' <<<"${journal_code}" \
    || awk 'FNR == 1 { on = 1 } /#\[cfg\(test\)\]/ { on = 0 } on { print FILENAME ":" FNR ": " $0 }' \
      $(find crates/*/src -name '*.rs') | grep -E 'shard_dir|COORD_DIR|SEQBASE_FILE'; then
  echo "ERROR: a durable ledger must write one log through one Wal (see above)" >&2
  exit 1
fi

echo "==> checking a replica keeps its standing in one log"
# ReplicaWal (crates/service/src/replication.rs) holds a replica's whole
# durable standing — term, lineage, dirty mark — in one crash-safe log,
# so dpack-net opens no log of its own, and the sidecar files written by
# remove-then-append stay deleted. Tests below `#[cfg(test)]` may open
# anything.
if awk 'FNR == 1 { on = 1 } /#\[cfg\(test\)\]/ { on = 0 } on { print FILENAME ":" FNR ": " $0 }' \
    crates/net/src/*.rs | grep -vE '^[^ ]+ *//' | grep -E '\bWal::open\(' \
  || grep -nE 'read_u64_file|write_u64_file' crates/service/src/*.rs; then
  echo "ERROR: a replica's standing lives only in ReplicaWal's one log (see above)" >&2
  exit 1
fi

echo "==> checking a peer is reached one way"
# A tenant or a peer holds one NetClient per connection and redials
# through one connector type (client.rs); a broken client is dropped and
# NetClient::connect_primary finds the primary again. The thread-shared
# pool and its second connector type stay deleted. Tests below
# `#[cfg(test)]` may name anything.
net_code="$(awk 'FNR == 1 { on = 1 } /#\[cfg\(test\)\]/ { on = 0 } on { print FILENAME ":" FNR ": " $0 }' \
  crates/net/src/*.rs | grep -vE '^[^ ]+ *//')"
if grep -E '\b(ClientPool|PooledClient|SharedConnector|Condvar)\b' <<<"${net_code}" \
    || [ "$(grep -cE '\btype +[A-Za-z_]*Connector\b' <<<"${net_code}")" -gt 1 ]; then
  echo "ERROR: crates/net reaches a peer through one NetClient per connection and one Connector type (see above)" >&2
  exit 1
fi

echo "==> checking a block is kept only in its store and the log"
# Every block is one in-memory entry in its shard's store (store.rs),
# made durable only through the write-ahead log. The segment store that
# kept a second copy on disk, with its entry references, frame magic and
# files, stays deleted, and nothing reads a range back or appends
# unsynced; WalStorage keeps those two methods only for the benchmark
# crate's TimedStorage.
if awk 'FNR == 1 { on = 1 } /#\[cfg\(test\)\]/ { on = 0 } on { print FILENAME ":" FNR ": " $0 }' \
    $(find crates/*/src -name '*.rs') \
  | grep -E 'SegmentStore|EntryRef|MAGIC_TIER|"tier-|\.read_range\(|\.append_nosync\('; then
  echo "ERROR: a block must live only in its store's entry and the write-ahead log (see above)" >&2
  exit 1
fi

echo "==> checking no flag picks a cycle's snapshot view"
# Every service's cycle reads exactly the blocks its tasks request
# (BudgetService::decide). The tier flag that chose between that view
# and the whole ledger, and the constructor that set it, stay deleted
# from every program file; tests below `#[cfg(test)]` may name anything.
if awk 'FNR == 1 { on = 1 } /#\[cfg\(test\)\]/ { on = 0 } on { print FILENAME ":" FNR ": " $0 }' \
    $(find crates/*/src src examples benchmark/src -name '*.rs') \
  | grep -E 'enable_tier|tier_enabled|recover_with_tier'; then
  echo "ERROR: a flag picks the snapshot view again (see above)" >&2
  exit 1
fi

echo "==> checking a cycle's capacities go straight into the scheduler's rows"
# BudgetService::decide has the ledger write each requested block's
# available capacity into its pending state's rows
# (ShardedLedger::fill_available through ProblemState::set_capacity).
# The per-cycle curve map that was built and then copied into those rows
# stays deleted, and ProblemState::blocks, a map built from the rows on
# demand, is for callers outside the service. Tests below `#[cfg(test)]`
# may name anything.
if awk 'FNR == 1 { on = 1 } /#\[cfg\(test\)\]/ { on = 0 } on { print FILENAME ":" FNR ": " $0 }' \
    crates/service/src/*.rs | grep -vE '^[^ ]+ *//' \
  | grep -E 'snapshot_blocks_all|\.blocks\(\)'; then
  echo "ERROR: crates/service/src builds a block map for a cycle again (see above)" >&2
  exit 1
fi

echo "==> checking the budget tolerance is applied in one place"
# dp_accounting::fit_limit is the largest consumption that fits a
# capacity; `fits`, the scheduler kernels' precomputed limits and the
# tests' tolerance edges all go through it, so no second copy of the
# formula can drift from it. Tests below `#[cfg(test)]` may name anything.
if awk 'FNR == 1 { on = 1; name = "" } /#\[cfg\(test\)\]/ { on = 0 }
    on && match($0, /fn [a-z_0-9]+/) { name = substr($0, RSTART + 3, RLENGTH - 3) }
    on && /BUDGET_RTOL \*/ && name != "fit_limit" { print FILENAME ":" FNR ": " $0 }' \
    $(find crates/*/src -name '*.rs') | grep .; then
  echo "ERROR: only dp_accounting::fit_limit may apply BUDGET_RTOL (see above)" >&2
  exit 1
fi

echo "==> checking every float sort uses one total order"
# knapsack::order_bits is the one total order on f64 (-0.0 and 0.0
# equal, NaN beyond the infinities); every float sort keys on it, or on
# knapsack::descending_order, Task::arrival_key or total_cmp. A
# partial_cmp comparator is no total order once a NaN gets in, and the
# standard sort may panic on one. Tests below `#[cfg(test)]` may name
# anything.
if awk 'FNR == 1 { on = 1 } /#\[cfg\(test\)\]/ { on = 0 } on { print FILENAME ":" FNR ": " $0 }' \
    $(find crates/*/src src -name '*.rs') | grep -vE '^[^ ]+ *//' | grep -E 'partial_cmp'; then
  echo "ERROR: program code compares floats with partial_cmp; key on knapsack::order_bits (see above)" >&2
  exit 1
fi

echo "==> checking bytes are coded in one place"
# crates/wal/src/codec.rs holds the one checksummed frame, the one field
# Reader and the Codec trait that every log record, snapshot and wire
# message is written and read with, so no other program code spells out
# a byte order, a reader or a checksum. Tests below `#[cfg(test)]` may
# name anything, and crates/check (the property-test harness) hashes
# test names into seeds, not bytes into frames.
if awk 'FNR == 1 { on = 1 } /#\[cfg\(test\)\]/ { on = 0 } on { print FILENAME ":" FNR ": " $0 }' \
    $(find crates/*/src -name '*.rs' -not -path crates/wal/src/codec.rs -not -path 'crates/check/*') \
  | grep -vE '^[^ ]+ *//' | grep -E '(to|from)_le_bytes|struct Reader\b|fnv1a\('; then
  echo "ERROR: only crates/wal/src/codec.rs may code bytes; use its Reader and Codec (see above)" >&2
  exit 1
fi

echo "==> checking unsafe lives in one place"
# crates/net/src/readiness.rs declares the reactor's ppoll(2) shim, and
# its one unsafe block is the workspace's only one: every other program
# file is safe Rust. Tests below `#[cfg(test)]` may name anything.
if awk 'FNR == 1 { on = 1 } /#\[cfg\(test\)\]/ { on = 0 } on { print FILENAME ":" FNR ": " $0 }' \
    $(find crates/*/src -name '*.rs') | grep -vE '^[^ ]+ *//' | grep -wE 'unsafe' \
  | grep -v '^crates/net/src/readiness.rs:' \
  || [ "$(grep -v '^ *//' crates/net/src/readiness.rs | grep -cw 'unsafe')" != 1 ]; then
  echo "ERROR: unsafe code belongs only in crates/net/src/readiness.rs, in one block (see above)" >&2
  exit 1
fi

echo "==> checking there is one seqlock ring"
# crates/obs/src/ring.rs is the one lock-free seqlock ring (one
# fetch_add draws a slot, one CAS claims it; fences order the payload
# around the slot's sequence word). The flight recorder and the span
# ring are typed views over it, so no other program file declares a
# slot's `seq: AtomicU64`.
# Tests below `#[cfg(test)]` may name anything.
if awk 'FNR == 1 { on = 1 } /#\[cfg\(test\)\]/ { on = 0 } on { print FILENAME ":" FNR ": " $0 }' \
    $(find crates/*/src -name '*.rs' -not -path crates/obs/src/ring.rs) \
  | grep -vE '^[^ ]+ *//' | grep -E '\bseq: AtomicU64'; then
  echo "ERROR: only crates/obs/src/ring.rs may hold a seqlock slot; record through its typed views (see above)" >&2
  exit 1
fi

echo "==> checking the block store interns in one place"
# A block entry keeps its capacity as an interned CurveId, resolved once
# per distinct id into its store's own table by the one entry
# constructor, BlockStore::put (registration and restore both go
# through it). Any other call would take the process-wide interner's
# lock on the check, charge or snapshot path. Tests below
# `#[cfg(test)]` may name anything.
if awk 'FNR == 1 { on = 1; name = "" } /#\[cfg\(test\)\]/ { on = 0 }
    on && match($0, /fn [a-z_0-9]+/) { name = substr($0, RSTART + 3, RLENGTH - 3) }
    on && /\.(intern(_curve)?|resolve)\(/ && name != "put" { print FILENAME ":" FNR ": " $0 }' \
    crates/service/src/store.rs | grep .; then
  echo "ERROR: in store.rs only BlockStore::put may intern or resolve (see above)" >&2
  exit 1
fi

echo "==> checking there is one online service"
# Fig. 8 and Tab. 2 run on BudgetService (dpack_bench::run_q4). The
# second engine that wrapped OnlineEngine behind a channel, its injected
# latency sleeps and its cycle loop stay deleted: crates/orchestrator is
# one re-export, a workspace member only because benchmark/Cargo.toml
# names it by path, and no crate compiles against it. The one manifest
# entry allowed to name it sits in a never-compiled `cfg(any())` table,
# which only keeps an edge benchmark/Cargo.lock records.
orchestrator_src="$(find crates/orchestrator/src -type f)"
if [ "${orchestrator_src}" != crates/orchestrator/src/lib.rs ] \
    || [ "$(cat crates/orchestrator/src/lib.rs)" != 'pub use dpack_core::schedulers::ParallelDPack;' ]; then
  echo "ERROR: crates/orchestrator/src must be lib.rs holding only the ParallelDPack re-export" >&2
  exit 1
fi
if awk '
  /^[[:space:]]*\[/ { section = $0 }
  (/^[[:space:]]*orchestrator[[:space:]]*=/ && section != "[target.\x27cfg(any())\x27.dependencies]") \
    || /dependencies\.orchestrator\]/ { print FILENAME ":" FNR ": " $0; found = 1 }
  END { exit !found }
' Cargo.toml crates/*/Cargo.toml; then
  echo "ERROR: no crate may depend on orchestrator; use dpack_core::schedulers (see above)" >&2
  exit 1
fi
if grep -rnE --include='*.rs' '\b(LatencyModel|busy_wait|CycleLoop)\b|\borchestrator::' \
    src crates tests examples; then
  echo "ERROR: the orchestrator's latency model and cycle loop stay deleted, and no code names the crate (see above)" >&2
  exit 1
fi

echo "==> checking the paper's experiments are rows of one runner"
# crates/bench/src/paper.rs describes each panel of the evaluation once,
# as a row of PANELS, and crates/bench/src/bin/paper.rs is the one
# binary that runs them by name. The per-figure mains and the
# key = value config-file simulator that switched between the engine
# and the service stay deleted: call simulator::simulate (the
# reference) or simulate_service (the product) directly.
bench_bins="$(find crates/bench/src/bin -type f | sort)"
if [ "${bench_bins}" != crates/bench/src/bin/paper.rs ]; then
  echo "ERROR: crates/bench/src/bin must hold only paper.rs; add a row to PANELS in crates/bench/src/paper.rs instead; found:" >&2
  echo "${bench_bins}" >&2
  exit 1
fi
if grep -rnwE --include='*.rs' 'SimulationSpec|BackendKind' src crates tests examples; then
  echo "ERROR: the config-file simulator stays deleted; call simulate or simulate_service directly (see above)" >&2
  exit 1
fi
# Every online panel replays on the product: simulate_service, or
# run_q4 for Fig. 8 and Tab. 2. The OnlineEngine is only the reference
# model the equivalence tests hold the service to, so the runner names
# neither it nor simulate, its replay.
if grep -nE '\bsimulate\(|\bOnlineEngine\b|\bdpack_core::online\b' crates/bench/src/paper.rs; then
  echo "ERROR: paper.rs replays its online panels on the service (simulate_service), not on the engine reference (see above)" >&2
  exit 1
fi

echo "==> checking a history is judged in one place"
# dpack_check::check_history states the rules of a correct run once
# (Prop. 6, acked grants survive, nothing charged twice, one leader per
# term) and dpack_check::diff_states is the one bit-exact ledger
# comparison; crates/service/tests/common/mod.rs holds the one reference
# fold of a durable log. The per-suite folds and comparisons they
# replaced stay deleted: no test file outside a tests/common module
# defines them, or decodes the records of a recovered log.
history_copies="$(grep -rnE --include='*.rs' \
    'fn (fold_surviving|fold_reference|assert_states_bit_identical|ledger_bits)\b' \
    crates/*/tests tests | grep -v '/tests/common/' || true)"
for f in $(grep -rlE --include='*.rs' 'LogRecord::decode\(' crates/*/tests tests | grep -v '/tests/common/'); do
  if grep -qE 'in &*[a-z_.]+\.records\b|\.records\.(into_)?iter\(' "${f}"; then
    history_copies+="${history_copies:+$'\n'}${f}: folds LogRecord::decode over a recovered log"
  fi
done
if [ -n "${history_copies}" ]; then
  echo "${history_copies}" >&2
  echo "ERROR: judge a history with dpack_check::check_history and diff_states, and fold a log with crates/service/tests/common/mod.rs (see above)" >&2
  exit 1
fi

echo "==> checking new counter structs go through dpack-obs"
# New metrics belong in the dpack-obs registry (named, labelled,
# scrapable), not in one-off counter structs. The legacy pre-obs
# structs below are frozen, and the list is exact: anything new fails
# the gate, and so does an entry whose struct is gone.
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
adhoc_found="$(grep -rn --include='*.rs' -E 'pub struct [A-Za-z]*(Counters|Stats|Telemetry)\b' \
    src crates 2>/dev/null \
  | grep -v '^crates/obs/' \
  | sed -E 's|^([^:]+):[0-9]+:.*pub struct ([A-Za-z]+).*|\1:\2|' \
  | sort -u || true)"
adhoc_new="$(comm -13 <(sort -u <<<"${adhoc_allow}") <(echo "${adhoc_found}") || true)"
adhoc_gone="$(comm -23 <(sort -u <<<"${adhoc_allow}") <(echo "${adhoc_found}") || true)"
if [ -n "${adhoc_new}${adhoc_gone}" ]; then
  echo "ERROR: counter/stats structs outside dpack-obs must match the frozen list exactly" >&2
  echo "new (register on the dpack-obs registry instead): ${adhoc_new:-none}" >&2
  echo "gone (drop them from the list): ${adhoc_gone:-none}" >&2
  exit 1
fi

echo "==> checking the service counts each event once"
# The service's counters and gauges are views the registry reads from
# its record at scrape time (crates/service/src/telemetry.rs), so its
# program code registers no counter or gauge cell to write beside it.
# Replication levels are views too (crates/net/src/repl.rs): its
# program code registers no gauge cell; its counters stay cells.
if awk '/#\[cfg\(test\)\]/ { nextfile }
    /^[[:space:]]*\/\// { next }
    (FILENAME ~ /repl\.rs$/ ? /\.gauge\(/ : /\.(counter|gauge)\(/) { print FILENAME ":" FNR ": " $0; bad = 1 }
    END { exit !bad }' crates/service/src/*.rs crates/net/src/repl.rs >&2; then
  echo "ERROR: program code registers counter/gauge cells where a view over its owner's state belongs (see above)" >&2
  exit 1
fi

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
