#!/usr/bin/env bash
# CI for redshift-sim: fully offline build + test + bench-compile, plus a
# hermeticity guard that fails if any crates.io dependency sneaks back in.
#
# The workspace has a zero-dependency policy: everything `rand`,
# `proptest`, `criterion`, `crossbeam` and `parking_lot` used to provide
# lives in-tree in `crates/testkit`. CI must pass on a machine with no
# registry access at all, which is why every cargo invocation is
# `--offline`.
set -euo pipefail
cd "$(dirname "$0")"

echo "== hermeticity guard: no registry dependencies =="
# Path dependencies render as `name vX.Y.Z (/abs/path)`; a registry
# dependency has no `(/` suffix. Any such line fails the build.
violations=$(cargo tree --workspace --offline --edges normal,build,dev --prefix none \
  | sort -u | grep -v '(/' | grep -v '^\s*$' || true)
if [ -n "$violations" ]; then
  echo "error: non-path dependencies found (zero-dependency policy):" >&2
  echo "$violations" >&2
  exit 1
fi
echo "ok: all dependencies are workspace-local"

echo "== hermeticity guard: redsim-obs is a leaf (no deps at all) =="
# The observability substrate must stay pure-std: instrumenting a hot
# path can never be the reason a build grows a dependency. This covers
# the histogram module too — quantile sketches are a classic excuse to
# pull in a stats crate, and the log-bucketed in-tree one is enough.
obs_deps=$(cargo tree -p redsim-obs --offline --edges normal --prefix none \
  | sort -u | grep -v '^redsim-obs ' | grep -v '^\s*$' || true)
if [ -n "$obs_deps" ]; then
  echo "error: redsim-obs grew dependencies:" >&2
  echo "$obs_deps" >&2
  exit 1
fi
echo "ok: redsim-obs has no dependencies"

echo "== hermeticity guard: redsim-faultkit is a leaf (no deps at all) =="
# The failpoint substrate rides inside every production S3/replication
# path; like obs, it must stay pure-std so fault seams can be added to
# any crate without dependency cycles or new baggage.
faultkit_deps=$(cargo tree -p redsim-faultkit --offline --edges normal --prefix none \
  | sort -u | grep -v '^redsim-faultkit ' | grep -v '^\s*$' || true)
if [ -n "$faultkit_deps" ]; then
  echo "error: redsim-faultkit grew dependencies:" >&2
  echo "$faultkit_deps" >&2
  exit 1
fi
echo "ok: redsim-faultkit has no dependencies"

echo "== hermeticity guard: redsim-frontdoor stays transport-only =="
# The wire server must never grow a non-workspace dependency (no TLS /
# auth / async stacks — DESIGN.md §12 non-goals): its whole closure is
# redsim-* path crates.
frontdoor_deps=$(cargo tree -p redsim-frontdoor --offline --edges normal --prefix none \
  | sort -u | grep -v '^redsim-' | grep -v '^\s*$' || true)
if [ -n "$frontdoor_deps" ]; then
  echo "error: redsim-frontdoor grew non-workspace dependencies:" >&2
  echo "$frontdoor_deps" >&2
  exit 1
fi
echo "ok: redsim-frontdoor depends only on workspace crates"

echo "== hermeticity guard: redsim-workload stays workspace-only =="
# The workload synthesizer is the classic place for a stats/distribution
# crate to sneak in (Zipf, Poisson thinning, diurnal curves); all of it
# lives in redsim-simkit, so the closure must stay redsim-* path crates.
workload_deps=$(cargo tree -p redsim-workload --offline --edges normal --prefix none \
  | sort -u | grep -v '^redsim-' | grep -v '^\s*$' || true)
if [ -n "$workload_deps" ]; then
  echo "error: redsim-workload grew non-workspace dependencies:" >&2
  echo "$workload_deps" >&2
  exit 1
fi
echo "ok: redsim-workload depends only on workspace crates"

echo "== build (release, offline) =="
cargo build --release --offline --workspace

echo "== benches compile (offline) =="
cargo bench --no-run --offline -p redsim-bench

echo "== tests (offline) =="
cargo test -q --offline --workspace

echo "== benchmark harness builds against this tree (its own workspace) =="
# `benchmark/` is outside the workspace, so nothing above compiles it: an
# API it imports could be removed from `core` and only the benchmark
# driver would notice. Builds `rsbench` and runs its harness unit tests.
CARGO_TARGET_DIR=target/benchmark cargo test --offline --manifest-path benchmark/Cargo.toml

echo "== trace invariants (quick property pass) =="
# A smaller random workload than the in-suite default, as a fast
# standalone gate: spans all close, children nest, stl_query counts.
RSIM_PROP_CASES=4 cargo test -q --offline --test properties trace_invariants

echo "== wlm invariants (quick property pass) =="
# Mixed-workload admission accounting plus topology-change drains
# (resize, DR failover) at a reduced case count. Failing seeds are
# pinned in tests/properties.proptest-regressions and replayed first;
# reproduce any failure with RSIM_SEED=<seed> and the full suite.
RSIM_PROP_CASES=4 cargo test -q --offline --test properties wlm_

echo "== chaos invariants, write seams armed (quick property pass) =="
# Randomized COPY/SELECT/kill/revive/backup/restore schedules under
# randomized transient failpoint configs — including the write seams
# (mirror.write.primary/secondary, s3.put), which transactional COPY
# makes safe to arm: a load that fails mid-write rolls back block-for-
# block, so exactness tracking asserts a failed COPY is observationally
# invisible (same SELECTs, rows_estimate, loads_since_analyze,
# copy.rows_loaded). Every op returns exact results or a typed
# retryable error, the cluster heals once faults clear, no hangs.
# Failing seeds are pinned in tests/properties.proptest-regressions;
# replay with RSIM_SEED=<seed> (and RSIM_FAILPOINTS for ad-hoc configs).
RSIM_PROP_CASES=4 cargo test -q --offline --test properties chaos_

echo "== mvcc invariants (quick property pass) =="
# Multi-writer transactions: randomized multi-session COPY/INSERT/SELECT
# schedules over one shared table. Snapshot reads never observe a torn
# write, first-committer-wins conflicts are counted exactly once (client
# errors == txn.conflicts == stl_tr_conflict rows), retried losers all
# land, and quiesce leaks no spans/sessions/WLM slots.
RSIM_PROP_CASES=4 cargo test -q --offline --test properties mvcc_

echo "== crash-recovery invariants (quick property pass) =="
# Redo-log replay: a seeded write schedule, a crash at a random armed
# WAL seam (append/sync/commit) with the hard-crash flag up, then
# recovery. The committed prefix — and nothing else — is visible; the
# torn statement's orphan blocks are scrubbed; a second crash/recover is
# a fixpoint. Replay a failure with RSIM_SEED=<seed>.
RSIM_PROP_CASES=4 cargo test -q --offline --test properties recovery_

echo "== load-time statistics invariants (quick property pass) =="
# COPY (STATUPDATE) and INSERT fold the loaded batch into the table's
# statistics record instead of rescanning the table: over generated
# schedules of COPY / INSERT / STATUPDATE OFF / crash-recover /
# snapshot-restore / resize on KEY, EVEN and ALL tables with every
# DataType, the folded record equals what ANALYZE computes next, field
# for field and sketch hash for hash.
RSIM_PROP_CASES=4 cargo test -q --offline --test properties stats_

echo "== session + result cache invariants (quick property pass) =="
# Randomized multi-session schedules: cache hits bit-identical to cold
# executions, rolled-back COPY never moves the catalog version, abrupt
# disconnects (in-process and over the wire) leak no sessions or spans.
RSIM_PROP_CASES=4 cargo test -q --offline --test properties session_

echo "== qmr invariants (quick property pass) =="
# Query-monitoring rules: abort never fires on EXPLAIN / EXPLAIN
# ANALYZE / system-table reads (they bypass WLM), rule-hops and
# max_wait timeout-hops both land in stl_wlm_query.hops, and rule
# evaluation under the chaos harness leaks no spans or WLM slots.
RSIM_PROP_CASES=4 cargo test -q --offline --test properties qmr_

echo "== profiler invariants (quick property pass) =="
# svl_query_report row count == queries x slices x steps for a pinned
# workload (and zero with profiling off); EXPLAIN ANALYZE annotates
# every plan line with actual rows + time and allocates no query id.
RSIM_PROP_CASES=4 cargo test -q --offline --test properties profile_

echo "== workload replay invariants (quick property pass) =="
# Fleet-scale synthesis + replay: same seed ⇒ byte-identical schedule
# and identical per-class query counts / cache-hit totals across fresh
# clusters; WLM ledger balances under concurrent wall-mode replay with a
# QMR rule armed; 30s chaos stalls ride the virtual clock instead of
# sleeping. Reproduce a failing case with RSIM_SEED=<seed>.
RSIM_PROP_CASES=4 cargo test -q --offline --test properties workload_

echo "== vectorized-kernel invariants (quick property pass) =="
# The engine has two expression evaluators: the typed columnar kernels
# and the row interpreter (`interp::eval_row`), which is the reference —
# and the fallback the binder runs for whatever the kernels decline.
# Differential fuzz of the first against the second: random batches
# (NULLs, NaN/±0/±inf float specials, i64::MAX/MIN, multi-byte text)
# under random predicate trees with arithmetic operands and LIKE shapes
# must agree bit-for-bit whenever the kernel path covers the
# expression; where the reference raises (overflow, x / 0, x % 0 — the
# f64 lane included) the kernel must decline; a chain's kernel answer,
# when given, is the reference's short-circuit answer for the chain;
# and coverage itself is asserted (>80% of the trees the reference can
# evaluate). NaN total-order comparisons are pinned exhaustively.
# vector_aggregates_match_value_path holds the typed accumulators to
# the row-at-a-time AggState path (NULLs, NaN, ±0, sums wrapping past
# i64::MAX, filters that keep nothing, empty tables; no key, an integer
# or VARCHAR key, two of them, NULL keys). vector_joins_match_baseline
# is the join's oracle: generated two- and three-table plans on the
# executor vs engine::baseline — every JoinDistStrategy incl. a join
# above a join, INNER and LEFT, residuals, NULL and duplicate-heavy
# keys, INT2 ⋈ INT8 / DATE / VARCHAR keys, build and probe sides
# arriving empty, partly and fully selected, any emit list; ordered
# lists on one slice, f64 sums bit for bit. vector_interp_fallback_*
# pins exec.interp_fallback and exec.key_fallback at 0 on the
# benchmark's statement shapes (adhoc_scan, star_join, dashboards),
# the first non-zero on a cast/CASE predicate, a function projection or
# sort key, and a CASE group key or aggregate argument, the second on a
# FLOAT8 join key, a DECIMAL group key and a three-key GROUP BY.
# Reproduce with RSIM_SEED=<seed>.
RSIM_PROP_CASES=4 cargo test -q --offline --test properties vector_

echo "== one expression semantics (quick differential pass) =="
# The production engine and the row-store baseline answer the same rows
# or raise the same error code on a panel with one shape per arm of the
# `Value` evaluator (casts from strings, guarded and unguarded
# division, INT/SMALLINT width overflow, DECIMAL arithmetic, functions,
# CASE as group key / aggregate argument, ORDER BY an expression); the
# two user-facing bugs that one semantics closed stay closed.
RSIM_PROP_CASES=4 cargo test -q --offline --test properties compiled_equals_interpreted
cargo test -q --offline --test end_to_end insert_parses_strings
cargo test -q --offline --test end_to_end guards_protect_division

echo "== frontdoor wire-server smoke (64 concurrent sessions) =="
# The concurrent TCP server end to end: 64 clients, backlog rejection
# with a retryable THROTTLE, typed errors over the wire, graceful drain.
cargo test -q --offline --test frontdoor_server

echo "== result-cache bench baseline is honored (benchdiff gate) =="
# Re-running `cargo bench -p redsim-bench --bench result_cache` rewrites
# results/result_cache.csv; this diff fails CI if the repeat-mix p50
# regressed >15% against the committed baseline. With a fresh checkout
# the two files are identical and the gate is a no-op.
cargo run -q --offline -p redsim-bench --bin benchdiff -- \
  results/result_cache_baseline.csv results/result_cache.csv

echo "== profiler overhead stays within 15% (benchdiff gate) =="
# The profiler-overhead bench writes two CSVs with identical keys —
# the same query mix with per-step profiling off (baseline) and on.
# benchdiff's default 15% threshold IS the overhead budget: if
# profiling ever costs more than 15% p50 on any bench in the mix,
# this gate fails. Regenerate both files with
#   cargo bench --offline -p redsim-bench --bench profiler_overhead
cargo run -q --offline -p redsim-bench --bin benchdiff -- \
  results/profiler_overhead_off.csv results/profiler_overhead_on.csv

echo "== workload macro-bench baselines are honored (benchdiff gates) =="
# The workload_replay bench writes per-class latency CSVs from the
# seeded 1k-tenant virtual replay — the same statements every run, so a
# drift is an engine/session/WLM cost change, not workload noise. Both
# p50 and tail are gated: dashboards live and die by p99. Regenerate
# after an intentional perf change with
#   cargo bench --offline -p redsim-bench --bench workload_replay
# and copy each workload_<class>.csv over its _baseline.csv.
for wl_class in dashboard etl adhoc; do
  cargo run -q --offline -p redsim-bench --bin benchdiff -- \
    "results/workload_${wl_class}_baseline.csv" "results/workload_${wl_class}.csv"
  cargo run -q --offline -p redsim-bench --bin benchdiff -- --p99 \
    "results/workload_${wl_class}_baseline.csv" "results/workload_${wl_class}.csv"
done

echo "== copy_load WAL-overhead budget (benchdiff gate) =="
# Every COPY/INSERT appends+fsyncs a redo-log delta (table image with
# its statistics sketches) before it commits. Re-running
# `cargo bench -p redsim-bench --bench copy_load` rewrites
# results/copy_load.csv (and BENCH_copy_load.json); the stock 15% p50
# gate against the committed baseline is the budget for that path, for
# the fresh-table load, the n-th load and the per-value statistics fold.
cargo run -q --offline -p redsim-bench --bin benchdiff -- \
  results/copy_load_baseline.csv results/copy_load.csv

echo "== COPY cost is flat in table size (nth_copy flatness check) =="
# nth_copy/1 and nth_copy/20 are the same 10k x 4 COPY into a table
# holding 0 and 190k rows. Statistics are folded from the batch, so the
# 20th may cost at most 1.5x the 1st; a rescan of the table on the load
# path (5.6x before the fold) fails here.
awk -F, '$1 == "nth_copy" { p50[$2] = $6 }
  END {
    if (!(1 in p50) || !(20 in p50)) { print "error: nth_copy rows missing" > "/dev/stderr"; exit 1 }
    ratio = p50[20] / p50[1]
    printf "nth_copy/20 = %.2fx nth_copy/1\n", ratio
    if (ratio > 1.5) { print "error: the 20th COPY costs more than 1.5x the 1st" > "/dev/stderr"; exit 1 }
  }' results/copy_load.csv

echo "== concurrent COPY baseline is honored (benchdiff gates) =="
# 1 vs 4 concurrent writers on distinct tables. Both p50 and p99 are
# gated: a reintroduced global write lock (or a heavier txn/WAL path)
# convoys the 4-writer tail before it moves the median. Regenerate after
# an intentional change with
#   cargo bench --offline -p redsim-bench --bench concurrent_copy
# and copy results/concurrent_copy.csv over its _baseline.csv.
cargo run -q --offline -p redsim-bench --bin benchdiff -- \
  results/concurrent_copy_baseline.csv results/concurrent_copy.csv
cargo run -q --offline -p redsim-bench --bin benchdiff -- --p99 \
  results/concurrent_copy_baseline.csv results/concurrent_copy.csv

echo "== scan-kernel pipeline baseline is honored (benchdiff gates) =="
# The scan_kernels bench times the same scan→filter→aggregate loop
# through the typed kernels and through the interpreter fallback for
# five shapes — two-lane comparison, arithmetic operand, LIKE prefix,
# LIKE general, filter + MIN/MAX aggregate — (identical selections and
# results asserted before timing), the persistent
# worker pool vs thread-per-item spawn, and the one-pass bytedict build
# vs the old serialize-every-row reference. Both p50 and p99 are gated:
# a kernel that falls back to the interpreter, or a pool that starts
# spawning, shows up here first. Regenerate after an intentional change
# with
#   cargo bench --offline -p redsim-bench --bench scan_kernels
# and copy results/scan_kernels.csv over its _baseline.csv.
cargo run -q --offline -p redsim-bench --bin benchdiff -- \
  results/scan_kernels_baseline.csv results/scan_kernels.csv
cargo run -q --offline -p redsim-bench --bin benchdiff -- --p99 \
  results/scan_kernels_baseline.csv results/scan_kernels.csv

echo "== compile-vs-interpret (e7) baseline is honored (benchdiff gate) =="
# E7: the same GROUP BY query through the cached vectorized engine and
# through the row-at-a-time baseline at 1k / 10k / 100k rows. Stale
# since PR 1 until the scan path went typed end to end; the 100k-row
# ratio is stated in EXPERIMENTS.md. Regenerate after an intentional
# change with
#   cargo bench --offline -p redsim-bench --bench compile_vs_interpret
# and copy results/e7_compile_vs_interpret.csv over its _baseline.csv.
cargo run -q --offline -p redsim-bench --bin benchdiff -- \
  results/e7_compile_vs_interpret_baseline.csv results/e7_compile_vs_interpret.csv

echo "== join strategies + aggregate key lanes (e11) baseline is honored (benchdiff gate) =="
# E11: the same join co-located (DS_DIST_NONE), against a DISTSTYLE ALL
# inner (DS_DIST_ALL_NONE) and re-hashed, and one 200k-row join grouped
# by a BIGINT, a VARCHAR and two VARCHAR keys. The baseline is the run
# on the commit before the typed join (PR 16); the stock 15% p50 gate
# keeps the 3-10x from eroding. The bench prints ALL_NONE / DIST_NONE
# (target <= 1.2: a replicated inner is built once, not per slice) and
# GROUP BY VARCHAR / BIGINT (target <= 2). Regenerate with
#   cargo bench --offline -p redsim-bench --bench join_strategy
# and copy results/e11_join_strategy.csv over its _baseline.csv.
cargo run -q --offline -p redsim-bench --bin benchdiff -- \
  results/e11_join_strategy_baseline.csv results/e11_join_strategy.csv
awk -F, '$1 == "join_strategy" && $2 ~ /^DS_DIST_NONE/ { none = $6 }
  $1 == "join_strategy" && $2 ~ /^DS_DIST_ALL_NONE/ { all = $6 }
  END {
    if (!none || !all) { print "error: join_strategy rows missing" > "/dev/stderr"; exit 1 }
    printf "DS_DIST_ALL_NONE = %.2fx DS_DIST_NONE\n", all / none
    if (all / none > 1.2) { print "error: the ALL join costs more than 1.2x the co-located one" > "/dev/stderr"; exit 1 }
  }' results/e11_join_strategy.csv

echo "== encode (e9) budget is honored (benchdiff gate) =="
# The E9 encoding microbenches, re-baselined after the one-pass
# bytedict build (slot hashes over the raw column payload, no per-row
# Writer, no owned keys): dictionary-friendly shapes encode 9-20x
# faster than the pre-change baseline. The stock 15% p50 gate keeps
# that budget from silently eroding. Regenerate with
#   cargo bench --offline -p redsim-bench --bench encodings
# and copy results/e9_encodings.csv over its _baseline.csv.
cargo run -q --offline -p redsim-bench --bin benchdiff -- \
  results/e9_encodings_baseline.csv results/e9_encodings.csv

echo "== write atomicity (failure-injection gate) =="
# The pinned rollback scenarios: permanent mirror fault mid-COPY,
# probabilistic write faults across a COPY batch, multi-object partial
# parse, INSERT seal failure — each must leave pre-statement state
# byte-identical (rows, estimates, counters, node-local bytes). The
# wal-seam rollbacks (append/fsync/commit-record) ride the same
# copy_/wal_ prefixes.
cargo test -q --offline --test failure_injection copy_
cargo test -q --offline --test failure_injection failed_
cargo test -q --offline --test failure_injection wal_

echo "== one table image (quick pass) =="
# A table is one immutable TableVersion behind an Arc (DESIGN.md §11):
# writers build the next one privately, commit is a swap, abort a drop.
# The probes: a refused ANALYZE / VACUUM changes nothing; readers neither
# wait on nor see through a COPY parked mid-append; a dropped draft
# deletes exactly its blocks on every replica, leaves a first load's
# encodings unlocked and takes the COMPUPDATE override with it; and the
# table-image bytes (delta, checkpoint, manifest) are still PR 17's.
cargo test -q --offline --test failure_injection one_image_
cargo test -q --offline -p redsim-core --lib -- \
  dropped_draft_deletes_exactly_its_blocks_on_every_replica \
  aborted_first_load_leaves_encodings_unlocked \
  compupdate_override_dies_with_its_statement \
  table_image_bytes_are_the_parents
# Structural guard: the second copy and its undo machinery stay deleted.
if grep -rn 'Mutex<SliceTable>\|WriteCheckpoint\|rollback_write' crates/; then
  echo "ERROR: live slice state / per-slice rollback reappeared under crates/" >&2
  exit 1
fi
# Non-test lines (up to the first #[cfg(test)]) of the files the change
# was about; the parent commit (PR 17) had 3597.
one_image_lines=0
for f in crates/core/src/catalog.rs crates/core/src/cluster/*.rs crates/storage/src/table.rs; do
  n=$(awk '/^#\[cfg\(test\)\]/{exit} {n++} END{print n+0}' "$f")
  printf '  %5d %s\n' "$n" "$f"
  one_image_lines=$((one_image_lines + n))
done
echo "  non-test lines: $one_image_lines (parent: 3597)"

echo "== benchdiff smoke (self-diff must pass, regression must fail) =="
bd_dir=$(mktemp -d)
trap 'rm -rf "$bd_dir"' EXIT
cat > "$bd_dir/base.csv" <<'CSV'
group,bench,input,samples,iters_per_sample,p50_ns,p99_ns,mean_ns,min_ns,max_ns,elems_per_sec
scan,rows,1k,5,100,1000.0,1200.0,1050.0,900.0,1300.0,952381
CSV
sed 's/1000\.0/1400.0/' "$bd_dir/base.csv" > "$bd_dir/slow.csv"
cargo run -q --offline -p redsim-bench --bin benchdiff -- "$bd_dir/base.csv" "$bd_dir/base.csv"
if cargo run -q --offline -p redsim-bench --bin benchdiff -- "$bd_dir/base.csv" "$bd_dir/slow.csv"; then
  echo "error: benchdiff failed to flag a 40% p50 regression" >&2
  exit 1
fi
echo "ok: benchdiff gates p50 regressions"
# A blown-out tail with a flat median: the default p50 gate must pass,
# --p99 must fail.
sed 's/1200\.0/2000.0/' "$bd_dir/base.csv" > "$bd_dir/tail.csv"
cargo run -q --offline -p redsim-bench --bin benchdiff -- "$bd_dir/base.csv" "$bd_dir/tail.csv"
if cargo run -q --offline -p redsim-bench --bin benchdiff -- --p99 "$bd_dir/base.csv" "$bd_dir/tail.csv"; then
  echo "error: benchdiff --p99 failed to flag a 67% tail regression" >&2
  exit 1
fi
echo "ok: benchdiff --p99 gates tail regressions the p50 gate misses"

echo "== ci green =="
