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
# workload (every executed SELECT is profiled); EXPLAIN ANALYZE annotates
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
# vector_aggregates_match_value_path holds the typed accumulators and
# the leader's merge to the row-at-a-time AggState path (NULLs, NaN, ±0,
# sums wrapping past i64::MAX, filters that keep nothing, empty tables;
# no key, or one to four keys of every lane: integer, FLOAT8, DECIMAL,
# BOOL, VARCHAR, NULL keys). vector_joins_match_baseline is the join's
# oracle: generated two- and three-table plans on the executor vs
# engine::baseline — every JoinDistStrategy incl. a join above a join,
# INNER and LEFT, residuals, NULL and duplicate-heavy keys, one key pair
# per lane (INT2 ⋈ INT8, DATE, BOOL, VARCHAR, FLOAT8 with ±0/NaN,
# DECIMAL of one and of two scales, INT ⋈ DECIMAL, INT ⋈ FLOAT8), build
# and probe sides arriving empty, partly and fully selected, any emit
# list; ordered lists on one slice, f64 sums bit for bit.
# vector_interp_fallback_* pins exec.interp_fallback at 0 on the
# benchmark's statement shapes (adhoc_scan, star_join, dashboards) and
# non-zero on a cast/CASE predicate, a function projection or sort key,
# and a CASE group key or aggregate argument; a FLOAT8 join key, a
# DECIMAL group key and a three-key GROUP BY answer as query_interpreted
# does. Reproduce with RSIM_SEED=<seed>.
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
# LIKE general, filter + MIN/MAX aggregate — and three filter-only ones
# (float_tail, float_half, like_prefix_note) (identical selections and
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
# after the integer probe became one pass over the selection
# (DS_DIST_NONE 1.62 -> 0.86 ms on the box that recorded it); the stock
# 15% p50 gate keeps it from eroding: a revert of that probe read the
# DS_DIST rows +32-230% there.
# The bench prints ALL_NONE / DIST_NONE (target <= 1.2: a
# replicated inner is built once, not per slice) and GROUP BY VARCHAR /
# BIGINT (target <= 1.1, gated below in "dimension strings travel as
# codes"). Regenerate with
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
# The E9 encoding microbenches. Every row but the delta, int-key-500, lzo
# and text-notes rows is the baseline recorded after the one-pass bytedict
# build, which made dictionary-friendly shapes encode 9-20x faster. The
# int-key-500 shape (50k keys uniform over 0..500, star_join's `sid`) was
# recorded when it was added. The lzo rows and the text-notes
# shape (one 4,096-row block of adhoc_scan's `note`) were recorded after
# lzo blocks lost their offsets array: `encode lzo text-notes` and
# `decode lzo text-notes` are the rows a revert of that layout moves
# (+70-153% and +23-98% on the box that recorded them). The delta rows
# (and `decode delta int-random`, whose pick moved off mostly32) were
# recorded after delta steps were bit-packed in miniblocks: `decode delta
# int-small-random` and `decode delta int-key-500` are the rows a revert of
# that layout moves. The stock 15% p50 gate keeps every budget from
# silently eroding. Regenerate with
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

echo "== one block home (quick pass) =="
# ReplicatedStore is every cluster's one block store; a restored cluster
# is one whose blocks start pending in S3, and the page fault is
# hydration (DESIGN.md §3 replication). The probes: a failed hydration
# step keeps its block pending; post-restore writes are not hydrated
# blocks; the manifest load and the snapshot's S3 calls retry observed;
# a restored cluster kills/revives, snapshots and crash-recovers at 0 %,
# 50 % and 100 % hydration; the ported streaming-restore behaviours; a
# demand read outlives a failed placement, a deleted pending block is
# never placed, and blocks hydrated from another bucket are backed up.
cargo test -q --offline -p redsim-core --lib -- \
  failed_hydration_step_keeps_its_block_pending \
  hydration_progress_ignores_writes_after_restore \
  restore_reads_its_manifest_through_the_retry_loop \
  snapshot_retries_are_observed \
  restored_cluster_is_an_ordinary_cluster \
  restored_select_survives_a_failed_placement
cargo test -q --offline -p redsim-replication --lib -- restore_ writes_after_restore_ \
  hydrated_blocks_are_backed_up_ demand_read_survives_a_failed_placement \
  a_deleted_pending_block_is_never_placed
# Structural guard: the second store and the store-kind switch stay deleted.
if grep -rn 'StreamingRestoreStore\|BlockHome\|fn mirrored(\|fn restoring(' crates/; then
  echo "ERROR: a second block store / store-kind switch reappeared under crates/" >&2
  exit 1
fi
# Non-test lines of the files the change was about; the parent (PR 18,
# with crates/replication/src/restore.rs) had 1849.
block_home_lines=0
for f in crates/replication/src/*.rs crates/core/src/cluster/durable.rs \
  crates/core/src/cluster/lifecycle.rs; do
  n=$(awk '/^#\[cfg\(test\)\]/{exit} {n++} END{print n+0}' "$f")
  printf '  %5d %s\n' "$n" "$f"
  block_home_lines=$((block_home_lines + n))
done
echo "  non-test lines: $block_home_lines (parent: 1849)"

echo "== one key path (quick pass) =="
# Every join and GROUP BY key is a typed code from slice to leader
# (DESIGN.md §16): the lane comes from the key's type, a join's from
# both types. The probes: join keys match exactly when `=` holds (mixed
# DECIMAL scales, INT ⋈ DECIMAL / FLOAT8, FLOAT8 ⋈ DECIMAL / INT, 0.0 ⋈
# -0.0, NaN ⋈ NaN), pairs `=` refuses are refused, FLOAT8 keys group
# and DISTINCT as `=` compares, and negating a type's minimum raises the
# type's error on both engines; the key module's and agg's unit tests;
# dist_hash places `=`-equal numerics on one slice.
cargo test -q --offline --test end_to_end one_key_path_
cargo test -q --offline -p redsim-engine --lib -- keys:: unsorted_group_order_ \
  typed_accumulators_match_the_value_path floats_are_equal_as_eq_compares_them
cargo test -q --offline -p redsim-distribution --lib -- keys_equal_by_sql_equality_hash_alike
# Structural guard: the boxed key lanes and their counter stay deleted.
if grep -rn 'GroupTable\|GroupKey\|update_hashed\|key_fallback\|Lookup::Boxed' crates/ src/ tests/; then
  echo "ERROR: a boxed key lane or key_fallback reappeared" >&2
  exit 1
fi
# Non-test lines of the files the one key path was about; with the
# boxed lanes they were 4,382.
key_path_lines=0
for f in crates/engine/src/*.rs crates/core/src/cluster/read.rs; do
  n=$(awk '/^#\[cfg\(test\)\]/{exit} {n++} END{print n+0}' "$f")
  printf '  %5d %s\n' "$n" "$f"
  key_path_lines=$((key_path_lines + n))
done
echo "  non-test lines: $key_path_lines (parent: 4382)"

echo "== one catalog version (quick pass) =="
# The catalog is one immutable value the leader publishes whole
# (DESIGN.md §11): every commit logs the next catalog, then publishes it,
# under the publication lock resize flips the source read-only with. The
# probes: a COPY and an ANALYZE overlapping a resize land on the target
# or return an error; a refused bootstrap checkpoint fails the resize
# (the source serves again) and the restore; resized and restored writes
# survive a crash; every exclusive-scope statement refused at wal.append
# or wal.commit changes nothing; an evicted WLM waiter leaves the books
# balanced; and the table-image bytes are still the pinned ones.
cargo test -q --offline --test failure_injection -- one_catalog_ one_image_refused_
cargo test -q --offline -p redsim-core --lib -- wait_timeout_evicts \
  table_image_bytes_are_the_parents
# Structural guard: the second commit order stays deleted.
if grep -rn 'commit_exclusive\|fn install(\|catalog_version: AtomicU64' crates/; then
  echo "ERROR: a second commit order reappeared under crates/" >&2
  exit 1
fi
# Non-test lines of the catalog and the cluster; with two commit orders
# they were 2705.
one_catalog_lines=0
for f in crates/core/src/catalog.rs crates/core/src/cluster/*.rs; do
  n=$(awk '/^#\[cfg\(test\)\]/{exit} {n++} END{print n+0}' "$f")
  printf '  %5d %s\n' "$n" "$f"
  one_catalog_lines=$((one_catalog_lines + n))
done
echo "  non-test lines: $one_catalog_lines (parent: 2705)"

echo "== readers take no lock (quick pass) =="
# A block is freed when the last catalog naming it drops (DESIGN.md §11
# retire), so a SELECT takes no lock and COPY/INSERT and the exclusive
# scope share one writers' lock, `write_txn` (§15). The probes: VACUUM,
# ANALYZE, redistribute and DROP commit beside a parked reader, which
# returns the pre-statement rows and keeps its blocks until it returns;
# readers overlap key rotation; a held catalog keeps its blocks across
# 10,000 exclusive commits and releases them without recursing; a crash
# while a retired catalog is held frees nothing under the recovered
# cluster; a no-op exclusive statement counts no rollback.
cargo test -q --offline --test failure_injection -- no_lock_
cargo test -q --offline -p redsim-core --lib -- a_held_catalog_keeps_its_blocks_until_released \
  crash_while_a_retired_catalog_is_held no_op_exclusive_statements_count_no_rollback \
  dropped_draft_deletes_exactly_its_blocks_on_every_replica
# Structural guard: the readers' lock stays deleted.
if grep -rn 'data_lock' crates/; then
  echo "ERROR: data_lock reappeared under crates/" >&2
  exit 1
fi
# Non-test lines of the catalog and the cluster; with the readers' lock
# and the immediate free they were 2662.
no_lock_lines=0
for f in crates/core/src/catalog.rs crates/core/src/cluster/*.rs; do
  n=$(awk '/^#\[cfg\(test\)\]/{exit} {n++} END{print n+0}' "$f")
  printf '  %5d %s\n' "$n" "$f"
  no_lock_lines=$((no_lock_lines + n))
done
echo "  non-test lines: $no_lock_lines (parent: 2662)"

echo "== one batch per slice (quick pass) =="
# A slice's scan hands each decoded row group to a sink, and the pipeline
# above it — the scan's filter, Filter, Project, a join's probe, the
# partial GROUP BY — takes the batch before the next is decoded
# (DESIGN.md §16 "Pipelines and breakers"); the result cache keeps the
# result's dense columns (§12). The probes: a dropped exec.scan_slice
# fragment is a retryable FAULT, never a short answer the cache then
# serves; an out-of-range projection is an ANALYSIS error on a slice of
# buffered rows or fully pruned groups, not a panic; peak heap during
# Executor::run stays flat from N to 8N row groups (scan→filter→
# aggregate, scan→probe→aggregate); a cached 10,000-row entry holds its
# columns' byte_size and no more; cache hits equal cold runs for every
# type.
cargo test -q --offline --test failure_injection scan_slice_drop_is_a_retryable_fault_not_a_short_answer
cargo test -q --offline -p redsim-storage --lib projection_out_of_range_is_an_error_not_a_panic
cargo test -q --offline --test peak_heap
cargo test -q --offline --test end_to_end result_cache_hits_are_bit_identical_for_every_type
# Structural guard: scans no longer return their batches, and the cache
# no longer deep-copies boxed rows.
if grep -n 'pub batches:' crates/storage/src/table.rs || grep -n 'out.rows.clone()' crates/core/src/cluster/read.rs; then
  echo "ERROR: a materialised scan output or a boxed result-cache copy reappeared" >&2
  exit 1
fi
# Non-test lines of the files the change touched; the parent had 3,132,
# and the change may add at most 150.
one_batch_lines=0
for f in crates/storage/src/table.rs crates/engine/src/exec.rs crates/engine/src/baseline.rs \
  crates/core/src/cluster/compute.rs crates/core/src/cluster/read.rs \
  crates/core/src/cluster/leader.rs crates/core/src/systables.rs crates/core/src/result_cache.rs; do
  n=$(awk '/^#\[cfg\(test\)\]/{exit} {n++} END{print n+0}' "$f")
  printf '  %5d %s\n' "$n" "$f"
  one_batch_lines=$((one_batch_lines + n))
done
echo "  non-test lines: $one_batch_lines (parent: 3132)"
if [ "$one_batch_lines" -gt $((3132 + 150)) ]; then
  echo "ERROR: the touched files grew by more than 150 lines" >&2
  exit 1
fi

echo "== COPY streams units (quick pass) =="
# COPY fetches and decodes a window of one object per worker, cuts each
# into line-aligned units, parses the units one per worker and appends
# them in source order while the next round parses (DESIGN.md §17 "Load
# path"), so a load holds two rounds of units, not the whole load; and a
# decoded count that cannot fit in what is left of its buffer is a Codec
# error.
# The probes: objects of several units in CSV, JSON-lines, LZSS and
# encrypted form write the blocks and statistics one append of the whole
# parsed load writes; a bad field in a later unit names its line of the
# object; the first object's error beats the second's; a failure in the
# last unit changes no stored byte, placed block or catalog version;
# units tile the text and parse as it does; COPY's transient heap is flat
# from N to 8N objects and from an object of N rows to one of 8N; the
# pool's join runs both sides and nests; and a u32::MAX count in a wire
# Rows frame, a schema, a slice manifest, a bitmap and a snapshot manifest
# is a typed error, not an abort.
cargo test -q --offline -p redsim-core --lib -- copy_streams_ units_parse_as_the_whole_text
cargo test -q --offline -p redsim-testkit --lib join_returns_both_sides_and_nests
cargo test -q --offline --test peak_heap copy_heap_
cargo test -q --offline --workspace a_corrupt_count_is_a_codec_error
# Structural guard: the parse-everything-then-append phase and the copy of
# every plain object stay deleted.
if grep -n 'raw\.to_vec()\|parallel_map(keys' crates/core/src/cluster/write.rs; then
  echo "ERROR: COPY parses or copies the whole load again" >&2
  exit 1
fi
# Non-test lines of the files the change touched; the parent had 3,633,
# and the change may add at most 120. The branch-free scan loops change
# later added 17 to encoding.rs (the i64 delta path; its own section
# prints it), so the cap carries those 17 too.
copy_units_lines=0
for f in crates/core/src/cluster/write.rs crates/core/src/loader.rs crates/common/src/codec.rs \
  crates/common/src/schema.rs crates/frontdoor/src/wire.rs crates/storage/src/table.rs \
  crates/storage/src/encoding.rs crates/replication/src/backup.rs crates/testkit/src/par.rs; do
  n=$(awk '/^#\[cfg\(test\)\]/{exit} {n++} END{print n+0}' "$f")
  printf '  %5d %s\n' "$n" "$f"
  copy_units_lines=$((copy_units_lines + n))
done
echo "  non-test lines: $copy_units_lines (parent: 3633)"
if [ "$copy_units_lines" -gt $((3633 + 120 + 17)) ]; then
  echo "ERROR: the touched files grew by more than 120 lines (+17 in encoding.rs)" >&2
  exit 1
fi

echo "== one model (quick pass) =="
# A naive Vec<Row>-per-table model, queried through engine::baseline and
# bound against a StaticCatalog, steps in lockstep with a Cluster under one
# generated, shrinking schedule: DDL, COPY, INSERT, VACUUM, ANALYZE,
# redistribute, SELECT, crash + recover (torn at a WAL seam), resize,
# snapshot + restore, node loss, backup drain and transient failpoints
# (DESIGN.md "The model"). After every step rows, statistics,
# svv_table_info and catalog_version equal the model's, and a refused
# statement moves nothing. The probes: a resized sorted table stays
# sorted; a freed WLM slot goes to the longest waiter; a revived node takes
# its replicas back.
RSIM_PROP_CASES=4 cargo test -q --offline --test model
cargo test -q --offline -p redsim-core --lib -- resize_keeps_a_sorted_table_sorted \
  a_freed_slot_goes_to_the_longest_waiter
cargo test -q --offline -p redsim-replication --lib re_replication_onto_a_revived_node_restores_redundancy
# Structural guard: the five deleted ClusterConfig knobs stay deleted.
knobs='cohort_size|plan_cache_capacity|system_snapshot_retention|result_cache_max_rows|profile_queries|query_profiling'
if grep -nE "$knobs" crates/core/src/config.rs \
  || grep -rnE "config\.($knobs)" crates/ src/ tests/ examples/ benchmark/src/; then
  echo "ERROR: a deleted ClusterConfig knob reappeared" >&2
  exit 1
fi

echo "== branch-free scan loops (quick pass) =="
# The per-row loops of the scan path branch on nothing but the loop
# (DESIGN.md §16 "The per-row loop rule", "The one-group fold", "Integer
# decode widths"): the f64 lane's operators are IEEE compares and NaN
# flags, a LIKE prefix of <= 8 bytes is one masked arena word, a plan
# without keys folds COUNT / SUM in locals and MIN / MAX in four lanes,
# and a delta miniblock whose sums cannot leave i64 adds in i64. Results and
# errors are the parent's. The probes: f64-lane
# compares of FLOAT8 / INT8 / INT4 / DECIMAL columns against every float
# special and over a 4,096-row ~50 % batch equal the interpreter; no-key
# aggregates over -0.0 / 0.0, NaN first / last / only, all-NULL batches
# and empty selections equal the value path; every integer-family type
# round-trips every encoding; truncated, overlong, too-wide, trailing and
# out-of-range delta streams are Codec errors on the i64 and the i128 path,
# every packed width round-trips, and random damage to delta blocks never
# panics; LIKE '', '%' and '%%' agree with the row matcher; an idle front
# door's accept thread sleeps, and drain returns when its wake-up connect
# fails; a wire INT2 outside i16 is a Codec error.
cargo test -q --offline --test properties -- vector_kernels_nan_total_order_end_to_end \
  vector_aggregates_match_value_path int_encodings_roundtrip
cargo test -q --offline -p redsim-engine --lib -- column_kernel_agrees_with_row_matcher \
  typed_accumulators_match_the_value_path
cargo test -q --offline -p redsim-storage --lib -- corrupt_delta_streams_are_codec_errors_on_both_paths \
  delta_roundtrips_at_every_width mutated_delta_blocks_never_panic packed_bits_read_back_at_every_width
# Structural guard: the varint-per-step delta reader stays deleted (delta
# steps are bit-packed in miniblocks, DESIGN.md §16 "Integer decode widths").
if grep -rn 'sum_ivarints64' crates/ src/ tests/; then
  echo "ERROR: the varint-per-step delta reader came back" >&2
  exit 1
fi
cargo test -q --offline -p redsim-frontdoor --lib -- accept_thread_sleeps_while_idle \
  drain_is_bounded_when_the_wake_up_connect_fails an_out_of_range_int2_is_a_codec_error
# A branch on the data in the float lane costs a misprediction per other
# row at ~50 % selectivity and almost nothing at ~5 %. Fresh runs of the
# two float shapes alone (`-- float`, about a second each, written to
# scan_kernels_float.csv in a temporary directory) must show
# `price < 500.0` within 1.5x of `price < 50.0` in one of three tries
# (0.9-1.15x per run; the parent: 2.7-3.2x).
sk_dir=$(mktemp -d)
float_ok=0
for try in 1 2 3; do
  RSIM_RESULTS_DIR="$sk_dir/results" cargo bench -q --offline -p redsim-bench --bench scan_kernels \
    -- float > "$sk_dir/out.txt"
  if awk -F, -v try="$try" '$1 == "scan_pipeline" && $2 == "kernel" && $3 == "float_tail" { tail = $6 }
    $1 == "scan_pipeline" && $2 == "kernel" && $3 == "float_half" { half = $6 }
    END {
      if (!tail || !half) { print "error: float_tail / float_half rows missing" > "/dev/stderr"; exit 2 }
      printf "try %d: float_half = %.2fx float_tail (kernel p50)\n", try, half / tail
      exit (half / tail > 1.5)
    }' "$sk_dir/results/scan_kernels_float.csv"; then
    float_ok=1
    break
  fi
done
rm -rf "$sk_dir"
if [ "$float_ok" != 1 ]; then
  echo "error: the float lane branches on the data again (float_half > 1.5x float_tail three times)" >&2
  exit 1
fi
# Non-test lines of the files the change touched, beside the parent's.
loop_lines=0
for f in crates/engine/src/kernels.rs:769 crates/engine/src/like.rs:178 crates/engine/src/agg.rs:686 \
  crates/engine/src/selection.rs:178 crates/storage/src/encoding.rs:836 crates/storage/src/varint.rs:72 \
  crates/frontdoor/src/server.rs:388 crates/frontdoor/src/wire.rs:397; do
  n=$(awk '/^#\[cfg\(test\)\]|^#\[cfg\(all\(test/{exit} {n++} END{print n+0}' "${f%%:*}")
  printf '  %5d (parent %5d) %s\n' "$n" "${f##*:}" "${f%%:*}"
  loop_lines=$((loop_lines + n))
done
echo "  non-test lines: $loop_lines (parent: 3504)"

echo "== one ruler per question (quick pass) =="
# A question gets one ruler (EXPERIMENTS.md "One ruler per question"):
# the result-cache, profiler-overhead and fleet-replay benches are
# answered by the benchmark workloads' end-to-end metrics, and E8 / E10
# are deterministic block counts in storage tests, not timing benches.
# The probes: under no sort key, COMPOUND and INTERLEAVED, a one-column
# range skips the row groups §3.3 claims; a sorted table skips groups in
# proportion to selectivity and a scattered one skips none, neither
# losing a matching row; a sessionless `execute` of a SELECT is logged
# as `query`'s implicit default session, not as the first user who
# connected.
cargo test -q --offline -p redsim-storage --lib -- interleaved_prunes_on_any_dimension \
  zone_map_pruning_on_sorted_data no_pruning_on_random_data
cargo test -q --offline -p redsim-core --lib -- sessionless_execute_select_is_logged_as_the_default_user
# Structural guard: the six benches and their thirteen CSVs stay deleted
# (`ablations` went in PR 34).
rulers='result_cache|profiler_overhead|workload_replay|zorder_vs_compound|block_skipping|ablations'
csvs='ablations|result_cache|result_cache_baseline|profiler_overhead_off|profiler_overhead_on|workload_dashboard|workload_dashboard_baseline|workload_etl|workload_etl_baseline|workload_adhoc|workload_adhoc_baseline|e8_zorder_vs_compound|e10_block_skipping'
if grep -nE "^name = \"($rulers)\"" crates/bench/Cargo.toml \
  || grep -nE "^[^#]*--bench ($rulers)\b" ci.sh \
  || grep -nE "^[^#]*results/($csvs)\.csv" ci.sh \
  || ls crates/bench/benches results | grep -xE "($rulers)\.rs|($csvs)\.csv"; then
  echo "ERROR: a deleted bench, its gate or its CSV came back" >&2
  exit 1
fi
# Non-blank non-test lines of the files the change was about, beside the
# parent's.
ruler_lines=0
for d in 'crates/bench/benches/*.rs:1840' 'crates/workload/src/*.rs:940' \
  crates/core/src/config.rs:123 crates/core/src/cluster/read.rs:307; do
  n=0
  for f in ${d%%:*}; do
    n=$((n + $(awk '/^#\[cfg\(test\)\]/{exit} /[^[:space:]]/{n++} END{print n+0}' "$f")))
  done
  printf '  %5d (parent %5d) %s\n' "$n" "${d##*:}" "${d%%:*}"
  ruler_lines=$((ruler_lines + n))
done
echo "  non-test lines: $ruler_lines (parent: 3210)"

echo "== block seal at memory speed (quick pass) =="
# Sealing a block costs what its bytes cost (DESIGN.md §17 "Load path:
# sealing a block"): crc32 is slice-by-16 and a zone map's min/max one
# typed fold per column variant, with every block's payload, crc and
# zone-map bytes the parent's. The probes: a COPY ... LZSS stream that
# goes on past the token completing its header's length (a lowered
# header, appended bytes) is a Codec error, and such an object loads no
# rows and drops the draft; crc32 equals the bitwise definition at every
# length 0..=1,024 and start offset 0..16 and on 1 MiB; min_max equals
# the boxed Value fold over random columns of every variant; the table
# image bytes are the parent's.
cargo test -q --offline -p redsim-storage --lib -- a_stream_must_end_at_its_last_token
cargo test -q --offline -p redsim-core --lib -- a_damaged_lzss_object_loads_nothing \
  table_image_bytes_are_the_parents
cargo test -q --offline -p redsim-common --lib -- crc32_slice_by_16_equals_the_bitwise_definition \
  typed_min_max_equals_the_boxed_fold crc32_known_vector
# Fresh runs of the seal group alone (`-- seal`, a few seconds, written to
# copy_load_seal.csv in a temporary directory): in one of three tries the
# CRC must take <= 0.4x the bytewise reference (0.19x measured) and the
# typed zone map <= 0.5x the boxed one (0.11-0.15x measured).
seal_dir=$(mktemp -d)
seal_ok=0
for try in 1 2 3; do
  RSIM_RESULTS_DIR="$seal_dir/results" cargo bench -q --offline -p redsim-bench --bench copy_load \
    -- seal > "$seal_dir/out.txt"
  if awk -F, -v try="$try" '$1 == "seal" { p50[$2] = $6 }
    END {
      if (!p50["crc32_64KiB"] || !p50["crc32_bytewise_64KiB"] || !p50["zone_map_varchar_2500"] \
          || !p50["zone_map_boxed_varchar_2500"]) { print "error: seal rows missing" > "/dev/stderr"; exit 2 }
      crc = p50["crc32_64KiB"] / p50["crc32_bytewise_64KiB"]
      zm = p50["zone_map_varchar_2500"] / p50["zone_map_boxed_varchar_2500"]
      printf "try %d: crc32 = %.2fx bytewise, zone map = %.2fx boxed (p50)\n", try, crc, zm
      exit (crc > 0.4 || zm > 0.5)
    }' "$seal_dir/results/copy_load_seal.csv"; then
    seal_ok=1
    break
  fi
done
rm -rf "$seal_dir"
if [ "$seal_ok" != 1 ]; then
  echo "error: sealing a block is back to bytewise CRC or boxed zone maps (three tries)" >&2
  exit 1
fi
# Structural guard: one CRC-32 in the program. The polynomial appears once
# in non-test code under crates/*/src (the reference CRCs live in a test
# module and in the bench).
poly=$(find crates/*/src -name '*.rs' -print0 | xargs -0 awk 'FNR == 1 { t = 0 } /^#\[cfg\(test\)\]/ { t = 1 }
  !t && tolower($0) ~ /0xedb8_?8320/ { n++ } END { print n + 0 }')
if [ "$poly" != 1 ]; then
  echo "ERROR: the CRC-32 polynomial appears $poly times in non-test code (one crc32, one table)" >&2
  exit 1
fi
# Non-test lines of the files the change touched, beside the parent's.
seal_lines=0
for f in crates/common/src/codec.rs:212 crates/common/src/column.rs:522 crates/storage/src/zonemap.rs:175 \
  crates/storage/src/lzss.rs:204 crates/core/src/cluster/write.rs:568 crates/bench/benches/copy_load.rs:108; do
  n=$(awk '/^#\[cfg\(test\)\]/{exit} {n++} END{print n+0}' "${f%%:*}")
  printf '  %5d (parent %5d) %s\n' "$n" "${f##*:}" "${f%%:*}"
  seal_lines=$((seal_lines + n))
done
echo "  non-test lines: $seal_lines (parent: 1789)"

echo "== one trace (quick pass) =="
# The trace has one level (DESIGN.md §8): every span the code opens is
# recorded, the system tables are its one reader, and S3Sim keeps no
# sink — a fault at an s3.* seam counts in the sink its caller passes.
# The probes: two clusters on one S3 (a restore), s3.get throttled once
# under the first one's COPY, count it in the first's fault.injected and
# not the second's; a SELECT records one exec.slice per slice, a COPY one
# copy.object per object and one copy.slice_seal per slice.
cargo test -q --offline --test failure_injection a_clusters_s3_faults_count_in_its_own_sink
cargo test -q --offline -p redsim-core --lib -- query_spans_all_close_and_nest copy_spans_record_ingest_phases
# Structural guard: the verbosity knob, its levels and the exporters stay
# deleted, and S3Sim keeps no sink.
if grep -rnE 'RSIM_TRACE|LVL_CORE|LVL_PHASE|LVL_DETAIL|with_level|export_json|export_text|metrics_to_' \
  crates/ src/ tests/ examples/ || grep -n 'set_trace' crates/replication/src/s3sim.rs; then
  echo "ERROR: a trace level, an exporter or S3Sim's own sink came back" >&2
  exit 1
fi
# Non-blank non-test lines of crates/obs/src, beside the parent's.
obs_lines=0
for f in crates/obs/src/*.rs; do
  n=$(awk '/^#\[cfg\(test\)\]/{exit} /[^[:space:]]/{n++} END{print n+0}' "$f")
  printf '  %5d %s\n' "$n" "$f"
  obs_lines=$((obs_lines + n))
done
echo "  non-test lines: $obs_lines (parent: 981)"

echo "== dimension strings travel as codes (quick pass) =="
# A join codes each build-side VARCHAR it emits once, into one dictionary
# (DESIGN.md §16 "The coded StrVec", §18), and GROUP BY remaps codes
# instead of hashing strings. The probes: every StrVec / ColumnData
# operation on a coded vector equals it on the arena, with and without
# NULLs, and raw_parts refuses a coded vector; a coded key gets the ids
# its bytes get and LIKE over a coded column matches the row matcher;
# every encoding writes a coded column as its arena's bytes; inner and
# LEFT joins grouped by a dimension VARCHAR (NULL padding, a NULL value,
# duplicate build keys, two keys) equal the row-store oracle; ORDER BY
# <position> sorts by that select-list column and refuses one out of
# range (both probes fail on the parent); LZSS compress emits the
# reference compressor's tokens.
cargo test -q --offline -p redsim-common --lib -- coded_equals_arena raw_parts_refuses_a_coded_vector
cargo test -q --offline -p redsim-engine --lib -- coded_strings_get_the_ids_their_bytes_get \
  column_kernel_agrees_with_row_matcher
cargo test -q --offline -p redsim-storage --lib -- coded_columns_encode_as_their_arena \
  compress_emits_the_reference_tokens
cargo test -q --offline -p redsim-sql --lib -- order_by_position_is_a_select_list_column
cargo test -q --offline --test end_to_end -- order_by_position_sorts_by_that_select_list_column \
  dimension_strings_travel_as_codes
# Fresh runs of e11's aggregate_lanes alone (`-- lanes`, a few seconds,
# written to e11_join_strategy_lanes.csv in a temporary directory): in one
# of three tries GROUP BY VARCHAR must cost <= 1.1x GROUP BY BIGINT (the
# parent: 1.30x) and GROUP BY VARCHAR, VARCHAR <= 1.5x (the parent: 2.01x).
lanes_dir=$(mktemp -d)
lanes_ok=0
for try in 1 2 3; do
  RSIM_RESULTS_DIR="$lanes_dir/results" cargo bench -q --offline -p redsim-bench --bench join_strategy \
    -- lanes > "$lanes_dir/out.txt"
  # The two-key bench's name is quoted and holds a comma: its p50 is $7.
  if awk -F, -v try="$try" '$1 == "aggregate_lanes" && $2 == "GROUP BY BIGINT" { big = $6 }
    $1 == "aggregate_lanes" && $2 == "GROUP BY VARCHAR" { one = $6 }
    $1 == "aggregate_lanes" && $2 == "\"GROUP BY VARCHAR" { two = $7 }
    END {
      if (!big || !one || !two) { print "error: aggregate_lanes rows missing" > "/dev/stderr"; exit 2 }
      printf "try %d: GROUP BY VARCHAR = %.2fx, VARCHAR, VARCHAR = %.2fx GROUP BY BIGINT (p50)\n", try, one / big, two / big
      exit (one / big > 1.1 || two / big > 1.5)
    }' "$lanes_dir/results/e11_join_strategy_lanes.csv"; then
    lanes_ok=1
    break
  fi
done
rm -rf "$lanes_dir"
if [ "$lanes_ok" != 1 ]; then
  echo "error: GROUP BY a joined VARCHAR hashes strings again (aggregate_lanes ratios, three tries)" >&2
  exit 1
fi
# Non-test lines of the files the change touched, beside the parent's.
codes_lines=0
for f in crates/common/src/column.rs:562 crates/engine/src/join.rs:348 crates/engine/src/keys.rs:188 \
  crates/engine/src/like.rs:215 crates/storage/src/encoding.rs:853 crates/storage/src/lzss.rs:210 \
  crates/sql/src/binder.rs:821 crates/bench/benches/join_strategy.rs:147; do
  n=$(awk '/^#\[cfg\(test\)\]/{exit} {n++} END{print n+0}' "${f%%:*}")
  printf '  %5d (parent %5d) %s\n' "$n" "${f##*:}" "${f%%:*}"
  codes_lines=$((codes_lines + n))
done
echo "  non-test lines: $codes_lines (parent: 3344)"

echo "== text blocks without an offsets array (quick pass) =="
# An lzo VARCHAR block is its row lengths as varints beside the LZSS of
# its bytes alone (DESIGN.md §16 "Text blocks without an offsets array"),
# and the LZSS decoder branches once per copy token. The probes: a seeded
# 4,096-row note block encodes as lzo in <= 21,000 bytes (the parent's
# layout, offsets inside the stream, took 28,883); every way the
# payload's parts can disagree is a Codec error; random damage to note
# blocks never panics; the group decoder equals the parent's per-token
# decoder (the test-only reference) on random streams and on every
# truncation and byte flip; a row that starts inside a character is
# refused; a COPY ... LZSS object must still end at its last token; the
# analyzer's picks and the table image bytes are the parent's.
cargo test -q --offline -p redsim-storage --lib -- a_note_block_encodes_as_lzo_in_at_most_21000_bytes \
  corrupt_lzo_text_blocks_are_codec_errors mutated_note_blocks_never_panic \
  decompress_agrees_with_the_reference a_stream_must_end_at_its_last_token analyzer::tests
cargo test -q --offline -p redsim-common --lib -- strvec_rejects_corrupt_offsets
cargo test -q --offline -p redsim-core --lib -- a_damaged_lzss_object_loads_nothing \
  table_image_bytes_are_the_parents
# Structural guard: an lzo payload never carries the Raw payload (and so
# its offsets array) again.
if grep -n 'write_raw_payload(col, &mut raw)' crates/storage/src/encoding.rs; then
  echo "ERROR: the lzo payload compresses the Raw payload, offsets array included" >&2
  exit 1
fi
# Non-test lines of the files the change touched, beside the parent's.
text_lines=0
for f in crates/storage/src/encoding.rs:851 crates/storage/src/lzss.rs:227 \
  crates/storage/src/varint.rs:142 crates/common/src/column.rs:736 crates/bench/benches/encodings.rs:113; do
  n=$(awk '/^#\[cfg\(test\)\]/{exit} {n++} END{print n+0}' "${f%%:*}")
  printf '  %5d (parent %5d) %s\n' "$n" "${f##*:}" "${f%%:*}"
  text_lines=$((text_lines + n))
done
echo "  non-test lines: $text_lines (parent: 2069)"

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
