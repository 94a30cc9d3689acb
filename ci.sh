#!/usr/bin/env bash
# CI for redshift-sim: fully offline build + test + bench-compile, the
# committed size point, the named probes, structural guards and the bench
# gates (DESIGN.md §2 "What ci.sh checks").
#
# The workspace has a zero-dependency policy: everything `rand`,
# `proptest`, `criterion`, `crossbeam` and `parking_lot` used to provide
# lives in-tree in `crates/testkit`. CI must pass on a machine with no
# registry access at all, which is why every cargo invocation is
# `--offline`.
set -euo pipefail
cd "$(dirname "$0")"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

echo "== hermeticity: dependency rules =="
# One row per rule: the `cargo tree` lines outside the allowed pattern
# (grep BRE) fail the build.
# - the workspace: path dependencies render as `name vX.Y.Z (/abs/path)`,
#   a registry dependency has no `(/` suffix;
# - redsim-obs and redsim-faultkit are leaves (pure std): instrumenting a
#   hot path or adding a fault seam never grows a dependency;
# - redsim-frontdoor (no TLS / auth / async stacks, DESIGN.md §12) and
#   redsim-workload (no stats crate, redsim-simkit has the distributions)
#   depend only on redsim-* path crates.
while IFS='|' read -r allowed why args; do
  # shellcheck disable=SC2086 # $args is a list of cargo tree flags
  bad=$(cargo tree --offline --prefix none $args < /dev/null | sort -u | grep -v "$allowed" | grep -v '^\s*$' || true)
  if [ -n "$bad" ]; then
    echo "error: $why:" >&2
    echo "$bad" >&2
    exit 1
  fi
done <<'ROWS'
(/|non-path dependencies found (zero-dependency policy)|--workspace --edges normal,build,dev
^redsim-obs |redsim-obs grew dependencies|-p redsim-obs --edges normal
^redsim-faultkit |redsim-faultkit grew dependencies|-p redsim-faultkit --edges normal
^redsim-|redsim-frontdoor grew non-workspace dependencies|-p redsim-frontdoor --edges normal
^redsim-|redsim-workload grew non-workspace dependencies|-p redsim-workload --edges normal
ROWS
echo "ok: all dependencies are workspace-local; obs and faultkit are leaves"

echo "== size point (SIZE.json) and line caps =="
# The one counting rule: non-blank lines, and a .rs file only up to its
# first line opening a test module (`#[cfg(test)]` or `#[cfg(all(test, ...))]`).
count() {
  awk 'FNR == 1 { t = 0 } FILENAME ~ /\.rs$/ && /^#\[cfg\((all\()?test/ { t = 1 }
    !t && NF { n++ } END { print n + 0 }' "$@" < /dev/null
}
# The size point: one entry per crate's src, the benches, the facade, the
# examples, every tests/ directory, this script and the benchmark driver.
size_point() {
  local total=0 entry n
  echo "{"
  for entry in crates/*/src crates/bench/benches src examples tests ci.sh benchmark/src; do
    case $entry in
      tests) n=$(count $(find tests crates/*/tests -name '*.rs')) ;;
      ci.sh) n=$(count ci.sh) ;;
      *) n=$(count $(find "$entry" -name '*.rs')) ;;
    esac
    printf '  "%s": %d,\n' "$entry" "$n"
    total=$((total + n))
  done
  printf '  "total": %d\n}\n' "$total"
}
# <committed> <fresh>: on a mismatch, print the fresh point and each
# entry's delta, and fail. Commit the fresh point with the change.
size_check() {
  cmp -s "$1" "$2" && return 0
  echo "error: $1 is stale; the fresh point:" >&2
  cat "$2" >&2
  awk -F'"' 'NF >= 3 { v = $3; gsub(/[^0-9]/, "", v); if (!($2 in seen)) { seen[$2]; key[++n] = $2 }
      if (NR == FNR) old[$2] = v; else new[$2] = v }
    END { for (i = 1; i <= n; i++) if (old[key[i]] != new[key[i]])
      printf "  %-24s %6s -> %6s (%+d)\n", key[i], old[key[i]], new[key[i]], new[key[i]] - old[key[i]] }' \
    "$1" "$2" >&2
  return 1
}
size_point > "$tmp/SIZE.json"
size_check SIZE.json "$tmp/SIZE.json"
echo "ok: SIZE.json is the tree's size point (total $(awk -F': ' '/"total"/ { print $2 }' SIZE.json))"
# Two caps a change set on the files it touched, each with the headroom it
# had when the size point replaced the per-change counts (25 and 24 lines).
# <name> <limit> <files...>
cap() {
  local name=$1 limit=$2 n
  shift 2
  n=$(count "$@")
  echo "  $name: $n of $limit"
  if [ "$n" -gt "$limit" ]; then
    echo "ERROR: the files of \"$name\" grew past $limit lines" >&2
    exit 1
  fi
}
cap 'one batch per slice' 3107 crates/storage/src/table.rs crates/engine/src/exec.rs \
  crates/engine/src/baseline.rs crates/core/src/cluster/compute.rs crates/core/src/cluster/read.rs \
  crates/core/src/cluster/leader.rs crates/core/src/systables.rs crates/core/src/result_cache.rs
cap 'COPY streams units' 3542 crates/core/src/cluster/write.rs crates/core/src/loader.rs \
  crates/common/src/codec.rs crates/common/src/schema.rs crates/frontdoor/src/wire.rs \
  crates/storage/src/table.rs crates/storage/src/encoding.rs crates/replication/src/backup.rs \
  crates/testkit/src/par.rs

echo "== build, benches compile, tests (offline) =="
cargo build --release --offline --workspace
cargo bench --no-run --offline -p redsim-bench
cargo test -q --offline --workspace
# `benchmark/` is outside the workspace, so nothing above compiles it: an
# API it imports could be removed from `core` and only the benchmark
# driver would notice. Builds `rsbench` and runs its harness unit tests.
CARGO_TARGET_DIR=target/benchmark cargo test --offline --manifest-path benchmark/Cargo.toml

echo "== named probes still exist =="
# The tests each change named as its probes ran in the --workspace pass
# above; `cargo test <filter>` passes when the filter matches nothing, so
# a renamed probe would leave CI green. Each name must match (as a
# substring, the way a cargo test filter does) at least one listed test.
# One line per change, naming its DESIGN.md section.
probes='
  # property invariants: trace §8, WLM §9, chaos §10, MVCC §15, session §12, QMR + profiler §13, replay §14, kernels §16
  trace_invariants wlm_ chaos_ mvcc_ session_ qmr_ profile_ workload_ vector_
  # one expression semantics: §16 "Binder → kernel | row fallback"
  compiled_equals_interpreted insert_parses_strings guards_protect_division
  # frontdoor wire server, 64 concurrent sessions: §12 "Wire server"
  sixty_four_concurrent_sessions connection_limit_rejects_with_retryable_throttle
  typed_errors_round_trip_the_wire abrupt_disconnect_cleans_up_session
  mid_statement_disconnect_commits_fully_or_not_at_all drain_finishes_in_flight_work_and_stops_accepting
  # write atomicity (failure injection): §10 "Chaos, inside the model", §15 "Crash and recovery"
  copy_ failed_ wal_
  # one table image: §11 "The rule: one immutable catalog"
  one_image_ dropped_draft_deletes_exactly_its_blocks_on_every_replica
  aborted_first_load_leaves_encodings_unlocked compupdate_override_dies_with_its_statement
  table_image_bytes_are_the_parents
  # one block home: §3 replication
  failed_hydration_step_keeps_its_block_pending hydration_progress_ignores_writes_after_restore
  restore_reads_its_manifest_through_the_retry_loop snapshot_retries_are_observed
  restored_cluster_is_an_ordinary_cluster restored_select_survives_a_failed_placement
  restore_ writes_after_restore_ hydrated_blocks_are_backed_up_ demand_read_survives_a_failed_placement
  a_deleted_pending_block_is_never_placed
  # one key path: §16 "One key path"
  one_key_path_ keys:: unsorted_group_order_ typed_accumulators_match_the_value_path
  floats_are_equal_as_eq_compares_them keys_equal_by_sql_equality_hash_alike
  # one catalog version: §11
  one_catalog_ one_image_refused_ wait_timeout_evicts table_image_bytes_are_the_parents
  # readers take no lock: §11 retire, §15
  no_lock_ a_held_catalog_keeps_its_blocks_until_released crash_while_a_retired_catalog_is_held
  no_op_exclusive_statements_count_no_rollback dropped_draft_deletes_exactly_its_blocks_on_every_replica
  # one batch per slice: §16 "Pipelines and breakers", §12 result cache
  scan_slice_drop_is_a_retryable_fault_not_a_short_answer projection_out_of_range_is_an_error_not_a_panic
  peak_heap_is_flat_as_the_table_grows copy_heap_is_flat_as_objects_multiply
  copy_heap_is_flat_as_an_object_grows a_cached_result_holds_its_columns_and_nothing_more
  result_cache_hits_are_bit_identical_for_every_type
  # COPY streams units: §17 "Load path"
  copy_streams_ units_parse_as_the_whole_text join_returns_both_sides_and_nests copy_heap_
  a_corrupt_count_is_a_codec_error
  # one model: §7 "The model"
  one_model_checks_every_write_crash_resize_and_restore resize_keeps_a_sorted_table_sorted
  a_freed_slot_goes_to_the_longest_waiter re_replication_onto_a_revived_node_restores_redundancy
  # branch-free scan loops: §16 "The per-row loop rule", "The one-group fold", "Integer decode widths"
  vector_kernels_nan_total_order_end_to_end vector_aggregates_match_value_path int_encodings_roundtrip
  column_kernel_agrees_with_row_matcher typed_accumulators_match_the_value_path
  corrupt_delta_streams_are_codec_errors_on_both_paths delta_roundtrips_at_every_width
  mutated_delta_blocks_never_panic packed_bits_read_back_at_every_width accept_thread_sleeps_while_idle
  drain_is_bounded_when_the_wake_up_connect_fails an_out_of_range_int2_is_a_codec_error
  # one ruler per question: EXPERIMENTS.md "One ruler per question"
  interleaved_prunes_on_any_dimension zone_map_pruning_on_sorted_data no_pruning_on_random_data
  sessionless_execute_select_is_logged_as_the_default_user
  # block seal at memory speed: §17 "Load path: sealing a block"
  a_stream_must_end_at_its_last_token a_damaged_lzss_object_loads_nothing table_image_bytes_are_the_parents
  crc32_slice_by_16_equals_the_bitwise_definition typed_min_max_equals_the_boxed_fold crc32_known_vector
  # one trace: §8
  a_clusters_s3_faults_count_in_its_own_sink query_spans_all_close_and_nest copy_spans_record_ingest_phases
  # dimension strings travel as codes: §16 "The coded StrVec", §18
  coded_equals_arena raw_parts_refuses_a_coded_vector coded_strings_get_the_ids_their_bytes_get
  column_kernel_agrees_with_row_matcher coded_columns_encode_as_their_arena compress_emits_the_reference_tokens
  order_by_position_is_a_select_list_column order_by_position_sorts_by_that_select_list_column
  dimension_strings_travel_as_codes
  # text blocks without an offsets array: §16 "Text blocks without an offsets array"
  a_note_block_encodes_as_lzo_in_at_most_21000_bytes corrupt_lzo_text_blocks_are_codec_errors
  mutated_note_blocks_never_panic decompress_agrees_with_the_reference a_stream_must_end_at_its_last_token
  analyzer::tests strvec_rejects_corrupt_offsets a_damaged_lzss_object_loads_nothing
  table_image_bytes_are_the_parents
  # one kind of WLM slot: §9 "One kind of slot"; one injected-fault mapping: §10
  wait_idle_counts_a_query_on_the_sqa_lane sqa_is_the_last_service_class_and_never_waits
  a_user_group_query_under_the_sqa_ceiling_rides_sqa an_injected_fault_class_is_the_same_error_at_every_seam
  wlm_tables_materialize_from_controller_and_spans workload_wlm_qmr_replay_accounting_and_sqa_latency
  wlm_queued_queries_survive_node_failure_or_fail_retryably table_image_bytes_are_the_parents
'
# <test list> <probe names...>: fails naming every probe no listed test matches.
probes_exist() {
  local list=$1
  shift
  printf '%s\n' "$@" | awk 'NR == FNR { if (sub(/: test$/, "")) name[++n] = $0; next }
    seen[$0]++ { next }
    { for (i = 1; i <= n; i++) if (index(name[i], $0)) next
      print "ERROR: probe " $0 " matches no test" > "/dev/stderr"; bad++ }
    END { exit (bad > 0) }' "$list" -
}
probe_names=$(printf '%s\n' "$probes" | sed 's/#.*//')
cargo test -q --offline --workspace -- --list > "$tmp/tests.txt"
# shellcheck disable=SC2086 # one probe name per word
probes_exist "$tmp/tests.txt" $probe_names
echo "ok: $(printf '%s\n' $probe_names | sort -u | wc -l) probe names match $(grep -c ': test$' "$tmp/tests.txt") listed tests"

echo "== structural guards: deleted names stay deleted =="
# One row per guard: grep flags, pattern (kept verbatim from the change
# that deleted the name), what came back, paths searched. A match fails.
knobs='cohort_size|plan_cache_capacity|system_snapshot_retention|result_cache_max_rows|profile_queries|query_profiling'
rulers='result_cache|profiler_overhead|workload_replay|zorder_vs_compound|block_skipping|ablations'
csvs='ablations|result_cache|result_cache_baseline|profiler_overhead_off|profiler_overhead_on|workload_dashboard|workload_dashboard_baseline|workload_etl|workload_etl_baseline|workload_adhoc|workload_adhoc_baseline|e8_zorder_vs_compound|e10_block_skipping'
absent() {
  local flags=$1 pat=$2 what=$3
  shift 3
  if grep "$flags" -- "$pat" "$@"; then
    echo "ERROR: $what reappeared" >&2
    exit 1
  fi
}
absent -rn 'Mutex<SliceTable>\|WriteCheckpoint\|rollback_write' 'live slice state / per-slice rollback' crates/
absent -rn 'StreamingRestoreStore\|BlockHome\|fn mirrored(\|fn restoring(' 'a second block store / store-kind switch' crates/
absent -rn 'GroupTable\|GroupKey\|update_hashed\|key_fallback\|Lookup::Boxed' 'a boxed key lane or key_fallback' crates/ src/ tests/
absent -rn 'commit_exclusive\|fn install(\|catalog_version: AtomicU64' 'a second commit order' crates/
absent -rn 'data_lock' "the readers' lock (data_lock)" crates/
absent -n 'pub batches:' 'a materialised scan output' crates/storage/src/table.rs
absent -n 'out.rows.clone()' 'a boxed result-cache copy' crates/core/src/cluster/read.rs
absent -n 'raw\.to_vec()\|parallel_map(keys' 'COPY parsing or copying the whole load' crates/core/src/cluster/write.rs
absent -nE "$knobs" 'a deleted ClusterConfig knob' crates/core/src/config.rs
absent -rnE "config\.($knobs)" 'a deleted ClusterConfig knob' crates/ src/ tests/ examples/ benchmark/src/
absent -rn 'sum_ivarints64' 'the varint-per-step delta reader' crates/ src/ tests/
absent -nE "^name = \"($rulers)\"" 'a deleted bench' crates/bench/Cargo.toml
absent -nE "^[^#]*--bench ($rulers)\b" 'a gate on a deleted bench' ci.sh
absent -nE "^[^#]*results/($csvs)\.csv" 'a gate on a deleted CSV' ci.sh
absent -rnE 'RSIM_TRACE|LVL_CORE|LVL_PHASE|LVL_DETAIL|with_level|export_json|export_text|metrics_to_' \
  'a trace level or an exporter' crates/ src/ tests/ examples/
absent -n 'set_trace' "S3Sim's own trace sink" crates/replication/src/s3sim.rs
absent -n 'enum Lane' 'the SQA lane as a second kind of slot' crates/core/src/wlm.rs
absent -rn 'sqa_in_flight' "the SQA lane's own in-flight count" crates/
absent -rn 'sqa_executed' "the SQA lane's own executed count" crates/
absent -rn 'release_with' 'a second WLM release' crates/
absent -rn 'fn config(&self) -> &WlmConfig' "WLM's unused config accessor" crates/
absent -rn 'fn class_error' 'a second injected-fault mapping' crates/
absent -rn 'fn fault_error' 'a second injected-fault mapping' crates/
absent -n 'write_raw_payload(col, &mut raw)' 'an lzo payload compressing the Raw payload (offsets array included)' \
  crates/storage/src/encoding.rs
if ls crates/bench/benches results | grep -xE "($rulers)\.rs|($csvs)\.csv"; then
  echo "ERROR: a deleted bench or its CSV came back" >&2
  exit 1
fi
# One CRC-32 in the program: the polynomial appears once in non-test code
# under crates/*/src (the reference CRCs live in a test module and the bench).
poly=$(find crates/*/src -name '*.rs' -print0 | xargs -0 awk 'FNR == 1 { t = 0 } /^#\[cfg\(test\)\]/ { t = 1 }
  !t && tolower($0) ~ /0xedb8_?8320/ { n++ } END { print n + 0 }')
if [ "$poly" != 1 ]; then
  echo "ERROR: the CRC-32 polynomial appears $poly times in non-test code (one crc32, one table)" >&2
  exit 1
fi
echo "ok: no deleted name came back; one CRC-32 polynomial"

echo "== committed bench baselines (benchdiff gates) =="
# Each bench's committed CSV against its committed _baseline.csv, at the
# stock 15% p50 gate, and for concurrent_copy and scan_kernels at p99 too
# (a convoy or an interpreter fallback moves the tail first). Regenerate
# after an intentional change with `cargo bench --offline -p redsim-bench
# --bench <name>` and copy results/<csv>.csv over its _baseline.csv;
# EXPERIMENTS.md records each baseline and the revert it catches.
# - copy_load: the WAL-overhead budget (fresh load, n-th load, statistics fold);
# - concurrent_copy: 1 vs 4 writers on distinct tables (no global write lock);
# - scan_kernels: typed kernels vs the interpreter fallback, the worker pool,
#   the one-pass bytedict build;
# - e7: the cached vectorized engine vs the row-at-a-time baseline;
# - e11: co-located / ALL / re-hashed joins and the GROUP BY key lanes;
# - e9: the encodings (bytedict, lzo text-notes, bit-packed delta rows).
benchdiff() { cargo run -q --offline -p redsim-bench --bin benchdiff -- "$@"; }
benchdiff results/copy_load_baseline.csv results/copy_load.csv
benchdiff results/concurrent_copy_baseline.csv results/concurrent_copy.csv
benchdiff --p99 results/concurrent_copy_baseline.csv results/concurrent_copy.csv
benchdiff results/scan_kernels_baseline.csv results/scan_kernels.csv
benchdiff --p99 results/scan_kernels_baseline.csv results/scan_kernels.csv
benchdiff results/e7_compile_vs_interpret_baseline.csv results/e7_compile_vs_interpret.csv
benchdiff results/e11_join_strategy_baseline.csv results/e11_join_strategy.csv
benchdiff results/e9_encodings_baseline.csv results/e9_encodings.csv
# COPY cost is flat in table size: nth_copy/1 and nth_copy/20 are the same
# 10k x 4 COPY into a table holding 0 and 190k rows. Statistics are folded
# from the batch, so the 20th may cost at most 1.5x the 1st; a rescan of
# the table on the load path (5.6x before the fold) fails here.
awk -F, '$1 == "nth_copy" { p50[$2] = $6 }
  END {
    if (!(1 in p50) || !(20 in p50)) { print "error: nth_copy rows missing" > "/dev/stderr"; exit 1 }
    ratio = p50[20] / p50[1]
    printf "nth_copy/20 = %.2fx nth_copy/1\n", ratio
    if (ratio > 1.5) { print "error: the 20th COPY costs more than 1.5x the 1st" > "/dev/stderr"; exit 1 }
  }' results/copy_load.csv
# A replicated (DISTSTYLE ALL) inner is built once, not per slice.
awk -F, '$1 == "join_strategy" && $2 ~ /^DS_DIST_NONE/ { none = $6 }
  $1 == "join_strategy" && $2 ~ /^DS_DIST_ALL_NONE/ { all = $6 }
  END {
    if (!none || !all) { print "error: join_strategy rows missing" > "/dev/stderr"; exit 1 }
    printf "DS_DIST_ALL_NONE = %.2fx DS_DIST_NONE\n", all / none
    if (all / none > 1.2) { print "error: the ALL join costs more than 1.2x the co-located one" > "/dev/stderr"; exit 1 }
  }' results/e11_join_strategy.csv

echo "== fresh-bench ratio gates (best of three tries) =="
# <csv> <awk check> <error> <cargo bench args...>: runs the bench into a
# temporary results directory up to three times; passes when the check
# (run with -v try=N over the CSV) exits 0 once.
fresh_ratio() {
  local csv=$1 check=$2 error=$3 try
  shift 3
  for try in 1 2 3; do
    RSIM_RESULTS_DIR="$tmp/results" cargo bench -q --offline -p redsim-bench "$@" > "$tmp/bench.txt"
    if awk -F, -v try="$try" "$check" "$tmp/results/$csv"; then
      return 0
    fi
  done
  echo "error: $error" >&2
  exit 1
}
# The float lane branches on nothing but the loop (DESIGN.md §16 "The
# per-row loop rule"): `price < 500.0` (~50 % selected) within 1.5x of
# `price < 50.0` (0.9-1.15x per run; with a branch on the data 2.7-3.2x).
fresh_ratio scan_kernels_float.csv \
  '$1 == "scan_pipeline" && $2 == "kernel" && $3 == "float_tail" { tail = $6 }
    $1 == "scan_pipeline" && $2 == "kernel" && $3 == "float_half" { half = $6 }
    END {
      if (!tail || !half) { print "error: float_tail / float_half rows missing" > "/dev/stderr"; exit 2 }
      printf "try %d: float_half = %.2fx float_tail (kernel p50)\n", try, half / tail
      exit (half / tail > 1.5)
    }' \
  'the float lane branches on the data again (float_half > 1.5x float_tail three times)' \
  --bench scan_kernels -- float
# Sealing a block costs what its bytes cost (§17 "Load path: sealing a
# block"): the CRC <= 0.4x the bytewise reference (0.19x measured) and the
# typed zone map <= 0.5x the boxed one (0.11-0.15x measured).
fresh_ratio copy_load_seal.csv \
  '$1 == "seal" { p50[$2] = $6 }
    END {
      if (!p50["crc32_64KiB"] || !p50["crc32_bytewise_64KiB"] || !p50["zone_map_varchar_2500"] \
          || !p50["zone_map_boxed_varchar_2500"]) { print "error: seal rows missing" > "/dev/stderr"; exit 2 }
      crc = p50["crc32_64KiB"] / p50["crc32_bytewise_64KiB"]
      zm = p50["zone_map_varchar_2500"] / p50["zone_map_boxed_varchar_2500"]
      printf "try %d: crc32 = %.2fx bytewise, zone map = %.2fx boxed (p50)\n", try, crc, zm
      exit (crc > 0.4 || zm > 0.5)
    }' \
  'sealing a block is back to bytewise CRC or boxed zone maps (three tries)' \
  --bench copy_load -- seal
# GROUP BY a joined VARCHAR remaps codes (§16 "The coded StrVec"): GROUP BY
# VARCHAR <= 1.1x GROUP BY BIGINT (hashing strings: 1.30x), and VARCHAR,
# VARCHAR <= 1.5x (2.01x). The two-key bench's name is quoted and holds a
# comma: its p50 is $7.
fresh_ratio e11_join_strategy_lanes.csv \
  '$1 == "aggregate_lanes" && $2 == "GROUP BY BIGINT" { big = $6 }
    $1 == "aggregate_lanes" && $2 == "GROUP BY VARCHAR" { one = $6 }
    $1 == "aggregate_lanes" && $2 == "\"GROUP BY VARCHAR" { two = $7 }
    END {
      if (!big || !one || !two) { print "error: aggregate_lanes rows missing" > "/dev/stderr"; exit 2 }
      printf "try %d: GROUP BY VARCHAR = %.2fx, VARCHAR, VARCHAR = %.2fx GROUP BY BIGINT (p50)\n", try, one / big, two / big
      exit (one / big > 1.1 || two / big > 1.5)
    }' \
  'GROUP BY a joined VARCHAR hashes strings again (aggregate_lanes ratios, three tries)' \
  --bench join_strategy -- lanes

echo "== self-tests: benchdiff, the size point, the probe check =="
cat > "$tmp/base.csv" <<'CSV'
group,bench,input,samples,iters_per_sample,p50_ns,p99_ns,mean_ns,min_ns,max_ns,elems_per_sec
scan,rows,1k,5,100,1000.0,1200.0,1050.0,900.0,1300.0,952381
CSV
sed 's/1000\.0/1400.0/' "$tmp/base.csv" > "$tmp/slow.csv"
benchdiff "$tmp/base.csv" "$tmp/base.csv"
if benchdiff "$tmp/base.csv" "$tmp/slow.csv"; then
  echo "error: benchdiff failed to flag a 40% p50 regression" >&2
  exit 1
fi
echo "ok: benchdiff gates p50 regressions"
# A blown-out tail with a flat median: the default p50 gate must pass,
# --p99 must fail.
sed 's/1200\.0/2000.0/' "$tmp/base.csv" > "$tmp/tail.csv"
benchdiff "$tmp/base.csv" "$tmp/tail.csv"
if benchdiff --p99 "$tmp/base.csv" "$tmp/tail.csv"; then
  echo "error: benchdiff --p99 failed to flag a 67% tail regression" >&2
  exit 1
fi
echo "ok: benchdiff --p99 gates tail regressions the p50 gate misses"
# A committed point with one number off by one must fail the size check.
awk '/"total"/ { sub(/[0-9]+/, $2 + 1) } { print }' SIZE.json > "$tmp/SIZE.stale.json"
if size_check "$tmp/SIZE.stale.json" "$tmp/SIZE.json" 2> "$tmp/size.err"; then
  echo "error: the size check passed a stale point" >&2
  exit 1
fi
echo "ok: a stale SIZE.json fails"
# A probe list with one unknown name must fail the probe check.
# shellcheck disable=SC2086
if probes_exist "$tmp/tests.txt" $probe_names no_test_is_named_this 2> "$tmp/probes.err"; then
  echo "error: the probe check passed an unknown probe name" >&2
  exit 1
fi
grep -q 'probe no_test_is_named_this matches no test' "$tmp/probes.err"
echo "ok: an unknown probe name fails"

echo "== ci green =="
