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
# The build rewrites the tracked, stale benchmark/Cargo.lock (refreshing it is
# a change to benchmark/): put it back byte for byte, on failure too.
cp benchmark/Cargo.lock "$tmp/benchmark.Cargo.lock"
trap 'cp "$tmp/benchmark.Cargo.lock" benchmark/Cargo.lock; rm -rf "$tmp"' EXIT
CARGO_TARGET_DIR=target/benchmark cargo test --offline --manifest-path benchmark/Cargo.toml
cp "$tmp/benchmark.Cargo.lock" benchmark/Cargo.lock
trap 'rm -rf "$tmp"' EXIT

echo "== named probes still exist =="
# The tests each change named as its probes ran in the --workspace pass
# above; `cargo test <filter>` passes when the filter matches nothing, so
# a renamed probe would leave CI green. Each probe is
# `<test binary>::<test path>` and must name exactly one listed test (bash
# brace expansion spells several tests of one module). One group per
# change, naming its DESIGN.md section; a test an earlier group names is
# not repeated.
probes=(
  # property invariants: trace §8, WLM §9, session §12, QMR + profiler §13, replay §14, kernels §16
  properties::{trace_invariants_hold_under_random_workload,wlm_admission_invariants}
  properties::wlm_dr_failover_preserves_data
  properties::workload_wlm_qmr_replay_accounting_and_sqa_latency
  properties::{qmr_rules_under_chaos_never_leak_spans_or_slots,workload_chaos_delay_rides_virtual_clock}
  properties::session_schedule_cache_and_leak_invariants
  properties::{session_wire_disconnect_never_leaks,qmr_abort_never_fires_on_explain_or_system_reads}
  properties::qmr_rule_hop_and_timeout_hop_both_count_in_stl_hops
  properties::profile_explain_analyze_annotates_three_table_join
  properties::profile_report_rows_equal_queries_times_slices_times_steps
  properties::{workload_schedule_determinism_and_replay_counts,vector_aggregates_match_value_path}
  properties::{vector_interp_fallback_is_counted_and_zero_on_benchmark_shapes,vector_joins_match_baseline}
  properties::{vector_kernels_match_interpreter,vector_kernels_nan_total_order_end_to_end}
  failure_injection::wlm_queued_queries_survive_node_failure_or_fail_retryably
  redsim_core::cluster::session_tests::result_cache_hit_skips_wlm_compile_and_exec
  redsim_core::cluster::session_tests::cache_partitions_by_user_group_and_respects_opt_out
  redsim_core::cluster::session_tests::commits_invalidate_but_rolled_back_copy_does_not
  redsim_core::cluster::session_tests::compupdate_session_default_applies_when_copy_omits_it
  redsim_core::cluster::session_tests::plan_cache_does_not_survive_schema_change
  redsim_core::cluster::session_tests::sessionless_execute_select_is_logged_as_the_default_user
  redsim_core::cluster::session_tests::sessionless_query_routes_through_implicit_session
  redsim_core::cluster::session_tests::sessions_surface_in_system_tables_and_clean_up_on_drop
  redsim_core::systables::tests::wlm_tables_materialize_from_controller_and_spans
  redsim_core::systables::tests::session_tables_materialize_from_manager
  redsim_core::systables::tests::svl_query_report_materializes_profile_steps
  redsim_core::wlm::tests::qmr_abort_rule_releases_slot_and_errors
  redsim_core::wlm::tests::qmr_all_firings_logged_but_strongest_action_wins
  redsim_core::wlm::tests::qmr_hop_rule_moves_running_query_to_wider_queue
  redsim_core::wlm::tests::qmr_queue_time_rule_fires_at_admission
  # one expression semantics: §16 "Binder → kernel | row fallback"
  properties::compiled_equals_interpreted
  end_to_end::{insert_parses_strings_into_date_timestamp_and_decimal_columns,guards_protect_division}
  # frontdoor wire server, 64 concurrent sessions: §12 "Wire server"
  frontdoor_server::{sixty_four_concurrent_sessions,connection_limit_rejects_with_retryable_throttle}
  frontdoor_server::{typed_errors_round_trip_the_wire,abrupt_disconnect_cleans_up_session}
  frontdoor_server::mid_statement_disconnect_commits_fully_or_not_at_all
  frontdoor_server::drain_finishes_in_flight_work_and_stops_accepting
  # write atomicity, one chaos harness: §10 "Chaos, inside the model", §15 "Crash and recovery"
  # (the model itself is probed in the §15 "Who waits for whom" group below)
  end_to_end::copy_ingests_compressed_and_encrypted_sources
  failure_injection::{copy_rides_through_s3_flakiness,wal_truncate_failure_is_absorbed_not_surfaced}
  peak_heap::{copy_heap_is_flat_as_an_object_grows,copy_heap_is_flat_as_objects_multiply}
  redsim_core::cluster::read::tests::copy_spans_record_ingest_phases
  redsim_core::cluster::tests::{copy_csv_from_s3,copy_json_from_s3}
  redsim_core::cluster::write::tests::copy_streams_failing_in_the_last_unit_change_nothing
  redsim_core::cluster::write::tests::copy_streams_first_object_error_wins
  redsim_core::cluster::write::tests::copy_streams_into_the_blocks_one_append_writes
  redsim_core::cluster::write::tests::copy_streams_report_the_line_of_the_object
  redsim_replication::s3sim::tests::copy_object_failpoint
  redsim_sql::parser::tests::{copy_compressed_and_encrypted_options,copy_statement}
  redsim_storage::lzss::tests::copy_reaching_before_the_output_is_rejected_on_both_paths
  redsim_workload::synth::tests::copy_objects_are_prefix_free_and_bodies_deterministic
  redsim_core::cluster::lifecycle::tests::failed_hydration_step_keeps_its_block_pending
  redsim_core::cluster::lifecycle::tests::restored_select_survives_a_failed_placement
  redsim_core::cluster::lifecycle::tests::recovery_replays_wal_deltas_after_last_checkpoint
  executor_integration::failed_scan_slice_leaves_metrics_untouched
  redsim_replication::mirror::tests::demand_read_survives_a_failed_placement
  # one table image: §11 "The rule: one immutable catalog"
  failure_injection::one_image_refused_analyze_and_vacuum_change_nothing
  redsim_core::cluster::write::tests::dropped_draft_deletes_exactly_its_blocks_on_every_replica
  redsim_core::cluster::write::tests::aborted_first_load_leaves_encodings_unlocked
  redsim_core::cluster::write::tests::compupdate_override_dies_with_its_statement
  redsim_core::catalog::tests::table_image_bytes_are_the_parents
  # one block home: §3 replication
  redsim_core::cluster::lifecycle::tests::hydration_progress_ignores_writes_after_restore
  redsim_core::cluster::lifecycle::tests::restore_reads_its_manifest_through_the_retry_loop
  redsim_core::cluster::lifecycle::tests::snapshot_retries_are_observed
  redsim_core::cluster::lifecycle::tests::restored_cluster_is_an_ordinary_cluster
  redsim_core::cluster::lifecycle::tests::{restore_preserves_table_state,snapshot_restore_preserves_data}
  end_to_end::lifecycle_create_load_query_snapshot_restore_resize
  failure_injection::lost_s3_object_reports_error_on_restore_touch
  failure_injection::one_catalog_refused_restore_checkpoint_fails_the_restore
  failure_injection::{restore_works_after_cluster_key_rotation,streaming_restore_completes_via_retries}
  redsim_bench::figures::tests::e12_restore_serves_early
  redsim_core::cluster::read::tests::restore_trace_records_page_faults_and_hydration
  redsim_replication::mirror::tests::{restore_hydration_completes,restore_hydration_skips_faulted_blocks}
  redsim_replication::mirror::tests::restore_of_a_lost_object_is_a_replication_error
  redsim_replication::mirror::tests::restore_page_fault_failpoint_is_typed_and_recovers
  redsim_replication::mirror::tests::restore_rides_through_s3_flakiness
  redsim_replication::mirror::tests::restore_serves_a_demand_fault_then_reads_locally
  redsim_replication::mirror::tests::restore_trace_records_faults_and_hydration
  redsim_replication::mirror::tests::writes_after_restore_are_mirrored_and_backed_up
  redsim_replication::mirror::tests::hydrated_blocks_are_backed_up_unless_already_in_the_own_bucket
  redsim_replication::mirror::tests::a_deleted_pending_block_is_never_placed
  # one key path: §16 "One key path"
  end_to_end::one_key_path_probes_match_equals
  redsim_crypto::keys::tests::{cluster_key_rotation_preserves_block_keys,debug_never_leaks_key_material}
  redsim_crypto::keys::tests::{hsm_lifecycle_and_repudiation,keyring_block_keys}
  redsim_crypto::keys::tests::{master_rotation_rewraps_cluster_key_only,wrap_unwrap_roundtrip}
  redsim_engine::keys::tests::coded_strings_get_the_ids_their_bytes_get
  redsim_engine::keys::tests::ids_are_dense_first_seen_and_find_never_inserts
  redsim_engine::keys::tests::join_lanes_come_from_both_types
  redsim_engine::agg::tests::unsorted_group_order_is_first_seen_across_batches_and_fragments
  redsim_engine::agg::tests::typed_accumulators_match_the_value_path
  redsim_engine::hashkey::tests::floats_are_equal_as_eq_compares_them
  redsim_distribution::style::tests::keys_equal_by_sql_equality_hash_alike
  # one catalog version: §11
  failure_injection::one_catalog_refused_resize_checkpoint_leaves_the_source_serving
  failure_injection::one_catalog_resized_and_restored_writes_survive_a_crash
  redsim_core::wlm::tests::wait_timeout_evicts
  # readers take no lock, who waits for whom: §11 retire, §15 (the model's parked step)
  model::one_model_checks_every_write_crash_resize_and_restore
  failure_injection::no_lock_readers_overlap_key_rotation
  redsim_core::cluster::write::tests::a_held_catalog_keeps_its_blocks_until_released
  redsim_core::cluster::write::tests::no_op_exclusive_statements_count_no_rollback
  redsim_core::cluster::lifecycle::tests::crash_while_a_retired_catalog_is_held
  # one batch per slice: §16 "Pipelines and breakers", §12 result cache
  failure_injection::scan_slice_drop_is_a_retryable_fault_not_a_short_answer
  redsim_storage::table::tests::projection_out_of_range_is_an_error_not_a_panic
  peak_heap::{peak_heap_is_flat_as_the_table_grows,a_cached_result_holds_its_columns_and_nothing_more}
  end_to_end::result_cache_hits_are_bit_identical_for_every_type
  # COPY streams units: §17 "Load path"
  redsim_core::loader::tests::units_parse_as_the_whole_text
  redsim_testkit::par::tests::join_returns_both_sides_and_nests
  redsim_common::codec::tests::a_corrupt_count_is_a_codec_error
  redsim_common::schema::tests::a_corrupt_count_is_a_codec_error
  redsim_frontdoor::wire::tests::a_corrupt_count_is_a_codec_error
  redsim_replication::backup::tests::a_corrupt_count_is_a_codec_error
  redsim_storage::encoding::tests::a_corrupt_count_is_a_codec_error
  redsim_storage::table::tests::a_corrupt_count_is_a_codec_error
  # one model: §7 "The model"
  redsim_core::cluster::lifecycle::tests::resize_keeps_a_sorted_table_sorted
  redsim_core::wlm::tests::a_freed_slot_goes_to_the_longest_waiter
  redsim_replication::mirror::tests::re_replication_onto_a_revived_node_restores_redundancy
  # branch-free scan loops: §16 "The per-row loop rule", "The one-group fold", "Integer decode widths"
  properties::int_encodings_roundtrip redsim_engine::like::tests::column_kernel_agrees_with_row_matcher
  redsim_storage::encoding::tests::corrupt_delta_streams_are_codec_errors_on_both_paths
  redsim_storage::encoding::tests::{delta_roundtrips_at_every_width,mutated_delta_blocks_never_panic}
  redsim_storage::varint::tests::packed_bits_read_back_at_every_width
  redsim_frontdoor::server::tests::accept_thread_sleeps_while_idle
  redsim_frontdoor::server::tests::drain_is_bounded_when_the_wake_up_connect_fails
  redsim_frontdoor::wire::tests::an_out_of_range_int2_is_a_codec_error
  # one ruler per question: EXPERIMENTS.md "One ruler per question"
  redsim_storage::table::tests::{interleaved_prunes_on_any_dimension,zone_map_pruning_on_sorted_data}
  redsim_storage::table::tests::no_pruning_on_random_data
  # block seal at memory speed: §17 "Load path: sealing a block"
  redsim_storage::lzss::tests::a_stream_must_end_at_its_last_token
  redsim_core::cluster::write::tests::a_damaged_lzss_object_loads_nothing
  redsim_common::codec::tests::{crc32_slice_by_16_equals_the_bitwise_definition,crc32_known_vector}
  redsim_common::column::tests::typed_min_max_equals_the_boxed_fold
  # one trace: §8
  failure_injection::a_clusters_s3_faults_count_in_its_own_sink
  redsim_core::cluster::read::tests::query_spans_all_close_and_nest
  # dimension strings travel as codes: §16 "The coded StrVec", §18
  redsim_common::column::tests::{coded_equals_arena,raw_parts_refuses_a_coded_vector}
  redsim_storage::encoding::tests::coded_columns_encode_as_their_arena
  redsim_storage::lzss::tests::compress_emits_the_reference_tokens
  redsim_sql::binder::tests::order_by_position_is_a_select_list_column
  end_to_end::{order_by_position_sorts_by_that_select_list_column,dimension_strings_travel_as_codes}
  # text blocks without an offsets array: §16 "Text blocks without an offsets array"
  redsim_storage::encoding::tests::a_note_block_encodes_as_lzo_in_at_most_21000_bytes
  redsim_storage::encoding::tests::corrupt_lzo_text_blocks_are_codec_errors
  redsim_storage::encoding::tests::mutated_note_blocks_never_panic
  redsim_storage::lzss::tests::decompress_agrees_with_the_reference
  redsim_storage::analyzer::tests::{empty_column_defaults_to_raw_family,picks_delta_for_sequences}
  redsim_storage::analyzer::tests::{picks_dict_for_low_cardinality_strings,picks_lzss_for_repetitive_text}
  redsim_storage::analyzer::tests::{picks_narrow_encoding_for_small_values,picks_rle_for_constant_runs}
  redsim_storage::analyzer::tests::sample_pick_close_to_oracle
  redsim_common::column::tests::strvec_rejects_corrupt_offsets
  # one kind of WLM slot: §9 "One kind of slot"; one injected-fault mapping: §10
  redsim_core::wlm::tests::wait_idle_counts_a_query_on_the_sqa_lane
  redsim_core::wlm::tests::sqa_is_the_last_service_class_and_never_waits
  redsim_core::wlm::tests::a_user_group_query_under_the_sqa_ceiling_rides_sqa
  failure_injection::an_injected_fault_class_is_the_same_error_at_every_seam
  # one kind of bench gate: §2 "What ci.sh checks"; per-class books: §9
  redsim_testkit::bench::tests::a_ratio_row_fails_over_its_bound_on_a_missing_arm_and_on_nan
  redsim_core::systables::tests::an_aborted_query_counts_in_its_class_through_sql
  # a block frees itself: §11 "free = the last holder of a row group deletes its blocks"; §10 what fault.injected counts
  redsim_core::cluster::write::tests::a_block_no_held_catalog_names_goes_at_once
  redsim_storage::table::tests::a_failed_vacuum_keeps_the_z_norm
  redsim_core::systables::tests::stl_fault_event_materializes_the_registry_ring
  # a unit moves as columns: §17 "Load path: a unit moves as columns"
  redsim_common::column::tests::bulk_moves_equal_the_per_row_reference
  redsim_common::bitmap::tests::extend_range_equals_pushing_each_bit
  redsim_core::loader::tests::{fast_parsers_equal_str_parse,one_scan_cuts_as_lines_split_trim}
  redsim_distribution::style::tests::key_slices_equal_dist_hash_of_each_value
  # a unit folds under the record's limits: §17 "The limit rule"
  redsim_storage::stats::tests::{every_fold_equals_the_reference,a_coded_column_folds_its_rows_bytes}
  redsim_storage::stats::tests::a_hash_just_under_the_kth_smallest_is_kept
  redsim_common::hash::tests::a_short_string_hashes_as_its_padded_word
  # maintenance is a table writer: §15 "Transaction model: two lock scopes", "Who waits for whom"
  redsim_core::cluster::write::tests::an_untouched_table_draft_counts_no_rollback_beside_a_commit
  redsim_core::cluster::maintenance::tests::{an_unqualified_analyze_beside_a_busy_table_finishes_on_rerun,maintenance_tick_leaves_a_busy_table_for_its_next_pass}
  redsim_core::cluster::lifecycle::tests::vacuum_and_analyze_commit_deltas_that_replay
)
# <listing> <probes...>: fails naming every probe that is not exactly one
# listed test.
probes_exist() {
  local list=$1
  shift
  printf '%s\n' "$@" | awk 'NR == FNR { n[$0]++; next }
    n[$0] != 1 { printf "ERROR: probe %s names %d listed tests, not one\n", $0, n[$0] > "/dev/stderr"; bad++ }
    END { exit (bad > 0) }' "$list" -
}
# The listing: one `<binary>::<test path>` line per listed test, the binary
# taken from the `Running … (…/deps/<binary>-<hash>)` line above it.
cargo test --offline --workspace -- --list 2>&1 |
  awk '/^ *Running / { b = $NF; sub(/.*\//, "", b); sub(/-[0-9a-f]+\)$/, "", b) }
    /^ *Doc-tests / { b = $2 } sub(/: test$/, "") { print b "::" $0 }' > "$tmp/tests.txt"
probes_exist "$tmp/tests.txt" "${probes[@]}"
echo "ok: ${#probes[@]} probes each name one of $(wc -l < "$tmp/tests.txt") listed tests"

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
absent -rn 'bench[d]iff' 'the committed-file bench diff' crates/ ci.sh
absent -rn '_baseline\.csv' 'a committed bench baseline' crates/ ci.sh
absent -rn 'DiffStat' "testkit::bench's diff statistics" crates/
absent -rn 'fn parse_csv(text' "testkit::bench's CSV reader" crates/
absent -rn 'float_only' 'a bench mode that existed only for a ci.sh gate' crates/bench/
absent -rn 'seal_only' 'a bench mode that existed only for a ci.sh gate' crates/bench/
absent -rn 'lanes_only' 'a bench mode that existed only for a ci.sh gate' crates/bench/
absent -rn 'RSIM_BENCH_QUICK' 'a second bench tuning' crates/ src/ tests/ README.md results/README.md
absent -rn 'chaos_schedule_upholds_exactness_and_liveness' 'a second chaos harness' crates/ src/ tests/
absent -rn 'arb_chaos_case' 'a second chaos harness' crates/ src/ tests/
absent -rn 'copy_succeeds_exactly_when_transient_mirror_write_fault_is_absorbed' 'a pinned rollback the model subsumes' crates/ tests/
absent -rn 'failed_copy_rolls_back_to_pre_copy_state' 'a pinned rollback the model subsumes' crates/ tests/
absent -rn 'copy_under_probabilistic_write_faults_is_all_or_nothing' 'a pinned rollback the model subsumes' crates/ tests/
absent -rn 'copy_aborted_mid_objects_by_parse_error_leaves_zero_rows' 'a pinned rollback the model subsumes' crates/ tests/
absent -rn 'copy_failing_at_each_wal_seam_rolls_back_cleanly' 'a pinned rollback the model subsumes' crates/ tests/
absent -rn 'failed_insert_rolls_back_router_and_estimates' 'a pinned rollback the model subsumes' crates/ tests/
absent -rn 'PreWrite' "the pinned rollbacks' snapshot" crates/ tests/
absent -rn 'pre_write' "the pinned rollbacks' snapshot" crates/ tests/
absent -rn 'assert_unchanged' "the pinned rollbacks' snapshot" crates/ tests/
for name in one_image_readers_neither_wait_on_nor_see_an_inflight_copy \
  one_catalog_copy_overlapping_a_resize_lands_or_errors one_catalog_analyze_during_a_resize_lands_or_errors \
  no_lock_vacuum_commits_beside_a_parked_reader no_lock_analyze_commits_beside_a_parked_reader \
  no_lock_redistribute_commits_beside_a_parked_reader no_lock_drop_commits_beside_a_parked_reader \
  no_lock_probe no_lock_blocks one_catalog_parked wlm_resize_preserves_data_and_drains arb_resize_case \
  mvcc_snapshot_reads_and_first_committer_wins arb_mvcc_workload published_blocks; do
  absent -rn "$name" 'a sleep-timed concurrency test the model'"'"'s parked step subsumes' crates/ tests/
done
absent -rn 'HostManager' 'the unwired host manager' crates/ src/ tests/ examples/
absent -rn 'RSIM_FAILPOINTS' 'a second way to arm a failpoint' crates/ src/ tests/ examples/ benchmark/src/
absent -rn 'from_env' 'a second way to arm a failpoint' crates/faultkit/
absent -rn 'configure_str' 'a second way to arm a failpoint' crates/
absent -rn 'parse_config' 'the failpoint DSL' crates/
absent -rn 'parse_spec' 'the failpoint DSL' crates/
absent -rn 'parse_seed' 'the failpoint DSL' crates/faultkit/
absent -rn 'fn parse(' 'the failpoint DSL (ErrClass::parse)' crates/faultkit/
absent -rn 'FpStats' 'per-failpoint hits and fires' crates/
absent -rn 'fn stats(' 'per-failpoint hits and fires' crates/faultkit/
absent -rn 'fn fired(' 'Outcome::fired' crates/faultkit/
absent -rn 'const ALL' 'fp::ALL' crates/faultkit/
absent -rn 'struct Epoch' 'the epoch chain (a row group frees its own blocks)' crates/ src/ tests/
absent -rn 'fn retire(' 'the epoch chain (a row group frees its own blocks)' crates/ src/ tests/
absent -rn 'fn unreferenced_by' 'the abort diff (a row group frees its own blocks)' crates/ src/ tests/
absent -rn 'fn unshared' 'the abort diff (a row group frees its own blocks)' crates/ src/ tests/
absent -rn 'fn free_blocks' "the epoch's free closure (a row group frees its own blocks)" crates/ src/ tests/
absent -rn 'fn vacuum_deferred' "a second VACUUM (a row group frees its own blocks)" crates/ src/ tests/
absent -n 'fn new(capacity: usize) -> Self' "PlanCache's uncalled constructor" crates/engine/src/compile.rs
absent -rn 'dist_hash(&cols\[kc\].get(i))' 'a boxed Value per row in the KEY router (a unit moves as columns)' crates/
absent -n 'fn route(' "exec's private typed router (a unit moves as columns)" crates/engine/src/exec.rs
absent -n 'gather(&(from as u32' "slice's index-vector gather (a unit moves as columns)" crates/common/src/column.rs
absent -rn 'fn slice_for_key' "the router's boxed one-key lookup (a unit moves as columns)" crates/ src/ tests/
absent -n 'TableStats::of(&cols)' 'a COPY unit folding from an empty sketch (a unit folds under the limits)' \
  crates/core/src/cluster/write.rs
absent -rn 'struct UsageStats' 'UsageStats (usage is read from stl_query / stl_explain)' crates/ src/ tests/ examples/
absent -rn 'fn plan_shape' 'the per-SELECT plan-shape string (usage is read from stl_explain)' crates/ src/ tests/ examples/
absent -rn 'fn usage_stats' 'Cluster::usage_stats (usage is read from stl_query / stl_explain)' crates/ src/ tests/ examples/
absent -rnP '(?<!let shared = self\.)write_txn\.read\(\)' 'a caller taking write_txn shared outside begin_table' crates/ src/ tests/
# Only testkit (seeds, case counts, results dir) reads the environment.
absent -rn 'env::var' 'an environment read outside crates/testkit' $(find crates -mindepth 1 -maxdepth 1 -type d ! -name testkit)
if ls crates/bench/benches results | grep -xE "($rulers)\.rs|($csvs|.*_baseline)\.csv"; then
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

echo "== bench gates: each bench's in-run ratio rows (best of three runs) =="
# Each bench declares ratio rows beside the arms they compare
# (`Bench::ratio`): one arm's p50 over another's, timed in the same run with
# their iterations interleaved, so the box's speed cancels. A run exits
# non-zero when a row breaks its bound, an arm is missing or a ratio is
# NaN; a bench passes when one of three whole runs does. EXPERIMENTS.md
# "Bench gates" gives each row's bound, its ten-run range and the revert
# it catches.
for bench in scan_kernels compile_vs_interpret concurrent_copy copy_load join_strategy encodings; do
  for try in 1 2 3 failed; do
    [ "$try" = failed ] && { echo "error: $bench failed three runs" >&2; exit 1; }
    RSIM_RESULTS_DIR="$tmp/results" cargo bench -q --offline -p redsim-bench --bench "$bench" > "$tmp/bench.txt" 2>&1 && break
    grep -E 'BROKEN|panicked|^error' "$tmp/bench.txt" | sed "s/^/$bench, run $try: /" >&2 || true
  done
  grep '^ratio' "$tmp/bench.txt"
done

echo "== self-tests: the size point, the probe check =="
# A committed point with one number off by one must fail the size check.
awk '/"total"/ { sub(/[0-9]+/, $2 + 1) } { print }' SIZE.json > "$tmp/SIZE.stale.json"
if size_check "$tmp/SIZE.stale.json" "$tmp/SIZE.json" 2> "$tmp/size.err"; then
  echo "error: the size check passed a stale point" >&2
  exit 1
fi
echo "ok: a stale SIZE.json fails"
# A probe missing one module of its path must fail the probe check.
misspelt=redsim_engine::tests::compile_cost_scales_with_plan_size
grep -qx "${misspelt/tests/compile::tests}" "$tmp/tests.txt"
if probes_exist "$tmp/tests.txt" "$misspelt" 2> "$tmp/probes.err" || ! grep -q "$misspelt names 0" "$tmp/probes.err"; then
  echo "error: the probe check passed a misspelt path" >&2
  exit 1
fi
echo "ok: a misspelt probe path fails"

echo "== ci green =="
