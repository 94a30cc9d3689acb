//! The distributed executor.
//!
//! A logical plan runs as per-slice fragments joined by exchanges:
//! scans/filters/joins execute on every slice in parallel (std scoped
//! threads via `testkit::par` — one slice per core, as in §2.1),
//! aggregation runs
//! partial-per-slice then final-at-leader, and sorts/limits finish at the
//! leader, which "performs final aggregation of results when required".
//! Exchange operators count the bytes they move so experiment E11 can
//! report broadcast vs redistribution traffic.

use crate::agg::{GroupTable, Groups};
use crate::expr::{bind, narrow_predicate};
use crate::hashkey::HKey;
use crate::kernels::cmp_slots;
use crate::selection::Selection;
use redsim_testkit::sync::Mutex;
use redsim_common::{ColumnData, DataType, FxHashMap, FxHashSet, Result, Row, RsError};
use redsim_distribution::{style::dist_hash, JoinDistStrategy};
use redsim_sql::ast::JoinType;
use redsim_sql::plan::{AggExpr, BoundExpr, LogicalPlan, OutCol};
use redsim_storage::table::{ScanOutput, ScanPredicate};

/// One column batch (all columns share a length).
pub type Batch = Vec<ColumnData>;

/// A batch and the rows of it that are still alive — what flows between
/// operators (the contract is [`crate::selection`]'s). Filters narrow
/// `sel`; aggregation and the final row copy read through it; operators
/// that need dense columns call [`Chunk::into_dense`] at their input.
struct Chunk {
    cols: Batch,
    sel: Selection,
}

impl Chunk {
    fn dense(cols: Batch) -> Self {
        let rows = cols.first().map_or(0, |c| c.len());
        Chunk { cols, sel: Selection::all(rows) }
    }

    /// The selected rows as a batch of their own; free when nothing was
    /// filtered out.
    fn into_dense(self) -> Batch {
        if self.sel.is_all() {
            self.cols
        } else {
            self.sel.gather(&self.cols)
        }
    }

    /// Narrow to the rows where `predicate` holds; `true` when the row
    /// interpreter had to run.
    fn filter(&mut self, predicate: &BoundExpr) -> Result<bool> {
        let (sel, fell_back) = narrow_predicate(predicate, &self.cols, &self.sel)?;
        self.sel = sel;
        Ok(fell_back)
    }
}

/// Storage access the executor needs; implemented by the compute layer.
pub trait TableProvider: Sync {
    fn num_slices(&self) -> usize;

    /// Scan one slice of a table with projection + pruning predicate.
    fn scan_slice(
        &self,
        table: &str,
        slice: usize,
        projection: &[usize],
        pred: &ScanPredicate,
    ) -> Result<ScanOutput>;
}

/// Execution telemetry (surfaced through EXPLAIN-style reports and the
/// E10/E11 benches).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ExecMetrics {
    /// Bytes shipped by broadcast exchanges.
    pub bytes_broadcast: u64,
    /// Bytes shipped by hash-redistribution exchanges.
    pub bytes_redistributed: u64,
    pub blocks_read: usize,
    pub bytes_read: u64,
    pub groups_total: usize,
    pub groups_skipped: usize,
    pub rows_scanned: u64,
    /// Batches of an expression — predicate, projection, sort key,
    /// group key or aggregate argument — the binder handed to the row
    /// interpreter because no typed kernel covers it: the
    /// `exec.interp_fallback` counter, per statement.
    pub interp_fallback: u64,
    /// Time the query waited for a WLM concurrency slot before running
    /// (leader-side admission control; 0 when a slot was free).
    pub queue_wait_ns: u64,
    /// Wall-clock execution time (the `query.exec` span's extent;
    /// backfilled leader-side, 0 inside the executor itself).
    pub exec_ns: u64,
    /// Plan-compilation time, 0 on a plan-cache hit (the `query.compile`
    /// span's extent; backfilled leader-side).
    pub compile_ns: u64,
}

impl ExecMetrics {
    /// Fold another metrics bag into this one (field-wise sum). Public
    /// so callers merging per-slice or per-query metrics don't re-sum
    /// the fields by hand.
    pub fn absorb(&mut self, other: &ExecMetrics) {
        self.bytes_broadcast += other.bytes_broadcast;
        self.bytes_redistributed += other.bytes_redistributed;
        self.blocks_read += other.blocks_read;
        self.bytes_read += other.bytes_read;
        self.groups_total += other.groups_total;
        self.groups_skipped += other.groups_skipped;
        self.rows_scanned += other.rows_scanned;
        self.interp_fallback += other.interp_fallback;
        self.queue_wait_ns += other.queue_wait_ns;
        self.exec_ns += other.exec_ns;
        self.compile_ns += other.compile_ns;
    }

    /// Total interconnect traffic (broadcast + redistribution) — the
    /// quantity E11 and the colocation tests actually assert on.
    pub fn exchange_bytes(&self) -> u64 {
        self.bytes_broadcast + self.bytes_redistributed
    }
}

/// One operator's execution footprint on one slice: the unit row of
/// `svl_query_report`. `step` is the plan node's pre-order index
/// (1-based, matching `LogicalPlan::explain` line order), so step N
/// annotates EXPLAIN line N.
#[derive(Debug, Clone)]
pub struct StepProfile {
    pub step: usize,
    /// Operator label (`LogicalPlan::node_label`).
    pub label: String,
    pub slice: usize,
    /// Rows this operator emitted on this slice. Leader-materialized
    /// operators (Sort/Limit/final Aggregate) report on slice 0 only.
    pub rows: u64,
    /// Bytes of those output rows (in-memory column footprint).
    pub bytes: u64,
    /// Inclusive wall-clock time of the operator subtree. Slices run
    /// the fragment in lockstep, so every slice row of a step carries
    /// the same elapsed time.
    pub elapsed_ns: u64,
}

/// A completed query.
#[derive(Debug)]
pub struct QueryOutput {
    pub columns: Vec<OutCol>,
    pub rows: Vec<Row>,
    pub metrics: ExecMetrics,
    /// Per-step, per-slice profile; empty unless
    /// [`Executor::with_profiling`] enabled it.
    pub profile: Vec<StepProfile>,
}

/// Data placement during execution.
enum DataSet {
    /// One chunk list per slice.
    Slices(Vec<Vec<Chunk>>),
    /// Materialized at the leader.
    Leader(Vec<Chunk>),
}

impl DataSet {
    /// Every chunk, slice by slice, at the leader.
    fn into_chunks(self) -> Vec<Chunk> {
        match self {
            DataSet::Leader(c) => c,
            DataSet::Slices(per_slice) => per_slice.into_iter().flatten().collect(),
        }
    }
}

/// Executes optimized logical plans against a [`TableProvider`].
pub struct Executor<'a> {
    provider: &'a dyn TableProvider,
    metrics: Mutex<ExecMetrics>,
    /// Per-step profile rows; `None` when profiling is off (the check
    /// per plan node is one branch, so default-on is affordable — the
    /// profiler-overhead bench keeps this honest).
    profile: Option<Mutex<Vec<StepProfile>>>,
    /// Parent span for per-slice detail spans (`RSIM_TRACE=2`).
    trace: Option<&'a redsim_obs::Span>,
    /// Failpoint registry consulted at the per-slice scan seam
    /// (`exec.scan_slice`); `None` skips the check entirely.
    faults: Option<std::sync::Arc<redsim_faultkit::FaultRegistry>>,
}

impl<'a> Executor<'a> {
    pub fn new(provider: &'a dyn TableProvider) -> Self {
        Executor {
            provider,
            metrics: Mutex::new(ExecMetrics::default()),
            profile: None,
            trace: None,
            faults: None,
        }
    }

    /// Attach a parent span; slice-level scan spans become its children.
    pub fn with_trace(mut self, span: &'a redsim_obs::Span) -> Self {
        self.trace = Some(span);
        self
    }

    /// Enable (or disable) per-step, per-slice profiling. Off by
    /// default; the cluster turns it on per `profile_queries` config and
    /// always for `EXPLAIN ANALYZE`.
    pub fn with_profiling(mut self, on: bool) -> Self {
        self.profile = if on { Some(Mutex::new(Vec::new())) } else { None };
        self
    }

    /// Consult `registry` at the `exec.scan_slice` seam. The cluster
    /// passes its shared registry so chaos configs reach the executor.
    pub fn with_faults(mut self, registry: std::sync::Arc<redsim_faultkit::FaultRegistry>) -> Self {
        self.faults = Some(registry);
        self
    }

    /// Snapshot of the executor-wide metrics accumulated so far. Lets
    /// tests assert what a *failed* run left behind (a successful run
    /// reports through [`QueryOutput::metrics`] instead).
    pub fn metrics_snapshot(&self) -> ExecMetrics {
        self.metrics.lock().clone()
    }

    /// Run a plan to completion, materializing rows at the leader.
    pub fn run(&self, plan: &LogicalPlan) -> Result<QueryOutput> {
        let columns = plan.output();
        let chunks = self.exec(plan, 1)?.into_chunks();
        let mut rows = Vec::with_capacity(chunks.iter().map(|c| c.sel.len()).sum());
        for chunk in &chunks {
            debug_assert_eq!(chunk.cols.len(), columns.len());
            for i in chunk.sel.iter() {
                rows.push(Row::new(chunk.cols.iter().map(|c| c.get(i)).collect()));
            }
        }
        let mut profile =
            self.profile.as_ref().map_or_else(Vec::new, |p| std::mem::take(&mut p.lock()));
        profile.sort_by_key(|s| (s.step, s.slice));
        Ok(QueryOutput { columns, rows, metrics: self.metrics.lock().clone(), profile })
    }

    /// Add batches the binder handed to the row interpreter to the
    /// statement's count.
    fn count_fallbacks(&self, n: u64) {
        if n > 0 {
            self.metrics.lock().interp_fallback += n;
        }
    }

    /// Everything at the leader as dense batches (sort and limit input).
    fn gather(&self, ds: DataSet) -> Vec<Batch> {
        ds.into_chunks().into_iter().map(Chunk::into_dense).collect()
    }

    /// Execute one plan node (pre-order step id `step`), recording a
    /// [`StepProfile`] row per slice when profiling is on. Timing is
    /// inclusive of the subtree, like `EXPLAIN ANALYZE` actual-time.
    fn exec(&self, plan: &LogicalPlan, step: usize) -> Result<DataSet> {
        let Some(profile) = &self.profile else {
            return self.exec_node(plan, step);
        };
        let t0 = std::time::Instant::now();
        let ds = self.exec_node(plan, step)?;
        let elapsed_ns = t0.elapsed().as_nanos() as u64;
        let n = self.provider.num_slices();
        let label = plan.node_label();
        // Output footprint per slice; leader-materialized results count
        // on slice 0, other slices report the step with zero rows.
        let totals: Vec<(u64, u64)> = match &ds {
            DataSet::Slices(per_slice) => per_slice.iter().map(|c| chunk_totals(c)).collect(),
            DataSet::Leader(chunks) => {
                let mut v = vec![(0u64, 0u64); n.max(1)];
                v[0] = chunk_totals(chunks);
                v
            }
        };
        let mut rows = profile.lock();
        for (slice, (r, bytes)) in totals.into_iter().enumerate() {
            rows.push(StepProfile {
                step,
                label: label.clone(),
                slice,
                rows: r,
                bytes,
                elapsed_ns,
            });
        }
        drop(rows);
        Ok(ds)
    }

    fn exec_node(&self, plan: &LogicalPlan, step: usize) -> Result<DataSet> {
        match plan {
            LogicalPlan::Scan { table, projection, filter, pruning, .. } => {
                self.exec_scan(table, projection, filter.as_ref(), pruning)
            }
            LogicalPlan::Filter { input, predicate } => {
                let ds = self.exec(input, step + 1)?;
                self.map_chunks(ds, |mut chunk| {
                    let fell_back = chunk.filter(predicate)?;
                    self.count_fallbacks(fell_back as u64);
                    Ok(chunk)
                })
            }
            LogicalPlan::Project { input, exprs, .. } => {
                let ds = self.exec(input, step + 1)?;
                self.map_chunks(ds, |chunk| {
                    let mut out = Batch::with_capacity(exprs.len());
                    for e in exprs {
                        let (col, fell_back) = bind(e, &chunk.cols, &chunk.sel)?;
                        self.count_fallbacks(fell_back as u64);
                        out.push(match chunk.sel.ids() {
                            None => col.into_owned(),
                            Some(ids) => col.gather(ids),
                        });
                    }
                    Ok(Chunk::dense(out))
                })
            }
            LogicalPlan::Join { left, right, join_type, left_key, right_key, residual, strategy } => {
                self.exec_join(left, right, *join_type, *left_key, *right_key, residual.as_ref(), *strategy, step)
            }
            LogicalPlan::Aggregate { input, group_by, aggs, output } => {
                self.exec_aggregate(input, group_by, aggs, output, step)
            }
            LogicalPlan::Sort { input, keys } => {
                let ds = self.exec(input, step + 1)?;
                let all = concat_batches(&input.output(), self.gather(ds));
                let rows = all.first().map_or(0, |c| c.len());
                let mut key_cols = Vec::with_capacity(keys.len());
                for (k, _) in keys {
                    let (col, fell_back) = bind(k, &all, &Selection::all(rows))?;
                    self.count_fallbacks(fell_back as u64);
                    key_cols.push(col);
                }
                let mut idx: Vec<u32> = (0..rows as u32).collect();
                idx.sort_by(|&a, &b| {
                    for ((_, desc), kc) in keys.iter().zip(&key_cols) {
                        let o = cmp_slots(kc, a as usize, b as usize);
                        let o = if *desc { o.reverse() } else { o };
                        if o != std::cmp::Ordering::Equal {
                            return o;
                        }
                    }
                    std::cmp::Ordering::Equal
                });
                let sorted: Batch = all.iter().map(|c| c.gather(&idx)).collect();
                Ok(DataSet::Leader(vec![Chunk::dense(sorted)]))
            }
            LogicalPlan::Limit { input, n } => {
                let ds = self.exec(input, step + 1)?;
                let all = concat_batches(&input.output(), self.gather(ds));
                let rows = all.first().map_or(0, |c| c.len());
                let take = (*n as usize).min(rows);
                let truncated: Batch = all.iter().map(|c| c.slice(0, take)).collect();
                Ok(DataSet::Leader(vec![Chunk::dense(truncated)]))
            }
        }
    }

    fn exec_scan(
        &self,
        table: &str,
        projection: &[usize],
        filter: Option<&BoundExpr>,
        pruning: &ScanPredicate,
    ) -> Result<DataSet> {
        let n = self.provider.num_slices();
        let results: Vec<Result<(Vec<Chunk>, ExecMetrics)>> =
            parallel_map(n, |slice| {
                if let Some(faults) = &self.faults {
                    use redsim_faultkit::{fp, Outcome};
                    match faults.fire(fp::EXEC_SCAN_SLICE) {
                        Outcome::Proceed => {}
                        Outcome::Err(class) => {
                            return Err(RsError::FaultInjected(format!(
                                "injected {} at {} (slice {slice})",
                                class.as_str(),
                                fp::EXEC_SCAN_SLICE,
                            )))
                        }
                        // A dropped scan fragment yields an empty slice:
                        // lost-work semantics, not an error.
                        Outcome::Drop => return Ok((Vec::new(), ExecMetrics::default())),
                    }
                }
                let mut span = match self.trace {
                    Some(parent) => parent.child(redsim_obs::LVL_DETAIL, "exec.slice"),
                    None => redsim_obs::Span::disabled(),
                };
                let out = self.provider.scan_slice(table, slice, projection, pruning)?;
                let mut m = ExecMetrics {
                    blocks_read: out.blocks_read,
                    bytes_read: out.bytes_read,
                    groups_total: out.groups_total,
                    groups_skipped: out.groups_skipped,
                    ..Default::default()
                };
                let mut chunks = Vec::with_capacity(out.batches.len());
                for batch in out.batches {
                    let mut chunk = Chunk::dense(batch);
                    m.rows_scanned += chunk.sel.rows() as u64;
                    if let Some(f) = filter {
                        m.interp_fallback += chunk.filter(f)? as u64;
                        if chunk.sel.is_empty() {
                            continue;
                        }
                    }
                    chunks.push(chunk);
                }
                if span.is_recording() {
                    span.attr("table", table);
                    span.attr("slice", slice);
                    span.attr("rows_scanned", m.rows_scanned);
                    span.attr("blocks_read", m.blocks_read);
                    span.attr("bytes_read", m.bytes_read);
                    span.attr("groups_skipped", m.groups_skipped);
                }
                Ok((chunks, m))
            });
        // Unwrap every slice result BEFORE absorbing any metrics: a scan
        // that fails on slice k must not pollute svl_query_metrics /
        // stl_query with partial rows/bytes from slices 0..k. The `?`
        // below therefore runs to completion (or propagates the first
        // error with the shared counters untouched) before the absorb
        // loop starts.
        let mut per_slice = Vec::with_capacity(n);
        let mut slice_metrics = Vec::with_capacity(n);
        for r in results {
            let (chunks, m) = r?;
            slice_metrics.push(m);
            per_slice.push(chunks);
        }
        let mut metrics = self.metrics.lock();
        for m in &slice_metrics {
            metrics.absorb(m);
        }
        drop(metrics);
        Ok(DataSet::Slices(per_slice))
    }

    fn map_chunks(
        &self,
        ds: DataSet,
        f: impl Fn(Chunk) -> Result<Chunk> + Sync,
    ) -> Result<DataSet> {
        match ds {
            DataSet::Leader(chunks) => {
                let out: Result<Vec<Chunk>> = chunks.into_iter().map(&f).collect();
                Ok(DataSet::Leader(out?))
            }
            DataSet::Slices(per_slice) => {
                let results: Vec<Result<Vec<Chunk>>> = parallel_map_owned(per_slice, |chunks| {
                    chunks.into_iter().map(&f).collect()
                });
                Ok(DataSet::Slices(results.into_iter().collect::<Result<_>>()?))
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn exec_join(
        &self,
        left: &LogicalPlan,
        right: &LogicalPlan,
        join_type: JoinType,
        left_key: usize,
        right_key: usize,
        residual: Option<&BoundExpr>,
        strategy: JoinDistStrategy,
        step: usize,
    ) -> Result<DataSet> {
        let lw = left.output().len();
        let right_types: Vec<DataType> = right.output().iter().map(|c| c.ty).collect();
        let l_ds = self.exec(left, step + 1)?;
        let r_ds = self.exec(right, step + 1 + left.num_steps())?;
        let n = self.provider.num_slices();
        let l_slices = self.to_slices(l_ds, n);
        let mut r_slices = self.to_slices(r_ds, n);
        // (shadowed mutable below for strategies that re-expand a side)

        let mut l_slices = l_slices;
        match strategy {
            JoinDistStrategy::DistNone => {}
            JoinDistStrategy::AllNone { all_side_left } => {
                // The ALL side's copy exists on every node; its scan
                // reported it once (slice 0). Re-expand it locally —
                // no network bytes move.
                if all_side_left {
                    let all_left: Vec<Batch> = l_slices.into_iter().flatten().collect();
                    l_slices = (0..n).map(|_| all_left.clone()).collect();
                } else {
                    let all_right: Vec<Batch> = r_slices.into_iter().flatten().collect();
                    r_slices = (0..n).map(|_| all_right.clone()).collect();
                }
            }
            JoinDistStrategy::BcastInner => {
                // Ship every inner batch to every slice.
                let all_right: Vec<Batch> = r_slices.into_iter().flatten().collect();
                let bytes: u64 = all_right
                    .iter()
                    .map(|b| b.iter().map(|c| c.byte_size() as u64).sum::<u64>())
                    .sum();
                self.metrics.lock().bytes_broadcast += bytes * (n as u64).saturating_sub(1);
                r_slices = (0..n).map(|_| all_right.clone()).collect();
            }
            JoinDistStrategy::DistBoth => {
                let (l2, lb) = self.redistribute(l_slices, left_key, n)?;
                let (r2, rb) = self.redistribute(r_slices, right_key, n)?;
                self.metrics.lock().bytes_redistributed += lb + rb;
                return self.local_joins(
                    l2, r2, lw, &right_types, join_type, left_key, right_key, residual,
                );
            }
        }
        self.local_joins(l_slices, r_slices, lw, &right_types, join_type, left_key, right_key, residual)
    }

    /// Join input: dense batches per slice.
    fn to_slices(&self, ds: DataSet, n: usize) -> Vec<Vec<Batch>> {
        let densify = |chunks: Vec<Chunk>| chunks.into_iter().map(Chunk::into_dense).collect();
        match ds {
            DataSet::Slices(s) => s.into_iter().map(densify).collect(),
            DataSet::Leader(chunks) => {
                // Leader data participates as slice 0 (rare; e.g. joins over
                // leader-materialized inputs).
                let mut out = vec![Vec::new(); n];
                out[0] = densify(chunks);
                out
            }
        }
    }

    /// Hash-partition every row by its key column; returns the new
    /// placement and the bytes that crossed slices.
    fn redistribute(
        &self,
        per_slice: Vec<Vec<Batch>>,
        key: usize,
        n: usize,
    ) -> Result<(Vec<Vec<Batch>>, u64)> {
        let mut out: Vec<Vec<Batch>> = vec![Vec::new(); n];
        let mut moved = 0u64;
        for (src, batches) in per_slice.into_iter().enumerate() {
            for batch in batches {
                let rows = batch.first().map_or(0, |c| c.len());
                if rows == 0 {
                    continue;
                }
                let mut dest_idx: Vec<Vec<u32>> = vec![Vec::new(); n];
                for i in 0..rows {
                    let d = (dist_hash_column(&batch[key], i) % n as u64) as usize;
                    dest_idx[d].push(i as u32);
                }
                let row_bytes =
                    batch.iter().map(|c| c.byte_size()).sum::<usize>() as u64 / rows.max(1) as u64;
                for (d, idx) in dest_idx.into_iter().enumerate() {
                    if idx.is_empty() {
                        continue;
                    }
                    if d != src {
                        moved += row_bytes * idx.len() as u64;
                    }
                    out[d].push(batch.iter().map(|c| c.gather(&idx)).collect());
                }
            }
        }
        Ok((out, moved))
    }

    #[allow(clippy::too_many_arguments)]
    fn local_joins(
        &self,
        l_slices: Vec<Vec<Batch>>,
        r_slices: Vec<Vec<Batch>>,
        lw: usize,
        right_types: &[DataType],
        join_type: JoinType,
        left_key: usize,
        right_key: usize,
        residual: Option<&BoundExpr>,
    ) -> Result<DataSet> {
        let pairs: Vec<(Vec<Batch>, Vec<Batch>)> =
            l_slices.into_iter().zip(r_slices).collect();
        let results: Vec<Result<(Vec<Batch>, u64)>> = parallel_map_owned(pairs, |(lb, rb)| {
            hash_join_local(lb, rb, lw, right_types, join_type, left_key, right_key, residual)
        });
        let mut per_slice = Vec::with_capacity(results.len());
        let mut fallbacks = 0;
        for r in results {
            let (batches, fell_back) = r?;
            fallbacks += fell_back;
            per_slice.push(batches.into_iter().map(Chunk::dense).collect());
        }
        self.count_fallbacks(fallbacks);
        Ok(DataSet::Slices(per_slice))
    }

    fn exec_aggregate(
        &self,
        input: &LogicalPlan,
        group_by: &[BoundExpr],
        aggs: &[AggExpr],
        output: &[OutCol],
        step: usize,
    ) -> Result<DataSet> {
        let ds = self.exec(input, step + 1)?;
        // Partial aggregation per slice, in parallel, straight off the
        // (batch, selection) pairs.
        let partial = |chunks: Vec<Chunk>| -> Result<GroupTable> {
            let mut groups = Groups::new(group_by, aggs);
            let mut fallbacks = 0;
            for chunk in &chunks {
                fallbacks += groups.update(&chunk.cols, &chunk.sel)?;
            }
            self.count_fallbacks(fallbacks);
            Ok(groups.into_table())
        };
        let partials: Vec<Result<GroupTable>> = match ds {
            DataSet::Slices(per_slice) => parallel_map_owned(per_slice, partial),
            DataSet::Leader(chunks) => vec![partial(chunks)],
        };
        // Final merge at the leader, one output batch.
        let mut merged = GroupTable::default();
        for p in partials {
            merged.merge(p?);
        }
        let cols = merged.into_batch(group_by, aggs, output)?;
        Ok(DataSet::Leader(vec![Chunk::dense(cols)]))
    }
}

/// Per-slice hash join over local batches.
#[allow(clippy::too_many_arguments)]
fn hash_join_local(
    left_batches: Vec<Batch>,
    right_batches: Vec<Batch>,
    lw: usize,
    right_types: &[DataType],
    join_type: JoinType,
    left_key: usize,
    right_key: usize,
    residual: Option<&BoundExpr>,
) -> Result<(Vec<Batch>, u64)> {
    let mut fallbacks = 0u64;
    // Build on the right side.
    let right_all = concat_batches_opt(right_batches);
    let mut table: FxHashMap<HKey, Vec<u32>> = FxHashMap::default();
    if let Some(r) = &right_all {
        let n = r.first().map_or(0, |c| c.len());
        for i in 0..n {
            let k = HKey::from_column(&r[right_key], i);
            if k.is_null() {
                continue; // NULL never matches
            }
            table.entry(k).or_default().push(i as u32);
        }
    }
    let mut out = Vec::new();
    for lb in left_batches {
        let n = lb.first().map_or(0, |c| c.len());
        if n == 0 {
            continue;
        }
        let mut l_idx: Vec<u32> = Vec::new();
        let mut r_idx: Vec<u32> = Vec::new();
        let mut unmatched: Vec<u32> = Vec::new();
        for i in 0..n {
            let k = HKey::from_column(&lb[left_key], i);
            let matches = if k.is_null() { None } else { table.get(&k) };
            match matches {
                Some(list) => {
                    for &j in list {
                        l_idx.push(i as u32);
                        r_idx.push(j);
                    }
                }
                None => {
                    if join_type == JoinType::Left {
                        unmatched.push(i as u32);
                    }
                }
            }
        }
        // Materialize matched rows (an absent build side still yields
        // typed, empty right columns so output width stays stable).
        let mut combined: Batch = Vec::with_capacity(lw + right_types.len());
        for c in &lb {
            combined.push(c.gather(&l_idx));
        }
        match &right_all {
            Some(r) => {
                for c in r {
                    combined.push(c.gather(&r_idx));
                }
            }
            None => {
                for &ty in right_types {
                    combined.push(ColumnData::new(ty));
                }
            }
        }
        // Residual filter on matched rows only.
        let mut kept = if let Some(res) = residual {
            let mut matched = Chunk::dense(combined);
            fallbacks += matched.filter(res)? as u64;
            // LEFT JOIN: a left row none of whose candidate matches
            // survived the residual reverts to unmatched.
            if join_type == JoinType::Left {
                let survivors: FxHashSet<u32> =
                    matched.sel.iter().map(|pos| l_idx[pos]).collect();
                unmatched.extend(l_idx.iter().filter(|li| !survivors.contains(li)));
                unmatched.sort_unstable();
                unmatched.dedup();
            }
            matched.into_dense()
        } else {
            combined
        };
        // NULL-extended unmatched left rows.
        if join_type == JoinType::Left && !unmatched.is_empty() {
            let mut pad: Batch = Vec::with_capacity(lw + right_types.len());
            for c in &lb {
                pad.push(c.gather(&unmatched));
            }
            for &ty in right_types {
                let mut nulls = ColumnData::new(ty);
                for _ in 0..unmatched.len() {
                    nulls.push_null();
                }
                pad.push(nulls);
            }
            // Append pad to kept.
            for (k, p) in kept.iter_mut().zip(&pad) {
                k.append(p);
            }
        }
        if kept.first().map_or(0, |c| c.len()) > 0 {
            out.push(kept);
        }
    }
    Ok((out, fallbacks))
}

/// Routing hash of one column slot without materializing a `Value`
/// (matches `redsim_distribution::style::dist_hash` semantics).
fn dist_hash_column(c: &ColumnData, i: usize) -> u64 {
    if c.is_null(i) {
        return 0;
    }
    match c {
        ColumnData::Str { data, .. } => redsim_common::fx_hash64(data.get(i)),
        other => dist_hash(&other.get(i)),
    }
}

/// Total (rows, bytes) across a chunk list — a profiled step's output
/// footprint on one slice. A partly selected batch counts the selected
/// share of its column bytes.
fn chunk_totals(chunks: &[Chunk]) -> (u64, u64) {
    let mut rows = 0u64;
    let mut bytes = 0u64;
    for c in chunks {
        let col_bytes = c.cols.iter().map(|c| c.byte_size() as u64).sum::<u64>();
        rows += c.sel.len() as u64;
        bytes += col_bytes * c.sel.len() as u64 / c.sel.rows().max(1) as u64;
    }
    (rows, bytes)
}

/// Concatenate batches into one; an empty input yields empty columns of
/// the schema's types.
fn concat_batches(schema: &[OutCol], batches: Vec<Batch>) -> Batch {
    match concat_batches_opt(batches) {
        Some(b) => b,
        None => schema.iter().map(|c| ColumnData::new(c.ty)).collect(),
    }
}

fn concat_batches_opt(batches: Vec<Batch>) -> Option<Batch> {
    let mut iter = batches.into_iter().filter(|b| b.first().map_or(0, |c| c.len()) > 0 || !b.is_empty());
    let mut acc = iter.next()?;
    for b in iter {
        for (a, c) in acc.iter_mut().zip(&b) {
            a.append(c);
        }
    }
    Some(acc)
}

/// Run `f(0..n)` on scoped threads, preserving order.
fn parallel_map<T: Send>(n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    redsim_testkit::par::map_indexed(n, f)
}

/// Like [`parallel_map`] but consuming owned inputs.
fn parallel_map_owned<I: Send, T: Send>(inputs: Vec<I>, f: impl Fn(I) -> T + Sync) -> Vec<T> {
    redsim_testkit::par::map(inputs, f)
}

#[cfg(test)]
mod metrics_tests {
    use super::ExecMetrics;

    /// `absorb` must cover *every* field. The struct literal below has
    /// no `..Default::default()` escape hatch on purpose: adding a field
    /// to [`ExecMetrics`] without updating this test (and, by checklist,
    /// `absorb`) is a compile error, and a field missing from `absorb`
    /// fails the doubling assertion. The remaining manual `+=` sites in
    /// this file (broadcast/redistribute accounting, per-slice row
    /// counts) are deliberate single-field increments, not merges.
    #[test]
    fn absorb_covers_every_field() {
        let all_nonzero = ExecMetrics {
            bytes_broadcast: 1,
            bytes_redistributed: 2,
            blocks_read: 3,
            bytes_read: 4,
            groups_total: 5,
            groups_skipped: 6,
            rows_scanned: 7,
            queue_wait_ns: 8,
            exec_ns: 9,
            compile_ns: 10,
            interp_fallback: 11,
        };
        let mut acc = ExecMetrics::default();
        acc.absorb(&all_nonzero);
        acc.absorb(&all_nonzero);
        assert_eq!(acc.bytes_broadcast, 2);
        assert_eq!(acc.bytes_redistributed, 4);
        assert_eq!(acc.blocks_read, 6);
        assert_eq!(acc.bytes_read, 8);
        assert_eq!(acc.groups_total, 10);
        assert_eq!(acc.groups_skipped, 12);
        assert_eq!(acc.rows_scanned, 14);
        assert_eq!(acc.queue_wait_ns, 16);
        assert_eq!(acc.exec_ns, 18);
        assert_eq!(acc.compile_ns, 20);
        assert_eq!(acc.interp_fallback, 22);
        assert_eq!(acc.exchange_bytes(), 6);
    }
}
