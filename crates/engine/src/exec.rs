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
use crate::join::{join_chunk, Build, JoinShape};
use crate::kernels::{cmp_slots, with_ints};
use crate::selection::Selection;
use redsim_testkit::{par, sync::Mutex};
use redsim_common::{fx_hash64, ColumnData, Result, Row, RsError};
use redsim_distribution::{style::dist_hash, JoinDistStrategy};
use redsim_sql::plan::{AggExpr, BoundExpr, LogicalPlan, OutCol};
use redsim_storage::table::{ScanOutput, ScanPredicate};

/// One column batch (all columns share a length).
pub type Batch = Vec<ColumnData>;

/// A batch and the rows of it that are still alive — what flows between
/// operators (the contract is [`crate::selection`]'s). Filters narrow
/// `sel`; joins, aggregation and the final row copy read through it;
/// sort and limit call [`Chunk::into_dense`] at their input. `sel`
/// carries the row count, so a join nobody reads a column of (`COUNT(*)`
/// above it) emits chunks with no columns at all.
pub(crate) struct Chunk {
    pub(crate) cols: Batch,
    pub(crate) sel: Selection,
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
    /// Batches whose join or group keys were boxed into `HKey`s for want
    /// of a typed key lane (a FLOAT8 / DECIMAL / BOOL key, a VARCHAR join
    /// key, 3+ group keys): the `exec.key_fallback` counter, per statement.
    pub key_fallback: u64,
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
        self.key_fallback += other.key_fallback;
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

    /// Add batches the binder handed to the row interpreter, and
    /// batches whose keys were boxed, to the statement's counts.
    fn count_fallbacks(&self, interp: u64, key: u64) {
        if interp + key > 0 {
            let mut m = self.metrics.lock();
            m.interp_fallback += interp;
            m.key_fallback += key;
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
                    self.count_fallbacks(fell_back as u64, 0);
                    Ok(chunk)
                })
            }
            LogicalPlan::Project { input, exprs, .. } => {
                let ds = self.exec(input, step + 1)?;
                self.map_chunks(ds, |chunk| {
                    let mut out = Batch::with_capacity(exprs.len());
                    for e in exprs {
                        let (col, fell_back) = bind(e, &chunk.cols, &chunk.sel)?;
                        self.count_fallbacks(fell_back as u64, 0);
                        out.push(match chunk.sel.ids() {
                            None => col.into_owned(),
                            Some(ids) => col.gather(ids),
                        });
                    }
                    Ok(Chunk::dense(out))
                })
            }
            LogicalPlan::Join { left, right, join_type, left_key, right_key, residual, strategy, emit } => {
                let keys = (*left_key, *right_key);
                let shape =
                    JoinShape::new(&left.output(), &right.output(), *join_type, keys, residual.as_ref(), emit)?;
                self.exec_join(left, right, &shape, *strategy, step)
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
                    self.count_fallbacks(fell_back as u64, 0);
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
            par::map_indexed(n, |slice| {
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
                let results: Vec<Result<Vec<Chunk>>> = par::map(per_slice, |chunks| {
                    chunks.into_iter().map(&f).collect()
                });
                Ok(DataSet::Slices(results.into_iter().collect::<Result<_>>()?))
            }
        }
    }

    fn exec_join(
        &self,
        left: &LogicalPlan,
        right: &LogicalPlan,
        shape: &JoinShape,
        strategy: JoinDistStrategy,
        step: usize,
    ) -> Result<DataSet> {
        let n = self.provider.num_slices();
        // One chunk list per slice; leader data (rare: a join over a
        // leader-materialized input) takes part as slice 0.
        let per_slice = |ds: DataSet| match ds {
            DataSet::Slices(s) => s,
            DataSet::Leader(chunks) => {
                let mut out: Vec<Vec<Chunk>> = (0..n).map(|_| Vec::new()).collect();
                out[0] = chunks;
                out
            }
        };
        let mut outer = per_slice(self.exec(left, step + 1)?);
        let mut inner = per_slice(self.exec(right, step + 1 + left.num_steps())?);
        if strategy == JoinDistStrategy::DistBoth {
            let (o, ob) = redistribute(outer, shape.left_key, n);
            let (i, ib) = redistribute(inner, shape.right_key, n);
            (outer, inner) = (o, i);
            self.metrics.lock().bytes_redistributed += ob + ib;
        }
        let batches = |side: &[Vec<Chunk>]| side.iter().map(|c| c.len() as u64).sum::<u64>();
        self.count_fallbacks(0, if shape.typed { 0 } else { batches(&outer) + batches(&inner) });
        let joined: Vec<Result<Vec<Chunk>>> = match strategy {
            // The inner side is the same on every slice — a DISTSTYLE ALL
            // table's copy (its scan reports it once), or shipped to all
            // of them: hash it once, probe it from every slice.
            JoinDistStrategy::AllNone { all_side_left: false } | JoinDistStrategy::BcastInner => {
                let all: Vec<Chunk> = inner.into_iter().flatten().collect();
                if strategy == JoinDistStrategy::BcastInner {
                    let bytes: u64 = all.iter().map(dense_bytes).sum();
                    self.metrics.lock().bytes_broadcast += bytes * (n as u64).saturating_sub(1);
                }
                let build = Build::new(shape, &all)?;
                drop(all);
                par::map(outer, |chunks| self.probe_all(shape, &build, chunks))
            }
            // The outer side is the local copy: every slice probes its
            // own inner rows with all of it.
            JoinDistStrategy::AllNone { all_side_left: true } => {
                let all: Vec<Chunk> = outer.into_iter().flatten().collect();
                par::map(inner, |chunks| self.probe_all(shape, &Build::new(shape, &chunks)?, &all))
            }
            JoinDistStrategy::DistNone | JoinDistStrategy::DistBoth => {
                let pairs: Vec<_> = outer.into_iter().zip(inner).collect();
                par::map(pairs, |(outer, inner)| {
                    let build = Build::new(shape, &inner)?;
                    drop(inner);
                    self.probe_all(shape, &build, outer)
                })
            }
        };
        Ok(DataSet::Slices(joined.into_iter().collect::<Result<_>>()?))
    }

    /// One slice's local join: every outer chunk against `build`.
    fn probe_all<C: std::borrow::Borrow<Chunk>>(
        &self,
        shape: &JoinShape,
        build: &Build,
        outer: impl IntoIterator<Item = C>,
    ) -> Result<Vec<Chunk>> {
        let mut out = Vec::new();
        let mut fallbacks = 0;
        for chunk in outer {
            let (joined, fell_back) = join_chunk(shape, build, chunk.borrow())?;
            fallbacks += fell_back as u64;
            out.extend(joined);
        }
        self.count_fallbacks(fallbacks, 0);
        Ok(out)
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
            let (mut interp, mut key) = (0, 0);
            for chunk in &chunks {
                interp += groups.update(&chunk.cols, &chunk.sel)?;
                key += (groups.boxes_keys() && !chunk.sel.is_empty()) as u64;
            }
            self.count_fallbacks(interp, key);
            Ok(groups.into_table())
        };
        let partials: Vec<Result<GroupTable>> = match ds {
            DataSet::Slices(per_slice) => par::map(per_slice, partial),
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

/// Hash-partition every selected row by its key column; returns the new
/// placement and the bytes that crossed slices. Per chunk: one pass over
/// the key's typed lane for the destinations, one counting sort of the
/// row ids, one gather per destination.
fn redistribute(per_slice: Vec<Vec<Chunk>>, key: usize, n: usize) -> (Vec<Vec<Chunk>>, u64) {
    let mut out: Vec<Vec<Chunk>> = (0..n).map(|_| Vec::new()).collect();
    let mut moved = 0u64;
    for (src, chunks) in per_slice.into_iter().enumerate() {
        for chunk in chunks {
            let rows = chunk.sel.len();
            if rows == 0 {
                continue;
            }
            let dest = route(&chunk.cols[key], &chunk.sel, n as u64);
            let mut start = vec![0usize; n + 1];
            dest.iter().for_each(|&d| start[d as usize + 1] += 1);
            (0..n).for_each(|d| start[d + 1] += start[d]);
            let mut cursor = start.clone();
            let mut ids = vec![0u32; rows];
            chunk.sel.for_each(|j, i| {
                let d = dest[j] as usize;
                ids[cursor[d]] = i as u32;
                cursor[d] += 1;
            });
            for d in 0..n {
                let part = &ids[start[d]..start[d + 1]];
                if part.is_empty() {
                    continue;
                }
                let moving = Chunk::dense(chunk.cols.iter().map(|c| c.gather(part)).collect());
                if d != src {
                    moved += dense_bytes(&moving);
                }
                out[d].push(moving);
            }
        }
    }
    (out, moved)
}

/// The slice (of `n`) each selected row's key routes to: `dist_hash`'s
/// hash — a re-hashed side meets a KEY-distributed table's rows —
/// without a `Value` per row for the integer family and VARCHAR.
fn route(key: &ColumnData, sel: &Selection, n: u64) -> Vec<u32> {
    let mut dest = Vec::with_capacity(sel.len());
    let nulls = key.nulls();
    // NULL keys route like `dist_hash(&Value::Null)`: to slice 0.
    let slot = |valid: bool, hash: u64| if valid { (hash % n) as u32 } else { 0 };
    match key {
        ColumnData::Str { data, .. } => {
            sel.for_each(|_, i| dest.push(slot(nulls.get(i), fx_hash64(data.get(i)))))
        }
        other => with_ints!(other,
            d => sel.for_each(|_, i| dest.push(slot(nulls.get(i), fx_hash64(&(d[i] as i64))))),
            _ => sel.for_each(|_, i| dest.push(slot(true, dist_hash(&other.get(i)))))),
    }
    dest
}

/// `chunk.into_dense()`'s `byte_size`: what shipping the chunk's
/// selected rows moves.
fn dense_bytes(chunk: &Chunk) -> u64 {
    let bytes = |cols: &[ColumnData]| cols.iter().map(|c| c.byte_size() as u64).sum();
    match chunk.sel.ids() {
        None => bytes(&chunk.cols),
        Some(_) => bytes(&chunk.sel.gather(&chunk.cols)),
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

/// Concatenate the batches that hold rows into one; with none, empty
/// columns of the schema's types.
fn concat_batches(schema: &[OutCol], batches: Vec<Batch>) -> Batch {
    let mut iter = batches.into_iter().filter(|b| b.first().is_some_and(|c| !c.is_empty()));
    let Some(mut acc) = iter.next() else {
        return schema.iter().map(|c| ColumnData::new(c.ty)).collect();
    };
    for b in iter {
        for (a, c) in acc.iter_mut().zip(&b) {
            a.append(c);
        }
    }
    acc
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
            key_fallback: 12,
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
        assert_eq!(acc.key_fallback, 24);
        assert_eq!(acc.exchange_bytes(), 6);
    }
}
