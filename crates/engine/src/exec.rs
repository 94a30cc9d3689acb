//! The distributed executor.
//!
//! A logical plan runs as per-slice pipelines joined by breakers. A
//! pipeline — a slice's scan or a breaker's output, then the scan's
//! filter, `Filter`, `Project` and join probes — runs on every slice in
//! parallel (std scoped threads via `testkit::par` — one slice per core,
//! as in §2.1) into a partial aggregate or a collection, each decoded
//! batch going all the way up before the next is decoded. Breakers take
//! their whole input: the leader's final aggregation, sort, limit, and
//! joins whose inputs move (a redistributed pair, a `DISTSTYLE ALL`
//! outer side). Exchanges count the bytes they move so experiment E11
//! can report broadcast vs redistribution traffic.

use crate::agg::Groups;
use crate::expr::{bind, narrow_predicate};
use crate::join::{join_chunk, Build, JoinShape};
use crate::kernels::cmp_slots;
use crate::selection::Selection;
use redsim_common::{ColumnData, Result, Row, RsError};
use redsim_distribution::{style::key_slices, JoinDistStrategy};
use redsim_sql::plan::{BoundExpr, LogicalPlan, OutCol};
use redsim_storage::table::{ScanOutput, ScanPredicate};
use redsim_testkit::{par, sync::Mutex};
use std::time::Instant;

/// One column batch (all columns share a length).
pub type Batch = Vec<ColumnData>;

/// Where a slice scan hands each batch it decodes.
pub type ScanSink<'a> = dyn FnMut(Batch) -> Result<()> + 'a;

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

    /// Scan one slice of a table with projection + pruning predicate,
    /// handing `sink` one batch at a time — a stored table's surviving
    /// row groups, each decoded just before it is handed on — and
    /// stopping at the first error `sink` returns.
    fn scan_slice(
        &self,
        table: &str,
        slice: usize,
        projection: &[usize],
        pred: &ScanPredicate,
        sink: &mut ScanSink,
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
    /// Rows this operator emitted on this slice, summed over the chunks
    /// it streamed. Leader-materialized operators (Sort/Limit/final
    /// Aggregate) report on slice 0 only.
    pub rows: u64,
    /// Bytes of those output rows (in-memory column footprint).
    pub bytes: u64,
    /// Inclusive wall-clock time of the operator subtree, the same on
    /// every slice row of a step. A streamed step reports its pipeline's:
    /// from when the step began preparing (its build sides included) to
    /// when the last slice finished.
    pub elapsed_ns: u64,
}

/// A completed query.
#[derive(Debug)]
pub struct QueryOutput {
    pub columns: Vec<OutCol>,
    /// The result as one dense batch — a column per `columns` entry — with
    /// no spare capacity: what the result cache keeps.
    pub batch: Batch,
    pub metrics: ExecMetrics,
    /// Per-step, per-slice profile; empty unless
    /// [`Executor::with_profiling`] enabled it.
    pub profile: Vec<StepProfile>,
}

impl QueryOutput {
    /// The result rows, boxed: what a reply carries.
    pub fn rows(&self) -> Vec<Row> {
        rows_of(&self.batch)
    }

    pub fn row_count(&self) -> usize {
        self.batch.first().map_or(0, |c| c.len())
    }
}

/// The rows of a dense batch, boxed.
pub fn rows_of(batch: &[ColumnData]) -> Vec<Row> {
    let n = batch.first().map_or(0, |c| c.len());
    (0..n).map(|i| Row::new(batch.iter().map(|c| c.get(i)).collect())).collect()
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

    /// One chunk list per slice of `n`; leader data (rare: a join over a
    /// leader-materialized input) takes part as slice 0.
    fn per_slice(self, n: usize) -> Vec<Vec<Chunk>> {
        match self {
            DataSet::Slices(s) => s,
            DataSet::Leader(chunks) => {
                let mut out: Vec<Vec<Chunk>> = (0..n).map(|_| Vec::new()).collect();
                out[0] = chunks;
                out
            }
        }
    }
}

/// A plan's `Scan`, borrowed: a pipeline's source on each slice.
struct Scan<'p> {
    table: &'p str,
    projection: &'p [usize],
    filter: Option<&'p BoundExpr>,
    pruning: &'p ScanPredicate,
}

/// Where a pipeline's chunks come from.
enum Source<'p> {
    Scan(Scan<'p>),
    /// A breaker's output.
    Placed(DataSet),
}

/// An operator that takes one chunk at a time.
enum Op<'p> {
    Filter(&'p BoundExpr),
    Project(&'p [BoundExpr]),
    /// A join's probe, against its build side built before the first
    /// chunk: one per slice, or one that every slice shares.
    Probe(Box<(JoinShape<'p>, Vec<Build>)>),
}

impl Op<'_> {
    /// This operator's output for one chunk of `slice` (`None`: no rows
    /// left), and the expressions the row interpreter evaluated.
    fn apply(&self, mut chunk: Chunk, slice: usize) -> Result<(Option<Chunk>, u64)> {
        match self {
            Op::Filter(predicate) => {
                let fell_back = chunk.filter(predicate)?;
                Ok(((!chunk.sel.is_empty()).then_some(chunk), fell_back as u64))
            }
            Op::Project(exprs) => {
                let mut out = Batch::with_capacity(exprs.len());
                let mut interp = 0;
                for e in *exprs {
                    let (col, fell_back) = bind(e, &chunk.cols, &chunk.sel)?;
                    interp += fell_back as u64;
                    out.push(match chunk.sel.ids() {
                        None => col.into_owned(),
                        Some(ids) => col.gather(ids),
                    });
                }
                Ok((Some(Chunk::dense(out)), interp))
            }
            Op::Probe(probe) => {
                let (shape, builds) = &**probe;
                let build = &builds[slice.min(builds.len() - 1)];
                let (joined, fell_back) = join_chunk(shape, build, &chunk)?;
                Ok((joined, fell_back as u64))
            }
        }
    }
}

/// A streamed plan step: its pre-order id and when it began preparing.
struct Stage<'p> {
    plan: &'p LogicalPlan,
    step: usize,
    started: Instant,
}

/// The streaming part of a plan, ready to run on every slice: a source
/// and the operators above it, bottom up, with every join's build side
/// already built.
struct Pipeline<'p> {
    source: Source<'p>,
    ops: Vec<Op<'p>>,
    /// The scan's step if the source is a scan, then one per `ops` entry.
    stages: Vec<Stage<'p>>,
}

impl<'p> Pipeline<'p> {
    fn placed(ds: DataSet) -> Self {
        Pipeline { source: Source::Placed(ds), ops: Vec::new(), stages: Vec::new() }
    }

    /// Run on the `n` slices: a leader-placed source becomes slice 0's.
    fn spread(mut self, n: usize) -> Self {
        if let Source::Placed(ds) = &mut self.source {
            let placed = std::mem::replace(ds, DataSet::Slices(Vec::new()));
            *ds = DataSet::Slices(placed.per_slice(n));
        }
        self
    }
}

/// One slice's (or the leader's) run through a pipeline's operators.
struct Lane<'a, 'p> {
    ops: &'a [Op<'p>],
    slice: usize,
    /// The stage of `ops[0]`: 1 after a scan, else 0.
    first: usize,
    metrics: ExecMetrics,
    /// (rows, bytes) each stage emitted.
    emitted: Vec<(u64, u64)>,
}

impl Lane<'_, '_> {
    /// Push one chunk through every operator into `out`, which returns
    /// the expressions the row interpreter evaluated.
    fn push(&mut self, mut chunk: Chunk, out: &mut dyn FnMut(Chunk) -> Result<u64>) -> Result<()> {
        for (k, op) in self.ops.iter().enumerate() {
            let (next, interp) = op.apply(chunk, self.slice)?;
            self.metrics.interp_fallback += interp;
            let Some(next) = next else { return Ok(()) };
            tally(&mut self.emitted[self.first + k], &next);
            chunk = next;
        }
        self.metrics.interp_fallback += out(chunk)?;
        Ok(())
    }
}

/// The join strategy that needs its outer side whole: a `DISTSTYLE ALL`
/// copy, probed by every slice's inner rows.
const ALL_OUTER: JoinDistStrategy = JoinDistStrategy::AllNone { all_side_left: true };

/// Executes optimized logical plans against a [`TableProvider`].
pub struct Executor<'a> {
    provider: &'a dyn TableProvider,
    metrics: Mutex<ExecMetrics>,
    /// Per-step profile rows; `None` when profiling is off (the check
    /// per plan node is one branch, so default-on is affordable — the
    /// profiler-overhead bench keeps this honest).
    profile: Option<Mutex<Vec<StepProfile>>>,
    /// Parent span for the per-slice `exec.slice` spans.
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
    /// default; the cluster turns it on for every SELECT it executes,
    /// `EXPLAIN ANALYZE` included.
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

    /// Run a plan to completion: the result as one dense batch.
    pub fn run(&self, plan: &LogicalPlan) -> Result<QueryOutput> {
        let columns = plan.output();
        let mut batch = concat_batches(&columns, self.gather(self.exec(plan, 1)?));
        debug_assert_eq!(batch.len(), columns.len());
        batch.iter_mut().for_each(ColumnData::shrink_to_fit);
        let mut profile =
            self.profile.as_ref().map_or_else(Vec::new, |p| std::mem::take(&mut p.lock()));
        profile.sort_by_key(|s| (s.step, s.slice));
        Ok(QueryOutput { columns, batch, metrics: self.metrics.lock().clone(), profile })
    }

    /// Add batches the binder handed to the row interpreter to the
    /// statement's count.
    fn count_fallbacks(&self, interp: u64) {
        if interp > 0 {
            self.metrics.lock().interp_fallback += interp;
        }
    }

    /// Everything at the leader as dense batches (sort and limit input).
    fn gather(&self, ds: DataSet) -> Vec<Batch> {
        ds.into_chunks().into_iter().map(Chunk::into_dense).collect()
    }

    /// Profile rows of `plan`, pre-order step `step`: one per slice, from
    /// each lane's (rows, bytes) — a lane per slice, or the leader's one,
    /// which counts on slice 0 while the other slices report zero rows.
    fn record(&self, plan: &LogicalPlan, step: usize, started: Instant, lanes: Vec<(u64, u64)>) {
        let Some(profile) = &self.profile else { return };
        let elapsed_ns = started.elapsed().as_nanos() as u64;
        let label = plan.node_label();
        let n = self.provider.num_slices().max(lanes.len());
        let mut rows = profile.lock();
        for slice in 0..n {
            let (r, bytes) = lanes.get(slice).copied().unwrap_or_default();
            rows.push(StepProfile { step, label: label.clone(), slice, rows: r, bytes, elapsed_ns });
        }
    }

    /// Execute one plan node (pre-order step id `step`) to its whole
    /// output. A breaker runs here, recording a [`StepProfile`] row per
    /// slice when profiling is on, its time inclusive of the subtree like
    /// `EXPLAIN ANALYZE` actual-time; anything else streams, and its
    /// chunks are collected.
    fn exec(&self, plan: &LogicalPlan, step: usize) -> Result<DataSet> {
        let started = Instant::now();
        let ds = match plan {
            LogicalPlan::Aggregate { input, group_by, aggs, output } => {
                // Partial aggregation per slice, in parallel, straight off
                // the chunks as the pipeline hands them over.
                let partials = self.drive(
                    self.pipeline(input, step + 1)?,
                    || Groups::new(group_by, aggs),
                    |groups, chunk| groups.update(&chunk.cols, &chunk.sel),
                )?;
                // Final merge at the leader — the same fold, slice by
                // slice — into one output batch.
                let mut merged = Groups::new(group_by, aggs);
                for p in partials {
                    merged.merge(p)?;
                }
                DataSet::Leader(vec![Chunk::dense(merged.finish(output)?)])
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
                DataSet::Leader(vec![Chunk::dense(sorted)])
            }
            LogicalPlan::Limit { input, n } => {
                let ds = self.exec(input, step + 1)?;
                let all = concat_batches(&input.output(), self.gather(ds));
                let rows = all.first().map_or(0, |c| c.len());
                let take = (*n as usize).min(rows);
                let truncated: Batch = all.iter().map(|c| c.slice(0, take)).collect();
                DataSet::Leader(vec![Chunk::dense(truncated)])
            }
            LogicalPlan::Join { left, right, join_type, left_key, right_key, residual, strategy, emit }
                if *strategy == ALL_OUTER =>
            {
                // The outer side is the local copy: every slice probes its
                // own inner rows with all of it.
                let keys = (*left_key, *right_key);
                let shape =
                    JoinShape::new(&left.output(), &right.output(), *join_type, keys, residual.as_ref(), emit)?;
                let n = self.provider.num_slices();
                let all = self.exec(left, step + 1)?.into_chunks();
                let inner = self.exec(right, step + 1 + left.num_steps())?.per_slice(n);
                let joined = par::map(inner, |chunks| {
                    let build = Build::new(&shape, &chunks)?;
                    let mut out = Vec::new();
                    for chunk in &all {
                        let (joined, fell_back) = join_chunk(&shape, &build, chunk)?;
                        self.count_fallbacks(fell_back as u64);
                        out.extend(joined);
                    }
                    Ok(out)
                });
                DataSet::Slices(joined.into_iter().collect::<Result<_>>()?)
            }
            _ => return self.collect(self.pipeline(plan, step)?),
        };
        if self.profile.is_some() {
            let lanes = match &ds {
                DataSet::Slices(per_slice) => per_slice.iter().map(|c| chunk_totals(c)).collect(),
                DataSet::Leader(chunks) => vec![chunk_totals(chunks)],
            };
            self.record(plan, step, started, lanes);
        }
        Ok(ds)
    }

    /// `plan` as a pipeline: the streaming steps from `plan` down to a
    /// scan or a breaker's output, with what must exist before the first
    /// chunk — every join's build side, redistributed inputs, breakers'
    /// output — made now.
    fn pipeline<'p>(&self, plan: &'p LogicalPlan, step: usize) -> Result<Pipeline<'p>> {
        let started = Instant::now();
        let (mut pipe, op) = match plan {
            LogicalPlan::Scan { table, projection, filter, pruning, .. } => {
                let scan = Scan { table, projection, filter: filter.as_ref(), pruning };
                (Pipeline { source: Source::Scan(scan), ops: Vec::new(), stages: Vec::new() }, None)
            }
            LogicalPlan::Filter { input, predicate } => {
                (self.pipeline(input, step + 1)?, Some(Op::Filter(predicate)))
            }
            LogicalPlan::Project { input, exprs, .. } => {
                (self.pipeline(input, step + 1)?, Some(Op::Project(exprs)))
            }
            LogicalPlan::Join { left, right, join_type, left_key, right_key, residual, strategy, emit }
                if *strategy != ALL_OUTER =>
            {
                let keys = (*left_key, *right_key);
                let shape =
                    JoinShape::new(&left.output(), &right.output(), *join_type, keys, residual.as_ref(), emit)?;
                let n = self.provider.num_slices();
                let inner_step = step + 1 + left.num_steps();
                let (outer, builds) = if *strategy == JoinDistStrategy::DistBoth {
                    let (o, ob) = redistribute(self.exec(left, step + 1)?.per_slice(n), shape.left_key, n);
                    let (i, ib) = redistribute(self.exec(right, inner_step)?.per_slice(n), shape.right_key, n);
                    self.metrics.lock().bytes_redistributed += ob + ib;
                    (Pipeline::placed(DataSet::Slices(o)), build_each(&shape, i)?)
                } else {
                    let outer = self.pipeline(left, step + 1)?;
                    let inner = self.exec(right, inner_step)?.per_slice(n);
                    let builds = if *strategy == JoinDistStrategy::DistNone {
                        build_each(&shape, inner)?
                    } else {
                        // The inner side is the same on every slice — a
                        // DISTSTYLE ALL table's copy (its scan reports it
                        // once), or shipped to all of them: hash it once,
                        // probe it from every slice.
                        let all: Vec<Chunk> = inner.into_iter().flatten().collect();
                        if *strategy == JoinDistStrategy::BcastInner {
                            let bytes: u64 = all.iter().map(dense_bytes).sum();
                            self.metrics.lock().bytes_broadcast += bytes * (n as u64).saturating_sub(1);
                        }
                        vec![Build::new(&shape, &all)?]
                    };
                    (outer, builds)
                };
                (outer.spread(n), Some(Op::Probe(Box::new((shape, builds)))))
            }
            _ => return Ok(Pipeline::placed(self.exec(plan, step)?)),
        };
        pipe.ops.extend(op);
        pipe.stages.push(Stage { plan, step, started });
        Ok(pipe)
    }

    /// Run `pipe` into chunk lists, placed where its source was.
    fn collect(&self, pipe: Pipeline) -> Result<DataSet> {
        let leader = matches!(pipe.source, Source::Placed(DataSet::Leader(_)));
        let lanes = self.drive(pipe, Vec::new, |chunks, chunk| {
            chunks.push(chunk);
            Ok(0)
        })?;
        Ok(if leader { DataSet::Leader(lanes.into_iter().flatten().collect()) } else { DataSet::Slices(lanes) })
    }

    /// Run `pipe` on every lane — a slice each, or the leader's one — in
    /// parallel, folding each lane's chunks into its own `init()` as they
    /// come (`fold` returns the expressions the row interpreter
    /// evaluated); the folds, lane by lane. The lanes' metrics and
    /// profile rows count only once every lane has succeeded: a scan
    /// that fails on slice k must not pollute svl_query_metrics /
    /// stl_query with partial rows/bytes from the others.
    fn drive<T: Send>(
        &self,
        pipe: Pipeline,
        init: impl Fn() -> T + Sync,
        fold: impl Fn(&mut T, Chunk) -> Result<u64> + Sync,
    ) -> Result<Vec<T>> {
        let Pipeline { source, ops, stages } = pipe;
        let (scan, lanes): (_, Vec<(usize, Vec<Chunk>)>) = match source {
            Source::Scan(scan) => {
                (Some(scan), (0..self.provider.num_slices()).map(|s| (s, Vec::new())).collect())
            }
            Source::Placed(ds) => (None, ds.per_slice(1).into_iter().enumerate().collect()),
        };
        let first = scan.is_some() as usize;
        let results = par::map(lanes, |(slice, chunks)| {
            let emitted = vec![(0, 0); first + ops.len()];
            let mut lane = Lane { ops: &ops, slice, first, metrics: ExecMetrics::default(), emitted };
            let mut acc = init();
            let mut out = |chunk| fold(&mut acc, chunk);
            for chunk in chunks {
                lane.push(chunk, &mut out)?;
            }
            if let Some(scan) = &scan {
                self.scan_lane(scan, &mut lane, &mut out)?;
            }
            Ok((acc, lane.metrics, lane.emitted))
        });
        let lanes: Vec<_> = results.into_iter().collect::<Result<_>>()?;
        let mut metrics = self.metrics.lock();
        lanes.iter().for_each(|(_, m, _)| metrics.absorb(m));
        drop(metrics);
        for (k, stage) in stages.iter().enumerate() {
            let emitted = lanes.iter().map(|(_, _, e)| e[k]).collect();
            self.record(stage.plan, stage.step, stage.started, emitted);
        }
        Ok(lanes.into_iter().map(|(acc, _, _)| acc).collect())
    }

    /// One slice's scan: each batch through the scan's filter and then
    /// the lane's operators into `out` before the next is decoded.
    fn scan_lane(
        &self,
        scan: &Scan,
        lane: &mut Lane,
        out: &mut dyn FnMut(Chunk) -> Result<u64>,
    ) -> Result<()> {
        let slice = lane.slice;
        if let Some(faults) = &self.faults {
            use redsim_faultkit::{fp, ErrClass, Outcome};
            let class = match faults.fire(fp::EXEC_SCAN_SLICE) {
                Outcome::Proceed => None,
                Outcome::Err(class) => Some(class),
                // A result missing a slice is a wrong answer, and the
                // result cache would serve it until the next write: a
                // dropped fragment fails the statement, retryably.
                Outcome::Drop => Some(ErrClass::Fault),
            };
            if let Some(class) = class {
                let err = RsError::injected(fp::EXEC_SCAN_SLICE, class);
                return Err(err.with_note(&format!(" (slice {slice})")));
            }
        }
        let mut span =
            self.trace.map_or_else(redsim_obs::Span::disabled, |p| p.child("exec.slice"));
        let read = self.provider.scan_slice(scan.table, slice, scan.projection, scan.pruning, &mut |batch| {
            let mut chunk = Chunk::dense(batch);
            lane.metrics.rows_scanned += chunk.sel.rows() as u64;
            if let Some(f) = scan.filter {
                lane.metrics.interp_fallback += chunk.filter(f)? as u64;
                if chunk.sel.is_empty() {
                    return Ok(());
                }
            }
            tally(&mut lane.emitted[0], &chunk);
            lane.push(chunk, out)
        })?;
        let m = &mut lane.metrics;
        m.blocks_read += read.blocks_read;
        m.bytes_read += read.bytes_read;
        m.groups_total += read.groups_total;
        m.groups_skipped += read.groups_skipped;
        span.attr("table", scan.table);
        span.attr("slice", slice);
        span.attr("rows_scanned", m.rows_scanned);
        span.attr("blocks_read", m.blocks_read);
        span.attr("bytes_read", m.bytes_read);
        span.attr("groups_skipped", m.groups_skipped);
        Ok(())
    }
}

/// A build side per slice, each from that slice's inner rows.
fn build_each(shape: &JoinShape, inner: Vec<Vec<Chunk>>) -> Result<Vec<Build>> {
    par::map(inner, |chunks| Build::new(shape, &chunks)).into_iter().collect()
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
            let dest = key_slices(&chunk.cols[key], chunk.sel.ids(), n as u64);
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

/// `chunk.into_dense()`'s `byte_size`: what shipping the chunk's
/// selected rows moves.
fn dense_bytes(chunk: &Chunk) -> u64 {
    let bytes = |cols: &[ColumnData]| cols.iter().map(|c| c.byte_size() as u64).sum();
    match chunk.sel.ids() {
        None => bytes(&chunk.cols),
        Some(_) => bytes(&chunk.sel.gather(&chunk.cols)),
    }
}

/// Add a chunk's (rows, bytes) to a profiled step's footprint on one
/// slice. A partly selected batch counts the selected share of its
/// column bytes.
fn tally(total: &mut (u64, u64), c: &Chunk) {
    let col_bytes = c.cols.iter().map(|c| c.byte_size() as u64).sum::<u64>();
    total.0 += c.sel.len() as u64;
    total.1 += col_bytes * c.sel.len() as u64 / c.sel.rows().max(1) as u64;
}

/// Total (rows, bytes) across a chunk list.
fn chunk_totals(chunks: &[Chunk]) -> (u64, u64) {
    let mut total = (0, 0);
    chunks.iter().for_each(|c| tally(&mut total, c));
    total
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
