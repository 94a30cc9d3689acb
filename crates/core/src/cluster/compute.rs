//! The compute part: the topology and the per-node block stores, and
//! every operation that fans out over a table's slices — the paper's
//! compute nodes, which "perform the heavy lifting" (§2.1). Stateless
//! apart from the stores: which table, which version (a published one to
//! read, a writer's private draft to change) and under which lock is the
//! caller's business.

use crate::catalog::{Catalog, TableEntry, TableState, TableVersion};
use redsim_common::{ColumnData, Result, Row, RsError};
use redsim_distribution::{ClusterTopology, DistStyle, RowRouter, SliceId};
use redsim_engine::baseline;
use redsim_engine::exec::{rows_of, ScanSink, TableProvider};
use redsim_obs::Span;
use redsim_sql::{CatalogView, TableMeta};
use redsim_storage::stats::TableStats;
use redsim_storage::table::{ScanOutput, ScanPredicate, SliceTable, SortKeySpec};
use redsim_storage::BlockStore;
/// Run a closure over owned inputs on scoped threads, preserving order.
pub(super) use redsim_testkit::par::map as parallel_map;
use std::sync::Arc;

pub(super) struct Compute {
    pub topology: ClusterTopology,
    /// Per-node block store handles (encryption-wrapped when enabled),
    /// each handing the row groups written through it this incarnation's
    /// freeing handle (`Durable::node_stores`).
    pub node_stores: Vec<Arc<dyn BlockStore>>,
}

/// How many of `version`'s slices, from the first, hold distinct rows.
/// An ALL table keeps a full copy on every slice, so reading slice 0
/// reads the table.
fn distinct_slices(entry: &TableEntry, version: &TableVersion) -> usize {
    if matches!(entry.dist_style, DistStyle::All) {
        1
    } else {
        version.slices.len()
    }
}

impl Compute {
    /// Hand every row group of `catalog`, a cluster's first, this
    /// incarnation's freeing handle: a decoded image names blocks no
    /// draft of it wrote.
    pub fn adopt(&self, catalog: &Catalog) {
        for (_, version) in catalog.tables() {
            for (slice, t) in version.slices.iter().enumerate() {
                t.adopt(self.store_for_slice(slice));
            }
        }
    }

    pub fn store_for_slice(&self, slice: usize) -> &dyn BlockStore {
        let node = self.topology.node_of(SliceId(slice as u32));
        self.node_stores[node.0 as usize].as_ref()
    }

    /// Run `f` on the slices of `version` holding distinct rows, in
    /// parallel; first error wins.
    fn on_distinct_slices<T: Send>(
        &self,
        entry: &TableEntry,
        version: &TableVersion,
        f: impl Fn(&SliceTable, &dyn BlockStore) -> Result<T> + Sync,
    ) -> Result<Vec<T>> {
        let slices = version.slices[..distinct_slices(entry, version)].iter().enumerate().collect();
        parallel_map(slices, |(slice, t)| f(t, self.store_for_slice(slice))).into_iter().collect()
    }

    /// Run `f` on every slice of the draft `next` in parallel.
    fn on_slices_mut<T: Send>(
        &self,
        next: &mut TableVersion,
        f: impl Fn(usize, &mut SliceTable, &dyn BlockStore) -> T + Sync,
    ) -> Vec<T> {
        let slices = next.slices.iter_mut().enumerate().collect();
        parallel_map(slices, |(slice, t)| f(slice, t, self.store_for_slice(slice)))
    }

    /// Route a batch by `entry`'s distribution style, resuming the EVEN
    /// rotation at the draft's cursor, and append to the draft's slice
    /// tables (optionally flushing buffered rows — INSERT flushes; COPY
    /// seals once at the end). Per-slice appends are independent and run
    /// on worker threads ("COPY is parallelized across slices", §2.1).
    pub fn append(
        &self,
        entry: &TableEntry,
        next: &mut TableVersion,
        batch: Vec<ColumnData>,
        flush: bool,
    ) -> Result<()> {
        let mut router = RowRouter::new(entry.dist_style.clone(), &self.topology);
        router.set_cursor(next.state.cursor);
        let per_slice = router.route(&batch)?;
        next.state.cursor = router.cursor();
        // Each slice's share moves into its task and is freed with it.
        let work = next.slices.iter_mut().zip(per_slice).enumerate().collect();
        let results = parallel_map(work, |(slice, (t, cols)): (usize, (&mut SliceTable, _))| {
            let store = self.store_for_slice(slice);
            t.append(&cols, store)?;
            if flush {
                t.flush(store)?;
            }
            Ok(())
        });
        results.into_iter().collect()
    }

    /// Flush buffered tails on every slice (this is where row groups are
    /// sealed into encoded blocks), one `copy.slice_seal` child of `span`
    /// per slice. Returns every slice's outcome so the caller can name
    /// each failure.
    pub fn seal(&self, next: &mut TableVersion, span: &Span) -> Vec<Result<()>> {
        self.on_slices_mut(next, |slice, t, store| {
            let mut sspan = span.child("copy.slice_seal");
            sspan.attr("slice", slice);
            t.flush(store)
        })
    }

    /// Optimizer statistics from a scan of `version` — `ANALYZE` only;
    /// loads fold their own batch (`TableStats::update`) instead.
    pub fn analyze(&self, entry: &TableEntry, version: &TableVersion) -> Result<TableStats> {
        let partials = self.on_distinct_slices(entry, version, |t, store| t.analyze(store))?;
        let mut stats = TableStats::new(entry.schema.len());
        partials.iter().for_each(|p| stats.merge(p));
        Ok(stats)
    }

    /// Re-sort every slice of the draft into new blocks; returns rows
    /// rewritten. The blocks it supersedes stay in the store while a
    /// version names them — the committed one does until the caller's
    /// commit replaces it and the last catalog holding it drops.
    pub fn vacuum(&self, next: &mut TableVersion) -> Result<u64> {
        self.on_slices_mut(next, |_, t, store| t.vacuum(store)).into_iter().sum()
    }

    /// Fill `next`, the draft of the re-laid-out copy `to` (resize,
    /// redistribute), with every row of `image`, a version of `from`, as
    /// `source` — `from`'s cluster — reads it: routed for `to`'s layout,
    /// sealed and, under a sort key, sorted — a re-laid-out table is fully
    /// sorted, whatever its source's unsorted share. Carries `image`'s
    /// state over, all but the cursor, which re-routing the rows has just
    /// advanced for the new layout.
    pub fn copy_table(
        &self,
        to: &TableEntry,
        next: &mut TableVersion,
        source: &Compute,
        from: &TableEntry,
        image: &TableVersion,
    ) -> Result<()> {
        let all_cols: Vec<usize> = (0..from.schema.len()).collect();
        for (slice, t) in image.slices[..distinct_slices(from, image)].iter().enumerate() {
            t.scan(source.store_for_slice(slice), &all_cols, None, |batch| {
                self.append(to, next, batch, false)
            })?;
        }
        self.seal(next, &Span::disabled()).into_iter().collect::<Result<()>>()?;
        if !matches!(to.sort_key, SortKeySpec::None) {
            // The appends landed in the unsorted region: re-sort. Only the
            // draft named the unsorted groups, so they free themselves.
            self.vacuum(next)?;
        }
        next.state = TableState { cursor: next.state.cursor, ..image.state.clone() };
        Ok(())
    }

    /// The MVCC read view of the published `catalog`.
    pub fn reader(&self, catalog: Arc<Catalog>) -> SnapshotReader<'_> {
        SnapshotReader { compute: self, catalog }
    }
}

/// One statement's view of the tables: what the planner binds and costs
/// against ([`CatalogView`]) and what the compiled executor
/// ([`TableProvider`]) and the row interpreter ([`baseline::RowSource`])
/// scan is one published catalog, so a concurrent writer's uncommitted
/// (or newly committed) state is invisible to a query that has already
/// started.
pub(super) struct SnapshotReader<'a> {
    compute: &'a Compute,
    pub catalog: Arc<Catalog>,
}

impl CatalogView for SnapshotReader<'_> {
    fn table(&self, name: &str) -> Option<TableMeta> {
        self.catalog.get(name).map(|(t, version)| TableMeta {
            name: t.name.clone(),
            schema: t.schema.clone(),
            dist_style: t.dist_style.clone(),
            sort_key: t.sort_key.clone(),
            // Every load adds to the estimate and ANALYZE sets it
            // exactly; `stats.rows` goes stale under STATUPDATE OFF.
            rows: version.state.rows_estimate,
        })
    }

    fn total_slices(&self) -> u32 {
        self.compute.topology.total_slices()
    }
}

impl TableProvider for SnapshotReader<'_> {
    fn num_slices(&self) -> usize {
        self.compute.topology.total_slices() as usize
    }

    fn scan_slice(
        &self,
        table: &str,
        slice: usize,
        projection: &[usize],
        pred: &ScanPredicate,
        sink: &mut ScanSink,
    ) -> Result<ScanOutput> {
        let (entry, version) = self
            .catalog
            .get(table)
            .ok_or_else(|| RsError::NotFound(format!("relation {table:?}")))?;
        // ALL tables: only slice 0 scans (avoids N× duplicate rows).
        if matches!(entry.dist_style, DistStyle::All) && slice != 0 {
            return Ok(ScanOutput::default());
        }
        version.slices[slice].scan(self.compute.store_for_slice(slice), projection, Some(pred), sink)
    }
}

impl baseline::RowSource for SnapshotReader<'_> {
    /// All slices sequentially, unpruned.
    fn scan_rows(&self, table: &str, projection: &[usize]) -> Result<Vec<Row>> {
        let mut rows = Vec::new();
        for slice in 0..self.num_slices() {
            self.scan_slice(table, slice, projection, &ScanPredicate::default(), &mut |batch| {
                rows.extend(rows_of(&batch));
                Ok(())
            })?;
        }
        Ok(rows)
    }
}
