//! The compute part: the topology and the per-node block stores, and
//! every operation that fans out over a table's slices — the paper's
//! compute nodes, which "perform the heavy lifting" (§2.1). Stateless
//! apart from the stores: which table, which version (a committed one to
//! read, a writer's private draft to change) and under which lock is the
//! caller's business.

use crate::catalog::{Catalog, TableEntry, TableState, TableVersion};
use redsim_common::{ColumnData, FxHashMap, Result, Row, RsError};
use redsim_distribution::{ClusterTopology, DistStyle, RowRouter, SliceId};
use redsim_engine::baseline;
use redsim_engine::exec::TableProvider;
use redsim_obs::{Span, LVL_DETAIL};
use redsim_sql::{CatalogView, TableMeta};
use redsim_storage::stats::TableStats;
use redsim_storage::table::{ScanOutput, ScanPredicate, SliceTable};
use redsim_storage::{BlockId, BlockStore};
/// Run a closure over owned inputs on scoped threads, preserving order.
pub(super) use redsim_testkit::par::map as parallel_map;
use std::collections::BTreeSet;
use std::sync::Arc;

pub(super) struct Compute {
    pub topology: ClusterTopology,
    /// Per-node block store handles (encryption-wrapped when enabled).
    pub node_stores: Vec<Arc<dyn BlockStore>>,
}

impl Compute {
    pub fn store_for_slice(&self, slice: usize) -> &dyn BlockStore {
        let node = self.topology.node_of(SliceId(slice as u32));
        self.node_stores[node.0 as usize].as_ref()
    }

    /// Run `f` on the slices of `version` holding distinct rows, in
    /// parallel; first error wins. An ALL table keeps a full copy on
    /// every slice, so reading slice 0 reads the table.
    fn on_distinct_slices<T: Send>(
        &self,
        entry: &TableEntry,
        version: &TableVersion,
        f: impl Fn(&SliceTable, &dyn BlockStore) -> Result<T> + Sync,
    ) -> Result<Vec<T>> {
        let n = if matches!(entry.dist_style, DistStyle::All) { 1 } else { version.slices.len() };
        let slices = version.slices[..n].iter().enumerate().collect();
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
            let mut sspan = span.child(LVL_DETAIL, "copy.slice_seal");
            if sspan.is_recording() {
                sspan.attr("slice", slice);
            }
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
    /// rewritten. The blocks it supersedes stay in the store — they still
    /// back the committed version — until the caller's commit frees them
    /// with [`Compute::delete_unshared`].
    pub fn vacuum(&self, next: &mut TableVersion) -> Result<u64> {
        let rewritten = self.on_slices_mut(next, |_, t, store| t.vacuum_deferred(store));
        rewritten.into_iter().map(|r| r.map(|(rows, _)| rows)).sum()
    }

    /// Fill `next`, the draft of the re-laid-out copy `to` (resize,
    /// redistribute), with every row of `from` as `source` — `from`'s
    /// cluster — reads it: routed for `to`'s layout and sealed. Carries
    /// `from`'s state over, all but the cursor, which re-routing the rows
    /// has just advanced for the new layout.
    pub fn copy_table(
        &self,
        to: &TableEntry,
        next: &mut TableVersion,
        source: &Compute,
        from: &TableEntry,
    ) -> Result<()> {
        let image = from.snapshot();
        let all_cols: Vec<usize> = (0..from.schema.len()).collect();
        let scans =
            source.on_distinct_slices(from, &image, |t, store| t.scan(store, &all_cols, None))?;
        for batch in scans.into_iter().flat_map(|s| s.batches) {
            self.append(to, next, batch, false)?;
        }
        self.seal(next, &Span::disabled()).into_iter().collect::<Result<()>>()?;
        next.state = TableState { cursor: next.state.cursor, ..image.state.clone() };
        Ok(())
    }

    /// Delete blocks from every replica (any node's handle reaches all).
    pub fn delete_blocks(&self, ids: impl IntoIterator<Item = BlockId>) {
        if let Some(store) = self.node_stores.first() {
            for id in ids {
                store.delete(id);
            }
        }
    }

    /// Delete the blocks `dead` references and `live` does not; returns
    /// how many. An aborted draft against the version it was cloned from,
    /// or a superseded version against the one that replaced it.
    pub fn delete_unshared(&self, dead: &TableVersion, live: &TableVersion) -> usize {
        let keep: BTreeSet<BlockId> = live.block_ids().into_iter().collect();
        let mut ids = dead.block_ids();
        ids.retain(|id| !keep.contains(id));
        let dropped = ids.len();
        self.delete_blocks(ids);
        dropped
    }

    /// Capture the committed [`TableVersion`] of every referenced user
    /// table at one point in time: the statement's MVCC read snapshot.
    /// Unknown names are skipped — binding reports them as missing.
    pub fn reader(&self, catalog: &Catalog, refs: &[&str]) -> SnapshotReader<'_> {
        let tables = refs
            .iter()
            .filter_map(|t| catalog.get(t))
            .map(|e| (e.name.to_ascii_lowercase(), (e.snapshot(), e)))
            .collect();
        SnapshotReader { compute: self, tables }
    }
}

/// One statement's view of the tables it references: what the planner
/// binds and costs against ([`CatalogView`]) and what the compiled
/// executor ([`TableProvider`]) and the row interpreter
/// ([`baseline::RowSource`]) scan are the same captured versions, so a
/// concurrent writer's uncommitted (or newly committed) state is
/// invisible to a query that has already started.
pub(super) struct SnapshotReader<'a> {
    compute: &'a Compute,
    /// Lowercased name → (committed version, its table).
    tables: FxHashMap<String, (Arc<TableVersion>, Arc<TableEntry>)>,
}

impl CatalogView for SnapshotReader<'_> {
    fn table(&self, name: &str) -> Option<TableMeta> {
        self.tables.get(&name.to_ascii_lowercase()).map(|(version, t)| TableMeta {
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
    ) -> Result<ScanOutput> {
        let (version, entry) = self
            .tables
            .get(&table.to_ascii_lowercase())
            .ok_or_else(|| RsError::NotFound(format!("relation {table:?}")))?;
        // ALL tables: only slice 0 scans (avoids N× duplicate rows).
        if matches!(entry.dist_style, DistStyle::All) && slice != 0 {
            return Ok(ScanOutput::default());
        }
        version.slices[slice].scan(self.compute.store_for_slice(slice), projection, Some(pred))
    }
}

impl baseline::RowSource for SnapshotReader<'_> {
    /// All slices sequentially, unpruned.
    fn scan_rows(&self, table: &str, projection: &[usize]) -> Result<Vec<Row>> {
        let mut rows = Vec::new();
        for slice in 0..self.num_slices() {
            let out = self.scan_slice(table, slice, projection, &ScanPredicate::default())?;
            for batch in out.batches {
                let n = batch.first().map_or(0, |c| c.len());
                rows.extend((0..n).map(|i| Row::new(batch.iter().map(|c| c.get(i)).collect())));
            }
        }
        Ok(rows)
    }
}
