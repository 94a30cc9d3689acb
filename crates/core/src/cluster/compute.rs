//! The compute part: the topology and the per-node block stores, and
//! every operation that fans out over a table's slices — the paper's
//! compute nodes, which "perform the heavy lifting" (§2.1). Stateless
//! apart from the stores: which table, which version and under which
//! lock is the caller's business.

use crate::catalog::{Catalog, PlannerCatalog, TableEntry, TableVersion};
use redsim_common::{ColumnData, FxHashMap, Result, Row, RsError};
use redsim_distribution::{ClusterTopology, DistStyle, SliceId};
use redsim_engine::baseline;
use redsim_engine::exec::TableProvider;
use redsim_obs::{Span, LVL_DETAIL};
use redsim_storage::stats::TableStats;
use redsim_storage::table::{ScanOutput, ScanPredicate, WriteCheckpoint};
use redsim_storage::{BlockId, BlockStore};
/// Run a closure over owned inputs on scoped threads, preserving order.
pub(super) use redsim_testkit::par::map as parallel_map;
use std::sync::Arc;

pub(super) struct Compute {
    pub topology: ClusterTopology,
    /// Per-node block store handles (encryption-wrapped when enabled).
    pub node_stores: Vec<Arc<dyn BlockStore>>,
}

/// The slices holding distinct rows: an ALL table keeps a full copy on
/// every slice, so reading slice 0 reads the table.
fn distinct_slices(entry: &TableEntry) -> Vec<usize> {
    let n = if matches!(entry.dist_style, DistStyle::All) { 1 } else { entry.slices.len() };
    (0..n).collect()
}

impl Compute {
    pub fn store_for_slice(&self, slice: usize) -> &dyn BlockStore {
        let node = self.topology.node_of(SliceId(slice as u32));
        self.node_stores[node.0 as usize].as_ref()
    }

    /// Run `f` on every listed slice of `entry` in parallel; first error
    /// wins.
    fn on_slices<T: Send>(
        &self,
        slices: Vec<usize>,
        f: impl Fn(usize, &dyn BlockStore) -> Result<T> + Sync,
    ) -> Result<Vec<T>> {
        parallel_map(slices, |slice| f(slice, self.store_for_slice(slice))).into_iter().collect()
    }

    /// Route a batch by the table's distribution style and append to the
    /// slice tables (optionally flushing buffered rows — INSERT flushes;
    /// COPY seals once at the end). Per-slice appends are independent
    /// and run on worker threads ("COPY is parallelized across slices",
    /// §2.1).
    pub fn append(&self, entry: &TableEntry, batch: Vec<ColumnData>, flush: bool) -> Result<()> {
        let per_slice = entry.router.lock().route(&batch)?;
        let results = parallel_map(per_slice.into_iter().enumerate().collect(), |(slice, cols)| {
            let store = self.store_for_slice(slice);
            let mut t = entry.slices[slice].lock();
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
    pub fn seal(&self, entry: &TableEntry, span: &Span) -> Vec<Result<()>> {
        parallel_map((0..entry.slices.len()).collect(), |slice| {
            let mut sspan = span.child(LVL_DETAIL, "copy.slice_seal");
            if sspan.is_recording() {
                sspan.attr("slice", slice);
            }
            entry.slices[slice].lock().flush(self.store_for_slice(slice))
        })
    }

    /// Every row of the live table, as full-width batches.
    pub fn scan_table(&self, entry: &TableEntry) -> Result<Vec<Vec<ColumnData>>> {
        let all_cols: Vec<usize> = (0..entry.schema.len()).collect();
        let scans = self.on_slices(distinct_slices(entry), |slice, store| {
            entry.slices[slice].lock().scan(store, &all_cols, None)
        })?;
        Ok(scans.into_iter().flat_map(|s| s.batches).collect())
    }

    /// Optimizer statistics from a scan of the live table — `ANALYZE`
    /// only; loads fold their own batch (`TableStats::update`) instead.
    pub fn analyze(&self, entry: &TableEntry) -> Result<TableStats> {
        let partials = self.on_slices(distinct_slices(entry), |slice, store| {
            entry.slices[slice].lock().analyze(store)
        })?;
        let mut stats = TableStats::new(entry.schema.len());
        partials.iter().for_each(|p| stats.merge(p));
        Ok(stats)
    }

    /// Re-sort every slice, keeping the old blocks: returns rows
    /// rewritten and the superseded block ids for the caller to
    /// [`Compute::delete_blocks`] once the new layout is durable.
    pub fn vacuum_deferred(&self, entry: &TableEntry) -> Result<(u64, Vec<BlockId>)> {
        let results = self.on_slices((0..entry.slices.len()).collect(), |slice, store| {
            entry.slices[slice].lock().vacuum_deferred(store)
        })?;
        let rows = results.iter().map(|(rows, _)| rows).sum();
        Ok((rows, results.into_iter().flat_map(|(_, blocks)| blocks).collect()))
    }

    /// Delete blocks from every replica (any node's handle reaches all).
    pub fn delete_blocks(&self, ids: impl IntoIterator<Item = BlockId>) {
        if let Some(store) = self.node_stores.first() {
            for id in ids {
                store.delete(id);
            }
        }
    }

    pub fn drop_storage(&self, entry: &TableEntry) {
        for (slice, st) in entry.slices.iter().enumerate() {
            st.lock().drop_storage(self.store_for_slice(slice));
        }
    }

    /// Undo a statement's slice writes; returns the blocks dropped.
    pub fn rollback(&self, entry: &TableEntry, cps: &mut [Option<WriteCheckpoint>]) -> usize {
        let mut blocks = 0;
        for (slice, cp) in cps.iter_mut().enumerate() {
            if let Some(cp) = cp.take() {
                let store = self.store_for_slice(slice);
                blocks += entry.slices[slice].lock().rollback_write(cp, store);
            }
        }
        blocks
    }

    /// `catalog` as the SQL planner sees it on this topology.
    pub fn planner<'a>(&self, catalog: &'a Catalog) -> PlannerCatalog<'a> {
        PlannerCatalog { catalog, total_slices: self.topology.total_slices() }
    }

    /// Capture the committed [`TableVersion`] of every referenced user
    /// table at one point in time: the statement's MVCC read snapshot.
    /// Unknown names are skipped — binding reports them as missing.
    pub fn reader(&self, catalog: &Catalog, refs: &[&str]) -> SnapshotReader<'_> {
        let tables = refs
            .iter()
            .filter_map(|t| catalog.get(t))
            .map(|e| {
                let all = matches!(e.dist_style, DistStyle::All);
                (e.name.to_ascii_lowercase(), (all, e.snapshot()))
            })
            .collect();
        SnapshotReader { compute: self, tables }
    }
}

/// Scans against a statement's MVCC snapshot, for the compiled executor
/// ([`TableProvider`]) and the row interpreter ([`baseline::RowSource`])
/// alike. Scans never touch the live slice tables, so a concurrent
/// writer's uncommitted (or newly committed) state is invisible to a
/// query that has already started.
pub(super) struct SnapshotReader<'a> {
    compute: &'a Compute,
    /// Lowercased name → (is DISTSTYLE ALL, committed version).
    tables: FxHashMap<String, (bool, Arc<TableVersion>)>,
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
        let (all, version) = self
            .tables
            .get(&table.to_ascii_lowercase())
            .ok_or_else(|| RsError::NotFound(format!("relation {table:?}")))?;
        // ALL tables: only slice 0 scans (avoids N× duplicate rows).
        if *all && slice != 0 {
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
