//! The leader node's catalog: table definitions and their per-slice
//! storage.

use redsim_testkit::sync::{Mutex, RwLock};
use redsim_common::codec::{Reader, Writer};
use redsim_common::{Result, RsError, Schema};
use redsim_distribution::{ClusterTopology, DistStyle, RowRouter};
use redsim_storage::stats::TableStats;
use redsim_storage::table::{SliceTable, SortKeySpec, TableConfig};
use redsim_storage::BlockId;
use std::collections::BTreeMap;
use std::sync::Arc;

/// An immutable, published snapshot of one table's storage state — the
/// unit of MVCC visibility. SELECT captures the `Arc` once at statement
/// start and scans it without ever touching the live slice mutexes, so
/// readers neither block on nor observe a half-applied concurrent write.
/// Cheap to build: slice *manifests* are cloned (group descriptors plus
/// the small unsealed buffer), never block payloads.
pub struct TableVersion {
    /// Transaction that published this version (0 = table creation).
    pub txn: u64,
    /// One sealed slice image per global slice id.
    pub slices: Vec<SliceTable>,
    pub rows_estimate: u64,
}

/// Everything a write statement can change about a table besides its
/// slice storage, as one value: what [`TableEntry::state`] snapshots for
/// rollback, what the redo log and snapshot manifests persist, and what
/// resize / redistribute carry over to the re-laid-out copy.
#[derive(Debug, Clone, Default)]
pub struct TableState {
    /// Cheap running row count (kept even without ANALYZE).
    pub rows_estimate: u64,
    /// The router's EVEN round-robin cursor.
    pub cursor: u32,
    /// ANALYZE output, sketches included; COPY (STATUPDATE) and INSERT
    /// merge the statistics of the rows they load into it.
    pub stats: Option<TableStats>,
    /// Rows loaded since the last ANALYZE (maintenance advisor).
    pub loads_since_analyze: u64,
}

/// One table: definition + one [`SliceTable`] per slice.
pub struct TableEntry {
    pub name: String,
    pub schema: Schema,
    pub dist_style: DistStyle,
    pub sort_key: SortKeySpec,
    /// Per-slice storage, index = global slice id. This is the *live*
    /// write state; readers go through [`TableEntry::snapshot`].
    pub slices: Vec<Mutex<SliceTable>>,
    /// Row router (owns [`TableState::cursor`]).
    pub router: Mutex<RowRouter>,
    pub stats: RwLock<Option<TableStats>>,
    pub rows_estimate: RwLock<u64>,
    pub loads_since_analyze: RwLock<u64>,
    /// Last committed version (what SELECT sees).
    pub committed: RwLock<Arc<TableVersion>>,
    /// First-committer-wins writer lock: a COPY/INSERT `try_lock`s this
    /// for the statement's duration; a second writer on the same table
    /// finds it held and fails with `RsError::Serializable` instead of
    /// queueing. Writers to *different* tables proceed in parallel.
    pub writer: Mutex<()>,
}

impl TableEntry {
    pub fn new(
        name: String,
        schema: Schema,
        dist_style: DistStyle,
        sort_key: SortKeySpec,
        topology: &ClusterTopology,
        rows_per_group: usize,
    ) -> Result<Arc<TableEntry>> {
        let config = TableConfig {
            rows_per_group,
            sort_key: sort_key.clone(),
            auto_compress: true,
        };
        let slices = (0..topology.total_slices())
            .map(|_| SliceTable::new(schema.clone(), config.clone()))
            .collect::<Result<Vec<_>>>()?;
        let state = TableState::default();
        Ok(Self::from_parts(name, schema, dist_style, sort_key, topology, slices, state))
    }

    fn from_parts(
        name: String,
        schema: Schema,
        dist_style: DistStyle,
        sort_key: SortKeySpec,
        topology: &ClusterTopology,
        slices: Vec<SliceTable>,
        state: TableState,
    ) -> Arc<TableEntry> {
        let mut router = RowRouter::new(dist_style.clone(), topology);
        router.set_cursor(state.cursor);
        let rows_estimate = state.rows_estimate;
        let v0 = TableVersion { txn: 0, slices: slices.clone(), rows_estimate };
        Arc::new(TableEntry {
            name,
            schema,
            dist_style,
            sort_key,
            slices: slices.into_iter().map(Mutex::new).collect(),
            router: Mutex::new(router),
            stats: RwLock::new(state.stats),
            rows_estimate: RwLock::new(state.rows_estimate),
            loads_since_analyze: RwLock::new(state.loads_since_analyze),
            committed: RwLock::new(Arc::new(v0)),
            writer: Mutex::new(()),
        })
    }

    /// The committed version a SELECT should scan. One `Arc` clone; the
    /// caller holds it for the statement and never touches live slices.
    pub fn snapshot(&self) -> Arc<TableVersion> {
        self.committed.read().clone()
    }

    /// Publish the live slice state as the new committed version.
    /// Called with the table's `writer` lock held (or under the global
    /// exclusive `data_lock` for DDL/VACUUM paths), *after* the WAL
    /// commit mark — publish order is durability first, visibility
    /// second, so a crash between the two re-derives the version at
    /// recovery rather than losing it.
    pub fn publish(&self, txn: u64) {
        let v = TableVersion {
            txn,
            slices: self.slices.iter().map(|s| s.lock().clone()).collect(),
            rows_estimate: *self.rows_estimate.read(),
        };
        *self.committed.write() = Arc::new(v);
    }

    /// Total rows across slices (ALL-distributed tables report one copy).
    pub fn logical_rows(&self) -> u64 {
        let total: u64 = self.slices.iter().map(|s| s.lock().row_count()).sum();
        if matches!(self.dist_style, DistStyle::All) {
            total / self.slices.len().max(1) as u64
        } else {
            total
        }
    }

    /// The live [`TableState`]. Callers hold the table's writer lock or
    /// the exclusive `data_lock`, so the fields are mutually consistent.
    pub fn state(&self) -> TableState {
        TableState {
            rows_estimate: *self.rows_estimate.read(),
            cursor: self.router.lock().cursor(),
            stats: self.stats.read().clone(),
            loads_since_analyze: *self.loads_since_analyze.read(),
        }
    }

    pub fn set_state(&self, state: TableState) {
        *self.rows_estimate.write() = state.rows_estimate;
        self.router.lock().set_cursor(state.cursor);
        *self.stats.write() = state.stats;
        *self.loads_since_analyze.write() = state.loads_since_analyze;
    }

    /// Absorb the statistics of rows this statement loaded (the caller
    /// holds the table's writer lock). A never-analyzed table starts from
    /// the empty record, exactly as `ANALYZE` of an empty table would.
    pub fn fold_stats(&self, loaded: &TableStats) {
        let mut stats = self.stats.write();
        stats.get_or_insert_with(|| TableStats::new(self.schema.len())).merge(loaded);
    }

    /// Carry `from`'s state over to this re-laid-out copy of the same
    /// table (resize, redistribute): everything but the cursor, which
    /// re-routing the rows has already advanced for the new layout.
    pub fn inherit_state(&self, from: &TableEntry) {
        let cursor = self.router.lock().cursor();
        self.set_state(TableState { cursor, ..from.state() });
    }

    /// The one persisted form of a table's mutable state: [`TableState`]
    /// followed by every slice's manifest (not blocks). Snapshot
    /// manifests, redo checkpoints and redo deltas all embed exactly
    /// these bytes. Slice buffers must be flushed, so the manifests are
    /// lossless.
    fn encode_image(&self, w: &mut Writer) {
        let state = self.state();
        w.put_u64(state.rows_estimate);
        w.put_u32(state.cursor);
        w.put_bool(state.stats.is_some());
        if let Some(s) = &state.stats {
            s.encode(w);
        }
        w.put_u64(state.loads_since_analyze);
        w.put_u32(self.slices.len() as u32);
        for s in &self.slices {
            s.lock().encode_meta(w);
        }
    }

    /// Inverse of [`TableEntry::encode_image`], for a table laid out over
    /// `expected` slices.
    fn decode_image(r: &mut Reader, expected: usize) -> Result<(TableState, Vec<SliceTable>)> {
        let state = TableState {
            rows_estimate: r.get_u64()?,
            cursor: r.get_u32()?,
            stats: if r.get_bool()? { Some(TableStats::decode(r)?) } else { None },
            loads_since_analyze: r.get_u64()?,
        };
        let n_slices = r.get_u32()? as usize;
        if n_slices != expected {
            return Err(RsError::InvalidState(format!(
                "table image has {n_slices} slices; the cluster has {expected} — restore to \
                 a matching configuration, then resize"
            )));
        }
        let slices = (0..n_slices).map(|_| SliceTable::decode_meta(r)).collect::<Result<_>>()?;
        Ok((state, slices))
    }

    /// One committed writer's post-state as a redo-delta payload.
    pub fn encode_delta(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_str(&self.name);
        self.encode_image(&mut w);
        w.into_bytes()
    }
}

/// The catalog: a name → table map behind the leader's serialization
/// point.
#[derive(Default)]
pub struct Catalog {
    tables: BTreeMap<String, Arc<TableEntry>>,
}

impl Catalog {
    pub fn create(&mut self, entry: Arc<TableEntry>) -> Result<()> {
        let key = entry.name.to_ascii_lowercase();
        if self.tables.contains_key(&key) {
            return Err(RsError::AlreadyExists(format!("relation {:?}", entry.name)));
        }
        self.tables.insert(key, entry);
        Ok(())
    }

    pub fn drop_table(&mut self, name: &str) -> Result<Arc<TableEntry>> {
        self.tables
            .remove(&name.to_ascii_lowercase())
            .ok_or_else(|| RsError::NotFound(format!("relation {name:?}")))
    }

    pub fn get(&self, name: &str) -> Option<Arc<TableEntry>> {
        self.tables.get(&name.to_ascii_lowercase()).cloned()
    }

    pub fn tables(&self) -> impl Iterator<Item = &Arc<TableEntry>> {
        self.tables.values()
    }

    /// Every block the live slice manifests reference.
    pub fn block_ids(&self) -> Vec<BlockId> {
        self.tables().flat_map(|t| &t.slices).flat_map(|s| s.lock().block_ids()).collect()
    }

    /// Serialize the full catalog (not blocks): per table its name,
    /// distribution style and image. Schema and sort key are not
    /// repeated — every slice manifest in the image carries them.
    /// Snapshot manifests and redo checkpoints are these bytes.
    pub fn encode(&self, w: &mut Writer) {
        w.put_u32(self.tables.len() as u32);
        for t in self.tables.values() {
            w.put_str(&t.name);
            match &t.dist_style {
                DistStyle::Even => w.put_u8(0),
                DistStyle::Key(c) => {
                    w.put_u8(1);
                    w.put_u32(*c as u32);
                }
                DistStyle::All => w.put_u8(2),
            }
            t.encode_image(w);
        }
    }

    /// Rebuild a catalog from [`Catalog::encode`] bytes, which are always
    /// the tail of their container (snapshot metadata, redo checkpoint).
    /// The image keeps its slice count: the paper restores to an
    /// equivalently sized cluster; changing size afterwards is a resize.
    pub fn decode(r: &mut Reader, topology: &ClusterTopology) -> Result<Catalog> {
        let n = r.get_u32()? as usize;
        let mut catalog = Catalog::default();
        for _ in 0..n {
            let name = r.get_str()?;
            let dist_style = match r.get_u8()? {
                0 => DistStyle::Even,
                1 => DistStyle::Key(r.get_u32()? as usize),
                2 => DistStyle::All,
                t => return Err(RsError::Codec(format!("bad dist tag {t}"))),
            };
            let (state, slices) = TableEntry::decode_image(r, topology.total_slices() as usize)?;
            let (schema, sort_key) = (slices[0].schema().clone(), slices[0].sort_key().clone());
            catalog.create(TableEntry::from_parts(
                name, schema, dist_style, sort_key, topology, slices, state,
            ))?;
        }
        if !r.is_exhausted() {
            return Err(RsError::Codec(format!("{} bytes after the catalog image", r.remaining())));
        }
        Ok(catalog)
    }

    /// Replay one [`TableEntry::encode_delta`] payload onto its table:
    /// the live state and slice manifests become the delta's image.
    pub fn apply_delta(&self, payload: &[u8]) -> Result<Arc<TableEntry>> {
        let mut r = Reader::new(payload);
        let name = r.get_str()?;
        let entry = self.get(&name).ok_or_else(|| {
            RsError::InvalidState(format!("redo delta references unknown table {name:?}"))
        })?;
        let (state, slices) = TableEntry::decode_image(&mut r, entry.slices.len())?;
        if !r.is_exhausted() {
            return Err(RsError::Codec(format!("{} bytes after the redo delta", r.remaining())));
        }
        for (live, image) in entry.slices.iter().zip(slices) {
            *live.lock() = image;
        }
        entry.set_state(state);
        Ok(entry)
    }
}

/// `CatalogView` adapter for the SQL planner.
pub struct PlannerCatalog<'a> {
    pub catalog: &'a Catalog,
    pub total_slices: u32,
}

impl redsim_sql::CatalogView for PlannerCatalog<'_> {
    fn table(&self, name: &str) -> Option<redsim_sql::TableMeta> {
        self.catalog.get(name).map(|t| {
            redsim_sql::TableMeta {
                name: t.name.clone(),
                schema: t.schema.clone(),
                dist_style: t.dist_style.clone(),
                sort_key: t.sort_key.clone(),
                // Every load adds to the estimate and ANALYZE sets it
                // exactly; `stats.rows` goes stale under STATUPDATE OFF.
                rows: *t.rows_estimate.read(),
            }
        })
    }

    fn total_slices(&self) -> u32 {
        self.total_slices
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use redsim_common::{ColumnDef, DataType};

    fn topo() -> ClusterTopology {
        ClusterTopology::new(2, 2).unwrap()
    }

    fn entry(name: &str) -> Arc<TableEntry> {
        TableEntry::new(
            name.to_string(),
            Schema::new(vec![
                ColumnDef::new("id", DataType::Int8),
                ColumnDef::new("v", DataType::Varchar),
            ])
            .unwrap(),
            DistStyle::Key(0),
            SortKeySpec::Compound(vec![0]),
            &topo(),
            1024,
        )
        .unwrap()
    }

    #[test]
    fn create_get_drop() {
        let mut c = Catalog::default();
        c.create(entry("T1")).unwrap();
        assert!(c.get("t1").is_some(), "case-insensitive");
        assert!(c.create(entry("t1")).is_err(), "duplicate rejected");
        c.drop_table("T1").unwrap();
        assert!(c.get("t1").is_none());
        assert!(c.drop_table("t1").is_err());
    }

    #[test]
    fn encode_decode_roundtrip() {
        let mut c = Catalog::default();
        c.create(entry("clicks")).unwrap();
        *c.get("clicks").unwrap().rows_estimate.write() = 123;
        let mut w = Writer::new();
        c.encode(&mut w);
        let bytes = w.into_bytes();
        let c2 = Catalog::decode(&mut Reader::new(&bytes), &topo()).unwrap();
        let t = c2.get("clicks").unwrap();
        assert_eq!(t.dist_style, DistStyle::Key(0));
        assert_eq!(t.sort_key, SortKeySpec::Compound(vec![0]));
        assert_eq!(*t.rows_estimate.read(), 123);
        assert_eq!(t.slices.len(), 4);
    }

    /// A table whose every [`TableState`] field is off its default.
    fn busy_entry(stats: Option<TableStats>) -> Arc<TableEntry> {
        let t = entry("busy");
        t.set_state(TableState { rows_estimate: 41, cursor: 3, stats, loads_since_analyze: 17 });
        t
    }

    #[test]
    fn table_image_roundtrips_through_checkpoint_and_delta() {
        for stats in [None, Some(TableStats { rows: 40, columns: Vec::new() })] {
            let src = busy_entry(stats.clone());
            let delta = src.encode_delta();
            // Checkpoint / snapshot path: decode builds the entry.
            let mut c = Catalog::default();
            c.create(Arc::clone(&src)).unwrap();
            let mut w = Writer::new();
            c.encode(&mut w);
            let decoded = Catalog::decode(&mut Reader::new(&w.into_bytes()), &topo()).unwrap();
            assert_eq!(decoded.get("busy").unwrap().encode_delta(), delta);
            assert_eq!(decoded.get("busy").unwrap().snapshot().rows_estimate, 41);
            // Delta path: replay onto a fresh entry of the same table.
            let mut fresh = Catalog::default();
            fresh.create(entry("busy")).unwrap();
            let t = fresh.apply_delta(&delta).unwrap();
            assert_eq!(t.encode_delta(), delta);
            let state = t.state();
            assert_eq!((state.rows_estimate, state.cursor, state.loads_since_analyze), (41, 3, 17));
            assert_eq!(state.stats.map(|s| s.rows), stats.map(|s| s.rows));
        }
    }

    #[test]
    fn malformed_table_images_are_codec_errors() {
        let delta = busy_entry(None).encode_delta();
        let mut c = Catalog::default();
        c.create(entry("busy")).unwrap();
        let untouched = c.get("busy").unwrap().encode_delta();
        for cut in [0, 3, delta.len() / 2, delta.len() - 1] {
            let err = c.apply_delta(&delta[..cut]).map(|_| ()).unwrap_err();
            assert!(matches!(err, RsError::Codec(_)), "truncated at {cut}: {err}");
        }
        let mut long = delta.clone();
        long.push(0);
        let err = c.apply_delta(&long).map(|_| ()).unwrap_err();
        assert!(matches!(err, RsError::Codec(_)), "over-long: {err}");
        assert_eq!(c.get("busy").unwrap().encode_delta(), untouched, "failed replay changes nothing");
        // The same bytes embedded in a catalog image.
        let mut w = Writer::new();
        c.encode(&mut w);
        let mut image = w.into_bytes();
        let err = Catalog::decode(&mut Reader::new(&image[..image.len() - 1]), &topo());
        assert!(matches!(err, Err(RsError::Codec(_))));
        image.push(0);
        let err = Catalog::decode(&mut Reader::new(&image), &topo());
        assert!(matches!(err, Err(RsError::Codec(_))));
    }

    #[test]
    fn topology_mismatch_rejected() {
        let mut c = Catalog::default();
        c.create(entry("t")).unwrap();
        let mut w = Writer::new();
        c.encode(&mut w);
        let bytes = w.into_bytes();
        let bigger = ClusterTopology::new(4, 2).unwrap();
        assert!(Catalog::decode(&mut Reader::new(&bytes), &bigger).is_err());
    }
}
