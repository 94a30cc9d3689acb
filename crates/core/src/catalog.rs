//! The leader node's catalog: table definitions and their versions.

use redsim_testkit::sync::{Mutex, RwLock};
use redsim_common::codec::{Reader, Writer};
use redsim_common::{Result, RsError, Schema};
use redsim_distribution::{ClusterTopology, DistStyle};
use redsim_storage::stats::TableStats;
use redsim_storage::table::{SliceTable, SortKeySpec, TableConfig};
use redsim_storage::BlockId;
use std::collections::BTreeMap;
use std::sync::Arc;

/// One immutable image of a table — the only place its mutable state
/// lives, and the unit of MVCC visibility. A write statement clones the
/// committed version (slice *manifests*: group descriptors plus the small
/// unsealed buffer, never block payloads), changes its private copy,
/// logs it and swaps it in with [`TableEntry::install`]; dropping the
/// copy instead is the abort. Once installed a version is reached only
/// through its `Arc` and never changes, so a reader holding
/// [`TableEntry::snapshot`] neither blocks on nor observes a concurrent
/// write.
#[derive(Clone, Default)]
pub struct TableVersion {
    /// Transaction that installed this version (0 = bootstrap).
    pub txn: u64,
    /// One slice table per global slice id.
    pub slices: Vec<SliceTable>,
    pub state: TableState,
}

/// Everything a write statement can change about a table besides its
/// slice storage, as one value: what the redo log and snapshot manifests
/// persist, and what resize / redistribute carry over to the re-laid-out
/// copy.
#[derive(Debug, Clone, Default)]
pub struct TableState {
    /// Cheap running row count (kept even without ANALYZE).
    pub rows_estimate: u64,
    /// The EVEN round-robin cursor: where routing the next batch starts.
    pub cursor: u32,
    /// ANALYZE output, sketches included; COPY (STATUPDATE) and INSERT
    /// merge the statistics of the rows they load into it.
    pub stats: Option<TableStats>,
    /// Rows loaded since the last ANALYZE (maintenance advisor).
    pub loads_since_analyze: u64,
}

impl TableVersion {
    /// Every block the slice manifests reference.
    pub fn block_ids(&self) -> Vec<BlockId> {
        self.slices.iter().flat_map(SliceTable::block_ids).collect()
    }

    /// (stored, unsorted) rows summed over slices — an ALL table counts
    /// every copy.
    pub fn stored_rows(&self) -> (u64, u64) {
        self.slices.iter().fold((0, 0), |(n, u), s| (n + s.row_count(), u + s.unsorted_rows()))
    }

    /// Absorb the statistics of rows this statement loaded. A
    /// never-analyzed table starts from the empty record, exactly as
    /// `ANALYZE` of an empty table would.
    pub fn fold_stats(&mut self, loaded: &TableStats) {
        let columns = loaded.columns.len();
        self.state.stats.get_or_insert_with(|| TableStats::new(columns)).merge(loaded);
    }

    /// The one persisted form of a table's mutable state: [`TableState`]
    /// followed by every slice's manifest (not blocks). Snapshot
    /// manifests, redo checkpoints and redo deltas all embed exactly
    /// these bytes. Slice buffers must be flushed, so the manifests are
    /// lossless.
    fn encode_image(&self, w: &mut Writer) {
        w.put_u64(self.state.rows_estimate);
        w.put_u32(self.state.cursor);
        w.put_bool(self.state.stats.is_some());
        if let Some(s) = &self.state.stats {
            s.encode(w);
        }
        w.put_u64(self.state.loads_since_analyze);
        w.put_u32(self.slices.len() as u32);
        for s in &self.slices {
            s.encode_meta(w);
        }
    }

    /// Inverse of [`TableVersion::encode_image`], for a table laid out
    /// over `expected` slices.
    fn decode_image(r: &mut Reader, expected: usize) -> Result<TableVersion> {
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
        Ok(TableVersion { txn: 0, slices, state })
    }

    /// This version of table `name` as a redo-delta payload.
    pub fn encode_delta(&self, name: &str) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_str(name);
        self.encode_image(&mut w);
        w.into_bytes()
    }
}

/// One table: its definition and its committed [`TableVersion`].
pub struct TableEntry {
    pub name: String,
    pub schema: Schema,
    pub dist_style: DistStyle,
    pub sort_key: SortKeySpec,
    /// What every reader sees. Replaced whole, never changed in place.
    committed: RwLock<Arc<TableVersion>>,
    /// First-committer-wins writer lock: a COPY/INSERT `try_lock`s this
    /// for the statement's duration; a second writer on the same table
    /// finds it held and fails with `RsError::Serializable` instead of
    /// queueing. Writers to *different* tables proceed in parallel.
    pub writer: Mutex<()>,
}

impl TableEntry {
    /// An empty table laid out over `topology`.
    pub fn new(
        name: String,
        schema: Schema,
        dist_style: DistStyle,
        sort_key: SortKeySpec,
        topology: &ClusterTopology,
        rows_per_group: usize,
    ) -> Result<Arc<TableEntry>> {
        let config = TableConfig { rows_per_group, sort_key: sort_key.clone(), auto_compress: true };
        let slices = (0..topology.total_slices())
            .map(|_| SliceTable::new(schema.clone(), config.clone()))
            .collect::<Result<Vec<_>>>()?;
        let v0 = TableVersion { slices, ..TableVersion::default() };
        Ok(Self::from_parts(name, schema, dist_style, sort_key, v0))
    }

    fn from_parts(
        name: String,
        schema: Schema,
        dist_style: DistStyle,
        sort_key: SortKeySpec,
        version: TableVersion,
    ) -> Arc<TableEntry> {
        let committed = RwLock::new(Arc::new(version));
        Arc::new(TableEntry { name, schema, dist_style, sort_key, committed, writer: Mutex::new(()) })
    }

    /// The committed version: one `Arc` clone, held for the statement.
    pub fn snapshot(&self) -> Arc<TableVersion> {
        self.committed.read().clone()
    }

    /// Make `next` the committed version and return the one it replaces.
    /// Called with the table's `writer` lock held *after* the redo commit
    /// mark (durability first, visibility second), or under the exclusive
    /// scope *before* the checkpoint, re-installing the returned version
    /// if the log refuses it.
    pub fn install(&self, next: Arc<TableVersion>) -> Arc<TableVersion> {
        std::mem::replace(&mut *self.committed.write(), next)
    }

    /// Total rows across slices (ALL-distributed tables report one copy).
    pub fn logical_rows(&self) -> u64 {
        let version = self.snapshot();
        let total: u64 = version.slices.iter().map(SliceTable::row_count).sum();
        match self.dist_style {
            DistStyle::All => total / version.slices.len().max(1) as u64,
            _ => total,
        }
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

    /// Every block the committed versions reference.
    pub fn block_ids(&self) -> Vec<BlockId> {
        self.tables().flat_map(|t| t.snapshot().block_ids()).collect()
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
            t.snapshot().encode_image(w);
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
            let version = TableVersion::decode_image(r, topology.total_slices() as usize)?;
            let slice = &version.slices[0];
            let (schema, sort_key) = (slice.schema().clone(), slice.sort_key().clone());
            catalog.create(TableEntry::from_parts(name, schema, dist_style, sort_key, version))?;
        }
        if !r.is_exhausted() {
            return Err(RsError::Codec(format!("{} bytes after the catalog image", r.remaining())));
        }
        Ok(catalog)
    }

    /// Replay one [`TableVersion::encode_delta`] payload, committed as
    /// `txn`, onto its table: the delta's image becomes the version.
    pub fn apply_delta(&self, txn: u64, payload: &[u8]) -> Result<()> {
        let mut r = Reader::new(payload);
        let name = r.get_str()?;
        let entry = self.get(&name).ok_or_else(|| {
            RsError::InvalidState(format!("redo delta references unknown table {name:?}"))
        })?;
        let version = TableVersion::decode_image(&mut r, entry.snapshot().slices.len())?;
        if !r.is_exhausted() {
            return Err(RsError::Codec(format!("{} bytes after the redo delta", r.remaining())));
        }
        entry.install(Arc::new(TableVersion { txn, ..version }));
        Ok(())
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
        c.create(with_state(entry("clicks"), TableState { rows_estimate: 123, ..Default::default() }))
            .unwrap();
        let mut w = Writer::new();
        c.encode(&mut w);
        let bytes = w.into_bytes();
        let c2 = Catalog::decode(&mut Reader::new(&bytes), &topo()).unwrap();
        let t = c2.get("clicks").unwrap();
        assert_eq!(t.dist_style, DistStyle::Key(0));
        assert_eq!(t.sort_key, SortKeySpec::Compound(vec![0]));
        assert_eq!(t.snapshot().state.rows_estimate, 123);
        assert_eq!(t.snapshot().slices.len(), 4);
    }

    /// `t` with a next version that differs from its current one in `state`.
    fn with_state(t: Arc<TableEntry>, state: TableState) -> Arc<TableEntry> {
        t.install(Arc::new(TableVersion { state, ..TableVersion::clone(&t.snapshot()) }));
        t
    }

    /// A table whose every [`TableState`] field is off its default.
    fn busy_entry(stats: Option<TableStats>) -> Arc<TableEntry> {
        let state = TableState { rows_estimate: 41, cursor: 3, stats, loads_since_analyze: 17 };
        with_state(entry("busy"), state)
    }

    fn delta(t: &TableEntry) -> Vec<u8> {
        t.snapshot().encode_delta(&t.name)
    }

    #[test]
    fn table_image_roundtrips_through_checkpoint_and_delta() {
        for stats in [None, Some(TableStats { rows: 40, columns: Vec::new() })] {
            let src = busy_entry(stats.clone());
            let image = delta(&src);
            // Checkpoint / snapshot path: decode builds the entry.
            let mut c = Catalog::default();
            c.create(Arc::clone(&src)).unwrap();
            let mut w = Writer::new();
            c.encode(&mut w);
            let decoded = Catalog::decode(&mut Reader::new(&w.into_bytes()), &topo()).unwrap();
            assert_eq!(delta(&decoded.get("busy").unwrap()), image);
            assert_eq!(decoded.get("busy").unwrap().snapshot().state.rows_estimate, 41);
            // Delta path: replay onto a fresh entry of the same table.
            let mut fresh = Catalog::default();
            fresh.create(entry("busy")).unwrap();
            fresh.apply_delta(9, &image).unwrap();
            let t = fresh.get("busy").unwrap();
            assert_eq!(delta(&t), image);
            let version = t.snapshot();
            assert_eq!(version.txn, 9, "the replayed version carries its commit's txn");
            let state = &version.state;
            assert_eq!((state.rows_estimate, state.cursor, state.loads_since_analyze), (41, 3, 17));
            assert_eq!(state.stats.as_ref().map(|s| s.rows), stats.map(|s| s.rows));
        }
    }

    /// Redo deltas as the parent commit (PR 17) encoded them, hex: `busy`
    /// is `busy_entry` with `stats_of(0..3)` — built from scratch, no
    /// blocks; `pin` is a one-slice EVEN table with a sorted and an
    /// unsorted region (blocks 3..=8) and `stats_of(0..5)`.
    const PARENT_BUSY_DELTA: &str = "\
         0400000062757379290000000000000003000000010300000000000000020000000000000000000000010400\
         0000000000000001040200000000000000180000000000000003000000c15c0289ec2d0a91ce56971cde3558\
         97afcd1d7b39a820e20100000000000000010602000000763001060200000076311000000000000000020000\
         00849ff4be771d0c001e64c04e3e24c015110000000000000004000000020000000200000069640300000101\
         0000007605000001000400000101010000000000000000000000000000000000020000000200000069640300\
         0001010000007605000001000400000101010000000000000000000000000000000000020000000200000069\
         6403000001010000007605000001000400000101010000000000000000000000000000000000020000000200\
         0000696403000001010000007605000001000400000101010000000000000000000000000000000000";
    const PARENT_PIN_DELTA: &str = "\
         0300000070696e05000000000000000000000001050000000000000002000000000000000000000001040000\
         00000000000001040400000000000000280000000000000005000000ed8f01dbe4140b1dca8a33e272e3736e\
         c15c0289ec2d0a91ce56971cde355897afcd1d7b39a820e20100000000000000010602000000763001060200\
         000076341c0000000000000004000000849ff4be771d0c001e64c04e3e24c015f6bb9200e583c744e7cdc9c1\
         7637fbec02000000000000000100000002000000020000006964030000010100000076050000010200000001\
         0101000000000000000102000000020702000000020000000200000003000000000000000104000000000000\
         0000010401000000000000000000000002000000040000000000000001060200000076300106020000007631\
         0000000002000000000100000002000000050000000000000001040200000000000000010402000000000000\
         0000000000010000000600000000000000000001000000010000000001000000020000000200000007000000\
         0000000001040300000000000000010404000000000000000000000002000000080000000000000001060200\
         00007633010602000000763400000000020000000000";

    fn unhex(hex: &str) -> Vec<u8> {
        (0..hex.len()).step_by(2).map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap()).collect()
    }

    fn stats_of(ids: std::ops::Range<i64>) -> TableStats {
        use redsim_common::{ColumnData, Value};
        let mut a = ColumnData::new(DataType::Int8);
        let mut b = ColumnData::new(DataType::Varchar);
        for i in ids {
            let v = if i % 3 == 2 { Value::Null } else { Value::Str(format!("v{i}")) };
            a.push_value(&Value::Int8(i)).unwrap();
            b.push_value(&v).unwrap();
        }
        TableStats::of(&[a, b])
    }

    /// The table-image codec moved from `TableEntry`'s live fields to
    /// `TableVersion`; the bytes in the log, the checkpoint and the
    /// snapshot manifest did not move with it.
    #[test]
    fn table_image_bytes_are_the_parents() {
        let catalog_image = |c: &Catalog| {
            let mut w = Writer::new();
            c.encode(&mut w);
            w.into_bytes()
        };
        // Encoder, from state built in memory.
        let busy = busy_entry(Some(stats_of(0..3)));
        let parent = unhex(PARENT_BUSY_DELTA);
        assert_eq!(delta(&busy), parent);
        let mut c = Catalog::default();
        c.create(busy).unwrap();
        // A checkpoint is `count, (name, dist style, image)*`; a delta is
        // `name, image`: same image bytes behind a different header.
        let header = unhex("01000000" /* tables */).into_iter().chain(parent[..8].iter().copied());
        let key0 = unhex("0100000000"); // DistStyle::Key(0)
        let expect: Vec<u8> = header.chain(key0).chain(parent[8..].iter().copied()).collect();
        assert_eq!(catalog_image(&c), expect);
        // Decoder then encoder, over populated manifests.
        let parent = unhex(PARENT_PIN_DELTA);
        let topo1 = ClusterTopology::new(1, 1).unwrap();
        let header = unhex("01000000").into_iter().chain(parent[..7].iter().copied());
        let even = unhex("00"); // DistStyle::Even
        let image: Vec<u8> = header.chain(even).chain(parent[7..].iter().copied()).collect();
        let c = Catalog::decode(&mut Reader::new(&image), &topo1).unwrap();
        assert_eq!(catalog_image(&c), image);
        let pin = c.get("pin").unwrap();
        assert_eq!(pin.snapshot().stored_rows(), (5, 2));
        assert_eq!(delta(&pin), parent);
        c.apply_delta(3, &parent).unwrap();
        assert_eq!(delta(&pin), parent);
    }

    #[test]
    fn malformed_table_images_are_codec_errors() {
        let image = delta(&busy_entry(None));
        let mut c = Catalog::default();
        c.create(entry("busy")).unwrap();
        let untouched = delta(&c.get("busy").unwrap());
        for cut in [0, 3, image.len() / 2, image.len() - 1] {
            let err = c.apply_delta(1, &image[..cut]).unwrap_err();
            assert!(matches!(err, RsError::Codec(_)), "truncated at {cut}: {err}");
        }
        let mut long = image.clone();
        long.push(0);
        let err = c.apply_delta(1, &long).unwrap_err();
        assert!(matches!(err, RsError::Codec(_)), "over-long: {err}");
        assert_eq!(delta(&c.get("busy").unwrap()), untouched, "failed replay changes nothing");
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
