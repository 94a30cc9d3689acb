//! Per-slice table storage.
//!
//! Each slice owns an independent `SliceTable` per table (§2.1: a slice
//! "is allocated a portion of the node's memory and disk space, where it
//! processes a portion of the workload assigned to the node"). Data lives
//! in row groups — one encoded block per column per group — divided into
//! a **sorted region** (produced by `VACUUM`, ordered by the table's sort
//! key) and an **unsorted append region** (produced by `COPY`/`INSERT`).
//!
//! Scans prune row groups with zone maps; tables with an *interleaved*
//! sort key additionally prune with z-code interval intersection
//! ([`redsim_zorder`]), which is what makes predicates on any subset of
//! the key columns effective (§3.3).

use crate::analyzer::{analyze_compression, DEFAULT_SAMPLE_ROWS};
use crate::block::{BlockId, EncodedBlock};
use crate::encoding::{decode_column, encode_column, Encoding};
use crate::stats::TableStats;
use crate::store::BlockStore;
use crate::zonemap::ZoneMap;
use redsim_common::codec::{Reader, Writer};
use redsim_common::{ColumnData, DataType, Result, RsError, Schema, Value};
use redsim_zorder::{normalize_f64, normalize_i64, ZSpace};

/// Table sort order specification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SortKeySpec {
    /// No sort key: VACUUM merely compacts.
    None,
    /// Compound: lexicographic on the listed columns (prefix-sensitive).
    Compound(Vec<usize>),
    /// Interleaved: z-order over the listed columns (order-insensitive).
    Interleaved(Vec<usize>),
}

impl SortKeySpec {
    pub fn columns(&self) -> &[usize] {
        match self {
            SortKeySpec::None => &[],
            SortKeySpec::Compound(c) | SortKeySpec::Interleaved(c) => c,
        }
    }
}

/// Per-slice table configuration.
#[derive(Debug, Clone)]
pub struct TableConfig {
    /// Rows per row group (the block granularity). Real Redshift blocks
    /// are a fixed 1 MiB; we fix the row count per group instead so all
    /// columns stay row-aligned, and choose the default so a typical
    /// 8-byte column lands near that size region.
    pub rows_per_group: usize,
    pub sort_key: SortKeySpec,
    /// Pick per-column encodings automatically on first flush (the COPY
    /// default); `false` forces Raw everywhere (ablation baseline).
    pub auto_compress: bool,
}

impl Default for TableConfig {
    fn default() -> Self {
        TableConfig { rows_per_group: 4_096, sort_key: SortKeySpec::None, auto_compress: true }
    }
}

/// One column's inclusive range constraint for scan pruning.
#[derive(Debug, Clone)]
pub struct ColumnRange {
    pub col: usize,
    pub lo: Option<Value>,
    pub hi: Option<Value>,
}

/// A conjunction of column ranges (what the planner can push down).
#[derive(Debug, Clone, Default)]
pub struct ScanPredicate {
    pub ranges: Vec<ColumnRange>,
}

#[derive(Debug, Clone)]
struct BlockRef {
    id: BlockId,
    zone: ZoneMap,
}

#[derive(Debug, Clone)]
struct RowGroup {
    rows: u32,
    cols: Vec<BlockRef>,
    /// z-code interval covered by this group (interleaved sorted region).
    z_range: Option<(u128, u128)>,
}

/// Normalization parameters mapping key-column values onto the z-grid.
#[derive(Debug, Clone)]
struct ZNorm {
    space: ZSpace,
    /// (column index, int min/max or float min/max) per dimension.
    dims: Vec<(usize, NormParam)>,
}

#[derive(Debug, Clone)]
enum NormParam {
    Int { min: i64, max: i64 },
    Float { min: f64, max: f64 },
}

/// Scan output: decoded batches plus pruning telemetry for EXPLAIN.
#[derive(Debug, Default)]
pub struct ScanOutput {
    /// One entry per surviving row group: the projected columns.
    pub batches: Vec<Vec<ColumnData>>,
    pub groups_total: usize,
    pub groups_skipped: usize,
    pub blocks_read: usize,
    pub bytes_read: u64,
}

/// Columnar storage of one table on one slice.
///
/// `Clone` is deliberate: a writer builds the table's next version on a
/// private copy of every slice (manifests only — block payloads live in
/// the store), so a deep copy here is a few group descriptors plus the
/// buffered tail, not table data.
#[derive(Debug, Clone)]
pub struct SliceTable {
    schema: Schema,
    config: TableConfig,
    /// Locked-in per-column encodings (chosen on first flush).
    encodings: Option<Vec<Encoding>>,
    sorted: Vec<RowGroup>,
    unsorted: Vec<RowGroup>,
    /// Partial row group not yet encoded.
    buffer: Vec<ColumnData>,
    znorm: Option<ZNorm>,
}

impl SliceTable {
    pub fn new(schema: Schema, config: TableConfig) -> Result<Self> {
        for &c in config.sort_key.columns() {
            if c >= schema.len() {
                return Err(RsError::Analysis(format!("sort key column {c} out of range")));
            }
            if matches!(config.sort_key, SortKeySpec::Interleaved(_)) {
                let ty = schema.column(c).data_type;
                if !ty.is_numeric() && !matches!(ty, DataType::Date | DataType::Timestamp) {
                    return Err(RsError::Unsupported(format!(
                        "INTERLEAVED sort keys support numeric/date/timestamp columns; {} is {ty}",
                        schema.column(c).name
                    )));
                }
            }
        }
        if matches!(&config.sort_key, SortKeySpec::Interleaved(c) if c.len() > 8 || c.is_empty()) {
            return Err(RsError::Unsupported("INTERLEAVED takes 1..=8 columns".into()));
        }
        let buffer = schema.columns().iter().map(|c| ColumnData::new(c.data_type)).collect();
        Ok(SliceTable {
            schema,
            config,
            encodings: None,
            sorted: Vec::new(),
            unsorted: Vec::new(),
            buffer,
            znorm: None,
        })
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    pub fn sort_key(&self) -> &SortKeySpec {
        &self.config.sort_key
    }

    /// Total rows (sorted + unsorted + buffered).
    pub fn row_count(&self) -> u64 {
        let grouped: u64 = self
            .sorted
            .iter()
            .chain(&self.unsorted)
            .map(|g| g.rows as u64)
            .sum();
        grouped + self.buffer.first().map_or(0, |c| c.len()) as u64
    }

    /// Rows in the unsorted region (drives "vacuum needed" telemetry).
    pub fn unsorted_rows(&self) -> u64 {
        self.unsorted.iter().map(|g| g.rows as u64).sum::<u64>()
            + self.buffer.first().map_or(0, |c| c.len()) as u64
    }

    /// Chosen per-column encodings, if already locked in.
    pub fn encodings(&self) -> Option<&[Encoding]> {
        self.encodings.as_deref()
    }

    /// Toggle automatic compression analysis (`COPY … COMPUPDATE OFF`).
    /// Only affects tables whose encodings are not yet locked in.
    pub fn set_auto_compress(&mut self, on: bool) {
        self.config.auto_compress = on;
    }

    pub fn auto_compress(&self) -> bool {
        self.config.auto_compress
    }

    /// Ids of every block owned by this slice table (replication/backup).
    pub fn block_ids(&self) -> Vec<BlockId> {
        self.sorted
            .iter()
            .chain(&self.unsorted)
            .flat_map(|g| g.cols.iter().map(|b| b.id))
            .collect()
    }

    /// Append a batch of columns (arity/type must match the schema).
    /// Full row groups are encoded and written through to `store`.
    pub fn append(&mut self, cols: &[ColumnData], store: &dyn BlockStore) -> Result<()> {
        if cols.len() != self.schema.len() {
            return Err(RsError::Analysis(format!(
                "batch arity {} != schema arity {}",
                cols.len(),
                self.schema.len()
            )));
        }
        let n = cols.first().map_or(0, |c| c.len());
        for (i, c) in cols.iter().enumerate() {
            if c.len() != n {
                return Err(RsError::Analysis("ragged batch".into()));
            }
            if !c.data_type().storage_compatible(self.schema.column(i).data_type) {
                return Err(RsError::Analysis(format!(
                    "column {} type {} != schema type {}",
                    i,
                    c.data_type(),
                    self.schema.column(i).data_type
                )));
            }
        }
        for (buf, col) in self.buffer.iter_mut().zip(cols) {
            buf.append(col);
        }
        while self.buffer.first().map_or(0, |c| c.len()) >= self.config.rows_per_group {
            let take = self.config.rows_per_group;
            let group_cols: Vec<ColumnData> =
                self.buffer.iter().map(|c| c.slice(0, take)).collect();
            let rest: Vec<ColumnData> =
                self.buffer.iter().map(|c| c.slice(take, c.len())).collect();
            self.buffer = rest;
            let group = self.encode_group(&group_cols, store)?;
            self.unsorted.push(group);
        }
        Ok(())
    }

    /// Flush any buffered partial group to the unsorted region.
    pub fn flush(&mut self, store: &dyn BlockStore) -> Result<()> {
        if self.buffer.first().map_or(0, |c| c.len()) == 0 {
            return Ok(());
        }
        let group_cols = std::mem::replace(
            &mut self.buffer,
            self.schema.columns().iter().map(|c| ColumnData::new(c.data_type)).collect(),
        );
        let group = self.encode_group(&group_cols, store)?;
        self.unsorted.push(group);
        Ok(())
    }

    fn ensure_encodings(&mut self, cols: &[ColumnData]) {
        if self.encodings.is_some() {
            return;
        }
        let encodings = if self.config.auto_compress {
            cols.iter().map(|c| analyze_compression(c, DEFAULT_SAMPLE_ROWS)).collect()
        } else {
            vec![Encoding::Raw; cols.len()]
        };
        self.encodings = Some(encodings);
    }

    fn encode_group(&mut self, cols: &[ColumnData], store: &dyn BlockStore) -> Result<RowGroup> {
        self.ensure_encodings(cols);
        let encodings = self.encodings.clone().expect("set above");
        let rows = cols.first().map_or(0, |c| c.len()) as u32;
        let mut refs: Vec<BlockRef> = Vec::with_capacity(cols.len());
        for (col, &enc) in cols.iter().zip(&encodings) {
            // The analyzer picks from a sample; data later in the load can
            // break a codec's data-dependent limits (dict overflow). Fall
            // back to Raw rather than failing the load.
            let payload = match encode_column(col, enc)
                .or_else(|_| encode_column(col, Encoding::Raw))
            {
                Ok(p) => p,
                Err(e) => {
                    // Scrub columns already written for this group so a
                    // failed encode leaves no orphan blocks behind.
                    for r in &refs {
                        store.delete(r.id);
                    }
                    return Err(e);
                }
            };
            let zone = ZoneMap::build(col);
            let block = EncodedBlock::new(rows, payload);
            let id = block.id;
            if let Err(e) = store.put(block) {
                // A failed put may have partially dual-written (mirror
                // primary ok, secondary refused → no placement record).
                // delete() is idempotent and removes the id from every
                // node, so scrub the failing id too, then the group's
                // already-written columns.
                store.delete(id);
                for r in &refs {
                    store.delete(r.id);
                }
                return Err(e);
            }
            refs.push(BlockRef { id, zone });
        }
        let z_range = self.z_range_of(cols);
        Ok(RowGroup { rows, cols: refs, z_range })
    }

    /// Compute the z-code range covered by a group (only meaningful after
    /// vacuum has established normalization parameters).
    fn z_range_of(&self, cols: &[ColumnData]) -> Option<(u128, u128)> {
        let norm = self.znorm.as_ref()?;
        let n = cols.first().map_or(0, |c| c.len());
        if n == 0 {
            return None;
        }
        let mut lo = u128::MAX;
        let mut hi = 0u128;
        for row in 0..n {
            let code = zcode_of_row(norm, cols, row);
            lo = lo.min(code);
            hi = hi.max(code);
        }
        Some((lo, hi))
    }

    /// Scan with projection and optional pruning predicate.
    pub fn scan(
        &self,
        store: &dyn BlockStore,
        projection: &[usize],
        pred: Option<&ScanPredicate>,
    ) -> Result<ScanOutput> {
        let mut out = ScanOutput::default();
        let rect = pred.and_then(|p| self.pred_to_rect(p));
        for group in self.sorted.iter().chain(&self.unsorted) {
            out.groups_total += 1;
            if let Some(p) = pred {
                if !self.group_may_match(group, p, rect.as_deref()) {
                    out.groups_skipped += 1;
                    continue;
                }
            }
            let mut batch = Vec::with_capacity(projection.len());
            for &ci in projection {
                if ci >= self.schema.len() {
                    return Err(RsError::Analysis(format!("projection column {ci} out of range")));
                }
                let blk = store.get(group.cols[ci].id)?;
                out.blocks_read += 1;
                out.bytes_read += blk.byte_size() as u64;
                let col = decode_column(&blk.payload, Some(self.schema.column(ci).data_type))?;
                batch.push(col);
            }
            out.batches.push(batch);
        }
        // Buffered rows are always visible (they have no zone maps yet).
        let buffered = self.buffer.first().map_or(0, |c| c.len());
        if buffered > 0 {
            out.groups_total += 1;
            let batch: Vec<ColumnData> =
                projection.iter().map(|&ci| self.buffer[ci].clone()).collect();
            out.batches.push(batch);
        }
        Ok(out)
    }

    fn group_may_match(
        &self,
        group: &RowGroup,
        pred: &ScanPredicate,
        rect: Option<&[(u32, u32)]>,
    ) -> bool {
        for r in &pred.ranges {
            if r.col < group.cols.len()
                && !group.cols[r.col].zone.may_overlap(r.lo.as_ref(), r.hi.as_ref())
            {
                return false;
            }
        }
        // z-interval pruning on interleaved-sorted groups.
        if let (Some(rect), Some((zlo, zhi)), Some(norm)) = (rect, group.z_range, &self.znorm) {
            let lo: Vec<u32> = rect.iter().map(|&(l, _)| l).collect();
            let hi: Vec<u32> = rect.iter().map(|&(_, h)| h).collect();
            if !norm.space.interval_intersects_rect(zlo, zhi, &lo, &hi) {
                return false;
            }
        }
        true
    }

    /// Convert predicate ranges on key columns into a normalized z-grid
    /// rectangle (per dimension: (lo_cell, hi_cell)).
    fn pred_to_rect(&self, pred: &ScanPredicate) -> Option<Vec<(u32, u32)>> {
        let norm = self.znorm.as_ref()?;
        let mut rect: Vec<(u32, u32)> =
            norm.dims.iter().map(|_| (0, norm.space.max_coord())).collect();
        let mut constrained = false;
        for (d, (col, param)) in norm.dims.iter().enumerate() {
            for r in &pred.ranges {
                if r.col != *col {
                    continue;
                }
                let (cur_lo, cur_hi) = rect[d];
                let lo_cell = r.lo.as_ref().map(|v| normalize_value(param, v, norm.space.bits_per_dim()));
                let hi_cell = r.hi.as_ref().map(|v| normalize_value(param, v, norm.space.bits_per_dim()));
                rect[d] = (
                    lo_cell.map_or(cur_lo, |c| c.max(cur_lo)),
                    hi_cell.map_or(cur_hi, |c| c.min(cur_hi)),
                );
                if rect[d].0 > rect[d].1 {
                    // Empty rectangle: clamp (callers still get zone-map
                    // pruning; an empty rect prunes every group anyway).
                    rect[d] = (rect[d].0, rect[d].0);
                }
                constrained = true;
            }
        }
        constrained.then_some(rect)
    }

    /// VACUUM: merge sorted + unsorted + buffer into a fully sorted
    /// region (by the table's sort key), rewriting all blocks. Returns
    /// the number of rows rewritten.
    pub fn vacuum(&mut self, store: &dyn BlockStore) -> Result<u64> {
        let (rows, old_blocks) = self.vacuum_deferred(store)?;
        for id in old_blocks {
            store.delete(id);
        }
        Ok(rows)
    }

    /// [`SliceTable::vacuum`] with the old blocks' deletion *deferred*:
    /// the rewrite installs new groups but leaves the pre-vacuum blocks
    /// in the store, returning their ids for the caller to delete. The
    /// crash-recovery write path needs this ordering — old blocks must
    /// outlive the WAL commit of the post-vacuum manifests, so that a
    /// crash on either side of the commit leaves one complete, readable
    /// block set (the other side's blocks become scrubbable orphans).
    /// On error the table is untouched and any partially-written new
    /// blocks are scrubbed.
    pub fn vacuum_deferred(&mut self, store: &dyn BlockStore) -> Result<(u64, Vec<BlockId>)> {
        // Materialize everything.
        let all_cols_idx: Vec<usize> = (0..self.schema.len()).collect();
        let scanned = self.scan(store, &all_cols_idx, None)?;
        let mut full: Vec<ColumnData> =
            self.schema.columns().iter().map(|c| ColumnData::new(c.data_type)).collect();
        for batch in &scanned.batches {
            for (acc, col) in full.iter_mut().zip(batch) {
                acc.append(col);
            }
        }
        let n = full.first().map_or(0, |c| c.len());

        // Establish sort order.
        let mut order: Vec<u32> = (0..n as u32).collect();
        let mut new_znorm = None;
        match &self.config.sort_key {
            SortKeySpec::None => {}
            SortKeySpec::Compound(keys) => {
                let keys = keys.clone();
                order.sort_by(|&a, &b| {
                    for &k in &keys {
                        let o = full[k].get(a as usize).cmp_sql(&full[k].get(b as usize));
                        if o != std::cmp::Ordering::Equal {
                            return o;
                        }
                    }
                    std::cmp::Ordering::Equal
                });
            }
            SortKeySpec::Interleaved(keys) => {
                let norm = build_znorm(keys, &full)?;
                let codes: Vec<u128> =
                    (0..n).map(|row| zcode_of_row(&norm, &full, row)).collect();
                order.sort_by_key(|&i| codes[i as usize]);
                new_znorm = Some(norm);
            }
        }
        let sorted_cols: Vec<ColumnData> = full.iter().map(|c| c.gather(&order)).collect();

        // Rewrite into new blocks first; the old blocks stay until the
        // caller deletes them. Stage into a local vec so a mid-rewrite
        // error leaves `self` exactly as it was.
        let old_blocks = self.block_ids();
        if let Some(norm) = new_znorm {
            self.znorm = Some(norm);
        }
        let mut new_sorted = Vec::new();
        let mut offset = 0usize;
        while offset < n {
            let end = (offset + self.config.rows_per_group).min(n);
            let group_cols: Vec<ColumnData> =
                sorted_cols.iter().map(|c| c.slice(offset, end)).collect();
            let group = match self.encode_group(&group_cols, store) {
                Ok(g) => g,
                Err(e) => {
                    for g in &new_sorted {
                        let g: &RowGroup = g;
                        for b in &g.cols {
                            store.delete(b.id);
                        }
                    }
                    return Err(e);
                }
            };
            new_sorted.push(group);
            offset = end;
        }
        self.sorted = new_sorted;
        self.unsorted.clear();
        self.buffer =
            self.schema.columns().iter().map(|c| ColumnData::new(c.data_type)).collect();
        Ok((n as u64, old_blocks))
    }

    /// Compute full table statistics (ANALYZE) for this slice.
    pub fn analyze(&self, store: &dyn BlockStore) -> Result<TableStats> {
        let all: Vec<usize> = (0..self.schema.len()).collect();
        let scanned = self.scan(store, &all, None)?;
        let mut b = TableStats::new(self.schema.len());
        for batch in &scanned.batches {
            b.update(batch);
        }
        Ok(b)
    }

    /// Serialize the slice-table metadata (not the blocks) for snapshots.
    pub fn encode_meta(&self, w: &mut Writer) {
        self.schema.encode(w);
        w.put_u32(self.config.rows_per_group as u32);
        w.put_bool(self.config.auto_compress);
        match &self.config.sort_key {
            SortKeySpec::None => w.put_u8(0),
            SortKeySpec::Compound(c) => {
                w.put_u8(1);
                w.put_u32(c.len() as u32);
                for &i in c {
                    w.put_u32(i as u32);
                }
            }
            SortKeySpec::Interleaved(c) => {
                w.put_u8(2);
                w.put_u32(c.len() as u32);
                for &i in c {
                    w.put_u32(i as u32);
                }
            }
        }
        match &self.encodings {
            Some(encs) => {
                w.put_bool(true);
                w.put_u32(encs.len() as u32);
                for e in encs {
                    w.put_u8(e.tag());
                }
            }
            None => w.put_bool(false),
        }
        for region in [&self.sorted, &self.unsorted] {
            w.put_u32(region.len() as u32);
            for g in region {
                w.put_u32(g.rows);
                w.put_u32(g.cols.len() as u32);
                for b in &g.cols {
                    w.put_u64(b.id.0);
                    b.zone.encode(w);
                }
                match g.z_range {
                    Some((a, b)) => {
                        w.put_bool(true);
                        w.put_i128(a as i128);
                        w.put_i128(b as i128);
                    }
                    None => w.put_bool(false),
                }
            }
        }
        match &self.znorm {
            Some(norm) => {
                w.put_bool(true);
                w.put_u8(norm.dims.len() as u8);
                w.put_u8(norm.space.bits_per_dim() as u8);
                for (col, param) in &norm.dims {
                    w.put_u32(*col as u32);
                    match param {
                        NormParam::Int { min, max } => {
                            w.put_u8(0);
                            w.put_i64(*min);
                            w.put_i64(*max);
                        }
                        NormParam::Float { min, max } => {
                            w.put_u8(1);
                            w.put_f64(*min);
                            w.put_f64(*max);
                        }
                    }
                }
            }
            None => w.put_bool(false),
        }
    }

    /// Inverse of [`encode_meta`](Self::encode_meta). The blocks
    /// referenced must be resolvable through the store handed to later
    /// scans (streaming restore page-faults them in).
    pub fn decode_meta(r: &mut Reader) -> Result<SliceTable> {
        let schema = Schema::decode(r)?;
        let rows_per_group = r.get_u32()? as usize;
        let auto_compress = r.get_bool()?;
        let sort_key = match r.get_u8()? {
            0 => SortKeySpec::None,
            tag @ (1 | 2) => {
                let n = r.get_u32()? as usize;
                let mut cols = Vec::with_capacity(n);
                for _ in 0..n {
                    cols.push(r.get_u32()? as usize);
                }
                if tag == 1 {
                    SortKeySpec::Compound(cols)
                } else {
                    SortKeySpec::Interleaved(cols)
                }
            }
            t => return Err(RsError::Codec(format!("bad sort key tag {t}"))),
        };
        let encodings = if r.get_bool()? {
            let n = r.get_u32()? as usize;
            let mut encs = Vec::with_capacity(n);
            for _ in 0..n {
                encs.push(Encoding::from_tag(r.get_u8()?)?);
            }
            Some(encs)
        } else {
            None
        };
        let mut regions: Vec<Vec<RowGroup>> = Vec::with_capacity(2);
        for _ in 0..2 {
            let n_groups = r.get_u32()? as usize;
            let mut groups = Vec::with_capacity(n_groups);
            for _ in 0..n_groups {
                let rows = r.get_u32()?;
                let n_cols = r.get_u32()? as usize;
                let mut cols = Vec::with_capacity(n_cols);
                for _ in 0..n_cols {
                    let id = BlockId(r.get_u64()?);
                    let zone = ZoneMap::decode(r)?;
                    cols.push(BlockRef { id, zone });
                }
                let z_range = if r.get_bool()? {
                    Some((r.get_i128()? as u128, r.get_i128()? as u128))
                } else {
                    None
                };
                groups.push(RowGroup { rows, cols, z_range });
            }
            regions.push(groups);
        }
        let unsorted = regions.pop().expect("two regions");
        let sorted = regions.pop().expect("two regions");
        let znorm = if r.get_bool()? {
            let ndims = r.get_u8()? as usize;
            let bits = r.get_u8()? as u32;
            let mut dims = Vec::with_capacity(ndims);
            for _ in 0..ndims {
                let col = r.get_u32()? as usize;
                let param = match r.get_u8()? {
                    0 => NormParam::Int { min: r.get_i64()?, max: r.get_i64()? },
                    1 => NormParam::Float { min: r.get_f64()?, max: r.get_f64()? },
                    t => return Err(RsError::Codec(format!("bad norm tag {t}"))),
                };
                dims.push((col, param));
            }
            Some(ZNorm { space: ZSpace::with_bits(ndims, bits), dims })
        } else {
            None
        };
        let buffer = schema.columns().iter().map(|c| ColumnData::new(c.data_type)).collect();
        Ok(SliceTable {
            schema,
            config: TableConfig { rows_per_group, sort_key, auto_compress },
            encodings,
            sorted,
            unsorted,
            buffer,
            znorm,
        })
    }
}

fn build_znorm(keys: &[usize], cols: &[ColumnData]) -> Result<ZNorm> {
    // Bits per dim chosen by the space; dims from per-column min/max.
    let space = ZSpace::new(keys.len());
    let mut dims = Vec::with_capacity(keys.len());
    for &k in keys {
        let param = match cols[k].data_type() {
            DataType::Float8 => {
                let (mn, mx) = match cols[k].min_max() {
                    Some((a, b)) => (a.as_f64().unwrap_or(0.0), b.as_f64().unwrap_or(0.0)),
                    None => (0.0, 0.0),
                };
                NormParam::Float { min: mn, max: mx }
            }
            ty if ty.is_integer() || matches!(ty, DataType::Date | DataType::Timestamp) => {
                let (mn, mx) = match cols[k].min_max() {
                    Some((a, b)) => (a.as_i64().unwrap_or(0), b.as_i64().unwrap_or(0)),
                    None => (0, 0),
                };
                NormParam::Int { min: mn, max: mx }
            }
            DataType::Decimal(_, _) => {
                let (mn, mx) = match cols[k].min_max() {
                    Some((a, b)) => (a.as_f64().unwrap_or(0.0), b.as_f64().unwrap_or(0.0)),
                    None => (0.0, 0.0),
                };
                NormParam::Float { min: mn, max: mx }
            }
            ty => {
                return Err(RsError::Unsupported(format!(
                    "interleaved sort key on {ty} not supported"
                )))
            }
        };
        dims.push((k, param));
    }
    Ok(ZNorm { space, dims })
}

fn normalize_value(param: &NormParam, v: &Value, bits: u32) -> u32 {
    match param {
        NormParam::Int { min, max } => normalize_i64(v.as_i64().unwrap_or(*min), *min, *max, bits),
        NormParam::Float { min, max } => {
            normalize_f64(v.as_f64().unwrap_or(*min), *min, *max, bits)
        }
    }
}

fn zcode_of_row(norm: &ZNorm, cols: &[ColumnData], row: usize) -> u128 {
    let coords: Vec<u32> = norm
        .dims
        .iter()
        .map(|(col, param)| {
            if cols[*col].is_null(row) {
                // NULLs sort to the origin cell.
                0
            } else {
                normalize_value(param, &cols[*col].get(row), norm.space.bits_per_dim())
            }
        })
        .collect();
    norm.space.encode(&coords)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemBlockStore;
    use redsim_common::ColumnDef;

    fn schema2() -> Schema {
        Schema::new(vec![
            ColumnDef::new("a", DataType::Int8),
            ColumnDef::new("b", DataType::Varchar),
        ])
        .unwrap()
    }

    fn batch(rows: std::ops::Range<i64>) -> Vec<ColumnData> {
        let mut a = ColumnData::new(DataType::Int8);
        let mut b = ColumnData::new(DataType::Varchar);
        for i in rows {
            a.push_value(&Value::Int8(i)).unwrap();
            b.push_value(&Value::Str(format!("row{i}"))).unwrap();
        }
        vec![a, b]
    }

    #[test]
    fn append_flush_scan_roundtrip() {
        let store = MemBlockStore::new();
        let mut t = SliceTable::new(
            schema2(),
            TableConfig { rows_per_group: 100, ..Default::default() },
        )
        .unwrap();
        t.append(&batch(0..250), &store).unwrap();
        assert_eq!(t.row_count(), 250);
        // 2 full groups encoded, 50 buffered.
        assert_eq!(t.unsorted_rows(), 250);
        t.flush(&store).unwrap();
        let out = t.scan(&store, &[0, 1], None).unwrap();
        let total: usize = out.batches.iter().map(|b| b[0].len()).sum();
        assert_eq!(total, 250);
        // Verify a value survived encode/decode.
        let first = &out.batches[0];
        assert_eq!(first[1].get_str(3), Some("row3"));
    }

    #[test]
    fn zone_map_pruning_on_sorted_data() {
        let store = MemBlockStore::new();
        let mut t = SliceTable::new(
            schema2(),
            TableConfig {
                rows_per_group: 100,
                sort_key: SortKeySpec::Compound(vec![0]),
                ..Default::default()
            },
        )
        .unwrap();
        t.append(&batch(0..1000), &store).unwrap();
        t.flush(&store).unwrap();
        t.vacuum(&store).unwrap();
        // Range predicate on the sort key hits exactly 1 of 10 groups.
        let pred = ScanPredicate {
            ranges: vec![ColumnRange {
                col: 0,
                lo: Some(Value::Int8(500)),
                hi: Some(Value::Int8(550)),
            }],
        };
        let out = t.scan(&store, &[0], Some(&pred)).unwrap();
        assert_eq!(out.groups_total, 10);
        assert!(out.groups_skipped >= 8, "skipped {}", out.groups_skipped);
        let total: usize = out.batches.iter().map(|b| b[0].len()).sum();
        assert!(total >= 51 && total <= 200);
    }

    #[test]
    fn no_pruning_on_random_data() {
        let store = MemBlockStore::new();
        let mut t = SliceTable::new(
            schema2(),
            TableConfig { rows_per_group: 100, ..Default::default() },
        )
        .unwrap();
        // Scatter values so every group spans the whole domain.
        let mut a = ColumnData::new(DataType::Int8);
        let mut b = ColumnData::new(DataType::Varchar);
        for i in 0..1000i64 {
            a.push_value(&Value::Int8((i * 2_654_435_761) % 1000)).unwrap();
            b.push_value(&Value::Str("x".into())).unwrap();
        }
        t.append(&[a, b], &store).unwrap();
        t.flush(&store).unwrap();
        let pred = ScanPredicate {
            ranges: vec![ColumnRange {
                col: 0,
                lo: Some(Value::Int8(500)),
                hi: Some(Value::Int8(501)),
            }],
        };
        let out = t.scan(&store, &[0], Some(&pred)).unwrap();
        assert_eq!(out.groups_skipped, 0);
    }

    #[test]
    fn vacuum_sorts_and_rewrites() {
        let store = MemBlockStore::new();
        let mut t = SliceTable::new(
            schema2(),
            TableConfig {
                rows_per_group: 64,
                sort_key: SortKeySpec::Compound(vec![0]),
                ..Default::default()
            },
        )
        .unwrap();
        // Load in reverse order.
        let mut a = ColumnData::new(DataType::Int8);
        let mut b = ColumnData::new(DataType::Varchar);
        for i in (0..500i64).rev() {
            a.push_value(&Value::Int8(i)).unwrap();
            b.push_value(&Value::Str(format!("r{i}"))).unwrap();
        }
        t.append(&[a, b], &store).unwrap();
        t.flush(&store).unwrap();
        let before_blocks = store.block_count();
        let rewritten = t.vacuum(&store).unwrap();
        assert_eq!(rewritten, 500);
        assert_eq!(t.unsorted_rows(), 0);
        assert!(store.block_count() <= before_blocks);
        // Scan comes back globally sorted.
        let out = t.scan(&store, &[0], None).unwrap();
        let mut all = Vec::new();
        for bch in &out.batches {
            for i in 0..bch[0].len() {
                all.push(bch[0].get_i64(i).unwrap());
            }
        }
        let mut expect = all.clone();
        expect.sort();
        assert_eq!(all, expect);
    }

    #[test]
    fn interleaved_prunes_on_any_dimension() {
        let store = MemBlockStore::new();
        let schema = Schema::new(vec![
            ColumnDef::new("x", DataType::Int8),
            ColumnDef::new("y", DataType::Int8),
        ])
        .unwrap();
        let mut t = SliceTable::new(
            schema,
            TableConfig {
                rows_per_group: 256,
                sort_key: SortKeySpec::Interleaved(vec![0, 1]),
                ..Default::default()
            },
        )
        .unwrap();
        let mut x = ColumnData::new(DataType::Int8);
        let mut y = ColumnData::new(DataType::Int8);
        for i in 0..4096i64 {
            x.push_value(&Value::Int8((i * 37) % 1024)).unwrap();
            y.push_value(&Value::Int8((i * 101) % 1024)).unwrap();
        }
        t.append(&[x, y], &store).unwrap();
        t.flush(&store).unwrap();
        t.vacuum(&store).unwrap();
        // Predicate on the *second* key column alone must still prune.
        let pred = ScanPredicate {
            ranges: vec![ColumnRange {
                col: 1,
                lo: Some(Value::Int8(0)),
                hi: Some(Value::Int8(63)),
            }],
        };
        let out = t.scan(&store, &[0, 1], Some(&pred)).unwrap();
        assert!(
            out.groups_skipped > 0,
            "interleaved sort should prune on non-leading column: {out:?}"
        );
        // Results are a superset of matching rows; verify none were lost.
        let mut matches = 0;
        for bch in &out.batches {
            for i in 0..bch[1].len() {
                if (0..=63).contains(&bch[1].get_i64(i).unwrap()) {
                    matches += 1;
                }
            }
        }
        assert_eq!(matches, 4096 / 1024 * 64, "every matching row present");
    }

    #[test]
    fn meta_roundtrip_preserves_scan() {
        let store = MemBlockStore::new();
        let mut t = SliceTable::new(
            schema2(),
            TableConfig {
                rows_per_group: 128,
                sort_key: SortKeySpec::Compound(vec![0]),
                ..Default::default()
            },
        )
        .unwrap();
        t.append(&batch(0..300), &store).unwrap();
        t.flush(&store).unwrap();
        t.vacuum(&store).unwrap();
        let mut w = Writer::new();
        t.encode_meta(&mut w);
        let bytes = w.into_bytes();
        let t2 = SliceTable::decode_meta(&mut Reader::new(&bytes)).unwrap();
        assert_eq!(t2.row_count(), 300);
        let out = t2.scan(&store, &[0, 1], None).unwrap();
        let total: usize = out.batches.iter().map(|b| b[0].len()).sum();
        assert_eq!(total, 300);
    }

    #[test]
    fn type_mismatch_on_append_rejected() {
        let store = MemBlockStore::new();
        let mut t = SliceTable::new(schema2(), TableConfig::default()).unwrap();
        let wrong = vec![ColumnData::new(DataType::Int4), ColumnData::new(DataType::Varchar)];
        assert!(t.append(&wrong, &store).is_err());
        let ragged = {
            let mut a = ColumnData::new(DataType::Int8);
            a.push_value(&Value::Int8(1)).unwrap();
            vec![a, ColumnData::new(DataType::Varchar)]
        };
        assert!(t.append(&ragged, &store).is_err());
    }

    #[test]
    fn interleaved_rejects_string_keys() {
        let schema = Schema::new(vec![ColumnDef::new("s", DataType::Varchar)]).unwrap();
        let cfg = TableConfig { sort_key: SortKeySpec::Interleaved(vec![0]), ..Default::default() };
        assert!(SliceTable::new(schema, cfg).is_err());
    }
}
