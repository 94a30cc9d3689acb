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
use crate::store::{BlockStore, Free};
use crate::zonemap::ZoneMap;
use redsim_common::codec::{Reader, Writer};
use redsim_common::{ColumnData, DataType, Result, RsError, Schema, Value};
use redsim_zorder::{normalize_f64, normalize_i64, ZSpace};
use std::sync::{Arc, OnceLock};

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

struct BlockRef {
    id: BlockId,
    zone: ZoneMap,
}

/// One row group: a block per column. Shared by every table version that
/// names it; when the last one drops, the group deletes its blocks.
struct RowGroup {
    rows: u32,
    cols: Vec<BlockRef>,
    /// z-code interval covered by this group (interleaved sorted region).
    z_range: Option<(u128, u128)>,
    /// How the group deletes its blocks: the handle of the store that
    /// wrote it, or of the cluster that adopted it. Unset, as a decoded
    /// image's groups are until adopted, it deletes nothing.
    free: OnceLock<Free>,
}

impl Drop for RowGroup {
    fn drop(&mut self) {
        if let Some(free) = self.free.get() {
            self.cols.iter().for_each(|b| free(b.id));
        }
    }
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

/// What a scan read: pruning telemetry for EXPLAIN. The rows themselves
/// went to the scan's sink, one surviving row group at a time.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ScanOutput {
    pub groups_total: usize,
    pub groups_skipped: usize,
    pub blocks_read: usize,
    pub bytes_read: u64,
}

/// Columnar storage of one table on one slice.
///
/// `Clone` is deliberate: a writer builds the table's next version on a
/// private copy of every slice. The copy shares the row groups (`Arc`s;
/// block payloads live in the store) and owns only its buffered tail. A
/// group deletes its blocks when the last copy naming it drops, so
/// whatever a write replaces or aborts frees itself once no version
/// names it.
#[derive(Clone)]
pub struct SliceTable {
    schema: Schema,
    config: TableConfig,
    /// Locked-in per-column encodings (chosen on first flush).
    encodings: Option<Vec<Encoding>>,
    sorted: Vec<Arc<RowGroup>>,
    unsorted: Vec<Arc<RowGroup>>,
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
        self.sorted.iter().map(|g| g.rows as u64).sum::<u64>() + self.unsorted_rows()
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
        // Each row is copied once, into the buffer; a buffer that fills to
        // a group is flushed whole, and the rest of the batch starts anew.
        let mut at = 0;
        while at < n {
            let have = self.buffer.first().map_or(0, |c| c.len());
            let take = (self.config.rows_per_group - have).min(n - at);
            self.buffer.iter_mut().zip(cols).for_each(|(buf, col)| buf.extend_range(col, at, at + take));
            at += take;
            if have + take == self.config.rows_per_group {
                self.flush(store)?;
            }
        }
        Ok(())
    }

    /// Flush any buffered partial group to the unsorted region.
    pub fn flush(&mut self, store: &dyn BlockStore) -> Result<()> {
        if self.buffer.first().map_or(0, |c| c.len()) == 0 {
            return Ok(());
        }
        let empty = self.schema.columns().iter().map(|c| ColumnData::new(c.data_type));
        let group_cols = std::mem::replace(&mut self.buffer, empty.collect());
        let group = self.encode_group(&group_cols, store)?;
        self.unsorted.push(Arc::new(group));
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

    /// Write `cols` as one row group, a block per column, that frees its
    /// blocks with `store`'s handle. On an error the part already written
    /// drops and frees itself.
    fn encode_group(&mut self, cols: &[ColumnData], store: &dyn BlockStore) -> Result<RowGroup> {
        self.ensure_encodings(cols);
        let encodings = self.encodings.clone().expect("set above");
        let rows = cols.first().map_or(0, |c| c.len()) as u32;
        let mut group = RowGroup {
            rows,
            cols: Vec::with_capacity(cols.len()),
            z_range: self.z_range_of(cols),
            free: store.free().map_or_else(OnceLock::new, OnceLock::from),
        };
        for (col, &enc) in cols.iter().zip(&encodings) {
            // The analyzer picks from a sample; data later in the load can
            // break a codec's data-dependent limits (dict overflow). Fall
            // back to Raw rather than failing the load.
            let payload = encode_column(col, enc).or_else(|_| encode_column(col, Encoding::Raw))?;
            let zone = ZoneMap::build(col);
            let block = EncodedBlock::new(rows, payload);
            let id = block.id;
            if let Err(e) = store.put(block) {
                // A failed put may have partially dual-written (mirror
                // primary ok, secondary refused → no placement record),
                // and no group names it: delete it from every node here.
                store.delete(id);
                return Err(e);
            }
            group.cols.push(BlockRef { id, zone });
        }
        Ok(group)
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

    /// Scan with projection and optional pruning predicate: each
    /// surviving row group is decoded and handed to `sink` before the
    /// next is read, so one group's columns are alive at a time. The
    /// first error, the sink's included, ends the scan.
    pub fn scan(
        &self,
        store: &dyn BlockStore,
        projection: &[usize],
        pred: Option<&ScanPredicate>,
        mut sink: impl FnMut(Vec<ColumnData>) -> Result<()>,
    ) -> Result<ScanOutput> {
        if let Some(ci) = projection.iter().find(|&&ci| ci >= self.schema.len()) {
            return Err(RsError::Analysis(format!("projection column {ci} out of range")));
        }
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
                let blk = store.get(group.cols[ci].id)?;
                out.blocks_read += 1;
                out.bytes_read += blk.byte_size() as u64;
                let col = decode_column(&blk.payload, Some(self.schema.column(ci).data_type))?;
                batch.push(col);
            }
            sink(batch)?;
        }
        // Buffered rows are always visible (they have no zone maps yet).
        let buffered = self.buffer.first().map_or(0, |c| c.len());
        if buffered > 0 {
            out.groups_total += 1;
            sink(projection.iter().map(|&ci| self.buffer[ci].clone()).collect())?;
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
    /// the number of rows rewritten. The replaced groups free their blocks
    /// when the last version naming them drops: at once if this table was
    /// their only holder, after the commit that replaces the published
    /// version if this is a writer's copy — so a crash on either side of
    /// that commit leaves one complete, readable block set. On error the
    /// table is untouched, and the new groups already written free
    /// themselves.
    pub fn vacuum(&mut self, store: &dyn BlockStore) -> Result<u64> {
        // Materialize everything.
        let all_cols_idx: Vec<usize> = (0..self.schema.len()).collect();
        let mut full: Vec<ColumnData> =
            self.schema.columns().iter().map(|c| ColumnData::new(c.data_type)).collect();
        self.scan(store, &all_cols_idx, None, |batch| {
            full.iter_mut().zip(&batch).for_each(|(acc, col)| acc.append(col));
            Ok(())
        })?;
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

        // Rewrite into new groups staged in a local vec, under the new
        // norm (their z-ranges); an error puts back the norm and the
        // encodings the rewrite may have set, so `self` is as it was.
        let kept = (self.znorm.clone(), self.encodings.clone());
        if let Some(norm) = new_znorm {
            self.znorm = Some(norm);
        }
        let mut new_sorted = Vec::new();
        let mut offset = 0usize;
        while offset < n {
            let end = (offset + self.config.rows_per_group).min(n);
            let group_cols: Vec<ColumnData> =
                sorted_cols.iter().map(|c| c.slice(offset, end)).collect();
            match self.encode_group(&group_cols, store) {
                Ok(group) => new_sorted.push(Arc::new(group)),
                Err(e) => {
                    (self.znorm, self.encodings) = kept;
                    return Err(e);
                }
            }
            offset = end;
        }
        self.sorted = new_sorted;
        self.unsorted.clear();
        self.buffer =
            self.schema.columns().iter().map(|c| ColumnData::new(c.data_type)).collect();
        Ok(n as u64)
    }

    /// Hand every row group `store`'s freeing handle, unless it has one:
    /// how a cluster takes over a decoded image, whose groups delete
    /// nothing until adopted.
    pub fn adopt(&self, store: &dyn BlockStore) {
        if let Some(free) = store.free() {
            for group in self.sorted.iter().chain(&self.unsorted) {
                let _ = group.free.set(Arc::clone(&free));
            }
        }
    }

    /// Compute full table statistics (ANALYZE) for this slice.
    pub fn analyze(&self, store: &dyn BlockStore) -> Result<TableStats> {
        let all: Vec<usize> = (0..self.schema.len()).collect();
        let mut b = TableStats::new(self.schema.len());
        self.scan(store, &all, None, |batch| {
            b.update(&batch);
            Ok(())
        })?;
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
    /// scans (streaming restore page-faults them in). The groups are inert
    /// — dropping them deletes nothing — until [`SliceTable::adopt`]ed.
    pub fn decode_meta(r: &mut Reader) -> Result<SliceTable> {
        let schema = Schema::decode(r)?;
        let rows_per_group = r.get_u32()? as usize;
        let auto_compress = r.get_bool()?;
        let sort_key = match r.get_u8()? {
            0 => SortKeySpec::None,
            tag @ (1 | 2) => {
                let n = r.get_count(4)?;
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
            let n = r.get_count(1)?;
            let mut encs = Vec::with_capacity(n);
            for _ in 0..n {
                encs.push(Encoding::from_tag(r.get_u8()?)?);
            }
            Some(encs)
        } else {
            None
        };
        let mut regions: Vec<Vec<Arc<RowGroup>>> = Vec::with_capacity(2);
        // A group is at least rows, a column count and the z-range flag; a
        // column a block id and a zone map's two flags and two counts.
        for _ in 0..2 {
            let n_groups = r.get_count(9)?;
            let mut groups = Vec::with_capacity(n_groups);
            for _ in 0..n_groups {
                let rows = r.get_u32()?;
                let n_cols = r.get_count(18)?;
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
                groups.push(Arc::new(RowGroup { rows, cols, z_range, free: OnceLock::new() }));
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

    /// A scan's pruning counters and every batch its sink was handed.
    #[derive(Debug)]
    struct Scanned {
        batches: Vec<Vec<ColumnData>>,
        groups_total: usize,
        groups_skipped: usize,
        bytes_read: u64,
    }

    fn scan_all(
        t: &SliceTable,
        store: &dyn BlockStore,
        projection: &[usize],
        pred: Option<&ScanPredicate>,
    ) -> Scanned {
        let mut batches = Vec::new();
        let out = t
            .scan(store, projection, pred, |b| {
                batches.push(b);
                Ok(())
            })
            .unwrap();
        Scanned {
            batches,
            groups_total: out.groups_total,
            groups_skipped: out.groups_skipped,
            bytes_read: out.bytes_read,
        }
    }

    /// `lo <= col <= hi` on one column.
    fn range(col: usize, lo: i64, hi: i64) -> ScanPredicate {
        ScanPredicate {
            ranges: vec![ColumnRange { col, lo: Some(Value::Int8(lo)), hi: Some(Value::Int8(hi)) }],
        }
    }

    /// Values of column `col` of every scanned batch inside `lo..=hi`.
    fn rows_in(out: &Scanned, col: usize, lo: i64, hi: i64) -> usize {
        let in_range = |b: &Vec<ColumnData>| {
            (0..b[col].len()).filter(|&i| (lo..=hi).contains(&b[col].get_i64(i).unwrap())).count()
        };
        out.batches.iter().map(in_range).sum()
    }

    #[test]
    fn projection_out_of_range_is_an_error_not_a_panic() {
        let store = MemBlockStore::new();
        let cfg = || TableConfig {
            rows_per_group: 100,
            sort_key: SortKeySpec::Compound(vec![0]),
            ..Default::default()
        };
        let out_of_range = |t: &SliceTable, pred: Option<&ScanPredicate>| {
            let r = t.scan(&store, &[0, 2], pred, |_| Ok(()));
            assert!(matches!(r, Err(RsError::Analysis(_))), "{r:?}");
        };
        // Only buffered rows: no row group for an in-loop check to see.
        let mut buffered = SliceTable::new(schema2(), cfg()).unwrap();
        buffered.append(&batch(0..10), &store).unwrap();
        out_of_range(&buffered, None);
        // Every group pruned, rows still buffered.
        let mut pruned = SliceTable::new(schema2(), cfg()).unwrap();
        pruned.append(&batch(0..250), &store).unwrap();
        let nothing = ScanPredicate {
            ranges: vec![ColumnRange { col: 0, lo: Some(Value::Int8(10_000)), hi: None }],
        };
        out_of_range(&pruned, Some(&nothing));
    }

    /// A `u32::MAX` sort-key, encoding, group or group-column count in a
    /// slice manifest is a typed error, not an allocation that aborts the
    /// process.
    #[test]
    fn a_corrupt_count_is_a_codec_error() {
        let manifest = |tail: &dyn Fn(&mut Writer)| {
            let mut w = Writer::new();
            schema2().encode(&mut w);
            w.put_u32(100); // rows per group
            w.put_bool(true); // auto-compress
            tail(&mut w);
            w.into_bytes()
        };
        let max = u32::MAX;
        let sort_key = manifest(&|w| {
            w.put_u8(1); // compound
            w.put_u32(max);
        });
        let encodings = manifest(&|w| {
            w.put_u8(0); // no sort key
            w.put_bool(true);
            w.put_u32(max);
        });
        let groups = manifest(&|w| {
            w.put_u8(0);
            w.put_bool(false); // encodings not locked
            w.put_u32(max);
        });
        let group_columns = manifest(&|w| {
            w.put_u8(0);
            w.put_bool(false);
            [1, 100, max].into_iter().for_each(|v| w.put_u32(v)); // one group of 100 rows
        });
        for (what, bytes) in [
            ("sort key", sort_key),
            ("encodings", encodings),
            ("groups", groups),
            ("columns", group_columns),
        ] {
            let err = SliceTable::decode_meta(&mut Reader::new(&bytes)).err().expect(what);
            assert!(matches!(err, RsError::Codec(_)), "{what}: {err}");
        }
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
        let out = scan_all(&t, &store, &[0, 1], None);
        let total: usize = out.batches.iter().map(|b| b[0].len()).sum();
        assert_eq!(total, 250);
        // Verify a value survived encode/decode.
        let first = &out.batches[0];
        assert_eq!(first[1].get_str(3), Some("row3"));
    }

    /// E10's table (§6: zone maps skip blocks in proportion to
    /// selectivity): 200 k BIGINT keys `0..200_000` in 4,096-row groups
    /// (49 of them) under `COMPOUND(k)`, loaded in key order and vacuumed,
    /// or hash-scattered and left unsorted so every group spans the domain.
    const E10_ROWS: i64 = 200_000;

    fn e10_table(sorted: bool) -> (MemBlockStore, SliceTable) {
        let store = MemBlockStore::new();
        let schema = Schema::new(vec![
            ColumnDef::new("k", DataType::Int8),
            ColumnDef::new("v", DataType::Int8),
        ])
        .unwrap();
        let cfg = TableConfig { sort_key: SortKeySpec::Compound(vec![0]), ..Default::default() };
        let mut t = SliceTable::new(schema, cfg).unwrap();
        let mut k = ColumnData::new(DataType::Int8);
        let mut v = ColumnData::new(DataType::Int8);
        for i in 0..E10_ROWS {
            // 2,654,435,761 is prime to 200,000: the scatter is a permutation.
            let key = if sorted { i } else { i * 2_654_435_761 % E10_ROWS };
            k.push_value(&Value::Int8(key)).unwrap();
            v.push_value(&Value::Int8(key * 2)).unwrap();
        }
        t.append(&[k, v], &store).unwrap();
        t.flush(&store).unwrap();
        if sorted {
            t.vacuum(&store).unwrap();
        }
        (store, t)
    }

    /// Scan `0 <= k <= E10_ROWS * pct / 100` for pct 1 / 10 / 50 / 100,
    /// check no matching row is lost, and return each scan.
    fn e10_sweep(sorted: bool) -> Vec<(i64, Scanned)> {
        let (store, t) = e10_table(sorted);
        [1, 10, 50, 100]
            .into_iter()
            .map(|pct| {
                let hi = E10_ROWS * pct / 100;
                let out = scan_all(&t, &store, &[0, 1], Some(&range(0, 0, hi)));
                assert_eq!(out.groups_total, 49);
                let want = (hi + 1).min(E10_ROWS) as usize;
                assert_eq!(rows_in(&out, 0, 0, hi), want, "{pct}%: every matching row present");
                (pct, out)
            })
            .collect()
    }

    #[test]
    fn zone_map_pruning_on_sorted_data() {
        // Measured: 48 / 44 / 24 / 0 groups skipped at 1 / 10 / 50 / 100 %.
        let mut last_bytes = 0;
        for (pct, out) in e10_sweep(true) {
            let floor = (out.groups_total as i64 * (100 - pct) / 100 - 1).max(0) as usize;
            assert!(
                out.groups_skipped >= floor,
                "{pct}%: skipped {} < {floor}",
                out.groups_skipped
            );
            assert!(out.bytes_read >= last_bytes, "{pct}%: bytes read fell as selectivity rose");
            last_bytes = out.bytes_read;
        }
    }

    #[test]
    fn no_pruning_on_random_data() {
        for (pct, out) in e10_sweep(false) {
            assert_eq!(out.groups_skipped, 0, "{pct}%: a scattered group was skipped");
        }
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
        let out = scan_all(&t, &store, &[0], None);
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

    /// E8 (§3.3: "a multidimensional index using z-curves degrades more
    /// gracefully … and still provides utility if leading columns are not
    /// specified"): 160 k rows of four BIGINT columns of xorshift values
    /// mod 1,024 in 2,048-row groups (79 of them), sorted three ways and
    /// probed with `100 <= col <= 160` (~6 %) on one column at a time.
    #[test]
    fn interleaved_prunes_on_any_dimension() {
        let mut cols: Vec<ColumnData> = (0..4).map(|_| ColumnData::new(DataType::Int8)).collect();
        let mut x = 0x243F_6A88_85A3_08D3u64;
        for _ in 0..160_000 {
            for c in cols.iter_mut() {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                c.push_value(&Value::Int8((x % 1_024) as i64)).unwrap();
            }
        }
        let matching: Vec<usize> = (0..4)
            .map(|c| {
                (0..cols[c].len())
                    .filter(|&i| (100..=160).contains(&cols[c].get_i64(i).unwrap()))
                    .count()
            })
            .collect();
        let keys = vec![0, 1, 2, 3];
        // Measured: none 0 / 0 / 0 / 0, compound 73 / 0 / 0 / 0,
        // interleaved 35 / 39 / 42 / 51 groups skipped on a / b / c / d.
        for sort_key in
            [SortKeySpec::None, SortKeySpec::Compound(keys.clone()), SortKeySpec::Interleaved(keys)]
        {
            let store = MemBlockStore::new();
            let schema = Schema::new(
                ["a", "b", "c", "d"].map(|n| ColumnDef::new(n, DataType::Int8)).to_vec(),
            )
            .unwrap();
            let cfg = TableConfig {
                rows_per_group: 2_048,
                sort_key: sort_key.clone(),
                ..Default::default()
            };
            let mut t = SliceTable::new(schema, cfg).unwrap();
            t.append(&cols, &store).unwrap();
            t.flush(&store).unwrap();
            t.vacuum(&store).unwrap();
            let skipped: Vec<usize> = (0..4)
                .map(|c| {
                    let out = scan_all(&t, &store, &[c], Some(&range(c, 100, 160)));
                    assert_eq!(out.groups_total, 79);
                    // Pruned scans return a superset of the matching rows.
                    assert_eq!(rows_in(&out, 0, 100, 160), matching[c], "{sort_key:?} col {c}");
                    out.groups_skipped
                })
                .collect();
            match sort_key {
                SortKeySpec::None => assert_eq!(skipped, [0, 0, 0, 0]),
                // Perfect on the leading column, useless off the prefix.
                SortKeySpec::Compound(_) => {
                    assert!(skipped[0] >= 70, "{skipped:?}");
                    assert_eq!(skipped[1..], [0, 0, 0], "{skipped:?}");
                }
                // The z-curve prunes on every column.
                SortKeySpec::Interleaved(_) => {
                    assert!(skipped.iter().all(|&n| n >= 30), "{skipped:?}")
                }
            }
        }
    }

    /// `inner`, refusing its `refuse`th `put` (counting from 1).
    struct RefusesPut {
        inner: MemBlockStore,
        puts: std::sync::atomic::AtomicUsize,
        refuse: usize,
    }

    impl BlockStore for RefusesPut {
        fn put(&self, block: EncodedBlock) -> Result<()> {
            let n = self.puts.fetch_add(1, std::sync::atomic::Ordering::Relaxed) + 1;
            if n == self.refuse {
                return Err(RsError::FaultInjected(format!("put {n} refused")));
            }
            self.inner.put(block)
        }

        fn get(&self, id: BlockId) -> Result<Arc<EncodedBlock>> {
            self.inner.get(id)
        }

        fn delete(&self, id: BlockId) {
            self.inner.delete(id)
        }

        fn contains(&self, id: BlockId) -> bool {
            self.inner.contains(id)
        }

        fn block_count(&self) -> usize {
            self.inner.block_count()
        }

        fn total_bytes(&self) -> u64 {
            self.inner.total_bytes()
        }

        fn free(&self) -> Option<Free> {
            self.inner.free()
        }
    }

    /// A VACUUM that fails leaves the table as it was, its z-norm
    /// included: the norm computed for the rewrite must not outlive it
    /// over groups whose z-ranges were cut under the old one, or pruning
    /// drops matching rows. Its new groups free their blocks.
    #[test]
    fn a_failed_vacuum_keeps_the_z_norm() {
        let store =
            RefusesPut { inner: MemBlockStore::new(), puts: Default::default(), refuse: 5 };
        let schema = Schema::new(vec![
            ColumnDef::new("x", DataType::Int8),
            ColumnDef::new("y", DataType::Int8),
        ])
        .unwrap();
        let cfg = TableConfig {
            rows_per_group: 16,
            sort_key: SortKeySpec::Interleaved(vec![0, 1]),
            ..Default::default()
        };
        let mut t = SliceTable::new(schema, cfg).unwrap();
        let rows = |keys: std::ops::Range<i64>| -> Vec<ColumnData> {
            let (mut x, mut y) = (ColumnData::new(DataType::Int8), ColumnData::new(DataType::Int8));
            for i in keys {
                x.push_value(&Value::Int8(i * 7 % 100 + i / 100 * 100)).unwrap();
                y.push_value(&Value::Int8(i)).unwrap();
            }
            vec![x, y]
        };
        t.append(&rows(0..100), &store.inner).unwrap();
        t.vacuum(&store.inner).unwrap();
        t.append(&rows(100..300), &store.inner).unwrap();
        t.flush(&store.inner).unwrap();
        let (blocks, ids) = (store.inner.block_count(), t.block_ids());
        let err = t.vacuum(&store).unwrap_err();
        assert!(matches!(err, RsError::FaultInjected(_)), "{err}");
        assert_eq!((store.inner.block_count(), t.block_ids()), (blocks, ids), "the rewrite leaked");
        let out = scan_all(&t, &store.inner, &[0], Some(&range(0, 0, 50)));
        assert_eq!(rows_in(&out, 0, 0, 50), 51, "pruning dropped matching rows");
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
        let out = scan_all(&t2, &store, &[0, 1], None);
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
