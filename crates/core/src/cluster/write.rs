//! The write path: the transaction protocol (`write_txn` → table
//! `writer` → publication; DESIGN.md §15), the [`Draft`] every statement
//! builds its next catalog in and the one commit that logs and publishes
//! it, and the statements themselves — CREATE / DROP / INSERT / COPY.

use super::compute::parallel_map;
use super::{Cluster, ExecSummary};
use crate::catalog::{Catalog, TableEntry, TableVersion, TableWriter};
use crate::loader;
use crate::session::SessionCtx;
use redsim_common::{ColumnData, ColumnDef, Result, RsError, Schema, Value};
use redsim_distribution::DistStyle;
use redsim_obs::AttrValue;
use redsim_sql::{ast, Binder, BoundExpr};
use redsim_storage::stats::TableStats;
use redsim_storage::table::SortKeySpec;
use redsim_testkit::par;
use redsim_testkit::sync::{RwLockReadGuard, RwLockWriteGuard};
use std::sync::Arc;

/// Bytes of source text in one COPY unit (carried on to a line end): what
/// one worker parses at a time, so a load holds units, not the load.
const COPY_UNIT_BYTES: usize = 256 << 10;

/// The locks a [`Draft`] holds (DESIGN.md §15). Dropping the draft
/// releases them; they carry no rollback duty — the unpublished
/// catalog's row groups free their own blocks, and the WAL protocol
/// keeps durability.
enum Scope<'a> {
    /// A table writer (COPY, INSERT, `VACUUM t`, `ANALYZE t`): the shared
    /// `write_txn` and its table's writer.
    Table { writer: TableWriter, _shared: RwLockReadGuard<'a, ()> },
    /// A statement that changes table definitions or needs the whole
    /// catalog (CREATE, DROP, `redistribute_all`, snapshot, key
    /// rotation, restore, resize): the exclusive `write_txn`.
    Exclusive { _write_txn: RwLockWriteGuard<'a, ()> },
}

/// Parse the hex form back into a key.
fn parse_hex_key(hex: &str) -> Result<redsim_crypto::Key> {
    let hex = hex.trim();
    if hex.len() != 32 || !hex.chars().all(|c| c.is_ascii_hexdigit()) {
        return Err(RsError::Crypto("ENCRYPTED expects a 32-hex-digit (128-bit) key".into()));
    }
    let mut words = [0u32; 4];
    for (i, w) in words.iter_mut().enumerate() {
        *w = u32::from_str_radix(&hex[i * 8..i * 8 + 8], 16)
            .map_err(|_| RsError::Crypto("invalid hex key".into()))?;
    }
    Ok(redsim_crypto::Key(words))
}

/// A statement's next catalog under construction: a private clone of the
/// published one — a name → `Arc` map; a table's version is copied on its
/// first change — that the statement appends into, vacuums, re-analyzes,
/// creates or drops tables in with no lock but its scope (its table's
/// writer, or the exclusive `write_txn`), which makes it the only writer
/// of everything it changes.
///
/// [`Draft::commit`] logs and publishes it. Every other exit path,
/// panics included, drops it, and that is the whole abort: nobody else
/// ever saw the draft, so all there is to undo is the blocks it wrote,
/// and the row groups only the draft named delete them as it drops
/// ("data loads are transactional", §2.1).
pub(super) struct Draft<'a> {
    cluster: &'a Cluster,
    pub txn: u64,
    /// A table writer's draft changes only its table: logged as a redo
    /// delta and published over whatever catalog is current by then. An
    /// exclusive draft is logged as a checkpoint and published whole.
    scope: Scope<'a>,
    pub next: Catalog,
    published: bool,
}

/// Why a table writer's table is in every catalog it sees: DROP waits
/// on the shared `write_txn` the writer holds.
const WRITER_TABLE: &str = "a table writer's table outlives its statement";

impl Draft<'_> {
    /// A table writer's table, as the draft has it.
    pub fn table(&self) -> (&TableEntry, &TableVersion) {
        let entry = self.entry().expect("a table writer's draft");
        (entry, self.next.get(&entry.name).expect(WRITER_TABLE).1)
    }

    /// A table writer's table, its version copied on first change.
    pub fn table_mut(&mut self) -> (&TableEntry, &mut TableVersion) {
        let Scope::Table { writer, .. } = &self.scope else { panic!("a table writer's draft") };
        let entry = writer.entry();
        (entry, Arc::make_mut(self.next.version_mut(&entry.name).expect(WRITER_TABLE)))
    }

    /// A table writer's table; `None` for an exclusive draft.
    fn entry(&self) -> Option<&TableEntry> {
        match &self.scope {
            Scope::Table { writer, .. } => Some(writer.entry()),
            Scope::Exclusive { .. } => None,
        }
    }

    /// Commit: log, then publish — the one way any statement's changes
    /// become durable and visible (DESIGN.md §11). Under the leader's
    /// publication lock: refuse if the cluster no longer takes writes (a
    /// resize has taken its snapshot); log, a table writer its table's
    /// redo delta, an exclusive statement its whole next catalog as a
    /// checkpoint; and publish it as transaction `txn`'s catalog. The
    /// blocks the replaced catalog names and the new one does not
    /// (VACUUM's old layout, a dropped table) are freed when the last
    /// catalog naming them drops — at once if no statement holds one — so
    /// neither a crash on either side of the commit mark nor a running
    /// scan loses a block. Any error returns before the publish, and the
    /// drop discards the draft. A table writer changes one table's
    /// version and redefines nothing.
    pub fn commit(mut self) -> Result<()> {
        let cluster = self.cluster;
        let _publication = cluster.leader.publication.lock();
        cluster.check_writable()?;
        let txn = self.txn;
        let mut next = match self.entry() {
            Some(entry) => {
                let version = Arc::clone(self.next.get(&entry.name).expect(WRITER_TABLE).1);
                cluster.durable.log_table_delta(txn, &entry.name, &version)?;
                // Holding the table's writer, only other tables can have
                // changed since the draft began.
                let mut next = Catalog::clone(&cluster.leader.catalog());
                *next.version_mut(&entry.name).expect(WRITER_TABLE) = version;
                next
            }
            None => {
                cluster.durable.log_checkpoint(txn, &self.next)?;
                std::mem::take(&mut self.next)
            }
        };
        next.version = txn;
        self.published = true;
        let next = Arc::new(next);
        let replaced = cluster.leader.publish(Arc::clone(&next));
        if self.entry().is_none() {
            let definitions =
                |c: &Catalog| c.tables().map(|(t, _)| Arc::as_ptr(t)).collect::<Vec<_>>();
            if definitions(&replaced) != definitions(&next) {
                // Plans bound against a table definition that changed
                // must not survive it (a re-created table with another
                // schema can produce a Debug-identical plan signature).
                cluster.leader.plan_cache.invalidate_all();
            }
        }
        Ok(())
    }
}

impl Drop for Draft<'_> {
    /// Abort counts a rollback; the draft's catalog then drops, and with
    /// it every row group only the draft named, which deletes its blocks
    /// from every replica — no published catalog ever named them, so no
    /// statement can be scanning them. (Under an armed hard crash they
    /// stay behind for recovery's orphan scrub.) A draft that changed
    /// nothing (`DROP TABLE IF EXISTS` of no table, a COPY of no objects)
    /// counts nothing: a table writer's draft is compared on its own
    /// table only, as other tables commit beside it.
    fn drop(&mut self) {
        if self.published {
            return;
        }
        let published = self.cluster.leader.catalog();
        let changed = match self.entry() {
            Some(entry) => {
                let version = |c: &Catalog| c.get(&entry.name).map(|(_, v)| Arc::as_ptr(v));
                version(&self.next) != version(&published)
            }
            None => !self.next.same_tables(&published),
        };
        if changed {
            self.cluster.trace().counter("write_txn.rollbacks").incr();
        }
    }
}

impl Cluster {
    /// Begin a table writer's draft of table `name` — COPY, INSERT,
    /// `VACUUM t` and `ANALYZE t` (DESIGN.md §15). Takes the *shared*
    /// `write_txn` before the lookup, so DROP cannot take the table away
    /// while the statement runs; then first-committer-wins on the table's
    /// writer, so same-table contention is the only thing that can fail
    /// — and it fails fast with a retryable [`RsError::Serializable`]
    /// instead of queueing, recorded in `txn.conflicts` /
    /// `stl_tr_conflict`. The draft starts from the catalog published
    /// once the writer is held, so it is current for its table.
    pub(super) fn begin_table(&self, name: &str) -> Result<Draft<'_>> {
        self.check_writable()?;
        let shared = self.write_txn.read();
        let catalog = self.leader.catalog();
        let (entry, _) =
            catalog.get(name).ok_or_else(|| RsError::NotFound(format!("relation {name:?}")))?;
        let txn = self.durable.next_txn();
        let Some(writer) = TableWriter::try_take(entry) else {
            self.trace().counter("txn.conflicts").incr();
            self.trace().span_completed(
                "tr_conflict",
                0,
                &[("table", AttrValue::Str(entry.name.clone())), ("xact_id", AttrValue::U64(txn))],
            );
            return Err(RsError::Serializable(format!(
                "1023: serializable isolation violation on table {:?} — a concurrent write \
                 transaction is in progress; retry the statement",
                entry.name
            )));
        };
        let next = Catalog::clone(&self.leader.catalog());
        let scope = Scope::Table { writer, _shared: shared };
        Ok(Draft { cluster: self, txn, scope, next, published: false })
    }

    /// Begin an exclusive draft: the exclusive `write_txn` waits out
    /// in-flight table writers (never readers), so no draft but this one
    /// exists, the whole-catalog checkpoint its commit logs is consistent,
    /// and key rotation never overlaps a block-key insert. The draft
    /// starts from the catalog published once the lock is held.
    pub(super) fn begin_exclusive(&self) -> Draft<'_> {
        let txn = self.durable.next_txn();
        let scope = Scope::Exclusive { _write_txn: self.write_txn.write() };
        let next = Catalog::clone(&self.leader.catalog());
        Draft { cluster: self, txn, scope, next, published: false }
    }

    pub(super) fn run_create_table(&self, ct: ast::CreateTable) -> Result<ExecSummary> {
        self.check_writable()?;
        let mut draft = self.begin_exclusive();
        let columns = ct.columns.iter().map(|c| ColumnDef {
            name: c.name.clone(),
            data_type: c.data_type,
            nullable: !c.not_null,
        });
        let schema = Schema::new(columns.collect())?;
        let index_of = |col: &String, clause: &str| {
            schema
                .index_of(col)
                .ok_or_else(|| RsError::Analysis(format!("{clause} column {col:?} unknown")))
        };
        let dist_style = match &ct.dist_style {
            ast::DistStyleSpec::Auto | ast::DistStyleSpec::Even => DistStyle::Even,
            ast::DistStyleSpec::All => DistStyle::All,
            ast::DistStyleSpec::Key(col) => DistStyle::Key(index_of(col, "DISTKEY")?),
        };
        let resolve = |cols: &[String]| -> Result<Vec<usize>> {
            cols.iter().map(|c| index_of(c, "SORTKEY")).collect()
        };
        let sort_key = match &ct.sort_key {
            ast::SortKeyAst::None => SortKeySpec::None,
            ast::SortKeyAst::Compound(cols) => SortKeySpec::Compound(resolve(cols)?),
            ast::SortKeyAst::Interleaved(cols) => SortKeySpec::Interleaved(resolve(cols)?),
        };
        draft.next.create(TableEntry::new(
            ct.name.clone(),
            schema,
            dist_style,
            sort_key,
            &self.compute.topology,
            self.config.rows_per_group,
        )?)?;
        draft.commit()?;
        Ok(ExecSummary { rows_affected: 0, message: format!("CREATE TABLE {}", ct.name) })
    }

    pub(super) fn run_drop_table(&self, name: &str, if_exists: bool) -> Result<ExecSummary> {
        self.check_writable()?;
        let mut draft = self.begin_exclusive();
        match draft.next.drop_table(name) {
            Ok(_) => draft.commit()?,
            Err(_) if if_exists => {
                // The draft is unchanged: dropping it rolls nothing back.
                return Ok(ExecSummary { rows_affected: 0, message: "DROP TABLE (skipped)".into() })
            }
            Err(e) => return Err(e),
        }
        Ok(ExecSummary { rows_affected: 0, message: format!("DROP TABLE {name}") })
    }

    pub(super) fn run_insert(&self, ins: ast::Insert) -> Result<ExecSummary> {
        let mut draft = self.begin_table(&ins.table)?;
        let entry = draft.table().0;
        // Map the column list (or full schema order).
        let target_cols: Vec<usize> = match &ins.columns {
            Some(cols) => cols
                .iter()
                .map(|c| {
                    entry
                        .schema
                        .index_of(c)
                        .ok_or_else(|| RsError::Analysis(format!("unknown column {c:?}")))
                })
                .collect::<Result<_>>()?,
            None => (0..entry.schema.len()).collect(),
        };
        let view = self.compute.reader(self.leader.catalog()); // VALUES reference no table
        let binder = Binder::new(&view);
        let mut batch: Vec<ColumnData> =
            entry.schema.columns().iter().map(|c| ColumnData::new(c.data_type)).collect();
        let n_rows = ins.rows.len() as u64;
        for row in &ins.rows {
            if row.len() != target_cols.len() {
                return Err(RsError::Analysis("VALUES arity mismatch".into()));
            }
            let mut full: Vec<Value> = vec![Value::Null; entry.schema.len()];
            for (expr, &ci) in row.iter().zip(&target_cols) {
                // A CAST to the column's type: strings parse, as in a query.
                let to = entry.schema.column(ci).data_type;
                let bound = BoundExpr::Cast { expr: Box::new(binder.bind_standalone(expr)?), to };
                full[ci] = redsim_engine::interp::eval_row(&bound, &[])?;
            }
            for (ci, v) in full.iter().enumerate() {
                if v.is_null() && !entry.schema.column(ci).nullable {
                    return Err(RsError::Analysis(format!(
                        "NULL in NOT NULL column {:?}",
                        entry.schema.column(ci).name
                    )));
                }
                batch[ci].push_value(v)?;
            }
        }
        // A partial multi-slice append (one slice encoded a group,
        // another errored) leaves no stray rows and no drifted
        // round-robin cursor: both live in the draft.
        let folded = TableStats::of(&batch);
        let (entry, next) = draft.table_mut();
        self.compute.append(entry, next, batch, true)?;
        next.state.rows_estimate += n_rows;
        next.fold_stats(&folded);
        draft.commit()?;
        Ok(ExecSummary { rows_affected: n_rows, message: format!("INSERT 0 {n_rows}") })
    }

    pub(super) fn run_copy(&self, c: ast::Copy, ctx: &SessionCtx) -> Result<ExecSummary> {
        let mut draft = self.begin_table(&c.table)?;
        // `s3://prefix` → object listing in the home region.
        let prefix = c
            .source
            .strip_prefix("s3://")
            .ok_or_else(|| RsError::Unsupported("COPY sources must be s3:// URIs".into()))?;
        let keys = self.s3().list(&self.config.region, prefix);
        if keys.is_empty() {
            return Err(RsError::NotFound(format!("no objects under s3://{prefix}")));
        }
        let mut span = self.trace().span("copy");
        span.attr("table", c.table.clone());
        span.attr("objects", keys.len());
        // All-or-nothing from here on ("data loads are transactional",
        // §2.1): slices, cursor and counters change in the draft only,
        // and any error below drops it and deletes the statement's
        // blocks from every replica.
        let (entry, next) = draft.table_mut();
        // COMPUPDATE governs automatic compression analysis on first
        // load; an unspecified statement falls back to the session's
        // default (SET compupdate). A per-statement override: the table's
        // flags go back before the commit logs the image, and an abort
        // drops the flipped copy.
        let comp_update = c.comp_update.unwrap_or(ctx.comp_update_default);
        let table_flags: Vec<bool> = next.slices.iter().map(|s| s.auto_compress()).collect();
        for s in &mut next.slices {
            s.set_auto_compress(comp_update);
        }
        if comp_update {
            // First flush samples the data and locks per-column encodings.
            span.event_with(
                "copy.encoding_sample",
                &[("table", AttrValue::Str(c.table.clone()))],
            );
        }
        // Client-side encrypted sources carry a hex key in the statement.
        let source_key = c.decrypt_key.as_deref().map(parse_hex_key).transpose()?;
        // Stream the load (DESIGN.md §17 "Load path"): fetch and decode
        // `width` objects at a time, one per worker; cut them into
        // line-aligned units; parse `width` units at a time, each with its
        // statistics partial under the running record's limits (before
        // routing: ALL rows count once); append each in source order while
        // the next round parses. The first error in source order stops the
        // stream once the units before it are appended, so an append error
        // among them still comes first.
        let width = par::available_workers();
        let append = |next: &mut TableVersion, pending: &mut Vec<Vec<ColumnData>>| {
            pending.drain(..).try_for_each(|cols| self.compute.append(entry, next, cols, false))
        };
        let (mut loaded, mut pending, mut failed) = (0u64, Vec::new(), None);
        let mut folded = next.state.stats.clone().unwrap_or(TableStats::new(entry.schema.len()));
        let mut aspan = span.child("copy.append");
        'load: for window in keys.chunks(width) {
            let fetched = par::map_indexed(window.len(), |o| -> Result<_> {
                let mut ospan = span.child("copy.object");
                ospan.attr("object", window[o].clone());
                let bytes = self.fetch_source(&window[o], c.compressed, source_key.as_ref())?;
                let units = loader::units(&bytes, COPY_UNIT_BYTES);
                Ok((ospan, bytes, units))
            });
            // The objects before the first that failed: their lines come
            // first, so their errors win over its.
            let mut objects = Vec::new();
            failed = fetched.into_iter().find_map(|f| f.map(|o| objects.push(o)).err());
            let work: Vec<(usize, loader::Unit)> = objects
                .iter()
                .enumerate()
                .flat_map(|(o, (_, _, units))| units.iter().map(move |u| (o, u.clone())))
                .collect();
            let parse = |(o, unit): (usize, loader::Unit), limits: &[u64]| -> Result<_> {
                let text = std::str::from_utf8(&objects[o].1[unit.bytes])
                    .map_err(|_| RsError::Analysis(format!("{}: not UTF-8", window[o])))?;
                let (line, schema) = (unit.first_line, &entry.schema);
                let cols = match c.format {
                    ast::CopyFormat::Csv => loader::parse_csv(text, line, c.delimiter, schema),
                    ast::CopyFormat::Json => loader::parse_json_lines(text, line, schema),
                }?;
                let stats = c.stat_update.then(|| TableStats::of_limited(&cols, limits));
                Ok((o, cols, stats))
            };
            let mut rows = vec![0u64; objects.len()];
            for batch in work.chunks(width) {
                let parse_batch = || parallel_map(batch.to_vec(), |u| parse(u, &folded.limits()));
                let (appended, parsed) = par::join(|| append(next, &mut pending), parse_batch);
                appended?;
                let stop = parsed.into_iter().try_for_each(|unit| {
                    let (o, cols, stats) = unit?;
                    let n = cols.first().map_or(0, |col| col.len()) as u64;
                    rows[o] += n;
                    loaded += n;
                    stats.iter().for_each(|s| folded.merge(s));
                    pending.push(cols);
                    Ok(())
                });
                if let Err(e) = stop {
                    // Earlier in source order than a failed fetch here.
                    failed = Some(e);
                    break 'load;
                }
            }
            for ((mut ospan, _, _), n) in objects.into_iter().zip(rows) {
                ospan.attr("rows", n);
            }
            if failed.is_some() {
                break;
            }
        }
        append(next, &mut pending)?;
        if let Some(e) = failed {
            return Err(e);
        }
        aspan.attr("rows", loaded);
        aspan.finish();
        let seal_span = span.child("copy.seal");
        let results = self.compute.seal(next, &seal_span);
        seal_span.finish();
        // Aggregate per-slice seal failures instead of dropping all but
        // the first: the returned error names every failed slice, and
        // its variant (→ retry class) is inherited from the first
        // failure so THROTTLE exhaustion stays visibly transient.
        let failures: Vec<(usize, RsError)> = results
            .into_iter()
            .enumerate()
            .filter_map(|(slice, r)| r.err().map(|e| (slice, e)))
            .collect();
        if !failures.is_empty() {
            self.trace().counter("copy.seal_errors").add(failures.len() as u64);
            let detail = failures
                .iter()
                .map(|(slice, e)| format!("slice {slice}: {e}"))
                .collect::<Vec<_>>()
                .join("; ");
            let n = failures.len();
            let total = next.slices.len();
            let first = failures.into_iter().next().expect("non-empty").1;
            return Err(first
                .with_note(&format!(" (COPY seal failed on {n} of {total} slices: [{detail}])")));
        }
        next.state.rows_estimate += loaded;
        // STATUPDATE: refresh optimizer statistics with the load (§2.1:
        // "By default, compression scheme and optimizer statistics are
        // updated with load"): the running record, the draft's with the
        // units' partials merged, is work proportional to the load, not
        // the table. Without it the rows count as stale for the advisor.
        if c.stat_update {
            let mut aspan = span.child("copy.analyze");
            next.state.stats = Some(folded);
            aspan.attr("rows", loaded);
        } else {
            next.state.loads_since_analyze += loaded;
        }
        span.attr("rows", loaded);
        span.finish();
        for (s, flag) in next.slices.iter_mut().zip(table_flags) {
            s.set_auto_compress(flag);
        }
        draft.commit()?;
        self.trace().counter("copy.rows_loaded").add(loaded);
        Ok(ExecSummary { rows_affected: loaded, message: format!("COPY {loaded}") })
    }

    /// One COPY source object's bytes: fetched through the
    /// `copy.fetch_object` failpoint under the cluster retry policy, then
    /// decrypted and decompressed (§2.1: "COPY also directly supports
    /// ingestion of … data that is encrypted and/or compressed"). A plain
    /// object is S3's own buffer, read in place.
    fn fetch_source(
        &self,
        key: &str,
        compressed: bool,
        source_key: Option<&redsim_crypto::Key>,
    ) -> Result<Arc<Vec<u8>>> {
        let mut bytes = self.config.retry.with_seed(self.config.seed).run_observed(
            "copy.fetch_object",
            || {
                redsim_replication::fire_no_skip(
                    self.faults(),
                    Some(self.trace()),
                    redsim_faultkit::fp::COPY_FETCH_OBJECT,
                )?;
                self.s3().get_traced(&self.config.region, key, Some(self.trace()))
            },
            redsim_replication::retry_observer(Some(Arc::clone(self.trace()))),
        )?;
        let bad = |e: RsError| RsError::Analysis(format!("{key}: {e}"));
        if let Some(k) = source_key {
            let enc = redsim_crypto::EncryptedPayload::deserialize(&bytes).map_err(bad)?;
            bytes = Arc::new(redsim_crypto::decrypt_payload(k, &enc).map_err(bad)?);
        }
        if compressed {
            bytes = Arc::new(redsim_storage::lzss::decompress(&bytes).map_err(bad)?);
        }
        Ok(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClusterConfig;
    use redsim_storage::{BlockId, Encoding};
    use std::collections::BTreeSet;

    fn small() -> Arc<Cluster> {
        Cluster::launch(ClusterConfig::new("w").nodes(2).slices_per_node(2)).unwrap()
    }

    /// while one transaction holds table `a`'s writer lock, a COPY into
    /// table `b` commits on the same thread (it could not if a global
    /// lock were held), and a write to `a` fails first-committer-wins
    /// with a retryable serializable conflict logged to stl_tr_conflict.
    #[test]
    fn table_writers_are_independent_and_conflicts_are_serializable() {
        let c = small();
        c.execute("CREATE TABLE a (k BIGINT)").unwrap();
        c.execute("CREATE TABLE b (k BIGINT)").unwrap();
        c.put_s3_object("w/a", b"1\n2\n".to_vec());
        c.put_s3_object("w/b", b"3\n4\n".to_vec());

        let held = c.begin_table("a").unwrap();

        // Independent table: commits while `a`'s writer mutex is held.
        let s = c.execute("COPY b FROM 's3://w/b'").unwrap();
        assert_eq!(s.rows_affected, 2);

        // Same table: first committer wins, loser told to retry.
        let err = c.execute("COPY a FROM 's3://w/a'").unwrap_err();
        assert!(matches!(err, RsError::Serializable(_)), "{err}");
        assert!(err.is_retryable(), "serializable conflicts are retryable");
        assert_eq!(c.trace().counter_value("txn.conflicts"), 1);
        drop(held);

        // Once the holder releases, the same statement goes through.
        assert_eq!(c.execute("COPY a FROM 's3://w/a'").unwrap().rows_affected, 2);
        let log = c.query("SELECT table_name FROM stl_tr_conflict").unwrap();
        assert_eq!(log.rows.len(), 1);
        assert_eq!(log.rows[0].get(0).as_str(), Some("a"));
    }

    fn ids(cols: std::ops::Range<i64>) -> Vec<ColumnData> {
        let mut k = ColumnData::new(redsim_common::DataType::Int8);
        cols.for_each(|i| k.push_value(&Value::Int8(i)).unwrap());
        vec![k]
    }

    /// `t`'s published blocks, and what every replica holds of them.
    fn storage(c: &Cluster, t: &str) -> (Vec<redsim_storage::BlockId>, Vec<u64>, u64) {
        let store = c.replicated_store().unwrap();
        let mut placed: Vec<u64> = store.placed_block_ids().iter().map(|id| id.0).collect();
        placed.sort_unstable();
        (c.committed(t).unwrap().block_ids(), placed, store.local_bytes())
    }

    /// Abort is `drop(draft)`: it deletes exactly the blocks the statement
    /// wrote, from every replica, and the published version — rows,
    /// manifests, encodings, cursor — was never touched to begin with.
    #[test]
    fn dropped_draft_deletes_exactly_its_blocks_on_every_replica() {
        let c = Cluster::launch(
            ClusterConfig::new("abort").nodes(2).slices_per_node(2).rows_per_group(100),
        )
        .unwrap();
        c.execute("CREATE TABLE t (k BIGINT)").unwrap();
        let load = |rows: std::ops::Range<i64>| -> Draft<'_> {
            let mut draft = c.begin_table("t").unwrap();
            let (entry, next) = draft.table_mut();
            next.slices.iter_mut().for_each(|s| s.set_auto_compress(false));
            c.compute.append(entry, next, ids(rows), false).unwrap();
            c.compute.seal(next, &redsim_obs::Span::disabled());
            draft
        };
        load(0..600).commit().unwrap();
        let base = c.committed("t").unwrap();
        let before = storage(&c, "t");
        assert_eq!(before.0.len(), before.1.len(), "every placed block is the table's");

        // A second load seals more groups on every slice, then aborts.
        let draft = load(600..1600);
        assert!(draft.next.block_ids().len() > before.0.len());
        assert!(c.replicated_store().unwrap().local_bytes() > before.2, "the draft's blocks exist");
        drop(draft);
        assert_eq!(storage(&c, "t"), before, "an aborted statement's blocks outlived it");
        let after = c.committed("t").unwrap();
        assert!(Arc::ptr_eq(&after, &base), "abort never replaces the published version");
        assert_eq!(c.trace().counter_value("write_txn.rollbacks"), 1);

        // The table is fully writable afterwards: the same rows re-load.
        load(600..1600).commit().unwrap();
        let q = c.query("SELECT COUNT(*), MAX(k) FROM t").unwrap();
        assert_eq!((q.rows[0].get(0).as_i64(), q.rows[0].get(1).as_i64()), (Some(1600), Some(1599)));
    }

    /// A statement that succeeds without changing anything has nothing to
    /// roll back and counts nothing.
    #[test]
    fn no_op_exclusive_statements_count_no_rollback() {
        let c = small();
        c.execute("DROP TABLE IF EXISTS nope").unwrap();
        c.execute("CREATE TABLE d (k BIGINT) DISTSTYLE ALL").unwrap();
        c.redistribute_all("d").unwrap();
        assert_eq!(c.trace().counter_value("write_txn.rollbacks"), 0);
    }

    /// A table writer that changed nothing counts no rollback when
    /// another table commits beside it: its draft is compared on its own
    /// table, not the whole catalog.
    #[test]
    fn an_untouched_table_draft_counts_no_rollback_beside_a_commit() {
        let c = small();
        c.execute("CREATE TABLE t (k BIGINT)").unwrap();
        c.execute("CREATE TABLE u (k BIGINT)").unwrap();
        c.put_s3_object("u/rows", b"1\n2\n".to_vec());
        let untouched = c.begin_table("t").unwrap();
        assert_eq!(c.execute("COPY u FROM 's3://u/'").unwrap().rows_affected, 2);
        drop(untouched);
        // So does a COPY of an empty prefix, refused before any change.
        let err = c.execute("COPY t FROM 's3://none/'").unwrap_err();
        assert!(matches!(err, RsError::NotFound(_)), "{err}");
        assert_eq!(c.trace().counter_value("write_txn.rollbacks"), 0);
    }

    /// Freeing follows catalog lifetime: a held catalog keeps every block
    /// it names placed across the commits that replace them, and releasing
    /// it frees them — after 10,000 catalogs were published and dropped
    /// past it, on a test thread's default stack.
    #[test]
    fn a_held_catalog_keeps_its_blocks_until_released() {
        let c = Cluster::launch(
            ClusterConfig::new("held").nodes(2).slices_per_node(1),
        )
        .unwrap();
        c.execute("CREATE TABLE t (k BIGINT) COMPOUND SORTKEY(k)").unwrap();
        c.execute("INSERT INTO t VALUES (9), (3), (7), (1), (5), (8), (2)").unwrap();
        let placed = || -> BTreeSet<BlockId> {
            c.replicated_store().unwrap().placed_block_ids().into_iter().collect()
        };
        let held = c.leader.catalog();
        // Each ANALYZE publishes a catalog that shares `held`'s row
        // groups, and the VACUUMs replace those groups with new ones.
        // `held` is then the last holder of its groups: they stay placed
        // until it drops, and each frees its own blocks then.
        for _ in 0..10_000 {
            c.execute("ANALYZE t").unwrap();
        }
        c.execute("VACUUM t").unwrap();
        for i in 0..200 {
            c.execute(&format!("INSERT INTO t VALUES ({i})")).unwrap();
        }
        c.execute("VACUUM t").unwrap();
        let before = placed();
        assert!(held.block_ids().iter().all(|id| before.contains(id)), "freed under its reader");
        let published: BTreeSet<BlockId> = c.leader.catalog().block_ids().into_iter().collect();
        assert!(before.len() > published.len(), "nothing was retired");
        drop(held);
        assert_eq!(placed(), published, "the release left retired blocks placed");
    }

    /// A block goes as soon as no held catalog names it, not once every
    /// older catalog has gone: a table created, loaded and dropped while
    /// a statement holds the catalog from before it leaves no block
    /// placed that the published catalog does not name.
    #[test]
    fn a_block_no_held_catalog_names_goes_at_once() {
        let c = small();
        let held = c.leader.catalog();
        c.execute("CREATE TABLE u (k BIGINT)").unwrap();
        c.execute("INSERT INTO u VALUES (1), (2)").unwrap();
        c.execute("DROP TABLE u").unwrap();
        let published: BTreeSet<BlockId> = c.leader.catalog().block_ids().into_iter().collect();
        let placed = c.replicated_store().unwrap().placed_block_ids();
        let unnamed: Vec<_> = placed.into_iter().filter(|id| !published.contains(id)).collect();
        assert_eq!(unnamed, [], "blocks no held catalog names stay placed");
        drop(held);
    }

    /// Encodings lock in on the first seal; aborting that first load must
    /// leave them unlocked so the next COPY's COMPUPDATE decides afresh.
    #[test]
    fn aborted_first_load_leaves_encodings_unlocked() {
        let c = Cluster::launch(
            ClusterConfig::new("first").nodes(1).slices_per_node(2).rows_per_group(100),
        )
        .unwrap();
        c.execute("CREATE TABLE t (k BIGINT)").unwrap();
        let mut draft = c.begin_table("t").unwrap();
        let (entry, next) = draft.table_mut();
        c.compute.append(entry, next, ids(0..300), false).unwrap();
        let locked = draft.table().1.slices.iter().all(|s| s.encodings().is_some());
        assert!(locked, "first seal locks them");
        drop(draft);
        let committed = c.committed("t").unwrap();
        assert!(committed.slices.iter().all(|s| s.encodings().is_none()));
        assert_eq!(committed.stored_rows(), (0, 0));
        assert_eq!(c.replicated_store().unwrap().placed_block_ids(), Vec::new());
    }

    /// COMPUPDATE is the statement's, not the table's: the override
    /// outlives neither a commit nor an abort, and never reaches the redo
    /// image a recovered cluster is rebuilt from.
    #[test]
    fn compupdate_override_dies_with_its_statement() {
        let c = small();
        c.execute("CREATE TABLE t (k BIGINT)").unwrap();
        c.put_s3_object("in/rows", b"1\n2\n3\n".to_vec());
        let flags = |c: &Cluster| -> Vec<bool> {
            c.committed("t").unwrap().slices.iter().map(|s| s.auto_compress()).collect()
        };
        let table_default = flags(&c);
        c.faults().configure(
            redsim_faultkit::fp::WAL_COMMIT,
            redsim_faultkit::FaultSpec::err(redsim_faultkit::ErrClass::Fault).once(),
        );
        c.execute("COPY t FROM 's3://in/' COMPUPDATE OFF").unwrap_err();
        assert_eq!(flags(&c), table_default, "an aborted COPY left its override behind");
        c.execute("COPY t FROM 's3://in/' COMPUPDATE OFF").unwrap();
        assert_eq!(flags(&c), table_default, "a committed COPY left its override behind");
        let committed = c.committed("t").unwrap();
        assert!(committed.slices.iter().any(|s| s.encodings() == Some(&[Encoding::Raw][..])),
            "the override did apply to the statement itself");
        let r = Cluster::recover(c.crash().unwrap()).unwrap();
        assert_eq!(flags(&r), table_default, "the override reached the redo log");
    }

    /// The acceptance criterion end to end: concurrent COPYs into
    /// different tables all commit with zero conflicts.
    #[test]
    fn concurrent_copies_into_distinct_tables_all_commit() {
        let c = small();
        for i in 0..4 {
            c.execute(&format!("CREATE TABLE t{i} (k BIGINT, v BIGINT) DISTKEY(k)")).unwrap();
            let mut csv = String::new();
            for r in 0..200 {
                csv.push_str(&format!("{r},{}\n", r * i));
            }
            c.put_s3_object(&format!("in{i}/rows"), csv.into_bytes());
        }
        let results = parallel_map((0..4).collect::<Vec<_>>(), |i| {
            c.execute(&format!("COPY t{i} FROM 's3://in{i}/'")).map(|s| s.rows_affected)
        });
        for r in results {
            assert_eq!(r.unwrap(), 200);
        }
        assert_eq!(c.trace().counter_value("txn.conflicts"), 0, "distinct tables never conflict");
        for i in 0..4 {
            let q = c.query(&format!("SELECT COUNT(*) FROM t{i}")).unwrap();
            assert_eq!(q.rows[0].get(0).as_i64(), Some(200));
        }
    }

    /// A damaged `COPY … LZSS` object loads nothing: with its header
    /// lowered to end inside line 101, or 12 bytes appended after its
    /// last token, the COPY fails with the object's typed codec error,
    /// and the draft, which had already appended the good object before
    /// it, is dropped: no rows, no blocks, the catalog as it was.
    #[test]
    fn a_damaged_lzss_object_loads_nothing() {
        let text: String = (0..200).map(|i| format!("{i},{}\n", i * 7919 % 1000)).collect();
        let good = redsim_storage::lzss::compress(text.as_bytes());
        // Line 101 is "100,900"; a prefix ending at "100,9" parses.
        let cut = offset_of_line(&text, 101) + 5;
        let mut lowered = good.clone();
        lowered[..4].copy_from_slice(&(cut as u32).to_le_bytes());
        let mut appended = good.clone();
        appended.extend_from_slice(&[0x5A; 12]);
        for (name, damaged) in [("lowered", lowered), ("appended", appended)] {
            let c = Cluster::launch(
                ClusterConfig::new("lzss").nodes(2).slices_per_node(2).rows_per_group(16),
            )
            .unwrap();
            c.execute("CREATE TABLE t (k BIGINT, v BIGINT)").unwrap();
            c.put_s3_object("z/0", good.clone());
            c.put_s3_object("z/1", damaged);
            let before = (storage(&c, "t"), c.catalog_version());
            let err = c.execute("COPY t FROM 's3://z/' LZSS").unwrap_err();
            assert!(matches!(err, RsError::Analysis(_)), "{name}: {err}");
            assert!(err.to_string().contains("z/1: ") && err.to_string().contains("LZSS"), "{name}: {err}");
            assert_eq!((storage(&c, "t"), c.catalog_version()), before, "{name}");
            assert_eq!(c.trace().counter_value("write_txn.rollbacks"), 1, "{name}: no draft dropped");
            let q = c.query("SELECT COUNT(*) FROM t").unwrap();
            assert_eq!(q.rows[0].get(0).as_i64(), Some(0), "{name}");
            // The good object alone still loads whole.
            c.put_s3_object("y/0", good.clone());
            assert_eq!(c.execute("COPY t FROM 's3://y/' LZSS").unwrap().rows_affected, 200);
        }
    }

    /// The four ways a COPY source reaches the loader.
    #[derive(Clone, Copy, Debug)]
    enum Form {
        Csv,
        Json,
        Lzss,
        Encrypted,
    }

    const FORMS: [Form; 4] = [Form::Csv, Form::Json, Form::Lzss, Form::Encrypted];

    /// An EVEN table: where each row lands depends on the rows before it.
    const STREAMED: &str = "CREATE TABLE t (k BIGINT, s VARCHAR(16), f FLOAT8)";

    /// Rows `k` in `from..from + rows` of `STREAMED`'s table as CSV or
    /// JSON-lines text; line `bad`, if any, has a `k` BIGINT cannot parse.
    fn source(form: Form, from: usize, rows: usize, bad: Option<usize>) -> String {
        let line = |(i, k): (usize, usize)| {
            let key = if bad == Some(i + 1) { "\"x\"".to_string() } else { k.to_string() };
            let (s, f) = (format!("row-{}", k % 997), format!("{}.5", k % 89));
            match form {
                Form::Json => format!("{{\"k\": {key}, \"s\": \"{s}\", \"f\": {f}}}\n"),
                _ => format!("{},{s},{f}\n", key.trim_matches('"')),
            }
        };
        (from..from + rows).enumerate().map(line).collect()
    }

    /// Stage `texts` as the objects under `prefix/`, in `form`; the COPY
    /// that loads them into `t`.
    fn stage(c: &Cluster, form: Form, prefix: &str, texts: &[String]) -> String {
        let mut rng = redsim_testkit::rng::Pcg32::seed_from_u64(28);
        let key = redsim_crypto::Key::generate(&mut rng);
        for (i, text) in texts.iter().enumerate() {
            let body = match form {
                Form::Csv | Form::Json => text.clone().into_bytes(),
                Form::Lzss => redsim_storage::lzss::compress(text.as_bytes()),
                Form::Encrypted => {
                    redsim_crypto::encrypt_payload(&key, text.as_bytes(), &mut rng).serialize()
                }
            };
            c.put_s3_object(&format!("{prefix}/{i:02}"), body);
        }
        let options = match form {
            Form::Csv => String::new(),
            Form::Json => " JSON".into(),
            Form::Lzss => " LZSS".into(),
            Form::Encrypted => {
                let hex: String = key.0.iter().map(|w| format!("{w:08x}")).collect();
                format!(" ENCRYPTED '{hex}'")
            }
        };
        format!("COPY t FROM 's3://{prefix}/'{options}")
    }

    fn streamed(name: &str, rows_per_group: usize) -> Arc<Cluster> {
        let config =
            ClusterConfig::new(name).nodes(2).slices_per_node(2).rows_per_group(rows_per_group);
        let c = Cluster::launch(config).unwrap();
        c.execute(STREAMED).unwrap();
        c
    }

    /// Bytes of `text` before its line `line`.
    fn offset_of_line(text: &str, line: usize) -> usize {
        text.split_inclusive('\n').take(line - 1).map(str::len).sum()
    }

    /// Every slice's encoded block payloads of `t`, in manifest order.
    fn payloads(c: &Cluster) -> Vec<Vec<Vec<u8>>> {
        let t = c.committed("t").unwrap();
        let slice = |(s, table): (usize, &redsim_storage::SliceTable)| {
            let store = c.compute.store_for_slice(s);
            table.block_ids().into_iter().map(|id| store.get(id).unwrap().payload.clone()).collect()
        };
        t.slices.iter().enumerate().map(slice).collect()
    }

    /// A streamed COPY writes the blocks one append of the whole parsed
    /// load writes, and folds the same statistics: objects of several
    /// units over two windows, in every form, give every slice
    /// byte-identical payloads in manifest order, the same EVEN cursor and
    /// the same `TableStats`.
    #[test]
    fn copy_streams_into_the_blocks_one_append_writes() {
        for form in FORMS {
            let texts = [
                source(form, 0, 30_000, None),
                source(form, 30_000, 14_000, None),
                source(form, 44_000, 9, None),
            ];
            assert!(texts[0].len() > 2 * COPY_UNIT_BYTES, "{form:?}: a few units per object");
            let streamed_copy = streamed("stream", 4_096);
            let sql = stage(&streamed_copy, form, "in", &texts);
            assert_eq!(streamed_copy.execute(&sql).unwrap().rows_affected, 44_009);

            // The reference: each object parsed whole, then one append.
            let whole = streamed("whole", 4_096);
            let catalog = whole.leader.catalog();
            let (entry, _) = catalog.get("t").unwrap();
            let mut batch: Vec<ColumnData> = Vec::new();
            for text in &texts {
                let cols = match form {
                    Form::Json => loader::parse_json_lines(text, 1, &entry.schema),
                    _ => loader::parse_csv(text, 1, ',', &entry.schema),
                };
                let cols = cols.unwrap();
                match batch.is_empty() {
                    true => batch = cols,
                    false => batch.iter_mut().zip(&cols).for_each(|(b, c)| b.append(c)),
                }
            }
            let stats = TableStats::of(&batch);
            let mut draft = whole.begin_table("t").unwrap();
            let (entry, next) = draft.table_mut();
            whole.compute.append(entry, next, batch, false).unwrap();
            let sealed = whole.compute.seal(next, &redsim_obs::Span::disabled());
            sealed.into_iter().collect::<Result<()>>().unwrap();
            next.state.rows_estimate += 44_009;
            next.fold_stats(&stats);
            draft.commit().unwrap();

            assert_eq!(payloads(&streamed_copy), payloads(&whole), "{form:?}");
            let state = |c: &Cluster| {
                let s = c.committed("t").unwrap().state.clone();
                (s.rows_estimate, s.cursor, s.stats)
            };
            assert_eq!(state(&streamed_copy), state(&whole), "{form:?}");
        }
    }

    /// A bad field past the first unit of an object reports its line of
    /// the object, not of the unit, in every form.
    #[test]
    fn copy_streams_report_the_line_of_the_object() {
        for form in FORMS {
            let c = streamed("lines", 4_096);
            let bad = 27_001;
            let texts = [source(form, 0, 30_000, Some(bad))];
            assert!(offset_of_line(&texts[0], bad) > COPY_UNIT_BYTES, "{form:?}: a later unit");
            let err = c.execute(&stage(&c, form, "in", &texts)).unwrap_err();
            assert!(err.to_string().contains(&format!("line {bad}: ")), "{form:?}: {err}");
        }
    }

    /// The first error in object, then line, order wins: a bad line late
    /// in the first object beats one on the second object's first line,
    /// though the second's unit parses beside the first's last.
    #[test]
    fn copy_streams_first_object_error_wins() {
        for form in FORMS {
            let c = streamed("order", 4_096);
            let texts =
                [source(form, 0, 30_000, Some(29_999)), source(form, 30_000, 5_000, Some(1))];
            let err = c.execute(&stage(&c, form, "in", &texts)).unwrap_err();
            assert!(err.to_string().contains("line 29999: "), "{form:?}: {err}");
        }
    }

    /// A failure in the last unit of the load, after earlier units sealed
    /// blocks on every slice, leaves the stored bytes, the placed blocks
    /// and the published catalog as they were.
    #[test]
    fn copy_streams_failing_in_the_last_unit_change_nothing() {
        for form in FORMS {
            let c = streamed("last", 256);
            c.execute("INSERT INTO t VALUES (1, 'a', 1.5), (2, 'b', 2.5)").unwrap();
            let before = (storage(&c, "t"), c.catalog_version());
            // Every block written queues for backup, and stays queued.
            let backlog = c.replicated_store().unwrap().backup_backlog();
            let texts = [source(form, 0, 20_000, None), source(form, 20_000, 20_000, Some(20_000))];
            let err = c.execute(&stage(&c, form, "in", &texts)).unwrap_err();
            assert!(err.to_string().contains("line 20000: "), "{form:?}: {err}");
            assert_eq!((storage(&c, "t"), c.catalog_version()), before, "{form:?}");
            assert!(
                c.replicated_store().unwrap().backup_backlog() > backlog,
                "{form:?}: the earlier units sealed no blocks"
            );
        }
    }
}
