//! The write path: the transaction protocol (`write_txn` → `data_lock`
//! → catalog → table `writer`; DESIGN.md §15), the [`Draft`] every
//! statement builds its table's next version in, and the statements
//! themselves — CREATE / DROP / INSERT / COPY.

use super::compute::parallel_map;
use super::{Cluster, ExecSummary};
use crate::catalog::{TableEntry, TableVersion};
use crate::loader;
use crate::session::SessionCtx;
use redsim_common::{ColumnData, ColumnDef, Result, RsError, Schema, Value};
use redsim_distribution::DistStyle;
use redsim_obs::{AttrValue, LVL_CORE, LVL_DETAIL, LVL_PHASE};
use redsim_sql::{ast, Binder, BoundExpr};
use redsim_storage::stats::TableStats;
use redsim_storage::table::SortKeySpec;
use redsim_testkit::sync::{MutexGuard, RwLockWriteGuard};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Scope of a write transaction — which locks
/// [`Cluster::begin_write_txn`] takes. See DESIGN.md §15.
pub(super) enum WriteScope<'a> {
    /// Statement-scoped writer on one table (COPY / INSERT): shared
    /// `data_lock` (held by the caller) + first-committer-wins
    /// `try_lock` on the table's writer mutex.
    Table(&'a TableEntry),
    /// Catalog-shaped statement (DDL, VACUUM, ANALYZE, redistribute,
    /// snapshot, key rotation): the global `write_txn` mutex + the
    /// exclusive `data_lock`.
    Exclusive,
}

/// The locks a write transaction holds, plus its id. Dropping the
/// handle releases them; the handle itself carries no rollback duty —
/// that stays with [`Draft`] (the uninstalled version's blocks) and the
/// WAL protocol (durability).
pub(super) struct TxnHandle<'a> {
    pub txn: u64,
    _locks: TxnLocks<'a>,
}

enum TxnLocks<'a> {
    Exclusive { _write_txn: MutexGuard<'a, ()>, _data_lock: RwLockWriteGuard<'a, ()> },
    Table { _writer: MutexGuard<'a, ()> },
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

/// One table's next version under construction: a private clone of the
/// committed one that the statement appends into, vacuums or re-analyzes
/// with no lock but the scope it already holds (the table's writer mutex
/// or the exclusive scope — either way it is the table's only writer).
///
/// Commit installs it ([`Draft::commit`] for table writers,
/// [`Cluster::commit_exclusive`] for catalog-shaped statements). Every
/// other exit path, panics included, drops it, and that is the whole
/// abort: nobody else ever saw the draft, so all there is to undo is the
/// blocks it wrote ("data loads are transactional", §2.1).
pub(super) struct Draft<'a> {
    cluster: &'a Cluster,
    entry: Arc<TableEntry>,
    /// The committed version `next` was cloned from.
    base: Arc<TableVersion>,
    pub next: TableVersion,
    installed: bool,
}

impl Draft<'_> {
    /// Swap `next` in as the version committed by `txn`; returns the
    /// table and the version it replaced.
    pub fn install(mut self, txn: u64) -> (Arc<TableEntry>, Arc<TableVersion>) {
        self.installed = true;
        let next = TableVersion { txn, ..std::mem::take(&mut self.next) };
        let replaced = self.entry.install(Arc::new(next));
        (Arc::clone(&self.entry), replaced)
    }

    /// Commit a table writer's statement as transaction `txn`.
    /// Durability first (redo record + commit mark, logged from the
    /// draft), visibility second (the swap): a WAL failure returns before
    /// the swap, so the drop discards the draft and an unlogged write is
    /// never visible. Only a committed write bumps the catalog version,
    /// so a statement that aborts never invalidates the result cache.
    pub fn commit(mut self, txn: u64) -> Result<()> {
        // COMPUPDATE is a per-statement override, not a table property:
        // put the table's own flag back before the image is logged so the
        // override reaches neither a later COPY nor the redo log.
        for (slice, base) in self.next.slices.iter_mut().zip(&self.base.slices) {
            slice.set_auto_compress(base.auto_compress());
        }
        self.cluster.durable.log_table_delta(txn, &self.entry.name, &self.next)?;
        let cluster = self.cluster;
        self.install(txn);
        cluster.leader.committed();
        Ok(())
    }
}

impl Drop for Draft<'_> {
    fn drop(&mut self) {
        if !self.installed {
            self.cluster.discard(&self.next, &self.base);
        }
    }
}

impl Cluster {
    /// Open a transaction: the single entry point for every write
    /// statement's locking (DESIGN.md §15). Allocates the transaction id
    /// and takes exactly the locks the scope needs:
    ///
    /// - [`WriteScope::Table`]: first-committer-wins `try_lock` on the
    ///   table's writer mutex. The caller already holds the *shared*
    ///   `data_lock` (taken before the catalog lock), so same-table
    ///   contention is the only thing that can fail — and it fails fast
    ///   with a retryable [`RsError::Serializable`] instead of queueing,
    ///   recorded in `txn.conflicts` / `stl_tr_conflict`.
    /// - [`WriteScope::Exclusive`]: the global `write_txn` mutex plus the
    ///   exclusive `data_lock` — waits out readers and in-flight table
    ///   writers, so no draft but the statement's own exists, the blocks
    ///   it frees back no running scan, and a full-catalog WAL checkpoint
    ///   taken under it is consistent.
    pub(super) fn begin_write_txn<'a>(
        &'a self,
        scope: WriteScope<'a>,
    ) -> Result<TxnHandle<'a>> {
        let txn = self.durable.next_txn();
        match scope {
            WriteScope::Exclusive => {
                let _write_txn = self.write_txn.lock();
                let _data_lock = self.data_lock.write();
                Ok(TxnHandle { txn, _locks: TxnLocks::Exclusive { _write_txn, _data_lock } })
            }
            WriteScope::Table(entry) => match entry.writer.try_lock() {
                Some(_writer) => Ok(TxnHandle { txn, _locks: TxnLocks::Table { _writer } }),
                None => {
                    self.trace().counter("txn.conflicts").incr();
                    self.trace().span_completed(
                        LVL_CORE,
                        "tr_conflict",
                        0,
                        &[
                            ("table", AttrValue::Str(entry.name.clone())),
                            ("xact_id", AttrValue::U64(txn)),
                        ],
                    );
                    Err(RsError::Serializable(format!(
                        "1023: serializable isolation violation on table {:?} — a \
                         concurrent write transaction is in progress; retry the statement",
                        entry.name
                    )))
                }
            },
        }
    }

    /// Start `entry`'s next version: one clone of the committed slice
    /// manifests and [`TableState`](crate::catalog::TableState). The
    /// caller holds the table's writer mutex or the exclusive scope.
    pub(super) fn draft(&self, entry: &Arc<TableEntry>) -> Draft<'_> {
        let base = entry.snapshot();
        let next = TableVersion::clone(&base);
        Draft { cluster: self, entry: Arc::clone(entry), base, next, installed: false }
    }

    /// Abort: delete from every replica the blocks `dead` wrote beyond
    /// `live`, the version still (or again) committed — unless a hard
    /// crash is armed. That models a process that died before it could
    /// clean up: the blocks stay behind for recovery's orphan scrub, and
    /// tidying here would remove the very mess recovery must handle.
    fn discard(&self, dead: &TableVersion, live: &TableVersion) {
        if self.durable.hard_crash.load(Ordering::Acquire) {
            return;
        }
        let blocks = self.compute.delete_unshared(dead, live);
        self.trace().counter("write_txn.rollbacks").add(1);
        self.trace().counter("write_txn.blocks_dropped").add(blocks as u64);
    }

    /// Commit an exclusive-scope statement's drafts (VACUUM, ANALYZE):
    /// install them all, then make the catalog durable as a checkpoint.
    /// Deferred deletion: blocks a new version no longer references are
    /// freed only after the commit mark, so a crash on either side of it
    /// leaves one complete block set (recovery scrubs the other). A
    /// refused checkpoint re-installs the replaced versions and discards
    /// the drafts' blocks, so the failed statement is invisible.
    pub(super) fn commit_exclusive(&self, txn: u64, drafts: Vec<Draft<'_>>) -> Result<()> {
        let installed: Vec<_> = drafts.into_iter().map(|d| d.install(txn)).collect();
        let logged = self.log_checkpoint(txn);
        for (entry, replaced) in installed {
            if logged.is_ok() {
                self.compute.delete_unshared(&replaced, &entry.snapshot());
            } else {
                self.discard(&entry.install(Arc::clone(&replaced)), &replaced);
            }
        }
        logged?;
        self.leader.committed();
        Ok(())
    }

    /// Make the catalog durable as a redo checkpoint. Caller holds
    /// [`WriteScope::Exclusive`].
    pub(super) fn log_checkpoint(&self, txn: u64) -> Result<()> {
        self.durable.log_checkpoint(txn, &self.leader.catalog.read())
    }

    /// Best-effort checkpoint outside any statement (bootstrap paths:
    /// resize targets, post-recovery log compaction). Failures are
    /// recorded, not surfaced — the existing log is still correct.
    pub(super) fn checkpoint_now(&self) {
        if let Ok(txn) = self.begin_write_txn(WriteScope::Exclusive) {
            if self.log_checkpoint(txn.txn).is_err() {
                self.trace().counter("wal.checkpoint_errors").incr();
            }
        }
    }

    pub(super) fn run_create_table(&self, ct: ast::CreateTable) -> Result<ExecSummary> {
        self.check_writable()?;
        let txn = self.begin_write_txn(WriteScope::Exclusive)?;
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
        let entry = TableEntry::new(
            ct.name.clone(),
            schema,
            dist_style,
            sort_key,
            &self.compute.topology,
            self.config.rows_per_group,
        )?;
        self.leader.catalog.write().create(entry)?;
        // DDL is durable via a full-catalog checkpoint. If the redo log
        // rejects it (injected fault), undo the in-memory create so the
        // failed statement is invisible.
        if let Err(e) = self.log_checkpoint(txn.txn) {
            let _ = self.leader.catalog.write().drop_table(&ct.name);
            return Err(e);
        }
        self.leader.schema_changed();
        Ok(ExecSummary { rows_affected: 0, message: format!("CREATE TABLE {}", ct.name) })
    }

    pub(super) fn run_drop_table(&self, name: &str, if_exists: bool) -> Result<ExecSummary> {
        self.check_writable()?;
        let txn = self.begin_write_txn(WriteScope::Exclusive)?;
        let entry = match self.leader.catalog.write().drop_table(name) {
            Ok(e) => e,
            Err(_) if if_exists => {
                return Ok(ExecSummary { rows_affected: 0, message: "DROP TABLE (skipped)".into() })
            }
            Err(e) => return Err(e),
        };
        // Deferred deletion: make the drop durable *before* deleting the
        // blocks. A crash on either side of the commit mark leaves one
        // complete, readable state — before: the table recovers intact
        // (blocks still present); after: the table is gone and any
        // still-present blocks are orphans for recovery to scrub.
        if let Err(e) = self.log_checkpoint(txn.txn) {
            let _ = self.leader.catalog.write().create(entry);
            return Err(e);
        }
        self.compute.delete_blocks(entry.snapshot().block_ids());
        self.leader.schema_changed();
        Ok(ExecSummary { rows_affected: 0, message: format!("DROP TABLE {name}") })
    }

    pub(super) fn run_insert(&self, ins: ast::Insert) -> Result<ExecSummary> {
        self.check_writable()?;
        // Table writers run under the *shared* data lock: concurrent
        // INSERT/COPY into different tables proceed in parallel, readers
        // keep reading their MVCC snapshots, and a second writer on the
        // same table fails fast with a serializable-isolation error.
        let _shared = self.data_lock.read();
        let catalog = self.leader.catalog.read();
        let entry = catalog
            .get(&ins.table)
            .ok_or_else(|| RsError::NotFound(format!("relation {:?}", ins.table)))?;
        let txn = self.begin_write_txn(WriteScope::Table(&entry))?;
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
        let view = self.compute.reader(&catalog, &[]); // VALUES reference no table
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
        let mut draft = self.draft(&entry);
        let folded = TableStats::of(&batch);
        self.compute.append(&entry, &mut draft.next, batch, true)?;
        draft.next.state.rows_estimate += n_rows;
        draft.next.fold_stats(&folded);
        draft.commit(txn.txn)?;
        Ok(ExecSummary { rows_affected: n_rows, message: format!("INSERT 0 {n_rows}") })
    }

    pub(super) fn run_copy(&self, c: ast::Copy, ctx: &SessionCtx) -> Result<ExecSummary> {
        self.check_writable()?;
        // Shared data lock + per-table writer lock: COPYs into different
        // tables run concurrently; a second COPY into the same table
        // fails fast with a serializable-isolation error.
        let _shared = self.data_lock.read();
        let catalog = self.leader.catalog.read();
        let entry = catalog
            .get(&c.table)
            .ok_or_else(|| RsError::NotFound(format!("relation {:?}", c.table)))?;
        let wtxn = self.begin_write_txn(WriteScope::Table(&entry))?;
        // `s3://prefix` → object listing in the home region.
        let prefix = c
            .source
            .strip_prefix("s3://")
            .ok_or_else(|| RsError::Unsupported("COPY sources must be s3:// URIs".into()))?;
        let keys = self.s3().list(&self.config.region, prefix);
        if keys.is_empty() {
            return Err(RsError::NotFound(format!("no objects under s3://{prefix}")));
        }
        let t_copy = std::time::Instant::now();
        let mut span = self.trace().span(LVL_PHASE, "copy");
        if span.is_recording() {
            span.attr("table", c.table.clone());
            span.attr("objects", keys.len());
        }
        // All-or-nothing from here on ("data loads are transactional",
        // §2.1): slices, cursor and counters change in the draft only,
        // and any error below drops it and deletes the statement's
        // blocks from every replica.
        let mut draft = self.draft(&entry);
        // COMPUPDATE governs automatic compression analysis on first
        // load; an unspecified statement falls back to the session's
        // default (SET compupdate). A per-statement override: commit
        // puts the table's flag back, abort drops the flipped copy.
        let comp_update = c.comp_update.unwrap_or(ctx.comp_update_default);
        for s in &mut draft.next.slices {
            s.set_auto_compress(comp_update);
        }
        if comp_update {
            // First flush samples the data and locks per-column encodings.
            span.event_with(
                LVL_PHASE,
                "copy.encoding_sample",
                &[("table", AttrValue::Str(c.table.clone()))],
            );
        }
        // Client-side encrypted sources carry a hex key in the statement.
        let source_key = c.decrypt_key.as_deref().map(parse_hex_key).transpose()?;
        // Parse objects in parallel (each slice "reading data in
        // parallel"), then route + append. STATUPDATE folds each object's
        // statistics here too: columns still hot, work spread over the
        // parse threads, and — before routing — ALL rows counted once.
        let texts = parallel_map(keys, |key| -> Result<(Vec<ColumnData>, Option<TableStats>)> {
            let mut ospan = span.child(LVL_DETAIL, "copy.object");
            if ospan.is_recording() {
                ospan.attr("object", key.clone());
            }
            // Fetch through the `copy.fetch_object` failpoint with the
            // cluster retry policy: transient S3 flakiness is absorbed
            // with backoff, permanent faults surface typed.
            let raw = self.config.retry.with_seed(self.config.seed).run_observed(
                "copy.fetch_object",
                || {
                    redsim_replication::fire_no_skip(
                        self.faults(),
                        Some(self.trace()),
                        redsim_faultkit::fp::COPY_FETCH_OBJECT,
                    )?;
                    self.s3().get(&self.config.region, &key)
                },
                redsim_replication::retry_observer(Some(Arc::clone(self.trace()))),
            )?;
            // Undo source-side transforms: decrypt, then decompress
            // ("COPY also directly supports ingestion of … data that is
            // encrypted and/or compressed", §2.1).
            let mut bytes: Vec<u8> = raw.to_vec();
            if let Some(k) = &source_key {
                let enc = redsim_crypto::EncryptedPayload::deserialize(&bytes)
                    .map_err(|e| RsError::Analysis(format!("{key}: {e}")))?;
                bytes = redsim_crypto::decrypt_payload(k, &enc)
                    .map_err(|e| RsError::Analysis(format!("{key}: {e}")))?;
            }
            if c.compressed {
                bytes = redsim_storage::lzss::decompress(&bytes)
                    .map_err(|e| RsError::Analysis(format!("{key}: {e}")))?;
            }
            let text = std::str::from_utf8(&bytes)
                .map_err(|_| RsError::Analysis(format!("{key}: not UTF-8")))?;
            let cols = match c.format {
                ast::CopyFormat::Csv => loader::parse_csv(text, c.delimiter, &entry.schema),
                ast::CopyFormat::Json => loader::parse_json_lines(text, &entry.schema),
            }?;
            if ospan.is_recording() {
                ospan.attr("rows", cols.first().map_or(0, |col| col.len()));
            }
            let stats = c.stat_update.then(|| TableStats::of(&cols));
            Ok((cols, stats))
        });
        let mut loaded = 0u64;
        let mut folded = Vec::new();
        {
            let mut aspan = span.child(LVL_PHASE, "copy.append");
            for t in texts {
                let (batch, stats) = t?;
                loaded += batch.first().map_or(0, |col| col.len()) as u64;
                folded.extend(stats);
                self.compute.append(&entry, &mut draft.next, batch, false)?;
            }
            aspan.attr("rows", loaded);
        }
        let seal_span = span.child(LVL_PHASE, "copy.seal");
        let results = self.compute.seal(&mut draft.next, &seal_span);
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
            let total = draft.next.slices.len();
            let first = failures.into_iter().next().expect("non-empty").1;
            return Err(first
                .with_note(&format!(" (COPY seal failed on {n} of {total} slices: [{detail}])")));
        }
        draft.next.state.rows_estimate += loaded;
        // STATUPDATE: refresh optimizer statistics with the load (§2.1:
        // "By default, compression scheme and optimizer statistics are
        // updated with load") by merging the per-object partials: work
        // proportional to the load, not the table. Without it the rows
        // count as stale for the maintenance advisor.
        if c.stat_update {
            let mut aspan = span.child(LVL_PHASE, "copy.analyze");
            folded.iter().for_each(|stats| draft.next.fold_stats(stats));
            aspan.attr("rows", loaded);
        } else {
            draft.next.state.loads_since_analyze += loaded;
        }
        if span.is_recording() {
            span.attr("rows", loaded);
        }
        span.finish();
        draft.commit(wtxn.txn)?;
        self.trace().counter("copy.rows_loaded").add(loaded);
        self.trace().histogram("copy.duration_ns").record(t_copy.elapsed().as_nanos() as u64);
        Ok(ExecSummary { rows_affected: loaded, message: format!("COPY {loaded}") })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClusterConfig;
    use redsim_storage::Encoding;

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

        let entry = c.leader.catalog.read().get("a").unwrap();
        let _shared = c.data_lock.read();
        let held = c.begin_write_txn(WriteScope::Table(&entry)).unwrap();

        // Independent table: commits while `a`'s writer mutex is held.
        let s = c.execute("COPY b FROM 's3://w/b'").unwrap();
        assert_eq!(s.rows_affected, 2);

        // Same table: first committer wins, loser told to retry.
        let err = c.execute("COPY a FROM 's3://w/a'").unwrap_err();
        assert!(matches!(err, RsError::Serializable(_)), "{err}");
        assert!(err.is_retryable(), "serializable conflicts are retryable");
        assert_eq!(c.trace().counter_value("txn.conflicts"), 1);
        drop(held);
        drop(_shared);

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

    /// `t`'s committed blocks, and what every replica holds of them.
    fn storage(c: &Cluster, t: &str) -> (Vec<redsim_storage::BlockId>, Vec<u64>, u64) {
        let store = c.replicated_store().unwrap();
        let mut placed: Vec<u64> = store.placed_block_ids().iter().map(|id| id.0).collect();
        placed.sort_unstable();
        (c.committed(t).unwrap().block_ids(), placed, store.local_bytes())
    }

    /// Abort is `drop(draft)`: it deletes exactly the blocks the statement
    /// wrote, from every replica, and the committed version — rows,
    /// manifests, encodings, cursor — was never touched to begin with.
    #[test]
    fn dropped_draft_deletes_exactly_its_blocks_on_every_replica() {
        let c = Cluster::launch(
            ClusterConfig::new("abort").nodes(2).slices_per_node(2).rows_per_group(100),
        )
        .unwrap();
        c.execute("CREATE TABLE t (k BIGINT)").unwrap();
        let entry = c.leader.catalog.read().get("t").unwrap();
        let load = |rows: std::ops::Range<i64>| -> Draft<'_> {
            let mut draft = c.draft(&entry);
            draft.next.slices.iter_mut().for_each(|s| s.set_auto_compress(false));
            c.compute.append(&entry, &mut draft.next, ids(rows), false).unwrap();
            c.compute.seal(&mut draft.next, &redsim_obs::Span::disabled());
            draft
        };
        load(0..600).commit(c.durable.next_txn()).unwrap();
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
        assert!(Arc::ptr_eq(&after, &base), "abort never replaces the committed version");
        assert_eq!(c.trace().counter_value("write_txn.rollbacks"), 1);
        assert!(c.trace().counter_value("write_txn.blocks_dropped") > 0);

        // The table is fully writable afterwards: the same rows re-load.
        load(600..1600).commit(c.durable.next_txn()).unwrap();
        let q = c.query("SELECT COUNT(*), MAX(k) FROM t").unwrap();
        assert_eq!((q.rows[0].get(0).as_i64(), q.rows[0].get(1).as_i64()), (Some(1600), Some(1599)));
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
        let entry = c.leader.catalog.read().get("t").unwrap();
        let mut draft = c.draft(&entry);
        c.compute.append(&entry, &mut draft.next, ids(0..300), false).unwrap();
        assert!(draft.next.slices.iter().all(|s| s.encodings().is_some()), "first seal locks them");
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
}
