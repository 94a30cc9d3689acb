//! The durable part: S3, the block-store handle, key management and the
//! redo log — §2.2's replicated blocks plus what makes a committed
//! write survive the process. A crash keeps exactly this part (see
//! [`CrashImage`]); everything else on a [`Cluster`](super::Cluster) is
//! rebuilt from it.

use crate::catalog::{Catalog, TableVersion};
use crate::config::ClusterConfig;
use crate::encstore::EncryptedBlockStore;
use redsim_common::codec::{Reader, Writer};
use redsim_common::{Result, RsError};
use redsim_crypto::{ClusterKeyring, HsmSim, KeyId, WrappedKey};
use redsim_distribution::{ClusterTopology, NodeId};
use redsim_obs::TraceSink;
use redsim_replication::{
    BackupManager, ReplicatedStore, S3Sim, SnapshotInfo, SnapshotKind, StreamingRestoreStore,
};
use redsim_storage::wal::{self, Wal};
use redsim_storage::{BlockId, BlockStore};
use redsim_testkit::rng::Pcg32;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Where the cluster's blocks live.
#[derive(Clone)]
pub(super) enum BlockHome {
    /// Launched and recovered clusters: per-node stores with a
    /// synchronous secondary and an asynchronous S3 backup.
    Mirrored(Arc<ReplicatedStore>),
    /// Snapshot-restored clusters: one store shared by every node that
    /// page-faults blocks in from the snapshot's S3 copy.
    Restoring(Arc<StreamingRestoreStore>),
}

/// Encryption at rest (§3.2): the HSM, the master key it holds, and the
/// keyring of block keys wrapped under the cluster key.
#[derive(Clone)]
pub(super) struct Keys {
    pub hsm: Arc<HsmSim>,
    pub keyring: Arc<ClusterKeyring>,
}

impl Keys {
    pub fn create(seed: u64) -> Result<Keys> {
        let mut rng = Pcg32::seed_from_u64(seed);
        let hsm = Arc::new(HsmSim::new());
        let master = hsm.create_master(&mut rng);
        let keyring = Arc::new(ClusterKeyring::create(&hsm, master, &mut rng)?);
        Ok(Keys { hsm, keyring })
    }

    /// The encryption envelope that opens a snapshot's metadata.
    fn encode(keys: Option<&Keys>, w: &mut Writer) {
        w.put_bool(keys.is_some());
        if let Some(k) = keys {
            w.put_u64(k.keyring.master().0);
            w.put_bytes(&k.keyring.wrapped_cluster_key().to_bytes());
            let block_keys = k.keyring.export_block_keys();
            w.put_u32(block_keys.len() as u32);
            for (id, wk) in block_keys {
                w.put_u64(id);
                w.put_raw(&wk.to_bytes());
            }
        }
    }

    /// Inverse of [`Keys::encode`]; `hsm` must hold the master key of an
    /// encrypted snapshot.
    pub fn decode(r: &mut Reader, hsm: Option<Arc<HsmSim>>) -> Result<Option<Keys>> {
        if !r.get_bool()? {
            return Ok(None);
        }
        let hsm = hsm.ok_or_else(|| {
            RsError::Crypto("encrypted snapshot requires the HSM holding its master key".into())
        })?;
        let master = KeyId(r.get_u64()?);
        let wrapped = WrappedKey::from_bytes(r.get_bytes()?)?;
        let keyring = Arc::new(ClusterKeyring::open(&hsm, master, wrapped)?);
        let n = r.get_u32()? as usize;
        let block_keys = (0..n)
            .map(|_| Ok((r.get_u64()?, WrappedKey::from_bytes(r.get_raw(28)?)?)))
            .collect::<Result<Vec<_>>>()?;
        keyring.import_block_keys(block_keys);
        Ok(Some(Keys { hsm, keyring }))
    }
}

/// See the module docs. Owns no lock of the statement protocol: callers
/// hold the table's writer lock ([`Durable::log_table_delta`]) or the
/// exclusive `data_lock` ([`Durable::log_checkpoint`],
/// [`Durable::snapshot`]) so nothing else can commit around what they log.
pub(super) struct Durable {
    pub s3: Arc<S3Sim>,
    pub blocks: BlockHome,
    backup: BackupManager,
    pub keys: Option<Keys>,
    /// Write-ahead redo log: committed writes are replayable from it
    /// after a crash. See [`redsim_storage::wal`].
    pub wal: Wal,
    /// Monotonic transaction ids (1-based; 0 marks bootstrap versions).
    txn_seq: AtomicU64,
    /// Armed by `Cluster::crash` / `Cluster::arm_hard_crash`: an aborted
    /// statement no longer deletes the blocks it wrote, modeling a
    /// process that died mid-statement and left orphans for recovery to
    /// scrub.
    pub hard_crash: AtomicBool,
    pub trace: Arc<TraceSink>,
}

impl Durable {
    /// Wire the storage stack to `trace` and the cluster's retry
    /// schedule, and open the redo log at `wal` (its durable prefix;
    /// empty for a cluster with no history).
    pub fn new(
        config: &ClusterConfig,
        trace: Arc<TraceSink>,
        s3: Arc<S3Sim>,
        blocks: BlockHome,
        keys: Option<Keys>,
        wal: Vec<u8>,
    ) -> Durable {
        // One retry schedule per cluster: jitter is derived from the
        // cluster seed so chaos runs replay bit-for-bit.
        let retry = config.retry.with_seed(config.seed);
        s3.set_trace(Arc::clone(&trace));
        if let BlockHome::Mirrored(replicated) = &blocks {
            replicated.set_trace(Arc::clone(&trace));
            replicated.set_retry_policy(retry);
        }
        let backup = BackupManager::new(
            Arc::clone(&s3),
            config.region.clone(),
            config.name.clone(),
            config.dr_region.clone(),
            config.system_snapshot_retention,
        )
        .with_retry(retry);
        Durable {
            wal: Wal::from_durable(wal, Arc::clone(s3.faults())),
            s3,
            blocks,
            backup,
            keys,
            txn_seq: AtomicU64::new(0),
            hard_crash: AtomicBool::new(false),
            trace,
        }
    }

    /// Per-node block store handles, encryption-wrapped when enabled.
    pub fn node_stores(&self, config: &ClusterConfig) -> Vec<Arc<dyn BlockStore>> {
        (0..config.nodes)
            .map(|n| {
                let store: Arc<dyn BlockStore> = match &self.blocks {
                    BlockHome::Mirrored(r) => Arc::new(r.node_store(NodeId(n))),
                    BlockHome::Restoring(r) => Arc::clone(r) as Arc<dyn BlockStore>,
                };
                match &self.keys {
                    Some(k) => Arc::new(EncryptedBlockStore::new(
                        store,
                        Arc::clone(&k.keyring),
                        config.seed ^ (n as u64 + 1),
                    )),
                    None => store,
                }
            })
            .collect()
    }

    pub fn replicated(&self) -> Option<&Arc<ReplicatedStore>> {
        match &self.blocks {
            BlockHome::Mirrored(r) => Some(r),
            BlockHome::Restoring(_) => None,
        }
    }

    /// The mirrored store, or why `what` cannot run without one.
    pub fn mirrored(&self, what: &str) -> Result<&Arc<ReplicatedStore>> {
        self.replicated().ok_or_else(|| {
            RsError::InvalidState(format!(
                "{what} requires a mirrored block store; a snapshot-restored cluster reads \
                 through its restore store and has none"
            ))
        })
    }

    pub fn restoring(&self) -> Option<&Arc<StreamingRestoreStore>> {
        match &self.blocks {
            BlockHome::Restoring(r) => Some(r),
            BlockHome::Mirrored(_) => None,
        }
    }

    pub fn next_txn(&self) -> u64 {
        self.txn_seq.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Append a table writer's draft `next` of table `name` to the redo
    /// log: redo record, fsync, commit mark. Called with the table's
    /// writer lock held and after the final flush, so every slice's
    /// buffer is empty and the delta is a lossless image. Any failure
    /// (all injected — the log is in-memory) aborts the statement
    /// *before* the draft is installed, so an unlogged write is never
    /// visible.
    pub fn log_table_delta(&self, txn: u64, name: &str, next: &TableVersion) -> Result<()> {
        self.wal.append_delta(txn, &next.encode_delta(name))?;
        self.wal.sync()?;
        self.wal.commit(txn)?;
        self.trace.counter("wal.commits").incr();
        Ok(())
    }

    /// Write a full-catalog checkpoint ([`Catalog::encode`]) to the redo
    /// log and reclaim the bytes it supersedes. Caller holds the
    /// exclusive `data_lock`, so no table writer commits mid-encode.
    pub fn log_checkpoint(&self, txn: u64, catalog: &Catalog) -> Result<()> {
        let mut w = Writer::new();
        catalog.encode(&mut w);
        self.wal.append_checkpoint(txn, &w.into_bytes())?;
        self.wal.commit(txn)?;
        self.trace.counter("wal.commits").incr();
        // Truncation is pure space reclamation: the checkpoint above is
        // already durable, so a failure here (injected) must not fail the
        // statement — the log is just longer than it needs to be.
        match self.wal.truncate() {
            Ok(reclaimed) => {
                if reclaimed > 0 {
                    self.trace.counter("wal.bytes_reclaimed").add(reclaimed as u64);
                }
            }
            Err(_) => self.trace.counter("wal.truncate_errors").incr(),
        }
        Ok(())
    }

    /// Rebuild the committed catalog from the redo log: the last
    /// committed checkpoint seeds it, committed deltas after it overwrite
    /// per-table state in log order. Returns the catalog and the number
    /// of deltas replayed; transaction ids resume past the log's.
    pub fn replay(&self, topology: &ClusterTopology) -> Result<(Catalog, u64)> {
        let replay = wal::replay(&self.wal.durable_bytes())?;
        let mut max_txn = 0;
        let catalog = match &replay.checkpoint {
            Some((txn, payload)) => {
                max_txn = *txn;
                Catalog::decode(&mut Reader::new(payload), topology)?
            }
            None => Catalog::default(),
        };
        for (txn, payload) in &replay.deltas {
            max_txn = max_txn.max(*txn);
            catalog.apply_delta(*txn, payload)?;
        }
        self.txn_seq.store(max_txn, Ordering::Relaxed);
        Ok((catalog, replay.deltas.len() as u64))
    }

    /// Take a snapshot of `catalog`: the key envelope and the catalog
    /// image as metadata, `blocks` (every block it references) as payload.
    pub fn snapshot(
        &self,
        id: &str,
        kind: SnapshotKind,
        catalog: &Catalog,
        blocks: Vec<BlockId>,
    ) -> Result<SnapshotInfo> {
        let replicated = self.mirrored("snapshot")?;
        let mut w = Writer::new();
        Keys::encode(self.keys.as_ref(), &mut w);
        catalog.encode(&mut w);
        self.backup.take_snapshot(id, kind, replicated, blocks, &w.into_bytes())
    }

    /// Rotate the cluster key (re-wraps block keys only; §3.2). Caller
    /// holds the exclusive write transaction, which serializes key users;
    /// the new key is drawn from `seed`.
    pub fn rotate_cluster_key(&self, seed: u64) -> Result<()> {
        let keys = self
            .keys
            .as_ref()
            .ok_or_else(|| RsError::Crypto("cluster is not encrypted".into()))?;
        keys.keyring.rotate_cluster_key(&keys.hsm, &mut Pcg32::seed_from_u64(seed))
    }
}

/// Everything that survives a simulated process crash — the "disk": the
/// dead cluster's durable part (block stores and their placement map,
/// S3, key-management state) and its redo log's durable prefix as of
/// the crash. Produced by [`Cluster::crash`](super::Cluster::crash),
/// consumed by [`Cluster::recover`](super::Cluster::recover).
pub struct CrashImage {
    pub(super) config: ClusterConfig,
    pub(super) durable: Arc<Durable>,
    pub(super) wal: Vec<u8>,
}

impl CrashImage {
    /// Size of the surviving durable redo-log prefix in bytes.
    pub fn wal_len(&self) -> usize {
        self.wal.len()
    }
}
