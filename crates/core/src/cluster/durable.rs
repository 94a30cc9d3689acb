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
use redsim_replication::{BackupManager, ReplicatedStore, S3Sim, SnapshotInfo, SnapshotKind};
use redsim_storage::wal::{self, Wal};
use redsim_storage::{BlockId, BlockStore, Free};
use redsim_testkit::rng::Pcg32;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

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
/// log under the leader's publication lock, which orders every log write
/// with its publish, and hold the table's writer lock
/// ([`Durable::log_table_delta`]) or the exclusive `write_txn`
/// ([`Durable::log_checkpoint`], [`Durable::snapshot`]) so no table writer
/// changes what they encode.
pub(super) struct Durable {
    pub s3: Arc<S3Sim>,
    /// Every cluster's one block store: per-node stores with a
    /// synchronous secondary and an asynchronous S3 backup. A restored
    /// cluster's blocks start in S3 and page-fault in.
    pub blocks: Arc<ReplicatedStore>,
    backup: BackupManager,
    pub keys: Option<Keys>,
    /// Write-ahead redo log: committed writes are replayable from it
    /// after a crash. See [`redsim_storage::wal`].
    pub wal: Wal,
    /// Monotonic transaction ids (1-based; 0 marks bootstrap versions).
    txn_seq: AtomicU64,
    /// Armed by `Cluster::crash` / `Cluster::arm_hard_crash`: no row
    /// group of this incarnation deletes its blocks any more — neither an
    /// aborted statement's nor a released catalog's — modeling a process
    /// that died and left orphans for recovery to scrub.
    pub hard_crash: Arc<AtomicBool>,
    pub trace: Arc<TraceSink>,
}

/// Replica-placement cohort size.
const COHORT_SIZE: u32 = 4;
/// Retained system snapshots before aging out.
const SYSTEM_SNAPSHOT_RETENTION: usize = 4;

impl Durable {
    /// The durable part of a new cluster (launched, or restored into):
    /// an empty block store over `s3` and an empty redo log.
    pub fn create(
        config: &ClusterConfig,
        trace: Arc<TraceSink>,
        s3: Arc<S3Sim>,
        keys: Option<Keys>,
    ) -> Result<Durable> {
        let blocks = ReplicatedStore::new(
            config.nodes,
            COHORT_SIZE.min(config.nodes.max(1)).max(2.min(config.nodes)),
            Arc::clone(&s3),
            config.region.clone(),
            config.name.clone(),
        )?;
        Ok(Durable::new(config, trace, s3, blocks, keys, Vec::new()))
    }

    /// Wire the storage stack to `trace` and the cluster's retry
    /// schedule, and open the redo log at `wal` (its durable prefix;
    /// empty for a cluster with no history).
    pub fn new(
        config: &ClusterConfig,
        trace: Arc<TraceSink>,
        s3: Arc<S3Sim>,
        blocks: Arc<ReplicatedStore>,
        keys: Option<Keys>,
        wal: Vec<u8>,
    ) -> Durable {
        // One retry schedule per cluster: jitter is derived from the
        // cluster seed so chaos runs replay bit-for-bit.
        let retry = config.retry.with_seed(config.seed);
        blocks.set_trace(Arc::clone(&trace));
        blocks.set_retry_policy(retry);
        let backup = BackupManager::new(
            Arc::clone(&s3),
            config.region.clone(),
            config.name.clone(),
            config.dr_region.clone(),
            SYSTEM_SNAPSHOT_RETENTION,
        )
        .with_retry(retry)
        .with_trace(Arc::clone(&trace));
        Durable {
            wal: Wal::from_durable(wal, Arc::clone(s3.faults())),
            s3,
            blocks,
            backup,
            keys,
            txn_seq: AtomicU64::new(0),
            hard_crash: Arc::default(),
            trace,
        }
    }

    /// Per-node block store handles, encryption-wrapped when enabled. A
    /// row group written through one, or adopted (`Compute::adopt`),
    /// deletes its blocks from every replica (any node's handle reaches
    /// all) once no table version names it — unless this incarnation's
    /// hard crash is armed: a dead process frees nothing, and its late
    /// release never deletes under the cluster recovered after it.
    pub fn node_stores(&self, config: &ClusterConfig) -> Vec<Arc<dyn BlockStore>> {
        let store = |n: u32, free: Option<Free>| -> Arc<dyn BlockStore> {
            let store = self.blocks.node_store(NodeId(n)).freeing(free);
            match &self.keys {
                Some(k) => Arc::new(EncryptedBlockStore::new(
                    store,
                    Arc::clone(&k.keyring),
                    config.seed ^ (n as u64 + 1),
                )),
                None => Arc::new(store),
            }
        };
        // The handle deletes through a store without one: holding itself,
        // it would never drop.
        let (crashed, any) = (Arc::clone(&self.hard_crash), store(0, None));
        let free: Free = Arc::new(move |id| {
            if !crashed.load(Ordering::Acquire) {
                any.delete(id);
            }
        });
        (0..config.nodes).map(|n| store(n, Some(Arc::clone(&free)))).collect()
    }

    pub fn next_txn(&self) -> u64 {
        self.txn_seq.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Append a table writer's draft `next` of table `name` to the redo
    /// log: redo record, fsync, commit mark. Called with the table's
    /// writer lock held and after the final flush, so every slice's
    /// buffer is empty and the delta is a lossless image. Any failure
    /// (all injected — the log is in-memory) aborts the statement
    /// *before* the draft is published, so an unlogged write is never
    /// visible.
    pub fn log_table_delta(&self, txn: u64, name: &str, next: &TableVersion) -> Result<()> {
        self.wal.append_delta(txn, &next.encode_delta(name))?;
        self.wal.sync()?;
        self.wal.commit(txn)?;
        self.trace.counter("wal.commits").incr();
        Ok(())
    }

    /// Write a full-catalog checkpoint ([`Catalog::encode`]) to the redo
    /// log and reclaim the bytes it supersedes. A commit calls it under
    /// the publication lock, which serializes it with every other log
    /// write, holding the exclusive `write_txn`, so no table writer
    /// commits between the draft's clone and the catalog it encodes;
    /// recovery calls it before the cluster serves anything.
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

    /// Rebuild the last published catalog from the redo log: the last
    /// committed checkpoint seeds it, committed deltas after it replace
    /// one table's version each, in log order. Returns the catalog and
    /// the number of deltas replayed; transaction ids resume past the
    /// log's.
    pub fn replay(&self, topology: &ClusterTopology) -> Result<(Catalog, u64)> {
        let replay = wal::replay(&self.wal.durable_bytes())?;
        let mut catalog = Catalog::default();
        if let Some((txn, payload)) = &replay.checkpoint {
            catalog = Catalog::decode(&mut Reader::new(payload), topology)?;
            catalog.version = *txn;
        }
        let mut max_txn = catalog.version;
        for (txn, payload) in &replay.deltas {
            max_txn = max_txn.max(*txn);
            catalog = catalog.apply_delta(*txn, payload)?;
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
        let mut w = Writer::new();
        Keys::encode(self.keys.as_ref(), &mut w);
        catalog.encode(&mut w);
        self.backup.take_snapshot(id, kind, &self.blocks, blocks, &w.into_bytes())
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
