//! Synchronous primary/secondary block mirroring with cohort placement,
//! and the S3 page fault that serves a block no live replica holds.
//!
//! §2.2: "'page-faulting' in blocks when unavailable on local storage …
//! also allowed us to implement a streaming restore capability". A
//! restored cluster is this store with no placements and a pending list:
//! the page fault that brings a pending block on-cluster *is* hydration.

use crate::inject::{self, Flow};
use crate::s3sim::S3Sim;
use redsim_faultkit::{fp, FaultRegistry};
use redsim_obs::{AttrValue, TraceSink};
use redsim_testkit::sync::{Mutex, RwLock};
use redsim_common::{FxHashMap, Result, RetryPolicy, RsError};
use redsim_distribution::{CohortMap, NodeId};
use redsim_storage::{BlockId, BlockStore, EncodedBlock, Free, MemBlockStore};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Where a block's replicas live.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    pub primary: NodeId,
    pub secondary: Option<NodeId>,
}

/// A block's S3 key in `bucket` (backups, snapshots and page faults).
pub(crate) fn block_key(bucket: &str, id: BlockId) -> String {
    format!("{bucket}/blocks/{:016x}", id.0)
}

/// Cluster-wide replicated storage shared by all nodes.
pub struct ReplicatedStore {
    nodes: Vec<Arc<MemBlockStore>>,
    alive: RwLock<Vec<bool>>,
    cohorts: CohortMap,
    placements: RwLock<FxHashMap<u64, Placement>>,
    s3: Arc<S3Sim>,
    region: String,
    bucket: String,
    /// Where a page fault reads a block the cluster's own bucket lacks:
    /// the `(region, bucket)` of the snapshot a restore opened. A
    /// launched cluster's origin is its own bucket.
    origin: RwLock<(String, String)>,
    /// Blocks a restore has not brought on-cluster yet, each tagged with
    /// the node a COPY would have placed it on, and how many it started
    /// with.
    pending: Mutex<BTreeMap<u64, NodeId>>,
    restored: AtomicUsize,
    /// Blocks written but not yet uploaded to S3 (the async backup queue).
    backup_queue: Mutex<Vec<BlockId>>,
    /// Read path telemetry.
    secondary_reads: Mutex<u64>,
    s3_reads: Mutex<u64>,
    /// Optional telemetry sink (the owning cluster's). Mirror lag shows
    /// up as the `mirror.backup_backlog` gauge; drains and
    /// re-replication as `mirror.*` spans/counters.
    trace: RwLock<Option<Arc<TraceSink>>>,
    /// Retry policy for every S3-touching and failpoint-armed path.
    retry: RwLock<RetryPolicy>,
}

impl ReplicatedStore {
    pub fn new(
        n_nodes: u32,
        cohort_size: u32,
        s3: Arc<S3Sim>,
        region: impl Into<String>,
        bucket: impl Into<String>,
    ) -> Result<Arc<Self>> {
        let (region, bucket) = (region.into(), bucket.into());
        Ok(Arc::new(ReplicatedStore {
            nodes: (0..n_nodes).map(|_| Arc::new(MemBlockStore::new())).collect(),
            alive: RwLock::new(vec![true; n_nodes as usize]),
            cohorts: CohortMap::new(n_nodes, cohort_size)?,
            placements: RwLock::new(FxHashMap::default()),
            s3,
            origin: RwLock::new((region.clone(), bucket.clone())),
            region,
            bucket,
            pending: Mutex::new(BTreeMap::new()),
            restored: AtomicUsize::new(0),
            backup_queue: Mutex::new(Vec::new()),
            secondary_reads: Mutex::new(0),
            s3_reads: Mutex::new(0),
            trace: RwLock::new(None),
            retry: RwLock::new(RetryPolicy::default()),
        }))
    }

    /// Attach a telemetry sink after construction (the store is always
    /// behind an `Arc`, so this is interior rather than a builder).
    pub fn set_trace(&self, sink: Arc<TraceSink>) {
        *self.trace.write() = Some(sink);
    }

    /// Replace the retry policy (the cluster plumbs
    /// `ClusterConfig::retry` here at launch).
    pub fn set_retry_policy(&self, policy: RetryPolicy) {
        *self.retry.write() = policy;
    }

    /// The failpoint registry shared through the S3 handle.
    pub fn faults(&self) -> &Arc<FaultRegistry> {
        self.s3.faults()
    }

    fn sink_opt(&self) -> Option<Arc<TraceSink>> {
        self.trace.read().clone()
    }

    fn span(&self, name: &'static str) -> redsim_obs::Span {
        let trace = self.trace.read();
        trace.as_ref().map_or_else(redsim_obs::Span::disabled, |t| t.span(name))
    }

    fn with_sink(&self, f: impl FnOnce(&Arc<TraceSink>)) {
        if let Some(t) = self.trace.read().as_ref() {
            f(t);
        }
    }

    fn publish_backlog(&self) {
        let depth = self.backup_queue.lock().len() as i64;
        self.with_sink(|t| t.gauge("mirror.backup_backlog").set(depth));
    }

    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Make this store a restore of the snapshot in `(region, bucket)`:
    /// `blocks` start there, each tagged with the node that owns it, and
    /// come on-cluster as they are read or hydrated.
    pub fn restore_from(
        &self,
        region: impl Into<String>,
        bucket: impl Into<String>,
        blocks: impl IntoIterator<Item = (BlockId, NodeId)>,
    ) {
        *self.origin.write() = (region.into(), bucket.into());
        let mut pending = self.pending.lock();
        pending.extend(blocks.into_iter().map(|(id, node)| (id.0, node)));
        self.restored.store(pending.len(), Ordering::Relaxed);
    }

    /// A per-node handle implementing [`BlockStore`]; writes through this
    /// handle place the primary replica on that node.
    pub fn node_store(self: &Arc<Self>, node: NodeId) -> NodeStore {
        assert!((node.0 as usize) < self.nodes.len());
        NodeStore { node, inner: Arc::clone(self), free: None }
    }

    fn node_alive(&self, node: NodeId) -> bool {
        self.alive.read()[node.0 as usize]
    }

    /// Synchronous dual write: primary on `node`, secondary in-cohort;
    /// queued for S3 backup when `backup`.
    fn put_from(&self, node: NodeId, block: EncodedBlock, backup: bool) -> Result<()> {
        if !self.node_alive(node) {
            return Err(RsError::FaultInjected(format!("{node} is down")));
        }
        let id = block.id;
        let mut secondary = self.cohorts.secondary_for(node, id.0);
        // Skip dead secondaries: pick another cohort member if possible.
        if let Some(s) = secondary {
            if !self.node_alive(s) {
                secondary = self
                    .cohorts
                    .members(node)
                    .into_iter()
                    .find(|&m| m != node && self.node_alive(m));
            }
        }
        let retry = *self.retry.read();
        let sink = self.sink_opt();
        let faults = self.faults();
        // Primary replica, behind the `mirror.write.primary` failpoint.
        // A `drop` action skips the local write but keeps the placement:
        // reads then fall through to the secondary (the escalator).
        retry.run_observed(
            "mirror.write.primary",
            || match inject::fire(faults, sink.as_ref(), fp::MIRROR_WRITE_PRIMARY)? {
                Flow::Skip => Ok(()),
                Flow::Continue => self.nodes[node.0 as usize].put(block.clone()),
            },
            inject::retry_observer(sink.clone()),
        )?;
        if let Some(s) = secondary {
            retry.run_observed(
                "mirror.write.secondary",
                || match inject::fire(faults, sink.as_ref(), fp::MIRROR_WRITE_SECONDARY)? {
                    Flow::Skip => Ok(()),
                    Flow::Continue => self.nodes[s.0 as usize].put(block.clone()),
                },
                inject::retry_observer(sink.clone()),
            )?;
        }
        self.placements.write().insert(id.0, Placement { primary: node, secondary });
        if backup {
            self.backup_queue.lock().push(id);
            self.publish_backlog();
        }
        Ok(())
    }

    /// Read with fall-through: primary → secondary → S3.
    pub fn get_any(&self, id: BlockId) -> Result<Arc<EncodedBlock>> {
        let placement = self.placements.read().get(&id.0).copied();
        if let Some(p) = placement {
            if self.node_alive(p.primary) {
                if let Ok(b) = self.nodes[p.primary.0 as usize].get(id) {
                    return Ok(b);
                }
            }
            if let Some(s) = p.secondary {
                if self.node_alive(s) {
                    if let Ok(b) = self.nodes[s.0 as usize].get(id) {
                        *self.secondary_reads.lock() += 1;
                        return Ok(b);
                    }
                }
            }
        }
        // Page-fault from S3 ("making media failures transparent"). A
        // failed placement does not fail the read: the block stays pending.
        *self.s3_reads.lock() += 1;
        let fault = || self.fault_in(id).map(|(block, _placed)| block);
        let Some(t) = self.sink_opt() else { return fault() };
        t.counter("restore.page_faults").incr();
        let mut span = t.span("restore.page_fault");
        span.attr("block", AttrValue::Str(format!("{id}")));
        let out = fault();
        span.finish();
        out
    }

    /// Fetch `id` from S3 — the cluster's own bucket, else the restore's
    /// origin. Transient faults (throttles, the `restore.page_fault`
    /// failpoint) are absorbed by the retry loop; a genuinely missing
    /// object is a replication error, while an exhausted retry budget
    /// surfaces its own class (THROTTLE, FAULT, ...). A pending block is
    /// placed like a COPY write (its node, else a live cohort member) and
    /// backed up only if it came from the origin, whose retention is
    /// another cluster's; the placement's result is returned beside it.
    fn fault_in(&self, id: BlockId) -> Result<(Arc<EncodedBlock>, Result<()>)> {
        let sink = self.sink_opt();
        if let Some(t) = &sink {
            t.counter("restore.s3_gets").incr();
        }
        let (region, key, from_origin) = match block_key(&self.bucket, id) {
            own if self.s3.exists(&self.region, &own) => (self.region.clone(), own, false),
            _ => {
                let (region, bucket) = self.origin.read().clone();
                (region, block_key(&bucket, id), true)
            }
        };
        let retry = *self.retry.read();
        let bytes = retry
            .run_observed(
                "restore.page_fault",
                || {
                    inject::fire_no_skip(self.faults(), sink.as_ref(), fp::RESTORE_PAGE_FAULT)?;
                    self.s3.get_traced(&region, &key, sink.as_ref())
                },
                inject::retry_observer(sink.clone()),
            )
            .map_err(|e| match e {
                RsError::NotFound(_) => {
                    RsError::Replication(format!("{id} unavailable on all replicas and S3"))
                }
                other => other,
            })?;
        let block = Arc::new(EncodedBlock::deserialize(&bytes)?);
        // Held until placed: `delete_everywhere` takes it first, so a
        // concurrent delete is never undone.
        let mut pending = self.pending.lock();
        let placed = match pending.get(&id.0).copied() {
            None => Ok(()),
            Some(home) => Some(home)
                .filter(|&n| self.node_alive(n))
                .or_else(|| self.cohorts.members(home).into_iter().find(|&m| self.node_alive(m)))
                .ok_or_else(|| RsError::Replication(format!("{id}: no live node to hydrate")))
                .and_then(|node| self.put_from(node, (*block).clone(), from_origin))
                .map(|()| {
                    pending.remove(&id.0);
                }),
        };
        Ok((block, placed))
    }

    /// Page-fault up to `k` pending blocks onto the cluster. Returns how
    /// many; 0 means hydration is complete. A block whose fetch or
    /// placement fails stays pending for the next step.
    pub fn hydrate_step(&self, k: usize) -> Result<usize> {
        let mut span = self.span("restore.hydrate_step");
        let batch: Vec<u64> = self.pending.lock().keys().take(k).copied().collect();
        for &id in &batch {
            self.fault_in(BlockId(id))?.1?;
            self.with_sink(|t| t.counter("restore.blocks_hydrated").incr());
        }
        span.attr("requested", k);
        span.attr("fetched", batch.len());
        span.attr("remaining", self.pending.lock().len());
        Ok(batch.len())
    }

    /// `1 − pending/restored`: the share of a restore's blocks on-cluster
    /// (1.0 for a launched cluster).
    pub fn hydration_progress(&self) -> f64 {
        let restored = self.restored.load(Ordering::Relaxed);
        if restored == 0 {
            return 1.0;
        }
        restored.saturating_sub(self.pending.lock().len()) as f64 / restored as f64
    }

    /// Drain the async backup queue to S3; returns blocks uploaded.
    /// (In the real service this runs continuously; tests and the backup
    /// manager call it explicitly for determinism.)
    pub fn drain_backup_queue(&self) -> Result<usize> {
        let pending: Vec<BlockId> = std::mem::take(&mut *self.backup_queue.lock());
        let requested = pending.len();
        let mut span = self.span("mirror.backup_drain");
        let retry = *self.retry.read();
        let sink = self.sink_opt();
        let faults = self.faults();
        let mut uploaded = 0;
        let mut requeue: Vec<BlockId> = Vec::new();
        let mut failure: Option<RsError> = None;
        let mut iter = pending.into_iter();
        for id in iter.by_ref() {
            let key = block_key(&self.bucket, id);
            if self.s3.exists(&self.region, &key) {
                continue; // incremental: S3 already has it
            }
            let block = match self.get_any(id) {
                Ok(b) => b,
                Err(_) if !self.placements.read().contains_key(&id.0) => {
                    continue; // deleted before upload; skip for good
                }
                Err(e) => {
                    // Still placed but unreadable right now (e.g. S3
                    // flakiness past the retry budget while both
                    // replicas are down): keep it queued, surface typed.
                    requeue.push(id);
                    failure = Some(e);
                    break;
                }
            };
            let res = retry.run_observed(
                "mirror.backup_drain",
                || match inject::fire(faults, sink.as_ref(), fp::MIRROR_BACKUP_DRAIN)? {
                    Flow::Skip => Ok(false), // stays queued for the next drain
                    Flow::Continue => {
                        self.s3.put_traced(&self.region, &key, block.serialize(), sink.as_ref())?;
                        Ok(true)
                    }
                },
                inject::retry_observer(sink.clone()),
            );
            match res {
                Ok(true) => uploaded += 1,
                Ok(false) => requeue.push(id),
                Err(e) => {
                    requeue.push(id);
                    failure = Some(e);
                    break;
                }
            }
        }
        // Anything unprocessed (skip, failure, or never reached) goes
        // back on the queue — a failed drain never loses durability work.
        requeue.extend(iter);
        if !requeue.is_empty() {
            self.backup_queue.lock().extend(requeue);
        }
        span.attr("queued", requested);
        span.attr("uploaded", uploaded);
        span.attr("failed", failure.is_some());
        span.finish();
        self.with_sink(|t| t.counter("mirror.blocks_backed_up").add(uploaded as u64));
        self.publish_backlog();
        match failure {
            Some(e) => Err(e),
            None => Ok(uploaded),
        }
    }

    /// Blocks still awaiting S3 upload (durability-window accounting).
    pub fn backup_backlog(&self) -> usize {
        self.backup_queue.lock().len()
    }

    /// Fail a node: local data evaporates, reads fall through.
    /// Idempotent — killing an already-dead node is a no-op and returns
    /// `false`, so chaos schedules with repeated kills can't double-count
    /// failures or skew re-replication accounting.
    pub fn kill_node(&self, node: NodeId) -> bool {
        let mut alive = self.alive.write();
        if !alive[node.0 as usize] {
            return false;
        }
        alive[node.0 as usize] = false;
        true
    }

    /// Bring a (replaced) node back empty. Idempotent — reviving a node
    /// that is already alive is a no-op and returns `false`. (The old
    /// behavior deleted the live node's hosted blocks, silently
    /// destroying replicas and skewing `fallthrough_stats`.)
    pub fn revive_node(&self, node: NodeId) -> bool {
        {
            let mut alive = self.alive.write();
            if alive[node.0 as usize] {
                return false;
            }
            // Flip aliveness under the lock; the block wipe below races
            // only with reads, which treat missing blocks as fall-through.
            alive[node.0 as usize] = true;
        }
        // The replacement arrives blank: every block the dead incarnation
        // held goes, named by a placement or not (we can't swap the store
        // Arc in-place without unsafe).
        self.nodes[node.0 as usize].clear();
        true
    }

    /// Is `node` up and holding `id`'s bytes — a live copy?
    fn holds(&self, node: NodeId, id: BlockId) -> bool {
        self.node_alive(node) && self.nodes[node.0 as usize].contains(id)
    }

    /// Re-replicate every block that lost a replica on `failed`, and
    /// every other block with one live copy where its cohort has room
    /// for two: one placed without a secondary while its peer was down,
    /// or whose secondary write was dropped. Returns (blocks
    /// re-replicated, bytes copied) — the "resource impact of
    /// re-replication" the cohort design bounds.
    pub fn re_replicate(&self, failed: NodeId) -> Result<(usize, u64)> {
        let mut span = self.span("mirror.re_replicate");
        let live_members = |n: NodeId| self.cohorts.members(n).into_iter().filter(|&m| self.node_alive(m)).count();
        let affected: Vec<(u64, Placement)> = self
            .placements
            .read()
            .iter()
            .filter(|&(&id, p)| {
                let copies = [Some(p.primary), p.secondary].into_iter().flatten();
                let copies = copies.filter(|&n| self.holds(n, BlockId(id))).count();
                p.primary == failed || p.secondary == Some(failed) || copies == 1 && live_members(p.primary) >= 2
            })
            .map(|(&id, &p)| (id, p))
            .collect();
        let retry = *self.retry.read();
        let sink = self.sink_opt();
        let faults = self.faults();
        let mut blocks = 0usize;
        let mut bytes = 0u64;
        for (idraw, old) in affected {
            let id = BlockId(idraw);
            // `mirror.re_replicate` + retry wrap the block read; a
            // `drop` action skips this block (it stays under-replicated
            // until the next pass), transient errors are absorbed, and
            // persistent ones surface typed with partial progress kept.
            let fetched = retry.run_observed(
                "mirror.re_replicate",
                || match inject::fire(faults, sink.as_ref(), fp::MIRROR_RE_REPLICATE)? {
                    Flow::Skip => Ok(None),
                    Flow::Continue => self.get_any(id).map(Some),
                },
                inject::retry_observer(sink.clone()),
            )?;
            let Some(block) = fetched else { continue };
            // New primary: a replica still holding the bytes, else the
            // live one `failed` leaves; new secondary: another live
            // cohort member — `failed` itself once revived (blank), which
            // in a two-node cohort is the only one. Whichever lacks the
            // bytes gets them.
            let named = [Some(old.primary), old.secondary].into_iter().flatten();
            let survivor = (named.clone().find(|&n| self.holds(n, id)))
                .or_else(|| named.filter(|&n| n != failed).find(|&n| self.node_alive(n)));
            let survivor = survivor.ok_or_else(|| {
                RsError::Replication(format!("{id}: no surviving on-cluster replica"))
            })?;
            let new_secondary = self
                .cohorts
                .members(survivor)
                .into_iter()
                .find(|&m| m != survivor && self.node_alive(m));
            for n in [Some(survivor), new_secondary].into_iter().flatten() {
                if !self.holds(n, id) {
                    self.nodes[n.0 as usize].put((*block).clone())?;
                    bytes += block.byte_size() as u64;
                }
            }
            self.placements
                .write()
                .insert(idraw, Placement { primary: survivor, secondary: new_secondary });
            blocks += 1;
        }
        span.attr("node", failed.0);
        span.attr("blocks", blocks);
        span.attr("bytes", bytes);
        span.finish();
        self.with_sink(|t| t.counter("mirror.blocks_re_replicated").add(blocks as u64));
        Ok((blocks, bytes))
    }

    pub fn placement_of(&self, id: BlockId) -> Option<Placement> {
        self.placements.read().get(&id.0).copied()
    }

    /// Every block id with a live placement. Crash recovery's scrub pass
    /// diffs this against the manifests it rebuilt from the redo log:
    /// anything placed but unreferenced is an orphan from a transaction
    /// that died before its commit mark, and gets deleted.
    pub fn placed_block_ids(&self) -> Vec<BlockId> {
        self.placements.read().keys().map(|&id| BlockId(id)).collect()
    }

    /// (secondary reads, S3 page faults) so far — a restore's demand
    /// faults included, its background hydration not.
    pub fn fallthrough_stats(&self) -> (u64, u64) {
        (*self.secondary_reads.lock(), *self.s3_reads.lock())
    }

    /// Total bytes held across all node-local stores.
    pub fn local_bytes(&self) -> u64 {
        self.nodes.iter().map(|n| n.total_bytes()).sum()
    }

    fn delete_everywhere(&self, id: BlockId) {
        // Pending lock first: a page fault placing `id` finishes before
        // this delete, never after it.
        let mut pending = self.pending.lock();
        pending.remove(&id.0);
        for n in &self.nodes {
            n.delete(id);
        }
        self.placements.write().remove(&id.0);
        // S3 copies are governed by snapshot retention, not live deletes.
    }
}

/// Per-node [`BlockStore`] handle over a [`ReplicatedStore`].
#[derive(Clone)]
pub struct NodeStore {
    node: NodeId,
    inner: Arc<ReplicatedStore>,
    free: Option<Free>,
}

impl NodeStore {
    /// This handle, handing every row group written through it `free`.
    pub fn freeing(self, free: Option<Free>) -> NodeStore {
        NodeStore { free, ..self }
    }

    pub fn node(&self) -> NodeId {
        self.node
    }

    pub fn cluster(&self) -> &Arc<ReplicatedStore> {
        &self.inner
    }
}

impl BlockStore for NodeStore {
    fn put(&self, block: EncodedBlock) -> Result<()> {
        self.inner.put_from(self.node, block, true)
    }

    fn get(&self, id: BlockId) -> Result<Arc<EncodedBlock>> {
        self.inner.get_any(id)
    }

    fn delete(&self, id: BlockId) {
        self.inner.delete_everywhere(id);
    }

    fn contains(&self, id: BlockId) -> bool {
        self.inner.placements.read().contains_key(&id.0)
    }

    fn block_count(&self) -> usize {
        self.inner.placements.read().len()
    }

    fn total_bytes(&self) -> u64 {
        self.inner.local_bytes()
    }

    fn free(&self) -> Option<Free> {
        self.free.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(payload: Vec<u8>) -> EncodedBlock {
        EncodedBlock::new(1, payload)
    }

    fn setup(nodes: u32) -> (Arc<S3Sim>, Arc<ReplicatedStore>) {
        let s3 = Arc::new(S3Sim::new());
        let store = ReplicatedStore::new(nodes, 4, Arc::clone(&s3), "us-east-1", "clu-1").unwrap();
        (s3, store)
    }

    #[test]
    fn dual_write_and_placement() {
        let (_s3, store) = setup(4);
        let ns = store.node_store(NodeId(1));
        let b = block(vec![1, 2, 3]);
        let id = b.id;
        ns.put(b).unwrap();
        let p = store.placement_of(id).unwrap();
        assert_eq!(p.primary, NodeId(1));
        let sec = p.secondary.unwrap();
        assert_ne!(sec, NodeId(1));
        // Both copies exist on-cluster.
        assert!(store.nodes[1].contains(id));
        assert!(store.nodes[sec.0 as usize].contains(id));
    }

    #[test]
    fn read_falls_through_to_secondary_then_s3() {
        let (_s3, store) = setup(4);
        let ns = store.node_store(NodeId(0));
        let b = block(vec![9; 64]);
        let id = b.id;
        ns.put(b).unwrap();
        store.drain_backup_queue().unwrap();

        store.kill_node(NodeId(0));
        assert_eq!(store.get_any(id).unwrap().payload, vec![9; 64]);
        let (sec_reads, _) = store.fallthrough_stats();
        assert_eq!(sec_reads, 1);

        // Kill the secondary too: S3 page fault.
        let p = store.placement_of(id).unwrap();
        store.kill_node(p.secondary.unwrap());
        assert_eq!(store.get_any(id).unwrap().payload, vec![9; 64]);
        let (_, s3_reads) = store.fallthrough_stats();
        assert_eq!(s3_reads, 1);
    }

    #[test]
    fn durability_window_requires_multiple_faults() {
        // Block not yet in S3 + both replicas lost = data loss (reported
        // as an error, never silent corruption).
        let (_s3, store) = setup(4);
        let ns = store.node_store(NodeId(0));
        let b = block(vec![5]);
        let id = b.id;
        ns.put(b).unwrap();
        assert_eq!(store.backup_backlog(), 1);
        let p = store.placement_of(id).unwrap();
        store.kill_node(NodeId(0));
        store.kill_node(p.secondary.unwrap());
        assert!(store.get_any(id).is_err(), "double fault inside the backup window");
    }

    #[test]
    fn incremental_backup_skips_existing() {
        let (s3, store) = setup(2);
        let ns = store.node_store(NodeId(0));
        let b1 = block(vec![1]);
        ns.put(b1).unwrap();
        assert_eq!(store.drain_backup_queue().unwrap(), 1);
        let b2 = block(vec![2]);
        ns.put(b2).unwrap();
        assert_eq!(store.drain_backup_queue().unwrap(), 1, "only the new block uploads");
        assert_eq!(s3.stats("us-east-1").puts, 2);
    }

    #[test]
    fn re_replication_restores_redundancy() {
        let (_s3, store) = setup(4);
        let ns = store.node_store(NodeId(0));
        let mut ids = Vec::new();
        for i in 0..20u8 {
            let b = block(vec![i; 32]);
            ids.push(b.id);
            ns.put(b).unwrap();
        }
        store.kill_node(NodeId(0));
        let (blocks, bytes) = store.re_replicate(NodeId(0)).unwrap();
        assert_eq!(blocks, 20);
        assert!(bytes > 0);
        // Every block now has two live replicas not involving node 0.
        for id in ids {
            let p = store.placement_of(id).unwrap();
            assert_ne!(p.primary, NodeId(0));
            assert_ne!(p.secondary, Some(NodeId(0)));
            assert!(p.secondary.is_some());
            assert!(store.get_any(id).is_ok());
        }
    }

    #[test]
    fn re_replication_onto_a_revived_node_restores_redundancy() {
        // Two nodes, nothing backed up: after node 0 is replaced and
        // re-replicated, losing node 1 must lose nothing.
        let (_s3, store) = setup(2);
        let b = block(vec![7; 32]);
        let id = b.id;
        store.node_store(NodeId(0)).put(b).unwrap();
        store.kill_node(NodeId(0));
        assert!(store.revive_node(NodeId(0)));
        store.re_replicate(NodeId(0)).unwrap();
        store.kill_node(NodeId(1));
        assert_eq!(store.get_any(id).unwrap().payload, vec![7; 32]);
    }

    #[test]
    fn re_replication_repairs_a_block_written_while_its_peer_was_down() {
        // Two nodes, nothing backed up: a block put while node 1 is down
        // has no secondary. Re-replicating node 1 once it is back must
        // give it one, so losing node 0 loses nothing.
        let (_s3, store) = setup(2);
        store.kill_node(NodeId(1));
        let b = block(vec![9; 32]);
        let id = b.id;
        store.node_store(NodeId(0)).put(b).unwrap();
        assert_eq!(store.placement_of(id).unwrap().secondary, None);
        assert!(store.revive_node(NodeId(1)));
        assert_eq!(store.re_replicate(NodeId(1)).unwrap().0, 1);
        store.kill_node(NodeId(0));
        assert_eq!(store.get_any(id).unwrap().payload, vec![9; 32]);
    }

    #[test]
    fn re_replication_repairs_a_dropped_secondary_write() {
        // A dropped secondary write leaves a placement naming a replica
        // without the bytes. Any re-replication pass restores the copy,
        // not only one for a node the placement names.
        use redsim_faultkit::FaultSpec;
        let (_s3, store) = setup(4);
        store.faults().configure(fp::MIRROR_WRITE_SECONDARY, FaultSpec::drop_op().once());
        let b = block(vec![5; 32]);
        let id = b.id;
        store.node_store(NodeId(0)).put(b).unwrap();
        let p = store.placement_of(id).unwrap();
        let bystander = (1..4).map(NodeId).find(|&n| Some(n) != p.secondary).unwrap();
        store.kill_node(bystander);
        assert!(store.revive_node(bystander));
        assert_eq!(store.re_replicate(bystander).unwrap().0, 1);
        // A second pass has nothing left to copy.
        assert_eq!(store.re_replicate(bystander).unwrap().1, 0);
        store.kill_node(NodeId(0));
        assert_eq!(store.get_any(id).unwrap().payload, vec![5; 32]);
        assert_eq!(store.fallthrough_stats().1, 0, "served on-cluster");
    }

    #[test]
    fn a_revived_node_holds_nothing_it_held_before() {
        // A pass for a bystander moves a block's copy off dead node
        // `old`. Revived, `old` is blank, so re-replicating onto it after
        // losing node 0 copies the bytes again and counts them. Three
        // nodes, one cohort: whichever of 1 and 2 `old` is, the bystander
        // is the other.
        let (_s3, store) = setup(3);
        let b = block(vec![3; 32]);
        let (id, size) = (b.id, b.byte_size() as u64);
        store.node_store(NodeId(0)).put(b).unwrap();
        let old = store.placement_of(id).unwrap().secondary.unwrap();
        store.kill_node(old);
        let bystander = NodeId(3 - old.0);
        store.kill_node(bystander);
        assert!(store.revive_node(bystander));
        assert_eq!(store.re_replicate(bystander).unwrap(), (1, size));
        assert_eq!(store.placement_of(id).unwrap().secondary, Some(bystander));
        assert!(store.revive_node(old));
        store.kill_node(NodeId(0));
        assert_eq!(store.re_replicate(NodeId(0)).unwrap(), (1, size));
        assert_eq!(store.placement_of(id).unwrap().secondary, Some(old));
    }

    #[test]
    fn cohort_bounds_secondary_placement() {
        let (_s3, store) = setup(8); // cohorts of 4: {0..3}, {4..7}
        let ns = store.node_store(NodeId(5));
        for i in 0..50u8 {
            ns.put(block(vec![i])).unwrap();
        }
        for p in store.placements.read().values() {
            let s = p.secondary.unwrap();
            assert!((4..8).contains(&s.0), "secondary {s} escaped the cohort");
        }
    }

    #[test]
    fn single_node_cluster_relies_on_s3() {
        let s3 = Arc::new(S3Sim::new());
        let store = ReplicatedStore::new(1, 2, Arc::clone(&s3), "r", "b").unwrap();
        let ns = store.node_store(NodeId(0));
        let b = block(vec![3]);
        let id = b.id;
        ns.put(b).unwrap();
        assert!(store.placement_of(id).unwrap().secondary.is_none());
        store.drain_backup_queue().unwrap();
        store.kill_node(NodeId(0));
        assert!(store.get_any(id).is_ok(), "page-faulted from S3");
    }

    #[test]
    fn kill_and_revive_are_idempotent() {
        use redsim_testkit::rng::{Pcg32, Rng};
        let (_s3, store) = setup(4);
        let ns = store.node_store(NodeId(0));
        let b = block(vec![8; 16]);
        let id = b.id;
        ns.put(b).unwrap();
        let p = store.placement_of(id).unwrap();
        let sec = p.secondary.unwrap();

        // Regression: revive-of-live used to wipe the live node's hosted
        // blocks, silently destroying replicas and skewing fallthrough
        // stats. It must be a no-op now.
        assert!(!store.revive_node(NodeId(0)));
        assert!(store.nodes[0].contains(id), "revive of a live node must not destroy replicas");
        store.get_any(id).unwrap();
        assert_eq!(store.fallthrough_stats(), (0, 0), "read served from the primary");

        // Double-kill: the second call is a no-op.
        assert!(store.kill_node(NodeId(0)));
        assert!(!store.kill_node(NodeId(0)));
        let (blocks, _) = store.re_replicate(NodeId(0)).unwrap();
        assert_eq!(blocks, 1, "re-replication counts each block once despite double-kill");

        // Revive exactly once; a second revive is a no-op and must not
        // touch the re-replicated copies.
        assert!(store.revive_node(NodeId(0)));
        assert!(!store.revive_node(NodeId(0)));
        assert!(store.nodes[sec.0 as usize].contains(id));
        assert_eq!(store.get_any(id).unwrap().payload, vec![8; 16]);

        // Randomized kill/revive storm: accounting never drifts.
        let mut rng = Pcg32::seed_from_u64(11);
        let mut alive = [true; 4];
        for _ in 0..200 {
            let n = rng.gen_range(0u32..4);
            if rng.gen_bool(0.5) {
                assert_eq!(store.kill_node(NodeId(n)), alive[n as usize]);
                alive[n as usize] = false;
            } else {
                assert_eq!(store.revive_node(NodeId(n)), !alive[n as usize]);
                alive[n as usize] = true;
            }
        }
    }

    #[test]
    fn get_any_retries_transient_s3_faults() {
        use redsim_faultkit::{fp, ErrClass, FaultSpec};
        let (s3, store) = setup(2);
        let ns = store.node_store(NodeId(0));
        let b = block(vec![4; 32]);
        let id = b.id;
        ns.put(b).unwrap();
        store.drain_backup_queue().unwrap();
        store.kill_node(NodeId(0));
        store.kill_node(store.placement_of(id).unwrap().secondary.unwrap());
        // First two S3 GETs throttle, then S3 recovers: the retry loop
        // must absorb the transient and serve the read.
        s3.faults().configure(fp::S3_GET, FaultSpec::err(ErrClass::Throttle).times(2));
        assert_eq!(store.get_any(id).unwrap().payload, vec![4; 32]);
        assert_eq!(s3.faults().injected_total(), 2);
    }

    #[test]
    fn retry_exhaustion_surfaces_throttle_not_a_hang() {
        use redsim_faultkit::{fp, ErrClass, FaultSpec};
        use std::time::{Duration, Instant};
        let (s3, store) = setup(2);
        let ns = store.node_store(NodeId(0));
        let b = block(vec![4; 32]);
        let id = b.id;
        ns.put(b).unwrap();
        store.drain_backup_queue().unwrap();
        store.kill_node(NodeId(0));
        store.kill_node(store.placement_of(id).unwrap().secondary.unwrap());
        store.set_retry_policy(
            redsim_common::RetryPolicy::default()
                .with_max_attempts(4)
                .with_delays(Duration::from_micros(100), Duration::from_millis(1))
                .with_deadline(Duration::from_millis(200)),
        );
        // Permanent throttling: typed THROTTLE after the budget, fast.
        s3.faults().configure(fp::S3_GET, FaultSpec::err(ErrClass::Throttle));
        let t0 = Instant::now();
        let err = store.get_any(id).unwrap_err();
        assert_eq!(err.code(), "THROTTLE", "{err}");
        assert!(err.to_string().contains("exhausted"), "{err}");
        assert!(t0.elapsed() < Duration::from_secs(2), "no hang: {:?}", t0.elapsed());
    }

    #[test]
    fn drain_requeues_on_failure_and_recovers() {
        use redsim_faultkit::{fp, ErrClass, FaultSpec};
        use std::time::Duration;
        let (s3, store) = setup(2);
        store.set_retry_policy(
            redsim_common::RetryPolicy::default()
                .with_max_attempts(2)
                .with_delays(Duration::from_micros(100), Duration::from_millis(1)),
        );
        let ns = store.node_store(NodeId(0));
        for i in 0..6u8 {
            ns.put(block(vec![i; 8])).unwrap();
        }
        assert_eq!(store.backup_backlog(), 6);
        // Persistent put failures: the drain surfaces a typed error and
        // keeps everything queued (no lost durability work).
        s3.faults().configure(fp::S3_PUT, FaultSpec::err(ErrClass::Throttle));
        let err = store.drain_backup_queue().unwrap_err();
        assert_eq!(err.code(), "THROTTLE");
        assert_eq!(store.backup_backlog(), 6, "failed drain must requeue");
        // S3 recovers: the next drain finishes the job.
        s3.faults().clear(fp::S3_PUT);
        assert_eq!(store.drain_backup_queue().unwrap(), 6);
        assert_eq!(store.backup_backlog(), 0);
    }

    #[test]
    fn delete_removes_all_replicas() {
        let (_s3, store) = setup(4);
        let ns = store.node_store(NodeId(2));
        let b = block(vec![1]);
        let id = b.id;
        ns.put(b).unwrap();
        ns.delete(id);
        assert!(!ns.contains(id));
        for n in &store.nodes {
            assert!(!n.contains(id));
        }
    }

    /// A store restored from `n` blocks in `r/b`, homed alternately on
    /// nodes 0 and 1 of a two-node cluster whose own bucket is `r/own`.
    fn restored(n: u8) -> (Arc<S3Sim>, Arc<ReplicatedStore>, Vec<BlockId>) {
        let s3 = Arc::new(S3Sim::new());
        let ids: Vec<BlockId> = (0..n)
            .map(|i| {
                let b = block(vec![i; 8]);
                s3.put("r", &block_key("b", b.id), b.serialize());
                b.id
            })
            .collect();
        let store = ReplicatedStore::new(2, 2, Arc::clone(&s3), "r", "own").unwrap();
        store.restore_from("r", "b", ids.iter().map(|&id| (id, NodeId(id.0 as u32 % 2))));
        (s3, store, ids)
    }

    fn hydrate_all(store: &ReplicatedStore) -> usize {
        let mut total = 0;
        loop {
            match store.hydrate_step(64).unwrap() {
                0 => return total,
                n => total += n,
            }
        }
    }

    #[test]
    fn restore_serves_a_demand_fault_then_reads_locally() {
        let (_s3, store, ids) = restored(10);
        assert_eq!(store.hydration_progress(), 0.0);
        assert_eq!(store.get_any(ids[7]).unwrap().payload, vec![7; 8]);
        assert_eq!(store.fallthrough_stats().1, 1);
        // The fault placed it like a write: its node plus a secondary.
        let p = store.placement_of(ids[7]).unwrap();
        assert_eq!(p.primary, NodeId(ids[7].0 as u32 % 2));
        assert!(p.secondary.is_some());
        store.get_any(ids[7]).unwrap();
        assert_eq!(store.fallthrough_stats().1, 1, "second read is local");
        assert_eq!(store.hydration_progress(), 0.1);
    }

    #[test]
    fn hydrated_blocks_are_backed_up_unless_already_in_the_own_bucket() {
        // From another cluster's snapshot: copied into the own bucket, so
        // the origin's retention cannot take it away.
        let (s3, store, ids) = restored(2);
        store.get_any(ids[0]).unwrap();
        assert_eq!(store.backup_backlog(), 1);
        assert_eq!(store.drain_backup_queue().unwrap(), 1);
        assert!(s3.exists("r", &block_key("own", ids[0])));
        // From the cluster's own bucket: S3 already has it.
        let b = block(vec![5; 8]);
        s3.put("r", &block_key("own", b.id), b.serialize());
        let store = ReplicatedStore::new(2, 2, Arc::clone(&s3), "r", "own").unwrap();
        store.restore_from("r", "own", [(b.id, NodeId(0))]);
        assert_eq!(hydrate_all(&store), 1);
        assert_eq!(store.backup_backlog(), 0);
    }

    #[test]
    fn demand_read_survives_a_failed_placement() {
        use redsim_faultkit::{fp, ErrClass, FaultSpec};
        let (s3, store, ids) = restored(2);
        s3.faults().configure(fp::MIRROR_WRITE_PRIMARY, FaultSpec::err(ErrClass::Fault));
        assert_eq!(store.get_any(ids[0]).unwrap().payload, vec![0; 8]);
        assert_eq!(store.placement_of(ids[0]), None, "stays pending");
        assert_eq!(store.hydration_progress(), 0.0);
        // Hydration passes the placement error on; the block stays pending.
        assert_eq!(store.hydrate_step(1).unwrap_err().code(), "FAULT");
        s3.faults().clear(fp::MIRROR_WRITE_PRIMARY);
        assert_eq!(hydrate_all(&store), 2);
        assert_eq!(store.hydration_progress(), 1.0);
        // With no live node to hold it, a read is still served from S3.
        let (_s3, store, ids) = restored(1);
        store.kill_node(NodeId(0));
        store.kill_node(NodeId(1));
        assert!(store.get_any(ids[0]).is_ok());
        assert_eq!(store.hydration_progress(), 0.0);
    }

    #[test]
    fn a_deleted_pending_block_is_never_placed() {
        let (_s3, store, ids) = restored(2);
        store.node_store(NodeId(0)).delete(ids[0]);
        assert!(store.get_any(ids[0]).is_ok(), "S3 still has it");
        assert_eq!(store.placement_of(ids[0]), None);
        assert_eq!(hydrate_all(&store), 1);
        assert_eq!(store.placed_block_ids(), vec![ids[1]]);
    }

    #[test]
    fn restore_hydration_completes() {
        let (_s3, store, ids) = restored(20);
        let mut steps = 0;
        while store.hydration_progress() < 1.0 {
            store.hydrate_step(3).unwrap();
            steps += 1;
            assert!(steps < 100);
        }
        assert_eq!(store.placed_block_ids().len(), 20);
        for id in ids {
            store.get_any(id).unwrap();
        }
        assert_eq!(store.fallthrough_stats().1, 0, "every read is local");
    }

    #[test]
    fn restore_hydration_skips_faulted_blocks() {
        let (_s3, store, ids) = restored(5);
        for &id in &ids {
            store.get_any(id).unwrap();
        }
        assert_eq!(store.hydrate_step(64).unwrap(), 0, "nothing left to hydrate");
    }

    #[test]
    fn restore_of_a_lost_object_is_a_replication_error() {
        let (s3, store, ids) = restored(2);
        s3.inject_object_loss("r", &block_key("b", ids[0]));
        assert_eq!(store.get_any(ids[0]).unwrap_err().code(), "REPL");
        assert!(store.get_any(ids[1]).is_ok());
    }

    #[test]
    fn restore_trace_records_faults_and_hydration() {
        let sink = Arc::new(TraceSink::new());
        let (_s3, store, ids) = restored(6);
        store.set_trace(Arc::clone(&sink));
        store.get_any(ids[0]).unwrap(); // demand fault
        assert_eq!(hydrate_all(&store), 5);
        assert_eq!(sink.counter_value("restore.page_faults"), 1);
        assert_eq!(sink.counter_value("restore.blocks_hydrated"), 5);
        assert_eq!(sink.counter_value("restore.s3_gets"), 6);
        assert_eq!(sink.records_named("restore.page_fault").len(), 1);
        assert!(!sink.records_named("restore.hydrate_step").is_empty());
        assert_eq!(sink.open_spans(), 0, "all spans closed");
    }

    #[test]
    fn restore_rides_through_s3_flakiness() {
        use redsim_faultkit::{fp, ErrClass, FaultSpec};
        let (s3, store, ids) = restored(12);
        // 30% of S3 GETs throttle (seeded, replayable): hydration and
        // demand reads must complete via retries.
        s3.faults().reseed(7);
        s3.faults().configure(fp::S3_GET, FaultSpec::err(ErrClass::Throttle).prob(0.3));
        assert_eq!(hydrate_all(&store), 12);
        for id in ids {
            assert_eq!(store.get_any(id).unwrap().id, id);
        }
        assert!(s3.faults().injected_total() > 0, "the schedule must actually inject");
    }

    #[test]
    fn restore_page_fault_failpoint_is_typed_and_recovers() {
        use redsim_faultkit::{fp, ErrClass, FaultSpec};
        use std::time::Duration;
        let (s3, store, ids) = restored(2);
        store.set_retry_policy(
            RetryPolicy::default()
                .with_max_attempts(3)
                .with_delays(Duration::from_micros(100), Duration::from_millis(1)),
        );
        // Two transient faults then recovery: absorbed.
        s3.faults().configure(fp::RESTORE_PAGE_FAULT, FaultSpec::err(ErrClass::Fault).times(2));
        assert!(store.get_any(ids[0]).is_ok());
        // Persistent fault: typed FAULT after the budget, never a hang,
        // and the block stays pending.
        s3.faults().configure(fp::RESTORE_PAGE_FAULT, FaultSpec::err(ErrClass::Fault));
        let err = store.hydrate_step(1).unwrap_err();
        assert_eq!(err.code(), "FAULT", "{err}");
        assert_eq!(store.hydration_progress(), 0.5);
        s3.faults().clear(fp::RESTORE_PAGE_FAULT);
        assert_eq!(store.hydrate_step(1).unwrap(), 1, "recovers once the failpoint clears");
        assert_eq!(store.hydration_progress(), 1.0);
    }

    #[test]
    fn writes_after_restore_are_mirrored_and_backed_up() {
        let (_s3, store, _ids) = restored(2);
        let b = block(vec![42]);
        let id = b.id;
        store.node_store(NodeId(0)).put(b).unwrap();
        assert_eq!(store.get_any(id).unwrap().payload, vec![42]);
        assert_eq!(store.fallthrough_stats(), (0, 0));
        let sec = store.placement_of(id).unwrap().secondary.unwrap();
        assert!(store.nodes[sec.0 as usize].contains(id));
        assert_eq!(store.backup_backlog(), 1);
        assert_eq!(store.hydration_progress(), 0.0, "a write is not a hydrated block");
    }
}
