//! Block stores.
//!
//! [`BlockStore`] is the seam between the table layer and everything the
//! paper builds underneath it: local disks, the synchronous secondary
//! replica, the asynchronous S3 backup, and page-fault streaming restore.
//! The table layer only ever `put`s, `get`s and `delete`s, and hands each
//! row group it writes the store's [`Free`] handle; the replication crate
//! wraps a store to add mirroring and S3 fall-through without the storage
//! layer knowing.

use crate::block::{BlockId, EncodedBlock};
use redsim_testkit::sync::RwLock;
use redsim_common::{FxHashMap, Result, RsError};
use std::sync::Arc;

/// Deletes one block from every replica: what a row group calls on each of
/// its blocks when the last table version naming it drops.
pub type Free = Arc<dyn Fn(BlockId) + Send + Sync>;

/// Abstract block storage.
pub trait BlockStore: Send + Sync {
    /// Store a block (idempotent for identical content).
    fn put(&self, block: EncodedBlock) -> Result<()>;

    /// Fetch a block by id.
    fn get(&self, id: BlockId) -> Result<Arc<EncodedBlock>>;

    /// Drop a block. Missing ids are ignored (deletes are replayed during
    /// recovery).
    fn delete(&self, id: BlockId);

    /// Does the store currently hold this block locally?
    fn contains(&self, id: BlockId) -> bool;

    /// Number of blocks held.
    fn block_count(&self) -> usize;

    /// Total payload bytes held.
    fn total_bytes(&self) -> u64;

    /// The handle every row group written through this store frees its
    /// blocks with; `None`, the default, leaves them in place.
    fn free(&self) -> Option<Free> {
        None
    }
}

/// A shared handle to a store is a store, so wrappers generic over
/// `S: BlockStore` also take `Arc<dyn BlockStore>` or an `Arc` that
/// someone else keeps a typed clone of.
impl<T: BlockStore + ?Sized> BlockStore for Arc<T> {
    fn put(&self, block: EncodedBlock) -> Result<()> {
        (**self).put(block)
    }

    fn get(&self, id: BlockId) -> Result<Arc<EncodedBlock>> {
        (**self).get(id)
    }

    fn delete(&self, id: BlockId) {
        (**self).delete(id)
    }

    fn contains(&self, id: BlockId) -> bool {
        (**self).contains(id)
    }

    fn block_count(&self) -> usize {
        (**self).block_count()
    }

    fn total_bytes(&self) -> u64 {
        (**self).total_bytes()
    }

    fn free(&self) -> Option<Free> {
        (**self).free()
    }
}

/// In-memory block store (a node's local disk in the simulation).
#[derive(Default)]
pub struct MemBlockStore {
    inner: Arc<RwLock<FxHashMap<u64, Arc<EncodedBlock>>>>,
}

impl MemBlockStore {
    pub fn new() -> Self {
        Self::default()
    }

    /// Snapshot the ids currently held (backup enumeration).
    pub fn ids(&self) -> Vec<BlockId> {
        self.inner.read().keys().map(|&k| BlockId(k)).collect()
    }

    /// Drop every block (a node replaced by a blank one).
    pub fn clear(&self) {
        self.inner.write().clear();
    }
}

impl BlockStore for MemBlockStore {
    fn put(&self, block: EncodedBlock) -> Result<()> {
        block.verify()?;
        self.inner.write().insert(block.id.0, Arc::new(block));
        Ok(())
    }

    fn get(&self, id: BlockId) -> Result<Arc<EncodedBlock>> {
        self.inner
            .read()
            .get(&id.0)
            .cloned()
            .ok_or_else(|| RsError::NotFound(format!("{id} not in store")))
    }

    fn delete(&self, id: BlockId) {
        self.inner.write().remove(&id.0);
    }

    fn contains(&self, id: BlockId) -> bool {
        self.inner.read().contains_key(&id.0)
    }

    fn block_count(&self) -> usize {
        self.inner.read().len()
    }

    fn total_bytes(&self) -> u64 {
        self.inner.read().values().map(|b| b.byte_size() as u64).sum()
    }

    fn free(&self) -> Option<Free> {
        let inner = Arc::clone(&self.inner);
        Some(Arc::new(move |id: BlockId| drop(inner.write().remove(&id.0))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_delete() {
        let store = MemBlockStore::new();
        let blk = EncodedBlock::new(5, vec![9, 9, 9]);
        let id = blk.id;
        store.put(blk.clone()).unwrap();
        assert!(store.contains(id));
        assert_eq!(store.get(id).unwrap().payload, vec![9, 9, 9]);
        assert_eq!(store.block_count(), 1);
        assert_eq!(store.total_bytes(), 3);
        store.delete(id);
        assert!(!store.contains(id));
        assert!(store.get(id).is_err());
        store.delete(id); // idempotent
    }

    #[test]
    fn corrupt_put_rejected() {
        let store = MemBlockStore::new();
        let mut blk = EncodedBlock::new(5, vec![1]);
        blk.payload[0] = 2; // break CRC
        assert!(store.put(blk).is_err());
        assert_eq!(store.block_count(), 0);
    }

    #[test]
    fn concurrent_access() {
        let store = Arc::new(MemBlockStore::new());
        let mut handles = Vec::new();
        for t in 0..8 {
            let s = Arc::clone(&store);
            handles.push(std::thread::spawn(move || {
                for i in 0..100 {
                    let blk = EncodedBlock::new(1, vec![t as u8, i as u8]);
                    let id = blk.id;
                    s.put(blk).unwrap();
                    assert!(s.get(id).is_ok());
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(store.block_count(), 800);
    }
}
