//! Encryption-at-rest block-store wrapper.
//!
//! Sits *above* replication so every copy of a block — primary,
//! secondary, S3 backup, cross-region DR — holds ciphertext ("All user
//! data, including backups, is encrypted", §3.2). Each block gets its own
//! key from the cluster keyring, per the paper's injection-attack
//! rationale.

use redsim_testkit::sync::Mutex;
use redsim_testkit::rng::Pcg32;
use redsim_common::Result;
use redsim_crypto::{decrypt_payload, encrypt_payload, ClusterKeyring, EncryptedPayload};
use redsim_storage::{BlockId, BlockStore, EncodedBlock, Free};
use std::sync::Arc;

/// A [`BlockStore`] that encrypts payloads on `put` and decrypts on `get`.
pub struct EncryptedBlockStore<S: BlockStore> {
    inner: S,
    keyring: Arc<ClusterKeyring>,
    rng: Mutex<Pcg32>,
}

impl<S: BlockStore> EncryptedBlockStore<S> {
    pub fn new(inner: S, keyring: Arc<ClusterKeyring>, seed: u64) -> Self {
        EncryptedBlockStore { inner, keyring, rng: Mutex::new(Pcg32::seed_from_u64(seed)) }
    }
}

impl<S: BlockStore> BlockStore for EncryptedBlockStore<S> {
    fn put(&self, block: EncodedBlock) -> Result<()> {
        let mut rng = self.rng.lock();
        let key = self.keyring.create_block_key(block.id.0, &mut *rng);
        let enc = encrypt_payload(&key, &block.payload, &mut *rng);
        drop(rng);
        let wrapped = EncodedBlock::with_id(block.id, block.rows, enc.serialize());
        self.inner.put(wrapped)
    }

    fn get(&self, id: BlockId) -> Result<Arc<EncodedBlock>> {
        let block = self.inner.get(id)?;
        let key = self.keyring.block_key(id.0)?;
        let enc = EncryptedPayload::deserialize(&block.payload)?;
        let plain = decrypt_payload(&key, &enc)?;
        Ok(Arc::new(EncodedBlock::with_id(id, block.rows, plain)))
    }

    fn delete(&self, id: BlockId) {
        self.inner.delete(id);
        self.keyring.forget_block_key(id.0);
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

#[cfg(test)]
mod tests {
    use super::*;
    use redsim_crypto::HsmSim;
    use redsim_storage::MemBlockStore;

    fn keyring() -> Arc<ClusterKeyring> {
        let hsm = HsmSim::new();
        let mut rng = Pcg32::seed_from_u64(1);
        let master = hsm.create_master(&mut rng);
        Arc::new(ClusterKeyring::create(&hsm, master, &mut rng).unwrap())
    }

    #[test]
    fn roundtrip_through_encryption() {
        let store = EncryptedBlockStore::new(MemBlockStore::new(), keyring(), 7);
        let block = EncodedBlock::new(3, b"plaintext columnar data".to_vec());
        let id = block.id;
        store.put(block).unwrap();
        let back = store.get(id).unwrap();
        assert_eq!(back.payload, b"plaintext columnar data");
        assert_eq!(back.rows, 3);
    }

    #[test]
    fn data_at_rest_is_ciphertext() {
        let store = EncryptedBlockStore::new(MemBlockStore::new(), keyring(), 7);
        let secret = b"SENSITIVE-VALUE-123456".to_vec();
        let block = EncodedBlock::new(1, secret.clone());
        let id = block.id;
        store.put(block).unwrap();
        // Bypass the wrapper: the stored bytes must not contain plaintext.
        let raw = store.inner.get(id).unwrap();
        assert!(
            !raw.payload.windows(8).any(|w| secret.windows(8).any(|s| s == w)),
            "plaintext leaked to the underlying store"
        );
    }

    #[test]
    fn delete_destroys_the_block_key() {
        let store = EncryptedBlockStore::new(MemBlockStore::new(), keyring(), 7);
        let block = EncodedBlock::new(1, vec![1, 2, 3]);
        let id = block.id;
        store.put(block).unwrap();
        assert_eq!(store.keyring.block_key_count(), 1);
        store.delete(id);
        assert_eq!(store.keyring.block_key_count(), 0);
    }
}
