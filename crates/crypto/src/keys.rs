//! Key hierarchy: block keys ← cluster key ← master key (HSM).

use crate::xtea::ctr_transform;
use redsim_testkit::sync::Mutex;
use redsim_testkit::rng::RngCore;
use redsim_common::{FxHashMap, Result, RsError};

/// A 128-bit symmetric key.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Key(pub [u32; 4]);

impl Key {
    /// Generate from the supplied RNG.
    pub fn generate(rng: &mut dyn RngCore) -> Key {
        let mut k = [0u32; 4];
        for w in &mut k {
            *w = rng.next_u32();
        }
        Key(k)
    }

    fn as_bytes(&self) -> [u8; 16] {
        let mut out = [0u8; 16];
        for (i, w) in self.0.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&w.to_le_bytes());
        }
        out
    }

    fn from_bytes(b: &[u8; 16]) -> Key {
        let mut k = [0u32; 4];
        for (i, w) in k.iter_mut().enumerate() {
            *w = u32::from_le_bytes(b[i * 4..i * 4 + 4].try_into().unwrap());
        }
        Key(k)
    }
}

// Keys never display their material.
impl std::fmt::Debug for Key {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Key(<redacted>)")
    }
}

/// Identifier of a master key inside the HSM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct KeyId(pub u64);

/// A wrapped (encrypted) key: ciphertext + verifier so unwrapping with the
/// wrong KEK fails loudly instead of yielding garbage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WrappedKey {
    ct: [u8; 16],
    verifier: [u8; 8],
    nonce: u32,
}

impl WrappedKey {
    /// Serialize (fixed 28 bytes) for catalogs and snapshot manifests.
    pub fn to_bytes(&self) -> [u8; 28] {
        let mut out = [0u8; 28];
        out[..16].copy_from_slice(&self.ct);
        out[16..24].copy_from_slice(&self.verifier);
        out[24..].copy_from_slice(&self.nonce.to_le_bytes());
        out
    }

    /// Inverse of [`to_bytes`](Self::to_bytes).
    pub fn from_bytes(b: &[u8]) -> Result<WrappedKey> {
        if b.len() != 28 {
            return Err(RsError::Crypto("wrapped key must be 28 bytes".into()));
        }
        Ok(WrappedKey {
            ct: b[..16].try_into().unwrap(),
            verifier: b[16..24].try_into().unwrap(),
            nonce: u32::from_le_bytes(b[24..].try_into().unwrap()),
        })
    }
}

const VERIFIER_PLAINTEXT: [u8; 8] = *b"RSKEYCHK";

/// Wrap `key` under `kek`.
pub fn wrap_key(key: &Key, kek: &Key, nonce: u32) -> WrappedKey {
    let mut ct = key.as_bytes();
    ctr_transform(&kek.0, nonce, &mut ct);
    let mut verifier = VERIFIER_PLAINTEXT;
    ctr_transform(&kek.0, nonce ^ 0x5A5A_5A5A, &mut verifier);
    WrappedKey { ct, verifier, nonce }
}

/// Unwrap; fails if `kek` is not the wrapping key.
pub fn unwrap_key(wrapped: &WrappedKey, kek: &Key) -> Result<Key> {
    let mut v = wrapped.verifier;
    ctr_transform(&kek.0, wrapped.nonce ^ 0x5A5A_5A5A, &mut v);
    if v != VERIFIER_PLAINTEXT {
        return Err(RsError::Crypto("key unwrap failed: wrong key-encryption key".into()));
    }
    let mut pt = wrapped.ct;
    ctr_transform(&kek.0, wrapped.nonce, &mut pt);
    Ok(Key::from_bytes(&pt))
}

/// Simulated hardware security module holding master keys.
///
/// Master keys never leave the HSM: callers pass wrapped material in and
/// get wrapped material out. `destroy` implements repudiation — once the
/// master key is gone, every cluster key wrapped under it (and
/// transitively all block keys and data) is unrecoverable.
#[derive(Default)]
pub struct HsmSim {
    masters: Mutex<FxHashMap<u64, Key>>,
    next_id: Mutex<u64>,
}

impl HsmSim {
    pub fn new() -> Self {
        Self::default()
    }

    /// Create a new master key, returning its handle.
    pub fn create_master(&self, rng: &mut dyn RngCore) -> KeyId {
        let key = Key::generate(rng);
        let mut next = self.next_id.lock();
        let id = *next;
        *next += 1;
        self.masters.lock().insert(id, key);
        KeyId(id)
    }

    /// Wrap a cluster key under a master key.
    pub fn wrap(&self, master: KeyId, key: &Key, nonce: u32) -> Result<WrappedKey> {
        let masters = self.masters.lock();
        let mk = masters
            .get(&master.0)
            .ok_or_else(|| RsError::Crypto(format!("master key {master:?} not found")))?;
        Ok(wrap_key(key, mk, nonce))
    }

    /// Unwrap a cluster key.
    pub fn unwrap(&self, master: KeyId, wrapped: &WrappedKey) -> Result<Key> {
        let masters = self.masters.lock();
        let mk = masters
            .get(&master.0)
            .ok_or_else(|| RsError::Crypto(format!("master key {master:?} not found")))?;
        unwrap_key(wrapped, mk)
    }

    /// Repudiation: destroy a master key. Irreversible.
    pub fn destroy(&self, master: KeyId) {
        self.masters.lock().remove(&master.0);
    }

    pub fn holds(&self, master: KeyId) -> bool {
        self.masters.lock().contains_key(&master.0)
    }
}

/// A cluster's key material: one cluster key (held wrapped under the HSM
/// master, unwrapped in memory while the cluster runs) plus per-block
/// wrapped keys.
pub struct ClusterKeyring {
    master: Mutex<KeyId>,
    wrapped_cluster_key: Mutex<WrappedKey>,
    /// In-memory (unwrapped) cluster key while the cluster is running.
    cluster_key: Mutex<Key>,
    /// block id -> wrapped block key.
    block_keys: Mutex<FxHashMap<u64, WrappedKey>>,
    nonce_counter: Mutex<u32>,
}

impl ClusterKeyring {
    /// Create a fresh keyring under `master`.
    pub fn create(hsm: &HsmSim, master: KeyId, rng: &mut dyn RngCore) -> Result<ClusterKeyring> {
        let cluster_key = Key::generate(rng);
        let wrapped = hsm.wrap(master, &cluster_key, rng.next_u32())?;
        Ok(ClusterKeyring {
            master: Mutex::new(master),
            wrapped_cluster_key: Mutex::new(wrapped),
            cluster_key: Mutex::new(cluster_key),
            block_keys: Mutex::new(FxHashMap::default()),
            nonce_counter: Mutex::new(1),
        })
    }

    /// Reopen a keyring from its wrapped form (cluster restart / restore).
    pub fn open(hsm: &HsmSim, master: KeyId, wrapped: WrappedKey) -> Result<ClusterKeyring> {
        let cluster_key = hsm.unwrap(master, &wrapped)?;
        Ok(ClusterKeyring {
            master: Mutex::new(master),
            wrapped_cluster_key: Mutex::new(wrapped),
            cluster_key: Mutex::new(cluster_key),
            block_keys: Mutex::new(FxHashMap::default()),
            nonce_counter: Mutex::new(1),
        })
    }

    pub fn master(&self) -> KeyId {
        *self.master.lock()
    }

    pub fn wrapped_cluster_key(&self) -> WrappedKey {
        self.wrapped_cluster_key.lock().clone()
    }

    fn next_nonce(&self) -> u32 {
        let mut n = self.nonce_counter.lock();
        *n = n.wrapping_add(1);
        *n
    }

    /// Create (and remember) a fresh key for a block.
    pub fn create_block_key(&self, block_id: u64, rng: &mut dyn RngCore) -> Key {
        let key = Key::generate(rng);
        let ck = *self.cluster_key.lock();
        let wrapped = wrap_key(&key, &ck, self.next_nonce());
        self.block_keys.lock().insert(block_id, wrapped);
        key
    }

    /// Recover a block's key. The cluster key stays locked across the
    /// lookup, as rotation holds it across its re-wrap, so a read never
    /// unwraps with the key a concurrent rotation has just replaced.
    pub fn block_key(&self, block_id: u64) -> Result<Key> {
        let ck = self.cluster_key.lock();
        let map = self.block_keys.lock();
        let wrapped = map
            .get(&block_id)
            .ok_or_else(|| RsError::Crypto(format!("no key for block {block_id}")))?;
        unwrap_key(wrapped, &ck)
    }

    pub fn forget_block_key(&self, block_id: u64) {
        self.block_keys.lock().remove(&block_id);
    }

    pub fn block_key_count(&self) -> usize {
        self.block_keys.lock().len()
    }

    /// Rotate the **cluster key**: generate a new one, re-wrap every block
    /// key under it, re-wrap it under the master. Data blocks are never
    /// touched — the paper's point.
    pub fn rotate_cluster_key(&self, hsm: &HsmSim, rng: &mut dyn RngCore) -> Result<()> {
        let new_key = Key::generate(rng);
        let mut ck = self.cluster_key.lock();
        let mut map = self.block_keys.lock();
        let rewrapped: Result<FxHashMap<u64, WrappedKey>> = map
            .iter()
            .map(|(&id, wrapped)| {
                let bk = unwrap_key(wrapped, &ck)?;
                Ok((id, wrap_key(&bk, &new_key, self.next_nonce().wrapping_add(id as u32))))
            })
            .collect();
        *map = rewrapped?;
        drop(map);
        *self.wrapped_cluster_key.lock() = hsm.wrap(self.master(), &new_key, rng.next_u32())?;
        *ck = new_key;
        Ok(())
    }

    /// Export all wrapped block keys (snapshot catalogs carry these so a
    /// restored cluster can decrypt its blocks).
    pub fn export_block_keys(&self) -> Vec<(u64, WrappedKey)> {
        let mut v: Vec<(u64, WrappedKey)> =
            self.block_keys.lock().iter().map(|(&id, w)| (id, w.clone())).collect();
        v.sort_by_key(|(id, _)| *id);
        v
    }

    /// Import wrapped block keys (restore path).
    pub fn import_block_keys(&self, keys: impl IntoIterator<Item = (u64, WrappedKey)>) {
        self.block_keys.lock().extend(keys);
    }

    /// Rotate the **master key**: re-wrap only the cluster key.
    pub fn rotate_master(
        &self,
        hsm: &HsmSim,
        new_master: KeyId,
        rng: &mut dyn RngCore,
    ) -> Result<()> {
        let ck = *self.cluster_key.lock();
        *self.wrapped_cluster_key.lock() = hsm.wrap(new_master, &ck, rng.next_u32())?;
        *self.master.lock() = new_master;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use redsim_testkit::rng::Pcg32;

    fn rng() -> Pcg32 {
        Pcg32::seed_from_u64(42)
    }

    #[test]
    fn wrap_unwrap_roundtrip() {
        let mut r = rng();
        let key = Key::generate(&mut r);
        let kek = Key::generate(&mut r);
        let w = wrap_key(&key, &kek, 7);
        assert_eq!(unwrap_key(&w, &kek).unwrap(), key);
        // Wrong KEK fails the verifier.
        let wrong = Key::generate(&mut r);
        assert!(unwrap_key(&w, &wrong).is_err());
    }

    #[test]
    fn hsm_lifecycle_and_repudiation() {
        let hsm = HsmSim::new();
        let mut r = rng();
        let master = hsm.create_master(&mut r);
        let ck = Key::generate(&mut r);
        let wrapped = hsm.wrap(master, &ck, 1).unwrap();
        assert_eq!(hsm.unwrap(master, &wrapped).unwrap(), ck);
        hsm.destroy(master);
        assert!(!hsm.holds(master));
        assert!(hsm.unwrap(master, &wrapped).is_err(), "repudiated data unrecoverable");
    }

    #[test]
    fn keyring_block_keys() {
        let hsm = HsmSim::new();
        let mut r = rng();
        let master = hsm.create_master(&mut r);
        let ring = ClusterKeyring::create(&hsm, master, &mut r).unwrap();
        let k1 = ring.create_block_key(100, &mut r);
        let k2 = ring.create_block_key(200, &mut r);
        assert_ne!(k1, k2, "block keys are block-specific");
        assert_eq!(ring.block_key(100).unwrap(), k1);
        assert_eq!(ring.block_key(200).unwrap(), k2);
        assert!(ring.block_key(999).is_err());
    }

    #[test]
    fn cluster_key_rotation_preserves_block_keys() {
        let hsm = HsmSim::new();
        let mut r = rng();
        let master = hsm.create_master(&mut r);
        let ring = ClusterKeyring::create(&hsm, master, &mut r).unwrap();
        let bk = ring.create_block_key(5, &mut r);
        ring.rotate_cluster_key(&hsm, &mut r).unwrap();
        assert_eq!(ring.block_key(5).unwrap(), bk, "data keys unchanged by rotation");
        // Reopen from wrapped form still works.
        let reopened =
            ClusterKeyring::open(&hsm, master, ring.wrapped_cluster_key()).unwrap();
        assert_eq!(reopened.block_key_count(), 0); // block keys travel via catalog
    }

    #[test]
    fn master_rotation_rewraps_cluster_key_only() {
        let hsm = HsmSim::new();
        let mut r = rng();
        let m1 = hsm.create_master(&mut r);
        let m2 = hsm.create_master(&mut r);
        let ring = ClusterKeyring::create(&hsm, m1, &mut r).unwrap();
        let bk = ring.create_block_key(1, &mut r);
        ring.rotate_master(&hsm, m2, &mut r).unwrap();
        assert_eq!(ring.master(), m2);
        assert_eq!(ring.block_key(1).unwrap(), bk);
        // Old master can now be destroyed without losing anything.
        hsm.destroy(m1);
        let reopened = ClusterKeyring::open(&hsm, m2, ring.wrapped_cluster_key());
        assert!(reopened.is_ok());
    }

    #[test]
    fn debug_never_leaks_key_material() {
        let mut r = rng();
        let key = Key::generate(&mut r);
        assert_eq!(format!("{key:?}"), "Key(<redacted>)");
    }
}
