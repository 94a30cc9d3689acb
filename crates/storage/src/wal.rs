//! Write-ahead redo log.
//!
//! The durability half of the multi-writer transaction story: every
//! write statement appends redo records describing its *post-state*
//! (slice manifests, router cursor, stats), syncs them past a simulated
//! fsync point, then appends a commit mark. A crash throws away the
//! in-memory catalog and the unsynced tail; recovery replays the
//! durable prefix and reconstructs exactly the committed statements —
//! the paper's §2.2 promise ("committed transactions survive node
//! failure") that DESIGN.md §11 previously disclaimed.
//!
//! ## Record framing
//!
//! ```text
//! record  := kind:u8  txn:u64  len:u32  payload:[u8; len]
//! kind    := 1 Checkpoint — full catalog image (payload owned by core)
//!          | 2 Delta      — one statement's post-state for touched slices
//!          | 3 Commit     — empty payload; marks `txn` committed
//! ```
//!
//! A record is **committed** iff a `Commit` record with the same txn id
//! appears *later* in the durable bytes. Replay finds the last committed
//! `Checkpoint`, then applies every committed `Delta` after it in log
//! order. Because writers to the *same* table are serialized by the MVCC
//! first-committer-wins lock, and a `Delta` carries full post-statement
//! slice images, replay in log order is insensitive to how concurrent
//! writers on different tables interleaved their appends.
//!
//! ## Durable vs. tail
//!
//! The log models a file behind an OS page cache: [`Wal::append`] goes
//! to the in-memory `tail`; [`Wal::sync`] is the fsync point that moves
//! the tail into `durable`; [`Wal::commit`] appends the commit mark and
//! syncs in one step (group commit: it also hardens any other writer's
//! pending tail bytes, which is safe — their deltas stay invisible until
//! their own commit mark lands). A crash keeps `durable`, drops `tail`.
//!
//! Every seam is a faultkit failpoint (`wal.append`, `wal.sync`,
//! `wal.commit`, `wal.truncate`). A fired outcome — `Err` *or* `Drop` —
//! surfaces as an error so the statement aborts; a WAL that silently
//! swallowed a record for a transaction that later commits would break
//! the committed-prefix invariant, so lost-write semantics are modeled
//! by crashing before sync, not by dropping individual records.

use redsim_common::codec::{Reader, Writer};
use redsim_common::{Result, RsError};
use redsim_faultkit::{fp, ErrClass, FaultRegistry, Outcome};
use redsim_testkit::sync::Mutex;
use std::sync::Arc;

/// Record kind tags (see module docs for framing).
const KIND_CHECKPOINT: u8 = 1;
const KIND_DELTA: u8 = 2;
const KIND_COMMIT: u8 = 3;

/// One decoded redo record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// Full catalog image; payload format is owned by the caller (core).
    Checkpoint { txn: u64, payload: Vec<u8> },
    /// One statement's post-state delta.
    Delta { txn: u64, payload: Vec<u8> },
    /// Commit mark for `txn`.
    Commit { txn: u64 },
}

impl WalRecord {
    pub fn txn(&self) -> u64 {
        match self {
            WalRecord::Checkpoint { txn, .. }
            | WalRecord::Delta { txn, .. }
            | WalRecord::Commit { txn } => *txn,
        }
    }
}

/// What replay hands back to recovery: the last committed checkpoint (if
/// any) plus every committed delta after it, in log order.
#[derive(Debug, Default)]
pub struct Replay {
    pub checkpoint: Option<(u64, Vec<u8>)>,
    pub deltas: Vec<(u64, Vec<u8>)>,
}

#[derive(Debug, Default)]
struct WalInner {
    /// Bytes past the fsync point: survive a crash.
    durable: Vec<u8>,
    /// Appended but unsynced: lost on crash.
    tail: Vec<u8>,
}

/// The write-ahead log. Payload-agnostic: core decides what a
/// checkpoint or delta contains; the log only frames, hardens and
/// replays records.
#[derive(Debug)]
pub struct Wal {
    inner: Mutex<WalInner>,
    faults: Arc<FaultRegistry>,
}

impl Wal {
    pub fn new(faults: Arc<FaultRegistry>) -> Self {
        Wal { inner: Mutex::new(WalInner::default()), faults }
    }

    /// Rebuild a log from crash-image bytes (recovery seeds the revived
    /// cluster's log with what survived the crash).
    pub fn from_durable(durable: Vec<u8>, faults: Arc<FaultRegistry>) -> Self {
        Wal { inner: Mutex::new(WalInner { durable, tail: Vec::new() }), faults }
    }

    fn gate(&self, name: &str) -> Result<()> {
        match self.faults.fire(name) {
            Outcome::Proceed => Ok(()),
            Outcome::Err(class) => Err(RsError::injected(name, class)),
            // `Drop` still aborts the statement: a silently lost redo
            // record for a txn that later commits would be unrecoverable.
            Outcome::Drop => Err(RsError::injected(name, ErrClass::Fault)),
        }
    }

    /// Append a delta record to the unsynced tail.
    pub fn append_delta(&self, txn: u64, payload: &[u8]) -> Result<()> {
        self.gate(fp::WAL_APPEND)?;
        self.inner.lock().tail.extend_from_slice(&frame(KIND_DELTA, txn, payload));
        Ok(())
    }

    /// Append a checkpoint record to the unsynced tail.
    pub fn append_checkpoint(&self, txn: u64, payload: &[u8]) -> Result<()> {
        self.gate(fp::WAL_APPEND)?;
        self.inner.lock().tail.extend_from_slice(&frame(KIND_CHECKPOINT, txn, payload));
        Ok(())
    }

    /// The fsync point: everything appended so far becomes durable.
    pub fn sync(&self) -> Result<()> {
        self.gate(fp::WAL_SYNC)?;
        let mut inner = self.inner.lock();
        let tail = std::mem::take(&mut inner.tail);
        inner.durable.extend_from_slice(&tail);
        Ok(())
    }

    /// Append the commit mark for `txn` and sync. On success the
    /// transaction is durably committed; on failure (or a crash before
    /// this returns) recovery treats it as rolled back.
    pub fn commit(&self, txn: u64) -> Result<()> {
        self.gate(fp::WAL_COMMIT)?;
        let mut inner = self.inner.lock();
        inner.tail.extend_from_slice(&frame(KIND_COMMIT, txn, &[]));
        let tail = std::mem::take(&mut inner.tail);
        inner.durable.extend_from_slice(&tail);
        Ok(())
    }

    /// Reclaim durable bytes that precede the last *committed*
    /// checkpoint. Pure space reclamation: replay before and after
    /// truncation reconstructs the same state, and a crash between a
    /// checkpoint's commit and its truncation loses nothing.
    /// Returns the number of bytes reclaimed.
    pub fn truncate(&self) -> Result<usize> {
        self.gate(fp::WAL_TRUNCATE)?;
        let mut inner = self.inner.lock();
        let offset = last_committed_checkpoint_offset(&inner.durable)?;
        let Some(offset) = offset else { return Ok(0) };
        inner.durable.drain(..offset);
        Ok(offset)
    }

    /// Snapshot of the durable bytes — what a crash preserves.
    pub fn durable_bytes(&self) -> Vec<u8> {
        self.inner.lock().durable.clone()
    }

    pub fn durable_len(&self) -> usize {
        self.inner.lock().durable.len()
    }

    /// Unsynced bytes that a crash would lose.
    pub fn tail_len(&self) -> usize {
        self.inner.lock().tail.len()
    }
}

fn frame(kind: u8, txn: u64, payload: &[u8]) -> Vec<u8> {
    let mut w = Writer::with_capacity(1 + 8 + 4 + payload.len());
    w.put_u8(kind);
    w.put_u64(txn);
    w.put_bytes(payload);
    w.into_bytes()
}

/// Decode every whole record in `bytes`. Durable bytes are always
/// record-aligned (appends are whole frames and sync moves the whole
/// tail), so a partial trailing record means corruption, not a torn
/// write — surfaced as a codec error.
pub fn decode_records(bytes: &[u8]) -> Result<Vec<WalRecord>> {
    let mut r = Reader::new(bytes);
    let mut out = Vec::new();
    while !r.is_exhausted() {
        let kind = r.get_u8()?;
        let txn = r.get_u64()?;
        let payload = r.get_bytes()?.to_vec();
        out.push(match kind {
            KIND_CHECKPOINT => WalRecord::Checkpoint { txn, payload },
            KIND_DELTA => WalRecord::Delta { txn, payload },
            KIND_COMMIT => {
                if !payload.is_empty() {
                    return Err(RsError::Codec("wal: commit record with payload".into()));
                }
                WalRecord::Commit { txn }
            }
            t => return Err(RsError::Codec(format!("wal: unknown record kind {t}"))),
        });
    }
    Ok(out)
}

/// Byte offset of the last committed checkpoint record, if any.
fn last_committed_checkpoint_offset(bytes: &[u8]) -> Result<Option<usize>> {
    let mut r = Reader::new(bytes);
    let mut committed = std::collections::BTreeSet::new();
    let mut checkpoints: Vec<(usize, u64)> = Vec::new();
    while !r.is_exhausted() {
        let offset = bytes.len() - r.remaining();
        let kind = r.get_u8()?;
        let txn = r.get_u64()?;
        let _payload = r.get_bytes()?;
        match kind {
            KIND_CHECKPOINT => checkpoints.push((offset, txn)),
            KIND_COMMIT => {
                committed.insert(txn);
            }
            _ => {}
        }
    }
    Ok(checkpoints.into_iter().rev().find(|(_, txn)| committed.contains(txn)).map(|(o, _)| o))
}

/// Replay durable bytes: the last committed checkpoint plus every
/// committed delta after it, in log order. Records of transactions with
/// no commit mark — crashed mid-statement — are invisible.
pub fn replay(bytes: &[u8]) -> Result<Replay> {
    let records = decode_records(bytes)?;
    let committed: std::collections::BTreeSet<u64> = records
        .iter()
        .filter_map(|rec| match rec {
            WalRecord::Commit { txn } => Some(*txn),
            _ => None,
        })
        .collect();
    let mut out = Replay::default();
    for rec in records {
        match rec {
            WalRecord::Checkpoint { txn, payload } if committed.contains(&txn) => {
                // A later committed checkpoint supersedes everything
                // before it, deltas included.
                out.checkpoint = Some((txn, payload));
                out.deltas.clear();
            }
            WalRecord::Delta { txn, payload } if committed.contains(&txn) => {
                out.deltas.push((txn, payload));
            }
            _ => {}
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use redsim_faultkit::FaultSpec;

    fn wal() -> Wal {
        Wal::new(Arc::new(FaultRegistry::new(0)))
    }

    #[test]
    fn committed_delta_replays_uncommitted_invisible() {
        let w = wal();
        w.append_delta(1, b"one").unwrap();
        w.sync().unwrap();
        w.commit(1).unwrap();
        w.append_delta(2, b"two").unwrap();
        w.sync().unwrap();
        // txn 2 never commits.
        let rep = replay(&w.durable_bytes()).unwrap();
        assert!(rep.checkpoint.is_none());
        assert_eq!(rep.deltas, vec![(1, b"one".to_vec())]);
    }

    #[test]
    fn unsynced_tail_is_not_durable() {
        let w = wal();
        w.append_delta(7, b"lost").unwrap();
        assert_eq!(w.tail_len() > 0, true);
        assert_eq!(w.durable_len(), 0);
        let rep = replay(&w.durable_bytes()).unwrap();
        assert!(rep.deltas.is_empty());
    }

    #[test]
    fn commit_is_group_commit() {
        // Writer 2's synced-but-uncommitted bytes ride along with
        // writer 1's commit, yet stay invisible to replay.
        let w = wal();
        w.append_delta(1, b"a").unwrap();
        w.append_delta(2, b"b").unwrap();
        w.commit(1).unwrap();
        assert_eq!(w.tail_len(), 0);
        let rep = replay(&w.durable_bytes()).unwrap();
        assert_eq!(rep.deltas, vec![(1, b"a".to_vec())]);
    }

    #[test]
    fn checkpoint_supersedes_prior_deltas() {
        let w = wal();
        w.append_delta(1, b"old").unwrap();
        w.commit(1).unwrap();
        w.append_checkpoint(2, b"image").unwrap();
        w.commit(2).unwrap();
        w.append_delta(3, b"new").unwrap();
        w.commit(3).unwrap();
        let rep = replay(&w.durable_bytes()).unwrap();
        assert_eq!(rep.checkpoint, Some((2, b"image".to_vec())));
        assert_eq!(rep.deltas, vec![(3, b"new".to_vec())]);
    }

    #[test]
    fn uncommitted_checkpoint_is_ignored() {
        let w = wal();
        w.append_delta(1, b"keep").unwrap();
        w.commit(1).unwrap();
        w.append_checkpoint(2, b"torn").unwrap();
        w.sync().unwrap(); // durable but no commit mark
        let rep = replay(&w.durable_bytes()).unwrap();
        assert!(rep.checkpoint.is_none());
        assert_eq!(rep.deltas, vec![(1, b"keep".to_vec())]);
    }

    #[test]
    fn truncate_preserves_replay_and_reclaims() {
        let w = wal();
        w.append_delta(1, b"pre").unwrap();
        w.commit(1).unwrap();
        w.append_checkpoint(2, b"image").unwrap();
        w.commit(2).unwrap();
        w.append_delta(3, b"post").unwrap();
        w.commit(3).unwrap();
        let before = replay(&w.durable_bytes()).unwrap();
        let reclaimed = w.truncate().unwrap();
        assert!(reclaimed > 0, "pre-checkpoint bytes should be reclaimed");
        let after = replay(&w.durable_bytes()).unwrap();
        assert_eq!(before.checkpoint, after.checkpoint);
        assert_eq!(before.deltas, after.deltas);
        // Idempotent: nothing left before the checkpoint.
        assert_eq!(w.truncate().unwrap(), 0);
    }

    #[test]
    fn truncate_without_committed_checkpoint_is_noop() {
        let w = wal();
        w.append_delta(1, b"d").unwrap();
        w.commit(1).unwrap();
        let len = w.durable_len();
        assert_eq!(w.truncate().unwrap(), 0);
        assert_eq!(w.durable_len(), len);
    }

    #[test]
    fn from_durable_round_trips_crash_image() {
        let w = wal();
        w.append_delta(1, b"survives").unwrap();
        w.commit(1).unwrap();
        w.append_delta(2, b"tail-lost").unwrap(); // never synced
        let image = w.durable_bytes();
        let revived = Wal::from_durable(image, Arc::new(FaultRegistry::new(0)));
        let rep = replay(&revived.durable_bytes()).unwrap();
        assert_eq!(rep.deltas, vec![(1, b"survives".to_vec())]);
    }

    #[test]
    fn failpoints_abort_and_leave_durable_unchanged() {
        let faults = Arc::new(FaultRegistry::new(0));
        let w = Wal::new(Arc::clone(&faults));
        w.append_delta(1, b"base").unwrap();
        w.commit(1).unwrap();
        let base = w.durable_bytes();

        faults.configure(fp::WAL_APPEND, FaultSpec::err(ErrClass::Fault).once());
        let err = w.append_delta(2, b"x").unwrap_err();
        assert!(err.is_retryable(), "wal faults must be retryable: {err}");

        faults.configure(fp::WAL_SYNC, FaultSpec::err(ErrClass::Throttle).once());
        w.append_delta(3, b"y").unwrap();
        assert!(w.sync().is_err());

        faults.configure(fp::WAL_COMMIT, FaultSpec::err(ErrClass::Fault).once());
        assert!(w.commit(3).is_err());

        // Nothing new became durable through any failed seam.
        assert_eq!(w.durable_bytes(), base);

        // Drop outcomes abort too (a swallowed redo record would be
        // unrecoverable).
        faults.configure(fp::WAL_APPEND, FaultSpec::drop_op().once());
        assert!(w.append_delta(4, b"z").is_err());
    }

    #[test]
    fn corrupt_bytes_surface_codec_error() {
        assert!(replay(&[9, 0, 0]).is_err());
        let w = wal();
        w.append_delta(1, b"ok").unwrap();
        w.commit(1).unwrap();
        let mut bytes = w.durable_bytes();
        bytes.truncate(bytes.len() - 1);
        assert!(replay(&bytes).is_err());
    }
}
