//! # redsim-replication
//!
//! The durability substrate of §2.1–2.2:
//!
//! > "Each data block is synchronously written to both its primary slice
//! > as well as to at least one secondary on a separate node. … Data
//! > blocks are also asynchronously and automatically backed up to Amazon
//! > S3 … The primary, secondary and Amazon S3 copies of the data block
//! > are each available for read, making media failures transparent."
//!
//! * [`s3sim`] — a multi-region durable object store standing in for
//!   Amazon S3 (the paper's hardware/service gate; see DESIGN.md §5).
//! * [`mirror`] — per-node block stores wrapped by a cluster-wide
//!   [`mirror::ReplicatedStore`], the only block store a cluster has:
//!   synchronous primary+secondary writes with cohort-constrained
//!   placement, read fall-through primary → secondary → S3, failure
//!   injection, and re-replication.
//! * [`backup`] — continuous incremental snapshots: only blocks S3 has
//!   not seen are uploaded; system snapshots age out; user snapshots
//!   persist; optional second-region copies for disaster recovery.
//!
//! **Streaming restore** is not a second store. A restored cluster is a
//! `ReplicatedStore` with no placements whose pending list holds the
//! snapshot's blocks: the S3 page fault that serves a read places a
//! pending block on its node and a secondary (and, if it came from
//! another cluster's bucket, queues it for backup into this one's), and
//! `hydrate_step` is that same page fault driven in the background — so "the database \[can\]
//! be opened for SQL operations after metadata and catalog restoration"
//! and is, from then on, an ordinary mirrored, backed-up cluster.

//! Fault seams (this PR's escalator substrate): every S3-touching path
//! consults a named `faultkit` failpoint and is wrapped in a typed
//! retry loop — [`inject`] holds the `obs` glue, `RsError::injected`
//! the class→`RsError` mapping — so transient faults are absorbed with
//! backoff while permanent ones surface typed, per the paper's §5
//! "escalators, not elevators".

pub mod backup;
pub mod inject;
pub mod mirror;
pub mod s3sim;

pub use backup::{BackupManager, SnapshotInfo, SnapshotKind};
pub use inject::{fire, fire_no_skip, retry_observer, Flow};
pub use mirror::{NodeStore, ReplicatedStore};
pub use s3sim::S3Sim;
