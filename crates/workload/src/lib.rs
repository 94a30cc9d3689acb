//! # redsim-workload
//!
//! Fleet-scale workload synthesis and deterministic replay — the macro
//! harness for the paper's operational claims.
//!
//! The paper's argument is statistical: result caches, SQA, and WLM
//! queues pay off because *fleets* of tenants behave a certain way —
//! dashboards refresh the same panels all day, ETL loads arrive on a
//! cadence, ad-hoc exploration bursts and never repeats. Unit tests
//! can't exercise that; this crate synthesizes it:
//!
//! * [`WorkloadConfig`] — a seeded description of a tenant population:
//!   per-class [`ArrivalCurve`]s (diurnal cosine + Poisson bursts),
//!   Zipf repeat-query skew, tenant-activity skew, COPY cadence.
//! * [`Schedule::synthesize`] — expands the config into a time-sorted
//!   op list. Same config ⇒ byte-identical schedule
//!   ([`Schedule::to_bytes`] is the canonical form).
//! * [`ReplayDriver`] — runs a schedule against a real [`Cluster`]
//!   through real `Session`s, in two modes: **virtual** (sequential,
//!   a `VirtualClock` jumps between op timestamps, chaos delays ride
//!   the same clock — a fleet-day in seconds, deterministically) and
//!   **wall** (tenant-partitioned worker threads, real contention).
//!
//! ```
//! use redsim_workload::{ReplayDriver, ReplayMode, WorkloadConfig};
//!
//! let driver = ReplayDriver::new(WorkloadConfig::quick(8));
//! let cluster = driver.launch("doc-fleet").unwrap();
//! let report = driver.run(&cluster, ReplayMode::Virtual).unwrap();
//! assert_eq!(report.total_errors(), 0);
//! assert!(report.wlm.balanced());
//! ```
//!
//! [`Cluster`]: redsim_core::Cluster

pub mod config;
pub mod replay;
pub mod synth;

pub use config::{ArrivalCurve, ClassConfig, QueryClass, WorkloadConfig};
pub use replay::{ClassStats, ReplayDriver, ReplayMode, ReplayReport};
pub use synth::{copy_object_body, ClassCounts, OpKind, Schedule, ScheduledOp};
