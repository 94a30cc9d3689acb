//! # redsim-workload
//!
//! Fleet-scale workload synthesis — the input of the paper's
//! operational claims.
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
//! * [`synth::template_sql`] and [`copy_object_body`] — the statement
//!   text of a class's repeat pool and the body of a staged COPY object,
//!   both pure functions of their inputs.
//!
//! Nothing here runs a statement. The `benchmark/` harness takes its
//! dashboard pool (`template_sql`) and WLM layout
//! ([`WorkloadConfig::wlm`]) from this crate and runs its workloads over
//! the wire; it is the one place a fleet runs against a cluster.
//!
//! ```
//! use redsim_workload::{QueryClass, Schedule, WorkloadConfig};
//!
//! let cfg = WorkloadConfig::quick(8);
//! let schedule = Schedule::synthesize(&cfg);
//! assert_eq!(schedule.to_bytes(), Schedule::synthesize(&cfg).to_bytes());
//! let dash = schedule.class_counts()[0];
//! assert_eq!(dash.0, QueryClass::Dashboard);
//! assert!(dash.1.queries > 0);
//! ```

pub mod config;
pub mod synth;

pub use config::{ArrivalCurve, ClassConfig, QueryClass, WorkloadConfig};
pub use synth::{copy_object_body, ClassCounts, OpKind, Schedule, ScheduledOp};
