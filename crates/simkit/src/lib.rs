//! # redsim-simkit
//!
//! A small, deterministic discrete-event simulation toolkit.
//!
//! The paper's operational results (Figure 2 admin-operation durations,
//! Figure 4 deployment cadence, Figure 5 fleet ticket rates, the intro's
//! petabyte-scale load/backup/restore numbers) come from a fleet of
//! thousands of clusters and multi-petabyte hardware we do not have. Per
//! the reproduction's substitution rule, those experiments run on this
//! simulator instead: virtual time, seeded randomness, and analytic
//! resource queues make every figure regenerable bit-for-bit.
//!
//! * [`time`] — virtual time ([`time::SimTime`], microsecond resolution).
//! * [`rng`] — seeded PCG32 RNG plus the distributions the models need
//!   (uniform, exponential, normal, log-normal, Pareto, empirical).
//! * [`sim`] — an event-queue simulation driver with closure events.
//! * [`resource`] — analytic FIFO server pools (disks, NICs, S3 frontends)
//!   that turn (arrival, service-time) pairs into completion times.

pub mod resource;
pub mod rng;
pub mod sim;
pub mod time;

pub use resource::ServerPool;
pub use rng::{Dist, SimRng, Zipf};
pub use sim::Simulation;
pub use time::SimTime;
