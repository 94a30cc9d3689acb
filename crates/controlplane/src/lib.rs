//! # redsim-controlplane
//!
//! The managed-service half of the paper (§2.2, §3, §5): "host manager
//! software … deploying new database engine bits, aggregating events and
//! metrics, … restarting a database process on failure", with
//! "fleet-wide monitoring and alarming as well as initiating maintenance
//! tasks" coordinated off-instance.
//!
//! Everything here runs on `redsim-simkit` virtual time with seeded
//! randomness — the paper's operational figures come from a fleet of
//! thousands of clusters we reproduce as a discrete-event model
//! (DESIGN.md §5):
//!
//! * [`workflow`] — an Amazon-SWF-like step engine: retries, timeouts,
//!   idempotent steps.
//! * [`provision`] — cluster provisioning: cold EC2-style boots vs the
//!   **warm pool** of preconfigured nodes that cut creation from ~15 to
//!   ~3 minutes (§3.1) — experiment E6.
//! * [`adminops`] — Figure 2: deploy/connect/backup/restore/resize
//!   durations vs cluster size, with data-parallel admin operations.
//! * [`patch`] — Figure 4 + §5: biweekly reversible patches on a
//!   two-version invariant; cadence vs failed-patch probability.
//! * [`tickets`] — Figure 5: Pareto error causes, weekly top-cause
//!   extinguishing, Sev2 tickets per cluster over a growing fleet.
//! * [`pricing`] — the §1/§3.1 cost model: $0.25/node-hour on demand,
//!   reserved pricing to ~$1000/TB/year, the 60-day free trial.

pub mod adminops;
pub mod availability;
pub mod patch;
pub mod pricing;
pub mod provision;
pub mod tickets;
pub mod workflow;

pub use adminops::{admin_op_durations, AdminOp, AdminOpReport};
pub use availability::{simulate_availability, AvailabilityConfig, AvailabilityReport};
pub use patch::{FleetRollout, PatchConfig, PatchOutcome, PatchSimulation};
pub use pricing::{PriceQuote, PricingModel};
pub use provision::{ProvisioningModel, WarmPool};
pub use tickets::{FleetConfig, FleetSimulation, WeeklyFleetSample};
pub use workflow::{StepSpec, Workflow, WorkflowResult};
