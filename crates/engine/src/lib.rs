//! # redsim-engine
//!
//! Query execution (§2.1 of the paper):
//!
//! > "The executable and plan parameters are sent to each compute node
//! > participating in the query. … Each slice in the compute node may run
//! > multiple operations such as scanning, filtering, processing joins,
//! > etc., in parallel."
//!
//! An expression is walked by two evaluators, each with one job:
//!
//! * [`kernels`] — the fast path: typed columnar kernels, predicates
//!   (with arithmetic operands) straight off `ColumnData` slices into a
//!   [`Selection`] and arithmetic into typed columns, no `Value` boxing.
//!   A kernel answers exactly what the interpreter answers, or declines.
//! * [`interp`] — the reference: a deliberately row-at-a-time,
//!   `Value`-boxed interpreter, the one place that says what an
//!   expression means. It is the counted fallback for what the kernels
//!   decline, the oracle of the differential tests, INSERT's VALUES
//!   evaluator, and the non-compiled comparator for the paper's claim
//!   that query compilation's "fixed overhead per query … is generally
//!   amortized by the tighter execution" (experiment E7).
//! * [`expr`] — the binder between them: borrow a column, run a kernel,
//!   fill a literal, else the interpreter over the selected rows.
//! * [`selection`] — the one selection vector every operator passes on.
//! * [`like`] — the one `LIKE` matcher, compiled into a shape, matching
//!   over bytes.
//! * [`exec`] — the distributed executor: per-slice parallel fragments
//!   (std scoped threads via testkit::par), broadcast/redistribute exchanges with
//!   byte accounting (experiment E11), partial/final aggregation at the
//!   leader.
//! * `join` (private) — the per-slice hash join: a flat typed table
//!   over integer-family keys (the counted `HKey` map for the rest),
//!   probed off the selection, emitting index pairs and gathering only
//!   the columns the parent reads.
//! * `agg` (private) — partial aggregation: struct-of-arrays
//!   accumulators over dictionary-coded integer / VARCHAR group keys,
//!   the counted boxed table for the shapes without a lane.
//! * [`compile`] — query "compilation": plan specialization with a
//!   deliberate fixed cost, plus the LRU plan cache that amortizes it.
//! * [`baseline`] — a single-threaded, row-oriented engine standing in
//!   for the intro's legacy scale-out warehouse (experiment E1).

mod agg;
pub mod baseline;
pub mod compile;
pub mod exec;
pub mod expr;
pub mod hashkey;
pub mod interp;
mod join;
pub mod kernels;
pub mod like;
pub mod selection;

pub use compile::{CompiledQuery, PlanCache};
pub use exec::{ExecMetrics, Executor, QueryOutput, TableProvider};
pub use selection::Selection;
