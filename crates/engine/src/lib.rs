//! # redsim-engine
//!
//! Query execution (§2.1 of the paper):
//!
//! > "The executable and plan parameters are sent to each compute node
//! > participating in the query. … Each slice in the compute node may run
//! > multiple operations such as scanning, filtering, processing joins,
//! > etc., in parallel."
//!
//! * [`expr`] — vectorized (batch-at-a-time) expression evaluation.
//! * [`kernels`] — typed columnar kernels: predicates (with arithmetic
//!   operands) straight off `ColumnData` slices into a [`Selection`], no
//!   `Value` boxing; `expr` is the counted fallback for uncovered
//!   expressions and the differential-fuzz reference.
//! * [`selection`] — the one selection vector every operator passes on.
//! * [`like`] — the one `LIKE` matcher, compiled into a shape, matching
//!   over bytes.
//! * [`interp`] — a deliberately row-at-a-time, `Value`-boxed interpreter:
//!   the non-compiled comparator for the paper's claim that query
//!   compilation's "fixed overhead per query … is generally amortized by
//!   the tighter execution" (experiment E7).
//! * [`exec`] — the distributed executor: per-slice parallel fragments
//!   (std scoped threads via testkit::par), broadcast/redistribute exchanges with
//!   byte accounting (experiment E11), partial/final aggregation at the
//!   leader.
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
pub mod kernels;
pub mod like;
pub mod selection;

pub use compile::{CompiledQuery, EvictionPolicy, PlanCache};
pub use exec::{ExecMetrics, Executor, QueryOutput, TableProvider};
pub use selection::Selection;
