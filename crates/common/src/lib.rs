//! # redsim-common
//!
//! Foundation types shared by every crate in the `redshift-sim` workspace:
//!
//! * [`types`] — SQL data types and scalar [`types::Value`]s.
//! * [`column`](mod@column) — typed column vectors, the unit of vectorized execution.
//! * [`schema`] — table schemas and column descriptors.
//! * [`row`] — row-oriented view used at API boundaries and by the
//!   row-store baseline engine.
//! * [`bitmap`] — compact null/validity bitmaps.
//! * [`hash`] — an FxHash implementation (fast, non-DoS-resistant) used for
//!   distribution hashing and all internal integer-keyed maps.
//! * [`codec`] — a small hand-rolled binary format for catalog, manifest
//!   and snapshot metadata (keeps the durability path dependency-free).
//! * [`error`] — the workspace-wide error type.
//! * [`retry`] — typed retry/backoff (decorrelated jitter, attempt
//!   budget, per-op deadline) driven by [`error::RsError::is_retryable`].

pub mod bitmap;
pub mod codec;
pub mod column;
pub mod error;
pub mod hash;
pub mod retry;
pub mod row;
pub mod schema;
pub mod types;

pub use bitmap::Bitmap;
pub use column::{ColumnData, StrVec};
pub use error::{Result, RsError};
pub use hash::{fx_hash64, fx_hash64_short, mix64, FxHashMap, FxHashSet, FxHasher};
pub use retry::{RetryEvent, RetryPolicy};
pub use row::Row;
pub use schema::{ColumnDef, Schema};
pub use types::{DataType, Value};
