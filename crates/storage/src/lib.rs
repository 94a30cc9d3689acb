//! # redsim-storage
//!
//! The columnar storage engine described in §2.1 of the paper:
//!
//! > "Within each slice, data storage is column-oriented. Each column
//! > within each slice is encoded in a chain of one or more fixed size
//! > data blocks. The linkage between the columns of an individual row is
//! > derived by calculating the logical offset within each column chain."
//!
//! * [`encoding`] — per-column compression codecs (raw, run-length,
//!   delta/varint, byte-dictionary, mostly-N, LZSS for text) with a
//!   uniform self-describing wire format.
//! * [`analyzer`] — the automatic compression chooser: samples loaded
//!   data, tries every applicable codec, picks the smallest (the paper's
//!   "dusty knob": `COPY` sets compression so users never have to).
//! * [`zonemap`] — per-block min/max/null metadata and the block-skipping
//!   predicate (the paper forgoes indexes in favor of "column-block
//!   skipping based on value-ranges stored in memory").
//! * [`block`] — encoded block representation with CRC32 integrity.
//! * [`store`] — the [`store::BlockStore`] trait plus an in-memory
//!   implementation; replication wraps this trait to add mirroring and
//!   page-fault restore without storage knowing.
//! * [`table`] — per-slice table storage: row-group-aligned column
//!   chains, a sorted region plus an unsorted append region, `VACUUM`
//!   (merge into sort order, compound or interleaved/z-order), scans with
//!   zone-map and z-curve pruning.
//! * [`stats`] — `ANALYZE` statistics: row counts, NDV via KMV sketch,
//!   min/max, used by the optimizer's join ordering and distribution
//!   decisions.
//! * [`wal`] — the write-ahead redo log: append → fsync-point →
//!   commit-record framing over slice manifests, router cursors and
//!   stats, replayed by crash recovery so committed writes survive a
//!   process crash and uncommitted ones stay invisible.
//!
//! Blocks here are *row-group aligned*: every column of a row group is one
//! block, and groups target a fixed byte size via the configured rows per
//! group. This preserves the paper-visible behaviours (fixed-granularity
//! skipping, logical-offset row linkage) while keeping scans vectorized.

pub mod analyzer;
pub mod block;
pub mod encoding;
pub mod lzss;
pub mod stats;
pub mod store;
pub mod table;
pub mod varint;
pub mod wal;
pub mod zonemap;

pub use analyzer::{analyze_compression, encoding_report};
pub use block::{BlockId, EncodedBlock};
pub use encoding::{decode_column, encode_column, Encoding};
pub use stats::{ColumnStats, TableStats};
pub use store::{BlockStore, Free, MemBlockStore};
pub use table::{ColumnRange, ScanPredicate, SliceTable, SortKeySpec, TableConfig};
pub use wal::{Wal, WalRecord};
pub use zonemap::ZoneMap;
