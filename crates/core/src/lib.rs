//! # redsim-core
//!
//! The cluster itself — the paper's Figure 3 assembled from the substrate
//! crates:
//!
//! > "An Amazon Redshift cluster is comprised of a leader node and one or
//! > more compute nodes. … The leader node accepts connections from
//! > client programs, parses requests, generates & compiles query plans
//! > for execution on the compute nodes, performs final aggregation of
//! > results when required, and coordinates serialization and state of
//! > transactions. The compute node(s) perform the heavy lifting."
//!
//! Public surface: [`Cluster`] (launch / `execute` / `query` / `copy` /
//! snapshot / restore / resize / crash + recover / encryption),
//! [`ClusterConfig`], [`Session`], and the result types. Inside,
//! [`cluster`] composes a durable part, a compute part and a leader
//! part (DESIGN.md §17); [`catalog`] owns the table version — the one
//! place a table's mutable state lives (DESIGN.md §11) — and its codec. Everything a "time to first report" needs:
//!
//! ```
//! use redsim_core::{Cluster, ClusterConfig};
//!
//! let cluster = Cluster::launch(ClusterConfig::new("quickstart").nodes(2)).unwrap();
//! cluster.execute("CREATE TABLE users (id BIGINT, name VARCHAR)").unwrap();
//! cluster.execute("INSERT INTO users VALUES (1, 'ada'), (2, 'alan')").unwrap();
//! let r = cluster.query("SELECT COUNT(*) FROM users").unwrap();
//! assert_eq!(r.rows[0].get(0).as_i64(), Some(2));
//! ```

pub mod autonomics;
pub mod catalog;
pub mod cluster;
pub mod config;
pub mod encstore;
pub mod json;
pub mod loader;
pub mod result_cache;
pub mod session;
pub mod systables;
pub mod wlm;

pub use autonomics::{MaintenanceAction, MaintenancePolicy, UsageStats};
pub use cluster::{Cluster, ExecSummary, QueryResult, WlmAccounting};
pub use config::ClusterConfig;
pub use result_cache::ResultCache;
pub use session::{ConnEvent, Session, SessionManager, SessionOpts};
pub use wlm::{QmrAction, QmrMetric, QmrRule, ServiceClassState, WlmConfig, WlmController, WlmQueueDef};
