//! Cluster configuration.
//!
//! Deliberately small — §3.3: "The main things set by a customer are
//! instance type and number of nodes for the database cluster, and sort
//! and distribution model used for individual tables." Everything else
//! has a default the system owns.

use crate::wlm::WlmConfig;
use redsim_common::RetryPolicy;

/// Configuration for [`crate::Cluster::launch`].
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    pub name: String,
    /// Compute nodes ("single-node design" shares leader+compute: 1).
    pub nodes: u32,
    /// Slices per node — one per core in the paper.
    pub slices_per_node: u32,
    /// Rows per row group (block granularity).
    pub rows_per_group: usize,
    /// Encrypt all data at rest (block→cluster→master key hierarchy).
    pub encryption: bool,
    /// Home region for backups.
    pub region: String,
    /// Optional disaster-recovery region (§3.2's checkbox).
    pub dr_region: Option<String>,
    /// Plan-compilation work units per plan node. 0, the default, is free
    /// compilation: the tests and the benchmark run at it. Only the e7
    /// bench (`compile_vs_interpret`) sets it, to `DEFAULT_WORK_PER_NODE /
    /// 10`, for its ungated single-shot print.
    pub compile_work_per_node: u64,
    /// Seed for the cluster's internal randomness (keys, nonces).
    pub seed: u64,
    /// Retry/backoff policy for every S3-touching path (COPY object
    /// fetches, mirror writes, backup uploads, streaming-restore page
    /// faults). Jitter is reseeded from [`Self::seed`] at launch so a
    /// cluster's retry schedule replays with its config.
    pub retry: RetryPolicy,
    /// Workload-management queues (§2.1). The default is one permissive
    /// queue with SQA off, so single-tenant tests never queue.
    pub wlm: WlmConfig,
    /// Leader result-cache capacity (entries). Sessions opt out per
    /// connection; the sessionless compat API never participates.
    pub result_cache_capacity: usize,
}

impl ClusterConfig {
    pub fn new(name: impl Into<String>) -> Self {
        ClusterConfig {
            name: name.into(),
            nodes: 2,
            slices_per_node: 2,
            rows_per_group: 4_096,
            encryption: false,
            region: "us-east-1".into(),
            dr_region: None,
            compile_work_per_node: 0,
            seed: 0xC0FFEE,
            retry: RetryPolicy::default(),
            wlm: WlmConfig::default(),
            result_cache_capacity: 128,
        }
    }

    pub fn nodes(mut self, n: u32) -> Self {
        self.nodes = n;
        self
    }

    pub fn slices_per_node(mut self, s: u32) -> Self {
        self.slices_per_node = s;
        self
    }

    pub fn rows_per_group(mut self, r: usize) -> Self {
        self.rows_per_group = r;
        self
    }

    pub fn encrypted(mut self, on: bool) -> Self {
        self.encryption = on;
        self
    }

    pub fn region(mut self, r: impl Into<String>) -> Self {
        self.region = r.into();
        self
    }

    pub fn dr_region(mut self, r: impl Into<String>) -> Self {
        self.dr_region = Some(r.into());
        self
    }

    pub fn compile_work(mut self, units: u64) -> Self {
        self.compile_work_per_node = units;
        self
    }

    pub fn seed(mut self, s: u64) -> Self {
        self.seed = s;
        self
    }

    /// Install a retry/backoff policy for S3-touching paths
    /// (`RetryPolicy::none()` disables retries entirely).
    pub fn retry(mut self, p: RetryPolicy) -> Self {
        self.retry = p;
        self
    }

    /// Install a workload-management configuration (queues + SQA).
    pub fn wlm(mut self, cfg: WlmConfig) -> Self {
        self.wlm = cfg;
        self
    }

    /// Leader result-cache capacity in entries (0 effectively disables
    /// reuse: a one-entry cache that churns).
    pub fn result_cache_capacity(mut self, entries: usize) -> Self {
        self.result_cache_capacity = entries;
        self
    }

    /// Total slices.
    pub fn total_slices(&self) -> u32 {
        self.nodes * self.slices_per_node
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chain() {
        let c = ClusterConfig::new("c")
            .nodes(8)
            .slices_per_node(4)
            .encrypted(true)
            .dr_region("eu-west-1");
        assert_eq!(c.total_slices(), 32);
        assert!(c.encryption);
        assert_eq!(c.dr_region.as_deref(), Some("eu-west-1"));
    }
}
