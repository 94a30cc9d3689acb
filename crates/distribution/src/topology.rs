//! Cluster topology: nodes, slices, cohorts.

use redsim_common::{Result, RsError};

/// Compute-node index within a cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// Global slice index within a cluster (0..nodes*slices_per_node).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SliceId(pub u32);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "node-{}", self.0)
    }
}

impl std::fmt::Display for SliceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "slice-{}", self.0)
    }
}

/// Static shape of a cluster: how many nodes, how many slices per node.
///
/// One slice per core in the paper; the simulation keeps the ratio
/// configurable so benchmarks can sweep it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterTopology {
    nodes: u32,
    slices_per_node: u32,
}

impl ClusterTopology {
    pub fn new(nodes: u32, slices_per_node: u32) -> Result<Self> {
        if nodes == 0 || slices_per_node == 0 {
            return Err(RsError::ControlPlane("topology needs ≥1 node and ≥1 slice".into()));
        }
        Ok(ClusterTopology { nodes, slices_per_node })
    }

    pub fn nodes(&self) -> u32 {
        self.nodes
    }

    pub fn slices_per_node(&self) -> u32 {
        self.slices_per_node
    }

    pub fn total_slices(&self) -> u32 {
        self.nodes * self.slices_per_node
    }

    /// Which node hosts this slice?
    pub fn node_of(&self, slice: SliceId) -> NodeId {
        assert!(slice.0 < self.total_slices());
        NodeId(slice.0 / self.slices_per_node)
    }

    /// The slices hosted by a node.
    pub fn slices_of(&self, node: NodeId) -> impl Iterator<Item = SliceId> {
        assert!(node.0 < self.nodes);
        let base = node.0 * self.slices_per_node;
        (base..base + self.slices_per_node).map(SliceId)
    }
}

/// Cohort-based replica placement.
///
/// Nodes are partitioned into cohorts of at most `cohort_size`; a block's
/// secondary replica is always placed inside the primary's cohort. The
/// paper: "Cohorting is used to limit the number of slices impacted by an
/// individual disk or node failure. Here, we attempt to balance the
/// resource impact of re-replication against the increased probability of
/// correlated failures as disk and node counts increase."
#[derive(Debug, Clone)]
pub struct CohortMap {
    cohort_size: u32,
    nodes: u32,
}

impl CohortMap {
    pub fn new(nodes: u32, cohort_size: u32) -> Result<Self> {
        if cohort_size < 2 && nodes > 1 {
            return Err(RsError::Replication(
                "cohort size must be ≥ 2 to place a secondary on a different node".into(),
            ));
        }
        Ok(CohortMap { cohort_size: cohort_size.max(1), nodes })
    }

    pub fn cohort_of(&self, node: NodeId) -> u32 {
        node.0 / self.cohort_size
    }

    /// Members of a node's cohort (includes the node itself). The final
    /// cohort absorbs the remainder nodes.
    pub fn members(&self, node: NodeId) -> Vec<NodeId> {
        let c = self.cohort_of(node);
        let mut start = c * self.cohort_size;
        let mut end = (start + self.cohort_size).min(self.nodes);
        // A trailing partial cohort of size 1 can't host a secondary;
        // merge it into the previous cohort (seen from both sides).
        if end < self.nodes && self.nodes - end == 1 {
            end += 1; // this cohort absorbs the tail singleton
        }
        if end - start == 1 && start > 0 {
            start = start.saturating_sub(self.cohort_size); // tail node joins previous cohort
        }
        (start..end).map(NodeId).collect()
    }

    /// Choose the secondary node for a block whose primary lives on
    /// `primary`. Deterministic: derived from the block seed so replicas
    /// spread across the cohort.
    pub fn secondary_for(&self, primary: NodeId, block_seed: u64) -> Option<NodeId> {
        let members: Vec<NodeId> = self
            .members(primary)
            .into_iter()
            .filter(|&n| n != primary)
            .collect();
        if members.is_empty() {
            return None; // single-node cluster: no on-cluster secondary
        }
        Some(members[(block_seed % members.len() as u64) as usize])
    }

    /// Number of nodes whose data must be re-replicated when `failed`
    /// dies — by construction, bounded by the cohort size.
    pub fn blast_radius(&self, failed: NodeId) -> usize {
        self.members(failed).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topology_basics() {
        let t = ClusterTopology::new(4, 2).unwrap();
        assert_eq!(t.total_slices(), 8);
        assert_eq!(t.node_of(SliceId(0)), NodeId(0));
        assert_eq!(t.node_of(SliceId(7)), NodeId(3));
        let slices: Vec<_> = t.slices_of(NodeId(1)).collect();
        assert_eq!(slices, vec![SliceId(2), SliceId(3)]);
        assert!(ClusterTopology::new(0, 2).is_err());
    }

    #[test]
    fn cohorts_partition_nodes() {
        let c = CohortMap::new(8, 4).unwrap();
        assert_eq!(c.members(NodeId(0)), vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)]);
        assert_eq!(c.members(NodeId(5)), vec![NodeId(4), NodeId(5), NodeId(6), NodeId(7)]);
        assert_eq!(c.blast_radius(NodeId(2)), 4);
    }

    #[test]
    fn trailing_partial_cohort_merges_singletons() {
        // 9 nodes, cohort 4: cohorts {0..3}, {4..8} (5 members).
        let c = CohortMap::new(9, 4).unwrap();
        assert_eq!(c.members(NodeId(8)).len(), 5);
        assert_eq!(c.members(NodeId(4)).len(), 5);
        assert!(c.members(NodeId(4)).contains(&NodeId(8)));
    }

    #[test]
    fn secondary_stays_in_cohort_and_differs_from_primary() {
        let c = CohortMap::new(8, 4).unwrap();
        for p in 0..8u32 {
            for seed in 0..32u64 {
                let s = c.secondary_for(NodeId(p), seed).unwrap();
                assert_ne!(s, NodeId(p));
                assert_eq!(c.cohort_of(s), c.cohort_of(NodeId(p)));
            }
        }
    }

    #[test]
    fn secondaries_spread_within_cohort() {
        let c = CohortMap::new(8, 4).unwrap();
        let mut seen = std::collections::HashSet::new();
        for seed in 0..100u64 {
            seen.insert(c.secondary_for(NodeId(0), seed).unwrap());
        }
        assert_eq!(seen.len(), 3, "all cohort peers used");
    }

    #[test]
    fn single_node_has_no_secondary() {
        let c = CohortMap::new(1, 2).unwrap();
        assert!(c.secondary_for(NodeId(0), 7).is_none());
    }
}
