//! Task placements: which UDFs run on the cloud.
//!
//! A placement of task graph `G_k` marks every node as on-premise or cloud.
//! The offline phase filters the exponential placement space down to the
//! cost/runtime Pareto frontier `P_k` (Appendix A.2) so the online knob
//! switcher only iterates over promising candidates.

use crate::task::NodeId;

/// A cloud/on-premise assignment for every node of a task graph.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Placement {
    cloud: Vec<bool>,
}

impl Placement {
    /// Everything on premises.
    pub fn all_onprem(n_nodes: usize) -> Self {
        Self {
            cloud: vec![false; n_nodes],
        }
    }

    /// Everything on the cloud.
    pub fn all_cloud(n_nodes: usize) -> Self {
        Self {
            cloud: vec![true; n_nodes],
        }
    }

    /// From a bitmask (bit `i` = node `i` on cloud). Handy for enumeration.
    pub fn from_mask(n_nodes: usize, mask: u64) -> Self {
        assert!(n_nodes <= 64, "mask-based placement limited to 64 nodes");
        Self {
            cloud: (0..n_nodes).map(|i| mask >> i & 1 == 1).collect(),
        }
    }

    /// Number of nodes covered.
    pub fn len(&self) -> usize {
        self.cloud.len()
    }

    /// True when the placement covers no nodes.
    pub fn is_empty(&self) -> bool {
        self.cloud.is_empty()
    }

    /// Is `node` placed on the cloud?
    pub fn is_cloud(&self, node: NodeId) -> bool {
        self.cloud[node.0]
    }

    /// Move a node to the cloud (or back).
    pub fn set_cloud(&mut self, node: NodeId, on_cloud: bool) {
        self.cloud[node.0] = on_cloud;
    }

    /// Number of cloud-placed nodes.
    pub fn cloud_count(&self) -> usize {
        self.cloud.iter().filter(|&&c| c).count()
    }

    /// Enumerate all `2^n` placements of an `n`-node graph (n ≤ 20 guarded).
    ///
    /// The paper uses a learned Placeto search because its framework targets
    /// arbitrary DAGs; the evaluation DAGs have ≤ 10 nodes, where exhaustive
    /// enumeration yields the *exact* Pareto frontier (see DESIGN.md).
    pub fn enumerate(n_nodes: usize) -> impl Iterator<Item = Placement> {
        assert!(
            n_nodes <= 20,
            "exhaustive enumeration capped at 20 nodes (2^20 placements)"
        );
        (0u64..(1u64 << n_nodes)).map(move |mask| Placement::from_mask(n_nodes, mask))
    }
}

/// A placement evaluated by the simulator: its wall-clock runtime and cloud
/// dollars for one execution of the graph.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacementPoint {
    /// The placement itself.
    pub placement: Placement,
    /// Simulated makespan, seconds.
    pub runtime: f64,
    /// Simulated cloud cost, dollars.
    pub cloud_usd: f64,
}

/// Filter to the cost/runtime Pareto frontier: keep a point iff no other
/// point is at least as good in both dimensions and strictly better in one.
/// The result is sorted by ascending cloud cost (so "cheapest placement
/// first" iteration in the knob switcher is a plain scan).
pub fn pareto_frontier(mut points: Vec<PlacementPoint>) -> Vec<PlacementPoint> {
    // Sort by (cost asc, runtime asc); sweep keeping strictly-improving
    // runtimes. Deduplicate equal (cost, runtime) pairs.
    points.sort_by(|a, b| {
        a.cloud_usd
            .partial_cmp(&b.cloud_usd)
            .expect("finite cost")
            .then(a.runtime.partial_cmp(&b.runtime).expect("finite runtime"))
    });
    let mut frontier: Vec<PlacementPoint> = Vec::new();
    for p in points {
        match frontier.last() {
            None => frontier.push(p),
            Some(last) => {
                if p.runtime < last.runtime - 1e-12 {
                    frontier.push(p);
                }
                // Same or worse runtime at same-or-higher cost: dominated.
            }
        }
    }
    frontier
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(runtime: f64, cloud_usd: f64) -> PlacementPoint {
        PlacementPoint {
            placement: Placement::all_onprem(1),
            runtime,
            cloud_usd,
        }
    }

    #[test]
    fn enumerate_covers_all_masks() {
        let all: Vec<Placement> = Placement::enumerate(3).collect();
        assert_eq!(all.len(), 8);
        assert_eq!(all[0].cloud_count(), 0);
        assert_eq!(all[7].cloud_count(), 3);
    }

    #[test]
    fn pareto_removes_dominated_points() {
        let pts = vec![
            point(10.0, 0.0), // frontier: free but slow
            point(5.0, 1.0),  // frontier
            point(6.0, 2.0),  // dominated by (5,1)
            point(2.0, 3.0),  // frontier
            point(2.0, 4.0),  // dominated (same runtime, pricier)
        ];
        let f = pareto_frontier(pts);
        let rts: Vec<f64> = f.iter().map(|p| p.runtime).collect();
        assert_eq!(rts, vec![10.0, 5.0, 2.0]);
        // Sorted by ascending cost.
        assert!(f.windows(2).all(|w| w[0].cloud_usd <= w[1].cloud_usd));
    }

    #[test]
    fn pareto_keeps_single_point() {
        let f = pareto_frontier(vec![point(1.0, 1.0)]);
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn pareto_handles_duplicates() {
        let f = pareto_frontier(vec![point(1.0, 1.0), point(1.0, 1.0)]);
        assert_eq!(f.len(), 1);
    }
}
