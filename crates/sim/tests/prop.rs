//! Property tests for the hardware simulator.

use proptest::prelude::*;
use vetl_sim::{
    pareto_frontier, simulate, CloudSpec, ClusterSpec, Placement, PlacementPoint, TaskGraph,
    TaskNode,
};

fn random_graph(secs: &[f64], chain: bool) -> TaskGraph {
    let mut g = TaskGraph::new();
    let mut prev = None;
    for (i, &s) in secs.iter().enumerate() {
        let n = g.add_node(TaskNode::new(format!("t{i}"), s, s * 0.6).with_payload(1e5 * s, 1e4));
        if chain {
            if let Some(p) = prev {
                g.add_edge(p, n);
            }
            prev = Some(n);
        }
    }
    g
}

proptest! {
    /// The Pareto frontier contains no dominated points and loses no
    /// undominated ones.
    #[test]
    fn pareto_frontier_is_exact(
        pts in prop::collection::vec((0.1f64..10.0, 0.0f64..5.0), 1..40),
    ) {
        let points: Vec<PlacementPoint> = pts
            .iter()
            .map(|&(runtime, cloud_usd)| PlacementPoint {
                placement: Placement::all_onprem(1),
                runtime,
                cloud_usd,
            })
            .collect();
        let frontier = pareto_frontier(points.clone());
        let dominates = |a: &PlacementPoint, b: &PlacementPoint| {
            a.runtime <= b.runtime + 1e-12
                && a.cloud_usd <= b.cloud_usd + 1e-12
                && (a.runtime < b.runtime - 1e-12 || a.cloud_usd < b.cloud_usd - 1e-12)
        };
        // No frontier point is dominated by any input point.
        for f in &frontier {
            for p in &points {
                prop_assert!(!dominates(p, f),
                    "frontier point ({}, {}) dominated by ({}, {})",
                    f.runtime, f.cloud_usd, p.runtime, p.cloud_usd);
            }
        }
        // Every input point is dominated-or-equalled by some frontier point.
        for p in &points {
            let covered = frontier.iter().any(|f| {
                f.runtime <= p.runtime + 1e-12 && f.cloud_usd <= p.cloud_usd + 1e-12
            });
            prop_assert!(covered, "({}, {}) uncovered", p.runtime, p.cloud_usd);
        }
    }

    /// Offloading work to the cloud never increases on-premise busy time,
    /// and cloud cost is monotone in the number of cloud-placed nodes along
    /// a fixed nesting chain of placements.
    #[test]
    fn cloud_offload_monotonicity(
        secs in prop::collection::vec(0.05f64..1.0, 2..8),
        chain in prop::bool::ANY,
    ) {
        let g = random_graph(&secs, chain);
        let cluster = ClusterSpec::with_cores(2);
        let cloud = CloudSpec::default();
        let mut prev_onprem = f64::INFINITY;
        let mut prev_usd = -1.0;
        for k in 0..=g.len() {
            // Nested placements: first k nodes on the cloud.
            let mut p = Placement::all_onprem(g.len());
            for i in 0..k {
                p.set_cloud(vetl_sim::NodeId(i), true);
            }
            let r = simulate(&g, &p, &cluster, &cloud);
            prop_assert!(r.onprem_busy_secs <= prev_onprem + 1e-9);
            prop_assert!(r.cloud_usd >= prev_usd - 1e-12);
            prev_onprem = r.onprem_busy_secs;
            prev_usd = r.cloud_usd;
        }
    }

    /// Makespan scales inversely with core speed for on-premise-only runs.
    #[test]
    fn makespan_scales_with_core_speed(
        secs in prop::collection::vec(0.05f64..1.0, 1..8),
        speed in 0.5f64..4.0,
    ) {
        let g = random_graph(&secs, false);
        let p = Placement::all_onprem(g.len());
        let cloud = CloudSpec::default();
        let base = simulate(&g, &p, &ClusterSpec { cores: 2, core_speed: 1.0 }, &cloud);
        let fast = simulate(&g, &p, &ClusterSpec { cores: 2, core_speed: speed }, &cloud);
        prop_assert!((fast.makespan * speed - base.makespan).abs() < 1e-6 * base.makespan.max(1.0));
    }
}
