//! The Optimum oracle (§5.4, baseline 2c) and the greedy multiple-choice
//! knapsack it is built on.
//!
//! "The optimum baseline fully leverages the ground truth to always choose
//! the optimal knob configuration. Specifically, given the performance of
//! each knob configuration beforehand, it uses the greedy 0-1 knapsack
//! approximation to choose knob configurations that maximize quality under a
//! certain budget."
//!
//! [`greedy_mckp`] is the reusable core: every item (segment) starts at its
//! cheapest candidate; candidates are reduced to their **concave efficiency
//! frontier** ([`vetl_lp::concave_frontier`], the planner's own), whose
//! marginal efficiencies strictly decrease along the frontier; upgrades are
//! then applied globally in decreasing Δvalue/Δweight order until the budget
//! runs out. The idealized system of Appendix B.1 reuses it with *predicted*
//! values.

use skyscraper::{KnobConfig, Workload};
use vetl_lp::concave_frontier;
use vetl_video::Segment;

use crate::BaselineOutcome;

/// One upgrade step on an item's efficiency frontier.
#[derive(Debug, Clone, Copy)]
struct Upgrade {
    item: u32,
    to: u32,
    dv: f64,
    dw: f64,
}

/// Greedy multiple-choice knapsack.
///
/// `options[i]` lists candidate `(weight, value)` points for item `i`; one
/// candidate must be chosen per item. Returns the chosen candidate index per
/// item plus the total `(weight, value)` of the selection.
pub fn greedy_mckp(options: &[Vec<(f64, f64)>], budget: f64) -> (Vec<usize>, f64, f64) {
    assert!(
        options.iter().all(|o| !o.is_empty()),
        "every item needs candidates"
    );

    let mut upgrades: Vec<Upgrade> = Vec::new();
    let mut hulls: Vec<Vec<(usize, f64, f64)>> = Vec::with_capacity(options.len());
    let mut weight = 0.0;
    let mut value = 0.0;
    for (i, cands) in options.iter().enumerate() {
        let hull = concave_frontier(cands);
        weight += hull[0].1;
        value += hull[0].2;
        for t in 1..hull.len() {
            upgrades.push(Upgrade {
                item: i as u32,
                to: t as u32,
                dv: hull[t].2 - hull[t - 1].2,
                dw: hull[t].1 - hull[t - 1].1,
            });
        }
        hulls.push(hull);
    }

    // Global greedy in decreasing efficiency; per-item level order is
    // guaranteed by frontier concavity (ties resolved by level).
    upgrades.sort_by(|a, b| {
        (b.dv / b.dw)
            .total_cmp(&(a.dv / a.dw))
            .then(a.to.cmp(&b.to))
    });
    let mut level = vec![0u32; options.len()];
    for u in upgrades {
        if level[u.item as usize] + 1 != u.to {
            continue; // an earlier upgrade was skipped for budget
        }
        if weight + u.dw > budget {
            continue;
        }
        weight += u.dw;
        value += u.dv;
        level[u.item as usize] = u.to;
    }

    let chosen: Vec<usize> = level
        .iter()
        .zip(hulls.iter())
        .map(|(&l, hull)| hull[l as usize].0)
        .collect();
    (chosen, weight, value)
}

/// Run the oracle: choose per-segment configurations from `configs`
/// maximizing total ground-truth quality under `work_budget` core-seconds.
pub fn run_optimum<W: Workload + ?Sized>(
    workload: &W,
    configs: &[KnobConfig],
    segments: &[Segment],
    work_budget: f64,
) -> BaselineOutcome {
    assert!(!configs.is_empty(), "need candidate configurations");
    assert!(!segments.is_empty(), "need segments");

    let options: Vec<Vec<(f64, f64)>> = segments
        .iter()
        .map(|seg| {
            configs
                .iter()
                .map(|c| {
                    (
                        workload.work(c, &seg.content),
                        workload.true_quality(c, &seg.content),
                    )
                })
                .collect()
        })
        .collect();
    let (_, weight, value) = greedy_mckp(&options, work_budget);

    BaselineOutcome {
        mean_quality: value / segments.len() as f64,
        work_core_secs: weight,
        cloud_usd: 0.0,
        crashed: false,
        crashed_at_secs: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vetl_video::{ContentParams, Recording, SyntheticCamera};
    use vetl_workloads::CovidWorkload;

    fn setup(hours: f64) -> (CovidWorkload, Vec<KnobConfig>, Vec<Segment>) {
        let w = CovidWorkload::new();
        let mut cam = SyntheticCamera::new(ContentParams::shopping_street(5), 2.0);
        let segs = Recording::record(&mut cam, hours * 3_600.0)
            .segments()
            .to_vec();
        let configs: Vec<KnobConfig> = w.config_space().iter().collect();
        (w, configs, segs)
    }

    #[test]
    fn mckp_matches_brute_force_on_small_instance() {
        // 3 items × 3 candidates; budget 6.
        let options = vec![
            vec![(1.0, 1.0), (2.0, 3.0), (4.0, 4.0)],
            vec![(1.0, 0.5), (3.0, 2.5)],
            vec![(1.0, 2.0), (2.0, 2.2)],
        ];
        let (chosen, w, v) = greedy_mckp(&options, 6.0);
        assert!(w <= 6.0 + 1e-9);
        assert_eq!(chosen.len(), 3);
        // Brute force.
        let mut best = 0.0f64;
        for a in 0..3 {
            for b in 0..2 {
                for c in 0..2 {
                    let weight = options[0][a].0 + options[1][b].0 + options[2][c].0;
                    let value = options[0][a].1 + options[1][b].1 + options[2][c].1;
                    if weight <= 6.0 {
                        best = best.max(value);
                    }
                }
            }
        }
        // Greedy on concave frontiers is near-optimal; allow a small gap.
        assert!(v >= 0.85 * best, "greedy {v} vs brute {best}");
    }

    #[test]
    fn respects_the_budget() {
        let (w, configs, segs) = setup(2.0);
        let budget = 4.0 * segs.len() as f64 * 2.0; // 4 cores sustained
        let out = run_optimum(&w, &configs, &segs, budget);
        assert!(out.work_core_secs <= budget + 1e-6);
        assert!(out.mean_quality > 0.0);
    }

    #[test]
    fn more_budget_more_quality() {
        let (w, configs, segs) = setup(2.0);
        let seg_total = segs.len() as f64 * 2.0;
        let q1 = run_optimum(&w, &configs, &segs, 0.5 * seg_total).mean_quality;
        let q4 = run_optimum(&w, &configs, &segs, 4.0 * seg_total).mean_quality;
        let q40 = run_optimum(&w, &configs, &segs, 40.0 * seg_total).mean_quality;
        assert!(q4 > q1, "{q4} vs {q1}");
        assert!(q40 >= q4, "{q40} vs {q4}");
    }

    #[test]
    fn unlimited_budget_reaches_best_config_quality() {
        let (w, configs, segs) = setup(1.0);
        let out = run_optimum(&w, &configs, &segs, f64::INFINITY);
        let best = w.config_space().max_config();
        let best_q: f64 = segs
            .iter()
            .map(|s| w.true_quality(&best, &s.content))
            .sum::<f64>()
            / segs.len() as f64;
        assert!(
            out.mean_quality >= best_q - 1e-6,
            "{} vs {}",
            out.mean_quality,
            best_q
        );
    }

    #[test]
    fn oracle_beats_static_at_equal_work() {
        let (w, configs, segs) = setup(3.0);
        let samples: Vec<_> = segs.iter().step_by(300).map(|s| s.content).collect();
        let static_cfg = crate::static_baseline::best_static_config(&w, &samples, 4.0);
        let st = crate::static_baseline::run_static(&w, &static_cfg, &segs);
        let oracle = run_optimum(&w, &configs, &segs, st.work_core_secs);
        assert!(
            oracle.mean_quality >= st.mean_quality - 1e-9,
            "oracle {} must be ≥ static {} at the same work",
            oracle.mean_quality,
            st.mean_quality
        );
    }
}
