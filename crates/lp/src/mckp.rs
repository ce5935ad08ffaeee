//! The knob planner's LP as a multiple-choice knapsack, solved by a
//! threshold walk.
//!
//! The planner LP (Eqs. 2–4, and the joint Eqs. 7–9) has exactly one
//! coupling row — the budget — plus one normalization row per **block**, a
//! (stream, category). That is the LP relaxation of a multiple-choice
//! knapsack, and its optimum has a closed form: start every block at its
//! least-work point, then walk the upgrade steps of every block's upper
//! concave frontier in decreasing Δquality/Δwork order, taking each whole
//! while the budget lasts and the first one that does not fit fractionally.
//! At most one block ends fractional; the efficiency of that step is the
//! budget's shadow price.
//!
//! Everything is specified to the bit, so every engine, shard count and
//! recovery computes the same plan:
//!
//! * **Frontier** ([`concave_frontier`]) — points sorted by work ascending
//!   (equal work: higher quality, then lower index first), strictly
//!   improving quality only, a point popped while the next segment's
//!   efficiency is ≥ the previous one's, so efficiencies strictly decrease.
//! * **Order** — steps by efficiency descending ([`f64::total_cmp`]), then
//!   block index (blocks are laid out stream-major, so this is slot, then
//!   category), then frontier level. Ties are *not* spread: of 64
//!   same-model streams tied at every level, the lowest slots upgrade
//!   first.
//! * **Zero weight** — a block with `r_c = 0` costs and earns nothing and
//!   stays at its least-work point.

/// One block of the knapsack: a (stream, category) of the planner LP.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    /// Forecast weight `r_c ≥ 0`; scales both coordinates of every point.
    pub weight: f64,
    /// `(work, quality)` of every configuration, indexed by configuration.
    pub points: Vec<(f64, f64)>,
}

/// Efficiency `Δquality / Δwork` of the segment from `a` to `b`.
fn efficiency(a: (usize, f64, f64), b: (usize, f64, f64)) -> f64 {
    (b.2 - a.2) / (b.1 - a.1)
}

/// Reduce `(work, quality)` points to their upper concave frontier as
/// `(index, work, quality)`, least work first. Along the result work and
/// quality strictly increase and segment efficiencies strictly decrease.
pub fn concave_frontier(points: &[(f64, f64)]) -> Vec<(usize, f64, f64)> {
    let mut order: Vec<usize> = (0..points.len()).collect();
    order.sort_by(|&a, &b| {
        points[a]
            .0
            .total_cmp(&points[b].0)
            .then(points[b].1.total_cmp(&points[a].1))
            .then(a.cmp(&b))
    });
    let mut hull: Vec<(usize, f64, f64)> = Vec::with_capacity(points.len());
    for i in order {
        let p = (i, points[i].0, points[i].1);
        if hull.last().is_some_and(|l| p.2 <= l.2) {
            continue; // no better than a point of less or equal work
        }
        while let [.., a, b] = hull[..] {
            if efficiency(b, p) >= efficiency(a, b) {
                hull.pop();
            } else {
                break;
            }
        }
        hull.push(p);
    }
    hull
}

/// One upgrade step on a block's frontier.
struct Step {
    block: usize,
    level: usize,
    eff: f64,
    cost: f64,
}

/// Solve the LP relaxation of the multiple-choice knapsack over `blocks`
/// under `budget`: maximize `Σ weight · quality` subject to
/// `Σ weight · work ≤ budget` and one distribution over points per block.
///
/// Returns one α row per block (indexed like its points, summing to 1), or
/// `None` when the budget does not cover the base cost — every block at its
/// least-work point — or is NaN.
///
/// # Panics
/// Panics if a block has no points.
pub fn threshold_walk(blocks: &[Block], budget: f64) -> Option<Vec<Vec<f64>>> {
    let hulls: Vec<Vec<(usize, f64, f64)>> =
        blocks.iter().map(|b| concave_frontier(&b.points)).collect();
    let base: f64 = blocks
        .iter()
        .zip(&hulls)
        .map(|(b, h)| b.weight * h.first().expect("every block has a point").1)
        .sum();
    if budget.is_nan() || base > budget {
        return None;
    }
    let mut steps = Vec::new();
    for (block, (b, h)) in blocks.iter().zip(&hulls).enumerate() {
        if b.weight == 0.0 {
            continue;
        }
        for level in 1..h.len() {
            steps.push(Step {
                block,
                level,
                eff: efficiency(h[level - 1], h[level]),
                cost: b.weight * (h[level].1 - h[level - 1].1),
            });
        }
    }
    steps.sort_unstable_by(|a, b| {
        b.eff
            .total_cmp(&a.eff)
            .then(a.block.cmp(&b.block))
            .then(a.level.cmp(&b.level))
    });

    // Frontier level each block reached, and the one step taken in part.
    // Efficiencies strictly decrease along a frontier, so a block's steps
    // come in level order.
    let mut level = vec![0; blocks.len()];
    let mut partial = None;
    let mut left = budget - base;
    for s in steps {
        debug_assert_eq!(level[s.block] + 1, s.level, "steps out of level order");
        if s.cost <= left {
            level[s.block] = s.level;
            left -= s.cost;
        } else {
            partial = Some((s.block, left / s.cost));
            break;
        }
    }

    let rows = blocks
        .iter()
        .zip(&hulls)
        .enumerate()
        .map(|(i, (b, h))| {
            let mut alpha = vec![0.0; b.points.len()];
            let at = level[i];
            match partial {
                Some((j, x)) if j == i => {
                    alpha[h[at].0] = 1.0 - x;
                    alpha[h[at + 1].0] = x;
                }
                _ => alpha[h[at].0] = 1.0,
            }
            alpha
        })
        .collect();
    Some(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frontier_is_concave_and_keeps_indices() {
        let pts = vec![
            (1.0, 0.2),
            (2.0, 0.5),
            (3.0, 0.55),
            (4.0, 0.9),
            (10.0, 0.95),
        ];
        let hull = concave_frontier(&pts);
        for w in hull.windows(3) {
            assert!(efficiency(w[1], w[2]) < efficiency(w[0], w[1]), "{hull:?}");
        }
        assert_eq!(hull[0].0, 0);
        assert_eq!(hull.last().unwrap().0, 4);
    }

    #[test]
    fn frontier_drops_collinear_dominated_and_equal_work_points() {
        // (2, 2) is collinear, (3, 1) dominated, (1, 0.5) loses the
        // equal-work tie to (1, 1), and the later (4, 4) to index 3.
        let pts = vec![
            (1.0, 1.0),
            (2.0, 2.0),
            (3.0, 1.0),
            (4.0, 4.0),
            (1.0, 0.5),
            (4.0, 4.0),
        ];
        let idx: Vec<usize> = concave_frontier(&pts).iter().map(|p| p.0).collect();
        assert_eq!(idx, vec![0, 3]);
    }

    #[test]
    fn walk_takes_steps_greedily_and_one_in_part() {
        let blocks = vec![
            Block {
                weight: 1.0,
                points: vec![(1.0, 0.0), (2.0, 3.0), (4.0, 4.0)],
            },
            Block {
                weight: 0.5,
                points: vec![(2.0, 1.0), (0.0, 0.0)],
            },
        ];
        // Base: block 0 at (1, 0), block 1 at (0, 0): cost 1. Steps: block 1
        // eff 0.5 (cost 1), block 0 eff 3 (cost 1) then 0.5 (cost 2).
        assert_eq!(threshold_walk(&blocks, 0.5), None);
        let rows = threshold_walk(&blocks, 3.0).unwrap();
        // Eff 3 whole (left 1), then the eff-0.5 tie: block 0 first, half.
        assert_eq!(rows[0], vec![0.0, 0.5, 0.5]);
        assert_eq!(rows[1], vec![0.0, 1.0]);
        assert_eq!(threshold_walk(&blocks, f64::NAN), None);
    }

    #[test]
    fn zero_weight_blocks_stay_at_their_base_point() {
        let blocks = vec![Block {
            weight: 0.0,
            points: vec![(3.0, 1.0), (1.0, 0.5)],
        }];
        assert_eq!(threshold_walk(&blocks, 0.0).unwrap(), vec![vec![0.0, 1.0]]);
    }
}
