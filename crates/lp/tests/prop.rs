//! Property tests for the simplex and the threshold walk it checks.

use std::cmp::Ordering;

use proptest::prelude::*;
use vetl_lp::{concave_frontier, solve, threshold_walk, Block, LpError, LpProblem, Relation};

/// The planner LP of `blocks`, built the way the simplex planner built it:
/// one variable per (block, point), the budget row, one `= 1` row per block.
fn knapsack_lp(blocks: &[Block], budget: f64) -> LpProblem {
    let mut lp = LpProblem::new();
    let mut budget_terms = Vec::new();
    let mut rows = Vec::new();
    for (i, b) in blocks.iter().enumerate() {
        let mut row = Vec::new();
        for (k, &(w, q)) in b.points.iter().enumerate() {
            let var = lp.add_var(format!("a{i}_{k}"), b.weight * q);
            budget_terms.push((var, b.weight * w));
            row.push((var, 1.0));
        }
        rows.push(row);
    }
    lp.add_constraint(budget_terms, Relation::Le, budget);
    for row in rows {
        lp.add_constraint(row, Relation::Eq, 1.0);
    }
    lp
}

/// Random blocks on a coarse grid, so duplicate weights, duplicate and
/// collinear points, dominated points, zero weights and exact efficiency
/// ties across blocks are all common.
fn grid_blocks(raw: &[(usize, Vec<(u32, u32)>)]) -> Vec<Block> {
    const WEIGHTS: [f64; 4] = [0.0, 0.25, 0.5, 1.0];
    raw.iter()
        .map(|(w, pts)| Block {
            weight: WEIGHTS[w % WEIGHTS.len()],
            points: pts
                .iter()
                .map(|&(w, q)| (0.5 * f64::from(w), 0.25 * f64::from(q)))
                .collect(),
        })
        .collect()
}

proptest! {
    /// Randomized planner-shaped LPs (k configs × c categories): the solve
    /// must succeed, every histogram row must normalize, the budget must
    /// hold, and the objective must beat the all-cheapest plan.
    #[test]
    fn planner_shaped_lps_solve_correctly(
        n_k in 2usize..6,
        n_c in 1usize..5,
        quals in prop::collection::vec(0.0f64..1.0, 30),
        budget_scale in 0.1f64..1.0,
    ) {
        // Costs grow with k; qualities arbitrary in [0,1] but monotone in k
        // (sorted per category) so "cheapest" is never optimal by accident.
        let cost = |k: usize| 1.0 + 3.0 * k as f64;
        let r = vec![1.0 / n_c as f64; n_c];
        let qual: Vec<Vec<f64>> = (0..n_c)
            .map(|c| {
                let mut col: Vec<f64> =
                    (0..n_k).map(|k| quals[(c * n_k + k) % quals.len()]).collect();
                col.sort_by(|a, b| a.partial_cmp(b).unwrap());
                col
            })
            .collect();
        let budget = cost(0) + budget_scale * (cost(n_k - 1) - cost(0));

        let mut lp = LpProblem::new();
        let mut vars = vec![vec![]; n_c];
        for (c, row) in vars.iter_mut().enumerate() {
            for (k, &q) in qual[c].iter().enumerate() {
                row.push(lp.add_var(format!("a{k}_{c}"), r[c] * q));
            }
        }
        let mut budget_terms = Vec::new();
        for (c, row) in vars.iter().enumerate() {
            for (k, &var) in row.iter().enumerate() {
                budget_terms.push((var, r[c] * cost(k)));
            }
        }
        lp.add_constraint(budget_terms, Relation::Le, budget);
        for row in &vars {
            let terms: Vec<_> = row.iter().map(|&v| (v, 1.0)).collect();
            lp.add_constraint(terms, Relation::Eq, 1.0);
        }

        let s = solve(&lp).expect("feasible planner LP");
        prop_assert!(lp.is_feasible(&s.values, 1e-6));
        // Objective ≥ the all-cheapest feasible plan's objective.
        let cheapest_obj: f64 = (0..n_c).map(|c| r[c] * qual[c][0]).sum();
        prop_assert!(s.objective >= cheapest_obj - 1e-6);
        // Rows normalize.
        for row in &vars {
            let total: f64 = row.iter().map(|&v| s.value(v)).sum();
            prop_assert!((total - 1.0).abs() < 1e-6);
        }
    }

    /// Contradictory bounds must be reported infeasible, never mis-solved.
    #[test]
    fn contradictions_are_infeasible(lo in 1.0f64..50.0, gap in 0.1f64..10.0) {
        let mut lp = LpProblem::new();
        let x = lp.add_var("x", 1.0);
        lp.add_constraint(vec![(x, 1.0)], Relation::Ge, lo + gap);
        lp.add_constraint(vec![(x, 1.0)], Relation::Le, lo);
        prop_assert_eq!(solve(&lp).unwrap_err(), LpError::Infeasible);
    }

    /// Scaling the objective scales the optimum but not the argmax.
    #[test]
    fn objective_scaling_invariance(c in 0.1f64..10.0, b in 1.0f64..20.0, scale in 0.5f64..4.0) {
        let build = |coef: f64| {
            let mut lp = LpProblem::new();
            let x = lp.add_var("x", coef);
            lp.add_constraint(vec![(x, 1.0)], Relation::Le, b);
            (lp, x)
        };
        let (lp1, x1) = build(c);
        let (lp2, x2) = build(c * scale);
        let s1 = solve(&lp1).unwrap();
        let s2 = solve(&lp2).unwrap();
        prop_assert!((s1.value(x1) - s2.value(x2)).abs() < 1e-9);
        prop_assert!((s2.objective - s1.objective * scale).abs() < 1e-6 * s2.objective.abs().max(1.0));
    }

    /// The walk solves the planner LP: the same feasibility verdict as the
    /// simplex, the same objective to 1e-9 relative, the budget respected,
    /// every row a distribution, at most one block fractional; and at every
    /// budget the frontier steps are taken as one prefix of the total order
    /// (efficiency descending, then block, then level).
    #[test]
    fn threshold_walk_matches_the_simplex(
        raw in prop::collection::vec(
            (0usize..4, prop::collection::vec((0u32..9, 0u32..9), 1..6)),
            1..7,
        ),
        mode in 0usize..3,
        t in 0.0f64..1.0,
    ) {
        let blocks = grid_blocks(&raw);
        let hulls: Vec<_> = blocks.iter().map(|b| concave_frontier(&b.points)).collect();
        let cost_at = |pick: fn(&[(usize, f64, f64)]) -> f64| -> f64 {
            blocks.iter().zip(&hulls).map(|(b, h)| b.weight * pick(h)).sum()
        };
        let base = cost_at(|h| h[0].1);
        let top = cost_at(|h| h[h.len() - 1].1);
        let budget = match mode {
            0 => base * t - 0.5,
            1 => base + t * (top - base),
            _ => top + 1.0 + t,
        };

        let lp = knapsack_lp(&blocks, budget);
        let walked = threshold_walk(&blocks, budget);
        let oracle = solve(&lp);
        prop_assert_eq!(walked.is_none(), budget < base);
        prop_assert_eq!(walked.is_none(), oracle.as_ref().err() == Some(&LpError::Infeasible));
        if let (Some(rows), Ok(oracle)) = (&walked, &oracle) {
            let values: Vec<f64> = rows.iter().flatten().copied().collect();
            let objective = lp.objective_value(&values);
            prop_assert!(
                (objective - oracle.objective).abs() <= 1e-9 * oracle.objective.abs().max(1.0),
                "walk {} vs simplex {}",
                objective,
                oracle.objective
            );
            prop_assert!(lp.is_feasible(&values, 1e-9), "walk plan infeasible: {:?}", rows);
            let fractional = rows
                .iter()
                .filter(|r| r.iter().any(|&a| a > 0.0 && a < 1.0))
                .count();
            prop_assert!(fractional <= 1, "{} fractional blocks", fractional);
        }

        // Half-way into each step of the total order the walk has taken
        // exactly the steps before it, half of it and nothing after: ties go
        // by (block, level) and are never spread, and zero-weight blocks
        // never leave their base point.
        let mut steps = Vec::new();
        for (i, (b, h)) in blocks.iter().zip(&hulls).enumerate() {
            for level in 1..h.len() {
                let eff = (h[level].2 - h[level - 1].2) / (h[level].1 - h[level - 1].1);
                steps.push((eff, i, level, b.weight * (h[level].1 - h[level - 1].1)));
            }
        }
        steps.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
        let mut spent = base;
        let walked: Vec<(usize, Vec<Vec<f64>>)> = steps
            .iter()
            .enumerate()
            .filter(|(_, s)| s.3 > 0.0)
            .map(|(j, s)| {
                let rows = threshold_walk(&blocks, spent + 0.5 * s.3).expect("above the base");
                spent += s.3;
                (j, rows)
            })
            .collect();
        for (j, rows) in &walked {
            for (s, &(_, i, level, cost)) in steps.iter().enumerate() {
                // Share of the step taken: Σ_{t' ≥ level} α[hull[t']].
                let x: f64 = hulls[i][level..].iter().map(|p| rows[i][p.0]).sum();
                let want = match s.cmp(j) {
                    _ if cost == 0.0 => 0.0,
                    Ordering::Less => 1.0,
                    Ordering::Equal => 0.5,
                    Ordering::Greater => 0.0,
                };
                prop_assert!(
                    (x - want).abs() <= 1e-9,
                    "half-way into step {j}: step ({i}, {level}) taken {x}, want {want}"
                );
            }
        }
    }
}
