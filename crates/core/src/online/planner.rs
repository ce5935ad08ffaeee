//! The predictive knob planner (§4.1).
//!
//! Every planned interval (default 2 days) the planner (1) forecasts the
//! content-category distribution `r` with the trained model and (2) solves
//! the linear program of Eqs. 2–4 to obtain the knob plan:
//!
//! ```text
//! maximize   Σ_{k,c} α_{k,c} · r_c · q̂(k,c)              (2)
//! subject to Σ_{k,c} α_{k,c} · r_c · cost(k) ≤ budget    (3)
//!            Σ_k α_{k,c} = 1,  α_{k,c} ≥ 0   ∀c          (4)
//! ```
//!
//! The budget is expressed in on-premise `core·s` per segment; Skyscraper
//! internally converts the user's cloud-credit budget into that unit
//! (footnote 4) via [`vetl_sim::CostModel`].

use vetl_lp::{solve_warm, LpBasis, LpProblem, Relation};

use crate::error::SkyError;
use crate::offline::FittedModel;
use crate::online::plan::KnobPlan;

/// Planner statistics (Fig. 13 reports its sub-second runtime).
#[derive(Debug, Clone, Copy, Default)]
pub struct PlannerStats {
    /// LP variables (`|C| · |K|`).
    pub n_vars: usize,
    /// LP constraints (`1 + |C|` plus non-negativity).
    pub n_constraints: usize,
    /// Simplex pivots.
    pub pivots: usize,
}

/// The knob planner.
#[derive(Debug, Clone, Default)]
pub struct KnobPlanner {
    /// Statistics of the last solve.
    pub last_stats: PlannerStats,
    /// Optimal basis of the previous epoch's LP; consecutive replans drift
    /// slowly, so most solves re-certify it and skip the simplex entirely.
    pub(crate) basis: LpBasis,
}

impl KnobPlanner {
    /// Create a planner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Replans that re-certified the previous epoch's basis (no simplex).
    pub fn warm_hits(&self) -> u64 {
        self.basis.hits()
    }

    /// Replans that ran the exact cold simplex.
    pub fn warm_misses(&self) -> u64 {
        self.basis.misses()
    }

    /// Compute the optimal plan for forecast `r` (a distribution over
    /// categories) under `budget_per_seg` core-seconds per segment.
    ///
    /// Infeasibility cannot occur as long as the cheapest configuration fits
    /// the budget; if the LP is infeasible regardless (budget below the
    /// cheapest configuration's cost), the planner degrades to the
    /// all-cheapest plan rather than failing the pipeline — mirroring the
    /// paper's guarantee that Skyscraper keeps ingesting.
    pub fn plan(
        &mut self,
        model: &FittedModel,
        r: &[f64],
        budget_per_seg: f64,
    ) -> Result<KnobPlan, SkyError> {
        let n_k = model.n_configs();
        let n_c = model.n_categories();
        assert_eq!(r.len(), n_c, "forecast dimension mismatch");

        let mut lp = LpProblem::new();
        // Variable layout: alpha[c][k] at index c * n_k + k.
        let mut vars = Vec::with_capacity(n_c * n_k);
        for (c, &rc) in r.iter().enumerate() {
            for k in 0..n_k {
                let obj = rc * model.categories.avg_quality(k, c);
                vars.push(lp.add_var(format!("a_{k}_{c}"), obj));
            }
        }
        // Eq. 3: budget, with category-conditional expected costs.
        let budget_terms: Vec<_> = (0..n_c)
            .flat_map(|c| (0..n_k).map(move |k| (c, k)))
            .map(|(c, k)| (vars[c * n_k + k], r[c] * model.cost(k, c)))
            .collect();
        lp.add_constraint(budget_terms, Relation::Le, budget_per_seg);
        // Eq. 4: normalization per category.
        for c in 0..n_c {
            let terms: Vec<_> = (0..n_k).map(|k| (vars[c * n_k + k], 1.0)).collect();
            lp.add_constraint(terms, Relation::Eq, 1.0);
        }

        self.last_stats = PlannerStats {
            n_vars: lp.num_vars(),
            n_constraints: lp.num_constraints(),
            pivots: 0,
        };

        match solve_warm(&lp, &mut self.basis) {
            Ok(sol) => {
                self.last_stats.pivots = sol.pivots;
                let alpha: Vec<Vec<f64>> = (0..n_c)
                    .map(|c| (0..n_k).map(|k| sol.value(vars[c * n_k + k])).collect())
                    .collect();
                Ok(KnobPlan::new(alpha))
            }
            Err(vetl_lp::LpError::Infeasible) => {
                // Budget below even the cheapest plan: degrade gracefully.
                Ok(KnobPlan::single_config(n_c, n_k, model.cheapest()))
            }
            Err(e) => Err(SkyError::PlannerLp(e)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SkyscraperConfig;
    use crate::offline::run_offline;
    use crate::testkit::ToyWorkload;
    use vetl_sim::HardwareSpec;
    use vetl_video::{ContentParams, Recording, SyntheticCamera};

    fn model() -> FittedModel {
        let w = ToyWorkload::new();
        let mut cam = SyntheticCamera::new(ContentParams::traffic_intersection(3), 2.0);
        let labeled = Recording::record(&mut cam, 20.0 * 60.0);
        let unlabeled = Recording::record(&mut cam, 2.0 * 86_400.0);
        run_offline(
            &w,
            &labeled,
            &unlabeled,
            HardwareSpec::with_cores(4),
            &SkyscraperConfig::fast_test(),
        )
        .unwrap()
        .0
    }

    #[test]
    fn plan_rows_normalize_and_respect_budget() {
        let m = model();
        let r = vec![1.0 / m.n_categories() as f64; m.n_categories()];
        let budget = 2.0; // core-s per 2 s segment = 1 core sustained
        let plan = KnobPlanner::new().plan(&m, &r, budget).unwrap();
        for c in 0..m.n_categories() {
            let s: f64 = plan.histogram(c).iter().sum();
            assert!((s - 1.0).abs() < 1e-6);
        }
        let cost = plan.expected_cost(&r, |k| m.configs[k].work_mean);
        assert!(
            cost <= budget + 1e-6,
            "plan cost {cost} exceeds budget {budget}"
        );
    }

    #[test]
    fn bigger_budgets_buy_more_quality() {
        let m = model();
        let r = vec![1.0 / m.n_categories() as f64; m.n_categories()];
        let mut planner = KnobPlanner::new();
        let q_small = planner
            .plan(&m, &r, 0.6)
            .unwrap()
            .expected_quality(&r, |k, c| m.categories.avg_quality(k, c));
        let q_large = planner
            .plan(&m, &r, 8.0)
            .unwrap()
            .expected_quality(&r, |k, c| m.categories.avg_quality(k, c));
        assert!(q_large > q_small, "quality {q_large} should beat {q_small}");
    }

    #[test]
    fn impossible_budget_degrades_to_cheapest() {
        let m = model();
        let r = vec![1.0 / m.n_categories() as f64; m.n_categories()];
        let plan = KnobPlanner::new().plan(&m, &r, 1e-9).unwrap();
        for c in 0..m.n_categories() {
            assert!((plan.frequency(c, m.cheapest()) - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn hard_categories_get_expensive_configs_first() {
        // With a moderate budget, the plan should allocate expensive configs
        // to the category where they help most (the hard one) and cheap
        // configs where quality saturates anyway.
        let m = model();
        // Identify the hardest category: lowest cheap-config quality.
        let cheap = m.cheapest();
        let hard_c = (0..m.n_categories())
            .min_by(|&a, &b| {
                m.categories
                    .avg_quality(cheap, a)
                    .partial_cmp(&m.categories.avg_quality(cheap, b))
                    .unwrap()
            })
            .unwrap();
        let easy_c = (0..m.n_categories())
            .max_by(|&a, &b| {
                m.categories
                    .avg_quality(cheap, a)
                    .partial_cmp(&m.categories.avg_quality(cheap, b))
                    .unwrap()
            })
            .unwrap();
        let r = vec![1.0 / m.n_categories() as f64; m.n_categories()];
        // Budget halfway between cheapest and most expensive.
        let w_min = m
            .configs
            .iter()
            .map(|p| p.work_mean)
            .fold(f64::INFINITY, f64::min);
        let w_max = m.configs.iter().map(|p| p.work_mean).fold(0.0f64, f64::max);
        let plan = KnobPlanner::new()
            .plan(&m, &r, 0.5 * (w_min + w_max))
            .unwrap();
        let planned_work = |c: usize| -> f64 {
            (0..m.n_configs())
                .map(|k| plan.frequency(c, k) * m.configs[k].work_mean)
                .sum()
        };
        assert!(
            planned_work(hard_c) > planned_work(easy_c),
            "hard category should receive more work: {} vs {}",
            planned_work(hard_c),
            planned_work(easy_c)
        );
    }

    #[test]
    fn stats_report_problem_size() {
        let m = model();
        let r = vec![1.0 / m.n_categories() as f64; m.n_categories()];
        let mut planner = KnobPlanner::new();
        let _ = planner.plan(&m, &r, 2.0).unwrap();
        assert_eq!(planner.last_stats.n_vars, m.n_configs() * m.n_categories());
        assert_eq!(planner.last_stats.n_constraints, 1 + m.n_categories());
    }
}
