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
//!
//! The LP is a multiple-choice knapsack with one block per category (one
//! per stream and category for the joint Eqs. 7–9), so it is solved exactly
//! by [`vetl_lp::threshold_walk`] — no simplex.

use vetl_lp::{threshold_walk, Block};

use crate::error::SkyError;
use crate::offline::FittedModel;
use crate::online::plan::KnobPlan;

/// Compute the optimal plan for forecast `r` (a distribution over
/// categories) under `budget_per_seg` core-seconds per segment: Eqs. 2–4
/// priced with the category-conditional cost [`FittedModel::cost`], a pure
/// function of its inputs.
///
/// A forecast whose length is not the model's category count is rejected
/// typed ([`SkyError::ForecastShape`], stream 0), as [`joint_plan`] rejects
/// it per stream; a NaN, infinite or negative forecast entry or a NaN
/// budget is [`SkyError::InvalidInput`]. A budget below the all-cheapest
/// plan's cost degrades to the all-cheapest plan rather than failing the
/// pipeline — mirroring the paper's guarantee that Skyscraper keeps
/// ingesting.
///
/// [`joint_plan`]: crate::multistream::joint_plan
pub fn plan_knobs(
    model: &FittedModel,
    r: &[f64],
    budget_per_seg: f64,
) -> Result<KnobPlan, SkyError> {
    let mut plans = walk_plans(&[model], &[r], budget_per_seg, FittedModel::cost)?;
    Ok(plans.pop().expect("one model, one plan"))
}

/// The planner LP over every (stream, category) block by threshold walk:
/// block `(v, c)` weighs `rs[v][c]` and holds `(cost(model, k, c), q̂(k, c))`
/// per configuration `k`. The one routine behind [`plan_knobs`] and
/// [`crate::multistream::joint_plan`], which differ only in `cost`.
/// `rs` has one forecast per model (callers check the count).
pub(crate) fn walk_plans<R: AsRef<[f64]>>(
    models: &[&FittedModel],
    rs: &[R],
    budget: f64,
    cost: impl Fn(&FittedModel, usize, usize) -> f64,
) -> Result<Vec<KnobPlan>, SkyError> {
    for (v, (model, r)) in models.iter().zip(rs).enumerate() {
        let r = r.as_ref();
        if r.len() != model.n_categories() {
            return Err(SkyError::ForecastShape {
                stream: v,
                expected: model.n_categories(),
                got: r.len(),
            });
        }
        if r.iter().any(|&rc| !rc.is_finite() || rc < 0.0) {
            return Err(SkyError::InvalidInput {
                what: "forecast entry that is NaN, infinite or negative",
            });
        }
    }
    if budget.is_nan() {
        return Err(SkyError::InvalidInput {
            what: "NaN planning budget",
        });
    }
    let mut blocks = Vec::new();
    for (model, r) in models.iter().zip(rs) {
        for (c, &rc) in r.as_ref().iter().enumerate() {
            let points = (0..model.n_configs())
                .map(|k| (cost(model, k, c), model.categories.avg_quality(k, c)))
                .collect();
            blocks.push(Block { weight: rc, points });
        }
    }
    let plans = match threshold_walk(&blocks, budget) {
        Some(rows) => {
            let mut rows = rows.into_iter();
            models
                .iter()
                .map(|m| KnobPlan::new(rows.by_ref().take(m.n_categories()).collect()))
                .collect()
        }
        // Budget below even the all-cheapest plan: degrade gracefully.
        None => models
            .iter()
            .map(|m| KnobPlan::single_config(m.n_categories(), m.n_configs(), m.cheapest()))
            .collect(),
    };
    Ok(plans)
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
        let plan = plan_knobs(&m, &r, budget).unwrap();
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
        let q_small = plan_knobs(&m, &r, 0.6)
            .unwrap()
            .expected_quality(&r, |k, c| m.categories.avg_quality(k, c));
        let q_large = plan_knobs(&m, &r, 8.0)
            .unwrap()
            .expected_quality(&r, |k, c| m.categories.avg_quality(k, c));
        assert!(q_large > q_small, "quality {q_large} should beat {q_small}");
    }

    #[test]
    fn impossible_budget_degrades_to_cheapest() {
        let m = model();
        let r = vec![1.0 / m.n_categories() as f64; m.n_categories()];
        let plan = plan_knobs(&m, &r, 1e-9).unwrap();
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
        let plan = plan_knobs(&m, &r, 0.5 * (w_min + w_max)).unwrap();
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
    fn wrong_length_forecast_is_typed_not_a_panic() {
        let m = model();
        let n_c = m.n_categories();
        for len in [n_c - 1, n_c + 1] {
            let r = vec![1.0 / len as f64; len];
            match plan_knobs(&m, &r, 2.0) {
                Err(SkyError::ForecastShape {
                    stream: 0,
                    expected,
                    got,
                }) => assert_eq!((expected, got), (n_c, len)),
                other => panic!("length {len}: expected ForecastShape, got {other:?}"),
            }
        }
        let even = vec![1.0 / n_c as f64; n_c];
        for bad in [f64::NAN, f64::INFINITY, -0.25] {
            let mut r = even.clone();
            r[0] = bad;
            assert!(
                matches!(plan_knobs(&m, &r, 2.0), Err(SkyError::InvalidInput { .. })),
                "forecast entry {bad} must be rejected typed"
            );
        }
        assert!(matches!(
            plan_knobs(&m, &even, f64::NAN),
            Err(SkyError::InvalidInput { .. })
        ));
    }
}
