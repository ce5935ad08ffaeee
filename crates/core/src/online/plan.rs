//! The knob plan (§4.1).
//!
//! A plan assigns, to every content category `c`, a histogram `α_c` over
//! knob configurations: how often each configuration should process content
//! of that category over the planned interval. Plans are produced by the
//! [`crate::online::planner::plan_knobs`] LP and consumed by the
//! [`crate::online::switcher::KnobSwitcher`].

/// A knob plan `P = {α_c | c ∈ C}`.
#[derive(Debug, Clone, PartialEq)]
pub struct KnobPlan {
    /// `alpha[c][k]` — frequency with which configuration `k` should process
    /// content of category `c`. Each row sums to 1 (Eq. 4).
    alpha: Vec<Vec<f64>>,
}

impl KnobPlan {
    /// Build from raw histograms, normalizing each row defensively.
    pub fn new(mut alpha: Vec<Vec<f64>>) -> Self {
        assert!(!alpha.is_empty(), "plan needs at least one category");
        let k = alpha[0].len();
        assert!(k > 0, "plan needs at least one configuration");
        for row in &mut alpha {
            assert_eq!(row.len(), k, "ragged plan rows");
            assert!(row.iter().all(|&v| v >= -1e-9), "negative plan frequency");
            let s: f64 = row.iter().sum();
            if s > 1e-12 {
                row.iter_mut().for_each(|v| *v = (*v / s).max(0.0));
            } else {
                // Degenerate row (category never forecast): uniform.
                row.iter_mut().for_each(|v| *v = 1.0 / k as f64);
            }
        }
        Self { alpha }
    }

    /// Rebuild from rows that are already normalized — the knowledge-base
    /// decoder's constructor. Skips the defensive renormalization of
    /// [`new`](Self::new) so persisted plans reload bitwise identically.
    pub(crate) fn from_normalized(alpha: Vec<Vec<f64>>) -> Self {
        Self { alpha }
    }

    /// A plan that always uses configuration `k` for every category — the
    /// static baseline's plan, and the bootstrap before the first LP solve.
    pub fn single_config(n_categories: usize, n_configs: usize, k: usize) -> Self {
        assert!(k < n_configs, "configuration out of range");
        let mut row = vec![0.0; n_configs];
        row[k] = 1.0;
        Self {
            alpha: vec![row; n_categories],
        }
    }

    /// Number of categories.
    pub fn n_categories(&self) -> usize {
        self.alpha.len()
    }

    /// Number of configurations.
    pub fn n_configs(&self) -> usize {
        self.alpha[0].len()
    }

    /// The histogram `α_c` for a category.
    pub fn histogram(&self, category: usize) -> &[f64] {
        &self.alpha[category]
    }

    /// Planned frequency `α_{k,c}`.
    pub fn frequency(&self, category: usize, config: usize) -> f64 {
        self.alpha[category][config]
    }

    /// Expected quality of the plan under forecast `r` and per-(k,c) quality
    /// `qual(k, c)` (Eq. 2's objective).
    pub fn expected_quality(&self, r: &[f64], qual: impl Fn(usize, usize) -> f64) -> f64 {
        let mut total = 0.0;
        for (c, row) in self.alpha.iter().enumerate() {
            for (k, &a) in row.iter().enumerate() {
                total += a * r[c] * qual(k, c);
            }
        }
        total
    }

    /// Expected cost of the plan under forecast `r` and per-config cost
    /// (Eq. 3's left-hand side).
    pub fn expected_cost(&self, r: &[f64], cost: impl Fn(usize) -> f64) -> f64 {
        let mut total = 0.0;
        for (c, row) in self.alpha.iter().enumerate() {
            for (k, &a) in row.iter().enumerate() {
                total += a * r[c] * cost(k);
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_are_normalized() {
        let plan = KnobPlan::new(vec![vec![2.0, 2.0], vec![0.0, 5.0]]);
        assert!((plan.histogram(0).iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert_eq!(plan.frequency(0, 0), 0.5);
        assert_eq!(plan.frequency(1, 1), 1.0);
    }

    #[test]
    fn zero_rows_become_uniform() {
        let plan = KnobPlan::new(vec![vec![0.0, 0.0, 0.0]]);
        for k in 0..3 {
            assert!((plan.frequency(0, k) - 1.0 / 3.0).abs() < 1e-12);
        }
    }

    #[test]
    fn single_config_plan() {
        let plan = KnobPlan::single_config(3, 4, 2);
        for c in 0..3 {
            assert_eq!(plan.frequency(c, 2), 1.0);
            assert_eq!(plan.frequency(c, 0), 0.0);
        }
    }

    #[test]
    fn expected_quality_and_cost() {
        let plan = KnobPlan::new(vec![vec![1.0, 0.0], vec![0.0, 1.0]]);
        let r = [0.7, 0.3];
        let q = plan.expected_quality(&r, |k, _c| if k == 0 { 0.5 } else { 1.0 });
        assert!((q - (0.7 * 0.5 + 0.3 * 1.0)).abs() < 1e-12);
        let cost = plan.expected_cost(&r, |k| if k == 0 { 1.0 } else { 4.0 });
        assert!((cost - (0.7 + 1.2)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_rejected() {
        let _ = KnobPlan::new(vec![vec![1.0], vec![0.5, 0.5]]);
    }
}
