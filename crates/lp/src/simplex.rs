//! Two-phase primal simplex on a dense tableau.
//!
//! The solver handles `maximize c·x` subject to mixed `≤ / ≥ / =` constraints
//! over non-negative variables. Rows are normalized to non-negative
//! right-hand sides; slack, surplus and artificial variables are appended as
//! needed; phase 1 drives the artificials to zero (detecting infeasibility),
//! phase 2 optimizes the real objective. Bland's rule breaks ties, which
//! guarantees termination in the presence of degeneracy — the planner LPs are
//! degenerate whenever a content category's forecast ratio `r_c` is zero.
//!
//! No planner calls it: the planner LP is solved by [`crate::mckp`]'s
//! threshold walk, and this general solver is the walk's test oracle.

use crate::problem::{LpProblem, LpSolution, Relation};

/// Failure modes of [`solve`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LpError {
    /// No point satisfies all constraints.
    Infeasible,
    /// The objective can be increased without bound.
    Unbounded,
    /// Pivot limit exceeded (numerical trouble; should not happen with
    /// Bland's rule on well-scaled planner inputs).
    IterationLimit,
}

impl std::fmt::Display for LpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LpError::Infeasible => write!(f, "linear program is infeasible"),
            LpError::Unbounded => write!(f, "linear program is unbounded"),
            LpError::IterationLimit => write!(f, "simplex iteration limit exceeded"),
        }
    }
}

impl std::error::Error for LpError {}

const EPS: f64 = 1e-9;

/// Dense simplex tableau.
struct Tableau {
    /// `rows × cols` coefficient matrix; the last column is the RHS.
    a: Vec<Vec<f64>>,
    /// Objective row (reduced costs), length `cols` (last entry = objective).
    z: Vec<f64>,
    /// Basis: for each row, the column index of its basic variable.
    basis: Vec<usize>,
    pivots: usize,
}

impl Tableau {
    fn pivot(&mut self, row: usize, col: usize) {
        self.pivots += 1;
        let piv = self.a[row][col];
        debug_assert!(piv.abs() > EPS, "pivot on (near-)zero element");
        let inv = 1.0 / piv;
        for v in self.a[row].iter_mut() {
            *v *= inv;
        }
        // Split borrows: the pivot row is borrowed immutably while every
        // other row is eliminated in place — no per-pivot clone.
        let (before, rest) = self.a.split_at_mut(row);
        let (pivot_row, after) = rest.split_first_mut().expect("pivot row in range");
        for arow in before.iter_mut().chain(after.iter_mut()) {
            let factor = arow[col];
            if factor.abs() > EPS {
                for (v, &p) in arow.iter_mut().zip(pivot_row.iter()) {
                    *v -= factor * p;
                }
            }
        }
        let zfactor = self.z[col];
        if zfactor.abs() > EPS {
            for (v, &p) in self.z.iter_mut().zip(pivot_row.iter()) {
                *v -= zfactor * p;
            }
        }
        self.basis[row] = col;
    }

    /// Run simplex iterations until optimal / unbounded / iteration limit.
    /// `allowed_cols` restricts entering variables (phase 2 excludes
    /// artificial columns).
    fn optimize(&mut self, allowed_cols: usize, max_pivots: usize) -> Result<(), LpError> {
        loop {
            if self.pivots > max_pivots {
                return Err(LpError::IterationLimit);
            }
            // Bland's rule: smallest-index column with positive reduced cost
            // (we maximize, tableau stores z-row as c reduced costs negated —
            // here z holds the *negated* objective, so we enter on z < -EPS).
            let mut entering = None;
            for c in 0..allowed_cols {
                if self.z[c] < -EPS {
                    entering = Some(c);
                    break;
                }
            }
            let Some(col) = entering else { return Ok(()) };

            // Ratio test with Bland's tie-break on the smallest basis index.
            let rhs_col = self.a[0].len() - 1;
            let mut leaving: Option<(usize, f64)> = None;
            for (r, arow) in self.a.iter().enumerate() {
                let coeff = arow[col];
                if coeff > EPS {
                    let ratio = arow[rhs_col] / coeff;
                    match leaving {
                        None => leaving = Some((r, ratio)),
                        Some((br, bratio)) => {
                            if ratio < bratio - EPS
                                || ((ratio - bratio).abs() <= EPS && self.basis[r] < self.basis[br])
                            {
                                leaving = Some((r, ratio));
                            }
                        }
                    }
                }
            }
            let Some((row, _)) = leaving else {
                return Err(LpError::Unbounded);
            };
            self.pivot(row, col);
        }
    }
}

/// Per-row normalization of the constraint system: non-negative RHS, the
/// relation after a possible sign flip, and the slack/surplus/artificial
/// column assigned to the row.
struct NormRows {
    n: usize,
    n_slack: usize,
    n_artificial: usize,
    /// `(flip, normalized relation)` per row.
    specs: Vec<(bool, Relation)>,
    /// Slack/surplus column per row (`Le`/`Ge` rows only).
    slack_col: Vec<Option<usize>>,
    /// Artificial column per row (`Ge`/`Eq` rows only).
    art_col: Vec<Option<usize>>,
    /// Normalized right-hand side per row.
    rhs: Vec<f64>,
}

impl NormRows {
    fn build(problem: &LpProblem) -> Self {
        let n = problem.num_vars();
        let m = problem.num_constraints();
        let mut specs = Vec::with_capacity(m);
        let mut n_slack = 0;
        let mut n_artificial = 0;
        for c in &problem.constraints {
            let flip = c.rhs < 0.0;
            let rel = match (c.relation, flip) {
                (Relation::Le, false) | (Relation::Ge, true) => Relation::Le,
                (Relation::Ge, false) | (Relation::Le, true) => Relation::Ge,
                (Relation::Eq, _) => Relation::Eq,
            };
            match rel {
                Relation::Le => n_slack += 1,
                Relation::Ge => {
                    n_slack += 1;
                    n_artificial += 1;
                }
                Relation::Eq => n_artificial += 1,
            }
            specs.push((flip, rel));
        }
        let mut slack_col = Vec::with_capacity(m);
        let mut art_col = Vec::with_capacity(m);
        let mut rhs = Vec::with_capacity(m);
        let mut slack_cursor = n;
        let mut art_cursor = n + n_slack;
        for (r, c) in problem.constraints.iter().enumerate() {
            let (flip, rel) = specs[r];
            rhs.push(if flip { -c.rhs } else { c.rhs });
            match rel {
                Relation::Le => {
                    slack_col.push(Some(slack_cursor));
                    art_col.push(None);
                    slack_cursor += 1;
                }
                Relation::Ge => {
                    slack_col.push(Some(slack_cursor));
                    slack_cursor += 1;
                    art_col.push(Some(art_cursor));
                    art_cursor += 1;
                }
                Relation::Eq => {
                    slack_col.push(None);
                    art_col.push(Some(art_cursor));
                    art_cursor += 1;
                }
            }
        }
        Self {
            n,
            n_slack,
            n_artificial,
            specs,
            slack_col,
            art_col,
            rhs,
        }
    }

    fn m(&self) -> usize {
        self.specs.len()
    }

    /// Structural + slack/surplus columns; artificial columns live after.
    fn n_real(&self) -> usize {
        self.n + self.n_slack
    }
}

/// Solve a linear program with the two-phase primal simplex method.
///
/// Returns the optimal solution or an [`LpError`]. A problem with zero
/// variables trivially solves to the empty assignment.
pub fn solve(problem: &LpProblem) -> Result<LpSolution, LpError> {
    if problem.num_vars() == 0 {
        return Ok(LpSolution {
            values: Vec::new(),
            objective: 0.0,
            pivots: 0,
        });
    }
    let norm = NormRows::build(problem);
    let n = norm.n;
    let m = norm.m();
    let n_real = norm.n_real();
    let cols = n_real + norm.n_artificial + 1; // +1 for RHS
    let rhs_col = cols - 1;

    let mut a = vec![vec![0.0; cols]; m];
    let mut basis = vec![usize::MAX; m];
    let mut artificial_rows = Vec::new();

    for (r, arow) in a.iter_mut().enumerate() {
        let (flip, rel) = norm.specs[r];
        let sign = if flip { -1.0 } else { 1.0 };
        for (v, coeff) in &problem.constraints[r].terms {
            arow[v.0] += sign * coeff;
        }
        arow[rhs_col] = norm.rhs[r];
        match rel {
            Relation::Le => {
                let s = norm.slack_col[r].expect("Le row has slack");
                arow[s] = 1.0;
                basis[r] = s;
            }
            Relation::Ge => {
                let s = norm.slack_col[r].expect("Ge row has surplus");
                arow[s] = -1.0;
                let art = norm.art_col[r].expect("Ge row has artificial");
                arow[art] = 1.0;
                basis[r] = art;
                artificial_rows.push(r);
            }
            Relation::Eq => {
                let art = norm.art_col[r].expect("Eq row has artificial");
                arow[art] = 1.0;
                basis[r] = art;
                artificial_rows.push(r);
            }
        }
    }

    let max_pivots = 2000 + 200 * (n + m);
    let mut tab = Tableau {
        a,
        z: vec![0.0; cols],
        basis,
        pivots: 0,
    };

    // Phase 1: minimize the sum of artificials ⇔ maximize -(sum). The z-row
    // stores negated reduced costs: start with +1 on artificial columns and
    // eliminate basic artificial columns from the row.
    if norm.n_artificial > 0 {
        for c in n_real..(cols - 1) {
            tab.z[c] = 1.0;
        }
        for &r in &artificial_rows {
            for c in 0..cols {
                tab.z[c] -= tab.a[r][c];
            }
        }
        tab.optimize(cols - 1, max_pivots)?;
        let phase1 = -tab.z[rhs_col];
        if phase1 > 1e-6 {
            return Err(LpError::Infeasible);
        }
        // Drive remaining basic artificials out of the basis where possible.
        for r in 0..m {
            if tab.basis[r] >= n_real {
                if let Some(col) = (0..n_real).find(|&c| tab.a[r][c].abs() > EPS) {
                    tab.pivot(r, col);
                }
                // A row with no real coefficients is redundant; its basic
                // artificial stays at value ~0 which is harmless.
            }
        }
    }

    // Phase 2: restore the real objective. z-row = -c (for maximization),
    // then eliminate basic columns.
    for v in tab.z.iter_mut() {
        *v = 0.0;
    }
    for (c, &coeff) in problem.objective.iter().enumerate() {
        tab.z[c] = -coeff;
    }
    // Zero out artificial columns so they never re-enter.
    for r in 0..m {
        for c in n_real..(cols - 1) {
            if tab.basis[r] != c {
                tab.a[r][c] = 0.0;
            }
        }
    }
    {
        // Disjoint field borrows: z is edited against immutably borrowed
        // tableau rows — no per-row clone.
        let Tableau { a, z, basis, .. } = &mut tab;
        for (r, arow) in a.iter().enumerate() {
            let b = basis[r];
            if b < cols - 1 {
                let factor = z[b];
                if factor.abs() > EPS {
                    for (v, &p) in z.iter_mut().zip(arow.iter()) {
                        *v -= factor * p;
                    }
                }
            }
        }
    }
    tab.optimize(n_real, max_pivots)?;

    let mut values = vec![0.0; n];
    for (r, &b) in tab.basis.iter().enumerate() {
        if b < n {
            values[b] = tab.a[r][rhs_col].max(0.0);
        }
    }
    let objective = problem.objective_value(&values);
    Ok(LpSolution {
        values,
        objective,
        pivots: tab.pivots,
    })
}

/// An empty solver basis: plans are a pure function of their inputs and
/// carry no solver state. Kept because the benchmark's planner probe threads
/// one through `joint_plan_warm`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LpBasis;

impl LpBasis {
    /// The (empty) basis.
    pub fn new() -> Self {
        Self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{LpProblem, Relation};

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} != {b}");
    }

    #[test]
    fn textbook_two_variable_max() {
        // maximize 3x + 5y s.t. x ≤ 4, 2y ≤ 12, 3x + 2y ≤ 18 → (2, 6), z=36.
        let mut p = LpProblem::new();
        let x = p.add_var("x", 3.0);
        let y = p.add_var("y", 5.0);
        p.add_constraint(vec![(x, 1.0)], Relation::Le, 4.0);
        p.add_constraint(vec![(y, 2.0)], Relation::Le, 12.0);
        p.add_constraint(vec![(x, 3.0), (y, 2.0)], Relation::Le, 18.0);
        let s = solve(&p).unwrap();
        assert_close(s.objective, 36.0);
        assert_close(s.value(x), 2.0);
        assert_close(s.value(y), 6.0);
    }

    #[test]
    fn equality_constraints() {
        // maximize x + y s.t. x + y = 5, x ≤ 3 → objective 5.
        let mut p = LpProblem::new();
        let x = p.add_var("x", 1.0);
        let y = p.add_var("y", 1.0);
        p.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Eq, 5.0);
        p.add_constraint(vec![(x, 1.0)], Relation::Le, 3.0);
        let s = solve(&p).unwrap();
        assert_close(s.objective, 5.0);
        assert_close(s.value(x) + s.value(y), 5.0);
    }

    #[test]
    fn ge_constraints_need_phase_one() {
        // maximize -x (i.e. minimize x) s.t. x ≥ 7 → x = 7.
        let mut p = LpProblem::new();
        let x = p.add_var("x", -1.0);
        p.add_constraint(vec![(x, 1.0)], Relation::Ge, 7.0);
        let s = solve(&p).unwrap();
        assert_close(s.value(x), 7.0);
        assert_close(s.objective, -7.0);
    }

    #[test]
    fn detects_infeasibility() {
        let mut p = LpProblem::new();
        let x = p.add_var("x", 1.0);
        p.add_constraint(vec![(x, 1.0)], Relation::Le, 1.0);
        p.add_constraint(vec![(x, 1.0)], Relation::Ge, 2.0);
        assert_eq!(solve(&p).unwrap_err(), LpError::Infeasible);
    }

    #[test]
    fn detects_unboundedness() {
        let mut p = LpProblem::new();
        let x = p.add_var("x", 1.0);
        let y = p.add_var("y", 0.0);
        p.add_constraint(vec![(x, 1.0), (y, -1.0)], Relation::Le, 1.0);
        assert_eq!(solve(&p).unwrap_err(), LpError::Unbounded);
    }

    #[test]
    fn negative_rhs_rows_are_normalized() {
        // x - y ≤ -2 with x,y ≥ 0 ⇔ y ≥ x + 2; maximize -y → y = 2, x = 0.
        let mut p = LpProblem::new();
        let x = p.add_var("x", 0.0);
        let y = p.add_var("y", -1.0);
        p.add_constraint(vec![(x, 1.0), (y, -1.0)], Relation::Le, -2.0);
        let s = solve(&p).unwrap();
        assert_close(s.value(y), 2.0);
    }

    #[test]
    fn knob_planner_shape_lp() {
        // A miniature of the paper's planner LP: 2 categories × 3 configs.
        // maximize Σ α_{k,c} r_c q(k,c)
        // s.t. Σ α_{k,c} r_c cost(k) ≤ budget; Σ_k α_{k,c} = 1 ∀c; α ≥ 0.
        let r = [0.6, 0.4];
        let qual = [[0.5, 0.8, 1.0], [0.2, 0.6, 0.95]]; // [c][k]
        let cost = [1.0, 2.0, 4.0];
        let budget = 2.0;

        let mut p = LpProblem::new();
        let mut vars = [[None; 3]; 2];
        for c in 0..2 {
            for k in 0..3 {
                vars[c][k] = Some(p.add_var(format!("a_{k}_{c}"), r[c] * qual[c][k]));
            }
        }
        let budget_terms: Vec<_> = (0..2)
            .flat_map(|c| (0..3).map(move |k| (c, k)))
            .map(|(c, k)| (vars[c][k].unwrap(), r[c] * cost[k]))
            .collect();
        p.add_constraint(budget_terms, Relation::Le, budget);
        for row in vars.iter().take(2) {
            let terms: Vec<_> = row.iter().map(|v| (v.unwrap(), 1.0)).collect();
            p.add_constraint(terms, Relation::Eq, 1.0);
        }
        let s = solve(&p).unwrap();
        // Histograms normalize.
        for row in vars.iter().take(2) {
            let total: f64 = row.iter().map(|v| s.value(v.unwrap())).sum();
            assert_close(total, 1.0);
        }
        // Budget holds.
        let spent: f64 = (0..2)
            .flat_map(|c| (0..3).map(move |k| (c, k)))
            .map(|(c, k)| r[c] * cost[k] * s.value(vars[c][k].unwrap()))
            .sum();
        assert!(spent <= budget + 1e-6);
        // The optimum must beat the trivial all-cheap plan.
        let all_cheap: f64 = r[0] * qual[0][0] + r[1] * qual[1][0];
        assert!(s.objective > all_cheap);
    }

    #[test]
    fn degenerate_zero_ratio_category() {
        // A category with r_c = 0 contributes nothing but still needs its
        // normalization row satisfied — a degenerate LP that must not cycle.
        let mut p = LpProblem::new();
        let a = p.add_var("a", 0.0);
        let b = p.add_var("b", 0.0);
        p.add_constraint(vec![(a, 1.0), (b, 1.0)], Relation::Eq, 1.0);
        p.add_constraint(vec![(a, 0.0), (b, 0.0)], Relation::Le, 5.0);
        let s = solve(&p).unwrap();
        assert_close(s.value(a) + s.value(b), 1.0);
    }

    #[test]
    fn empty_problem_is_trivially_solved() {
        let p = LpProblem::new();
        let s = solve(&p).unwrap();
        assert_eq!(s.objective, 0.0);
        assert!(s.values.is_empty());
    }

    #[test]
    fn redundant_equality_rows() {
        // x + y = 2 stated twice; maximize x s.t. x ≤ 1.5.
        let mut p = LpProblem::new();
        let x = p.add_var("x", 1.0);
        let y = p.add_var("y", 0.0);
        p.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Eq, 2.0);
        p.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Eq, 2.0);
        p.add_constraint(vec![(x, 1.0)], Relation::Le, 1.5);
        let s = solve(&p).unwrap();
        assert_close(s.value(x), 1.5);
        assert_close(s.value(y), 0.5);
    }
}
