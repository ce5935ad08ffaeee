//! Two-phase primal simplex on a dense tableau, with warm-started re-solves.
//!
//! The solver handles `maximize c·x` subject to mixed `≤ / ≥ / =` constraints
//! over non-negative variables. Rows are normalized to non-negative
//! right-hand sides; slack, surplus and artificial variables are appended as
//! needed; phase 1 drives the artificials to zero (detecting infeasibility),
//! phase 2 optimizes the real objective. Bland's rule breaks ties, which
//! guarantees termination in the presence of degeneracy — the planner LPs are
//! degenerate whenever a content category's forecast ratio `r_c` is zero.
//!
//! # Warm starts
//!
//! [`solve_warm`] targets sequences of LPs whose constraint *structure* is
//! fixed while the objective and a few coefficients drift: it remembers the
//! optimal basis of the previous solve in an [`LpBasis`]. A warm solve
//! *verifies* the stored basis against the new problem — primal feasibility,
//! dual feasibility, and strict nondegeneracy margins — with two small `m×m`
//! triangular solves instead of running the simplex. When the verification
//! passes, the basis is provably the unique optimal basis and the solution is
//! read off the basis system directly; otherwise the solver falls back to the
//! exact cold path and stores the new basis.
//!
//! Warm and cold results are **bitwise identical**: both paths extract the
//! final solution through the same canonical basis solve
//! (`B·x_B = b` factored from the original normalized constraint data), so
//! whenever warm verification succeeds — which implies cold simplex would
//! terminate on the very same basis — the extracted bits match exactly.
//! The unit tests and `tests/prop.rs` check this against [`solve`].
//!
//! Measured on the serving path's traffic, a stored basis never
//! re-certifies (consecutive epochs' forecasts move the optimal vertex), so
//! Skyscraper plans every epoch with one cold [`solve`]; only the
//! benchmark's warm-solve probe still calls [`solve_warm`].

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

/// Strict margin for accepting a warm basis. Primal values and reduced costs
/// must clear this (scaled) bound, which certifies the stored basis is the
/// *unique* optimal basis — any degeneracy or alternate optimum forces the
/// exact cold path instead, because there Bland's rule is what picks the
/// winner and only the cold solver runs Bland's rule.
const WARM_MARGIN: f64 = 1e-7;

/// Pivots smaller than this during the basis-system factorization mean the
/// candidate basis is numerically singular.
const SINGULAR: f64 = 1e-12;

/// Dense simplex tableau.
struct Tableau {
    /// `rows × cols` coefficient matrix; the last column is the RHS.
    a: Vec<Vec<f64>>,
    /// Objective row (reduced costs), length `cols` (last entry = objective).
    z: Vec<f64>,
    /// Basis: for each row, the column index of its basic variable.
    basis: Vec<usize>,
    /// Number of structural + slack/surplus columns (artificials live after).
    #[allow(dead_code)]
    n_real: usize,
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
/// column assigned to the row. Shared by the cold tableau build, the
/// canonical extraction, and the warm verification so all three see the
/// exact same normalized data.
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

    /// One byte per row describing its normalization: `rel << 1 | flip`.
    /// Two problems with equal patterns (and equal `n`) have structurally
    /// interchangeable bases.
    fn pattern(&self) -> Vec<u8> {
        self.specs
            .iter()
            .map(|&(flip, rel)| {
                let r = match rel {
                    Relation::Le => 0u8,
                    Relation::Ge => 1,
                    Relation::Eq => 2,
                };
                (r << 1) | u8::from(flip)
            })
            .collect()
    }

    /// Visit the normalized nonzero entries of row `r` as `(col, val)`, in
    /// the same order the dense tableau build accumulates them (structural
    /// terms first, then slack/surplus, then artificial). Duplicate
    /// structural columns are emitted repeatedly, matching the tableau's
    /// `+=` accumulation.
    fn for_each_entry(&self, problem: &LpProblem, r: usize, mut f: impl FnMut(usize, f64)) {
        let (flip, rel) = self.specs[r];
        let sign = if flip { -1.0 } else { 1.0 };
        for (v, coeff) in &problem.constraints[r].terms {
            f(v.0, sign * coeff);
        }
        match rel {
            Relation::Le => f(self.slack_col[r].expect("Le row has slack"), 1.0),
            Relation::Ge => {
                f(self.slack_col[r].expect("Ge row has surplus"), -1.0);
                f(self.art_col[r].expect("Ge row has artificial"), 1.0);
            }
            Relation::Eq => f(self.art_col[r].expect("Eq row has artificial"), 1.0),
        }
    }

    /// Objective coefficient of column `col` (zero for slack/surplus and
    /// artificial columns).
    fn objective_coeff(&self, problem: &LpProblem, col: usize) -> f64 {
        if col < self.n {
            problem.objective[col]
        } else {
            0.0
        }
    }
}

/// LU factorization (Doolittle, partial pivoting) of the `m×m` basis matrix.
/// Row selection is deterministic — strictly larger magnitude wins, first
/// occurrence on ties — so repeated factorizations of the same basis produce
/// identical bits.
struct FactoredBasis {
    m: usize,
    /// Packed L (unit diagonal, below) and U (on/above diagonal).
    lu: Vec<f64>,
    /// Row swapped with `k` at elimination step `k`.
    perm: Vec<usize>,
}

impl FactoredBasis {
    /// Build and factor the basis matrix whose columns are `basis_cols`
    /// (sorted ascending) of the normalized constraint system. Returns
    /// `None` when the matrix is numerically singular.
    fn factor(problem: &LpProblem, norm: &NormRows, basis_cols: &[usize]) -> Option<Self> {
        let m = norm.m();
        debug_assert_eq!(basis_cols.len(), m, "basis must have one column per row");
        let mut lu = vec![0.0; m * m];
        for r in 0..m {
            norm.for_each_entry(problem, r, |col, val| {
                if let Ok(j) = basis_cols.binary_search(&col) {
                    lu[r * m + j] += val;
                }
            });
        }
        let mut perm = Vec::with_capacity(m);
        for k in 0..m {
            let mut p = k;
            let mut best = lu[k * m + k].abs();
            for i in (k + 1)..m {
                let v = lu[i * m + k].abs();
                if v > best {
                    best = v;
                    p = i;
                }
            }
            if best <= SINGULAR {
                return None;
            }
            if p != k {
                for j in 0..m {
                    lu.swap(k * m + j, p * m + j);
                }
            }
            perm.push(p);
            let inv = 1.0 / lu[k * m + k];
            for i in (k + 1)..m {
                let f = lu[i * m + k] * inv;
                lu[i * m + k] = f;
                if f != 0.0 {
                    for j in (k + 1)..m {
                        lu[i * m + j] -= f * lu[k * m + j];
                    }
                }
            }
        }
        Some(Self { m, lu, perm })
    }

    /// Solve `B·x = b` in place.
    fn solve(&self, b: &mut [f64]) {
        let m = self.m;
        for (k, &p) in self.perm.iter().enumerate() {
            b.swap(k, p);
        }
        for i in 1..m {
            let mut s = b[i];
            let row = &self.lu[i * m..i * m + i];
            for (j, &l) in row.iter().enumerate() {
                s -= l * b[j];
            }
            b[i] = s;
        }
        for i in (0..m).rev() {
            let mut s = b[i];
            let row = &self.lu[i * m + i + 1..(i + 1) * m];
            for (k, &u) in row.iter().enumerate() {
                s -= u * b[i + 1 + k];
            }
            b[i] = s / self.lu[i * m + i];
        }
    }

    /// Solve `Bᵀ·x = c` in place (used for the dual vector).
    fn solve_transposed(&self, c: &mut [f64]) {
        let m = self.m;
        // Bᵀ = Uᵀ Lᵀ P: forward with Uᵀ, backward with unit-diagonal Lᵀ,
        // then undo the permutation.
        for i in 0..m {
            let mut s = c[i];
            for (j, &cj) in c.iter().enumerate().take(i) {
                s -= self.lu[j * m + i] * cj;
            }
            c[i] = s / self.lu[i * m + i];
        }
        for i in (0..m).rev() {
            let mut s = c[i];
            for (j, &cj) in c.iter().enumerate().skip(i + 1) {
                s -= self.lu[j * m + i] * cj;
            }
            c[i] = s;
        }
        for (k, &p) in self.perm.iter().enumerate().rev() {
            c.swap(k, p);
        }
    }
}

/// Canonical solution extraction: solve `B·x_B = b` from the original
/// normalized constraint data for the given (sorted) basis and read off the
/// structural values, clamped at zero. Both the cold and the warm path end
/// here, which is what makes warm == cold bitwise whenever they agree on the
/// basis. Returns `None` when the basis matrix is singular (redundant rows
/// can leave a zero-level artificial basic; callers fall back to tableau
/// values).
fn extract_values(problem: &LpProblem, norm: &NormRows, basis_cols: &[usize]) -> Option<Vec<f64>> {
    let factored = FactoredBasis::factor(problem, norm, basis_cols)?;
    let mut x = norm.rhs.clone();
    factored.solve(&mut x);
    let mut values = vec![0.0; norm.n];
    for (j, &col) in basis_cols.iter().enumerate() {
        if col < norm.n {
            values[col] = x[j].max(0.0);
        }
    }
    Some(values)
}

// ---------------------------------------------------------------------------
// Warm-started solving
// ---------------------------------------------------------------------------

/// Reusable solver state: the optimal basis of the previous [`solve_warm`]
/// call plus the shape signature of the problem it solved.
///
/// The basis is invalidated (forcing a cold solve that stores a fresh one)
/// whenever the variable count or the per-row normalization pattern changes,
/// when it contains an artificial column (redundant rows), when the basis
/// matrix turns singular, or when the strict optimality margins fail on the
/// new problem — i.e. on any degeneracy or drift large enough to move the
/// optimal vertex.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LpBasis {
    /// Structural variable count of the problem the basis belongs to.
    n: usize,
    /// Per-row normalization pattern (`rel << 1 | flip`).
    pattern: Vec<u8>,
    /// Sorted basic column indices (structural/slack/artificial space).
    cols: Vec<usize>,
    hits: u64,
    misses: u64,
}

impl LpBasis {
    /// An empty basis; the first [`solve_warm`] call is a cold solve.
    pub fn new() -> Self {
        Self::default()
    }

    /// Warm solves that verified the stored basis and skipped the simplex.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Warm solves that fell back to the exact cold path.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// True before the first successful solve stores a basis.
    pub fn is_empty(&self) -> bool {
        self.cols.is_empty() && self.pattern.is_empty() && self.n == 0
    }
}

/// Verify the stored basis against the new problem. On success the basis is
/// the unique optimal basis and the returned solution equals what the cold
/// solver would extract, bit for bit.
fn warm_attempt(problem: &LpProblem, norm: &NormRows, cols: &[usize]) -> Option<LpSolution> {
    let m = norm.m();
    let n_real = norm.n_real();
    if cols.len() != m || cols.iter().any(|&c| c >= n_real) {
        return None;
    }
    let factored = FactoredBasis::factor(problem, norm, cols)?;

    // Primal: B·x_B = b must be strictly positive (feasible + nondegenerate).
    let mut x = norm.rhs.clone();
    factored.solve(&mut x);
    let b_scale = 1.0 + norm.rhs.iter().fold(0.0f64, |a, &v| a.max(v.abs()));
    if x.iter().any(|&v| v <= WARM_MARGIN * b_scale) {
        return None;
    }

    // Dual: Bᵀ·y = c_B, then every nonbasic reduced cost c_j − yᵀA_j must be
    // strictly negative (optimal + no alternate optimum).
    let mut y: Vec<f64> = cols
        .iter()
        .map(|&c| norm.objective_coeff(problem, c))
        .collect();
    factored.solve_transposed(&mut y);
    let mut yta = vec![0.0; n_real];
    for (r, &yr) in y.iter().enumerate() {
        if yr != 0.0 {
            norm.for_each_entry(problem, r, |col, val| {
                if col < n_real {
                    yta[col] += yr * val;
                }
            });
        }
    }
    for (col, &yta_col) in yta.iter().enumerate() {
        if cols.binary_search(&col).is_ok() {
            continue;
        }
        let c_j = norm.objective_coeff(problem, col);
        let reduced = c_j - yta_col;
        if reduced >= -WARM_MARGIN * (1.0 + c_j.abs() + yta_col.abs()) {
            return None;
        }
    }

    // Certified: read the solution off the already-solved basis system using
    // the canonical extraction rule (clamp at zero, objective recomputed
    // from the structural values) — identical to the cold path's epilogue.
    let mut values = vec![0.0; norm.n];
    for (j, &col) in cols.iter().enumerate() {
        if col < norm.n {
            values[col] = x[j].max(0.0);
        }
    }
    let objective = problem.objective_value(&values);
    Some(LpSolution {
        values,
        objective,
        pivots: 0,
    })
}

/// Solve a linear program, seeding from (and updating) a stored basis.
///
/// Behaviourally identical to [`solve`] — same `Ok` bits, same errors — but
/// when `basis` still verifies as the unique optimal basis of the new
/// problem the simplex is skipped entirely. Pass a fresh [`LpBasis`] for a
/// cold solve that primes the state.
pub fn solve_warm(problem: &LpProblem, basis: &mut LpBasis) -> Result<LpSolution, LpError> {
    let n = problem.num_vars();
    if n == 0 {
        return Ok(LpSolution {
            values: Vec::new(),
            objective: 0.0,
            pivots: 0,
        });
    }
    let norm = NormRows::build(problem);
    let pattern = norm.pattern();
    if basis.n == n && basis.pattern == pattern {
        if let Some(sol) = warm_attempt(problem, &norm, &basis.cols) {
            basis.hits += 1;
            return Ok(sol);
        }
    }
    basis.misses += 1;
    let (sol, cols) = solve_cold(problem, &norm)?;
    basis.n = n;
    basis.pattern = pattern;
    basis.cols = cols;
    Ok(sol)
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
    solve_cold(problem, &norm).map(|(sol, _)| sol)
}

/// The exact two-phase simplex. Returns the solution together with the
/// sorted final basis columns (for storing in an [`LpBasis`]).
fn solve_cold(problem: &LpProblem, norm: &NormRows) -> Result<(LpSolution, Vec<usize>), LpError> {
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
        n_real,
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

    let mut final_basis = tab.basis.clone();
    final_basis.sort_unstable();
    // Canonical extraction from the original constraint data; fall back to
    // tableau values when the basis matrix is singular (redundant rows).
    let values = extract_values(problem, norm, &final_basis).unwrap_or_else(|| {
        let mut values = vec![0.0; n];
        for (r, &b) in tab.basis.iter().enumerate() {
            if b < n {
                values[b] = tab.a[r][rhs_col].max(0.0);
            }
        }
        values
    });
    let objective = problem.objective_value(&values);
    Ok((
        LpSolution {
            values,
            objective,
            pivots: tab.pivots,
        },
        final_basis,
    ))
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

    // --- warm-start tests -------------------------------------------------

    /// A planner-shaped LP whose coefficients drift with `t`.
    fn drifting_planner_lp(t: f64) -> LpProblem {
        let r = [0.6 + 0.02 * t, 0.4 - 0.02 * t];
        let qual = [[0.5, 0.8, 1.0], [0.2, 0.6 + 0.01 * t, 0.95]];
        let cost = [1.0, 2.0, 4.0];
        let budget = 2.3 + 0.05 * t;
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
        p
    }

    #[test]
    fn warm_solve_matches_cold_bitwise_on_drifting_sequence() {
        let mut basis = LpBasis::new();
        for i in 0..20 {
            let p = drifting_planner_lp(i as f64 * 0.1);
            let warm = solve_warm(&p, &mut basis).unwrap();
            let cold = solve(&p).unwrap();
            assert_eq!(warm.values.len(), cold.values.len());
            for (w, c) in warm.values.iter().zip(&cold.values) {
                assert_eq!(w.to_bits(), c.to_bits(), "value bits diverged");
            }
            assert_eq!(warm.objective.to_bits(), cold.objective.to_bits());
        }
        assert!(
            basis.hits() > 0,
            "slow drift should re-certify the stored basis ({} misses)",
            basis.misses()
        );
    }

    #[test]
    fn warm_hit_skips_the_simplex() {
        let p = drifting_planner_lp(0.0);
        let mut basis = LpBasis::new();
        let first = solve_warm(&p, &mut basis).unwrap();
        assert!(first.pivots > 0, "cold prime runs the simplex");
        assert_eq!(basis.misses(), 1);
        let second = solve_warm(&p, &mut basis).unwrap();
        assert_eq!(second.pivots, 0, "warm hit must not pivot");
        assert_eq!(basis.hits(), 1);
        for (a, b) in first.values.iter().zip(&second.values) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn shape_change_invalidates_the_basis() {
        let mut basis = LpBasis::new();
        let p = drifting_planner_lp(0.0);
        solve_warm(&p, &mut basis).unwrap();
        // Different variable count: must cold-solve, not mis-apply the basis.
        let mut q = LpProblem::new();
        let x = q.add_var("x", 3.0);
        q.add_constraint(vec![(x, 1.0)], Relation::Le, 4.0);
        let s = solve_warm(&q, &mut basis).unwrap();
        assert_close(s.value(x), 4.0);
        assert_eq!(basis.misses(), 2);
        assert_eq!(basis.hits(), 0);
    }

    #[test]
    fn degenerate_problems_fall_back_to_cold() {
        // Alternate optima (two equally-priced configs): the strict margin
        // must reject the warm basis every time rather than risk picking a
        // different vertex than Bland's rule would.
        let mut p = LpProblem::new();
        let a = p.add_var("a", 1.0);
        let b = p.add_var("b", 1.0);
        p.add_constraint(vec![(a, 1.0), (b, 1.0)], Relation::Eq, 1.0);
        let mut basis = LpBasis::new();
        let s1 = solve_warm(&p, &mut basis).unwrap();
        let s2 = solve_warm(&p, &mut basis).unwrap();
        assert_eq!(basis.hits(), 0, "degenerate optimum must never warm-hit");
        for (x, y) in s1.values.iter().zip(&s2.values) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn warm_errors_match_cold_errors() {
        let mut basis = LpBasis::new();
        let mut p = LpProblem::new();
        let x = p.add_var("x", 1.0);
        p.add_constraint(vec![(x, 1.0)], Relation::Le, 1.0);
        p.add_constraint(vec![(x, 1.0)], Relation::Ge, 2.0);
        assert_eq!(solve_warm(&p, &mut basis).unwrap_err(), LpError::Infeasible);

        let mut q = LpProblem::new();
        let x = q.add_var("x", 1.0);
        let y = q.add_var("y", 0.0);
        q.add_constraint(vec![(x, 1.0), (y, -1.0)], Relation::Le, 1.0);
        assert_eq!(solve_warm(&q, &mut basis).unwrap_err(), LpError::Unbounded);
    }

    #[test]
    fn empty_basis_reports_empty() {
        assert!(LpBasis::new().is_empty());
        let mut basis = LpBasis::new();
        solve_warm(&drifting_planner_lp(0.0), &mut basis).unwrap();
        assert!(!basis.is_empty());
    }
}
