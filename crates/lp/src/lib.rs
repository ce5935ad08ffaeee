//! # vetl-lp — the knob planner's solver
//!
//! Skyscraper's knob planner assigns knob configurations to content
//! categories with a linear program (§4.1, Eqs. 2–4; Eqs. 7–9 across
//! streams, App. D), solved with SciPy `linprog` in the original artifact.
//! That LP has one budget row plus one normalization row per (stream,
//! category): the LP relaxation of a multiple-choice knapsack.
//!
//! * [`mckp`] — solves it exactly by a threshold walk over the blocks'
//!   concave frontiers ([`threshold_walk`]); [`concave_frontier`] also
//!   backs the Optimum oracle's integral greedy.
//! * [`LpProblem`] / [`solve`] — a dense two-phase primal simplex over
//!   `≤`, `≥` and `=` constraints, kept as the walk's test oracle.

pub mod mckp;
pub mod problem;
pub mod simplex;

pub use mckp::{concave_frontier, threshold_walk, Block};
pub use problem::{Constraint, LpProblem, LpSolution, Relation, VarId};
pub use simplex::{solve, LpBasis, LpError};
