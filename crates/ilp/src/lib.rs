//! # bist-ilp — a pure-Rust 0-1 integer linear programming solver
//!
//! This crate is the substitute for the commercial CPLEX 6.0 solver used in
//! the DAC'99 paper *"On ILP Formulations for Built-In Self-Testable Data
//! Path Synthesis"* (Kim, Ha, Takahashi). The BIST synthesis formulations in
//! the workspace's `bist-core` crate only need a reliable exact solver for
//! small-to-medium 0-1 programs plus a time-limited best-effort mode for the
//! larger benchmark circuits, and that is exactly what this crate provides:
//!
//! * a [`Model`] builder with binary variables, linear constraints and a
//!   linear objective,
//! * a shared [`sparse`] CSR+CSC image of the constraint matrix consumed by
//!   every solver kernel,
//! * a sparse bounded-variable **revised [`simplex`]** solver for the LP
//!   relaxation — variable bounds handled implicitly by nonbasic status
//!   (no bound rows), pricing fed from the CSC columns of the sparse
//!   matrix, a product-form factorized basis with periodic
//!   refactorization, and a bounded **dual simplex** path that re-solves
//!   child-node LPs from the parent's compact optimal [`Basis`] after bound
//!   changes and appended cut rows,
//! * a worklist-driven interval [`propagate`] engine (bound tightening over
//!   linear constraints) used both for presolve and for node pruning,
//! * a [`reduce`] pipeline of model-rewriting presolve passes (fixed-variable
//!   elimination, redundant-row removal, dominated packing rows, coefficient
//!   tightening, implication disaggregation) producing a smaller
//!   [`reduce::ReducedModel`] with round-trip solution lifting,
//! * [`cuts`]: Gomory mixed-integer cuts read off the optimal root and
//!   shallow-node bases, deduplicated through one pool,
//! * a depth-first branch-and-bound [`solver`] with configurable bounding
//!   (LP relaxation everywhere, or down to a depth and propagation bounds
//!   below it), pseudo-cost /
//!   reliability branching with strong-branching initialisation,
//!   warm-started node LPs, reduced-cost bound fixing against the
//!   incumbent, the [`heuristics`] (a greedy dive before the search and LP
//!   rounding at shallow nodes) and wall-clock limits,
//! * a CPLEX-style `.lp` file writer ([`lpfile`]) for debugging and for
//!   feeding the very same model to an external solver if one is available,
//! * one solve configuration, [`SolverConfig`], carrying a unified
//!   [`Budget`] (nodes + wall-clock + absolute deadline) and a shareable
//!   [`CancelToken`] checked inside the search loop (see [`session`]), and
//!   one solve path — [`Model::solve`], or [`Model::solve_observed`] for a
//!   live [`SolveEvent`] stream — that always reduces the model before the
//!   branch and bound; `bist-core`'s `SynthesisEngine`, which the `advbist`
//!   job service runs, solves through the same path,
//! * [`snapshot`]s: an early-stopped search captured as an in-memory
//!   [`SolveSnapshot`] (switched on by [`Budget::snapshot`]), shared as
//!   `Arc<SolveSnapshot>` within the process and resumed through
//!   [`SolverConfig::resume`] to finish the very same tree.
//!
//! # Quick example
//!
//! ```
//! use bist_ilp::{Model, Sense, SolverConfig};
//!
//! # fn main() -> Result<(), bist_ilp::IlpError> {
//! // maximize x + 2y  s.t.  x + y <= 1,  x,y binary
//! let mut model = Model::new("tiny");
//! let x = model.add_binary("x");
//! let y = model.add_binary("y");
//! model.add_leq([(x, 1.0), (y, 1.0)], 1.0, "cap");
//! model.set_objective([(x, 1.0), (y, 2.0)], Sense::Maximize);
//! let solution = model.solve(&SolverConfig::default())?;
//! assert!(solution.is_optimal());
//! assert_eq!(solution.value(y).round() as i64, 1);
//! # Ok(())
//! # }
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cuts;
pub mod error;
pub mod expr;
pub mod heuristics;
pub mod lpfile;
pub mod model;
pub mod parallel;
pub mod propagate;
pub mod reduce;
pub mod session;
pub mod simplex;
pub mod snapshot;
pub mod solution;
pub mod solver;
pub mod sparse;
mod speculate;

pub use cuts::{CutGenerator, CutRow};
pub use error::IlpError;
pub use expr::LinExpr;
pub use model::{CmpOp, Constraint, Model, Sense, VarId};
pub use parallel::par_map_ordered;
pub use reduce::{ReduceOptions, ReduceReport, ReducedModel, VarDisposition};
pub use session::{Budget, CancelToken, SolveEvent};
pub use simplex::{Basis, LpSolution, LpStatus, ReducedCosts};
pub use snapshot::{model_fingerprint, SolveSnapshot};
pub use solution::{ColdLpCounts, CutCounts, Improvement, Solution, SolveStats, Status};
pub use solver::{BoundMode, SolverConfig};
pub use sparse::{RowRef, SparseModel};

/// Numerical tolerance used throughout the crate when comparing floating
/// point activities, bounds and objective values.
pub const EPS: f64 = 1e-6;

/// Tolerance used when deciding whether a relaxation value is integral.
pub const INT_EPS: f64 = 1e-5;
