//! # bist-ilp — a pure-Rust 0-1 / mixed integer linear programming solver
//!
//! This crate is the substitute for the commercial CPLEX 6.0 solver used in
//! the DAC'99 paper *"On ILP Formulations for Built-In Self-Testable Data
//! Path Synthesis"* (Kim, Ha, Takahashi). The BIST synthesis formulations in
//! the workspace's `bist-core` crate only need a reliable exact solver for
//! small-to-medium 0-1 programs plus a time-limited best-effort mode for the
//! larger benchmark circuits, and that is exactly what this crate provides:
//!
//! * a [`Model`] builder with binary, general integer and continuous
//!   variables, linear constraints and a linear objective,
//! * a shared [`sparse`] CSR+CSC image of the constraint matrix consumed by
//!   every solver kernel,
//! * a sparse bounded-variable **revised [`simplex`]** solver for the LP
//!   relaxation — variable bounds handled implicitly by nonbasic status
//!   (no bound rows), pricing fed from the CSC columns of the sparse
//!   matrix, a product-form factorized basis with periodic
//!   refactorization, and a bounded **dual simplex** path that re-solves
//!   child-node LPs from the parent's optimal [`Basis`] after bound
//!   changes,
//! * a worklist-driven interval [`propagate`] engine (bound tightening over
//!   linear constraints) used both for presolve and for node pruning,
//! * a [`reduce`] pipeline of model-rewriting presolve passes (fixed-variable
//!   elimination, redundant-row removal, clique merging, coefficient
//!   tightening, singleton substitution) producing a smaller
//!   [`reduce::ReducedModel`] with round-trip solution lifting,
//! * [`cuts`]: Gomory mixed-integer cuts read off the optimal root and
//!   shallow-node bases plus conflict no-goods from refuted subtrees, both
//!   deduplicated through one pool,
//! * a depth-first branch-and-bound [`solver`] with configurable bounding
//!   (LP relaxation, propagation-only, or hybrid), pseudo-cost /
//!   reliability branching with strong-branching initialisation,
//!   warm-started node LPs, reduced-cost bound fixing against the
//!   incumbent, the [`heuristics`] (a greedy dive before the search and LP
//!   rounding at shallow nodes) and wall-clock limits,
//! * a CPLEX-style `.lp` file writer ([`lpfile`]) for debugging and for
//!   feeding the very same model to an external solver if one is available,
//! * a [`session`] layer — [`SolveSession`] with a unified [`Budget`]
//!   (nodes + wall-clock + absolute deadline), a shareable [`CancelToken`]
//!   checked inside the search loop, and a live [`SolveEvent`] stream —
//!   the API the `advbist` job service is built on.
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
pub mod json;
pub mod lpfile;
pub mod model;
pub mod propagate;
pub mod reduce;
pub mod session;
pub mod simplex;
pub mod snapshot;
pub mod solution;
pub mod solver;
pub mod sparse;

pub use cuts::{CutGenerator, CutKind, CutRow};
pub use error::IlpError;
pub use expr::LinExpr;
pub use model::{CmpOp, Constraint, Model, Sense, VarId, VarKind};
pub use reduce::{ReduceOptions, ReduceReport, ReducedModel, VarDisposition};
pub use session::{Budget, BudgetError, CancelToken, SolveEvent, SolveSession};
pub use simplex::{Basis, LpSolution, LpStatus, ReducedCosts};
pub use snapshot::{model_fingerprint, SnapshotError, SolveSnapshot};
pub use solution::{CutCounts, Improvement, Solution, SolveStats, Status};
pub use solver::{BoundMode, SolverConfig};
pub use sparse::{RowRef, SparseModel};

/// Numerical tolerance used throughout the crate when comparing floating
/// point activities, bounds and objective values.
pub const EPS: f64 = 1e-6;

/// Tolerance used when deciding whether a relaxation value is integral.
pub const INT_EPS: f64 = 1e-5;
