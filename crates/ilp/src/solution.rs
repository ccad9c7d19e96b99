//! Solve results: status, variable values and statistics.

use crate::cuts::CutRow;
use crate::model::VarId;
use crate::snapshot::SolveSnapshot;
use std::sync::Arc;
use std::time::Duration;

/// Outcome of a solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// The reported solution is proven optimal.
    Optimal,
    /// A feasible solution was found but optimality was not proven within
    /// the configured limits.
    Feasible,
    /// The model was proven to have no feasible solution.
    Infeasible,
    /// The limits expired before any feasible solution was found; nothing is
    /// known about feasibility.
    Unknown,
    /// The solve was cancelled through a [`crate::CancelToken`] before it
    /// finished. The solution carries the best incumbent found up to that
    /// point, if any (check [`Solution::is_feasible`]).
    Interrupted,
}

impl Status {
    /// Whether the status *proves* a usable (feasible) assignment. An
    /// interrupted solve may still carry one — [`Solution::is_feasible`]
    /// accounts for that.
    pub fn has_solution(self) -> bool {
        matches!(self, Status::Optimal | Status::Feasible)
    }
}

/// One incumbent improvement during the search: when it happened and what
/// objective it reached. The sequence is strictly improving, so the first
/// entry at or below a target objective tells the *time-to-target* of the
/// solve — the metric the k-sweep benchmark uses to compare warm-start
/// chaining against cold starts.
#[derive(Debug, Clone, PartialEq)]
pub struct Improvement {
    /// Nodes explored when the incumbent improved (0 = before the search,
    /// i.e. a warm-start candidate or the dive heuristic).
    pub nodes: u64,
    /// Seconds since the solve started.
    pub seconds: f64,
    /// The new incumbent objective, in the model's external sense.
    pub objective: f64,
    /// Which layer produced the incumbent: `"warm-start"`, `"dive"`,
    /// `"root-lp"`, `"node-lp"`, `"rounding"` or `"presolve"` (the reducing
    /// presolve decided every variable).
    pub source: &'static str,
}

/// Cuts counted per family — the observability half of the cut pool: how
/// many were emitted during a solve and how many sit in the active row set
/// at the end. The solver emits only Gomory cuts, so the other four
/// counters are always zero; they stay so that every report keeps its
/// per-family fields.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CutCounts {
    /// Knapsack cover cuts.
    pub cover: u64,
    /// Clique cuts from the pairwise-conflict graph.
    pub clique: u64,
    /// Gomory mixed-integer cuts read off fractional basis rows.
    pub gomory: u64,
    /// Cover cuts lifted with non-cover knapsack items.
    pub lifted_cover: u64,
    /// Conflict no-goods, which older solvers learned from
    /// infeasibility-refuted subtrees.
    pub nogood: u64,
}

impl CutCounts {
    /// Sum over every kind.
    pub fn total(&self) -> u64 {
        self.cover + self.clique + self.gomory + self.lifted_cover + self.nogood
    }
}

/// Cold LP solves (two-phase primal from the slack basis), counted by the
/// reason no warm re-solve was possible. Every other LP re-solves with the
/// dual simplex from a stored basis.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ColdLpCounts {
    /// The first root cut round.
    pub root: u64,
    /// A node without a parent basis: the root node when the cut loop
    /// handed it no LP, or a child whose parent was bounded by propagation
    /// or whose LP did not solve to optimality.
    pub no_parent_basis: u64,
    /// A parent basis that could not be used: its fingerprint did not
    /// match, its extension over appended cut rows failed, or it did not
    /// refactorize.
    pub unusable_basis: u64,
    /// A warm re-solve that ran over its pivot budget.
    pub over_budget: u64,
}

impl ColdLpCounts {
    /// Sum over every reason: the number of cold solves.
    pub fn total(&self) -> u64 {
        self.root + self.no_parent_basis + self.unusable_basis + self.over_budget
    }
}

impl std::ops::AddAssign for ColdLpCounts {
    fn add_assign(&mut self, other: Self) {
        self.root += other.root;
        self.no_parent_basis += other.no_parent_basis;
        self.unusable_basis += other.unusable_basis;
        self.over_budget += other.over_budget;
    }
}

/// Counters describing the effort spent by the solver.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SolveStats {
    /// Number of branch-and-bound nodes explored.
    pub nodes: u64,
    /// Number of simplex iterations performed across all LP relaxations
    /// (two-phase primal, dual-simplex re-solves and strong branching).
    pub lp_pivots: u64,
    /// Simplex iterations spent in the *primal* simplex (the two phases of
    /// cold factorisations). `lp_primal_pivots + lp_dual_pivots ==
    /// lp_pivots`.
    pub lp_primal_pivots: u64,
    /// Simplex iterations spent in the *dual* simplex (warm re-solves from
    /// a stored basis, including strong-branching probes).
    pub lp_dual_pivots: u64,
    /// Simplex iterations taken under the Bland anti-cycling fallback;
    /// devex pricing chose the other `lp_pivots - bland_pivots`.
    pub bland_pivots: u64,
    /// Bound flips performed inside the LP kernel: nonbasic variables
    /// crossing their box without a basis change (rank-0 updates — the
    /// implicit-bound replacement for the old kernel's bound-row pivots).
    pub lp_bound_flips: u64,
    /// Basis factorizations performed inside the LP kernel: warm starts
    /// factorizing their stored basis and periodic eta-file collapses.
    pub lp_basis_refactorizations: u64,
    /// Number of LP relaxations solved.
    pub lp_solves: u64,
    /// Node LPs and root cut rounds re-solved with the dual simplex from a
    /// stored basis. Strong-branching probes are counted apart, in
    /// [`SolveStats::strong_branch_solves`].
    pub warm_lp_solves: u64,
    /// Cold LP solves by reason; their total is `lp_solves −
    /// warm_lp_solves − strong_branch_solves`.
    pub cold_lp: ColdLpCounts,
    /// Strong-branching child LPs solved to initialise pseudo-costs.
    pub strong_branch_solves: u64,
    /// Integral bounds tightened by reduced-cost fixing against the
    /// incumbent.
    pub rc_fixed_bounds: u64,
    /// Number of propagation fixpoint rounds executed.
    pub propagations: u64,
    /// Wall-clock time of the solve.
    pub time: Duration,
    /// Best proven lower bound on the (minimisation) objective.
    pub best_bound: f64,
    /// Relative optimality gap `(incumbent - bound) / max(|incumbent|, 1)`,
    /// zero when proven optimal, infinity when no incumbent exists.
    pub gap: f64,
    /// True when the wall-clock or node limit stopped the search.
    pub limit_reached: bool,
    /// Cuts emitted during this solve, counted per kind.
    pub cuts_emitted: CutCounts,
    /// Cuts sitting in the active row set when the solve finished, per
    /// kind. After a resume this covers the restored pool too.
    pub cuts_active: CutCounts,
    /// Verbatim copies of every cut emitted during the solve, recorded only
    /// when [`crate::SolverConfig::record_cuts`] is on (used by the cut
    /// validity test suite; empty otherwise).
    pub emitted_cuts: Vec<CutRow>,
    /// Variables eliminated by the reducing presolve before the search.
    pub presolve_vars_removed: u64,
    /// Rows removed by the reducing presolve before the search.
    pub presolve_rows_removed: u64,
    /// True when this solve continued a [`SolveSnapshot`] instead of
    /// starting a fresh tree; [`SolveStats::nodes`] then counts the whole
    /// tree (capture point included), while every other counter covers
    /// only the post-resume work.
    pub resumed: bool,
    /// True when the solve stopped early and captured a resumable snapshot
    /// (see [`Solution::snapshot`]).
    pub snapshot_captured: bool,
    /// Every incumbent improvement, in chronological order.
    pub improvements: Vec<Improvement>,
}

impl SolveStats {
    /// Nodes explored until the incumbent first reached `target`
    /// (minimisation sense: first improvement with `objective <= target +
    /// tol`). `None` when the solve never got there. Node counts are
    /// deterministic, which is what the sweep benchmark asserts on.
    pub fn nodes_to_target(&self, target: f64, tol: f64) -> Option<u64> {
        self.improvements
            .iter()
            .find(|imp| imp.objective <= target + tol)
            .map(|imp| imp.nodes)
    }

    /// Nodes explored until the final incumbent was found (`None` when no
    /// incumbent exists).
    pub fn nodes_to_best(&self) -> Option<u64> {
        self.improvements.last().map(|imp| imp.nodes)
    }
}

/// A solution returned by [`crate::Model::solve`].
#[derive(Debug, Clone)]
pub struct Solution {
    status: Status,
    values: Vec<f64>,
    objective: f64,
    stats: SolveStats,
    /// Resumable solve state, present only when the search stopped early
    /// under a budget with [`crate::Budget::snapshot`] set to `Some(true)`.
    snapshot: Option<Arc<SolveSnapshot>>,
}

/// Equality compares the *result* (status, assignment, objective, stats);
/// the attached snapshot is transport, not outcome — two solves that reach
/// the same answer compare equal whether or not one carries a checkpoint.
impl PartialEq for Solution {
    fn eq(&self, other: &Self) -> bool {
        self.status == other.status
            && self.values == other.values
            && self.objective == other.objective
            && self.stats == other.stats
    }
}

impl Solution {
    /// Creates a solution record (crate-internal; users obtain solutions from
    /// the solver).
    pub(crate) fn new(status: Status, values: Vec<f64>, objective: f64, stats: SolveStats) -> Self {
        Self {
            status,
            values,
            objective,
            stats,
            snapshot: None,
        }
    }

    /// Creates a solution carrying no assignment (infeasible / unknown).
    pub(crate) fn without_values(status: Status, stats: SolveStats) -> Self {
        Self {
            status,
            values: Vec::new(),
            objective: f64::INFINITY,
            stats,
            snapshot: None,
        }
    }

    /// Attaches (or clears) the resumable snapshot of an early-stopped
    /// solve.
    pub(crate) fn with_snapshot(mut self, snapshot: Option<Arc<SolveSnapshot>>) -> Self {
        self.snapshot = snapshot;
        self
    }

    /// The solve status.
    pub fn status(&self) -> Status {
        self.status
    }

    /// Whether the solution is proven optimal.
    pub fn is_optimal(&self) -> bool {
        self.status == Status::Optimal
    }

    /// Whether a feasible assignment is available (optimal or not). This is
    /// also true for an [interrupted](Status::Interrupted) solve that was
    /// cancelled after an incumbent had been found.
    pub fn is_feasible(&self) -> bool {
        self.status.has_solution()
            || (self.status == Status::Interrupted && !self.values.is_empty())
    }

    /// Objective value of the reported assignment.
    ///
    /// Returns `f64::INFINITY` when no assignment is available.
    pub fn objective(&self) -> f64 {
        self.objective
    }

    /// Value of a variable in the reported assignment.
    ///
    /// # Panics
    ///
    /// Panics if no assignment is available or `var` is out of range.
    pub fn value(&self, var: VarId) -> f64 {
        self.values[var.index()]
    }

    /// Whether a (binary) variable is 1 in the reported assignment.
    ///
    /// # Panics
    ///
    /// Panics if no assignment is available or `var` is out of range.
    pub fn is_one(&self, var: VarId) -> bool {
        self.value(var) > 0.5
    }

    /// The dense assignment vector (empty when no solution is available).
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Solver effort statistics.
    pub fn stats(&self) -> &SolveStats {
        &self.stats
    }

    /// The resumable snapshot captured when this solve stopped early, if
    /// any. Feed it to [`crate::SolverConfig::with_resume`] to continue the
    /// same tree.
    pub fn snapshot(&self) -> Option<&SolveSnapshot> {
        self.snapshot.as_deref()
    }

    /// The snapshot as a cheaply clonable shared handle (`None` when the
    /// solve ran to completion or capture was off).
    pub fn shared_snapshot(&self) -> Option<Arc<SolveSnapshot>> {
        self.snapshot.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_predicates() {
        assert!(Status::Optimal.has_solution());
        assert!(Status::Feasible.has_solution());
        assert!(!Status::Infeasible.has_solution());
        assert!(!Status::Unknown.has_solution());
        assert!(!Status::Interrupted.has_solution());
    }

    #[test]
    fn interrupted_solution_is_feasible_exactly_when_it_carries_values() {
        let with_values = Solution::new(
            Status::Interrupted,
            vec![1.0, 0.0],
            3.0,
            SolveStats::default(),
        );
        assert!(with_values.is_feasible());
        assert!(!with_values.is_optimal());
        let bare = Solution::without_values(Status::Interrupted, SolveStats::default());
        assert!(!bare.is_feasible());
    }

    #[test]
    fn solution_accessors() {
        let sol = Solution::new(
            Status::Optimal,
            vec![1.0, 0.0, 3.0],
            42.0,
            SolveStats::default(),
        );
        assert!(sol.is_optimal());
        assert!(sol.is_feasible());
        assert_eq!(sol.objective(), 42.0);
        assert!(sol.is_one(VarId(0)));
        assert!(!sol.is_one(VarId(1)));
        assert_eq!(sol.values().len(), 3);
    }

    #[test]
    fn empty_solution() {
        let sol = Solution::without_values(Status::Infeasible, SolveStats::default());
        assert!(!sol.is_feasible());
        assert!(sol.objective().is_infinite());
        assert!(sol.values().is_empty());
    }
}
