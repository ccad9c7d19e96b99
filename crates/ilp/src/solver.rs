//! Branch-and-bound solver for 0-1 integer linear programs.
//!
//! The solver explores a binary search tree over the model's binary
//! variables, fixing one at 0 and at 1 in each branching. At
//! every node it runs bound propagation, computes a dual (lower) bound —
//! from the LP relaxation, or below a configured depth from the objective
//! over the propagated box — and prunes nodes that cannot beat the
//! incumbent. A greedy propagation-repaired dive supplies an early
//! incumbent, which matters a great deal for the highly constrained BIST
//! assignment models this crate was written for.
//!
//! The search layer on top of that skeleton:
//!
//! * **Depth-first node order** — open nodes live on a stack, and the
//!   preferred child of every branching is explored first.
//! * **Warm-started node LPs** — each child node owns its parent's compact
//!   optimal [`Basis`] (siblings share it through an `Arc`) and re-solves
//!   its LP with the dual simplex from it instead of running two-phase
//!   primal from scratch. A basis stored before a cut install is extended
//!   over the appended rows. Cold solves remain only where no usable
//!   parent basis exists or a warm re-solve overruns its budget, and
//!   [`SolveStats::cold_lp`] counts each by its reason.
//! * **Pseudo-cost / reliability branching** (Achterberg, Koch & Martin,
//!   "Branching rules revisited") with strong-branching initialisation at
//!   shallow depth, learning per-variable dual-bound degradations from
//!   every branching; nodes without LP values branch on the most
//!   constrained variable instead.
//! * **Reduced-cost bound fixing** — at LP nodes with an incumbent, duals
//!   prove some variables cannot leave their bound in any
//!   improving solution; the tightened bounds feed the propagation
//!   worklist.

use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::cuts::{CutGenerator, CutRow};
use crate::error::IlpError;
use crate::heuristics::{greedy_dive, round_and_repair};
use crate::model::{CmpOp, Model, Sense};
use crate::propagate::{Domains, PropagationResult, Propagator};
use crate::session::{Budget, CancelToken, SolveEvent};
use crate::simplex::{
    instance_fingerprint, resolve_with_basis, solve_lp_basis, Basis, Factor, LpSolution, LpStatus,
    ReducedCosts,
};
use crate::snapshot::SolveSnapshot;
use crate::solution::{Solution, SolveStats, Status};
use crate::sparse::SparseModel;
use crate::{EPS, INT_EPS};

/// Maximum Gomory rounds at the root node.
const ROOT_CUT_ROUNDS: usize = 4;
/// Maximum in-tree Gomory rounds (at shallow nodes).
const TREE_SEPARATIONS: usize = 6;
/// In-tree separation budget for eager (chained warm-started) solves: the
/// anchoring incumbent makes extra shallow rounds pay for themselves.
const TREE_SEPARATIONS_EAGER: usize = 12;
/// Maximum node depth at which uninitialised pseudo-costs are seeded by
/// strong branching (reliability branching); deeper nodes rely on the
/// observations already gathered.
const STRONG_DEPTH: usize = 2;
/// Observation count below which a variable's pseudo-cost is considered
/// unreliable and eligible for strong-branching initialisation.
const RELIABILITY: u32 = 2;
/// Maximum strong-branching candidates probed per node.
const STRONG_CANDIDATES: usize = 6;
/// Pivot budget of each strong-branching child LP.
const STRONG_PIVOTS: u64 = 100;
/// Per-unit degradation recorded when a strong-branching child is
/// infeasible (branching there closes a whole subtree, so prefer it).
const INFEASIBLE_DEGRADATION: f64 = 1e7;
/// Maximum node depth at which in-tree cut rounds may read Gomory cuts off
/// the node's optimal basis (separation at the very top of the tree, where
/// a tightened relaxation still prunes almost everything below).
const TREE_CUT_DEPTH: usize = 2;
/// Nodes a *cold* solve must have explored before in-tree Gomory rounds
/// engage. Easy instances finish well under this and keep their lean trees
/// (extra rows perturb degenerate vertex selection and with it pseudo-cost
/// learning); on hard instances the depth-first search backtracks to the
/// shallow levels long after this point with mature pseudo-costs, and the
/// extra tightening there is what closes the remaining gap. Solves seeded
/// with a warm-start incumbent skip the delay: the incumbent anchors the
/// search, so early tightening only prunes.
const TREE_CUT_MIN_NODES: u64 = 256;
/// Maximum Gomory cuts read off one optimal basis per separation round.
const GOMORY_PER_ROUND: usize = 8;
/// Minimum violation of the separating LP point for a Gomory cut to be
/// installed (the derivation's safety margin already ate ~1e-7 of it).
const GOMORY_MIN_VIOLATION: f64 = 1e-4;
/// Minimum efficacy (violation divided by the cut's coefficient norm —
/// the Euclidean distance from the LP point to the cut hyperplane) for a
/// Gomory cut to be installed. Low-efficacy cuts barely move the
/// relaxation but still perturb degenerate vertex selection, which
/// derails pseudo-cost learning on small instances.
const GOMORY_MIN_EFFICACY: f64 = 1e-2;

/// One materialised row handed to [`SparseModel::from_rows`].
type DenseRow = (Vec<(usize, f64)>, CmpOp, f64);

/// Folds one LP solve's iteration counters into the run statistics.
fn tally_lp(stats: &mut SolveStats, lp: &LpSolution) {
    stats.lp_pivots += lp.pivots;
    stats.lp_primal_pivots += lp.primal_pivots;
    stats.lp_dual_pivots += lp.dual_pivots;
    stats.bland_pivots += lp.bland_pivots;
    stats.lp_bound_flips += lp.bound_flips;
    stats.lp_basis_refactorizations += lp.refactorizations;
}

/// `values` rounded to the nearest integers when every one already lies
/// within [`INT_EPS`] of one: an integral LP point as a 0-1 assignment.
fn rounded_if_integral(values: &[f64]) -> Option<Vec<f64>> {
    values
        .iter()
        .all(|v| (v - v.round()).abs() <= INT_EPS)
        .then(|| values.iter().map(|v| v.round()).collect())
}

/// How dual bounds are computed at branch-and-bound nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundMode {
    /// Solve the LP relaxation at every node. Strongest bound, most work.
    LpRelaxation,
    /// Solve the LP relaxation at nodes of depth `lp_depth` or shallower and
    /// fall back to the propagation bound (the objective over the
    /// propagated variable box) deeper in the tree.
    Hybrid {
        /// Maximum depth at which the LP relaxation is still solved.
        lp_depth: usize,
    },
}

/// Configuration of a branch-and-bound run.
#[derive(Debug, Clone)]
pub struct SolverConfig {
    /// The unified solve budget: node limit, wall-clock limit and absolute
    /// deadline (see [`Budget`]). The search stops at whichever expires
    /// first, with [`SolveStats::limit_reached`] set.
    pub budget: Budget,
    /// Optional cancellation flag, checked at every node pop. A cancelled
    /// solve returns [`Status::Interrupted`] with the best incumbent found
    /// so far preserved in the solution values.
    pub cancel: Option<CancelToken>,
    /// Dual bound computation mode.
    pub bound_mode: BoundMode,
    /// Pivot budget per LP relaxation solve.
    pub max_lp_pivots: u64,
    /// Record a verbatim copy of every emitted cut in
    /// [`SolveStats::emitted_cuts`]. Off by default — it exists for the cut
    /// validity test suite, which re-checks every cut against known integer
    /// optima.
    pub record_cuts: bool,
    /// Warm-start candidates. Every feasible candidate competes for the
    /// initial incumbent and the best one wins (the earliest on a tie); the
    /// synthesis engine pushes the sequential baseline design first and the
    /// chained k−1 sweep incumbent after it.
    pub initial_solutions: Vec<Vec<f64>>,
    /// Keep a cut pool ([`crate::cuts`]): Gomory mixed-integer cuts read
    /// off the optimal basis in the root loop and at shallow nodes. On by
    /// default.
    pub cuts: bool,
    /// Run shallow in-tree Gomory rounds from the first descent instead of
    /// waiting for the node counter to mature. Off by default: early extra
    /// rows perturb degenerate vertex selection and with it pseudo-cost
    /// learning, which blows up the trees of quickly-solved instances. The
    /// synthesis engine enables it for chained sweep solves, where the k−1
    /// incumbent anchors the search and early tightening only prunes.
    pub eager_tree_cuts: bool,
    /// Resume a previous solve from a [`SolveSnapshot`] instead of starting
    /// a fresh tree. The snapshot is the in-memory value an earlier solve
    /// captured under [`Budget::snapshot`] and must belong to the same
    /// instance: a variable-count or content-fingerprint (matrix and
    /// objective) mismatch fails loudly with [`IlpError::Snapshot`]. Root
    /// preprocessing (warm candidates, dive, root cuts) is skipped — the
    /// restored state already reflects it.
    pub resume: Option<Arc<SolveSnapshot>>,
}

impl Default for SolverConfig {
    fn default() -> Self {
        Self {
            budget: Budget::time(Duration::from_secs(60)),
            cancel: None,
            bound_mode: BoundMode::Hybrid { lp_depth: 4 },
            max_lp_pivots: 50_000,
            record_cuts: false,
            initial_solutions: Vec::new(),
            cuts: true,
            eager_tree_cuts: false,
            resume: None,
        }
    }
}

impl SolverConfig {
    /// A configuration tuned for exhaustive solving of small models in tests:
    /// no limits at all, LP relaxation bound everywhere.
    pub fn exact() -> Self {
        Self {
            budget: Budget::unlimited(),
            bound_mode: BoundMode::LpRelaxation,
            ..Self::default()
        }
    }

    /// Builder-style setter for the whole budget.
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Builder-style installation of a cancellation token.
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Builder-style setter for the bound mode.
    pub fn with_bound_mode(mut self, mode: BoundMode) -> Self {
        self.bound_mode = mode;
        self
    }

    /// Builder-style toggle for recording emitted cuts in the stats.
    pub fn with_record_cuts(mut self, enabled: bool) -> Self {
        self.record_cuts = enabled;
        self
    }

    /// Builder-style addition of a warm-start candidate (see
    /// [`SolverConfig::initial_solutions`]).
    pub fn with_warm_candidate(mut self, values: Vec<f64>) -> Self {
        self.initial_solutions.push(values);
        self
    }

    /// Builder-style toggle for the cut pool.
    pub fn with_cuts(mut self, enabled: bool) -> Self {
        self.cuts = enabled;
        self
    }

    /// Builder-style installation of a snapshot to resume from.
    pub fn with_resume(mut self, snapshot: Arc<SolveSnapshot>) -> Self {
        self.resume = Some(snapshot);
        self
    }
}

/// A branch-and-bound node. A [`SolveSnapshot`] holds the open ones.
#[derive(Debug, Clone)]
pub(crate) struct Node {
    pub(crate) domains: Domains,
    depth: usize,
    /// Dual bound inherited from the parent (minimisation objective).
    bound: f64,
    /// The variable whose bounds were tightened to create this node. The
    /// parent's domains were at a propagation fixpoint, so the child's
    /// propagation can be seeded with just this variable's rows.
    branched: Option<usize>,
    /// The parent's optimal LP basis, if its LP solved to optimality; the
    /// node's LP re-solves from it with the dual simplex.
    pub(crate) parent_basis: Option<Arc<Basis>>,
    /// An LP already solved over this node's box and the current rows,
    /// which the node takes instead of solving its own: the root carries
    /// the cut loop's final LP, the most expensive one of the tree.
    pub(crate) lp: Option<NodeLp>,
    /// Whether the inherited `bound` came from an LP relaxation (pseudo-cost
    /// updates only compare LP bounds with LP bounds).
    parent_bound_is_lp: bool,
    /// Whether this child tightened the branched variable upward.
    branch_up: bool,
    /// Distance the branch moved the parent's LP value of the branched
    /// variable (the pseudo-cost normalisation denominator); 0 when the
    /// parent had no LP value.
    branch_step: f64,
}

impl Node {
    /// The root node over `domains`.
    pub(crate) fn root(domains: Domains) -> Self {
        Self {
            domains,
            depth: 0,
            bound: f64::NEG_INFINITY,
            branched: None,
            parent_basis: None,
            lp: None,
            parent_bound_is_lp: false,
            branch_up: false,
            branch_step: 0.0,
        }
    }

    /// The LP bases this node holds: its parent's, and that of an LP it
    /// carries.
    pub(crate) fn bases(&self) -> impl Iterator<Item = &Arc<Basis>> {
        let lp_basis = self.lp.as_ref().and_then(|lp| lp.basis.as_ref());
        self.parent_basis.iter().chain(lp_basis)
    }
}

/// Per-variable pseudo-cost accumulators: average observed dual-bound
/// degradation per unit of fractionality, per branching direction. Fed by
/// real branchings and by strong-branching probes; consulted by
/// [`BranchAndBound::select_branch_var`]. A [`SolveSnapshot`] carries a
/// clone of the tables.
#[derive(Debug, Clone, Default)]
pub(crate) struct PseudoCosts {
    pub(crate) up_sum: Vec<f64>,
    up_cnt: Vec<u32>,
    pub(crate) down_sum: Vec<f64>,
    down_cnt: Vec<u32>,
    /// Running direction-wide totals (`[down, up]`), so the global-average
    /// fallback of [`PseudoCosts::estimate`] is O(1) instead of a scan over
    /// every variable.
    global_sum: [f64; 2],
    global_cnt: [u32; 2],
}

impl PseudoCosts {
    pub(crate) fn new(num_vars: usize) -> Self {
        Self {
            up_sum: vec![0.0; num_vars],
            up_cnt: vec![0; num_vars],
            down_sum: vec![0.0; num_vars],
            down_cnt: vec![0; num_vars],
            global_sum: [0.0; 2],
            global_cnt: [0; 2],
        }
    }

    fn record(&mut self, j: usize, up: bool, degradation_per_unit: f64) {
        if up {
            self.up_sum[j] += degradation_per_unit;
            self.up_cnt[j] += 1;
        } else {
            self.down_sum[j] += degradation_per_unit;
            self.down_cnt[j] += 1;
        }
        self.global_sum[usize::from(up)] += degradation_per_unit;
        self.global_cnt[usize::from(up)] += 1;
    }

    fn observations(&self, j: usize) -> u32 {
        self.up_cnt[j] + self.down_cnt[j]
    }

    /// Estimated per-unit degradation in one direction: the variable's own
    /// average when observed, the direction's global average otherwise, and
    /// a neutral 1.0 before any observation exists at all.
    fn estimate(&self, j: usize, up: bool) -> f64 {
        let (sum, cnt) = if up {
            (&self.up_sum, &self.up_cnt)
        } else {
            (&self.down_sum, &self.down_cnt)
        };
        if cnt[j] > 0 {
            return sum[j] / f64::from(cnt[j]);
        }
        let total = self.global_cnt[usize::from(up)];
        if total > 0 {
            self.global_sum[usize::from(up)] / f64::from(total)
        } else {
            1.0
        }
    }
}

/// The branch-and-bound engine. Construct with [`BranchAndBound::new`] and
/// call [`BranchAndBound::run`]; most users go through [`Model::solve`].
pub struct BranchAndBound<'a> {
    model: &'a Model,
    config: SolverConfig,
    propagator: Propagator,
    /// Minimisation objective coefficients (sign-flipped for maximisation).
    objective: Vec<f64>,
    objective_constant: f64,
    sense_factor: f64,
    occurrence: Vec<usize>,
    /// Cut pool: the generator deduplicates every emitted cut, `cut_rows`
    /// holds every accepted one. The rows live in the shared sparse matrix,
    /// so the propagator, the simplex and branching consume them exactly
    /// like model rows.
    cut_source: Option<CutGenerator>,
    cut_rows: Vec<CutRow>,
    /// Remaining in-tree Gomory rounds at shallow nodes.
    tree_separations_left: usize,
    /// Whether shallow Gomory rounds run from the first descent:
    /// [`SolverConfig::eager_tree_cuts`] was requested *and* a warm-start
    /// candidate actually established the incumbent before the tree opened.
    /// Cold or unseeded solves defer the rounds until the node counter
    /// passes [`TREE_CUT_MIN_NODES`], protecting the quick ones. Captured
    /// in snapshots so a resume separates on the same schedule.
    eager_separation: bool,
    /// The model's root box *before* propagation: the global bounds every
    /// Gomory cut is unshifted to, so cuts derived at tree nodes stay valid
    /// for the whole tree and for the shared pool.
    root_box: Domains,
    /// Whether the internal objective can only take integer values (every
    /// coefficient and the constant are integers). When true, every dual
    /// bound rounds up to the next integer — the classic integral-objective
    /// strengthening, and on the paper's transistor-count objectives the
    /// step that turns a 0.4-area LP gap into a closed node.
    integral_objective: bool,
    /// Pseudo-cost state of the branching rule.
    pseudo: PseudoCosts,
    /// Live event sink (see [`SolveEvent`]); `None` when nobody listens.
    events: Option<&'a mut dyn FnMut(&SolveEvent)>,
    /// Largest internal (minimisation-sense) dual bound already streamed as
    /// a [`SolveEvent::BoundImproved`], so the event keeps its "the bound
    /// tightened" contract across non-improving cut-round re-solves.
    last_bound_emitted: f64,
    /// Content fingerprint of the *pre-cut* instance (model matrix +
    /// internal objective): the identity a [`SolveSnapshot`] records and
    /// the resume path checks. Cut rows are excluded on purpose — they are
    /// part of the captured search state, not of the instance.
    base_fingerprint: u64,
}

impl<'a> BranchAndBound<'a> {
    /// Prepares a solver run for `model`.
    pub fn new(model: &'a Model, config: SolverConfig) -> Self {
        let propagator = Propagator::new(model);
        let sense_factor = match model.sense() {
            Sense::Minimize => 1.0,
            Sense::Maximize => -1.0,
        };
        let objective: Vec<f64> = model
            .vars()
            .iter()
            .map(|v| sense_factor * v.objective)
            .collect();
        let objective_constant = sense_factor * model.objective().offset();
        let occurrence: Vec<usize> = (0..model.num_vars())
            .map(|j| propagator.matrix().occurrences(j))
            .collect();
        let cut_source = config.cuts.then(CutGenerator::new);
        let num_vars = model.num_vars();
        let root_box = Domains::from_model(model);
        let integral_objective =
            objective_constant.fract() == 0.0 && objective.iter().all(|c| c.fract() == 0.0);
        let base_fingerprint =
            instance_fingerprint(propagator.matrix(), &objective, objective_constant);
        Self {
            model,
            config,
            propagator,
            objective,
            objective_constant,
            sense_factor,
            occurrence,
            cut_source,
            cut_rows: Vec::new(),
            tree_separations_left: TREE_SEPARATIONS,
            eager_separation: false,
            root_box,
            integral_objective,
            pseudo: PseudoCosts::new(num_vars),
            events: None,
            last_bound_emitted: f64::NEG_INFINITY,
            base_fingerprint,
        }
    }

    /// Streams [`SolveEvent`]s into `sink` during the run. This raw search
    /// never emits the closing [`SolveEvent::Done`]: callers that want it
    /// solve through [`crate::Model::solve_observed`] or
    /// [`crate::reduce::solve_reduced_with_events`] instead.
    pub fn with_event_sink(mut self, sink: &'a mut dyn FnMut(&SolveEvent)) -> Self {
        self.events = Some(sink);
        self
    }

    /// Invokes the event sink, if any.
    fn emit(&mut self, event: SolveEvent) {
        if let Some(sink) = self.events.as_mut() {
            sink(&event);
        }
    }

    /// Streams a [`SolveEvent::BoundImproved`] only when `internal_bound`
    /// strictly tightens the last streamed bound.
    fn emit_bound_improved(&mut self, nodes: u64, internal_bound: f64) {
        if self.events.is_some() && internal_bound > self.last_bound_emitted + EPS {
            self.last_bound_emitted = internal_bound;
            self.emit(SolveEvent::BoundImproved {
                nodes,
                bound: self.sense_factor * internal_bound,
            });
        }
    }

    /// Whether the installed cancellation token has been raised.
    fn is_cancelled(&self) -> bool {
        self.config
            .cancel
            .as_ref()
            .is_some_and(CancelToken::is_cancelled)
    }

    /// Rebuilds the shared sparse matrix from the model rows plus every
    /// accepted cut, and refreshes the occurrence counts branching reads.
    /// Called whenever the cut pool grows. Cuts are appended after the rows
    /// already there, so every stored basis stays usable through
    /// [`Basis::extended`].
    fn rebuild_matrix(&mut self) {
        let rows: Vec<DenseRow> = self
            .model
            .constraints()
            .iter()
            .map(|c| {
                (
                    c.expr.iter().map(|(v, a)| (v.index(), a)).collect(),
                    c.op,
                    c.rhs,
                )
            })
            .chain(
                self.cut_rows
                    .iter()
                    .map(|cut| (cut.terms.clone(), CmpOp::Le, cut.rhs)),
            )
            .collect();
        self.propagator =
            Propagator::from_matrix(SparseModel::from_rows(self.model.num_vars(), rows));
        for (j, slot) in self.occurrence.iter_mut().enumerate() {
            *slot = self.propagator.matrix().occurrences(j);
        }
    }

    /// Reads Gomory mixed-integer cuts off the fractional rows of a factored
    /// basis, installs the ones the LP point violates and re-propagates
    /// `domains`.
    /// Cuts are unshifted to the *root* box (not the node's), so they are
    /// valid for the whole tree even when derived at a branched node.
    /// Returns `None` when nothing was installed, and otherwise whether the
    /// re-propagated box is still feasible.
    fn install_gomory(
        &mut self,
        factor: &Factor,
        lp_values: &[f64],
        domains: &mut Domains,
        stats: &mut SolveStats,
    ) -> Option<bool> {
        self.cut_source.as_ref()?;
        let candidates = factor.gomory_cuts(
            self.propagator.matrix(),
            &self.objective,
            self.objective_constant,
            domains,
            &self.root_box,
            GOMORY_PER_ROUND,
        );
        let mut accepted = Vec::new();
        for (terms, rhs) in candidates {
            let activity: f64 = terms.iter().map(|&(j, a)| a * lp_values[j]).sum();
            if activity <= rhs + GOMORY_MIN_VIOLATION {
                continue;
            }
            let norm = terms
                .iter()
                .map(|&(_, a)| a * a)
                .sum::<f64>()
                .sqrt()
                .max(1e-12);
            if (activity - rhs) / norm < GOMORY_MIN_EFFICACY {
                continue;
            }
            let cut = CutRow { terms, rhs };
            if self.cut_source.as_mut().is_some_and(|g| g.admit(&cut)) {
                stats.cuts_emitted.gomory += 1;
                if self.config.record_cuts {
                    stats.emitted_cuts.push(cut.clone());
                }
                accepted.push(cut);
            }
        }
        if accepted.is_empty() {
            return None;
        }
        let added = accepted.len() as u64;
        self.cut_rows.extend(accepted);
        self.emit(SolveEvent::CutRound {
            nodes: stats.nodes,
            added,
            total: self.cut_rows.len() as u64,
        });
        self.rebuild_matrix();
        stats.propagations += 1;
        Some(self.propagator.propagate(domains) != PropagationResult::Infeasible)
    }

    /// Root cut loop: solve the root LP, read Gomory cuts off its optimal
    /// basis, tighten the root's box and repeat. The first round solves
    /// cold; every later round re-solves warm from the previous round's
    /// basis, extended over the cuts that round installed. A round that
    /// installs nothing leaves its LP, valid for the final row set, on the
    /// root node. Returns `false` when the root becomes infeasible (only
    /// possible numerically, since cuts preserve every integer point).
    fn root_cuts(
        &mut self,
        root: &mut Node,
        stats: &mut SolveStats,
        incumbent: &mut Option<(f64, Vec<f64>)>,
        start: Instant,
    ) -> bool {
        let mut previous: Option<Basis> = None;
        for _ in 0..ROOT_CUT_ROUNDS {
            // Separation is best-effort root tightening: stop the loop (but
            // not the solve) as soon as the budget or a cancellation makes
            // further rounds pointless.
            if self.is_cancelled() || self.config.budget.time_expired(start) {
                return true;
            }
            let (lp, basis) = self.relaxation(previous.as_ref(), Cold::Root, &root.domains, stats);
            match lp.status {
                LpStatus::Infeasible => return false,
                // Each cut round re-solves the root relaxation over a
                // tighter row set; stream the optimum whenever it actually
                // tightened the dual bound.
                LpStatus::Optimal => self.emit_bound_improved(stats.nodes, lp.objective),
                LpStatus::Unbounded | LpStatus::IterationLimit => return true,
            }
            // An integral root relaxation is a solved instance: log it as an
            // incumbent improvement and stop separating.
            if let Some(values) = rounded_if_integral(&lp.values) {
                self.offer_incumbent(values, "root-lp", incumbent, stats, start);
                root.lp = Some(NodeLp::new(lp, basis));
                return true;
            }
            let installed = basis
                .as_ref()
                .and_then(|b| self.factor(b))
                .and_then(|factor| {
                    self.install_gomory(&factor, &lp.values, &mut root.domains, stats)
                });
            match installed {
                Some(true) => {
                    previous = basis;
                    continue;
                }
                Some(false) => return false,
                None => {}
            }
            // No violated cuts: this LP is valid for the final row set, so
            // hand it to the root node instead of having it re-solve the
            // identical relaxation.
            root.lp = Some(NodeLp::new(lp, basis));
            return true;
        }
        true
    }

    /// Factorizes `basis` over the current matrix, or `None` when it does
    /// not belong to it (see [`Basis::factor`]).
    fn factor<'b>(&self, basis: &'b Basis) -> Option<Factor<'b>> {
        basis.factor(
            self.propagator.matrix(),
            &self.objective,
            self.objective_constant,
        )
    }

    /// Runs the search and returns the best solution found.
    ///
    /// # Errors
    ///
    /// Only structural errors are reported as `Err`; infeasibility and limit
    /// expiry are encoded in the returned [`Status`].
    pub fn run(mut self) -> Result<Solution, IlpError> {
        let start = Instant::now();
        let mut stats = SolveStats::default();

        if let Some(snapshot) = self.config.resume.take() {
            return self.run_resumed(&snapshot, start, stats);
        }

        let mut root = Node::root(Domains::from_model(self.model));
        stats.propagations += 1;
        if self.propagator.propagate(&mut root.domains) == PropagationResult::Infeasible {
            stats.time = start.elapsed();
            stats.best_bound = f64::INFINITY;
            return Ok(Solution::without_values(Status::Infeasible, stats));
        }

        // Incumbent: (internal minimisation objective, values). All supplied
        // warm-start candidates compete; the cheapest feasible one wins.
        let mut incumbent: Option<(f64, Vec<f64>)> = None;

        for warm in std::mem::take(&mut self.config.initial_solutions) {
            self.offer_incumbent(warm, "warm-start", &mut incumbent, &mut stats, start);
        }
        // Eager in-tree separation only pays for itself when there is budget
        // left to exploit the tightened bound: under a tiny node cap the
        // rounds crowd out incumbent hunting instead.
        let roomy_budget = self
            .config
            .budget
            .node_limit
            .map(|limit| limit >= TREE_CUT_MIN_NODES)
            .unwrap_or(true);
        self.eager_separation = self.config.eager_tree_cuts && incumbent.is_some() && roomy_budget;
        if self.eager_separation {
            self.tree_separations_left = TREE_SEPARATIONS_EAGER;
        }

        // A budget that is already spent (an expired deadline handed to a
        // batch job) or a token raised before the solve started must return
        // promptly: warm candidates above still establish the incumbent,
        // but the dive, the cut loop and the tree are all skipped — the
        // solve never descends past the root.
        let skip_root_work = self.config.budget.time_expired(start) || self.is_cancelled();

        if !skip_root_work {
            if let Some(values) = greedy_dive(&self.propagator, &root.domains, &self.objective) {
                self.offer_incumbent(values, "dive", &mut incumbent, &mut stats, start);
            }
        }

        // Seed the cut pool at the root: read Gomory cuts off the root LP's
        // basis, tighten, repeat. The accepted cuts join the shared row set
        // for the whole search. Cuts preserve every integer point, so a
        // root the loop closes has no integer solution (modulo numerics,
        // in which case the incumbent already in hand is the answer).
        let root_closed = self.cut_source.is_some()
            && !skip_root_work
            && !self.root_cuts(&mut root, &mut stats, &mut incumbent, start);
        let frontier = if root_closed { Vec::new() } else { vec![root] };

        self.search(
            frontier,
            incumbent,
            f64::NEG_INFINITY,
            f64::INFINITY,
            start,
            stats,
        )
    }

    /// Resumes a snapshotted search: checks the snapshot belongs to this
    /// exact instance, reinstalls the captured cut pool and pseudo-cost
    /// tables, clones the open frontier out of the snapshot (which stays
    /// intact for other resumes) and re-enters the main loop. Root
    /// preprocessing (warm candidates, dive, root cut loop) is skipped on
    /// purpose — the restored state already reflects it.
    fn run_resumed(
        mut self,
        snap: &SolveSnapshot,
        start: Instant,
        mut stats: SolveStats,
    ) -> Result<Solution, IlpError> {
        let fail = |message: String| IlpError::Snapshot { message };
        if snap.num_vars != self.model.num_vars() {
            return Err(fail(format!(
                "snapshot has {} variables, model has {}",
                snap.num_vars,
                self.model.num_vars()
            )));
        }
        if snap.fingerprint != self.base_fingerprint {
            return Err(fail(format!(
                "snapshot fingerprint {:#018x} does not match instance fingerprint {:#018x}",
                snap.fingerprint, self.base_fingerprint
            )));
        }
        if !snap.cuts.is_empty() {
            self.cut_rows = snap.cuts.clone();
            self.rebuild_matrix();
        }
        if let Some(generator) = self.cut_source.as_mut() {
            generator.restore_emitted(&snap.cuts);
        }
        self.tree_separations_left = snap.tree_separations_left;
        self.eager_separation = snap.eager_separation;
        self.last_bound_emitted = snap.last_bound_emitted;
        self.pseudo = snap.pseudo.clone();
        // The node counter continues from the capture point, so node
        // budgets keep their whole-tree meaning across interrupts.
        stats.nodes = snap.nodes;
        stats.resumed = true;
        self.search(
            snap.frontier.clone(),
            snap.incumbent.clone(),
            snap.root_bound,
            snap.pruned_bound_min,
            start,
            stats,
        )
    }

    /// The main tree loop plus final bookkeeping, shared by the fresh and
    /// the resumed entry points.
    fn search(
        mut self,
        mut frontier: Vec<Node>,
        mut incumbent: Option<(f64, Vec<f64>)>,
        mut root_bound: f64,
        mut pruned_bound_min: f64,
        start: Instant,
        mut stats: SolveStats,
    ) -> Result<Solution, IlpError> {
        let mut limit_reached = false;
        let mut interrupted = false;
        // The node popped when a stop is detected is still open; it is kept
        // aside so a snapshot can return it to the frontier.
        let mut pending: Option<Node> = None;

        while let Some(mut node) = frontier.pop() {
            if self.is_cancelled() {
                interrupted = true;
                pending = Some(node);
                break;
            }
            if self.limits_exceeded(start, &stats) {
                limit_reached = true;
                pending = Some(node);
                break;
            }
            // Cheap prune at pop: the incumbent may have improved since this
            // node was pushed with its parent's bound, and an integral
            // objective rounds that bound up — either way a node that can no
            // longer improve is dropped before it costs a propagation, an
            // LP, or a slot in the node budget.
            let popped_bound = self.strengthen_bound(node.bound);
            if popped_bound >= incumbent.as_ref().map(|(b, _)| *b).unwrap_or(f64::INFINITY) - EPS {
                pruned_bound_min = pruned_bound_min.min(popped_bound);
                continue;
            }
            stats.nodes += 1;
            self.emit(SolveEvent::NodeMilestone {
                nodes: stats.nodes,
                incumbent: incumbent.as_ref().map(|(b, _)| self.sense_factor * *b),
            });

            stats.propagations += 1;
            // The parent's domains were propagated to fixpoint, so only the
            // rows of the just-branched variable can fire initially.
            let propagated = match node.branched {
                Some(j) => self.propagator.propagate_seeded(&mut node.domains, &[j]),
                None => self.propagator.propagate(&mut node.domains),
            };
            if propagated == PropagationResult::Infeasible {
                continue;
            }

            let incumbent_obj = incumbent.as_ref().map(|(b, _)| *b).unwrap_or(f64::INFINITY);
            let parent_bound = node.bound;
            let bound = match self.node_bound(&mut node, &mut stats, &mut incumbent, start) {
                NodeBound::Infeasible => {
                    // An LP-infeasible child is the strongest possible
                    // degradation signal for its branching variable.
                    if let Some(j) = node.branched {
                        if node.parent_bound_is_lp && node.branch_step > INT_EPS {
                            self.pseudo
                                .record(j, node.branch_up, INFEASIBLE_DEGRADATION);
                        }
                    }
                    continue;
                }
                NodeBound::Bound { value, lp } => {
                    node.bound = value;
                    if node.depth == 0 {
                        root_bound = value;
                        self.emit_bound_improved(stats.nodes, value);
                    }
                    // Learn the observed dual-bound degradation of the
                    // branching that created this node.
                    if let (Some(j), true) = (node.branched, lp.is_some()) {
                        if node.parent_bound_is_lp
                            && node.branch_step > INT_EPS
                            && parent_bound > f64::NEG_INFINITY
                        {
                            let degradation = ((value - parent_bound) / node.branch_step).max(0.0);
                            self.pseudo.record(j, node.branch_up, degradation);
                        }
                    }
                    // Prune against the integrality-strengthened bound:
                    // the raw value stays on the node (pseudo-cost
                    // degradations want the smooth signal), but an
                    // integer objective cannot land strictly between
                    // consecutive integers, so the rounded-up bound is
                    // the one the incumbent has to beat.
                    let strengthened = self.strengthen_bound(value);
                    if strengthened >= incumbent_obj - EPS {
                        pruned_bound_min = pruned_bound_min.min(strengthened);
                        continue;
                    }
                    lp
                }
            };

            // Reduced-cost bound fixing: with an incumbent in hand, the LP
            // duals prove some variables cannot leave their bound
            // in any improving solution. Tightened bounds feed the regular
            // propagation worklist.
            let incumbent_now = incumbent.as_ref().map(|(b, _)| *b).unwrap_or(f64::INFINITY);
            if let Some(lp) = bound.as_ref() {
                if let Some(rc) = &lp.reduced_costs {
                    let changed = reduced_cost_fixing(
                        &mut node.domains,
                        lp.objective,
                        rc,
                        &lp.values,
                        incumbent_now,
                    );
                    if !changed.is_empty() {
                        stats.rc_fixed_bounds += changed.len() as u64;
                        stats.propagations += 1;
                        if self
                            .propagator
                            .propagate_seeded(&mut node.domains, &changed)
                            == PropagationResult::Infeasible
                        {
                            continue;
                        }
                    }
                }
            }

            // In-tree separation: at shallow nodes, read Gomory cuts off the
            // node's optimal basis — tightening the relaxation near the top
            // of the tree prunes almost everything below it. The factor of
            // that basis is kept for strong branching below.
            let shallow = node.depth <= TREE_CUT_DEPTH
                && (self.eager_separation || stats.nodes >= TREE_CUT_MIN_NODES);
            let mut factor = None;
            if shallow && self.tree_separations_left > 0 && self.cut_source.is_some() {
                if let Some(lp) = bound.as_ref() {
                    self.tree_separations_left -= 1;
                    factor = lp.basis.as_deref().and_then(|basis| self.factor(basis));
                    if let Some(factor) = factor.as_ref() {
                        if self.install_gomory(factor, &lp.values, &mut node.domains, &mut stats)
                            == Some(false)
                        {
                            continue;
                        }
                    }
                }
            }

            if node.domains.all_fixed() {
                let values = node.domains.assignment();
                self.offer_incumbent(values, "node-lp", &mut incumbent, &mut stats, start);
                continue;
            }

            let branch_var = self.select_branch_var(&node, bound.as_ref(), factor, &mut stats);
            let Some(j) = branch_var else {
                continue;
            };
            self.push_children(&mut frontier, &node, j, bound.as_ref());
        }

        if !frontier.is_empty() && !interrupted {
            limit_reached = true;
        }

        // Final bound and gap bookkeeping. A cancelled search is an open
        // search for bound purposes. The node held at the break folds into
        // the pruned minimum exactly as it always did; the snapshot keeps
        // the pre-fold value, because on resume that node is re-processed,
        // not pruned.
        let stopped_early = limit_reached || interrupted;
        let open_min = frontier
            .iter()
            .map(|n| n.bound)
            .min_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal))
            .unwrap_or(f64::INFINITY);
        let snapshot_pruned = pruned_bound_min;
        if let Some(node) = &pending {
            pruned_bound_min = pruned_bound_min.min(node.bound);
        }
        let best_bound_internal = if stopped_early {
            open_min
                .min(pruned_bound_min)
                .min(incumbent.as_ref().map(|(b, _)| *b).unwrap_or(f64::INFINITY))
                .max(root_bound.min(open_min))
        } else {
            incumbent.as_ref().map(|(b, _)| *b).unwrap_or(f64::INFINITY)
        };

        stats.time = start.elapsed();
        stats.limit_reached = stopped_early;
        stats.best_bound = self.sense_factor * best_bound_internal;
        stats.cuts_active.gomory = self.cut_rows.len() as u64;

        let snapshot = if self.config.budget.snapshot == Some(true) && stopped_early {
            if let Some(node) = pending {
                frontier.push(node);
            }
            if frontier.is_empty() {
                None
            } else {
                Some(Arc::new(self.capture_snapshot(
                    frontier,
                    &incumbent,
                    stats.nodes,
                    root_bound,
                    snapshot_pruned,
                )))
            }
        } else {
            None
        };
        stats.snapshot_captured = snapshot.is_some();

        match incumbent {
            Some((obj, values)) => {
                let status = if interrupted {
                    Status::Interrupted
                } else if limit_reached {
                    Status::Feasible
                } else {
                    Status::Optimal
                };
                stats.gap = if status == Status::Optimal {
                    0.0
                } else {
                    ((obj - best_bound_internal).max(0.0)) / obj.abs().max(1.0)
                };
                let external_obj = self.sense_factor * obj;
                Ok(Solution::new(status, values, external_obj, stats).with_snapshot(snapshot))
            }
            None => {
                let status = if interrupted {
                    Status::Interrupted
                } else if limit_reached {
                    Status::Unknown
                } else {
                    Status::Infeasible
                };
                stats.gap = f64::INFINITY;
                Ok(Solution::without_values(status, stats).with_snapshot(snapshot))
            }
        }
    }

    /// Captures the open search state as a [`SolveSnapshot`], moving the
    /// frontier into it. `frontier` already contains the node that was in
    /// hand when the stop was detected, so the restored frontier pops it
    /// first.
    fn capture_snapshot(
        &self,
        frontier: Vec<Node>,
        incumbent: &Option<(f64, Vec<f64>)>,
        nodes: u64,
        root_bound: f64,
        pruned_bound_min: f64,
    ) -> SolveSnapshot {
        SolveSnapshot {
            fingerprint: self.base_fingerprint,
            num_vars: self.model.num_vars(),
            nodes,
            frontier,
            incumbent: incumbent.clone(),
            root_bound,
            pruned_bound_min,
            last_bound_emitted: self.last_bound_emitted,
            tree_separations_left: self.tree_separations_left,
            eager_separation: self.eager_separation,
            cuts: self.cut_rows.clone(),
            pseudo: self.pseudo.clone(),
        }
    }

    /// The one door to the incumbent: `values` replaces it when it is
    /// feasible and its objective is strictly better. An improvement is
    /// logged into the stats (external objective sense) so callers can
    /// compute time-to-target metrics and attribute the incumbent to
    /// `source`, the layer that produced it, and is streamed to any
    /// attached event sink.
    fn offer_incumbent(
        &mut self,
        values: Vec<f64>,
        source: &'static str,
        incumbent: &mut Option<(f64, Vec<f64>)>,
        stats: &mut SolveStats,
        start: Instant,
    ) {
        if !self.model.is_feasible(&values, 1e-6) {
            return;
        }
        let internal_obj = self.internal_objective(&values);
        let improves = incumbent
            .as_ref()
            .is_none_or(|(best, _)| internal_obj < *best);
        if !improves {
            return;
        }
        *incumbent = Some((internal_obj, values));
        let objective = self.sense_factor * internal_obj;
        stats.improvements.push(crate::solution::Improvement {
            nodes: stats.nodes,
            seconds: start.elapsed().as_secs_f64(),
            objective,
            source,
        });
        self.emit(SolveEvent::Incumbent {
            nodes: stats.nodes,
            objective,
        });
    }

    fn internal_objective(&self, values: &[f64]) -> f64 {
        self.objective_constant
            + self
                .objective
                .iter()
                .zip(values)
                .map(|(c, v)| c * v)
                .sum::<f64>()
    }

    fn limits_exceeded(&self, start: Instant, stats: &SolveStats) -> bool {
        self.config.budget.nodes_exhausted(stats.nodes) || self.config.budget.time_expired(start)
    }

    /// Objective bound over the box: every variable at its cheapest bound.
    fn propagation_bound(&self, domains: &Domains) -> f64 {
        let mut bound = self.objective_constant;
        for (j, &c) in self.objective.iter().enumerate() {
            bound += if c >= 0.0 {
                c * domains.lower(j)
            } else {
                c * domains.upper(j)
            };
        }
        bound
    }

    /// Rounds a dual bound up to the next integer when the objective is
    /// provably integer-valued ([`Self::integral_objective`]); the small
    /// slack absorbs LP round-off so a bound sitting *on* an integer is
    /// never pushed past it.
    fn strengthen_bound(&self, value: f64) -> f64 {
        if self.integral_objective && value.is_finite() {
            (value - 1e-6).ceil()
        } else {
            value
        }
    }

    fn use_lp_at(&self, depth: usize) -> bool {
        match self.config.bound_mode {
            BoundMode::LpRelaxation => true,
            BoundMode::Hybrid { lp_depth } => depth <= lp_depth,
        }
    }

    fn node_bound(
        &mut self,
        node: &mut Node,
        stats: &mut SolveStats,
        incumbent: &mut Option<(f64, Vec<f64>)>,
        start: Instant,
    ) -> NodeBound {
        // Eager (chained, roomy-budget) solves carry the integral ceiling on
        // the node bound itself: the staircase values prove optimality
        // faster but pollute pseudo-cost degradation learning, so
        // exploratory solves keep the smooth LP value and only strengthen at
        // prune points.
        let prop_bound = if self.eager_separation {
            self.strengthen_bound(self.propagation_bound(&node.domains))
        } else {
            self.propagation_bound(&node.domains)
        };
        if !self.use_lp_at(node.depth) {
            return NodeBound::Bound {
                value: prop_bound,
                lp: None,
            };
        }
        // A node that carries its LP (the root, from the cut loop) takes it
        // instead of repeating the most expensive LP of the tree.
        let lp = match node.lp.take() {
            Some(lp) => lp,
            None => match self.solve_node_lp(node, stats) {
                SolvedNodeLp::Infeasible => return NodeBound::Infeasible,
                SolvedNodeLp::NoBound => {
                    return NodeBound::Bound {
                        value: prop_bound,
                        lp: None,
                    }
                }
                SolvedNodeLp::Optimal(lp) => lp,
            },
        };
        // If the relaxation happens to be integral it is a feasible 0-1
        // solution; use it to tighten the incumbent.
        if let Some(values) = rounded_if_integral(&lp.values) {
            self.offer_incumbent(values, "node-lp", incumbent, stats, start);
        } else if node.depth <= 2 {
            // Try an LP-guided rounding heuristic near the top of the tree,
            // where it is most likely to pay off.
            if let Some(values) =
                round_and_repair(&self.propagator, &node.domains, &lp.values, &self.objective)
            {
                self.offer_incumbent(values, "rounding", incumbent, stats, start);
            }
        }
        let value = if self.eager_separation {
            self.strengthen_bound(lp.objective).max(prop_bound)
        } else {
            lp.objective.max(prop_bound)
        };
        NodeBound::Bound {
            value,
            lp: Some(lp),
        }
    }

    /// Solves the LP relaxation of a node, warm from the parent's basis when
    /// it has one (see [`Self::relaxation`]).
    fn solve_node_lp(&self, node: &Node, stats: &mut SolveStats) -> SolvedNodeLp {
        let (lp, basis) = self.relaxation(
            node.parent_basis.as_deref(),
            Cold::NoParentBasis,
            &node.domains,
            stats,
        );
        match lp.status {
            LpStatus::Infeasible => SolvedNodeLp::Infeasible,
            LpStatus::Optimal => SolvedNodeLp::Optimal(NodeLp::new(lp, basis)),
            LpStatus::Unbounded | LpStatus::IterationLimit => SolvedNodeLp::NoBound,
        }
    }

    /// Solves the LP relaxation over `domains`. With a `parent` basis —
    /// extended over any cut rows appended since it was stored — this is a
    /// dual-simplex re-solve; a cold solve takes over when there is no
    /// parent basis (counted as `missing`), when the basis is unusable, or
    /// when the re-solve overruns its budget. Returns the solution and, at
    /// optimality, its basis.
    fn relaxation(
        &self,
        parent: Option<&Basis>,
        missing: Cold,
        domains: &Domains,
        stats: &mut SolveStats,
    ) -> (LpSolution, Option<Basis>) {
        let Some(parent) = parent else {
            return self.cold_lp(domains, missing, stats);
        };
        let matrix = self.propagator.matrix();
        let extended;
        let basis = if parent.rows() < matrix.num_rows() {
            match parent.extended(matrix, &self.objective, self.objective_constant) {
                Some(basis) => {
                    extended = basis;
                    &extended
                }
                None => return self.cold_lp(domains, Cold::UnusableBasis, stats),
            }
        } else {
            parent
        };
        // A dual re-solve is only worth it while it stays *incremental*: a
        // child whose propagation/fixing moved half the bounds is re-solving
        // from scratch, and the primal does that better. Budget the warm
        // path at a small multiple of the expected incremental work and let
        // an overrun fall through to a cold solve.
        let warm_budget = self
            .config
            .max_lp_pivots
            .min(128 + matrix.num_rows() as u64 / 4);
        let Some((lp, next)) = resolve_with_basis(
            matrix,
            &self.objective,
            self.objective_constant,
            basis,
            domains,
            warm_budget,
        ) else {
            return self.cold_lp(domains, Cold::UnusableBasis, stats);
        };
        tally_lp(stats, &lp);
        match lp.status {
            LpStatus::Infeasible | LpStatus::Optimal => {
                stats.lp_solves += 1;
                stats.warm_lp_solves += 1;
                (lp, next)
            }
            // A re-solve that hits its budget is abandoned (its pivots were
            // counted above).
            LpStatus::Unbounded | LpStatus::IterationLimit => {
                self.cold_lp(domains, Cold::OverBudget, stats)
            }
        }
    }

    /// A cold LP solve over `domains`, counted under `reason`.
    fn cold_lp(
        &self,
        domains: &Domains,
        reason: Cold,
        stats: &mut SolveStats,
    ) -> (LpSolution, Option<Basis>) {
        let (lp, basis) = solve_lp_basis(
            self.propagator.matrix(),
            &self.objective,
            self.objective_constant,
            domains,
            self.config.max_lp_pivots,
        );
        stats.lp_solves += 1;
        tally_lp(stats, &lp);
        let counts = &mut stats.cold_lp;
        *match reason {
            Cold::Root => &mut counts.root,
            Cold::NoParentBasis => &mut counts.no_parent_basis,
            Cold::UnusableBasis => &mut counts.unusable_basis,
            Cold::OverBudget => &mut counts.over_budget,
        } += 1;
        (lp, basis)
    }

    /// Picks the branching variable by pseudo-cost (reliability) branching:
    /// maximise the product of the estimated up/down dual-bound
    /// degradations, where a variable's estimate is its average observed
    /// degradation per unit of fractionality; unobserved variables are
    /// initialised at shallow depth by strong branching (both child LPs
    /// solved warm from the node's basis under a small pivot budget). Nodes
    /// without LP values (propagation bounds alone), or whose LP point is
    /// integral on every candidate, branch on the most constrained variable.
    /// `factor` is the node basis' factor if separation already built it.
    fn select_branch_var<'b>(
        &mut self,
        node: &Node,
        lp: Option<&'b NodeLp>,
        factor: Option<Factor<'b>>,
        stats: &mut SolveStats,
    ) -> Option<usize> {
        let domains = &node.domains;
        let candidates: Vec<usize> = (0..domains.len())
            .filter(|&j| !domains.is_fixed(j))
            .collect();
        if candidates.is_empty() {
            return None;
        }
        let most_constrained = |cands: &[usize]| {
            cands
                .iter()
                .copied()
                .max_by_key(|&j| (self.occurrence[j], usize::MAX - j))
        };
        let Some(lp) = lp else {
            // Nodes bounded by propagation alone carry no LP point to learn
            // from; use the static structural rule.
            return most_constrained(&candidates);
        };
        let fractional: Vec<(usize, f64)> = candidates
            .iter()
            .copied()
            .filter(|&j| (lp.values[j] - lp.values[j].round()).abs() > INT_EPS)
            .map(|j| (j, lp.values[j]))
            .collect();
        if fractional.is_empty() {
            return most_constrained(&candidates);
        }
        // Reliability pass: at shallow depth, seed the pseudo-costs of
        // unobserved fractional candidates by strong branching (both child
        // LPs, warm from this node's basis). Every probe starts from one
        // factorization of that basis.
        if node.depth <= STRONG_DEPTH {
            let mut unreliable: Vec<usize> = fractional
                .iter()
                .map(|&(j, _)| j)
                .filter(|&j| self.pseudo.observations(j) < RELIABILITY)
                .collect();
            unreliable.sort_by_key(|&j| (usize::MAX - self.occurrence[j], j));
            unreliable.truncate(STRONG_CANDIDATES);
            let factor = if unreliable.is_empty() {
                None
            } else {
                factor.or_else(|| lp.basis.as_deref().and_then(|basis| self.factor(basis)))
            };
            if let Some(factor) = factor {
                let mut probed = false;
                for j in unreliable {
                    probed |= self.strong_branch(&factor, &node.domains, j, lp, stats);
                }
                if probed {
                    stats.lp_basis_refactorizations += 1;
                }
            }
        }
        fractional
            .into_iter()
            .map(|(j, v)| {
                let f = v - v.floor();
                let down = self.pseudo.estimate(j, false) * f.max(INT_EPS);
                let up = self.pseudo.estimate(j, true) * (1.0 - f).max(INT_EPS);
                (j, down.max(1e-9) * up.max(1e-9))
            })
            .max_by(|a, b| {
                a.1.partial_cmp(&b.1)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    // Ties break towards the smaller variable index.
                    .then_with(|| b.0.cmp(&a.0))
            })
            .map(|(j, _)| j)
    }

    /// Strong-branches variable `j` at an LP node: solves both child LPs
    /// warm from the node's factored basis under a small pivot budget and
    /// records the observed per-unit degradations as pseudo-cost
    /// observations. Returns whether any child LP ran: none does when cuts
    /// installed at this node outdated the basis.
    fn strong_branch(
        &mut self,
        factor: &Factor,
        domains: &Domains,
        j: usize,
        lp: &NodeLp,
        stats: &mut SolveStats,
    ) -> bool {
        let mut probed = false;
        let v = lp.values[j];
        let floor = v.floor();
        for up in [false, true] {
            let mut child = domains.clone();
            let tightened = if up {
                child.tighten_lower(j, floor + 1.0)
            } else {
                child.tighten_upper(j, floor)
            };
            if !tightened || child.is_infeasible() {
                continue;
            }
            let Some((child_lp, _)) = factor.resolve(
                self.propagator.matrix(),
                &self.objective,
                self.objective_constant,
                &child,
                STRONG_PIVOTS,
            ) else {
                continue;
            };
            probed = true;
            stats.lp_solves += 1;
            tally_lp(stats, &child_lp);
            stats.strong_branch_solves += 1;
            let step = if up {
                (floor + 1.0 - v).max(INT_EPS)
            } else {
                (v - floor).max(INT_EPS)
            };
            match child_lp.status {
                LpStatus::Optimal => {
                    let degradation = ((child_lp.objective - lp.objective) / step).max(0.0);
                    self.pseudo.record(j, up, degradation);
                }
                LpStatus::Infeasible => self.pseudo.record(j, up, INFEASIBLE_DEGRADATION),
                LpStatus::Unbounded | LpStatus::IterationLimit => {}
            }
        }
        probed
    }

    /// Pushes the two children of `node` that fix the unfixed binary `j`
    /// at 0 and at 1, the preferred one last so depth-first search explores
    /// it first: the side the LP value leans to or, without an LP, the
    /// objective-cheaper one.
    fn push_children(&self, frontier: &mut Vec<Node>, node: &Node, j: usize, lp: Option<&NodeLp>) {
        debug_assert!(node.domains.lower(j) == 0.0 && node.domains.upper(j) == 1.0);
        let v_lp = lp.map(|l| l.values[j]);
        let parent_basis = lp.and_then(|l| l.basis.as_ref());
        let preferred = match v_lp {
            Some(v) if v >= 0.5 => 1.0,
            Some(_) => 0.0,
            None if self.objective[j] >= 0.0 => 0.0,
            None => 1.0,
        };
        for value in [1.0 - preferred, preferred] {
            let branch_up = value == 1.0;
            let branch_step = v_lp
                .map(|v| if branch_up { 1.0 - v } else { v }.max(0.0))
                .unwrap_or(0.0);
            let mut domains = node.domains.clone();
            if domains.fix(j, value) {
                frontier.push(Node {
                    domains,
                    depth: node.depth + 1,
                    bound: node.bound,
                    branched: Some(j),
                    parent_basis: parent_basis.cloned(),
                    lp: None,
                    parent_bound_is_lp: lp.is_some(),
                    branch_up,
                    branch_step,
                });
            }
        }
    }
}

/// Reduced-cost bound fixing: with incumbent objective `incumbent_obj` and
/// an optimal node LP of objective `lp_objective`, any solution moving
/// variable `j` a further `t` integer steps off the bound it sits on costs
/// at least `lp_objective + rc·t`; steps that push this above the
/// improvement cutoff can be cut. Returns the tightened variable indices
/// (to seed the propagation worklist).
fn reduced_cost_fixing(
    domains: &mut Domains,
    lp_objective: f64,
    rc: &ReducedCosts,
    lp_values: &[f64],
    incumbent_obj: f64,
) -> Vec<usize> {
    let mut changed = Vec::new();
    // Matches the node pruning cutoff: only solutions strictly better than
    // `incumbent_obj - EPS` are still searched for.
    let budget = incumbent_obj - EPS - lp_objective;
    if !budget.is_finite() || budget <= 0.0 {
        return changed;
    }
    #[allow(clippy::needless_range_loop)]
    for j in 0..domains.len() {
        if domains.is_fixed(j) {
            continue;
        }
        let lower = domains.lower(j);
        let upper = domains.upper(j);
        let up_cost = rc.up[j];
        if up_cost > EPS && (lp_values[j] - lower).abs() <= 1e-6 {
            let allowed_steps = (budget / up_cost + INT_EPS).floor();
            let new_upper = lower + allowed_steps;
            if new_upper < upper - 0.5 && domains.tighten_upper(j, new_upper) {
                changed.push(j);
                continue;
            }
        }
        let down_cost = rc.down[j];
        if down_cost > EPS && (lp_values[j] - upper).abs() <= 1e-6 {
            let allowed_steps = (budget / down_cost + INT_EPS).floor();
            let new_lower = upper - allowed_steps;
            if new_lower > lower + 0.5 && domains.tighten_lower(j, new_lower) {
                changed.push(j);
            }
        }
    }
    changed
}

/// The LP relaxation solved at a node, as consumed by reduced-cost fixing,
/// cut separation, branching and child creation.
#[derive(Debug, Clone)]
pub(crate) struct NodeLp {
    /// Optimal LP objective (minimisation sense).
    pub(crate) objective: f64,
    /// Optimal LP point over the original variables.
    pub(crate) values: Vec<f64>,
    /// Reduced costs at optimality.
    pub(crate) reduced_costs: Option<ReducedCosts>,
    /// The optimal basis, which the node's children inherit.
    pub(crate) basis: Option<Arc<Basis>>,
}

impl NodeLp {
    /// An optimal relaxation `lp` with its `basis`.
    fn new(lp: LpSolution, basis: Option<Basis>) -> Self {
        Self {
            objective: lp.objective,
            values: lp.values,
            reduced_costs: lp.reduced_costs,
            basis: basis.map(Arc::new),
        }
    }
}

enum NodeBound {
    Infeasible,
    Bound { value: f64, lp: Option<NodeLp> },
}

/// Outcome of [`BranchAndBound::solve_node_lp`].
enum SolvedNodeLp {
    /// The relaxation is infeasible (the node can be discarded).
    Infeasible,
    /// No usable LP bound (unbounded relaxation or pivot budget exhausted);
    /// the caller falls back to the propagation bound.
    NoBound,
    /// The relaxation solved to optimality.
    Optimal(NodeLp),
}

/// Why an LP is solved cold; each maps to one [`crate::ColdLpCounts`]
/// field.
#[derive(Debug, Clone, Copy)]
enum Cold {
    Root,
    NoParentBasis,
    UnusableBasis,
    OverBudget,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Model;

    fn exact_configs() -> Vec<SolverConfig> {
        vec![
            SolverConfig::exact(),
            SolverConfig::exact().with_bound_mode(BoundMode::Hybrid { lp_depth: 0 }),
            SolverConfig::exact().with_bound_mode(BoundMode::Hybrid { lp_depth: 2 }),
        ]
    }

    #[test]
    fn knapsack_is_solved_optimally_by_all_strategies() {
        // max 6a + 5b + 4c  s.t. 3a + 2b + 2c <= 4 => best is b + c = 9.
        let mut m = Model::new("knap");
        let a = m.add_binary("a");
        let b = m.add_binary("b");
        let c = m.add_binary("c");
        m.add_leq([(a, 3.0), (b, 2.0), (c, 2.0)], 4.0, "cap");
        m.set_objective([(a, 6.0), (b, 5.0), (c, 4.0)], Sense::Maximize);
        for config in exact_configs() {
            let sol = m.solve(&config).expect("solve");
            assert!(sol.is_optimal(), "config {config:?}");
            assert!((sol.objective() - 9.0).abs() < 1e-6, "config {config:?}");
            assert!(!sol.is_one(a));
            assert!(sol.is_one(b));
            assert!(sol.is_one(c));
        }
    }

    #[test]
    fn set_cover_minimisation() {
        // Cover {1,2,3} with sets A={1,2}(3), B={2,3}(3), C={1,3}(3), D={1,2,3}(5).
        // Optimal: D alone costs 5, any two of A/B/C cost 6 => D wins.
        let mut m = Model::new("cover");
        let a = m.add_binary("a");
        let b = m.add_binary("b");
        let c = m.add_binary("c");
        let d = m.add_binary("d");
        m.add_geq([(a, 1.0), (c, 1.0), (d, 1.0)], 1.0, "e1");
        m.add_geq([(a, 1.0), (b, 1.0), (d, 1.0)], 1.0, "e2");
        m.add_geq([(b, 1.0), (c, 1.0), (d, 1.0)], 1.0, "e3");
        m.set_objective([(a, 3.0), (b, 3.0), (c, 3.0), (d, 5.0)], Sense::Minimize);
        for config in exact_configs() {
            let sol = m.solve(&config).expect("solve");
            assert!(sol.is_optimal());
            assert!((sol.objective() - 5.0).abs() < 1e-6);
            assert!(sol.is_one(d));
        }
    }

    #[test]
    fn search_layer_counters_are_recorded() {
        // A model that needs real branching at LP bound mode: every
        // search-layer counter must be populated coherently.
        let mut m = Model::new("counters");
        let vars: Vec<_> = (0..10).map(|i| m.add_binary(format!("x{i}"))).collect();
        for w in vars.windows(3).step_by(2) {
            m.add_geq(w.iter().map(|&v| (v, 1.0)).collect::<Vec<_>>(), 2.0, "need");
        }
        m.add_leq(
            vars.iter()
                .enumerate()
                .map(|(i, &v)| (v, 1.0 + (i % 3) as f64))
                .collect::<Vec<_>>(),
            11.0,
            "cap",
        );
        m.set_objective(
            vars.iter()
                .enumerate()
                .map(|(i, &v)| (v, 1.0 + (i % 4) as f64))
                .collect::<Vec<_>>(),
            Sense::Minimize,
        );
        let config = SolverConfig::exact().with_cuts(false);
        let sol = BranchAndBound::new(&m, config).run().expect("solve");
        assert!(sol.is_optimal());
        let stats = sol.stats();
        // Without a cut loop the root node is the one node without a
        // parent basis.
        assert_eq!(stats.cold_lp.no_parent_basis, 1);
        assert_eq!(stats.cold_lp.root, 0);
        assert_eq!(
            stats.cold_lp.total(),
            stats.lp_solves - stats.warm_lp_solves - stats.strong_branch_solves
        );
    }

    #[test]
    fn infeasible_model_is_detected() {
        let mut m = Model::new("bad");
        let x = m.add_binary("x");
        let y = m.add_binary("y");
        m.add_geq([(x, 1.0), (y, 1.0)], 3.0, "impossible");
        m.set_objective([(x, 1.0)], Sense::Minimize);
        let sol = m.solve(&SolverConfig::exact()).expect("solve");
        assert_eq!(sol.status(), Status::Infeasible);
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn equality_assignment_problem() {
        // 3 tasks, 3 machines, permutation with cost matrix; optimal = 1+2+1 = 4
        let costs = [[1.0, 4.0, 5.0], [3.0, 2.0, 7.0], [1.0, 3.0, 4.0]];
        // optimal assignment: t0->m0 (1), t1->m1 (2), t2->?? m2 (4) = 7
        // or t0->m2(5), t1->m1(2), t2->m0(1) = 8; or t0->m0(1), t1->m1(2), t2->m2(4)=7
        // best is 7.
        let mut m = Model::new("assign");
        let mut x = Vec::new();
        for t in 0..3 {
            let row: Vec<_> = (0..3).map(|j| m.add_binary(format!("x{t}{j}"))).collect();
            m.add_eq(
                row.iter().map(|&v| (v, 1.0)).collect::<Vec<_>>(),
                1.0,
                format!("task{t}"),
            );
            x.push(row);
        }
        for j in 0..3 {
            m.add_leq(
                (0..3).map(|t| (x[t][j], 1.0)).collect::<Vec<_>>(),
                1.0,
                format!("mach{j}"),
            );
        }
        let obj: Vec<_> = (0..3)
            .flat_map(|t| (0..3).map(move |j| (t, j)))
            .map(|(t, j)| (x[t][j], costs[t][j]))
            .collect();
        m.set_objective(obj, Sense::Minimize);
        for config in exact_configs() {
            let sol = m.solve(&config).expect("solve");
            assert!(sol.is_optimal());
            assert!(
                (sol.objective() - 7.0).abs() < 1e-6,
                "got {}",
                sol.objective()
            );
        }
    }

    #[test]
    fn warm_start_is_used() {
        let mut m = Model::new("warm");
        let x = m.add_binary("x");
        let y = m.add_binary("y");
        m.add_geq([(x, 1.0), (y, 1.0)], 1.0, "c");
        m.set_objective([(x, 1.0), (y, 2.0)], Sense::Minimize);
        let config = SolverConfig::exact().with_warm_candidate(vec![1.0, 0.0]);
        let sol = m.solve(&config).expect("solve");
        assert!(sol.is_optimal());
        assert!((sol.objective() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn node_limit_yields_feasible_or_unknown() {
        let (m, _) = odd_cycle_cover();
        // Root Gomory rounds would close the cycles; without them the root
        // LP stays fractional and the one-node budget stops the search.
        let config = SolverConfig {
            budget: Budget::nodes(1),
            bound_mode: BoundMode::Hybrid { lp_depth: 0 },
            cuts: false,
            ..SolverConfig::default()
        };
        let sol = m.solve(&config).expect("solve");
        assert!(matches!(sol.status(), Status::Feasible | Status::Unknown));
        assert!(sol.stats().limit_reached || sol.status() == Status::Feasible);
    }

    #[test]
    fn a_model_without_variables_solves_at_its_objective_constant() {
        // Nothing to branch on: the objective constant is the optimum, both
        // through the reduce-first solve and through a raw search.
        for sense in [Sense::Minimize, Sense::Maximize] {
            let mut m = Model::new("constant");
            m.set_objective(crate::LinExpr::constant(7.0), sense);
            for config in exact_configs() {
                let sol = m.solve(&config).expect("solve");
                assert_eq!(sol.status(), Status::Optimal, "{sense:?}");
                assert_eq!(sol.objective(), 7.0, "{sense:?}");
                let raw = BranchAndBound::new(&m, config).run().expect("raw solve");
                assert_eq!(raw.status(), Status::Optimal, "{sense:?}");
                assert_eq!(raw.objective(), 7.0, "{sense:?}");
                assert!(raw.values().is_empty());
            }
        }
    }

    /// Weighted vertex covers of three disjoint 5-cycles. The root LP puts
    /// one half on every vertex, so a search without cuts has to branch,
    /// and covering every vertex is a known feasible warm start — the
    /// fixture for the node-limit, cancellation and deadline tests.
    fn odd_cycle_cover() -> (Model, Vec<f64>) {
        let mut m = Model::new("odd-cycles");
        let vars: Vec<_> = (0..15).map(|i| m.add_binary(format!("x{i}"))).collect();
        for cycle in vars.chunks(5) {
            for (i, &v) in cycle.iter().enumerate() {
                m.add_geq([(v, 1.0), (cycle[(i + 1) % 5], 1.0)], 1.0, "edge");
            }
        }
        m.set_objective(
            vars.iter()
                .enumerate()
                .map(|(i, &v)| (v, 1.0 + 0.1 * (i % 3) as f64))
                .collect::<Vec<_>>(),
            Sense::Minimize,
        );
        let warm = vec![1.0; vars.len()];
        assert!(m.is_feasible(&warm, 1e-6));
        (m, warm)
    }

    #[test]
    fn node_triggered_cancellation_stops_deterministically_with_incumbent() {
        let (m, warm) = odd_cycle_cover();
        // LP bounds at the root only keep the tree deep enough to cancel
        // into.
        let config = SolverConfig::exact()
            .with_bound_mode(BoundMode::Hybrid { lp_depth: 0 })
            .with_cuts(false)
            .with_warm_candidate(warm.clone());
        let optimal = BranchAndBound::new(&m, config.clone())
            .run()
            .expect("reference solve");
        assert!(optimal.is_optimal());
        assert!(
            optimal.stats().nodes > 3,
            "fixture too easy: {} nodes",
            optimal.stats().nodes
        );

        // The observer raises the token at the third node milestone; the
        // loop notices at the next pop, so exactly 3 nodes are explored —
        // no sleeps, no wall-clock, fully deterministic.
        let token = CancelToken::new();
        let observer_token = token.clone();
        let mut observer = move |event: &SolveEvent| {
            if let SolveEvent::NodeMilestone { nodes, .. } = event {
                if *nodes >= 3 {
                    observer_token.cancel();
                }
            }
        };
        let sol = BranchAndBound::new(&m, config.with_cancel(token.clone()))
            .with_event_sink(&mut observer)
            .run()
            .expect("cancelled solve");
        assert!(token.is_cancelled());
        assert_eq!(sol.status(), Status::Interrupted);
        assert_eq!(sol.stats().nodes, 3);
        assert!(sol.stats().limit_reached);
        // The best incumbent seen so far (at least the warm start) survives.
        assert!(sol.is_feasible());
        assert!(!sol.values().is_empty());
        assert!(m.is_feasible(sol.values(), 1e-6));
        assert!(sol.objective() >= optimal.objective() - 1e-9);
    }

    #[test]
    fn pre_cancelled_token_interrupts_before_any_node() {
        // Through `Model::solve`, which always reduces first: the token
        // installed in the outer config must reach the reduced model's
        // search.
        let (m, _) = odd_cycle_cover();
        let token = CancelToken::new();
        token.cancel();
        let config = SolverConfig::exact().with_cancel(token);
        let sol = m.solve(&config).expect("solve");
        assert_eq!(sol.status(), Status::Interrupted);
        assert_eq!(sol.stats().nodes, 0);
    }

    #[test]
    fn expired_deadline_returns_without_descending_past_the_root() {
        let (m, warm) = odd_cycle_cover();
        let config = SolverConfig::exact()
            .with_cuts(false)
            .with_budget(Budget::unlimited().with_deadline(Instant::now()))
            .with_warm_candidate(warm.clone());
        let sol = BranchAndBound::new(&m, config).run().expect("solve");
        // The warm incumbent is kept, but the tree is never entered: no
        // nodes, no LPs, no cut rounds.
        assert_eq!(sol.stats().nodes, 0);
        assert_eq!(sol.stats().lp_solves, 0);
        assert_eq!(sol.stats().cuts_emitted.total(), 0);
        assert!(sol.stats().limit_reached);
        assert_eq!(sol.status(), Status::Feasible);
        assert_eq!(sol.values(), &warm[..]);

        // Without a warm start nothing is known at all.
        let bare = SolverConfig::exact()
            .with_cuts(false)
            .with_budget(Budget::unlimited().with_deadline(Instant::now()));
        let sol = BranchAndBound::new(&m, bare).run().expect("solve");
        assert_eq!(sol.stats().nodes, 0);
        assert_eq!(sol.status(), Status::Unknown);
    }

    #[test]
    fn maximisation_sign_handling_in_stats() {
        let mut m = Model::new("max");
        let x = m.add_binary("x");
        m.set_objective([(x, 10.0)], Sense::Maximize);
        let sol = m.solve(&SolverConfig::exact()).expect("solve");
        assert!(sol.is_optimal());
        assert!((sol.objective() - 10.0).abs() < 1e-9);
        assert!((sol.stats().best_bound - 10.0).abs() < 1e-6);
    }
}
