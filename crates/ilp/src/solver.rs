//! Branch-and-bound solver for mixed 0-1 / integer linear programs.
//!
//! The solver explores a binary search tree over the integral variables. At
//! every node it runs bound propagation, computes a dual (lower) bound —
//! either from the LP relaxation, from the objective over the propagated box,
//! or a depth-dependent hybrid of the two — and prunes nodes that cannot beat
//! the incumbent. A greedy propagation-repaired dive supplies an early
//! incumbent, which matters a great deal for the highly constrained BIST
//! assignment models this crate was written for.
//!
//! The search layer on top of that skeleton:
//!
//! * **Depth-first node order** — open nodes live on a stack, and the
//!   preferred child of every branching is explored first.
//! * **Warm-started node LPs** — each LP node's optimal [`Basis`] is cached
//!   (bounded to the most recent nodes, i.e. the active DFS spine) and
//!   children re-solve with the dual simplex from it instead of running
//!   two-phase primal from scratch; chains re-factorise cold after a
//!   bounded number of re-solves, and a miss falls back to a cold solve.
//! * **Pseudo-cost / reliability branching** (Achterberg, Koch & Martin,
//!   "Branching rules revisited") with strong-branching initialisation at
//!   shallow depth, learning per-variable dual-bound degradations from
//!   every branching; nodes without LP values branch on the most
//!   constrained variable instead.
//! * **Reduced-cost bound fixing** — at LP nodes with an incumbent, duals
//!   prove some integral variables cannot leave their bound in any
//!   improving solution; the tightened bounds feed the propagation
//!   worklist.

use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::cuts::{nogood_from_fixings, CutGenerator, CutKind, CutRow};
use crate::error::IlpError;
use crate::heuristics::{greedy_dive, round_and_repair};
use crate::model::{CmpOp, Model, Sense};
use crate::propagate::{Domains, PropagationResult, Propagator};
use crate::session::{Budget, CancelToken, SolveEvent};
use crate::simplex::{
    gomory_cuts, instance_fingerprint, resolve_with_basis, solve_lp_basis, Basis, LpSolution,
    LpStatus, ReducedCosts,
};
use crate::snapshot::{PseudoSnapshot, RootLpSnapshot, SnapshotNode, SolveSnapshot};
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
/// Capacity of the node-basis cache. Bases are only kept for the most
/// recently solved LP nodes, which under depth-first search is the active
/// DFS spine (a child is popped right after its parent). A revised-simplex
/// [`Basis`] is statuses plus an
/// eta file, and the eta file is not small: paulin's warm bases carry
/// ~21.5k eta terms, about 340 KB each, so the cap bounds memory as well as
/// lookup cost. A miss (a DFS backtrack past the cached spine) costs a cold
/// node LP.
const BASIS_CACHE_CAP: usize = 6;
/// Maximum dual-simplex re-solves chained off one cold factorisation
/// before the node re-factorises (cold-solves) to flush the eta file's
/// accumulated rounding error.
const BASIS_MAX_AGE: u32 = 24;
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
/// Longest no-good (term count) worth learning: a conflict touching half
/// the model excludes a vanishing fraction of the search space.
const NOGOOD_MAX_TERMS: usize = 24;
/// Learned no-goods are batched and installed together once this many are
/// pending, so one matrix rebuild (which invalidates every cached basis)
/// amortises over several conflicts.
const NOGOOD_FLUSH: usize = 8;

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

/// How dual bounds are computed at branch-and-bound nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundMode {
    /// Objective bound over the propagated variable box only. Cheapest, and
    /// surprisingly effective on the assignment-heavy BIST models, but the
    /// weakest bound.
    Propagation,
    /// Solve the LP relaxation at every node. Strongest bound, most work.
    LpRelaxation,
    /// Solve the LP relaxation at nodes of depth `lp_depth` or shallower and
    /// fall back to the propagation bound deeper in the tree.
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
    /// Run the reducing presolve pipeline ([`crate::reduce`]) and solve the
    /// reduced model instead of the raw one (solutions are lifted back
    /// transparently). On by default.
    pub presolve: bool,
    /// Keep a cut pool ([`crate::cuts`]): Gomory mixed-integer cuts read
    /// off the optimal basis in the root loop and at shallow nodes, and
    /// conflict no-goods learned from infeasible subtrees. On by default.
    /// Gomory cuts need LP bases, so under [`BoundMode::Propagation`] only
    /// no-goods are learned.
    pub cuts: bool,
    /// Run shallow in-tree Gomory rounds from the first descent instead of
    /// waiting for the node counter to mature. Off by default: early extra
    /// rows perturb degenerate vertex selection and with it pseudo-cost
    /// learning, which blows up the trees of quickly-solved instances. The
    /// synthesis engine enables it for chained sweep solves, where the k−1
    /// incumbent anchors the search and early tightening only prunes.
    pub eager_tree_cuts: bool,
    /// Capture a resumable [`SolveSnapshot`] of the open tree whenever the
    /// search stops early (cancellation, node budget, time budget or
    /// deadline). Off by default: capture clones the open frontier, the
    /// basis cache and the pseudo-cost tables, so plain solves should not
    /// pay for it. When a snapshot was captured it travels on the returned
    /// [`Solution`] (see [`Solution::snapshot`]).
    pub snapshot: bool,
    /// Resume a previous solve from a [`SolveSnapshot`] instead of starting
    /// a fresh tree. The snapshot must belong to the same instance (content
    /// fingerprint over matrix and objective); a mismatch fails loudly with
    /// [`IlpError::Snapshot`]. Root preprocessing (warm candidates, dive,
    /// root cuts) is skipped — the restored state already reflects it.
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
            presolve: true,
            cuts: true,
            eager_tree_cuts: false,
            snapshot: false,
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

    /// Builder-style toggle for the reducing presolve.
    pub fn with_presolve(mut self, enabled: bool) -> Self {
        self.presolve = enabled;
        self
    }

    /// Builder-style toggle for the cut pool.
    pub fn with_cuts(mut self, enabled: bool) -> Self {
        self.cuts = enabled;
        self
    }

    /// Builder-style toggle for snapshot capture on early stop.
    pub fn with_snapshot(mut self, enabled: bool) -> Self {
        self.snapshot = enabled;
        self
    }

    /// Builder-style installation of a snapshot to resume from.
    pub fn with_resume(mut self, snapshot: Arc<SolveSnapshot>) -> Self {
        self.resume = Some(snapshot);
        self
    }
}

/// A branch-and-bound node.
#[derive(Debug, Clone)]
struct Node {
    domains: Domains,
    depth: usize,
    /// Dual bound inherited from the parent (minimisation objective).
    bound: f64,
    /// The variable whose bounds were tightened to create this node. The
    /// parent's domains were at a propagation fixpoint, so the child's
    /// propagation can be seeded with just this variable's rows.
    branched: Option<usize>,
    /// Cache key of the parent's optimal LP basis, if it was stored; the
    /// child's LP re-solves from it with the dual simplex on a cache hit.
    parent_basis: Option<u64>,
    /// Whether the inherited `bound` came from an LP relaxation (pseudo-cost
    /// updates only compare LP bounds with LP bounds).
    parent_bound_is_lp: bool,
    /// Whether this child tightened the branched variable upward.
    branch_up: bool,
    /// Distance the branch moved the parent's LP value of the branched
    /// variable (the pseudo-cost normalisation denominator); 0 when the
    /// parent had no LP value.
    branch_step: f64,
    /// Whether the node's whole decision path consists of binary fixings
    /// and carries no incumbent-dependent (reduced-cost) tightenings. Only
    /// such nodes may learn a no-good when refuted by infeasibility: their
    /// box is exactly the propagation closure of the recorded fixings, so
    /// the conflict is valid for the whole tree.
    nogood_ok: bool,
}

/// Serializes an open node as bound deltas against the model's root box.
/// Bit-pattern comparison (not `==`) so a signed-zero tightening still
/// round-trips exactly.
fn snapshot_node(node: &Node, base: &Domains) -> SnapshotNode {
    let deltas = (0..base.len())
        .filter_map(|j| {
            let (lo, hi) = (node.domains.lower(j), node.domains.upper(j));
            (lo.to_bits() != base.lower(j).to_bits() || hi.to_bits() != base.upper(j).to_bits())
                .then_some((j, lo, hi))
        })
        .collect();
    SnapshotNode {
        deltas,
        depth: node.depth,
        bound: node.bound,
        branched: node.branched,
        parent_basis: node.parent_basis,
        parent_bound_is_lp: node.parent_bound_is_lp,
        branch_up: node.branch_up,
        branch_step: node.branch_step,
        nogood_ok: node.nogood_ok,
    }
}

/// Rebuilds an open node from its serialized bound deltas. Bounds are
/// restored verbatim (no re-tightening), so the resumed node's domains are
/// bit-identical to the captured ones.
fn restore_node(snap: &SnapshotNode, base: &Domains) -> Node {
    let mut domains = base.clone();
    for &(j, lo, hi) in &snap.deltas {
        domains.restore_bounds(j, lo, hi);
    }
    Node {
        domains,
        depth: snap.depth,
        bound: snap.bound,
        branched: snap.branched,
        parent_basis: snap.parent_basis,
        parent_bound_is_lp: snap.parent_bound_is_lp,
        branch_up: snap.branch_up,
        branch_step: snap.branch_step,
        nogood_ok: snap.nogood_ok,
    }
}

/// Per-variable pseudo-cost accumulators: average observed dual-bound
/// degradation per unit of fractionality, per branching direction. Fed by
/// real branchings and by strong-branching probes; consulted by
/// [`BranchAndBound::select_branch_var`].
#[derive(Debug, Default)]
struct PseudoCosts {
    up_sum: Vec<f64>,
    up_cnt: Vec<u32>,
    down_sum: Vec<f64>,
    down_cnt: Vec<u32>,
    /// Running direction-wide totals (`[down, up]`), so the global-average
    /// fallback of [`PseudoCosts::estimate`] is O(1) instead of a scan over
    /// every variable.
    global_sum: [f64; 2],
    global_cnt: [u32; 2],
}

impl PseudoCosts {
    fn new(num_vars: usize) -> Self {
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

    fn to_snapshot(&self) -> PseudoSnapshot {
        PseudoSnapshot {
            up_sum: self.up_sum.clone(),
            up_cnt: self.up_cnt.clone(),
            down_sum: self.down_sum.clone(),
            down_cnt: self.down_cnt.clone(),
            global_sum: self.global_sum,
            global_cnt: self.global_cnt,
        }
    }

    fn from_snapshot(snap: &PseudoSnapshot) -> Self {
        Self {
            up_sum: snap.up_sum.clone(),
            up_cnt: snap.up_cnt.clone(),
            down_sum: snap.down_sum.clone(),
            down_cnt: snap.down_cnt.clone(),
            global_sum: snap.global_sum,
            global_cnt: snap.global_cnt,
        }
    }
}

/// The root relaxation the cut loop already solved for the current row set,
/// handed to the root node so the most expensive LP of the tree is not
/// repeated.
struct CachedRootLp {
    objective: f64,
    values: Vec<f64>,
    reduced_costs: Option<ReducedCosts>,
    pivots: u64,
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
    /// Learned no-good cuts awaiting their batched install (see
    /// [`NOGOOD_FLUSH`]); already registered in the generator's dedup pool,
    /// and serialized with snapshots so a resume flushes the same batch.
    pending_cuts: Vec<CutRow>,
    /// Remaining in-tree Gomory rounds at shallow nodes.
    tree_separations_left: usize,
    /// Whether shallow Gomory rounds run from the first descent:
    /// [`SolverConfig::eager_tree_cuts`] was requested *and* a warm-start
    /// candidate actually established the incumbent before the tree opened.
    /// Cold or unseeded solves defer the rounds until the node counter
    /// passes [`TREE_CUT_MIN_NODES`], protecting the quick ones. Serialized
    /// with snapshots so a resume separates on the same schedule.
    eager_separation: bool,
    /// The model's root box *before* propagation: the global bounds every
    /// Gomory cut is unshifted to, so cuts derived at tree nodes stay valid
    /// for the whole tree and for the shared pool.
    root_box: Domains,
    /// Per-variable integrality of the root box (Gomory candidate mask).
    integral_mask: Vec<bool>,
    /// Whether the internal objective can only take integer values (every
    /// nonzero coefficient is an integer on an integral variable, and the
    /// constant is an integer). When true, every dual bound rounds up to
    /// the next integer — the classic integral-objective strengthening,
    /// and on the paper's transistor-count objectives the step that turns
    /// a 0.4-area LP gap into a closed node.
    integral_objective: bool,
    /// Variables that are binary in the root box (integral with bounds
    /// {0, 1}) — the only fixings a learned no-good may mention.
    binary_mask: Vec<bool>,
    /// The last root LP solved by the cut loop, valid for the *current*
    /// matrix; the root node consumes it instead of re-solving the most
    /// expensive LP of the tree.
    root_lp_cache: Option<CachedRootLp>,
    /// Basis stored by the root cut loop for the root node to hand to its
    /// children.
    root_basis_key: Option<u64>,
    /// Recently stored node bases (statuses + eta files), oldest first;
    /// capacity-bounded to keep lookups cheap. Cleared whenever the cut
    /// pool rebuilds the matrix (a basis is only valid for the exact row
    /// set it was factorized from, and the fingerprint check would reject
    /// stale entries anyway).
    basis_cache: Vec<(u64, Rc<Basis>)>,
    next_basis_key: u64,
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
    /// part of the serialized state, not of the instance.
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
        let cut_source = (config.cuts && model.num_integral() > 0).then(CutGenerator::new);
        let num_vars = model.num_vars();
        let root_box = Domains::from_model(model);
        let integral_mask: Vec<bool> = (0..num_vars).map(|j| root_box.is_integral(j)).collect();
        let binary_mask: Vec<bool> = (0..num_vars)
            .map(|j| {
                root_box.is_integral(j) && root_box.lower(j) == 0.0 && root_box.upper(j) == 1.0
            })
            .collect();
        let integral_objective = objective_constant.fract() == 0.0
            && objective
                .iter()
                .enumerate()
                .all(|(j, &c)| c == 0.0 || (c.fract() == 0.0 && integral_mask[j]));
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
            pending_cuts: Vec::new(),
            tree_separations_left: TREE_SEPARATIONS,
            eager_separation: false,
            root_box,
            integral_mask,
            integral_objective,
            binary_mask,
            root_lp_cache: None,
            root_basis_key: None,
            basis_cache: Vec::new(),
            next_basis_key: 0,
            pseudo: PseudoCosts::new(num_vars),
            events: None,
            last_bound_emitted: f64::NEG_INFINITY,
            base_fingerprint,
        }
    }

    /// Streams [`SolveEvent`]s into `sink` during the run. Most callers
    /// attach observers through [`crate::SolveSession`] instead.
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

    /// Looks up a stored basis by its cache key.
    fn cached_basis(&self, key: u64) -> Option<Rc<Basis>> {
        self.basis_cache
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, basis)| Rc::clone(basis))
    }

    /// Stores a basis, evicting the oldest entry once at capacity, and
    /// returns its cache key.
    fn store_basis(&mut self, basis: Basis) -> u64 {
        let key = self.next_basis_key;
        self.next_basis_key += 1;
        if self.basis_cache.len() >= BASIS_CACHE_CAP {
            self.basis_cache.remove(0);
        }
        self.basis_cache.push((key, Rc::new(basis)));
        key
    }

    /// Rebuilds the shared sparse matrix from the model rows plus every
    /// accepted cut, and refreshes the occurrence counts branching reads.
    /// Called whenever the cut pool grows.
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
        // Every stored basis was factorised from the old row set; nodes
        // still pointing at one will miss and re-factorise cold.
        self.basis_cache.clear();
        self.root_basis_key = None;
    }

    /// Reads Gomory mixed-integer cuts off the fractional rows of `basis`,
    /// installs the ones the LP point violates and re-propagates `domains`.
    /// Cuts are unshifted to the *root* box (not the node's), so they are
    /// valid for the whole tree even when derived at a branched node.
    /// Returns `None` when nothing was installed, and otherwise whether the
    /// re-propagated box is still feasible.
    fn install_gomory(
        &mut self,
        basis: &Basis,
        lp_values: &[f64],
        domains: &mut Domains,
        stats: &mut SolveStats,
    ) -> Option<bool> {
        self.cut_source.as_ref()?;
        let candidates = gomory_cuts(
            self.propagator.matrix(),
            &self.objective,
            self.objective_constant,
            basis,
            domains,
            &self.root_box,
            &self.integral_mask,
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
            let cut = CutRow {
                terms,
                rhs,
                kind: CutKind::Gomory,
            };
            if self.cut_source.as_mut().is_some_and(|g| g.admit(&cut)) {
                stats.cuts_emitted.bump(CutKind::Gomory);
                if self.config.record_cuts {
                    stats.emitted_cuts.push(cut.clone());
                }
                accepted.push(cut);
            }
        }
        if accepted.is_empty() {
            return None;
        }
        stats.cuts += accepted.len() as u64;
        self.emit(SolveEvent::CutRound {
            nodes: stats.nodes,
            added: accepted.len() as u64,
            total: stats.cuts,
        });
        self.cut_rows.extend(accepted);
        self.rebuild_matrix();
        stats.propagations += 1;
        Some(self.propagator.propagate(domains) != PropagationResult::Infeasible)
    }

    /// Learns a conflict no-good from an infeasibility-refuted node: the
    /// binary fixings that led here can never all hold together in a
    /// feasible assignment, so `Σ₁ x − Σ₀ x ≤ |ones| − 1` is valid
    /// globally. Only [`Node::nogood_ok`] nodes are eligible — a path
    /// containing interval branchings or reduced-cost tightenings proves
    /// something weaker ("no *improving* solution here"), and a cut from it
    /// could slice off the optimum. Bound-pruned subtrees are never
    /// learned from for the same reason.
    fn learn_nogood(&mut self, node: &Node, stats: &mut SolveStats) {
        if !node.nogood_ok || node.depth == 0 || self.cut_source.is_none() {
            return;
        }
        let mut ones = Vec::new();
        let mut zeros = Vec::new();
        for j in 0..node.domains.len() {
            if !self.binary_mask[j] || !node.domains.is_fixed(j) {
                continue;
            }
            if node.domains.lower(j) > 0.5 {
                ones.push(j);
            } else {
                zeros.push(j);
            }
        }
        let terms = ones.len() + zeros.len();
        if terms == 0 || terms > NOGOOD_MAX_TERMS {
            return;
        }
        let cut = nogood_from_fixings(&ones, &zeros);
        if self.cut_source.as_mut().is_some_and(|g| g.admit(&cut)) {
            stats.cuts_emitted.bump(CutKind::NoGood);
            if self.config.record_cuts {
                stats.emitted_cuts.push(cut.clone());
            }
            self.pending_cuts.push(cut);
        }
    }

    /// Installs the batched no-goods into the shared row set (one matrix
    /// rebuild for the whole batch).
    fn flush_pending_cuts(&mut self, stats: &mut SolveStats) {
        if self.pending_cuts.is_empty() {
            return;
        }
        let added = self.pending_cuts.len() as u64;
        stats.cuts += added;
        self.emit(SolveEvent::CutRound {
            nodes: stats.nodes,
            added,
            total: stats.cuts,
        });
        let pending = std::mem::take(&mut self.pending_cuts);
        self.cut_rows.extend(pending);
        self.rebuild_matrix();
    }

    /// Root cut loop: solve the root LP, read Gomory cuts off its optimal
    /// basis, tighten and repeat. Returns `false` when the root becomes
    /// infeasible (only possible numerically, since cuts preserve every
    /// integer point).
    fn root_cuts(
        &mut self,
        domains: &mut Domains,
        stats: &mut SolveStats,
        incumbent: &mut Option<(f64, Vec<f64>)>,
        start: Instant,
    ) -> bool {
        for _ in 0..ROOT_CUT_ROUNDS {
            // Separation is best-effort root tightening: stop the loop (but
            // not the solve) as soon as the budget or a cancellation makes
            // further rounds pointless.
            if self.is_cancelled() || self.config.budget.time_expired(start) {
                return true;
            }
            let (lp, basis) = solve_lp_basis(
                self.propagator.matrix(),
                &self.objective,
                self.objective_constant,
                domains,
                self.config.max_lp_pivots,
            );
            stats.lp_solves += 1;
            tally_lp(stats, &lp);
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
            if self.try_integral_incumbent(&lp.values, domains, incumbent, stats, start) {
                self.cache_root_lp(lp, basis);
                return true;
            }
            if let Some(b) = basis.as_ref() {
                match self.install_gomory(b, &lp.values, domains, stats) {
                    Some(true) => continue,
                    Some(false) => return false,
                    None => {}
                }
            }
            // No violated cuts: this LP is valid for the final row set, so
            // hand it to the root node instead of having it re-solve the
            // identical relaxation.
            self.cache_root_lp(lp, basis);
            return true;
        }
        true
    }

    /// Records the cut loop's final LP (and its basis, when available) for
    /// the root node to consume.
    fn cache_root_lp(&mut self, lp: crate::simplex::LpSolution, basis: Option<Basis>) {
        self.root_lp_cache = Some(CachedRootLp {
            objective: lp.objective,
            values: lp.values,
            reduced_costs: lp.reduced_costs,
            pivots: lp.pivots,
        });
        self.root_basis_key = basis.map(|b| self.store_basis(b));
    }

    /// If `values` is integral over the box, round it, check feasibility and
    /// update the incumbent. Returns whether the point was integral.
    fn try_integral_incumbent(
        &mut self,
        lp_values: &[f64],
        domains: &Domains,
        incumbent: &mut Option<(f64, Vec<f64>)>,
        stats: &mut SolveStats,
        start: Instant,
    ) -> bool {
        let integral = (0..domains.len()).all(|j| {
            !domains.is_integral(j) || (lp_values[j] - lp_values[j].round()).abs() <= INT_EPS
        });
        if !integral {
            return false;
        }
        let mut values = lp_values.to_vec();
        for (j, v) in values.iter_mut().enumerate() {
            if domains.is_integral(j) {
                *v = v.round();
            }
        }
        if self.model.is_feasible(&values, 1e-6) {
            let obj = self.internal_objective(&values);
            if incumbent.as_ref().map(|(b, _)| obj < *b).unwrap_or(true) {
                *incumbent = Some((obj, values));
                self.record_improvement(stats, start, obj, "root-lp");
            }
        }
        true
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

        let mut root = Domains::from_model(self.model);
        stats.propagations += 1;
        if self.propagator.propagate(&mut root) == PropagationResult::Infeasible {
            stats.time = start.elapsed();
            stats.best_bound = f64::INFINITY;
            return Ok(Solution::without_values(Status::Infeasible, stats));
        }

        // Incumbent: (internal minimisation objective, values). All supplied
        // warm-start candidates compete; the cheapest feasible one wins.
        let mut incumbent: Option<(f64, Vec<f64>)> = None;

        for warm in std::mem::take(&mut self.config.initial_solutions) {
            if self.model.is_feasible(&warm, 1e-6) {
                let obj = self.internal_objective(&warm);
                if incumbent.as_ref().map(|(b, _)| obj < *b).unwrap_or(true) {
                    incumbent = Some((obj, warm));
                    self.record_improvement(&mut stats, start, obj, "warm-start");
                }
            }
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
            if let Some(values) = greedy_dive(&self.propagator, &root, &self.objective) {
                if self.model.is_feasible(&values, 1e-6) {
                    let obj = self.internal_objective(&values);
                    if incumbent.as_ref().map(|(b, _)| obj < *b).unwrap_or(true) {
                        incumbent = Some((obj, values));
                        self.record_improvement(&mut stats, start, obj, "dive");
                    }
                }
            }
        }

        // Pure LP case: no integral variables at all. A raised token or an
        // already-spent budget skips even the single LP solve — prompt
        // return stays bounded by the warm-candidate scan above.
        if self.model.num_integral() == 0 {
            if skip_root_work {
                let interrupted = self.is_cancelled();
                stats.time = start.elapsed();
                stats.limit_reached = true;
                stats.gap = f64::INFINITY;
                stats.best_bound = self.sense_factor * f64::NEG_INFINITY;
                return Ok(match incumbent {
                    Some((obj, values)) => {
                        let status = if interrupted {
                            Status::Interrupted
                        } else {
                            Status::Feasible
                        };
                        Solution::new(status, values, self.sense_factor * obj, stats)
                    }
                    None => {
                        let status = if interrupted {
                            Status::Interrupted
                        } else {
                            Status::Unknown
                        };
                        Solution::without_values(status, stats)
                    }
                });
            }
            return Ok(self.solve_pure_lp(&root, start, stats, incumbent));
        }

        // Seed the cut pool at the root: read Gomory cuts off the root LP's
        // basis, tighten, repeat. The accepted cuts join the shared row set
        // for the whole search. Propagation-only runs skip this — their
        // point is to avoid the simplex, and without LP bases there is
        // nothing to read cuts off.
        let mut root_closed = false;
        if self.cut_source.is_some()
            && self.use_lp_at(0)
            && !skip_root_work
            && !self.root_cuts(&mut root, &mut stats, &mut incumbent, start)
        {
            // Cuts preserve every integer point, so an empty root box means
            // the model has no integer solution (modulo numerics, in which
            // case the incumbent already in hand is the answer).
            root_closed = true;
        }

        let mut frontier = Vec::new();
        if !root_closed {
            frontier.push(Node {
                domains: root,
                depth: 0,
                bound: f64::NEG_INFINITY,
                branched: None,
                parent_basis: None,
                parent_bound_is_lp: false,
                branch_up: false,
                branch_step: 0.0,
                nogood_ok: true,
            });
        }

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
    /// exact instance, reinstalls the serialized cut pool, pseudo-cost
    /// tables and warm basis cache, rebuilds the open frontier from the
    /// per-node bound deltas, and re-enters the main loop. Root
    /// preprocessing (warm candidates, dive, root cut loop) is skipped on
    /// purpose — the restored state already reflects it.
    fn run_resumed(
        mut self,
        snap: &SolveSnapshot,
        start: Instant,
        mut stats: SolveStats,
    ) -> Result<Solution, IlpError> {
        let fail = |message: String| IlpError::Snapshot { message };
        if self.model.num_integral() == 0 {
            return Err(fail("pure LP solves are never snapshotted".into()));
        }
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
        // Pending no-goods were already deduplicated when learned, so both
        // pools feed the emitted set; the pending batch flushes on the same
        // node-count trigger the uninterrupted run would have hit.
        self.pending_cuts = snap.pending_cuts.clone();
        if let Some(generator) = self.cut_source.as_mut() {
            generator.restore_emitted(&snap.cuts);
            generator.restore_emitted(&snap.pending_cuts);
        }
        self.tree_separations_left = snap.tree_separations_left;
        self.eager_separation = snap.eager_separation;
        self.last_bound_emitted = snap.last_bound_emitted;
        self.pseudo = PseudoCosts::from_snapshot(&snap.pseudo);
        self.basis_cache = snap
            .bases
            .iter()
            .map(|(key, basis)| (*key, Rc::new(basis.clone())))
            .collect();
        self.next_basis_key = snap.next_basis_key;
        self.root_basis_key = snap.root_basis_key;
        self.root_lp_cache = snap.root_lp.as_ref().map(|lp| CachedRootLp {
            objective: lp.objective,
            values: lp.values.clone(),
            reduced_costs: lp.reduced_costs.as_ref().map(|(up, down)| ReducedCosts {
                up: up.clone(),
                down: down.clone(),
            }),
            pivots: lp.pivots,
        });

        let base = Domains::from_model(self.model);
        let frontier = snap
            .frontier
            .iter()
            .map(|node| restore_node(node, &base))
            .collect();
        // The node counter continues from the capture point, so node
        // budgets keep their whole-tree meaning across interrupts.
        stats.nodes = snap.nodes;
        stats.resumed = true;
        let incumbent = snap.incumbent.clone();
        self.search(
            frontier,
            incumbent,
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

            // Install the batched no-goods before this node's work so its
            // propagation and LP already see them.
            let flushed = self.pending_cuts.len() >= NOGOOD_FLUSH;
            if flushed {
                self.flush_pending_cuts(&mut stats);
            }

            stats.propagations += 1;
            // The parent's domains were propagated to fixpoint, so only the
            // rows of the just-branched variable can fire initially — unless
            // a flush just added rows the fixpoint never saw.
            let propagated = match node.branched {
                Some(j) if !flushed => self.propagator.propagate_seeded(&mut node.domains, &[j]),
                _ => self.propagator.propagate(&mut node.domains),
            };
            if propagated == PropagationResult::Infeasible {
                self.learn_nogood(&node, &mut stats);
                continue;
            }

            let incumbent_obj = incumbent.as_ref().map(|(b, _)| *b).unwrap_or(f64::INFINITY);
            let parent_bound = node.bound;
            let bound =
                match self.node_bound(&node, &mut stats, incumbent_obj, &mut incumbent, start) {
                    NodeBound::Infeasible => {
                        // An LP-infeasible child is the strongest possible
                        // degradation signal for its branching variable.
                        if let Some(j) = node.branched {
                            if node.parent_bound_is_lp && node.branch_step > INT_EPS {
                                self.pseudo
                                    .record(j, node.branch_up, INFEASIBLE_DEGRADATION);
                            }
                        }
                        self.learn_nogood(&node, &mut stats);
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
                                let degradation =
                                    ((value - parent_bound) / node.branch_step).max(0.0);
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
            // duals prove some integral variables cannot leave their bound
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
                        // The box now encodes "improves on the incumbent",
                        // not plain feasibility; conflicts below this node
                        // must not become global cuts.
                        node.nogood_ok = false;
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
            // of the tree prunes almost everything below it.
            let shallow = node.depth <= TREE_CUT_DEPTH
                && (self.eager_separation || stats.nodes >= TREE_CUT_MIN_NODES);
            if shallow && self.tree_separations_left > 0 && self.cut_source.is_some() {
                if let Some(lp) = bound.as_ref() {
                    self.tree_separations_left -= 1;
                    if let Some(basis) = lp.basis_key.and_then(|key| self.cached_basis(key)) {
                        if self.install_gomory(&basis, &lp.values, &mut node.domains, &mut stats)
                            == Some(false)
                        {
                            continue;
                        }
                    }
                }
            }

            if node.domains.all_integral_fixed() {
                if let Some(values) = self.complete_assignment(&node.domains, &mut stats) {
                    if self.model.is_feasible(&values, 1e-6) {
                        let obj = self.internal_objective(&values);
                        if obj < incumbent.as_ref().map(|(b, _)| *b).unwrap_or(f64::INFINITY) {
                            incumbent = Some((obj, values));
                            self.record_improvement(&mut stats, start, obj, "node-lp");
                        }
                    }
                }
                continue;
            }

            let branch_var = self.select_branch_var(&node, bound.as_ref(), &mut stats);
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
        for cut in &self.cut_rows {
            stats.cuts_active.bump(cut.kind);
        }

        let snapshot = if self.config.snapshot && stopped_early {
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

    /// Serializes the open search state into a [`SolveSnapshot`].
    /// `frontier` already contains the node that was in hand when the stop
    /// was detected, so the restored frontier pops it first.
    fn capture_snapshot(
        &self,
        frontier: Vec<Node>,
        incumbent: &Option<(f64, Vec<f64>)>,
        nodes: u64,
        root_bound: f64,
        pruned_bound_min: f64,
    ) -> SolveSnapshot {
        let base = Domains::from_model(self.model);
        SolveSnapshot {
            fingerprint: self.base_fingerprint,
            num_vars: self.model.num_vars(),
            nodes,
            frontier: frontier
                .iter()
                .map(|node| snapshot_node(node, &base))
                .collect(),
            incumbent: incumbent.clone(),
            root_bound,
            pruned_bound_min,
            last_bound_emitted: self.last_bound_emitted,
            tree_separations_left: self.tree_separations_left,
            eager_separation: self.eager_separation,
            cuts: self.cut_rows.clone(),
            pending_cuts: self.pending_cuts.clone(),
            pseudo: self.pseudo.to_snapshot(),
            bases: self
                .basis_cache
                .iter()
                .map(|(key, basis)| (*key, (**basis).clone()))
                .collect(),
            next_basis_key: self.next_basis_key,
            root_lp: self.root_lp_cache.as_ref().map(|lp| RootLpSnapshot {
                objective: lp.objective,
                values: lp.values.clone(),
                reduced_costs: lp
                    .reduced_costs
                    .as_ref()
                    .map(|rc| (rc.up.clone(), rc.down.clone())),
                pivots: lp.pivots,
            }),
            root_basis_key: self.root_basis_key,
        }
    }

    fn solve_pure_lp(
        &mut self,
        root: &Domains,
        start: Instant,
        mut stats: SolveStats,
        incumbent: Option<(f64, Vec<f64>)>,
    ) -> Solution {
        let (lp, _) = solve_lp_basis(
            self.propagator.matrix(),
            &self.objective,
            self.objective_constant,
            root,
            self.config.max_lp_pivots,
        );
        stats.lp_solves += 1;
        tally_lp(&mut stats, &lp);
        stats.time = start.elapsed();
        match lp.status {
            LpStatus::Optimal => {
                stats.best_bound = self.sense_factor * lp.objective;
                // The root relaxation *is* the solution here; log it as an
                // improvement so time-to-target metrics cover root-solved
                // instances, not only branched incumbents.
                let beats_warm = incumbent
                    .as_ref()
                    .map(|(b, _)| lp.objective < *b - EPS)
                    .unwrap_or(true);
                if beats_warm {
                    self.record_improvement(&mut stats, start, lp.objective, "lp");
                }
                Solution::new(
                    Status::Optimal,
                    lp.values,
                    self.sense_factor * lp.objective,
                    stats,
                )
            }
            LpStatus::Infeasible => Solution::without_values(Status::Infeasible, stats),
            LpStatus::Unbounded => Solution::without_values(Status::Unbounded, stats),
            LpStatus::IterationLimit => {
                stats.limit_reached = true;
                Solution::without_values(Status::Unknown, stats)
            }
        }
    }

    /// Logs an incumbent improvement (external objective sense) into the
    /// stats so callers can compute time-to-target metrics and attribute
    /// the incumbent to the layer that produced it, and streams it to any
    /// attached event sink.
    fn record_improvement(
        &mut self,
        stats: &mut SolveStats,
        start: Instant,
        internal_obj: f64,
        source: &'static str,
    ) {
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
            BoundMode::Propagation => false,
            BoundMode::LpRelaxation => true,
            BoundMode::Hybrid { lp_depth } => depth <= lp_depth,
        }
    }

    fn node_bound(
        &mut self,
        node: &Node,
        stats: &mut SolveStats,
        incumbent_obj: f64,
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
        // The root cut loop may already have solved this exact relaxation;
        // consume its result instead of repeating the most expensive LP of
        // the tree.
        let cached = if node.depth == 0 {
            self.root_lp_cache.take()
        } else {
            None
        };
        let (lp_objective, lp_values, lp_rc, basis_key) = match cached {
            Some(root) => {
                stats.node_lp_pivots.push(root.pivots);
                (
                    root.objective,
                    root.values,
                    root.reduced_costs,
                    self.root_basis_key.take(),
                )
            }
            None => match self.solve_node_lp(node, stats) {
                SolvedNodeLp::Infeasible => return NodeBound::Infeasible,
                SolvedNodeLp::NoBound => {
                    return NodeBound::Bound {
                        value: prop_bound,
                        lp: None,
                    }
                }
                SolvedNodeLp::Optimal {
                    objective,
                    values,
                    reduced_costs,
                    basis_key,
                } => (objective, values, reduced_costs, basis_key),
            },
        };
        // If the relaxation happens to be integral it is a feasible MILP
        // solution; use it to tighten the incumbent.
        let integral = (0..node.domains.len()).all(|j| {
            !node.domains.is_integral(j) || (lp_values[j] - lp_values[j].round()).abs() <= INT_EPS
        });
        if integral {
            let mut values = lp_values.clone();
            for (j, v) in values.iter_mut().enumerate() {
                if node.domains.is_integral(j) {
                    *v = v.round();
                }
            }
            if self.model.is_feasible(&values, 1e-6) {
                let obj = self.internal_objective(&values);
                if obj < incumbent_obj {
                    *incumbent = Some((obj, values));
                    self.record_improvement(stats, start, obj, "node-lp");
                }
            }
        } else if node.depth <= 2 {
            // Try an LP-guided rounding heuristic near the top of the tree,
            // where it is most likely to pay off.
            if let Some(values) =
                round_and_repair(&self.propagator, &node.domains, &lp_values, &self.objective)
            {
                if self.model.is_feasible(&values, 1e-6) {
                    let obj = self.internal_objective(&values);
                    let current = incumbent.as_ref().map(|(b, _)| *b).unwrap_or(f64::INFINITY);
                    if obj < current {
                        *incumbent = Some((obj, values));
                        self.record_improvement(stats, start, obj, "rounding");
                    }
                }
            }
        }
        let value = if self.eager_separation {
            self.strengthen_bound(lp_objective).max(prop_bound)
        } else {
            lp_objective.max(prop_bound)
        };
        NodeBound::Bound {
            value,
            lp: Some(NodeLp {
                objective: lp_objective,
                values: lp_values,
                reduced_costs: lp_rc,
                basis_key,
            }),
        }
    }

    /// Solves the LP relaxation of a node, warm-starting from the parent's
    /// cached basis with the dual simplex when possible and falling back to
    /// a cold (re)factorisation otherwise.
    fn solve_node_lp(&mut self, node: &Node, stats: &mut SolveStats) -> SolvedNodeLp {
        let max_pivots = self.config.max_lp_pivots;
        // A dual re-solve is only worth it while it stays *incremental*: a
        // child whose propagation/fixing moved half the bounds is re-solving
        // from scratch, and the primal does that better. Budget the warm
        // path at a small multiple of the expected incremental work and let
        // an overrun fall through to the cold factorization below.
        let warm_budget = max_pivots.min(128 + self.propagator.matrix().num_rows() as u64 / 4);
        if let Some(basis) = node.parent_basis.and_then(|key| self.cached_basis(key)) {
            if basis.age() < BASIS_MAX_AGE {
                if let Some((lp, next)) = resolve_with_basis(
                    self.propagator.matrix(),
                    &self.objective,
                    self.objective_constant,
                    &basis,
                    &node.domains,
                    warm_budget,
                ) {
                    tally_lp(stats, &lp);
                    stats.warm_lp_pivots += lp.pivots;
                    match lp.status {
                        LpStatus::Infeasible | LpStatus::Optimal => {
                            stats.lp_solves += 1;
                            stats.warm_lp_solves += 1;
                            stats.node_lp_pivots.push(lp.pivots);
                            if lp.status == LpStatus::Infeasible {
                                return SolvedNodeLp::Infeasible;
                            }
                            let basis_key = next.map(|b| self.store_basis(b));
                            return SolvedNodeLp::Optimal {
                                objective: lp.objective,
                                values: lp.values,
                                reduced_costs: lp.reduced_costs,
                                basis_key,
                            };
                        }
                        // A dual re-solve that hits its pivot budget is
                        // abandoned (its pivots were counted above); the
                        // node re-factorises cold below.
                        LpStatus::Unbounded | LpStatus::IterationLimit => {}
                    }
                }
            }
        }
        let (lp, new_basis) = solve_lp_basis(
            self.propagator.matrix(),
            &self.objective,
            self.objective_constant,
            &node.domains,
            max_pivots,
        );
        stats.lp_solves += 1;
        tally_lp(stats, &lp);
        stats.refactorizations += 1;
        stats.node_lp_pivots.push(lp.pivots);
        match lp.status {
            LpStatus::Infeasible => SolvedNodeLp::Infeasible,
            LpStatus::Optimal => {
                let basis_key = new_basis.map(|b| self.store_basis(b));
                SolvedNodeLp::Optimal {
                    objective: lp.objective,
                    values: lp.values,
                    reduced_costs: lp.reduced_costs,
                    basis_key,
                }
            }
            LpStatus::Unbounded | LpStatus::IterationLimit => SolvedNodeLp::NoBound,
        }
    }

    fn complete_assignment(&self, domains: &Domains, stats: &mut SolveStats) -> Option<Vec<f64>> {
        let has_free_continuous =
            (0..domains.len()).any(|j| !domains.is_integral(j) && !domains.is_fixed(j));
        if !has_free_continuous {
            return Some(domains.assignment());
        }
        // Optimise the remaining continuous variables with the integral part
        // fixed.
        let (lp, _) = solve_lp_basis(
            self.propagator.matrix(),
            &self.objective,
            self.objective_constant,
            domains,
            self.config.max_lp_pivots,
        );
        stats.lp_solves += 1;
        tally_lp(stats, &lp);
        match lp.status {
            LpStatus::Optimal => Some(lp.values),
            _ => None,
        }
    }

    /// Picks the branching variable by pseudo-cost (reliability) branching:
    /// maximise the product of the estimated up/down dual-bound
    /// degradations, where a variable's estimate is its average observed
    /// degradation per unit of fractionality; unobserved variables are
    /// initialised at shallow depth by strong branching (both child LPs
    /// solved warm from the node's basis under a small pivot budget). Nodes
    /// without LP values (propagation-only bounds), or whose LP point is
    /// integral on every candidate, branch on the most constrained variable.
    fn select_branch_var(
        &mut self,
        node: &Node,
        lp: Option<&NodeLp>,
        stats: &mut SolveStats,
    ) -> Option<usize> {
        let domains = &node.domains;
        let candidates: Vec<usize> = (0..domains.len())
            .filter(|&j| domains.is_integral(j) && !domains.is_fixed(j))
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
            // Propagation-only nodes carry no LP point to learn from; use
            // the static structural rule.
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
        // LPs, warm from this node's basis).
        if node.depth <= STRONG_DEPTH {
            if let Some(basis) = lp.basis_key.and_then(|key| self.cached_basis(key)) {
                let mut unreliable: Vec<usize> = fractional
                    .iter()
                    .map(|&(j, _)| j)
                    .filter(|&j| self.pseudo.observations(j) < RELIABILITY)
                    .collect();
                unreliable.sort_by_key(|&j| (usize::MAX - self.occurrence[j], j));
                unreliable.truncate(STRONG_CANDIDATES);
                for j in unreliable {
                    self.strong_branch(&basis, &node.domains, j, lp, stats);
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
    /// warm from the node's basis under a small pivot budget and records
    /// the observed per-unit degradations as pseudo-cost observations.
    fn strong_branch(
        &mut self,
        basis: &Basis,
        domains: &Domains,
        j: usize,
        lp: &NodeLp,
        stats: &mut SolveStats,
    ) {
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
            let Some((child_lp, _)) = resolve_with_basis(
                self.propagator.matrix(),
                &self.objective,
                self.objective_constant,
                basis,
                &child,
                STRONG_PIVOTS,
            ) else {
                continue;
            };
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
    }

    fn push_children(&self, frontier: &mut Vec<Node>, node: &Node, j: usize, lp: Option<&NodeLp>) {
        let lower = node.domains.lower(j);
        let upper = node.domains.upper(j);
        debug_assert!(upper > lower + EPS);
        let lp_values = lp.map(|l| l.values.as_slice());
        let parent_basis = lp.and_then(|l| l.basis_key);
        let parent_bound_is_lp = lp.is_some();
        let v_lp = lp_values.map(|v| v[j]);

        if upper - lower <= 1.0 + EPS {
            // Binary-style split: fix to each bound. Push the preferred value
            // last so depth-first search explores it first.
            let preferred = if let Some(v) = v_lp {
                if v >= 0.5 * (lower + upper) {
                    upper
                } else {
                    lower
                }
            } else if self.objective[j] >= 0.0 {
                lower
            } else {
                upper
            };
            let other = if (preferred - lower).abs() < EPS {
                upper
            } else {
                lower
            };
            for value in [other, preferred] {
                let branch_up = (value - upper).abs() < EPS;
                let branch_step = v_lp
                    .map(|v| if branch_up { upper - v } else { v - lower }.max(0.0))
                    .unwrap_or(0.0);
                let mut domains = node.domains.clone();
                if domains.fix(j, value) {
                    frontier.push(Node {
                        domains,
                        depth: node.depth + 1,
                        bound: node.bound,
                        branched: Some(j),
                        parent_basis,
                        parent_bound_is_lp,
                        branch_up,
                        branch_step,
                        // Fixing a binary keeps the path describable as a
                        // set of 0/1 decisions, so no-good learning stays
                        // sound below this child.
                        nogood_ok: node.nogood_ok && self.binary_mask[j],
                    });
                }
            }
        } else {
            // Interval split around the LP value or the midpoint.
            let pivot = v_lp.unwrap_or(0.5 * (lower + upper));
            let split = pivot.floor().clamp(lower, upper - 1.0);
            let mut down = node.domains.clone();
            down.tighten_upper(j, split);
            let mut up = node.domains.clone();
            up.tighten_lower(j, split + 1.0);
            for (domains, branch_up) in [(up, true), (down, false)] {
                let branch_step = v_lp
                    .map(|v| {
                        if branch_up {
                            (split + 1.0 - v).max(0.0)
                        } else {
                            (v - split).max(0.0)
                        }
                    })
                    .unwrap_or(0.0);
                if !domains.is_infeasible() {
                    frontier.push(Node {
                        domains,
                        depth: node.depth + 1,
                        bound: node.bound,
                        branched: Some(j),
                        parent_basis,
                        parent_bound_is_lp,
                        branch_up,
                        branch_step,
                        // An interval split is not a 0/1 decision; a no-good
                        // over fixed binaries would not cover it.
                        nogood_ok: false,
                    });
                }
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
        if !domains.is_integral(j) || domains.is_fixed(j) {
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
struct NodeLp {
    /// Optimal LP objective (minimisation sense).
    objective: f64,
    /// Optimal LP point over the original variables.
    values: Vec<f64>,
    /// Reduced costs at optimality (`None` only for a root LP restored
    /// from a snapshot that carried none).
    reduced_costs: Option<ReducedCosts>,
    /// Cache key of the stored optimal basis, if it was kept.
    basis_key: Option<u64>,
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
    Optimal {
        objective: f64,
        values: Vec<f64>,
        reduced_costs: Option<ReducedCosts>,
        basis_key: Option<u64>,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Model;

    fn exact_configs() -> Vec<SolverConfig> {
        vec![
            SolverConfig::exact(),
            SolverConfig::exact().with_bound_mode(BoundMode::Propagation),
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
        let config = SolverConfig::exact().with_presolve(false).with_cuts(false);
        let sol = m.solve(&config).expect("solve");
        assert!(sol.is_optimal());
        let stats = sol.stats();
        // One per-node iteration record per node-relaxation LP, never more
        // than the LP solve count, and their sum never exceeds the global
        // pivot total (which also counts strong-branching probes).
        assert!(!stats.node_lp_pivots.is_empty());
        assert!(stats.node_lp_pivots.len() as u64 <= stats.lp_solves);
        assert!(stats.node_lp_pivots.iter().sum::<u64>() <= stats.lp_pivots);
        assert!(stats.warm_lp_pivots <= stats.lp_pivots);
        assert!(stats.refactorizations >= 1, "the root factorises cold");
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
    fn general_integer_variables() {
        // min 3x + 2y  s.t.  x + y >= 7, x <= 4, y <= 5, x,y integer
        // best: x=2, y=5 -> 16.
        let mut m = Model::new("int");
        let x = m.add_integer("x", 0, 4);
        let y = m.add_integer("y", 0, 5);
        m.add_geq([(x, 1.0), (y, 1.0)], 7.0, "need");
        m.set_objective([(x, 3.0), (y, 2.0)], Sense::Minimize);
        for config in exact_configs() {
            let sol = m.solve(&config).expect("solve");
            assert!(sol.is_optimal());
            assert_eq!(sol.int_value(x), 2);
            assert_eq!(sol.int_value(y), 5);
            assert!((sol.objective() - 16.0).abs() < 1e-6);
        }
    }

    #[test]
    fn mixed_integer_continuous() {
        // min y - x_c  s.t. x_c <= 2.5*y, x_c <= 1.7, y binary.
        // y=1, x_c=1.7 -> -0.7 ; y=0 -> 0. Optimal -0.7.
        let mut m = Model::new("mix");
        let y = m.add_binary("y");
        let xc = m.add_continuous("xc", 0.0, 1.7);
        m.add_leq([(xc, 1.0), (y, -2.5)], 0.0, "link");
        m.set_objective([(y, 1.0), (xc, -1.0)], Sense::Minimize);
        let sol = m.solve(&SolverConfig::exact()).expect("solve");
        assert!(sol.is_optimal());
        assert!((sol.objective() + 0.7).abs() < 1e-6);
        assert!(sol.is_one(y));
        assert!((sol.value(xc) - 1.7).abs() < 1e-6);
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
        let mut m = Model::new("limited");
        let vars: Vec<_> = (0..30).map(|i| m.add_binary(format!("x{i}"))).collect();
        for w in vars.chunks(3) {
            m.add_geq(
                w.iter().map(|&v| (v, 1.0)).collect::<Vec<_>>(),
                1.0,
                "chunk",
            );
        }
        m.set_objective(
            vars.iter().map(|&v| (v, 1.0)).collect::<Vec<_>>(),
            Sense::Minimize,
        );
        let config = SolverConfig {
            budget: Budget::nodes(1),
            bound_mode: BoundMode::Propagation,
            ..SolverConfig::default()
        };
        let sol = m.solve(&config).expect("solve");
        assert!(matches!(sol.status(), Status::Feasible | Status::Unknown));
        assert!(sol.stats().limit_reached || sol.status() == Status::Feasible);
    }

    #[test]
    fn pure_lp_model() {
        let mut m = Model::new("lp");
        let x = m.add_continuous("x", 0.0, 10.0);
        let y = m.add_continuous("y", 0.0, 10.0);
        m.add_leq([(x, 1.0), (y, 2.0)], 14.0, "a");
        m.add_leq([(x, 3.0), (y, -1.0)], 0.0, "b");
        m.set_objective([(x, 3.0), (y, 4.0)], Sense::Maximize);
        let sol = m.solve(&SolverConfig::exact()).expect("solve");
        assert!(sol.is_optimal());
        // optimum at x=2, y=6 -> 30
        assert!(
            (sol.objective() - 30.0).abs() < 1e-5,
            "got {}",
            sol.objective()
        );
    }

    /// A minimisation model that needs a deep search under the exact
    /// configuration, plus a known feasible all-ones warm start — the
    /// fixture for the cancellation and deadline tests.
    fn deep_model() -> (Model, Vec<f64>) {
        let mut m = Model::new("deep");
        let vars: Vec<_> = (0..18).map(|i| m.add_binary(format!("x{i}"))).collect();
        for w in vars.windows(5).step_by(2) {
            m.add_geq(w.iter().map(|&v| (v, 1.0)).collect::<Vec<_>>(), 2.0, "need");
        }
        for (c, w) in vars.chunks(6).enumerate() {
            m.add_leq(
                w.iter()
                    .enumerate()
                    .map(|(i, &v)| (v, 1.0 + ((i + c) % 3) as f64))
                    .collect::<Vec<_>>(),
                7.0,
                "cap",
            );
        }
        m.set_objective(
            vars.iter()
                .enumerate()
                .map(|(i, &v)| (v, 1.0 + (i % 5) as f64 + 0.1 * (i % 7) as f64))
                .collect::<Vec<_>>(),
            Sense::Minimize,
        );
        // Every other variable set: each 5-window holds ≥ 2 ones and each
        // capacity chunk stays within budget.
        let warm: Vec<f64> = (0..vars.len())
            .map(|i| if i % 2 == 0 { 1.0 } else { 0.0 })
            .collect();
        assert!(m.is_feasible(&warm, 1e-6));
        (m, warm)
    }

    #[test]
    fn node_triggered_cancellation_stops_deterministically_with_incumbent() {
        use crate::session::SolveSession;
        let (m, warm) = deep_model();
        // Propagation bounds keep the tree deep enough to cancel into.
        let config = SolverConfig::exact()
            .with_bound_mode(BoundMode::Propagation)
            .with_presolve(false)
            .with_cuts(false)
            .with_warm_candidate(warm.clone());
        let optimal = m.solve(&config).expect("reference solve");
        assert!(optimal.is_optimal());
        assert!(
            optimal.stats().nodes > 3,
            "fixture too easy: {} nodes",
            optimal.stats().nodes
        );

        // The observer raises the token at the third node milestone; the
        // loop notices at the next pop, so exactly 3 nodes are explored —
        // no sleeps, no wall-clock, fully deterministic.
        let mut session = SolveSession::with_config(&m, config);
        let token = session.cancel_token();
        let observer_token = token.clone();
        let sol = session
            .on_event(move |event| {
                if let SolveEvent::NodeMilestone { nodes, .. } = event {
                    if *nodes >= 3 {
                        observer_token.cancel();
                    }
                }
            })
            .solve()
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
        // Through the default (presolve) path: the token installed in the
        // outer config must reach the reduced model's search.
        let (m, _) = deep_model();
        let token = CancelToken::new();
        token.cancel();
        let config = SolverConfig::exact().with_cancel(token);
        let sol = m.solve(&config).expect("solve");
        assert_eq!(sol.status(), Status::Interrupted);
        assert_eq!(sol.stats().nodes, 0);
    }

    #[test]
    fn expired_deadline_returns_without_descending_past_the_root() {
        let (m, warm) = deep_model();
        let config = SolverConfig::exact()
            .with_presolve(false)
            .with_cuts(false)
            .with_budget(Budget::unlimited().with_deadline(Instant::now()))
            .with_warm_candidate(warm.clone());
        let sol = m.solve(&config).expect("solve");
        // The warm incumbent is kept, but the tree is never entered: no
        // nodes, no LPs, no cut rounds.
        assert_eq!(sol.stats().nodes, 0);
        assert_eq!(sol.stats().lp_solves, 0);
        assert_eq!(sol.stats().cuts, 0);
        assert!(sol.stats().limit_reached);
        assert_eq!(sol.status(), Status::Feasible);
        assert_eq!(sol.values(), &warm[..]);

        // Without a warm start nothing is known at all.
        let bare = SolverConfig::exact()
            .with_presolve(false)
            .with_cuts(false)
            .with_budget(Budget::unlimited().with_deadline(Instant::now()));
        let sol = m.solve(&bare).expect("solve");
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
