//! The layered synthesis engine: one circuit-level base model, many k-test
//! session solves.
//!
//! The paper's headline experiment (Table 2) sweeps `k = 1..=N` sub-test
//! sessions per circuit. Only the BIST constraint families (Eqs. 6–23) and
//! the objective depend on `k`; the register assignment, interconnect and
//! multiplexer-sizing layers — the bulk of the model — are identical for
//! every `k`. The seed rebuilt everything from scratch per `k` and solved
//! the instances one after another. [`SynthesisEngine`] instead:
//!
//! 1. builds the circuit-level **base model** once
//!    ([`BistFormulation::new`] + interconnect + mux sizing) and runs the
//!    reducing presolve pipeline ([`bist_ilp::reduce`]) on it once — the
//!    *reduced* base (fixed variables eliminated, redundant rows dropped,
//!    implications disaggregated) is what every `k` clones,
//! 2. applies the per-k **BIST delta** through the reduced base's variable
//!    map (terms on eliminated variables fold into the right-hand sides),
//!    runs one more reduce pass over the extended model so the delta rows
//!    shrink too, and solves with the cut pool seeded at the root,
//! 3. **chains warm starts**: the register assignment of the k−1 incumbent
//!    is re-dressed with a greedy role assignment for `k` sessions and
//!    handed to the solver *alongside* the sequential left-edge baseline,
//!    so every solve starts from the best known design
//!    ([`SynthesisEngine::sweep_chained`]),
//! 4. or fans the independent per-k solves out across a scoped thread pool
//!    ([`SynthesisEngine::sweep_parallel`]), collecting results in
//!    deterministic ascending-k order.
//!
//! The rebuild path runs the very same reduction code on the very same
//! prefix (see [`crate::synthesis`]), so the parallel sweep runs searches
//! identical to independent per-k solves under any deterministic budget
//! (node limits, or exact solves) — the engine just pays the base reduction
//! once per circuit instead of once per k — and the chained sweep can only
//! return equal-or-better designs
//! — its extra warm-start candidate strengthens the initial incumbent.
//! Under a *wall-clock* time limit the usual caveats apply: concurrent
//! solves share the machine and an earlier incumbent changes where the
//! budget is spent, so per-k results may differ from a sequential rebuild.
//!
//! **Warm bases and the per-k delta replay.** Since the search-layer
//! overhaul, every per-k solve re-solves its child-node LPs with the
//! bounded dual simplex from the parent's cached basis (see
//! `bist_ilp::simplex::Basis` — since the revised-simplex rebuild that is
//! a factorized eta file plus column statuses, not a tableau), so a node
//! whose parent's basis is still cached costs a handful of dual pivots
//! instead of a cold two-phase solve. The cache is small, though: on
//! paulin, 612 node LPs go cold on basis-cache misses, and cold solves
//! carry ~70 % of the simplex iterations. Bases do *not*
//! cross `k` boundaries: the per-k BIST delta changes the row set (Eqs.
//! 6–23 and the objective differ per `k`), and a basis is only valid for
//! the exact rows it was factorized from — what crosses `k` is the reduced
//! base model and the k−1 incumbent values, while basis reuse lives inside
//! each per-k tree. [`sweep_search_stats`] aggregates the warm/cold LP
//! counters of a sweep — including the primal/dual pivot split and the
//! kernel's refactorization count — so harnesses can quote the effect
//! deterministically.

use std::sync::Arc;
use std::time::Instant;

use bist_dfg::allocate::RegisterAssignment;
use bist_dfg::SynthesisInput;
use bist_ilp::reduce::{reduce_prefix, ReduceOptions, ReduceReport, ReducedModel};
use bist_ilp::{SolveEvent, SolveSnapshot};

use crate::config::SynthesisConfig;
use crate::error::CoreError;
use crate::formulation::BistFormulation;
use crate::reference::{solve_reference_formulation, ReferenceDesign};
use crate::synthesis::{solve_bist_formulation, BistDesign};

/// Maps `f` over `items` on a scoped thread pool and returns the results in
/// item order, independent of scheduling. The worker count is capped at the
/// machine's available parallelism so wall-clock-limited work is not diluted
/// by oversubscription; with one worker this is exactly the sequential loop.
/// Shared by the engine's parallel sweep and the benchmark harness's
/// per-circuit fan-out.
///
/// # Panics
///
/// Panics if `f` panics on a worker thread.
pub fn par_map_ordered<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_ordered_bounded(items, usize::MAX, f)
}

/// [`par_map_ordered`] with an explicit worker-pool bound: at most
/// `max_workers` scoped threads run at once (still additionally capped at
/// the machine's available parallelism and the item count). The job
/// service uses this to keep a batch from monopolising the host.
///
/// # Panics
///
/// Panics if `f` panics on a worker thread.
pub fn par_map_ordered_bounded<T, R, F>(items: &[T], max_workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(max_workers)
        .min(items.len())
        .max(1);
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let result = f(&items[i]);
                *slots[i].lock().expect("result slot poisoned") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("worker thread panicked")
        })
        .collect()
}

/// Aggregated solver-effort counters of a whole k-sweep, summed over the
/// per-k solves. All counters are deterministic under node-limited or exact
/// budgets, so sweeps can be compared across machines.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepSearchStats {
    /// Branch-and-bound nodes explored.
    pub nodes: u64,
    /// Simplex pivots across every LP solved (cold, warm and strong
    /// branching).
    pub lp_iterations: u64,
    /// Pivots spent in the primal simplex (cold factorizations).
    pub lp_primal_iterations: u64,
    /// Pivots spent in the dual simplex (warm re-solves and probes).
    pub lp_dual_iterations: u64,
    /// Bound flips inside the LP kernel (rank-0 moves across a box).
    pub lp_bound_flips: u64,
    /// Basis refactorizations inside the LP kernel (eta-file collapses).
    pub kernel_refactorizations: u64,
    /// Node LPs re-solved warm with the dual simplex.
    pub warm_lp_solves: u64,
    /// Simplex iterations spent inside warm re-solves.
    pub warm_lp_pivots: u64,
    /// Cold tableau factorisations on the warm path.
    pub refactorizations: u64,
    /// Strong-branching probes solved to initialise pseudo-costs.
    pub strong_branch_solves: u64,
    /// Integral bounds tightened by reduced-cost fixing.
    pub rc_fixed_bounds: u64,
}

/// Sums the search-effort counters of a sweep's outcomes.
pub fn sweep_search_stats(outcomes: &[SweepOutcome]) -> SweepSearchStats {
    let mut total = SweepSearchStats::default();
    for outcome in outcomes {
        let stats = &outcome.design.stats;
        total.nodes += stats.nodes;
        total.lp_iterations += stats.lp_pivots;
        total.lp_primal_iterations += stats.lp_primal_pivots;
        total.lp_dual_iterations += stats.lp_dual_pivots;
        total.lp_bound_flips += stats.lp_bound_flips;
        total.kernel_refactorizations += stats.lp_basis_refactorizations;
        total.warm_lp_solves += stats.warm_lp_solves;
        total.warm_lp_pivots += stats.warm_lp_pivots;
        total.refactorizations += stats.refactorizations;
        total.strong_branch_solves += stats.strong_branch_solves;
        total.rc_fixed_bounds += stats.rc_fixed_bounds;
    }
    total
}

/// One solve of a sweep: the design plus how it was obtained.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// The synthesised design.
    pub design: BistDesign,
    /// Wall-clock seconds of this solve, including formulation delta,
    /// extraction and validation.
    pub seconds: f64,
    /// Whether the k−1 incumbent was successfully chained in as a
    /// warm-start candidate.
    pub chained: bool,
    /// The register assignment of the design (used to chain into the next
    /// solve of a sweep).
    pub registers: RegisterAssignment,
}

/// Layered formulation engine for a single circuit.
///
/// The engine borrows the synthesis input and configuration; it is `Sync`,
/// so one engine can serve many worker threads at once.
#[derive(Debug)]
pub struct SynthesisEngine<'a> {
    input: &'a SynthesisInput,
    config: &'a SynthesisConfig,
    base: BistFormulation<'a>,
    /// The base model after the delta-safe reducing presolve, computed once
    /// per circuit; every per-k solve clones it and replays the BIST delta
    /// through its variable map. `None` when the solver configuration
    /// disables presolve.
    reduced_base: Option<ReducedModel>,
}

impl<'a> SynthesisEngine<'a> {
    /// Builds the circuit-level base model (register assignment +
    /// interconnect + multiplexer sizing) once, and — unless presolve is
    /// disabled — runs the reducing pipeline on it once, so the per-k
    /// sweeps clone the *reduced* base instead of the raw one.
    ///
    /// # Errors
    ///
    /// Propagates formulation errors (for example
    /// [`CoreError::TooFewRegisters`]).
    pub fn new(input: &'a SynthesisInput, config: &'a SynthesisConfig) -> Result<Self, CoreError> {
        let mut base = BistFormulation::new(input, config)?;
        base.add_interconnect();
        base.add_mux_sizing();
        let reduced_base = config.solver.presolve.then(|| {
            reduce_prefix(
                &base.model,
                base.model.num_constraints(),
                base.model.num_vars(),
                &ReduceOptions::base(),
            )
        });
        Ok(Self {
            input,
            config,
            base,
            reduced_base,
        })
    }

    /// The shared base formulation (no BIST layer, no objective).
    pub fn base(&self) -> &BistFormulation<'a> {
        &self.base
    }

    /// Reduction counters of the shared base model, or `None` when presolve
    /// is disabled. The reduction runs exactly once per engine (i.e. once
    /// per circuit), in [`SynthesisEngine::new`].
    pub fn base_reduce_report(&self) -> Option<&ReduceReport> {
        self.reduced_base.as_ref().map(|r| &r.report)
    }

    /// Number of modules, i.e. the maximal session count `N` of the sweep.
    pub fn max_sessions(&self) -> usize {
        self.input.binding().num_modules()
    }

    /// Synthesises the non-BIST reference design from a clone of the base
    /// model.
    ///
    /// # Errors
    ///
    /// Same contract as [`crate::reference::synthesize_reference`].
    pub fn synthesize_reference(&self) -> Result<ReferenceDesign, CoreError> {
        let mut formulation = self.base.clone();
        formulation.set_reference_objective();
        let mut solver_config = self.config.solver.clone();
        if self.config.warm_start {
            if let Some(values) = formulation.baseline_warm_values() {
                solver_config.initial_solutions.push(values);
            }
        }
        solve_reference_formulation(
            self.config,
            &formulation,
            &solver_config,
            self.reduced_base.as_ref(),
        )
    }

    /// Synthesises the ADVBIST design for one `k`, reusing the base model.
    ///
    /// # Errors
    ///
    /// Same contract as [`crate::synthesis::synthesize_bist`].
    pub fn synthesize(&self, k: usize) -> Result<BistDesign, CoreError> {
        self.synthesize_seeded(k, None).map(|o| o.design)
    }

    /// Synthesises one `k`, optionally chaining a previous register
    /// assignment in as an extra warm-start candidate.
    ///
    /// # Errors
    ///
    /// Same contract as [`crate::synthesis::synthesize_bist`].
    pub fn synthesize_seeded(
        &self,
        k: usize,
        previous: Option<&RegisterAssignment>,
    ) -> Result<SweepOutcome, CoreError> {
        self.synthesize_inner(k, previous, None, false, None)
    }

    /// [`SynthesisEngine::synthesize_seeded`] with solve-state snapshots:
    /// capture is switched on (an early-stopped solve carries a resumable
    /// [`SolveSnapshot`] on [`BistDesign::snapshot`]) and, when `resume` is
    /// given, the search continues the snapshotted tree instead of starting
    /// a fresh one. A resumed solve that runs to completion reaches exactly
    /// the objective and total node count of an uninterrupted solve — the
    /// snapshot restores the frontier, incumbent, pseudo-costs, cut pool and
    /// warm bases, so no node is explored twice.
    ///
    /// The snapshot must come from a solve of the *same* per-k instance
    /// (same circuit, same `k`, same configuration); the solver rejects
    /// mismatched snapshots with a loud error instead of silently starting
    /// over.
    ///
    /// # Errors
    ///
    /// Same contract as [`crate::synthesis::synthesize_bist`], plus
    /// [`bist_ilp::IlpError::Snapshot`] (as [`CoreError::Ilp`]) when the
    /// snapshot does not belong to this instance.
    pub fn synthesize_resumable(
        &self,
        k: usize,
        previous: Option<&RegisterAssignment>,
        resume: Option<Arc<SolveSnapshot>>,
    ) -> Result<SweepOutcome, CoreError> {
        self.synthesize_inner(k, previous, None, true, resume)
    }

    /// Content fingerprint of the full per-k model (constraint matrix,
    /// objective, variable bounds and integrality), before any presolve.
    /// Two engines produce the same fingerprint for a given `k` exactly
    /// when they were built from the same circuit and configuration — this
    /// is the key the job service's cross-job [`SolveCache`] shares results
    /// under.
    ///
    /// [`SolveCache`]: https://docs.rs/advbist
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidSessionCount`] if `k` is not in `1..=N`.
    pub fn model_fingerprint(&self, k: usize) -> Result<u64, CoreError> {
        let mut formulation = self.base.clone();
        formulation.add_bist(k)?;
        formulation.set_bist_objective();
        Ok(bist_ilp::model_fingerprint(&formulation.model))
    }

    /// [`SynthesisEngine::synthesize_seeded`] with a live [`SolveEvent`]
    /// stream from the underlying ILP search — incumbents, bound progress,
    /// node milestones and the final `Done`. The observer runs on the
    /// solving thread; an observer that raises the solver config's
    /// [`bist_ilp::CancelToken`] stops the solve with the best design found
    /// so far.
    ///
    /// # Errors
    ///
    /// Same contract as [`crate::synthesis::synthesize_bist`].
    pub fn synthesize_observed(
        &self,
        k: usize,
        previous: Option<&RegisterAssignment>,
        observer: &mut dyn FnMut(&SolveEvent),
    ) -> Result<SweepOutcome, CoreError> {
        self.synthesize_inner(k, previous, Some(observer), false, None)
    }

    fn synthesize_inner(
        &self,
        k: usize,
        previous: Option<&RegisterAssignment>,
        observer: Option<&mut dyn FnMut(&SolveEvent)>,
        snapshots: bool,
        resume: Option<Arc<SolveSnapshot>>,
    ) -> Result<SweepOutcome, CoreError> {
        let start = Instant::now();
        let mut formulation = self.base.clone();
        formulation.add_bist(k)?;
        formulation.set_bist_objective();

        let mut solver_config = self.config.solver.clone();
        if snapshots || solver_config.budget.snapshot == Some(true) {
            solver_config.snapshot = true;
        }
        solver_config.resume = resume;
        if self.config.warm_start {
            if let Some(values) = formulation.baseline_warm_values() {
                solver_config.initial_solutions.push(values);
            }
        }
        let mut chained = false;
        if let Some(previous) = previous {
            if let Some(values) = formulation.warm_values_for_assignment(previous) {
                solver_config.initial_solutions.push(values);
                chained = true;
                // A chained incumbent anchors the search well enough that
                // shallow Gomory rounds help from the first descent.
                solver_config.eager_tree_cuts = true;
            }
        }

        let (design, registers) = solve_bist_formulation(
            self.input,
            self.config,
            &formulation,
            &solver_config,
            k,
            self.reduced_base.as_ref(),
            observer,
        )?;
        Ok(SweepOutcome {
            design,
            seconds: start.elapsed().as_secs_f64(),
            chained,
            registers,
        })
    }

    /// Runs the full sweep `k = 1..=N` sequentially, chaining each incumbent
    /// into the next solve.
    ///
    /// # Errors
    ///
    /// Propagates the first error of any individual synthesis.
    pub fn sweep_chained(&self) -> Result<Vec<SweepOutcome>, CoreError> {
        let mut outcomes = Vec::with_capacity(self.max_sessions());
        let mut previous: Option<RegisterAssignment> = None;
        for k in 1..=self.max_sessions() {
            let outcome = self.synthesize_seeded(k, previous.as_ref())?;
            previous = Some(outcome.registers.clone());
            outcomes.push(outcome);
        }
        Ok(outcomes)
    }

    /// Runs the full sweep `k = 1..=N` across a scoped thread pool. Results
    /// are collected in ascending-k order, so the output is deterministic
    /// regardless of scheduling.
    ///
    /// The worker count is capped at the machine's available parallelism so
    /// wall-clock-limited solves are not diluted by oversubscription; on a
    /// single-core host this is exactly the sequential per-k loop. Each
    /// solve uses the same warm-start candidates as an independent
    /// [`crate::synthesis::synthesize_bist`] call, so the per-k results are
    /// identical to independent rebuild solves under any deterministic
    /// budget.
    ///
    /// # Errors
    ///
    /// Propagates the first error (by ascending `k`) of any synthesis.
    ///
    /// # Panics
    ///
    /// Panics if a worker thread panics (which only happens if the solve
    /// itself panics).
    pub fn sweep_parallel(&self) -> Result<Vec<SweepOutcome>, CoreError> {
        let ks: Vec<usize> = (1..=self.max_sessions()).collect();
        par_map_ordered(&ks, |&k| self.synthesize_seeded(k, None))
            .into_iter()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthesis;
    use bist_dfg::benchmarks;
    use std::time::Duration;

    #[test]
    fn engine_matches_rebuild_on_figure1() {
        let input = benchmarks::figure1();
        let config = SynthesisConfig::exact();
        let rebuild = synthesis::synthesize_all_sessions_rebuild(&input, &config).unwrap();
        let engine = SynthesisEngine::new(&input, &config).unwrap();
        for (outcomes, label) in [
            (engine.sweep_chained().unwrap(), "chained"),
            (engine.sweep_parallel().unwrap(), "parallel"),
        ] {
            assert_eq!(outcomes.len(), rebuild.len(), "{label}");
            for (outcome, baseline) in outcomes.iter().zip(&rebuild) {
                assert_eq!(outcome.design.sessions, baseline.sessions, "{label}");
                assert!(
                    (outcome.design.objective - baseline.objective).abs() < 1e-6,
                    "{label} k={}: engine {} vs rebuild {}",
                    baseline.sessions,
                    outcome.design.objective,
                    baseline.objective
                );
                assert_eq!(
                    outcome.design.area.total(),
                    baseline.area.total(),
                    "{label} k={}",
                    baseline.sessions
                );
            }
        }
    }

    #[test]
    fn chained_sweep_chains_every_k_after_the_first() {
        let input = benchmarks::figure1();
        let config = SynthesisConfig::exact();
        let engine = SynthesisEngine::new(&input, &config).unwrap();
        let outcomes = engine.sweep_chained().unwrap();
        assert!(!outcomes[0].chained);
        for outcome in outcomes.iter().skip(1) {
            assert!(outcome.chained, "k={} not chained", outcome.design.sessions);
        }
    }

    #[test]
    fn engine_reference_matches_standalone_reference() {
        let input = benchmarks::figure1();
        let config = SynthesisConfig::exact();
        let standalone = crate::reference::synthesize_reference(&input, &config).unwrap();
        let engine = SynthesisEngine::new(&input, &config).unwrap();
        let via_engine = engine.synthesize_reference().unwrap();
        assert_eq!(standalone.area.total(), via_engine.area.total());
        assert!(via_engine.optimal);
    }

    #[test]
    fn parallel_sweep_under_time_budget_returns_all_k() {
        let input = benchmarks::tseng();
        let config = SynthesisConfig::time_boxed(Duration::from_millis(200));
        let engine = SynthesisEngine::new(&input, &config).unwrap();
        let outcomes = engine.sweep_parallel().unwrap();
        assert_eq!(outcomes.len(), 3);
        for (i, outcome) in outcomes.iter().enumerate() {
            assert_eq!(outcome.design.sessions, i + 1);
        }
    }

    #[test]
    fn engine_reduces_the_base_once_and_lowers_node_counts() {
        use bist_ilp::{BoundMode, SolverConfig};
        let input = benchmarks::figure1();
        let reduce_config = SynthesisConfig {
            solver: SolverConfig::exact().with_bound_mode(BoundMode::LpRelaxation),
            ..SynthesisConfig::default()
        };
        let mut plain_config = reduce_config.clone();
        plain_config.solver.presolve = false;
        plain_config.solver.cuts = false;

        let reduced_engine = SynthesisEngine::new(&input, &reduce_config).unwrap();
        let plain_engine = SynthesisEngine::new(&input, &plain_config).unwrap();
        // The base reduction exists exactly when presolve is on, and it must
        // actually shrink the base model.
        assert!(plain_engine.base_reduce_report().is_none());
        let report = reduced_engine.base_reduce_report().expect("base reduced");
        assert!(report.var_reduction_ratio() > 0.0, "{report:?}");

        // At equal bound mode, reduce+cuts must strictly lower the total
        // branch-and-bound node count of the sweep (the PR-2 acceptance
        // criterion), without changing any objective.
        let reduced_sweep = reduced_engine.sweep_parallel().unwrap();
        let plain_sweep = plain_engine.sweep_parallel().unwrap();
        let reduced_nodes: u64 = reduced_sweep.iter().map(|o| o.design.stats.nodes).sum();
        let plain_nodes: u64 = plain_sweep.iter().map(|o| o.design.stats.nodes).sum();
        assert!(
            reduced_nodes < plain_nodes,
            "reduce+cuts explored {reduced_nodes} nodes vs {plain_nodes} without"
        );
        for (reduced, plain) in reduced_sweep.iter().zip(&plain_sweep) {
            assert!((reduced.design.objective - plain.design.objective).abs() < 1e-6);
            assert!(reduced.design.stats.presolve_vars_removed > 0);
        }
    }

    #[test]
    fn warm_sweep_spends_fewer_simplex_iterations_than_cold_on_figure1() {
        // Node LPs re-solve warm from the parent basis; that path must
        // engage across the whole LP-mode sweep.
        use bist_ilp::{BoundMode, SolverConfig};
        let input = benchmarks::figure1();
        let config = SynthesisConfig {
            solver: SolverConfig::exact().with_bound_mode(BoundMode::LpRelaxation),
            ..SynthesisConfig::default()
        };
        let engine = SynthesisEngine::new(&input, &config).unwrap();
        let warm = sweep_search_stats(&engine.sweep_parallel().unwrap());

        assert!(warm.warm_lp_solves > 0, "{warm:?}");
        // The counter split is coherent: primal + dual pivots cover the
        // total, and the warm sweep actually spends dual pivots.
        assert_eq!(
            warm.lp_iterations,
            warm.lp_primal_iterations + warm.lp_dual_iterations,
            "{warm:?}"
        );
        assert!(warm.lp_dual_iterations > 0, "{warm:?}");
    }

    #[test]
    fn observed_synthesis_streams_events_and_matches_the_blind_solve() {
        use bist_ilp::SolveEvent;
        let input = benchmarks::figure1();
        let config = SynthesisConfig::exact();
        let engine = SynthesisEngine::new(&input, &config).unwrap();
        let blind = engine.synthesize(1).unwrap();
        let mut events: Vec<SolveEvent> = Vec::new();
        let observed = engine
            .synthesize_observed(1, None, &mut |event| events.push(event.clone()))
            .unwrap();
        assert_eq!(observed.design.area.total(), blind.area.total());
        assert!((observed.design.objective - blind.objective).abs() < 1e-9);
        // The stream ends with Done and carried at least one incumbent
        // (the warm start at minimum), whose final value is the objective.
        assert!(matches!(events.last(), Some(SolveEvent::Done { .. })));
        let last_incumbent = events
            .iter()
            .rev()
            .find_map(|e| match e {
                SolveEvent::Incumbent { objective, .. } => Some(*objective),
                _ => None,
            })
            .expect("at least one incumbent event");
        assert!((last_incumbent - blind.objective).abs() < 1e-6);
    }

    #[test]
    fn cancelled_sweep_solve_returns_the_warm_incumbent() {
        use bist_ilp::CancelToken;
        let input = benchmarks::tseng();
        let token = CancelToken::new();
        token.cancel();
        let mut config = SynthesisConfig::exact();
        config.solver.cancel = Some(token);
        let engine = SynthesisEngine::new(&input, &config).unwrap();
        // The warm-start baseline is installed before the (immediately
        // cancelled) tree search, so a valid non-optimal design comes back.
        let outcome = engine.synthesize_seeded(1, None).unwrap();
        assert!(!outcome.design.optimal);
        assert_eq!(outcome.design.stats.nodes, 0);
        assert!(outcome.design.area.total() > 0);
    }

    #[test]
    fn single_solve_via_engine_is_a_valid_design() {
        let input = benchmarks::paulin();
        let config = SynthesisConfig::time_boxed(Duration::from_millis(300));
        let engine = SynthesisEngine::new(&input, &config).unwrap();
        let design = engine.synthesize(engine.max_sessions()).unwrap();
        assert_eq!(design.sessions, engine.max_sessions());
        assert!(design.area.total() > 0);
    }
}
