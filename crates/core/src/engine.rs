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
//!    ([`SynthesisEngine::sweep_chained`], the one sweep).
//!
//! The engine is the one place a solve's model is built and reduced
//! ([`SynthesisEngine::reduced_model`] hands out the per-k one). The
//! rebuild path ([`crate::synthesis::synthesize_bist`]) and the standalone
//! reference ([`crate::reference::synthesize_reference`]) are each a fresh
//! engine per call, so an unchained [`SynthesisEngine::synthesize`] repeats
//! the rebuild search of its `k` exactly under any deterministic budget
//! (node limits, or exact solves) — the engine just pays the base reduction
//! once per circuit. The chained sweep's k−1 candidate strengthens the
//! initial incumbent: solved exactly it lands on the same optima, under a
//! node cap it searches a different tree.
//!
//! **Warm bases and the per-k delta replay.** Every per-k solve re-solves
//! its child-node LPs with the bounded dual simplex from the parent's basis
//! (see `bist_ilp::simplex::Basis` — column statuses plus the basic set,
//! which each warm start refactorizes), so a node costs a handful of dual
//! pivots instead of a cold two-phase solve. Every child holds its
//! parent's basis, and cut installs extend it, so cold node LPs are rare.
//! Bases do *not* cross `k` boundaries: the per-k BIST delta changes the row set (Eqs.
//! 6–23 and the objective differ per `k`), and a basis is only valid for
//! the exact rows it was factorized from — what crosses `k` is the reduced
//! base model and the k−1 incumbent values, while basis reuse lives inside
//! each per-k tree. Every outcome's [`bist_ilp::SolveStats`] carries the
//! warm/cold LP counters — including the primal/dual pivot split and the
//! kernel's refactorization count — so harnesses can quote the effect
//! deterministically.

use std::sync::Arc;
use std::time::Instant;

use bist_dfg::allocate::RegisterAssignment;
use bist_dfg::SynthesisInput;
use bist_ilp::reduce::{self, reduce_prefix, ReduceOptions, ReduceReport, ReducedModel};
use bist_ilp::{SolveEvent, SolveSnapshot, SolverConfig};

use crate::config::SynthesisConfig;
use crate::error::CoreError;
use crate::formulation::BistFormulation;
use crate::reference::{solve_reference_formulation, ReferenceDesign};
use crate::synthesis::{solve_bist_formulation, BistDesign};

/// Maps `f` over `items` on a scoped thread pool and returns the results in
/// item order, independent of scheduling. At most `max_workers` scoped
/// threads run at once, further capped at the machine's available
/// parallelism (so wall-clock-limited work is not diluted by
/// oversubscription) and the item count; with one worker this is exactly
/// the sequential loop. The job service passes its worker cap, the
/// benchmark harness's per-circuit fan-out `usize::MAX`.
///
/// # Panics
///
/// Panics if `f` panics on a worker thread.
pub fn par_map_ordered<T, R, F>(items: &[T], max_workers: usize, f: F) -> Vec<R>
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
    /// The base model after the reducing presolve, computed once per
    /// circuit; every solve clones it and replays its delta through the
    /// variable map.
    reduced_base: ReducedModel,
}

impl<'a> SynthesisEngine<'a> {
    /// Builds the circuit-level base model (register assignment +
    /// interconnect + multiplexer sizing) once, and runs the reducing
    /// pipeline on it once, so the per-k solves clone the *reduced* base
    /// instead of the raw one.
    ///
    /// # Errors
    ///
    /// Propagates formulation errors (for example
    /// [`CoreError::TooFewRegisters`]).
    pub fn new(input: &'a SynthesisInput, config: &'a SynthesisConfig) -> Result<Self, CoreError> {
        let mut base = BistFormulation::new(input, config)?;
        base.add_interconnect();
        base.add_mux_sizing();
        let reduced_base = reduce_prefix(
            &base.model,
            base.model.num_constraints(),
            base.model.num_vars(),
            &ReduceOptions::base(),
        );
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

    /// Reduction counters of the shared base model. The reduction runs
    /// exactly once per engine (i.e. once per circuit), in
    /// [`SynthesisEngine::new`].
    pub fn base_reduce_report(&self) -> &ReduceReport {
        &self.reduced_base.report
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
        let solver_config = self.solver_config(&formulation);
        solve_reference_formulation(&formulation, &self.reduce(&formulation)?, &solver_config)
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
    /// capture is switched on (the solve runs with
    /// [`bist_ilp::Budget::snapshot`] set to `Some(true)`, so an
    /// early-stopped solve carries a resumable [`SolveSnapshot`] on
    /// [`BistDesign::snapshot`]) and, when `resume` is
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
    /// is the key the job service's cross-job solve cache
    /// (`advbist::service::SolveCache`) shares results under.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidSessionCount`] if `k` is not in `1..=N`.
    pub fn model_fingerprint(&self, k: usize) -> Result<u64, CoreError> {
        Ok(bist_ilp::model_fingerprint(&self.formulation(k)?.model))
    }

    /// The reduced per-k model: the model every solve of `k` on this
    /// engine branches on, before its cut pool and warm starts. Its
    /// variable map leads back to the full per-k formulation.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidSessionCount`] if `k` is not in `1..=N`.
    pub fn reduced_model(&self, k: usize) -> Result<ReducedModel, CoreError> {
        self.reduce(&self.formulation(k)?)
    }

    /// The full per-k formulation: a clone of the base plus the BIST layer
    /// for `k` sessions (Eqs. 6–23) and the BIST objective.
    fn formulation(&self, k: usize) -> Result<BistFormulation<'a>, CoreError> {
        let mut formulation = self.base.clone();
        formulation.add_bist(k)?;
        formulation.set_bist_objective();
        Ok(formulation)
    }

    /// Reduces a full formulation on top of the reduced base: the rows past
    /// the base and the objective are replayed through the base's variable
    /// map, then the pipeline runs once more so the delta rows (the
    /// aggregated OR/BILBO structure) get reduced and disaggregated too.
    fn reduce(&self, formulation: &BistFormulation<'_>) -> Result<ReducedModel, CoreError> {
        let extended = self.reduced_base.extend(&formulation.model)?;
        Ok(extended.compose(reduce::reduce(&extended.model, &ReduceOptions::full())))
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

    /// The solver configuration of one solve of `formulation`: the
    /// configured solver settings plus, with [`SynthesisConfig::warm_start`],
    /// the sequential baseline design as the first warm-start candidate.
    fn solver_config(&self, formulation: &BistFormulation<'_>) -> SolverConfig {
        let mut solver_config = self.config.solver.clone();
        if self.config.warm_start {
            if let Some(values) = formulation.baseline_warm_values() {
                solver_config.initial_solutions.push(values);
            }
        }
        solver_config
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
        let formulation = self.formulation(k)?;
        let mut solver_config = self.solver_config(&formulation);
        if snapshots {
            solver_config.budget.snapshot = Some(true);
        }
        solver_config.resume = resume;
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

        let reduced = self.reduce(&formulation)?;
        let (design, registers) =
            solve_bist_formulation(&formulation, &reduced, &solver_config, observer)?;
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthesis;
    use bist_dfg::benchmarks;
    use std::time::Duration;

    #[test]
    fn engine_matches_rebuild_on_figure1() {
        use bist_ilp::{BoundMode, Budget};
        let with = |mode: BoundMode, budget: Budget| {
            let mut config = SynthesisConfig::exact();
            config.solver.bound_mode = mode;
            config.solver.budget = budget;
            config
        };
        // figure1 solved exactly under both bound modes; tseng and paulin
        // node-capped with LP bounds at the root only, so below the root
        // they solve no LPs (their LP rows are the sweep's service gate).
        let root_lp = BoundMode::Hybrid { lp_depth: 0 };
        let cases = [
            (
                "figure1",
                benchmarks::figure1(),
                with(BoundMode::LpRelaxation, Budget::unlimited()),
            ),
            (
                "figure1",
                benchmarks::figure1(),
                with(root_lp, Budget::unlimited()),
            ),
            (
                "tseng",
                benchmarks::tseng(),
                with(root_lp, Budget::nodes(200)),
            ),
            (
                "paulin",
                benchmarks::paulin(),
                with(root_lp, Budget::nodes(200)),
            ),
        ];
        for (name, input, config) in &cases {
            let mode = config.solver.bound_mode;
            let rebuild: Vec<_> = (1..=input.binding().num_modules())
                .map(|k| synthesis::synthesize_bist(input, k, config).unwrap())
                .collect();
            let engine = SynthesisEngine::new(input, config).unwrap();
            // Unchained, the engine repeats every rebuild search exactly.
            for baseline in &rebuild {
                let k = baseline.sessions;
                let design = engine.synthesize(k).unwrap();
                assert_eq!(design.sessions, k, "{name} {mode:?}");
                assert_eq!(
                    design.objective.to_bits(),
                    baseline.objective.to_bits(),
                    "{name} k={k} {mode:?}: engine {} vs rebuild {}",
                    design.objective,
                    baseline.objective
                );
                assert_eq!(
                    design.stats.nodes, baseline.stats.nodes,
                    "{name} k={k} {mode:?}"
                );
                assert_eq!(
                    design.stats.lp_pivots, baseline.stats.lp_pivots,
                    "{name} k={k} {mode:?}"
                );
            }
            // Chained, it starts from a stronger incumbent and searches a
            // different tree; solved exactly, it lands on the same optima.
            if config.solver.budget.node_limit.is_some() {
                continue;
            }
            for (outcome, baseline) in engine.sweep_chained().unwrap().iter().zip(&rebuild) {
                let k = baseline.sessions;
                assert!(
                    (outcome.design.objective - baseline.objective).abs() < 1e-6,
                    "chained {name} k={k} {mode:?}: engine {} vs rebuild {}",
                    outcome.design.objective,
                    baseline.objective
                );
                assert_eq!(
                    outcome.design.area.total(),
                    baseline.area.total(),
                    "chained {name} k={k} {mode:?}"
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
        // The engine's reference solve after a BIST solve on the same
        // engine: the shared base must come out of it untouched.
        engine.synthesize(1).unwrap();
        let via_engine = engine.synthesize_reference().unwrap();
        assert!(via_engine.optimal);
        assert_eq!(standalone.area.total(), via_engine.area.total());
        // The final incumbent's objective, bit for bit.
        let objective = |stats: &bist_ilp::SolveStats| {
            stats.improvements.last().map(|imp| imp.objective.to_bits())
        };
        assert!(objective(&via_engine.stats).is_some());
        assert_eq!(objective(&standalone.stats), objective(&via_engine.stats));
        assert_eq!(standalone.stats.nodes, via_engine.stats.nodes);
        assert_eq!(standalone.stats.lp_pivots, via_engine.stats.lp_pivots);
    }

    #[test]
    fn chained_sweep_under_time_budget_returns_all_k() {
        let input = benchmarks::tseng();
        let config = SynthesisConfig::time_boxed(Duration::from_millis(200));
        let engine = SynthesisEngine::new(&input, &config).unwrap();
        let outcomes = engine.sweep_chained().unwrap();
        assert_eq!(outcomes.len(), 3);
        for (i, outcome) in outcomes.iter().enumerate() {
            assert_eq!(outcome.design.sessions, i + 1);
        }
    }

    #[test]
    fn engine_reduces_the_base_once_and_lowers_node_counts() {
        use bist_ilp::reduce::prefix_reductions_on_thread;
        use bist_ilp::solver::BranchAndBound;
        // Exact solves under LP bounds, through the engine (reduce and cuts
        // on) and through the raw branch and bound (cuts off).
        let input = benchmarks::figure1();
        let config = SynthesisConfig::exact();
        let sessions = input.binding().num_modules();
        let ks = 1..=sessions;

        // The counter is thread-local, so every solve it watches runs on
        // this thread. The engine reduces the base once, at construction,
        // and its per-k solves clone the reduced base ...
        let before = prefix_reductions_on_thread();
        let engine = SynthesisEngine::new(&input, &config).unwrap();
        let reduced: Vec<_> = ks.clone().map(|k| engine.synthesize(k).unwrap()).collect();
        assert_eq!(prefix_reductions_on_thread() - before, 1);
        // ... while the rebuild path, a fresh engine per k, reduces once
        // per k.
        let before = prefix_reductions_on_thread();
        for k in ks.clone() {
            synthesis::synthesize_bist(&input, k, &config).unwrap();
        }
        assert_eq!(prefix_reductions_on_thread() - before, sessions);

        // The base reduction must actually shrink the base model.
        let report = engine.base_reduce_report();
        assert!(report.var_reduction_ratio() > 0.0, "{report:?}");

        // reduce+cuts explores no more nodes than the raw branch and bound
        // with cuts off (same unreduced per-k model, same warm start) at
        // any k and strictly fewer over the sweep, without changing any
        // objective.
        let plain: Vec<_> = ks
            .map(|k| {
                let formulation = engine.formulation(k).unwrap();
                let solver_config = engine.solver_config(&formulation).with_cuts(false);
                BranchAndBound::new(&formulation.model, solver_config)
                    .run()
                    .unwrap()
            })
            .collect();
        for (reduced, plain) in reduced.iter().zip(&plain) {
            assert!(plain.is_optimal());
            assert!(
                reduced.stats.nodes <= plain.stats().nodes,
                "k={}: reduce+cuts explored {} nodes vs {} without",
                reduced.sessions,
                reduced.stats.nodes,
                plain.stats().nodes
            );
            assert!((reduced.objective - plain.objective()).abs() < 1e-6);
            assert!(reduced.stats.presolve_vars_removed > 0);
        }
        let reduced_total: u64 = reduced.iter().map(|d| d.stats.nodes).sum();
        let plain_total: u64 = plain.iter().map(|s| s.stats().nodes).sum();
        assert!(reduced_total < plain_total);
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
        let outcomes = engine.sweep_chained().unwrap();
        let total = |counter: fn(&bist_ilp::SolveStats) -> u64| -> u64 {
            outcomes.iter().map(|o| counter(&o.design.stats)).sum()
        };
        let pivots = total(|s| s.lp_pivots);
        let primal = total(|s| s.lp_primal_pivots);
        let dual = total(|s| s.lp_dual_pivots);

        assert!(total(|s| s.warm_lp_solves) > 0);
        // The counter split is coherent: primal + dual pivots cover the
        // total, and the warm sweep actually spends dual pivots.
        assert_eq!(pivots, primal + dual);
        assert!(dual > 0);
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
        // The stream ends with its one Done and carried at least one
        // incumbent (the warm start at minimum), whose final value is the
        // objective.
        let done = events
            .iter()
            .filter(|e| matches!(e, SolveEvent::Done { .. }))
            .count();
        assert_eq!(done, 1);
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
