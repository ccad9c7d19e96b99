//! ADVBIST synthesis: one optimal BIST data path per k-test session.

use bist_datapath::report::DesignReport;
use bist_datapath::validate::validate_design;
use bist_datapath::{AreaBreakdown, Datapath, TestPlan};
use bist_dfg::allocate::RegisterAssignment;
use bist_dfg::lifetime::LifetimeTable;
use bist_dfg::SynthesisInput;
use bist_ilp::reduce::{self, ReduceOptions, ReducedModel};
use bist_ilp::{Solution, SolveEvent, SolveSession, SolveStats, SolverConfig, Status};

use crate::config::SynthesisConfig;
use crate::engine::SynthesisEngine;
use crate::error::CoreError;
use crate::extract;
use crate::formulation::BistFormulation;

/// A synthesised self-testable data path for one k-test session.
#[derive(Debug, Clone)]
pub struct BistDesign {
    /// The data path, with every register carrying its reconfiguration kind.
    pub datapath: Datapath,
    /// The k-test-session plan (which module is tested when, with which
    /// TPGs and signature register).
    pub plan: TestPlan,
    /// Area breakdown under the configured cost model.
    pub area: AreaBreakdown,
    /// Number of sub-test sessions `k`.
    pub sessions: usize,
    /// Whether the ILP proved this design area-optimal within its limits.
    pub optimal: bool,
    /// Objective value reported by the solver (includes the constant-port
    /// generator penalty, so it can exceed the register+mux area).
    pub objective: f64,
    /// Solver statistics of the main solve.
    pub stats: SolveStats,
    /// Resumable solve state, present when the solve stopped early (node
    /// budget, cancellation, deadline) *and* snapshot capture was enabled
    /// (see [`SynthesisEngine::synthesize_resumable`] and
    /// [`bist_ilp::Budget::snapshot`]). Feed it back through
    /// [`SynthesisEngine::synthesize_resumable`] to continue the very same
    /// branch-and-bound tree. `None` for completed solves.
    pub snapshot: Option<std::sync::Arc<bist_ilp::SolveSnapshot>>,
}

impl BistDesign {
    /// Area overhead in percent against a reference area.
    pub fn overhead_percent(&self, reference_area: u64) -> f64 {
        self.area.overhead_percent(reference_area)
    }

    /// Packages the design as a Table 3 style report row.
    pub fn report(&self, method: &str, circuit: &str, reference_area: u64) -> DesignReport {
        DesignReport {
            method: method.to_string(),
            circuit: circuit.to_string(),
            test_sessions: self.sessions,
            breakdown: self.area.clone(),
            reference_area,
        }
    }
}

/// Synthesises the ADVBIST design for a `k`-test session.
///
/// The full concurrent model (register + BIST register + interconnection
/// assignment) is solved with the configured limits. With
/// [`SynthesisConfig::warm_start`] enabled, the sequential design — left-edge
/// register assignment plus a greedy BIST role assignment — is encoded as the
/// solver's initial incumbent, so even under a tight time limit the returned
/// design is at least as good as what a sequential flow would produce; the
/// branch and bound then spends its budget improving on it concurrently.
///
/// # Errors
///
/// * [`CoreError::InvalidSessionCount`] if `k` is not in `1..=N`,
/// * [`CoreError::Infeasible`] if no BIST design exists for this `k`,
/// * [`CoreError::NoSolutionWithinLimits`] if the limits expired before any
///   feasible design was found,
/// * [`CoreError::Validation`] if the extracted design fails the structural
///   or BIST validator (a formulation bug, never expected).
pub fn synthesize_bist(
    input: &SynthesisInput,
    k: usize,
    config: &SynthesisConfig,
) -> Result<BistDesign, CoreError> {
    let mut formulation = BistFormulation::new(input, config)?;
    formulation.add_interconnect();
    formulation.add_mux_sizing();
    formulation.add_bist(k)?;
    formulation.set_bist_objective();

    let mut solver_config = config.solver.clone();
    if config.warm_start {
        if let Some(values) = formulation.baseline_warm_values() {
            solver_config.initial_solutions.push(values);
        }
    }
    solve_bist_formulation(input, config, &formulation, &solver_config, k, None, None)
        .map(|(d, _)| d)
}

/// Solves a fully-built formulation through the reducing presolve, as one
/// observable solve session.
///
/// With [`SolverConfig::presolve`] enabled (the default) the circuit-level
/// base prefix of the model (everything before the BIST delta, see
/// [`BistFormulation::base_dims`]) is reduced with the delta-safe pass set
/// and the delta rows plus the objective are replayed through the variable
/// map; the branch and bound then explores the reduced model and the
/// solution is lifted back. The caller may pass a pre-computed reduced base
/// (the [`SynthesisEngine`] builds it once per circuit); when `None`, the
/// reduction is computed here from the same prefix, so the rebuild-per-k
/// path and the engine run bit-identical searches.
///
/// The solver's budget and cancellation token travel inside
/// `solver_config`; `observer`, when given, receives the live
/// [`SolveEvent`] stream of the underlying search (including the final
/// [`SolveEvent::Done`]).
///
/// # Errors
///
/// Propagates solver errors.
pub(crate) fn solve_formulation(
    formulation: &BistFormulation<'_>,
    solver_config: &SolverConfig,
    reduced_base: Option<&ReducedModel>,
    mut observer: Option<&mut dyn FnMut(&SolveEvent)>,
) -> Result<Solution, CoreError> {
    if !solver_config.presolve {
        // The plain path *is* a solve session (which emits `Done` itself).
        let session = SolveSession::with_config(&formulation.model, solver_config.clone());
        return Ok(match observer.as_mut() {
            Some(observer) => session.on_event(|event| observer(event)).solve()?,
            None => session.solve()?,
        });
    }
    let computed;
    let base = match reduced_base {
        Some(base) => base,
        None => {
            let (rows, vars) = formulation.base_dims();
            computed =
                reduce::reduce_prefix(&formulation.model, rows, vars, &ReduceOptions::base());
            &computed
        }
    };
    // Replay the BIST delta and the objective through the base's variable
    // map, then run the full pipeline once more so the delta rows (the
    // aggregated OR/BILBO structure) get reduced and disaggregated too.
    let extended = base.extend(&formulation.model)?;
    let full = extended.compose(reduce::reduce(&extended.model, &ReduceOptions::full()));
    let solution = match observer.as_mut() {
        Some(observer) => {
            let mut forward = |event: &SolveEvent| observer(event);
            reduce::solve_reduced_with_events(
                &formulation.model,
                &full,
                solver_config,
                Some(&mut forward),
            )?
        }
        None => reduce::solve_reduced(&formulation.model, &full, solver_config)?,
    };
    if let Some(observer) = observer.as_mut() {
        observer(&SolveEvent::done(&solution));
    }
    Ok(solution)
}

/// Solves a fully-built BIST formulation, extracts the design and validates
/// it. Shared by the per-k rebuild path above and the layered
/// [`SynthesisEngine`]; also returns the register assignment so sweeps can
/// chain it into the next solve.
#[allow(clippy::too_many_arguments)]
pub(crate) fn solve_bist_formulation(
    input: &SynthesisInput,
    config: &SynthesisConfig,
    formulation: &BistFormulation<'_>,
    solver_config: &SolverConfig,
    k: usize,
    reduced_base: Option<&ReducedModel>,
    observer: Option<&mut dyn FnMut(&SolveEvent)>,
) -> Result<(BistDesign, RegisterAssignment), CoreError> {
    let solution = solve_formulation(formulation, solver_config, reduced_base, observer)?;

    let (chosen, optimal) = match solution.status() {
        Status::Optimal => (solution, true),
        Status::Feasible => (solution, false),
        // A cancelled solve that already holds an incumbent still yields a
        // valid (non-optimal) design; with no incumbent there is nothing to
        // extract.
        Status::Interrupted if solution.is_feasible() => (solution, false),
        Status::Interrupted => return Err(CoreError::Interrupted),
        Status::Infeasible => return Err(CoreError::Infeasible { sessions: k }),
        _ => return Err(CoreError::NoSolutionWithinLimits),
    };

    let registers = extract::register_assignment(formulation, &chosen);
    let mut datapath = extract::datapath(formulation, &chosen)?;
    let plan = extract::test_plan(formulation, &chosen);
    plan.apply_register_kinds(&mut datapath);

    let lifetimes = LifetimeTable::with_timing(input, config.input_timing)?;
    validate_design(&datapath, &plan, input, &lifetimes)?;
    if config.rtl_validation {
        // Observational only: the solution is already fixed, the pass just
        // proves its test plan works in the emitted netlist.
        bist_rtl::validate_simulated(&datapath, &plan, &bist_rtl::SimConfig::default())?;
    }

    let area = datapath.area(&config.cost);
    let snapshot = chosen.shared_snapshot();
    Ok((
        BistDesign {
            datapath,
            plan,
            area,
            sessions: k,
            optimal,
            objective: chosen.objective(),
            stats: chosen.stats().clone(),
            snapshot,
        },
        registers,
    ))
}

/// Synthesises one design per k-test session, k = 1..=N (N = number of
/// modules) — the sweep reported in Table 2 of the paper.
///
/// The sweep runs on the layered [`SynthesisEngine`]: the circuit-level base
/// model is built once and every `k` applies its BIST delta onto a clone,
/// with the solves spread across a scoped thread pool capped at the
/// machine's available parallelism (on a single core this is exactly the
/// sequential loop). Note that with a wall-clock limit ([`SolverConfig::budget`])
/// concurrent solves share the machine, trading some per-solve search depth
/// for sweep wall-clock; under deterministic budgets (node limits) the per-k
/// results are identical to independent solves. Results are returned in
/// ascending-k order regardless of thread scheduling. Use
/// [`synthesize_all_sessions_rebuild`] for the sequential rebuild-per-k
/// behaviour (kept as the benchmark baseline).
///
/// # Errors
///
/// Propagates the first error of any individual synthesis.
pub fn synthesize_all_sessions(
    input: &SynthesisInput,
    config: &SynthesisConfig,
) -> Result<Vec<BistDesign>, CoreError> {
    let engine = SynthesisEngine::new(input, config)?;
    Ok(engine
        .sweep_parallel()?
        .into_iter()
        .map(|outcome| outcome.design)
        .collect())
}

/// The pre-engine sweep: a fresh formulation is built and solved for every
/// `k`, sequentially. This is the baseline the `BENCH_sweep.json` comparison
/// measures the engine against.
///
/// # Errors
///
/// Propagates the first error of any individual synthesis.
pub fn synthesize_all_sessions_rebuild(
    input: &SynthesisInput,
    config: &SynthesisConfig,
) -> Result<Vec<BistDesign>, CoreError> {
    let n = input.binding().num_modules();
    (1..=n).map(|k| synthesize_bist(input, k, config)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::synthesize_reference;
    use bist_datapath::TestRegisterKind;
    use bist_dfg::benchmarks;

    #[test]
    fn figure1_one_test_session_is_valid_and_optimal() {
        let input = benchmarks::figure1();
        let config = SynthesisConfig::exact();
        let design = synthesize_bist(&input, 1, &config).unwrap();
        assert!(design.optimal);
        assert_eq!(design.sessions, 1);
        assert_eq!(design.plan.num_sessions(), 1);
        // Both modules tested concurrently.
        assert_eq!(design.plan.sessions[0].modules.len(), 2);
        // At least one register must compact and at least one must generate.
        let kinds: Vec<TestRegisterKind> = (0..design.datapath.num_registers())
            .map(|r| design.datapath.register_kind(r))
            .collect();
        assert!(kinds.iter().any(|k| k.can_compact()));
        assert!(kinds.iter().any(|k| k.can_generate()));
    }

    #[test]
    fn figure1_two_test_sessions_cost_no_more_than_one() {
        let input = benchmarks::figure1();
        let config = SynthesisConfig::exact();
        let reference = synthesize_reference(&input, &config).unwrap();
        let k1 = synthesize_bist(&input, 1, &config).unwrap();
        let k2 = synthesize_bist(&input, 2, &config).unwrap();
        // More test sessions means weaker concurrency requirements, so the
        // optimal area can only stay equal or shrink (the paper's Table 2
        // shows exactly this monotone trend).
        assert!(k2.area.total() <= k1.area.total());
        // And both must cost at least the reference.
        assert!(k1.area.total() >= reference.area.total());
        assert!(k1.overhead_percent(reference.area.total()) >= 0.0);
    }

    #[test]
    fn invalid_session_counts_are_rejected() {
        let input = benchmarks::figure1();
        let config = SynthesisConfig::exact();
        assert!(matches!(
            synthesize_bist(&input, 0, &config),
            Err(CoreError::InvalidSessionCount { .. })
        ));
        assert!(matches!(
            synthesize_bist(&input, 5, &config),
            Err(CoreError::InvalidSessionCount { .. })
        ));
    }

    #[test]
    fn sweep_covers_every_session_count() {
        let input = benchmarks::figure1();
        let config = SynthesisConfig::exact();
        let designs = synthesize_all_sessions(&input, &config).unwrap();
        assert_eq!(designs.len(), 2);
        assert_eq!(designs[0].sessions, 1);
        assert_eq!(designs[1].sessions, 2);
    }

    #[test]
    fn time_boxed_synthesis_still_returns_a_valid_design() {
        let input = benchmarks::tseng();
        let config = SynthesisConfig::time_boxed(std::time::Duration::from_millis(500));
        let design = synthesize_bist(&input, 3, &config).unwrap();
        assert_eq!(design.sessions, 3);
        assert_eq!(design.datapath.num_registers(), 5);
        // The validator ran inside synthesize_bist; re-run it here for good
        // measure.
        let lifetimes = LifetimeTable::new(&input).unwrap();
        validate_design(&design.datapath, &design.plan, &input, &lifetimes).unwrap();
    }

    #[test]
    fn rtl_validation_flag_simulates_every_extracted_design() {
        let input = benchmarks::figure1();
        let config = SynthesisConfig::exact().with_rtl_validation(true);
        for k in 1..=2 {
            let design = synthesize_bist(&input, k, &config).unwrap();
            // The flag is observational: re-running the pass standalone on
            // the returned design reproduces a clean report with full
            // per-session coverage.
            let report = bist_rtl::validate_simulated(
                &design.datapath,
                &design.plan,
                &bist_rtl::SimConfig::default(),
            )
            .unwrap();
            assert_eq!(report.sessions.len(), k);
        }
        // And the flag never changes the solution itself.
        let with = synthesize_bist(&input, 2, &config).unwrap();
        let without = synthesize_bist(&input, 2, &SynthesisConfig::exact()).unwrap();
        assert_eq!(with.area.total(), without.area.total());
        assert_eq!(with.plan, without.plan);
        assert_eq!(with.datapath, without.datapath);
    }

    #[test]
    fn report_row_carries_the_method_and_circuit() {
        let input = benchmarks::figure1();
        let config = SynthesisConfig::exact();
        let reference = synthesize_reference(&input, &config).unwrap();
        let design = synthesize_bist(&input, 2, &config).unwrap();
        let report = design.report("ADVBIST", "figure1", reference.area.total());
        assert_eq!(report.method, "ADVBIST");
        assert_eq!(report.circuit, "figure1");
        assert!(report.overhead_percent() >= 0.0);
    }
}
