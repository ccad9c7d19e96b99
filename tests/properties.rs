//! Property-based tests over randomly generated inputs: the invariants that
//! must hold for *every* circuit and every small 0-1 model, not just the six
//! paper benchmarks. The cases are driven by a deterministic in-repo PRNG
//! (see `common`), so every failure message names the seed that reproduces
//! it.

mod common;

use std::time::Duration;

use advbist::baselines::{synthesize_advan, synthesize_bits, synthesize_ralloc};
use advbist::core::{reference, synthesis, SynthesisConfig};
use advbist::datapath::validate::validate_design;
use advbist::datapath::{CostModel, Datapath};
use advbist::dfg::allocate::left_edge;
use advbist::dfg::benchmarks::{random_dfg, RandomDfgConfig};
use advbist::dfg::lifetime::{InputTiming, LifetimeTable};
use advbist::ilp::propagate::Domains;
use advbist::ilp::reduce::{reduce, solve_reduced_with_events, ReduceOptions, VarDisposition};
use advbist::ilp::simplex::{resolve_with_basis, solve_lp_basis, LpStatus};
use advbist::ilp::sparse::SparseModel;
use advbist::ilp::{BoundMode, CmpOp, Model, SolverConfig};
use common::{brute_force, random_binary_model, Rng};

/// Draws a random DFG configuration from a seeded PRNG, mirroring the
/// proptest strategy the seed repository used.
fn arbitrary_config(rng: &mut Rng) -> RandomDfgConfig {
    RandomDfgConfig {
        seed: rng.range(0, 500),
        num_ops: rng.range(4, 10) as usize,
        num_inputs: rng.range(3, 6) as usize,
        multipliers: rng.range(1, 3) as usize,
        alus: 1,
    }
}

/// Left-edge allocation always hits the horizontal-crossing lower bound and
/// never co-locates conflicting variables.
#[test]
fn left_edge_is_optimal_and_valid() {
    let mut rng = Rng::new(0x1e01);
    for case in 0..24 {
        let config = arbitrary_config(&mut rng);
        let input = random_dfg(&config);
        let lifetimes = LifetimeTable::new(&input).unwrap();
        let assignment = left_edge(&lifetimes);
        assert_eq!(
            assignment.num_registers(),
            lifetimes.min_registers(),
            "case {case}, config {config:?}"
        );
        assert!(
            assignment.is_valid(&lifetimes),
            "case {case}, config {config:?}"
        );
    }
}

/// Loading primary inputs early (FromStart) can only increase register
/// pressure relative to just-in-time loading.
#[test]
fn input_timing_monotonicity() {
    let mut rng = Rng::new(0x71b3);
    for case in 0..24 {
        let config = arbitrary_config(&mut rng);
        let input = random_dfg(&config);
        let jit = LifetimeTable::with_timing(&input, InputTiming::JustInTime).unwrap();
        let early = LifetimeTable::with_timing(&input, InputTiming::FromStart).unwrap();
        assert!(
            early.min_registers() >= jit.min_registers(),
            "case {case}, config {config:?}"
        );
    }
}

/// Every heuristic baseline produces a design that passes the structural and
/// BIST validators, for every random circuit and the maximal k.
#[test]
fn baselines_always_produce_valid_designs() {
    let mut rng = Rng::new(0xba5e);
    for case in 0..24 {
        let config = arbitrary_config(&mut rng);
        let input = random_dfg(&config);
        let cost = CostModel::eight_bit();
        let lifetimes = LifetimeTable::new(&input).unwrap();
        let k = input.binding().num_modules();
        for (method, result) in [
            ("ADVAN", synthesize_advan(&input, k, &cost)),
            ("RALLOC", synthesize_ralloc(&input, k, &cost)),
            ("BITS", synthesize_bits(&input, k, &cost)),
        ] {
            let design = result
                .unwrap_or_else(|e| panic!("{method} failed on case {case} ({config:?}): {e}"));
            validate_design(&design.datapath, &design.plan, &input, &lifetimes)
                .unwrap_or_else(|e| panic!("{method} invalid on case {case} ({config:?}): {e}"));
            assert!(design.area.total() > 0, "{method}, case {case}");
        }
    }
}

/// The data path derived from any valid register assignment implements every
/// DFG edge (checked via its area being computable and the structural
/// validator accepting it).
#[test]
fn datapath_construction_is_total() {
    let mut rng = Rng::new(0xd47a);
    for case in 0..24 {
        let config = arbitrary_config(&mut rng);
        let input = random_dfg(&config);
        let lifetimes = LifetimeTable::new(&input).unwrap();
        let assignment = left_edge(&lifetimes);
        let datapath = Datapath::from_register_assignment(&input, &assignment, 8).unwrap();
        assert_eq!(
            datapath.num_registers(),
            lifetimes.min_registers(),
            "case {case}, config {config:?}"
        );
        advbist::datapath::validate::validate_structure(&datapath, &input, &lifetimes)
            .unwrap_or_else(|e| panic!("structure invalid on case {case} ({config:?}): {e}"));
        let area = datapath.area(&CostModel::eight_bit());
        assert!(area.total() >= 208 * datapath.num_registers() as u64);
    }
}

/// The time-boxed ADVBIST flow always returns a *validated* design on random
/// circuits, and its area is at least the reference area.
#[test]
fn advbist_designs_are_always_valid() {
    let mut rng = Rng::new(0xadb1);
    for case in 0..6 {
        let seed = rng.range(0, 200);
        let input = random_dfg(&RandomDfgConfig {
            seed,
            num_ops: 6,
            num_inputs: 4,
            multipliers: 1,
            alus: 1,
        });
        let config = SynthesisConfig::time_boxed(Duration::from_millis(300));
        let lifetimes = LifetimeTable::new(&input).unwrap();
        let reference = reference::synthesize_reference(&input, &config).unwrap();
        let k = input.binding().num_modules();
        let design = synthesis::synthesize_bist(&input, k, &config).unwrap();
        validate_design(&design.datapath, &design.plan, &input, &lifetimes)
            .unwrap_or_else(|e| panic!("case {case} (dfg seed {seed}): {e}"));
        assert!(
            design.area.total() >= reference.area.total(),
            "case {case} (dfg seed {seed})"
        );
    }
}

/// The reducing presolve pipeline is optimum-preserving: on random small 0-1
/// models, solving the explicitly reduced model and lifting the solution
/// back must reproduce the brute-force optimum, for **both** dual-bound
/// modes, and the lifted assignment must be feasible for the *original*
/// model (the round trip through `var_map` loses nothing).
#[test]
fn reduce_and_lift_preserve_the_brute_force_optimum() {
    let modes = [BoundMode::LpRelaxation, BoundMode::Hybrid { lp_depth: 2 }];
    for seed in 0..40u64 {
        let model = random_binary_model(seed.wrapping_mul(6151) + 3, 8, 6);
        let expected = brute_force(&model);
        let reduced = reduce(&model, &ReduceOptions::full());
        // Structural sanity of the maps: every original variable has a
        // disposition, and kept ones point into the reduced model.
        assert_eq!(reduced.var_map().len(), model.num_vars());
        assert_eq!(reduced.row_map().len(), model.num_constraints());
        for disposition in reduced.var_map() {
            if let VarDisposition::Kept(r) = disposition {
                assert!(*r < reduced.model.num_vars(), "seed {seed}");
            }
        }
        for mode in modes {
            let config = SolverConfig::exact().with_bound_mode(mode);
            let solution = solve_reduced_with_events(&model, &reduced, &config, None).unwrap();
            match expected {
                None => assert!(
                    !solution.is_feasible(),
                    "seed {seed}, mode {mode:?}: expected infeasible"
                ),
                Some(best) => {
                    assert!(
                        solution.is_optimal(),
                        "seed {seed}, mode {mode:?}: not optimal"
                    );
                    assert!(
                        (solution.objective() - best).abs() < 1e-6,
                        "seed {seed}, mode {mode:?}: lifted {} vs brute force {best}",
                        solution.objective(),
                    );
                    assert!(
                        model.is_feasible(solution.values(), 1e-6),
                        "seed {seed}, mode {mode:?}: lifted assignment infeasible"
                    );
                }
            }
        }
    }
}

/// Builds the LP relaxation inputs of a model exactly the way the solver
/// does.
fn relaxation(model: &Model) -> (SparseModel, Vec<f64>, f64, Domains) {
    let objective: Vec<f64> = model.vars().iter().map(|v| v.objective).collect();
    let constant = model.objective().offset();
    (
        SparseModel::from_model(model),
        objective,
        constant,
        Domains::from_model(model),
    )
}

/// Whether `values` satisfies every row of `matrix` and the box of
/// `domains` (LP feasibility — integrality is deliberately ignored).
fn lp_feasible(matrix: &SparseModel, domains: &Domains, values: &[f64]) -> bool {
    let in_box = (0..domains.len())
        .all(|j| values[j] >= domains.lower(j) - 1e-6 && values[j] <= domains.upper(j) + 1e-6);
    in_box
        && matrix.rows().all(|row| {
            let activity: f64 = row.terms().map(|(j, a)| a * values[j]).sum();
            match row.op {
                CmpOp::Le => activity <= row.rhs + 1e-6,
                CmpOp::Ge => activity >= row.rhs - 1e-6,
                CmpOp::Eq => (activity - row.rhs).abs() <= 1e-6,
            }
        })
}

/// Differential harness of the revised-simplex kernel: on a PRNG corpus of
/// ≥200 *reduced* models (the models branch-and-bound actually solves), the
/// revised kernel — cold two-phase primal *and* warm dual-simplex re-solves
/// along random bound-tightening descents — must agree with the **legacy
/// dense tableau** oracle (`common::reference_lp`, the pre-revised kernel
/// preserved verbatim as a second opinion): same status, objectives within
/// 1e-6 and an LP-feasible optimal point, at the root and at every step of
/// the descent. Each root is also cut: one appended row its LP optimum
/// violates, re-solved warm from the root basis carried over by
/// `Basis::extended`, must match both the oracle and a cold solve.
#[test]
fn revised_kernel_agrees_with_legacy_dense_tableau_on_reduced_models() {
    use common::reference_lp::{solve_dense, RefStatus};
    let agree = |status: LpStatus, reference: RefStatus| -> bool {
        matches!(
            (status, reference),
            (LpStatus::Optimal, RefStatus::Optimal)
                | (LpStatus::Infeasible, RefStatus::Infeasible)
                | (LpStatus::Unbounded, RefStatus::Unbounded)
        )
    };
    let mut rng = Rng::new(0xd0a1);
    let mut corpus = 0usize;
    let mut warm_resolves = 0usize;
    let mut extended_resolves = 0usize;
    let mut seed = 0u64;
    while corpus < 220 {
        seed += 1;
        let model = random_binary_model(seed.wrapping_mul(9176) + 5, 8, 6);
        let reduced = reduce(&model, &ReduceOptions::full());
        if reduced.report.infeasible || reduced.model.num_vars() == 0 {
            continue;
        }
        corpus += 1;
        let (matrix, objective, constant, root_domains) = relaxation(&reduced.model);
        let legacy_root = solve_dense(&matrix, &objective, constant, &root_domains, 50_000);
        let (root, basis) = solve_lp_basis(&matrix, &objective, constant, &root_domains, 50_000);
        assert!(
            agree(root.status, legacy_root.status),
            "seed {seed} (root): revised {:?} vs legacy {:?}",
            root.status,
            legacy_root.status
        );
        if root.status != LpStatus::Optimal {
            continue;
        }
        assert!(
            (root.objective - legacy_root.objective).abs() < 1e-6,
            "seed {seed} (root): revised {} vs legacy {}",
            root.objective,
            legacy_root.objective
        );
        assert!(
            lp_feasible(&matrix, &root_domains, &root.values),
            "seed {seed} (root): revised point infeasible"
        );
        let mut basis = basis.expect("an optimal cold solve returns its basis");

        // A cut round: append one row the LP optimum violates by 0.5, carry
        // the basis over with `Basis::extended` and re-solve warm. The
        // un-extended basis must be refused by the grown matrix.
        let mut cut_rng = Rng::new(seed);
        let mut cut: Vec<(usize, f64)> = (0..matrix.num_vars())
            .filter_map(|j| match cut_rng.range(0, 3) {
                0 => None,
                1 => Some((j, 1.0)),
                _ => Some((j, -1.0)),
            })
            .collect();
        if cut.is_empty() {
            cut.push((0, 1.0));
        }
        let activity: f64 = cut.iter().map(|&(j, a)| a * root.values[j]).sum();
        let cut_matrix = SparseModel::from_rows(
            matrix.num_vars(),
            matrix
                .rows()
                .map(|row| (row.terms().collect::<Vec<_>>(), row.op, row.rhs))
                .chain(std::iter::once((cut, CmpOp::Le, activity - 0.5))),
        );
        assert!(
            resolve_with_basis(
                &cut_matrix,
                &objective,
                constant,
                &basis,
                &root_domains,
                50_000
            )
            .is_none(),
            "seed {seed}: a basis must not re-solve a grown matrix unextended"
        );
        let extended = basis
            .extended(&cut_matrix, &objective, constant)
            .unwrap_or_else(|| panic!("seed {seed}: appended rows must extend the basis"));
        let legacy = solve_dense(&cut_matrix, &objective, constant, &root_domains, 50_000);
        let (cold, _) = solve_lp_basis(&cut_matrix, &objective, constant, &root_domains, 50_000);
        let (warm, _) = resolve_with_basis(
            &cut_matrix,
            &objective,
            constant,
            &extended,
            &root_domains,
            50_000,
        )
        .unwrap_or_else(|| panic!("seed {seed} (cut): extended basis incompatible"));
        extended_resolves += 1;
        assert_eq!(warm.status, cold.status, "seed {seed} (cut)");
        assert!(
            agree(warm.status, legacy.status),
            "seed {seed} (cut): revised {:?} vs legacy {:?}",
            warm.status,
            legacy.status
        );
        assert_eq!(
            warm.primal_pivots, 0,
            "seed {seed} (cut): warm path is dual-only"
        );
        if warm.status == LpStatus::Optimal {
            assert!(
                (warm.objective - legacy.objective).abs() < 1e-6
                    && (warm.objective - cold.objective).abs() < 1e-6,
                "seed {seed} (cut): warm {} vs legacy {} vs cold {}",
                warm.objective,
                legacy.objective,
                cold.objective
            );
            assert!(
                lp_feasible(&cut_matrix, &root_domains, &warm.values),
                "seed {seed} (cut): warm point infeasible"
            );
        }

        let mut domains = root_domains;
        // A random branch-and-bound descent: fix one free variable at a
        // time and re-solve warm from the previous basis, checking every
        // step against both the legacy oracle and a revised cold solve.
        for step in 0..4 {
            let free: Vec<usize> = (0..domains.len())
                .filter(|&j| !domains.is_fixed(j))
                .collect();
            if free.is_empty() {
                break;
            }
            let j = free[rng.range(0, free.len() as u64) as usize];
            let value = f64::from(u8::from(rng.next_u64().is_multiple_of(2)));
            assert!(domains.fix(j, value), "seed {seed} step {step}");
            let legacy = solve_dense(&matrix, &objective, constant, &domains, 50_000);
            let (cold, _) = solve_lp_basis(&matrix, &objective, constant, &domains, 50_000);
            let (warm, next) =
                resolve_with_basis(&matrix, &objective, constant, &basis, &domains, 50_000)
                    .unwrap_or_else(|| panic!("seed {seed} step {step}: basis incompatible"));
            warm_resolves += 1;
            assert_eq!(warm.status, cold.status, "seed {seed} step {step}");
            assert!(
                agree(warm.status, legacy.status),
                "seed {seed} step {step}: revised {:?} vs legacy {:?}",
                warm.status,
                legacy.status
            );
            if warm.status != LpStatus::Optimal {
                break;
            }
            assert!(
                (warm.objective - legacy.objective).abs() < 1e-6,
                "seed {seed} step {step}: warm {} vs legacy {}",
                warm.objective,
                legacy.objective
            );
            assert!(
                (warm.objective - cold.objective).abs() < 1e-6,
                "seed {seed} step {step}: warm {} vs cold {}",
                warm.objective,
                cold.objective
            );
            assert!(
                lp_feasible(&matrix, &domains, &warm.values),
                "seed {seed} step {step}: warm point infeasible"
            );
            assert!(
                lp_feasible(&matrix, &domains, &cold.values),
                "seed {seed} step {step}: cold point infeasible"
            );
            basis = next.expect("optimal dual re-solve returns a basis");
        }
    }
    assert!(
        warm_resolves >= 200,
        "only {warm_resolves} warm re-solves exercised"
    );
    // One per model whose root LP is optimal (163 of the 220).
    assert!(
        extended_resolves >= 150,
        "only {extended_resolves} extended re-solves exercised"
    );
}

/// Both branching paths are exact: on random small 0-1 models the solver
/// reaches the brute-force optimum under **both** dual-bound modes,
/// branching on pseudo-costs where the mode supplies LP values and falling
/// back to the most-constrained variable where it does not (the hybrid
/// mode below its LP depth).
#[test]
fn branch_rules_agree_with_brute_force_across_bound_modes() {
    let modes = [BoundMode::LpRelaxation, BoundMode::Hybrid { lp_depth: 2 }];
    for seed in 0..25u64 {
        let model = random_binary_model(seed.wrapping_mul(4243) + 9, 8, 6);
        let expected = brute_force(&model);
        for mode in modes {
            let config = SolverConfig::exact().with_bound_mode(mode);
            let solution = model.solve(&config).unwrap();
            match expected {
                None => assert!(
                    !solution.is_feasible(),
                    "seed {seed}, mode {mode:?}: expected infeasible"
                ),
                Some(best) => {
                    assert!(
                        solution.is_optimal(),
                        "seed {seed}, mode {mode:?}: not optimal"
                    );
                    assert!(
                        (solution.objective() - best).abs() < 1e-6,
                        "seed {seed}, mode {mode:?}: solver {} vs brute force {best}",
                        solution.objective(),
                    );
                }
            }
        }
    }
}

/// Branch and bound agrees with exhaustive enumeration on random small 0-1
/// models for **both** dual-bound modes — the LP-relaxation bound and the
/// depth-limited hybrid, which falls back to the propagation bound below
/// its LP depth. Every mode must be an exact oracle; only their cost
/// profiles may differ.
#[test]
fn bound_modes_agree_with_brute_force() {
    let modes = [BoundMode::LpRelaxation, BoundMode::Hybrid { lp_depth: 2 }];
    for seed in 0..40u64 {
        let model = random_binary_model(seed.wrapping_mul(7919) + 17, 8, 6);
        let expected = brute_force(&model);
        for mode in modes {
            let config = SolverConfig::exact().with_bound_mode(mode);
            let solution = model.solve(&config).unwrap();
            match expected {
                None => assert!(
                    !solution.is_feasible(),
                    "seed {seed}, mode {mode:?}: expected infeasible"
                ),
                Some(best) => {
                    assert!(
                        solution.is_optimal(),
                        "seed {seed}, mode {mode:?}: not optimal"
                    );
                    assert!(
                        (solution.objective() - best).abs() < 1e-6,
                        "seed {seed}, mode {mode:?}: solver {} vs brute force {best}",
                        solution.objective(),
                    );
                }
            }
        }
    }
}
