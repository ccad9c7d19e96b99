//! Integration tests of the ILP substrate against the synthesis layers: the
//! solver must behave as an exact oracle on models small enough to
//! cross-check by exhaustive enumeration, and the LP writer must round-trip
//! the generated BIST models structurally.

mod common;

use advbist::dfg::benchmarks;
use advbist::ilp::{lpfile, BoundMode, SolverConfig};
use common::{brute_force, random_binary_model};

/// Branch and bound agrees with exhaustive enumeration on random small 0-1
/// models, for every bounding strategy.
#[test]
fn solver_matches_brute_force() {
    for seed in 0..40u64 {
        let model = random_binary_model(seed * 251, 8, 6);
        let expected = brute_force(&model);
        for config in [
            SolverConfig::exact(),
            SolverConfig::exact().with_bound_mode(BoundMode::Propagation),
            SolverConfig::exact().with_bound_mode(BoundMode::Hybrid { lp_depth: 2 }),
        ] {
            let solution = model.solve(&config).unwrap();
            match expected {
                None => assert!(
                    !solution.is_feasible(),
                    "seed {seed}: expected infeasible ({config:?})"
                ),
                Some(best) => {
                    assert!(
                        solution.is_optimal(),
                        "seed {seed}: not optimal ({config:?})"
                    );
                    assert!(
                        (solution.objective() - best).abs() < 1e-6,
                        "seed {seed}: solver {} vs brute force {} ({config:?})",
                        solution.objective(),
                        best
                    );
                }
            }
        }
    }
}

#[test]
fn bist_models_serialise_to_lp_format() {
    // Build the full ADVBIST model for the figure1 example and check the LP
    // writer covers every variable and constraint family.
    use advbist::core::formulation::BistFormulation;
    use advbist::core::SynthesisConfig;
    let input = benchmarks::figure1();
    let config = SynthesisConfig::default();
    let mut formulation = BistFormulation::new(&input, &config).unwrap();
    formulation.add_interconnect();
    formulation.add_mux_sizing();
    formulation.add_bist(2).unwrap();
    formulation.set_bist_objective();

    let text = lpfile::to_lp_string(&formulation.model);
    assert!(text.contains("Minimize"));
    assert!(text.contains("Binaries"));
    assert!(text.contains("eq7"));
    assert!(text.contains("eq10"));
    assert!(text.contains("End"));
    // Every model variable appears in the Binaries section or bounds.
    assert!(text.len() > 10_000, "the figure1 BIST model is non-trivial");

    // Round trip: re-parse the text and check the structure survived —
    // variable and constraint counts, integrality sections, per-constraint
    // term counts and right-hand sides.
    let parsed = lpfile::parse_lp(&text).expect("generated LP text parses");
    assert_eq!(parsed.num_vars(), formulation.model.num_vars());
    assert_eq!(
        parsed.constraints.len(),
        formulation.model.num_constraints()
    );
    assert_eq!(parsed.binaries.len(), formulation.model.num_binary());
    assert!(!parsed.maximize);
    for (parsed_c, model_c) in parsed
        .constraints
        .iter()
        .zip(formulation.model.constraints())
    {
        assert_eq!(parsed_c.terms.len(), model_c.expr.len(), "{}", model_c.name);
        assert!(
            (parsed_c.rhs - model_c.rhs).abs() < 1e-9,
            "{}",
            model_c.name
        );
    }
}

#[test]
fn solver_statistics_are_populated() {
    let input = benchmarks::figure1();
    let config = advbist::core::SynthesisConfig::exact();
    let design = advbist::core::synthesis::synthesize_bist(&input, 1, &config).unwrap();
    assert!(design.stats.nodes > 0);
    assert!(design.stats.time.as_nanos() > 0);
    assert!(design.objective > 0.0);
}
