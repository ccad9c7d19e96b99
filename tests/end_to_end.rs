//! Cross-crate integration tests: the full synthesis pipeline from scheduled
//! DFG to validated self-testable data path, for the ILP method and for every
//! heuristic baseline.

use std::time::Duration;

use advbist::baselines::{synthesize_advan, synthesize_bits, synthesize_ralloc};
use advbist::core::{reference, synthesis, SynthesisConfig};
use advbist::datapath::validate::{validate_design, validate_structure};
use advbist::datapath::TestRegisterKind;
use advbist::dfg::benchmarks;
use advbist::dfg::lifetime::LifetimeTable;
use advbist::dfg::InputTiming;
use advbist::ilp::BoundMode;
use advbist::rtl::{validate_simulated, SimConfig};

fn quick(limit_ms: u64) -> SynthesisConfig {
    SynthesisConfig::time_boxed(Duration::from_millis(limit_ms))
}

#[test]
fn figure1_full_pipeline_exact() {
    let input = benchmarks::figure1();
    let config = SynthesisConfig::exact();
    let lifetimes = LifetimeTable::new(&input).unwrap();

    let reference = reference::synthesize_reference(&input, &config).unwrap();
    assert!(reference.optimal);
    validate_structure(&reference.datapath, &input, &lifetimes).unwrap();

    for k in 1..=2 {
        let design = synthesis::synthesize_bist(&input, k, &config).unwrap();
        assert!(design.optimal, "k = {k}");
        validate_design(&design.datapath, &design.plan, &input, &lifetimes).unwrap();
        // The BIST design can never be cheaper than the reference.
        assert!(design.area.total() >= reference.area.total());
        // Every register kind matches the roles the plan assigns to it.
        for r in 0..design.datapath.num_registers() {
            assert_eq!(
                design.datapath.register_kind(r),
                design.plan.required_kind(r),
                "register {r} of the k={k} design"
            );
        }
    }
}

#[test]
fn figure1_solver_variants_reach_the_same_optimum() {
    // Search-space reduction, the warm start and the bound mode change how
    // the optimum is found, never what it is.
    let input = benchmarks::figure1();
    let lifetimes = LifetimeTable::new(&input).unwrap();
    let with_bound_mode = |bound_mode| {
        let mut config = SynthesisConfig::exact();
        config.solver.bound_mode = bound_mode;
        config
    };
    let variants = [
        ("exact", SynthesisConfig::exact()),
        (
            "no search-space reduction",
            SynthesisConfig::exact().with_search_space_reduction(false),
        ),
        (
            "cold start",
            SynthesisConfig {
                warm_start: false,
                ..SynthesisConfig::exact()
            },
        ),
        (
            "LP bounds at the root only",
            with_bound_mode(BoundMode::Hybrid { lp_depth: 0 }),
        ),
        (
            "hybrid bounds",
            with_bound_mode(BoundMode::Hybrid { lp_depth: 2 }),
        ),
    ];
    let mut expected_areas: Option<Vec<u64>> = None;
    for (label, config) in &variants {
        let mut areas = Vec::new();
        for k in 1..=2 {
            let design = synthesis::synthesize_bist(&input, k, config).unwrap();
            assert!(design.optimal, "{label}, k = {k}");
            validate_design(&design.datapath, &design.plan, &input, &lifetimes).unwrap();
            areas.push(design.area.total());
        }
        match &expected_areas {
            Some(expected) => assert_eq!(&areas, expected, "{label}"),
            None => expected_areas = Some(areas),
        }
    }
}

#[test]
fn figure1_input_timing_and_register_count_solve_exactly() {
    // The two synthesis options that change the model itself: inputs held
    // from control step 0, and one register above the minimum. Each design
    // must pass both validators, be proven optimal and cost exactly the
    // objective it was extracted from.
    let input = benchmarks::figure1();
    let from_start = SynthesisConfig {
        input_timing: InputTiming::FromStart,
        ..SynthesisConfig::exact()
    };
    let variants = [
        ("inputs from start", from_start, [1440, 1392]),
        (
            "four registers",
            SynthesisConfig::exact().with_registers(4),
            [1360, 1344],
        ),
    ];
    for (label, config, areas) in variants {
        let lifetimes = LifetimeTable::with_timing(&input, config.input_timing).unwrap();
        for (k, area) in (1..=2).zip(areas) {
            let design = synthesis::synthesize_bist(&input, k, &config).unwrap();
            assert!(design.optimal, "{label}, k = {k}");
            validate_design(&design.datapath, &design.plan, &input, &lifetimes)
                .unwrap_or_else(|e| panic!("{label}, k = {k}: {e}"));
            validate_simulated(&design.datapath, &design.plan, &SimConfig::default())
                .unwrap_or_else(|e| panic!("{label}, k = {k}: {e}"));
            assert_eq!(
                design.area.total() as f64,
                design.objective,
                "{label}, k = {k}"
            );
            assert_eq!(design.area.total(), area, "{label}, k = {k}");
        }
    }
}

#[test]
fn every_benchmark_synthesises_under_a_small_budget() {
    // A smoke test over all six circuits of the paper: the ILP method (time
    // boxed) and all three baselines must produce validated designs.
    let config = quick(400);
    for (name, input) in benchmarks::all() {
        let lifetimes = LifetimeTable::new(&input).unwrap();
        let k = input.binding().num_modules();

        let advbist = synthesis::synthesize_bist(&input, k, &config)
            .unwrap_or_else(|e| panic!("ADVBIST failed on {name}: {e}"));
        validate_design(&advbist.datapath, &advbist.plan, &input, &lifetimes)
            .unwrap_or_else(|e| panic!("ADVBIST design invalid on {name}: {e}"));

        for (method, result) in [
            ("ADVAN", synthesize_advan(&input, k, &config.cost)),
            ("RALLOC", synthesize_ralloc(&input, k, &config.cost)),
            ("BITS", synthesize_bits(&input, k, &config.cost)),
        ] {
            let design = result.unwrap_or_else(|e| panic!("{method} failed on {name}: {e}"));
            validate_design(&design.datapath, &design.plan, &input, &lifetimes)
                .unwrap_or_else(|e| panic!("{method} design invalid on {name}: {e}"));
        }
    }
}

#[test]
fn advbist_matches_or_beats_baselines_on_the_small_circuits() {
    // With a reasonable budget the concurrent ILP should never lose to the
    // heuristics on the small circuits — the paper's central claim.
    let config = quick(3_000);
    for (name, input) in benchmarks::small() {
        let k = input.binding().num_modules();
        let advbist = synthesis::synthesize_bist(&input, k, &config).unwrap();
        let advan = synthesize_advan(&input, k, &config.cost).unwrap();
        let bits = synthesize_bits(&input, k, &config.cost).unwrap();
        let ralloc = synthesize_ralloc(&input, k, &config.cost).unwrap();
        for (method, area) in [
            ("ADVAN", advan.area.total()),
            ("BITS", bits.area.total()),
            ("RALLOC", ralloc.area.total()),
        ] {
            assert!(
                advbist.area.total() <= area,
                "{name}: ADVBIST area {} exceeds {method} area {area}",
                advbist.area.total()
            );
        }
    }
}

#[test]
fn more_sessions_never_need_concurrent_bilbos_on_figure1() {
    // With one module per session (maximal k) there is never a reason for a
    // CBILBO on the figure1 example, and the exact solver should avoid the
    // 596-transistor register entirely.
    let input = benchmarks::figure1();
    let config = SynthesisConfig::exact();
    let design = synthesis::synthesize_bist(&input, 2, &config).unwrap();
    assert_eq!(design.area.count(TestRegisterKind::Cbilbo), 0);
}

#[test]
fn session_counts_out_of_range_error_cleanly() {
    let input = benchmarks::figure1();
    let config = quick(200);
    assert!(synthesis::synthesize_bist(&input, 0, &config).is_err());
    assert!(synthesis::synthesize_bist(&input, 99, &config).is_err());
}
