//! The seeded regression corpus (see `common::corpus`): every pinned random
//! circuit must reach its golden optimal area with its golden simplex pivot
//! count. This is the coarse-grained differential harness for search-layer
//! changes — bounding, branching, warm-start or fixing bugs that lose
//! exactness show up here as a diff against a known answer rather than as a
//! silent quality regression.

mod common;

use advbist::core::engine::SynthesisEngine;
use advbist::core::formulation::BistFormulation;
use advbist::core::{synthesis, SweepOutcome, SynthesisConfig};
use advbist::dfg::benchmarks;
use advbist::ilp::reduce::{reduce, reduce_prefix, ReduceOptions};
use advbist::ilp::{model_fingerprint, BoundMode, Budget, SolverConfig};
use common::corpus::CORPUS;

#[test]
fn corpus_reaches_golden_optima_with_the_default_search() {
    assert!(!CORPUS.is_empty(), "corpus must not be empty");
    for case in CORPUS {
        let input = case.input();
        let design = synthesis::synthesize_bist(&input, case.sessions, &SynthesisConfig::exact())
            .unwrap_or_else(|e| panic!("{}: synthesis failed: {e}", case.name));
        assert!(design.optimal, "{}: not proven optimal", case.name);
        assert_eq!(
            design.area.total(),
            case.golden_area,
            "{}: area diverged from the golden optimum",
            case.name
        );
        // Work regression check on the revised kernel: pivot counts are
        // bit-deterministic for a fixed configuration, so any drift means
        // the kernel (or the search layer above it) changed behaviour and
        // the goldens must be consciously regenerated.
        assert_eq!(
            design.stats.lp_pivots, case.golden_pivots,
            "{}: simplex pivot count diverged from the golden kernel work",
            case.name
        );
    }
}

/// figure1's chained k-sweep under the benchmark's `sweep_lp`
/// configuration: 1000 nodes per solve and LP bounds at every node.
fn figure1_sweep_lp() -> Vec<SweepOutcome> {
    let config = SynthesisConfig {
        solver: SolverConfig {
            budget: Budget::nodes(1000),
            bound_mode: BoundMode::LpRelaxation,
            ..SolverConfig::default()
        },
        ..SynthesisConfig::default()
    };
    let input = benchmarks::figure1();
    SynthesisEngine::new(&input, &config)
        .and_then(|engine| engine.sweep_chained())
        .expect("figure1 sweep")
}

#[test]
fn figure1_sweep_lp_trail_is_pinned() {
    // figure1's chained k-sweep under `sweep_lp` runs the chained,
    // cut-laden, refactorizing LP path the benchmark times. Per k, in
    // order: nodes, simplex pivots, bound flips, Bland pivots, kernel
    // refactorizations and the objective (compared bit for bit). A kernel
    // change that moves a single pivot decision moves this trail.
    const TRAIL: [(u64, u64, u64, u64, u64, f64); 2] = [
        (13, 1228, 194, 21, 22, 1316.0),
        (113, 2173, 477, 154, 102, 1136.0),
    ];
    let trail: Vec<_> = figure1_sweep_lp()
        .iter()
        .map(|outcome| {
            let stats = &outcome.design.stats;
            (
                stats.nodes,
                stats.lp_pivots,
                stats.lp_bound_flips,
                stats.bland_pivots,
                stats.lp_basis_refactorizations,
                outcome.design.objective.to_bits(),
            )
        })
        .collect();
    let expected: Vec<_> = TRAIL
        .iter()
        .map(|&(nodes, pivots, flips, bland, refactors, objective)| {
            (nodes, pivots, flips, bland, refactors, objective.to_bits())
        })
        .collect();
    assert_eq!(trail, expected);
}

#[test]
fn figure1_sweep_lp_cold_solves_each_have_one_reason() {
    // Every LP is warm (a dual re-solve from a stored basis), a
    // strong-branching probe, or cold; each cold solve is counted under
    // exactly one reason. Per k, in order: first root cut round, node
    // without a parent basis, unusable basis, warm re-solve over budget.
    // Both roots exhaust their cut rounds, so the root
    // node starts cold; the chained k=2 solve overruns one warm budget.
    let reasons: Vec<_> = figure1_sweep_lp()
        .iter()
        .map(|outcome| {
            let stats = &outcome.design.stats;
            let cold = stats.cold_lp;
            assert_eq!(
                cold.total(),
                stats.lp_solves - stats.warm_lp_solves - stats.strong_branch_solves,
                "k={}: cold reasons must sum to the cold solves",
                outcome.design.sessions
            );
            (
                cold.root,
                cold.no_parent_basis,
                cold.unusable_basis,
                cold.over_budget,
            )
        })
        .collect();
    assert_eq!(reasons, [(1, 1, 0, 0), (1, 1, 0, 1)]);
}

/// The composed reduced model of every figure1 and paper-circuit solve, as
/// `(circuit, k, model_fingerprint, vars, rows)`; `k = 0` is the reference
/// objective.
const REDUCED_MODELS: &[(&str, usize, u64, usize, usize)] = &[
    ("figure1", 0, 15150622805599309959, 45, 44),
    ("figure1", 1, 14056522528789518964, 83, 143),
    ("figure1", 2, 15156880592551044010, 109, 207),
    ("tseng", 0, 14308643268208329761, 104, 107),
    ("tseng", 1, 9296511999135623129, 176, 297),
    ("tseng", 2, 12492860128063940424, 228, 421),
    ("tseng", 3, 14337395365849076113, 280, 545),
    ("paulin", 0, 12503620053647506053, 157, 161),
    ("paulin", 1, 990822399259591179, 259, 423),
    ("paulin", 2, 14205645916995364199, 339, 612),
    ("paulin", 3, 2652452907788235441, 416, 790),
    ("paulin", 4, 3224390537227410933, 493, 968),
    ("fir6", 0, 16825796683553618755, 128, 149),
    ("fir6", 1, 5053917034874743973, 198, 327),
    ("fir6", 2, 7658770702110838562, 248, 441),
    ("fir6", 3, 1827071672353355814, 298, 555),
    ("iir3", 0, 3024793722896148777, 126, 152),
    ("iir3", 1, 8137922935769238668, 208, 355),
    ("iir3", 2, 5682775686533323563, 266, 487),
    ("iir3", 3, 6247905541193870493, 324, 619),
    ("dct4", 0, 10936208275043579608, 158, 180),
    ("dct4", 1, 3376834626908367591, 251, 427),
    ("dct4", 2, 11144807933696184975, 320, 589),
    ("dct4", 3, 16319698662608649596, 389, 751),
    ("dct4", 4, 17359134870803743993, 458, 913),
    ("wavelet6", 0, 18022825933266584572, 230, 299),
    ("wavelet6", 1, 12477323317470953102, 340, 570),
    ("wavelet6", 2, 7131738460687042539, 418, 746),
    ("wavelet6", 3, 15863076429354703755, 496, 922),
];

#[test]
fn reduced_models_are_pinned() {
    // The engine's reduce path rebuilt from public calls: the base prefix
    // is reduced once, then each objective's model replays its delta
    // through the base map and gets one more pass. No solve runs; a change
    // to any reduction moves a fingerprint or a dimension here.
    let config = SynthesisConfig::default();
    let mut circuits = vec![("figure1", benchmarks::figure1())];
    circuits.extend(benchmarks::all());
    let mut models = Vec::new();
    for (name, input) in &circuits {
        let mut base = BistFormulation::new(input, &config).expect("base formulation");
        base.add_interconnect();
        base.add_mux_sizing();
        let reduced_base = reduce_prefix(
            &base.model,
            base.model.num_constraints(),
            base.model.num_vars(),
            &ReduceOptions::base(),
        );
        for k in 0..=input.binding().num_modules() {
            let mut formulation = base.clone();
            if k == 0 {
                formulation.set_reference_objective();
            } else {
                formulation.add_bist(k).expect("BIST delta");
                formulation.set_bist_objective();
            }
            let extended = reduced_base.extend(&formulation.model).expect("extend");
            let full = extended.compose(reduce(&extended.model, &ReduceOptions::full()));
            models.push((
                *name,
                k,
                model_fingerprint(&full.model),
                full.model.num_vars(),
                full.model.num_constraints(),
            ));
        }
    }
    assert_eq!(models, REDUCED_MODELS);
}

/// Regenerates the golden corpus table. Run with
/// `cargo test --test corpus regenerate_corpus_goldens -- --ignored --nocapture`
/// and paste the printed rows into `tests/common/corpus.rs`.
#[test]
#[ignore = "regenerates the golden corpus table; run with --ignored --nocapture"]
fn regenerate_corpus_goldens() {
    use advbist::dfg::benchmarks::{random_dfg, RandomDfgConfig};
    for (seed, num_ops, num_inputs, multipliers) in [
        (11u64, 5usize, 3usize, 1usize),
        (23, 6, 4, 1),
        (37, 6, 3, 1),
        (58, 5, 4, 1),
        (71, 6, 4, 2),
        (92, 7, 3, 1),
    ] {
        let config = RandomDfgConfig {
            seed,
            num_ops,
            num_inputs,
            multipliers,
            alus: 1,
        };
        let input = random_dfg(&config);
        let max_k = input.binding().num_modules();
        let mut sessions: Vec<usize> = vec![1, max_k];
        sessions.dedup();
        for k in sessions {
            let design = synthesis::synthesize_bist(&input, k, &SynthesisConfig::exact()).unwrap();
            assert!(design.optimal, "seed {seed} k={k} did not solve exactly");
            println!(
                "    CorpusCase {{ name: \"r{seed}k{k}\", seed: {seed}, num_ops: {num_ops}, \
                 num_inputs: {num_inputs}, multipliers: {multipliers}, sessions: {k}, \
                 golden_area: {}, golden_pivots: {} }},",
                design.area.total(),
                design.stats.lp_pivots
            );
        }
    }
}
