//! The seeded regression corpus (see `common::corpus`): every pinned random
//! circuit must reach its golden optimal area, under the new default search
//! *and* under the PR-2 search it replaced. This is the coarse-grained
//! differential harness for search-layer changes — bounding, branching,
//! warm-start or fixing bugs that lose exactness show up here as a diff
//! against a known answer rather than as a silent quality regression.

mod common;

use advbist::core::engine::SynthesisEngine;
use advbist::core::{synthesis, SynthesisConfig};
use advbist::dfg::benchmarks;
use advbist::ilp::{BoundMode, BranchRule, Budget, SolverConfig};
use common::corpus::CORPUS;

/// The new default search configuration (warm dual simplex + pseudo-cost
/// branching + reduced-cost fixing), exact solving.
fn default_exact() -> SynthesisConfig {
    SynthesisConfig::exact()
}

/// The PR-2 search: cold two-phase primal LPs, most-constrained branching,
/// no reduced-cost fixing.
fn legacy_exact() -> SynthesisConfig {
    let mut config = SynthesisConfig::exact();
    config.solver = SolverConfig {
        lp_warm_start: false,
        rc_fixing: false,
        branching: BranchRule::MostConstrained,
        ..config.solver
    };
    config
}

#[test]
fn corpus_reaches_golden_optima_with_the_default_search() {
    assert!(!CORPUS.is_empty(), "corpus must not be empty");
    for case in CORPUS {
        let input = case.input();
        let design = synthesis::synthesize_bist(&input, case.sessions, &default_exact())
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

#[test]
fn corpus_golden_optima_match_the_legacy_search() {
    // The old and new searches must agree on every pinned optimum — the
    // corpus-level differential check of the search overhaul.
    for case in CORPUS.iter().take(4) {
        let input = case.input();
        let design = synthesis::synthesize_bist(&input, case.sessions, &legacy_exact())
            .unwrap_or_else(|e| panic!("{}: synthesis failed: {e}", case.name));
        assert!(design.optimal, "{}: not proven optimal", case.name);
        assert_eq!(
            design.area.total(),
            case.golden_area,
            "{}: legacy search disagrees with the golden optimum",
            case.name
        );
    }
}

/// The benchmark's `sweep_lp` configuration: 1000 nodes per solve and LP
/// bounds at every node.
fn sweep_lp() -> SynthesisConfig {
    SynthesisConfig {
        solver: SolverConfig {
            budget: Budget::nodes(1000),
            bound_mode: BoundMode::LpRelaxation,
            ..SolverConfig::default()
        },
        ..SynthesisConfig::default()
    }
}

#[test]
fn figure1_sweep_lp_trail_is_pinned() {
    // figure1's chained k-sweep under `sweep_lp` runs the chained,
    // cut-laden, refactorizing LP path the benchmark times. Per k, in
    // order: nodes, simplex pivots, bound flips, Bland pivots, kernel
    // refactorizations and the objective (compared bit for bit). A kernel
    // change that moves a single pivot decision moves this trail.
    const TRAIL: [(u64, u64, u64, u64, u64, f64); 2] = [
        (21, 1580, 82, 7, 6, 1316.0),
        (79, 3532, 344, 257, 32, 1136.0),
    ];
    let input = benchmarks::figure1();
    let config = sweep_lp();
    let outcomes = SynthesisEngine::new(&input, &config)
        .and_then(|engine| engine.sweep_chained())
        .expect("figure1 sweep");
    let trail: Vec<_> = outcomes
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
            let design = synthesis::synthesize_bist(&input, k, &default_exact()).unwrap();
            assert!(design.optimal, "seed {seed} k={k} did not solve exactly");
            let legacy = synthesis::synthesize_bist(&input, k, &legacy_exact()).unwrap();
            assert_eq!(
                design.area.total(),
                legacy.area.total(),
                "seed {seed} k={k}: searches disagree at generation time"
            );
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
