//! S3 acceptance suite for solve-state snapshots: interrupt → capture →
//! resume must provably continue the *same* branch-and-bound tree.
//!
//! Over the pinned 12-instance corpus (see `common::corpus`), every case is
//! solved cold once, then interrupted at nodes 1, 3 and N/2 with snapshot
//! capture on; each captured `Arc<SolveSnapshot>` is handed to a fresh
//! engine or solve, and the resumed solve must reach the **identical
//! objective, identical total node count and the golden optimal area** of
//! the uninterrupted run — a resumed tree explores no node twice and loses
//! none.

mod common;

use advbist::core::engine::SynthesisEngine;
use advbist::core::{CoreError, SynthesisConfig};
use advbist::dfg::benchmarks;
use advbist::ilp::{IlpError, Model, Sense, SolverConfig};
use advbist::{Budget, CancelToken};
use common::corpus::CORPUS;

#[test]
fn corpus_resumes_reach_the_uninterrupted_tree_exactly() {
    for case in CORPUS {
        let input = case.input();
        let config = SynthesisConfig::exact();
        let engine = SynthesisEngine::new(&input, &config).expect(case.name);

        let cold = engine
            .synthesize_resumable(case.sessions, None, None)
            .expect(case.name);
        assert!(
            cold.design.optimal,
            "{}: cold solve must be exact",
            case.name
        );
        assert_eq!(
            cold.design.area.total(),
            case.golden_area,
            "{}: cold golden area",
            case.name
        );
        assert!(
            cold.design.snapshot.is_none(),
            "{}: a completed solve must not carry a snapshot",
            case.name
        );
        let total_nodes = cold.design.stats.nodes;

        let mut interrupts = vec![1, 3, total_nodes / 2];
        interrupts.sort_unstable();
        interrupts.dedup();
        for interrupt in interrupts {
            if interrupt == 0 || interrupt >= total_nodes {
                continue;
            }
            let mut cut_config = SynthesisConfig::exact();
            cut_config.solver.budget = Budget::nodes(interrupt);
            let cut_engine = SynthesisEngine::new(&input, &cut_config).expect(case.name);
            let partial = cut_engine
                .synthesize_resumable(case.sessions, None, None)
                .expect(case.name);
            assert!(
                !partial.design.optimal,
                "{}@{interrupt}: interrupted solve must not be proven optimal",
                case.name
            );
            let snapshot = partial
                .design
                .snapshot
                .clone()
                .unwrap_or_else(|| panic!("{}@{interrupt}: no snapshot captured", case.name));
            assert!(snapshot.open_nodes() > 0, "{}@{interrupt}", case.name);

            let resumed = engine
                .synthesize_resumable(case.sessions, None, Some(snapshot))
                .expect(case.name);

            assert!(resumed.design.stats.resumed, "{}@{interrupt}", case.name);
            assert!(
                resumed.design.optimal,
                "{}@{interrupt}: resumed solve must finish exactly",
                case.name
            );
            assert_eq!(
                resumed.design.stats.nodes, total_nodes,
                "{}@{interrupt}: resumed total node count must equal the uninterrupted tree",
                case.name
            );
            assert_eq!(
                resumed.design.objective.to_bits(),
                cold.design.objective.to_bits(),
                "{}@{interrupt}: resumed objective must be bit-identical",
                case.name
            );
            assert_eq!(
                resumed.design.area.total(),
                case.golden_area,
                "{}@{interrupt}: resumed golden area",
                case.name
            );
        }
    }
}

/// A branchy pure-ILP instance for the model-level resume: maximise a
/// value under a knapsack row plus pairwise conflicts, sized to take a few
/// dozen nodes.
fn knapsack_model() -> Model {
    knapsack_model_weighted(12.0)
}

/// The same instance with the weight of `x7` replaced, so two builds with
/// different `x7_value` collide on size but differ in one coefficient.
fn knapsack_model_weighted(x7_value: f64) -> Model {
    let mut model = Model::new("snapshot-knapsack");
    let weights = [5.0, 7.0, 4.0, 3.0, 8.0, 6.0, 5.0, 9.0, 2.0, 4.0];
    let values = [7.0, 9.0, 5.0, 4.0, 11.0, 8.0, 6.0, x7_value, 3.0, 5.0];
    let vars: Vec<_> = (0..weights.len())
        .map(|i| model.add_binary(format!("x{i}")))
        .collect();
    let cap: Vec<_> = vars.iter().zip(weights).map(|(&v, w)| (v, w)).collect();
    model.add_leq(cap, 22.0, "cap");
    for i in 0..vars.len() - 3 {
        model.add_leq([(vars[i], 1.0), (vars[i + 3], 1.0)], 1.0, format!("c{i}"));
    }
    let objective: Vec<_> = vars.iter().zip(values).map(|(&v, c)| (v, c)).collect();
    model.set_objective(objective, Sense::Maximize);
    model
}

/// The default solver configuration under `budget`.
fn budgeted(budget: Budget) -> SolverConfig {
    SolverConfig::default().with_budget(budget)
}

#[test]
fn fresh_session_resumes_a_captured_snapshot() {
    let model = knapsack_model();
    let cold = model
        .solve(&budgeted(
            SolverConfig::default().budget.with_snapshot(true),
        ))
        .expect("cold solve");
    assert!(cold.is_optimal());
    assert!(cold.snapshot().is_none());
    let total_nodes = cold.stats().nodes;
    assert!(total_nodes > 3, "instance must branch (got {total_nodes})");

    for interrupt in [1, 3, total_nodes / 2] {
        let partial = model
            .solve(&budgeted(Budget::nodes(interrupt).with_snapshot(true)))
            .expect("interrupted solve");
        let snapshot = partial.shared_snapshot().expect("snapshot captured");
        assert_eq!(snapshot.nodes(), interrupt);

        // A *fresh* solve of the same model, resuming the capture.
        let resumed = model
            .solve(&SolverConfig::default().with_resume(snapshot))
            .expect("resumed solve");
        assert!(resumed.is_optimal());
        assert!(resumed.stats().resumed);
        assert_eq!(resumed.stats().nodes, total_nodes, "@{interrupt}");
        assert_eq!(
            resumed.objective().to_bits(),
            cold.objective().to_bits(),
            "@{interrupt}"
        );
        assert_eq!(resumed.values(), cold.values(), "@{interrupt}");
    }
}

#[test]
fn resume_rejects_a_snapshot_of_a_different_instance() {
    let model = knapsack_model();
    let partial = model
        .solve(&budgeted(Budget::nodes(1).with_snapshot(true)))
        .expect("interrupted solve");
    let snapshot = partial.shared_snapshot().expect("snapshot captured");

    // Same shape, one objective coefficient nudged: the content fingerprint
    // differs, so the resume must fail loudly instead of continuing a tree
    // that belongs to another instance.
    let other = knapsack_model_weighted(12.5);
    let err = other
        .solve(&SolverConfig::default().with_resume(snapshot))
        .expect_err("mismatched snapshot must be rejected");
    let message = err.to_string();
    assert!(
        message.contains("snapshot") || message.contains("fingerprint"),
        "unexpected error: {message}"
    );

    // The same guard at the engine: a tseng k=1 snapshot handed to the
    // k=2 instance of the same engine is refused with a typed error.
    let input = benchmarks::tseng();
    let config = SynthesisConfig::budgeted(Budget::nodes(5));
    let engine = SynthesisEngine::new(&input, &config).expect("tseng engine");
    let partial = engine
        .synthesize_resumable(1, None, None)
        .expect("interrupted k=1 solve");
    let snapshot = partial.design.snapshot.expect("k=1 snapshot captured");
    let err = engine
        .synthesize_resumable(2, None, Some(snapshot))
        .expect_err("a k=1 snapshot must not resume k=2");
    assert!(
        matches!(err, CoreError::Ilp(IlpError::Snapshot { .. })),
        "unexpected error: {err}"
    );
}

#[test]
fn snapshot_capture_is_off_by_default() {
    let model = knapsack_model();
    let partial = model
        .solve(&budgeted(Budget::nodes(2)))
        .expect("interrupted solve");
    assert!(!partial.is_optimal());
    assert!(partial.snapshot().is_none());
    assert!(!partial.stats().snapshot_captured);
}

#[test]
fn budget_snapshot_knob_flows_through_the_solver_config() {
    // `Budget::snapshot` is the one capture switch, and it must reach the
    // search: Some(true) captures, Some(false) does not.
    let model = knapsack_model();
    let solve = |snapshot: bool| {
        model
            .solve(&budgeted(Budget::nodes(2).with_snapshot(snapshot)))
            .expect("solve")
    };
    let on = solve(true);
    assert!(on.stats().snapshot_captured);
    assert!(on.snapshot().is_some());
    let off = solve(false);
    assert!(!off.stats().snapshot_captured);
    assert!(off.snapshot().is_none());
}

#[test]
fn resumed_siblings_share_one_stored_parent_basis() {
    // Both children of a branching hold their parent's basis. A snapshot
    // stores it once for the pair, and a resume from every interrupt point
    // must still replay the uninterrupted tree exactly — down to the LP
    // work, which is only equal when every resumed node re-solves from the
    // basis it held.
    // LP bounds at every node, so every open node below the root holds a
    // basis and fewer stored bases than open nodes means sharing.
    let model = knapsack_model();
    let config = SolverConfig {
        bound_mode: advbist::ilp::BoundMode::LpRelaxation,
        ..SolverConfig::default()
    };
    let cold = model.solve(&config).expect("cold solve");
    assert!(cold.is_optimal());
    let total_nodes = cold.stats().nodes;
    let mut shared = 0;
    for interrupt in 1..total_nodes {
        let partial = model
            .solve(
                &config
                    .clone()
                    .with_budget(Budget::nodes(interrupt).with_snapshot(true)),
            )
            .expect("interrupted solve");
        let snapshot = partial.shared_snapshot().expect("snapshot captured");
        assert!(snapshot.stored_bases() <= snapshot.open_nodes());
        if snapshot.stored_bases() < snapshot.open_nodes() {
            shared += 1;
        }
        let resumed = model
            .solve(&config.clone().with_resume(snapshot))
            .expect("resumed solve");
        assert_eq!(resumed.stats().nodes, total_nodes, "@{interrupt}");
        assert_eq!(
            resumed.objective().to_bits(),
            cold.objective().to_bits(),
            "@{interrupt}"
        );
        assert_eq!(resumed.values(), cold.values(), "@{interrupt}");
        assert_eq!(
            partial.stats().lp_pivots + resumed.stats().lp_pivots,
            cold.stats().lp_pivots,
            "@{interrupt}"
        );
    }
    assert!(shared > 0, "no snapshot had siblings sharing a basis");
}

#[test]
fn resume_after_an_in_tree_cut_install_matches_the_uninterrupted_run() {
    // Eager in-tree separation installs Gomory cuts at shallow nodes; the
    // children of such a node hold a basis stored before the install, and
    // a resumed search must carry it over the appended rows exactly as the
    // uninterrupted search does.
    use advbist::ilp::{BoundMode, SolveEvent};
    let model = knapsack_model_weighted(12.5);
    let config = SolverConfig {
        bound_mode: BoundMode::LpRelaxation,
        eager_tree_cuts: true,
        budget: Budget::unlimited(),
        ..SolverConfig::default()
    }
    // The empty knapsack is feasible; a warm incumbent enables the eager
    // rounds.
    .with_warm_candidate(vec![0.0; 10]);
    fn cut_rounds(events: &mut Vec<SolveEvent>) -> impl FnMut(&SolveEvent) + '_ {
        move |event| {
            if let SolveEvent::CutRound { .. } = event {
                events.push(event.clone());
            }
        }
    }
    let mut cold_rounds = Vec::new();
    let cold = model
        .solve_observed(&config, &mut cut_rounds(&mut cold_rounds))
        .expect("cold solve");
    assert!(cold.is_optimal());
    let installs: Vec<u64> = cold_rounds
        .iter()
        .filter_map(|event| match event {
            SolveEvent::CutRound { nodes, .. } if *nodes > 0 => Some(*nodes),
            _ => None,
        })
        .collect();
    assert!(
        !installs.is_empty(),
        "no in-tree cut install to interrupt after"
    );

    for &node in &installs {
        // Cancel right after the installing node: its children, which hold
        // the pre-install basis, are the top of the captured frontier.
        let token = CancelToken::new();
        let interrupted = config
            .clone()
            .with_budget(Budget::unlimited().with_snapshot(true))
            .with_cancel(token.clone());
        let partial = model
            .solve_observed(&interrupted, &mut |event| {
                if let SolveEvent::NodeMilestone { nodes, .. } = event {
                    if *nodes >= node {
                        token.cancel();
                    }
                }
            })
            .expect("interrupted solve");
        assert_eq!(partial.stats().nodes, node);
        let snapshot = partial.shared_snapshot().expect("snapshot captured");
        let mut resumed_rounds = Vec::new();
        let resumed = model
            .solve_observed(
                &config.clone().with_resume(snapshot),
                &mut cut_rounds(&mut resumed_rounds),
            )
            .expect("resumed solve");
        assert!(resumed.is_optimal(), "@{node}");
        assert_eq!(resumed.stats().nodes, cold.stats().nodes, "@{node}");
        assert_eq!(
            resumed.objective().to_bits(),
            cold.objective().to_bits(),
            "@{node}"
        );
        assert_eq!(resumed.values(), cold.values(), "@{node}");
        assert_eq!(
            partial.stats().lp_pivots + resumed.stats().lp_pivots,
            cold.stats().lp_pivots,
            "@{node}"
        );
        assert_eq!(resumed.stats().cold_lp.unusable_basis, 0, "@{node}");
        // The resumed run's cut rounds are the uninterrupted run's rounds
        // after the interrupt, pool totals included: the pool it continues
        // holds the cuts installed before the interrupt.
        let after: Vec<SolveEvent> = cold_rounds
            .iter()
            .filter(|event| matches!(event, SolveEvent::CutRound { nodes, .. } if *nodes > node))
            .cloned()
            .collect();
        assert_eq!(resumed_rounds, after, "@{node}");
    }
}
