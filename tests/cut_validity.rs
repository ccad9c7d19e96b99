//! Validity suite for the cutting-plane layer: a cut may tighten the LP
//! relaxation but must never cut off an integer-feasible point. Every cut
//! the solver emits — Gomory mixed-integer cuts — is checked against (a) **every** feasible 0/1 point of brute-forceable PRNG
//! models and (b) the proven integer optimum of each pinned corpus
//! instance, solved by the raw branch and bound (no reduce) so cut indices
//! and solution values share one variable space.

mod common;

use advbist::core::formulation::BistFormulation;
use advbist::core::SynthesisConfig;
use advbist::ilp::solver::BranchAndBound;
use advbist::ilp::{CutRow, Model, Solution, SolverConfig};
use common::corpus::CORPUS;
use common::random_binary_model;

/// Activity of one cut row at a point.
fn cut_activity(cut: &CutRow, values: &[f64]) -> f64 {
    cut.terms.iter().map(|&(j, a)| a * values[j]).sum()
}

/// Panics if `values` violates any recorded cut (all cuts are `<= rhs`).
fn assert_cuts_satisfied(cuts: &[CutRow], values: &[f64], context: &str) {
    for (i, cut) in cuts.iter().enumerate() {
        let activity = cut_activity(cut, values);
        assert!(
            activity <= cut.rhs + 1e-6,
            "{context}: cut #{i} violated: activity {activity} > rhs {}",
            cut.rhs
        );
    }
}

/// The exact solver configuration the validity checks run under: cut
/// separation on and the emitted rows recorded into the stats.
fn recording_config() -> SolverConfig {
    SolverConfig::exact().with_record_cuts(true)
}

/// The raw branch and bound over `model` itself, without the reduce
/// pipeline, so cut indices mean original model columns.
fn solve_raw(model: &Model, config: SolverConfig) -> Solution {
    BranchAndBound::new(model, config).run().unwrap()
}

/// On PRNG 0-1 models small enough to enumerate, **no feasible integer
/// point** may violate any emitted cut, and the proven optimum must match
/// brute force (the cuts tightened the relaxation without biting the hull).
#[test]
fn no_emitted_cut_excludes_a_feasible_point_on_prng_models() {
    let mut checked_points = 0u64;
    let mut total_cuts = 0u64;
    for seed in 0..60u64 {
        let model = random_binary_model(seed.wrapping_mul(7451) + 13, 8, 6);
        let expected = common::brute_force(&model);
        let solution = solve_raw(&model, recording_config());
        let cuts = &solution.stats().emitted_cuts;
        total_cuts += cuts.len() as u64;
        if let Some(best) = expected {
            assert!(solution.is_optimal(), "seed {seed}: not optimal");
            assert!(
                (solution.objective() - best).abs() < 1e-6,
                "seed {seed}: solver {} vs brute force {best}",
                solution.objective()
            );
        } else {
            assert!(!solution.is_feasible(), "seed {seed}: expected infeasible");
        }
        if cuts.is_empty() {
            continue;
        }
        let n = model.num_vars();
        for mask in 0..(1u32 << n) {
            let point: Vec<f64> = (0..n).map(|j| f64::from(mask >> j & 1)).collect();
            if !model.is_feasible(&point, 1e-6) {
                continue;
            }
            checked_points += 1;
            assert_cuts_satisfied(cuts, &point, &format!("seed {seed}, mask {mask:#x}"));
        }
    }
    assert!(
        checked_points > 0 && total_cuts > 0,
        "vacuous run: {checked_points} points against {total_cuts} cuts"
    );
}

/// Over the pinned 12-instance corpus (solved raw, without reduce), the
/// proven integer optimum must satisfy every cut emitted on the way to it —
/// including Gomory rows derived at tree nodes, whose validity argument
/// (root-box unshifting) this pins end to end.
#[test]
fn corpus_optima_satisfy_every_emitted_cut() {
    let config = SynthesisConfig::exact();
    let mut emitted = 0u64;
    for case in CORPUS {
        let input = case.input();
        let mut formulation = BistFormulation::new(&input, &config).expect(case.name);
        formulation.add_interconnect();
        formulation.add_mux_sizing();
        formulation.add_bist(case.sessions).expect(case.name);
        formulation.set_bist_objective();
        let solution = solve_raw(&formulation.model, recording_config());
        assert!(solution.is_optimal(), "{}: not solved exactly", case.name);
        emitted += solution.stats().emitted_cuts.len() as u64;
        assert_cuts_satisfied(&solution.stats().emitted_cuts, solution.values(), case.name);
        // The recorded rows and the emitted counters must tell one story.
        assert_eq!(
            solution.stats().emitted_cuts.len() as u64,
            solution.stats().cuts_emitted.total(),
            "{}: recorded rows vs counters",
            case.name
        );
    }
    // The suite is only meaningful if cuts actually fire somewhere in the
    // corpus.
    assert!(emitted > 0, "no cuts emitted anywhere in the corpus");
}

/// Sanity for the recording switch itself: off by default, and recording
/// does not change the search (same tree, same optimum).
#[test]
fn cut_recording_is_off_by_default_and_side_effect_free() {
    let model: Model = random_binary_model(0xc0ffee, 8, 6);
    let plain = solve_raw(&model, SolverConfig::exact());
    assert!(plain.stats().emitted_cuts.is_empty());
    let recorded = solve_raw(&model, recording_config());
    assert_eq!(plain.stats().nodes, recorded.stats().nodes);
    assert_eq!(plain.objective().to_bits(), recorded.objective().to_bits());
    assert_eq!(
        recorded.stats().emitted_cuts.len() as u64,
        recorded.stats().cuts_emitted.total()
    );
}
