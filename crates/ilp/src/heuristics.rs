//! Primal heuristics that supply incumbents: [`greedy_dive`] runs once
//! before the tree search, and [`round_and_repair`] rounds the LP
//! relaxation at shallow nodes.
//!
//! A good incumbent found before the tree search starts dramatically improves
//! pruning for the BIST formulations, whose constraint structure (assignment
//! rows plus implication chains) makes greedy, propagation-repaired dives
//! succeed very often.

use crate::propagate::{Domains, PropagationResult, Propagator};

/// Tries to build a feasible assignment by repeatedly fixing an unfixed
/// variable to its objective-cheapest bound and propagating.
///
/// When fixing a variable to the preferred value makes the box infeasible the
/// dive backtracks that single decision and tries the opposite bound; if both
/// fail the dive aborts. The dive therefore runs in time linear in the number
/// of variables times the propagation cost and either returns a feasible
/// assignment or `None` — it never loops.
///
/// `objective` is the minimisation objective (one coefficient per variable).
pub fn greedy_dive(
    propagator: &Propagator,
    start: &Domains,
    objective: &[f64],
) -> Option<Vec<f64>> {
    let mut domains = start.clone();
    if propagator.propagate(&mut domains) == PropagationResult::Infeasible {
        return None;
    }

    // Variables in decreasing "constrainedness" order: how many rows mention
    // them. Fixing the most entangled variables first lets propagation do the
    // bulk of the work.
    let n = domains.len();
    let matrix = propagator.matrix();
    let occurrence: Vec<usize> = (0..n).map(|j| matrix.occurrences(j)).collect();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| occurrence[b].cmp(&occurrence[a]).then(a.cmp(&b)));

    for &j in &order {
        if domains.is_fixed(j) {
            continue;
        }
        let lower = domains.lower(j);
        let upper = domains.upper(j);
        // Prefer the bound with the smaller objective contribution.
        let (first, second) = if objective[j] >= 0.0 {
            (lower, upper)
        } else {
            (upper, lower)
        };
        // `domains` is at a fixpoint between fixes, so each attempt only
        // needs to propagate from the variable just fixed.
        let mut attempt = domains.clone();
        attempt.fix(j, first);
        if propagator.propagate_seeded(&mut attempt, &[j]) == PropagationResult::Consistent {
            domains = attempt;
            continue;
        }
        let mut attempt = domains.clone();
        attempt.fix(j, second);
        if propagator.propagate_seeded(&mut attempt, &[j]) == PropagationResult::Consistent {
            domains = attempt;
            continue;
        }
        return None;
    }
    Some(domains.assignment())
}

/// Rounds a fractional LP solution to the nearest integers and repairs it by
/// propagation; returns a feasible assignment when the repair succeeds.
pub fn round_and_repair(
    propagator: &Propagator,
    start: &Domains,
    lp_values: &[f64],
    objective: &[f64],
) -> Option<Vec<f64>> {
    let mut domains = start.clone();
    // Fix the near-integral variables first; leave fractional ones to the dive.
    let mut fixed = Vec::new();
    for (j, &v) in lp_values.iter().enumerate() {
        if domains.is_fixed(j) {
            continue;
        }
        if (v - v.round()).abs() <= 1e-4 {
            let rounded = v.round().clamp(domains.lower(j), domains.upper(j));
            if !domains.fix(j, rounded) {
                return None;
            }
            fixed.push(j);
        }
    }
    // `start` is the node's propagated (fixpoint) box, so only the rows of
    // the variables just rounded can fire.
    if propagator.propagate_seeded(&mut domains, &fixed) == PropagationResult::Infeasible {
        return None;
    }
    greedy_dive(propagator, &domains, objective)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Model, Sense};

    fn setup(model: &Model) -> (Propagator, Domains, Vec<f64>) {
        let prop = Propagator::new(model);
        let dom = Domains::from_model(model);
        let obj = model.vars().iter().map(|v| v.objective).collect();
        (prop, dom, obj)
    }

    #[test]
    fn dive_solves_assignment_problem() {
        // Three items each assigned to exactly one of two bins.
        let mut m = Model::new("assign");
        let mut vars = Vec::new();
        for i in 0..3 {
            let a = m.add_binary(format!("x{i}a"));
            let b = m.add_binary(format!("x{i}b"));
            m.add_eq([(a, 1.0), (b, 1.0)], 1.0, format!("row{i}"));
            vars.push((a, b));
        }
        m.set_objective(
            vars.iter()
                .flat_map(|&(a, b)| [(a, 1.0), (b, 2.0)])
                .collect::<Vec<_>>(),
            Sense::Minimize,
        );
        let (prop, dom, obj) = setup(&m);
        let sol = greedy_dive(&prop, &dom, &obj).expect("dive should succeed");
        assert!(m.is_feasible(&sol, 1e-6));
        // The dive is a heuristic: it must produce *a* feasible assignment,
        // whose cost is between the optimum (3) and the worst case (6).
        let cost = m.objective_value(&sol);
        assert!((3.0..=6.0).contains(&cost), "cost {cost}");
    }

    #[test]
    fn dive_respects_conflicts() {
        // x + y >= 1 and x + y <= 1: exactly one of them; cheapest is y.
        let mut m = Model::new("m");
        let x = m.add_binary("x");
        let y = m.add_binary("y");
        m.add_geq([(x, 1.0), (y, 1.0)], 1.0, "ge");
        m.add_leq([(x, 1.0), (y, 1.0)], 1.0, "le");
        m.set_objective([(x, 5.0), (y, 1.0)], Sense::Minimize);
        let (prop, dom, obj) = setup(&m);
        let sol = greedy_dive(&prop, &dom, &obj).expect("feasible");
        assert!(m.is_feasible(&sol, 1e-6));
    }

    #[test]
    fn dive_reports_failure_on_infeasible_model() {
        let mut m = Model::new("m");
        let x = m.add_binary("x");
        m.add_geq([(x, 1.0)], 2.0, "impossible");
        let (prop, dom, obj) = setup(&m);
        assert!(greedy_dive(&prop, &dom, &obj).is_none());
    }

    #[test]
    fn round_and_repair_uses_lp_hint() {
        let mut m = Model::new("m");
        let x = m.add_binary("x");
        let y = m.add_binary("y");
        m.add_geq([(x, 1.0), (y, 1.0)], 1.0, "c");
        m.set_objective([(x, 1.0), (y, 3.0)], Sense::Minimize);
        let (prop, dom, obj) = setup(&m);
        let sol = round_and_repair(&prop, &dom, &[1.0, 0.0], &obj).expect("feasible");
        assert!(m.is_feasible(&sol, 1e-6));
        assert!(sol[x.index()] > 0.5);
    }

    #[test]
    fn dive_handles_already_fixed_domains() {
        let mut m = Model::new("m");
        let x = m.add_binary("x");
        m.set_objective([(x, 1.0)], Sense::Minimize);
        let (prop, mut dom, obj) = setup(&m);
        dom.fix(x.index(), 1.0);
        let sol = greedy_dive(&prop, &dom, &obj).expect("feasible");
        assert!((sol[x.index()] - 1.0).abs() < crate::EPS);
    }
}
