//! Interval (bound) propagation over linear constraints.
//!
//! The propagator maintains a box of variable domains and repeatedly tightens
//! it using constraint activity bounds, the classic bound-consistency
//! technique for linear pseudo-Boolean / integer constraints. It is used
//! three ways by the crate:
//!
//! * as a presolve step before branch and bound,
//! * at every branch-and-bound node to prune and to detect infeasibility,
//! * by the greedy diving heuristic to repair partial assignments.
//!
//! The fixpoint is computed with a row worklist over the shared
//! [`SparseModel`]: when a bound of variable `j` tightens, only the rows the
//! CSC column of `j` names are re-examined, instead of sweeping every row of
//! the model each round as the seed implementation did.
//!
//! # Cost
//!
//! One row evaluation costs `O(row length)`: its activity bound, one
//! tightening attempt per term, and an emptiness check over the variables
//! this row just moved. That check is exact because of an invariant:
//! `run_worklist` returns at entry on an empty box and after any row that
//! empties it, so every row evaluation starts on a non-empty box, and only a
//! bound the current row moved can have emptied it. A call costs one scan of
//! the box and one pass over the row marks to set up, then the lengths of
//! the rows its moved bounds wake. A scan of the whole box at the end of
//! every row evaluation would add `O(variables)` to each of them, although
//! most row evaluations move no bound at all.

use std::collections::VecDeque;

use crate::model::{CmpOp, Model};
use crate::sparse::{RowRef, SparseModel};
use crate::EPS;

/// Current lower/upper bounds of every variable, and which variables must
/// take integral values. A model's box is all binaries
/// ([`Domains::from_model`]); the LP kernel and the propagator take any box.
#[derive(Debug, Clone, PartialEq)]
pub struct Domains {
    lower: Vec<f64>,
    upper: Vec<f64>,
    integral: Vec<bool>,
}

impl Domains {
    /// The box of a model's variables: every one integral in [0, 1].
    pub fn from_model(model: &Model) -> Self {
        let n = model.num_vars();
        Self {
            lower: vec![0.0; n],
            upper: vec![1.0; n],
            integral: vec![true; n],
        }
    }

    /// A box from explicit `(lower, upper, integral)` triples, for the
    /// kernel, propagator and Gomory tests that need other boxes than a
    /// model's.
    #[cfg(test)]
    pub(crate) fn from_bounds(bounds: &[(f64, f64, bool)]) -> Self {
        Self {
            lower: bounds.iter().map(|b| b.0).collect(),
            upper: bounds.iter().map(|b| b.1).collect(),
            integral: bounds.iter().map(|b| b.2).collect(),
        }
    }

    /// Number of variables.
    pub fn len(&self) -> usize {
        self.lower.len()
    }

    /// Whether the domain set is empty (no variables).
    pub fn is_empty(&self) -> bool {
        self.lower.is_empty()
    }

    /// Lower bound of variable `i`.
    pub fn lower(&self, i: usize) -> f64 {
        self.lower[i]
    }

    /// Upper bound of variable `i`.
    pub fn upper(&self, i: usize) -> f64 {
        self.upper[i]
    }

    /// Whether variable `i` must take an integral value.
    pub fn is_integral(&self, i: usize) -> bool {
        self.integral[i]
    }

    /// Whether variable `i` is fixed (lower == upper within tolerance).
    pub fn is_fixed(&self, i: usize) -> bool {
        self.upper[i] - self.lower[i] <= EPS
    }

    /// The fixed value of variable `i`, if it is fixed.
    pub fn fixed_value(&self, i: usize) -> Option<f64> {
        if self.is_fixed(i) {
            Some(if self.integral[i] {
                self.lower[i].round()
            } else {
                0.5 * (self.lower[i] + self.upper[i])
            })
        } else {
            None
        }
    }

    /// Whether every variable is fixed.
    pub fn all_fixed(&self) -> bool {
        (0..self.len()).all(|i| self.is_fixed(i))
    }

    /// Fixes variable `i` to `value`.
    ///
    /// Returns `false`, leaving the domain unchanged, if `value` lies
    /// outside the current bounds.
    pub fn fix(&mut self, i: usize, value: f64) -> bool {
        if value < self.lower[i] - EPS || value > self.upper[i] + EPS {
            return false;
        }
        self.lower[i] = value;
        self.upper[i] = value;
        true
    }

    /// Tightens the lower bound of variable `i`. Returns whether it changed.
    pub fn tighten_lower(&mut self, i: usize, value: f64) -> bool {
        let mut value = value;
        if self.integral[i] {
            value = (value - EPS).ceil();
        }
        if value > self.lower[i] + EPS {
            self.lower[i] = value;
            true
        } else {
            false
        }
    }

    /// Tightens the upper bound of variable `i`. Returns whether it changed.
    pub fn tighten_upper(&mut self, i: usize, value: f64) -> bool {
        let mut value = value;
        if self.integral[i] {
            value = (value + EPS).floor();
        }
        if value < self.upper[i] - EPS {
            self.upper[i] = value;
            true
        } else {
            false
        }
    }

    /// Whether the box is empty (some variable has lower > upper).
    pub fn is_infeasible(&self) -> bool {
        self.lower
            .iter()
            .zip(&self.upper)
            .any(|(l, u)| *l > *u + EPS)
    }

    /// Produces a dense assignment by taking the fixed value of every
    /// variable (midpoint for unfixed continuous, lower bound for unfixed
    /// integral variables). Intended for fully-fixed domains.
    pub fn assignment(&self) -> Vec<f64> {
        (0..self.len())
            .map(|i| {
                if self.integral[i] {
                    self.lower[i].round()
                } else if self.is_fixed(i) {
                    0.5 * (self.lower[i] + self.upper[i])
                } else {
                    self.lower[i]
                }
            })
            .collect()
    }
}

/// Bound on the amortised number of full row sweeps per call: a worklist
/// stops after `MAX_ROUNDS` times the row count of row evaluations, which
/// guards against slow convergence on badly scaled models.
const MAX_ROUNDS: usize = 64;

/// The propagation engine: a compiled, index-based sparse image of the model
/// rows, shared with the LP relaxation and the branching rules.
#[derive(Debug, Clone)]
pub struct Propagator {
    matrix: SparseModel,
}

/// Result of a propagation fixpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PropagationResult {
    /// The box is still non-empty; bounds may have been tightened.
    Consistent,
    /// Some constraint cannot be satisfied within the current box.
    Infeasible,
}

impl Propagator {
    /// Compiles the rows of a model.
    pub fn new(model: &Model) -> Self {
        Self::from_matrix(SparseModel::from_model(model))
    }

    /// Wraps an already-compiled sparse matrix.
    pub fn from_matrix(matrix: SparseModel) -> Self {
        Self { matrix }
    }

    /// The compiled sparse constraint matrix.
    pub fn matrix(&self) -> &SparseModel {
        &self.matrix
    }

    /// Runs bound propagation to fixpoint on `domains` using a row worklist
    /// seeded with every row.
    pub fn propagate(&self, domains: &mut Domains) -> PropagationResult {
        self.run_worklist(domains, None)
    }

    /// Runs bound propagation seeded only with the rows that mention
    /// `seed_vars`. Sound whenever `domains` was at a propagation fixpoint
    /// before the bounds of `seed_vars` were tightened (the branch-and-bound
    /// case: a child node differs from its propagated parent only in the
    /// branched variable) — rows not touching a changed variable cannot
    /// fire, and cascades are followed through the worklist as usual.
    pub fn propagate_seeded(
        &self,
        domains: &mut Domains,
        seed_vars: &[usize],
    ) -> PropagationResult {
        self.run_worklist(domains, Some(seed_vars))
    }

    fn run_worklist(
        &self,
        domains: &mut Domains,
        seed_vars: Option<&[usize]>,
    ) -> PropagationResult {
        // The one whole-box scan of a call. From here on the box stays
        // non-empty between row evaluations: a row that empties it returns
        // `Infeasible` at once. So each row evaluation starts on a non-empty
        // box, and its own emptiness check need only look at the bounds it
        // moved (see `emptied`).
        if domains.is_infeasible() {
            return PropagationResult::Infeasible;
        }
        let m = self.matrix.num_rows();
        if m == 0 {
            return PropagationResult::Consistent;
        }

        let (mut queued, mut queue) = match seed_vars {
            None => (vec![true; m], (0..m as u32).collect::<VecDeque<u32>>()),
            Some(vars) => {
                let mut queued = vec![false; m];
                let mut queue = VecDeque::new();
                for &j in vars {
                    for &r in self.matrix.rows_of_var(j) {
                        if !queued[r as usize] {
                            queued[r as usize] = true;
                            queue.push_back(r);
                        }
                    }
                }
                (queued, queue)
            }
        };
        // The worklist converges for the same reason the round-based sweep
        // does (bounds only ever tighten), but badly scaled rows can tighten
        // by vanishing amounts for a long time; cap the total row
        // evaluations at the equivalent of `MAX_ROUNDS` full sweeps.
        let budget = MAX_ROUNDS.saturating_mul(m);
        let mut evaluations = 0usize;
        let mut changed_vars: Vec<usize> = Vec::new();

        while let Some(i) = queue.pop_front() {
            if evaluations >= budget {
                break;
            }
            evaluations += 1;
            queued[i as usize] = false;

            changed_vars.clear();
            let row = self.matrix.row(i as usize);
            if propagate_row(row, domains, &mut changed_vars) == RowResult::Infeasible {
                return PropagationResult::Infeasible;
            }
            for &j in &changed_vars {
                for &r in self.matrix.rows_of_var(j) {
                    if !queued[r as usize] {
                        queued[r as usize] = true;
                        queue.push_back(r);
                    }
                }
            }
        }
        // Every row evaluation ended on a non-empty box, whether the queue
        // ran dry or the evaluation cap stopped it.
        PropagationResult::Consistent
    }
}

#[derive(PartialEq, Eq)]
enum RowResult {
    Consistent,
    Infeasible,
}

/// Activity range of `Σ aᵢ·xᵢ` over the box.
fn activity_bounds(row: RowRef<'_>, domains: &Domains) -> (f64, f64) {
    let mut min = 0.0;
    let mut max = 0.0;
    for (i, a) in row.terms() {
        if a >= 0.0 {
            min += a * domains.lower(i);
            max += a * domains.upper(i);
        } else {
            min += a * domains.upper(i);
            max += a * domains.lower(i);
        }
    }
    (min, max)
}

fn propagate_row(row: RowRef<'_>, domains: &mut Domains, changed: &mut Vec<usize>) -> RowResult {
    // Handle <= (and the <= half of ==).
    if matches!(row.op, CmpOp::Le | CmpOp::Eq)
        && propagate_upper(row, domains, changed) == RowResult::Infeasible
    {
        return RowResult::Infeasible;
    }
    // Handle >= (and the >= half of ==).
    if matches!(row.op, CmpOp::Ge | CmpOp::Eq)
        && propagate_lower(row, domains, changed) == RowResult::Infeasible
    {
        return RowResult::Infeasible;
    }
    RowResult::Consistent
}

/// Propagates `Σ aᵢ·xᵢ <= rhs`.
fn propagate_upper(row: RowRef<'_>, domains: &mut Domains, changed: &mut Vec<usize>) -> RowResult {
    let (min_act, _) = activity_bounds(row, domains);
    if min_act > row.rhs + EPS {
        return RowResult::Infeasible;
    }
    let moved = changed.len();
    for (i, a) in row.terms() {
        if a.abs() < EPS {
            continue;
        }
        // residual minimum activity of the other terms
        let own_min = if a >= 0.0 {
            a * domains.lower(i)
        } else {
            a * domains.upper(i)
        };
        let resid = min_act - own_min;
        let slack = row.rhs - resid;
        let tightened = if a > 0.0 {
            // a * x_i <= slack  =>  x_i <= slack / a
            domains.tighten_upper(i, slack / a)
        } else {
            // a * x_i <= slack  =>  x_i >= slack / a   (a negative)
            domains.tighten_lower(i, slack / a)
        };
        if tightened {
            changed.push(i);
        }
    }
    emptied(domains, &changed[moved..])
}

/// Propagates `Σ aᵢ·xᵢ >= rhs`.
fn propagate_lower(row: RowRef<'_>, domains: &mut Domains, changed: &mut Vec<usize>) -> RowResult {
    let (_, max_act) = activity_bounds(row, domains);
    if max_act < row.rhs - EPS {
        return RowResult::Infeasible;
    }
    let moved = changed.len();
    for (i, a) in row.terms() {
        if a.abs() < EPS {
            continue;
        }
        let own_max = if a >= 0.0 {
            a * domains.upper(i)
        } else {
            a * domains.lower(i)
        };
        let resid = max_act - own_max;
        let need = row.rhs - resid;
        let tightened = if a > 0.0 {
            // a * x_i >= need  =>  x_i >= need / a
            domains.tighten_lower(i, need / a)
        } else {
            // a * x_i >= need  =>  x_i <= need / a   (a negative)
            domains.tighten_upper(i, need / a)
        };
        if tightened {
            changed.push(i);
        }
    }
    emptied(domains, &changed[moved..])
}

/// Whether a row evaluation emptied the box, given `moved`, the variables
/// whose bounds it tightened. The evaluation started on a non-empty box (the
/// invariant of `run_worklist`), so a variable it did not move is still
/// non-empty, and this answers what a scan of the whole box would.
fn emptied(domains: &Domains, moved: &[usize]) -> RowResult {
    if moved
        .iter()
        .any(|&j| domains.lower(j) > domains.upper(j) + EPS)
    {
        RowResult::Infeasible
    } else {
        RowResult::Consistent
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Model, Sense};

    #[test]
    fn domains_reflect_declared_bounds() {
        let mut m = Model::new("m");
        m.add_binary("a");
        m.add_binary("b");
        let d = Domains::from_model(&m);
        assert_eq!(d.len(), 2);
        for j in 0..2 {
            assert_eq!((d.lower(j), d.upper(j)), (0.0, 1.0));
            assert!(d.is_integral(j));
        }
        let d = Domains::from_bounds(&[(-2.0, 7.0, true), (0.5, 2.5, false)]);
        assert_eq!((d.lower(0), d.upper(0)), (-2.0, 7.0));
        assert!(d.is_integral(0));
        assert_eq!((d.lower(1), d.upper(1)), (0.5, 2.5));
        assert!(!d.is_integral(1));
    }

    #[test]
    fn equality_fixes_partner_variable() {
        // x + y = 1 with x fixed to 1 forces y = 0.
        let mut m = Model::new("m");
        let x = m.add_binary("x");
        let y = m.add_binary("y");
        m.add_eq([(x, 1.0), (y, 1.0)], 1.0, "c");
        m.set_objective([(x, 1.0)], Sense::Minimize);
        let prop = Propagator::new(&m);
        let mut d = Domains::from_model(&m);
        assert!(d.fix(x.index(), 1.0));
        assert_eq!(prop.propagate(&mut d), PropagationResult::Consistent);
        assert_eq!(d.fixed_value(y.index()), Some(0.0));
    }

    #[test]
    fn geq_forces_variable_up() {
        // 2x >= 1, x binary  => x = 1.
        let mut m = Model::new("m");
        let x = m.add_binary("x");
        m.add_geq([(x, 2.0)], 1.0, "c");
        let prop = Propagator::new(&m);
        let mut d = Domains::from_model(&m);
        assert_eq!(prop.propagate(&mut d), PropagationResult::Consistent);
        assert_eq!(d.fixed_value(x.index()), Some(1.0));
    }

    #[test]
    fn detects_infeasibility() {
        // x + y >= 3 over binaries is infeasible.
        let mut m = Model::new("m");
        let x = m.add_binary("x");
        let y = m.add_binary("y");
        m.add_geq([(x, 1.0), (y, 1.0)], 3.0, "c");
        let prop = Propagator::new(&m);
        let mut d = Domains::from_model(&m);
        assert_eq!(prop.propagate(&mut d), PropagationResult::Infeasible);
    }

    #[test]
    fn negative_coefficients() {
        // x - y <= -1 over binaries forces x = 0, y = 1.
        let mut m = Model::new("m");
        let x = m.add_binary("x");
        let y = m.add_binary("y");
        m.add_leq([(x, 1.0), (y, -1.0)], -1.0, "c");
        let prop = Propagator::new(&m);
        let mut d = Domains::from_model(&m);
        assert_eq!(prop.propagate(&mut d), PropagationResult::Consistent);
        assert_eq!(d.fixed_value(x.index()), Some(0.0));
        assert_eq!(d.fixed_value(y.index()), Some(1.0));
    }

    #[test]
    fn integral_rounding_of_bounds() {
        // 2x <= 3 over an integer x in [0, 5] gives x <= 1.
        let matrix = SparseModel::from_rows(1, [(vec![(0, 2.0)], CmpOp::Le, 3.0)]);
        let prop = Propagator::from_matrix(matrix);
        let mut d = Domains::from_bounds(&[(0.0, 5.0, true)]);
        prop.propagate(&mut d);
        assert_eq!(d.upper(0), 1.0);
    }

    #[test]
    fn chained_implications_reach_fixpoint() {
        // x1 = 1; x1 <= x2; x2 <= x3; ... all become 1.
        let mut m = Model::new("m");
        let vars: Vec<_> = (0..10).map(|i| m.add_binary(format!("x{i}"))).collect();
        m.add_geq([(vars[0], 1.0)], 1.0, "fix");
        for w in vars.windows(2) {
            m.add_leq([(w[0], 1.0), (w[1], -1.0)], 0.0, "imp");
        }
        let prop = Propagator::new(&m);
        let mut d = Domains::from_model(&m);
        assert_eq!(prop.propagate(&mut d), PropagationResult::Consistent);
        for v in &vars {
            assert_eq!(d.fixed_value(v.index()), Some(1.0));
        }
    }

    #[test]
    fn reverse_ordered_implication_chain_converges() {
        // Worst case for the old round-based sweep: the implication chain is
        // stated in reverse row order, so each full sweep only advanced one
        // link. The worklist handles any ordering.
        let mut m = Model::new("m");
        let vars: Vec<_> = (0..10).map(|i| m.add_binary(format!("x{i}"))).collect();
        for w in vars.windows(2).rev() {
            m.add_leq([(w[0], 1.0), (w[1], -1.0)], 0.0, "imp");
        }
        m.add_geq([(vars[0], 1.0)], 1.0, "fix");
        let prop = Propagator::new(&m);
        let mut d = Domains::from_model(&m);
        assert_eq!(prop.propagate(&mut d), PropagationResult::Consistent);
        for v in &vars {
            assert_eq!(d.fixed_value(v.index()), Some(1.0));
        }
    }

    #[test]
    fn assignment_of_fully_fixed_domains() {
        let mut m = Model::new("m");
        let x = m.add_binary("x");
        let y = m.add_binary("y");
        m.add_geq([(x, 1.0)], 1.0, "c1");
        m.add_eq([(x, 1.0), (y, 1.0)], 1.0, "c2");
        let prop = Propagator::new(&m);
        let mut d = Domains::from_model(&m);
        prop.propagate(&mut d);
        assert!(d.all_fixed());
        assert_eq!(d.assignment(), vec![1.0, 0.0]);
    }

    #[test]
    fn seeded_propagation_matches_full_propagation_after_a_fix() {
        // x1 = 1 propagated; then fixing x5 = 0 must drag the tail of the
        // implication chain x5 <= x6 <= ... down, whether propagation is
        // seeded with just x5 or sweeps every row.
        let mut m = Model::new("m");
        let vars: Vec<_> = (0..10).map(|i| m.add_binary(format!("x{i}"))).collect();
        for w in vars.windows(2) {
            m.add_leq([(w[1], 1.0), (w[0], -1.0)], 0.0, "imp");
        }
        let prop = Propagator::new(&m);
        let mut fixpoint = Domains::from_model(&m);
        assert_eq!(prop.propagate(&mut fixpoint), PropagationResult::Consistent);

        let mut seeded = fixpoint.clone();
        assert!(seeded.fix(vars[5].index(), 0.0));
        let mut full = seeded.clone();
        assert_eq!(
            prop.propagate_seeded(&mut seeded, &[vars[5].index()]),
            PropagationResult::Consistent
        );
        assert_eq!(prop.propagate(&mut full), PropagationResult::Consistent);
        assert_eq!(seeded, full);
        for v in &vars[5..] {
            assert_eq!(seeded.fixed_value(v.index()), Some(0.0));
        }
    }

    /// Row propagation that decides emptiness by scanning the whole box at
    /// the end of every row evaluation and of the worklist, with no
    /// invariant to lean on. The propagator must match it bit for bit. It
    /// shares `activity_bounds` and the `Domains` tightening with the
    /// propagator.
    fn reference_propagate(
        prop: &Propagator,
        domains: &mut Domains,
        seed_vars: Option<&[usize]>,
    ) -> PropagationResult {
        if domains.is_infeasible() {
            return PropagationResult::Infeasible;
        }
        let matrix = prop.matrix();
        let m = matrix.num_rows();
        if m == 0 {
            return PropagationResult::Consistent;
        }
        let (mut queued, mut queue) = match seed_vars {
            None => (vec![true; m], (0..m as u32).collect::<VecDeque<u32>>()),
            Some(vars) => {
                let mut queued = vec![false; m];
                let mut queue = VecDeque::new();
                for &j in vars {
                    for &r in matrix.rows_of_var(j) {
                        if !queued[r as usize] {
                            queued[r as usize] = true;
                            queue.push_back(r);
                        }
                    }
                }
                (queued, queue)
            }
        };
        let budget = MAX_ROUNDS.saturating_mul(m);
        let mut evaluations = 0usize;
        let mut changed_vars: Vec<usize> = Vec::new();
        while let Some(i) = queue.pop_front() {
            if evaluations >= budget {
                break;
            }
            evaluations += 1;
            queued[i as usize] = false;
            changed_vars.clear();
            let row = matrix.row(i as usize);
            if reference_row(row, domains, &mut changed_vars) == RowResult::Infeasible {
                return PropagationResult::Infeasible;
            }
            for &j in &changed_vars {
                for &r in matrix.rows_of_var(j) {
                    if !queued[r as usize] {
                        queued[r as usize] = true;
                        queue.push_back(r);
                    }
                }
            }
        }
        if domains.is_infeasible() {
            PropagationResult::Infeasible
        } else {
            PropagationResult::Consistent
        }
    }

    fn reference_row(
        row: RowRef<'_>,
        domains: &mut Domains,
        changed: &mut Vec<usize>,
    ) -> RowResult {
        if matches!(row.op, CmpOp::Le | CmpOp::Eq)
            && reference_upper(row, domains, changed) == RowResult::Infeasible
        {
            return RowResult::Infeasible;
        }
        if matches!(row.op, CmpOp::Ge | CmpOp::Eq)
            && reference_lower(row, domains, changed) == RowResult::Infeasible
        {
            return RowResult::Infeasible;
        }
        RowResult::Consistent
    }

    fn reference_upper(
        row: RowRef<'_>,
        domains: &mut Domains,
        changed: &mut Vec<usize>,
    ) -> RowResult {
        let (min_act, _) = activity_bounds(row, domains);
        if min_act > row.rhs + EPS {
            return RowResult::Infeasible;
        }
        for (i, a) in row.terms() {
            if a.abs() < EPS {
                continue;
            }
            let own_min = if a >= 0.0 {
                a * domains.lower(i)
            } else {
                a * domains.upper(i)
            };
            let slack = row.rhs - (min_act - own_min);
            let tightened = if a > 0.0 {
                domains.tighten_upper(i, slack / a)
            } else {
                domains.tighten_lower(i, slack / a)
            };
            if tightened {
                changed.push(i);
            }
        }
        if domains.is_infeasible() {
            RowResult::Infeasible
        } else {
            RowResult::Consistent
        }
    }

    fn reference_lower(
        row: RowRef<'_>,
        domains: &mut Domains,
        changed: &mut Vec<usize>,
    ) -> RowResult {
        let (_, max_act) = activity_bounds(row, domains);
        if max_act < row.rhs - EPS {
            return RowResult::Infeasible;
        }
        for (i, a) in row.terms() {
            if a.abs() < EPS {
                continue;
            }
            let own_max = if a >= 0.0 {
                a * domains.upper(i)
            } else {
                a * domains.lower(i)
            };
            let need = row.rhs - (max_act - own_max);
            let tightened = if a > 0.0 {
                domains.tighten_lower(i, need / a)
            } else {
                domains.tighten_upper(i, need / a)
            };
            if tightened {
                changed.push(i);
            }
        }
        if domains.is_infeasible() {
            RowResult::Infeasible
        } else {
            RowResult::Consistent
        }
    }

    /// Every bound of the box as bit patterns.
    fn bits(domains: &Domains) -> Vec<(u64, u64)> {
        (0..domains.len())
            .map(|i| (domains.lower(i).to_bits(), domains.upper(i).to_bits()))
            .collect()
    }

    /// Runs the propagator and the reference on copies of `domains` and
    /// requires the same verdict and the same bits; returns the
    /// propagator's result.
    fn propagate_both(
        prop: &Propagator,
        domains: &Domains,
        seed_vars: Option<&[usize]>,
    ) -> (PropagationResult, Domains) {
        let mut fast = domains.clone();
        let verdict = match seed_vars {
            None => prop.propagate(&mut fast),
            Some(vars) => prop.propagate_seeded(&mut fast, vars),
        };
        let mut slow = domains.clone();
        let expected = reference_propagate(prop, &mut slow, seed_vars);
        assert_eq!(verdict, expected, "verdicts differ");
        assert_eq!(bits(&fast), bits(&slow), "bounds differ");
        (verdict, fast)
    }

    /// SplitMix64, the seeded generator of the random propagation models.
    struct Mix(u64);

    impl Mix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        /// Uniform in [0, 1) with a full-width mantissa.
        fn unit(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64
        }

        /// A coefficient of either sign: a small integer or a fractional
        /// magnitude in [0.25, 4).
        fn coeff(&mut self) -> f64 {
            let magnitude = if self.below(3) == 0 {
                (1 + self.below(3)) as f64
            } else {
                0.25 + 3.75 * self.unit()
            };
            if self.below(2) == 0 {
                magnitude
            } else {
                -magnitude
            }
        }
    }

    /// A random box and matrix. Variables are binaries, general integers
    /// and continuous variables, a quarter of whose bounds are infinite.
    /// Rows are `≤`, `≥` or `=` over two to five variables, with right-hand
    /// sides inside the activity range of the declared box. In a quarter of
    /// the models the first row is a knife edge: its right-hand side lies
    /// 0.9·EPS past its activity bound, so the activity check passes and
    /// then every term with a coefficient below 0.9 in magnitude empties
    /// its variable's domain.
    fn random_instance(mix: &mut Mix) -> (Propagator, Domains) {
        let n = 3 + mix.below(10);
        let mut domains = Domains {
            lower: Vec::with_capacity(n),
            upper: Vec::with_capacity(n),
            integral: Vec::with_capacity(n),
        };
        for _ in 0..n {
            let (lower, upper, integral) = match mix.below(3) {
                0 => (0.0, 1.0, true),
                1 => {
                    let lower = mix.below(7) as f64 - 3.0;
                    (lower, lower + mix.below(7) as f64, true)
                }
                _ => {
                    let lower = 4.0 * mix.unit() - 2.0;
                    let upper = lower + 4.0 * mix.unit();
                    let lower = if mix.below(4) == 0 {
                        f64::NEG_INFINITY
                    } else {
                        lower
                    };
                    let upper = if mix.below(4) == 0 {
                        f64::INFINITY
                    } else {
                        upper
                    };
                    (lower, upper, false)
                }
            };
            domains.lower.push(lower);
            domains.upper.push(upper);
            domains.integral.push(integral);
        }

        let m = 2 + mix.below(9);
        let knife_edge = mix.below(4) == 0;
        let mut rows = Vec::with_capacity(m);
        for r in 0..m {
            let len = 2 + mix.below(n.min(5) - 1);
            let mut vars: Vec<usize> = (0..n).collect();
            for t in 0..len {
                let pick = t + mix.below(n - t);
                vars.swap(t, pick);
            }
            vars.truncate(len);
            vars.sort_unstable();
            let scale = if r == 0 && knife_edge { 0.25 } else { 1.0 };
            let terms: Vec<(usize, f64)> = vars.iter().map(|&j| (j, scale * mix.coeff())).collect();
            // The activity range, summed in row order as `activity_bounds`
            // sums it.
            let (min, max) = terms.iter().fold((0.0, 0.0), |(min, max), &(j, a)| {
                if a >= 0.0 {
                    (min + a * domains.lower[j], max + a * domains.upper[j])
                } else {
                    (min + a * domains.upper[j], max + a * domains.lower[j])
                }
            });
            let (op, rhs) = if r == 0 && knife_edge && min.is_finite() {
                (CmpOp::Le, min - 0.9 * EPS)
            } else if r == 0 && knife_edge && max.is_finite() {
                (CmpOp::Ge, max + 0.9 * EPS)
            } else {
                let t = 0.2 + 0.8 * mix.unit();
                match mix.below(6) {
                    0..=2 if min.is_finite() => (
                        CmpOp::Le,
                        if max.is_finite() {
                            min + t * (max - min)
                        } else {
                            min + 4.0 * t
                        },
                    ),
                    3 | 4 if max.is_finite() => (
                        CmpOp::Ge,
                        if min.is_finite() {
                            max - t * (max - min)
                        } else {
                            max - 4.0 * t
                        },
                    ),
                    // The activity at a random point of the box (a finite
                    // stand-in for an infinite bound).
                    _ => {
                        let rhs = terms
                            .iter()
                            .map(|&(j, a)| {
                                let (l, u) =
                                    (domains.lower[j].max(-3.0), domains.upper[j].min(3.0));
                                let x = l + mix.unit() * (u - l);
                                a * if domains.integral[j] { x.round() } else { x }
                            })
                            .sum();
                        (CmpOp::Eq, rhs)
                    }
                }
            };
            rows.push((terms, op, rhs));
        }
        (
            Propagator::from_matrix(SparseModel::from_rows(n, rows)),
            domains,
        )
    }

    #[test]
    fn propagation_matches_the_whole_box_reference_bit_for_bit_on_random_models() {
        let (mut consistent, mut emptied_by_a_row, mut seeded, mut seeded_moves) = (0, 0, 0, 0);
        for seed in 0..3000u64 {
            let mut mix = Mix(seed);
            let (prop, declared) = random_instance(&mut mix);
            let (verdict, fixpoint) = propagate_both(&prop, &declared, None);
            if verdict == PropagationResult::Infeasible {
                // A row's activity check returns on a box that is still
                // non-empty; an empty box means a row's tightening emptied it.
                emptied_by_a_row += usize::from(fixpoint.is_infeasible());
                continue;
            }
            consistent += 1;
            let free: Vec<usize> = (0..fixpoint.len())
                .filter(|&j| !fixpoint.is_fixed(j))
                .collect();
            if free.is_empty() {
                continue;
            }
            // Fix a free variable at a random point of its domain, within
            // three of its finite bound where the other one is infinite.
            let j = free[mix.below(free.len())];
            let (lower, upper) = (fixpoint.lower(j), fixpoint.upper(j));
            let l = if lower.is_finite() {
                lower
            } else {
                upper.min(0.0) - 3.0
            };
            let u = if upper.is_finite() {
                upper
            } else {
                l.max(0.0) + 3.0
            };
            let x = l + mix.unit() * (u - l);
            let value = if fixpoint.is_integral(j) {
                x.round().clamp(lower, upper)
            } else {
                x
            };
            let mut fixed = fixpoint.clone();
            assert!(
                fixed.fix(j, value),
                "seed {seed}: {value} lies in the domain of {j}"
            );
            let (_, after) = propagate_both(&prop, &fixed, Some(&[j]));
            seeded += 1;
            seeded_moves += usize::from(bits(&after) != bits(&fixed));
        }
        // The models exercise every path: fixpoints, rows whose tightening
        // empties a domain, and seeded calls that move bounds.
        assert!(consistent >= 500, "{consistent} consistent models");
        assert!(
            emptied_by_a_row >= 300,
            "{emptied_by_a_row} domains emptied by a row"
        );
        assert!(seeded >= 500, "{seeded} seeded calls");
        assert!(
            seeded_moves >= 200,
            "{seeded_moves} seeded calls that moved a bound"
        );
    }

    #[test]
    fn a_row_that_empties_a_domain_is_infeasible_wherever_the_emptied_term_sits() {
        // 0.5·x + y ≤ −0.8·EPS over an integral x ∈ [0, 1] and a continuous
        // y ∈ [0, 10]. The activity check passes (0 ≤ rhs + EPS); then x's
        // upper bound rounds down to −1, which empties it, and y's falls to
        // −0.8·EPS, which does not. Listing x first puts a moved bound after
        // the emptied one; listing y first empties x after tightening y.
        let x_first = vec![(0, 0.5), (1, 1.0)];
        let y_first = vec![(1, 1.0), (0, 0.5)];
        for terms in [x_first, y_first] {
            let matrix = SparseModel::from_rows(2, [(terms, CmpOp::Le, -0.8 * EPS)]);
            let prop = Propagator::from_matrix(matrix);
            let declared = Domains::from_bounds(&[(0.0, 1.0, true), (0.0, 10.0, false)]);
            for seed_vars in [None, Some(&[0usize][..]), Some(&[1usize][..])] {
                let (verdict, after) = propagate_both(&prop, &declared, seed_vars);
                assert_eq!(verdict, PropagationResult::Infeasible);
                assert_eq!(after.upper(0), -1.0);
                assert_eq!(after.upper(1).to_bits(), (-0.8 * EPS).to_bits());
            }
        }
    }

    #[test]
    fn a_slowly_converging_pair_of_rows_stops_at_the_evaluation_cap() {
        // x ≤ 0.99·y and y ≤ 0.99·x over [0, 1]²: the two rows wake each
        // other, and evaluation k lowers one upper bound to 0.99^k, x on odd
        // k and y on even. The fixpoint lies about 900 evaluations away,
        // past the cap of MAX_ROUNDS · 2 = 128.
        let matrix = SparseModel::from_rows(
            2,
            [
                (vec![(0, 1.0), (1, -0.99)], CmpOp::Le, 0.0),
                (vec![(1, 1.0), (0, -0.99)], CmpOp::Le, 0.0),
            ],
        );
        let prop = Propagator::from_matrix(matrix);
        let unit_box = Domains::from_bounds(&[(0.0, 1.0, false); 2]);
        let power = |k: usize| (0..k).fold(1.0f64, |u, _| 0.99 * u);
        let cap = 2 * MAX_ROUNDS;

        let (verdict, capped) = propagate_both(&prop, &unit_box, None);
        assert_eq!(verdict, PropagationResult::Consistent);
        assert_eq!(capped.upper(0).to_bits(), power(cap - 1).to_bits());
        assert_eq!(capped.upper(1).to_bits(), power(cap).to_bits());

        // The cap, not a fixpoint, ended the call: a seeded call goes on
        // from there for another full allowance.
        let (verdict, again) = propagate_both(&prop, &capped, Some(&[1]));
        assert_eq!(verdict, PropagationResult::Consistent);
        assert_eq!(again.upper(0).to_bits(), power(2 * cap - 1).to_bits());
        assert_eq!(again.upper(1).to_bits(), power(2 * cap).to_bits());
    }

    #[test]
    fn matrix_is_shared_with_consumers() {
        let mut m = Model::new("m");
        let x = m.add_binary("x");
        let y = m.add_binary("y");
        m.add_leq([(x, 1.0), (y, 1.0)], 1.0, "c");
        let prop = Propagator::new(&m);
        assert_eq!(prop.matrix().num_rows(), 1);
        assert_eq!(prop.matrix().occurrences(x.index()), 1);
    }
}
