//! Cutting planes: the cut row type and the dedup pool every emitted cut
//! passes through.
//!
//! The branch and bound emits one family of globally valid cuts: Gomory
//! mixed-integer cuts read off an optimal simplex basis (see
//! `simplex::Factor::gomory_cuts`). Each passes through the
//! [`CutGenerator`] dedup pool, so no row enters the row set twice. The
//! accepted cuts live in the solver's row set (see
//! [`crate::solver::BranchAndBound`]): the propagator and the simplex
//! consume them exactly like model rows, at the root and at every node.

use std::collections::BTreeSet;

/// A generated cut `Σ terms ≤ rhs` (cuts are always `≤` rows).
#[derive(Debug, Clone, PartialEq)]
pub struct CutRow {
    /// Sparse `(variable index, coefficient)` terms.
    pub terms: Vec<(usize, f64)>,
    /// Right-hand side.
    pub rhs: f64,
}

/// The dedup pool of emitted cuts. Every Gomory cut is registered through
/// [`CutGenerator::admit`] before it is installed, so a later round never
/// installs a row that is already in the row set.
#[derive(Debug, Clone, Default)]
pub struct CutGenerator {
    /// Dedup keys (see `cut_key`) of every cut emitted so far.
    emitted: BTreeSet<(Vec<u32>, i64)>,
}

impl CutGenerator {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Re-registers previously emitted cuts in the dedup set, so a
    /// snapshot-resumed search (which reinstalls the captured cut pool
    /// into the row set) never admits a duplicate of a cut it already
    /// carries. The keys are rebuilt by the same `cut_key` that
    /// [`CutGenerator::admit`] uses: sorted support plus a coefficient/rhs
    /// bit signature.
    pub fn restore_emitted(&mut self, cuts: &[CutRow]) {
        for cut in cuts {
            self.emitted.insert(cut_key(&cut.terms, cut.rhs));
        }
    }

    /// Registers a cut in the dedup set. Returns `false` — and the caller
    /// must not install the cut — when an identical row was already
    /// emitted in an earlier round.
    pub fn admit(&mut self, cut: &CutRow) -> bool {
        self.emitted.insert(cut_key(&cut.terms, cut.rhs))
    }
}

/// Coefficient-aware dedup key: the sorted support plus an FNV fold of the
/// coefficient and rhs bit patterns. A pure function of the canonical cut
/// row, so [`CutGenerator::restore_emitted`] rebuilds identical keys from a
/// snapshot's cut pool and a resumed search stays deterministic.
fn cut_key(terms: &[(usize, f64)], rhs: f64) -> (Vec<u32>, i64) {
    use crate::sparse::{fnv_fold, FNV_OFFSET};
    let mut sorted: Vec<(usize, f64)> = terms.to_vec();
    sorted.sort_by_key(|&(j, _)| j);
    let support: Vec<u32> = sorted.iter().map(|&(j, _)| j as u32).collect();
    let mut h = FNV_OFFSET;
    for &(_, c) in &sorted {
        fnv_fold(&mut h, c.to_bits());
    }
    fnv_fold(&mut h, rhs.to_bits());
    (support, h as i64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Model, Sense};
    use crate::propagate::Domains;
    use crate::simplex::{solve_lp_basis, LpStatus};
    use crate::sparse::SparseModel;

    /// The Gomory cuts read off the optimal root basis of `m` over the box
    /// `domains`.
    fn root_gomory_cuts(m: &Model, domains: &Domains) -> Vec<(Vec<(usize, f64)>, f64)> {
        let matrix = SparseModel::from_model(m);
        let objective: Vec<f64> = m.vars().iter().map(|v| v.objective).collect();
        let (lp, basis) = solve_lp_basis(&matrix, &objective, 0.0, domains, 1_000);
        assert_eq!(lp.status, LpStatus::Optimal);
        let basis = basis.expect("optimal basis");
        let factor = basis
            .factor(&matrix, &objective, 0.0)
            .expect("factorizable");
        factor.gomory_cuts(&matrix, &objective, 0.0, domains, domains, 8)
    }

    #[test]
    fn integral_points_yield_no_cuts() {
        // The LP optimum b = 1 is already integral, so no basic row is
        // fractional and there is nothing to cut.
        let mut m = Model::new("int");
        let a = m.add_binary("a");
        let b = m.add_binary("b");
        m.add_leq([(a, 1.0), (b, 1.0)], 1.0, "cap");
        m.set_objective([(a, -1.0), (b, -2.0)], Sense::Minimize);
        assert!(root_gomory_cuts(&m, &Domains::from_model(&m)).is_empty());
    }

    #[test]
    fn models_without_structure_have_no_sources() {
        // The LP optimum is fractional, but on continuous columns: Gomory
        // cuts need integral basic variables.
        let mut m = Model::new("cont");
        let x = m.add_binary("x");
        let y = m.add_binary("y");
        m.add_leq([(x, 1.0), (y, 1.0)], 1.5, "row");
        m.set_objective([(x, -1.0), (y, -1.0)], Sense::Minimize);
        let continuous = Domains::from_bounds(&[(0.0, 1.0, false); 2]);
        assert!(root_gomory_cuts(&m, &continuous).is_empty());
    }

    fn row(terms: &[(usize, f64)], rhs: f64) -> CutRow {
        CutRow {
            terms: terms.to_vec(),
            rhs,
        }
    }

    #[test]
    fn the_pool_admits_each_row_once() {
        let mut pool = CutGenerator::new();
        let cut = row(&[(0, 1.0), (2, 0.5)], 1.0);
        assert!(pool.admit(&cut));
        assert!(!pool.admit(&cut), "an identical second row is rejected");
        // The key ignores term order but not coefficients.
        assert!(!pool.admit(&row(&[(2, 0.5), (0, 1.0)], 1.0)));
        let other = row(&[(0, 1.0), (2, 0.25)], 1.0);
        assert!(pool.admit(&other), "one coefficient apart is a new row");

        // A pool rebuilt from a snapshot's cut list rejects what it holds.
        let mut restored = CutGenerator::new();
        restored.restore_emitted(&[cut.clone(), other.clone()]);
        assert!(!restored.admit(&cut));
        assert!(!restored.admit(&other));
        assert!(restored.admit(&row(&[(0, 1.0), (2, 0.5)], 2.0)));
    }
}
