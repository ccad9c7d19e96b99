//! Sparse bounded-variable **revised simplex** for the LP relaxation, with a
//! factorized basis and a dual-simplex warm-start path that re-solves a
//! child node's LP from its parent's optimal [`Basis`] after bound changes.
//!
//! The branch-and-bound solver uses this module to compute the dual bounds
//! of its nodes. Three design decisions define the kernel:
//!
//! * **Implicit bounds.** Every variable of the BIST formulations is boxed,
//!   and earlier revisions materialised each box side as an explicit tableau
//!   row (two rows per column), which inflated the tableau quadratically and
//!   forced a size-cap cold fallback on paulin-scale models. The revised
//!   kernel stores no bound rows at all: a nonbasic variable simply sits at
//!   its lower or upper bound (tracked by a per-column status), a move that
//!   hits a bound is a *bound flip* instead of a pivot, and a child node
//!   that tightens bounds changes nothing but the per-column bound arrays.
//! * **Sparse pricing off the shared matrix.** Columns are read straight
//!   from the CSC side of the shared [`SparseModel`]
//!   ([`SparseModel::col`]); each row contributes one slack column (an
//!   implicit unit vector), turning every row into an equality
//!   `Σ aᵢⱼ·xⱼ + sᵢ = bᵢ` with the row sense encoded in the slack's bounds.
//!   The pricing pass, FTRAN and the ratio tests therefore cost `O(nnz)`
//!   instead of touching a dense tableau row.
//! * **Factorized basis (product form).** The basis inverse is represented
//!   as a product of sparse *eta* matrices: each pivot appends one eta
//!   vector, and the file is periodically collapsed by refactorization
//!   (Gauss-Jordan over the basic columns with partial pivoting), which
//!   bounds both memory and accumulated rounding error. An eta file is
//!   flat: pivot rows, pivots, term offsets, term rows and term values in
//!   five arrays, with no allocation per eta. A stored [`Basis`] is
//!   compact: the column statuses and the basic set, one byte per column
//!   plus four per row, with no eta file. A warm start refactorizes it;
//!   the column order (sparsest first, then by index) and the pivot rule
//!   make that factor a deterministic function of the basic set, so a warm
//!   start never walks etas inherited from its ancestors. A warm kernel
//!   borrows its factor's eta file as the base and keeps its own pivots in
//!   an update file, so one factor serves Gomory separation and every
//!   strong-branching probe without a copy.
//!
//! A warm start is nearly all refactorization, and a dual iteration is
//! mostly BTRAN (one serial dot product per eta), then the update loops,
//! the ratio test and FTRAN. The kernel is built to compute exactly the
//! bits the plain dense code computes, because this search is degenerate:
//! a single changed rounding moves pivots, nodes and even the areas and
//! proofs of capped solves. Within that contract:
//!
//! * refactorization eliminates each basic column over the rows it has
//!   touched instead of all `m` rows, kept as a bitset it walks in row
//!   order, and a single-entry column on a free row (most basic columns are
//!   slacks) pivots in `O(1)`; the dense elimination stays in the unit
//!   tests as the reference it must match bit for bit;
//! * after each FTRAN one branch-free pass lists the column's nonzero rows,
//!   and the ratio test, the value and devex-weight updates and the new
//!   eta walk that list instead of all `m` rows;
//! * two BTRANs over the same eta file share one pass with two
//!   accumulators — ρ and `y` in the dual simplex, and a primal devex
//!   pivot's ρ together with the next iteration's `y` — which hides the
//!   latency of the serial dot product.
//!
//! What is left is BTRAN: the product form makes it a chain of serial dot
//! products, and only a different factorization (LU) would shorten it — at
//! the price of different roundings, and so a different search.
//!
//! Two entry points share the kernel:
//!
//! * [`solve_lp_basis`] — the cold solve: slack basis, composite phase-1
//!   primal (minimising the sum of bound violations of the basic
//!   variables), then phase-2 primal on the true objective. Returns the
//!   optimal [`Basis`] for descendants to re-solve from.
//! * [`resolve_with_basis`] — the warm path: a child's bound changes leave
//!   the parent's optimal basis *dual feasible* (reduced costs do not
//!   depend on bound values), so the **bounded dual simplex** drives out
//!   the handful of primal infeasibilities the new bounds introduced,
//!   flipping entering variables across their boxes when the dual ratio
//!   test says a pivot would overshoot. Rows appended after a basis was
//!   stored (cutting planes) keep it usable: [`Basis::extended`] makes each
//!   new row's slack basic, which leaves every reduced cost unchanged.
//!
//! Both report [`ReducedCosts`] at optimality, which the solver uses for
//! reduced-cost bound fixing against the incumbent. Both price with
//! **devex** (Forrest & Goldfarb's reference-framework approximation of
//! steepest edge): a weight per column (per row on the dual side) scores
//! candidates by `violation² / weight`, which steers the simplex away from
//! the near-degenerate max-violation columns of the BIST formulations.
//! While the phase measure stalls, pricing falls back to Bland's
//! anti-cycling rule (counted in [`LpSolution::bland_pivots`]).

use std::borrow::Cow;
use std::ops::Range;

use crate::model::CmpOp;
use crate::propagate::Domains;
use crate::sparse::SparseModel;
use crate::EPS;

/// Outcome of an LP solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LpStatus {
    /// An optimal basic solution was found.
    Optimal,
    /// The constraints admit no solution within the variable bounds.
    Infeasible,
    /// The objective is unbounded below (for minimisation).
    Unbounded,
    /// The pivot limit was reached before convergence.
    IterationLimit,
}

/// Reduced-cost information of an optimal basis, mapped back to the original
/// model variables.
///
/// `up[j]` is the proven marginal objective increase per unit increase of
/// variable `j` when the optimal solution has `j` at its **lower** bound
/// (`0.0` otherwise — basic, at the upper bound, or fixed). `down[j]` is the
/// symmetric marginal increase per unit *decrease* when `j` sits at its
/// **upper** bound. Both are non-negative; the solver combines them with an
/// incumbent objective to fix binaries that provably cannot flip in any
/// improving solution.
#[derive(Debug, Clone, PartialEq)]
pub struct ReducedCosts {
    /// Marginal cost of moving up off the lower bound, per variable.
    pub up: Vec<f64>,
    /// Marginal cost of moving down off the upper bound, per variable.
    pub down: Vec<f64>,
}

/// Result of [`solve_lp_basis`] / [`resolve_with_basis`].
#[derive(Debug, Clone, PartialEq)]
pub struct LpSolution {
    /// Solve status.
    pub status: LpStatus,
    /// Objective value (minimisation), meaningful when `status` is `Optimal`.
    pub objective: f64,
    /// Values of the *original* model variables (fixed variables keep their
    /// fixed value). Empty unless `status` is `Optimal`.
    pub values: Vec<f64>,
    /// Total simplex pivots (basis changes) performed, primal and dual.
    /// Bound flips — nonbasic variables crossing their box without a basis
    /// change, the revised kernel's cheap replacement for the dense
    /// kernel's bound-row pivots — are counted separately in
    /// [`LpSolution::bound_flips`].
    pub pivots: u64,
    /// Iterations spent in the primal simplex (phases 1 and 2 of a cold
    /// solve).
    pub primal_pivots: u64,
    /// Iterations spent in the dual simplex (warm re-solves).
    pub dual_pivots: u64,
    /// Bound flips performed (rank-0 updates; see [`LpSolution::pivots`]).
    pub bound_flips: u64,
    /// Basis factorizations performed while solving: a warm start's own
    /// factorization of its stored basis, plus every mid-solve eta-file
    /// collapse. Cold solves start from the trivially factorized slack
    /// basis, so for them this counts only the collapses.
    pub refactorizations: u64,
    /// Pivots priced by Bland's anti-cycling fallback (pricing switches to
    /// it while the phase measure stalls); devex priced the rest of
    /// [`LpSolution::pivots`].
    pub bland_pivots: u64,
    /// Reduced costs at optimality; `None` unless `status` is `Optimal`.
    pub reduced_costs: Option<ReducedCosts>,
}

impl LpSolution {
    fn no_solution(status: LpStatus, counters: Counters) -> Self {
        Self {
            status,
            objective: f64::INFINITY,
            values: Vec::new(),
            pivots: counters.primal + counters.dual,
            primal_pivots: counters.primal,
            dual_pivots: counters.dual,
            bound_flips: counters.flips,
            refactorizations: counters.refactorizations,
            bland_pivots: counters.bland,
            reduced_costs: None,
        }
    }
}

/// Iteration counters of one kernel run.
#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    primal: u64,
    dual: u64,
    flips: u64,
    refactorizations: u64,
    /// Basis-change pivots priced by the Bland fallback.
    bland: u64,
}

/// Primal feasibility tolerance: a variable this far outside its bounds
/// still counts as feasible (extracted values are clamped to the box).
const FEAS_TOL: f64 = 1e-7;
/// Dual feasibility / pricing tolerance on reduced costs.
const COST_TOL: f64 = 1e-9;
/// Minimum magnitude of an acceptable pivot element.
const PIVOT_TOL: f64 = 1e-8;
/// Entries below this magnitude are dropped from stored eta vectors.
const DROP_TOL: f64 = 1e-11;
/// Update etas beyond the base factorization that trigger a
/// refactorization.
const REFACTOR_EVERY: usize = 64;
/// Iterations without progress in the phase measure before pricing falls
/// back to Bland's rule (and stays there until progress resumes).
const STALL_LIMIT: u32 = 32;
/// Devex weight magnitude that triggers a reference-framework reset (all
/// weights back to 1): past this the approximation has drifted too far from
/// the true steepest-edge norms to steer pricing.
const DEVEX_RESET: f64 = 1e9;
/// Fractional parts closer than this to an integer are not worth a Gomory
/// cut (the cut's violation is at most the fractionality).
const GOMORY_MIN_FRAC: f64 = 0.02;
/// A Gomory cut whose coefficient magnitudes span more than this ratio is
/// discarded as numerically fragile.
const GOMORY_MAX_DYNAMISM: f64 = 1e6;

/// A reusable simplex basis in compact form: the status of every column and
/// the basic set — everything needed to re-solve the *same rows* under
/// changed variable bounds with the dual simplex, at `O(columns + rows)`
/// bytes. There is no eta file: a warm start refactorizes the basic set,
/// which yields the same factor whatever solve produced the basis.
///
/// Produced by [`solve_lp_basis`] and [`resolve_with_basis`]; consumed by
/// [`resolve_with_basis`]. The basis is only valid for the exact constraint
/// matrix and objective it was stored under — an FNV content hash of both
/// guards against accidental reuse — or, through [`Basis::extended`], for
/// that matrix with rows appended.
#[derive(Debug, Clone)]
pub struct Basis {
    status: Vec<ColStatus>,
    /// Basic column of each row.
    basic: Vec<u32>,
    vars: usize,
    fingerprint: u64,
}

impl Basis {
    /// Number of constraint rows the basis covers.
    pub(crate) fn rows(&self) -> usize {
        self.basic.len()
    }

    /// Heap bytes the basis occupies: one status per column and one `u32`
    /// per basic column.
    pub(crate) fn bytes(&self) -> usize {
        self.status.len() * std::mem::size_of::<ColStatus>()
            + self.basic.len() * std::mem::size_of::<u32>()
    }

    /// This basis carried over to `matrix`, which must be the matrix the
    /// basis was stored under with rows appended at its end (the
    /// branch-and-bound solver only ever appends cut rows). Every appended
    /// row's slack joins the basis. The duals of the old rows and every
    /// reduced cost are unchanged, so the extension stays dual feasible,
    /// and a dual-simplex re-solve repairs whatever the new rows cut off.
    /// Returns `None` when `matrix` does not begin with the stored rows or
    /// the objective differs.
    pub fn extended(
        &self,
        matrix: &SparseModel,
        objective: &[f64],
        objective_constant: f64,
    ) -> Option<Basis> {
        let (rows, new_rows) = (self.rows(), matrix.num_rows());
        if self.vars != matrix.num_vars()
            || new_rows < rows
            || fold_instance(
                matrix.prefix_fingerprint(rows),
                objective,
                objective_constant,
            ) != self.fingerprint
        {
            return None;
        }
        let mut status = self.status.clone();
        status.resize(self.vars + new_rows, ColStatus::Basic);
        let mut basic = self.basic.clone();
        basic.extend((self.vars + rows..self.vars + new_rows).map(|c| c as u32));
        Some(Basis {
            status,
            basic,
            vars: self.vars,
            fingerprint: instance_fingerprint(matrix, objective, objective_constant),
        })
    }

    /// Whether the basis belongs to exactly this matrix and objective.
    fn fits(&self, matrix: &SparseModel, objective: &[f64], objective_constant: f64) -> bool {
        self.vars == matrix.num_vars()
            && self.rows() == matrix.num_rows()
            && self.fingerprint == instance_fingerprint(matrix, objective, objective_constant)
    }

    /// Factorizes the basis over its instance, or `None` when the instance
    /// does not match or the basis is numerically singular.
    pub(crate) fn factor(
        &self,
        matrix: &SparseModel,
        objective: &[f64],
        objective_constant: f64,
    ) -> Option<Factor<'_>> {
        if !self.fits(matrix, objective, objective_constant) {
            return None;
        }
        let basic: Vec<usize> = self.basic.iter().map(|&c| c as usize).collect();
        let mut w = vec![0.0; matrix.num_rows()];
        let factored = factorize(matrix, &basic, &mut w);
        #[cfg(test)]
        tests::audit_warm_factor(matrix, &basic, factored.as_ref());
        let (order, etas) = factored?;
        Some(Factor {
            basis: self,
            order,
            etas,
        })
    }
}

/// A stored [`Basis`] factorized over its instance: the row order and eta
/// file that [`Kernel::refactorize`] builds for its basic set. The factor
/// does not depend on any bounds, so warm kernels built from one factor
/// under different boxes compute the same bits as kernels that each
/// refactorize the basis themselves. A warm kernel borrows the factor's
/// eta file instead of copying it. The solver factors a node's basis once
/// and shares it between Gomory separation and every strong-branching
/// probe.
pub(crate) struct Factor<'b> {
    basis: &'b Basis,
    /// Basic column of each row.
    order: Vec<usize>,
    etas: EtaFile,
}

impl Factor<'_> {
    /// [`resolve_with_basis`] from this factor. Returns `None` when the
    /// factored basis does not belong to the instance.
    pub(crate) fn resolve(
        &self,
        matrix: &SparseModel,
        objective: &[f64],
        objective_constant: f64,
        domains: &Domains,
        max_pivots: u64,
    ) -> Option<(LpSolution, Option<Basis>)> {
        if self.basis.vars != domains.len()
            || !self.basis.fits(matrix, objective, objective_constant)
        {
            return None;
        }
        if domains.is_infeasible() {
            return Some((
                LpSolution::no_solution(LpStatus::Infeasible, Counters::default()),
                None,
            ));
        }
        let mut kernel = Kernel::warm(matrix, objective, objective_constant, domains, self);
        let mut pivots = 0u64;
        Some(match kernel.run_dual(max_pivots, &mut pivots) {
            Inner::Optimal => {
                let solution = kernel.extract();
                (solution, Some(kernel.into_basis()))
            }
            inner => (
                LpSolution::no_solution(inner.status(), kernel.counters),
                None,
            ),
        })
    }

    /// Reads Gomory mixed-integer cuts off the fractional rows of the
    /// factored optimal basis, returned in structural space as
    /// `(terms, rhs)` rows meaning `Σ terms·x ≤ rhs`.
    ///
    /// `domains` is the box the basis was solved under (the node box);
    /// `global` is the root box the cuts must stay valid over — pass the
    /// same reference twice when separating at the root — and says which
    /// structurals are integer-constrained. Rows whose basic variable
    /// is an integral structural with fractional value are scanned
    /// most-fractional first, and at most `max_cuts` cuts are returned. The
    /// basis must match the instance (same fingerprint discipline as
    /// [`resolve_with_basis`]); on any mismatch the result is empty rather
    /// than wrong.
    pub(crate) fn gomory_cuts(
        &self,
        matrix: &SparseModel,
        objective: &[f64],
        objective_constant: f64,
        domains: &Domains,
        global: &Domains,
        max_cuts: usize,
    ) -> Vec<(Vec<(usize, f64)>, f64)> {
        if max_cuts == 0
            || global.len() != domains.len()
            || self.basis.vars != domains.len()
            || !self.basis.fits(matrix, objective, objective_constant)
            || domains.is_infeasible()
        {
            return Vec::new();
        }
        let kernel = Kernel::warm(matrix, objective, objective_constant, domains, self);
        let mut candidates: Vec<(f64, usize)> = Vec::new();
        for r in 0..kernel.m {
            let b = kernel.basis[r];
            if b >= kernel.n || !global.is_integral(b) {
                continue;
            }
            let frac = kernel.x[b] - kernel.x[b].floor();
            if !(GOMORY_MIN_FRAC..=1.0 - GOMORY_MIN_FRAC).contains(&frac) {
                continue;
            }
            candidates.push(((frac - 0.5).abs(), r));
        }
        candidates.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));

        let mut cuts = Vec::new();
        let mut rho = vec![0.0f64; kernel.m];
        for &(_, r) in &candidates {
            if cuts.len() >= max_cuts {
                break;
            }
            if let Some(cut) = kernel.gomory_from_row(r, global, &mut rho) {
                cuts.push(cut);
            }
        }
        cuts
    }
}

/// Where a column currently sits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ColStatus {
    /// In the basis; its value is determined by the basic solve.
    Basic,
    /// Nonbasic at its lower bound.
    Lower,
    /// Nonbasic at its upper bound.
    Upper,
}

/// A product-form eta file in flat arrays. Eta `k` stands for the pivot
/// `B_new⁻¹ = E⁻¹ · B_old⁻¹`, where `E` is the identity except for column
/// `rows[k]`, which holds the FTRANed entering column `w`: `pivots[k]` is
/// `w[rows[k]]`, and the off-pivot nonzeros of `w` are the terms
/// `(term_rows[t], term_vals[t])` for `t` in `ends[k - 1]..ends[k]` (from 0
/// for the first eta). One file holds a whole factorization without an
/// allocation per eta.
#[derive(Debug, Clone, Default)]
struct EtaFile {
    rows: Vec<u32>,
    pivots: Vec<f64>,
    /// End of each eta's terms in `term_rows` / `term_vals`.
    ends: Vec<usize>,
    term_rows: Vec<u32>,
    term_vals: Vec<f64>,
}

impl EtaFile {
    fn len(&self) -> usize {
        self.rows.len()
    }

    fn clear(&mut self) {
        self.rows.clear();
        self.pivots.clear();
        self.ends.clear();
        self.term_rows.clear();
        self.term_vals.clear();
    }

    /// The off-pivot terms of eta `k`.
    #[inline]
    fn terms(&self, k: usize) -> (&[u32], &[f64]) {
        let start = if k == 0 { 0 } else { self.ends[k - 1] };
        let span = start..self.ends[k];
        (&self.term_rows[span.clone()], &self.term_vals[span])
    }

    /// Appends an off-pivot term to the eta being built.
    #[inline]
    fn push_term(&mut self, row: usize, value: f64) {
        self.term_rows.push(row as u32);
        self.term_vals.push(value);
    }

    /// Closes the eta being built over the terms pushed since the last one.
    /// An exact identity eta (unit pivot, no off-pivot term) is dropped:
    /// applying it would be a no-op, and skipping it keeps the
    /// factorization of a mostly-slack basis near-empty.
    fn finish(&mut self, row: usize, pivot: f64) {
        let start = self.ends.last().copied().unwrap_or(0);
        if pivot == 1.0 && self.term_rows.len() == start {
            return;
        }
        self.rows.push(row as u32);
        self.pivots.push(pivot);
        self.ends.push(self.term_rows.len());
    }

    /// Appends the eta of pivot `row` of the FTRANed column `w`, reading
    /// only the rows `rows` yields, which must be ascending and include
    /// every nonzero of `w`. Negligible entries are dropped.
    fn push(&mut self, row: usize, w: &[f64], rows: impl IntoIterator<Item = usize>) {
        for i in rows {
            let a = w[i];
            if i != row && a.abs() > DROP_TOL {
                self.push_term(i, a);
            }
        }
        self.finish(row, w[row]);
    }

    /// FTRAN over the whole file in place: applies every `E⁻¹` to `v`, in
    /// file order.
    fn ftran(&self, v: &mut [f64]) {
        self.ftran_reporting(v, |_| {});
    }

    /// [`EtaFile::ftran`], calling `written` on every row an eta term
    /// writes.
    #[inline]
    fn ftran_reporting(&self, v: &mut [f64], mut written: impl FnMut(usize)) {
        for (k, (&r, &pivot)) in self.rows.iter().zip(&self.pivots).enumerate() {
            let r = r as usize;
            if v[r] == 0.0 {
                continue;
            }
            let p = v[r] / pivot;
            v[r] = p;
            let (rows, vals) = self.terms(k);
            for (&i, &a) in rows.iter().zip(vals) {
                let i = i as usize;
                v[i] -= a * p;
                written(i);
            }
        }
    }

    /// BTRAN over the etas `etas` of the file in place: applies each
    /// `E⁻ᵀ` to `v`, last eta first.
    fn btran_over(&self, etas: Range<usize>, v: &mut [f64]) {
        for k in etas.rev() {
            let r = self.rows[k] as usize;
            let (rows, vals) = self.terms(k);
            let mut s = v[r];
            for (&i, &a) in rows.iter().zip(vals) {
                s -= a * v[i as usize];
            }
            v[r] = s / self.pivots[k];
        }
    }

    /// Two [`EtaFile::btran_over`] passes in one walk over the terms. Each
    /// accumulator sees exactly the operations of its own pass, so both
    /// results are bit-identical to two separate calls; the two serial dot
    /// products simply overlap in the pipeline.
    fn btran2_over(&self, etas: Range<usize>, u: &mut [f64], v: &mut [f64]) {
        for k in etas.rev() {
            let r = self.rows[k] as usize;
            let (rows, vals) = self.terms(k);
            let mut s = u[r];
            let mut t = v[r];
            for (&i, &a) in rows.iter().zip(vals) {
                let i = i as usize;
                s -= a * u[i];
                t -= a * v[i];
            }
            u[r] = s / self.pivots[k];
            v[r] = t / self.pivots[k];
        }
    }

    /// BTRAN over the whole file in place.
    fn btran(&self, v: &mut [f64]) {
        self.btran_over(0..self.len(), v);
    }

    /// Two BTRANs over the whole file in one pass.
    fn btran2(&self, u: &mut [f64], v: &mut [f64]) {
        self.btran2_over(0..self.len(), u, v);
    }
}

/// Calls `f` on the index of every set bit of `marks`, in ascending order.
#[inline]
fn for_each_marked(marks: &[u64], mut f: impl FnMut(usize)) {
    for (k, &word) in marks.iter().enumerate() {
        let mut word = word;
        while word != 0 {
            f(k * 64 + word.trailing_zeros() as usize);
            word &= word - 1;
        }
    }
}

/// The rows where `w` is nonzero, ascending, written to the front of `nz`
/// (which is at least as long as `w`) in one branch-free pass; returns
/// their count. The sparse update loops of an iteration walk this list
/// instead of all `m` rows: every row they skip holds a zero.
fn nonzero_rows(w: &[f64], nz: &mut [u32]) -> usize {
    let mut count = 0;
    for (i, &wi) in w.iter().enumerate() {
        nz[count] = i as u32;
        count += usize::from(wi != 0.0);
    }
    count
}

/// Content hash guarding [`Basis`] reuse: the matrix's cached row hash
/// (precomputed once at [`SparseModel`] construction — dimension/nonzero
/// counts alone would accept a rebuilt cut pool that swapped one row for
/// another of equal size) folded with the objective vector and constant.
/// The dual-feasibility invariant the warm path relies on depends on the
/// *costs* as much as the rows, so a basis built under one objective must
/// not re-solve under another. Per call this costs `O(n)`, not `O(nnz)`.
pub(crate) fn instance_fingerprint(
    matrix: &SparseModel,
    objective: &[f64],
    objective_constant: f64,
) -> u64 {
    fold_instance(matrix.fingerprint(), objective, objective_constant)
}

/// [`instance_fingerprint`] from a matrix hash.
fn fold_instance(matrix_hash: u64, objective: &[f64], objective_constant: f64) -> u64 {
    use crate::sparse::{fnv_fold, FNV_OFFSET};
    let mut h = FNV_OFFSET;
    fnv_fold(&mut h, matrix_hash);
    fnv_fold(&mut h, objective_constant.to_bits());
    for &c in objective {
        fnv_fold(&mut h, c.to_bits());
    }
    h
}

/// Basic columns in refactorization order: sparsest first, ties by column
/// index. The order depends on the basic set alone, not on its row order.
fn refactor_order(matrix: &SparseModel, basic: &[usize]) -> Vec<usize> {
    let n = matrix.num_vars();
    let mut keys: Vec<(usize, usize)> = basic
        .iter()
        .map(|&c| (if c < n { matrix.occurrences(c) } else { 1 }, c))
        .collect();
    // Columns are distinct, so the unstable sort is the stable order.
    keys.sort_unstable();
    keys.into_iter().map(|(_, c)| c).collect()
}

/// Gauss-Jordan factorization of the basic columns `basic` (structurals
/// below `num_vars`, slacks above) with partial pivoting, in
/// [`refactor_order`]. Returns the basic column of each row and the eta
/// file of the inverse, or `None` when the basis proves numerically
/// singular. `w` is an all-zero scratch vector of length `m`.
///
/// Each column is eliminated over the rows it has touched rather than over
/// all `m` rows, so a column whose FTRAN stays sparse costs time in its
/// nonzeros, not in `m`. The touched rows are a bitset, set without a
/// branch as the column is scattered and FTRANed; the pivot search and the
/// new eta's terms walk it in ascending row order. A single-entry column
/// on a row no earlier column pivoted on — a slack, most of all, and most
/// basic columns are slacks — meets no eta that could apply to it, so it
/// pivots on its own row without touching `w`. The arithmetic, the pivot
/// choice (largest magnitude, lowest row on ties) and the emitted etas are
/// bit for bit those of the dense elimination, which the unit tests keep
/// as the reference.
fn factorize(
    matrix: &SparseModel,
    basic: &[usize],
    w: &mut [f64],
) -> Option<(Vec<usize>, EtaFile)> {
    let (n, m) = (matrix.num_vars(), matrix.num_rows());
    let mut etas = EtaFile::default();
    let mut assigned = vec![false; m];
    let mut order = vec![usize::MAX; m];
    // Rows of `w` written while building the current column.
    let mut touched = vec![0u64; m.div_ceil(64)];
    for c in refactor_order(matrix, basic) {
        let slack_row;
        let (rows, vals) = if c < n {
            matrix.col(c)
        } else {
            slack_row = [(c - n) as u32];
            (&slack_row[..], &[1.0][..])
        };
        if let (&[r], &[a]) = (rows, vals) {
            let r = r as usize;
            // Etas only pivot on assigned rows, and only an eta pivoting
            // on `r` could apply to `a·e_r`.
            if !assigned[r] {
                if a.abs() <= PIVOT_TOL {
                    return None;
                }
                assigned[r] = true;
                order[r] = c;
                etas.finish(r, a);
                continue;
            }
        }
        for (&r, &a) in rows.iter().zip(vals) {
            let r = r as usize;
            w[r] = a;
            touched[r / 64] |= 1 << (r % 64);
        }
        etas.ftran_reporting(w, |i| touched[i / 64] |= 1 << (i % 64));
        let mut best = PIVOT_TOL;
        let mut row = usize::MAX;
        for_each_marked(&touched, |i| {
            if !assigned[i] && w[i].abs() > best {
                best = w[i].abs();
                row = i;
            }
        });
        if row == usize::MAX {
            return None;
        }
        assigned[row] = true;
        order[row] = c;
        let pivot = w[row];
        for_each_marked(&touched, |i| {
            let a = std::mem::replace(&mut w[i], 0.0);
            if i != row && a.abs() > DROP_TOL {
                etas.push_term(i, a);
            }
        });
        etas.finish(row, pivot);
        touched.fill(0);
    }
    Some((order, etas))
}

/// Inner loop outcome (richer than [`LpStatus`]: `Stalled` marks a
/// factorization failure the caller handles by restarting or giving up).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Inner {
    Optimal,
    Infeasible,
    Unbounded,
    IterationLimit,
    Stalled,
}

impl Inner {
    /// The reported status; a stall reports as an iteration limit.
    fn status(self) -> LpStatus {
        match self {
            Inner::Optimal => LpStatus::Optimal,
            Inner::Infeasible => LpStatus::Infeasible,
            Inner::Unbounded => LpStatus::Unbounded,
            Inner::IterationLimit | Inner::Stalled => LpStatus::IterationLimit,
        }
    }
}

/// The revised-simplex working state over one matrix + box.
struct Kernel<'a> {
    matrix: &'a SparseModel,
    objective: &'a [f64],
    objective_constant: f64,
    /// Structural columns (model variables).
    n: usize,
    /// Rows (= slack columns).
    m: usize,
    /// Total columns: `n + m`.
    ncols: usize,
    /// Per-column bounds; slack bounds encode the row sense.
    lower: Vec<f64>,
    upper: Vec<f64>,
    status: Vec<ColStatus>,
    /// Basic column of each row.
    basis: Vec<usize>,
    /// Current value of every column.
    x: Vec<f64>,
    /// The eta file of the last (re)factorization, borrowed from the
    /// [`Factor`] a warm start began from until the kernel refactorizes.
    base: Cow<'a, EtaFile>,
    /// The etas of the pivots since the base factorization; only these
    /// count towards the refactorization trigger (a product-form
    /// refactorization itself emits up to one eta per basic column). The
    /// basis inverse is the base file followed by this one: FTRAN walks
    /// the base first, BTRAN the updates first.
    updates: EtaFile,
    counters: Counters,
    /// Dense scratch vector (length `m`), threaded through FTRANs.
    scratch: Vec<f64>,
    /// Primal devex reference weights, one per column (meaningful for
    /// nonbasic columns). Reset to 1 with each new reference framework.
    weights: Vec<f64>,
    /// Dual devex reference weights, one per basis row.
    row_weights: Vec<f64>,
}

impl<'a> Kernel<'a> {
    /// Shared construction: bounds, costs and slack layout (state unset).
    fn shell(
        matrix: &'a SparseModel,
        objective: &'a [f64],
        objective_constant: f64,
        domains: &Domains,
    ) -> Self {
        let n = domains.len();
        debug_assert_eq!(objective.len(), n);
        debug_assert_eq!(matrix.num_vars(), n);
        let m = matrix.num_rows();
        let ncols = n + m;
        let mut lower = Vec::with_capacity(ncols);
        let mut upper = Vec::with_capacity(ncols);
        for j in 0..n {
            if let Some(v) = domains.fixed_value(j) {
                lower.push(v);
                upper.push(v);
            } else {
                lower.push(domains.lower(j));
                upper.push(domains.upper(j));
            }
        }
        for i in 0..m {
            // Row `Σ a·x + s = rhs`: the slack bounds encode the sense.
            match matrix.row(i).op {
                CmpOp::Le => {
                    lower.push(0.0);
                    upper.push(f64::INFINITY);
                }
                CmpOp::Ge => {
                    lower.push(f64::NEG_INFINITY);
                    upper.push(0.0);
                }
                CmpOp::Eq => {
                    lower.push(0.0);
                    upper.push(0.0);
                }
            }
        }
        Self {
            matrix,
            objective,
            objective_constant,
            n,
            m,
            ncols,
            lower,
            upper,
            status: vec![ColStatus::Lower; ncols],
            basis: Vec::new(),
            x: vec![0.0; ncols],
            base: Cow::default(),
            updates: EtaFile::default(),
            counters: Counters::default(),
            scratch: vec![0.0; m],
            weights: vec![1.0; ncols],
            row_weights: vec![1.0; m],
        }
    }

    /// Cold start: every structural nonbasic at a bound, slack basis
    /// (trivially factorized — the eta file is empty).
    fn cold(
        matrix: &'a SparseModel,
        objective: &'a [f64],
        objective_constant: f64,
        domains: &Domains,
    ) -> Self {
        let mut k = Self::shell(matrix, objective, objective_constant, domains);
        k.reset_to_slack_basis();
        k
    }

    /// Warm start from a factored basis: statuses and row order are
    /// restored, the factor's eta file becomes the (borrowed) base file,
    /// nonbasic values snap to the (possibly changed) bounds and the basic
    /// values are recomputed through the factorization. Devex weights start
    /// a fresh reference framework (all ones).
    fn warm(
        matrix: &'a SparseModel,
        objective: &'a [f64],
        objective_constant: f64,
        domains: &Domains,
        factor: &'a Factor,
    ) -> Self {
        let mut k = Self::shell(matrix, objective, objective_constant, domains);
        k.status.copy_from_slice(&factor.basis.status);
        k.basis.clone_from(&factor.order);
        k.base = Cow::Borrowed(&factor.etas);
        k.snap_nonbasics();
        k.compute_basics();
        k
    }

    /// Phase-2 cost of a column (structural objective, zero on slacks).
    #[inline]
    fn cost(&self, j: usize) -> f64 {
        if j < self.n {
            self.objective[j]
        } else {
            0.0
        }
    }

    /// Whether a column may never leave its bound (degenerate box).
    #[inline]
    fn is_fixed_col(&self, j: usize) -> bool {
        self.upper[j] - self.lower[j] <= 0.0
    }

    /// Dot product of column `j` with a dense row-space vector.
    #[inline]
    fn col_dot(&self, j: usize, y: &[f64]) -> f64 {
        if j < self.n {
            let (rows, vals) = self.matrix.col(j);
            rows.iter()
                .zip(vals)
                .map(|(&r, &a)| y[r as usize] * a)
                .sum()
        } else {
            y[j - self.n]
        }
    }

    /// Scatters column `j` into a dense vector (which must be zeroed).
    fn scatter_col(&self, j: usize, out: &mut [f64]) {
        if j < self.n {
            let (rows, vals) = self.matrix.col(j);
            for (&r, &a) in rows.iter().zip(vals) {
                out[r as usize] = a;
            }
        } else {
            out[j - self.n] = 1.0;
        }
    }

    /// FTRAN of column `j`: returns `B⁻¹·aⱼ` in the scratch vector
    /// (ownership is handed back so callers can keep borrowing `self`).
    fn ftran_col(&mut self, j: usize) -> Vec<f64> {
        let mut w = std::mem::take(&mut self.scratch);
        w.fill(0.0);
        self.scatter_col(j, &mut w);
        self.ftran(&mut w);
        w
    }

    /// FTRAN in place: `v ← B⁻¹·v`.
    fn ftran(&self, v: &mut [f64]) {
        self.base.ftran(v);
        self.updates.ftran(v);
    }

    /// BTRAN in place: `v ← B⁻ᵀ·v`.
    fn btran(&self, v: &mut [f64]) {
        self.updates.btran(v);
        self.base.btran(v);
    }

    /// Two BTRANs in one pass over each file.
    fn btran2(&self, u: &mut [f64], v: &mut [f64]) {
        self.updates.btran2(u, v);
        self.base.btran2(u, v);
    }

    /// Loads the basic costs priced by [`Kernel::run_phase`] into `y`
    /// (before its BTRAN): phase 1 charges each basic variable `±1` by the
    /// side of its box it violates, phase 2 its true cost.
    fn load_basic_costs(&self, phase1: bool, y: &mut [f64]) {
        for (slot, &b) in y.iter_mut().zip(&self.basis) {
            *slot = if phase1 {
                let v = self.x[b];
                if v < self.lower[b] - FEAS_TOL {
                    -1.0
                } else if v > self.upper[b] + FEAS_TOL {
                    1.0
                } else {
                    0.0
                }
            } else {
                self.cost(b)
            };
        }
    }

    /// Snaps every nonbasic column to the bound its status names.
    fn snap_nonbasics(&mut self) {
        for j in 0..self.ncols {
            match self.status[j] {
                ColStatus::Basic => {}
                ColStatus::Lower => {
                    self.x[j] = if self.lower[j].is_finite() {
                        self.lower[j]
                    } else {
                        0.0
                    }
                }
                ColStatus::Upper => {
                    self.x[j] = if self.upper[j].is_finite() {
                        self.upper[j]
                    } else {
                        0.0
                    }
                }
            }
        }
    }

    /// Recomputes every basic value from the nonbasic ones:
    /// `x_B = B⁻¹·(b − N·x_N)`.
    fn compute_basics(&mut self) {
        let mut t = std::mem::take(&mut self.scratch);
        for (i, slot) in t.iter_mut().enumerate() {
            *slot = self.matrix.row(i).rhs;
        }
        for j in 0..self.ncols {
            if self.status[j] == ColStatus::Basic || self.x[j] == 0.0 {
                continue;
            }
            let xj = self.x[j];
            if j < self.n {
                let (rows, vals) = self.matrix.col(j);
                for (&r, &a) in rows.iter().zip(vals) {
                    t[r as usize] -= a * xj;
                }
            } else {
                t[j - self.n] -= xj;
            }
        }
        self.ftran(&mut t);
        for (i, &v) in t.iter().enumerate() {
            self.x[self.basis[i]] = v;
        }
        self.scratch = t;
    }

    /// Resets to the all-slack basis (identity factorization) with every
    /// structural nonbasic at a bound — the cold start, also the recovery
    /// point after a failed refactorization.
    fn reset_to_slack_basis(&mut self) {
        self.base = Cow::default();
        self.updates.clear();
        self.weights.fill(1.0);
        self.row_weights.fill(1.0);
        self.basis = (self.n..self.ncols).collect();
        for j in 0..self.n {
            // Start each structural at the bound its objective coefficient
            // prefers (a dual-feasible-leaning crash), which shortens phase
            // 2 without affecting phase 1.
            self.status[j] = if self.objective[j] < 0.0 && self.upper[j].is_finite() {
                ColStatus::Upper
            } else {
                ColStatus::Lower
            };
        }
        for j in self.n..self.ncols {
            self.status[j] = ColStatus::Basic;
        }
        self.snap_nonbasics();
        self.compute_basics();
    }

    /// Collapses the eta file: re-factorizes the current basis from scratch
    /// ([`factorize`]). Returns `false` when the basis proves numerically
    /// singular, in which case the state is unchanged except for the
    /// cleared eta files and the caller must reset or abandon.
    fn refactorize(&mut self) -> bool {
        self.counters.refactorizations += 1;
        self.base = Cow::default();
        self.updates.clear();
        let mut w = std::mem::take(&mut self.scratch);
        w.fill(0.0);
        let factor = factorize(self.matrix, &self.basis, &mut w);
        self.scratch = w;
        let Some((order, etas)) = factor else {
            return false;
        };
        self.basis = order;
        self.base = Cow::Owned(etas);
        self.compute_basics();
        true
    }

    /// Current objective value of the (possibly infeasible) basic point.
    fn objective_now(&self) -> f64 {
        self.objective
            .iter()
            .zip(&self.x)
            .map(|(c, v)| c * v)
            .sum::<f64>()
    }

    /// Sum and maximum of bound violations over the basic variables.
    fn infeasibility(&self) -> (f64, f64) {
        let mut total = 0.0;
        let mut max = 0.0f64;
        for &b in &self.basis {
            let v = self.x[b];
            let violation = if v < self.lower[b] {
                self.lower[b] - v
            } else if v > self.upper[b] {
                v - self.upper[b]
            } else {
                0.0
            };
            total += violation;
            max = max.max(violation);
        }
        (total, max)
    }

    /// One primal phase: phase 1 minimises the sum of basic bound
    /// violations (composite costs recomputed every iteration), phase 2
    /// minimises the true objective over a feasible basis.
    fn run_phase(&mut self, phase1: bool, max_pivots: u64, pivots: &mut u64) -> Inner {
        let mut y = vec![0.0f64; self.m];
        // Pivot-row scratch for the devex weight update.
        let mut rho = vec![0.0f64; self.m];
        // Nonzero rows of the FTRANed entering column.
        let mut nz = vec![0u32; self.m];
        // Degeneracy guard: devex pricing switches to Bland's rule while
        // the phase measure (infeasibility sum in phase 1, objective in
        // phase 2) has made no progress for `STALL_LIMIT` iterations, and
        // back once it moves again. This keeps the anti-cycling cost
        // proportional to the stalled stretch instead of a huge fixed
        // iteration threshold.
        let mut last_measure = f64::INFINITY;
        let mut stall = 0u32;
        // Whether `y` already holds this iteration's duals: computed by the
        // previous iteration (fused with its devex ρ), or unchanged by its
        // phase-2 bound flip.
        let mut y_ready = false;
        loop {
            // The budget counter charges every iteration — bound flips
            // included. A flip skips only the eta push; it still pays the
            // full pricing pass (BTRAN + an O(nnz) reduced-cost scan) and
            // the FTRAN of the entering column, which dominate an
            // iteration's cost. Only the *reported* pivot counters
            // distinguish flips from basis changes.
            if *pivots >= max_pivots {
                return Inner::IterationLimit;
            }
            if self.updates.len() >= REFACTOR_EVERY {
                y_ready = false;
                if !self.refactorize() {
                    return Inner::Stalled;
                }
            }
            let measure = if phase1 {
                let (infeasibility_sum, infeasibility_max) = self.infeasibility();
                // The exit test must match the pricing below, which only
                // sees per-variable violations beyond `FEAS_TOL`: testing
                // the *sum* here would let several rounding-level
                // violations add up past the tolerance, price every
                // composite cost to zero and mislabel a feasible LP as
                // infeasible.
                if infeasibility_max <= FEAS_TOL {
                    return Inner::Optimal;
                }
                infeasibility_sum
            } else {
                self.objective_now()
            };
            if measure < last_measure - 1e-9 {
                stall = 0;
                last_measure = measure;
            } else {
                stall += 1;
            }
            // Price: y = B⁻ᵀ·c_B, then reduced costs over the nonbasics.
            if !y_ready {
                self.load_basic_costs(phase1, &mut y);
                self.btran(&mut y);
            }
            y_ready = false;
            let use_bland = stall >= STALL_LIMIT;
            let mut entering: Option<usize> = None;
            let mut best_score = 0.0f64;
            for j in 0..self.ncols {
                let status = self.status[j];
                if status == ColStatus::Basic || self.is_fixed_col(j) {
                    continue;
                }
                let c = if phase1 { 0.0 } else { self.cost(j) };
                let d = c - self.col_dot(j, &y);
                let violation = match status {
                    ColStatus::Lower => -d,
                    ColStatus::Upper => d,
                    ColStatus::Basic => unreachable!(),
                };
                if violation <= COST_TOL {
                    continue;
                }
                if use_bland {
                    entering = Some(j);
                    break;
                }
                // Reference-framework devex: the largest rate of objective
                // change per unit of (approximate) edge length, instead of
                // the raw reduced cost.
                let score = violation * violation / self.weights[j];
                if score > best_score {
                    best_score = score;
                    entering = Some(j);
                }
            }
            let Some(q) = entering else {
                // No improving direction left. In phase 1 this means the
                // residual infeasibility is irreducible: the LP is
                // infeasible. In phase 2 the basis is optimal.
                return if phase1 {
                    Inner::Infeasible
                } else {
                    Inner::Optimal
                };
            };
            let dir = if self.status[q] == ColStatus::Lower {
                1.0
            } else {
                -1.0
            };
            let w = self.ftran_col(q);
            let nonzeros = nonzero_rows(&w, &mut nz);
            let nz = &nz[..nonzeros];

            // Ratio test. The entering variable moves `t ≥ 0` along `dir`;
            // basic `i` changes by `−dir·w[i]·t`. A feasible basic blocks at
            // the bound it approaches; an infeasible one (phase 1) blocks
            // when it *reaches* the violated bound it is moving towards, and
            // never blocks when moving further away (that slope is already
            // priced into the composite costs).
            let mut t_best = self.upper[q] - self.lower[q];
            let mut leave: Option<usize> = None;
            let mut leave_to = 0.0f64;
            let mut best_piv = 0.0f64;
            for &i in nz {
                let i = i as usize;
                let wi = w[i];
                // Same pivot-magnitude guard as the dual ratio test: a
                // blocking row with a near-zero entry would put that entry
                // on the diagonal of an eta and amplify rounding error by
                // its reciprocal.
                if wi.abs() <= PIVOT_TOL {
                    continue;
                }
                let delta = dir * wi;
                let b = self.basis[i];
                let xb = self.x[b];
                let (limit, target) = if delta > 0.0 {
                    // Basic decreases.
                    if xb < self.lower[b] - FEAS_TOL {
                        continue;
                    }
                    let tgt = if xb > self.upper[b] + FEAS_TOL {
                        self.upper[b]
                    } else {
                        self.lower[b]
                    };
                    if !tgt.is_finite() {
                        continue;
                    }
                    (((xb - tgt) / delta).max(0.0), tgt)
                } else {
                    // Basic increases.
                    if xb > self.upper[b] + FEAS_TOL {
                        continue;
                    }
                    let tgt = if xb < self.lower[b] - FEAS_TOL {
                        self.lower[b]
                    } else {
                        self.upper[b]
                    };
                    if !tgt.is_finite() {
                        continue;
                    }
                    (((tgt - xb) / -delta).max(0.0), tgt)
                };
                let replace = if limit < t_best - 1e-12 {
                    true
                } else if limit <= t_best + 1e-12 {
                    match leave {
                        None => limit < t_best,
                        Some(l) => {
                            if use_bland {
                                self.basis[i] < self.basis[l]
                            } else {
                                wi.abs() > best_piv
                            }
                        }
                    }
                } else {
                    false
                };
                if replace {
                    t_best = limit;
                    leave = Some(i);
                    leave_to = target;
                    best_piv = wi.abs();
                }
            }

            if t_best.is_infinite() {
                self.scratch = w;
                // Unbounded descent. In phase 1 the infeasibility sum is
                // bounded below by zero, so an unblocked ray can only be
                // numerical noise — treat it as a stall.
                return if phase1 {
                    Inner::Stalled
                } else {
                    Inner::Unbounded
                };
            }

            *pivots += 1;
            let t = t_best;
            match leave {
                None => {
                    self.counters.flips += 1;
                    // Bound flip: the entering column crosses its box and
                    // settles on the opposite bound; the basis is unchanged.
                    for &i in nz {
                        let i = i as usize;
                        self.x[self.basis[i]] -= dir * t * w[i];
                    }
                    if dir > 0.0 {
                        self.x[q] = self.upper[q];
                        self.status[q] = ColStatus::Upper;
                    } else {
                        self.x[q] = self.lower[q];
                        self.status[q] = ColStatus::Lower;
                    }
                    // Phase-2 costs do not depend on `x`, and the basis is
                    // unchanged, so the duals carry over.
                    y_ready = !phase1;
                }
                Some(r) => {
                    self.counters.primal += 1;
                    self.counters.bland += u64::from(use_bland);
                    for &i in nz {
                        let i = i as usize;
                        self.x[self.basis[i]] -= dir * t * w[i];
                    }
                    let leaving = self.basis[r];
                    self.x[q] += dir * t;
                    self.x[leaving] = leave_to;
                    self.status[leaving] = if leave_to == self.lower[leaving] {
                        ColStatus::Lower
                    } else {
                        ColStatus::Upper
                    };
                    self.status[q] = ColStatus::Basic;
                    let old_file = self.updates.len();
                    self.updates.push(r, &w, nz.iter().map(|&i| i as usize));
                    self.basis[r] = q;
                    if !use_bland {
                        // Reference-framework update (Forrest–Goldfarb):
                        // the pivot row ρ of the *old* basis (the eta files
                        // before this pivot's eta) rescales every nonbasic
                        // weight, the leaving column inherits the entering
                        // one's weight through the pivot element. Unless
                        // the next iteration refactorizes, its duals share
                        // ρ's pass: the new basis' BTRAN is this pivot's
                        // eta followed by the old files.
                        let alpha_rq = w[r];
                        let gamma_q = self.weights[q].max(1.0);
                        rho.fill(0.0);
                        rho[r] = 1.0;
                        let new_file = self.updates.len();
                        if new_file < REFACTOR_EVERY {
                            self.load_basic_costs(phase1, &mut y);
                            self.updates.btran_over(old_file..new_file, &mut y);
                            self.updates.btran2_over(0..old_file, &mut rho, &mut y);
                            self.base.btran2(&mut rho, &mut y);
                            y_ready = true;
                        } else {
                            self.updates.btran_over(0..old_file, &mut rho);
                            self.base.btran(&mut rho);
                        }
                        let mut peak = 1.0f64;
                        for j in 0..self.ncols {
                            // `q` is basic by now and `leaving` no longer
                            // is; the update ranges over the old nonbasics.
                            if j == leaving
                                || self.status[j] == ColStatus::Basic
                                || self.is_fixed_col(j)
                            {
                                continue;
                            }
                            let alpha_rj = self.col_dot(j, &rho);
                            if alpha_rj == 0.0 {
                                continue;
                            }
                            let ratio = alpha_rj / alpha_rq;
                            let candidate = ratio * ratio * gamma_q;
                            if candidate > self.weights[j] {
                                self.weights[j] = candidate;
                                peak = peak.max(candidate);
                            }
                        }
                        let leaving_weight = (gamma_q / (alpha_rq * alpha_rq)).max(1.0);
                        self.weights[leaving] = leaving_weight;
                        peak = peak.max(leaving_weight);
                        if peak > DEVEX_RESET {
                            self.weights.fill(1.0);
                        }
                    }
                }
            }
            self.scratch = w;
        }
    }

    /// Cold two-phase primal solve, with a bounded restart from the slack
    /// basis if a refactorization ever fails.
    fn solve_two_phase(&mut self, max_pivots: u64, pivots: &mut u64) -> Inner {
        let mut restarts = 0u32;
        loop {
            match self.run_phase(true, max_pivots, pivots) {
                Inner::Optimal => {}
                Inner::Stalled if restarts < 2 => {
                    restarts += 1;
                    self.reset_to_slack_basis();
                    continue;
                }
                other => return other,
            }
            match self.run_phase(false, max_pivots, pivots) {
                Inner::Stalled if restarts < 2 => {
                    restarts += 1;
                    self.reset_to_slack_basis();
                    continue;
                }
                other => return other,
            }
        }
    }

    /// Bounded dual simplex: from a dual-feasible basis, drives the primal
    /// bound violations of the basic variables away. Used by the warm path
    /// after a child node changed variable bounds.
    fn run_dual(&mut self, max_pivots: u64, pivots: &mut u64) -> Inner {
        let mut rho = vec![0.0f64; self.m];
        let mut y = vec![0.0f64; self.m];
        // Nonzero rows of the FTRANed entering column.
        let mut nz = vec![0u32; self.m];
        let mut stalls = 0u32;
        // Degeneracy guard, mirroring `run_phase`: the dual objective (the
        // basic point's primal objective value) is non-decreasing along
        // dual pivots; a stretch without movement switches the leaving/
        // entering choices to Bland's rule until progress resumes.
        let mut last_measure = f64::INFINITY;
        let mut stall = 0u32;
        loop {
            // As in `run_phase`, the budget charges every iteration, flips
            // included — a dual iteration's cost is dominated by the
            // leaving/entering pricing (two BTRANs + an O(nnz) scan), which
            // a dual bound flip pays in full.
            if *pivots >= max_pivots {
                return Inner::IterationLimit;
            }
            if self.updates.len() >= REFACTOR_EVERY && !self.refactorize() {
                return Inner::Stalled;
            }
            let measure = -self.objective_now();
            if measure < last_measure - 1e-9 {
                stall = 0;
                last_measure = measure;
            } else {
                stall += 1;
            }
            let use_bland = stall >= STALL_LIMIT;
            // Leaving row: the basic variable with the largest
            // devex-weighted bound violation (the first violating row under
            // Bland).
            let mut leaving: Option<usize> = None;
            let mut worst_score = 0.0f64;
            for i in 0..self.m {
                let b = self.basis[i];
                let v = self.x[b];
                let violation = if v < self.lower[b] {
                    self.lower[b] - v
                } else if v > self.upper[b] {
                    v - self.upper[b]
                } else {
                    0.0
                };
                if violation <= FEAS_TOL {
                    continue;
                }
                if use_bland {
                    leaving = Some(i);
                    break;
                }
                let score = violation * violation / self.row_weights[i];
                if score > worst_score {
                    worst_score = score;
                    leaving = Some(i);
                }
            }
            let Some(r) = leaving else {
                // Primal feasible and (by invariant) dual feasible: optimal.
                return Inner::Optimal;
            };
            let b_r = self.basis[r];
            let to_lower = self.x[b_r] < self.lower[b_r];
            let target = if to_lower {
                self.lower[b_r]
            } else {
                self.upper[b_r]
            };

            // ρ = B⁻ᵀ·e_r gives the pivot row; y = B⁻ᵀ·c_B the duals. Both
            // BTRANs share one pass over each eta file.
            rho.fill(0.0);
            rho[r] = 1.0;
            self.load_basic_costs(false, &mut y);
            self.btran2(&mut rho, &mut y);

            // Dual ratio test: among nonbasic columns whose movement pushes
            // `x_B[r]` towards its violated bound, the smallest
            // |reduced cost| / |α| keeps every other reduced cost
            // dual-feasible after the pivot.
            let mut entering: Option<(usize, f64)> = None;
            let mut best_ratio = f64::INFINITY;
            let mut best_alpha = 0.0f64;
            for j in 0..self.ncols {
                let status = self.status[j];
                if status == ColStatus::Basic || self.is_fixed_col(j) {
                    continue;
                }
                let alpha = self.col_dot(j, &rho);
                if alpha.abs() <= PIVOT_TOL {
                    continue;
                }
                let dirj = if status == ColStatus::Lower {
                    1.0
                } else {
                    -1.0
                };
                // x_B[r] changes by −dirj·α per unit step of the entering
                // variable; it must move towards `target`.
                let movement = -dirj * alpha;
                if to_lower {
                    if movement <= 0.0 {
                        continue;
                    }
                } else if movement >= 0.0 {
                    continue;
                }
                let d = self.cost(j) - self.col_dot(j, &y);
                let dmag = match status {
                    ColStatus::Lower => d.max(0.0),
                    ColStatus::Upper => (-d).max(0.0),
                    ColStatus::Basic => unreachable!(),
                };
                let ratio = dmag / alpha.abs();
                // Bland mode keeps the min-ratio requirement (it guards
                // dual feasibility) but freezes ties on the first index
                // instead of the largest pivot.
                let replace = if ratio < best_ratio - 1e-12 {
                    true
                } else if use_bland {
                    false
                } else {
                    ratio <= best_ratio + 1e-12 && alpha.abs() > best_alpha
                };
                if replace {
                    best_ratio = ratio;
                    best_alpha = alpha.abs();
                    entering = Some((j, dirj));
                }
            }
            let Some((q, dirj)) = entering else {
                // The violated row admits no compensating column: the LP is
                // primal infeasible.
                return Inner::Infeasible;
            };

            let w = self.ftran_col(q);
            let alpha = w[r];
            if alpha.abs() <= PIVOT_TOL {
                // The FTRANed pivot disagrees with the priced one —
                // numerical drift. Refactorize and retry a bounded number
                // of times.
                self.scratch = w;
                stalls += 1;
                if stalls > 3 || !self.refactorize() {
                    return Inner::Stalled;
                }
                continue;
            }
            let t = ((self.x[b_r] - target) / (dirj * alpha)).max(0.0);
            let nonzeros = nonzero_rows(&w, &mut nz);
            let nz = &nz[..nonzeros];

            *pivots += 1;
            let range = self.upper[q] - self.lower[q];
            if t > range + 1e-12 && range.is_finite() {
                self.counters.flips += 1;
                // Dual bound flip: the pivot would push the entering
                // variable past its opposite bound, so flip it across the
                // box instead and keep looking; the leaving row stays
                // infeasible (but strictly less so).
                for &i in nz {
                    let i = i as usize;
                    self.x[self.basis[i]] -= dirj * range * w[i];
                }
                self.x[q] = if dirj > 0.0 {
                    self.upper[q]
                } else {
                    self.lower[q]
                };
                self.status[q] = if dirj > 0.0 {
                    ColStatus::Upper
                } else {
                    ColStatus::Lower
                };
                self.scratch = w;
                continue;
            }

            self.counters.dual += 1;
            self.counters.bland += u64::from(use_bland);
            if !use_bland {
                // Dual devex update off the FTRANed entering column (free —
                // it is already in hand): every row the pivot touches
                // inherits a rescaled weight through the pivot element.
                let gamma_r = self.row_weights[r].max(1.0);
                let mut peak = 1.0f64;
                for &i in nz {
                    let i = i as usize;
                    if i == r {
                        continue;
                    }
                    let ratio = w[i] / alpha;
                    let candidate = ratio * ratio * gamma_r;
                    if candidate > self.row_weights[i] {
                        self.row_weights[i] = candidate;
                        peak = peak.max(candidate);
                    }
                }
                let pivot_weight = (gamma_r / (alpha * alpha)).max(1.0);
                self.row_weights[r] = pivot_weight;
                peak = peak.max(pivot_weight);
                if peak > DEVEX_RESET {
                    self.row_weights.fill(1.0);
                }
            }
            for &i in nz {
                let i = i as usize;
                self.x[self.basis[i]] -= dirj * t * w[i];
            }
            self.x[q] += dirj * t;
            self.x[b_r] = target;
            self.status[b_r] = if to_lower {
                ColStatus::Lower
            } else {
                ColStatus::Upper
            };
            self.status[q] = ColStatus::Basic;
            self.updates.push(r, &w, nz.iter().map(|&i| i as usize));
            self.basis[r] = q;
            self.scratch = w;
        }
    }

    /// Extracts the optimal solution, reduced costs included, from the
    /// current state.
    fn extract(&mut self) -> LpSolution {
        let mut values = Vec::with_capacity(self.n);
        for j in 0..self.n {
            let v = if self.lower[j] <= self.upper[j] {
                self.x[j].max(self.lower[j]).min(self.upper[j])
            } else {
                self.x[j]
            };
            values.push(v);
        }
        let objective = self.objective_constant
            + self
                .objective
                .iter()
                .zip(&values)
                .map(|(c, v)| c * v)
                .sum::<f64>();
        let reduced_costs = Some(self.reduced_costs());
        LpSolution {
            status: LpStatus::Optimal,
            objective,
            values,
            pivots: self.counters.primal + self.counters.dual,
            primal_pivots: self.counters.primal,
            dual_pivots: self.counters.dual,
            bound_flips: self.counters.flips,
            refactorizations: self.counters.refactorizations,
            bland_pivots: self.counters.bland,
            reduced_costs,
        }
    }

    /// Reduced costs of the structural columns at optimality, split into
    /// per-variable up/down marginal costs by nonbasic status.
    fn reduced_costs(&mut self) -> ReducedCosts {
        let mut y = std::mem::take(&mut self.scratch);
        self.load_basic_costs(false, &mut y);
        self.btran(&mut y);
        let mut up = vec![0.0f64; self.n];
        let mut down = vec![0.0f64; self.n];
        for j in 0..self.n {
            if self.upper[j] - self.lower[j] <= EPS {
                continue;
            }
            match self.status[j] {
                ColStatus::Basic => {}
                ColStatus::Lower => {
                    up[j] = (self.cost(j) - self.col_dot(j, &y)).max(0.0);
                }
                ColStatus::Upper => {
                    down[j] = (self.col_dot(j, &y) - self.cost(j)).max(0.0);
                }
            }
        }
        self.scratch = y;
        ReducedCosts { up, down }
    }

    /// Packages the current basis, compactly, for reuse by descendants.
    fn into_basis(self) -> Basis {
        let fingerprint =
            instance_fingerprint(self.matrix, self.objective, self.objective_constant);
        Basis {
            status: self.status,
            basic: self.basis.iter().map(|&c| c as u32).collect(),
            vars: self.n,
            fingerprint,
        }
    }
}

/// Solves the LP `minimise Σ objective[j]·x[j] + objective_constant` subject
/// to the rows of `matrix` and the variable box described by `domains`, cold
/// from the slack basis. At optimality it returns the optimal [`Basis`], so
/// descendant nodes can re-solve from it with the dual simplex
/// ([`resolve_with_basis`]), and the solution reports [`ReducedCosts`].
///
/// `matrix` must reference variable indices smaller than `domains.len()`.
/// Integrality of the domains is ignored (this is the relaxation).
pub fn solve_lp_basis(
    matrix: &SparseModel,
    objective: &[f64],
    objective_constant: f64,
    domains: &Domains,
    max_pivots: u64,
) -> (LpSolution, Option<Basis>) {
    if domains.is_infeasible() {
        return (
            LpSolution::no_solution(LpStatus::Infeasible, Counters::default()),
            None,
        );
    }
    let mut kernel = Kernel::cold(matrix, objective, objective_constant, domains);
    let mut pivots = 0u64;
    match kernel.solve_two_phase(max_pivots, &mut pivots) {
        Inner::Optimal => {
            let solution = kernel.extract();
            (solution, Some(kernel.into_basis()))
        }
        inner => (
            LpSolution::no_solution(inner.status(), kernel.counters),
            None,
        ),
    }
}

/// Re-solves the LP of `matrix` under the changed bounds of `domains` with
/// the **bounded dual simplex**, starting from a stored optimal [`Basis`].
///
/// Because bounds are implicit (never rows), *any* bound change — tightened
/// or relaxed — leaves the stored basis dual feasible; the reuse
/// preconditions are that the matrix *and the objective* are exactly the
/// ones the basis was stored under (dual feasibility is a statement about
/// the costs); a basis stored before rows were appended must be carried
/// over with [`Basis::extended`] first. The warm start refactorizes the basis,
/// which [`LpSolution::refactorizations`] counts. Returns `None` when the
/// fingerprint disagrees or the basis proves singular, in which case the
/// caller should fall back to a cold solve. Otherwise returns the solution
/// and, at optimality, the re-solved basis for further descendants. The
/// dual devex row weights start a fresh reference framework per re-solve.
pub fn resolve_with_basis(
    matrix: &SparseModel,
    objective: &[f64],
    objective_constant: f64,
    basis: &Basis,
    domains: &Domains,
    max_pivots: u64,
) -> Option<(LpSolution, Option<Basis>)> {
    let factor = basis.factor(matrix, objective, objective_constant)?;
    let (mut solution, next) =
        factor.resolve(matrix, objective, objective_constant, domains, max_pivots)?;
    solution.refactorizations += 1;
    Some((solution, next))
}

/// One term of a Gomory row scan: nonbasic column, its shifted tableau
/// coefficient, the global bound it was shifted to, whether the shift runs
/// down from the upper bound, and whether the shifted variable is integral.
struct GomoryTerm {
    col: usize,
    shifted: f64,
    bound: f64,
    from_upper: bool,
    integral: bool,
}

impl Kernel<'_> {
    /// Derives the Gomory mixed-integer cut of tableau row `r`, returned in
    /// structural space as `Σ coeff·x ≤ rhs`, or `None` if the row yields
    /// no usable cut (integral shifted constant, unbounded shift, noise-only
    /// coefficients, or excessive dynamism).
    ///
    /// The derivation works on the shifted row `x_b + Σ α'_j·t_j = β'`
    /// where every nonbasic is re-expressed as a distance `t_j ≥ 0` from a
    /// **globally valid** bound (`global`, the root box — not the node box
    /// this kernel was solved under). Shifting to root bounds keeps the cut
    /// valid for the whole tree, so node-separated Gomory cuts can enter
    /// the shared pool: variables fixed by branching simply carry a nonzero
    /// shifted value `t_j` instead of zero, which only moves `β'`. With
    /// `f0 = frac(β')`, the mixed-integer Gomory inequality is
    /// `Σ g(α'_j)·t_j ≥ f0`, where integral terms take
    /// `g = f_j` if `f_j ≤ f0` else `f0·(1−f_j)/(1−f0)` (with
    /// `f_j = frac(α'_j)`) and continuous terms (slacks included) take
    /// `g = α'` if `α' > 0` else `f0·(−α')/(1−f0)`. Un-shifting through the
    /// bounds and the slack definitions turns it into a `≤` row over the
    /// structural variables.
    fn gomory_from_row(
        &self,
        r: usize,
        global: &Domains,
        rho: &mut [f64],
    ) -> Option<(Vec<(usize, f64)>, f64)> {
        let b = self.basis[r];
        rho.fill(0.0);
        rho[r] = 1.0;
        self.btran(rho);

        // Pass 1: shifted coefficients and the shifted row constant β'.
        let mut terms: Vec<GomoryTerm> = Vec::new();
        let mut beta = self.x[b];
        for j in 0..self.ncols {
            if self.status[j] == ColStatus::Basic {
                continue;
            }
            let alpha = self.col_dot(j, rho);
            if alpha.abs() <= DROP_TOL {
                continue;
            }
            let from_upper = self.status[j] == ColStatus::Upper;
            // Shift to the *root* bound on the status side; slack bounds
            // come from the row sense and never tighten per node.
            let bound = if j < self.n {
                if from_upper {
                    global.upper(j)
                } else {
                    global.lower(j)
                }
            } else if from_upper {
                self.upper[j]
            } else {
                self.lower[j]
            };
            if !bound.is_finite() {
                return None;
            }
            let shifted = if from_upper { -alpha } else { alpha };
            // t_j at the current point (nonzero when branching moved the
            // node bound off the root bound); folds into β'.
            let t_now = if from_upper {
                bound - self.x[j]
            } else {
                self.x[j] - bound
            };
            beta += shifted * t_now;
            let int_term =
                j < self.n && global.is_integral(j) && (bound - bound.round()).abs() <= FEAS_TOL;
            terms.push(GomoryTerm {
                col: j,
                shifted,
                bound,
                from_upper,
                integral: int_term,
            });
        }
        let f0 = beta - beta.floor();
        if !(GOMORY_MIN_FRAC..=1.0 - GOMORY_MIN_FRAC).contains(&f0) {
            return None;
        }

        // Pass 2: GMI coefficients, un-shifted into `Σ coeff·x ≥ rhs_ge`.
        let mut coeff = vec![0.0f64; self.n];
        let mut rhs_ge = f0;
        for term in &terms {
            let g = if term.integral {
                let fj = term.shifted - term.shifted.floor();
                if fj <= f0 {
                    fj
                } else {
                    f0 * (1.0 - fj) / (1.0 - f0)
                }
            } else if term.shifted > 0.0 {
                term.shifted
            } else {
                f0 * (-term.shifted) / (1.0 - f0)
            };
            if g == 0.0 {
                continue;
            }
            if term.col < self.n {
                // t = x − l or u − x.
                if term.from_upper {
                    coeff[term.col] -= g;
                    rhs_ge -= g * term.bound;
                } else {
                    coeff[term.col] += g;
                    rhs_ge += g * term.bound;
                }
            } else {
                // Le slack at lower 0: t = rhs_i − a·x; Ge slack at upper
                // 0: t = a·x − rhs_i.
                let row = self.matrix.row(term.col - self.n);
                let sign = if term.from_upper { 1.0 } else { -1.0 };
                for (col, a) in row.terms() {
                    coeff[col] += sign * g * a;
                }
                rhs_ge += sign * g * row.rhs;
            }
        }

        // Flip to the pool's `≤` orientation; noise terms are dropped by
        // relaxing the rhs with their worst-case contribution over the root
        // box, so validity is preserved exactly.
        let mut cut: Vec<(usize, f64)> = Vec::new();
        let mut rhs_le = -rhs_ge;
        let mut max_abs = 0.0f64;
        let mut min_abs = f64::INFINITY;
        for (j, &c) in coeff.iter().enumerate() {
            let v = -c;
            if v == 0.0 {
                continue;
            }
            if v.abs() <= 1e-9 {
                let worst = (v * global.lower(j)).min(v * global.upper(j));
                if !worst.is_finite() {
                    return None;
                }
                rhs_le -= worst;
                continue;
            }
            max_abs = max_abs.max(v.abs());
            min_abs = min_abs.min(v.abs());
            cut.push((j, v));
        }
        if cut.is_empty() || max_abs / min_abs > GOMORY_MAX_DYNAMISM {
            return None;
        }
        // A hair of slack absorbs accumulated float error: a Gomory cut
        // must never shave the integer optimum by a rounding artifact.
        rhs_le += 1e-7 * (1.0 + rhs_le.abs());
        Some((cut, rhs_le))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Model, Sense};

    fn relax(model: &Model) -> (SparseModel, Vec<f64>, f64, Domains) {
        let objective: Vec<f64> = model.vars().iter().map(|v| v.objective).collect();
        let constant = model.objective().offset();
        (
            SparseModel::from_model(model),
            objective,
            constant,
            Domains::from_model(model),
        )
    }

    /// [`relax`] over the continuous box `bounds` instead of the model's
    /// binary one.
    fn relax_in(model: &Model, bounds: &[(f64, f64)]) -> (SparseModel, Vec<f64>, f64, Domains) {
        let (rows, obj, k, _) = relax(model);
        let continuous: Vec<_> = bounds.iter().map(|&(lo, hi)| (lo, hi, false)).collect();
        (rows, obj, k, Domains::from_bounds(&continuous))
    }

    #[test]
    fn simple_minimisation() {
        // min x + y  s.t.  x + y >= 1,  0 <= x,y <= 1   => objective 1
        let mut m = Model::new("m");
        let x = m.add_binary("x");
        let y = m.add_binary("y");
        m.add_geq([(x, 1.0), (y, 1.0)], 1.0, "c");
        m.set_objective([(x, 1.0), (y, 1.0)], Sense::Minimize);
        let (rows, obj, k, dom) = relax_in(&m, &[(0.0, 1.0); 2]);
        let (sol, _) = solve_lp_basis(&rows, &obj, k, &dom, 10_000);
        assert_eq!(sol.status, LpStatus::Optimal);
        assert!((sol.objective - 1.0).abs() < 1e-6);
    }

    #[test]
    fn maximisation_via_negated_costs() {
        // max 3x + 2y  s.t. x + y <= 4, x <= 2, y <= 3  (x,y >= 0)
        // optimum x=2, y=2 -> 10; we solve min of the negation.
        let mut m = Model::new("m");
        let x = m.add_binary("x");
        let y = m.add_binary("y");
        m.add_leq([(x, 1.0), (y, 1.0)], 4.0, "cap");
        m.set_objective([(x, -3.0), (y, -2.0)], Sense::Minimize);
        let (rows, obj, k, dom) = relax_in(&m, &[(0.0, 2.0), (0.0, 3.0)]);
        let (sol, _) = solve_lp_basis(&rows, &obj, k, &dom, 10_000);
        assert_eq!(sol.status, LpStatus::Optimal);
        assert!(
            (sol.objective + 10.0).abs() < 1e-6,
            "objective {}",
            sol.objective
        );
        assert!((sol.values[x.index()] - 2.0).abs() < 1e-6);
        assert!((sol.values[y.index()] - 2.0).abs() < 1e-6);
    }

    #[test]
    fn equality_constraints() {
        // min 2x + 3y  s.t.  x + y = 5, x <= 3, y <= 4
        // optimum x=3, y=2 -> 12
        let mut m = Model::new("m");
        let x = m.add_binary("x");
        let y = m.add_binary("y");
        m.add_eq([(x, 1.0), (y, 1.0)], 5.0, "sum");
        m.set_objective([(x, 2.0), (y, 3.0)], Sense::Minimize);
        let (rows, obj, k, dom) = relax_in(&m, &[(0.0, 3.0), (0.0, 4.0)]);
        let (sol, _) = solve_lp_basis(&rows, &obj, k, &dom, 10_000);
        assert_eq!(sol.status, LpStatus::Optimal);
        assert!((sol.objective - 12.0).abs() < 1e-6);
    }

    #[test]
    fn infeasible_lp() {
        // x >= 2 with x <= 1 is infeasible.
        let mut m = Model::new("m");
        let x = m.add_binary("x");
        m.add_geq([(x, 1.0)], 2.0, "c");
        m.set_objective([(x, 1.0)], Sense::Minimize);
        let (rows, obj, k, dom) = relax_in(&m, &[(0.0, 1.0)]);
        let (sol, _) = solve_lp_basis(&rows, &obj, k, &dom, 10_000);
        assert_eq!(sol.status, LpStatus::Infeasible);
    }

    #[test]
    fn fixed_variables_stay_at_their_value() {
        // min x + y s.t. x + y >= 3 with y fixed at 2 => x = 1.
        let mut m = Model::new("m");
        let x = m.add_binary("x");
        let y = m.add_binary("y");
        m.add_geq([(x, 1.0), (y, 1.0)], 3.0, "c");
        m.set_objective([(x, 1.0), (y, 1.0)], Sense::Minimize);
        let (rows, obj, k, mut dom) = relax_in(&m, &[(0.0, 5.0); 2]);
        dom.fix(y.index(), 2.0);
        let (sol, _) = solve_lp_basis(&rows, &obj, k, &dom, 10_000);
        assert_eq!(sol.status, LpStatus::Optimal);
        assert!((sol.values[x.index()] - 1.0).abs() < 1e-6);
        assert!((sol.values[y.index()] - 2.0).abs() < 1e-6);
        assert!((sol.objective - 3.0).abs() < 1e-6);
    }

    #[test]
    fn relaxation_of_binary_knapsack_is_fractional() {
        // max 6a + 5b + 4c st 3a + 2b + 2c <= 4 (binaries). We simply assert
        // the relaxation is at least as good as the best integral solution
        // (b + c = 9) and the solve succeeds.
        let mut m = Model::new("m");
        let a = m.add_binary("a");
        let b = m.add_binary("b");
        let c = m.add_binary("c");
        m.add_leq([(a, 3.0), (b, 2.0), (c, 2.0)], 4.0, "cap");
        m.set_objective([(a, -6.0), (b, -5.0), (c, -4.0)], Sense::Minimize);
        let (rows, obj, k, dom) = relax(&m);
        let (sol, _) = solve_lp_basis(&rows, &obj, k, &dom, 10_000);
        assert_eq!(sol.status, LpStatus::Optimal);
        assert!(sol.objective <= -9.0 + 1e-6);
    }

    #[test]
    fn negative_rhs_rows_are_handled() {
        // -x <= -1  (i.e. x >= 1) with x in [0, 2], min x => 1.
        let mut m = Model::new("m");
        let x = m.add_binary("x");
        m.add_leq([(x, -1.0)], -1.0, "c");
        m.set_objective([(x, 1.0)], Sense::Minimize);
        let (rows, obj, k, dom) = relax_in(&m, &[(0.0, 2.0)]);
        let (sol, _) = solve_lp_basis(&rows, &obj, k, &dom, 10_000);
        assert_eq!(sol.status, LpStatus::Optimal);
        assert!((sol.objective - 1.0).abs() < 1e-6);
    }

    #[test]
    fn degenerate_lp_terminates() {
        // Several redundant constraints through the same vertex.
        let mut m = Model::new("m");
        let x = m.add_binary("x");
        let y = m.add_binary("y");
        m.add_leq([(x, 1.0), (y, 1.0)], 2.0, "a");
        m.add_leq([(x, 2.0), (y, 2.0)], 4.0, "b");
        m.add_leq([(x, 1.0)], 2.0, "c");
        m.add_leq([(y, 1.0)], 2.0, "d");
        m.set_objective([(x, -1.0), (y, -1.0)], Sense::Minimize);
        let (rows, obj, k, dom) = relax_in(&m, &[(0.0, 10.0); 2]);
        let (sol, _) = solve_lp_basis(&rows, &obj, k, &dom, 10_000);
        assert_eq!(sol.status, LpStatus::Optimal);
        assert!((sol.objective + 2.0).abs() < 1e-6);
    }

    #[test]
    fn empty_and_constant_rows_are_checked() {
        // A model whose only row mentions no free variable must still be
        // feasibility-checked against the fixed values.
        let mut m = Model::new("m");
        let x = m.add_binary("x");
        m.add_geq([(x, 1.0)], 3.0, "c");
        m.set_objective([(x, 1.0)], Sense::Minimize);
        let (rows, obj, k, mut dom) = relax_in(&m, &[(0.0, 4.0)]);
        dom.fix(x.index(), 1.0); // violates x >= 3
        let (sol, _) = solve_lp_basis(&rows, &obj, k, &dom, 10_000);
        assert_eq!(sol.status, LpStatus::Infeasible);
        let (rows, obj, k, mut dom) = relax_in(&m, &[(0.0, 4.0)]);
        dom.fix(x.index(), 3.5);
        let (sol, _) = solve_lp_basis(&rows, &obj, k, &dom, 10_000);
        assert_eq!(sol.status, LpStatus::Optimal);
        assert!((sol.objective - 3.5).abs() < 1e-6);
    }

    #[test]
    fn unbounded_lp_is_detected() {
        // A genuinely unbounded ray needs an infinite variable bound — the
        // BIST models never have one, but the kernel must still label the
        // case instead of looping: min -x with x in [0, +inf) and a
        // non-binding row.
        let mut m = Model::new("m");
        let x = m.add_binary("x");
        let y = m.add_binary("y");
        m.add_geq([(x, 1.0), (y, 1.0)], 1.0, "c");
        m.set_objective([(x, -1.0)], Sense::Minimize);
        let (rows, obj, k, dom) = relax_in(&m, &[(0.0, f64::INFINITY), (0.0, 1.0)]);
        let (sol, _) = solve_lp_basis(&rows, &obj, k, &dom, 10_000);
        assert_eq!(sol.status, LpStatus::Unbounded);
        assert!(sol.values.is_empty());
        // The same box with a finite ceiling solves at that ceiling.
        let mut m2 = Model::new("m2");
        let x2 = m2.add_binary("x");
        m2.add_geq([(x2, 1.0)], 1.0, "c");
        m2.set_objective([(x2, -1.0)], Sense::Minimize);
        let (rows, obj, k, dom) = relax_in(&m2, &[(0.0, 1e12)]);
        let (sol, _) = solve_lp_basis(&rows, &obj, k, &dom, 10_000);
        assert_eq!(sol.status, LpStatus::Optimal);
        assert!((sol.objective + 1e12).abs() < 1.0);
    }

    #[test]
    fn refactorization_engages_on_long_solves() {
        // A chain model long enough to force more pivots than the eta-file
        // limit, so at least one mid-solve refactorization must happen.
        let mut m = Model::new("chain");
        let vars: Vec<_> = (0..120).map(|i| m.add_binary(format!("x{i}"))).collect();
        for w in vars.windows(2) {
            m.add_geq([(w[0], 1.0), (w[1], 1.0)], 1.0, "link");
        }
        m.set_objective(
            vars.iter()
                .enumerate()
                .map(|(i, &v)| (v, 1.0 + 0.01 * (i % 7) as f64))
                .collect::<Vec<_>>(),
            Sense::Minimize,
        );
        let (rows, obj, k, dom) = relax_in(&m, &[(0.0, 10.0); 120]);
        let (sol, _) = solve_lp_basis(&rows, &obj, k, &dom, 100_000);
        assert_eq!(sol.status, LpStatus::Optimal);
        assert!(sol.pivots > 0);
        assert_eq!(sol.pivots, sol.primal_pivots + sol.dual_pivots);
        assert_eq!(sol.dual_pivots, 0);
    }

    // ---- warm-start / dual simplex ----

    #[test]
    fn warm_capable_solve_matches_cold_solve() {
        let mut m = Model::new("m");
        let x = m.add_binary("x");
        let y = m.add_binary("y");
        let z = m.add_binary("z");
        m.add_leq([(x, 3.0), (y, 2.0), (z, 2.0)], 4.0, "cap");
        m.add_geq([(x, 1.0), (z, 1.0)], 1.0, "c");
        m.set_objective([(x, -6.0), (y, -5.0), (z, -4.0)], Sense::Minimize);
        let (rows, obj, k, dom) = relax(&m);
        let (cold, basis) = solve_lp_basis(&rows, &obj, k, &dom, 10_000);
        assert_eq!(cold.status, LpStatus::Optimal);
        assert!(cold.reduced_costs.is_some());
        // Re-solving the cold optimum's own basis under unchanged bounds
        // is already optimal: no dual pivot, the same point and duals.
        let basis = basis.expect("an optimal cold solve returns its basis");
        let (warm, next) =
            resolve_with_basis(&rows, &obj, k, &basis, &dom, 10_000).expect("compatible");
        assert_eq!(warm.status, LpStatus::Optimal);
        assert_eq!(warm.pivots, 0);
        assert!((warm.objective - cold.objective).abs() < 1e-9);
        for (w, c) in warm.values.iter().zip(&cold.values) {
            assert!((w - c).abs() < 1e-9, "warm {w} vs cold {c}");
        }
        assert_eq!(warm.reduced_costs, cold.reduced_costs);
        assert_eq!(warm.refactorizations, 1, "the warm start factorizes once");
        let next = next.expect("optimal re-solve returns a basis");
        assert_eq!(next.status, basis.status);
    }

    #[test]
    fn dual_resolve_after_fixing_matches_cold() {
        // Fix each binary to each value in turn; the dual re-solve from the
        // root basis must agree with a cold solve of the child.
        let mut m = Model::new("m");
        let vars: Vec<_> = (0..4).map(|i| m.add_binary(format!("x{i}"))).collect();
        m.add_leq(
            vars.iter().map(|&v| (v, 1.0)).collect::<Vec<_>>(),
            2.0,
            "cap",
        );
        m.add_geq([(vars[0], 1.0), (vars[2], 1.0)], 1.0, "need");
        m.set_objective(
            [
                (vars[0], -3.0),
                (vars[1], -5.0),
                (vars[2], -4.0),
                (vars[3], -2.0),
            ],
            Sense::Minimize,
        );
        let (rows, obj, k, dom) = relax(&m);
        let (root, basis) = solve_lp_basis(&rows, &obj, k, &dom, 10_000);
        assert_eq!(root.status, LpStatus::Optimal);
        let basis = basis.unwrap();
        for j in 0..4 {
            for value in [0.0, 1.0] {
                let mut child = dom.clone();
                assert!(child.fix(j, value));
                let (cold, _) = solve_lp_basis(&rows, &obj, k, &child, 10_000);
                let (warm, _) =
                    resolve_with_basis(&rows, &obj, k, &basis, &child, 10_000).expect("compatible");
                assert_eq!(warm.status, cold.status, "x{j} := {value}");
                if warm.status == LpStatus::Optimal {
                    assert!(
                        (warm.objective - cold.objective).abs() < 1e-6,
                        "x{j} := {value}: warm {} vs cold {}",
                        warm.objective,
                        cold.objective
                    );
                    assert_eq!(warm.pivots, warm.dual_pivots + warm.primal_pivots);
                    assert_eq!(warm.primal_pivots, 0, "warm path is dual-only");
                }
            }
        }
    }

    #[test]
    fn dual_resolve_detects_child_infeasibility() {
        // x + y >= 1 with both fixed to 0 is infeasible.
        let mut m = Model::new("m");
        let x = m.add_binary("x");
        let y = m.add_binary("y");
        m.add_geq([(x, 1.0), (y, 1.0)], 1.0, "c");
        m.set_objective([(x, 1.0), (y, 2.0)], Sense::Minimize);
        let (rows, obj, k, dom) = relax(&m);
        let (root, basis) = solve_lp_basis(&rows, &obj, k, &dom, 10_000);
        assert_eq!(root.status, LpStatus::Optimal);
        let basis = basis.unwrap();
        let mut child = dom.clone();
        assert!(child.fix(x.index(), 0.0));
        assert!(child.fix(y.index(), 0.0));
        let (warm, next) =
            resolve_with_basis(&rows, &obj, k, &basis, &child, 10_000).expect("compatible");
        assert_eq!(warm.status, LpStatus::Infeasible);
        assert!(next.is_none());
    }

    #[test]
    fn dual_resolve_chains_across_generations() {
        // Tighten bounds one variable at a time, re-solving from the
        // previous basis each step, and compare against cold solves.
        let mut m = Model::new("m");
        let vars: Vec<_> = (0..5).map(|i| m.add_binary(format!("x{i}"))).collect();
        m.add_leq(
            vars.iter().map(|&v| (v, 1.0)).collect::<Vec<_>>(),
            7.0,
            "cap",
        );
        m.add_geq([(vars[0], 1.0), (vars[1], 1.0)], 2.0, "need");
        m.set_objective(
            vars.iter()
                .enumerate()
                .map(|(i, &v)| (v, -((i + 1) as f64)))
                .collect::<Vec<_>>(),
            Sense::Minimize,
        );
        let (rows, obj, k, _) = relax(&m);
        let dom = Domains::from_bounds(&[(0.0, 3.0, true); 5]);
        let (root, basis) = solve_lp_basis(&rows, &obj, k, &dom, 10_000);
        assert_eq!(root.status, LpStatus::Optimal);
        let mut basis = basis.unwrap();
        let mut domains = dom.clone();
        for (step, &(j, lo, hi)) in [(4usize, 0.0, 1.0), (3, 1.0, 3.0), (0, 1.0, 1.0)]
            .iter()
            .enumerate()
        {
            domains.tighten_lower(j, lo);
            domains.tighten_upper(j, hi);
            let (cold, _) = solve_lp_basis(&rows, &obj, k, &domains, 10_000);
            let (warm, next) =
                resolve_with_basis(&rows, &obj, k, &basis, &domains, 10_000).expect("compatible");
            assert_eq!(warm.status, cold.status, "step {step}");
            assert!(
                (warm.objective - cold.objective).abs() < 1e-6,
                "step {step}: warm {} vs cold {}",
                warm.objective,
                cold.objective
            );
            basis = next.expect("optimal resolve returns a basis");
        }
    }

    #[test]
    fn resolve_handles_relaxed_bounds_without_rejection() {
        // Bounds are implicit, so a *relaxed* child box is just as
        // re-solvable as a tightened one — the old bound-row kernel had to
        // reject this case.
        let mut m = Model::new("m");
        let x = m.add_binary("x");
        m.add_leq([(x, 1.0)], 2.0, "c");
        m.set_objective([(x, 1.0)], Sense::Minimize);
        let (rows, obj, k, _) = relax(&m);
        let dom = Domains::from_bounds(&[(1.0, 3.0, true)]);
        let (_, basis) = solve_lp_basis(&rows, &obj, k, &dom, 10_000);
        let basis = basis.unwrap();
        let relaxed = Domains::from_bounds(&[(0.0, 3.0, true)]);
        let (warm, _) =
            resolve_with_basis(&rows, &obj, k, &basis, &relaxed, 10_000).expect("compatible");
        assert_eq!(warm.status, LpStatus::Optimal);
        assert!((warm.objective - 0.0).abs() < 1e-6);
    }

    #[test]
    fn resolve_rejects_a_mismatched_matrix() {
        let mut m = Model::new("m");
        let x = m.add_binary("x");
        m.add_leq([(x, 1.0)], 1.0, "c");
        m.set_objective([(x, 1.0)], Sense::Minimize);
        let (rows, obj, k, dom) = relax(&m);
        let (_, basis) = solve_lp_basis(&rows, &obj, k, &dom, 10_000);
        let basis = basis.unwrap();
        // A matrix with an extra row (a rebuilt cut pool) must be rejected.
        let mut m2 = Model::new("m2");
        let x2 = m2.add_binary("x");
        m2.add_leq([(x2, 1.0)], 1.0, "c");
        m2.add_leq([(x2, 1.0)], 2.0, "cut");
        let (rows2, obj2, k2, dom2) = relax(&m2);
        assert!(resolve_with_basis(&rows2, &obj2, k2, &basis, &dom2, 10_000).is_none());
    }

    #[test]
    fn resolve_rejects_a_changed_objective() {
        // Dual feasibility is a statement about the costs: a basis built
        // under one objective must not warm-start a solve under another.
        let mut m = Model::new("m");
        let x = m.add_binary("x");
        let y = m.add_binary("y");
        m.add_geq([(x, 1.0), (y, 1.0)], 1.0, "c");
        m.set_objective([(x, 1.0), (y, 2.0)], Sense::Minimize);
        let (rows, obj, k, dom) = relax(&m);
        let (_, basis) = solve_lp_basis(&rows, &obj, k, &dom, 10_000);
        let basis = basis.unwrap();
        let flipped: Vec<f64> = obj.iter().map(|c| -c).collect();
        assert!(resolve_with_basis(&rows, &flipped, k, &basis, &dom, 10_000).is_none());
        // A changed constant is part of the instance too.
        assert!(resolve_with_basis(&rows, &obj, k + 1.0, &basis, &dom, 10_000).is_none());
        // The unchanged instance still re-solves.
        assert!(resolve_with_basis(&rows, &obj, k, &basis, &dom, 10_000).is_some());
    }

    #[test]
    fn extension_requires_the_stored_rows_as_a_prefix() {
        let mut m = Model::new("m");
        let x = m.add_binary("x");
        let y = m.add_binary("y");
        m.add_geq([(x, 1.0), (y, 1.0)], 1.0, "c");
        m.set_objective([(x, 1.0), (y, 2.0)], Sense::Minimize);
        let (rows, obj, k, dom) = relax(&m);
        let (_, basis) = solve_lp_basis(&rows, &obj, k, &dom, 10_000);
        let basis = basis.unwrap();
        // A cut appended after the stored row: the extension re-solves
        // warm, dual-only, to the cold optimum of the grown matrix.
        m.add_leq([(x, 1.0)], 0.5, "cut");
        let (grown, _, _, _) = relax(&m);
        let extended = basis.extended(&grown, &obj, k).expect("prefix matches");
        assert_eq!(extended.rows(), 2);
        let (warm, _) =
            resolve_with_basis(&grown, &obj, k, &extended, &dom, 10_000).expect("compatible");
        let (cold, _) = solve_lp_basis(&grown, &obj, k, &dom, 10_000);
        assert_eq!(warm.primal_pivots, 0);
        assert!((warm.objective - cold.objective).abs() < 1e-9);
        // A matrix that changed a stored row, or another objective, is not
        // an extension.
        let mut other = Model::new("other");
        let x2 = other.add_binary("x");
        let y2 = other.add_binary("y");
        other.add_geq([(x2, 1.0), (y2, 1.0)], 2.0, "c");
        other.add_leq([(x2, 1.0)], 0.5, "cut");
        let (changed, _, _, _) = relax(&other);
        assert!(basis.extended(&changed, &obj, k).is_none());
        let flipped: Vec<f64> = obj.iter().map(|c| -c).collect();
        assert!(basis.extended(&grown, &flipped, k).is_none());
    }

    #[test]
    fn a_shared_factor_matches_per_call_refactorization_bit_for_bit() {
        // Strong branching factors a node's basis once for all its probes;
        // each probe must compute the bits a probe that refactorizes the
        // basis itself computes.
        let mut m = Model::new("m");
        let vars: Vec<_> = (0..6).map(|i| m.add_binary(format!("x{i}"))).collect();
        m.add_leq(
            vars.iter()
                .enumerate()
                .map(|(i, &v)| (v, 1.0 + (i % 3) as f64))
                .collect::<Vec<_>>(),
            5.5,
            "cap",
        );
        m.add_geq(
            [(vars[0], 1.0), (vars[3], 1.0), (vars[5], 1.0)],
            1.0,
            "need",
        );
        m.set_objective(
            vars.iter()
                .enumerate()
                .map(|(i, &v)| (v, -1.0 - 0.7 * i as f64))
                .collect::<Vec<_>>(),
            Sense::Minimize,
        );
        let (rows, obj, k, dom) = relax(&m);
        let (_, basis) = solve_lp_basis(&rows, &obj, k, &dom, 10_000);
        let basis = basis.unwrap();
        let factor = basis.factor(&rows, &obj, k).expect("factorizable");
        let bits = |sol: &LpSolution| {
            let values: Vec<u64> = sol.values.iter().map(|v| v.to_bits()).collect();
            (sol.status, sol.objective.to_bits(), values, sol.pivots)
        };
        for j in 0..6 {
            for value in [0.0, 1.0] {
                let mut child = dom.clone();
                assert!(child.fix(j, value));
                let (shared, _) = factor.resolve(&rows, &obj, k, &child, 100).unwrap();
                let (own, _) = resolve_with_basis(&rows, &obj, k, &basis, &child, 100).unwrap();
                assert_eq!(bits(&shared), bits(&own), "x{j} := {value}");
                assert_eq!(own.refactorizations, shared.refactorizations + 1);
            }
        }
    }

    #[test]
    fn reduced_costs_identify_bound_variables() {
        // min x + 2y s.t. x + y >= 1: optimum x=1, y=0. y is nonbasic at its
        // lower bound with positive reduced cost (2 - 1 = 1 after pricing).
        let mut m = Model::new("m");
        let x = m.add_binary("x");
        let y = m.add_binary("y");
        m.add_geq([(x, 1.0), (y, 1.0)], 1.0, "c");
        m.set_objective([(x, 1.0), (y, 2.0)], Sense::Minimize);
        let (rows, obj, k, dom) = relax(&m);
        let (sol, _) = solve_lp_basis(&rows, &obj, k, &dom, 10_000);
        assert_eq!(sol.status, LpStatus::Optimal);
        let rc = sol.reduced_costs.expect("warm path reports reduced costs");
        assert!((sol.values[y.index()]).abs() < 1e-6);
        assert!(
            rc.up[y.index()] > 0.5,
            "y at lower bound should have positive up-cost, got {}",
            rc.up[y.index()]
        );
    }

    #[test]
    fn bound_moves_are_flips_not_pivots() {
        // 20 zero-cost binaries covering `Σ x >= 19`: the crash start puts
        // every variable at its lower bound, and phase 1 must walk almost
        // all of them across their boxes to cover the row. With implicit
        // bounds each of those moves is a *bound flip* (the box step of 1
        // beats the slack's ratio of 19), not a pivot — the dense bound-row
        // kernel needed a real pivot per bound move.
        let mut m = Model::new("m");
        let vars: Vec<_> = (0..20).map(|i| m.add_binary(format!("x{i}"))).collect();
        m.add_geq(
            vars.iter().map(|&v| (v, 1.0)).collect::<Vec<_>>(),
            19.0,
            "cover",
        );
        m.set_objective([(vars[0], 0.0)], Sense::Minimize);
        let (rows, obj, k, dom) = relax_in(&m, &[(0.0, 1.0); 20]);
        let (sol, _) = solve_lp_basis(&rows, &obj, k, &dom, 10_000);
        assert_eq!(sol.status, LpStatus::Optimal);
        assert!(
            sol.bound_flips >= 18,
            "expected bound flips, got {} (pivots {})",
            sol.bound_flips,
            sol.pivots
        );
        assert!(
            sol.pivots <= 2,
            "bound moves must not consume pivots, spent {}",
            sol.pivots
        );
        // The crash start is also load-bearing: a variable whose objective
        // prefers its upper bound starts there, so a loose maximisation
        // solves with no simplex work at all.
        let mut m2 = Model::new("m2");
        let y = m2.add_binary("y");
        m2.add_leq([(y, 1.0)], 100.0, "loose");
        m2.set_objective([(y, -1.0)], Sense::Minimize);
        let (rows, obj, k, dom) = relax_in(&m2, &[(0.0, 5.0)]);
        let (sol, _) = solve_lp_basis(&rows, &obj, k, &dom, 10_000);
        assert_eq!(sol.status, LpStatus::Optimal);
        assert!((sol.objective + 5.0).abs() < 1e-9);
        assert_eq!(sol.pivots + sol.bound_flips, 0, "crash start is optimal");
    }

    #[test]
    fn gomory_cut_matches_the_hand_derivation() {
        // max x1 + x2  s.t.  x1 + x2 <= 1.5,  x1, x2 binary.
        //
        // The LP optimum sits at x1 + x2 = 1.5 with one variable basic and
        // fractional (β' = 0.5 after shifting the nonbasic integral to its
        // bound) and the other nonbasic at its *upper* bound. Deriving the
        // mixed-integer Gomory cut of that row by hand:
        //
        //   basic row      x_B − t_other + t_s = 0.5        (t_j ≥ 0 shifted)
        //   f0 = 0.5
        //   t_other  integral, α = −1, frac(α) = 0   → coefficient 0
        //   t_s      continuous slack, α = 1 ≥ 0     → coefficient α = 1
        //
        // so the cut is `s ≥ f0 = 0.5`; substituting the slack
        // `s = 1.5 − x1 − x2` of the ≤-row gives `x1 + x2 ≤ 1` — exactly the
        // integer hull facet.
        let mut m = Model::new("gmi");
        let x1 = m.add_binary("x1");
        let x2 = m.add_binary("x2");
        m.add_leq([(x1, 1.0), (x2, 1.0)], 1.5, "cap");
        m.set_objective([(x1, -1.0), (x2, -1.0)], Sense::Minimize);
        let (rows, obj, k, dom) = relax(&m);
        let (sol, basis) = solve_lp_basis(&rows, &obj, k, &dom, 10_000);
        assert_eq!(sol.status, LpStatus::Optimal);
        assert!((sol.objective + 1.5).abs() < 1e-9);
        let basis = basis.expect("optimal basis");
        let factor = basis.factor(&rows, &obj, k).expect("factorizable");
        let cuts = factor.gomory_cuts(&rows, &obj, k, &dom, &dom, 8);
        assert_eq!(cuts.len(), 1, "exactly one fractional row");
        let (terms, rhs) = &cuts[0];
        let mut dense = [0.0f64; 2];
        for &(j, a) in terms {
            dense[j] = a;
        }
        // The implementation scales the cut so comparing term-by-term needs
        // the normalised form: divide through by the x1 coefficient.
        assert!(dense[0].abs() > 1e-9, "cut must involve x1");
        let scale = dense[0];
        assert!(
            (dense[1] / scale - 1.0).abs() < 1e-6,
            "hand derivation gives equal coefficients, got {dense:?}"
        );
        assert!(
            (rhs / scale - 1.0).abs() < 1e-6,
            "hand derivation gives rhs 1, got {} (scale {scale})",
            rhs / scale
        );
        // And the cut does exactly what it should: kills the fractional LP
        // point, keeps every integer point.
        let lp_activity = dense[0] * sol.values[0] + dense[1] * sol.values[1];
        assert!(lp_activity > rhs + 1e-4, "cut must cut off the LP optimum");
        for (a, b) in [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0)] {
            assert!(
                dense[0] * a + dense[1] * b <= rhs + 1e-9,
                "({a},{b}) cut off"
            );
        }
    }

    #[test]
    fn gomory_cuts_reject_a_stale_basis() {
        // A basis fingerprinted against different row data must be refused:
        // deriving a cut from a stale tableau would produce garbage.
        let mut m = Model::new("gmi-stale");
        let x1 = m.add_binary("x1");
        let x2 = m.add_binary("x2");
        m.add_leq([(x1, 1.0), (x2, 1.0)], 1.5, "cap");
        m.set_objective([(x1, -1.0), (x2, -1.0)], Sense::Minimize);
        let (rows, obj, k, dom) = relax(&m);
        let (sol, basis) = solve_lp_basis(&rows, &obj, k, &dom, 10_000);
        assert_eq!(sol.status, LpStatus::Optimal);
        let basis = basis.expect("optimal basis");

        let mut other = Model::new("gmi-other");
        let y1 = other.add_binary("y1");
        let y2 = other.add_binary("y2");
        other.add_leq([(y1, 2.0), (y2, 1.0)], 2.5, "cap");
        other.set_objective([(y1, -1.0), (y2, -1.0)], Sense::Minimize);
        let (other_rows, other_obj, other_k, other_dom) = relax(&other);
        assert!(basis.factor(&other_rows, &other_obj, other_k).is_none());
        let factor = basis.factor(&rows, &obj, k).expect("factorizable");
        let cuts = factor.gomory_cuts(&other_rows, &other_obj, other_k, &other_dom, &other_dom, 8);
        assert!(cuts.is_empty(), "stale basis must yield no cuts");
    }

    // ---- bit-identity of the kernel's linear algebra ----

    /// The dense Gauss-Jordan factorization [`factorize`] must reproduce
    /// bit for bit: every column is zero-filled, FTRANed over the whole
    /// file, pivot-scanned over all `m` rows and turned into an eta over
    /// all `m` rows.
    fn factorize_dense(matrix: &SparseModel, basic: &[usize]) -> Option<(Vec<usize>, EtaFile)> {
        let (n, m) = (matrix.num_vars(), matrix.num_rows());
        let mut etas = EtaFile::default();
        let mut assigned = vec![false; m];
        let mut order = vec![usize::MAX; m];
        let mut w = vec![0.0; m];
        for c in refactor_order(matrix, basic) {
            w.fill(0.0);
            if c < n {
                let (rows, vals) = matrix.col(c);
                for (&r, &a) in rows.iter().zip(vals) {
                    w[r as usize] = a;
                }
            } else {
                w[c - n] = 1.0;
            }
            etas.ftran(&mut w);
            let mut best = PIVOT_TOL;
            let mut row = usize::MAX;
            for (i, &wi) in w.iter().enumerate() {
                if !assigned[i] && wi.abs() > best {
                    best = wi.abs();
                    row = i;
                }
            }
            if row == usize::MAX {
                return None;
            }
            assigned[row] = true;
            order[row] = c;
            etas.push(row, &w, 0..m);
        }
        Some((order, etas))
    }

    thread_local! {
        /// While armed (`Some`), the number of warm-start factorizations
        /// [`audit_warm_factor`] has checked on this thread.
        static AUDITED: std::cell::Cell<Option<usize>> = const { std::cell::Cell::new(None) };
    }

    /// Checks a warm start's factorization of `basic` against
    /// [`factorize_dense`] while the audit is armed.
    pub(super) fn audit_warm_factor(
        matrix: &SparseModel,
        basic: &[usize],
        factored: Option<&(Vec<usize>, EtaFile)>,
    ) {
        let Some(count) = AUDITED.get() else {
            return;
        };
        let dense = factorize_dense(matrix, basic);
        let bits = |f: Option<&(Vec<usize>, EtaFile)>| f.map(|(o, e)| (o.clone(), eta_bits(e)));
        assert!(
            bits(factored) == bits(dense.as_ref()),
            "warm-start factorization {count} differs from the dense reference"
        );
        AUDITED.set(Some(count + 1));
    }

    #[test]
    fn every_warm_start_of_a_real_solve_factorizes_like_the_dense_reference() {
        use crate::{BoundMode, Budget, LinExpr, SolverConfig};
        use bist_core::{SynthesisConfig, SynthesisEngine};
        use bist_dfg::benchmarks;

        let sweep = SolverConfig {
            budget: Budget::nodes(200),
            bound_mode: BoundMode::LpRelaxation,
            ..SolverConfig::default()
        };
        let cases = [
            ("figure1", benchmarks::figure1(), 2, SolverConfig::exact()),
            ("tseng", benchmarks::tseng(), 1, sweep),
        ];
        for (name, input, k, mut config) in cases {
            let synthesis = SynthesisConfig::exact();
            let engine = SynthesisEngine::new(&input, &synthesis).unwrap();
            let mut formulation = engine.base().clone();
            formulation.add_bist(k).unwrap();
            formulation.set_bist_objective();
            config
                .initial_solutions
                .extend(formulation.baseline_warm_values());
            // The formulation is built over the library build of this
            // crate, whose types differ from this test build's: rebuild the
            // model through its public accessors.
            let source = &formulation.model;
            let mut model = Model::new(source.name());
            let vars: Vec<_> = source
                .vars()
                .iter()
                .map(|def| model.add_binary(def.name.as_str()))
                .collect();
            for row in source.constraints() {
                let terms: Vec<_> = row.expr.iter().map(|(v, a)| (vars[v.index()], a)).collect();
                let op = match row.op.as_str() {
                    "<=" => CmpOp::Le,
                    ">=" => CmpOp::Ge,
                    _ => CmpOp::Eq,
                };
                model.add_constraint(terms, op, row.rhs, row.name.as_str());
            }
            let mut objective: LinExpr = source
                .objective()
                .iter()
                .map(|(v, a)| (vars[v.index()], a))
                .collect::<Vec<_>>()
                .into();
            objective.add_constant(source.objective().offset());
            let sense = match format!("{:?}", source.sense()).as_str() {
                "Maximize" => Sense::Maximize,
                _ => Sense::Minimize,
            };
            model.set_objective(objective, sense);

            AUDITED.set(Some(0));
            let solution = model.solve(&config).unwrap();
            let audited = AUDITED.replace(None).unwrap();
            assert!(
                audited >= 50,
                "{name} k={k}: only {audited} warm starts audited ({} nodes)",
                solution.stats().nodes
            );
        }
    }

    impl Kernel<'_> {
        /// [`Kernel::refactorize`] over [`factorize_dense`].
        fn refactorize_dense(&mut self) -> bool {
            self.counters.refactorizations += 1;
            self.base = Cow::default();
            self.updates.clear();
            let Some((order, etas)) = factorize_dense(self.matrix, &self.basis) else {
                return false;
            };
            self.basis = order;
            self.base = Cow::Owned(etas);
            self.compute_basics();
            true
        }
    }

    /// SplitMix64, the seeded generator of the randomized kernel tests.
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

        /// A value of magnitude in [0.25, 4) with a full-width mantissa.
        fn coeff(&mut self) -> f64 {
            let unit = (self.next() >> 11) as f64 / (1u64 << 53) as f64;
            let magnitude = 0.25 + 3.75 * unit;
            if self.next() & 1 == 0 {
                magnitude
            } else {
                -magnitude
            }
        }
    }

    /// A random `m × n` matrix whose first `singletons` columns have one
    /// nonzero and the rest two to four; every row gets at least one term.
    fn random_matrix(mix: &mut Mix, m: usize, n: usize, singletons: usize) -> SparseModel {
        let mut rows: Vec<Vec<(usize, f64)>> = vec![Vec::new(); m];
        for j in 0..n {
            let count = if j < singletons { 1 } else { 2 + mix.below(3) };
            let mut picked: Vec<usize> = Vec::new();
            while picked.len() < count {
                let i = mix.below(m);
                if !picked.contains(&i) {
                    picked.push(i);
                }
            }
            for i in picked {
                rows[i].push((j, mix.coeff()));
            }
        }
        for row in rows.iter_mut().filter(|row| row.is_empty()) {
            let j = singletons + mix.below(n - singletons);
            row.push((j, mix.coeff()));
        }
        SparseModel::from_rows(
            n,
            rows.into_iter().enumerate().map(|(i, terms)| {
                let op = [CmpOp::Le, CmpOp::Ge, CmpOp::Eq][i % 3];
                (terms, op, 1.0 + (i % 5) as f64 * 0.5)
            }),
        )
    }

    /// A basis of about `structurals` structural columns — each matched to
    /// a distinct row among its nonzeros, so the basis is structurally
    /// nonsingular — completed by the slacks of the unmatched rows.
    fn random_basis(mix: &mut Mix, matrix: &SparseModel, structurals: usize) -> Vec<usize> {
        let (m, n) = (matrix.num_rows(), matrix.num_vars());
        let mut claimed = vec![false; m];
        let mut basis = Vec::new();
        for _ in 0..structurals {
            let j = mix.below(n);
            if basis.contains(&j) {
                continue;
            }
            let (rows, _) = matrix.col(j);
            if let Some(&r) = rows.iter().find(|&&r| !claimed[r as usize]) {
                claimed[r as usize] = true;
                basis.push(j);
            }
        }
        basis.extend((0..m).filter(|&i| !claimed[i]).map(|i| n + i));
        // The kernel's row order is arbitrary before a refactorization.
        for i in (1..basis.len()).rev() {
            basis.swap(i, mix.below(i + 1));
        }
        basis
    }

    /// A kernel over `matrix` holding `basis`, with a dirty scratch vector
    /// (the solve paths leave one behind).
    fn kernel_with_basis<'a>(
        matrix: &'a SparseModel,
        objective: &'a [f64],
        domains: &Domains,
        basis: &[usize],
        mix: &mut Mix,
    ) -> Kernel<'a> {
        let mut k = Kernel::shell(matrix, objective, 0.0, domains);
        k.status.fill(ColStatus::Lower);
        for &j in basis {
            k.status[j] = ColStatus::Basic;
        }
        k.basis = basis.to_vec();
        k.snap_nonbasics();
        for slot in &mut k.scratch {
            *slot = mix.coeff();
        }
        k
    }

    type EtaBits = (u32, u64, Vec<(u32, u64)>);

    fn eta_bits(etas: &EtaFile) -> Vec<EtaBits> {
        (0..etas.len())
            .map(|k| {
                let (rows, vals) = etas.terms(k);
                let terms = rows.iter().zip(vals).map(|(&i, a)| (i, a.to_bits()));
                (etas.rows[k], etas.pivots[k].to_bits(), terms.collect())
            })
            .collect()
    }

    /// Continuous domains `x_j ∈ [0, 1 + j]`.
    fn box_domains(n: usize) -> Domains {
        let bounds: Vec<_> = (0..n).map(|j| (0.0, 1.0 + j as f64, false)).collect();
        Domains::from_bounds(&bounds)
    }

    /// Refactorizes the same basis with the sparse kernel and the dense
    /// reference; both must agree on success, row order, eta file and
    /// basic values, bit for bit. Returns the number of off-pivot eta
    /// terms, or `None` if both found the basis singular.
    fn assert_refactorizations_agree(
        matrix: &SparseModel,
        basis: &[usize],
        mix: &mut Mix,
    ) -> Option<usize> {
        let n = matrix.num_vars();
        let objective: Vec<f64> = (0..n).map(|_| mix.coeff()).collect();
        let domains = box_domains(n);
        let mut sparse = kernel_with_basis(matrix, &objective, &domains, basis, mix);
        let mut dense = kernel_with_basis(matrix, &objective, &domains, basis, mix);
        let ok = sparse.refactorize();
        assert_eq!(ok, dense.refactorize_dense(), "singularity verdicts differ");
        assert_eq!(sparse.basis, dense.basis);
        assert_eq!(sparse.base.len(), dense.base.len());
        assert_eq!(eta_bits(&sparse.base), eta_bits(&dense.base));
        assert_eq!((sparse.updates.len(), dense.updates.len()), (0, 0));
        let x_bits = |k: &Kernel| k.x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(x_bits(&sparse), x_bits(&dense));
        ok.then(|| sparse.base.term_rows.len())
    }

    #[test]
    fn sparse_refactorization_matches_the_dense_reference_bit_for_bit() {
        let mut factorized = 0;
        let mut terms = 0;
        for seed in 0..40u64 {
            let mut mix = Mix(seed);
            let m = 20 + mix.below(40);
            let n = m + mix.below(m);
            let singletons = n / 5;
            let matrix = random_matrix(&mut mix, m, n, singletons);
            // Slack-heavy bases (about one structural in five, as on the
            // BIST models) and structural-heavy ones.
            for structurals in [m / 5, m / 2, m] {
                let basis = random_basis(&mut mix, &matrix, structurals);
                if let Some(t) = assert_refactorizations_agree(&matrix, &basis, &mut mix) {
                    factorized += 1;
                    terms += t;
                }
            }
            // Structural singletons on distinct rows plus slacks: every
            // basic column has one nonzero.
            let mut claimed = vec![false; m];
            let mut basis: Vec<usize> = Vec::new();
            for j in 0..singletons {
                let r = matrix.col(j).0[0] as usize;
                if !claimed[r] {
                    claimed[r] = true;
                    basis.push(j);
                }
            }
            basis.extend((0..m).filter(|&i| !claimed[i]).map(|i| n + i));
            assert_eq!(
                assert_refactorizations_agree(&matrix, &basis, &mut mix),
                Some(0),
                "a singleton basis factorizes into term-free etas"
            );
        }
        assert!(
            factorized >= 100,
            "only {factorized} of 120 bases factorized"
        );
        assert!(
            terms > 1000,
            "eta files too sparse to compare: {terms} terms"
        );
    }

    #[test]
    fn both_refactorizations_reject_a_singular_basis() {
        // Column 1 is exactly twice column 0: after column 0's eta the
        // second column FTRANs to zero on every unassigned row.
        let matrix = SparseModel::from_rows(
            3,
            [
                (vec![(0, 1.5), (1, 3.0)], CmpOp::Le, 4.0),
                (vec![(0, -0.75), (1, -1.5)], CmpOp::Ge, -2.0),
                (vec![(2, 2.0)], CmpOp::Eq, 1.0),
            ],
        );
        let mut mix = Mix(7);
        // A structural singleton (column 2, row 2) next to its own row's
        // slack is singular too.
        for basis in [vec![0, 1, 5], vec![2, 5, 3]] {
            let objective = [1.0, 2.0, 3.0];
            let domains = box_domains(3);
            let mut sparse = kernel_with_basis(&matrix, &objective, &domains, &basis, &mut mix);
            let mut dense = kernel_with_basis(&matrix, &objective, &domains, &basis, &mut mix);
            assert!(!sparse.refactorize(), "{basis:?} is singular");
            assert!(!dense.refactorize_dense());
            assert_eq!(sparse.basis, basis);
            assert_eq!(dense.basis, basis);
            assert_eq!((sparse.base.len(), dense.base.len()), (0, 0));
            assert_eq!((sparse.updates.len(), dense.updates.len()), (0, 0));
        }
    }

    /// A random eta file over `m` rows in which every eta reads the rows
    /// of its neighbours in the file (and a few random ones), so
    /// consecutive BTRAN steps feed each other.
    fn chained_etas(mix: &mut Mix, m: usize, len: usize) -> EtaFile {
        let rows: Vec<usize> = (0..len).map(|_| mix.below(m)).collect();
        let mut etas = EtaFile::default();
        for k in 0..len {
            let row = rows[k];
            let mut picked: Vec<usize> = Vec::new();
            for neighbour in [k.wrapping_sub(1), k + 1] {
                if let Some(&r) = rows.get(neighbour) {
                    picked.push(r);
                }
            }
            for _ in 0..mix.below(6) {
                picked.push(mix.below(m));
            }
            picked.sort_unstable();
            picked.dedup();
            picked.retain(|&i| i != row);
            let pivot = mix.coeff();
            for i in picked {
                etas.push_term(i, mix.coeff());
            }
            etas.finish(row, pivot);
        }
        etas
    }

    #[test]
    fn single_entry_columns_take_the_fast_path_bit_for_bit() {
        // Rows 0..4. Column 0 is a non-unit structural singleton on row 0,
        // column 1 a unit structural singleton on row 1, column 2 spans
        // rows 0 and 3, and column 3 is a second singleton on row 0.
        let matrix = SparseModel::from_rows(
            4,
            [
                (vec![(0, 2.5), (2, 0.75), (3, -1.25)], CmpOp::Le, 4.0),
                (vec![(1, 1.0)], CmpOp::Ge, 0.5),
                (vec![(2, 0.0)], CmpOp::Le, 1.0),
                (vec![(2, -3.0)], CmpOp::Eq, 1.0),
            ],
        );
        let slack = |r: usize| 4 + r;
        // Singletons on free rows pivot where they stand: the non-unit one
        // leaves a term-free eta, the unit one and the slack none at all;
        // column 2 then meets column 0's eta and pivots on row 3.
        let basic = [2, slack(2), 1, 0];
        let (order, etas) = factorize(&matrix, &basic, &mut [0.0; 4]).expect("nonsingular");
        assert_eq!(order, vec![0, 1, slack(2), 2]);
        let eta_0 = (0, 2.5f64.to_bits(), vec![]);
        let eta_3 = (3, (-3.0f64).to_bits(), vec![(0, (0.75f64 / 2.5).to_bits())]);
        assert_eq!(eta_bits(&etas), vec![eta_0, eta_3]);
        let dense = factorize_dense(&matrix, &basic).expect("nonsingular");
        assert_eq!((order, eta_bits(&etas)), (dense.0, eta_bits(&dense.1)));
        // A second singleton on a row already taken is singular, whichever
        // path sees it, and so is a singleton below the pivot tolerance.
        assert!(factorize(&matrix, &[0, 3, slack(1), slack(3)], &mut [0.0; 4]).is_none());
        assert!(factorize_dense(&matrix, &[0, 3, slack(1), slack(3)]).is_none());
        let tiny = SparseModel::from_rows(1, [(vec![(0, 1e-9)], CmpOp::Le, 1.0)]);
        assert!(factorize(&tiny, &[0], &mut [0.0]).is_none());
        assert!(factorize_dense(&tiny, &[0]).is_none());
    }

    /// The etas `range` of `file` as a file of their own.
    fn sub_file(file: &EtaFile, range: Range<usize>) -> EtaFile {
        let mut out = EtaFile::default();
        for k in range {
            let (rows, vals) = file.terms(k);
            for (&i, &a) in rows.iter().zip(vals) {
                out.push_term(i as usize, a);
            }
            out.finish(file.rows[k] as usize, file.pivots[k]);
        }
        out
    }

    #[test]
    fn a_borrowed_base_and_an_update_file_transform_like_one_file() {
        // A warm kernel walks the factor's file it borrows and its own
        // update file; every transformation must equal the same pass over
        // the two files concatenated, bit for bit.
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for seed in 0..50u64 {
            let mut mix = Mix(5000 + seed);
            let m = 8 + mix.below(40);
            let len = 1 + mix.below(80);
            let whole = chained_etas(&mut mix, m, len);
            let split = mix.below(whole.len() + 1);
            let base = sub_file(&whole, 0..split);
            let matrix = random_matrix(&mut mix, m, m + 4, 2);
            let objective = vec![0.0; m + 4];
            let domains = box_domains(m + 4);
            let slacks: Vec<usize> = (0..m).map(|i| m + 4 + i).collect();
            let mut kernel = kernel_with_basis(&matrix, &objective, &domains, &slacks, &mut mix);
            kernel.base = Cow::Borrowed(&base);
            kernel.updates = sub_file(&whole, split..whole.len());

            let v: Vec<f64> = (0..m)
                .map(|_| if mix.below(3) == 0 { 0.0 } else { mix.coeff() })
                .collect();
            let mut u = vec![0.0; m];
            u[mix.below(m)] = 1.0;
            let (mut f_one, mut f_two) = (v.clone(), v.clone());
            whole.ftran(&mut f_one);
            kernel.ftran(&mut f_two);
            assert_eq!(bits(&f_two), bits(&f_one), "seed {seed}: FTRAN");
            let (mut b_one, mut b_two) = (v.clone(), v.clone());
            whole.btran(&mut b_one);
            kernel.btran(&mut b_two);
            assert_eq!(bits(&b_two), bits(&b_one), "seed {seed}: BTRAN");
            let (mut u_one, mut v_one, mut u_two, mut v_two) = (u.clone(), v.clone(), u, v);
            whole.btran2(&mut u_one, &mut v_one);
            kernel.btran2(&mut u_two, &mut v_two);
            assert_eq!(bits(&u_two), bits(&u_one), "seed {seed}: fused ρ");
            assert_eq!(bits(&v_two), bits(&v_one), "seed {seed}: fused y");
        }
    }

    #[test]
    fn fused_btran_matches_two_sequential_btrans_bit_for_bit() {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for seed in 0..50u64 {
            let mut mix = Mix(1000 + seed);
            let m = 8 + mix.below(40);
            let len = 1 + mix.below(80);
            let etas = chained_etas(&mut mix, m, len);
            // A unit vector (as for ρ) and a dense one with zeros (as for y).
            let mut rho = vec![0.0; m];
            rho[mix.below(m)] = 1.0;
            let y: Vec<f64> = (0..m)
                .map(|_| if mix.below(3) == 0 { 0.0 } else { mix.coeff() })
                .collect();

            let (mut rho_seq, mut y_seq) = (rho.clone(), y.clone());
            etas.btran(&mut rho_seq);
            etas.btran(&mut y_seq);
            let (mut rho_fused, mut y_fused) = (rho.clone(), y.clone());
            etas.btran2(&mut rho_fused, &mut y_fused);
            assert_eq!(bits(&rho_fused), bits(&rho_seq), "seed {seed}: ρ");
            assert_eq!(bits(&y_fused), bits(&y_seq), "seed {seed}: y");

            // The primal devex split: ρ over the file before the newest
            // eta, fused with y over the whole file (newest eta first).
            let old = etas.len() - 1;
            let mut rho_old = rho.clone();
            etas.btran_over(0..old, &mut rho_old);
            let (mut rho_split, mut y_split) = (rho.clone(), y.clone());
            etas.btran_over(old..etas.len(), &mut y_split);
            etas.btran2_over(0..old, &mut rho_split, &mut y_split);
            assert_eq!(bits(&rho_split), bits(&rho_old), "seed {seed}: old-file ρ");
            assert_eq!(bits(&y_split), bits(&y_seq), "seed {seed}: new-file y");
        }
    }
}
