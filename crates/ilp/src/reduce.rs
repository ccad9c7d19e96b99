//! Reducing presolve: composable model-to-model transformations.
//!
//! This module rewrites a model into a smaller, tighter [`ReducedModel`]
//! that the solver explores instead, with a round-trip [`ReducedModel::lift`]
//! that maps any reduced-space assignment back to the original variable
//! indexing (and [`ReducedModel::project`] for warm starts travelling the
//! other way).
//!
//! The pipeline composes these passes, iterated to a fixpoint:
//!
//! * **bound propagation + fixed-variable elimination** — variables forced by
//!   root propagation leave the model; their contribution folds into row
//!   right-hand sides and the objective constant,
//! * **redundant-row removal** — rows satisfied by every point of the
//!   propagated box are dropped,
//! * **dominated packing rows** — set-packing rows (`Σ x ≤ 1` over binaries)
//!   whose support lies inside a wider packing or partitioning row are
//!   dropped,
//! * **coefficient tightening** — knapsack-style rows over binaries get their
//!   coefficients reduced to the strongest values that keep the same integer
//!   solutions (cuts off fractional LP vertices for free),
//! * **implication disaggregation** — aggregated implication rows over
//!   binaries (the big-M OR/AND rows of the BIST formulation) become their
//!   per-term implications.
//!
//! Every pass follows from the rows alone and never reads the objective: a
//! fixing, a dropped row or a tightened coefficient holds at every integer
//! point of the rows, so it stays valid under any rows added later. One
//! pass set therefore serves both a model solved as-is and a base that is
//! [`ReducedModel::extend`]ed with delta rows referencing its variables —
//! this is how the synthesis engine reduces a circuit's base model once and
//! replays every per-k BIST delta through the variable map.
//!
//! Every variable is binary, so a domain the pipeline tightens is a fixing:
//! the variable leaves the reduced model, and every variable it keeps
//! still spans its whole [0, 1] box.

use crate::error::IlpError;
use crate::expr::LinExpr;
use crate::model::{CmpOp, Model, VarId};
use crate::propagate::{Domains, PropagationResult, Propagator};
use crate::session::SolveEvent;
use crate::solution::{Improvement, Solution, Status};
use crate::solver::{BranchAndBound, SolverConfig};
use crate::sparse::SparseModel;
use crate::EPS;
use std::collections::BTreeSet;

/// Maximum number of pipeline fixpoint rounds.
const MAX_ROUNDS: usize = 8;

/// Settings of the reduce pipeline. It has none: every pass follows from
/// the rows alone (see the module docs), so a final model and a base that
/// will be extended are reduced the same way.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReduceOptions;

impl ReduceOptions {
    /// The pipeline, for a model that will be solved as-is.
    pub fn full() -> Self {
        Self
    }

    /// The pipeline, for a base model that delta rows referencing the
    /// reduced variables are appended to later (see
    /// [`ReducedModel::extend`]). The same value as [`ReduceOptions::full`].
    pub fn base() -> Self {
        Self
    }
}

/// What became of one original variable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum VarDisposition {
    /// The variable survives as reduced-model column `index`.
    Kept(usize),
    /// The variable was eliminated at this fixed value.
    Fixed(f64),
}

/// Counters describing the reductions performed by the pipeline.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReduceReport {
    /// Variables in the (prefix of the) original model.
    pub original_vars: usize,
    /// Rows in the (prefix of the) original model.
    pub original_rows: usize,
    /// Variables eliminated at a propagation-forced value.
    pub fixed_vars: usize,
    /// Rows dropped as redundant over the propagated box.
    pub redundant_rows: usize,
    /// Set-packing rows dropped because a wider row dominates them.
    pub dominated_rows: usize,
    /// Aggregated implication rows replaced by per-term implications.
    pub disaggregated_rows: usize,
    /// Coefficients strengthened by the tightening pass.
    pub tightened_coefficients: usize,
    /// Pipeline rounds executed before the fixpoint (or the round cap).
    pub rounds: usize,
    /// Whether the pipeline proved the model infeasible.
    pub infeasible: bool,
}

impl ReduceReport {
    /// Fraction of original variables eliminated, in `[0, 1]`.
    pub fn var_reduction_ratio(&self) -> f64 {
        if self.original_vars == 0 {
            return 0.0;
        }
        self.fixed_vars as f64 / self.original_vars as f64
    }
}

/// A reduced model together with the maps back to the original indexing.
///
/// `model` is a self-contained [`Model`]; the solver kernels (propagation,
/// simplex, branching, cuts) consume its sparse image exactly as they would
/// the original's. `var_map`/`row_map` record where every original variable
/// and row went, and [`ReducedModel::lift`] round-trips solutions.
#[derive(Debug, Clone)]
pub struct ReducedModel {
    /// The reduced model.
    pub model: Model,
    /// Counters of the reductions that produced this model.
    pub report: ReduceReport,
    dispositions: Vec<VarDisposition>,
    /// Reduced column index -> original variable index.
    kept: Vec<usize>,
    /// Original row index -> reduced row index (`None` when removed).
    row_map: Vec<Option<usize>>,
    /// Dimensions of the prefix this reduction was computed from.
    prefix_vars: usize,
    prefix_rows: usize,
}

impl ReducedModel {
    /// Disposition of every original variable, indexed by original index.
    pub fn var_map(&self) -> &[VarDisposition] {
        &self.dispositions
    }

    /// Reduced row index of every original row (`None` when removed).
    pub fn row_map(&self) -> &[Option<usize>] {
        &self.row_map
    }

    /// Number of original variables covered by [`ReducedModel::var_map`]
    /// (and the length of [`ReducedModel::lift`]'s output).
    pub fn original_vars(&self) -> usize {
        self.dispositions.len()
    }

    /// Number of original rows covered by [`ReducedModel::row_map`].
    pub fn original_rows(&self) -> usize {
        self.row_map.len()
    }

    /// Maps a reduced-space assignment back to the original indexing:
    /// kept variables copy their value and fixed variables take their fixed
    /// value.
    ///
    /// # Panics
    ///
    /// Panics if `reduced_values` is shorter than the reduced model's
    /// variable count.
    pub fn lift(&self, reduced_values: &[f64]) -> Vec<f64> {
        self.dispositions
            .iter()
            .map(|disposition| match *disposition {
                VarDisposition::Kept(r) => reduced_values[r],
                VarDisposition::Fixed(v) => v,
            })
            .collect()
    }

    /// Projects an original-space assignment onto the reduced variables, for
    /// warm starts. Returns `None` when the assignment contradicts a fixed
    /// value: every fixing is implied by the rows, so such an assignment is
    /// infeasible for the original model.
    pub fn project(&self, original_values: &[f64]) -> Option<Vec<f64>> {
        if original_values.len() != self.dispositions.len() {
            return None;
        }
        let mut out = vec![0.0; self.kept.len()];
        for (&value, disposition) in original_values.iter().zip(&self.dispositions) {
            match *disposition {
                VarDisposition::Kept(r) => out[r] = value,
                VarDisposition::Fixed(v) => {
                    if (value - v).abs() > 1e-6 {
                        return None;
                    }
                }
            }
        }
        Some(out)
    }

    /// Builds a new reduced model for `full`, a model whose first
    /// `prefix_rows`/`prefix_vars` are exactly the prefix this reduction was
    /// computed from: the reduced prefix is cloned, the delta variables and
    /// rows are appended with every term translated through the variable map
    /// (terms on fixed variables fold into the right-hand side), and the
    /// objective of `full` is mapped the same way.
    ///
    /// This is the synthesis engine's per-k path: reduce the circuit base
    /// once, then replay each BIST delta through the map.
    ///
    /// # Errors
    ///
    /// Returns [`IlpError::UnknownVariable`] if `full` is smaller than the
    /// reduced prefix.
    pub fn extend(&self, full: &Model) -> Result<ReducedModel, IlpError> {
        if full.num_vars() < self.prefix_vars || full.num_constraints() < self.prefix_rows {
            return Err(IlpError::UnknownVariable {
                index: self.prefix_vars,
                len: full.num_vars(),
            });
        }
        let mut out = self.clone();

        // Delta variables are appended unchanged and always kept.
        for def in &full.vars()[self.prefix_vars..] {
            let reduced_index = out.model.add_binary(def.name.clone());
            out.kept.push(out.dispositions.len());
            out.dispositions
                .push(VarDisposition::Kept(reduced_index.index()));
        }

        // Delta rows travel through the variable map.
        for constraint in &full.constraints()[self.prefix_rows..] {
            let mut expr = LinExpr::new();
            let mut rhs = constraint.rhs;
            for (var, coeff) in constraint.expr.iter() {
                match map_var(&out.dispositions, var)? {
                    VarDisposition::Kept(r) => {
                        expr.add_term(VarId(r), coeff);
                    }
                    VarDisposition::Fixed(v) => rhs -= coeff * v,
                }
            }
            let index = out
                .model
                .add_constraint(expr, constraint.op, rhs, constraint.name.clone());
            out.row_map.push(Some(index));
        }

        // Objective: kept terms map, fixed terms fold into the constant.
        let mut objective = LinExpr::constant(full.objective().offset());
        for (var, coeff) in full.objective().iter() {
            match map_var(&out.dispositions, var)? {
                VarDisposition::Kept(r) => {
                    objective.add_term(VarId(r), coeff);
                }
                VarDisposition::Fixed(v) => {
                    objective.add_constant(coeff * v);
                }
            }
        }
        out.model.set_objective(objective, full.sense());

        out.prefix_vars = full.num_vars();
        out.prefix_rows = full.num_constraints();
        out.report.original_vars = full.num_vars();
        out.report.original_rows = full.num_constraints();
        Ok(out)
    }

    /// Chains a second reduction: `second` must have been computed (with
    /// [`reduce`]) from `self.model`. The result maps the *original* space
    /// straight to `second`'s reduced model, so one [`ReducedModel::lift`] /
    /// [`ReducedModel::project`] crosses both reductions. This is how the
    /// per-k solve composes the shared base reduction with one more pipeline
    /// pass over the extended (base + BIST delta) model.
    ///
    /// # Panics
    ///
    /// Panics if `second` does not cover `self.model` (variable or row
    /// counts disagree).
    pub fn compose(&self, second: ReducedModel) -> ReducedModel {
        assert_eq!(
            second.original_vars(),
            self.model.num_vars(),
            "second reduction was not computed from this reduced model"
        );
        assert_eq!(second.original_rows(), self.model.num_constraints());

        let dispositions: Vec<VarDisposition> = self
            .dispositions
            .iter()
            .map(|d| match *d {
                VarDisposition::Kept(r) => second.dispositions[r],
                fixed => fixed,
            })
            .collect();
        let kept: Vec<usize> = second.kept.iter().map(|&r| self.kept[r]).collect();
        let row_map: Vec<Option<usize>> = self
            .row_map
            .iter()
            .map(|entry| entry.and_then(|r| second.row_map[r]))
            .collect();

        let report = ReduceReport {
            original_vars: self.report.original_vars,
            original_rows: self.report.original_rows,
            fixed_vars: self.report.fixed_vars + second.report.fixed_vars,
            redundant_rows: self.report.redundant_rows + second.report.redundant_rows,
            dominated_rows: self.report.dominated_rows + second.report.dominated_rows,
            disaggregated_rows: self.report.disaggregated_rows + second.report.disaggregated_rows,
            tightened_coefficients: self.report.tightened_coefficients
                + second.report.tightened_coefficients,
            rounds: self.report.rounds + second.report.rounds,
            infeasible: self.report.infeasible || second.report.infeasible,
        };

        ReducedModel {
            model: second.model,
            report,
            dispositions,
            kept,
            row_map,
            prefix_vars: self.prefix_vars,
            prefix_rows: self.prefix_rows,
        }
    }
}

/// The disposition of `var`, or [`IlpError::UnknownVariable`] when the map
/// does not cover it.
fn map_var(dispositions: &[VarDisposition], var: VarId) -> Result<VarDisposition, IlpError> {
    dispositions
        .get(var.index())
        .copied()
        .ok_or(IlpError::UnknownVariable {
            index: var.index(),
            len: dispositions.len(),
        })
}

/// Runs the pipeline on a complete model, objective included. `options`
/// holds no setting (see [`ReduceOptions`]).
pub fn reduce(model: &Model, _options: &ReduceOptions) -> ReducedModel {
    run_pipeline(model, model.num_constraints(), model.num_vars(), true)
}

thread_local! {
    static PREFIX_REDUCTIONS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Number of [`reduce_prefix`] runs performed by the *current thread* since
/// it started. `bist-core`'s engine tests read the delta of this counter
/// around an engine sweep to verify — rather than assume — that the shared
/// base model is reduced exactly once per circuit and never again per k.
/// Work done on other threads (a parallel sweep's workers) is not counted.
pub fn prefix_reductions_on_thread() -> usize {
    PREFIX_REDUCTIONS.with(|c| c.get())
}

/// Runs the pipeline on the first `prefix_rows` rows / `prefix_vars`
/// variables of `model` only, ignoring the objective. The result can be
/// [`ReducedModel::extend`]ed with the remaining (or later-added) rows.
/// `options` holds no setting (see [`ReduceOptions`]).
///
/// # Panics
///
/// Panics if the prefix rows reference variables outside the prefix.
pub fn reduce_prefix(
    model: &Model,
    prefix_rows: usize,
    prefix_vars: usize,
    _options: &ReduceOptions,
) -> ReducedModel {
    PREFIX_REDUCTIONS.with(|c| c.set(c.get() + 1));
    run_pipeline(model, prefix_rows, prefix_vars, false)
}

/// One working row of the pipeline.
#[derive(Debug, Clone)]
struct WorkRow {
    terms: Vec<(usize, f64)>,
    op: CmpOp,
    rhs: f64,
    name: String,
    alive: bool,
}

impl WorkRow {
    /// Activity range of the live terms over the box.
    fn activity(&self, domains: &Domains) -> (f64, f64) {
        let mut min = 0.0;
        let mut max = 0.0;
        for &(i, a) in &self.terms {
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

    fn is_redundant(&self, domains: &Domains) -> bool {
        let (min_act, max_act) = self.activity(domains);
        match self.op {
            CmpOp::Le => max_act <= self.rhs + EPS,
            CmpOp::Ge => min_act >= self.rhs - EPS,
            CmpOp::Eq => (min_act - self.rhs).abs() <= EPS && (max_act - self.rhs).abs() <= EPS,
        }
    }
}

fn run_pipeline(
    model: &Model,
    prefix_rows: usize,
    prefix_vars: usize,
    with_objective: bool,
) -> ReducedModel {
    let mut report = ReduceReport {
        original_vars: prefix_vars,
        original_rows: prefix_rows,
        ..ReduceReport::default()
    };
    let mut domains = Domains::from_model(model);
    let mut rows: Vec<WorkRow> = model.constraints()[..prefix_rows]
        .iter()
        .map(|c| WorkRow {
            terms: c.expr.iter().map(|(v, a)| (v.index(), a)).collect(),
            op: c.op,
            rhs: c.rhs,
            name: c.name.clone(),
            alive: true,
        })
        .collect();

    for _ in 0..MAX_ROUNDS {
        report.rounds += 1;
        let mut changed = false;

        // 1. Propagate the live rows to a fixpoint; forced variables become
        // eliminations at finalisation time.
        let matrix = SparseModel::from_rows(
            model.num_vars(),
            rows.iter()
                .filter(|r| r.alive)
                .map(|r| (r.terms.iter().copied(), r.op, r.rhs)),
        );
        let propagator = Propagator::from_matrix(matrix);
        if propagator.propagate(&mut domains) == PropagationResult::Infeasible {
            report.infeasible = true;
            break;
        }

        // 2. Redundant rows. Only rows of the original prefix count in the
        // report; rows appended by disaggregation are bookkeeping-free.
        for (row_index, row) in rows.iter_mut().enumerate().filter(|(_, r)| r.alive) {
            if row.is_redundant(&domains) {
                row.alive = false;
                if row_index < prefix_rows {
                    report.redundant_rows += 1;
                }
                changed = true;
            }
        }

        // 3. Dominated packing rows on the ≤ 1 assignment structure.
        changed |= drop_dominated_packing_rows(&mut rows, &domains, &mut report);

        // 4. Coefficient tightening.
        for row in rows.iter_mut().filter(|r| r.alive) {
            let tightened = tighten_row(row, &domains);
            if tightened > 0 {
                report.tightened_coefficients += tightened;
                changed = true;
            }
        }

        // 5. Implication disaggregation.
        changed |= disaggregate(&mut rows, &domains, &mut report);

        if !changed {
            break;
        }
    }

    finalize(
        model,
        prefix_rows,
        prefix_vars,
        with_objective,
        domains,
        rows,
        report,
    )
}

/// Drops set-packing rows whose support lies inside a wider packing or
/// partitioning row.
fn drop_dominated_packing_rows(
    rows: &mut [WorkRow],
    domains: &Domains,
    report: &mut ReduceReport,
) -> bool {
    // Packing rows: Σ x ≤ 1 with unit coefficients over unfixed binaries
    // (terms on variables fixed at 0 vanish; a member fixed at 1 forces the
    // rest to 0 and the row dies in the redundancy pass instead).
    // Partitioning rows (Σ x = 1) dominate but are never dropped.
    let unit_support = |row: &WorkRow| -> Option<BTreeSet<usize>> {
        if row.terms.is_empty() || (row.rhs - 1.0).abs() > EPS {
            return None;
        }
        let mut support = BTreeSet::new();
        for &(j, a) in &row.terms {
            if (a - 1.0).abs() > EPS {
                return None;
            }
            if domains.is_fixed(j) {
                if domains.fixed_value(j).unwrap_or(0.0).abs() > EPS {
                    return None;
                }
                continue;
            }
            support.insert(j);
        }
        Some(support)
    };
    let mut packing: Vec<(usize, BTreeSet<usize>)> = Vec::new();
    let mut dominators: Vec<BTreeSet<usize>> = Vec::new();
    for (i, row) in rows.iter().enumerate().filter(|(_, r)| r.alive) {
        match row.op {
            CmpOp::Le => {
                if let Some(s) = unit_support(row) {
                    if s.len() >= 2 {
                        packing.push((i, s));
                    }
                }
            }
            CmpOp::Eq => {
                if let Some(s) = unit_support(row) {
                    dominators.push(s);
                }
            }
            CmpOp::Ge => {}
        }
    }

    // Dominance: a packing row implied by a wider packing/partitioning row.
    let mut changed = false;
    let mut dead: Vec<bool> = vec![false; packing.len()];
    for a in 0..packing.len() {
        let dominated_by_eq = dominators.iter().any(|d| packing[a].1.is_subset(d));
        if dominated_by_eq {
            dead[a] = true;
        } else {
            for b in 0..packing.len() {
                if a == b || dead[b] {
                    continue;
                }
                let subset = packing[a].1.is_subset(&packing[b].1);
                // On equal supports keep the earlier row.
                if subset && (packing[a].1.len() < packing[b].1.len() || b < a) {
                    dead[a] = true;
                    break;
                }
            }
        }
        if dead[a] {
            rows[packing[a].0].alive = false;
            report.dominated_rows += 1;
            changed = true;
        }
    }
    changed
}

/// Tightens the coefficients of binary variables in a knapsack-style row.
/// Returns how many coefficients were strengthened.
fn tighten_row(row: &mut WorkRow, domains: &Domains) -> usize {
    let sign = match row.op {
        CmpOp::Le => 1.0,
        CmpOp::Ge => -1.0,
        CmpOp::Eq => return 0,
    };
    let mut tightened = 0;
    loop {
        // Normalised view: Σ (sign·a_i)·x_i ≤ sign·rhs. `umax - rhs` is
        // invariant under each application, so every term tightens at most
        // once and the loop terminates.
        let (min_act, max_act) = row.activity(domains);
        let (umax, rhs) = if sign > 0.0 {
            (max_act, row.rhs)
        } else {
            (-min_act, -row.rhs)
        };
        if umax <= rhs + EPS {
            return tightened; // redundant; the row pass will drop it
        }
        let mut applied = false;
        for t in 0..row.terms.len() {
            let (j, raw) = row.terms[t];
            let a = sign * raw;
            if domains.is_fixed(j) || a <= EPS {
                continue;
            }
            if umax - a <= rhs + EPS && umax > rhs + EPS {
                let new_a = umax - rhs;
                let new_rhs = umax - a;
                if new_a < a - 1e-9 {
                    row.terms[t].1 = sign * new_a;
                    row.rhs = sign * new_rhs;
                    tightened += 1;
                    applied = true;
                    break;
                }
            }
        }
        if !applied {
            return tightened;
        }
    }
}

/// Replaces aggregated implication rows by their per-term implications.
///
/// In the ≤-normalised view `Σ cᵢ·xᵢ ≤ 0` over unfixed binaries:
///
/// * exactly one negative term `−M·y` and positives with `Σ aᵢ ≤ M`
///   (`Σ aᵢ·xᵢ ≤ M·y`, the big-M OR "up" rows) becomes `xᵢ ≤ y` per term;
/// * exactly one positive term `M·y` and negatives with `Σ aᵢ = M` and
///   `Σ aᵢ − min aᵢ < M` (`M·y ≤ Σ aᵢ·xᵢ`, the AND rows) becomes `y ≤ xᵢ`.
///
/// Both replacements keep the 0-1 solution set and strictly tighten the LP
/// relaxation, which is where the aggregated rows hurt: the relaxation could
/// park the indicator at `Σ/M` instead of at the maximum (minimum) of its
/// terms.
fn disaggregate(rows: &mut Vec<WorkRow>, domains: &Domains, report: &mut ReduceReport) -> bool {
    let mut appended: Vec<WorkRow> = Vec::new();
    let mut changed = false;
    for row in rows.iter_mut().filter(|r| r.alive) {
        let sign = match row.op {
            CmpOp::Le => 1.0,
            CmpOp::Ge => -1.0,
            CmpOp::Eq => continue,
        };
        if (sign * row.rhs).abs() > EPS {
            continue;
        }
        // Split the live terms of the normalised view; skip the row if any
        // term sits on a fixed variable with a non-zero value (propagation
        // will simplify it first) or has a vanishing coefficient.
        let mut positives: Vec<(usize, f64)> = Vec::new();
        let mut negatives: Vec<(usize, f64)> = Vec::new();
        let mut eligible = true;
        for &(j, raw) in &row.terms {
            let c = sign * raw;
            if domains.is_fixed(j) {
                if domains.fixed_value(j).unwrap_or(0.0).abs() > EPS {
                    eligible = false;
                    break;
                }
                continue; // fixed at zero: the term vanishes
            }
            if c.abs() <= EPS {
                eligible = false;
                break;
            }
            if c > 0.0 {
                positives.push((j, c));
            } else {
                negatives.push((j, -c));
            }
        }
        if !eligible {
            continue;
        }
        let (indicator, indicator_first, terms) = if negatives.len() == 1 && positives.len() >= 2 {
            // Σ aᵢ·xᵢ ≤ M·y: xᵢ = 1 forces y = 1; equivalent when Σ aᵢ ≤ M.
            let (y, m) = negatives[0];
            let total: f64 = positives.iter().map(|&(_, a)| a).sum();
            if total > m + EPS {
                continue;
            }
            (y, false, positives)
        } else if positives.len() == 1 && negatives.len() >= 2 {
            // M·y ≤ Σ aᵢ·xᵢ: equivalent to y ≤ xᵢ when Σ aᵢ = M and no
            // single term can be dropped without falling below M.
            let (y, m) = positives[0];
            let total: f64 = negatives.iter().map(|&(_, a)| a).sum();
            let min = negatives
                .iter()
                .map(|&(_, a)| a)
                .fold(f64::INFINITY, f64::min);
            if (total - m).abs() > EPS || total - min >= m - EPS {
                continue;
            }
            (y, true, negatives)
        } else {
            continue;
        };
        row.alive = false;
        report.disaggregated_rows += 1;
        changed = true;
        for (index, (x, _)) in terms.into_iter().enumerate() {
            // `x − y ≤ 0` (up rows) or `y − x ≤ 0` (and rows).
            let (first, second) = if indicator_first {
                (indicator, x)
            } else {
                (x, indicator)
            };
            appended.push(WorkRow {
                terms: vec![(first, 1.0), (second, -1.0)],
                op: CmpOp::Le,
                rhs: 0.0,
                name: format!("{}_dis{}", row.name, index),
                alive: true,
            });
        }
    }
    rows.extend(appended);
    changed
}

fn finalize(
    model: &Model,
    prefix_rows: usize,
    prefix_vars: usize,
    with_objective: bool,
    domains: Domains,
    rows: Vec<WorkRow>,
    mut report: ReduceReport,
) -> ReducedModel {
    let mut reduced = Model::new(format!("{}_reduced", model.name()));
    let mut dispositions: Vec<VarDisposition> = Vec::with_capacity(prefix_vars);
    let mut kept: Vec<usize> = Vec::new();
    for (j, def) in model.vars()[..prefix_vars].iter().enumerate() {
        if domains.is_fixed(j) {
            let value = domains.fixed_value(j).unwrap_or(domains.lower(j));
            dispositions.push(VarDisposition::Fixed(value));
            report.fixed_vars += 1;
            continue;
        }
        // An unfixed binary still spans its whole [0, 1] box.
        let id = reduced.add_binary(def.name.clone());
        dispositions.push(VarDisposition::Kept(id.index()));
        kept.push(j);
    }

    // The first `prefix_rows` entries are the original rows (tracked in the
    // row map); anything beyond was appended by disaggregation.
    let mut row_map: Vec<Option<usize>> = Vec::with_capacity(prefix_rows);
    for (row_index, row) in rows.iter().enumerate() {
        let original = row_index < prefix_rows;
        if !row.alive {
            if original {
                row_map.push(None);
            }
            continue;
        }
        let mut expr = LinExpr::new();
        let mut rhs = row.rhs;
        for &(j, a) in &row.terms {
            match dispositions[j] {
                VarDisposition::Kept(r) => {
                    expr.add_term(VarId(r), a);
                }
                VarDisposition::Fixed(v) => rhs -= a * v,
            }
        }
        if expr.is_empty() {
            // All terms were eliminated: the row is either vacuous or proof
            // of infeasibility.
            let satisfied = match row.op {
                CmpOp::Le => 0.0 <= rhs + EPS,
                CmpOp::Ge => 0.0 >= rhs - EPS,
                CmpOp::Eq => rhs.abs() <= EPS,
            };
            if !satisfied {
                report.infeasible = true;
            }
            if original {
                report.redundant_rows += 1;
                row_map.push(None);
            }
            continue;
        }
        let index = reduced.add_constraint(expr, row.op, rhs, row.name.clone());
        if original {
            row_map.push(Some(index));
        }
    }

    // Kept terms map in ascending variable order; fixed terms fold into the
    // constant.
    if with_objective {
        let mut objective = LinExpr::constant(model.objective().offset());
        for (var, c) in model.objective().iter() {
            match dispositions[var.index()] {
                VarDisposition::Kept(r) => {
                    objective.add_term(VarId(r), c);
                }
                VarDisposition::Fixed(v) => {
                    objective.add_constant(c * v);
                }
            }
        }
        reduced.set_objective(objective, model.sense());
    }

    ReducedModel {
        model: reduced,
        report,
        dispositions,
        kept,
        row_map,
        prefix_vars,
        prefix_rows,
    }
}

/// Solves `reduced` (a reduction of `original`) and lifts the result back to
/// the original variable indexing: warm-start candidates are projected into
/// the reduced space, the branch and bound runs on the reduced model (cut
/// pool included, per the configuration), and the returned [`Solution`]
/// carries original-space values and the original-space objective. This is
/// the one solve path: [`Model::solve`] and the synthesis engine both end
/// here.
///
/// `sink`, when given, receives the live [`SolveEvent`] stream of the
/// search and, last, the solve's one [`SolveEvent::Done`]. Incumbent
/// objectives streamed from the reduced search match the lifted
/// original-space objectives (the reduction folds eliminated terms into the
/// objective constant), so observers never see reduced-space values.
///
/// When the reduction decided every variable, the solve is skipped entirely
/// and the lifted assignment is returned as optimal with a root (`nodes = 0`)
/// incumbent improvement, so time-to-target metrics see root-solved
/// instances.
///
/// # Errors
///
/// Propagates structural solver errors, exactly like [`Model::solve`].
pub fn solve_reduced_with_events(
    original: &Model,
    reduced: &ReducedModel,
    config: &SolverConfig,
    mut sink: Option<&mut dyn FnMut(&SolveEvent)>,
) -> Result<Solution, IlpError> {
    let solution = solve_and_lift(original, reduced, config, &mut sink)?;
    if let Some(sink) = sink {
        sink(&SolveEvent::done(&solution));
    }
    Ok(solution)
}

/// [`solve_reduced_with_events`] up to, but without, the final
/// [`SolveEvent::Done`].
fn solve_and_lift(
    original: &Model,
    reduced: &ReducedModel,
    config: &SolverConfig,
    sink: &mut Option<&mut dyn FnMut(&SolveEvent)>,
) -> Result<Solution, IlpError> {
    let vars_removed = reduced
        .original_vars()
        .saturating_sub(reduced.model.num_vars()) as u64;
    // Count the *original* rows the pipeline eliminated or replaced, not the
    // net size delta: disaggregation replaces one aggregated row with several
    // implications, which would otherwise mask genuine removals (or clamp
    // the stat to zero entirely).
    let rows_removed = (reduced.report.redundant_rows
        + reduced.report.dominated_rows
        + reduced.report.disaggregated_rows) as u64;

    if reduced.report.infeasible {
        let stats = crate::solution::SolveStats {
            best_bound: f64::INFINITY,
            gap: f64::INFINITY,
            presolve_vars_removed: vars_removed,
            presolve_rows_removed: rows_removed,
            ..Default::default()
        };
        return Ok(Solution::without_values(Status::Infeasible, stats));
    }

    if reduced.model.num_vars() == 0 {
        // The pipeline decided everything at the root.
        let lifted = reduced.lift(&[]);
        let objective = original.objective_value(&lifted);
        let stats = crate::solution::SolveStats {
            best_bound: objective,
            presolve_vars_removed: vars_removed,
            presolve_rows_removed: rows_removed,
            improvements: vec![Improvement {
                nodes: 0,
                seconds: 0.0,
                objective,
                source: "presolve",
            }],
            ..Default::default()
        };
        if let Some(sink) = sink.as_mut() {
            sink(&SolveEvent::Incumbent {
                nodes: 0,
                objective,
            });
        }
        return Ok(Solution::new(Status::Optimal, lifted, objective, stats));
    }

    let mut inner_config = config.clone();
    inner_config.initial_solutions = config
        .initial_solutions
        .iter()
        .filter_map(|v| reduced.project(v))
        .collect();

    let mut search = BranchAndBound::new(&reduced.model, inner_config);
    if let Some(sink) = sink.as_mut() {
        search = search.with_event_sink(&mut **sink);
    }
    let inner = search.run()?;
    let mut stats = inner.stats().clone();
    stats.presolve_vars_removed = vars_removed;
    stats.presolve_rows_removed = rows_removed;
    let status = inner.status();
    // The snapshot (if any) describes the *reduced* instance and survives
    // the lift as-is: resuming re-runs the same deterministic reduction,
    // so the snapshot meets the very tree it was captured from.
    let snapshot = inner.shared_snapshot();
    // `is_feasible` (not `has_solution`): an interrupted inner search still
    // carries its best incumbent, which must survive the lift.
    if inner.is_feasible() {
        let lifted = reduced.lift(inner.values());
        let objective = original.objective_value(&lifted);
        Ok(Solution::new(status, lifted, objective, stats).with_snapshot(snapshot))
    } else {
        Ok(Solution::without_values(status, stats).with_snapshot(snapshot))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Sense;

    fn solve_both(model: &Model) -> (Solution, Solution) {
        let raw = BranchAndBound::new(
            model,
            SolverConfig {
                cuts: false,
                ..SolverConfig::exact()
            },
        )
        .run()
        .unwrap();
        let reduced = reduce(model, &ReduceOptions::full());
        let via = solve_reduced_with_events(model, &reduced, &SolverConfig::exact(), None).unwrap();
        (raw, via)
    }

    #[test]
    fn fixed_variables_are_eliminated_and_lifted() {
        let mut m = Model::new("m");
        let x = m.add_binary("x");
        let y = m.add_binary("y");
        let z = m.add_binary("z");
        m.add_geq([(x, 1.0)], 1.0, "fix_x");
        m.add_leq([(x, 1.0), (y, 1.0)], 1.0, "x_excludes_y");
        m.add_leq([(x, 1.0), (z, 1.0)], 1.0, "x_excludes_z");
        m.add_leq([(z, 1.0)], 1.0, "slack");
        m.set_objective([(z, 1.0)], Sense::Minimize);
        let reduced = reduce(&m, &ReduceOptions::full());
        assert!(!reduced.report.infeasible);
        // Propagation alone decides every variable: x = 1, which forces
        // y = 0 and z = 0; every row is then redundant.
        assert_eq!(reduced.model.num_vars(), 0);
        assert_eq!(reduced.model.num_constraints(), 0);
        assert_eq!(reduced.report.fixed_vars, 3);
        assert!(matches!(
            reduced.var_map()[x.index()],
            VarDisposition::Fixed(v) if (v - 1.0).abs() < 1e-9
        ));
        for var in [y, z] {
            assert!(matches!(
                reduced.var_map()[var.index()],
                VarDisposition::Fixed(v) if v.abs() < 1e-9
            ));
        }
        let sol = solve_reduced_with_events(&m, &reduced, &SolverConfig::exact(), None).unwrap();
        assert!(sol.is_optimal());
        assert_eq!(sol.values(), &[1.0, 0.0, 0.0]);
        assert_eq!(sol.objective(), 0.0);
        assert_eq!(sol.stats().improvements.len(), 1);
        assert_eq!(sol.stats().improvements[0].nodes, 0);
    }

    #[test]
    fn reduced_solve_matches_raw_solve() {
        // A small model exercising fixing, redundancy and tightening at once.
        let mut m = Model::new("m");
        let a = m.add_binary("a");
        let b = m.add_binary("b");
        let c = m.add_binary("c");
        let d = m.add_binary("d");
        m.add_leq([(a, 3.0), (b, 2.0), (c, 2.0)], 4.0, "cap");
        m.add_leq([(a, 1.0), (d, 1.0)], 1.0, "pack");
        m.add_geq([(b, 1.0), (c, 1.0), (d, 1.0)], 1.0, "cover");
        m.set_objective(
            [(a, -6.0), (b, -5.0), (c, -4.0), (d, -1.0)],
            Sense::Minimize,
        );
        let (raw, via) = solve_both(&m);
        assert!(raw.is_optimal() && via.is_optimal());
        assert!((raw.objective() - via.objective()).abs() < 1e-6);
        assert!(m.is_feasible(via.values(), 1e-6));
    }

    #[test]
    fn dominated_packing_rows_are_dropped() {
        let mut m = Model::new("m");
        let x = m.add_binary("x");
        let y = m.add_binary("y");
        let z = m.add_binary("z");
        m.add_leq([(x, 1.0), (y, 1.0)], 1.0, "small");
        m.add_leq([(x, 1.0), (y, 1.0), (z, 1.0)], 1.0, "wide");
        m.set_objective([(x, -1.0), (y, -1.0), (z, -1.0)], Sense::Minimize);
        let reduced = reduce(&m, &ReduceOptions::full());
        assert!(reduced.report.dominated_rows >= 1);
        assert_eq!(reduced.model.num_constraints(), 1);
        assert_eq!(reduced.row_map()[0], None);
        let sol = solve_reduced_with_events(&m, &reduced, &SolverConfig::exact(), None).unwrap();
        assert!(sol.is_optimal());
        assert!((sol.objective() + 1.0).abs() < 1e-9);
    }

    #[test]
    fn coefficient_tightening_preserves_integer_solutions() {
        // 3x + 3y ≤ 5 over binaries has the same 0-1 points as x + y ≤ 1 but
        // a weaker LP relaxation; tightening must strengthen the row.
        let mut m = Model::new("m");
        let x = m.add_binary("x");
        let y = m.add_binary("y");
        m.add_leq([(x, 3.0), (y, 3.0)], 5.0, "knap");
        m.set_objective([(x, -2.0), (y, -1.0)], Sense::Minimize);
        let reduced = reduce(&m, &ReduceOptions::full());
        assert!(reduced.report.tightened_coefficients >= 1);
        let row = &reduced.model.constraints()[0];
        let max_activity: f64 = row.expr.iter().map(|(_, c)| c.max(0.0)).sum();
        assert!(
            max_activity <= row.rhs + 1.0 + 1e-9,
            "tightened to a clique"
        );
        let sol = solve_reduced_with_events(&m, &reduced, &SolverConfig::exact(), None).unwrap();
        assert!(sol.is_optimal());
        assert!((sol.objective() + 2.0).abs() < 1e-9);
    }

    #[test]
    fn infeasible_models_are_detected() {
        let mut m = Model::new("m");
        let x = m.add_binary("x");
        m.add_geq([(x, 1.0)], 1.0, "up");
        m.add_leq([(x, 1.0)], 0.0, "down");
        m.set_objective([(x, 1.0)], Sense::Minimize);
        let reduced = reduce(&m, &ReduceOptions::full());
        assert!(reduced.report.infeasible);
        let sol = solve_reduced_with_events(&m, &reduced, &SolverConfig::exact(), None).unwrap();
        assert_eq!(sol.status(), Status::Infeasible);
    }

    #[test]
    fn base_reduction_extends_with_delta_rows() {
        // Base: x fixed by its rows, y free. Delta references both x (fixed)
        // and a new variable.
        let mut m = Model::new("m");
        let x = m.add_binary("x");
        let y = m.add_binary("y");
        m.add_geq([(x, 1.0)], 1.0, "fix_x");
        let base = reduce_prefix(
            &m,
            m.num_constraints(),
            m.num_vars(),
            &ReduceOptions::base(),
        );
        assert!(matches!(
            base.var_map()[x.index()],
            VarDisposition::Fixed(_)
        ));
        assert!(matches!(base.var_map()[y.index()], VarDisposition::Kept(_)));

        // The delta adds z and the row x + y + z ≥ 2 (⇒ y + z ≥ 1).
        let z = m.add_binary("z");
        m.add_geq([(x, 1.0), (y, 1.0), (z, 1.0)], 2.0, "delta");
        m.set_objective([(y, 1.0), (z, 2.0)], Sense::Minimize);
        let extended = base.extend(&m).unwrap();
        assert_eq!(extended.original_vars(), 3);
        assert_eq!(extended.model.num_vars(), 2); // y and z
        let delta_row = extended.model.constraints().last().unwrap();
        assert!((delta_row.rhs - 1.0).abs() < 1e-9, "x folded into the rhs");
        let sol = solve_reduced_with_events(&m, &extended, &SolverConfig::exact(), None).unwrap();
        assert!(sol.is_optimal());
        assert!((sol.objective() - 1.0).abs() < 1e-9); // y = 1, z = 0
        assert_eq!(sol.values(), &[1.0, 1.0, 0.0]);
    }

    #[test]
    fn projection_rejects_contradicting_warm_starts() {
        let mut m = Model::new("m");
        let x = m.add_binary("x");
        let y = m.add_binary("y");
        m.add_geq([(x, 1.0)], 1.0, "fix_x");
        m.add_leq([(y, 1.0)], 1.0, "slack");
        m.set_objective([(y, 1.0)], Sense::Minimize);
        let reduced = reduce(&m, &ReduceOptions::base());
        assert!(reduced.project(&[0.0, 1.0]).is_none(), "x must be 1");
        let projected = reduced.project(&[1.0, 1.0]).unwrap();
        assert_eq!(projected.len(), reduced.model.num_vars());
    }

    #[test]
    fn report_ratios_are_bounded() {
        let mut m = Model::new("m");
        let x = m.add_binary("x");
        m.add_geq([(x, 1.0)], 1.0, "fix");
        m.set_objective([(x, 1.0)], Sense::Minimize);
        let reduced = reduce(&m, &ReduceOptions::full());
        let report = &reduced.report;
        assert!(report.var_reduction_ratio() > 0.0);
        assert!(report.var_reduction_ratio() <= 1.0);
        assert!(report.rounds >= 1);
    }
}
