//! Model builder: variables, linear constraints and the objective.

use crate::error::IlpError;
use crate::expr::LinExpr;
use crate::reduce::{self, ReduceOptions};
use crate::session::SolveEvent;
use crate::solution::Solution;
use crate::solver::SolverConfig;

/// Opaque handle to a model variable.
///
/// `VarId`s are created by the `add_*` methods of [`Model`] and are only
/// meaningful for the model that created them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(pub(crate) usize);

impl VarId {
    /// The dense index of the variable inside its model.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Definition of one model variable. Every variable is binary: it takes
/// the value 0 or 1.
#[derive(Debug, Clone, PartialEq)]
pub struct VarDef {
    /// Human readable name, used in `.lp` output and diagnostics.
    pub name: String,
    /// Objective coefficient (filled in by [`Model::set_objective`]).
    pub objective: f64,
}

/// Comparison operator of a linear constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `expr <= rhs`
    Le,
    /// `expr >= rhs`
    Ge,
    /// `expr == rhs`
    Eq,
}

impl CmpOp {
    /// ASCII rendering used by the `.lp` writer.
    pub fn as_str(self) -> &'static str {
        match self {
            CmpOp::Le => "<=",
            CmpOp::Ge => ">=",
            CmpOp::Eq => "=",
        }
    }
}

/// A linear constraint `expr (<=,>=,=) rhs`.
#[derive(Debug, Clone, PartialEq)]
pub struct Constraint {
    /// Name for diagnostics.
    pub name: String,
    /// Left-hand-side linear expression (its constant is folded into `rhs`).
    pub expr: LinExpr,
    /// Comparison operator.
    pub op: CmpOp,
    /// Right-hand-side constant.
    pub rhs: f64,
}

impl Constraint {
    /// Whether a dense assignment satisfies the constraint within `tol`.
    pub fn is_satisfied(&self, values: &[f64], tol: f64) -> bool {
        let lhs = self.expr.evaluate(values);
        match self.op {
            CmpOp::Le => lhs <= self.rhs + tol,
            CmpOp::Ge => lhs >= self.rhs - tol,
            CmpOp::Eq => (lhs - self.rhs).abs() <= tol,
        }
    }

    /// Signed violation of the constraint (0 when satisfied).
    pub fn violation(&self, values: &[f64]) -> f64 {
        let lhs = self.expr.evaluate(values);
        match self.op {
            CmpOp::Le => (lhs - self.rhs).max(0.0),
            CmpOp::Ge => (self.rhs - lhs).max(0.0),
            CmpOp::Eq => (lhs - self.rhs).abs(),
        }
    }
}

/// Optimisation direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Sense {
    /// Minimise the objective (the default; the BIST formulations minimise area).
    #[default]
    Minimize,
    /// Maximise the objective.
    Maximize,
}

/// A 0-1 integer linear programming model.
///
/// The model owns its binary variables, constraints and objective. It is built
/// incrementally and solved with [`Model::solve`]; the same model may be
/// solved several times with different [`SolverConfig`]s.
#[derive(Debug, Clone, Default)]
pub struct Model {
    name: String,
    vars: Vec<VarDef>,
    constraints: Vec<Constraint>,
    objective: LinExpr,
    sense: Sense,
}

impl Model {
    /// Creates an empty model with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            ..Self::default()
        }
    }

    /// The model name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds a binary (0/1) variable and returns its handle.
    pub fn add_binary(&mut self, name: impl Into<String>) -> VarId {
        let id = VarId(self.vars.len());
        self.vars.push(VarDef {
            name: name.into(),
            objective: 0.0,
        });
        id
    }

    /// Number of variables in the model.
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// Number of constraints in the model.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// The variable definitions, indexed by [`VarId::index`].
    pub fn vars(&self) -> &[VarDef] {
        &self.vars
    }

    /// The constraints in insertion order.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// The objective expression (constant included).
    pub fn objective(&self) -> &LinExpr {
        &self.objective
    }

    /// The optimisation sense.
    pub fn sense(&self) -> Sense {
        self.sense
    }

    /// Definition of a single variable.
    ///
    /// # Panics
    ///
    /// Panics if `var` does not belong to this model.
    pub fn var(&self, var: VarId) -> &VarDef {
        &self.vars[var.index()]
    }

    /// Adds a generic constraint `expr op rhs`.
    ///
    /// The constant part of `expr` is moved to the right-hand side so the
    /// stored expression is homogeneous.
    pub fn add_constraint(
        &mut self,
        expr: impl Into<LinExpr>,
        op: CmpOp,
        rhs: f64,
        name: impl Into<String>,
    ) -> usize {
        let mut expr = expr.into();
        let rhs = rhs - expr.offset();
        expr.add_constant(-expr.offset());
        let index = self.constraints.len();
        self.constraints.push(Constraint {
            name: name.into(),
            expr,
            op,
            rhs,
        });
        index
    }

    /// Adds `expr <= rhs`.
    pub fn add_leq(
        &mut self,
        expr: impl Into<LinExpr>,
        rhs: f64,
        name: impl Into<String>,
    ) -> usize {
        self.add_constraint(expr, CmpOp::Le, rhs, name)
    }

    /// Adds `expr >= rhs`.
    pub fn add_geq(
        &mut self,
        expr: impl Into<LinExpr>,
        rhs: f64,
        name: impl Into<String>,
    ) -> usize {
        self.add_constraint(expr, CmpOp::Ge, rhs, name)
    }

    /// Adds `expr == rhs`.
    pub fn add_eq(&mut self, expr: impl Into<LinExpr>, rhs: f64, name: impl Into<String>) -> usize {
        self.add_constraint(expr, CmpOp::Eq, rhs, name)
    }

    /// Sets the objective from an expression and an optimisation sense.
    ///
    /// Calling this again replaces the previous objective.
    pub fn set_objective(&mut self, expr: impl Into<LinExpr>, sense: Sense) {
        let expr = expr.into();
        for def in &mut self.vars {
            def.objective = 0.0;
        }
        for (var, coeff) in expr.iter() {
            self.vars[var.index()].objective = coeff;
        }
        self.objective = expr;
        self.sense = sense;
    }

    /// Validates structural well-formedness: finite coefficients and
    /// variable indices in range.
    ///
    /// # Errors
    ///
    /// Returns the first problem encountered.
    pub fn validate(&self) -> Result<(), IlpError> {
        if !self.objective.is_finite() {
            return Err(IlpError::InvalidCoefficient {
                location: "objective".into(),
            });
        }
        if let Some(max) = self.objective.max_var_index() {
            if max >= self.vars.len() {
                return Err(IlpError::UnknownVariable {
                    index: max,
                    len: self.vars.len(),
                });
            }
        }
        for c in &self.constraints {
            if !c.expr.is_finite() || !c.rhs.is_finite() {
                return Err(IlpError::InvalidCoefficient {
                    location: c.name.clone(),
                });
            }
            if let Some(max) = c.expr.max_var_index() {
                if max >= self.vars.len() {
                    return Err(IlpError::UnknownVariable {
                        index: max,
                        len: self.vars.len(),
                    });
                }
            }
        }
        Ok(())
    }

    /// Evaluates the objective for a dense assignment.
    pub fn objective_value(&self, values: &[f64]) -> f64 {
        self.objective.evaluate(values)
    }

    /// Whether a dense assignment satisfies every constraint and puts
    /// every variable within `tol` of 0 or 1.
    pub fn is_feasible(&self, values: &[f64], tol: f64) -> bool {
        if values.len() != self.vars.len() {
            return false;
        }
        for &val in values {
            if val < -tol || val > 1.0 + tol || (val - val.round()).abs() > tol {
                return false;
            }
        }
        self.constraints.iter().all(|c| c.is_satisfied(values, tol))
    }

    /// Solves the model with the given configuration.
    ///
    /// The model is first rewritten by the reducing pipeline
    /// ([`crate::reduce`]) and the branch and bound explores the reduced
    /// model; the returned solution is lifted back to this model's variable
    /// indexing, so callers never see the reduction. Budget, cancellation
    /// and resume all travel inside `config`.
    ///
    /// # Errors
    ///
    /// Returns an error if the model is malformed; infeasibility and time
    /// limits are reported through [`Solution::status`], not as errors.
    pub fn solve(&self, config: &SolverConfig) -> Result<Solution, IlpError> {
        self.solve_with_sink(config, None)
    }

    /// [`Model::solve`] with a live [`SolveEvent`] stream: `observer` runs
    /// synchronously on the solving thread for every event, and the last
    /// event is the solve's one [`SolveEvent::Done`]. An observer that
    /// raises the configuration's [`crate::CancelToken`] stops the search
    /// with the best incumbent found so far.
    ///
    /// # Errors
    ///
    /// Same contract as [`Model::solve`].
    pub fn solve_observed(
        &self,
        config: &SolverConfig,
        observer: &mut dyn FnMut(&SolveEvent),
    ) -> Result<Solution, IlpError> {
        self.solve_with_sink(config, Some(observer))
    }

    fn solve_with_sink(
        &self,
        config: &SolverConfig,
        sink: Option<&mut dyn FnMut(&SolveEvent)>,
    ) -> Result<Solution, IlpError> {
        self.validate()?;
        let reduced = reduce::reduce(self, &ReduceOptions::full());
        reduce::solve_reduced_with_events(self, &reduced, config, sink)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn building_a_model() {
        let mut m = Model::new("m");
        let x = m.add_binary("x");
        let y = m.add_binary("y");
        assert_eq!(m.num_vars(), 2);
        assert_eq!((x.index(), y.index()), (0, 1));
        assert_eq!(m.var(y).name, "y");
        assert_eq!(m.var(x).objective, 0.0);
    }

    #[test]
    fn constraint_constant_folding() {
        let mut m = Model::new("m");
        let x = m.add_binary("x");
        let expr = LinExpr::term(x, 2.0) + LinExpr::constant(3.0);
        m.add_leq(expr, 4.0, "c");
        let c = &m.constraints()[0];
        assert_eq!(c.rhs, 1.0);
        assert_eq!(c.expr.offset(), 0.0);
    }

    #[test]
    fn validation_catches_nan_and_unknown_variables() {
        let mut m = Model::new("m");
        let x = m.add_binary("x");
        m.add_leq([(x, f64::NAN)], 1.0, "c");
        assert!(matches!(
            m.validate(),
            Err(IlpError::InvalidCoefficient { .. })
        ));

        let mut other = Model::new("other");
        other.add_binary("a");
        let b = other.add_binary("b");
        let mut m = Model::new("m");
        m.add_binary("x");
        m.add_leq([(b, 1.0)], 1.0, "c");
        assert!(matches!(
            m.validate(),
            Err(IlpError::UnknownVariable { index: 1, len: 1 })
        ));
    }

    #[test]
    fn feasibility_checker() {
        let mut m = Model::new("m");
        let x = m.add_binary("x");
        let y = m.add_binary("y");
        m.add_leq([(x, 1.0), (y, 1.0)], 1.0, "c");
        assert!(m.is_feasible(&[1.0, 0.0], 1e-9));
        assert!(!m.is_feasible(&[1.0, 1.0], 1e-9));
        assert!(!m.is_feasible(&[0.5, 0.0], 1e-9));
        // Values outside the [0, 1] box.
        assert!(!m.is_feasible(&[-1.0, 0.0], 1e-9));
        assert!(!m.is_feasible(&[0.0, 2.0], 1e-9));
        assert!(!m.is_feasible(&[1.0], 1e-9));
    }

    #[test]
    fn objective_replacement_resets_coefficients() {
        let mut m = Model::new("m");
        let x = m.add_binary("x");
        let y = m.add_binary("y");
        m.set_objective([(x, 5.0)], Sense::Minimize);
        assert_eq!(m.var(x).objective, 5.0);
        m.set_objective([(y, 2.0)], Sense::Maximize);
        assert_eq!(m.var(x).objective, 0.0);
        assert_eq!(m.var(y).objective, 2.0);
        assert_eq!(m.sense(), Sense::Maximize);
    }

    #[test]
    fn constraint_violation_metrics() {
        let mut m = Model::new("m");
        let x = m.add_binary("x");
        let idx = m.add_geq([(x, 2.0)], 1.0, "c");
        let c = &m.constraints()[idx];
        assert_eq!(c.violation(&[0.0]), 1.0);
        assert_eq!(c.violation(&[1.0]), 0.0);
    }
}
