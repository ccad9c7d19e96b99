//! The data-flow graph representation and the combined "scheduled and bound"
//! synthesis input of the paper.

use crate::binding::{Binding, ModuleId};
use crate::error::DfgError;
use crate::schedule::Schedule;

/// Index of an operation input port (0 = leftmost, as in Section 2.1 of the
/// paper).
pub type PortIndex = usize;

/// Handle to a DFG variable (an edge value in the data-flow graph).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(pub(crate) usize);

impl VarId {
    /// Dense index of the variable.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Handle to a DFG operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OpId(pub(crate) usize);

impl OpId {
    /// Dense index of the operation.
    pub fn index(self) -> usize {
        self.0
    }
}

/// The kind of a (two-operand) data-flow operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
    /// Less-than comparison.
    Less,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise exclusive or.
    Xor,
    /// Logical/arithmetic shift (amount on port 1).
    Shift,
}

impl OpKind {
    /// Number of input operands (all supported operations are binary).
    pub fn arity(self) -> usize {
        2
    }

    /// Short mnemonic used in names and reports.
    pub fn mnemonic(self) -> &'static str {
        match self {
            OpKind::Add => "add",
            OpKind::Sub => "sub",
            OpKind::Mul => "mul",
            OpKind::Div => "div",
            OpKind::Less => "cmp",
            OpKind::And => "and",
            OpKind::Or => "or",
            OpKind::Xor => "xor",
            OpKind::Shift => "shl",
        }
    }
}

impl std::fmt::Display for OpKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// Where the value of a variable comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarSource {
    /// A primary input of the behaviour.
    PrimaryInput,
    /// A compile-time constant (member of the set `C` of the paper).
    Constant(i64),
    /// The output of an operation.
    OpOutput(OpId),
}

/// A variable (value carried between clock boundaries).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Variable {
    /// Human readable name.
    pub name: String,
    /// Origin of the value.
    pub source: VarSource,
    /// Whether the value is a primary output of the behaviour.
    pub is_output: bool,
}

impl Variable {
    /// Whether the variable is a compile-time constant.
    pub fn is_constant(&self) -> bool {
        matches!(self.source, VarSource::Constant(_))
    }

    /// Whether the variable is a primary input.
    pub fn is_primary_input(&self) -> bool {
        matches!(self.source, VarSource::PrimaryInput)
    }
}

/// A data-flow operation with ordered input ports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Operation {
    /// Human readable name.
    pub name: String,
    /// Operation kind.
    pub kind: OpKind,
    /// Input variables in port order (port 0 first).
    pub inputs: Vec<VarId>,
    /// Output variable.
    pub output: VarId,
}

/// A data-flow graph: variables, operations and their connecting edges.
///
/// The edge sets of the paper are derived views: [`Dfg::input_edges`] is
/// `Eᵢ` (triples `(v, o, l)` restricted to non-constant variables),
/// [`Dfg::constant_edges`] covers constant-fed ports and
/// [`Dfg::output_edges`] is `Eₒ`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Dfg {
    pub(crate) name: String,
    pub(crate) vars: Vec<Variable>,
    pub(crate) ops: Vec<Operation>,
}

impl Dfg {
    /// The graph name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All variables, indexed by [`VarId::index`].
    pub fn vars(&self) -> &[Variable] {
        &self.vars
    }

    /// All operations, indexed by [`OpId::index`].
    pub fn ops(&self) -> &[Operation] {
        &self.ops
    }

    /// A single variable.
    ///
    /// # Panics
    ///
    /// Panics if `var` does not belong to this graph.
    pub fn var(&self, var: VarId) -> &Variable {
        &self.vars[var.index()]
    }

    /// A single operation.
    ///
    /// # Panics
    ///
    /// Panics if `op` does not belong to this graph.
    pub fn op(&self, op: OpId) -> &Operation {
        &self.ops[op.index()]
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// Number of operations.
    pub fn num_ops(&self) -> usize {
        self.ops.len()
    }

    /// Iterator over all variable ids.
    pub fn var_ids(&self) -> impl Iterator<Item = VarId> {
        (0..self.vars.len()).map(VarId)
    }

    /// Iterator over all operation ids.
    pub fn op_ids(&self) -> impl Iterator<Item = OpId> {
        (0..self.ops.len()).map(OpId)
    }

    /// The set `Eᵢ` of the paper: `(variable, operation, port)` triples for
    /// every non-constant operand.
    pub fn input_edges(&self) -> Vec<(VarId, OpId, PortIndex)> {
        let mut edges = Vec::new();
        for (oi, op) in self.ops.iter().enumerate() {
            for (port, &v) in op.inputs.iter().enumerate() {
                if !self.vars[v.index()].is_constant() {
                    edges.push((v, OpId(oi), port));
                }
            }
        }
        edges
    }

    /// `(constant variable, operation, port)` triples for constant operands.
    pub fn constant_edges(&self) -> Vec<(VarId, OpId, PortIndex)> {
        let mut edges = Vec::new();
        for (oi, op) in self.ops.iter().enumerate() {
            for (port, &v) in op.inputs.iter().enumerate() {
                if self.vars[v.index()].is_constant() {
                    edges.push((v, OpId(oi), port));
                }
            }
        }
        edges
    }

    /// The set `Eₒ` of the paper: `(operation, output variable)` pairs.
    pub fn output_edges(&self) -> Vec<(OpId, VarId)> {
        self.ops
            .iter()
            .enumerate()
            .map(|(oi, op)| (OpId(oi), op.output))
            .collect()
    }

    /// Operations (and ports) that read a variable.
    pub fn consumers(&self, var: VarId) -> Vec<(OpId, PortIndex)> {
        let mut out = Vec::new();
        for (oi, op) in self.ops.iter().enumerate() {
            for (port, &v) in op.inputs.iter().enumerate() {
                if v == var {
                    out.push((OpId(oi), port));
                }
            }
        }
        out
    }

    /// The operation that produces a variable, if any.
    pub fn producer(&self, var: VarId) -> Option<OpId> {
        match self.vars[var.index()].source {
            VarSource::OpOutput(op) => Some(op),
            _ => None,
        }
    }

    /// Primary input variables.
    pub fn primary_inputs(&self) -> Vec<VarId> {
        self.var_ids()
            .filter(|v| self.vars[v.index()].is_primary_input())
            .collect()
    }

    /// Constant variables (the set `C` of the paper).
    pub fn constants(&self) -> Vec<VarId> {
        self.var_ids()
            .filter(|v| self.vars[v.index()].is_constant())
            .collect()
    }

    /// Primary output variables.
    pub fn outputs(&self) -> Vec<VarId> {
        self.var_ids()
            .filter(|v| self.vars[v.index()].is_output)
            .collect()
    }

    /// Variables that must live in registers (everything except constants).
    pub fn register_variables(&self) -> Vec<VarId> {
        self.var_ids()
            .filter(|v| !self.vars[v.index()].is_constant())
            .collect()
    }

    /// Checks structural consistency of the graph.
    ///
    /// # Errors
    ///
    /// Returns the first inconsistency found: dangling ids, arity mismatches,
    /// multiply-produced variables or a combinational cycle.
    pub fn validate(&self) -> Result<(), DfgError> {
        for (oi, op) in self.ops.iter().enumerate() {
            if op.inputs.len() != op.kind.arity() {
                return Err(DfgError::ArityMismatch {
                    operation: op.name.clone(),
                    expected: op.kind.arity(),
                    found: op.inputs.len(),
                });
            }
            for &v in op.inputs.iter().chain(std::iter::once(&op.output)) {
                if v.index() >= self.vars.len() {
                    return Err(DfgError::UnknownVariable { index: v.index() });
                }
            }
            match self.vars[op.output.index()].source {
                VarSource::OpOutput(p) if p.index() == oi => {}
                _ => {
                    return Err(DfgError::MultipleProducers {
                        variable: self.vars[op.output.index()].name.clone(),
                    })
                }
            }
        }
        for var in &self.vars {
            if let VarSource::OpOutput(op) = var.source {
                if op.index() >= self.ops.len() {
                    return Err(DfgError::UnknownOperation { index: op.index() });
                }
            }
        }
        self.topological_order().map(|_| ())
    }

    /// Operations in a topological order of the data dependences.
    ///
    /// # Errors
    ///
    /// Returns [`DfgError::Cyclic`] if the graph has a cycle.
    pub fn topological_order(&self) -> Result<Vec<OpId>, DfgError> {
        let n = self.ops.len();
        let mut indegree = vec![0usize; n];
        let mut successors: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (oi, op) in self.ops.iter().enumerate() {
            for &v in &op.inputs {
                if let VarSource::OpOutput(p) = self.vars[v.index()].source {
                    successors[p.index()].push(oi);
                    indegree[oi] += 1;
                }
            }
        }
        let mut queue: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(i) = queue.pop() {
            order.push(OpId(i));
            for &s in &successors[i] {
                indegree[s] -= 1;
                if indegree[s] == 0 {
                    queue.push(s);
                }
            }
        }
        if order.len() == n {
            Ok(order)
        } else {
            Err(DfgError::Cyclic)
        }
    }
}

/// A DFG together with a completed schedule and module binding — the input
/// assumed by the paper's register / BIST register / interconnect assignment
/// (Section 2: "we consider DFGs in which scheduling and module assignment
/// have been completed").
#[derive(Debug, Clone, PartialEq)]
pub struct SynthesisInput {
    dfg: Dfg,
    schedule: Schedule,
    binding: Binding,
}

impl SynthesisInput {
    /// Bundles a DFG with its schedule and binding, checking consistency.
    ///
    /// # Errors
    ///
    /// Returns an error if the graph is malformed, the schedule or binding
    /// does not cover every operation, a data dependence is violated, two
    /// operations on the same module share a control step, or an operation is
    /// bound to a module of the wrong class.
    pub fn new(dfg: Dfg, schedule: Schedule, binding: Binding) -> Result<Self, DfgError> {
        dfg.validate()?;
        schedule.validate(&dfg)?;
        binding.validate(&dfg, &schedule)?;
        Ok(Self {
            dfg,
            schedule,
            binding,
        })
    }

    /// The underlying data-flow graph.
    pub fn dfg(&self) -> &Dfg {
        &self.dfg
    }

    /// The schedule (operation → control step).
    pub fn schedule(&self) -> &Schedule {
        &self.schedule
    }

    /// The module binding (operation → module).
    pub fn binding(&self) -> &Binding {
        &self.binding
    }

    /// The circuit name (taken from the DFG).
    pub fn name(&self) -> &str {
        self.dfg.name()
    }

    /// Number of control steps (the set `T` of the paper).
    pub fn num_control_steps(&self) -> u32 {
        self.schedule.num_steps()
    }

    /// Control step of an operation.
    pub fn step_of(&self, op: OpId) -> u32 {
        self.schedule.step_of(op)
    }

    /// Module of an operation.
    pub fn module_of(&self, op: OpId) -> ModuleId {
        self.binding.module_of(op)
    }

    /// Operations bound to a given module, in schedule order.
    pub fn ops_on_module(&self, module: ModuleId) -> Vec<OpId> {
        let mut ops: Vec<OpId> = self
            .dfg
            .op_ids()
            .filter(|&o| self.binding.module_of(o) == module)
            .collect();
        ops.sort_by_key(|&o| self.schedule.step_of(o));
        ops
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DfgBuilder;

    fn small_graph() -> Dfg {
        let mut b = DfgBuilder::new("small");
        let a = b.input("a");
        let c = b.input("c");
        let k = b.constant("k2", 2);
        let s = b.op(OpKind::Add, "s", a, c);
        let p = b.op(OpKind::Mul, "p", s, k);
        b.output(p);
        b.finish()
    }

    #[test]
    fn edges_and_lookup() {
        let g = small_graph();
        assert_eq!(g.num_vars(), 5);
        assert_eq!(g.num_ops(), 2);
        assert_eq!(g.input_edges().len(), 3); // a, c, s (constant excluded)
        assert_eq!(g.constant_edges().len(), 1);
        assert_eq!(g.output_edges().len(), 2);
        assert_eq!(g.primary_inputs().len(), 2);
        assert_eq!(g.constants().len(), 1);
        assert_eq!(g.outputs().len(), 1);
        assert_eq!(g.register_variables().len(), 4);
        let s = g.var_ids().find(|&v| g.var(v).name == "s").unwrap();
        assert_eq!(g.consumers(s).len(), 1);
        assert!(g.producer(s).is_some());
        assert!(g.validate().is_ok());
    }

    #[test]
    fn topological_order_respects_dependences() {
        let g = small_graph();
        let order = g.topological_order().unwrap();
        let pos: Vec<usize> = g
            .op_ids()
            .map(|o| order.iter().position(|&x| x == o).unwrap())
            .collect();
        // op 0 (add) produces the input of op 1 (mul)
        assert!(pos[0] < pos[1]);
    }

    #[test]
    fn op_kind_properties() {
        assert_eq!(OpKind::Add.arity(), 2);
        assert_eq!(OpKind::Mul.to_string(), "mul");
    }

    #[test]
    fn cycle_detection() {
        // Build a malformed graph by hand with a cycle a -> op0 -> b -> op1 -> a.
        let mut g = Dfg {
            name: "cyclic".into(),
            vars: vec![
                Variable {
                    name: "a".into(),
                    source: VarSource::OpOutput(OpId(1)),
                    is_output: false,
                },
                Variable {
                    name: "b".into(),
                    source: VarSource::OpOutput(OpId(0)),
                    is_output: false,
                },
            ],
            ops: vec![],
        };
        g.ops.push(Operation {
            name: "o0".into(),
            kind: OpKind::Add,
            inputs: vec![VarId(0), VarId(0)],
            output: VarId(1),
        });
        g.ops.push(Operation {
            name: "o1".into(),
            kind: OpKind::Add,
            inputs: vec![VarId(1), VarId(1)],
            output: VarId(0),
        });
        assert_eq!(g.topological_order(), Err(DfgError::Cyclic));
        assert!(g.validate().is_err());
    }
}
