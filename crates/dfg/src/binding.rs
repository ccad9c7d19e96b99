//! Module binding: assigning operations to functional modules.
//!
//! The paper assumes a completed module assignment (Section 2). This module
//! provides the minimum-resource greedy binding used to prepare the benchmark
//! circuits, plus the [`ModuleClass`] taxonomy that decides which operations
//! may share a functional unit.

use crate::error::DfgError;
use crate::graph::{Dfg, OpId, OpKind};
use crate::schedule::Schedule;
use std::fmt;

/// Handle to a functional module of the data path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ModuleId(pub(crate) usize);

impl ModuleId {
    /// Dense index of the module.
    pub fn index(self) -> usize {
        self.0
    }
}

/// The class of a functional module; operations can only be bound to a
/// module whose class supports their kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ModuleClass {
    /// Adder.
    Adder,
    /// Subtractor.
    Subtractor,
    /// Combined adder/subtractor/comparator (ALU).
    Alu,
    /// Multiplier.
    Multiplier,
    /// Divider.
    Divider,
    /// Comparator.
    Comparator,
    /// Bitwise logic unit.
    Logic,
    /// Shifter.
    Shifter,
}

impl ModuleClass {
    /// The dedicated class for an operation kind (one class per kind family).
    pub fn of(kind: OpKind) -> Self {
        match kind {
            OpKind::Add => ModuleClass::Adder,
            OpKind::Sub => ModuleClass::Subtractor,
            OpKind::Mul => ModuleClass::Multiplier,
            OpKind::Div => ModuleClass::Divider,
            OpKind::Less => ModuleClass::Comparator,
            OpKind::And | OpKind::Or | OpKind::Xor => ModuleClass::Logic,
            OpKind::Shift => ModuleClass::Shifter,
        }
    }

    /// A classifier that merges additive operations (add, subtract, compare)
    /// into one ALU class, as several of the HLS benchmarks do.
    pub fn of_with_alu(kind: OpKind) -> Self {
        match kind {
            OpKind::Add | OpKind::Sub | OpKind::Less => ModuleClass::Alu,
            other => ModuleClass::of(other),
        }
    }

    /// Whether a module of this class can execute the given operation kind.
    pub fn supports(self, kind: OpKind) -> bool {
        match self {
            ModuleClass::Adder => matches!(kind, OpKind::Add),
            ModuleClass::Subtractor => matches!(kind, OpKind::Sub),
            ModuleClass::Alu => matches!(kind, OpKind::Add | OpKind::Sub | OpKind::Less),
            ModuleClass::Multiplier => matches!(kind, OpKind::Mul),
            ModuleClass::Divider => matches!(kind, OpKind::Div),
            ModuleClass::Comparator => matches!(kind, OpKind::Less),
            ModuleClass::Logic => matches!(kind, OpKind::And | OpKind::Or | OpKind::Xor),
            ModuleClass::Shifter => matches!(kind, OpKind::Shift),
        }
    }
}

impl fmt::Display for ModuleClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ModuleClass::Adder => "adder",
            ModuleClass::Subtractor => "subtractor",
            ModuleClass::Alu => "alu",
            ModuleClass::Multiplier => "multiplier",
            ModuleClass::Divider => "divider",
            ModuleClass::Comparator => "comparator",
            ModuleClass::Logic => "logic",
            ModuleClass::Shifter => "shifter",
        };
        f.write_str(s)
    }
}

/// Description of one functional module instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModuleInfo {
    /// Human readable name (for example `mul0`).
    pub name: String,
    /// Class of the module.
    pub class: ModuleClass,
    /// Number of input ports (all supported modules have two).
    pub num_inputs: usize,
}

/// A completed operation-to-module binding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Binding {
    module_of: Vec<ModuleId>,
    modules: Vec<ModuleInfo>,
}

impl Binding {
    /// Builds a binding from explicit data. `module_of` is indexed by
    /// [`OpId::index`].
    pub fn from_parts(module_of: Vec<ModuleId>, modules: Vec<ModuleInfo>) -> Self {
        Self { module_of, modules }
    }

    /// Greedy minimum-resource binding: operations of each class are assigned
    /// to the first module of that class that is idle in their control step,
    /// creating modules on demand. The resulting module count per class
    /// equals the maximum concurrency of that class, which the paper notes is
    /// the minimum (Section 2).
    pub fn minimal(
        dfg: &Dfg,
        schedule: &Schedule,
        classify: impl Fn(OpKind) -> ModuleClass,
    ) -> Self {
        let mut modules: Vec<ModuleInfo> = Vec::new();
        // busy[m] = set of steps the module is already used in
        let mut busy: Vec<Vec<u32>> = Vec::new();
        let mut module_of = vec![ModuleId(usize::MAX); dfg.num_ops()];

        let mut ops: Vec<OpId> = dfg.op_ids().collect();
        ops.sort_by_key(|&o| (schedule.step_of(o), o.index()));

        for op in ops {
            let class = classify(dfg.op(op).kind);
            let step = schedule.step_of(op);
            let slot =
                (0..modules.len()).find(|&m| modules[m].class == class && !busy[m].contains(&step));
            let m = match slot {
                Some(m) => m,
                None => {
                    let index = modules.len();
                    let count_same_class =
                        modules.iter().filter(|info| info.class == class).count();
                    modules.push(ModuleInfo {
                        name: format!("{class}{count_same_class}"),
                        class,
                        num_inputs: 2,
                    });
                    busy.push(Vec::new());
                    index
                }
            };
            busy[m].push(step);
            module_of[op.index()] = ModuleId(m);
        }
        Self { module_of, modules }
    }

    /// Number of modules.
    pub fn num_modules(&self) -> usize {
        self.modules.len()
    }

    /// Module of an operation.
    ///
    /// # Panics
    ///
    /// Panics if `op` is out of range.
    pub fn module_of(&self, op: OpId) -> ModuleId {
        self.module_of[op.index()]
    }

    /// Module descriptions, indexed by [`ModuleId::index`].
    pub fn modules(&self) -> &[ModuleInfo] {
        &self.modules
    }

    /// Description of one module.
    ///
    /// # Panics
    ///
    /// Panics if `module` is out of range.
    pub fn module(&self, module: ModuleId) -> &ModuleInfo {
        &self.modules[module.index()]
    }

    /// Iterator over all module ids.
    pub fn module_ids(&self) -> impl Iterator<Item = ModuleId> {
        (0..self.modules.len()).map(ModuleId)
    }

    /// Checks that the binding covers every operation, respects module
    /// classes and never double-books a module within a control step.
    ///
    /// # Errors
    ///
    /// Returns the first violation found.
    pub fn validate(&self, dfg: &Dfg, schedule: &Schedule) -> Result<(), DfgError> {
        if self.module_of.len() != dfg.num_ops() {
            return Err(DfgError::IncompleteAssignment { what: "binding" });
        }
        for op in dfg.op_ids() {
            let m = self.module_of[op.index()];
            if m.index() >= self.modules.len() {
                return Err(DfgError::IncompleteAssignment { what: "binding" });
            }
            if !self.modules[m.index()].class.supports(dfg.op(op).kind) {
                return Err(DfgError::ClassMismatch {
                    operation: dfg.op(op).name.clone(),
                    module: m.index(),
                });
            }
        }
        for step in 0..schedule.num_steps() {
            let mut seen = vec![false; self.modules.len()];
            for op in schedule.ops_in_step(step) {
                let m = self.module_of[op.index()].index();
                if seen[m] {
                    return Err(DfgError::ModuleConflict { module: m, step });
                }
                seen[m] = true;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DfgBuilder;
    use std::collections::BTreeMap;

    fn chain() -> (Dfg, Schedule) {
        // Four multiplies in a chain plus two adds that can overlap.
        let mut b = DfgBuilder::new("chain");
        let a = b.input("a");
        let c = b.input("c");
        let m1 = b.op(OpKind::Mul, "m1", a, c);
        let m2 = b.op(OpKind::Mul, "m2", m1, c);
        let m3 = b.op(OpKind::Mul, "m3", m2, c);
        let s1 = b.op(OpKind::Add, "s1", a, c);
        let s2 = b.op(OpKind::Add, "s2", s1, m3);
        b.output(s2);
        b.output(m3);
        let dfg = b.finish();
        let schedule = Schedule::asap(&dfg).unwrap();
        (dfg, schedule)
    }

    #[test]
    fn minimal_binding_matches_max_concurrency() {
        let (dfg, schedule) = chain();
        let binding = Binding::minimal(&dfg, &schedule, ModuleClass::of);
        assert!(binding.validate(&dfg, &schedule).is_ok());
        // Multiplies are serialised by dependences: one multiplier suffices.
        let muls = binding
            .modules()
            .iter()
            .filter(|m| m.class == ModuleClass::Multiplier)
            .count();
        assert_eq!(muls, 1);
        let adders = binding
            .modules()
            .iter()
            .filter(|m| m.class == ModuleClass::Adder)
            .count();
        assert_eq!(adders, 1);
        assert_eq!(binding.num_modules(), 2);
    }

    #[test]
    fn class_support_table() {
        assert!(ModuleClass::Adder.supports(OpKind::Add));
        assert!(!ModuleClass::Adder.supports(OpKind::Sub));
        assert!(ModuleClass::Alu.supports(OpKind::Sub));
        assert!(ModuleClass::Alu.supports(OpKind::Less));
        assert!(ModuleClass::Multiplier.supports(OpKind::Mul));
        assert!(ModuleClass::Logic.supports(OpKind::Xor));
        assert!(!ModuleClass::Logic.supports(OpKind::Mul));
        assert_eq!(ModuleClass::of(OpKind::Less), ModuleClass::Comparator);
        assert_eq!(ModuleClass::of_with_alu(OpKind::Less), ModuleClass::Alu);
    }

    #[test]
    fn binding_detects_class_mismatch() {
        let (dfg, schedule) = chain();
        let modules = vec![ModuleInfo {
            name: "add0".into(),
            class: ModuleClass::Adder,
            num_inputs: 2,
        }];
        let binding = Binding::from_parts(vec![ModuleId(0); dfg.num_ops()], modules);
        assert!(matches!(
            binding.validate(&dfg, &schedule),
            Err(DfgError::ClassMismatch { .. })
        ));
    }

    #[test]
    fn binding_detects_double_booking() {
        // Two independent adds in the same step forced onto one adder.
        let mut b = DfgBuilder::new("par");
        let a = b.input("a");
        let c = b.input("c");
        let s1 = b.op(OpKind::Add, "s1", a, c);
        let s2 = b.op(OpKind::Add, "s2", c, a);
        b.output(s1);
        b.output(s2);
        let dfg = b.finish();
        let schedule = Schedule::from_steps(vec![0, 0]);
        let modules = vec![ModuleInfo {
            name: "add0".into(),
            class: ModuleClass::Adder,
            num_inputs: 2,
        }];
        let binding = Binding::from_parts(vec![ModuleId(0), ModuleId(0)], modules);
        assert!(matches!(
            binding.validate(&dfg, &schedule),
            Err(DfgError::ModuleConflict { .. })
        ));
    }

    #[test]
    fn list_schedule_then_minimal_binding_is_consistent() {
        let (dfg, _) = chain();
        let limits = BTreeMap::from([(ModuleClass::Multiplier, 1), (ModuleClass::Adder, 1)]);
        let schedule = Schedule::list(&dfg, &limits, ModuleClass::of).unwrap();
        let binding = Binding::minimal(&dfg, &schedule, ModuleClass::of);
        assert!(binding.validate(&dfg, &schedule).is_ok());
        assert_eq!(binding.num_modules(), 2);
    }
}
