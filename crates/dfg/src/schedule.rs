//! Operation scheduling: ASAP, ALAP and resource-constrained list scheduling.
//!
//! The paper assumes scheduling is already done; these algorithms are the
//! substrate we use to produce schedules for the benchmark DFGs (the authors
//! used HYPER for the filter benchmarks — see the substitution note in
//! [`crate::benchmarks`]). All operations take a single control step.

use std::collections::BTreeMap;

use crate::binding::ModuleClass;
use crate::error::DfgError;
use crate::graph::{Dfg, OpId, OpKind, VarSource};

/// A mapping from operations to control steps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    steps: Vec<u32>,
    num_steps: u32,
}

impl Schedule {
    /// Builds a schedule from an explicit step per operation (in `OpId`
    /// order).
    pub fn from_steps(steps: Vec<u32>) -> Self {
        let num_steps = steps.iter().copied().max().map_or(0, |m| m + 1);
        Self { steps, num_steps }
    }

    /// The control step of an operation.
    ///
    /// # Panics
    ///
    /// Panics if `op` is out of range.
    pub fn step_of(&self, op: OpId) -> u32 {
        self.steps[op.index()]
    }

    /// Total number of control steps (the latency).
    pub fn num_steps(&self) -> u32 {
        self.num_steps
    }

    /// The steps vector in `OpId` order.
    pub fn steps(&self) -> &[u32] {
        &self.steps
    }

    /// Operations scheduled in a given control step.
    pub fn ops_in_step(&self, step: u32) -> Vec<OpId> {
        self.steps
            .iter()
            .enumerate()
            .filter(|&(_, &s)| s == step)
            .map(|(i, _)| OpId(i))
            .collect()
    }

    /// Checks that the schedule covers the whole graph and respects data
    /// dependences (a consumer must run strictly after its producer, since
    /// every operation takes one full control step).
    ///
    /// # Errors
    ///
    /// Returns [`DfgError::IncompleteAssignment`] or
    /// [`DfgError::DependenceViolation`].
    pub fn validate(&self, dfg: &Dfg) -> Result<(), DfgError> {
        if self.steps.len() != dfg.num_ops() {
            return Err(DfgError::IncompleteAssignment { what: "schedule" });
        }
        for op in dfg.op_ids() {
            for &input in &dfg.op(op).inputs {
                if let VarSource::OpOutput(producer) = dfg.var(input).source {
                    if self.step_of(producer) >= self.step_of(op) {
                        return Err(DfgError::DependenceViolation {
                            producer: dfg.op(producer).name.clone(),
                            consumer: dfg.op(op).name.clone(),
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// As-soon-as-possible schedule (unit delay, unconstrained resources).
    ///
    /// # Errors
    ///
    /// Returns [`DfgError::Cyclic`] for cyclic graphs.
    pub fn asap(dfg: &Dfg) -> Result<Self, DfgError> {
        let order = dfg.topological_order()?;
        let mut steps = vec![0u32; dfg.num_ops()];
        for &op in &order {
            let mut earliest = 0;
            for &input in &dfg.op(op).inputs {
                if let VarSource::OpOutput(producer) = dfg.var(input).source {
                    earliest = earliest.max(steps[producer.index()] + 1);
                }
            }
            steps[op.index()] = earliest;
        }
        Ok(Self::from_steps(steps))
    }

    /// As-late-as-possible schedule for a given latency (number of steps).
    ///
    /// # Errors
    ///
    /// Returns [`DfgError::Cyclic`] for cyclic graphs, or
    /// [`DfgError::DependenceViolation`] if `latency` is smaller than the
    /// critical path.
    pub fn alap(dfg: &Dfg, latency: u32) -> Result<Self, DfgError> {
        let order = dfg.topological_order()?;
        let mut steps = vec![latency.saturating_sub(1); dfg.num_ops()];
        // Traverse in reverse topological order.
        for &op in order.iter().rev() {
            let mut latest = latency.saturating_sub(1);
            for (consumer, _) in dfg.consumers(dfg.op(op).output) {
                latest = latest.min(steps[consumer.index()].saturating_sub(1));
            }
            steps[op.index()] = latest;
        }
        let schedule = Self::from_steps(steps);
        schedule.validate(dfg)?;
        Ok(schedule)
    }

    /// Resource-constrained list scheduling.
    ///
    /// `limits` gives the number of functional units available for each
    /// module class; `classify` maps an operation kind to the class that
    /// executes it. Operations are prioritised by mobility (ALAP − ASAP, the
    /// most urgent first).
    ///
    /// # Errors
    ///
    /// Returns [`DfgError::MissingResource`] when an operation's class has a
    /// zero (or absent) limit, or [`DfgError::Cyclic`] for cyclic graphs.
    pub fn list(
        dfg: &Dfg,
        limits: &BTreeMap<ModuleClass, usize>,
        classify: impl Fn(OpKind) -> ModuleClass,
    ) -> Result<Self, DfgError> {
        let asap = Self::asap(dfg)?;
        let critical = asap.num_steps();
        // ALAP with generous latency for mobility computation only.
        let alap = Self::alap(dfg, critical.max(1))?;

        for op in dfg.op_ids() {
            let class = classify(dfg.op(op).kind);
            if limits.get(&class).copied().unwrap_or(0) == 0 {
                return Err(DfgError::MissingResource {
                    class: class.to_string(),
                });
            }
        }

        let n = dfg.num_ops();
        let mut steps = vec![u32::MAX; n];
        let mut scheduled = vec![false; n];
        let mut remaining = n;
        let mut step = 0u32;
        while remaining > 0 {
            let mut used: BTreeMap<ModuleClass, usize> = BTreeMap::new();
            // Ready operations: all producers scheduled in earlier steps.
            let mut ready: Vec<OpId> = dfg
                .op_ids()
                .filter(|&op| {
                    !scheduled[op.index()]
                        && dfg.op(op).inputs.iter().all(|&v| match dfg.var(v).source {
                            VarSource::OpOutput(p) => {
                                scheduled[p.index()] && steps[p.index()] < step
                            }
                            _ => true,
                        })
                })
                .collect();
            // Priority: smallest mobility first, then ASAP order.
            ready.sort_by_key(|&op| {
                let mobility = alap.step_of(op).saturating_sub(asap.step_of(op));
                (mobility, asap.step_of(op), op.index())
            });
            for op in ready {
                let class = classify(dfg.op(op).kind);
                let limit = limits.get(&class).copied().unwrap_or(0);
                let in_use = used.entry(class).or_insert(0);
                if *in_use < limit {
                    *in_use += 1;
                    steps[op.index()] = step;
                    scheduled[op.index()] = true;
                    remaining -= 1;
                }
            }
            step += 1;
            // Safety valve: with at least one unit per needed class the loop
            // always terminates, but guard against pathological inputs.
            if step as usize > 4 * n + 4 {
                return Err(DfgError::IncompleteAssignment { what: "schedule" });
            }
        }
        Ok(Self::from_steps(steps))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binding::ModuleClass;
    use crate::builder::DfgBuilder;
    use crate::graph::OpKind;

    /// A small diamond: two independent multiplies feeding an add.
    fn diamond() -> Dfg {
        let mut b = DfgBuilder::new("diamond");
        let a = b.input("a");
        let c = b.input("c");
        let d = b.input("d");
        let e = b.input("e");
        let m1 = b.op(OpKind::Mul, "m1", a, c);
        let m2 = b.op(OpKind::Mul, "m2", d, e);
        let s = b.op(OpKind::Add, "s", m1, m2);
        b.output(s);
        b.finish()
    }

    #[test]
    fn asap_respects_dependences() {
        let g = diamond();
        let s = Schedule::asap(&g).unwrap();
        assert_eq!(s.step_of(OpId(0)), 0);
        assert_eq!(s.step_of(OpId(1)), 0);
        assert_eq!(s.step_of(OpId(2)), 1);
        assert_eq!(s.num_steps(), 2);
        assert!(s.validate(&g).is_ok());
    }

    #[test]
    fn alap_pushes_operations_late() {
        let g = diamond();
        let s = Schedule::alap(&g, 3).unwrap();
        assert_eq!(s.step_of(OpId(2)), 2);
        assert_eq!(s.step_of(OpId(0)), 1);
        assert_eq!(s.step_of(OpId(1)), 1);
        assert!(s.validate(&g).is_ok());
    }

    #[test]
    fn alap_rejects_too_small_latency() {
        let g = diamond();
        assert!(Schedule::alap(&g, 1).is_err());
    }

    #[test]
    fn list_scheduling_respects_resource_limits() {
        let g = diamond();
        let mut limits = BTreeMap::new();
        limits.insert(ModuleClass::Multiplier, 1);
        limits.insert(ModuleClass::Adder, 1);
        let s = Schedule::list(&g, &limits, ModuleClass::of).unwrap();
        assert!(s.validate(&g).is_ok());
        // Only one multiplier: the two multiplies cannot share a step.
        assert_ne!(s.step_of(OpId(0)), s.step_of(OpId(1)));
        assert_eq!(s.num_steps(), 3);

        // With two multipliers the critical path of two steps is reachable.
        limits.insert(ModuleClass::Multiplier, 2);
        let s = Schedule::list(&g, &limits, ModuleClass::of).unwrap();
        assert_eq!(s.num_steps(), 2);
    }

    #[test]
    fn list_scheduling_requires_resources() {
        let g = diamond();
        let limits = BTreeMap::from([(ModuleClass::Multiplier, 1)]);
        assert!(matches!(
            Schedule::list(&g, &limits, ModuleClass::of),
            Err(DfgError::MissingResource { .. })
        ));
    }

    #[test]
    fn ops_in_step_partition_the_graph() {
        let g = diamond();
        let s = Schedule::asap(&g).unwrap();
        let total: usize = (0..s.num_steps()).map(|t| s.ops_in_step(t).len()).sum();
        assert_eq!(total, g.num_ops());
    }

    #[test]
    fn invalid_schedule_detected() {
        let g = diamond();
        // Consumer in the same step as its producer.
        let s = Schedule::from_steps(vec![0, 0, 0]);
        assert!(matches!(
            s.validate(&g),
            Err(DfgError::DependenceViolation { .. })
        ));
        // Wrong length.
        let s = Schedule::from_steps(vec![0, 1]);
        assert!(matches!(
            s.validate(&g),
            Err(DfgError::IncompleteAssignment { .. })
        ));
    }
}
