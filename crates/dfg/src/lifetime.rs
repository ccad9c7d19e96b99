//! Variable lifetimes, horizontal crossings and the compatibility graph.
//!
//! The register-assignment half of the paper rests on three notions from its
//! Section 2: a variable occupies a register on every *clock boundary* it
//! crosses, two variables whose boundary sets intersect are *incompatible*
//! (they need different registers), and the *maximal horizontal crossing*
//! (the largest number of variables alive on one boundary) is the minimum
//! number of registers.

use crate::error::DfgError;
use crate::graph::{SynthesisInput, VarId};

/// When a primary input is considered to enter the data path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InputTiming {
    /// The input is loaded just before its first use (the convention that
    /// yields the minimum register counts reported in the paper).
    #[default]
    JustInTime,
    /// The input is loaded at control step 0 and must be held until its last
    /// use.
    FromStart,
}

/// The closed interval of clock boundaries on which a variable is alive.
///
/// Boundary `t` is the clock edge *entering* control step `t`; boundary
/// `num_steps` is the edge after the last step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lifetime {
    /// First boundary on which the value must be held in a register.
    pub birth: u32,
    /// Last boundary on which the value must be held in a register.
    pub death: u32,
}

impl Lifetime {
    /// Whether two lifetimes share a boundary (the variables are
    /// incompatible).
    pub fn overlaps(&self, other: &Lifetime) -> bool {
        self.birth <= other.death && other.birth <= self.death
    }

    /// Number of boundaries the value is alive on.
    pub fn span(&self) -> u32 {
        self.death - self.birth + 1
    }
}

/// Lifetimes of every register variable of a scheduled DFG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LifetimeTable {
    /// `None` for constants (they never occupy a register).
    lifetimes: Vec<Option<Lifetime>>,
    num_boundaries: u32,
    timing: InputTiming,
}

impl LifetimeTable {
    /// Computes lifetimes with the default ([`InputTiming::JustInTime`])
    /// input timing.
    ///
    /// # Errors
    ///
    /// Propagates validation errors of the synthesis input.
    pub fn new(input: &SynthesisInput) -> Result<Self, DfgError> {
        Self::with_timing(input, InputTiming::default())
    }

    /// Computes lifetimes with an explicit input timing convention.
    ///
    /// # Errors
    ///
    /// Propagates validation errors of the synthesis input.
    pub fn with_timing(input: &SynthesisInput, timing: InputTiming) -> Result<Self, DfgError> {
        let dfg = input.dfg();
        let num_steps = input.num_control_steps();
        let mut lifetimes = vec![None; dfg.num_vars()];
        for var in dfg.var_ids() {
            let info = dfg.var(var);
            if info.is_constant() {
                continue;
            }
            let consumers = dfg.consumers(var);
            let consumption_steps: Vec<u32> =
                consumers.iter().map(|&(op, _)| input.step_of(op)).collect();

            let birth = match dfg.producer(var) {
                Some(op) => input.step_of(op) + 1,
                None => match timing {
                    InputTiming::FromStart => 0,
                    InputTiming::JustInTime => consumption_steps.iter().copied().min().unwrap_or(0),
                },
            };
            let mut death = consumption_steps.iter().copied().max().unwrap_or(birth);
            if info.is_output {
                // Outputs must survive past the final control step so the
                // environment can read them.
                death = death.max(num_steps);
            }
            let death = death.max(birth);
            lifetimes[var.index()] = Some(Lifetime { birth, death });
        }
        Ok(Self {
            lifetimes,
            num_boundaries: num_steps + 1,
            timing,
        })
    }

    /// The input timing convention used.
    pub fn timing(&self) -> InputTiming {
        self.timing
    }

    /// Lifetime of a variable (`None` for constants).
    pub fn lifetime(&self, var: VarId) -> Option<Lifetime> {
        self.lifetimes[var.index()]
    }

    /// Number of clock boundaries (control steps + 1).
    pub fn num_boundaries(&self) -> u32 {
        self.num_boundaries
    }

    /// Whether two variables are incompatible (must use different registers).
    pub fn conflicts(&self, a: VarId, b: VarId) -> bool {
        if a == b {
            return false;
        }
        match (self.lifetimes[a.index()], self.lifetimes[b.index()]) {
            (Some(x), Some(y)) => x.overlaps(&y),
            _ => false,
        }
    }

    /// Variables alive on a given boundary.
    pub fn vars_at_boundary(&self, boundary: u32) -> Vec<VarId> {
        self.lifetimes
            .iter()
            .enumerate()
            .filter_map(|(i, lt)| {
                lt.filter(|lt| lt.birth <= boundary && boundary <= lt.death)
                    .map(|_| VarId(i))
            })
            .collect()
    }

    /// The horizontal crossing of a boundary: how many variables are alive.
    pub fn crossing(&self, boundary: u32) -> usize {
        self.vars_at_boundary(boundary).len()
    }

    /// The maximal horizontal crossing over all boundaries.
    pub fn max_horizontal_crossing(&self) -> usize {
        (0..=self.num_boundaries)
            .map(|b| self.crossing(b))
            .max()
            .unwrap_or(0)
    }

    /// Minimum number of registers needed for any register assignment
    /// (Section 2: equal to the maximal horizontal crossing; interval graphs
    /// are perfect so the bound is achievable).
    pub fn min_registers(&self) -> usize {
        self.max_horizontal_crossing()
    }

    /// A maximum clique of mutually incompatible variables: the variables
    /// alive on the most crowded boundary. Used for the search-space
    /// reduction of Section 3.5 (pre-assigning them to distinct registers).
    pub fn maximum_clique(&self) -> Vec<VarId> {
        (0..=self.num_boundaries)
            .map(|b| self.vars_at_boundary(b))
            .max_by_key(|vars| vars.len())
            .unwrap_or_default()
    }

    /// Total number of DFG variables covered by the table (constants
    /// included, although they carry no lifetime).
    pub fn num_vars(&self) -> usize {
        self.lifetimes.len()
    }

    /// Variables that occupy a register (everything with a lifetime).
    pub fn register_vars(&self) -> Vec<VarId> {
        self.lifetimes
            .iter()
            .enumerate()
            .filter_map(|(i, lt)| lt.map(|_| VarId(i)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmarks;
    use crate::binding::{Binding, ModuleClass};
    use crate::builder::DfgBuilder;
    use crate::graph::OpKind;
    use crate::schedule::Schedule;

    #[test]
    fn lifetime_overlap_predicate() {
        let a = Lifetime { birth: 0, death: 2 };
        let b = Lifetime { birth: 2, death: 3 };
        let c = Lifetime { birth: 3, death: 4 };
        assert!(a.overlaps(&b));
        assert!(b.overlaps(&a));
        assert!(!a.overlaps(&c));
        assert_eq!(a.span(), 3);
    }

    #[test]
    fn figure1_has_three_registers() {
        let input = benchmarks::figure1();
        let table = LifetimeTable::new(&input).unwrap();
        assert_eq!(table.min_registers(), 3);
        // Constants do not appear.
        for c in input.dfg().constants() {
            assert!(table.lifetime(c).is_none());
        }
        // Every register variable has a lifetime.
        assert_eq!(
            table.register_vars().len(),
            input.dfg().register_variables().len()
        );
    }

    #[test]
    fn from_start_timing_never_reduces_pressure() {
        let input = benchmarks::figure1();
        let jit = LifetimeTable::with_timing(&input, InputTiming::JustInTime).unwrap();
        let early = LifetimeTable::with_timing(&input, InputTiming::FromStart).unwrap();
        assert!(early.min_registers() >= jit.min_registers());
    }

    #[test]
    fn chained_values_do_not_conflict() {
        // a -> add -> t -> mul -> out ; a dies when t is born only if the
        // consumer runs right after, so check the exact boundaries.
        let mut b = DfgBuilder::new("chain");
        let a = b.input("a");
        let c = b.input("c");
        let t = b.op(OpKind::Add, "t", a, c);
        let out = b.op(OpKind::Mul, "out", t, c);
        b.output(out);
        let dfg = b.finish();
        let schedule = Schedule::asap(&dfg).unwrap();
        let binding = Binding::minimal(&dfg, &schedule, ModuleClass::of);
        let input = crate::graph::SynthesisInput::new(dfg, schedule, binding).unwrap();
        let table = LifetimeTable::new(&input).unwrap();
        let lt_a = table.lifetime(a).unwrap();
        let lt_t = table.lifetime(t).unwrap();
        // a is consumed in step 0 (boundary 0); t is born on boundary 1.
        assert_eq!(lt_a, Lifetime { birth: 0, death: 0 });
        assert_eq!(lt_t.birth, 1);
        assert!(!table.conflicts(a, t));
        // c is alive on boundaries 0..=1 and conflicts with both.
        assert!(table.conflicts(a, c));
        assert!(table.conflicts(t, c));
    }

    #[test]
    fn outputs_survive_to_the_end() {
        let input = benchmarks::figure1();
        let table = LifetimeTable::new(&input).unwrap();
        for out in input.dfg().outputs() {
            let lt = table.lifetime(out).unwrap();
            assert_eq!(lt.death, input.num_control_steps());
        }
    }

    #[test]
    fn max_clique_is_mutually_incompatible() {
        let input = benchmarks::figure1();
        let table = LifetimeTable::new(&input).unwrap();
        let clique = table.maximum_clique();
        assert_eq!(clique.len(), table.min_registers());
        for (i, &a) in clique.iter().enumerate() {
            for &b in &clique[i + 1..] {
                assert!(table.conflicts(a, b));
            }
        }
    }

    #[test]
    fn crossing_counts_are_consistent() {
        let input = benchmarks::figure1();
        let table = LifetimeTable::new(&input).unwrap();
        let max = (0..=table.num_boundaries())
            .map(|b| table.crossing(b))
            .max()
            .unwrap();
        assert_eq!(max, table.max_horizontal_crossing());
    }
}
