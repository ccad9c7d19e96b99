//! Left-edge register allocation.
//!
//! This is the classical interval-graph colouring used by the heuristic
//! baselines (RALLOC, BITS, ADVAN) as their starting point, and by the
//! ADVBIST search-space reduction to warm-start the ILP: variables sorted by
//! birth boundary are packed greedily into the first register whose previous
//! occupant has already died. Because lifetime intervals form an interval
//! graph the result uses exactly `max_horizontal_crossing` registers — the
//! paper's minimum.

use crate::graph::VarId;
use crate::lifetime::LifetimeTable;

/// A complete variable-to-register assignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegisterAssignment {
    register_of: Vec<Option<usize>>,
    num_registers: usize,
}

impl RegisterAssignment {
    /// Builds an assignment from explicit data (`None` for constants).
    pub fn from_parts(register_of: Vec<Option<usize>>, num_registers: usize) -> Self {
        Self {
            register_of,
            num_registers,
        }
    }

    /// Register index of a variable (`None` for constants).
    pub fn register_of(&self, var: VarId) -> Option<usize> {
        self.register_of[var.index()]
    }

    /// Number of registers used.
    pub fn num_registers(&self) -> usize {
        self.num_registers
    }

    /// Variables assigned to a given register.
    pub fn vars_in_register(&self, register: usize) -> Vec<VarId> {
        self.register_of
            .iter()
            .enumerate()
            .filter_map(|(i, r)| (*r == Some(register)).then_some(VarId(i)))
            .collect()
    }

    /// Checks that no two incompatible variables share a register.
    pub fn is_valid(&self, table: &LifetimeTable) -> bool {
        for r in 0..self.num_registers {
            let vars = self.vars_in_register(r);
            for (i, &a) in vars.iter().enumerate() {
                for &b in &vars[i + 1..] {
                    if table.conflicts(a, b) {
                        return false;
                    }
                }
            }
        }
        true
    }
}

/// Runs the left-edge algorithm on a lifetime table.
pub fn left_edge(table: &LifetimeTable) -> RegisterAssignment {
    let mut vars = table.register_vars();
    vars.sort_by_key(|&v| {
        let lt = table.lifetime(v).expect("register var has lifetime");
        (lt.birth, lt.death, v.index())
    });

    // last_death[r] = death boundary of the most recent occupant of register r
    let mut last_death: Vec<Option<u32>> = Vec::new();
    let mut register_of = vec![None; table.num_vars()];

    for v in vars {
        let lt = table.lifetime(v).expect("register var has lifetime");
        let slot = (0..last_death.len()).find(|&r| match last_death[r] {
            Some(death) => death < lt.birth,
            None => true,
        });
        let r = match slot {
            Some(r) => r,
            None => {
                last_death.push(None);
                last_death.len() - 1
            }
        };
        last_death[r] = Some(lt.death);
        register_of[v.index()] = Some(r);
    }

    RegisterAssignment {
        register_of,
        num_registers: last_death.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmarks;
    use crate::lifetime::LifetimeTable;

    #[test]
    fn left_edge_is_optimal_on_figure1() {
        let input = benchmarks::figure1();
        let table = LifetimeTable::new(&input).unwrap();
        let assignment = left_edge(&table);
        assert_eq!(assignment.num_registers(), table.min_registers());
        assert!(assignment.is_valid(&table));
    }

    #[test]
    fn left_edge_is_optimal_on_all_benchmarks() {
        for (name, input) in benchmarks::all() {
            let table = LifetimeTable::new(&input).unwrap();
            let assignment = left_edge(&table);
            assert_eq!(
                assignment.num_registers(),
                table.min_registers(),
                "left-edge not optimal on {name}"
            );
            assert!(assignment.is_valid(&table), "invalid packing on {name}");
        }
    }

    #[test]
    fn every_register_variable_is_assigned() {
        let input = benchmarks::paulin();
        let table = LifetimeTable::new(&input).unwrap();
        let assignment = left_edge(&table);
        for v in table.register_vars() {
            assert!(assignment.register_of(v).is_some());
        }
        for c in input.dfg().constants() {
            assert!(assignment.register_of(c).is_none());
        }
    }

    #[test]
    fn register_partition_covers_variables_once() {
        let input = benchmarks::tseng();
        let table = LifetimeTable::new(&input).unwrap();
        let assignment = left_edge(&table);
        let total: usize = (0..assignment.num_registers())
            .map(|r| assignment.vars_in_register(r).len())
            .sum();
        assert_eq!(total, table.register_vars().len());
    }
}
