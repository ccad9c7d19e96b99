//! The ILP formulation of the paper, Section 3.
//!
//! [`BistFormulation`] incrementally builds one [`bist_ilp::Model`] per
//! synthesis run:
//!
//! 1. **register assignment** — the `x_{vr}` variables with their assignment
//!    and incompatibility constraints, plus the Section 3.5 search-space
//!    reduction (this module),
//! 2. **interconnection assignment** — the `z_{rml}` / `z_{mr}` variables,
//!    the required-connection constraints and the no-adverse-path
//!    constraints, Eqs. (1)–(2) ([`interconnect`](self)),
//! 3. **multiplexer assignment** — Eqs. (4)–(5) plus the one-hot size
//!    selectors that make the non-linear Table 1(b) cost exact
//!    ([`mux`](self)),
//! 4. **BIST register assignment** — the `s_{mrp}` / `t_{rmlp}` variables and
//!    Eqs. (6)–(23), with the Section 3.3.4 handling of constant-fed ports
//!    ([`bist`](self)),
//! 5. the **objective function** of Section 3.4 ([`objective`](self)).
//!
//! The reference (non-BIST) data path uses steps 1–3 and 5 only.

mod bist;
mod interconnect;
mod mux;
mod objective;
mod warmstart;

use std::collections::BTreeMap;

use bist_dfg::allocate::{left_edge, RegisterAssignment};
use bist_dfg::lifetime::LifetimeTable;
use bist_dfg::SynthesisInput;
use bist_ilp::{Model, VarId};

use crate::config::SynthesisConfig;
use crate::error::CoreError;

/// Identifier of an input port of a module, by dense indices.
pub(crate) type PortKey = (usize, usize);

/// Incremental builder of the ADVBIST integer linear program.
///
/// Cloning a formulation is cheap relative to rebuilding it and is how the
/// [`crate::engine::SynthesisEngine`] reuses the circuit-level base model
/// (register assignment + interconnect + mux sizing) across every k-test
/// session of a sweep: the base is built once, and each `k` applies its BIST
/// delta ([`BistFormulation::add_bist`]) onto a fresh clone.
#[derive(Debug, Clone)]
pub struct BistFormulation<'a> {
    pub(crate) input: &'a SynthesisInput,
    pub(crate) config: &'a SynthesisConfig,
    pub(crate) lifetimes: LifetimeTable,
    pub(crate) num_registers: usize,
    /// The ILP model under construction.
    pub model: Model,

    // Register assignment.
    pub(crate) x: BTreeMap<(usize, usize), VarId>,
    pub(crate) baseline: RegisterAssignment,

    // Interconnect.
    pub(crate) z_in: BTreeMap<(usize, usize, usize), VarId>,
    pub(crate) z_out: BTreeMap<(usize, usize), VarId>,
    pub(crate) register_fed_ports: Vec<PortKey>,
    pub(crate) constant_only_ports: Vec<PortKey>,
    pub(crate) constants_on_port: BTreeMap<PortKey, usize>,

    // Multiplexer sizing: objective terms collected while adding selectors,
    // plus the selector variables themselves (used by the warm start).
    pub(crate) mux_cost_terms: Vec<(VarId, f64)>,
    pub(crate) reg_mux_sel: BTreeMap<(usize, usize), VarId>,
    pub(crate) port_mux_sel: BTreeMap<(usize, usize, usize), VarId>,

    // BIST register assignment.
    pub(crate) num_sessions: usize,
    pub(crate) s: BTreeMap<(usize, usize, usize), VarId>,
    pub(crate) t: BTreeMap<(usize, usize, usize, usize), VarId>,
    pub(crate) t_reg: Vec<VarId>,
    pub(crate) s_reg: Vec<VarId>,
    pub(crate) b_reg: Vec<VarId>,
    pub(crate) c_reg: Vec<VarId>,
    pub(crate) t_reg_session: BTreeMap<(usize, usize), VarId>,
    pub(crate) s_reg_session: BTreeMap<(usize, usize), VarId>,
    pub(crate) c_reg_session: BTreeMap<(usize, usize), VarId>,
}

impl<'a> BistFormulation<'a> {
    /// Starts a formulation: creates the register-assignment variables and
    /// constraints (Section 2 semantics plus the Section 3.5 reduction).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::TooFewRegisters`] when the configured register
    /// count is below the maximal horizontal crossing, or a DFG error when
    /// the synthesis input is inconsistent.
    pub fn new(input: &'a SynthesisInput, config: &'a SynthesisConfig) -> Result<Self, CoreError> {
        let lifetimes = LifetimeTable::with_timing(input, config.input_timing)?;
        let minimum = lifetimes.min_registers();
        let num_registers = config.num_registers.unwrap_or(minimum);
        if num_registers < minimum {
            return Err(CoreError::TooFewRegisters {
                requested: num_registers,
                minimum,
            });
        }
        let baseline = left_edge(&lifetimes);

        let mut this = Self {
            input,
            config,
            lifetimes,
            num_registers,
            model: Model::new(format!("advbist_{}", input.name())),
            x: BTreeMap::new(),
            baseline,
            z_in: BTreeMap::new(),
            z_out: BTreeMap::new(),
            register_fed_ports: Vec::new(),
            constant_only_ports: Vec::new(),
            constants_on_port: BTreeMap::new(),
            mux_cost_terms: Vec::new(),
            reg_mux_sel: BTreeMap::new(),
            port_mux_sel: BTreeMap::new(),
            num_sessions: 0,
            s: BTreeMap::new(),
            t: BTreeMap::new(),
            t_reg: Vec::new(),
            s_reg: Vec::new(),
            b_reg: Vec::new(),
            c_reg: Vec::new(),
            t_reg_session: BTreeMap::new(),
            s_reg_session: BTreeMap::new(),
            c_reg_session: BTreeMap::new(),
        };
        this.add_register_assignment();
        Ok(this)
    }

    /// Number of data path registers of the formulation.
    pub fn num_registers(&self) -> usize {
        self.num_registers
    }

    /// Number of sub-test sessions (0 until [`BistFormulation::add_bist`] is
    /// called).
    pub fn num_sessions(&self) -> usize {
        self.num_sessions
    }

    /// Lifetime table of the synthesis input under the configured timing.
    pub fn lifetimes(&self) -> &LifetimeTable {
        &self.lifetimes
    }

    /// The `x_{vr}` variable for a (variable, register) pair, if it exists.
    pub fn x_var(&self, var: usize, register: usize) -> Option<VarId> {
        self.x.get(&(var, register)).copied()
    }

    /// The `s_{mrp}` variable for (module, register, session), if it exists.
    pub fn s_var(&self, module: usize, register: usize, session: usize) -> Option<VarId> {
        self.s.get(&(module, register, session)).copied()
    }

    /// The `t_{rmlp}` variable for (register, module, port, session), if it
    /// exists.
    pub fn t_var(
        &self,
        register: usize,
        module: usize,
        port: usize,
        session: usize,
    ) -> Option<VarId> {
        self.t.get(&(register, module, port, session)).copied()
    }

    /// Module input ports that are fed only by constants and therefore need a
    /// dedicated pattern generator during test (Section 3.3.4).
    pub fn constant_only_ports(&self) -> &[PortKey] {
        &self.constant_only_ports
    }

    /// Register assignment variables and constraints.
    ///
    /// * every register variable is assigned to exactly one register,
    /// * variables alive on a common clock boundary occupy distinct registers
    ///   (one clique constraint per boundary and register, which dominates
    ///   the pairwise incompatibility constraints),
    /// * Section 3.5: the variables of one maximum clique are pre-assigned to
    ///   distinct registers — we pin them to the register the left-edge
    ///   baseline gives them, so the baseline remains feasible and can serve
    ///   as a warm start.
    fn add_register_assignment(&mut self) {
        let dfg = self.input.dfg();

        for v in dfg.register_variables() {
            let mut row = Vec::new();
            for r in 0..self.num_registers {
                let var = self
                    .model
                    .add_binary(format!("x[{},R{r}]", dfg.var(v).name));
                self.x.insert((v.index(), r), var);
                row.push((var, 1.0));
            }
            self.model
                .add_eq(row, 1.0, format!("assign_{}", dfg.var(v).name));
        }

        // Incompatibility cliques: one per (boundary, register).
        for boundary in 0..=self.lifetimes.num_boundaries() {
            let alive = self.lifetimes.vars_at_boundary(boundary);
            if alive.len() < 2 {
                continue;
            }
            for r in 0..self.num_registers {
                let terms: Vec<_> = alive
                    .iter()
                    .map(|v| (self.x[&(v.index(), r)], 1.0))
                    .collect();
                self.model
                    .add_leq(terms, 1.0, format!("clique_b{boundary}_R{r}"));
            }
        }

        // Search-space reduction (Section 3.5).
        if self.config.search_space_reduction {
            for v in self.lifetimes.maximum_clique() {
                if let Some(r) = self.baseline.register_of(v) {
                    if r < self.num_registers {
                        let var = self.x[&(v.index(), r)];
                        self.model
                            .add_eq([(var, 1.0)], 1.0, format!("reduce_{}", dfg.var(v).name));
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bist_dfg::benchmarks;

    #[test]
    fn register_assignment_variables_and_constraints() {
        let input = benchmarks::figure1();
        let config = SynthesisConfig::default();
        let formulation = BistFormulation::new(&input, &config).unwrap();
        // 8 variables (no constants) x 3 registers.
        assert_eq!(formulation.x.len(), 8 * 3);
        assert_eq!(formulation.num_registers(), 3);
        // One assignment row per variable plus clique and reduction rows.
        assert!(formulation.model.num_constraints() >= 8);
        assert!(formulation.x_var(0, 0).is_some());
        assert!(formulation.x_var(0, 99).is_none());
    }

    #[test]
    fn too_few_registers_is_rejected() {
        let input = benchmarks::figure1();
        let config = SynthesisConfig::default().with_registers(2);
        assert!(matches!(
            BistFormulation::new(&input, &config),
            Err(CoreError::TooFewRegisters { minimum: 3, .. })
        ));
    }

    #[test]
    fn extra_registers_are_allowed() {
        let input = benchmarks::figure1();
        let config = SynthesisConfig::default().with_registers(4);
        let formulation = BistFormulation::new(&input, &config).unwrap();
        assert_eq!(formulation.num_registers(), 4);
        assert_eq!(formulation.x.len(), 8 * 4);
    }

    #[test]
    fn reduction_adds_fixing_rows() {
        let input = benchmarks::figure1();
        let with = SynthesisConfig::default();
        let without = SynthesisConfig::default().with_search_space_reduction(false);
        let a = BistFormulation::new(&input, &with).unwrap();
        let b = BistFormulation::new(&input, &without).unwrap();
        assert!(a.model.num_constraints() > b.model.num_constraints());
    }
}
