//! Configuration of the ADVBIST synthesis runs.

use std::time::Duration;

use bist_datapath::CostModel;
use bist_dfg::InputTiming;
use bist_ilp::{BoundMode, Budget, SolverConfig};

/// Configuration shared by the reference and the BIST synthesis ILPs.
#[derive(Debug, Clone)]
pub struct SynthesisConfig {
    /// Transistor cost model (defaults to the paper's 8-bit Table 1).
    pub cost: CostModel,
    /// Number of data path registers; `None` uses the minimum (the maximal
    /// horizontal crossing), which is what the paper's experiments do.
    pub num_registers: Option<usize>,
    /// When primary inputs are loaded into registers.
    pub input_timing: InputTiming,
    /// Apply the Section 3.5 search-space reduction (pre-assign a maximum
    /// clique of mutually incompatible variables to distinct registers).
    pub search_space_reduction: bool,
    /// Solve the register-assignment-only ILP first and use its solution to
    /// warm-start the full concurrent model. Guarantees a feasible design
    /// even when the time limit is too small to explore the joint space.
    pub warm_start: bool,
    /// Run the RTL back-end's simulated validation
    /// ([`bist_rtl::validate_simulated`]) on every extracted design: emit
    /// the netlist, simulate each sub-test session cycle by cycle and fail
    /// unless every module under test is provably exercised and observed.
    /// Purely observational — it runs after extraction and never perturbs
    /// the ILP search. Off by default (it costs a few simulation passes per
    /// design).
    pub rtl_validation: bool,
    /// Branch-and-bound configuration for the underlying solver.
    pub solver: SolverConfig,
}

impl Default for SynthesisConfig {
    fn default() -> Self {
        Self {
            cost: CostModel::eight_bit(),
            num_registers: None,
            input_timing: InputTiming::JustInTime,
            search_space_reduction: true,
            warm_start: true,
            rtl_validation: false,
            solver: SolverConfig {
                budget: Budget::time(Duration::from_secs(30)),
                bound_mode: BoundMode::Hybrid { lp_depth: 2 },
                ..SolverConfig::default()
            },
        }
    }
}

impl SynthesisConfig {
    /// A configuration that solves small models exactly (no time limit, LP
    /// bounds everywhere). Use only for circuits of the size of the paper's
    /// Figure 1 example or in tests.
    pub fn exact() -> Self {
        Self {
            solver: SolverConfig::exact(),
            ..Self::default()
        }
    }

    /// A configuration with the given wall-clock budget per ILP solve; this
    /// mirrors the paper's 24-CPU-hour cap, scaled to interactive runs.
    pub fn time_boxed(limit: Duration) -> Self {
        Self::budgeted(Budget::time(limit))
    }

    /// A configuration under an arbitrary [`Budget`] per ILP solve — the
    /// preset the job service builds on (node limits for deterministic
    /// sweeps, wall-clock limits for interactive runs, deadlines for
    /// batches).
    pub fn budgeted(budget: Budget) -> Self {
        Self {
            solver: SolverConfig {
                budget,
                bound_mode: BoundMode::Hybrid { lp_depth: 1 },
                ..SolverConfig::default()
            },
            ..Self::default()
        }
    }

    /// Builder-style setter for the register count.
    pub fn with_registers(mut self, registers: usize) -> Self {
        self.num_registers = Some(registers);
        self
    }

    /// Builder-style setter for the cost model.
    pub fn with_cost(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Builder-style toggle for the search-space reduction.
    pub fn with_search_space_reduction(mut self, enabled: bool) -> Self {
        self.search_space_reduction = enabled;
        self
    }

    /// Builder-style toggle for the simulated RTL validation pass.
    pub fn with_rtl_validation(mut self, enabled: bool) -> Self {
        self.rtl_validation = enabled;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_setup() {
        let config = SynthesisConfig::default();
        assert_eq!(config.cost.width(), 8);
        assert!(config.num_registers.is_none());
        assert!(config.search_space_reduction);
    }

    #[test]
    fn builders_compose() {
        let config = SynthesisConfig::exact()
            .with_registers(6)
            .with_search_space_reduction(false);
        assert_eq!(config.num_registers, Some(6));
        assert!(!config.search_space_reduction);
        assert!(config.solver.budget.is_unlimited());
        let boxed = SynthesisConfig::time_boxed(Duration::from_secs(5));
        assert_eq!(boxed.solver.budget.time_limit, Some(Duration::from_secs(5)));
        let budgeted = SynthesisConfig::budgeted(Budget::nodes(50));
        assert_eq!(budgeted.solver.budget.node_limit, Some(50));
        assert!(budgeted.solver.budget.time_limit.is_none());
    }
}
