//! Workloads and solver budgets shared by the harness binaries.

use bist_core::SynthesisConfig;
use bist_dfg::{benchmarks, SynthesisInput};
use bist_ilp::{BoundMode, Budget, SolverConfig};

/// Default per-solve node budget of the deterministic sweep comparison.
pub const DEFAULT_SWEEP_NODES: u64 = 1000;

/// figure1, tseng and paulin: the circuits the presolve and service gates
/// run on.
pub fn small_circuits() -> Vec<(&'static str, SynthesisInput)> {
    benchmarks::small()
}

/// figure1 followed by the paper's six evaluation circuits in table order:
/// the circuits the k-sweep, Tables 2–3 and the RTL goldens cover.
pub fn sweep_circuits() -> Vec<(&'static str, SynthesisInput)> {
    let mut circuits = vec![("figure1", benchmarks::figure1())];
    circuits.extend(benchmarks::all());
    circuits
}

/// Reads the harness [`Budget`] from the environment (`BIST_NODE_LIMIT`,
/// `BIST_TIME_LIMIT_SECS`, `BIST_DEADLINE_SECS`, legacy `BIST_SWEEP_NODES`
/// — see [`Budget::from_env`] for precedence), exiting with a diagnostic on
/// malformed values so CI never silently runs with the wrong budget.
pub fn budget_from_env() -> Budget {
    match Budget::from_env() {
        Ok(budget) => budget,
        Err(e) => {
            eprintln!("solver budget: {e}");
            std::process::exit(2);
        }
    }
}

/// A *deterministic* synthesis configuration for the k-sweep comparison:
/// node-limited instead of time-limited, so repeated runs (and the rebuild
/// vs engine variants) explore bit-identical search trees regardless of
/// machine speed or load.
pub fn sweep_config(node_limit: u64) -> SynthesisConfig {
    SynthesisConfig {
        solver: SolverConfig {
            budget: Budget::nodes(node_limit),
            bound_mode: BoundMode::LpRelaxation,
            ..SolverConfig::default()
        },
        ..SynthesisConfig::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn six_circuits_in_table_order() {
        let names: Vec<&str> = sweep_circuits().iter().map(|(n, _)| *n).collect();
        assert_eq!(
            names,
            vec!["figure1", "tseng", "paulin", "fir6", "iir3", "dct4", "wavelet6"]
        );
        assert_eq!(small_circuits().len(), 3);
    }

    #[test]
    fn env_budget_parsing() {
        // Do not mutate the environment (tests run in parallel); just check
        // the config construction. The precedence and parse-failure matrix
        // lives in `bist_ilp::session`'s unit tests against
        // `Budget::from_lookup`.
        let sweep = sweep_config(42);
        assert_eq!(sweep.solver.budget.node_limit, Some(42));
        assert!(sweep.solver.budget.time_limit.is_none());
        assert!(sweep.solver.budget.deadline.is_none());
        assert_eq!(sweep.solver.bound_mode, BoundMode::LpRelaxation);
    }
}
