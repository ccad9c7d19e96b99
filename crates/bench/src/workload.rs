//! Workloads and solver budgets shared by the harness binaries.

use std::time::Duration;

use bist_core::SynthesisConfig;
use bist_dfg::{benchmarks, SynthesisInput};
use bist_ilp::{BoundMode, Budget, SolverConfig};

/// Default per-instance wall-clock budget of the table/figure harnesses.
pub const DEFAULT_TABLE_SECS: u64 = 5;
/// Default per-solve node budget of the deterministic sweep comparison.
pub const DEFAULT_SWEEP_NODES: u64 = 1000;

/// The six evaluation circuits of the paper, in table order.
pub fn circuits() -> Vec<(&'static str, SynthesisInput)> {
    benchmarks::all()
}

/// figure1, tseng and paulin: the circuits the node-budgeted gates (sweep,
/// presolve, service, RTL) run on.
pub fn small_circuits() -> Vec<(&'static str, SynthesisInput)> {
    benchmarks::small()
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

/// The per-solve [`Budget`] of the table/figure harnesses: the
/// environment's wall-clock limit (default [`DEFAULT_TABLE_SECS`]) plus
/// any `BIST_DEADLINE_SECS` cap on the whole run. Node limits are *not*
/// carried over — those configure the deterministic comparisons (sweep and
/// ablations), not the wall-clock tables.
pub fn table_budget() -> Budget {
    let mut budget = budget_from_env().or_time(Duration::from_secs(DEFAULT_TABLE_SECS));
    budget.node_limit = None;
    budget
}

/// Wall-clock budget per table/figure ILP solve (the time component of
/// [`table_budget`]).
pub fn table_time_budget() -> Duration {
    table_budget().time_limit.expect("or_time fills the limit")
}

/// The synthesis configuration used by the harness: the paper's 8-bit cost
/// model with the given time budget per ILP solve.
pub fn quick_config(limit: Duration) -> SynthesisConfig {
    SynthesisConfig::time_boxed(limit)
}

/// [`quick_config`] under a full [`Budget`] (time limit plus any absolute
/// deadline), as the table/figure binaries build from [`table_budget`].
pub fn quick_config_budget(budget: Budget) -> SynthesisConfig {
    SynthesisConfig::budgeted(budget)
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

/// Maps a closure over circuits on a scoped thread pool and returns the
/// results in circuit order — the harness tables stay byte-identical no
/// matter how the threads are scheduled.
///
/// The worker count is capped at the machine's available parallelism, so a
/// wall-clock-limited solve never shares its core with more workers than
/// the machine actually has; on a single-core host this degenerates to the
/// sequential loop (and its solve quality) exactly.
///
/// # Panics
///
/// Panics if a worker thread panics.
pub fn par_map_circuits<R, F>(circuits: &[(&str, SynthesisInput)], f: F) -> Vec<R>
where
    R: Send,
    F: Fn(&str, &SynthesisInput) -> R + Sync,
{
    bist_core::engine::par_map_ordered(circuits, |(name, input)| f(name, input))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn six_circuits_in_table_order() {
        let names: Vec<&str> = circuits().iter().map(|(n, _)| *n).collect();
        assert_eq!(
            names,
            vec!["tseng", "paulin", "fir6", "iir3", "dct4", "wavelet6"]
        );
        assert_eq!(small_circuits().len(), 3);
    }

    #[test]
    fn env_budget_parsing() {
        // Do not mutate the environment (tests run in parallel); just check
        // the default path and the config construction. The precedence and
        // parse-failure matrix lives in `bist_ilp::session`'s unit tests
        // against `Budget::from_lookup`.
        let limit = table_time_budget();
        assert!(limit >= Duration::from_millis(1));
        let config = quick_config(Duration::from_millis(250));
        assert_eq!(
            config.solver.budget.time_limit,
            Some(Duration::from_millis(250))
        );
        let sweep = sweep_config(42);
        assert_eq!(sweep.solver.budget.node_limit, Some(42));
        assert!(sweep.solver.budget.time_limit.is_none());
    }
}
