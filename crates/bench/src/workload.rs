//! Workloads and solver budgets shared by the harness binaries.

use std::collections::BTreeMap;
use std::fmt;

use bist_core::SynthesisConfig;
use bist_dfg::{benchmarks, SynthesisInput};
use bist_ilp::{BoundMode, Budget, SolverConfig};

/// Default per-solve node budget of the deterministic sweep comparison.
pub const DEFAULT_SWEEP_NODES: u64 = 1000;

/// figure1 followed by the paper's six evaluation circuits in table order:
/// the circuits the k-sweep, Tables 2–3 and the RTL goldens cover.
pub fn sweep_circuits() -> Vec<(&'static str, SynthesisInput)> {
    let mut circuits = vec![("figure1", benchmarks::figure1())];
    circuits.extend(benchmarks::all());
    circuits
}

/// Reads the sweep's per-solve node budget from the process environment
/// with [`node_limit_from_vars`], exiting with status 2 and a diagnostic on
/// any error, so CI never silently runs with the wrong budget.
pub(crate) fn read_node_limit() -> u64 {
    let vars = std::env::vars_os().map(|(name, value)| {
        (
            name.to_string_lossy().into_owned(),
            value.to_string_lossy().into_owned(),
        )
    });
    match node_limit_from_vars(vars) {
        Ok(nodes) => nodes,
        Err(e) => {
            eprintln!("solver budget: {e}");
            std::process::exit(2);
        }
    }
}

/// The sweep's node budget from a set of `(name, value)` variables:
/// `BIST_NODE_LIMIT` (an integer ≥ 1), or [`DEFAULT_SWEEP_NODES`] when it is
/// unset. Names outside the `BIST_` prefix are ignored.
///
/// # Errors
///
/// A malformed `BIST_NODE_LIMIT`, or any other `BIST_*` name (a typo or a
/// retired variable such as `BIST_TIME_LIMIT_SECS`), is an [`EnvError`]
/// naming the variable and its value, the alphabetically first when there
/// are several.
pub(crate) fn node_limit_from_vars(
    vars: impl IntoIterator<Item = (String, String)>,
) -> Result<u64, EnvError> {
    let vars: BTreeMap<String, String> = vars
        .into_iter()
        .filter(|(name, _)| name.starts_with("BIST_"))
        .collect();
    let mut node_limit = DEFAULT_SWEEP_NODES;
    for (var, value) in vars {
        let reason = match (var.as_str(), value.trim().parse()) {
            ("BIST_NODE_LIMIT", Ok(0)) => "node limit must be at least 1",
            ("BIST_NODE_LIMIT", Ok(nodes)) => {
                node_limit = nodes;
                continue;
            }
            ("BIST_NODE_LIMIT", Err(_)) => "expected an integer",
            _ => "unknown variable; BIST_NODE_LIMIT is the only one read",
        };
        return Err(EnvError { var, value, reason });
    }
    Ok(node_limit)
}

/// A malformed or unknown `BIST_*` environment variable.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct EnvError {
    var: String,
    value: String,
    reason: &'static str,
}

impl fmt::Display for EnvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid {}={:?}: {}", self.var, self.value, self.reason)
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
    }

    /// The pure reader over (name, value) pairs: the environment is never
    /// mutated (tests run in parallel).
    fn read(pairs: &[(&str, &str)]) -> Result<u64, EnvError> {
        node_limit_from_vars(pairs.iter().map(|&(k, v)| (k.to_string(), v.to_string())))
    }

    #[test]
    fn env_budget_parsing() {
        assert_eq!(read(&[]), Ok(DEFAULT_SWEEP_NODES));
        assert_eq!(DEFAULT_SWEEP_NODES, 1000);
        assert_eq!(read(&[("BIST_NODE_LIMIT", "50")]), Ok(50));
        // Names outside the prefix are no business of the harness.
        assert_eq!(
            read(&[("PATH", "/bin"), ("XBIST_NODE_LIMIT", "x")]),
            Ok(DEFAULT_SWEEP_NODES)
        );

        let sweep = sweep_config(42);
        assert_eq!(sweep.solver.budget.node_limit, Some(42));
        assert!(sweep.solver.budget.time_limit.is_none());
        assert!(sweep.solver.budget.deadline.is_none());
        assert_eq!(sweep.solver.bound_mode, BoundMode::LpRelaxation);
    }

    #[test]
    fn node_limit_parse_failures_name_the_variable() {
        // Malformed values fail loudly, naming the variable and the value.
        for (raw, reason) in [("0", "at least 1"), ("garbage", "integer")] {
            let err = read(&[("BIST_NODE_LIMIT", raw)]).unwrap_err();
            assert_eq!(
                (err.var.as_str(), err.value.as_str()),
                ("BIST_NODE_LIMIT", raw)
            );
            assert!(err.reason.contains(reason), "{err}");
            assert!(err.to_string().contains(raw), "{err}");
        }
    }

    #[test]
    fn unknown_bist_variables_fail_loudly() {
        // Any other BIST_* name fails, even next to a valid BIST_NODE_LIMIT:
        // the retired node alias and cache size, the three retired budget
        // variables, and a typo.
        for name in [
            "BIST_SWEEP_NODES",
            "BIST_CACHE_MB",
            "BIST_TIME_LIMIT_SECS",
            "BIST_DEADLINE_SECS",
            "BIST_SNAPSHOT",
            "BIST_NODE_LIMT",
        ] {
            let err = read(&[("BIST_NODE_LIMIT", "50"), (name, "1")]).unwrap_err();
            assert_eq!((err.var.as_str(), err.value.as_str()), (name, "1"));
            assert!(err.reason.contains("unknown"), "{err}");
        }
    }
}
