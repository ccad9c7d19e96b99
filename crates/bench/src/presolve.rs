//! Presolve/cuts ablation: the reducing pipeline + cut pool against the
//! PR-1 solver (no model reduction, no cuts), per circuit × k × bound mode.
//!
//! This is the machine-readable perf trail for the reduce layer
//! (`BENCH_presolve.json`), the companion of the k-sweep comparison in
//! [`crate::sweep`]. Every instance is solved three ways under the *same
//! deterministic node budget* and the same [`bist_ilp::BoundMode`]:
//!
//! * **baseline** — presolve and cuts off (the PR-1 engine),
//! * **reduced** — the reducing presolve on, cuts off,
//! * **cuts** — presolve and the cut pool on (the default configuration).
//!
//! A fourth solve runs the `cuts` configuration through the layered
//! [`SynthesisEngine`], which reduces the circuit base *once* and replays
//! each per-k BIST delta through the variable map — it must reproduce the
//! rebuild path's search exactly (`engine_matches`: same objective, node
//! count and simplex pivot count, on every circuit), which is what pins
//! down that the shared reduced base loses nothing.
//!
//! All comparisons are quoted in branch-and-bound node counts, which are
//! bit-reproducible under a node budget; wall-clock is measured by the
//! host-normalised repository benchmark (`perfbench/`) instead.
//!
//! Reading the artifact: the `cuts` column adds the Gomory cuts of the
//! default solver; on the paper circuits most of the node win over
//! `baseline` is already the reduce pipeline's, chiefly the implication
//! disaggregation. The `cuts` column is the one gated, because it is the
//! default solver configuration.

use bist_core::engine::SynthesisEngine;
use bist_core::formulation::BistFormulation;
use bist_core::{synthesis, CoreError, SynthesisConfig};
use bist_dfg::SynthesisInput;
use bist_ilp::{BoundMode, SolveStats, SolverConfig};

use crate::report::json;

/// The bound modes the ablation sweeps.
pub fn modes() -> Vec<(&'static str, BoundMode)> {
    vec![
        ("lp", BoundMode::LpRelaxation),
        ("prop", BoundMode::Propagation),
    ]
}

/// A deterministic, node-limited configuration for one ablation variant.
pub fn ablation_config(
    mode: BoundMode,
    node_limit: u64,
    presolve: bool,
    cuts: bool,
) -> SynthesisConfig {
    SynthesisConfig {
        solver: SolverConfig {
            budget: bist_ilp::Budget::nodes(node_limit),
            bound_mode: mode,
            presolve,
            cuts,
            ..SolverConfig::default()
        },
        ..SynthesisConfig::default()
    }
}

/// One circuit × k × mode ablation measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct PresolveRow {
    /// Circuit name.
    pub circuit: String,
    /// Number of sub-test sessions `k`.
    pub sessions: usize,
    /// Bound-mode label (`lp` or `prop`).
    pub mode: String,
    /// Nodes explored with presolve and cuts off (PR-1 behaviour).
    pub baseline_nodes: u64,
    /// Nodes explored with the reducing presolve only.
    pub reduced_nodes: u64,
    /// Nodes explored with presolve + cut pool (the default).
    pub cuts_nodes: u64,
    /// Nodes explored by the engine path (shared reduced base per circuit).
    pub engine_nodes: u64,
    /// Final objective of the baseline solve.
    pub baseline_objective: f64,
    /// Final objective of the presolve+cuts solve.
    pub cuts_objective: f64,
    /// Whether the engine solve reproduced the rebuild cuts solve exactly
    /// (same objective, node count and simplex pivot count).
    pub engine_matches: bool,
    /// Variables the reduction eliminated from the full per-k model.
    pub vars_removed: u64,
    /// Rows the reduction removed from the full per-k model.
    pub rows_removed: u64,
    /// `vars_removed` over the full per-k variable count.
    pub var_reduction: f64,
    /// `rows_removed` over the full per-k row count.
    pub row_reduction: f64,
    /// Cutting planes the default solve added.
    pub cuts_added: u64,
    /// Nodes until the baseline first reached the best objective any
    /// variant found (`None` when it never did within the budget).
    pub nodes_to_target_baseline: Option<u64>,
    /// Nodes until the presolve+cuts solve first reached that objective.
    pub nodes_to_target_cuts: Option<u64>,
}

impl PresolveRow {
    /// Serialises the row as a JSON object.
    pub fn to_json(&self) -> String {
        json::Obj::new()
            .str("circuit", &self.circuit)
            .u64("sessions", self.sessions as u64)
            .str("mode", &self.mode)
            .u64("baseline_nodes", self.baseline_nodes)
            .u64("reduced_nodes", self.reduced_nodes)
            .u64("cuts_nodes", self.cuts_nodes)
            .u64("engine_nodes", self.engine_nodes)
            .f64("baseline_objective", self.baseline_objective)
            .f64("cuts_objective", self.cuts_objective)
            .bool("engine_matches", self.engine_matches)
            .u64("vars_removed", self.vars_removed)
            .u64("rows_removed", self.rows_removed)
            .f64("var_reduction", self.var_reduction)
            .f64("row_reduction", self.row_reduction)
            .u64("cuts_added", self.cuts_added)
            .opt_u64("nodes_to_target_baseline", self.nodes_to_target_baseline)
            .opt_u64("nodes_to_target_cuts", self.nodes_to_target_cuts)
            .finish()
    }
}

/// Per-circuit record of the one-time base reduction the engine shares
/// across its sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct BaseReduction {
    /// Circuit name.
    pub circuit: String,
    /// Variables of the raw circuit base model.
    pub base_vars: u64,
    /// Rows of the raw circuit base model.
    pub base_rows: u64,
    /// Fraction of base variables eliminated.
    pub var_reduction: f64,
    /// Fraction of base rows removed.
    pub row_reduction: f64,
    /// Measured number of base (prefix) reductions performed for one whole
    /// engine sweep — construction plus every per-k solve — via the
    /// thread-local counter in `bist_ilp::reduce`. Must be exactly 1:
    /// [`SynthesisEngine::new`] reduces once and every k clones the result;
    /// the gate trips if a regression makes the sweep re-reduce per k.
    pub builds: u64,
}

impl BaseReduction {
    /// Serialises the record as a JSON object.
    pub fn to_json(&self) -> String {
        json::Obj::new()
            .str("circuit", &self.circuit)
            .u64("base_vars", self.base_vars)
            .u64("base_rows", self.base_rows)
            .f64("var_reduction", self.var_reduction)
            .f64("row_reduction", self.row_reduction)
            .u64("builds", self.builds)
            .finish()
    }
}

/// The full ablation result.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PresolveAblation {
    /// Per-solve node budget.
    pub node_limit: u64,
    /// One row per circuit × k × mode.
    pub rows: Vec<PresolveRow>,
    /// One base-reduction record per circuit.
    pub bases: Vec<BaseReduction>,
}

impl PresolveAblation {
    /// Serialises the ablation as a JSON object.
    pub fn to_json(&self) -> String {
        json::Obj::new()
            .u64("node_limit", self.node_limit)
            .array("bases", self.bases.iter().map(BaseReduction::to_json))
            .array("rows", self.rows.iter().map(PresolveRow::to_json))
            .finish()
    }

    /// Gate violations; empty means the gate passes. The engine path must
    /// reproduce the rebuild path exactly on every row of every circuit,
    /// and must reduce each circuit's base once per sweep. The node gate
    /// compares the default (reduce+cuts) solver against the PR-1 baseline
    /// on the exactly-solvable `figure1` circuit at the LP bound mode — the
    /// mode of the deterministic sweep benchmark, and the one the reduction
    /// targets (the disaggregated rows tighten the LP relaxation; under
    /// propagation-only bounds they can only perturb the branching order).
    /// Any figure1 `lp` instance where reduce+cuts explored more nodes is a
    /// violation, and the figure1 `lp` total must strictly drop.
    pub fn violations(&self) -> Vec<String> {
        let mut violations = Vec::new();
        for base in &self.bases {
            if base.builds != 1 {
                violations.push(format!(
                    "{}: the engine sweep reduced the base {} times (expected exactly once)",
                    base.circuit, base.builds
                ));
            }
        }
        for row in self.rows.iter().filter(|r| !r.engine_matches) {
            violations.push(format!(
                "{} k={} mode={}: engine path diverged from the rebuild path",
                row.circuit, row.sessions, row.mode
            ));
        }
        let mut total_baseline = 0u64;
        let mut total_cuts = 0u64;
        let mut seen = false;
        for row in self
            .rows
            .iter()
            .filter(|r| r.circuit == "figure1" && r.mode == "lp")
        {
            seen = true;
            total_baseline += row.baseline_nodes;
            total_cuts += row.cuts_nodes;
            if row.cuts_nodes > row.baseline_nodes {
                violations.push(format!(
                    "figure1 k={} mode={}: reduce+cuts explored {} nodes vs baseline {}",
                    row.sessions, row.mode, row.cuts_nodes, row.baseline_nodes
                ));
            }
        }
        if seen && total_cuts >= total_baseline {
            violations.push(format!(
                "figure1: reduce+cuts total {total_cuts} nodes is not strictly below the \
                 baseline total {total_baseline}"
            ));
        }
        violations
    }
}

/// Dimensions of the full per-k model, for the reduction ratios.
fn model_dims(input: &SynthesisInput, k: usize) -> Result<(usize, usize), CoreError> {
    let config = SynthesisConfig::default();
    let mut formulation = BistFormulation::new(input, &config)?;
    formulation.add_interconnect();
    formulation.add_mux_sizing();
    formulation.add_bist(k)?;
    formulation.set_bist_objective();
    Ok((
        formulation.model.num_vars(),
        formulation.model.num_constraints(),
    ))
}

fn nodes_to(stats: &SolveStats, target: f64) -> Option<u64> {
    stats.nodes_to_target(target, 1e-6)
}

/// Runs the ablation for one circuit over every `k` and every bound mode.
///
/// # Errors
///
/// Propagates the first synthesis error of any variant.
pub fn run_circuit(
    name: &str,
    input: &SynthesisInput,
    node_limit: u64,
) -> Result<(Vec<PresolveRow>, BaseReduction), CoreError> {
    let num_sessions = input.binding().num_modules();
    let mut rows = Vec::new();
    let mut base_record = None;

    // The per-k model dimensions are bound-mode independent; compute them
    // once per circuit instead of once per mode.
    let dims: Vec<(usize, usize)> = (1..=num_sessions)
        .map(|k| model_dims(input, k))
        .collect::<Result<_, _>>()?;

    for (mode_name, mode) in modes() {
        let baseline_config = ablation_config(mode, node_limit, false, false);
        let reduced_config = ablation_config(mode, node_limit, true, false);
        let cuts_config = ablation_config(mode, node_limit, true, true);
        // One engine per mode: run its entire k-sweep first, with the
        // thread-local prefix-reduction counter around it, so the
        // "base reduced once per sweep" claim is *measured* — the engine's
        // construction reduces the base and the per-k solves must add zero
        // further prefix reductions.
        let before = bist_ilp::reduce::prefix_reductions_on_thread();
        let engine = SynthesisEngine::new(input, &cuts_config)?;
        let engine_designs = (1..=num_sessions)
            .map(|k| engine.synthesize(k))
            .collect::<Result<Vec<_>, _>>()?;
        let builds = (bist_ilp::reduce::prefix_reductions_on_thread() - before) as u64;
        let replace = base_record
            .as_ref()
            .map(|b: &BaseReduction| builds > b.builds)
            .unwrap_or(true);
        if replace {
            // Record the worst (highest) measured build count across modes,
            // so a rebuild-per-k regression in any mode trips the gate.
            let report = engine
                .base_reduce_report()
                .expect("presolve is on in the cuts configuration");
            base_record = Some(BaseReduction {
                circuit: name.to_string(),
                base_vars: report.original_vars as u64,
                base_rows: report.original_rows as u64,
                var_reduction: report.var_reduction_ratio(),
                row_reduction: report.row_reduction_ratio(),
                builds,
            });
        }

        for k in 1..=num_sessions {
            let baseline = synthesis::synthesize_bist(input, k, &baseline_config)?;
            let reduced = synthesis::synthesize_bist(input, k, &reduced_config)?;
            let cuts = synthesis::synthesize_bist(input, k, &cuts_config)?;
            let engine_design = &engine_designs[k - 1];

            let (num_vars, num_rows) = dims[k - 1];
            let target = baseline
                .objective
                .min(reduced.objective)
                .min(cuts.objective);
            let engine_matches = (engine_design.objective - cuts.objective).abs() < 1e-6
                && engine_design.stats.nodes == cuts.stats.nodes
                && engine_design.stats.lp_pivots == cuts.stats.lp_pivots;

            rows.push(PresolveRow {
                circuit: name.to_string(),
                sessions: k,
                mode: mode_name.to_string(),
                baseline_nodes: baseline.stats.nodes,
                reduced_nodes: reduced.stats.nodes,
                cuts_nodes: cuts.stats.nodes,
                engine_nodes: engine_design.stats.nodes,
                baseline_objective: baseline.objective,
                cuts_objective: cuts.objective,
                engine_matches,
                vars_removed: cuts.stats.presolve_vars_removed,
                rows_removed: cuts.stats.presolve_rows_removed,
                var_reduction: cuts.stats.presolve_vars_removed as f64 / num_vars.max(1) as f64,
                row_reduction: cuts.stats.presolve_rows_removed as f64 / num_rows.max(1) as f64,
                cuts_added: cuts.stats.cuts,
                nodes_to_target_baseline: nodes_to(&baseline.stats, target),
                nodes_to_target_cuts: nodes_to(&cuts.stats, target),
            });
        }
    }

    Ok((
        rows,
        base_record.expect("at least one mode ran for the circuit"),
    ))
}

/// Runs the ablation over the given circuits.
///
/// # Errors
///
/// Propagates the first synthesis error.
pub fn run_all(
    circuits: &[(&str, SynthesisInput)],
    node_limit: u64,
) -> Result<PresolveAblation, CoreError> {
    let mut ablation = PresolveAblation {
        node_limit,
        ..PresolveAblation::default()
    };
    for (name, input) in circuits {
        let (rows, base) = run_circuit(name, input, node_limit)?;
        ablation.rows.extend(rows);
        ablation.bases.push(base);
    }
    Ok(ablation)
}

/// Renders the ablation as a plain-text table.
pub fn render(ablation: &PresolveAblation) -> String {
    let mut out = String::new();
    out.push_str("presolve/cuts ablation: nodes per circuit x k x bound mode\n");
    out.push_str(&format!(
        "{:<10} {:>2} {:>5} {:>10} {:>10} {:>10} {:>7} {:>7} {:>6}  engine\n",
        "Ckt", "k", "mode", "baseline", "reduced", "cuts", "var-rm", "row-rm", "#cuts"
    ));
    for row in &ablation.rows {
        out.push_str(&format!(
            "{:<10} {:>2} {:>5} {:>10} {:>10} {:>10} {:>6.0}% {:>6.0}% {:>6}  {}\n",
            row.circuit,
            row.sessions,
            row.mode,
            row.baseline_nodes,
            row.reduced_nodes,
            row.cuts_nodes,
            100.0 * row.var_reduction,
            100.0 * row.row_reduction,
            row.cuts_added,
            if row.engine_matches {
                "match"
            } else {
                "MISMATCH"
            }
        ));
    }
    for base in &ablation.bases {
        out.push_str(&format!(
            "base {}: {} vars / {} rows, reduced once per sweep ({:.0}% vars, {:.0}% rows)\n",
            base.circuit,
            base.base_vars,
            base.base_rows,
            100.0 * base.var_reduction,
            100.0 * base.row_reduction
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bist_dfg::benchmarks;

    #[test]
    fn figure1_reduce_and_cuts_strictly_lower_node_counts() {
        let input = benchmarks::figure1();
        let (rows, base) = run_circuit("figure1", &input, 20_000).unwrap();
        assert_eq!(rows.len(), 2 * 2); // 2 modes x k in {1, 2}
        let ablation = PresolveAblation {
            node_limit: 20_000,
            rows,
            bases: vec![base],
        };
        let violations = ablation.violations();
        assert!(
            violations.is_empty(),
            "{violations:?}\n{}",
            render(&ablation)
        );
        // The base reduction must actually shrink the model, and happen once.
        assert_eq!(ablation.bases[0].builds, 1);
        assert!(ablation.bases[0].var_reduction > 0.0);
        for row in &ablation.rows {
            assert!(row.engine_matches, "{row:?}");
            assert!(row.vars_removed > 0, "{row:?}");
            // Exactly solvable: every variant must agree on the optimum.
            assert!((row.baseline_objective - row.cuts_objective).abs() < 1e-6);
        }
        let json = ablation.to_json();
        assert!(json.contains("\"figure1\""));
        assert!(json.contains("\"node_limit\": 20000"));
        let text = render(&ablation);
        assert!(text.contains("figure1"));
    }

    #[test]
    fn engine_divergence_on_any_circuit_fails_the_gate() {
        let row = |circuit: &str| PresolveRow {
            circuit: circuit.to_string(),
            sessions: 1,
            mode: "prop".to_string(),
            baseline_nodes: 10,
            reduced_nodes: 10,
            cuts_nodes: 10,
            engine_nodes: 10,
            baseline_objective: 1.0,
            cuts_objective: 1.0,
            engine_matches: true,
            vars_removed: 0,
            rows_removed: 0,
            var_reduction: 0.0,
            row_reduction: 0.0,
            cuts_added: 0,
            nodes_to_target_baseline: None,
            nodes_to_target_cuts: None,
        };
        let mut ablation = PresolveAblation {
            node_limit: 10,
            rows: vec![row("figure1"), row("tseng")],
            bases: Vec::new(),
        };
        assert!(ablation.violations().is_empty());
        ablation.rows[1].engine_matches = false;
        let violations = ablation.violations();
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].starts_with("tseng k=1"), "{violations:?}");
    }
}
