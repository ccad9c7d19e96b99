//! k-sweep benchmark: the layered [`SynthesisEngine`] against the
//! rebuild-per-k baseline, per circuit.
//!
//! This is the machine-readable perf trail the repository tracks across PRs
//! (`BENCH_sweep.json`). For every circuit the sweep is run three ways under
//! the *same deterministic node budget* (see
//! [`crate::workload::sweep_config`]):
//!
//! * **rebuild** — a fresh formulation per `k`, solved sequentially with the
//!   left-edge warm start (the seed behaviour),
//! * **chained** — the shared-base engine, sequentially, with the k−1
//!   incumbent chained in as an extra warm start,
//! * **parallel** — the shared-base engine across a scoped thread pool.
//!
//! The parallel variant runs bit-identical searches to the rebuild variant,
//! so its objectives must match exactly — that hard invariant is
//! [`CircuitSweep::objectives_match`]. The chained variant starts every
//! solve from an equal-or-better incumbent; on instances solved to proven
//! optimality its objectives are identical, but under a node cap the
//! stronger initial pruning redirects the search, and the capped incumbent
//! can land either side of the baseline's — that soft signal is reported
//! separately as [`CircuitSweep::chained_not_worse`], not folded into the
//! invariant. Two wall-clock comparisons are recorded: the raw sweep times,
//! and the *time-to-quality* — how long each variant needed to reach the
//! rebuild baseline's final objective for every `k`. The latter is where
//! warm-start chaining shows up even on a single-core machine: for `k ≥ 2`
//! the chained incumbent usually meets the baseline's final quality before
//! the tree search even starts.

use std::time::Instant;

use bist_core::engine::{SweepOutcome, SynthesisEngine};
use bist_core::{synthesis, BistDesign, CoreError, SynthesisConfig};
use bist_dfg::SynthesisInput;

use crate::report::json;

/// Per-k record of one sweep variant.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepKRow {
    /// Number of sub-test sessions `k`.
    pub sessions: usize,
    /// Objective value reported by the solver.
    pub objective: f64,
    /// Total design area in transistors.
    pub area: u64,
    /// Wall-clock seconds of the solve (including extraction).
    pub seconds: f64,
    /// Seconds until the final incumbent was found (0 when it came from a
    /// warm start).
    pub seconds_to_best: f64,
    /// Nodes explored until the final incumbent was found.
    pub nodes_to_best: u64,
    /// Seconds until the incumbent first matched the rebuild baseline's
    /// final objective for this `k` (`None` for the baseline itself and for
    /// solves that never got there).
    pub seconds_to_baseline: Option<f64>,
    /// Nodes explored until the incumbent first matched the rebuild
    /// baseline's final objective for this `k`.
    pub nodes_to_baseline: Option<u64>,
    /// Branch-and-bound nodes explored.
    pub nodes: u64,
    /// Simplex pivots across all LP relaxations.
    pub lp_pivots: u64,
    /// Pivots charged under the Bland anti-cycling fallback (devex priced
    /// the rest).
    pub bland_pivots: u64,
    /// Cutting planes emitted into the pool, by kind.
    pub cuts_emitted: bist_ilp::CutCounts,
    /// Cutting planes still active in the final row set, by kind.
    pub cuts_active: bist_ilp::CutCounts,
    /// Where the final incumbent came from (`""` when there was none):
    /// warm start, tree search, or one of the scheduled heuristics.
    pub incumbent_source: String,
    /// Whether the k−1 incumbent was chained in as a warm start.
    pub chained: bool,
    /// Whether optimality was proven.
    pub optimal: bool,
}

impl SweepKRow {
    fn from_design(design: &BistDesign, seconds: f64, chained: bool) -> Self {
        Self {
            sessions: design.sessions,
            objective: design.objective,
            area: design.area.total(),
            seconds,
            seconds_to_best: design.stats.seconds_to_best().unwrap_or(0.0),
            nodes_to_best: design.stats.nodes_to_best().unwrap_or(0),
            seconds_to_baseline: None,
            nodes_to_baseline: None,
            nodes: design.stats.nodes,
            lp_pivots: design.stats.lp_pivots,
            bland_pivots: design.stats.bland_pivots,
            cuts_emitted: design.stats.cuts_emitted,
            cuts_active: design.stats.cuts_active,
            incumbent_source: design
                .stats
                .improvements
                .last()
                .map(|i| i.source.to_string())
                .unwrap_or_default(),
            chained,
            optimal: design.optimal,
        }
    }

    /// Serialises the row as a JSON object.
    pub fn to_json(&self) -> String {
        json::Obj::new()
            .u64("sessions", self.sessions as u64)
            .f64("objective", self.objective)
            .u64("area", self.area)
            .f64("seconds", self.seconds)
            .f64("seconds_to_best", self.seconds_to_best)
            .u64("nodes_to_best", self.nodes_to_best)
            .f64(
                "seconds_to_baseline",
                self.seconds_to_baseline.unwrap_or(f64::NAN),
            )
            .opt_u64("nodes_to_baseline", self.nodes_to_baseline)
            .u64("nodes", self.nodes)
            .u64("lp_pivots", self.lp_pivots)
            .u64("bland_pivots", self.bland_pivots)
            .raw(
                "cuts_emitted",
                crate::report::cut_counts_json(&self.cuts_emitted),
            )
            .raw(
                "cuts_active",
                crate::report::cut_counts_json(&self.cuts_active),
            )
            .str("incumbent_source", &self.incumbent_source)
            .bool("chained", self.chained)
            .bool("optimal", self.optimal)
            .finish()
    }
}

/// The three sweep variants compared for one circuit.
#[derive(Debug, Clone, PartialEq)]
pub struct CircuitSweep {
    /// Circuit name.
    pub circuit: String,
    /// Wall-clock of the rebuild-per-k baseline sweep.
    pub rebuild_seconds: f64,
    /// Wall-clock of the engine sweep with chained warm starts.
    pub chained_seconds: f64,
    /// Wall-clock of the engine sweep across the thread pool.
    pub parallel_seconds: f64,
    /// Time the rebuild baseline needed to find its own final incumbents
    /// (summed over k).
    pub rebuild_quality_seconds: f64,
    /// Time the chained engine sweep needed to reach the rebuild baseline's
    /// final objective for every k (summed; this is the headline engine win).
    pub chained_quality_seconds: f64,
    /// Node count behind [`CircuitSweep::rebuild_quality_seconds`]
    /// (deterministic, unlike wall-clock).
    pub rebuild_quality_nodes: u64,
    /// Node count behind [`CircuitSweep::chained_quality_seconds`].
    pub chained_quality_nodes: u64,
    /// Whether the parallel objectives are identical to the rebuild
    /// objectives — the engine-vs-rebuild bit-identical cross-check. Must
    /// always hold.
    pub objectives_match: bool,
    /// Whether every chained objective is equal-or-better than the rebuild
    /// baseline's. Guaranteed on instances solved to proven optimality;
    /// under a node cap the chained incumbent's redirected search may end
    /// slightly worse, so this is a soft quality signal, not an invariant.
    pub chained_not_worse: bool,
    /// Per-k rows of the rebuild baseline.
    pub rebuild: Vec<SweepKRow>,
    /// Per-k rows of the chained engine sweep.
    pub chained: Vec<SweepKRow>,
    /// Per-k rows of the parallel engine sweep.
    pub parallel: Vec<SweepKRow>,
}

impl CircuitSweep {
    /// Serialises the record as a JSON object.
    pub fn to_json(&self) -> String {
        json::Obj::new()
            .str("circuit", &self.circuit)
            .f64("rebuild_seconds", self.rebuild_seconds)
            .f64("chained_seconds", self.chained_seconds)
            .f64("parallel_seconds", self.parallel_seconds)
            .f64("rebuild_quality_seconds", self.rebuild_quality_seconds)
            .f64("chained_quality_seconds", self.chained_quality_seconds)
            .u64("rebuild_quality_nodes", self.rebuild_quality_nodes)
            .u64("chained_quality_nodes", self.chained_quality_nodes)
            // Reported for the artifact trail only — never gated: it is a
            // ratio of two wall-clock sums, and wall-clock is noisy on
            // shared runners. The deterministic twin the gates may read is the
            // `*_quality_nodes` pair above.
            .f64(
                "quality_speedup",
                self.rebuild_quality_seconds / self.chained_quality_seconds.max(1e-9),
            )
            .bool("objectives_match", self.objectives_match)
            .bool("chained_not_worse", self.chained_not_worse)
            .array("rebuild", self.rebuild.iter().map(SweepKRow::to_json))
            .array("chained", self.chained.iter().map(SweepKRow::to_json))
            .array("parallel", self.parallel.iter().map(SweepKRow::to_json))
            .finish()
    }
}

fn rows_from_outcomes(outcomes: &[SweepOutcome]) -> Vec<SweepKRow> {
    outcomes
        .iter()
        .map(|o| SweepKRow::from_design(&o.design, o.seconds, o.chained))
        .collect()
}

/// Runs the three sweep variants on one circuit, cross-checks objectives and
/// computes the time-to-quality comparison.
///
/// # Errors
///
/// Propagates the first synthesis error of any variant.
pub fn run_circuit(
    name: &str,
    input: &SynthesisInput,
    config: &SynthesisConfig,
) -> Result<CircuitSweep, CoreError> {
    // Rebuild baseline: a fresh formulation per k, solved sequentially.
    // Each k is timed end-to-end (formulation build + solve + extraction),
    // the same timebase the engine rows use.
    let start = Instant::now();
    let num_sessions = input.binding().num_modules();
    let mut rebuild_designs = Vec::with_capacity(num_sessions);
    let mut rebuild = Vec::with_capacity(num_sessions);
    for k in 1..=num_sessions {
        let solve_start = Instant::now();
        let design = synthesis::synthesize_bist(input, k, config)?;
        rebuild.push(SweepKRow::from_design(
            &design,
            solve_start.elapsed().as_secs_f64(),
            false,
        ));
        rebuild_designs.push(design);
    }
    let rebuild_seconds = start.elapsed().as_secs_f64();

    // Engine, chained warm starts.
    let start = Instant::now();
    let engine = SynthesisEngine::new(input, config)?;
    let chained_outcomes = engine.sweep_chained()?;
    let chained_seconds = start.elapsed().as_secs_f64();
    let mut chained = rows_from_outcomes(&chained_outcomes);

    // Engine, parallel across k.
    let start = Instant::now();
    let engine = SynthesisEngine::new(input, config)?;
    let parallel_outcomes = engine.sweep_parallel()?;
    let parallel_seconds = start.elapsed().as_secs_f64();
    let parallel = rows_from_outcomes(&parallel_outcomes);

    // Time-to-quality: when did each chained solve first reach the rebuild
    // baseline's final objective for the same k?
    for (row, (outcome, baseline)) in chained
        .iter_mut()
        .zip(chained_outcomes.iter().zip(&rebuild_designs))
    {
        row.seconds_to_baseline = outcome
            .design
            .stats
            .seconds_to_target(baseline.objective, 1e-6);
        row.nodes_to_baseline = outcome
            .design
            .stats
            .nodes_to_target(baseline.objective, 1e-6);
    }
    let rebuild_quality_seconds = rebuild.iter().map(|r| r.seconds_to_best).sum();
    let chained_quality_seconds = chained
        .iter()
        .map(|r| r.seconds_to_baseline.unwrap_or(r.seconds))
        .sum();
    let rebuild_quality_nodes = rebuild.iter().map(|r| r.nodes_to_best).sum();
    let chained_quality_nodes = chained
        .iter()
        .map(|r| r.nodes_to_baseline.unwrap_or(r.nodes))
        .sum();

    // The parallel variant repeats the rebuild searches exactly (the hard
    // cross-check); the chained variant usually improves on them but may
    // end worse under a node cap (soft signal, reported separately).
    let objectives_match = rebuild.len() == chained.len()
        && rebuild.len() == parallel.len()
        && rebuild
            .iter()
            .zip(&parallel)
            .all(|(r, p)| (r.objective - p.objective).abs() < 1e-6);
    let chained_not_worse = rebuild.len() == chained.len()
        && rebuild
            .iter()
            .zip(&chained)
            .all(|(r, c)| c.objective <= r.objective + 1e-6);

    Ok(CircuitSweep {
        circuit: name.to_string(),
        rebuild_seconds,
        chained_seconds,
        parallel_seconds,
        rebuild_quality_seconds,
        chained_quality_seconds,
        rebuild_quality_nodes,
        chained_quality_nodes,
        objectives_match,
        chained_not_worse,
        rebuild,
        chained,
        parallel,
    })
}

/// Runs the sweep comparison over the given circuits.
///
/// # Errors
///
/// Propagates the first synthesis error.
pub fn run_all(
    circuits: &[(&str, SynthesisInput)],
    config: &SynthesisConfig,
) -> Result<Vec<CircuitSweep>, CoreError> {
    circuits
        .iter()
        .map(|(name, input)| run_circuit(name, input, config))
        .collect()
}

/// The committed capped objectives of every chained sweep row that the
/// 1000-node LP budget could **not** solve to proven optimality before the
/// pricing/cuts/heuristics layer landed (from `BENCH_sweep.json` as of
/// PR 6). The exactness gate measures progress against exactly these rows.
const CAPPED_BASELINES: &[(&str, usize, f64)] = &[
    ("tseng", 2, 1936.0),
    ("tseng", 3, 1936.0),
    ("paulin", 1, 2864.0),
    ("paulin", 2, 2768.0),
    ("paulin", 3, 2768.0),
    ("paulin", 4, 2768.0),
];

/// The tseng/paulin exactness-gap gate, evaluated on the chained sweep rows
/// at the canonical 1000-node LP budget (any other budget returns no
/// violations — the committed baselines are only meaningful at the budget
/// they were recorded under). The gate passes when either
///
/// * `tseng k=2` is solved to **proven optimality** for the first time, or
/// * every previously-capped row ends **strictly below** its committed
///   capped objective (the search got measurably closer everywhere).
///
/// Empty means the gate passes.
pub fn exactness_violations(sweeps: &[CircuitSweep], node_limit: u64) -> Vec<String> {
    if node_limit != crate::workload::DEFAULT_SWEEP_NODES {
        return Vec::new();
    }
    let chained_row = |circuit: &str, k: usize| -> Option<&SweepKRow> {
        sweeps
            .iter()
            .find(|s| s.circuit == circuit)
            .and_then(|s| s.chained.iter().find(|r| r.sessions == k))
    };
    if let Some(row) = chained_row("tseng", 2) {
        if row.optimal {
            return Vec::new();
        }
    }
    let mut violations = Vec::new();
    for &(circuit, k, capped) in CAPPED_BASELINES {
        let Some(row) = chained_row(circuit, k) else {
            violations.push(format!("{circuit} k={k}: missing from the sweep"));
            continue;
        };
        if row.optimal {
            continue;
        }
        if row.objective >= capped - 1e-6 {
            violations.push(format!(
                "{circuit} k={k}: capped objective {} did not improve on the \
                 committed baseline {capped} (and tseng k=2 was not proven optimal)",
                row.objective
            ));
        }
    }
    violations
}

/// Re-runs the sweep through the `advbist::service` job queue — one
/// node-budgeted [`SynthesisJob`](advbist::service::SynthesisJob) per
/// circuit — and verifies the reported rows against the engine sweep:
/// identical objectives and areas per k, every solve within the per-job
/// node budget, every job completed. This is the front-door acceptance
/// gate: the service must *serve* exactly what the engine computes.
///
/// # Errors
///
/// Returns a human-readable description of the first divergence.
pub fn service_cross_check(
    circuits: &[(&str, SynthesisInput)],
    sweeps: &[CircuitSweep],
    node_limit: u64,
) -> Result<(), String> {
    use advbist::service::{JobService, SynthesisJob};
    use bist_ilp::Budget;

    if circuits.len() != sweeps.len() {
        return Err(format!(
            "{} circuits but {} sweep records",
            circuits.len(),
            sweeps.len()
        ));
    }
    let mut service = JobService::new();
    for (name, input) in circuits {
        service.submit(
            SynthesisJob::new(*name, input.clone())
                .with_config(crate::workload::sweep_config(node_limit))
                .with_budget(Budget::nodes(node_limit)),
        );
    }
    let reports = service.run();
    for (report, sweep) in reports.iter().zip(sweeps) {
        if report.name != sweep.circuit {
            return Err(format!(
                "report order diverged: job {} vs sweep {}",
                report.name, sweep.circuit
            ));
        }
        if !report.outcome.is_completed() {
            return Err(format!(
                "job {} did not complete: {:?}",
                report.name, report.outcome
            ));
        }
        if report.rows.len() != sweep.parallel.len() {
            return Err(format!(
                "job {}: {} rows vs {} engine rows",
                report.name,
                report.rows.len(),
                sweep.parallel.len()
            ));
        }
        for (row, engine) in report.rows.iter().zip(&sweep.parallel) {
            if row.k != engine.sessions
                || (row.objective - engine.objective).abs() > 1e-9
                || row.area != engine.area
            {
                return Err(format!(
                    "job {} k={}: service objective {} / area {} vs engine objective {} / area {}",
                    report.name, row.k, row.objective, row.area, engine.objective, engine.area
                ));
            }
            if row.nodes > node_limit {
                return Err(format!(
                    "job {} k={}: {} nodes exceed the per-job budget of {}",
                    report.name, row.k, row.nodes, node_limit
                ));
            }
        }
    }
    Ok(())
}

/// Renders a human-readable summary of the sweep comparison.
pub fn render(sweeps: &[CircuitSweep]) -> String {
    let mut out = String::new();
    out.push_str("k-sweep: rebuild-per-k baseline vs layered engine\n");
    out.push_str(&format!(
        "{:<10} {:>11} {:>11} {:>11} {:>12} {:>12} {:>10}  objectives\n",
        "Ckt", "rebuild(s)", "chained(s)", "parallel(s)", "rb-q(nodes)", "ch-q(nodes)", "q-speedup"
    ));
    for s in sweeps {
        // The quality speedup is quoted on the deterministic node counts:
        // how much less search the chained engine needed to reach the
        // rebuild baseline's final objectives (wall-clock twins of these
        // numbers are in the JSON).
        out.push_str(&format!(
            "{:<10} {:>11.3} {:>11.3} {:>11.3} {:>12} {:>12} {:>9.2}x  {}{}\n",
            s.circuit,
            s.rebuild_seconds,
            s.chained_seconds,
            s.parallel_seconds,
            s.rebuild_quality_nodes,
            s.chained_quality_nodes,
            s.rebuild_quality_nodes as f64 / s.chained_quality_nodes.max(1) as f64,
            if s.objectives_match {
                "match"
            } else {
                "MISMATCH"
            },
            if s.chained_not_worse {
                ""
            } else {
                " (chained worse under cap)"
            }
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload;
    use bist_dfg::benchmarks;

    #[test]
    fn figure1_sweep_objectives_identical_across_variants() {
        // figure1 is solved to proven optimality, so all three variants must
        // report exactly the same objectives.
        let input = benchmarks::figure1();
        let config = SynthesisConfig::exact();
        let sweep = run_circuit("figure1", &input, &config).unwrap();
        assert!(sweep.objectives_match, "{sweep:?}");
        assert!(sweep.chained_not_worse, "{sweep:?}");
        assert_eq!(sweep.rebuild.len(), 2);
        for ((r, c), p) in sweep
            .rebuild
            .iter()
            .zip(&sweep.chained)
            .zip(&sweep.parallel)
        {
            assert!(r.optimal && c.optimal && p.optimal);
            assert!((r.objective - c.objective).abs() < 1e-6);
            assert!((r.objective - p.objective).abs() < 1e-6);
        }
        // Chaining must be exercised for every k >= 2.
        for row in sweep.chained.iter().filter(|r| r.sessions >= 2) {
            assert!(row.chained, "k={} not chained", row.sessions);
        }
        let json = sweep.to_json();
        assert!(json.contains("\"objectives_match\": true"));
        let text = render(&[sweep]);
        assert!(text.contains("figure1"));
    }

    #[test]
    fn service_batch_matches_the_engine_sweep_rows() {
        let circuits = vec![("figure1", benchmarks::figure1())];
        let config = workload::sweep_config(80);
        let sweeps = run_all(&circuits, &config).unwrap();
        service_cross_check(&circuits, &sweeps, 80).unwrap();
        // A diverging expectation must be caught, not silently accepted.
        let mut broken = sweeps.clone();
        broken[0].parallel[0].objective += 1.0;
        assert!(service_cross_check(&circuits, &broken, 80).is_err());
    }

    #[test]
    fn node_limited_sweep_is_deterministic_and_chained_reaches_quality_fast() {
        let input = benchmarks::tseng();
        let config = workload::sweep_config(60);
        let sweep = run_circuit("tseng", &input, &config).unwrap();
        assert_eq!(sweep.rebuild.len(), 3);
        assert_eq!(sweep.chained.len(), 3);
        assert_eq!(sweep.parallel.len(), 3);
        // Node-limited searches are deterministic: parallel must equal the
        // rebuild baseline exactly; at this budget the chained variant also
        // holds its equal-or-better property on tseng.
        assert!(sweep.objectives_match, "{sweep:?}");
        assert!(sweep.chained_not_worse, "{sweep:?}");
        for row in sweep.chained.iter().filter(|r| r.sessions >= 2) {
            assert!(row.chained, "k={} not chained", row.sessions);
            assert!(
                row.seconds_to_baseline.is_some(),
                "k={} never reached baseline quality",
                row.sessions
            );
        }
        // The headline claim: the chained engine sweep reaches the rebuild
        // baseline's quality with no more search effort than the baseline
        // needed to find it (asserted on the deterministic node counts; the
        // wall-clock twin of this number is what BENCH_sweep.json reports).
        assert!(
            sweep.chained_quality_nodes <= sweep.rebuild_quality_nodes,
            "chained {} nodes vs rebuild {} nodes",
            sweep.chained_quality_nodes,
            sweep.rebuild_quality_nodes
        );
    }
}
