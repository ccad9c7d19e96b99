//! The node-budgeted k-sweep every harness table, artifact and gate is
//! rendered from.
//!
//! For every circuit (figure1 and the paper's six, see
//! [`crate::workload::sweep_circuits`]) [`run_circuit`] solves, under one
//! *deterministic node budget* (see [`crate::workload::sweep_config`]):
//!
//! * the non-BIST **reference** design, once;
//! * the **rebuild** sweep — a fresh engine per `k`
//!   ([`bist_core::synthesis::synthesize_bist`]), solved sequentially with
//!   the left-edge warm start;
//! * the **chained** sweep — the shared-base engine, sequentially, with the
//!   k−1 incumbent chained in as an extra warm start.
//!
//! [`run_gated`] renders Table 2 ([`crate::table2`]), Table 3
//! ([`crate::table3`]), `BENCH_sweep.json`, `BENCH_rtl.json` and the golden
//! netlists ([`crate::rtl`]) from those results, so every number the harness
//! reports is computed one way.
//!
//! The engine without chaining runs searches bit-identical to the rebuild
//! variant; [`service_cross_check`] holds it to that (objective bits, area,
//! nodes and simplex pivots on every row), because the job service solves
//! every `k` through exactly that engine path. The chained
//! variant starts every solve from an equal-or-better incumbent; on
//! instances solved to proven optimality its objectives are identical, but
//! under a node cap the stronger initial pruning redirects the search, and
//! the capped incumbent can land either side of the baseline's — that soft
//! signal is reported separately as [`CircuitSweep::chained_not_worse`],
//! never gated. The *time-to-quality* comparison counts nodes: how many each
//! variant explored before reaching the rebuild baseline's final objective
//! for every `k`. For `k ≥ 2` the chained incumbent usually meets that
//! quality before the tree search even starts. Wall-clock is measured by
//! `perfbench/`, never here.

use bist_core::engine::SynthesisEngine;
use bist_core::{synthesis, BistDesign, CoreError, ReferenceDesign, SynthesisConfig};
use bist_dfg::SynthesisInput;
use bist_ilp::par_map_ordered;

use crate::report::json;
use crate::table3::MethodRow;
use crate::workload::DEFAULT_SWEEP_NODES;

/// Per-k record of one sweep variant.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepKRow {
    /// Number of sub-test sessions `k`.
    pub sessions: usize,
    /// Objective value reported by the solver.
    pub objective: f64,
    /// Total design area in transistors.
    pub area: u64,
    /// Best proven lower bound on the objective.
    pub best_bound: f64,
    /// Relative gap between the area and its proven lower bound,
    /// `(area − area_bound) / area`. The objective exceeds the area by a
    /// per-circuit constant (the constant-only-port weight of Section
    /// 3.3.4), so `area_bound = best_bound − (objective − area)`; the
    /// solver's own gap divides by the larger objective and understates
    /// this one. Zero on proven rows.
    pub area_gap: f64,
    /// Nodes explored until the final incumbent was found.
    pub nodes_to_best: u64,
    /// Nodes explored until the incumbent first matched the rebuild
    /// baseline's final objective for this `k` (`None` for the baseline
    /// itself and for solves that never got there).
    pub nodes_to_baseline: Option<u64>,
    /// Branch-and-bound nodes explored.
    pub nodes: u64,
    /// Simplex pivots across all LP relaxations.
    pub lp_pivots: u64,
    /// Pivots charged under the Bland anti-cycling fallback (devex priced
    /// the rest).
    pub bland_pivots: u64,
    /// Cold LP solves, by the reason no warm re-solve was possible.
    pub cold_lp: bist_ilp::ColdLpCounts,
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
    fn from_design(design: &BistDesign, chained: bool) -> Self {
        let area = design.area.total() as f64;
        let area_bound = design.stats.best_bound - (design.objective - area);
        Self {
            sessions: design.sessions,
            objective: design.objective,
            area: design.area.total(),
            best_bound: design.stats.best_bound,
            area_gap: (area - area_bound) / area,
            nodes_to_best: design.stats.nodes_to_best().unwrap_or(0),
            nodes_to_baseline: None,
            nodes: design.stats.nodes,
            lp_pivots: design.stats.lp_pivots,
            bland_pivots: design.stats.bland_pivots,
            cold_lp: design.stats.cold_lp,
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
            .f64("best_bound", self.best_bound)
            .f64("area_gap", self.area_gap)
            .u64("nodes_to_best", self.nodes_to_best)
            .opt_u64("nodes_to_baseline", self.nodes_to_baseline)
            .u64("nodes", self.nodes)
            .u64("lp_pivots", self.lp_pivots)
            .u64("bland_pivots", self.bland_pivots)
            .raw("cold_lp", crate::report::cold_lp_json(&self.cold_lp))
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

/// Everything solved for one circuit: the reference, both sweep variants,
/// and the chained designs the tables and RTL artifacts are rendered from.
#[derive(Debug, Clone)]
pub struct CircuitSweep {
    /// Circuit name.
    pub circuit: String,
    /// The non-BIST reference design every overhead is priced against.
    pub reference: ReferenceDesign,
    /// Nodes the rebuild baseline explored before finding its own final
    /// incumbents (summed over k).
    pub rebuild_quality_nodes: u64,
    /// Nodes the chained engine sweep explored before reaching the rebuild
    /// baseline's final objective for every k (summed; this is the headline
    /// engine win).
    pub chained_quality_nodes: u64,
    /// Whether every chained objective is equal-or-better than the rebuild
    /// baseline's. Guaranteed on instances solved to proven optimality;
    /// under a node cap the chained incumbent's redirected search may end
    /// slightly worse, so this is a soft quality signal, not an invariant.
    pub chained_not_worse: bool,
    /// Per-k rows of the rebuild baseline.
    pub rebuild: Vec<SweepKRow>,
    /// Per-k rows of the chained engine sweep.
    pub chained: Vec<SweepKRow>,
    /// The chained designs behind [`CircuitSweep::chained`], ascending in k.
    pub designs: Vec<BistDesign>,
}

impl CircuitSweep {
    /// Area of the reference design in transistors.
    pub fn reference_area(&self) -> u64 {
        self.reference.area.total()
    }

    /// Serialises the record (without the designs) as a JSON object.
    pub fn to_json(&self) -> String {
        json::Obj::new()
            .str("circuit", &self.circuit)
            .u64("reference_area", self.reference_area())
            .bool("reference_optimal", self.reference.optimal)
            .u64("rebuild_quality_nodes", self.rebuild_quality_nodes)
            .u64("chained_quality_nodes", self.chained_quality_nodes)
            .bool("chained_not_worse", self.chained_not_worse)
            .array("rebuild", self.rebuild.iter().map(SweepKRow::to_json))
            .array("chained", self.chained.iter().map(SweepKRow::to_json))
            .finish()
    }
}

/// Solves one circuit's reference and both sweep variants, and computes
/// the time-to-quality comparison in nodes.
///
/// # Errors
///
/// Propagates the first synthesis error.
pub fn run_circuit(
    name: &str,
    input: &SynthesisInput,
    config: &SynthesisConfig,
) -> Result<CircuitSweep, CoreError> {
    // Rebuild baseline: a fresh engine per k, solved sequentially.
    let rebuild = (1..=input.binding().num_modules())
        .map(|k| {
            synthesis::synthesize_bist(input, k, config)
                .map(|design| SweepKRow::from_design(&design, false))
        })
        .collect::<Result<Vec<_>, _>>()?;

    // The reference and the chained sweep share one engine.
    let engine = SynthesisEngine::new(input, config)?;
    let reference = engine.synthesize_reference()?;
    let mut chained = Vec::with_capacity(rebuild.len());
    let mut designs = Vec::with_capacity(rebuild.len());
    for (outcome, baseline) in engine.sweep_chained()?.into_iter().zip(&rebuild) {
        // Time-to-quality: when did each chained solve first reach the
        // rebuild baseline's final objective for the same k?
        let mut row = SweepKRow::from_design(&outcome.design, outcome.chained);
        row.nodes_to_baseline = outcome
            .design
            .stats
            .nodes_to_target(baseline.objective, 1e-6);
        chained.push(row);
        designs.push(outcome.design);
    }
    let rebuild_quality_nodes = rebuild.iter().map(|r| r.nodes_to_best).sum();
    let chained_quality_nodes = chained
        .iter()
        .map(|r| r.nodes_to_baseline.unwrap_or(r.nodes))
        .sum();

    // The chained variant usually improves on the rebuild searches but may
    // end worse under a node cap (soft signal, reported separately).
    let chained_not_worse = rebuild.len() == chained.len()
        && rebuild
            .iter()
            .zip(&chained)
            .all(|(r, c)| c.objective <= r.objective + 1e-6);

    Ok(CircuitSweep {
        circuit: name.to_string(),
        reference,
        rebuild_quality_nodes,
        chained_quality_nodes,
        chained_not_worse,
        rebuild,
        chained,
        designs,
    })
}

/// Runs [`run_circuit`] over the given circuits, one circuit per core. The
/// node budget keeps every solve deterministic, so the records do not
/// depend on scheduling; they come back in circuit order.
///
/// # Errors
///
/// Propagates the first synthesis error, in circuit order.
pub fn run_all(
    circuits: &[(&str, SynthesisInput)],
    config: &SynthesisConfig,
) -> Result<Vec<CircuitSweep>, CoreError> {
    par_map_ordered(circuits, usize::MAX, |(name, input)| {
        run_circuit(name, input, config)
    })
    .into_iter()
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
    if node_limit != DEFAULT_SWEEP_NODES {
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
/// circuit — and verifies the reported rows against the rebuild rows: per
/// k the same objective bits, area, node count and simplex pivot count,
/// every solve within the per-job node budget, every job completed. The
/// service solves each k on the shared-base engine without chaining
/// ([`SynthesisEngine::synthesize_seeded`] with no k−1 design), so this is
/// both the front-door acceptance gate (the service must *serve* exactly
/// what the solver computes) and the engine-vs-rebuild cross-check: the
/// shared reduced base must repeat every rebuild search, not only its
/// answer.
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
        if report.rows.len() != sweep.rebuild.len() {
            return Err(format!(
                "job {}: {} rows vs {} rebuild rows",
                report.name,
                report.rows.len(),
                sweep.rebuild.len()
            ));
        }
        for (row, rebuild) in report.rows.iter().zip(&sweep.rebuild) {
            if row.k != rebuild.sessions
                || row.objective.to_bits() != rebuild.objective.to_bits()
                || row.area != rebuild.area
                || row.nodes != rebuild.nodes
                || row.lp_pivots != rebuild.lp_pivots
            {
                return Err(format!(
                    "job {} k={}: service objective {} / area {} / {} nodes / {} pivots vs \
                     rebuild objective {} / area {} / {} nodes / {} pivots",
                    report.name,
                    row.k,
                    row.objective,
                    row.area,
                    row.nodes,
                    row.lp_pivots,
                    rebuild.objective,
                    rebuild.area,
                    rebuild.nodes,
                    rebuild.lp_pivots
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
    out.push_str("k-sweep: rebuild-per-k baseline vs chained engine\n");
    out.push_str(&format!(
        "{:<10} {:>12} {:>12} {:>10}\n",
        "Ckt", "rb-q(nodes)", "ch-q(nodes)", "q-speedup"
    ));
    for s in sweeps {
        // How much less search the chained engine needed to reach the
        // rebuild baseline's final objectives.
        out.push_str(&format!(
            "{:<10} {:>12} {:>12} {:>9.2}x{}\n",
            s.circuit,
            s.rebuild_quality_nodes,
            s.chained_quality_nodes,
            s.rebuild_quality_nodes as f64 / s.chained_quality_nodes.max(1) as f64,
            if s.chained_not_worse {
                ""
            } else {
                "  (chained worse under cap)"
            }
        ));
    }
    out.push_str("\ncold LP solves by reason, summed over k\n");
    out.push_str(&format!(
        "{:<10} {:<8} {:>5} {:>9} {:>9} {:>11}\n",
        "Ckt", "variant", "root", "no-basis", "unusable", "over-budget"
    ));
    for s in sweeps {
        for (variant, rows) in [("rebuild", &s.rebuild), ("chained", &s.chained)] {
            let mut cold = bist_ilp::ColdLpCounts::default();
            for row in rows {
                cold += row.cold_lp;
            }
            out.push_str(&format!(
                "{:<10} {:<8} {:>5} {:>9} {:>9} {:>11}\n",
                s.circuit,
                variant,
                cold.root,
                cold.no_parent_basis,
                cold.unusable_basis,
                cold.over_budget
            ));
        }
    }
    out
}

/// Every gate over one sweep: the exactness gate ([`exactness_violations`],
/// active at the default budget only), the service cross-check
/// ([`service_cross_check`]) and Table 3's claim that ADVBIST is never worse
/// than a baseline ([`crate::table3::advbist_wins`]). Empty means every
/// gate passes.
pub fn gate_failures(
    circuits: &[(&str, SynthesisInput)],
    sweeps: &[CircuitSweep],
    methods: &[MethodRow],
    node_limit: u64,
) -> Vec<String> {
    let mut failures: Vec<String> = exactness_violations(sweeps, node_limit)
        .into_iter()
        .map(|violation| format!("exactness regression: {violation}"))
        .collect();
    if let Err(message) = service_cross_check(circuits, sweeps, node_limit) {
        failures.push(format!("service gate failed: {message}"));
    }
    failures.extend(
        crate::table3::advbist_wins(methods)
            .into_iter()
            .map(|violation| format!("Table 3 claim violated: {violation}")),
    );
    failures
}

/// The whole sweep gate, as `repro_sweep` and `repro_all` run it. It first
/// reads the node budget from the environment (`BIST_NODE_LIMIT`, default
/// [`DEFAULT_SWEEP_NODES`]; a bad value or another `BIST_*` name exits 2),
/// then solves every sweep circuit once, prints Tables 2 and 3, the
/// rebuild-vs-chained comparison and the RTL summary, and writes
/// `BENCH_sweep.json`, `BENCH_rtl.json` and `goldens/rtl/` to the working
/// directory. Then it applies [`gate_failures`].
///
/// # Errors
///
/// Returns one message per failure: a synthesis or baseline error, an RTL
/// validation error, an artifact that could not be written, or a gate
/// failure.
pub fn run_gated() -> Result<(), Vec<String>> {
    let node_limit = crate::workload::read_node_limit();
    eprintln!("# sweep node budget: {node_limit} nodes/solve (set BIST_NODE_LIMIT to change)");
    let circuits = crate::workload::sweep_circuits();
    let config = crate::workload::sweep_config(node_limit);
    let sweeps =
        run_all(&circuits, &config).map_err(|e| vec![format!("sweep comparison failed: {e}")])?;
    let methods = crate::table3::run_all(&circuits, &sweeps, &config.cost)
        .map_err(|e| vec![format!("Table 3 baselines failed: {e}")])?;
    println!("{}", crate::table2::render(&sweeps));
    println!("{}", crate::table3::render(&methods));
    println!("{}", render(&sweeps));

    let mut failures = Vec::new();
    let body = sweeps
        .iter()
        .map(CircuitSweep::to_json)
        .collect::<Vec<_>>()
        .join(",\n");
    match std::fs::write("BENCH_sweep.json", format!("[\n{body}\n]\n")) {
        Ok(()) => eprintln!("# wrote BENCH_sweep.json"),
        Err(e) => failures.push(format!("could not write BENCH_sweep.json: {e}")),
    }
    match crate::rtl::run_all(&sweeps) {
        Ok(rtl) => {
            println!("{}", crate::rtl::render(&rtl));
            match crate::rtl::write_artifacts(&rtl) {
                Ok(()) => eprintln!("# wrote goldens/rtl/*.netlist and BENCH_rtl.json"),
                Err(e) => failures.push(format!("could not write the RTL artifacts: {e}")),
            }
        }
        Err(e) => failures.push(format!("rtl validation failed: {e}")),
    }
    failures.extend(gate_failures(&circuits, &sweeps, &methods, node_limit));
    if !failures.is_empty() {
        return Err(failures);
    }
    if node_limit == DEFAULT_SWEEP_NODES {
        println!(
            "exactness gate: tseng k=2 proven optimal, or every previously-capped row \
             strictly below its committed capped objective."
        );
    }
    let rows: usize = sweeps.iter().map(|s| s.rebuild.len()).sum();
    println!(
        "service gate: one job-queue batch reproduced all {rows} rebuild sweep rows \
         (identical objective bits, areas, node and pivot counts; per-job node budgets \
         honoured)."
    );
    println!(
        "rtl gate: every module of every design is exercised in its scheduled session \
         and observed in its MISR signature."
    );
    println!("Table 3 gate: ADVBIST is never worse than any baseline.");
    Ok(())
}

/// tseng swept once at 60 nodes, shared by the tests that read the same
/// rows.
#[cfg(test)]
pub(crate) fn tseng_at_60_nodes() -> &'static CircuitSweep {
    static SWEEP: std::sync::OnceLock<CircuitSweep> = std::sync::OnceLock::new();
    SWEEP.get_or_init(|| {
        let input = bist_dfg::benchmarks::tseng();
        run_circuit("tseng", &input, &crate::workload::sweep_config(60)).unwrap()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload;
    use bist_dfg::benchmarks;

    #[test]
    fn figure1_sweep_objectives_identical_across_variants() {
        // figure1 is solved to proven optimality, so both variants must
        // report exactly the same objectives.
        let input = benchmarks::figure1();
        let config = SynthesisConfig::exact();
        let sweep = run_circuit("figure1", &input, &config).unwrap();
        assert!(sweep.chained_not_worse, "{sweep:?}");
        assert!(sweep.reference.optimal);
        assert_eq!(sweep.rebuild.len(), 2);
        assert_eq!(sweep.chained.len(), 2);
        assert_eq!(sweep.designs.len(), 2);
        for (r, c) in sweep.rebuild.iter().zip(&sweep.chained) {
            assert!(r.optimal && c.optimal);
            assert!((r.objective - c.objective).abs() < 1e-6);
        }
        // Chaining must be exercised for every k >= 2.
        for row in sweep.chained.iter().filter(|r| r.sessions >= 2) {
            assert!(row.chained, "k={} not chained", row.sessions);
        }
        let json = sweep.to_json();
        assert!(json.contains("\"chained_not_worse\": true"));
        assert!(json.contains("\"reference_optimal\": true"));
        assert!(json.contains("\"cold_lp\""));
        let text = render(&[sweep]);
        assert!(text.contains("figure1"));
        assert!(text.contains("cold LP solves by reason"));
    }

    #[test]
    fn service_batch_matches_the_engine_sweep_rows() {
        let circuits = vec![("figure1", benchmarks::figure1())];
        let config = workload::sweep_config(80);
        let sweeps = run_all(&circuits, &config).unwrap();
        service_cross_check(&circuits, &sweeps, 80).unwrap();
        // A diverging expectation must be caught, not silently accepted: one
        // rebuild row off by one in objective, area, nodes or pivots.
        let nudges: [fn(&mut SweepKRow); 4] = [
            |row| row.objective += 1.0,
            |row| row.area += 1,
            |row| row.nodes += 1,
            |row| row.lp_pivots += 1,
        ];
        for nudge in nudges {
            let mut broken = sweeps.clone();
            nudge(&mut broken[0].rebuild[1]);
            let error = service_cross_check(&circuits, &broken, 80).unwrap_err();
            assert!(error.starts_with("job figure1 k=2:"), "{error}");
        }
    }

    #[test]
    fn advbist_above_a_baseline_fails_the_gate() {
        let circuits = vec![("figure1", benchmarks::figure1())];
        let config = workload::sweep_config(80);
        let sweeps = run_all(&circuits, &config).unwrap();
        let methods = crate::table3::run_all(&circuits, &sweeps, &config.cost).unwrap();
        assert_eq!(
            gate_failures(&circuits, &sweeps, &methods, 80),
            Vec::<String>::new()
        );
        // Raising the ADVBIST row one transistor above a baseline must trip
        // the gate.
        let mut broken = methods.clone();
        let advan = broken.iter().find(|r| r.method == "ADVAN").unwrap().area;
        let advbist = broken.iter_mut().find(|r| r.method == "ADVBIST").unwrap();
        advbist.area = advan + 1;
        let failures = gate_failures(&circuits, &sweeps, &broken, 80);
        assert!(
            failures.iter().any(|f| f.contains("exceeds ADVAN area")),
            "{failures:?}"
        );
        assert!(
            failures
                .iter()
                .all(|f| f.starts_with("Table 3 claim violated")),
            "{failures:?}"
        );
    }

    #[test]
    fn node_limited_sweep_is_deterministic_and_chained_reaches_quality_fast() {
        let input = benchmarks::tseng();
        let config = workload::sweep_config(60);
        let sweep = tseng_at_60_nodes();
        assert_eq!(sweep.rebuild.len(), 3);
        assert_eq!(sweep.chained.len(), 3);
        // Node-limited searches are deterministic: solving each k again
        // repeats the rebuild row exactly. At this budget the chained
        // variant also holds its equal-or-better property on tseng.
        for row in &sweep.rebuild {
            let again = synthesis::synthesize_bist(&input, row.sessions, &config).unwrap();
            assert_eq!(again.objective.to_bits(), row.objective.to_bits());
            assert_eq!(again.stats.nodes, row.nodes);
        }
        assert!(sweep.chained_not_worse, "{sweep:?}");
        for row in sweep.chained.iter().filter(|r| r.sessions >= 2) {
            assert!(row.chained, "k={} not chained", row.sessions);
            assert!(
                row.nodes_to_baseline.is_some(),
                "k={} never reached baseline quality",
                row.sessions
            );
        }
        // The headline claim: the chained engine sweep reaches the rebuild
        // baseline's quality with no more search effort than the baseline
        // needed to find it.
        assert!(
            sweep.chained_quality_nodes <= sweep.rebuild_quality_nodes,
            "chained {} nodes vs rebuild {} nodes",
            sweep.chained_quality_nodes,
            sweep.rebuild_quality_nodes
        );
    }

    #[test]
    fn every_row_carries_its_area_bound() {
        // fir6 carries a constant-only-port weight in its objective, so the
        // objective's own gap would understate the area gap.
        let input = benchmarks::fir6();
        let config = workload::sweep_config(10);
        let engine = SynthesisEngine::new(&input, &config).unwrap();
        let rows: Vec<SweepKRow> = engine
            .sweep_chained()
            .unwrap()
            .iter()
            .map(|outcome| SweepKRow::from_design(&outcome.design, outcome.chained))
            .collect();
        assert_eq!(rows.len(), 3);
        let shift = rows[0].objective - rows[0].area as f64;
        assert!(shift > 0.0, "{:?}", rows[0]);
        for row in &rows {
            // The shift from area to objective is one constant per circuit,
            // so it maps the objective bound onto an area bound.
            assert_eq!(row.objective - row.area as f64, shift, "{row:?}");
            assert!(row.best_bound <= row.objective, "{row:?}");
            assert!(row.area_gap >= 0.0 && row.area_gap < 1.0, "{row:?}");
        }
        // Proven rows have no gap at all.
        let figure1 =
            run_circuit("figure1", &benchmarks::figure1(), &SynthesisConfig::exact()).unwrap();
        for row in figure1.rebuild.iter().chain(&figure1.chained) {
            assert!(row.optimal);
            assert_eq!(row.area_gap, 0.0, "{row:?}");
            assert_eq!(row.objective, row.area as f64);
        }
    }
}
