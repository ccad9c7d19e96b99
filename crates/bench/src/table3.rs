//! Reproduction of Table 3: ADVBIST vs ADVAN vs RALLOC vs BITS at the
//! maximal test-session count of each circuit.
//!
//! The `Ref.` and `ADVBIST` rows are read off the node-budgeted sweep
//! ([`crate::sweep`]): the circuit's reference design and its chained k=N
//! design, the very rows Table 2 prints. Only the three heuristic baselines
//! are computed here.

use bist_baselines::{synthesize_advan, synthesize_bits, synthesize_ralloc};
use bist_datapath::report::DesignReport;
use bist_datapath::{AreaBreakdown, CostModel};
use bist_dfg::SynthesisInput;

use crate::sweep::CircuitSweep;

/// One row of the Table 3 reproduction: one method on one circuit at the
/// maximal test-session count.
#[derive(Debug, Clone, PartialEq)]
pub struct MethodRow {
    /// Circuit name.
    pub circuit: String,
    /// Method name (`Ref.`, `ADVBIST`, `ADVAN`, `RALLOC`, `BITS`).
    pub method: String,
    /// Number of sub-test sessions.
    pub sessions: usize,
    /// Total registers (column R).
    pub registers: usize,
    /// TPG-only registers (column T).
    pub tpgs: usize,
    /// SR-only registers (column S).
    pub srs: usize,
    /// BILBOs (column B).
    pub bilbos: usize,
    /// CBILBOs (column C).
    pub cbilbos: usize,
    /// Total multiplexer inputs (column M).
    pub mux_inputs: usize,
    /// Total area in transistors (column Area).
    pub area: u64,
    /// Area overhead in percent (column OH).
    pub overhead_percent: f64,
}

fn method_row(
    circuit: &str,
    method: &str,
    sessions: usize,
    area: &AreaBreakdown,
    reference: u64,
) -> MethodRow {
    use bist_datapath::TestRegisterKind as K;
    MethodRow {
        circuit: circuit.to_string(),
        method: method.to_string(),
        sessions,
        registers: area.total_registers(),
        tpgs: area.count(K::Tpg),
        srs: area.count(K::Sr),
        bilbos: area.count(K::Bilbo),
        cbilbos: area.count(K::Cbilbo),
        mux_inputs: area.mux_inputs,
        area: area.total(),
        overhead_percent: area.overhead_percent(reference),
    }
}

/// Builds one circuit's rows at its maximal test-session count: the
/// reference and the chained k=N design from `sweep`, then the three
/// heuristic baselines under `cost`.
///
/// # Errors
///
/// Fails when `sweep` has no design, and propagates baseline synthesis
/// errors.
pub fn run_circuit(
    name: &str,
    input: &SynthesisInput,
    sweep: &CircuitSweep,
    cost: &CostModel,
) -> Result<Vec<MethodRow>, Box<dyn std::error::Error + Send + Sync>> {
    let k = input.binding().num_modules();
    let reference_area = sweep.reference_area();
    let advbist = sweep
        .designs
        .last()
        .ok_or_else(|| format!("{name}: the sweep has no designs"))?;
    let advan = synthesize_advan(input, k, cost)?;
    let ralloc = synthesize_ralloc(input, k, cost)?;
    let bits = synthesize_bits(input, k, cost)?;
    Ok([
        ("Ref.", &sweep.reference.area),
        ("ADVBIST", &advbist.area),
        ("ADVAN", &advan.area),
        ("RALLOC", &ralloc.area),
        ("BITS", &bits.area),
    ]
    .into_iter()
    .map(|(method, area)| method_row(name, method, k, area, reference_area))
    .collect())
}

/// Runs [`run_circuit`] over the circuits and their sweeps (in the same
/// order), concatenating the rows.
///
/// # Errors
///
/// Propagates the first error (in circuit order).
pub fn run_all(
    circuits: &[(&str, SynthesisInput)],
    sweeps: &[CircuitSweep],
    cost: &CostModel,
) -> Result<Vec<MethodRow>, Box<dyn std::error::Error + Send + Sync>> {
    let mut rows = Vec::new();
    for ((name, input), sweep) in circuits.iter().zip(sweeps) {
        rows.extend(run_circuit(name, input, sweep, cost)?);
    }
    Ok(rows)
}

/// Renders rows in the layout of the paper's Table 3.
pub fn render(rows: &[MethodRow]) -> String {
    let mut out = String::new();
    out.push_str("Table 3: Performance of various high level BIST synthesis systems\n");
    out.push_str(&DesignReport::table3_header());
    out.push('\n');
    let mut last_circuit = "";
    for row in rows {
        if row.circuit != last_circuit && !last_circuit.is_empty() {
            out.push('\n');
        }
        last_circuit = &row.circuit;
        out.push_str(&format!(
            "{:<10} {:<9} {:>2} {:>2} {:>2} {:>2} {:>2} {:>3} {:>6} {:>7.1}\n",
            row.circuit,
            row.method,
            row.registers,
            row.tpgs,
            row.srs,
            row.bilbos,
            row.cbilbos,
            row.mux_inputs,
            row.area,
            row.overhead_percent
        ));
    }
    out
}

/// Checks the paper's headline qualitative claim on a set of rows: for every
/// circuit, the ADVBIST area is no larger than the area of any heuristic
/// baseline. Returns the list of violations (empty when the claim holds).
pub fn advbist_wins(rows: &[MethodRow]) -> Vec<String> {
    let mut violations = Vec::new();
    let circuits: Vec<&str> = {
        let mut seen = Vec::new();
        for row in rows {
            if !seen.contains(&row.circuit.as_str()) {
                seen.push(row.circuit.as_str());
            }
        }
        seen
    };
    for circuit in circuits {
        let area_of = |method: &str| {
            rows.iter()
                .find(|r| r.circuit == circuit && r.method == method)
                .map(|r| r.area)
        };
        let Some(advbist) = area_of("ADVBIST") else {
            continue;
        };
        for baseline in ["ADVAN", "RALLOC", "BITS"] {
            if let Some(area) = area_of(baseline) {
                if advbist > area {
                    violations.push(format!(
                        "{circuit}: ADVBIST area {advbist} exceeds {baseline} area {area}"
                    ));
                }
            }
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{sweep, workload};
    use bist_core::SynthesisConfig;
    use bist_dfg::benchmarks;

    #[test]
    fn figure1_comparison_produces_five_rows() {
        let input = benchmarks::figure1();
        let config = SynthesisConfig::exact();
        let sweep = sweep::run_circuit("figure1", &input, &config).unwrap();
        let rows = run_circuit("figure1", &input, &sweep, &config.cost).unwrap();
        assert_eq!(rows.len(), 5);
        assert_eq!(rows[0].method, "Ref.");
        assert_eq!(rows[1].method, "ADVBIST");
        let text = render(&rows);
        assert!(text.contains("ADVBIST"));
        assert!(text.contains("RALLOC"));
    }

    #[test]
    fn advbist_beats_or_ties_baselines_on_tseng() {
        let input = benchmarks::tseng();
        let cost = workload::sweep_config(60).cost;
        let rows = run_circuit("tseng", &input, sweep::tseng_at_60_nodes(), &cost).unwrap();
        let violations = advbist_wins(&rows);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn both_tables_render_the_same_sweep_rows() {
        let circuits = vec![
            ("figure1", benchmarks::figure1()),
            ("tseng", benchmarks::tseng()),
        ];
        let sweeps = vec![
            sweep::run_circuit("figure1", &circuits[0].1, &SynthesisConfig::exact()).unwrap(),
            sweep::tseng_at_60_nodes().clone(),
        ];
        let rows = run_all(&circuits, &sweeps, &SynthesisConfig::default().cost).unwrap();
        let table2 = crate::table2::render(&sweeps);
        let table3 = render(&rows);
        for sweep in &sweeps {
            let of = |method: &str| {
                rows.iter()
                    .find(|r| r.circuit == sweep.circuit && r.method == method)
                    .unwrap()
            };
            // Table 3's ADVBIST row is Table 2's k=N row ...
            let last = sweep.chained.last().unwrap();
            let design = sweep.designs.last().unwrap();
            let advbist = of("ADVBIST");
            assert_eq!(advbist.sessions, last.sessions);
            assert_eq!(advbist.area, last.area);
            assert_eq!(
                advbist.overhead_percent,
                design.overhead_percent(sweep.reference_area())
            );
            // ... and its Ref. row is Table 2's ref.area.
            assert_eq!(of("Ref.").area, sweep.reference_area());
            assert_eq!(of("Ref.").overhead_percent, 0.0);
            for area in [last.area, sweep.reference_area()] {
                assert!(table2.contains(&format!(" {area}")), "{table2}");
                assert!(table3.contains(&format!(" {area}")), "{table3}");
            }
        }
    }
}
