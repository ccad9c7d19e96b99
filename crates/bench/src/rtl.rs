//! RTL back-end benchmark: golden netlists and BIST signatures per circuit
//! and per k (`BENCH_rtl.json` + `goldens/rtl/*.netlist`).
//!
//! Every chained design of the node-budgeted sweep ([`crate::sweep`], the
//! rows `BENCH_sweep.json` tracks) is pushed through the full RTL pipeline:
//! [`bist_rtl::emit_bist_netlist`] → [`bist_rtl::validate_simulated`]. The
//! record keeps the canonical netlist text (committed as a golden file by
//! [`write_artifacts`]), its fingerprint, and every sub-test session's final
//! MISR signatures — all bit-deterministic, so CI can diff them across PRs.
//! A record only exists if simulated validation *passed*: every module of
//! every test plan was provably exercised and observed.

use bist_core::{BistDesign, CoreError};
use bist_rtl::{to_verilog, validate_simulated, SimConfig};

use crate::report::json;
use crate::sweep::CircuitSweep;

/// The RTL artifacts of one synthesised design (one circuit at one k).
#[derive(Debug, Clone, PartialEq)]
pub struct RtlKRow {
    /// Number of sub-test sessions `k`.
    pub sessions: usize,
    /// Total design area in transistors (ties the row to the sweep record).
    pub area: u64,
    /// [`bist_rtl::Netlist::fingerprint`] of the emitted netlist.
    pub fingerprint: u64,
    /// Register / module / mux / dedicated-generator cell counts.
    pub cells: (usize, usize, usize, usize),
    /// Smallest distinct-input-pattern count over all modules under test —
    /// the weakest link of the coverage claim (cycles per session is 64).
    pub min_distinct_patterns: u64,
    /// Total modules tested across all sub-sessions (must equal the module
    /// count: the plan tests everything exactly once).
    pub modules_tested: usize,
    /// Final MISR signatures, one `(session, register, signature)` triple
    /// per module under test, in session-then-register order.
    pub signatures: Vec<(usize, usize, u64)>,
    /// The canonical netlist text (committed under `goldens/rtl/`).
    pub netlist_text: String,
    /// Line count of the generated Verilog (the text itself is derivable
    /// from the golden netlist, so only its size is tracked here).
    pub verilog_lines: usize,
}

impl RtlKRow {
    /// Serialises the row as a JSON object (without the netlist text — that
    /// lives in the golden file).
    pub fn to_json(&self) -> String {
        json::Obj::new()
            .u64("sessions", self.sessions as u64)
            .u64("area", self.area)
            .str("fingerprint", &format!("{:#018x}", self.fingerprint))
            .u64("registers", self.cells.0 as u64)
            .u64("modules", self.cells.1 as u64)
            .u64("muxes", self.cells.2 as u64)
            .u64("generators", self.cells.3 as u64)
            .u64("min_distinct_patterns", self.min_distinct_patterns)
            .u64("modules_tested", self.modules_tested as u64)
            .u64("verilog_lines", self.verilog_lines as u64)
            .array(
                "signatures",
                self.signatures.iter().map(|&(session, register, value)| {
                    json::Obj::new()
                        .u64("session", session as u64)
                        .u64("register", register as u64)
                        .str("signature", &format!("{value:#x}"))
                        .finish()
                }),
            )
            .finish()
    }
}

/// The RTL artifacts of one circuit across its full k-sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct CircuitRtl {
    /// Circuit name.
    pub circuit: String,
    /// One row per k, ascending.
    pub rows: Vec<RtlKRow>,
}

impl CircuitRtl {
    /// Serialises the record as a JSON object.
    pub fn to_json(&self) -> String {
        json::Obj::new()
            .str("circuit", &self.circuit)
            .array("rows", self.rows.iter().map(RtlKRow::to_json))
            .finish()
    }
}

/// Lowers one circuit's designs (ascending in k) through netlist emission
/// and simulated validation.
///
/// # Errors
///
/// Propagates emission errors, plus [`CoreError::RtlValidation`] when any
/// design's test plan fails the simulated coverage/observability proof — the
/// condition this benchmark exists to gate on.
pub fn run_circuit(name: &str, designs: &[BistDesign]) -> Result<CircuitRtl, CoreError> {
    let sim_config = SimConfig::default();

    let mut rows = Vec::with_capacity(designs.len());
    for design in designs {
        let netlist = bist_rtl::emit_bist_netlist(&design.datapath, &design.plan)?;
        let report = validate_simulated(&design.datapath, &design.plan, &sim_config)?;

        let mut signatures = Vec::new();
        let mut min_distinct = u64::MAX;
        let mut modules_tested = 0;
        for session in &report.sessions {
            for coverage in &session.coverage {
                modules_tested += 1;
                min_distinct = min_distinct.min(coverage.distinct_patterns);
                signatures.push((
                    session.session,
                    coverage.signature_register,
                    session.signatures[&coverage.signature_register],
                ));
            }
        }
        if modules_tested != design.datapath.num_modules() {
            // validate_simulated proves every *scheduled* module is tested;
            // the plan validator guarantees everything is scheduled. Catch
            // any drift between the two here rather than in a stale golden.
            return Err(CoreError::RtlValidation(
                bist_rtl::RtlError::TestPathNotRoutable {
                    description: format!(
                        "{name} k={}: {modules_tested} modules tested but the data path has {}",
                        design.sessions,
                        design.datapath.num_modules()
                    ),
                },
            ));
        }

        rows.push(RtlKRow {
            sessions: design.sessions,
            area: design.area.total(),
            fingerprint: netlist.fingerprint(),
            cells: (
                netlist.registers().len(),
                netlist.modules().len(),
                netlist.muxes().len(),
                netlist.generators().len(),
            ),
            min_distinct_patterns: if min_distinct == u64::MAX {
                0
            } else {
                min_distinct
            },
            modules_tested,
            signatures,
            netlist_text: netlist.to_text(),
            verilog_lines: to_verilog(&netlist).lines().count(),
        });
    }
    Ok(CircuitRtl {
        circuit: name.to_string(),
        rows,
    })
}

/// Runs [`run_circuit`] over the chained designs of every sweep.
///
/// # Errors
///
/// Propagates the first emission or validation error.
pub fn run_all(sweeps: &[CircuitSweep]) -> Result<Vec<CircuitRtl>, CoreError> {
    sweeps
        .iter()
        .map(|sweep| run_circuit(&sweep.circuit, &sweep.designs))
        .collect()
}

/// Writes `goldens/rtl/<circuit>_k<k>.netlist` for every row and
/// `BENCH_rtl.json` for all of them, relative to the working directory.
///
/// # Errors
///
/// Propagates the first I/O error.
pub fn write_artifacts(results: &[CircuitRtl]) -> std::io::Result<()> {
    std::fs::create_dir_all("goldens/rtl")?;
    for circuit in results {
        for row in &circuit.rows {
            let path = format!("goldens/rtl/{}_k{}.netlist", circuit.circuit, row.sessions);
            std::fs::write(path, &row.netlist_text)?;
        }
    }
    let body = results
        .iter()
        .map(CircuitRtl::to_json)
        .collect::<Vec<_>>()
        .join(",\n");
    std::fs::write("BENCH_rtl.json", format!("[\n{body}\n]\n"))
}

/// Renders a human-readable summary.
pub fn render(results: &[CircuitRtl]) -> String {
    let mut out = String::new();
    out.push_str("RTL back-end: netlists + simulated BIST coverage per k\n");
    out.push_str(&format!(
        "{:<10} {:>3} {:>7} {:>19} {:>5} {:>5} {:>5} {:>4} {:>12} {:>8}\n",
        "Ckt", "k", "area", "fingerprint", "regs", "mods", "mux", "gen", "min-distinct", "verilog"
    ));
    for circuit in results {
        for row in &circuit.rows {
            out.push_str(&format!(
                "{:<10} {:>3} {:>7} {:>#19x} {:>5} {:>5} {:>5} {:>4} {:>12} {:>8}\n",
                circuit.circuit,
                row.sessions,
                row.area,
                row.fingerprint,
                row.cells.0,
                row.cells.1,
                row.cells.2,
                row.cells.3,
                row.min_distinct_patterns,
                row.verilog_lines,
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bist_core::SynthesisConfig;
    use bist_dfg::benchmarks;

    #[test]
    fn figure1_rtl_rows_are_deterministic_and_fully_covered() {
        let input = benchmarks::figure1();
        let config = SynthesisConfig::exact();
        let sweep = crate::sweep::run_circuit("figure1", &input, &config).unwrap();
        let first = run_circuit("figure1", &sweep.designs).unwrap();
        assert_eq!(first.rows.len(), 2);
        for row in &first.rows {
            assert_eq!(row.modules_tested, 2);
            assert!(row.min_distinct_patterns > 32);
            assert!(!row.signatures.is_empty());
            assert!(row.netlist_text.starts_with("netlist figure1"));
            assert!(row.verilog_lines > 10);
        }
        // Bit-stable: a second full run, solve included, reproduces
        // fingerprints, signatures and the golden text exactly.
        let again = crate::sweep::run_circuit("figure1", &input, &config).unwrap();
        let second = run_circuit("figure1", &again.designs).unwrap();
        assert_eq!(first, second);
        let json = first.to_json();
        assert!(json.contains("\"circuit\": \"figure1\""));
        assert!(json.contains("\"fingerprint\": \"0x"));
        let text = render(&[first]);
        assert!(text.contains("figure1"));
    }
}
