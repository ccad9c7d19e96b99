//! Output checks and the determinism guard.

use std::collections::BTreeSet;
use std::fmt::Display;
use std::path::PathBuf;

use advbist::core::{BistDesign, SynthesisConfig};
use advbist::datapath::validate::validate_design;
use advbist::dfg::lifetime::LifetimeTable;
use advbist::dfg::SynthesisInput;
use advbist::rtl::{validate_simulated, SimConfig};

/// The deterministic part of one synthesised (circuit, k) design.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub circuit: String,
    pub k: usize,
    pub objective: f64,
    pub area: u64,
    pub optimal: bool,
    pub nodes: u64,
    /// Simplex pivots of the solve.
    pub pivots: u64,
}

impl Row {
    pub fn new(circuit: &str, design: &BistDesign) -> Self {
        Self {
            circuit: circuit.to_string(),
            k: design.sessions,
            objective: design.objective,
            area: design.area.total(),
            optimal: design.optimal,
            nodes: design.stats.nodes,
            pivots: design.stats.lp_pivots,
        }
    }

    /// The row as one line of a run digest.
    pub fn outcome(&self) -> String {
        format!(
            "{} k={} objective={:#018x} area={} optimal={} nodes={} pivots={}",
            self.circuit,
            self.k,
            self.objective.to_bits(),
            self.area,
            self.optimal,
            self.nodes,
            self.pivots
        )
    }
}

/// The failures of a run: operations (solves, jobs) that errored or failed
/// a check, and failures of the run as a whole.
#[derive(Debug, Default)]
pub struct Checks {
    failed_ops: BTreeSet<String>,
    run_failures: usize,
}

impl Checks {
    /// Records that operation `op` failed.
    pub fn fail(&mut self, op: &str, reason: impl Display) {
        eprintln!("FAILED {op}: {reason}");
        self.failed_ops.insert(op.to_string());
    }

    /// Records a failure no single operation owns.
    pub fn fail_run(&mut self, reason: impl Display) {
        eprintln!("FAILED: {reason}");
        self.run_failures += 1;
    }

    /// Records `op` as failed unless `ok`.
    pub fn require(&mut self, ok: bool, op: &str, reason: impl FnOnce() -> String) {
        if !ok {
            self.fail(op, reason());
        }
    }

    pub fn failed_ops(&self) -> u64 {
        self.failed_ops.len() as u64
    }

    pub fn all_passed(&self) -> bool {
        self.failed_ops.is_empty() && self.run_failures == 0
    }
}

/// Re-validates a design outside the timed region: data path and test plan
/// against the DFG, the simulated RTL test sessions, and the reported area
/// against the area recomputed under the cost model.
pub fn check_design(
    input: &SynthesisInput,
    config: &SynthesisConfig,
    design: &BistDesign,
) -> Result<(), String> {
    let lifetimes =
        LifetimeTable::with_timing(input, config.input_timing).map_err(|e| e.to_string())?;
    validate_design(&design.datapath, &design.plan, input, &lifetimes)
        .map_err(|e| format!("validate_design: {e}"))?;
    validate_simulated(&design.datapath, &design.plan, &SimConfig::default())
        .map_err(|e| format!("validate_simulated: {e}"))?;
    let recomputed = design.datapath.area(&config.cost).total();
    if recomputed != design.area.total() {
        return Err(format!(
            "area {} reported, {recomputed} recomputed",
            design.area.total()
        ));
    }
    Ok(())
}

/// Where digests of earlier runs are kept: the checkout's build directory,
/// which git ignores.
const DIGEST_DIR: &str = ".bench_build/perfbench-digests";

/// The determinism guard: objectives, node and pivot counts and cache
/// traffic must repeat exactly between runs of one build on one seed. The
/// first run of a (workload, seed, executable) records its digest; every
/// later run must reproduce it. Keying by a hash of the executable keeps two
/// builds of different code apart.
pub fn determinism_guard(workload: &str, seed: u64, digest: &str) -> Result<(), String> {
    let exe = std::env::current_exe()
        .and_then(std::fs::read)
        .map_err(|e| format!("cannot hash the benchmark executable: {e}"))?;
    let dir = PathBuf::from(DIGEST_DIR);
    let path = dir.join(format!("{workload}-{seed}-{:016x}.txt", fnv64(&exe)));
    match std::fs::read_to_string(&path) {
        Ok(recorded) if recorded == digest => Ok(()),
        Ok(recorded) => {
            let (was, now) = recorded
                .lines()
                .zip(digest.lines())
                .find(|(a, b)| a != b)
                .unwrap_or(("(line count)", "(line count)"));
            Err(format!(
                "not deterministic: {} recorded `{was}`, this run gave `{now}`",
                path.display()
            ))
        }
        Err(_) => std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, digest))
            .map_err(|e| format!("cannot record {}: {e}", path.display())),
    }
}

/// 64-bit FNV-1a.
fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}
