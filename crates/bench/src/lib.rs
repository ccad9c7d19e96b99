//! # bist-bench — experiment harness for the DAC'99 ADVBIST reproduction
//!
//! Every table and figure of the paper's evaluation has a regeneration path
//! here:
//!
//! | Paper item | Module | Binary |
//! |------------|--------|--------|
//! | Table 1 (cost model) | [`table1`] | `repro_table1` |
//! | Figure 1 (example DFG / data path) | [`figures`] | `repro_fig1` |
//! | Figures 2–3 (SR / TPG assignment) | [`figures`] | `repro_fig2_fig3` |
//! | Table 2 (ADVBIST per k-test session) | [`table2`] | `repro_sweep`, `repro_all` |
//! | Table 3 (method comparison) | [`table3`] | `repro_sweep`, `repro_all` |
//! | k-sweep: rebuild vs chained engine, exactness, service and Table 3 gates (ours, `BENCH_sweep.json`) | [`sweep`] | `repro_sweep`, `repro_all` |
//! | RTL netlists + simulated BIST coverage of every swept design (ours, `BENCH_rtl.json`, `goldens/rtl/`) | [`rtl`] | `repro_sweep`, `repro_all` |
//!
//! Tables 2 and 3 and the RTL artifacts are rendered from one node-budgeted
//! k-sweep ([`sweep::run_gated`]), which solves each circuit's reference and
//! every k once. Figures 1–3 solve figure1 to proven optimality.
//!
//! Every solve here is exact or node-budgeted, so every design and work
//! counter is deterministic. The sweep reads its node budget from the
//! environment once, before its first solve: `BIST_NODE_LIMIT` sets it, the
//! default is [`workload::DEFAULT_SWEEP_NODES`], and a malformed value or
//! any other `BIST_*` name exits with status 2. It is the one environment
//! variable the workspace reads. Its gates ([`sweep::gate_failures`],
//! the engine-vs-rebuild cross-check among them) are the harness's only
//! gates.
//! Wall-clock performance is measured by the separate `perfbench/`
//! workspace, the repository benchmark. The paper ran CPLEX 6.0 under a
//! 24-CPU-hour cap, so its runtimes are not comparable with anything here.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figures;
pub mod report;
pub mod rtl;
pub mod sweep;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod workload;

pub use sweep::CircuitSweep;
pub use table3::MethodRow;
pub use workload::sweep_circuits;
