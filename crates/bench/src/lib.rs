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
//! | Presolve + cut pool vs no reduction (ours, `BENCH_presolve.json`) | [`presolve`] | `repro_presolve` |
//! | Service cache + resume (ours, `BENCH_service.json`) | [`service`] | `repro_service` |
//!
//! Tables 2 and 3 and the RTL artifacts are rendered from one node-budgeted
//! k-sweep ([`sweep::run_gated`]), which solves each circuit's reference and
//! every k once. Figures 1–3 solve figure1 to proven optimality.
//!
//! Every solve here is exact or node-budgeted, so every design and work
//! counter is deterministic. The binaries read the node budget through one
//! [`bist_ilp::Budget::from_env`] call ([`workload::budget_from_env`]):
//! `BIST_NODE_LIMIT` (legacy `BIST_SWEEP_NODES`) sets it, each binary
//! supplying its own default.
//! Wall-clock performance is measured by the separate `perfbench/`
//! workspace, the repository benchmark. The paper ran CPLEX 6.0 under a
//! 24-CPU-hour cap, so its runtimes are not comparable with anything here.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figures;
pub mod presolve;
pub mod report;
pub mod rtl;
pub mod service;
pub mod sweep;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod workload;

pub use sweep::CircuitSweep;
pub use table3::MethodRow;
pub use workload::{budget_from_env, small_circuits, sweep_circuits};
