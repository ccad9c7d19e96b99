//! # bist-bench — experiment harness for the DAC'99 ADVBIST reproduction
//!
//! Every table and figure of the paper's evaluation has a regeneration path
//! here:
//!
//! | Paper item | Module | Binary | Criterion bench |
//! |------------|--------|--------|-----------------|
//! | Table 1 (cost model) | [`table1`] | `repro_table1` | `cost_model` |
//! | Table 2 (ADVBIST per k-test session) | [`table2`] | `repro_table2` | `table2_advbist` |
//! | Table 3 (method comparison) | [`table3`] | `repro_table3` | `table3_methods` |
//! | Figure 1 (example DFG / data path) | [`figures`] | `repro_fig1` | `figure1` |
//! | Figures 2–3 (SR / TPG assignment) | [`figures`] | `repro_fig2_fig3` | — |
//! | Ablations (ours) | [`ablation`] | — | `ablation_solver`, `ilp_solver` |
//! | Presolve + cut pool vs no reduction (ours, `BENCH_presolve.json`) | [`presolve`] | `repro_presolve` | — |
//! | k-sweep engine vs rebuild (ours, `BENCH_sweep.json`) | [`sweep`] | `repro_all` | — |
//! | Service cache + resume (ours, `BENCH_service.json`) | [`service`] | `repro_service` | — |
//! | RTL netlists + simulated BIST coverage (ours, `BENCH_rtl.json`, `goldens/rtl/`) | [`rtl`] | `repro_rtl` | — |
//!
//! Every `repro_*` binary reads its solve budget through one
//! [`bist_ilp::Budget::from_env`] call ([`workload::budget_from_env`]):
//! `BIST_TIME_LIMIT_SECS` caps each table/figure ILP solve (default: 5
//! seconds per instance), `BIST_NODE_LIMIT` caps the deterministic
//! node-budgeted comparisons, and `BIST_DEADLINE_SECS` puts an absolute
//! deadline on the table/figure solves of a run (the node-budgeted
//! comparisons ignore it — they must stay deterministic). The paper used a
//! 24-CPU-hour cap on CPLEX 6.0, so absolute runtimes are not comparable —
//! see EXPERIMENTS.md.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
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

pub use report::{ExperimentReport, MethodRow, SessionRow};
pub use sweep::CircuitSweep;
pub use workload::{budget_from_env, circuits, quick_config, small_circuits, table_time_budget};
