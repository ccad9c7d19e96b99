//! # advbist — built-in self-testable data path synthesis by integer linear programming
//!
//! A from-scratch Rust reproduction of *"On ILP Formulations for Built-In
//! Self-Testable Data Path Synthesis"* (Kim, Ha, Takahashi — DAC 1999).
//!
//! The crate is a thin facade over the workspace members so applications can
//! depend on a single crate:
//!
//! | Re-export | Contents |
//! |-----------|----------|
//! | [`ilp`] | pure-Rust branch-and-bound 0-1 ILP solver (the CPLEX substitute) |
//! | [`dfg`] | scheduled data-flow graphs, lifetimes, the benchmark suite |
//! | [`datapath`] | RTL/BIST structure model, Table 1 cost model, validator |
//! | [`rtl`] | netlist emitter, Verilog writer, cycle-level BIST simulator |
//! | [`core`] | the ADVBIST ILP formulations and the reference-design ILP |
//! | [`baselines`] | the ADVAN / RALLOC / BITS comparison heuristics |
//! | [`service`] | the concurrent job-queue front door (batched synthesis with budgets, cancellation, deadlines) |
//!
//! The solve surface's small types — [`Budget`], [`CancelToken`],
//! [`SolveEvent`], [`SolveSnapshot`] — are re-exported at the crate root.
//! One [`ilp::SolverConfig`] configures every solve: a model is solved with
//! [`ilp::Model::solve`] or, with a live event stream,
//! [`ilp::Model::solve_observed`]; a circuit with [`core::SynthesisEngine`],
//! which the [`service`] runs. The README's *"API: sessions, budgets,
//! events"* section shows both.
//!
//! # Quick start
//!
//! ```no_run
//! use advbist::core::{reference, synthesis, SynthesisConfig};
//! use advbist::dfg::benchmarks;
//!
//! # fn main() -> Result<(), advbist::core::CoreError> {
//! let input = benchmarks::paulin();
//! let config = SynthesisConfig::default();
//! let reference = reference::synthesize_reference(&input, &config)?;
//! // One self-testable design per k-test session, k = 1..=N modules.
//! for design in synthesis::synthesize_all_sessions(&input, &config)? {
//!     println!(
//!         "k = {}: area {} transistors, overhead {:.1}%",
//!         design.sessions,
//!         design.area.total(),
//!         design.overhead_percent(reference.area.total())
//!     );
//! }
//! # Ok(())
//! # }
//! ```
//!
//! See the `examples/` directory for runnable end-to-end scenarios and the
//! `bist-bench` crate for the harness that regenerates every table and figure
//! of the paper's evaluation.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod service;

pub use bist_baselines as baselines;
pub use bist_core as core;
pub use bist_datapath as datapath;
pub use bist_dfg as dfg;
pub use bist_ilp as ilp;
pub use bist_rtl as rtl;

pub use bist_ilp::{Budget, CancelToken, SolveEvent, SolveSnapshot};

/// The paper this workspace reproduces.
pub const PAPER: &str =
    "Kim, Ha, Takahashi: On ILP Formulations for Built-In Self-Testable Data Path Synthesis, DAC 1999";

#[cfg(test)]
mod tests {
    #[test]
    fn facade_re_exports_are_usable() {
        let input = crate::dfg::benchmarks::figure1();
        assert_eq!(input.binding().num_modules(), 2);
        let cost = crate::datapath::CostModel::eight_bit();
        assert_eq!(
            cost.register_cost(crate::datapath::TestRegisterKind::Plain),
            208
        );
        assert!(crate::PAPER.contains("DAC 1999"));
    }
}
