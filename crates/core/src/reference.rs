//! The reference (non-BIST) area-optimal data path.
//!
//! Section 4.1 of the paper: *"The reference circuits, which were used to
//! measure the area overhead of BIST designs, were obtained through an ILP
//! for data path synthesis. The reference circuits are optimal in area."*
//! This module is that ILP: register assignment + interconnect + multiplexer
//! assignment minimising register-plus-multiplexer transistor count, with no
//! BIST variables.

use bist_datapath::{AreaBreakdown, Datapath};
use bist_dfg::SynthesisInput;
use bist_ilp::{ReducedModel, SolveStats, SolverConfig};

use crate::config::SynthesisConfig;
use crate::engine::SynthesisEngine;
use crate::error::CoreError;
use crate::extract;
use crate::formulation::BistFormulation;

/// The synthesised reference data path and how it was obtained.
#[derive(Debug, Clone)]
pub struct ReferenceDesign {
    /// The data path (all registers plain).
    pub datapath: Datapath,
    /// Its area breakdown under the configured cost model.
    pub area: AreaBreakdown,
    /// Whether the ILP proved the design optimal within its limits.
    pub optimal: bool,
    /// Solver statistics of the main solve.
    pub stats: SolveStats,
}

/// Synthesises the reference data path for a scheduled DFG.
///
/// When [`SynthesisConfig::warm_start`] is enabled (the default) the
/// left-edge register assignment is converted into a complete feasible
/// assignment of the model and handed to the solver as its initial
/// incumbent, so this function returns a valid data path no worse than the
/// left-edge design even under a tight time limit. It builds a fresh
/// [`SynthesisEngine`]; [`SynthesisEngine::synthesize_reference`] on an
/// existing engine runs the same solve on its shared base.
///
/// # Errors
///
/// Returns an error if the synthesis input is inconsistent or the model is
/// infeasible (which cannot happen for a valid schedule with enough
/// registers).
pub fn synthesize_reference(
    input: &SynthesisInput,
    config: &SynthesisConfig,
) -> Result<ReferenceDesign, CoreError> {
    SynthesisEngine::new(input, config)?.synthesize_reference()
}

/// Solves a fully-built reference formulation through `reduced`, its
/// reduction by the engine, and extracts the design.
pub(crate) fn solve_reference_formulation(
    formulation: &BistFormulation<'_>,
    reduced: &ReducedModel,
    solver_config: &SolverConfig,
) -> Result<ReferenceDesign, CoreError> {
    let (chosen, optimal) =
        crate::synthesis::solve_formulation(formulation, reduced, solver_config, None)?;
    let datapath = extract::datapath(formulation, &chosen)?;
    let area = datapath.area(&formulation.config.cost);
    Ok(ReferenceDesign {
        datapath,
        area,
        optimal,
        stats: chosen.stats().clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bist_dfg::benchmarks;
    use bist_dfg::lifetime::LifetimeTable;

    #[test]
    fn figure1_reference_is_optimal_and_minimal() {
        let input = benchmarks::figure1();
        let config = SynthesisConfig::exact();
        let design = synthesize_reference(&input, &config).unwrap();
        assert!(design.optimal);
        assert_eq!(design.datapath.num_registers(), 3);
        // Three plain registers plus whatever multiplexers the wiring needs.
        assert_eq!(design.area.register_area, 3 * 208);
        assert!(design.area.total() >= 3 * 208);
        // The ILP may not use *more* mux inputs than the left-edge baseline.
        let table = LifetimeTable::new(&input).unwrap();
        let baseline = bist_dfg::allocate::left_edge(&table);
        let baseline_dp =
            bist_datapath::Datapath::from_register_assignment(&input, &baseline, 8).unwrap();
        let baseline_area = baseline_dp.area(&config.cost);
        assert!(design.area.total() <= baseline_area.total());
    }

    #[test]
    fn warm_start_and_cold_start_agree_on_figure1() {
        let input = benchmarks::figure1();
        let warm = SynthesisConfig::exact();
        let cold = SynthesisConfig {
            warm_start: false,
            ..SynthesisConfig::exact()
        };
        let a = synthesize_reference(&input, &warm).unwrap();
        let b = synthesize_reference(&input, &cold).unwrap();
        assert!(a.optimal && b.optimal);
        assert_eq!(a.area.total(), b.area.total());
    }

    #[test]
    fn time_boxed_reference_still_returns_a_design() {
        let input = benchmarks::tseng();
        let config = SynthesisConfig::time_boxed(std::time::Duration::from_millis(200));
        let design = synthesize_reference(&input, &config).unwrap();
        assert_eq!(design.datapath.num_registers(), 5);
        assert!(design.area.total() > 0);
    }
}
