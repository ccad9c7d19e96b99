//! Reproduction of the paper's figures.
//!
//! * **Figure 1** — the example DFG and its three-register / two-module data
//!   path. We regenerate the DFG (Graphviz), synthesise the reference data
//!   path with the ILP and print its structure.
//! * **Figure 2** — a partial data path illustrating signature-register
//!   assignment (which registers can compact which modules' responses).
//! * **Figure 3** — a partial data path illustrating TPG assignment (which
//!   registers can feed which module input ports).

use std::fmt::Write as _;

use bist_core::{reference, synthesis, SynthesisConfig};
use bist_datapath::interconnect::ModulePort;
use bist_datapath::test_plan::TpgSource;
use bist_dfg::{benchmarks, dot};

/// Regenerates Figure 1: the example DFG (as Graphviz DOT) and a description
/// of the synthesised data path, solved to proven optimality (figure1 takes
/// milliseconds).
///
/// # Errors
///
/// Propagates synthesis errors (not expected for the Figure 1 example).
pub fn render_figure1() -> Result<String, bist_core::CoreError> {
    let input = benchmarks::figure1();
    let mut out = String::new();
    let _ = writeln!(out, "Figure 1(a): data flow graph (Graphviz DOT)\n");
    out.push_str(&dot::to_dot_scheduled(&input));

    let design = reference::synthesize_reference(&input, &SynthesisConfig::exact())?;
    let _ = writeln!(out, "\nFigure 1(b): synthesised data path");
    let _ = writeln!(
        out,
        "  registers: {}   modules: {}   area: {} transistors",
        design.datapath.num_registers(),
        design.datapath.num_modules(),
        design.area.total()
    );
    for (r, reg) in design.datapath.registers().iter().enumerate() {
        let vars: Vec<&str> = reg
            .variables
            .iter()
            .map(|&v| input.dfg().var(v).name.as_str())
            .collect();
        let _ = writeln!(out, "  R{r} = {{{}}}", vars.join(", "));
    }
    for (m, module) in design.datapath.modules().iter().enumerate() {
        let sources: Vec<String> = (0..module.num_inputs)
            .map(|port| {
                let regs = design
                    .datapath
                    .interconnect()
                    .registers_driving_port(ModulePort { module: m, port });
                format!(
                    "p{port}<-{{{}}}",
                    regs.iter()
                        .map(|r| format!("R{r}"))
                        .collect::<Vec<_>>()
                        .join(",")
                )
            })
            .collect();
        let _ = writeln!(
            out,
            "  {} ({}): {}",
            module.name,
            module.class,
            sources.join("  ")
        );
    }
    Ok(out)
}

/// Regenerates the content of Figures 2 and 3: for each module of the
/// Figure 1 data path, which registers could serve as its signature register
/// (Figure 2) and which registers could serve as TPGs for each input port
/// (Figure 3), plus the assignment actually chosen by the ILP for a 2-test
/// session, solved to proven optimality.
///
/// # Errors
///
/// Propagates synthesis errors (not expected for the Figure 1 example).
pub fn render_fig2_fig3() -> Result<String, bist_core::CoreError> {
    let input = benchmarks::figure1();
    let design = synthesis::synthesize_bist(&input, 2, &SynthesisConfig::exact())?;
    let dp = &design.datapath;
    let mut out = String::new();

    let _ = writeln!(out, "Figure 2: signature register assignment candidates");
    for m in 0..dp.num_modules() {
        let candidates: Vec<String> = dp
            .interconnect()
            .registers_driven_by_module(m)
            .iter()
            .map(|r| format!("R{r}"))
            .collect();
        let chosen = design
            .plan
            .sessions
            .iter()
            .find_map(|s| s.sr.get(&m))
            .map(|r| format!("R{r}"))
            .unwrap_or_else(|| "-".into());
        let _ = writeln!(
            out,
            "  module {} ({}): candidates {{{}}}, chosen SR = {}",
            dp.modules()[m].name,
            dp.modules()[m].class,
            candidates.join(", "),
            chosen
        );
    }

    let _ = writeln!(out, "\nFigure 3: TPG assignment candidates");
    for m in 0..dp.num_modules() {
        for port in 0..dp.modules()[m].num_inputs {
            let candidates: Vec<String> = dp
                .interconnect()
                .registers_driving_port(ModulePort { module: m, port })
                .iter()
                .map(|r| format!("R{r}"))
                .collect();
            let chosen = design
                .plan
                .sessions
                .iter()
                .find_map(|s| s.tpg.get(&(m, port)))
                .map(|src| match src {
                    TpgSource::Register(r) => format!("R{r}"),
                    TpgSource::ConstantGenerator => "dedicated generator".into(),
                })
                .unwrap_or_else(|| "-".into());
            let _ = writeln!(
                out,
                "  module {} port {}: candidates {{{}}}, chosen TPG = {}",
                dp.modules()[m].name,
                port,
                candidates.join(", "),
                chosen
            );
        }
    }

    let _ = writeln!(
        out,
        "\nRegister reconfiguration for the 2-test session (area {} transistors):",
        design.area.total()
    );
    for r in 0..dp.num_registers() {
        let _ = writeln!(out, "  R{r}: {}", dp.register_kind(r));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure1_rendering_mentions_every_register_and_module() {
        let text = render_figure1().unwrap();
        assert!(text.contains("digraph"));
        assert!(text.contains("R0"));
        assert!(text.contains("R2"));
        assert!(text.contains("registers: 3"));
        assert!(text.contains("modules: 2"));
    }

    #[test]
    fn fig2_fig3_rendering_shows_candidates_and_choices() {
        let text = render_fig2_fig3().unwrap();
        assert!(text.contains("Figure 2"));
        assert!(text.contains("Figure 3"));
        assert!(text.contains("chosen SR"));
        assert!(text.contains("chosen TPG"));
        assert!(text.contains("Register reconfiguration"));
    }
}
