//! The paulin (HAL differential equation solver) benchmark: the area /
//! test-time trade-off of Table 2.
//!
//! A k-test session with a small k tests many modules concurrently (short
//! test time, more test hardware); a large k serialises testing (longer test
//! time, less hardware). ADVBIST emits one area-minimal design per k so the
//! designer can pick a point on that curve.
//!
//! Every ILP solve runs under a fixed budget of 1000 branch-and-bound nodes,
//! so every column but `time(s)` is the same on every machine. Run with:
//! ```text
//! cargo run --release --example diffeq_bist
//! ```

use std::error::Error;

use advbist::core::{reference, synthesis, SynthesisConfig};
use advbist::dfg::benchmarks;
use advbist::Budget;

fn main() -> Result<(), Box<dyn Error>> {
    let input = benchmarks::paulin();
    let config = SynthesisConfig::budgeted(Budget::nodes(1000));

    println!(
        "paulin: {} operations on {} modules, {} control steps",
        input.dfg().num_ops(),
        input.binding().num_modules(),
        input.num_control_steps()
    );

    let reference = reference::synthesize_reference(&input, &config)?;
    println!(
        "reference area: {} transistors ({} registers, {} mux inputs)\n",
        reference.area.total(),
        reference.datapath.num_registers(),
        reference.area.mux_inputs
    );

    println!(
        "{:>2} {:>10} {:>12} {:>9} {:>9} {:>7}",
        "k", "area", "overhead(%)", "time(s)", "optimal", "CBILBOs"
    );
    for design in synthesis::synthesize_all_sessions(&input, &config)? {
        println!(
            "{:>2} {:>10} {:>12.1} {:>9.2} {:>9} {:>7}",
            design.sessions,
            design.area.total(),
            design.overhead_percent(reference.area.total()),
            design.stats.time.as_secs_f64(),
            if design.optimal { "yes" } else { "no" },
            design
                .area
                .count(advbist::datapath::TestRegisterKind::Cbilbo)
        );
    }
    println!("\nA larger k (more sub-test sessions) trades test time for area, as in Table 2.");
    Ok(())
}
