//! The four HYPER-derived filter benchmarks (fir6, iir3, dct4, wavelet6):
//! ADVBIST against the three heuristic baselines at the maximal test-session
//! count — a runnable slice of Table 3.
//!
//! Every ILP solve runs under a fixed budget of 1000 branch-and-bound nodes,
//! so the table is the same on every machine. Run with:
//! ```text
//! cargo run --release --example filter_suite
//! ```

use std::error::Error;

use advbist::baselines::{synthesize_advan, synthesize_bits, synthesize_ralloc};
use advbist::core::{reference, synthesis, SynthesisConfig};
use advbist::datapath::report::DesignReport;
use advbist::dfg::benchmarks;
use advbist::Budget;

fn main() -> Result<(), Box<dyn Error>> {
    let config = SynthesisConfig::budgeted(Budget::nodes(1000));
    let circuits = vec![
        ("fir6", benchmarks::fir6()),
        ("iir3", benchmarks::iir3()),
        ("dct4", benchmarks::dct4()),
        ("wavelet6", benchmarks::wavelet6()),
    ];

    println!("{}", DesignReport::table3_header());
    for (name, input) in circuits {
        let k = input.binding().num_modules();
        let reference = reference::synthesize_reference(&input, &config)?;
        let reference_area = reference.area.total();

        let advbist = synthesis::synthesize_bist(&input, k, &config)?;
        println!("{}", advbist.report("ADVBIST", name, reference_area));

        let advan = synthesize_advan(&input, k, &config.cost)?;
        println!("{}", advan.report("ADVAN", name, reference_area));

        let ralloc = synthesize_ralloc(&input, k, &config.cost)?;
        println!("{}", ralloc.report("RALLOC", name, reference_area));

        let bits = synthesize_bits(&input, k, &config.cost)?;
        println!("{}", bits.report("BITS", name, reference_area));
        println!();
    }
    println!("Lower OH(%) is better; ADVBIST should win or tie on every circuit (Table 3).");
    Ok(())
}
