//! Bring your own behaviour: build a DFG with the builder API, schedule and
//! bind it, and synthesise a self-testable data path for it.
//!
//! The example behaviour is a small complex-number multiply-accumulate:
//!
//! ```text
//! re = ar*br - ai*bi + cr
//! im = ar*bi + ai*br + ci
//! ```
//!
//! Every ILP solve runs to proven optimality, so the output is the same on
//! every machine; the whole run takes a few seconds. Run with:
//! ```text
//! cargo run --release --example custom_dfg
//! ```

use std::collections::BTreeMap;
use std::error::Error;

use advbist::core::{reference, synthesis, SynthesisConfig};
use advbist::dfg::lifetime::LifetimeTable;
use advbist::dfg::{Binding, DfgBuilder, ModuleClass, OpKind, Schedule, SynthesisInput};

fn build_complex_mac() -> Result<SynthesisInput, Box<dyn Error>> {
    let mut b = DfgBuilder::new("complex_mac");
    let ar = b.input("ar");
    let ai = b.input("ai");
    let br = b.input("br");
    let bi = b.input("bi");
    let cr = b.input("cr");
    let ci = b.input("ci");

    let p0 = b.op(OpKind::Mul, "p0", ar, br);
    let p1 = b.op(OpKind::Mul, "p1", ai, bi);
    let p2 = b.op(OpKind::Mul, "p2", ar, bi);
    let p3 = b.op(OpKind::Mul, "p3", ai, br);
    let d = b.op(OpKind::Sub, "d", p0, p1);
    let s = b.op(OpKind::Add, "s", p2, p3);
    let re = b.op(OpKind::Add, "re", d, cr);
    let im = b.op(OpKind::Add, "im", s, ci);
    b.output(re);
    b.output(im);
    let dfg = b.finish();

    // Two multipliers and one ALU, scheduled by the resource-constrained list
    // scheduler; the minimal binding then instantiates exactly three modules.
    let limits = BTreeMap::from([(ModuleClass::Multiplier, 2), (ModuleClass::Alu, 1)]);
    let schedule = Schedule::list(&dfg, &limits, ModuleClass::of_with_alu)?;
    let binding = Binding::minimal(&dfg, &schedule, ModuleClass::of_with_alu);
    Ok(SynthesisInput::new(dfg, schedule, binding)?)
}

fn main() -> Result<(), Box<dyn Error>> {
    let input = build_complex_mac()?;
    let lifetimes = LifetimeTable::new(&input)?;
    println!(
        "complex MAC: {} ops in {} steps on {} modules; at least {} registers",
        input.dfg().num_ops(),
        input.num_control_steps(),
        input.binding().num_modules(),
        lifetimes.min_registers()
    );

    let config = SynthesisConfig::exact();
    let reference = reference::synthesize_reference(&input, &config)?;
    println!("reference area: {} transistors", reference.area.total());

    for design in synthesis::synthesize_all_sessions(&input, &config)? {
        println!(
            "k = {}: area {} transistors, overhead {:.1}%, register kinds: {}",
            design.sessions,
            design.area.total(),
            design.overhead_percent(reference.area.total()),
            (0..design.datapath.num_registers())
                .map(|r| design.datapath.register_kind(r).to_string())
                .collect::<Vec<_>>()
                .join(", ")
        );
    }
    Ok(())
}
