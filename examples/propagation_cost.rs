//! Propagation micro-benchmark: what one seeded propagation call costs.
//!
//! For each tseng and paulin k, this takes the reduced model the synthesis
//! engine branches on (`SynthesisEngine::reduced_model`), propagates its
//! root box to a fixpoint and then probes every binary the root leaves
//! unfixed: on a copy of the root box it fixes the binary at its cheaper
//! bound (the one its objective coefficient prefers) and times
//! `Propagator::propagate_seeded` from that one variable, as a
//! branch-and-bound child does. The table lists the rows and variables, the
//! probes, how many of them propagation proved infeasible, the bounds the
//! consistent probes moved in all, and the median call.
//!
//! Run with:
//! ```text
//! cargo run --release --example propagation_cost
//! ```
//!
//! Every column but the last is a deterministic count. The median is
//! wall-clock on the machine that runs it, so it varies with its speed and
//! load; nothing checks it.

use std::error::Error;
use std::time::Instant;

use advbist::core::{SynthesisConfig, SynthesisEngine};
use advbist::dfg::benchmarks;
use advbist::ilp::propagate::{Domains, PropagationResult, Propagator};
use advbist::ilp::Sense;

fn main() -> Result<(), Box<dyn Error>> {
    println!(
        "{:<7} {:>2} {:>5} {:>5} {:>6} {:>10} {:>12} {:>15}",
        "model", "k", "rows", "vars", "probes", "infeasible", "bounds moved", "us/call (p50)"
    );
    for (name, input) in [
        ("tseng", benchmarks::tseng()),
        ("paulin", benchmarks::paulin()),
    ] {
        let config = SynthesisConfig::default();
        let engine = SynthesisEngine::new(&input, &config)?;
        for k in 1..=engine.max_sessions() {
            let model = engine.reduced_model(k)?.model;
            let propagator = Propagator::new(&model);
            let mut root = Domains::from_model(&model);
            if propagator.propagate(&mut root) == PropagationResult::Infeasible {
                return Err(format!("{name} k={k}: the root box is infeasible").into());
            }

            let (mut infeasible, mut moved) = (0usize, 0usize);
            let mut call_us = Vec::new();
            for (j, var) in model.vars().iter().enumerate() {
                if root.is_fixed(j) {
                    continue;
                }
                let cost = match model.sense() {
                    Sense::Minimize => var.objective,
                    Sense::Maximize => -var.objective,
                };
                let mut probe = root.clone();
                probe.fix(j, if cost >= 0.0 { 0.0 } else { 1.0 });
                let fixed = probe.clone();
                let start = Instant::now();
                let verdict = propagator.propagate_seeded(&mut probe, &[j]);
                call_us.push(start.elapsed().as_secs_f64() * 1e6);
                if verdict == PropagationResult::Infeasible {
                    infeasible += 1;
                } else {
                    moved += (0..probe.len())
                        .map(|i| {
                            usize::from(probe.lower(i) != fixed.lower(i))
                                + usize::from(probe.upper(i) != fixed.upper(i))
                        })
                        .sum::<usize>();
                }
            }
            call_us.sort_by(f64::total_cmp);
            let median = call_us.get(call_us.len() / 2).copied().unwrap_or(0.0);
            println!(
                "{name:<7} {k:>2} {:>5} {:>5} {:>6} {infeasible:>10} {moved:>12} {median:>15.2}",
                propagator.matrix().num_rows(),
                model.num_vars(),
                call_us.len(),
            );
        }
    }
    Ok(())
}
