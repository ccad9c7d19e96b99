//! Kernel micro-benchmark: what a warm start costs in the LP kernel.
//!
//! For each tseng and paulin k, this takes the reduced model the synthesis
//! engine branches on (`SynthesisEngine::reduced_model`), solves its LP
//! relaxation cold from the slack basis and then re-solves it 200 times from
//! its own optimal basis under unchanged bounds. Those warm starts take zero
//! pivots, so each one is a factorization of the basis plus the extraction
//! of the solution. The table lists the rows, the cold solve's microseconds
//! per pivot and the median warm start.
//!
//! Run with:
//! ```text
//! cargo run --release --example kernel_warm_start
//! ```
//!
//! The rows column is a deterministic count. The timings are wall-clock on
//! the machine that runs it, so they vary with its speed and load; nothing
//! checks them.

use std::error::Error;
use std::time::Instant;

use advbist::core::{SynthesisConfig, SynthesisEngine};
use advbist::dfg::benchmarks;
use advbist::ilp::propagate::Domains;
use advbist::ilp::simplex::{resolve_with_basis, solve_lp_basis};
use advbist::ilp::SparseModel;

fn main() -> Result<(), Box<dyn Error>> {
    let warm_starts = 200;
    println!(
        "{:<7} {:>2} {:>5} {:>14} {:>19}",
        "model", "k", "rows", "cold us/pivot", "warm start ms (p50)"
    );
    for (name, input) in [
        ("tseng", benchmarks::tseng()),
        ("paulin", benchmarks::paulin()),
    ] {
        let config = SynthesisConfig::default();
        let engine = SynthesisEngine::new(&input, &config)?;
        for k in 1..=engine.max_sessions() {
            let model = engine.reduced_model(k)?.model;
            let matrix = SparseModel::from_model(&model);
            let objective: Vec<f64> = model.vars().iter().map(|v| v.objective).collect();
            let constant = model.objective().offset();
            let domains = Domains::from_model(&model);

            let start = Instant::now();
            let (cold, basis) = solve_lp_basis(&matrix, &objective, constant, &domains, 1_000_000);
            let cold_us = start.elapsed().as_secs_f64() * 1e6 / cold.pivots.max(1) as f64;
            let basis = basis.ok_or("the cold solve found no optimal basis")?;
            let mut warm_ms: Vec<f64> = (0..warm_starts)
                .map(|_| {
                    let start = Instant::now();
                    let (warm, _) = resolve_with_basis(
                        &matrix, &objective, constant, &basis, &domains, 1_000_000,
                    )
                    .expect("an optimal basis fits its own model");
                    assert_eq!(warm.status, cold.status);
                    assert_eq!(warm.pivots + warm.bound_flips, 0, "unchanged bounds");
                    start.elapsed().as_secs_f64() * 1e3
                })
                .collect();
            warm_ms.sort_by(f64::total_cmp);
            println!(
                "{name:<7} {k:>2} {:>5} {cold_us:>14.1} {:>19.3}",
                matrix.num_rows(),
                warm_ms[warm_ms.len() / 2]
            );
        }
    }
    Ok(())
}
