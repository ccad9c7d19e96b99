//! The job-service front door: a batch of synthesis jobs with per-job
//! budgets, deadlines and cancellation, answered in submission order —
//! followed by an interrupt → resume round trip through the service's
//! solve cache, and a replay of the finished row from it.
//!
//! Run with:
//! ```text
//! cargo run --release --example service_batch
//! ```

use std::error::Error;
use std::sync::Arc;
use std::time::Duration;

use advbist::core::SynthesisConfig;
use advbist::dfg::benchmarks;
use advbist::service::{JobService, SolveCache, SynthesisJob};
use advbist::Budget;

fn main() -> Result<(), Box<dyn Error>> {
    let mut service = JobService::new().with_workers(2);

    // Deterministic node budget per solve for the small circuits...
    for (name, input) in [
        ("figure1", benchmarks::figure1()),
        ("tseng", benchmarks::tseng()),
    ] {
        service.submit(
            SynthesisJob::new(name, input)
                .with_config(SynthesisConfig::default())
                .with_budget(Budget::nodes(500)),
        );
    }
    // ...a wall-clock budget and a k-range restriction for the larger one...
    service.submit(
        SynthesisJob::new("paulin k<=2", benchmarks::paulin())
            .with_sessions(1..=2)
            .with_budget(Budget::time(Duration::from_millis(500))),
    );
    // ...and one job cancelled before the batch even starts, to show that
    // cancellation is per job and the rest of the batch is unaffected.
    let doomed = service.submit(SynthesisJob::new("cancelled demo", benchmarks::fir6()));
    doomed.cancel();

    for report in service.run() {
        println!(
            "{:<14} {:?} ({} rows, {:.2}s)",
            report.name,
            report.outcome,
            report.rows.len(),
            report.seconds
        );
        for row in &report.rows {
            println!(
                "    k={}: area {:>5} transistors, {:>6} nodes{}",
                row.k,
                row.area,
                row.nodes,
                if row.optimal { ", optimal" } else { "" }
            );
        }
    }

    // Interrupt → resume through the shared solve cache: a node-budgeted
    // solve with snapshot capture on stops mid-tree and parks its frontier
    // in the cache; resubmitting the same instance under an open budget
    // resumes that tree instead of starting cold.
    println!("\ninterrupt -> resume (tseng k=1):");
    let cache = Arc::new(SolveCache::new(SolveCache::DEFAULT_CAPACITY_MB));

    let mut first = JobService::new().with_cache(cache.clone());
    first.submit(
        SynthesisJob::new("interrupted", benchmarks::tseng())
            .with_config(SynthesisConfig::exact())
            .with_sessions(1..=1)
            .with_budget(Budget::nodes(200).with_snapshot(true)),
    );
    let interrupted = &first.run()[0];
    println!(
        "    interrupted after {:>4} nodes, snapshot captured: {}",
        interrupted.rows[0].nodes, interrupted.snapshot_captured
    );

    let finish = || {
        let mut service = JobService::new().with_cache(cache.clone());
        service.submit(
            SynthesisJob::new("resumed", benchmarks::tseng())
                .with_config(SynthesisConfig::exact())
                .with_sessions(1..=1),
        );
        service.run().remove(0)
    };
    let resumed = finish();
    let row = &resumed.rows[0];
    println!(
        "    resumed from the cache ({} hit), finished at {:>4} total nodes{}",
        resumed.cache_hits,
        row.nodes,
        if row.optimal { ", optimal" } else { "" }
    );

    // The same job once more: its row is cached now, so the job answers
    // from the cache without building a model or solving.
    let replayed = finish();
    let row = &replayed.rows[0];
    println!(
        "    replayed from the cache ({} hit, {} misses), {} total nodes{}",
        replayed.cache_hits,
        replayed.cache_misses,
        row.nodes,
        if row.optimal { ", optimal" } else { "" }
    );
    Ok(())
}
