//! Runs the whole evaluation (Tables 1-3, Figures 1-3, the k-sweep engine
//! comparison) and prints a JSON summary at the end, suitable for pasting
//! into EXPERIMENTS.md. The sweep comparison runs the same gates as
//! `repro_sweep` (see [`bist_bench::sweep::run_gated`]): it is written to
//! `BENCH_sweep.json`, held to the exactness gate at the default budget,
//! and re-served through the `advbist::service` job queue, which must
//! reproduce every rebuild row under the per-job budgets.
//!
//! The solve budgets come from the environment (see
//! [`bist_ilp::Budget::from_env`]): `BIST_TIME_LIMIT_SECS` (default 5 s) per
//! table/figure ILP solve, `BIST_NODE_LIMIT` (legacy `BIST_SWEEP_NODES`,
//! default 1000) per sweep solve.

use bist_bench::report::ExperimentReport;
use bist_datapath::CostModel;

fn main() {
    // Wall-clock (plus any absolute deadline) for the tables/figures; the
    // sweep reads its node budget itself.
    let table_budget = bist_bench::workload::table_budget();
    let limit = table_budget.time_limit.expect("or_time fills the limit");
    let config = bist_bench::workload::quick_config_budget(table_budget);
    eprintln!(
        "# per-instance ILP budget: {:.1}s (set BIST_TIME_LIMIT_SECS to change)",
        limit.as_secs_f64()
    );

    println!("{}", bist_bench::table1::render(&CostModel::eight_bit()));

    match bist_bench::figures::render_figure1(&config) {
        Ok(text) => println!("{text}"),
        Err(e) => eprintln!("figure 1 failed: {e}"),
    }
    match bist_bench::figures::render_fig2_fig3(&config) {
        Ok(text) => println!("{text}"),
        Err(e) => eprintln!("figures 2/3 failed: {e}"),
    }

    let table2 = match bist_bench::table2::run_all(table_budget) {
        Ok(rows) => {
            println!("{}", bist_bench::table2::render(&rows));
            rows
        }
        Err(e) => {
            eprintln!("table 2 failed: {e}");
            Vec::new()
        }
    };
    let table3 = match bist_bench::table3::run_all(table_budget) {
        Ok(rows) => {
            println!("{}", bist_bench::table3::render(&rows));
            let violations = bist_bench::table3::advbist_wins(&rows);
            if violations.is_empty() {
                println!("ADVBIST is never worse than any baseline under this budget.");
            } else {
                for v in &violations {
                    println!("claim violation: {v}");
                }
            }
            rows
        }
        Err(e) => {
            eprintln!("table 3 failed: {e}");
            Vec::new()
        }
    };

    // The rebuild-vs-engine sweep comparison and its gates, under a
    // deterministic node budget.
    let sweep = match bist_bench::sweep::run_gated() {
        Ok(sweeps) => sweeps,
        Err(failures) => {
            for failure in &failures {
                eprintln!("{failure}");
            }
            std::process::exit(1);
        }
    };

    let report = ExperimentReport {
        time_limit_seconds: limit.as_secs_f64(),
        table2,
        table3,
        sweep,
    };
    match report.to_json() {
        Ok(json) => println!("\n--- machine readable summary ---\n{json}"),
        Err(e) => eprintln!("could not serialise the summary: {e}"),
    }
}
