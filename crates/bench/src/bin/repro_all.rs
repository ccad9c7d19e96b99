//! Runs the whole evaluation: Table 1, Figures 1–3, then the node-budgeted
//! k-sweep behind Tables 2 and 3 with all of its gates and artifacts (see
//! [`bist_bench::sweep::run_gated`]; `repro_sweep` runs that part alone).
//! Exits 1 when any gate fails.
//!
//! The sweep's node budget comes from `BIST_NODE_LIMIT` (legacy
//! `BIST_SWEEP_NODES`, default 1000 nodes per solve).

use bist_datapath::CostModel;

fn main() {
    println!("{}", bist_bench::table1::render(&CostModel::eight_bit()));

    match bist_bench::figures::render_figure1() {
        Ok(text) => println!("{text}"),
        Err(e) => eprintln!("figure 1 failed: {e}"),
    }
    match bist_bench::figures::render_fig2_fig3() {
        Ok(text) => println!("{text}"),
        Err(e) => eprintln!("figures 2/3 failed: {e}"),
    }

    if let Err(failures) = bist_bench::sweep::run_gated() {
        for failure in &failures {
            eprintln!("{failure}");
        }
        std::process::exit(1);
    }
}
