//! Solves the node-budgeted k-sweep over figure1 and the paper's six
//! circuits once (reference, rebuild and chained sweep per circuit), prints
//! Tables 2 and 3, and writes `BENCH_sweep.json`, `BENCH_rtl.json` and
//! `goldens/rtl/*.netlist` from those results (see
//! [`bist_bench::sweep::run_gated`]). It exits 1 unless every gate passes:
//!
//! * at the canonical 1000-node LP budget, the tseng/paulin **exactness
//!   gate**: either `tseng k=2` is proven optimal, or every
//!   previously-capped chained row ends strictly below its committed capped
//!   objective (see [`bist_bench::sweep::exactness_violations`]);
//! * the service cross-check: one job-queue batch, which solves every k on
//!   the shared-base engine, must reproduce every rebuild row in objective
//!   bits, area, nodes and simplex pivots (see
//!   [`bist_bench::sweep::service_cross_check`]);
//! * the RTL gate: every module of every chained design is exercised in its
//!   scheduled session and observed in its signature register (see
//!   [`bist_bench::rtl::run_circuit`]);
//! * Table 3's claim: ADVBIST is never worse than any heuristic baseline
//!   (see [`bist_bench::table3::advbist_wins`]).
//!
//! The node budget comes from `BIST_NODE_LIMIT` (default 1000 nodes per
//! solve); a malformed value or any other `BIST_*` name exits 2 before the
//! first solve.

fn main() {
    if let Err(failures) = bist_bench::sweep::run_gated() {
        for failure in &failures {
            eprintln!("{failure}");
        }
        std::process::exit(1);
    }
}
