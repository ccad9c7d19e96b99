//! Runs the k-sweep comparison (rebuild baseline vs the chained engine) on
//! its own, writes `BENCH_sweep.json`, and applies two gates (see
//! [`bist_bench::sweep::run_gated`]):
//!
//! * at the canonical 1000-node LP budget, the tseng/paulin **exactness
//!   gate**: either `tseng k=2` is proven optimal for the first time, or
//!   every previously-capped chained row ends strictly below its committed
//!   capped objective (see [`bist_bench::sweep::exactness_violations`]), and
//! * the service cross-check: one job-queue batch, which solves every k on
//!   the shared-base engine, must reproduce every rebuild row (see
//!   [`bist_bench::sweep::service_cross_check`]).
//!
//! CI runs this as the perf gate for the pricing/cuts/heuristics layer.

fn main() {
    if let Err(failures) = bist_bench::sweep::run_gated() {
        for failure in &failures {
            eprintln!("{failure}");
        }
        std::process::exit(1);
    }
}
