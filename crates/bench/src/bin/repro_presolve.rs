//! Runs the presolve/cuts ablation (reducing pipeline + cut pool vs the
//! PR-1 solver) over the small circuits, writes `BENCH_presolve.json` and
//! exits non-zero if the default solver regresses against the no-reduce
//! baseline on `figure1`, or if the engine path diverges from the rebuild
//! path on any circuit — CI uses this as the perf gate for the reduce
//! layer.

fn main() {
    let node_limit = bist_bench::budget_from_env()
        .or_nodes(300)
        .node_limit
        .expect("or_nodes fills the limit");
    eprintln!(
        "# presolve ablation node budget: {node_limit} nodes/solve \
         (set BIST_NODE_LIMIT to change)"
    );

    let circuits = bist_bench::small_circuits();
    let ablation = match bist_bench::presolve::run_all(&circuits, node_limit) {
        Ok(ablation) => ablation,
        Err(e) => {
            eprintln!("presolve ablation failed: {e}");
            std::process::exit(1);
        }
    };
    println!("{}", bist_bench::presolve::render(&ablation));

    let json = ablation.to_json();
    match std::fs::write("BENCH_presolve.json", format!("{json}\n")) {
        Ok(()) => eprintln!("# wrote BENCH_presolve.json"),
        Err(e) => eprintln!("could not write BENCH_presolve.json: {e}"),
    }

    let violations = ablation.violations();
    if !violations.is_empty() {
        for violation in &violations {
            eprintln!("presolve regression: {violation}");
        }
        std::process::exit(1);
    }
    println!(
        "presolve gate: reduce+cuts strictly below the no-reduce baseline on figure1, and the \
         engine reproduces every rebuild row."
    );
}
