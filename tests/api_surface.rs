//! Public-API smoke test: the facade's session/service surface must stay
//! re-exported.
//!
//! This is the offline-registry substitute for a `cargo-public-api` check:
//! an accidental removal of a facade re-export fails tier-1 instead of
//! surfacing in downstream builds.

// Every name here must resolve from the facade root — that *is* the test.
use advbist::service::{JobHandle, JobOutcome, JobReport, JobRow, JobService, SynthesisJob};
use advbist::{Budget, CancelToken, SolveEvent};

#[test]
fn facade_re_exports_resolve_and_are_usable() {
    // Budget: construction and builders.
    let budget: Budget = Budget::nodes(10).with_time(std::time::Duration::from_secs(1));
    assert_eq!(budget.node_limit, Some(10));

    // CancelToken: shared flag semantics.
    let token: CancelToken = CancelToken::new();
    assert!(!token.clone().is_cancelled());

    // An observed solve of an ILP model.
    let mut model = advbist::ilp::Model::new("surface");
    let x = model.add_binary("x");
    model.set_objective([(x, 1.0)], advbist::ilp::Sense::Maximize);
    let mut saw_done = false;
    let solution = model
        .solve_observed(&advbist::ilp::SolverConfig::exact(), &mut |event| {
            if matches!(event, SolveEvent::Done { .. }) {
                saw_done = true;
            }
        })
        .expect("solve");
    assert!(solution.is_optimal());
    assert!(saw_done);

    // Service types: construct without running anything heavy.
    let mut service: JobService = JobService::new().with_workers(1);
    assert!(service.is_empty());
    let handle: JobHandle = service.submit(SynthesisJob::new(
        "smoke",
        advbist::dfg::benchmarks::figure1(),
    ));
    assert_eq!(handle.index(), 0);
    assert_eq!(service.len(), 1);
    let _outcome_type: JobOutcome = JobOutcome::Completed;
    let _row_type: Option<JobRow> = None;
    let _report_type: Option<JobReport> = None;
}
