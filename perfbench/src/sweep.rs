//! The two engine-sweep workloads, each swept k = 1..N on one thread as
//! `SynthesisEngine::sweep_chained` sweeps:
//!
//! * `sweep_lp` — figure1, tseng and paulin swept k = 1..N under the
//!   canonical 1000-node budget with LP bounds at every node, the
//!   repository's sweep baseline. Node LPs take most of its time, so the LP
//!   kernel and warm/cold basis handling decide it.
//! * `exact_random` — 108 small random DFGs swept k = 1..2 to proven
//!   optimality with RTL validation on. Per-solve fixed costs (formulate,
//!   reduce, root, extract, RTL simulation) are a visible share here, and
//!   proof speed shows up as time to verdict.

use std::ops::Range;

use advbist::core::{CoreError, SweepOutcome, SynthesisConfig, SynthesisEngine};
use advbist::dfg::allocate::RegisterAssignment;
use advbist::dfg::benchmarks::{self, RandomDfgConfig};
use advbist::dfg::SynthesisInput;
use advbist::ilp::{BoundMode, Budget, SolveEvent, SolverConfig};

use crate::check::{check_design, Checks, Row};
use crate::host::HostSpeed;
use crate::measure::{passes, repeated_setup, EndToEnd, Metrics, Pass, Rng};
use crate::trace::{self, Layers, ServiceLayer};
use crate::{Args, Outcome};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    SweepLp,
    ExactRandom,
}

/// Per-solve node budget of `sweep_lp`.
const SWEEP_NODES: u64 = 1000;
/// Size of the fixed random-circuit pool, and how many of it one seed draws.
const POOL: usize = 110;
const DRAWN: usize = 108;
const POOL_SEED: u64 = 0xB157_0000;

struct Circuit {
    name: String,
    input: SynthesisInput,
}

fn config(kind: Kind) -> SynthesisConfig {
    match kind {
        Kind::SweepLp => SynthesisConfig {
            solver: SolverConfig {
                budget: Budget::nodes(SWEEP_NODES),
                bound_mode: BoundMode::LpRelaxation,
                ..SolverConfig::default()
            },
            ..SynthesisConfig::default()
        },
        Kind::ExactRandom => SynthesisConfig::exact().with_rtl_validation(true),
    }
}

/// The workload's circuits for `seed`, in the order they are swept.
/// `sweep_lp` always sweeps the same three circuits; its seed only orders
/// them.
fn circuits(kind: Kind, seed: u64) -> Vec<Circuit> {
    let mut rng = Rng::new(seed);
    let mut circuits = match kind {
        Kind::SweepLp => benchmarks::small()
            .into_iter()
            .map(|(name, input)| Circuit {
                name: name.to_string(),
                input,
            })
            .collect(),
        Kind::ExactRandom => {
            let mut pool = random_pool();
            rng.shuffle(&mut pool);
            pool.truncate(DRAWN);
            pool
        }
    };
    rng.shuffle(&mut circuits);
    circuits
}

/// The fixed pool `exact_random` draws from: 6-operation DFGs on one
/// multiplier and one ALU that use both modules, so every circuit is swept
/// at k = 1 and 2. Circuits with a squaring operation are skipped: a module
/// whose only operation squares one value has one register on both ports,
/// and no test plan gives it two independent pattern generators.
///
/// A fresh draw of circuits per seed moves the total solve work by
/// about 10 % between seeds (per-circuit time varies about as much as its
/// mean), more than the bounds allow. Drawing 108 of one fixed pool of 110
/// keeps the work comparable while every seed still solves a different set;
/// with 105 of 110, which heavy circuits a seed left out still moved the
/// 90th-percentile latency by about 10 %.
fn random_pool() -> Vec<Circuit> {
    let mut pool = Vec::with_capacity(POOL);
    let mut stream = 0;
    while pool.len() < POOL {
        stream += 1;
        // `random_dfg` sets the seed's low bit, so only even offsets give
        // distinct circuits.
        let input = benchmarks::random_dfg(&RandomDfgConfig {
            num_inputs: 4,
            num_ops: 6,
            multipliers: 1,
            alus: 1,
            seed: POOL_SEED + 2 * stream,
        });
        let squares = input
            .dfg()
            .ops()
            .iter()
            .any(|op| op.inputs[0] == op.inputs[1]);
        if input.binding().num_modules() == 2 && !squares {
            pool.push(Circuit {
                name: format!("random{stream}"),
                input,
            });
        }
    }
    pool
}

pub fn run(kind: Kind, args: &Args) -> Outcome {
    let config = config(kind);
    let mut host = HostSpeed::new();
    // Set-up: the inputs and one engine (base formulation + base reduce)
    // per circuit.
    let setup_s = repeated_setup(11, 2001, 1.0, &mut host, || {
        for circuit in circuits(kind, args.seed) {
            let engine = SynthesisEngine::new(&circuit.input, &config);
            std::hint::black_box(engine.map(|e| e.max_sessions()).ok());
        }
    });
    let circuits = circuits(kind, args.seed);
    let engines: Vec<Result<SynthesisEngine, String>> = circuits
        .iter()
        .map(|c| SynthesisEngine::new(&c.input, &config).map_err(|e| e.to_string()))
        .collect();
    let sweep_all = |host: &mut HostSpeed| -> Vec<Result<Vec<_>, String>> {
        engines
            .iter()
            .map(|engine| {
                let engine = engine.as_ref().map_err(Clone::clone)?;
                sweep_chained(engine, host).map_err(|e| e.to_string())
            })
            .collect()
    };
    // The traced run needs one untraced pass to compare against.
    let seconds = if args.trace { 0.0 } else { args.seconds };
    let runs: Vec<Pass<Vec<Result<Vec<SweepOutcome>, String>>>> =
        passes(seconds, &mut host, sweep_all)
            .into_iter()
            .map(|pass| Pass {
                result: (pass.result.into_iter())
                    .map(|sweep| sweep.map(|sweep| normalise(sweep, &host)))
                    .collect(),
                wall: pass.wall,
                slowdown: pass.slowdown,
            })
            .collect();

    let mut checks = Checks::default();
    let mut attempted = 0;
    let mut rows = Vec::new();
    for (circuit, result) in circuits.iter().zip(&runs[0].result) {
        attempted += circuit.input.binding().num_modules() as u64;
        match result {
            Err(e) => checks.fail(&circuit.name, e),
            Ok(outcomes) => check_sweep(kind, circuit, &config, outcomes, &mut checks, &mut rows),
        }
    }
    let digest = digest(&rows);
    for (i, pass) in runs.iter().enumerate().skip(1) {
        let again: Vec<Row> = circuits
            .iter()
            .zip(&pass.result)
            .filter_map(|(c, result)| result.as_ref().ok().map(|outcomes| (c, outcomes)))
            .flat_map(|(c, outcomes)| outcomes.iter().map(|o| Row::new(&c.name, &o.design)))
            .collect();
        if self::digest(&again) != digest {
            checks.fail_run(format!("pass {i} did not repeat pass 0"));
        }
    }

    let metrics = if args.trace {
        let untraced_wall = runs[0].wall * runs[0].slowdown;
        traced(
            &circuits,
            &config,
            &rows,
            untraced_wall,
            &mut checks,
            args.seed,
        )
    } else {
        EndToEnd {
            setup_s,
            walls: runs.iter().map(|pass| pass.wall).collect(),
            latencies: runs
                .iter()
                .flat_map(|pass| pass.result.iter().flatten())
                .flat_map(|outcomes| request_seconds(kind, outcomes))
                .collect(),
            area_sum: rows.iter().map(|r| r.area).sum(),
            optimal_rows: rows.iter().filter(|r| r.optimal).count() as u64,
        }
        .metrics()
    };
    Outcome {
        attempted,
        checks,
        metrics,
        digest,
    }
}

/// `SynthesisEngine::sweep_chained`, call for call, with the host's speed
/// sampled between search nodes. Each outcome's seconds exclude the
/// sampling; it comes with the span of host samples it ran over.
fn sweep_chained(
    engine: &SynthesisEngine,
    host: &mut HostSpeed,
) -> Result<Vec<(SweepOutcome, Range<usize>)>, CoreError> {
    let mut outcomes = Vec::with_capacity(engine.max_sessions());
    let mut previous: Option<RegisterAssignment> = None;
    for k in 1..=engine.max_sessions() {
        let (mark, sampling) = (host.mark(), host.spent_s());
        let mut outcome = engine.synthesize_observed(k, previous.as_ref(), &mut |event| {
            if matches!(event, SolveEvent::NodeMilestone { .. }) {
                host.checkpoint();
            }
        })?;
        outcome.seconds -= host.spent_s() - sampling;
        previous = Some(outcome.registers.clone());
        outcomes.push((outcome, mark..host.mark()));
    }
    Ok(outcomes)
}

/// Divides each solve's seconds by the host's slowdown over that solve.
fn normalise(sweep: Vec<(SweepOutcome, Range<usize>)>, host: &HostSpeed) -> Vec<SweepOutcome> {
    sweep
        .into_iter()
        .map(|(mut outcome, span)| {
            outcome.seconds /= host.slowdown(span);
            outcome
        })
        .collect()
}

/// The latency samples of one circuit's sweep. On `exact_random` a request
/// is one (circuit, k) solve. On `sweep_lp` it is the circuit's whole
/// sweep: its nine per-k solves span three orders of magnitude, so their
/// median would jump between rows whenever noise reorders two of them.
fn request_seconds(kind: Kind, outcomes: &[SweepOutcome]) -> Vec<f64> {
    match kind {
        Kind::SweepLp => vec![outcomes.iter().map(|o| o.seconds).sum()],
        Kind::ExactRandom => outcomes.iter().map(|o| o.seconds).collect(),
    }
}

/// Checks one circuit's sweep and appends its rows.
fn check_sweep(
    kind: Kind,
    circuit: &Circuit,
    config: &SynthesisConfig,
    outcomes: &[SweepOutcome],
    checks: &mut Checks,
    rows: &mut Vec<Row>,
) {
    let mut previous_area = None;
    for outcome in outcomes {
        let design = &outcome.design;
        let op = format!("{} k={}", circuit.name, design.sessions);
        if let Err(e) = check_design(&circuit.input, config, design) {
            checks.fail(&op, e);
        }
        if kind == Kind::ExactRandom {
            // Every exact row is proven, so area may not rise with k: the
            // k−1 design plus an idle session is feasible at k.
            checks.require(design.optimal, &op, || "not proven optimal".to_string());
            if let Some(previous) = previous_area {
                checks.require(design.area.total() <= previous, &op, || {
                    format!("area {} above the k-1 area {previous}", design.area.total())
                });
            }
        }
        previous_area = Some(design.area.total());
        rows.push(Row::new(&circuit.name, design));
    }
}

fn digest(rows: &[Row]) -> String {
    rows.iter().map(|r| r.outcome() + "\n").collect()
}

/// The traced run: the pipeline rebuilt from public calls over the same
/// circuits, checked row by row against the untraced pass, then the
/// simplex replay over every reduced model.
fn traced(
    circuits: &[Circuit],
    config: &SynthesisConfig,
    untraced: &[Row],
    untraced_wall: f64,
    checks: &mut Checks,
    seed: u64,
) -> Metrics {
    let mut layers = Layers::default();
    let mut traced_rows = Vec::new();
    for c in circuits {
        let ks = 1..=c.input.binding().num_modules();
        match trace::traced_sweep(&c.name, &c.input, config, ks, true, &mut layers) {
            Ok(rows) => traced_rows.extend(rows),
            Err(e) => checks.fail(&c.name, format!("traced run: {e}")),
        }
    }
    for (u, t) in untraced.iter().zip(&traced_rows) {
        checks.require(
            u.outcome() == t.outcome(),
            &format!("{} k={}", u.circuit, u.k),
            || {
                format!(
                    "traced `{}` differs from untraced `{}`",
                    t.outcome(),
                    u.outcome()
                )
            },
        );
    }
    if untraced.len() != traced_rows.len() {
        checks.fail_run(format!(
            "{} traced rows for {} untraced rows",
            traced_rows.len(),
            untraced.len()
        ));
    }
    let replay = trace::replay_simplex(&layers.reduced, config.solver.max_lp_pivots, seed);
    eprintln!(
        "tracing overhead: traced {:.3} s vs untraced {untraced_wall:.3} s",
        layers.wall_s
    );
    trace::per_layer(
        &layers,
        &replay,
        &ServiceLayer::default(),
        layers.wall_s - untraced_wall,
    )
}
