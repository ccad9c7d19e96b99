//! The traced run: the engine's per-k pipeline rebuilt from public calls,
//! with a wall-clock span around each layer and the solver's live event
//! stream timestamped, so per-layer numbers are measured from outside the
//! program. [`traced_sweep`] mirrors `SynthesisEngine::new`,
//! `synthesize_seeded` and `sweep_chained` call for call; the benchmark
//! checks that it reproduces the untraced objective and node count of every
//! row.

use std::ops::RangeInclusive;
use std::time::Instant;

use advbist::core::formulation::BistFormulation;
use advbist::core::{extract, SynthesisConfig};
use advbist::datapath::validate::validate_design;
use advbist::dfg::allocate::RegisterAssignment;
use advbist::dfg::lifetime::LifetimeTable;
use advbist::dfg::SynthesisInput;
use advbist::ilp::propagate::Domains;
use advbist::ilp::reduce::{self, reduce_prefix, ReduceOptions};
use advbist::ilp::simplex::{resolve_with_basis, solve_lp_basis};
use advbist::ilp::{CutCounts, LpStatus, Model, Sense, SolveEvent, SparseModel, Status};
use advbist::rtl::{validate_simulated, SimConfig};

use crate::check::Row;
use crate::measure::{percentile, secs, timed, Metrics, Rng};

/// Per-layer totals of a traced run.
#[derive(Debug, Default)]
pub struct Layers {
    /// Seconds of the per-k work the untraced engine also does inside its
    /// timed region (base formulation and reduce are set-up there).
    pub wall_s: f64,
    formulation_base_s: f64,
    formulation_delta_s: f64,
    formulation_rows: u64,
    formulation_vars: u64,
    reduce_base_s: f64,
    reduce_delta_s: f64,
    reduce_rows_out: u64,
    reduce_vars_out: u64,
    reduce_nnz_out: u64,
    root_s: f64,
    tree_s: f64,
    node_ms: Vec<f64>,
    solves: u64,
    nodes: u64,
    nodes_to_best: u64,
    gap_sum: f64,
    lp_solves: u64,
    lp_pivots: u64,
    primal_pivots: u64,
    dual_pivots: u64,
    bound_flips: u64,
    bland_pivots: u64,
    warm_lp_solves: u64,
    kernel_refactorizations: u64,
    strong_branch_solves: u64,
    propagations: u64,
    rc_fixed_bounds: u64,
    cuts: CutCounts,
    extract_s: f64,
    rtl_s: f64,
    /// Every reduced per-k model, for the simplex replay.
    pub reduced: Vec<Model>,
}

/// Runs one circuit's k-range through the pipeline with a span per layer.
/// With `chained`, each k−1 register assignment is handed to the next solve
/// as `sweep_chained` does; without, every k is solved on its own as
/// `synthesize_seeded(k, None)` does. Returns one row per k and prints the
/// circuit's headline numbers on stderr.
pub fn traced_sweep(
    name: &str,
    input: &SynthesisInput,
    config: &SynthesisConfig,
    ks: RangeInclusive<usize>,
    chained: bool,
    layers: &mut Layers,
) -> Result<Vec<Row>, String> {
    let before = (
        layers.wall_s,
        layers.nodes,
        layers.lp_pivots,
        layers.root_s,
        layers.tree_s,
    );

    let (base, s) = timed(|| {
        BistFormulation::new(input, config).map(|mut base| {
            base.add_interconnect();
            base.add_mux_sizing();
            base
        })
    });
    let base = base.map_err(|e| e.to_string())?;
    layers.formulation_base_s += s;
    let (reduced_base, s) = timed(|| {
        reduce_prefix(
            &base.model,
            base.model.num_constraints(),
            base.model.num_vars(),
            &ReduceOptions::base(),
        )
    });
    layers.reduce_base_s += s;

    let mut previous: Option<RegisterAssignment> = None;
    let mut rows = Vec::new();
    for k in ks {
        let start = Instant::now();
        let mut formulation = base.clone();
        formulation.add_bist(k).map_err(|e| e.to_string())?;
        formulation.set_bist_objective();
        let mut solver = config.solver.clone();
        if config.warm_start {
            if let Some(values) = formulation.baseline_warm_values() {
                solver.initial_solutions.push(values);
            }
        }
        if let Some(previous) = previous.as_ref().filter(|_| chained) {
            if let Some(values) = formulation.warm_values_for_assignment(previous) {
                solver.initial_solutions.push(values);
                solver.eager_tree_cuts = true;
            }
        }
        let reduce_start = Instant::now();
        layers.formulation_delta_s += (reduce_start - start).as_secs_f64();
        layers.formulation_rows += formulation.model.num_constraints() as u64;
        layers.formulation_vars += formulation.model.num_vars() as u64;

        let extended = reduced_base
            .extend(&formulation.model)
            .map_err(|e| e.to_string())?;
        let full = extended.compose(reduce::reduce(&extended.model, &ReduceOptions::full()));
        let solve_start = Instant::now();
        layers.reduce_delta_s += (solve_start - reduce_start).as_secs_f64();

        let mut first_node: Option<Instant> = None;
        let mut last_node: Option<Instant> = None;
        let mut node_ms = Vec::new();
        let mut observer = |event: &SolveEvent| {
            if let SolveEvent::NodeMilestone { .. } = event {
                let now = Instant::now();
                match last_node {
                    Some(previous) => node_ms.push((now - previous).as_secs_f64() * 1e3),
                    None => first_node = Some(now),
                }
                last_node = Some(now);
            }
        };
        let solution = reduce::solve_reduced_with_events(
            &formulation.model,
            &full,
            &solver,
            Some(&mut observer),
        )
        .map_err(|e| e.to_string())?;
        let extract_start = Instant::now();
        let first_node = first_node.unwrap_or(extract_start);
        layers.root_s += (first_node - solve_start).as_secs_f64();
        layers.tree_s += (extract_start - first_node).as_secs_f64();

        let optimal = match solution.status() {
            Status::Optimal => true,
            Status::Feasible => false,
            Status::Interrupted if solution.is_feasible() => false,
            other => return Err(format!("k={k}: solve ended {other:?} without a design")),
        };
        let registers = extract::register_assignment(&formulation, &solution);
        let mut datapath = extract::datapath(&formulation, &solution).map_err(|e| e.to_string())?;
        let plan = extract::test_plan(&formulation, &solution);
        plan.apply_register_kinds(&mut datapath);
        let lifetimes =
            LifetimeTable::with_timing(input, config.input_timing).map_err(|e| e.to_string())?;
        validate_design(&datapath, &plan, input, &lifetimes).map_err(|e| e.to_string())?;
        let area = datapath.area(&config.cost).total();
        let rtl_start = Instant::now();
        layers.extract_s += (rtl_start - extract_start).as_secs_f64();
        validate_simulated(&datapath, &plan, &SimConfig::default()).map_err(|e| e.to_string())?;
        let rtl_s = secs(rtl_start);
        layers.rtl_s += rtl_s;
        // The engine simulates the RTL inside its solve only when asked to;
        // elsewhere the benchmark runs it as an output check.
        layers.wall_s +=
            (rtl_start - start).as_secs_f64() + if config.rtl_validation { rtl_s } else { 0.0 };

        let stats = solution.stats();
        layers.solves += 1;
        layers.nodes += stats.nodes;
        layers.nodes_to_best += stats.nodes_to_best().unwrap_or(0);
        layers.gap_sum += stats.gap;
        layers.lp_solves += stats.lp_solves;
        layers.lp_pivots += stats.lp_pivots;
        layers.primal_pivots += stats.lp_primal_pivots;
        layers.dual_pivots += stats.lp_dual_pivots;
        layers.bound_flips += stats.lp_bound_flips;
        layers.bland_pivots += stats.bland_pivots;
        layers.warm_lp_solves += stats.warm_lp_solves;
        layers.kernel_refactorizations += stats.lp_basis_refactorizations;
        layers.strong_branch_solves += stats.strong_branch_solves;
        layers.propagations += stats.propagations;
        layers.rc_fixed_bounds += stats.rc_fixed_bounds;
        let cuts = stats.cuts_emitted;
        layers.cuts.cover += cuts.cover;
        layers.cuts.clique += cuts.clique;
        layers.cuts.gomory += cuts.gomory;
        layers.cuts.lifted_cover += cuts.lifted_cover;
        layers.cuts.nogood += cuts.nogood;
        layers.node_ms.extend(node_ms);
        layers.reduce_rows_out += full.model.num_constraints() as u64;
        layers.reduce_vars_out += full.model.num_vars() as u64;
        layers.reduce_nnz_out += SparseModel::from_model(&full.model).num_nonzeros() as u64;
        rows.push(Row {
            circuit: name.to_string(),
            k,
            objective: solution.objective(),
            area,
            optimal,
            nodes: stats.nodes,
            pivots: stats.lp_pivots,
        });
        layers.reduced.push(full.model);
        previous = Some(registers);
    }

    let wall = layers.wall_s - before.0;
    let nodes = layers.nodes - before.1;
    let pivots = layers.lp_pivots - before.2;
    let root = layers.root_s - before.3;
    let tree = layers.tree_s - before.4;
    let solve = (root + tree).max(f64::MIN_POSITIVE);
    eprintln!(
        "traced {name}: sweep {wall:.3} s, {nodes} nodes, {pivots} pivots, {:.1} us/pivot, root {:.1} % / tree {:.1} % of solve time",
        1e6 * solve / pivots.max(1) as f64,
        100.0 * root / solve,
        100.0 * tree / solve,
    );
    Ok(rows)
}

/// Kernel totals of the simplex replay.
#[derive(Debug, Default)]
pub struct Replay {
    cold_s: f64,
    cold_pivots: u64,
    warm_s: f64,
    /// Pivots plus bound flips of the warm calls: the work the warm budget
    /// charges.
    warm_iterations: u64,
    warm_calls: u64,
    bound_flips: u64,
    budget_hits: u64,
}

/// Branching steps of the seeded warm descent on each model.
const DESCENT_STEPS: usize = 24;

/// Replays the LP kernel on every reduced model: one cold root solve
/// (`solve_lp_basis`), then a seeded descent that tightens one fractional
/// integer variable per step and re-solves warm (`resolve_with_basis`)
/// under the solver's own warm budget, `min(max_lp_pivots, 128 + rows/4)`.
/// A warm call that ends at that budget counts as a budget hit and falls
/// back to a cold solve, as the node loop does; uncapped, such a call can
/// keep flipping bounds for a long time without converging.
pub fn replay_simplex(models: &[Model], max_lp_pivots: u64, seed: u64) -> Replay {
    let mut rng = Rng::new(seed);
    let mut replay = Replay::default();
    for model in models {
        let matrix = SparseModel::from_model(model);
        let sense = match model.sense() {
            Sense::Minimize => 1.0,
            Sense::Maximize => -1.0,
        };
        let objective: Vec<f64> = model.vars().iter().map(|v| sense * v.objective).collect();
        let constant = sense * model.objective().offset();
        let mut domains = Domains::from_model(model);
        let warm_budget = max_lp_pivots.min(128 + matrix.num_rows() as u64 / 4);

        let ((mut lp, mut basis), s) =
            timed(|| solve_lp_basis(&matrix, &objective, constant, &domains, max_lp_pivots));
        replay.cold_s += s;
        replay.cold_pivots += lp.pivots;
        for _ in 0..DESCENT_STEPS {
            let (Some(current), LpStatus::Optimal) = (basis.as_ref(), lp.status) else {
                break;
            };
            let fractional: Vec<usize> = (0..domains.len())
                .filter(|&j| {
                    domains.is_integral(j)
                        && !domains.is_fixed(j)
                        && (lp.values[j] - lp.values[j].round()).abs() > 1e-6
                })
                .collect();
            if fractional.is_empty() {
                break;
            }
            let j = fractional[rng.below(fractional.len())];
            if rng.below(2) == 0 {
                domains.tighten_upper(j, lp.values[j].floor());
            } else {
                domains.tighten_lower(j, lp.values[j].ceil());
            }
            let (warm, s) = timed(|| {
                resolve_with_basis(
                    &matrix,
                    &objective,
                    constant,
                    current,
                    &domains,
                    warm_budget,
                )
            });
            let Some((warm_lp, next)) = warm else {
                break;
            };
            replay.warm_s += s;
            replay.warm_calls += 1;
            replay.warm_iterations += warm_lp.pivots + warm_lp.bound_flips;
            replay.bound_flips += warm_lp.bound_flips;
            if matches!(
                warm_lp.status,
                LpStatus::IterationLimit | LpStatus::Unbounded
            ) {
                replay.budget_hits += 1;
                let ((cold_lp, cold_basis), s) = timed(|| {
                    solve_lp_basis(&matrix, &objective, constant, &domains, max_lp_pivots)
                });
                replay.cold_s += s;
                replay.cold_pivots += cold_lp.pivots;
                lp = cold_lp;
                basis = cold_basis;
            } else {
                lp = warm_lp;
                basis = next;
            }
        }
    }
    replay
}

/// Counters of the service layer; zero on workloads that bypass it.
#[derive(Debug, Default)]
pub struct ServiceLayer {
    pub cache_hits: u64,
    pub cache_misses: u64,
    /// Job seconds minus the seconds of the rows they returned.
    pub overhead_s: f64,
    pub snapshots_captured: u64,
    /// Nodes resumed jobs did not explore again thanks to a snapshot.
    pub resumed_nodes_saved: u64,
}

/// The per-layer metrics of a traced run, in the order BENCHMARK.json lists
/// them.
pub fn per_layer(
    layers: &Layers,
    replay: &Replay,
    service: &ServiceLayer,
    trace_overhead_s: f64,
) -> Metrics {
    let per = |num: f64, den: u64| if den == 0 { 0.0 } else { num / den as f64 };
    let l = layers;
    let mut m = Metrics::default();
    m.put("formulation.base_s", l.formulation_base_s, "s");
    m.put("formulation.delta_s", l.formulation_delta_s, "s");
    m.put("formulation.rows", l.formulation_rows as f64, "count");
    m.put("formulation.vars", l.formulation_vars as f64, "count");
    m.put("reduce.base_s", l.reduce_base_s, "s");
    m.put("reduce.delta_s", l.reduce_delta_s, "s");
    m.put("reduce.rows_out", l.reduce_rows_out as f64, "count");
    m.put("reduce.vars_out", l.reduce_vars_out as f64, "count");
    m.put("reduce.nnz_out", l.reduce_nnz_out as f64, "count");
    m.put("solver.root_s", l.root_s, "s");
    m.put("solver.tree_s", l.tree_s, "s");
    m.put("solver.node_ms_p50", percentile(&l.node_ms, 0.5), "ms");
    m.put("solver.node_ms_p99", percentile(&l.node_ms, 0.99), "ms");
    m.put("solver.nodes", l.nodes as f64, "count");
    m.put("solver.nodes_to_best", l.nodes_to_best as f64, "count");
    m.put("solver.gap_mean", per(l.gap_sum, l.solves), "ratio");
    m.put("solver.lp_solves", l.lp_solves as f64, "count");
    m.put("solver.lp_pivots", l.lp_pivots as f64, "count");
    m.put("solver.primal_pivots", l.primal_pivots as f64, "count");
    m.put("solver.dual_pivots", l.dual_pivots as f64, "count");
    m.put("solver.bound_flips", l.bound_flips as f64, "count");
    m.put("solver.bland_pivots", l.bland_pivots as f64, "count");
    m.put("solver.warm_lp_solves", l.warm_lp_solves as f64, "count");
    m.put(
        "solver.cold_lp_solves",
        (l.lp_solves - l.warm_lp_solves) as f64,
        "count",
    );
    m.put(
        "solver.warm_ratio",
        per(l.warm_lp_solves as f64, l.lp_solves),
        "ratio",
    );
    m.put(
        "solver.us_per_pivot",
        per(1e6 * (l.root_s + l.tree_s), l.lp_pivots),
        "us",
    );
    m.put(
        "solver.kernel_refactorizations",
        l.kernel_refactorizations as f64,
        "count",
    );
    m.put(
        "solver.strong_branch_solves",
        l.strong_branch_solves as f64,
        "count",
    );
    m.put("solver.propagations", l.propagations as f64, "count");
    m.put("solver.rc_fixed_bounds", l.rc_fixed_bounds as f64, "count");
    m.put("solver.cuts_emitted.cover", l.cuts.cover as f64, "count");
    m.put("solver.cuts_emitted.clique", l.cuts.clique as f64, "count");
    m.put("solver.cuts_emitted.gomory", l.cuts.gomory as f64, "count");
    m.put(
        "solver.cuts_emitted.lifted_cover",
        l.cuts.lifted_cover as f64,
        "count",
    );
    m.put("solver.cuts_emitted.nogood", l.cuts.nogood as f64, "count");
    m.put(
        "simplex.cold_us_per_pivot",
        per(1e6 * replay.cold_s, replay.cold_pivots),
        "us",
    );
    m.put(
        "simplex.warm_us_per_pivot",
        per(1e6 * replay.warm_s, replay.warm_iterations),
        "us",
    );
    m.put(
        "simplex.warm_budget_hits",
        replay.budget_hits as f64,
        "count",
    );
    m.put(
        "simplex.flips_per_warm",
        per(replay.bound_flips as f64, replay.warm_calls),
        "count",
    );
    m.put("extract.s", l.extract_s, "s");
    m.put("rtl.validate_s", l.rtl_s, "s");
    m.put("service.cache_hits", service.cache_hits as f64, "count");
    m.put("service.cache_misses", service.cache_misses as f64, "count");
    m.put(
        "service.hit_rate",
        per(
            service.cache_hits as f64,
            service.cache_hits + service.cache_misses,
        ),
        "ratio",
    );
    m.put("service.overhead_s", service.overhead_s, "s");
    m.put(
        "service.snapshots_captured",
        service.snapshots_captured as f64,
        "count",
    );
    m.put(
        "service.resumed_nodes_saved",
        service.resumed_nodes_saved as f64,
        "count",
    );
    m.put("trace.overhead_s", trace_overhead_s, "s");
    m
}
