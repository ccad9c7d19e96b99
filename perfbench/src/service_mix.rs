//! `service_mix`: a closed loop of job batches through `advbist::service`.
//!
//! Twelve rounds, each one `JobService` batch on one worker, all sharing
//! one `SolveCache`; a round is submitted once the previous one has
//! answered. Jobs run `SynthesisConfig::budgeted(Budget::nodes(3000))` over
//! figure1 and the six paper circuits.
//!
//! Every (circuit, k) key gets exactly one full-budget solve per pass, dealt
//! to rounds so that each round carries a similar share of solve work; some
//! keys first run at half budget with snapshots on and are resumed in the
//! next round (writes). These solving jobs are the same for every seed. The
//! seed draws the cache-served traffic around them: which earlier jobs are
//! resubmitted verbatim (reads), which k-subranges of solved circuits are
//! asked for, and their order. A key solved in a round is touched by no
//! other job of that round, and cache-served jobs only touch keys whose
//! rows earlier rounds cached, so cache hits and misses do not depend on
//! thread timing.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet};
use std::ops::{Range, RangeInclusive};
use std::sync::Arc;

use advbist::core::{SynthesisConfig, SynthesisEngine};
use advbist::dfg::{benchmarks, SynthesisInput};
use advbist::service::{JobReport, JobRow, JobService, SolveCache, SynthesisJob};
use advbist::Budget;

use crate::check::Checks;
use crate::host::HostSpeed;
use crate::measure::{median, passes, repeated_setup, timed, EndToEnd, Metrics, Pass, Rng};
use crate::trace::{self, Layers, ServiceLayer};
use crate::{Args, Outcome};

/// Per-solve node budget of a full job; writes run at half of it.
const NODES: u64 = 3000;
const ROUNDS: usize = 12;
const JOBS_PER_ROUND: usize = 10;
const READS_PER_ROUND: usize = 4;
/// One worker: the reference machine's two vCPUs are shared with other
/// tenants, and a second worker measured their load more than the service.
const WORKERS: usize = 1;
/// Large enough that nothing is evicted: which entry an eviction picks
/// would depend on which worker stored first.
const CACHE_MB: u64 = 512;

/// A (circuit index, k) pair: one cacheable solve.
type Key = (usize, usize);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// The key's full-budget solve.
    Fresh,
    /// Half budget with snapshots on; the next round resumes it.
    Write,
    /// The full-budget resubmission of a write, resumed from its snapshot.
    Resume,
    /// A verbatim resubmission of an earlier full-budget job.
    Read,
    /// A new k-subrange over keys earlier rounds solved.
    Range,
}

#[derive(Debug, Clone)]
struct Planned {
    kind: Kind,
    circuit: usize,
    ks: RangeInclusive<usize>,
}

impl Planned {
    fn keys(&self) -> impl Iterator<Item = Key> + '_ {
        self.ks.clone().map(move |k| (self.circuit, k))
    }

    fn budget(&self) -> Budget {
        match self.kind {
            Kind::Write => Budget {
                snapshot: Some(true),
                ..Budget::nodes(NODES / 2)
            },
            _ => Budget::nodes(NODES),
        }
    }
}

fn circuits() -> Vec<(&'static str, SynthesisInput)> {
    let mut circuits = vec![("figure1", benchmarks::figure1())];
    circuits.extend(benchmarks::all());
    circuits
}

/// The rounds of jobs for `seed`.
fn plan(seed: u64, circuits: &[(&str, SynthesisInput)]) -> Vec<Vec<Planned>> {
    let mut rng = Rng::new(seed);
    let sessions: Vec<usize> = circuits
        .iter()
        .map(|(_, input)| input.binding().num_modules())
        .collect();
    let mut keys: Vec<Key> = (0..circuits.len())
        .flat_map(|c| (1..=sessions[c]).map(move |k| (c, k)))
        .collect();
    // Deal the keys' full solves to the first ROUNDS - 1 rounds in snake
    // order of a size proxy (operations × k), so every round gets a similar
    // share of the solve work.
    keys.sort_by_key(|&(c, k)| (Reverse(circuits[c].1.dfg().num_ops() * k), c, k));
    let fresh_rounds = ROUNDS - 1;
    let home = |i: usize| {
        let pos = i % fresh_rounds;
        if (i / fresh_rounds).is_multiple_of(2) {
            pos
        } else {
            fresh_rounds - 1 - pos
        }
    };
    // Writes: the larger key of every pair of keys adjacent in size (keys in
    // round 0 have no earlier round to write in). They are the same for
    // every seed, so the solving jobs, which set the pass's wall-clock and
    // its 90th-percentile latency, are too.
    let writes: BTreeSet<Key> = (0..keys.len())
        .filter(|&i| home(i) > 0)
        .map(|i| keys[i])
        .step_by(2)
        .collect();

    let mut rounds: Vec<Vec<Planned>> = vec![Vec::new(); ROUNDS];
    for (i, &(circuit, k)) in keys.iter().enumerate() {
        let job = |kind| Planned {
            kind,
            circuit,
            ks: k..=k,
        };
        let r = home(i);
        if writes.contains(&(circuit, k)) {
            rounds[r - 1].push(job(Kind::Write));
            rounds[r].push(job(Kind::Resume));
        } else {
            rounds[r].push(job(Kind::Fresh));
        }
    }

    // Reads and ranges take their circuits in turn, skipping circuits with
    // nothing cached yet, so the circuit mix of the cheap traffic is the same
    // for every seed; the seed picks the job or k-subrange within a circuit.
    let mut turn = 0;
    let mut next_circuit = || {
        turn += 1;
        turn % circuits.len()
    };
    let mut answered: Vec<Planned> = Vec::new();
    let mut solved: BTreeSet<Key> = BTreeSet::new();
    // Cache-served jobs only touch keys solved in earlier rounds, so they
    // may share keys with each other: two hits on one cached row cannot
    // race. That fills every round to the same size whatever the seed.
    for round in &mut rounds {
        let mut reads = 0;
        while reads < READS_PER_ROUND && !answered.is_empty() {
            let circuit = next_circuit();
            let candidates: Vec<&Planned> = answered
                .iter()
                .filter(|job| job.circuit == circuit)
                .collect();
            if !candidates.is_empty() {
                let job = candidates[rng.below(candidates.len())];
                round.push(Planned {
                    kind: Kind::Read,
                    ..job.clone()
                });
                reads += 1;
            }
        }
        while round.len() < JOBS_PER_ROUND && !solved.is_empty() {
            let circuit = next_circuit();
            let n = sessions[circuit];
            let spans: Vec<RangeInclusive<usize>> = (1..=n)
                .flat_map(|first| (first..=n).map(move |last| first..=last))
                .filter(|ks| ks.clone().all(|k| solved.contains(&(circuit, k))))
                .collect();
            if !spans.is_empty() {
                let ks = spans[rng.below(spans.len())].clone();
                round.push(Planned {
                    kind: Kind::Range,
                    circuit,
                    ks,
                });
            }
        }
        // Solving jobs go first, largest first, so two workers stay balanced
        // whatever the seed; the seed orders the cache-served jobs after them.
        let solving = round
            .iter()
            .filter(|job| matches!(job.kind, Kind::Fresh | Kind::Write | Kind::Resume))
            .count();
        rng.shuffle(&mut round[solving..]);
        // A resumed solve that stops at its node budget again leaves a
        // snapshot in the cache, not a row, so replaying its key would
        // resume once more; reads and ranges stay on keys with cached rows,
        // which keeps every cheap request the same kind of work.
        for job in round
            .iter()
            .filter(|job| matches!(job.kind, Kind::Fresh | Kind::Read | Kind::Range))
        {
            solved.extend(job.keys());
            answered.push(job.clone());
        }
    }
    rounds
}

fn job_name(round: usize, job: &Planned, circuits: &[(&str, SynthesisInput)]) -> String {
    format!(
        "round{round} {:?} {} k={}..={}",
        job.kind,
        circuits[job.circuit].0,
        job.ks.start(),
        job.ks.end()
    )
}

/// The reports of one pass, round by round, with each round's wall-clock
/// seconds and the span of host samples it ran over.
struct Rounds {
    reports: Vec<Vec<JobReport>>,
    seconds: Vec<f64>,
    spans: Vec<Range<usize>>,
}

impl Rounds {
    /// The host's slowdown over each round.
    fn slowdowns<'a>(&'a self, host: &'a HostSpeed) -> impl Iterator<Item = f64> + 'a {
        self.spans.iter().map(|span| host.slowdown(span.clone()))
    }
}

/// One pass: every round submitted as one batch, answered before the next.
fn service_pass(
    plan: &[Vec<Planned>],
    circuits: &[(&str, SynthesisInput)],
    config: &SynthesisConfig,
    host: &mut HostSpeed,
) -> Rounds {
    let cache = Arc::new(SolveCache::new(CACHE_MB));
    let mut rounds = Rounds {
        reports: Vec::new(),
        seconds: Vec::new(),
        spans: Vec::new(),
    };
    for (r, round) in plan.iter().enumerate() {
        host.checkpoint();
        let mark = host.mark();
        let mut service = JobService::new()
            .with_workers(WORKERS)
            .with_cache(Arc::clone(&cache));
        for job in round {
            service.submit(
                SynthesisJob::new(job_name(r, job, circuits), circuits[job.circuit].1.clone())
                    .with_config(config.clone())
                    .with_sessions(job.ks.clone())
                    .with_budget(job.budget()),
            );
        }
        let (reports, seconds) = timed(|| service.run());
        rounds.reports.push(reports);
        rounds.seconds.push(seconds);
        rounds.spans.push(mark..mark + 1);
    }
    rounds
}

fn same_result(a: &JobRow, b: &JobRow) -> bool {
    a.objective.to_bits() == b.objective.to_bits()
        && a.area == b.area
        && a.optimal == b.optimal
        && a.nodes == b.nodes
}

/// What the checks of one pass keep for later.
#[derive(Default)]
struct Checked {
    /// The first full-budget row computed for every key.
    canonical: BTreeMap<Key, JobRow>,
    /// Rows of resume jobs, to compare with uninterrupted solves.
    resumed: BTreeMap<Key, JobRow>,
    service: ServiceLayer,
}

fn check_pass(plan: &[Vec<Planned>], reports: &[Vec<JobReport>], checks: &mut Checks) -> Checked {
    let mut out = Checked::default();
    let mut writes: BTreeMap<Key, (JobRow, bool)> = BTreeMap::new();
    for (round, round_reports) in plan.iter().zip(reports) {
        for (job, report) in round.iter().zip(round_reports) {
            let op = report.name.as_str();
            let probes = job.ks.clone().count() as u64;
            checks.require(report.outcome.is_completed(), op, || {
                format!("ended {:?}", report.outcome)
            });
            checks.require(report.rows.len() as u64 == probes, op, || {
                format!("{} rows for {probes} k values", report.rows.len())
            });
            checks.require(report.cache_evictions == 0, op, || {
                format!("{} cache evictions", report.cache_evictions)
            });
            out.service.cache_hits += report.cache_hits;
            out.service.cache_misses += report.cache_misses;
            out.service.overhead_s +=
                report.seconds - report.rows.iter().map(|row| row.seconds).sum::<f64>();
            out.service.snapshots_captured += u64::from(report.snapshot_captured);
            let key = (job.circuit, *job.ks.start());
            let Some(row) = report.rows.first() else {
                continue;
            };
            match job.kind {
                Kind::Fresh => {
                    checks.require(report.cache_misses == 1, op, || {
                        format!("{} misses, expected one", report.cache_misses)
                    });
                    out.canonical.insert(key, row.clone());
                }
                Kind::Write => {
                    checks.require(row.optimal || report.snapshot_captured, op, || {
                        "stopped early without a snapshot".to_string()
                    });
                    writes.insert(key, (row.clone(), report.snapshot_captured));
                }
                Kind::Resume => {
                    if let Some((write, true)) = writes.get(&key) {
                        checks.require(report.cache_hits == 1, op, || {
                            "the snapshot was not resumed".to_string()
                        });
                        out.service.resumed_nodes_saved += write.nodes;
                    }
                    out.canonical.insert(key, row.clone());
                    out.resumed.insert(key, row.clone());
                }
                Kind::Read | Kind::Range => {
                    checks.require(
                        report.cache_hits == probes && report.cache_misses == 0,
                        op,
                        || format!("{} hits, {} misses", report.cache_hits, report.cache_misses),
                    );
                    for (k, row) in job.ks.clone().zip(&report.rows) {
                        let first = out.canonical.get(&(job.circuit, k));
                        checks.require(
                            first.is_some_and(|first| same_result(row, first)),
                            op,
                            || {
                                format!(
                                    "replay of k={k} differs from the first row {first:?}: {row:?}"
                                )
                            },
                        );
                    }
                }
            }
        }
    }
    out
}

/// The deterministic record of a pass: per job, its cache traffic and rows.
fn digest(reports: &[Vec<JobReport>]) -> String {
    let mut out = String::new();
    for report in reports.iter().flatten() {
        out += &format!(
            "{} {:?} hits={} misses={} snapshot={}",
            report.name,
            report.outcome,
            report.cache_hits,
            report.cache_misses,
            report.snapshot_captured
        );
        for row in &report.rows {
            out += &format!(
                " | k={} objective={:#018x} area={} optimal={} nodes={}",
                row.k,
                row.objective.to_bits(),
                row.area,
                row.optimal,
                row.nodes
            );
        }
        out += "\n";
    }
    out
}

/// Solves every resumed key again without interruption, outside the timed
/// region: a resumed job must reach the same objective, total node count
/// and area. Returns the uninterrupted solve seconds per key.
fn check_resumes(
    resumed: &BTreeMap<Key, JobRow>,
    circuits: &[(&str, SynthesisInput)],
    config: &SynthesisConfig,
    checks: &mut Checks,
) -> BTreeMap<Key, f64> {
    let mut seconds = BTreeMap::new();
    for (&(c, k), row) in resumed {
        let (name, input) = &circuits[c];
        let op = format!("resumed {name} k={k}");
        let reference =
            SynthesisEngine::new(input, config).and_then(|e| e.synthesize_seeded(k, None));
        match reference {
            Ok(reference) => {
                let design = &reference.design;
                checks.require(
                    design.objective.to_bits() == row.objective.to_bits()
                        && design.stats.nodes == row.nodes
                        && design.area.total() == row.area,
                    &op,
                    || {
                        format!(
                            "resumed objective {} at {} nodes, uninterrupted {} at {} nodes",
                            row.objective, row.nodes, design.objective, design.stats.nodes
                        )
                    },
                );
                seconds.insert((c, k), reference.seconds);
            }
            Err(e) => checks.fail(&op, e),
        }
    }
    seconds
}

pub fn run(args: &Args) -> Outcome {
    let config = SynthesisConfig::budgeted(Budget::nodes(NODES));
    let mut host = HostSpeed::new();
    // Set-up: the inputs, the job plan, and one engine per circuit.
    let setup_s = repeated_setup(11, 2001, 1.0, &mut host, || {
        let circuits = circuits();
        std::hint::black_box(plan(args.seed, &circuits));
        for (_, input) in &circuits {
            let engine = SynthesisEngine::new(input, &config);
            std::hint::black_box(engine.map(|e| e.max_sessions()).ok());
        }
    });
    let circuits = circuits();
    let plan = plan(args.seed, &circuits);
    let seconds = if args.trace { 0.0 } else { args.seconds };
    let runs = passes(seconds, &mut host, |host| {
        service_pass(&plan, &circuits, &config, host)
    });

    let mut checks = Checks::default();
    let first = check_pass(&plan, &runs[0].result.reports, &mut checks);
    let digest = digest(&runs[0].result.reports);
    for (i, pass) in runs.iter().enumerate().skip(1) {
        if self::digest(&pass.result.reports) != digest {
            checks.fail_run(format!("pass {i} did not repeat pass 0"));
        }
    }
    let reference_s = check_resumes(&first.resumed, &circuits, &config, &mut checks);
    let attempted = plan.iter().map(Vec::len).sum::<usize>() as u64;

    let metrics = if args.trace {
        traced(
            &circuits,
            &config,
            &first,
            &reference_s,
            &mut checks,
            args.seed,
        )
    } else {
        EndToEnd {
            setup_s,
            // Each round's seconds, and each job's, over the host's
            // slowdown during that round.
            walls: runs
                .iter()
                .map(|pass| {
                    let rounds = &pass.result;
                    rounds
                        .seconds
                        .iter()
                        .zip(rounds.slowdowns(&host))
                        .map(|(s, d)| s / d)
                        .sum()
                })
                .collect(),
            latencies: job_latencies(&runs, &host),
            // Each key once: replays are checked to be bit-identical copies.
            area_sum: first.canonical.values().map(|row| row.area).sum(),
            optimal_rows: first.canonical.values().filter(|row| row.optimal).count() as u64,
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

/// Each job's latency: its seconds over the host's slowdown during its
/// round, the median over the run's passes. Every pass submits the same
/// jobs in the same order, and the median of a job's repeats keeps one
/// unlucky solve from moving the 90th percentile, which sits on a dozen
/// solving jobs.
fn job_latencies(runs: &[Pass<Rounds>], host: &HostSpeed) -> Vec<f64> {
    let per_pass: Vec<Vec<f64>> = runs
        .iter()
        .map(|pass| {
            let rounds = &pass.result;
            rounds
                .reports
                .iter()
                .zip(rounds.slowdowns(host))
                .flat_map(|(reports, slowdown)| reports.iter().map(move |r| r.seconds / slowdown))
                .collect()
        })
        .collect();
    (0..per_pass[0].len())
        .map(|job| median(&per_pass.iter().map(|pass| pass[job]).collect::<Vec<_>>()))
        .collect()
}

/// The traced run: every key solved through the traced pipeline exactly as
/// a service job solves it, checked against the service's first row for
/// the key. Tracing overhead compares with the untraced seconds of the same
/// solves (the service row, or the uninterrupted reference for resumed
/// keys).
fn traced(
    circuits: &[(&str, SynthesisInput)],
    config: &SynthesisConfig,
    first: &Checked,
    reference_s: &BTreeMap<Key, f64>,
    checks: &mut Checks,
    seed: u64,
) -> Metrics {
    let mut layers = Layers::default();
    let mut untraced_s = 0.0;
    for (c, (name, input)) in circuits.iter().enumerate() {
        let ks = 1..=input.binding().num_modules();
        let rows = match trace::traced_sweep(name, input, config, ks, false, &mut layers) {
            Ok(rows) => rows,
            Err(e) => {
                checks.fail(name, format!("traced run: {e}"));
                continue;
            }
        };
        for row in rows {
            let key = (c, row.k);
            let op = format!("traced {name} k={}", row.k);
            let Some(service_row) = first.canonical.get(&key) else {
                checks.fail(&op, "no service row for this key");
                continue;
            };
            checks.require(
                row.objective.to_bits() == service_row.objective.to_bits()
                    && row.nodes == service_row.nodes
                    && row.area == service_row.area,
                &op,
                || format!("traced {row:?} differs from service {service_row:?}"),
            );
            untraced_s += reference_s
                .get(&key)
                .copied()
                .unwrap_or(service_row.seconds);
        }
    }
    let replay = trace::replay_simplex(&layers.reduced, config.solver.max_lp_pivots, seed);
    eprintln!(
        "tracing overhead: traced {:.3} s vs untraced {untraced_s:.3} s",
        layers.wall_s
    );
    trace::per_layer(&layers, &replay, &first.service, layers.wall_s - untraced_s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_solves_every_key_once_and_serves_only_cached_rows() {
        let circuits = circuits();
        let keys: usize = circuits
            .iter()
            .map(|(_, i)| i.binding().num_modules())
            .sum();
        for seed in 0..20 {
            let plan = plan(seed, &circuits);
            assert_eq!(plan.len(), ROUNDS);
            let mut full_solves = BTreeMap::new();
            let mut written = BTreeSet::new();
            let mut cached = BTreeSet::new();
            for (r, round) in plan.iter().enumerate() {
                assert_eq!(
                    round.len(),
                    if r == 0 { round.len() } else { JOBS_PER_ROUND }
                );
                let mut solving = BTreeSet::new();
                for job in round {
                    if matches!(job.kind, Kind::Read | Kind::Range) {
                        assert!(
                            job.keys().all(|key| cached.contains(&key)),
                            "seed {seed} round {r}: {job:?} not cached"
                        );
                    } else {
                        assert!(
                            solving.insert((job.circuit, *job.ks.start())),
                            "seed {seed} round {r}: {job:?} twice"
                        );
                    }
                    let key = (job.circuit, *job.ks.start());
                    match job.kind {
                        Kind::Fresh => *full_solves.entry(key).or_insert(0) += 1,
                        Kind::Resume => {
                            assert!(written.contains(&key), "resume before its write");
                            *full_solves.entry(key).or_insert(0) += 1;
                        }
                        Kind::Write => {
                            written.insert(key);
                        }
                        Kind::Read | Kind::Range => {}
                    }
                }
                for job in round.iter().filter(|job| job.kind == Kind::Fresh) {
                    cached.extend(job.keys());
                }
            }
            assert_eq!(full_solves.len(), keys);
            assert!(full_solves.values().all(|&n| n == 1));
            assert_eq!(written.len(), (keys - 2) / 2);
        }
    }
}
