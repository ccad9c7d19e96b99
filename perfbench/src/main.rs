//! The advbist benchmark: three seeded workloads over the synthesis
//! pipeline, end-to-end metrics with tracing off, and per-layer metrics
//! from a separate traced run. See `README.md` in this directory for the
//! metric → layer → workload map.
//!
//! ```text
//! perfbench --workload <sweep_lp|exact_random|service_mix> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Diagnostics go to stderr. The last line of stdout is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`.

mod check;
mod host;
mod measure;
mod service_mix;
mod sweep;
mod trace;

use check::Checks;
use measure::{result_line, Metrics};

const USAGE: &str = "usage: perfbench --workload <sweep_lp|exact_random|service_mix> --seed <n> --seconds <s> --trace <0|1>";

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    /// How long to keep running passes of the workload.
    pub seconds: f64,
    /// Report per-layer metrics from a traced run instead of end-to-end ones.
    pub trace: bool,
}

/// What one workload run hands back to `main`.
pub struct Outcome {
    /// Operations attempted: solves on the sweep workloads, jobs on the
    /// service mix.
    pub attempted: u64,
    pub checks: Checks,
    pub metrics: Metrics,
    /// The run's deterministic record, for the determinism guard.
    pub digest: String,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seed {value}: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!("--seconds {value}: expected a non-negative number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !["sweep_lp", "exact_random", "service_mix"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace,
    })
}

fn main() {
    let args = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{USAGE}");
        std::process::exit(2)
    });
    let mut outcome = match args.workload.as_str() {
        "sweep_lp" => sweep::run(sweep::Kind::SweepLp, &args),
        "exact_random" => sweep::run(sweep::Kind::ExactRandom, &args),
        _ => service_mix::run(&args),
    };
    if let Err(e) = check::determinism_guard(&args.workload, args.seed, &outcome.digest) {
        outcome.checks.fail_run(e);
    }
    let failed = outcome.checks.failed_ops().min(outcome.attempted);
    eprintln!(
        "{} seed {}: {} operations attempted, {failed} failed",
        args.workload, args.seed, outcome.attempted
    );
    println!(
        "{}",
        result_line(
            outcome.checks.all_passed(),
            outcome.attempted,
            failed,
            &outcome.metrics
        )
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_a_full_command_line() {
        let args = parse("--workload service_mix --seed 7 --seconds 20 --trace 1").unwrap();
        assert_eq!(args.workload, "service_mix");
        assert_eq!(args.seed, 7);
        assert_eq!(args.seconds, 20.0);
        assert!(args.trace);
    }

    #[test]
    fn rejects_bad_arguments() {
        assert!(parse("--workload nope --seed 1 --seconds 1").is_err());
        assert!(parse("--workload sweep_lp --seed x --seconds 1").is_err());
        assert!(parse("--workload sweep_lp --seed 1 --seconds -1").is_err());
        assert!(parse("--workload sweep_lp --seed 1 --seconds 1 --trace 2").is_err());
        assert!(parse("--workload sweep_lp --seed 1").is_err());
    }
}
