//! Measurement helpers: order statistics, process memory, a seeded PRNG and
//! the one-line JSON result the benchmark prints last.

use std::time::Instant;

use crate::host::HostSpeed;

/// Median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// The `q`-quantile of `values` by linear interpolation between closest
/// ranks (0 for an empty slice).
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Seconds elapsed since `start`.
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Runs `f` and returns its result with the seconds it took.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let result = f();
    (result, secs(start))
}

/// Peak resident set size of this process (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Runs `setup` repeatedly — at least `min_reps` times and until about
/// `budget_s` seconds are spent, at most `max_reps` times — and returns the
/// median seconds of one set-up, divided by the host's slowdown over them.
pub fn repeated_setup(
    min_reps: usize,
    max_reps: usize,
    budget_s: f64,
    host: &mut HostSpeed,
    mut setup: impl FnMut(),
) -> f64 {
    let start = Instant::now();
    let mark = host.mark();
    let mut samples = Vec::new();
    loop {
        host.checkpoint();
        let ((), s) = timed(&mut setup);
        samples.push(s);
        if samples.len() >= max_reps || (samples.len() >= min_reps && secs(start) >= budget_s) {
            host.sample();
            let slowdown = host.slowdown(mark..host.mark());
            eprintln!(
                "set-up: {} repetitions, median {:.6} s measured, host slowdown {slowdown:.3}",
                samples.len(),
                median(&samples)
            );
            return median(&samples) / slowdown;
        }
    }
}

/// One measured pass of a workload.
pub struct Pass<T> {
    pub result: T,
    /// Wall-clock seconds of the pass, host sampling excluded, divided by
    /// `slowdown`.
    pub wall: f64,
    /// The host slowdown over the pass; divide the pass's own timings by it.
    pub slowdown: f64,
}

/// Runs `pass` back to back for about `seconds`: always once, and another
/// time only while the previous pass would still fit. `pass` calls
/// [`HostSpeed::checkpoint`] between its units of work.
pub fn passes<T>(
    seconds: f64,
    host: &mut HostSpeed,
    mut pass: impl FnMut(&mut HostSpeed) -> T,
) -> Vec<Pass<T>> {
    let start = Instant::now();
    let mut done = Vec::new();
    loop {
        let (mark, sampling) = (host.mark(), host.spent_s());
        let (result, elapsed) = timed(|| pass(host));
        let raw = elapsed - (host.spent_s() - sampling);
        host.sample();
        let slowdown = host.slowdown(mark..host.mark());
        eprintln!("pass: {raw:.3} s measured, host slowdown {slowdown:.3}");
        done.push(Pass {
            result,
            wall: raw / slowdown,
            slowdown,
        });
        if secs(start) + raw > seconds {
            return done;
        }
    }
}

/// SplitMix64: the benchmark derives every input from `--seed` through it.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x5EED_BE4C_0000_0000)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Metrics in report order: name, value, unit.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }
}

/// The end-to-end metrics every workload reports with tracing off.
pub struct EndToEnd {
    pub setup_s: f64,
    /// Wall-clock seconds of each measured pass.
    pub walls: Vec<f64>,
    /// Seconds of every request of every pass.
    pub latencies: Vec<f64>,
    pub area_sum: u64,
    pub optimal_rows: u64,
}

impl EndToEnd {
    pub fn metrics(&self) -> Metrics {
        eprintln!(
            "{} pass(es), {} requests, wall per pass {:?}",
            self.walls.len(),
            self.latencies.len(),
            self.walls
        );
        let mut m = Metrics::default();
        m.put("setup_s", self.setup_s, "s");
        m.put("wall_s", median(&self.walls), "s");
        m.put("latency_p50_s", percentile(&self.latencies, 0.5), "s");
        m.put("latency_p90_s", percentile(&self.latencies, 0.9), "s");
        m.put("area_sum", self.area_sum as f64, "transistors");
        m.put("optimal_rows", self.optimal_rows as f64, "count");
        m.put("peak_rss_mb", peak_rss_mb(), "MiB");
        m
    }
}

/// The single JSON object the benchmark prints as its last line.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let fields: Vec<String> = metrics
        .0
        .iter()
        .map(|(name, value, unit)| {
            // `{:?}` prints every digit an f64 needs to round-trip; JSON has
            // no spelling for non-finite values.
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
    }

    #[test]
    fn result_line_is_one_json_object() {
        let mut metrics = Metrics::default();
        metrics.put("wall_s", 1.5, "s");
        assert_eq!(
            result_line(true, 3, 0, &metrics),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"wall_s\": {\"value\": 1.5, \"unit\": \"s\"}}}"
        );
    }
}
