//! Host-speed calibration.
//!
//! The benchmark runs on shared virtual machines whose speed drifts by tens
//! of percent over seconds to minutes while the program's work stays the
//! same: a neighbour on the same physical core or cache slows every
//! instruction, the process's CPU time rises with its wall-clock, and the
//! two vCPUs can run at different speeds at once. So every run times a
//! fixed unit of reference work, compiled into the benchmark and
//! independent of the program under test, at short intervals while the
//! workload runs, and divides each measured time by the host's mean
//! slowdown over it, relative to the reference machine. A change to the
//! program moves the workload's times and leaves the reference work alone;
//! a change of host speed moves both, and cancels.

use std::hint::black_box;
use std::ops::Range;
use std::time::Instant;

use crate::measure::{median, secs};

/// Seconds one [`reference_work`] takes on the reference machine (a
/// 2-vCPU Intel Xeon VM at 2.1 GHz) when its host is quiet. Times are
/// reported in seconds of that machine.
const REFERENCE_S: f64 = 0.004;

/// Calls of [`reference_work`] per sample; the sample is their median, so
/// an interrupt that lands on one call does not move it.
const CALLS_PER_SAMPLE: usize = 5;

/// Workload seconds between two samples.
const INTERVAL_S: f64 = 0.25;

/// One fixed unit of reference work, about 4 ms on the reference machine:
/// twelve sorts of 8192 pseudo-random keys, compare-heavy code with
/// data-dependent branches. Of the kernels tried against repeated solver
/// work (sparse products, dense elimination, sorting, ordered maps,
/// pointer chases), sorting tracked the solver's time best in both a calm
/// and a noisy hour of the reference machine. Returns a checksum so nothing
/// is optimised away.
pub fn reference_work() -> usize {
    let mut state = 0x0BAD_F00D_1234_5678_u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut rising = 0;
    for _ in 0..12 {
        let mut keys: Vec<f64> = (0..8192).map(|_| next()).collect();
        keys.sort_unstable_by(f64::total_cmp);
        rising += keys.windows(2).filter(|w| w[1] > w[0]).count();
    }
    rising
}

/// Samples of the host's slowdown over one run.
#[derive(Debug)]
pub struct HostSpeed {
    /// Slowdown samples: seconds of one [`reference_work`] over
    /// [`REFERENCE_S`].
    samples: Vec<f64>,
    /// Seconds spent sampling, which callers subtract from what they time.
    spent_s: f64,
    last: Instant,
}

impl HostSpeed {
    /// Warms the reference work up and takes a first sample.
    pub fn new() -> Self {
        black_box(reference_work());
        let mut host = Self {
            samples: Vec::new(),
            spent_s: 0.0,
            last: Instant::now(),
        };
        host.sample();
        host
    }

    /// Takes one slowdown sample now.
    pub fn sample(&mut self) {
        let start = Instant::now();
        let calls: Vec<f64> = (0..CALLS_PER_SAMPLE)
            .map(|_| {
                let call = Instant::now();
                black_box(reference_work());
                secs(call)
            })
            .collect();
        self.samples.push(median(&calls) / REFERENCE_S);
        self.spent_s += secs(start);
        self.last = Instant::now();
    }

    /// Takes a sample if the workload ran for [`INTERVAL_S`] since the last
    /// one. Call it between units of work.
    pub fn checkpoint(&mut self) {
        if secs(self.last) >= INTERVAL_S {
            self.sample();
        }
    }

    /// Samples taken so far.
    pub fn mark(&self) -> usize {
        self.samples.len()
    }

    /// Seconds spent sampling so far.
    pub fn spent_s(&self) -> f64 {
        self.spent_s
    }

    /// The mean slowdown over a stretch of work that began when `span.start`
    /// samples had been taken and ended when `span.end` had: the samples
    /// taken during it, the last one before it and the first one after it.
    /// It is the factor to divide the stretch's times by. A mean, not a
    /// median, because the host switches between fast and slow states and
    /// the workload pays for the time it spends in each.
    pub fn slowdown(&self, span: Range<usize>) -> f64 {
        let last = self.samples.len() - 1;
        let samples = &self.samples[span.start.saturating_sub(1).min(last)..=span.end.min(last)];
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_work_is_deterministic() {
        assert_eq!(reference_work(), reference_work());
    }

    #[test]
    fn slowdown_averages_the_samples_around_a_span() {
        let mut host = HostSpeed::new();
        let start = host.mark();
        host.sample();
        host.sample();
        assert_eq!(host.mark(), start + 2);
        assert!(host.spent_s() > 0.0);
        let all = host.samples.iter().sum::<f64>() / 3.0;
        assert_eq!(host.slowdown(start..host.mark()), all);
        // A span with no sample inside it averages its two neighbours.
        let neighbours = (host.samples[1] + host.samples[2]) / 2.0;
        assert_eq!(host.slowdown(2..2), neighbours);
    }
}
