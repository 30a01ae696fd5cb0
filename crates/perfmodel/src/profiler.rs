//! Preemption-overhead profiling (§4.2): "we profile the overhead of 50
//! runs with different inputs and use the average as an estimate of the
//! online preemption overhead."

use flep_sim_core::SimTime;

/// Accumulates preemption-overhead samples and produces the running
/// estimate the scheduler consults. Keeps a running sum, count and
/// maximum rather than the samples, so its state is O(1) however many
/// preemptions it sees.
#[derive(Debug, Clone, Default)]
pub struct OverheadProfiler {
    sum_ns: u64,
    count: u64,
    max: Option<SimTime>,
}

impl OverheadProfiler {
    /// Creates an empty profiler.
    #[must_use]
    pub fn new() -> Self {
        OverheadProfiler::default()
    }

    /// Records one measured preemption overhead.
    pub fn record(&mut self, overhead: SimTime) {
        self.sum_ns += overhead.as_ns();
        self.count += 1;
        self.max = self.max.max(Some(overhead));
    }

    /// Number of samples recorded.
    #[must_use]
    pub fn len(&self) -> usize {
        self.count as usize
    }

    /// True when no samples have been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The mean overhead, or `None` before any sample exists.
    #[must_use]
    pub fn mean(&self) -> Option<SimTime> {
        (self.count > 0).then(|| SimTime::from_ns(self.sum_ns / self.count))
    }

    /// The mean overhead, or `fallback` before any sample exists. The
    /// runtime uses the offline-profiled average as the fallback.
    #[must_use]
    pub fn mean_or(&self, fallback: SimTime) -> SimTime {
        self.mean().unwrap_or(fallback)
    }

    /// The largest sample seen, or `None` when empty; used by FFS to bound
    /// its epoch computation conservatively.
    #[must_use]
    pub fn max(&self) -> Option<SimTime> {
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_profiler_has_no_mean() {
        let p = OverheadProfiler::new();
        assert_eq!(p.mean(), None);
        assert_eq!(p.mean_or(SimTime::from_us(7)), SimTime::from_us(7));
        assert!(p.is_empty());
    }

    #[test]
    fn mean_of_samples() {
        let mut p = OverheadProfiler::new();
        p.record(SimTime::from_us(10));
        p.record(SimTime::from_us(20));
        p.record(SimTime::from_us(30));
        assert_eq!(p.mean(), Some(SimTime::from_us(20)));
        assert_eq!(p.len(), 3);
        assert_eq!(p.max(), Some(SimTime::from_us(30)));
    }

    #[test]
    fn running_totals_match_a_naive_fold() {
        for seed in 0..64 {
            let mut rng = flep_sim_core::SimRng::stream(0x0F1E, seed);
            let n = rng.uniform_u64(0, 200) as usize;
            let samples: Vec<SimTime> = (0..n)
                .map(|_| SimTime::from_ns(rng.uniform_u64(0, 5_000_000)))
                .collect();
            let mut p = OverheadProfiler::new();
            for &s in &samples {
                p.record(s);
            }
            let total: u64 = samples.iter().map(|s| s.as_ns()).sum();
            let naive_mean = (!samples.is_empty()).then(|| SimTime::from_ns(total / n as u64));
            assert_eq!(p.mean(), naive_mean, "seed {seed}");
            assert_eq!(p.max(), samples.iter().copied().max(), "seed {seed}");
            assert_eq!(p.len(), n, "seed {seed}");
            let fallback = SimTime::from_us(9);
            assert_eq!(p.mean_or(fallback), naive_mean.unwrap_or(fallback));
        }
    }

    #[test]
    fn mean_or_prefers_samples() {
        let mut p = OverheadProfiler::new();
        p.record(SimTime::from_us(4));
        assert_eq!(p.mean_or(SimTime::from_us(100)), SimTime::from_us(4));
    }
}
