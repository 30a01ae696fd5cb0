//! Summary statistics for experiment reporting.

/// Descriptive statistics of a sample, as printed in the experiment tables
/// (mean with min/max range and standard deviation for error bars).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std_dev: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Geometric mean (0.0 if any sample is non-positive). Speedup-style
    /// ratios are conventionally aggregated geometrically.
    pub geo_mean: f64,
}

impl Summary {
    /// Computes the summary of a sample.
    ///
    /// Returns a zeroed summary for an empty slice.
    #[must_use]
    pub fn of(samples: &[f64]) -> Self {
        if samples.is_empty() {
            return Summary {
                n: 0,
                mean: 0.0,
                std_dev: 0.0,
                min: 0.0,
                max: 0.0,
                geo_mean: 0.0,
            };
        }
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
        let max = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let geo_mean = if samples.iter().all(|&x| x > 0.0) {
            (samples.iter().map(|x| x.ln()).sum::<f64>() / n).exp()
        } else {
            0.0
        };
        Summary {
            n: samples.len(),
            mean,
            std_dev: var.sqrt(),
            min,
            max,
            geo_mean,
        }
    }

    /// Half-width of an approximate 95% confidence interval on the mean
    /// (normal approximation).
    #[must_use]
    pub fn ci95_half_width(&self) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        1.96 * self.std_dev / (self.n as f64).sqrt()
    }
}

/// Tail-latency percentiles of a nanosecond sample, as reported by the
/// serving experiments (p50 for the median user, p99/p999 for the tail
/// the SLO is really about).
///
/// Computed with the nearest-rank method in pure integer arithmetic —
/// `rank = round(q * (n - 1))` on the sorted sample — so the values are
/// exact sample elements and bit-identical across platforms and thread
/// counts (no float interpolation to drift).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Percentiles {
    /// Number of samples.
    pub n: usize,
    /// Median (50th percentile), in nanoseconds.
    pub p50_ns: u64,
    /// 99th percentile, in nanoseconds.
    pub p99_ns: u64,
    /// 99.9th percentile, in nanoseconds.
    pub p999_ns: u64,
}

impl Percentiles {
    /// Computes the percentiles of a nanosecond sample. Sorts the slice in
    /// place; returns `None` for an empty sample.
    #[must_use]
    pub fn of_ns(samples: &mut [u64]) -> Option<Percentiles> {
        if samples.is_empty() {
            return None;
        }
        samples.sort_unstable();
        let [p50_ns, p99_ns, p999_ns] = RANKS.map(|(num, den)| percentile_ns(samples, num, den));
        Some(Percentiles {
            n: samples.len(),
            p50_ns,
            p99_ns,
            p999_ns,
        })
    }

    /// The percentiles of the union of several ascending-sorted samples,
    /// without pooling them: a k-way merge walk over the runs stops at the
    /// p999 rank. Equal to [`Self::of_ns`] over their concatenation, since
    /// the walk visits the union in sorted order and tied values are
    /// interchangeable. Returns `None` when every run is empty.
    #[must_use]
    pub fn of_sorted_runs(runs: &[Vec<u64>]) -> Option<Percentiles> {
        let n: usize = runs.iter().map(Vec::len).sum();
        if n == 0 {
            return None;
        }
        debug_assert!(
            runs.iter().all(|r| r.windows(2).all(|w| w[0] <= w[1])),
            "unsorted run"
        );
        let ranks = RANKS.map(|(num, den)| nearest_rank(n, num, den));
        let mut heads = vec![0usize; runs.len()];
        let mut values = [0u64; 3];
        let mut next = 0;
        for rank in 0..=ranks[2] {
            let (k, v) = runs
                .iter()
                .zip(&heads)
                .enumerate()
                .filter_map(|(k, (run, &h))| run.get(h).map(|&v| (k, v)))
                .min_by_key(|&(_, v)| v)
                .expect("every rank is below the pooled sample size");
            heads[k] += 1;
            while next < ranks.len() && ranks[next] == rank {
                values[next] = v;
                next += 1;
            }
        }
        let [p50_ns, p99_ns, p999_ns] = values;
        Some(Percentiles {
            n,
            p50_ns,
            p99_ns,
            p999_ns,
        })
    }
}

/// The reported percentiles as `num/den`: p50, p99, p999.
const RANKS: [(u64, u64); 3] = [(50, 100), (99, 100), (999, 1000)];

/// The `(p50, p99, p999)` nanosecond triple of an optional percentile
/// summary, zeroed when no sample completed.
///
/// This is the one place the "no data" convention lives: every report
/// table and JSON artifact that prints a tail triple goes through here
/// instead of re-matching `Option<Percentiles>` locally.
#[must_use]
pub fn tail_triple_ns(latency: Option<Percentiles>) -> (u64, u64, u64) {
    match latency {
        Some(p) => (p.p50_ns, p.p99_ns, p.p999_ns),
        None => (0, 0, 0),
    }
}

/// Nearest-rank percentile `num/den` of an ascending-sorted sample:
/// `sorted[round(num/den * (n - 1))]`, with the rounding done in integer
/// arithmetic (half-up) for cross-platform determinism.
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn percentile_ns(sorted: &[u64], num: u64, den: u64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "unsorted sample");
    sorted[nearest_rank(sorted.len(), num, den)]
}

/// The nearest rank `round(num/den * (n - 1))` of a sample of `n >= 1`.
fn nearest_rank(n: usize, num: u64, den: u64) -> usize {
    ((num * (n as u64 - 1) + den / 2) / den) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_constant_sample() {
        let s = Summary::of(&[5.0, 5.0, 5.0]);
        assert_eq!(s.mean, 5.0);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.min, 5.0);
        assert_eq!(s.max, 5.0);
        assert!((s.geo_mean - 5.0).abs() < 1e-12);
        assert_eq!(s.ci95_half_width(), 0.0);
    }

    #[test]
    fn summary_of_varied_sample() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.mean, 2.5);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert!((s.std_dev - (1.25f64).sqrt()).abs() < 1e-12);
        assert!(s.geo_mean > 2.0 && s.geo_mean < 2.5);
    }

    #[test]
    fn empty_sample_is_zeroed() {
        let s = Summary::of(&[]);
        assert_eq!(s.n, 0);
        assert_eq!(s.mean, 0.0);
    }

    #[test]
    fn geo_mean_zero_with_nonpositive_samples() {
        let s = Summary::of(&[1.0, 0.0]);
        assert_eq!(s.geo_mean, 0.0);
        let s2 = Summary::of(&[2.0, -1.0]);
        assert_eq!(s2.geo_mean, 0.0);
    }

    #[test]
    fn ci_shrinks_with_samples() {
        let few = Summary::of(&[1.0, 3.0]);
        let many = Summary::of(&[1.0, 3.0, 1.0, 3.0, 1.0, 3.0, 1.0, 3.0]);
        assert!(many.ci95_half_width() < few.ci95_half_width());
    }

    #[test]
    fn percentiles_of_small_sample() {
        let mut v: Vec<u64> = (1..=100).rev().collect();
        let p = Percentiles::of_ns(&mut v).unwrap();
        // Sorted 1..=100: rank(q) = round(q * 99).
        assert_eq!(p.p50_ns, 51); // round(0.5 * 99) = 50 -> value 51
        assert_eq!(p.p99_ns, 99); // round(0.99 * 99) = 98 -> value 99
        assert_eq!(p.p999_ns, 100); // round(0.999 * 99) = 99 -> value 100
        assert_eq!(p.n, 100);
    }

    #[test]
    fn percentiles_of_singleton_and_empty() {
        assert_eq!(Percentiles::of_ns(&mut []), None);
        let p = Percentiles::of_ns(&mut [7]).unwrap();
        assert_eq!((p.p50_ns, p.p99_ns, p.p999_ns), (7, 7, 7));
    }

    #[test]
    fn tail_triple_unwraps_and_zeroes() {
        assert_eq!(tail_triple_ns(None), (0, 0, 0));
        let p = Percentiles::of_ns(&mut [10, 20, 30]).unwrap();
        assert_eq!(tail_triple_ns(Some(p)), (p.p50_ns, p.p99_ns, p.p999_ns));
    }

    #[test]
    fn percentile_rank_is_monotone_in_q() {
        let sorted: Vec<u64> = (0..1000).map(|i| i * 3).collect();
        let p50 = percentile_ns(&sorted, 50, 100);
        let p99 = percentile_ns(&sorted, 99, 100);
        let p999 = percentile_ns(&sorted, 999, 1000);
        assert!(p50 <= p99 && p99 <= p999);
        assert_eq!(p999, sorted[998]); // round(0.999 * 999) = 998
    }
}
