//! Property-based tests for metric invariants, on the in-tree `flep-check`
//! harness.

use flep_metrics::{antt, stp, weighted_fairness, FairnessEntry, Percentiles, Summary, Turnaround};
use flep_sim_core::check::{check, CheckConfig};
use flep_sim_core::{require, require_eq, SimRng, SimTime};

/// `(single, extra)` pairs: single in [1, 100_000), extra in [0, 100_000).
fn gen_pairs(rng: &mut SimRng) -> Vec<(u64, u64)> {
    let n = rng.uniform_u64(1, 9) as usize;
    (0..n)
        .map(|_| (rng.uniform_u64(1, 99_999), rng.uniform_u64(0, 99_999)))
        .collect()
}

fn turnarounds(pairs: &[(u64, u64)]) -> Vec<Turnaround> {
    pairs
        .iter()
        .map(|&(single, extra)| Turnaround {
            single: SimTime::from_us(single.max(1)),
            multi: SimTime::from_us(single.max(1) + extra),
        })
        .collect()
}

/// STP of n kernels never exceeds n and is positive when all turnarounds
/// are sensible (multi >= single > 0).
#[test]
fn stp_bounded_by_job_count() {
    check(
        "stp_bounded_by_job_count",
        CheckConfig::default(),
        gen_pairs,
        |pairs| {
            flep_sim_core::assume!(!pairs.is_empty());
            let ts = turnarounds(pairs);
            let v = stp(&ts);
            require!(v > 0.0);
            require!(v <= ts.len() as f64 + 1e-9, "STP {v} > n {}", ts.len());
            Ok(())
        },
    );
}

/// ANTT is at least 1 when no kernel runs faster co-scheduled than alone,
/// and exactly 1 when nothing slows down.
#[test]
fn antt_at_least_one_without_speedups() {
    check(
        "antt_at_least_one_without_speedups",
        CheckConfig::default(),
        gen_pairs,
        |pairs| {
            flep_sim_core::assume!(!pairs.is_empty());
            let ts = turnarounds(pairs);
            require!(antt(&ts) >= 1.0 - 1e-9);
            let ideal: Vec<Turnaround> = ts
                .iter()
                .map(|t| Turnaround {
                    single: t.single,
                    multi: t.single,
                })
                .collect();
            require!((antt(&ideal) - 1.0).abs() < 1e-12);
            Ok(())
        },
    );
}

/// Weighted fairness is always in [0, 1] and is 1 exactly when shares
/// match the weight proportions.
#[test]
fn fairness_bounded_and_perfect_at_target() {
    check(
        "fairness_bounded_and_perfect_at_target",
        CheckConfig::default(),
        |rng: &mut SimRng| {
            let n = rng.uniform_u64(1, 5) as usize;
            (0..n)
                .map(|_| rng.uniform_f64(0.1, 10.0))
                .collect::<Vec<f64>>()
        },
        |weights| {
            flep_sim_core::assume!(!weights.is_empty());
            flep_sim_core::assume!(weights.iter().all(|w| (0.1..10.0).contains(w)));
            let total: f64 = weights.iter().sum();
            let perfect: Vec<FairnessEntry> = weights
                .iter()
                .map(|&w| FairnessEntry {
                    share: w / total,
                    weight: w,
                })
                .collect();
            let f = weighted_fairness(&perfect);
            require!((f - 1.0).abs() < 1e-9, "perfect shares scored {f}");

            // Arbitrary (mis)allocation stays within bounds.
            let skewed: Vec<FairnessEntry> = weights
                .iter()
                .enumerate()
                .map(|(i, &w)| FairnessEntry {
                    share: if i == 0 { 1.0 } else { 0.0 },
                    weight: w,
                })
                .collect();
            let s = weighted_fairness(&skewed);
            require!((0.0..=1.0).contains(&s));
            Ok(())
        },
    );
}

/// Summary invariants: min <= geo_mean <= mean <= max for positive samples
/// (AM-GM), and the CI shrinks as 1/sqrt(n).
#[test]
fn summary_order_relations() {
    check(
        "summary_order_relations",
        CheckConfig::default(),
        |rng: &mut SimRng| {
            let n = rng.uniform_u64(2, 49) as usize;
            (0..n)
                .map(|_| rng.uniform_f64(0.1, 1000.0))
                .collect::<Vec<f64>>()
        },
        |samples| {
            flep_sim_core::assume!(samples.len() >= 2);
            flep_sim_core::assume!(samples.iter().all(|s| (0.1..1000.0).contains(s)));
            let s = Summary::of(samples);
            require!(s.min <= s.mean + 1e-9);
            require!(s.mean <= s.max + 1e-9);
            require!(
                s.geo_mean <= s.mean + 1e-9,
                "AM-GM violated: {} > {}",
                s.geo_mean,
                s.mean
            );
            require!(s.min <= s.geo_mean + 1e-9);
            let doubled: Vec<f64> = samples.iter().chain(samples.iter()).copied().collect();
            let s2 = Summary::of(&doubled);
            require!(s2.ci95_half_width() <= s.ci95_half_width() + 1e-12);
            Ok(())
        },
    );
}

/// The merge walk over per-tenant sorted runs reports exactly the
/// percentiles of the pooled sample: any number of runs, empty ones,
/// single samples, and value ranges narrow enough that ties dominate.
#[test]
fn sorted_runs_percentiles_match_the_pool() {
    check(
        "sorted_runs_percentiles_match_the_pool",
        CheckConfig::default(),
        |rng: &mut SimRng| {
            let runs = rng.uniform_u64(0, 5);
            let span = [0, 3, 1_000, u64::MAX][rng.uniform_u64(0, 3) as usize];
            (0..runs)
                .map(|_| {
                    let len = match rng.uniform_u64(0, 3) {
                        0 => 0,
                        1 => 1,
                        _ => rng.uniform_u64(2, 2_500),
                    };
                    (0..len).map(|_| rng.uniform_u64(0, span)).collect()
                })
                .collect::<Vec<Vec<u64>>>()
        },
        |runs| {
            let mut sorted = runs.clone();
            for run in &mut sorted {
                run.sort_unstable();
            }
            let mut pooled = runs.concat();
            require_eq!(
                Percentiles::of_sorted_runs(&sorted),
                Percentiles::of_ns(&mut pooled)
            );
            Ok(())
        },
    );
}
