//! Property-based tests for the GPU device's conservation invariants: no
//! task is ever lost or duplicated, whatever the workload shape or the
//! preemption timing. Runs on the in-tree `flep-check` harness.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use flep_gpu_sim::{
    GpuConfig, GridShape, LaunchDesc, PreemptSignal, ResourceUsage, Scenario, TaskCost,
};
use flep_sim_core::check::{check, CheckConfig};
use flep_sim_core::{assume, require, require_eq, SimRng, SimTime};

fn clean_cfg() -> GpuConfig {
    GpuConfig {
        launch_overhead: SimTime::ZERO,
        flag_visibility_latency: SimTime::ZERO,
        ..GpuConfig::k40()
    }
}

/// A persistent grid preempted at an arbitrary time partitions its tasks
/// exactly: done + remaining == total, and the task function ran exactly
/// `done` times.
#[test]
fn preemption_conserves_tasks() {
    check(
        "preemption_conserves_tasks",
        CheckConfig::default(),
        |rng: &mut SimRng| {
            (
                rng.uniform_u64(1, 4_999),     // total_tasks
                rng.uniform_u64(1, 63) as u32, // amortize
                rng.uniform_u64(1, 39),        // task_us
                rng.uniform_u64(0, 1_999),     // signal_at_us
                rng.uniform_u64(1, 15) as u32, // yield_sms
            )
        },
        |&(total_tasks, amortize, task_us, signal_at_us, yield_sms)| {
            assume!(total_tasks >= 1 && amortize >= 1 && task_us >= 1);
            assume!((1..=15).contains(&yield_sms));
            let counter = Arc::new(AtomicU64::new(0));
            let c = counter.clone();
            let mut sc = Scenario::new(clean_cfg());
            sc.launch_at(
                SimTime::ZERO,
                LaunchDesc::new(
                    "prop",
                    GridShape::Persistent {
                        total_tasks,
                        amortize,
                    },
                    TaskCost::fixed(SimTime::from_us(task_us)),
                )
                .with_tag(1)
                .with_task_fn(Box::new(move |_| {
                    c.fetch_add(1, Ordering::Relaxed);
                })),
            );
            sc.signal_at(
                SimTime::from_us(signal_at_us),
                1,
                PreemptSignal::YieldSms(yield_sms),
            );
            let result = sc.run();
            let rec = &result.records[&1];
            let executed = counter.load(Ordering::Relaxed);
            match (&rec.completed_at, rec.preemptions.first()) {
                (Some(_), None) => require_eq!(executed, total_tasks),
                (None, Some(p)) => {
                    require_eq!(p.tasks_done + p.remaining, total_tasks);
                    require_eq!(executed, p.tasks_done);
                    require!(p.remaining > 0);
                }
                // Spatial yields (< 15 SMs) never retire the grid early: it
                // completes on the remaining SMs.
                (Some(_), Some(_)) => require!(false, "completed grid recorded a preemption"),
                (None, None) => require!(false, "grid neither completed nor preempted"),
            }
            Ok(())
        },
    );
}

/// Original grids complete every CTA exactly once whatever the grid size,
/// and the makespan respects the wave lower bound.
#[test]
fn original_grid_runs_each_cta_once() {
    check(
        "original_grid_runs_each_cta_once",
        CheckConfig::default(),
        |rng: &mut SimRng| (rng.uniform_u64(1, 2_999), rng.uniform_u64(1, 29)),
        |&(ctas, task_us)| {
            assume!(ctas >= 1 && task_us >= 1);
            let counter = Arc::new(AtomicU64::new(0));
            let c = counter.clone();
            let mut sc = Scenario::new(clean_cfg());
            sc.launch_at(
                SimTime::ZERO,
                LaunchDesc::new(
                    "orig",
                    GridShape::Original { ctas },
                    TaskCost::fixed(SimTime::from_us(task_us)),
                )
                .with_tag(1)
                .with_task_fn(Box::new(move |_| {
                    c.fetch_add(1, Ordering::Relaxed);
                })),
            );
            let result = sc.run();
            require_eq!(counter.load(Ordering::Relaxed), ctas);
            let t = result.records[&1].turnaround().unwrap();
            let waves = ctas.div_ceil(120);
            // Lower bound: full-occupancy waves; upper bound: generous slack
            // for underfilled waves running faster and noise-free tasks.
            require!(t >= SimTime::from_us(task_us * waves).scale(0.3));
            require!(t <= SimTime::from_us(task_us * (waves + 1)) + SimTime::from_us(10));
            Ok(())
        },
    );
}

/// Two kernels launched in any order both eventually complete (no deadlock
/// in the dispatcher), and tags never mix.
#[test]
fn two_kernel_corun_always_drains() {
    check(
        "two_kernel_corun_always_drains",
        CheckConfig::default(),
        |rng: &mut SimRng| {
            (
                rng.uniform_u64(1, 1_499), // a_ctas
                rng.uniform_u64(1, 1_499), // b_ctas
                rng.uniform_u64(0, 499),   // gap_us
                rng.uniform_u64(1, 24),    // a_task
                rng.uniform_u64(1, 24),    // b_task
            )
        },
        |&(a_ctas, b_ctas, gap_us, a_task, b_task)| {
            assume!(a_ctas >= 1 && b_ctas >= 1 && a_task >= 1 && b_task >= 1);
            let mut sc = Scenario::new(clean_cfg());
            sc.launch_at(
                SimTime::ZERO,
                LaunchDesc::new(
                    "a",
                    GridShape::Original { ctas: a_ctas },
                    TaskCost::fixed(SimTime::from_us(a_task)),
                )
                .with_tag(1),
            );
            sc.launch_at(
                SimTime::from_us(gap_us),
                LaunchDesc::new(
                    "b",
                    GridShape::Original { ctas: b_ctas },
                    TaskCost::fixed(SimTime::from_us(b_task)),
                )
                .with_tag(2),
            );
            let result = sc.run();
            require!(result.records[&1].completed_at.is_some());
            require!(result.records[&2].completed_at.is_some());
            // The second kernel never starts before its launch.
            require!(result.records[&2].dispatch_started.unwrap() >= SimTime::from_us(gap_us));
            Ok(())
        },
    );
}

/// Occupancy is consistent: a grid of CTAs that individually fit is always
/// dispatchable, and per-SM residency never exceeds the occupancy bound
/// (checked indirectly via busy-span concurrency).
#[test]
fn occupancy_bound_holds() {
    const THREAD_CHOICES: [u32; 5] = [64, 128, 256, 512, 1024];
    check(
        "occupancy_bound_holds",
        CheckConfig::default(),
        |rng: &mut SimRng| {
            (
                rng.uniform_u64(0, 4),         // index into THREAD_CHOICES
                rng.uniform_u64(8, 63) as u32, // regs
                rng.uniform_u64(1, 599),       // ctas
            )
        },
        |&(threads_idx, regs, ctas)| {
            assume!(threads_idx < 5 && (8..64).contains(&regs) && ctas >= 1);
            let threads = THREAD_CHOICES[threads_idx as usize];
            let cfg = clean_cfg();
            let usage = ResourceUsage {
                threads_per_cta: threads,
                regs_per_thread: regs,
                smem_per_cta: 0,
            };
            let occ = cfg.occupancy_per_sm(&usage);
            assume!(occ > 0);
            let capacity = cfg.device_capacity(&usage);
            let mut sc = Scenario::new(cfg);
            sc.launch_at(
                SimTime::ZERO,
                LaunchDesc::new(
                    "o",
                    GridShape::Original { ctas },
                    TaskCost::fixed(SimTime::from_us(10)),
                )
                .with_tag(1)
                .with_resources(usage),
            );
            let result = sc.run();
            require!(result.records[&1].completed_at.is_some());
            // Concurrency check: at any instant, at most `capacity` CTAs run.
            let spans = result.device.busy_spans();
            let mut events: Vec<(u64, i64)> = Vec::new();
            for s in spans {
                events.push((s.start.as_ns(), 1));
                events.push((s.end.as_ns(), -1));
            }
            events.sort();
            let mut live = 0i64;
            for (_, delta) in events {
                live += delta;
                require!(
                    live as u64 <= capacity,
                    "{live} concurrent CTAs > capacity {capacity}"
                );
            }
            Ok(())
        },
    );
}

/// The SM-placement index picks exactly the SM the naive filtered
/// `min_by_key((resident_count, sm_id))` scan would pick, under random
/// interleavings of CTA placements, CTA removals, and preemption-signal
/// flips. This pins the index's total order — buckets ascending by count,
/// SM ids ascending within a bucket — against the specification it
/// replaced on the dispatch hot path.
#[test]
fn placement_index_matches_naive_scan() {
    use flep_gpu_sim::{GridId, PlacementIndex, ResidentCta, ResourceUsage, Sm};

    check(
        "placement_index_matches_naive_scan",
        CheckConfig::default(),
        |rng: &mut SimRng| (rng.uniform_u64(0, u64::MAX - 1), rng.uniform_u64(50, 299)),
        |&(seed, ops)| {
            let cfg = GpuConfig::k40();
            let usage = ResourceUsage::typical_256();
            let mut rng = SimRng::seed_from(seed);
            let mut sms: Vec<Sm> = (0..cfg.num_sms).map(Sm::new).collect();
            let mut idx = PlacementIndex::new(cfg.num_sms, cfg.max_ctas_per_sm);
            let mut sig = PreemptSignal::None;
            let mut resident: Vec<(u32, u64)> = Vec::new(); // (sm, cta)
            let mut next_cta = 0u64;

            for _ in 0..ops {
                // Both answers must agree at every step, for the exact
                // predicate the dispatcher uses: fits && !must_exit.
                let got =
                    idx.least_loaded(|i| sms[i as usize].fits(&cfg, &usage) && !sig.must_exit(i));
                let want = sms
                    .iter()
                    .enumerate()
                    .filter(|(i, sm)| sm.fits(&cfg, &usage) && !sig.must_exit(*i as u32))
                    .min_by_key(|(i, sm)| (sm.resident_count(), *i))
                    .map(|(i, _)| i as u32);
                require_eq!(got, want);
                for (i, sm) in sms.iter().enumerate() {
                    require_eq!(idx.count(i as u32), sm.resident_count(), "SM {i} count");
                }

                match rng.uniform_u64(0, 9) {
                    // Place a CTA on the chosen least-loaded SM (if any).
                    0..=4 => {
                        if let Some(sm) = got {
                            let cta = next_cta;
                            next_cta += 1;
                            sms[sm as usize].place(
                                &cfg,
                                &usage,
                                ResidentCta {
                                    grid: GridId(1),
                                    cta,
                                    since: SimTime::ZERO,
                                    threads: usage.threads_per_cta,
                                },
                            );
                            idx.on_place(sm);
                            resident.push((sm, cta));
                        }
                    }
                    // Remove a random resident CTA.
                    5..=7 => {
                        if !resident.is_empty() {
                            let pick = rng.uniform_u64(0, resident.len() as u64 - 1) as usize;
                            let (sm, cta) = resident.swap_remove(pick);
                            sms[sm as usize].remove(&usage, GridId(1), cta);
                            idx.on_remove(sm);
                        }
                    }
                    // Flip the preemption signal: None or YieldSms(1..=15).
                    _ => {
                        let n = rng.uniform_u64(0, u64::from(cfg.num_sms)) as u32;
                        sig = if n == 0 {
                            PreemptSignal::None
                        } else {
                            PreemptSignal::YieldSms(n)
                        };
                    }
                }
            }
            Ok(())
        },
    );
}

/// One draw per batch keeps the batch's distribution: over a fixed number
/// of samples, `sample_sum(n)` has mean `n·base` (within 4 standard
/// errors), variance `n·σ²·base²` (within a tolerance well above its
/// sampling error), and never falls below the `0.05·n` floor.
#[test]
fn batch_sample_matches_sum_of_task_samples() {
    const SAMPLES: u32 = 4_000;
    check(
        "batch_sample_matches_sum_of_task_samples",
        CheckConfig::default(),
        |rng: &mut SimRng| {
            (
                rng.uniform_u64(1, 200),          // n
                rng.uniform_u64(10, 300),         // σ in thousandths
                rng.uniform_u64(1_000, 100_000),  // base_ns
                rng.uniform_u64(0, u64::MAX - 1), // seed
            )
        },
        |&(n, sigma_milli, base_ns, seed)| {
            assume!((1..=200).contains(&n));
            assume!((10..=300).contains(&sigma_milli));
            assume!(base_ns >= 1_000);
            let sigma = sigma_milli as f64 / 1_000.0;
            let cost = TaskCost {
                base: SimTime::from_ns(base_ns),
                rel_noise: sigma,
            };
            let floor = cost.base.scale(0.05 * n as f64);
            let mut rng = SimRng::seed_from(seed);
            let (mut sum, mut sum_sq) = (0.0f64, 0.0f64);
            for _ in 0..SAMPLES {
                let s = cost.sample_sum(n, &mut rng);
                require!(s >= floor, "sample {s:?} below floor {floor:?}");
                let x = s.as_ns() as f64;
                sum += x;
                sum_sq += x * x;
            }
            let k = f64::from(SAMPLES);
            let mean = sum / k;
            let var = (sum_sq - sum * mean) / (k - 1.0);
            let want_mean = (n * base_ns) as f64;
            let want_var = n as f64 * (sigma * base_ns as f64).powi(2);
            // Rounding to whole nanoseconds shifts each sample by at most
            // half a nanosecond.
            let se = (want_var / k).sqrt();
            require!(
                (mean - want_mean).abs() <= 4.0 * se + 0.5,
                "mean {mean} vs {want_mean} (se {se})"
            );
            // The sample variance of a normal has relative standard error
            // sqrt(2/(k-1)) ≈ 2.2% at k = 4000; 12% is over 5 of them.
            require!(
                (var - want_var).abs() <= 0.12 * want_var + 0.25,
                "variance {var} vs {want_var}"
            );
            Ok(())
        },
    );
}
