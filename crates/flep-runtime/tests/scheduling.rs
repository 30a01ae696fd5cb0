//! Integration tests for the FLEP runtime: priority preemption, SRT
//! scheduling, FFS fairness, spatial preemption, and the baselines.

use flep_gpu_sim::GpuConfig;
use flep_runtime::{CoRun, JobSpec, KernelProfile, Policy};
use flep_sim_core::{SimTime, Span};
use flep_workloads::{Benchmark, BenchmarkId, InputClass};

fn profile(id: BenchmarkId, class: InputClass) -> KernelProfile {
    KernelProfile::of(&Benchmark::get(id), class)
}

fn k40() -> GpuConfig {
    GpuConfig::k40()
}

#[test]
fn mps_baseline_blocks_short_kernel_behind_long_one() {
    // Fig. 1's phenomenon: under MPS the small kernel waits for the large
    // one.
    let lo = profile(BenchmarkId::Nn, InputClass::Large); // 15775us
    let hi = profile(BenchmarkId::Spmv, InputClass::Small); // 484us
    let result = CoRun::new(k40(), Policy::MpsBaseline)
        .job(JobSpec::new(lo, SimTime::ZERO))
        .job(JobSpec::new(hi, SimTime::from_us(10)))
        .run();
    let hi_turnaround = result.jobs[1].turnaround().unwrap();
    // It had to wait nearly the whole NN run: >30X its 484us solo time.
    assert!(
        hi_turnaround > SimTime::from_us(14_000),
        "turnaround {hi_turnaround}"
    );
}

#[test]
fn hpf_preempts_low_priority_for_high_priority() {
    let lo = profile(BenchmarkId::Nn, InputClass::Large);
    let hi = profile(BenchmarkId::Spmv, InputClass::Small);
    let result = CoRun::new(k40(), Policy::hpf())
        .job(JobSpec::new(lo, SimTime::ZERO).with_priority(1))
        .job(JobSpec::new(hi, SimTime::from_us(10)).with_priority(2))
        .run();
    let hi_rec = &result.jobs[1];
    let lo_rec = &result.jobs[0];
    // NN's drain is ~L*task = 100 * 2.63us = 263us; SPMV then runs 484us.
    let t = hi_rec.turnaround().unwrap();
    assert!(
        t < SimTime::from_us(1_000),
        "high-priority turnaround {t} should be well under 1ms"
    );
    // The victim was preempted exactly once and still completed everything.
    assert_eq!(lo_rec.preemptions, 1);
    assert!(lo_rec.completed.is_some());
    assert_eq!(lo_rec.completions, 1);
}

#[test]
fn traced_runs_fold_spans_into_busy_totals_untraced_keep_none() {
    // Busy totals are derived from the residency spans, so they exist
    // exactly when span tracing is on, and tracing changes nothing else.
    let run = |traced: bool| {
        let corun = CoRun::new(k40(), Policy::hpf())
            .job(
                JobSpec::new(profile(BenchmarkId::Nn, InputClass::Large), SimTime::ZERO)
                    .with_priority(1),
            )
            .job(
                JobSpec::new(
                    profile(BenchmarkId::Spmv, InputClass::Small),
                    SimTime::from_us(10),
                )
                .with_priority(2),
            );
        if traced {
            corun.with_span_trace().run()
        } else {
            corun.run()
        }
    };
    let traced = run(true);
    let spans = &traced.busy_spans;
    let mut owners: Vec<u64> = Vec::new();
    for s in spans {
        if !owners.contains(&s.owner) {
            owners.push(s.owner);
        }
    }
    let want: Vec<(u64, SimTime)> = owners
        .iter()
        .map(|&o| {
            let busy = spans.iter().filter(|s| s.owner == o).map(Span::duration);
            (o, busy.sum())
        })
        .collect();
    assert_eq!(owners, [0, 1], "the victim's CTAs exit first");
    assert_eq!(traced.busy_totals, want);

    let plain = run(false);
    assert!(plain.busy_spans.is_empty());
    assert!(plain.busy_totals.is_empty());
    assert_eq!(plain.jobs, traced.jobs);
    assert_eq!(plain.end_time, traced.end_time);
}

#[test]
fn hpf_speedup_over_mps_matches_paper_magnitude() {
    // Fig. 8's headline pair: SPMV (small, hi-prio) behind NN (large):
    // paper reports ~24X. Expect the same order of magnitude.
    let mk = |policy| {
        CoRun::new(k40(), policy)
            .job(
                JobSpec::new(profile(BenchmarkId::Nn, InputClass::Large), SimTime::ZERO)
                    .with_priority(1),
            )
            .job(
                JobSpec::new(
                    profile(BenchmarkId::Spmv, InputClass::Small),
                    SimTime::from_us(10),
                )
                .with_priority(2),
            )
            .run()
    };
    let base = mk(Policy::MpsBaseline).jobs[1].turnaround().unwrap();
    let flep = mk(Policy::hpf()).jobs[1].turnaround().unwrap();
    let speedup = base.as_us() / flep.as_us();
    assert!(
        speedup > 12.0 && speedup < 40.0,
        "speedup {speedup:.1}X out of expected band"
    );
}

#[test]
fn hpf_same_priority_runs_shortest_remaining_first() {
    // Long kernel first, then a short one with the same priority: FLEP
    // preempts for responsiveness (§6.3.1's equal-priority scenario).
    let lo = profile(BenchmarkId::Va, InputClass::Large); // 30634us
    let hi = profile(BenchmarkId::Mm, InputClass::Small); // 1499us
    let result = CoRun::new(k40(), Policy::hpf())
        .job(JobSpec::new(lo, SimTime::ZERO))
        .job(JobSpec::new(hi, SimTime::from_us(50)))
        .run();
    assert_eq!(result.jobs[0].preemptions, 1);
    let t = result.jobs[1].turnaround().unwrap();
    assert!(t < SimTime::from_us(3_000), "MM turnaround {t}");
}

#[test]
fn hpf_does_not_preempt_for_longer_remaining_work() {
    // The waiting kernel is LONGER than what remains of the running one:
    // no preemption should happen.
    let first = profile(BenchmarkId::Mm, InputClass::Small); // 1499us
    let second = profile(BenchmarkId::Va, InputClass::Large); // 30634us
    let result = CoRun::new(k40(), Policy::hpf())
        .job(JobSpec::new(first, SimTime::ZERO))
        .job(JobSpec::new(second, SimTime::from_us(50)))
        .run();
    assert_eq!(result.jobs[0].preemptions, 0);
    assert_eq!(result.jobs[1].preemptions, 0);
}

#[test]
fn preemption_overhead_term_prevents_thrashing() {
    // Two nearly identical kernels: remaining times differ by less than
    // the preemption overhead, so overhead-aware HPF must not preempt.
    let a = profile(BenchmarkId::Va, InputClass::Small);
    let mut b = profile(BenchmarkId::Va, InputClass::Small);
    // b is a hair shorter.
    b.total_tasks -= 120;
    let result = CoRun::new(
        k40(),
        Policy::Hpf {
            spatial: false,
            overhead_aware: true,
            forced_yield: None,
        },
    )
    .job(JobSpec::new(a, SimTime::ZERO))
    .job(JobSpec::new(b, SimTime::from_us(20)))
    .run();
    assert_eq!(result.jobs[0].preemptions, 0, "overhead-aware HPF thrashed");
}

#[test]
fn three_kernel_corun_schedules_shortest_first() {
    // §6.3.2's VA_SPMV_MM story: VA (large) is preempted, SPMV (shortest)
    // runs, then MM, then VA resumes.
    let result = CoRun::new(k40(), Policy::hpf())
        .job(JobSpec::new(
            profile(BenchmarkId::Va, InputClass::Large),
            SimTime::ZERO,
        ))
        .job(JobSpec::new(
            profile(BenchmarkId::Spmv, InputClass::Small),
            SimTime::from_us(30),
        ))
        .job(JobSpec::new(
            profile(BenchmarkId::Mm, InputClass::Small),
            SimTime::from_us(60),
        ))
        .run();
    let va = &result.jobs[0];
    let spmv = &result.jobs[1];
    let mm = &result.jobs[2];
    assert!(va.preemptions >= 1);
    assert!(spmv.completed.unwrap() < mm.completed.unwrap());
    assert!(mm.completed.unwrap() < va.completed.unwrap());
}

#[test]
fn reordering_cannot_rescue_blocked_queue() {
    // Reordering helps only kernels that have not started; the long kernel
    // launched first still blocks (the §6.3.2 ~2.3% result).
    let result = CoRun::new(k40(), Policy::Reordering)
        .job(JobSpec::new(
            profile(BenchmarkId::Va, InputClass::Large),
            SimTime::ZERO,
        ))
        .job(JobSpec::new(
            profile(BenchmarkId::Spmv, InputClass::Small),
            SimTime::from_us(30),
        ))
        .job(JobSpec::new(
            profile(BenchmarkId::Mm, InputClass::Small),
            SimTime::from_us(60),
        ))
        .run();
    // SPMV (shorter) goes before MM thanks to reordering...
    assert!(result.jobs[1].completed.unwrap() < result.jobs[2].completed.unwrap());
    // ...but both still waited for all of VA.
    assert!(result.jobs[1].turnaround().unwrap() > SimTime::from_us(30_000));
}

#[test]
fn spatial_preemption_yields_only_needed_sms() {
    // Victim large + trivial high-priority kernel (40 CTAs -> 5 SMs).
    let result = CoRun::new(k40(), Policy::hpf_spatial())
        .job(
            JobSpec::new(profile(BenchmarkId::Cfd, InputClass::Large), SimTime::ZERO)
                .with_priority(1),
        )
        .job(
            JobSpec::new(
                profile(BenchmarkId::Va, InputClass::Trivial),
                SimTime::from_us(200),
            )
            .with_priority(2),
        )
        .run();
    let victim = &result.jobs[0];
    let hi = &result.jobs[1];
    // The spatial victim is never drained to zero: no Preempted event.
    assert_eq!(victim.preemptions, 0);
    assert!(victim.completed.is_some());
    assert!(hi.completed.is_some());
    // The high-priority kernel finished long before the victim.
    assert!(hi.completed.unwrap() < victim.completed.unwrap());
}

#[test]
fn spatial_beats_temporal_on_corun_makespan() {
    // Fig. 15's mechanism: with a trivial high-priority kernel, yielding
    // only the needed SMs wastes less throughput than draining everything.
    let mk = |policy| {
        CoRun::new(k40(), policy)
            .job(
                JobSpec::new(profile(BenchmarkId::Md, InputClass::Large), SimTime::ZERO)
                    .with_priority(1),
            )
            .job(
                JobSpec::new(
                    profile(BenchmarkId::Va, InputClass::Trivial),
                    SimTime::from_us(200),
                )
                .with_priority(2),
            )
            .run()
    };
    let temporal = mk(Policy::hpf());
    let spatial = mk(Policy::hpf_spatial());
    let t_makespan = temporal.jobs[0]
        .completed
        .unwrap()
        .max(temporal.jobs[1].completed.unwrap());
    let s_makespan = spatial.jobs[0]
        .completed
        .unwrap()
        .max(spatial.jobs[1].completed.unwrap());
    assert!(
        s_makespan < t_makespan,
        "spatial {s_makespan} should beat temporal {t_makespan}"
    );
}

#[test]
fn ffs_enforces_two_to_one_share() {
    // Fig. 13: infinite loops with 2:1 weights converge to 2/3 vs 1/3
    // GPU shares.
    let horizon = SimTime::from_ms(400);
    let result = CoRun::new(k40(), Policy::Ffs { max_overhead: 0.10 })
        .with_span_trace() // gpu_share needs spans
        .job(
            JobSpec::new(profile(BenchmarkId::Pf, InputClass::Large), SimTime::ZERO)
                .with_priority(2)
                .looping(),
        )
        .job(
            JobSpec::new(
                profile(BenchmarkId::Pl, InputClass::Large),
                SimTime::from_us(5),
            )
            .with_priority(1)
            .looping(),
        )
        .horizon(horizon)
        .run();
    // Ignore the warmup: measure shares in the second half.
    let from = SimTime::from_ms(100);
    let hi_share = result.gpu_share(0, from, horizon);
    let lo_share = result.gpu_share(1, from, horizon);
    assert!(
        (hi_share - 2.0 / 3.0).abs() < 0.08,
        "high-weight share {hi_share:.3}"
    );
    assert!(
        (lo_share - 1.0 / 3.0).abs() < 0.08,
        "low-weight share {lo_share:.3}"
    );
    // Both jobs completed several loops.
    assert!(result.jobs[0].completions >= 2);
    assert!(result.jobs[1].completions >= 1);
}

#[test]
fn ffs_respects_overhead_budget() {
    // With a tighter budget the epochs get longer and preemptions rarer.
    let run = |budget: f64| {
        CoRun::new(
            k40(),
            Policy::Ffs {
                max_overhead: budget,
            },
        )
        .job(JobSpec::new(profile(BenchmarkId::Pf, InputClass::Large), SimTime::ZERO).looping())
        .job(
            JobSpec::new(
                profile(BenchmarkId::Pl, InputClass::Large),
                SimTime::from_us(5),
            )
            .looping(),
        )
        .horizon(SimTime::from_ms(200))
        .run()
    };
    let loose = run(0.10);
    let tight = run(0.01);
    let preemptions =
        |r: &flep_runtime::CoRunResult| r.jobs.iter().map(|j| j.preemptions).sum::<u32>();
    assert!(
        preemptions(&tight) < preemptions(&loose),
        "tight {} vs loose {}",
        preemptions(&tight),
        preemptions(&loose)
    );
}

#[test]
fn waiting_time_accounting_is_consistent() {
    let lo = profile(BenchmarkId::Nn, InputClass::Large);
    let hi = profile(BenchmarkId::Spmv, InputClass::Small);
    let result = CoRun::new(k40(), Policy::hpf())
        .job(JobSpec::new(lo, SimTime::ZERO).with_priority(1))
        .job(JobSpec::new(hi, SimTime::from_us(10)).with_priority(2))
        .run();
    // The victim's waiting time is roughly the high-priority kernel's
    // execution window.
    let victim_wait = result.jobs[0].waiting;
    assert!(
        victim_wait > SimTime::from_us(300) && victim_wait < SimTime::from_us(2_000),
        "victim waited {victim_wait}"
    );
    // The high-priority job's wait is the drain latency, well under 1ms.
    let hi_wait = result.jobs[1].waiting;
    assert!(hi_wait < SimTime::from_us(600), "hi waited {hi_wait}");
}

#[test]
fn corun_is_deterministic() {
    let mk = || {
        CoRun::new(k40(), Policy::hpf())
            .job(
                JobSpec::new(profile(BenchmarkId::Md, InputClass::Large), SimTime::ZERO)
                    .with_seed(7),
            )
            .job(
                JobSpec::new(
                    profile(BenchmarkId::Pf, InputClass::Small),
                    SimTime::from_us(100),
                )
                .with_seed(8),
            )
            .run()
    };
    let a = mk();
    let b = mk();
    assert_eq!(a.jobs, b.jobs);
    assert_eq!(a.end_time, b.end_time);
}

#[test]
fn drain_samples_feed_overhead_profiler() {
    let result = CoRun::new(k40(), Policy::hpf())
        .job(JobSpec::new(
            profile(BenchmarkId::Va, InputClass::Large),
            SimTime::ZERO,
        ))
        .job(JobSpec::new(
            profile(BenchmarkId::Mm, InputClass::Small),
            SimTime::from_us(50),
        ))
        .run();
    let victim = &result.jobs[0];
    assert_eq!(victim.drain_samples.len(), victim.preemptions as usize);
    for &d in &victim.drain_samples {
        // VA's drain: one batch of up to 200 tasks x 2.26us plus flag
        // latency: several hundred microseconds, never more than ~600us.
        assert!(d > SimTime::from_us(2) && d < SimTime::from_us(700), "{d}");
    }
}

#[test]
fn fault_layer_is_off_by_default() {
    // Without `with_faults`/`with_watchdog`, the robustness machinery must
    // be completely absent from a run's observable result: no fault log, no
    // recoveries, no errors, no forced-drain or kill escalations — and
    // `succeeded()` is true. (`escalations[0]` counts ordinary flag
    // preemptions and may be non-zero in general.)
    let result = CoRun::new(k40(), Policy::hpf())
        .job(
            JobSpec::new(profile(BenchmarkId::Va, InputClass::Small), SimTime::ZERO)
                .with_priority(1),
        )
        .job(
            JobSpec::new(
                profile(BenchmarkId::Spmv, InputClass::Trivial),
                SimTime::from_us(200),
            )
            .with_priority(2),
        )
        .run();
    assert!(result.succeeded());
    assert!(result.errors.is_empty());
    assert!(result.recoveries.is_empty());
    assert!(result.faults.is_empty());
    assert_eq!(result.escalations[1], 0);
    assert_eq!(result.escalations[2], 0);
}
