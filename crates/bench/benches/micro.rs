//! Micro-benchmarks for the hot paths of the FLEP reproduction: the event
//! engine, the device dispatcher, the persistent-batch engine, a serving
//! cell, a fleet chaos cell, the transform passes, model training, and
//! whole co-runs.
//!
//! Runs on a small in-tree harness (no external benchmarking crate): each
//! target is warmed up, then timed for a fixed number of samples, and the
//! median / min / max per-iteration times are reported. Medians are robust
//! to scheduler noise, which is all a simulation codebase needs to spot
//! order-of-magnitude regressions.
//!
//! Environment knobs: `FLEP_BENCH_SAMPLES` (default 15, at least 1) and
//! `FLEP_BENCH_WARMUP` (default 3) control sample counts, and an invalid
//! value warns on stderr and uses the default; a single
//! command-line argument filters targets by substring, matching the
//! `cargo bench <filter>` convention. Set `FLEP_BENCH_JSON=<path>` to
//! also write the timings of every target that ran as a JSON artifact
//! (used by the `ci.sh` perf-smoke stage).

use std::hint::black_box;
use std::time::{Duration, Instant};

use flep_bench::gate::{write_artifact, ArtifactRow};
use flep_core::prelude::*;
use flep_runtime::{ClusterConfig, ClusterRun, HealthConfig, PlacementConfig, StepMode};
use flep_sim_core::knob::{env_knob, parse_uint};
use flep_sim_core::{EventQueue, Scheduler, Simulation, World};

fn format_ns(ns: u64) -> String {
    let d = Duration::from_nanos(ns);
    if ns >= 1_000_000_000 {
        format!("{:.3} s", d.as_secs_f64())
    } else if ns >= 1_000_000 {
        format!("{:.3} ms", d.as_secs_f64() * 1e3)
    } else if ns >= 1_000 {
        format!("{:.3} us", d.as_secs_f64() * 1e6)
    } else {
        format!("{ns} ns")
    }
}

/// The harness: knobs read once, one artifact row per target that ran.
struct Harness {
    samples: u32,
    warmup: u32,
    filter: Option<String>,
    rows: Vec<ArtifactRow>,
}

impl Harness {
    /// Warms up, then times `f` for the configured number of samples,
    /// prints `name  median (min … max)`, and records the row.
    fn bench<R>(&mut self, name: &str, mut f: impl FnMut() -> R) {
        if self
            .filter
            .as_deref()
            .is_some_and(|pat| !name.contains(pat))
        {
            return;
        }
        for _ in 0..self.warmup {
            black_box(f());
        }
        let mut times: Vec<u64> = (0..self.samples)
            .map(|_| {
                let start = Instant::now();
                black_box(f());
                start.elapsed().as_nanos() as u64
            })
            .collect();
        times.sort_unstable();
        let (median, min, max) = (times[times.len() / 2], times[0], times[times.len() - 1]);
        println!(
            "{name:<44} {:>12}  ({} … {})",
            format_ns(median),
            format_ns(min),
            format_ns(max),
        );
        self.rows.push(ArtifactRow::new(name, median, min, max));
    }
}

fn main() {
    let mut h = Harness {
        samples: env_knob("FLEP_BENCH_SAMPLES", "15", |s| parse_uint(s, 1u32)),
        warmup: env_knob("FLEP_BENCH_WARMUP", "3", |s| parse_uint(s, 0u32)),
        // `cargo bench -- <filter>`; ignore harness flags like `--bench`.
        filter: std::env::args().skip(1).find(|a| !a.starts_with('-')),
        rows: Vec::new(),
    };
    println!(
        "{:<44} {:>12}  (min … max over {} samples)",
        "target", "median", h.samples
    );

    // Raw event-queue throughput: push/pop of timestamped events.
    h.bench("sim_core/event_queue_push_pop_10k", || {
        let mut q = EventQueue::new();
        for i in 0..10_000u64 {
            q.push(SimTime::from_ns(i * 37 % 5000), i);
        }
        let mut acc = 0u64;
        while let Some(e) = q.pop() {
            acc = acc.wrapping_add(e.payload);
        }
        acc
    });

    // Steady-state churn with fat (64-byte) payloads: keep ~32k events
    // pending while popping one and pushing two/zero in alternation, the
    // access pattern a co-run produces scaled up to a stress depth.
    // Paired with an inline reference implementation — the
    // `BinaryHeap<(time, seq, payload)>` the indexed queue replaced — so
    // a single run measures the speedup from keeping payloads out of the
    // sift path.
    type FatPayload = [u64; 8];
    const CHURN_PREFILL: usize = 32_768;
    const CHURN_STEPS: usize = 20_000;
    // Deterministic pseudo-random timestamps, precomputed so the timed
    // region measures queue operations rather than the generator.
    let churn_times: Vec<SimTime> = (0..(CHURN_PREFILL + CHURN_STEPS) as u64)
        .map(|i| {
            SimTime::from_ns(i.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1) % 100_000)
        })
        .collect();
    h.bench("sim_core/event_queue_churn", || {
        let mut q: EventQueue<FatPayload> = EventQueue::new();
        let mut n = 0usize;
        for _ in 0..CHURN_PREFILL {
            q.push(churn_times[n], [n as u64; 8]);
            n += 1;
        }
        let mut acc = 0u64;
        for step in 0..CHURN_STEPS {
            let e = q.pop().expect("queue stays non-empty");
            acc = acc.wrapping_add(e.payload[0]);
            for _ in 0..(step % 2) * 2 {
                q.push(churn_times[n], [n as u64; 8]);
                n += 1;
            }
        }
        q.clear();
        acc
    });
    h.bench("sim_core/event_queue_churn_binheap_ref", || {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let mut q: BinaryHeap<Reverse<(SimTime, u64, FatPayload)>> = BinaryHeap::new();
        let mut n = 0usize;
        for _ in 0..CHURN_PREFILL {
            q.push(Reverse((churn_times[n], n as u64, [n as u64; 8])));
            n += 1;
        }
        let mut acc = 0u64;
        for step in 0..CHURN_STEPS {
            let Reverse((_, _, payload)) = q.pop().expect("queue stays non-empty");
            acc = acc.wrapping_add(payload[0]);
            for _ in 0..(step % 2) * 2 {
                q.push(Reverse((churn_times[n], n as u64, [n as u64; 8])));
                n += 1;
            }
        }
        q.clear();
        acc
    });

    // Steady-state *periodic* churn: the access pattern a discrete-event
    // simulation actually produces — pop the minimum, reschedule a fixed
    // period (plus deterministic jitter) ahead, so near-sorted inserts
    // meet a deep pending set.
    const PERIODIC_DEPTH: usize = 4_096;
    const PERIODIC_STEPS: usize = 100_000;
    let periodic_jitter: Vec<u64> = (0..(PERIODIC_DEPTH + PERIODIC_STEPS) as u64)
        .map(|i| i.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1) % 2_000)
        .collect();
    h.bench("sim_core/event_queue_churn_periodic", || {
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut n = 0usize;
        for _ in 0..PERIODIC_DEPTH {
            q.push(SimTime::from_ns(9_000 + periodic_jitter[n]), n as u64);
            n += 1;
        }
        let mut acc = 0u64;
        for _ in 0..PERIODIC_STEPS {
            let e = q.pop().expect("queue stays non-empty");
            acc = acc.wrapping_add(e.payload);
            q.push(
                e.time + SimTime::from_ns(10_000 + periodic_jitter[n]),
                e.payload,
            );
            n += 1;
        }
        q.clear();
        acc
    });

    // The per-completion duration chain (`base.scale(noise)
    // .scale(contention)`, DESIGN.md §8) as a dependent chain: every call
    // scales the previous result, so this times `scale`'s latency, not
    // its throughput. Factors come in reciprocal pairs, plus the exact 1.0
    // a lone kernel's contention factor is, so the span stays near 1 ms.
    const SCALE_FACTORS: [f64; 8] = [
        1.13,
        1.0 / 1.13,
        1.0,
        0.87,
        1.0 / 0.87,
        1.0,
        1.21,
        1.0 / 1.21,
    ];
    h.bench("sim_core/simtime_scale_chain", || {
        let factors = black_box(SCALE_FACTORS);
        let mut t = SimTime::from_ms(1);
        for i in 0..100_000 {
            t = t.scale(factors[i % factors.len()]);
        }
        t
    });

    // Engine dispatch throughput with a self-rescheduling world.
    struct Ticker {
        remaining: u32,
    }
    impl World for Ticker {
        type Event = ();
        fn handle(&mut self, _now: SimTime, _ev: (), sched: &mut Scheduler<'_, ()>) {
            if self.remaining > 0 {
                self.remaining -= 1;
                sched.schedule_in(SimTime::from_ns(10), ());
            }
        }
    }
    h.bench("sim_core/engine_100k_chained_events", || {
        let mut sim = Simulation::new(Ticker { remaining: 100_000 });
        sim.schedule_at(SimTime::ZERO, ());
        sim.run();
        sim.dispatched()
    });

    // A standalone original-kernel run through the full device model.
    let spmv = Benchmark::get(BenchmarkId::Spmv);
    h.bench("gpu_sim/spmv_large_standalone_original", || {
        flep_gpu_sim::run_single(GpuConfig::k40(), spmv.original_desc(InputClass::Large))
    });

    // A standalone persistent-kernel run (the FLEP form).
    h.bench("gpu_sim/spmv_large_standalone_persistent", || {
        flep_gpu_sim::run_single(
            GpuConfig::k40(),
            spmv.persistent_desc(InputClass::Large, spmv.table1_amortize),
        )
    });

    // One serving cell under overload: the four reference tenants at
    // twice their reference rates for 250 ms of arrivals, through
    // admission, the frontend's dispatch passes and the embedded cluster.
    let mut overload = flep_serve::reference_tenants();
    for t in &mut overload {
        t.arrivals = t.arrivals.scaled(2.0);
    }
    let overload = flep_serve::ServeConfig::new(1, SimTime::from_ms(250), overload);
    h.bench("serve/overload_cell", || flep_serve::run_serve(&overload));

    // One fleet cell under correlated chaos, the cluster's host path:
    // 16 devices on a 2x2x4 topology, zone outages and rack power cycles
    // at 1600 events/s, health scoring, anti-affinity and spread
    // placement, and 64 Small jobs arriving every 100 µs with three
    // priorities and four tenants, stepped by the merged driver.
    let chaos_seed = flep_sim_core::runner::cell_seed(1, 0, 0);
    let topo = flep_gpu_sim::FailureTopology::new(2, 2, 4);
    let mut chaos = ClusterConfig::new(topo.devices(), GpuConfig::k40(), Policy::hpf());
    chaos.topology = Some(topo);
    chaos.health = Some(HealthConfig::default());
    chaos.placement = PlacementConfig {
        anti_affinity: true,
        spread: true,
    };
    chaos.max_migrations = 16;
    chaos.correlated_faults = Some(
        flep_gpu_sim::CorrelatedFaultConfig::quiet(chaos_seed)
            .with_zone_outages(1600.0 / 3.0, SimTime::from_ms(1))
            .with_rack_cycles(
                2.0 * 1600.0 / 3.0,
                SimTime::from_us(500),
                SimTime::from_us(100),
            ),
    );
    let chaos_jobs: Vec<JobSpec> = (0..64)
        .map(|i| {
            let id = BenchmarkId::ALL[i % BenchmarkId::ALL.len()];
            JobSpec::new(
                KernelProfile::of(&Benchmark::get(id), InputClass::Small),
                SimTime::from_us(100 * i as u64),
            )
            .with_priority(1 + (i as u32 % 3))
            .with_tenant(i as u32 % 4)
            .with_seed(flep_sim_core::runner::cell_seed(chaos_seed, i, 1))
        })
        .collect();
    h.bench("cluster/chaos_cell", || {
        let mut run = ClusterRun::new(chaos.clone()).with_step_mode(StepMode::Merged);
        for job in &chaos_jobs {
            run = run.job(job.clone());
        }
        run.run()
    });

    // The compilation engine end to end on the largest kernel.
    let src = flep_workloads::source(BenchmarkId::Cfd);
    h.bench("compile/cfd_parse_analyze_transform", || {
        let program = parse(src).unwrap();
        analyze(&program).unwrap();
        transform(&program, TransformMode::Spatial).unwrap()
    });

    // Ridge model training (8 kernels x 100 samples).
    let mut seed = 0u64;
    h.bench("perfmodel/train_all_models", || {
        seed += 1;
        ModelStore::train(seed)
    });

    // A full HPF priority co-run (the Fig. 8 unit of work).
    let lo = KernelProfile::of(&Benchmark::get(BenchmarkId::Pf), InputClass::Large);
    let hi = KernelProfile::of(&Benchmark::get(BenchmarkId::Mm), InputClass::Small);
    h.bench("runtime/hpf_priority_corun_pf_mm", || {
        CoRun::new(GpuConfig::k40(), Policy::hpf())
            .job(JobSpec::new(lo.clone(), SimTime::ZERO).with_priority(1))
            .job(JobSpec::new(hi.clone(), SimTime::from_us(10)).with_priority(2))
            .run()
    });

    // The offline tuner for one benchmark (several profiling runs).
    let mm = Benchmark::get(BenchmarkId::Mm);
    h.bench("compile/tune_amortizing_factor_mm", || {
        tune(&GpuConfig::k40(), &mm)
    });

    // Full co-run macro-benchmarks ("sim_corun"): once the event queue is
    // cheap, the world-side hot path — grid-table lookups, contention
    // accounting, SM placement — dominates these. CI records them as
    // BENCH_sim_corun.json so the perf trajectory has a world-side
    // datapoint alongside event_queue_churn.
    let victim = KernelProfile::of(&Benchmark::get(BenchmarkId::Spmv), InputClass::Large);
    let burst = KernelProfile::of(&Benchmark::get(BenchmarkId::Mm), InputClass::Small);
    h.bench("runtime/sim_corun_hpf_spatial_bursts", || {
        // A noisy looping victim under periodic high-priority bursts:
        // every burst triggers a spatial preemption and a later
        // restore, exercising signal flips, batch claims, and CTA
        // placement at full device occupancy.
        let mut corun = CoRun::new(GpuConfig::k40(), Policy::hpf_spatial())
            .job(
                JobSpec::new(victim.clone(), SimTime::ZERO)
                    .with_priority(1)
                    .with_seed(11)
                    .looping(),
            )
            .horizon(SimTime::from_ms(25));
        for k in 0..6u64 {
            corun = corun.job(
                JobSpec::new(burst.clone(), SimTime::from_ms(3) + SimTime::from_ms(4) * k)
                    .with_priority(2)
                    .with_seed(100 + k),
            );
        }
        corun.run()
    });
    // The same bursts against an NN victim: L = 100, so every batch event
    // carries up to 100 tasks and the per-batch noise draw (one draw, not
    // one per task) is what this target protects. SPMV and MM above run
    // L = 2.
    let wide_victim = KernelProfile::of(&Benchmark::get(BenchmarkId::Nn), InputClass::Large);
    h.bench("runtime/sim_corun_hpf_wide_batches", || {
        let mut corun = CoRun::new(GpuConfig::k40(), Policy::hpf())
            .job(
                JobSpec::new(wide_victim.clone(), SimTime::ZERO)
                    .with_priority(1)
                    .with_seed(12)
                    .looping(),
            )
            .horizon(SimTime::from_ms(25));
        for k in 0..6u64 {
            corun = corun.job(
                JobSpec::new(burst.clone(), SimTime::from_ms(3) + SimTime::from_ms(4) * k)
                    .with_priority(2)
                    .with_seed(200 + k),
            );
        }
        corun.run()
    });
    h.bench("runtime/sim_corun_ffs_2to1_share", || {
        // One Fig. 13 cell at a reduced horizon: two looping persistent
        // kernels time-sliced 2:1 by FFS — the epoch churn maximizes
        // preempt/drain/relaunch traffic through the device model.
        CoRun::new(GpuConfig::k40(), Policy::Ffs { max_overhead: 0.10 })
            .job(
                JobSpec::new(burst.clone(), SimTime::ZERO)
                    .with_priority(2)
                    .with_seed(5)
                    .looping(),
            )
            .job(
                JobSpec::new(victim.clone(), SimTime::from_us(5))
                    .with_priority(1)
                    .with_seed(6)
                    .looping(),
            )
            .horizon(SimTime::from_ms(30))
            .run()
    });

    write_artifact("flep-bench micro", h.samples, &h.rows, None);
}
