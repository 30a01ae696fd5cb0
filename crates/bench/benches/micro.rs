//! Micro-benchmarks for the hot paths of the FLEP reproduction: the event
//! engine, the device dispatcher, the persistent-batch engine, the
//! transform passes, model training, and whole co-runs.
//!
//! Runs on a small in-tree harness (no external benchmarking crate): each
//! target is warmed up, then timed for a fixed number of samples, and the
//! median / min / max per-iteration times are reported. Medians are robust
//! to scheduler noise, which is all a simulation codebase needs to spot
//! order-of-magnitude regressions.
//!
//! Environment knobs: `FLEP_BENCH_SAMPLES` (default 15) and
//! `FLEP_BENCH_WARMUP` (default 3) control sample counts; a single
//! command-line argument filters targets by substring, matching the
//! `cargo bench <filter>` convention. Set `FLEP_BENCH_JSON=<path>` to
//! also write the timings of every target that ran as a JSON artifact
//! (used by the `ci.sh` perf-smoke stage).

use std::hint::black_box;
use std::time::{Duration, Instant};

use flep_core::prelude::*;
use flep_sim_core::json::JsonValue;
use flep_sim_core::{EventQueue, Scheduler, SimRng, Simulation, World};

/// Number of timed samples per target.
fn samples() -> u32 {
    std::env::var("FLEP_BENCH_SAMPLES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(15)
}

/// Number of untimed warmup iterations per target.
fn warmup() -> u32 {
    std::env::var("FLEP_BENCH_WARMUP")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(3)
}

fn format_duration(d: Duration) -> String {
    let ns = d.as_nanos();
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

/// One target's timings, kept for the `FLEP_BENCH_JSON` artifact.
struct BenchRecord {
    name: String,
    median: Duration,
    min: Duration,
    max: Duration,
}

/// Warms up, then times `f` for the configured number of samples, prints
/// `name  median (min … max)`, and records the timings in `results`.
fn bench<R>(
    results: &mut Vec<BenchRecord>,
    filter: Option<&str>,
    name: &str,
    mut f: impl FnMut() -> R,
) {
    if let Some(pat) = filter {
        if !name.contains(pat) {
            return;
        }
    }
    for _ in 0..warmup() {
        black_box(f());
    }
    let mut times: Vec<Duration> = (0..samples())
        .map(|_| {
            let start = Instant::now();
            black_box(f());
            start.elapsed()
        })
        .collect();
    times.sort();
    let median = times[times.len() / 2];
    println!(
        "{name:<44} {:>12}  ({} … {})",
        format_duration(median),
        format_duration(times[0]),
        format_duration(times[times.len() - 1]),
    );
    results.push(BenchRecord {
        name: name.to_string(),
        median,
        min: times[0],
        max: times[times.len() - 1],
    });
}

/// Writes the collected timings to `FLEP_BENCH_JSON` (if set) as a
/// self-describing document: target name plus median/min/max in
/// nanoseconds.
fn write_json_artifact(results: &[BenchRecord]) {
    let Ok(path) = std::env::var("FLEP_BENCH_JSON") else {
        return;
    };
    let doc = JsonValue::object([
        ("suite", JsonValue::Str("flep-bench micro".into())),
        ("samples", JsonValue::UInt(u64::from(samples()))),
        (
            "results",
            JsonValue::array(results.iter().map(|r| {
                JsonValue::object([
                    ("name", JsonValue::Str(r.name.clone())),
                    ("median_ns", JsonValue::UInt(r.median.as_nanos() as u64)),
                    ("min_ns", JsonValue::UInt(r.min.as_nanos() as u64)),
                    ("max_ns", JsonValue::UInt(r.max.as_nanos() as u64)),
                ])
            })),
        ),
    ]);
    match std::fs::write(&path, doc.render() + "\n") {
        Ok(()) => eprintln!("wrote {path}"),
        Err(e) => eprintln!("FLEP_BENCH_JSON: cannot write {path}: {e}"),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    // `cargo bench -- <filter>`; ignore harness flags like `--bench`.
    let filter = args
        .iter()
        .skip(1)
        .find(|a| !a.starts_with('-'))
        .map(String::as_str);
    println!(
        "{:<44} {:>12}  (min … max over {} samples)",
        "target",
        "median",
        samples()
    );
    let mut results: Vec<BenchRecord> = Vec::new();

    // Raw event-queue throughput: push/pop of timestamped events.
    bench(
        &mut results,
        filter,
        "sim_core/event_queue_push_pop_10k",
        || {
            let mut q = EventQueue::new();
            for i in 0..10_000u64 {
                q.push(SimTime::from_ns(i * 37 % 5000), i);
            }
            let mut acc = 0u64;
            while let Some(e) = q.pop() {
                acc = acc.wrapping_add(e.payload);
            }
            acc
        },
    );

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
    bench(&mut results, filter, "sim_core/event_queue_churn", || {
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
    bench(
        &mut results,
        filter,
        "sim_core/event_queue_churn_binheap_ref",
        || {
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
        },
    );

    // The bit-identity-frozen noise stream in isolation: co-run worlds
    // draw a Box-Muller `noise_factor` per simulated kernel segment, and
    // that draw sequence is pinned by every golden, so it can never be
    // swapped for a cheaper generator. Profiling the sim_corun macros
    // showed these draws account for roughly half their median (~5.4ms of
    // the 10.9ms hpf run); this target times 1M draws of the exact frozen
    // sequence so future perf claims can cite machinery-only time by
    // subtracting it out.
    bench(
        &mut results,
        filter,
        "sim_core/noise_stream_boxmuller_1m",
        || {
            let mut rng = SimRng::seed_from(11);
            let mut acc = 0.0f64;
            for _ in 0..1_000_000u32 {
                acc += rng.noise_factor(0.3);
            }
            acc
        },
    );

    // Steady-state *periodic* churn: the access pattern a discrete-event
    // simulation actually produces — pop the minimum, reschedule a fixed
    // period (plus deterministic jitter) ahead, so near-sorted inserts
    // meet a deep pending set.
    const PERIODIC_DEPTH: usize = 4_096;
    const PERIODIC_STEPS: usize = 100_000;
    let periodic_jitter: Vec<u64> = (0..(PERIODIC_DEPTH + PERIODIC_STEPS) as u64)
        .map(|i| i.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1) % 2_000)
        .collect();
    bench(
        &mut results,
        filter,
        "sim_core/event_queue_churn_periodic",
        || {
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
        },
    );

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
    bench(
        &mut results,
        filter,
        "sim_core/engine_100k_chained_events",
        || {
            let mut sim = Simulation::new(Ticker { remaining: 100_000 });
            sim.schedule_at(SimTime::ZERO, ());
            sim.run();
            sim.dispatched()
        },
    );

    // A standalone original-kernel run through the full device model.
    let spmv = Benchmark::get(BenchmarkId::Spmv);
    bench(
        &mut results,
        filter,
        "gpu_sim/spmv_large_standalone_original",
        || flep_gpu_sim::run_single(GpuConfig::k40(), spmv.original_desc(InputClass::Large)),
    );

    // A standalone persistent-kernel run (the FLEP form).
    bench(
        &mut results,
        filter,
        "gpu_sim/spmv_large_standalone_persistent",
        || {
            flep_gpu_sim::run_single(
                GpuConfig::k40(),
                spmv.persistent_desc(InputClass::Large, spmv.table1_amortize),
            )
        },
    );

    // The compilation engine end to end on the largest kernel.
    let src = flep_workloads::source(BenchmarkId::Cfd);
    bench(
        &mut results,
        filter,
        "compile/cfd_parse_analyze_transform",
        || {
            let program = parse(src).unwrap();
            analyze(&program).unwrap();
            transform(&program, TransformMode::Spatial).unwrap()
        },
    );

    // Ridge model training (8 kernels x 100 samples).
    let mut seed = 0u64;
    bench(&mut results, filter, "perfmodel/train_all_models", || {
        seed += 1;
        ModelStore::train(seed)
    });

    // A full HPF priority co-run (the Fig. 8 unit of work).
    let lo = KernelProfile::of(&Benchmark::get(BenchmarkId::Pf), InputClass::Large);
    let hi = KernelProfile::of(&Benchmark::get(BenchmarkId::Mm), InputClass::Small);
    bench(
        &mut results,
        filter,
        "runtime/hpf_priority_corun_pf_mm",
        || {
            CoRun::new(GpuConfig::k40(), Policy::hpf())
                .job(JobSpec::new(lo.clone(), SimTime::ZERO).with_priority(1))
                .job(JobSpec::new(hi.clone(), SimTime::from_us(10)).with_priority(2))
                .run()
        },
    );

    // The offline tuner for one benchmark (several profiling runs).
    let mm = Benchmark::get(BenchmarkId::Mm);
    bench(
        &mut results,
        filter,
        "compile/tune_amortizing_factor_mm",
        || tune(&GpuConfig::k40(), &mm),
    );

    // Full co-run macro-benchmarks ("sim_corun"): once the event queue is
    // cheap, the world-side hot path — grid-table lookups, contention
    // accounting, SM placement — dominates these. CI records them as
    // BENCH_sim_corun.json so the perf trajectory has a world-side
    // datapoint alongside event_queue_churn.
    let victim = KernelProfile::of(&Benchmark::get(BenchmarkId::Spmv), InputClass::Large);
    let burst = KernelProfile::of(&Benchmark::get(BenchmarkId::Mm), InputClass::Small);
    bench(
        &mut results,
        filter,
        "runtime/sim_corun_hpf_spatial_bursts",
        || {
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
        },
    );
    bench(
        &mut results,
        filter,
        "runtime/sim_corun_ffs_2to1_share",
        || {
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
        },
    );

    write_json_artifact(&results);
}
