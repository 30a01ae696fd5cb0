//! Workspace-level determinism tests: the whole stack — device model,
//! runtime scheduler, experiment harness — must produce byte-identical
//! output for a given seed, and actually respond to the seed (different
//! seeds produce different noise streams). This is what makes every
//! number in the README reproducible and every test failure replayable.

use flep_core::prelude::*;
use flep_gpu_sim::{GridShape, LaunchDesc, PreemptSignal, Scenario, TaskCost};
use flep_sim_core::json::ToJson;
use flep_sim_core::SimTime;

/// Renders the device-level event trace of a noisy preemption scenario as
/// one string: every launch/signal/restore event with its timestamp.
fn scenario_trace(seed: u64) -> String {
    let mut sc = Scenario::new(GpuConfig::k40());
    sc.enable_trace();
    sc.launch_at(
        SimTime::ZERO,
        LaunchDesc::new(
            "victim",
            GridShape::Persistent {
                total_tasks: 3_000,
                amortize: 10,
            },
            TaskCost {
                base: SimTime::from_us(12),
                rel_noise: 0.2,
            },
        )
        .with_tag(1)
        .with_seed(seed),
    );
    sc.launch_at(
        SimTime::from_us(500),
        LaunchDesc::new(
            "preemptor",
            GridShape::Original { ctas: 120 },
            TaskCost {
                base: SimTime::from_us(8),
                rel_noise: 0.1,
            },
        )
        .with_tag(2)
        .with_seed(seed ^ 0xABCD),
    );
    sc.signal_at(SimTime::from_us(450), 1, PreemptSignal::YieldSms(15));
    let result = sc.run();
    let mut out = String::new();
    for ev in result.device.trace().events() {
        out.push_str(&format!("{} {} tag={}\n", ev.at, ev.label, ev.tag));
    }
    out.push_str(&format!("end={}\n", result.end_time));
    out
}

/// Renders a full co-run — job records, busy spans, end time — as a string.
fn corun_rendering(seed: u64) -> String {
    let lo = KernelProfile::of(&Benchmark::get(BenchmarkId::Spmv), InputClass::Small);
    let hi = KernelProfile::of(&Benchmark::get(BenchmarkId::Nn), InputClass::Trivial);
    let result = CoRun::new(GpuConfig::k40(), Policy::hpf())
        .with_span_trace() // the rendering below includes every span
        .job(
            JobSpec::new(lo, SimTime::ZERO)
                .with_priority(1)
                .with_seed(seed),
        )
        .job(
            JobSpec::new(hi, SimTime::from_us(200))
                .with_priority(5)
                .with_seed(seed.wrapping_mul(3)),
        )
        .run();
    let mut out = format!("{:?}\nend={}\n", result.jobs, result.end_time);
    for s in &result.busy_spans {
        out.push_str(&format!("{} {} {}\n", s.start, s.end, s.owner));
    }
    out
}

/// Renders an experiment's structured rows through the JSON emitter — the
/// exact bytes `FLEP_JSON` would write to disk.
fn experiment_json(seed: u64) -> String {
    experiments::fig07_prediction_errors(ExpConfig::quick(seed))
        .to_json()
        .render()
}

/// Replicates the exact bytes `flep_bench::emit_json` writes for a figure:
/// the rows wrapped in a self-describing document, rendered, plus the
/// trailing newline `std::fs::write` receives.
fn figure_doc(name: &str, rows: &dyn ToJson) -> String {
    flep_sim_core::json::JsonValue::object([
        ("experiment", name.to_json()),
        ("rows", rows.to_json()),
    ])
    .render()
        + "\n"
}

/// The `ExpConfig` the pinned figure goldens under `tests/golden/` were
/// generated with (`FLEP_SEED=3 FLEP_REPEATS=1`).
fn golden_exp() -> ExpConfig {
    ExpConfig {
        seed: 3,
        repeats: 1,
    }
}

/// Drives a preemption scenario under a *seeded fault plan*: the victim is
/// guaranteed to wedge a CTA at its first preemption exit, doorbells may
/// drop, and notifications may be delayed. The script then walks the
/// escalation ladder by hand — flag write, forced drain, kill — and the
/// rendering pins every trace event *and* every fault-log entry. This is
/// the faults-enabled counterpart of [`preempt_restore_trace`]: it freezes
/// the fault RNG stream's draw order, so any change to when or how the
/// injector consumes randomness shows up as a diff.
fn faulted_scenario_trace() -> String {
    use flep_gpu_sim::FaultConfig;

    let mut sc = Scenario::new(GpuConfig::k40());
    sc.enable_trace();
    sc.with_faults(
        FaultConfig::quiet(11)
            .with_stuck_exit(1.0)
            .with_signal_drop(0.3)
            .with_note_delay(0.5, SimTime::from_us(40)),
    );
    sc.launch_at(
        SimTime::ZERO,
        LaunchDesc::new(
            "victim",
            GridShape::Persistent {
                total_tasks: 40_000,
                amortize: 10,
            },
            TaskCost {
                base: SimTime::from_us(12),
                rel_noise: 0.2,
            },
        )
        .with_tag(1)
        .with_seed(5),
    );
    sc.signal_at(SimTime::from_us(400), 1, PreemptSignal::YieldSms(15));
    sc.force_drain_at(SimTime::from_us(1_200), 1);
    sc.launch_at(
        SimTime::from_us(500),
        LaunchDesc::new(
            "preemptor",
            GridShape::Original { ctas: 60 },
            TaskCost {
                base: SimTime::from_us(8),
                rel_noise: 0.1,
            },
        )
        .with_tag(2)
        .with_seed(6),
    );
    sc.kill_at(SimTime::from_ms(4), 1);
    let result = sc.run();
    let mut out = String::new();
    for ev in result.device.trace().events() {
        out.push_str(&format!("{} {} tag={}\n", ev.at, ev.label, ev.tag));
    }
    for f in result.device.fault_log() {
        out.push_str(&format!("fault {} {} tag={}\n", f.at, f.kind, f.tag));
    }
    out.push_str(&format!("end={}\n", result.end_time));
    out
}

/// Drives a noisy persistent kernel through a spatial preemption, a
/// restore, and a final temporal preemption directly against the device API
/// (`Scenario` has no restore action), rendering the full device trace plus
/// a summary of the CTA-residency record. Pinned as a golden: the trace
/// timestamps encode every RNG draw, contention factor, and placement
/// decision along the way, so any change to the device's dispatch order or
/// state layout that is not bit-identical shows up here.
fn preempt_restore_trace() -> String {
    use flep_gpu_sim::{CollectorHarness, GpuDevice, GpuEvent, GridId};
    use flep_sim_core::{Scheduler, Simulation, World};

    enum REv {
        Gpu(GpuEvent),
        Launch,
        Signal(PreemptSignal),
        Restore,
    }
    struct RWorld {
        device: GpuDevice,
        grid: Option<GridId>,
    }
    impl World for RWorld {
        type Event = REv;
        fn handle(&mut self, now: SimTime, ev: REv, sched: &mut Scheduler<'_, REv>) {
            let mut h = CollectorHarness::new();
            match ev {
                REv::Gpu(g) => self.device.handle(now, g, &mut h),
                REv::Launch => {
                    let desc = LaunchDesc::new(
                        "noisy",
                        GridShape::Persistent {
                            total_tasks: 40_000,
                            amortize: 8,
                        },
                        TaskCost {
                            base: SimTime::from_us(10),
                            rel_noise: 0.25,
                        },
                    )
                    .with_tag(1)
                    .with_seed(99)
                    .with_mem_intensity(1.1);
                    self.grid = Some(self.device.launch(now, desc, &mut h).unwrap());
                }
                REv::Signal(sig) => self.device.signal(now, self.grid.unwrap(), sig),
                REv::Restore => self.device.restore_grid(now, self.grid.unwrap(), &mut h),
            }
            for (at, gev) in h.gpu_events {
                sched.schedule_at(at, REv::Gpu(gev));
            }
        }
    }

    let mut device = GpuDevice::new(GpuConfig::k40());
    device.enable_trace();
    let mut sim = Simulation::new(RWorld { device, grid: None });
    sim.schedule_at(SimTime::ZERO, REv::Launch);
    sim.schedule_at(
        SimTime::from_us(300),
        REv::Signal(PreemptSignal::YieldSms(6)),
    );
    sim.schedule_at(SimTime::from_us(900), REv::Restore);
    sim.schedule_at(
        SimTime::from_us(1_500),
        REv::Signal(PreemptSignal::YieldSms(15)),
    );
    let end = sim.run();
    let world = sim.into_world();
    let mut out = String::new();
    for ev in world.device.trace().events() {
        out.push_str(&format!("{} {} tag={}\n", ev.at, ev.label, ev.tag));
    }
    let spans = world.device.busy_spans();
    let span_time: SimTime = spans.iter().map(flep_sim_core::Span::duration).sum();
    out.push_str(&format!(
        "end={} tasks={} spans={} span_time={}\n",
        end,
        world.device.grid_tasks_done(world.grid.unwrap()).unwrap(),
        spans.len(),
        span_time,
    ));
    out
}

/// The rendering of [`preempt_restore_trace`], pinned so layout and
/// hot-path work on the device provably changes no observable behavior.
/// Last regenerated when a persistent batch's work became one
/// `TaskCost::sample_sum` draw instead of one draw per task.
const PREEMPT_RESTORE_GOLDEN: &str = "0ns launch tag=1\n\
     8.000us dispatch_start tag=1\n\
     300.000us signal tag=1\n\
     900.000us restore tag=1\n\
     1.500ms signal tag=1\n\
     1.600ms preempt tag=1\n\
     end=1.600ms tasks=15272 spans=168 span_time=157.174ms\n";

#[test]
fn preempt_restore_trace_matches_pinned_golden() {
    assert_eq!(preempt_restore_trace(), PREEMPT_RESTORE_GOLDEN);
}

/// The rendering of [`faulted_scenario_trace`], pinned with its fixed
/// fault seed. Covers both halves of the determinism contract: the fault
/// injector replays identically for a given seed, and escalation actions
/// (forced drain, kill) land at reproducible instants.
const FAULTED_SCENARIO_GOLDEN: &str = "0ns launch tag=1\n\
     8.000us dispatch_start tag=1\n\
     8.000us note_delayed tag=1\n\
     400.000us signal tag=1\n\
     404.245us cta_wedged tag=1\n\
     500.000us launch tag=2\n\
     508.000us dispatch_start tag=2\n\
     508.000us note_delayed tag=2\n\
     517.908us complete tag=2\n\
     517.908us note_delayed tag=2\n\
     1.200ms force_drain tag=1\n\
     4.000ms kill tag=1\n\
     fault 0ns wedged_exit tag=1\n\
     fault 8.000us note_delayed+40.000us tag=1\n\
     fault 404.245us cta_wedged tag=1\n\
     fault 508.000us note_delayed+40.000us tag=2\n\
     fault 517.908us note_delayed+40.000us tag=2\n\
     end=4.000ms\n";

#[test]
fn faulted_scenario_trace_matches_pinned_golden() {
    assert_eq!(faulted_scenario_trace(), FAULTED_SCENARIO_GOLDEN);
}

// With faults disabled, the fault layer must be invisible: the figure
// documents `FLEP_JSON` writes are pinned byte-for-byte against
// `tests/golden/` (`FLEP_SEED=3 FLEP_REPEATS=1 FLEP_THREADS=1`), last
// regenerated when a persistent batch's work became one noise draw. If
// one of these fails, something perturbed the fault-free event order or
// RNG draw sequence — regenerate the goldens only if that perturbation is
// intentional.

#[test]
fn fig08_json_is_byte_identical_to_pre_fault_golden() {
    let rows = experiments::fig08_hpf_speedups(&GpuConfig::k40(), golden_exp());
    assert_eq!(
        figure_doc("fig08_hpf_speedups", &rows),
        include_str!("golden/fig08_hpf_speedups.json"),
    );
}

#[test]
fn fig09_json_is_byte_identical_to_pre_fault_golden() {
    let curves = experiments::fig09_delay_sweep(&GpuConfig::k40(), golden_exp());
    assert_eq!(
        figure_doc("fig09_delay_sweep", &curves),
        include_str!("golden/fig09_delay_sweep.json"),
    );
}

#[test]
fn fig13_json_is_byte_identical_to_pre_fault_golden() {
    let out = experiments::fig13_14_ffs(&GpuConfig::k40(), golden_exp());
    assert_eq!(
        figure_doc("fig13_ffs_share", &out),
        include_str!("golden/fig13_ffs_share.json"),
    );
}

/// The standalone turnaround of every benchmark at every input class, one
/// line each (`<benchmark> <class> <turnaround ns>`), with a fixed seed per
/// cell. These are the unmodified original-shape grids behind every
/// slowdown/NTT normalization, run under the non-preemptive baseline.
fn standalone_turnarounds() -> String {
    let mut out = String::new();
    for (i, &id) in BenchmarkId::ALL.iter().enumerate() {
        for (j, &class) in InputClass::ALL.iter().enumerate() {
            let seed = 0x5A_0000 + (i * InputClass::ALL.len() + j) as u64;
            let t = experiments::standalone(&GpuConfig::k40(), id, class, seed);
            out.push_str(&format!("{id:?} {class:?} {}\n", t.as_ns()));
        }
    }
    out
}

// The original-kernel path (the hardware dispatcher with no preemption)
// pinned directly: the 24 standalone turnarounds and Fig. 1's MPS co-runs,
// both generated before the dispatcher started refilling a finished CTA's
// slot in place, so they prove that shortcut changes no decision.

#[test]
fn standalone_turnarounds_match_pinned_golden() {
    assert_eq!(
        standalone_turnarounds(),
        include_str!("golden/standalone_turnarounds.txt"),
    );
}

#[test]
fn fig01_json_is_byte_identical_to_golden() {
    let rows = experiments::fig01_mps_slowdown(&GpuConfig::k40(), golden_exp());
    assert_eq!(
        figure_doc("fig01_mps_slowdown", &rows),
        include_str!("golden/fig01_mps_slowdown.json"),
    );
}

#[test]
fn scenario_event_trace_is_seed_deterministic() {
    let a = scenario_trace(7);
    let b = scenario_trace(7);
    assert!(!a.is_empty());
    assert_eq!(a, b, "same seed must give a byte-identical event trace");
}

#[test]
fn scenario_event_trace_depends_on_seed() {
    // Event *ordering* may coincide, but completion times under 20% task
    // noise cannot: different seeds must change the trace.
    assert_ne!(
        scenario_trace(7),
        scenario_trace(8),
        "different seeds must give different noise streams"
    );
}

#[test]
fn corun_is_byte_identical_across_runs() {
    let a = corun_rendering(42);
    let b = corun_rendering(42);
    assert_eq!(a, b, "same seed must give byte-identical co-run results");
}

#[test]
fn corun_depends_on_seed() {
    assert_ne!(corun_rendering(42), corun_rendering(43));
}

#[test]
fn experiment_rows_serialize_identically_across_runs() {
    let a = experiment_json(5);
    let b = experiment_json(5);
    assert_eq!(a, b, "experiment JSON must be byte-identical per seed");
    assert_ne!(a, experiment_json(6), "experiment JSON must track the seed");
}
