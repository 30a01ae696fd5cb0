//! Merged-vs-epoch event-order equivalence (DESIGN.md §13).
//!
//! `ClusterRun` steps a run one of two ways: the merged driver (every
//! device's events and the cluster-level ones in one flat sim-core
//! `Simulation`, exact for every run by definition) or — under
//! `StepMode::Auto`, for runs without device faults — the epoch driver
//! (independent device streams with a barrier at every cluster-level
//! timestamp). This suite pins merged == `Auto` on fixed scenarios
//! (same-timestamp cross-device pileups, grid faults, a scripted death),
//! N=1 `CoRun` replay in both modes, thread-count independence of the
//! epoch fan-out, and drives merged == `Auto` through a flep-check
//! property covering migration storms, scripted faults, and grid-fault
//! injection.

use flep_gpu_sim::{DeviceFaultConfig, DeviceFaultKind, FaultConfig, GpuConfig};
use flep_runtime::{
    ClusterConfig, ClusterResult, ClusterRun, CoRun, JobSpec, KernelProfile, Policy, RuntimeError,
    StepMode, WatchdogConfig,
};
use flep_sim_core::check::{check, CheckConfig};
use flep_sim_core::runner::with_threads;
use flep_sim_core::{require, require_eq, SimRng, SimTime};
use flep_workloads::{Benchmark, BenchmarkId, InputClass};

fn profile(id: BenchmarkId, class: InputClass) -> KernelProfile {
    KernelProfile::of(&Benchmark::get(id), class)
}

fn bench_of(idx: u64) -> BenchmarkId {
    BenchmarkId::ALL[(idx as usize) % BenchmarkId::ALL.len()]
}

/// Full-fidelity comparison: the `Debug` rendering covers every field of
/// the result, including per-job records, error/recovery taxonomies, the
/// device-event log, and the end time.
fn render(r: &ClusterResult) -> String {
    format!("{r:?}")
}

fn run_in(mode: StepMode, cfg: ClusterConfig, specs: &[JobSpec]) -> ClusterResult {
    let mut run = ClusterRun::new(cfg).with_step_mode(mode);
    for s in specs {
        run = run.job(s.clone());
    }
    run.run()
}

/// Both modes must agree on this faults-off scenario: four devices, jobs
/// arriving in same-timestamp waves (so several devices interact with the
/// scheduler at one instant), plus a straggler wave while earlier work is
/// still resident.
#[test]
fn step_modes_agree_on_same_timestamp_cross_device_pileups() {
    let mix = [
        BenchmarkId::Va,
        BenchmarkId::Spmv,
        BenchmarkId::Mm,
        BenchmarkId::Md,
    ];
    let mut specs = Vec::new();
    for wave in 0..3u64 {
        for (i, &id) in mix.iter().enumerate() {
            specs.push(
                JobSpec::new(profile(id, InputClass::Small), SimTime::from_us(wave * 400))
                    .with_priority(1 + (i as u32 % 3))
                    .with_seed(wave * 31 + i as u64),
            );
        }
    }
    let cfg = || {
        let mut c = ClusterConfig::new(4, GpuConfig::k40(), Policy::hpf());
        c.watchdog = Some(WatchdogConfig::default());
        c
    };
    let merged = render(&run_in(StepMode::Merged, cfg(), &specs));
    let epoch = render(&run_in(StepMode::Auto, cfg(), &specs));
    assert_eq!(merged, epoch, "epoch diverged from merged");
}

/// N=1 partitioned cluster replays the flat `CoRun` byte-identically, in
/// both modes.
#[test]
fn single_device_partitioned_cluster_replays_corun() {
    let specs = vec![
        JobSpec::new(profile(BenchmarkId::Va, InputClass::Large), SimTime::ZERO).with_priority(1),
        JobSpec::new(
            profile(BenchmarkId::Spmv, InputClass::Small),
            SimTime::from_us(200),
        )
        .with_priority(2),
    ];
    let mut corun = CoRun::new(GpuConfig::k40(), Policy::hpf());
    for s in &specs {
        corun = corun.job(s.clone());
    }
    let solo = corun.run();
    for mode in [StepMode::Merged, StepMode::Auto] {
        let clustered = run_in(
            mode,
            ClusterConfig::new(1, GpuConfig::k40(), Policy::hpf()),
            &specs,
        );
        assert_eq!(solo.jobs, clustered.jobs, "{mode:?} records diverged");
        assert_eq!(solo.end_time, clustered.end_time, "{mode:?} end time");
        assert_eq!(solo.escalations, clustered.escalations);
        assert!(clustered.reconciles());
    }
}

/// Epoch stepping stays exact under grid-level fault injection: those
/// draws, launch retries, and watchdog escalations are all shard-local,
/// so they cross no epoch barrier.
#[test]
fn step_modes_agree_under_grid_faults() {
    let specs: Vec<JobSpec> = (0..6)
        .map(|i| {
            JobSpec::new(
                profile(bench_of(i), InputClass::Small),
                SimTime::from_us(i * 150),
            )
            .with_priority(1 + (i as u32 % 3))
            .with_seed(0xC0FE ^ i)
        })
        .collect();
    let cfg = || {
        let mut c = ClusterConfig::new(3, GpuConfig::k40(), Policy::hpf());
        c.grid_faults = Some(
            FaultConfig::quiet(0xF00D)
                .with_launch_reject(0.3)
                .with_signal_drop(0.2)
                .with_stuck_flag(0.2)
                .with_note_drop(0.2),
        );
        c
    };
    let merged = render(&run_in(StepMode::Merged, cfg(), &specs));
    let epoch = render(&run_in(StepMode::Auto, cfg(), &specs));
    assert_eq!(merged, epoch, "epoch diverged from merged");
}

/// A scripted mid-run device death — migration traffic at an arbitrary
/// instant — is outside the epoch driver's eligibility, so `Auto` must
/// quietly fall back to the (exact) merged driver.
#[test]
fn scripted_death_migration_agrees_in_both_modes() {
    let specs: Vec<JobSpec> = (0..4)
        .map(|i| {
            JobSpec::new(profile(BenchmarkId::Mm, InputClass::Small), SimTime::ZERO)
                .with_priority(1)
                .with_seed(i)
        })
        .collect();
    let cfg = || {
        let mut c = ClusterConfig::new(2, GpuConfig::k40(), Policy::hpf());
        c.scripted_faults = vec![(SimTime::from_us(300), 0, DeviceFaultKind::Death)];
        c
    };
    let merged = render(&run_in(StepMode::Merged, cfg(), &specs));
    assert_eq!(merged, render(&run_in(StepMode::Auto, cfg(), &specs)));
    assert!(merged.contains("Migrated"), "the death migrated no job");
}

/// A budget far too small to finish the run aborts every driver the same
/// structured way: `CoRun` and both cluster step modes return (no hang,
/// no panic) with `EventBudgetExhausted` as their last error, and no job
/// is lost at the abort point.
#[test]
fn tiny_budget_aborts_every_driver_with_a_structured_error() {
    const BUDGET: u64 = 40;
    let specs: Vec<JobSpec> = (0..4)
        .map(|i| {
            JobSpec::new(
                profile(bench_of(i), InputClass::Small),
                SimTime::from_us(i * 100),
            )
            .with_priority(1 + (i as u32 % 2))
        })
        .collect();
    let exhausted = |errors: &[RuntimeError]| {
        matches!(
            errors.last(),
            Some(RuntimeError::EventBudgetExhausted { pending, .. }) if *pending > 0
        )
    };

    let mut corun = CoRun::new(GpuConfig::k40(), Policy::hpf()).with_event_budget(BUDGET);
    for s in &specs {
        corun = corun.job(s.clone());
    }
    let solo = corun.run();
    assert!(exhausted(&solo.errors), "CoRun: {:?}", solo.errors);

    let run = |mode| {
        let mut run = ClusterRun::new(ClusterConfig::new(2, GpuConfig::k40(), Policy::hpf()))
            .with_step_mode(mode)
            .with_event_budget(BUDGET);
        for s in &specs {
            run = run.job(s.clone());
        }
        run.run()
    };
    for mode in [StepMode::Auto, StepMode::Merged] {
        let r = run(mode);
        assert!(exhausted(&r.errors), "{mode:?}: {:?}", r.errors);
        assert!(r.reconciles(), "{mode:?} lost a job at the abort");
    }
}

/// The epoch driver fans a fleet of 8 or more devices out through the
/// runner's worker pool; the worker count changes wall-clock only. Pinned
/// in-process with `with_threads`, so no env replay is needed.
#[test]
fn epoch_fanout_is_byte_identical_at_one_and_four_threads() {
    let run = || {
        let mut cfg = ClusterConfig::new(12, GpuConfig::k40(), Policy::hpf());
        cfg.watchdog = Some(WatchdogConfig::default());
        let mut run = ClusterRun::new(cfg);
        for i in 0..30u64 {
            run = run.job(
                JobSpec::new(
                    profile(bench_of(i), InputClass::Small),
                    SimTime::from_us((i / 12) * 250),
                )
                .with_priority(1 + (i as u32 % 3))
                .with_seed(0x5CA1E ^ i),
            );
        }
        render(&run.run())
    };
    let one = with_threads(1, run);
    assert_eq!(one, with_threads(4, run), "epoch rows depend on threads");
    assert!(one.contains("completed: 30"), "not every job finished");
}

/// One generated job: (bench index, arrival_us, priority, seed).
type JobTuple = (u64, u64, u64, u64);

fn gen_cluster_case(rng: &mut SimRng) -> (u64, u64, Vec<JobTuple>, u64) {
    let devices = rng.uniform_u64(1, 4);
    let n = rng.uniform_u64(1, 7) as usize;
    let jobs = (0..n)
        .map(|_| {
            (
                rng.uniform_u64(0, 7),
                // Quantized arrivals force cross-device same-timestamp
                // pileups instead of making them astronomically unlikely.
                rng.uniform_u64(0, 4) * 250,
                rng.uniform_u64(1, 3),
                rng.u64(),
            )
        })
        .collect();
    // fault_class: 0 = none, 1 = grid faults, 2 = device-fault storm,
    // 3 = scripted death.
    (devices, rng.uniform_u64(0, 3), jobs, rng.u64())
}

fn build_case(devices: u64, fault_class: u64, jobs: &[JobTuple], seed: u64) -> ClusterRun {
    let mut cfg = ClusterConfig::new(devices as u32, GpuConfig::k40(), Policy::hpf());
    cfg.max_migrations = 4;
    match fault_class {
        1 => {
            cfg.grid_faults = Some(
                FaultConfig::quiet(seed)
                    .with_launch_reject(0.25)
                    .with_signal_drop(0.2)
                    .with_stuck_flag(0.15)
                    .with_note_drop(0.15),
            );
        }
        2 => {
            // A storm: high device-fault rates so short runs still see
            // hangs, transient losses, and deaths (i.e. migrations).
            cfg.device_faults = Some(
                DeviceFaultConfig::quiet(seed)
                    .with_hangs(600.0, SimTime::from_us(400))
                    .with_losses(400.0, SimTime::from_us(600))
                    .with_deaths(150.0),
            );
        }
        3 => {
            cfg.scripted_faults = vec![(
                SimTime::from_us(200 + seed % 800),
                (seed % devices) as u32,
                DeviceFaultKind::Death,
            )];
        }
        _ => {}
    }
    let mut run = ClusterRun::new(cfg);
    for &(bidx, arrival_us, priority, jseed) in jobs {
        run = run.job(
            JobSpec::new(
                profile(bench_of(bidx), InputClass::Small),
                SimTime::from_us(arrival_us),
            )
            .with_priority(priority as u32)
            .with_seed(jseed),
        );
    }
    run
}

/// The two drivers agree for *any* cluster: `Auto` takes the epoch
/// driver whenever the run is eligible (no device-level faults) and the
/// merged driver otherwise (migration storms included), and either way
/// it replays the merged global event order.
#[test]
fn partitioned_and_global_event_orders_are_equivalent() {
    check(
        "partitioned_and_global_event_orders_are_equivalent",
        CheckConfig::with_cases(24),
        gen_cluster_case,
        |&(devices, fault_class, ref jobs, seed)| {
            let merged = render(
                &build_case(devices, fault_class, jobs, seed)
                    .with_step_mode(StepMode::Merged)
                    .run(),
            );
            let auto = render(&build_case(devices, fault_class, jobs, seed).run());
            require_eq!(merged, auto, "auto vs merged (fault class {fault_class})");
            require!(!merged.is_empty());
            Ok(())
        },
    );
}
