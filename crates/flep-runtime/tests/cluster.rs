//! Cluster tests: single-device equivalence with `CoRun` (the
//! no-regression anchor), kill-migrate-restart recovery under scripted
//! device faults, task conservation across migrations, the migration
//! budget, graceful drain, and replay determinism.

use flep_gpu_sim::{DeviceFaultConfig, DeviceFaultKind, FaultConfig, GpuConfig};
use flep_runtime::{
    ClusterConfig, ClusterResult, ClusterRun, CoRun, DeviceEventKind, DeviceState, GpuCluster,
    JobSpec, KernelProfile, Policy, RecoveryAction, RuntimeError, StepMode, WatchdogConfig,
};
use flep_sim_core::SimTime;
use flep_workloads::{Benchmark, BenchmarkId, InputClass};

fn profile(id: BenchmarkId, class: InputClass) -> KernelProfile {
    KernelProfile::of(&Benchmark::get(id), class)
}

fn tasks_of(id: BenchmarkId, class: InputClass) -> u64 {
    Benchmark::get(id).profile(class).tasks
}

/// The canonical preemption pair: a long low-priority victim and a
/// high-priority latecomer.
fn pair_specs() -> Vec<JobSpec> {
    vec![
        JobSpec::new(profile(BenchmarkId::Va, InputClass::Large), SimTime::ZERO).with_priority(1),
        JobSpec::new(
            profile(BenchmarkId::Spmv, InputClass::Small),
            SimTime::from_us(200),
        )
        .with_priority(2),
    ]
}

fn cluster_of(devices: u32, specs: Vec<JobSpec>) -> ClusterRun {
    let mut run = ClusterRun::new(ClusterConfig::new(devices, GpuConfig::k40(), Policy::hpf()));
    for s in specs {
        run = run.job(s);
    }
    run
}

fn total_tasks(r: &ClusterResult) -> u64 {
    r.jobs.iter().map(|j| j.tasks_completed).sum()
}

// -- Satellite: N=1 faults-off equivalence --------------------------------

/// A one-device, fault-free cluster is byte-identical to driving the
/// runtime directly: same records, same end time, same escalation
/// histogram. This is what lets every single-device golden stand
/// unchanged while the cluster layer exists above it.
#[test]
fn single_device_cluster_matches_corun_exactly() {
    let mut corun = CoRun::new(GpuConfig::k40(), Policy::hpf());
    for s in pair_specs() {
        corun = corun.job(s);
    }
    let solo = corun.run();
    let clustered = cluster_of(1, pair_specs()).run();
    assert_eq!(solo.jobs, clustered.jobs);
    assert_eq!(solo.end_time, clustered.end_time);
    assert_eq!(solo.escalations, clustered.escalations);
    assert!(clustered.succeeded());
    assert_eq!(clustered.migrations, 0);
    assert!(clustered.device_events.is_empty());
    assert!(clustered.reconciles());
}

/// Same equivalence with the watchdog armed on both sides: the cluster
/// schedules the shard's first tick exactly as `CoRun::run` does.
#[test]
fn single_device_cluster_matches_corun_with_watchdog() {
    let mut corun =
        CoRun::new(GpuConfig::k40(), Policy::hpf()).with_watchdog(WatchdogConfig::default());
    for s in pair_specs() {
        corun = corun.job(s);
    }
    let solo = corun.run();
    let mut cfg = ClusterConfig::new(1, GpuConfig::k40(), Policy::hpf());
    cfg.watchdog = Some(WatchdogConfig::default());
    let mut run = ClusterRun::new(cfg);
    for s in pair_specs() {
        run = run.job(s);
    }
    let clustered = run.run();
    assert_eq!(solo.jobs, clustered.jobs);
    assert_eq!(solo.end_time, clustered.end_time);
    assert_eq!(solo.escalations, clustered.escalations);
}

/// The spatial-HPF policy variant holds too (different preemption paths
/// exercise different shard event shapes).
#[test]
fn single_device_equivalence_spatial() {
    let mut corun = CoRun::new(GpuConfig::k40(), Policy::hpf_spatial());
    for s in pair_specs() {
        corun = corun.job(s);
    }
    let solo = corun.run();
    let mut run = ClusterRun::new(ClusterConfig::new(
        1,
        GpuConfig::k40(),
        Policy::hpf_spatial(),
    ));
    for s in pair_specs() {
        run = run.job(s);
    }
    let clustered = run.run();
    assert_eq!(solo.jobs, clustered.jobs);
    assert_eq!(solo.end_time, clustered.end_time);
}

// -- Placement ------------------------------------------------------------

/// Same-instant submissions spread across idle devices (least-loaded,
/// then lowest device id), so a two-job co-run on a two-device cluster
/// has no preemption at all.
#[test]
fn placement_spreads_across_devices() {
    let r = cluster_of(2, pair_specs()).run();
    assert!(r.succeeded());
    assert!(r.reconciles());
    assert_eq!(r.completed, 2);
    // Each job had a whole device: nobody ever waited behind the victim,
    // so no preemptions were needed anywhere.
    assert_eq!(r.jobs[0].preemptions, 0);
    assert_eq!(r.jobs[1].preemptions, 0);
    assert_eq!(r.escalations, [0, 0, 0]);
}

// -- Device faults --------------------------------------------------------

/// Permanent death mid-run: the resident job is killed, migrated to the
/// survivor, and resumes from its task counter — every task executed
/// exactly once across both incarnations.
#[test]
fn scripted_death_migrates_and_conserves_tasks() {
    let mut cfg = ClusterConfig::new(2, GpuConfig::k40(), Policy::hpf());
    // Device 0 gets the first job (lowest id among idle devices); kill it
    // while that job is mid-flight.
    cfg.scripted_faults = vec![(SimTime::from_ms(2), 0, DeviceFaultKind::Death)];
    let mut run = ClusterRun::new(cfg);
    run = run.job(
        JobSpec::new(profile(BenchmarkId::Va, InputClass::Large), SimTime::ZERO).with_priority(1),
    );
    let r = run.run();
    assert!(r.reconciles());
    assert_eq!(r.completed, 1, "jobs: {:?}", r.jobs);
    assert_eq!(r.migrations, 1, "recoveries: {:?}", r.recoveries);
    assert!(r
        .recoveries
        .iter()
        .any(|e| e.action == (RecoveryAction::Migrated { from: 0, to: 1 })));
    assert!(r.errors.iter().any(|e| matches!(
        e,
        RuntimeError::DeviceLost {
            device: 0,
            permanent: true
        }
    )));
    // Exactly-once task execution across the migration.
    assert_eq!(
        total_tasks(&r),
        tasks_of(BenchmarkId::Va, InputClass::Large)
    );
    // The device log shows the fault and the deregistration.
    assert!(r
        .device_events
        .iter()
        .any(|e| e.kind == DeviceEventKind::Fault(DeviceFaultKind::Death) && e.device == 0));
    assert!(r
        .device_events
        .iter()
        .any(|e| e.kind == DeviceEventKind::Deregistered && e.device == 0));
}

/// A transient loss on a one-device cluster parks the evicted job until
/// the reset completes, then resumes it on the same device. No work lost,
/// none duplicated.
#[test]
fn transient_loss_parks_and_resumes_after_reset() {
    let mut cfg = ClusterConfig::new(1, GpuConfig::k40(), Policy::hpf());
    cfg.device_faults = Some(DeviceFaultConfig::quiet(7)); // reset latency source
    cfg.scripted_faults = vec![(SimTime::from_ms(2), 0, DeviceFaultKind::TransientLoss)];
    let mut run = ClusterRun::new(cfg);
    run = run.job(
        JobSpec::new(profile(BenchmarkId::Va, InputClass::Large), SimTime::ZERO).with_priority(1),
    );
    let r = run.run();
    assert!(r.reconciles());
    assert_eq!(r.completed, 1, "jobs: {:?}", r.jobs);
    assert_eq!(
        total_tasks(&r),
        tasks_of(BenchmarkId::Va, InputClass::Large)
    );
    // Restored re-placement on the same device still counts as a
    // migration (the job was evicted and relaunched from its counter).
    assert_eq!(r.migrations, 1, "recoveries: {:?}", r.recoveries);
    assert!(r
        .device_events
        .iter()
        .any(|e| e.kind == DeviceEventKind::Restored));
    assert!(r.errors.iter().any(|e| matches!(
        e,
        RuntimeError::DeviceLost {
            permanent: false,
            ..
        }
    )));
}

/// A hang loses preempt doorbells but not work: the watchdog escalation
/// ladder (which runs host-side) eventually rescues the waiting
/// high-priority job, and the device rejoins rotation on its own.
#[test]
fn hang_heals_and_ladder_rescues_waiters() {
    let mut cfg = ClusterConfig::new(1, GpuConfig::k40(), Policy::hpf());
    cfg.device_faults = Some(DeviceFaultConfig::quiet(9));
    cfg.scripted_faults = vec![(SimTime::from_us(500), 0, DeviceFaultKind::Hang)];
    let mut run = ClusterRun::new(cfg);
    for s in pair_specs() {
        run = run.job(s);
    }
    let r = run.run();
    assert!(r.reconciles());
    assert_eq!(r.completed, 2, "jobs: {:?}", r.jobs);
    assert_eq!(r.migrations, 0);
    assert!(r
        .device_events
        .iter()
        .any(|e| e.kind == DeviceEventKind::Fault(DeviceFaultKind::Hang)));
    assert!(r
        .device_events
        .iter()
        .any(|e| e.kind == DeviceEventKind::Restored));
    for (j, want) in r.jobs.iter().zip([
        tasks_of(BenchmarkId::Va, InputClass::Large),
        tasks_of(BenchmarkId::Spmv, InputClass::Small),
    ]) {
        assert_eq!(j.tasks_completed, want, "{} task conservation", j.name);
    }
}

/// Exhausting the migration budget fails the job structurally instead of
/// bouncing it forever.
#[test]
fn migration_budget_exhaustion_is_structural() {
    let mut cfg = ClusterConfig::new(1, GpuConfig::k40(), Policy::hpf());
    cfg.max_migrations = 0;
    cfg.scripted_faults = vec![(SimTime::from_ms(2), 0, DeviceFaultKind::TransientLoss)];
    let mut run = ClusterRun::new(cfg);
    run = run.job(
        JobSpec::new(profile(BenchmarkId::Va, InputClass::Large), SimTime::ZERO).with_priority(1),
    );
    let r = run.run();
    assert!(r.reconciles());
    assert_eq!(r.failed, 1);
    assert_eq!(r.completed, 0);
    assert!(r.errors.iter().any(|e| matches!(
        e,
        RuntimeError::MigrationFailed {
            job: 0,
            attempts: 0
        }
    )));
}

/// A job its shard gives up on (every launch rejected until the retries
/// run out) settles as failed under the merged driver, whose per-event
/// settled-job check is tied to the job states by a debug assertion.
#[test]
fn shard_launch_failures_settle_under_the_merged_driver() {
    let mut cfg = ClusterConfig::new(2, GpuConfig::k40(), Policy::hpf());
    cfg.grid_faults = Some(FaultConfig::quiet(7).with_launch_reject(1.0));
    let mut run = ClusterRun::new(cfg).with_step_mode(StepMode::Merged);
    for s in pair_specs() {
        run = run.job(s);
    }
    let r = run.run();
    assert!(r.reconciles());
    assert_eq!((r.completed, r.failed), (0, 2));
    assert!(r
        .errors
        .iter()
        .all(|e| matches!(e, RuntimeError::LaunchRetriesExhausted { .. })));
}

/// A grid that finished but whose completion note was lost, on a device
/// that dies before the watchdog's next tick could reconcile it, is
/// counted done at the evacuation — not migrated and re-run.
#[test]
fn completion_lost_with_its_device_counts_as_done() {
    let mut cfg = ClusterConfig::new(2, GpuConfig::k40(), Policy::hpf());
    cfg.grid_faults = Some(FaultConfig::quiet(7).with_note_drop(1.0));
    cfg.watchdog = Some(WatchdogConfig {
        poll_interval: SimTime::from_ms(10),
        ..WatchdogConfig::default()
    });
    // SPMV Small finishes at 0.6 ms; the device dies at 1 ms.
    cfg.scripted_faults = vec![(SimTime::from_ms(1), 0, DeviceFaultKind::Death)];
    let r = ClusterRun::new(cfg)
        .job(JobSpec::new(
            profile(BenchmarkId::Spmv, InputClass::Small),
            SimTime::ZERO,
        ))
        .run();
    assert!(r.reconciles());
    assert!(r.recoveries.is_empty(), "{:?}", r.recoveries);
    assert_eq!((r.completed, r.failed, r.migrations), (1, 0, 0));
    assert_eq!(
        r.jobs[0].tasks_completed,
        tasks_of(BenchmarkId::Spmv, InputClass::Small)
    );
}

/// When every device is dead before a job arrives, it parks forever and
/// reconciles as stranded — admitted work is never silently dropped.
#[test]
fn arrivals_after_total_loss_strand_visibly() {
    let mut cfg = ClusterConfig::new(1, GpuConfig::k40(), Policy::hpf());
    cfg.scripted_faults = vec![(SimTime::from_us(1), 0, DeviceFaultKind::Death)];
    let mut run = ClusterRun::new(cfg);
    run = run.job(JobSpec::new(
        profile(BenchmarkId::Spmv, InputClass::Small),
        SimTime::from_ms(1),
    ));
    let r = run.run();
    assert!(r.reconciles());
    assert_eq!(r.stranded, 1);
    assert_eq!(r.completed + r.failed, 0);
}

// -- Graceful drain -------------------------------------------------------

#[test]
fn drain_removes_device_from_rotation() {
    let cfg = ClusterConfig::new(2, GpuConfig::k40(), Policy::hpf());
    let (mut cluster, _initial) = GpuCluster::new(&cfg);
    // Draining an idle device deregisters it immediately.
    cluster.drain_device(SimTime::ZERO, 0);
    assert_eq!(cluster.device_state(0), DeviceState::Dead);
    let kinds: Vec<_> = cluster.device_events().iter().map(|e| e.kind).collect();
    assert_eq!(
        kinds,
        vec![DeviceEventKind::DrainStarted, DeviceEventKind::Deregistered]
    );
    // New work avoids the drained device.
    let idx = cluster.submit(
        SimTime::ZERO,
        JobSpec::new(profile(BenchmarkId::Spmv, InputClass::Small), SimTime::ZERO),
        &mut |_, _| {},
    );
    assert_eq!(idx, 0);
    assert_eq!(cluster.device_state(1), DeviceState::Healthy);
    let mut migrated = Vec::new();
    cluster.drain_migrations_into(&mut migrated);
    assert!(migrated.is_empty());
}

#[test]
fn drain_busy_device_deregisters_after_completion() {
    let mut cfg = ClusterConfig::new(2, GpuConfig::k40(), Policy::hpf());
    cfg.watchdog = Some(WatchdogConfig::default());
    let (mut cluster, initial) = GpuCluster::new(&cfg);
    // The queue holds the initial events first, then `submit`'s follow-ups.
    let mut queue: Vec<(SimTime, flep_runtime::ClusterEvent)> = initial;
    cluster.submit(
        SimTime::ZERO,
        JobSpec::new(profile(BenchmarkId::Spmv, InputClass::Small), SimTime::ZERO),
        &mut |at, ev| queue.push((at, ev)),
    );
    cluster.drain_device(SimTime::ZERO, 0);
    assert_eq!(cluster.device_state(0), DeviceState::Draining);
    // Run the event loop by hand until quiescent.
    let mut guard = 0;
    while !queue.is_empty() {
        guard += 1;
        assert!(guard < 1_000_000, "drain never quiesced");
        // Stable min-by-time pop (ties: earliest pushed first).
        let i = (0..queue.len())
            .min_by_key(|&i| (queue[i].0, i))
            .expect("non-empty");
        let (at, ev) = queue.remove(i);
        cluster.dispatch(at, ev, &mut |at, ev| queue.push((at, ev)));
    }
    assert_eq!(cluster.device_state(0), DeviceState::Dead);
    assert!(cluster
        .device_events()
        .iter()
        .any(|e| e.kind == DeviceEventKind::Deregistered && e.device == 0));
}

// -- Determinism ----------------------------------------------------------

/// Seeded device faults replay identically: same records, logs, and end
/// time on every run.
#[test]
fn cluster_fault_runs_replay_identically() {
    let build = || {
        let mut cfg = ClusterConfig::new(4, GpuConfig::k40(), Policy::hpf());
        cfg.device_faults = Some(
            DeviceFaultConfig::quiet(33)
                .with_hangs(40.0, SimTime::from_ms(1))
                .with_losses(25.0, SimTime::from_ms(2))
                .with_deaths(8.0),
        );
        let mut run = ClusterRun::new(cfg);
        for (i, id) in [
            BenchmarkId::Va,
            BenchmarkId::Spmv,
            BenchmarkId::Pf,
            BenchmarkId::Nn,
            BenchmarkId::Mm,
            BenchmarkId::Pl,
        ]
        .into_iter()
        .enumerate()
        {
            run = run.job(
                JobSpec::new(
                    profile(id, InputClass::Small),
                    SimTime::from_us(100 * i as u64),
                )
                .with_priority(1 + (i as u32 % 3)),
            );
        }
        run.run()
    };
    let a = build();
    let b = build();
    assert_eq!(a.jobs, b.jobs);
    assert_eq!(a.end_time, b.end_time);
    assert_eq!(a.recoveries, b.recoveries);
    assert_eq!(a.device_events, b.device_events);
    assert_eq!(a.migrations, b.migrations);
    assert!(a.reconciles());
}

/// Under a seeded storm of all three device-fault classes, every job is
/// still accounted exactly once (completed, failed, or visibly stranded)
/// and completed jobs conserve their task counts.
#[test]
fn device_fault_storm_reconciles() {
    let mut cfg = ClusterConfig::new(3, GpuConfig::k40(), Policy::hpf());
    cfg.device_faults = Some(
        DeviceFaultConfig::quiet(101)
            .with_hangs(60.0, SimTime::from_ms(1))
            .with_losses(40.0, SimTime::from_ms(2))
            .with_deaths(15.0),
    );
    cfg.max_migrations = 16;
    let mut run = ClusterRun::new(cfg);
    let ids = [
        BenchmarkId::Va,
        BenchmarkId::Spmv,
        BenchmarkId::Pf,
        BenchmarkId::Nn,
        BenchmarkId::Mm,
        BenchmarkId::Pl,
        BenchmarkId::Md,
        BenchmarkId::Cfd,
    ];
    for (i, id) in ids.into_iter().enumerate() {
        run = run.job(
            JobSpec::new(
                profile(id, InputClass::Trivial),
                SimTime::from_us(250 * i as u64),
            )
            .with_priority(1 + (i as u32 % 3))
            .with_seed(i as u64),
        );
    }
    let r = run.run();
    assert!(r.reconciles(), "accounting: {r:?}");
    for (i, j) in r.jobs.iter().enumerate() {
        let failed = r.errors.iter().any(|e| {
            matches!(e,
                RuntimeError::MigrationFailed { job, .. }
                | RuntimeError::LaunchRetriesExhausted { job, .. }
                | RuntimeError::LaunchFailed { job, .. } if *job == i)
        });
        if j.completed.is_some() && !failed {
            assert_eq!(
                j.tasks_completed,
                tasks_of(ids[i], InputClass::Trivial),
                "job {i} ({}) task conservation",
                j.name
            );
        }
    }
}
