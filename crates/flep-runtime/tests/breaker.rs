//! Directed circuit-breaker edge cases: the closed → open → half-open
//! machine under precisely staged fault timelines — a probe racing a
//! fresh fault, quarantine landing mid-migration, permanent death
//! never earning re-admission, and a probe rejected at launch whose
//! errors never reach the result. All timings are scripted, so every
//! scenario replays exactly.

use flep_gpu_sim::{DeviceFaultConfig, DeviceFaultKind, FaultConfig, GpuConfig};
use flep_runtime::{
    ClusterConfig, ClusterResult, ClusterRun, DeviceEventKind, HealthConfig, JobSpec,
    KernelProfile, Policy, RuntimeError,
};
use flep_sim_core::SimTime;
use flep_workloads::{Benchmark, BenchmarkId, InputClass};

fn profile(id: BenchmarkId, class: InputClass) -> KernelProfile {
    KernelProfile::of(&Benchmark::get(id), class)
}

/// Two devices, a single-loss-trips-it breaker (threshold 1.0 < loss
/// weight 1.5), 200µs probe cooldown, and a 300µs device reset so probe
/// timing can race the recovery.
fn edge_cfg(seed: u64) -> ClusterConfig {
    let mut cfg = ClusterConfig::new(2, GpuConfig::k40(), Policy::hpf());
    cfg.health = Some(
        HealthConfig::default()
            .with_threshold(1.0)
            .with_probe_cooldown(SimTime::from_us(200)),
    );
    cfg.device_faults =
        Some(DeviceFaultConfig::quiet(seed).with_losses(0.0, SimTime::from_us(300)));
    cfg
}

fn count(r: &ClusterResult, device: u32, kind: DeviceEventKind) -> usize {
    r.device_events
        .iter()
        .filter(|e| e.device == device && e.kind == kind)
        .count()
}

fn event_at(r: &ClusterResult, device: u32, kind: DeviceEventKind) -> Option<SimTime> {
    r.device_events
        .iter()
        .find(|e| e.device == device && e.kind == kind)
        .map(|e| e.at)
}

/// The baseline quarantine → backoff → re-admission lap. The first probe
/// timer (300µs) fires while the device is still resetting (until
/// 400µs), so it must count as a failed attempt and back off; the
/// doubled retry finds the device healthy, launches the grid, and closes
/// the breaker. No placement may land inside the quarantine window.
#[test]
fn probe_backs_off_through_reset_then_readmits() {
    let mut run = ClusterRun::new({
        let mut cfg = edge_cfg(1);
        cfg.scripted_faults = vec![(SimTime::from_us(100), 0, DeviceFaultKind::TransientLoss)];
        cfg
    });
    run = run.job(
        JobSpec::new(profile(BenchmarkId::Va, InputClass::Large), SimTime::ZERO).with_priority(1),
    );
    // A late arrival keeps the run alive well past the expected
    // re-admission (~720µs), since fault plans stop the clock at settle.
    run = run.job(
        JobSpec::new(
            profile(BenchmarkId::Spmv, InputClass::Small),
            SimTime::from_ms(1),
        )
        .with_priority(2),
    );
    let r = run.run();
    assert!(r.reconciles());
    assert_eq!(r.completed, 2, "jobs: {:?}", r.jobs);

    let open = event_at(&r, 0, DeviceEventKind::Quarantined).expect("breaker opened");
    assert_eq!(open, SimTime::from_us(100));
    // Exactly one grid launch: the resetting-device attempt backs off
    // without launching anything.
    assert_eq!(count(&r, 0, DeviceEventKind::ProbeLaunched), 1);
    let readmit = event_at(&r, 0, DeviceEventKind::Readmitted).expect("readmitted");
    // First probe 100+200=300µs races the reset (done 400µs) and fails;
    // the backed-off retry lands at 700µs, after the device healed.
    assert!(
        readmit >= SimTime::from_us(700),
        "readmitted at {readmit} before the backed-off probe"
    );
    // No placement inside the quarantine window.
    for &(at, job, device) in &r.placements {
        assert!(
            device != 0 || at <= open || at >= readmit,
            "job {job} placed on quarantined device 0 at {at}"
        );
    }
    assert_eq!(r.summary.quarantines, 1);
    assert_eq!(r.summary.probes, 1);
    assert_eq!(r.summary.readmissions, 1);
}

/// A fresh hang lands while the probe grid is in flight (half-open): the
/// probation must fail — breaker back to open, harder backoff — and the
/// stale grid's eventual completion must prove nothing. Only the next
/// probe, after the hang heals, re-admits.
#[test]
fn fresh_hang_during_half_open_reopens_the_breaker() {
    let mut cfg = edge_cfg(2);
    // A long probe grid (400 × 5µs tasks) keeps the half-open window
    // wide, and a 500µs hang duration bounds the second outage.
    let health = HealthConfig {
        probe_tasks: 400,
        ..HealthConfig::default()
            .with_threshold(1.0)
            .with_probe_cooldown(SimTime::from_us(200))
    };
    cfg.health = Some(health);
    cfg.device_faults = Some(
        DeviceFaultConfig::quiet(2)
            .with_losses(0.0, SimTime::from_us(300))
            .with_hangs(0.0, SimTime::from_us(500)),
    );
    cfg.scripted_faults = vec![
        // Trips the breaker at 100µs; probe fails at 300µs (resetting),
        // retry launches the grid at 700µs.
        (SimTime::from_us(100), 0, DeviceFaultKind::TransientLoss),
        // ... and the hang lands 2µs into the probe grid.
        (SimTime::from_us(702), 0, DeviceFaultKind::Hang),
    ];
    let mut run = ClusterRun::new(cfg);
    run = run.job(
        JobSpec::new(profile(BenchmarkId::Va, InputClass::Large), SimTime::ZERO).with_priority(1),
    );
    run = run.job(
        JobSpec::new(
            profile(BenchmarkId::Spmv, InputClass::Small),
            SimTime::from_us(1800),
        )
        .with_priority(2),
    );
    let r = run.run();
    assert!(r.reconciles());
    assert_eq!(r.completed, 2, "jobs: {:?}", r.jobs);

    // Two grid launches: the raced one and the one that finally counts.
    assert_eq!(
        count(&r, 0, DeviceEventKind::ProbeLaunched),
        2,
        "events: {:?}",
        r.device_events
    );
    // Exactly one re-admission, and only after the hang healed (1202µs):
    // the raced grid's completion closed nothing.
    assert_eq!(count(&r, 0, DeviceEventKind::Readmitted), 1);
    let readmit = event_at(&r, 0, DeviceEventKind::Readmitted).unwrap();
    assert!(
        readmit > SimTime::from_us(1202),
        "readmitted at {readmit}, inside the second outage"
    );
    // The half-open fault re-opened silently — no second Quarantined
    // event, just a failed probation.
    assert_eq!(r.summary.quarantines, 1);
    assert_eq!(r.summary.probes, 2);
    assert_eq!(r.summary.readmissions, 1);
}

/// Quarantine arrives while a migration is already in flight: device 0
/// trips first (its job migrates to device 1), then device 1 trips with
/// that migrant resident — every device quarantined, so the displaced
/// work parks until the first re-admission lands it. Nothing lost,
/// nothing run on a quarantined device.
#[test]
fn quarantine_during_migration_parks_until_readmission() {
    let mut cfg = edge_cfg(3);
    cfg.scripted_faults = vec![
        (SimTime::from_us(100), 0, DeviceFaultKind::TransientLoss),
        (SimTime::from_us(200), 1, DeviceFaultKind::TransientLoss),
    ];
    let mut run = ClusterRun::new(cfg);
    for i in 0..2u64 {
        run = run.job(
            JobSpec::new(profile(BenchmarkId::Va, InputClass::Large), SimTime::ZERO)
                .with_priority(1 + i as u32),
        );
    }
    run = run.job(
        JobSpec::new(
            profile(BenchmarkId::Spmv, InputClass::Small),
            SimTime::from_us(1200),
        )
        .with_priority(3),
    );
    let r = run.run();
    assert!(r.reconciles());
    assert_eq!(r.completed, 3, "jobs: {:?}", r.jobs);
    assert_eq!(r.stranded, 0);
    // The first loss displaced work onto the survivor before it too
    // tripped.
    assert!(r.migrations >= 1, "recoveries: {:?}", r.recoveries);
    // Both breakers opened and both earned their way back.
    for d in 0..2 {
        assert_eq!(count(&r, d, DeviceEventKind::Quarantined), 1);
        assert_eq!(count(&r, d, DeviceEventKind::Readmitted), 1);
        let open = event_at(&r, d, DeviceEventKind::Quarantined).unwrap();
        let readmit = event_at(&r, d, DeviceEventKind::Readmitted).unwrap();
        for &(at, job, device) in &r.placements {
            assert!(
                device != d || at <= open || at >= readmit,
                "job {job} placed on quarantined device {device} at {at}"
            );
        }
    }
    assert_eq!(r.summary.quarantines, 2);
    assert_eq!(r.summary.readmissions, 2);
}

/// A device that dies permanently after tripping its breaker is never
/// probed and never re-admitted: the pending probe timer finds it dead
/// and drops the attempt on the floor. Work migrates to the survivor and
/// completes there.
#[test]
fn permanent_death_is_never_readmitted() {
    let mut cfg = edge_cfg(4);
    cfg.scripted_faults = vec![
        // Trips the breaker (probe due at 300µs) ...
        (SimTime::from_us(100), 0, DeviceFaultKind::TransientLoss),
        // ... then the device dies before the probe fires.
        (SimTime::from_us(150), 0, DeviceFaultKind::Death),
    ];
    let mut run = ClusterRun::new(cfg);
    run = run.job(
        JobSpec::new(profile(BenchmarkId::Va, InputClass::Large), SimTime::ZERO).with_priority(1),
    );
    run = run.job(
        JobSpec::new(
            profile(BenchmarkId::Spmv, InputClass::Small),
            SimTime::from_us(600),
        )
        .with_priority(2),
    );
    let r = run.run();
    assert!(r.reconciles());
    assert_eq!(r.completed, 2, "jobs: {:?}", r.jobs);
    assert_eq!(count(&r, 0, DeviceEventKind::Quarantined), 1);
    assert_eq!(count(&r, 0, DeviceEventKind::Deregistered), 1);
    // Dead is terminal: no probe is ever launched, nothing re-admits.
    assert_eq!(count(&r, 0, DeviceEventKind::ProbeLaunched), 0);
    assert_eq!(count(&r, 0, DeviceEventKind::Readmitted), 0);
    assert_eq!(r.summary.probes, 0);
    assert_eq!(r.summary.readmissions, 0);
    // Everything after the death runs on the survivor.
    for &(at, job, device) in &r.placements {
        assert!(
            device != 0 || at < SimTime::from_us(150),
            "job {job} placed on dead device 0 at {at}"
        );
    }
}

/// A probe grid rejected at launch: every launch on the fleet is
/// transiently rejected, so the probe (launched on device 0 once it heals
/// from the breaker-tripping loss) retries until its budget runs out, as
/// do the real jobs. The probe has no cluster job, so none of its
/// retries or its exhausted-retries error may reach the result: every
/// error and recovery there names a registered job.
#[test]
fn rejected_probe_leaves_no_errors_or_recoveries_in_the_result() {
    let mut cfg = edge_cfg(5);
    cfg.grid_faults = Some(FaultConfig::quiet(5).with_launch_reject(1.0));
    cfg.scripted_faults = vec![(SimTime::from_us(100), 0, DeviceFaultKind::TransientLoss)];
    let mut run = ClusterRun::new(cfg);
    // The second job arrives late enough to outlive the probe's whole
    // retry ladder, so the run is still going when the probe fails.
    for arrival in [SimTime::ZERO, SimTime::from_ms(2)] {
        run = run.job(JobSpec::new(
            profile(BenchmarkId::Spmv, InputClass::Small),
            arrival,
        ));
    }
    let r = run.run();
    assert!(r.reconciles());
    assert_eq!(r.failed, 2, "jobs: {:?}", r.jobs);
    assert!(r.summary.probes > 0, "events: {:?}", r.device_events);
    let registered = r.jobs.len();
    for e in &r.errors {
        match *e {
            RuntimeError::LaunchFailed { job, .. }
            | RuntimeError::LaunchRetriesExhausted { job, .. }
            | RuntimeError::SwapUnsatisfiable { job }
            | RuntimeError::MigrationFailed { job, .. } => {
                assert!(job < registered, "error names no registered job: {e:?}");
            }
            RuntimeError::EventBudgetExhausted { .. } | RuntimeError::DeviceLost { .. } => {}
        }
    }
    for rec in &r.recoveries {
        assert!(
            rec.job < registered,
            "recovery names no registered job: {rec:?}"
        );
    }
    // The real jobs' own retries do reach the result.
    assert!(r.summary.launch_retries > 0);
}
