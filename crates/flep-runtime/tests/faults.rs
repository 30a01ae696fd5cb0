//! Fault-injection tests for the runtime: directed escalation-ladder
//! scenarios plus `flep-check` properties asserting that under *any*
//! random `FaultPlan` every job still completes (or fails with a
//! structured error), the ladder never livelocks, and fault runs are
//! deterministic per seed.

use flep_gpu_sim::{
    DeviceFaultConfig, DeviceFaultKind, FaultConfig, FaultKind, FaultPlan, GpuConfig, GpuDevice,
    GpuEvent, GridId,
};
use flep_runtime::{
    ClusterConfig, ClusterEvent, ClusterResult, CoRun, CoRunResult, DeviceEventKind, GpuCluster,
    HealthConfig, JobRecord, JobSpec, KernelProfile, Policy, RecoveryAction, RunReport,
    RuntimeError, SystemEvent, SystemWorld, WatchdogConfig,
};
use flep_sim_core::check::{check, CheckConfig};
use flep_sim_core::{
    assume, require, require_eq, RunOutcome, Scheduler, SimRng, SimTime, Simulation, World,
};
use flep_workloads::{Benchmark, BenchmarkId, InputClass};

fn profile(id: BenchmarkId, class: InputClass) -> KernelProfile {
    KernelProfile::of(&Benchmark::get(id), class)
}

fn all_complete(r: &CoRunResult) -> bool {
    r.jobs.iter().all(|j| j.completed.is_some())
}

/// A low-priority long-running victim plus a high-priority latecomer:
/// the canonical preemption pair the ladder has to rescue.
fn victim_pair(faults: FaultConfig) -> CoRunResult {
    CoRun::new(GpuConfig::k40(), Policy::hpf())
        .job(
            JobSpec::new(profile(BenchmarkId::Va, InputClass::Large), SimTime::ZERO)
                .with_priority(1),
        )
        .job(
            JobSpec::new(
                profile(BenchmarkId::Spmv, InputClass::Small),
                SimTime::from_us(200),
            )
            .with_priority(2),
        )
        .with_faults(faults)
        .run()
}

fn count_action(r: &CoRunResult, pred: impl Fn(RecoveryAction) -> bool) -> usize {
    r.recoveries.iter().filter(|e| pred(e.action)).count()
}

#[test]
fn stuck_flag_victim_recovers_via_forced_drain() {
    // The victim never polls the flag, so the flag preempt can never land;
    // the watchdog's forced drain (escalation level 2) must rescue the
    // high-priority job.
    let r = victim_pair(FaultConfig::quiet(11).with_stuck_flag(1.0));
    assert!(all_complete(&r), "jobs: {:?}", r.jobs);
    assert!(r.succeeded(), "errors: {:?}", r.errors);
    assert!(
        count_action(&r, |a| a == RecoveryAction::ForcedDrain) >= 1,
        "recoveries: {:?}",
        r.recoveries
    );
    assert!(r.escalations[1] >= 1, "escalations: {:?}", r.escalations);
    // High-priority job still finishes well before the stuck victim.
    assert!(r.jobs[1].completed.unwrap() < r.jobs[0].completed.unwrap());
}

#[test]
fn wedged_exit_victim_needs_a_kill() {
    // The victim sees the flag but a CTA wedges in its exit path: forced
    // drain cannot help either, only the kill + relaunch rung can.
    let r = victim_pair(FaultConfig::quiet(12).with_stuck_exit(1.0));
    assert!(all_complete(&r), "jobs: {:?}", r.jobs);
    assert!(
        count_action(&r, |a| a == RecoveryAction::Killed) >= 1,
        "recoveries: {:?}",
        r.recoveries
    );
    assert!(r.escalations[2] >= 1, "escalations: {:?}", r.escalations);
    // Task conservation across the kill: the victim re-executes only the
    // discarded tasks, so completed totals still match exactly.
    let expected = [
        Benchmark::get(BenchmarkId::Va)
            .profile(InputClass::Large)
            .tasks,
        Benchmark::get(BenchmarkId::Spmv)
            .profile(InputClass::Small)
            .tasks,
    ];
    for (j, want) in r.jobs.iter().zip(expected) {
        assert_eq!(j.tasks_completed, want, "{} task conservation", j.name);
    }
}

#[test]
fn dropped_preempt_signal_recovered_by_watchdog() {
    // The doorbell write itself is lost: the victim is healthy but never
    // told to leave. From the runtime's viewpoint this is the same hang as
    // a stuck victim, and the same ladder recovers it.
    let r = victim_pair(FaultConfig::quiet(13).with_signal_drop(1.0));
    assert!(all_complete(&r), "jobs: {:?}", r.jobs);
    assert!(!r.recoveries.is_empty());
    assert!(r.escalations[1] + r.escalations[2] >= 1);
}

#[test]
fn dropped_notifications_are_reconciled_from_device_state() {
    // Every host notification is dropped; the watchdog must rebuild the
    // terminal ones from device ground truth or the run never ends.
    let r = victim_pair(FaultConfig::quiet(14).with_note_drop(1.0));
    assert!(all_complete(&r), "jobs: {:?}", r.jobs);
    assert!(
        count_action(&r, |a| a == RecoveryAction::LostNotification) >= 2,
        "recoveries: {:?}",
        r.recoveries
    );
}

#[test]
fn delayed_notifications_only_delay() {
    // Delays (not drops) must not lose or duplicate completions.
    let r = victim_pair(FaultConfig::quiet(15).with_note_delay(1.0, SimTime::from_us(150)));
    assert!(all_complete(&r), "jobs: {:?}", r.jobs);
    assert!(r.succeeded(), "errors: {:?}", r.errors);
}

#[test]
fn transient_launch_rejections_back_off_and_succeed() {
    let r = victim_pair(FaultConfig::quiet(16).with_launch_reject(0.5));
    assert!(all_complete(&r), "jobs: {:?}", r.jobs);
    assert!(
        count_action(&r, |a| matches!(a, RecoveryAction::LaunchRetry(_))) >= 1,
        "recoveries: {:?}",
        r.recoveries
    );
}

#[test]
fn watchdog_scan_has_no_ghost_polls() {
    // Fault-free with the watchdog armed: grids launch and retire, often
    // within one poll interval, and a tick visits only the jobs that hold
    // a grid. A tick visiting a job after its grid retired and its note
    // was handled (a ghost poll) would see device phase `Completed`
    // against live runtime state and synthesize a `LostNotification`
    // recovery — so a clean run must end with an empty recovery log and
    // an untouched escalation ladder.
    let r = CoRun::new(GpuConfig::k40(), Policy::hpf())
        .job(JobSpec::new(
            profile(BenchmarkId::Spmv, InputClass::Small),
            SimTime::ZERO,
        ))
        .with_watchdog(WatchdogConfig::default())
        .run();
    assert!(all_complete(&r), "jobs: {:?}", r.jobs);
    assert!(r.recoveries.is_empty(), "ghost polls: {:?}", r.recoveries);
    assert_eq!(r.escalations, [0, 0, 0]);

    // Single job, no preemption, every host notification dropped: the
    // watchdog's reconciliation poll is the only way the completion can
    // land, and it must land exactly once. A scan that kept visiting the
    // job after the synthesized note unlinked its grid would re-reconcile
    // the same grid on every subsequent tick.
    let r = CoRun::new(GpuConfig::k40(), Policy::hpf())
        .job(JobSpec::new(
            profile(BenchmarkId::Va, InputClass::Small),
            SimTime::ZERO,
        ))
        .with_faults(FaultConfig::quiet(21).with_note_drop(1.0))
        .run();
    assert!(all_complete(&r), "jobs: {:?}", r.jobs);
    assert_eq!(
        count_action(&r, |a| a == RecoveryAction::LostNotification),
        1,
        "one lost completion must be reconciled by exactly one poll: {:?}",
        r.recoveries
    );
}

#[test]
fn fault_log_records_what_fired() {
    let r = victim_pair(FaultConfig::quiet(17).with_stuck_flag(1.0));
    assert!(
        !r.faults.is_empty(),
        "the device fault log should report injected faults"
    );
}

#[test]
fn runaway_looping_job_reports_budget_exhaustion() {
    // A looping job with no horizon never finishes; the event budget must
    // surface as a structured error instead of a panic, with the partial
    // records intact.
    let r = CoRun::new(GpuConfig::k40(), Policy::hpf())
        .job(
            JobSpec::new(profile(BenchmarkId::Nn, InputClass::Trivial), SimTime::ZERO)
                .with_priority(1)
                .looping(),
        )
        .with_event_budget(50_000)
        .run();
    assert!(
        r.errors
            .iter()
            .any(|e| matches!(e, RuntimeError::EventBudgetExhausted { .. })),
        "errors: {:?}",
        r.errors
    );
    assert!(!r.succeeded());
    assert!(
        r.jobs[0].completions > 0,
        "partial records survive the abort"
    );
}

#[test]
fn acceptance_every_high_priority_job_completes_under_stuck_preemption() {
    // The PR's acceptance bar: with injected stuck-preemption faults, 100%
    // of high-priority jobs complete via the escalation ladder and every
    // recovery is reported.
    let faults = FaultConfig::quiet(18)
        .with_stuck_flag(1.0)
        .with_signal_drop(0.3);
    let mut corun = CoRun::new(GpuConfig::k40(), Policy::hpf())
        .job(
            JobSpec::new(profile(BenchmarkId::Va, InputClass::Large), SimTime::ZERO)
                .with_priority(1),
        )
        .with_faults(faults);
    for (i, id) in [BenchmarkId::Spmv, BenchmarkId::Pf, BenchmarkId::Nn]
        .into_iter()
        .enumerate()
    {
        corun = corun.job(
            JobSpec::new(
                profile(id, InputClass::Small),
                SimTime::from_us(150 + 400 * i as u64),
            )
            .with_priority(2),
        );
    }
    let r = corun.run();
    for (i, j) in r.jobs.iter().enumerate().skip(1) {
        assert!(
            j.completed.is_some(),
            "high-priority job {i} never completed"
        );
    }
    assert!(r.jobs[0].completed.is_some(), "victim also completes");
    assert!(
        !r.recoveries.is_empty(),
        "stuck preemptions must be visible as recovery events"
    );
    let escalated: u64 = r.escalations[1] + r.escalations[2];
    assert!(escalated >= 1, "escalations: {:?}", r.escalations);
}

#[test]
fn kill_fires_while_forced_drain_still_in_flight() {
    // Edge case: the forced drain is *dispatched* (rung 2) but the victim
    // wedges in its exit path, so the drain never finishes; the kill rung
    // must fire on the same victim while the drain is still nominally in
    // flight. CFD's single huge tasks make the window wide, and a tight
    // drain deadline makes the ladder climb quickly.
    let wd = flep_runtime::WatchdogConfig {
        drain_deadline: SimTime::from_us(300),
        ..flep_runtime::WatchdogConfig::default()
    };
    let r = CoRun::new(GpuConfig::k40(), Policy::hpf())
        .job(
            JobSpec::new(profile(BenchmarkId::Cfd, InputClass::Large), SimTime::ZERO)
                .with_priority(1),
        )
        .job(
            JobSpec::new(
                profile(BenchmarkId::Spmv, InputClass::Small),
                SimTime::from_us(200),
            )
            .with_priority(2),
        )
        .with_faults(FaultConfig::quiet(21).with_stuck_exit(1.0))
        .with_watchdog(wd)
        .run();
    assert!(all_complete(&r), "jobs: {:?}", r.jobs);
    // The ladder reached both rungs for the same victim, in order:
    // the first ForcedDrain precedes the first Kill.
    let first_drain = r
        .recoveries
        .iter()
        .position(|e| e.action == RecoveryAction::ForcedDrain);
    let first_kill = r
        .recoveries
        .iter()
        .position(|e| e.action == RecoveryAction::Killed);
    let (drain, kill) = (
        first_drain.expect("forced drain fired"),
        first_kill.expect("kill fired"),
    );
    assert!(drain < kill, "recoveries: {:?}", r.recoveries);
    assert!(r.escalations[2] >= 1, "escalations: {:?}", r.escalations);
    // Task conservation across the drain-then-kill pile-up: nothing runs
    // twice, nothing is lost.
    let expected = [
        Benchmark::get(BenchmarkId::Cfd)
            .profile(InputClass::Large)
            .tasks,
        Benchmark::get(BenchmarkId::Spmv)
            .profile(InputClass::Small)
            .tasks,
    ];
    for (j, want) in r.jobs.iter().zip(expected) {
        assert_eq!(j.tasks_completed, want, "{} task conservation", j.name);
    }
}

#[test]
fn wedged_victim_recovering_late_is_not_double_escalated() {
    // Edge case: the victim wedges (so the ladder escalates to a kill),
    // *and* its terminal notifications are delayed — the killed grid's
    // stale completion note arrives after the relaunch. The stale-note
    // guard must drop it: the job completes exactly once, its task total
    // is exact, and the recovery ledger reconciles (each kill is preceded
    // by its own forced drain; histogram counts each drain once).
    let faults = FaultConfig::quiet(22)
        .with_stuck_exit(1.0)
        .with_note_delay(1.0, SimTime::from_us(400));
    let r = victim_pair(faults);
    assert!(all_complete(&r), "jobs: {:?}", r.jobs);
    let drains = count_action(&r, |a| a == RecoveryAction::ForcedDrain);
    let kills = count_action(&r, |a| a == RecoveryAction::Killed);
    assert!(kills >= 1, "recoveries: {:?}", r.recoveries);
    assert!(
        kills <= drains,
        "every kill is preceded by its own drain ({kills} kills, {drains} drains)"
    );
    // Exactly-once completion accounting despite the late stale notes.
    for j in &r.jobs {
        assert_eq!(j.completions, 1, "{} completed exactly once", j.name);
    }
    let expected = [
        Benchmark::get(BenchmarkId::Va)
            .profile(InputClass::Large)
            .tasks,
        Benchmark::get(BenchmarkId::Spmv)
            .profile(InputClass::Small)
            .tasks,
    ];
    for (j, want) in r.jobs.iter().zip(expected) {
        assert_eq!(j.tasks_completed, want, "{} task conservation", j.name);
    }
    assert!(
        r.escalations[1] + r.escalations[2] <= drains as u64,
        "histogram never double-counts an escalated drain"
    );
}

/// Drives a [`SystemWorld`] directly so a test can watch grid ids: it
/// records every grid the runtime launches, and counts device events and
/// delayed notes that arrive for a grid the device has already released
/// while a later grid holds the same slab slot (the low 32 bits of a
/// [`GridId`]).
struct SlotProbe {
    sys: SystemWorld,
    launched: Vec<GridId>,
    stale_events_on_reused_slot: u64,
    stale_notes_on_reused_slot: u64,
}

impl SlotProbe {
    fn reused(&self, grid: GridId) -> bool {
        let dev = self.sys.device();
        dev.grid_phase(grid).is_none()
            && self.launched.iter().any(|&later| {
                later != grid && later.0 as u32 == grid.0 as u32 && dev.grid_phase(later).is_some()
            })
    }
}

impl World for SlotProbe {
    type Event = SystemEvent;

    fn handle(&mut self, now: SimTime, ev: SystemEvent, sched: &mut Scheduler<'_, SystemEvent>) {
        match ev {
            SystemEvent::Gpu(GpuEvent::BatchDone { grid, .. } | GpuEvent::CtaDone { grid, .. })
                if self.reused(grid) =>
            {
                self.stale_events_on_reused_slot += 1;
            }
            SystemEvent::Note(note) if self.reused(note.grid()) => {
                self.stale_notes_on_reused_slot += 1;
            }
            _ => {}
        }
        let launched = &mut self.launched;
        self.sys.dispatch(now, ev, &mut |at, e| {
            if let SystemEvent::Gpu(GpuEvent::LaunchArrived(grid)) = e {
                launched.push(grid);
            }
            sched.schedule_at(at, e);
        });
    }
}

/// Runs `specs` under HPF with a watchdog and `faults`, returning the
/// records, the report, the probe's two counters and the number of grids
/// the device still holds at the end.
fn run_probed(
    specs: Vec<JobSpec>,
    faults: FaultConfig,
    wd: WatchdogConfig,
) -> (Vec<JobRecord>, RunReport, u64, u64, usize) {
    let arrivals: Vec<SimTime> = specs.iter().map(|j| j.arrival).collect();
    let mut device = GpuDevice::new(GpuConfig::k40());
    device.set_fault_plan(Some(FaultPlan::new(faults)));
    let mut sys = SystemWorld::new(device, Policy::hpf(), specs, None);
    sys.set_watchdog(wd);
    let mut sim = Simulation::new(SlotProbe {
        sys,
        launched: Vec::new(),
        stale_events_on_reused_slot: 0,
        stale_notes_on_reused_slot: 0,
    });
    for (idx, at) in arrivals.into_iter().enumerate() {
        sim.schedule_at(at, SystemEvent::Arrival(idx));
    }
    sim.schedule_at(wd.poll_interval, SystemEvent::Watchdog);
    // A lost retirement keeps the watchdog re-arming forever; the budget
    // turns that into a failure instead of a hang.
    let outcome = sim.run_with_budget(1_000_000);
    assert!(
        matches!(outcome, RunOutcome::Completed(_)),
        "run did not drain: {outcome:?}"
    );
    let probe = sim.into_world();
    let held = probe.sys.device().live_grids();
    let (jobs, _, _, report) = probe.sys.into_records();
    (
        jobs,
        report,
        probe.stale_events_on_reused_slot,
        probe.stale_notes_on_reused_slot,
        held,
    )
}

#[test]
fn released_slot_reuse_drops_stale_batch_and_note() {
    // The victim ignores its flag and runs 1 ms batches, so the forced
    // drain cannot finish before the kill rung fires, and the kill lands
    // with its CTAs' `BatchDone` events in flight. Every note is delayed
    // past the next watchdog tick: the watchdog reconciles the kill from
    // device state, the grid is released, and the high-priority grid
    // launched next takes the freed slot. The victim's in-flight batches
    // and its delayed kill note then arrive for a slot a live grid now
    // holds; both must be dropped.
    let wd = WatchdogConfig {
        drain_deadline: SimTime::from_us(300),
        ..WatchdogConfig::default()
    };
    let faults = FaultConfig::quiet(23)
        .with_stuck_flag(1.0)
        .with_note_delay(1.0, SimTime::from_us(400));
    let mut victim = profile(BenchmarkId::Cfd, InputClass::Large);
    victim.total_tasks = 2_000;
    victim.task_cost.base = SimTime::from_ms(1);
    victim.amortize = 1;
    let specs = vec![
        JobSpec::new(victim, SimTime::ZERO).with_priority(1),
        JobSpec::new(
            profile(BenchmarkId::Spmv, InputClass::Small),
            SimTime::from_us(200),
        )
        .with_priority(2),
    ];
    let (jobs, report, stale_events, stale_notes, held) = run_probed(specs, faults, wd);
    let kills = report
        .recoveries
        .iter()
        .filter(|e| e.action == RecoveryAction::Killed)
        .count();
    assert!(kills >= 1, "recoveries: {:?}", report.recoveries);
    assert!(stale_events >= 1, "no stale BatchDone hit a reused slot");
    assert!(stale_notes >= 1, "no stale note hit a reused slot");
    // The grid in the reused slot is unaffected and the ledger
    // reconciles: each job completes once with its exact task count.
    let expected = [
        2_000,
        Benchmark::get(BenchmarkId::Spmv)
            .profile(InputClass::Small)
            .tasks,
    ];
    for (j, want) in jobs.iter().zip(expected) {
        assert_eq!(j.completions, 1, "{} completed exactly once", j.name);
        assert_eq!(j.tasks_completed, want, "{} task conservation", j.name);
    }
    assert!(report.errors.is_empty(), "errors: {:?}", report.errors);
    assert_eq!(held, 0, "every retired grid is released");
}

#[test]
fn lost_note_reconciliation_reads_the_retired_grid_before_release() {
    // Every note is dropped, so the only way the runtime learns of a
    // retirement is the watchdog reading the retired grid's phase and
    // task count from the device. Release happens only once that
    // rebuilt note is processed; releasing any earlier would leave the
    // watchdog nothing to read and the jobs would never finish.
    let specs = vec![
        JobSpec::new(profile(BenchmarkId::Va, InputClass::Large), SimTime::ZERO).with_priority(1),
        JobSpec::new(
            profile(BenchmarkId::Spmv, InputClass::Small),
            SimTime::from_us(200),
        )
        .with_priority(2),
    ];
    let (jobs, report, _, _, held) = run_probed(
        specs,
        FaultConfig::quiet(14).with_note_drop(1.0),
        WatchdogConfig::default(),
    );
    let lost = report
        .recoveries
        .iter()
        .filter(|e| e.action == RecoveryAction::LostNotification)
        .count();
    assert!(lost >= 2, "recoveries: {:?}", report.recoveries);
    let expected = [
        Benchmark::get(BenchmarkId::Va)
            .profile(InputClass::Large)
            .tasks,
        Benchmark::get(BenchmarkId::Spmv)
            .profile(InputClass::Small)
            .tasks,
    ];
    for (j, want) in jobs.iter().zip(expected) {
        assert_eq!(j.completions, 1, "{} completed exactly once", j.name);
        assert_eq!(j.tasks_completed, want, "{} task conservation", j.name);
    }
    assert_eq!(held, 0, "every reconciled grid is released");
}

// -- Routing goldens --------------------------------------------------------

/// FNV-1a 64 over `lines`, each followed by `\n`. Its constants pin it,
/// unlike `DefaultHasher`, so a golden of it holds on every toolchain.
fn fnv1a64<'a>(lines: impl IntoIterator<Item = &'a str>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for line in lines {
        for &b in line.as_bytes().iter().chain(b"\n") {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// What a routing golden pins: how many events a run popped, the digest
/// of their `"{time:?} {event:?}"` lines, and the digest of the run
/// result's `Debug` render.
fn routing_golden(seen: &[String], result: &str) -> String {
    format!(
        "events {}\nstream fnv1a64 {:016x}\nresult fnv1a64 {:016x}\n",
        seen.len(),
        fnv1a64(seen.iter().map(String::as_str)),
        fnv1a64([result]),
    )
}

/// Noiseless Small-input jobs, one per `(benchmark, arrival µs,
/// priority)`.
fn noiseless_jobs(jobs: &[(BenchmarkId, u64, u32)]) -> Vec<JobSpec> {
    jobs.iter()
        .map(|&(id, arrival_us, priority)| {
            let mut kernel = profile(id, InputClass::Small);
            kernel.task_cost.rel_noise = 0.0;
            JobSpec::new(kernel, SimTime::from_us(arrival_us)).with_priority(priority)
        })
        .collect()
}

/// Records every event a [`SystemWorld`] handles through its own
/// [`World`] impl, the path [`CoRun`] runs.
struct Recorded {
    sys: SystemWorld,
    seen: Vec<String>,
}

impl World for Recorded {
    type Event = SystemEvent;

    fn handle(&mut self, now: SimTime, ev: SystemEvent, sched: &mut Scheduler<'_, SystemEvent>) {
        self.seen.push(format!("{now:?} {ev:?}"));
        self.sys.handle(now, ev, sched);
    }
}

/// The faulted co-run the runtime's routing golden pins. Notes, launches
/// and preemptions all go through the fault layer: delayed (and dropped)
/// notes, transient launch rejects, lost and late doorbells, stuck
/// victims, and the watchdog. Noiseless task costs make a grid's CTAs
/// finish their batches at the same instants, so the order follow-ups
/// reach the queue decides the `seq` tie-breaks.
fn routing_corun() -> (Vec<JobSpec>, FaultConfig, WatchdogConfig) {
    let jobs = noiseless_jobs(&[
        (BenchmarkId::Va, 0, 1),
        (BenchmarkId::Mm, 40, 1),
        (BenchmarkId::Spmv, 150, 3),
        (BenchmarkId::Nn, 260, 2),
        (BenchmarkId::Pf, 300, 3),
    ]);
    let faults = FaultConfig::quiet(0x5EED)
        .with_launch_reject(0.3)
        .with_signal_drop(0.2)
        .with_signal_delay(0.3, SimTime::from_us(120))
        .with_stuck_flag(0.3)
        .with_note_drop(0.1)
        .with_note_delay(0.5, SimTime::from_us(90));
    (jobs, faults, WatchdogConfig::default())
}

/// Runs [`routing_corun`] through the world's own [`World`] impl, built
/// and seeded exactly as [`CoRun`] builds its run: every popped event.
fn run_routing_corun() -> Vec<String> {
    let (jobs, faults, wd) = routing_corun();
    let mut device = GpuDevice::new(GpuConfig::k40());
    device.set_span_collection(true);
    device.set_fault_plan(Some(FaultPlan::new(faults)));
    let mut sys = SystemWorld::new(device, Policy::hpf(), jobs.clone(), None);
    sys.set_watchdog(wd);
    let mut sim = Simulation::new(Recorded {
        sys,
        seen: Vec::new(),
    });
    for (idx, job) in jobs.iter().enumerate() {
        sim.schedule_at(job.arrival, SystemEvent::Arrival(idx));
    }
    sim.schedule_at(wd.poll_interval, SystemEvent::Watchdog);
    sim.run();
    sim.into_world().seen
}

/// [`routing_corun`] as a [`CoRun`] with an event budget, busy spans on
/// so residency order is pinned too.
fn routing_corun_result(budget: u64) -> CoRunResult {
    let (jobs, faults, wd) = routing_corun();
    let mut c = CoRun::new(GpuConfig::k40(), Policy::hpf())
        .with_faults(faults)
        .with_watchdog(wd)
        .with_span_trace()
        .with_event_budget(budget);
    for job in jobs {
        c = c.job(job);
    }
    c.run()
}

/// The order a [`SystemWorld`] hands its follow-ups to the queue decides
/// every same-instant tie. The faulted co-run pops exactly the pinned
/// event stream, and [`CoRun`] with a budget of exactly that many events
/// ends with the pinned result, while one event fewer runs out. The
/// golden was generated by the buffered routing path (`dispatch`, then a
/// drain of the pending buffer), which this stream matched event for
/// event.
#[test]
fn sink_routing_matches_pinned_golden() {
    let seen = run_routing_corun();
    let dispatched = seen.len() as u64;
    let result = routing_corun_result(dispatched);
    let fired = |want: fn(FaultKind) -> bool| result.faults.iter().any(|f| want(f.kind));
    assert!(
        fired(|k| matches!(k, FaultKind::NoteDelayed(_))),
        "no note was delayed"
    );
    assert!(
        fired(|k| k == FaultKind::LaunchRejected),
        "no launch was rejected"
    );
    assert!(!result.recoveries.is_empty(), "the watchdog never acted");
    assert_eq!(
        routing_golden(&seen, &format!("{result:?}")),
        include_str!("golden/routing_corun.txt"),
        "co-run routing drifted from the pinned golden"
    );
    let short = routing_corun_result(dispatched - 1);
    assert!(
        matches!(
            short.errors.last(),
            Some(RuntimeError::EventBudgetExhausted { dispatched: d, .. }) if *d == dispatched - 1
        ),
        "CoRun dispatched more events than the pinned stream: {:?}",
        short.errors.last()
    );
}

/// Records every event a [`GpuCluster`] handles through its own [`World`]
/// impl, the path the merged cluster driver runs.
struct RecordedCluster {
    cluster: GpuCluster,
    seen: Vec<String>,
}

impl World for RecordedCluster {
    type Event = ClusterEvent;

    fn handle(&mut self, now: SimTime, ev: ClusterEvent, sched: &mut Scheduler<'_, ClusterEvent>) {
        self.seen.push(format!("{now:?} {ev:?}"));
        self.cluster.handle(now, ev, sched);
    }
}

/// Runs `jobs` on a cluster built from `cfg` through the cluster's own
/// [`World`] impl, seeded as the merged cluster driver seeds its run
/// (arrivals first, then the cluster's own initial events): every popped
/// event and the result.
fn record_cluster(cfg: &ClusterConfig, jobs: &[JobSpec]) -> (Vec<String>, ClusterResult) {
    let (mut cluster, initial) = GpuCluster::new(cfg);
    for spec in jobs {
        cluster.register(spec.clone());
    }
    let mut sim = Simulation::new(RecordedCluster {
        cluster,
        seen: Vec::new(),
    });
    for (idx, job) in jobs.iter().enumerate() {
        sim.schedule_at(job.arrival, ClusterEvent::Arrival(idx));
    }
    for (at, ev) in initial {
        sim.schedule_at(at, ev);
    }
    let end_time = sim.run();
    let RecordedCluster { cluster, seen } = sim.into_world();
    (seen, cluster.into_result(end_time))
}

/// Runs the faulted, health-on fleet the cluster's routing golden pins.
///
/// Launch rejects without retries fail jobs and probes outright; hangs
/// quarantine devices whose resident jobs stay put. A failed probe
/// re-arms its timer after the capped backoff, 32 × 6.25 µs: the
/// watchdog's 200 µs poll. So a probe that fails in a watchdog scan
/// re-arms at the same instant as the watchdog's next tick, a tie only
/// the order of the follow-ups breaks.
fn run_routing_cluster() -> (Vec<String>, ClusterResult) {
    let mut cfg = ClusterConfig::new(2, GpuConfig::k40(), Policy::hpf());
    cfg.watchdog = Some(WatchdogConfig {
        max_launch_retries: 0,
        ..WatchdogConfig::default()
    });
    cfg.grid_faults = Some(
        FaultConfig::quiet(0x52ba_4cd5_e66b_aec1)
            .with_launch_reject(0.4)
            .with_signal_delay(0.3, SimTime::from_us(120))
            .with_note_delay(0.3, SimTime::from_us(90)),
    );
    cfg.health = Some(HealthConfig {
        probe_tasks: 24,
        ..HealthConfig::default()
            .with_threshold(0.5)
            .with_probe_cooldown(SimTime::from_ns(6250))
    });
    cfg.scripted_faults = vec![
        (SimTime::from_us(68), 1, DeviceFaultKind::Hang),
        (SimTime::from_us(315), 0, DeviceFaultKind::Hang),
        (SimTime::from_us(333), 0, DeviceFaultKind::Hang),
    ];
    let jobs = noiseless_jobs(&[
        (BenchmarkId::Va, 44, 1),
        (BenchmarkId::Pf, 270, 2),
        (BenchmarkId::Mm, 263, 0),
        (BenchmarkId::Nn, 34, 2),
        (BenchmarkId::Mm, 232, 2),
        (BenchmarkId::Va, 176, 1),
    ]);
    record_cluster(&cfg, &jobs)
}

/// Runs the fleet the landing golden pins: seeded hangs and losses on
/// two devices quarantine both in turn, so jobs park, and each probe
/// that re-admits a device lands them, often on that same device.
fn run_landing_cluster() -> (Vec<String>, ClusterResult) {
    let mut cfg = ClusterConfig::new(2, GpuConfig::k40(), Policy::hpf());
    cfg.watchdog = Some(WatchdogConfig {
        max_launch_retries: 1,
        ..WatchdogConfig::default()
    });
    cfg.grid_faults = Some(
        FaultConfig::quiet(2136)
            .with_launch_reject(0.5)
            .with_signal_delay(0.3, SimTime::from_us(120))
            .with_note_delay(0.3, SimTime::from_us(90)),
    );
    cfg.device_faults = Some(
        DeviceFaultConfig::quiet(2136)
            .with_hangs(900.0, SimTime::from_us(50))
            .with_losses(200.0, SimTime::from_us(100)),
    );
    cfg.health = Some(HealthConfig {
        probe_tasks: 24,
        ..HealthConfig::default()
            .with_threshold(0.5)
            .with_probe_cooldown(SimTime::from_us(20))
    });
    let jobs = noiseless_jobs(&[
        (BenchmarkId::Nn, 300, 3),
        (BenchmarkId::Spmv, 750, 0),
        (BenchmarkId::Pf, 600, 1),
        (BenchmarkId::Cfd, 250, 0),
        (BenchmarkId::Nn, 1050, 3),
    ]);
    record_cluster(&cfg, &jobs)
}

/// The cluster-level counterpart of [`sink_routing_matches_pinned_golden`]:
/// a fleet whose probes go half-open and settle pops exactly the pinned
/// event stream and ends with the pinned result. Absorbing a half-open
/// shard's settled probe pushes events ahead of that shard's own
/// follow-ups; the staged `BreakerProbe`/`Watchdog` tie makes that order
/// visible, so the golden fails if the cluster routes them the other way
/// round. The golden was generated by the buffered routing path
/// (`dispatch`, then a drain of the pending buffer), which this stream
/// matched event for event.
#[test]
fn cluster_sink_routing_matches_pinned_golden() {
    let (seen, result) = run_routing_cluster();
    assert!(result.reconciles());
    assert!(result.completed > 0 && result.failed > 0, "{result:?}");
    let count = |kind: DeviceEventKind| {
        result
            .device_events
            .iter()
            .filter(|e| e.kind == kind)
            .count()
    };
    assert!(
        count(DeviceEventKind::ProbeLaunched) > 0,
        "no probe went half-open"
    );
    assert!(
        count(DeviceEventKind::Readmitted) > 0,
        "no half-open probe settled"
    );
    let instant = |e: &str| e.split(' ').next().map(str::to_owned);
    assert!(
        seen.windows(2).any(|w| w[0].contains("BreakerProbe")
            && w[1].contains("Watchdog")
            && instant(&w[0]) == instant(&w[1])),
        "no re-armed probe tied a watchdog tick"
    );
    assert_eq!(
        routing_golden(&seen, &format!("{result:?}")),
        include_str!("golden/routing_cluster.txt"),
        "cluster routing drifted from the pinned golden"
    );
}

/// While a shard's breaker is half-open, its follow-ups wait behind what
/// absorbing its settled probe pushes, but a parked job landing on that
/// same shard meanwhile sends them out first, ahead of its own. A
/// re-admitted device is often the least loaded, so the landing fleet
/// pops exactly the pinned stream only if the cluster keeps that order;
/// moving the shard's follow-ups behind every landing instead changes
/// the stream and the result. The golden was generated by the
/// buffered routing path (`dispatch`, then a drain of the pending
/// buffer), which this stream matched event for event.
#[test]
fn cluster_landing_on_a_held_shard_matches_pinned_golden() {
    let (seen, result) = run_landing_cluster();
    assert!(result.reconciles());
    assert!(
        result
            .device_events
            .iter()
            .any(|e| e.kind == DeviceEventKind::Readmitted),
        "no half-open probe settled"
    );
    assert_eq!(
        routing_golden(&seen, &format!("{result:?}")),
        include_str!("golden/routing_landing.txt"),
        "landing-order routing drifted from the pinned golden"
    );
}

/// Writes fresh routing goldens; kept `#[ignore]`d so it only runs on
/// demand (`cargo test -p flep-runtime --test faults -- --ignored regen`).
#[test]
#[ignore = "regenerates the pinned routing goldens"]
fn regen_routing_goldens() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden");
    let seen = run_routing_corun();
    let result = routing_corun_result(seen.len() as u64);
    let corun = routing_golden(&seen, &format!("{result:?}"));
    std::fs::write(format!("{dir}/routing_corun.txt"), corun).expect("write golden");
    let (seen, result) = run_routing_cluster();
    let cluster = routing_golden(&seen, &format!("{result:?}"));
    std::fs::write(format!("{dir}/routing_cluster.txt"), cluster).expect("write golden");
    let (seen, result) = run_landing_cluster();
    let landing = routing_golden(&seen, &format!("{result:?}"));
    std::fs::write(format!("{dir}/routing_landing.txt"), landing).expect("write golden");
}

// -- flep-check properties -----------------------------------------------

/// One generated job: (bench index, arrival_us, priority, seed).
type JobTuple = (u64, u64, u64, u64);

fn gen_jobs(rng: &mut SimRng, max_jobs: u64) -> Vec<JobTuple> {
    let n = rng.uniform_u64(1, max_jobs) as usize;
    (0..n)
        .map(|_| {
            (
                rng.uniform_u64(0, 7),
                rng.uniform_u64(0, 1_999),
                rng.uniform_u64(1, 3),
                rng.u64(),
            )
        })
        .collect()
}

/// Generated fault knobs, as per-mille rates so scalar shrinking applies,
/// nested in two 4-tuples (the shrinker covers tuples up to arity 6):
/// ((seed, reject, sig_drop, sig_delay), (stuck_flag, stuck_exit,
/// note_drop, note_delay)).
type FaultTuple = ((u64, u64, u64, u64), (u64, u64, u64, u64));

fn gen_faults(rng: &mut SimRng) -> FaultTuple {
    (
        (
            rng.u64(),
            // Launch rejections are capped below 1: a job whose every
            // launch is rejected exhausts its bounded retries and
            // *correctly* fails; the completion property targets
            // recoverable faults.
            rng.uniform_u64(0, 400),
            rng.uniform_u64(0, 1000),
            rng.uniform_u64(0, 1000),
        ),
        (
            rng.uniform_u64(0, 1000),
            rng.uniform_u64(0, 1000),
            rng.uniform_u64(0, 1000),
            rng.uniform_u64(0, 1000),
        ),
    )
}

fn faults_of(t: &FaultTuple) -> FaultConfig {
    let &((seed, reject, sig_drop, sig_delay), (stuck_flag, stuck_exit, note_drop, note_delay)) = t;
    let pm = |v: u64| v as f64 / 1000.0;
    FaultConfig::quiet(seed)
        .with_launch_reject(pm(reject))
        .with_signal_drop(pm(sig_drop))
        .with_signal_delay(pm(sig_delay), SimTime::from_us(120))
        .with_stuck_flag(pm(stuck_flag))
        .with_stuck_exit(pm(stuck_exit))
        .with_note_drop(pm(note_drop))
        .with_note_delay(pm(note_delay), SimTime::from_us(90))
}

fn corun_of(jobs: &[JobTuple], spatial: bool, faults: FaultConfig) -> CoRun {
    let policy = if spatial {
        Policy::hpf_spatial()
    } else {
        Policy::hpf()
    };
    let mut corun = CoRun::new(GpuConfig::k40(), policy).with_faults(faults);
    for &(bidx, arrival_us, priority, seed) in jobs {
        let id = BenchmarkId::ALL[(bidx as usize) % BenchmarkId::ALL.len()];
        corun = corun.job(
            JobSpec::new(
                profile(id, InputClass::Trivial),
                SimTime::from_us(arrival_us),
            )
            .with_priority(priority as u32)
            .with_seed(seed),
        );
    }
    corun
}

/// Under any random fault plan, every job either completes with its exact
/// task count or is reported as a structured launch failure — nothing
/// hangs, nothing is silently lost, and the escalation ladder terminates
/// (the run finishes within the event budget).
#[test]
fn any_fault_plan_every_job_completes_or_fails_structurally() {
    check(
        "any_fault_plan_every_job_completes_or_fails_structurally",
        CheckConfig::default(),
        |rng: &mut SimRng| (gen_jobs(rng, 5), rng.bool(), gen_faults(rng)),
        |(jobs, spatial, faults)| {
            assume!(!jobs.is_empty());
            let r = corun_of(jobs, *spatial, faults_of(faults)).run();
            require!(
                !r.errors
                    .iter()
                    .any(|e| matches!(e, RuntimeError::EventBudgetExhausted { .. })),
                "escalation ladder livelocked: {:?}",
                r.errors
            );
            for (i, j) in r.jobs.iter().enumerate() {
                let failed_launch = r.errors.iter().any(|e| {
                    matches!(
                        e,
                        RuntimeError::LaunchRetriesExhausted { job, .. }
                        | RuntimeError::LaunchFailed { job, .. } if *job == i
                    )
                });
                require!(
                    j.completed.is_some() || failed_launch,
                    "job {i} neither completed nor failed structurally: {j:?}"
                );
                if j.completed.is_some() {
                    // Exactly-once task execution across drops, delays,
                    // forced drains, and kills.
                    let id = BenchmarkId::ALL[(jobs[i].0 as usize) % BenchmarkId::ALL.len()];
                    require_eq!(
                        j.tasks_completed,
                        Benchmark::get(id).profile(InputClass::Trivial).tasks,
                        "job {} task conservation",
                        i
                    );
                }
            }
            Ok(())
        },
    );
}

/// High-priority jobs always complete under recoverable fault plans (no
/// launch rejections): the ladder guarantees eventual preemption.
#[test]
fn any_fault_plan_high_priority_always_completes() {
    check(
        "any_fault_plan_high_priority_always_completes",
        CheckConfig::default(),
        |rng: &mut SimRng| {
            let mut faults = gen_faults(rng);
            faults.0 .1 = 0; // no launch rejections: completion must be total
            (gen_jobs(rng, 5), rng.bool(), faults)
        },
        |(jobs, spatial, faults)| {
            assume!(!jobs.is_empty());
            let r = corun_of(jobs, *spatial, faults_of(faults)).run();
            let top = jobs.iter().map(|j| j.2).max().unwrap();
            for (i, j) in r.jobs.iter().enumerate() {
                if jobs[i].2 == top {
                    require!(
                        j.completed.is_some(),
                        "high-priority job {i} never completed; recoveries: {:?}",
                        r.recoveries
                    );
                }
            }
            Ok(())
        },
    );
}

/// Fault runs are deterministic: the same seed and workload replay to the
/// same end time, fault log, recovery log, and escalation histogram.
#[test]
fn same_fault_seed_replays_identically() {
    check(
        "same_fault_seed_replays_identically",
        CheckConfig::with_cases(24),
        |rng: &mut SimRng| (gen_jobs(rng, 4), rng.bool(), gen_faults(rng)),
        |(jobs, spatial, faults)| {
            assume!(!jobs.is_empty());
            let a = corun_of(jobs, *spatial, faults_of(faults)).run();
            let b = corun_of(jobs, *spatial, faults_of(faults)).run();
            require_eq!(a.end_time, b.end_time, "end time");
            require_eq!(a.faults.len(), b.faults.len(), "fault log length");
            require_eq!(a.recoveries, b.recoveries, "recovery log");
            require_eq!(a.escalations, b.escalations, "escalation histogram");
            let done_a: Vec<_> = a.jobs.iter().map(|j| j.completed).collect();
            let done_b: Vec<_> = b.jobs.iter().map(|j| j.completed).collect();
            require_eq!(done_a, done_b, "completion times");
            Ok(())
        },
    );
}

/// The ladder is bounded: a preemption needs at most one forced drain and
/// one kill, so kills never exceed forced drains and every escalated drain
/// shows up in the histogram.
#[test]
fn escalation_ladder_is_bounded() {
    check(
        "escalation_ladder_is_bounded",
        CheckConfig::with_cases(32),
        |rng: &mut SimRng| (gen_jobs(rng, 4), gen_faults(rng)),
        |(jobs, faults)| {
            assume!(!jobs.is_empty());
            let r = corun_of(jobs, false, faults_of(faults)).run();
            let forced = r
                .recoveries
                .iter()
                .filter(|e| e.action == RecoveryAction::ForcedDrain)
                .count() as u64;
            let killed = r
                .recoveries
                .iter()
                .filter(|e| e.action == RecoveryAction::Killed)
                .count() as u64;
            require!(
                killed <= forced,
                "a kill always follows a forced drain ({killed} kills, {forced} drains)"
            );
            require!(
                r.escalations[1] + r.escalations[2] <= forced,
                "histogram counts escalated drains at most once each"
            );
            Ok(())
        },
    );
}
