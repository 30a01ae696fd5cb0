//! The experiment driver: describe a co-run, execute it, read results.

use flep_gpu_sim::{
    FaultConfig, FaultEvent, FaultPlan, GpuConfig, GpuDevice, SwapManager, SwapStats,
};
use flep_sim_core::{RunOutcome, SimTime, Simulation, Span};

/// Default event budget for a co-run: far above any legitimate experiment
/// (the heaviest FFS horizon runs dispatch a few million events), so the
/// only way to hit it is a genuine event feedback loop — which then aborts
/// with diagnostics instead of hanging the harness.
pub const DEFAULT_EVENT_BUDGET: u64 = 1_000_000_000;

use crate::job::{JobRecord, JobSpec};
use crate::world::{Policy, RecoveryEvent, RuntimeError, SystemEvent, SystemWorld, WatchdogConfig};

/// Splits a budgeted run's outcome into its end time and, when the budget
/// ran out first, the [`RuntimeError::EventBudgetExhausted`] the result
/// reports — the one budget path every driver ([`CoRun`] and each
/// [`ClusterRun`](crate::ClusterRun) step mode) shares.
pub(crate) fn settle_budget(outcome: RunOutcome) -> (SimTime, Option<RuntimeError>) {
    match outcome {
        RunOutcome::Completed(t) => (t, None),
        RunOutcome::BudgetExhausted {
            now,
            dispatched,
            pending,
        } => (
            now,
            Some(RuntimeError::EventBudgetExhausted {
                at: now,
                dispatched,
                pending,
            }),
        ),
    }
}

/// A complete co-run description.
///
/// # Example
///
/// ```
/// use flep_gpu_sim::GpuConfig;
/// use flep_runtime::{CoRun, JobSpec, KernelProfile, Policy};
/// use flep_sim_core::SimTime;
/// use flep_workloads::{Benchmark, BenchmarkId, InputClass};
///
/// let lo = KernelProfile::of(&Benchmark::get(BenchmarkId::Nn), InputClass::Large);
/// let hi = KernelProfile::of(&Benchmark::get(BenchmarkId::Spmv), InputClass::Small);
/// let result = CoRun::new(GpuConfig::k40(), Policy::hpf())
///     .job(JobSpec::new(lo, SimTime::ZERO).with_priority(1))
///     .job(JobSpec::new(hi, SimTime::from_us(10)).with_priority(2))
///     .run();
/// // The high-priority kernel preempts the long-running one and finishes
/// // long before it.
/// let hi_done = result.jobs[1].completed.unwrap();
/// let lo_done = result.jobs[0].completed.unwrap();
/// assert!(hi_done < lo_done);
/// ```
#[derive(Debug)]
pub struct CoRun {
    config: GpuConfig,
    policy: Policy,
    jobs: Vec<JobSpec>,
    horizon: Option<SimTime>,
    swap: Option<SwapManager>,
    span_trace: bool,
    faults: Option<FaultConfig>,
    watchdog: Option<WatchdogConfig>,
    budget: u64,
}

impl CoRun {
    /// Starts an empty co-run under a policy.
    #[must_use]
    pub fn new(config: GpuConfig, policy: Policy) -> Self {
        CoRun {
            config,
            policy,
            jobs: Vec::new(),
            horizon: None,
            swap: None,
            span_trace: false,
            faults: None,
            watchdog: None,
            budget: DEFAULT_EVENT_BUDGET,
        }
    }

    /// Injects a seeded fault plan into the device: lost/delayed preempt
    /// doorbells, victims that stop polling the flag, dropped or delayed
    /// host notifications, transiently rejected launches. Implies the
    /// watchdog (with [`WatchdogConfig::default`]) unless one was set
    /// explicitly — faults without recovery machinery would livelock.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultConfig) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Enables the preemption watchdog: preempt requests carry a deadline
    /// and escalate flag → forced drain → kill + relaunch on expiry. Off
    /// by default so fault-free runs replay an identical event stream.
    #[must_use]
    pub fn with_watchdog(mut self, watchdog: WatchdogConfig) -> Self {
        self.watchdog = Some(watchdog);
        self
    }

    /// Overrides the event budget (default [`DEFAULT_EVENT_BUDGET`]);
    /// exhaustion surfaces as [`RuntimeError::EventBudgetExhausted`] in
    /// the result rather than a panic.
    #[must_use]
    pub fn with_event_budget(mut self, budget: u64) -> Self {
        self.budget = budget;
        self
    }

    /// Records every CTA-residency interval as a [`Span`] in the result.
    /// Off by default so long runs (FFS horizons) don't grow an unbounded
    /// span list; required for [`CoRunResult::gpu_share`], timeline
    /// rendering and [`CoRunResult::busy_totals`], which is folded from
    /// the spans.
    #[must_use]
    pub fn with_span_trace(mut self) -> Self {
        self.span_trace = true;
        self
    }

    /// Adds a job (builder style).
    #[must_use]
    pub fn job(mut self, spec: JobSpec) -> Self {
        self.jobs.push(spec);
        self
    }

    /// Sets an experiment horizon: looping jobs stop re-arriving at this
    /// time and the simulation ends once in-flight work drains.
    #[must_use]
    pub fn horizon(mut self, at: SimTime) -> Self {
        self.horizon = Some(at);
        self
    }

    /// Enables GPUSwap-style device-memory oversubscription: jobs with a
    /// declared working set pay swap-in time when their data is not
    /// resident (§8's planned integration).
    #[must_use]
    pub fn with_swap(mut self, swap: SwapManager) -> Self {
        self.swap = Some(swap);
        self
    }

    /// Executes the co-run to completion.
    ///
    /// Failures that used to panic — device-rejected launches, working
    /// sets that cannot fit, an exhausted event budget — are reported as
    /// [`CoRunResult::errors`]; watchdog interventions as
    /// [`CoRunResult::recoveries`].
    #[must_use]
    pub fn run(self) -> CoRunResult {
        let arrivals: Vec<SimTime> = self.jobs.iter().map(|j| j.arrival).collect();
        let mut device = GpuDevice::new(self.config);
        device.set_span_collection(self.span_trace);
        device.set_fault_plan(self.faults.map(FaultPlan::new));
        // Fault injection without recovery machinery would livelock on the
        // first stuck victim, so faults imply a default-configured
        // watchdog. Fault-free runs keep it off unless explicitly enabled:
        // its poll events would otherwise perturb `end_time`.
        let watchdog = self
            .watchdog
            .or_else(|| self.faults.map(|_| WatchdogConfig::default()));
        let mut world = SystemWorld::new(device, self.policy, self.jobs, self.horizon);
        if let Some(swap) = self.swap {
            world.set_swap(swap);
        }
        if let Some(wd) = watchdog {
            world.set_watchdog(wd);
        }
        let mut sim = Simulation::new(world);
        for (idx, at) in arrivals.into_iter().enumerate() {
            sim.schedule_at(at, SystemEvent::Arrival(idx));
        }
        if let Some(wd) = watchdog {
            sim.schedule_at(wd.poll_interval, SystemEvent::Watchdog);
        }
        let (end_time, budget_error) = settle_budget(sim.run_with_budget(self.budget));
        let swap_stats = sim.world().swap_stats();
        let (jobs, busy_spans, busy_totals, mut report) = sim.into_world().into_records();
        report.errors.extend(budget_error);
        CoRunResult {
            jobs,
            busy_spans,
            busy_totals,
            end_time,
            swap_stats,
            errors: report.errors,
            recoveries: report.recoveries,
            faults: report.faults,
            escalations: report.escalations,
        }
    }
}

/// Results of a co-run.
#[derive(Debug, Clone)]
pub struct CoRunResult {
    /// Per-job records, in submission order.
    pub jobs: Vec<JobRecord>,
    /// CTA-residency spans (owner = job index) for GPU-share accounting.
    /// Empty unless the co-run opted in via [`CoRun::with_span_trace`].
    pub busy_spans: Vec<Span>,
    /// Total busy GPU time per job index, in first-exit order, folded
    /// from `busy_spans`: empty unless [`CoRun::with_span_trace`] is set.
    pub busy_totals: Vec<(u64, SimTime)>,
    /// When the last event fired.
    pub end_time: SimTime,
    /// Swap statistics, when oversubscription was enabled.
    pub swap_stats: Option<SwapStats>,
    /// Structured runtime failures (formerly panics), in occurrence order.
    pub errors: Vec<RuntimeError>,
    /// Watchdog recovery actions, in occurrence order.
    pub recoveries: Vec<RecoveryEvent>,
    /// Faults the device's injection plan fired (empty without
    /// [`CoRun::with_faults`]).
    pub faults: Vec<FaultEvent>,
    /// Preemption-drain outcomes by the escalation level they needed:
    /// `[flag, forced drain, kill]`.
    pub escalations: [u64; 3],
}

impl CoRunResult {
    /// Job `idx`'s share of all busy GPU time within `[from, to)`.
    /// Requires [`CoRun::with_span_trace`]; returns 0 otherwise.
    #[must_use]
    pub fn gpu_share(&self, idx: usize, from: SimTime, to: SimTime) -> f64 {
        let total: SimTime = self.busy_spans.iter().map(|s| s.clipped(from, to)).sum();
        let own: SimTime = self
            .busy_spans
            .iter()
            .filter(|s| s.owner == idx as u64)
            .map(|s| s.clipped(from, to))
            .sum();
        own.ratio(total)
    }

    /// The structured recovery tally of this run — the shared
    /// [`RecoverySummary`](flep_metrics::RecoverySummary) counters folded
    /// from [`CoRunResult::recoveries`], replacing per-test ad-hoc
    /// counting.
    #[must_use]
    pub fn recovery_summary(&self) -> flep_metrics::RecoverySummary {
        crate::cluster::summarize_recoveries(&self.recoveries)
    }

    /// True when the run finished without structured errors (individual
    /// jobs may still have been recovered by the watchdog — see
    /// [`CoRunResult::recoveries`]).
    #[must_use]
    pub fn succeeded(&self) -> bool {
        self.errors.is_empty()
    }
}
