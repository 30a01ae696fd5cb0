//! The FLEP runtime engine (§5): kernel interception, execution logging,
//! and the preemption/scheduling decision loop, co-simulated with the GPU
//! device.

use std::fmt;

use flep_gpu_sim::{
    CollectorHarness, FaultEvent, GpuDevice, GpuEvent, GpuHarness, GridId, GridPhase,
    HostNotification, LaunchError, PreemptSignal, SwapManager, SwapStats,
};
use flep_perfmodel::OverheadProfiler;
use flep_sim_core::{Scheduler, SimTime, Span, World};

use crate::job::{JobRecord, JobSpec, RepeatMode};
use crate::poll::PollWheel;

/// Watchdog configuration: how long a preempt request may go unanswered
/// before the runtime escalates, and how launch retries back off.
///
/// The escalation ladder (tentpole of the robustness work):
///
/// 1. **Flag preempt** — the normal path: write the pinned flag, wait for
///    the victim's CTAs to drain at their next polls.
/// 2. **Forced drain** (at `signalled_at + drain_deadline`) — the
///    kernel-slicing-style fallback: evict at batch boundaries below the
///    poll, which works even when the victim never reads the flag.
/// 3. **Kill + relaunch** (at `signalled_at + 2 * drain_deadline`) —
///    evict unconditionally and resume later from the saved task counter
///    (FLEP's task-pulling makes task granularity the natural resume
///    point, so only the killed in-flight batches are re-executed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchdogConfig {
    /// How often the watchdog wakes to check deadlines and reconcile
    /// runtime state against the device.
    pub poll_interval: SimTime,
    /// Drain deadline per escalation level (see type docs).
    pub drain_deadline: SimTime,
    /// Bounded retry count for transiently rejected launches.
    pub max_launch_retries: u32,
    /// Base of the exponential launch-retry backoff (doubles per attempt).
    pub retry_backoff: SimTime,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig {
            poll_interval: SimTime::from_us(200),
            drain_deadline: SimTime::from_ms(2),
            max_launch_retries: 12,
            retry_backoff: SimTime::from_us(20),
        }
    }
}

/// Structured runtime failures, surfaced through
/// [`crate::CoRunResult::errors`] instead of panics on the hot path.
#[derive(Debug, Clone, PartialEq)]
pub enum RuntimeError {
    /// The device permanently rejected a job's launch (invalid shape for
    /// this device); the job is marked failed and never completes.
    LaunchFailed {
        /// Job index.
        job: usize,
        /// The device's rejection.
        error: LaunchError,
    },
    /// A transiently rejected launch exhausted its bounded retries.
    LaunchRetriesExhausted {
        /// Job index.
        job: usize,
        /// Attempts made before giving up.
        attempts: u32,
    },
    /// A job's declared working set can never fit in device memory, so
    /// swapping cannot make the launch possible.
    SwapUnsatisfiable {
        /// Job index.
        job: usize,
    },
    /// The co-run exceeded its event budget — a runaway event feedback
    /// loop (or an unbounded looping workload without a horizon).
    EventBudgetExhausted {
        /// Virtual time when the budget ran out.
        at: SimTime,
        /// Events dispatched up to that point.
        dispatched: u64,
        /// Events still pending in the queue.
        pending: usize,
    },
    /// A whole device left the cluster: transient loss (it rejoins after
    /// the reset latency) or permanent death. Every grid resident on it
    /// was evicted and handed to the migration path.
    DeviceLost {
        /// The device that was lost.
        device: u32,
        /// Whether the loss is permanent (death) or transient (reset).
        permanent: bool,
    },
    /// A migrated job exhausted the cluster's migration budget (or no
    /// surviving device could host it) and was abandoned.
    MigrationFailed {
        /// Cluster job index.
        job: usize,
        /// Migration attempts made before giving up.
        attempts: u32,
    },
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::LaunchFailed { job, error } => {
                write!(f, "job {job}: launch permanently rejected: {error}")
            }
            RuntimeError::LaunchRetriesExhausted { job, attempts } => {
                write!(
                    f,
                    "job {job}: launch still rejected after {attempts} attempts"
                )
            }
            RuntimeError::SwapUnsatisfiable { job } => {
                write!(f, "job {job}: working set exceeds device memory")
            }
            RuntimeError::EventBudgetExhausted {
                at,
                dispatched,
                pending,
            } => write!(
                f,
                "event budget exhausted at {at} ({dispatched} dispatched, {pending} pending)"
            ),
            RuntimeError::DeviceLost { device, permanent } => {
                let kind = if *permanent { "died" } else { "reset" };
                write!(f, "device {device} {kind}: resident grids evicted")
            }
            RuntimeError::MigrationFailed { job, attempts } => {
                write!(
                    f,
                    "job {job}: abandoned after {attempts} migration attempts"
                )
            }
        }
    }
}

impl std::error::Error for RuntimeError {}

/// A recovery the watchdog performed on a job's behalf.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryAction {
    /// Escalation level 2: forced drain at batch boundaries.
    ForcedDrain,
    /// Escalation level 3: kill + relaunch from the saved task counter.
    Killed,
    /// A terminal device notification never arrived; the watchdog rebuilt
    /// it from device state.
    LostNotification,
    /// A transiently rejected launch was scheduled for retry (attempt
    /// number carried).
    LaunchRetry(u32),
    /// The cluster killed the job's device-resident state and relaunched
    /// it on a survivor, resuming from the saved task counter.
    Migrated {
        /// Device the job was evicted from.
        from: u32,
        /// Device it was relaunched on.
        to: u32,
    },
}

/// One watchdog recovery event, in the order they happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryEvent {
    /// When the recovery action was taken.
    pub at: SimTime,
    /// The job it acted for.
    pub job: usize,
    /// What was done.
    pub action: RecoveryAction,
}

/// The scheduling policy the runtime enforces.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Policy {
    /// §5.2.1: highest-priority-first with shortest-remaining-time among
    /// equal priorities, preempting only when the switch pays for the
    /// preemption overhead.
    Hpf {
        /// Yield only as many SMs as the waiting kernel needs when it does
        /// not fill the device (spatial preemption); `false` always yields
        /// everything (temporal).
        spatial: bool,
        /// Include the profiled preemption overhead in the preempt-or-not
        /// comparison (the paper does; `false` is the ablation).
        overhead_aware: bool,
        /// Override the number of SMs yielded on a spatial preemption
        /// (Fig. 16's sweep). `None` yields exactly what the waiting grid
        /// needs. Values at or above the SM count degrade to temporal.
        forced_yield: Option<u32>,
    },
    /// §5.2.2: fairness-first weighted round-robin under an overhead
    /// budget. Weights are the jobs' priorities.
    Ffs {
        /// The `max_overhead` constraint bounding context-switch frequency.
        max_overhead: f64,
    },
    /// Baseline: launch original kernels immediately; the device FIFO does
    /// the rest (what MPS gives you).
    MpsBaseline,
    /// Baseline: no preemption, but launch waiting kernels shortest-
    /// predicted-first when the device frees up (§6.3.2's "kernel
    /// reordering").
    Reordering,
}

impl Policy {
    /// The paper's default HPF configuration (temporal, overhead-aware).
    #[must_use]
    pub fn hpf() -> Policy {
        Policy::Hpf {
            spatial: false,
            overhead_aware: true,
            forced_yield: None,
        }
    }

    /// HPF with spatial preemption enabled.
    #[must_use]
    pub fn hpf_spatial() -> Policy {
        Policy::Hpf {
            spatial: true,
            overhead_aware: true,
            forced_yield: None,
        }
    }

    /// HPF with spatial preemption yielding a fixed SM count (Fig. 16).
    #[must_use]
    pub fn hpf_spatial_yielding(sms: u32) -> Policy {
        Policy::Hpf {
            spatial: true,
            overhead_aware: true,
            forced_yield: Some(sms),
        }
    }
}

/// Lifecycle of a job inside the runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JobState {
    /// Not yet arrived.
    Future,
    /// Arrived, waiting in a priority queue (CPU state S2).
    Queued,
    /// Granted the GPU; a grid is launched or running (CPU state S3).
    Running,
    /// Granted the GPU spatially alongside a victim that keeps running.
    RunningShared,
    /// Signalled to preempt; waiting for its CTAs to drain.
    Draining,
    /// A spatial victim: keeps running on its remaining SMs while another
    /// job uses the yielded ones.
    SharedVictim,
    /// All invocations finished.
    Done,
}

/// Internal per-job state: the §5.1 execution-logging triplet plus launch
/// bookkeeping.
#[derive(Debug)]
struct Job {
    spec: JobSpec,
    state: JobState,
    /// `T_e`: predicted duration, set once at arrival.
    te: SimTime,
    /// `T_r`: predicted remaining execution time.
    tr: SimTime,
    /// `T_w`: accumulated waiting time.
    tw: SimTime,
    /// When the current waiting period began.
    wait_since: Option<SimTime>,
    /// Tasks completed across preemptions (current invocation).
    tasks_done: u64,
    /// The live grid, if any.
    grid: Option<GridId>,
    /// When the preemption signal was sent (drain-latency sample start).
    signalled_at: Option<SimTime>,
    /// When the current grant began (for live `T_r` estimation).
    granted_at: Option<SimTime>,
    /// Completed invocations.
    completions: u64,
    /// Relaunch counter (perturbs the seed per resume).
    launches: u64,
    record: JobRecord,
    /// FFS: epoch generation, to ignore stale epoch-expiry events.
    epoch_gen: u64,
    /// Current escalation level of the in-flight preemption:
    /// 0 = flag, 1 = forced drain, 2 = killed.
    escalation: u8,
    /// SMs the current preemption signal asked the job to yield (the
    /// watchdog's compliance probe range).
    signal_sms: u32,
    /// Consecutive transiently rejected launch attempts.
    retry_attempts: u32,
    /// Earliest time the next launch retry may go out (backoff gate).
    retry_after: Option<SimTime>,
}

impl Job {
    /// Fresh runtime state for a spec (`T_e` from the prediction or the
    /// wave model; everything else at its arrival defaults).
    fn from_spec(spec: JobSpec, config: &flep_gpu_sim::GpuConfig) -> Job {
        let te = spec
            .predicted
            .unwrap_or_else(|| spec.profile.estimate_duration(config));
        let record = JobRecord {
            name: spec.profile.name.clone(),
            priority: spec.priority,
            arrival: spec.arrival,
            ..JobRecord::default()
        };
        // A migrated incarnation resumes at the saved task counter; its
        // remaining-time prediction shrinks by the fraction already done.
        let resume = spec.resume_from.min(spec.profile.total_tasks);
        let tr = if resume == 0 {
            te
        } else {
            let frac =
                (spec.profile.total_tasks - resume) as f64 / spec.profile.total_tasks.max(1) as f64;
            te.scale(frac)
        };
        Job {
            spec,
            state: JobState::Future,
            te,
            tr,
            tw: SimTime::ZERO,
            wait_since: None,
            tasks_done: resume,
            grid: None,
            signalled_at: None,
            completions: 0,
            launches: 0,
            granted_at: None,
            record,
            epoch_gen: 0,
            escalation: 0,
            signal_sms: 0,
            retry_attempts: 0,
            retry_after: None,
        }
    }

    /// Waiting and eligible to launch now (any retry backoff has passed).
    fn is_ready(&self, now: SimTime) -> bool {
        self.state == JobState::Queued && self.retry_after.is_none_or(|t| t <= now)
    }

    fn remaining_tasks(&self) -> u64 {
        self.spec.profile.total_tasks - self.tasks_done
    }

    fn begin_wait(&mut self, now: SimTime) {
        if self.wait_since.is_none() {
            self.wait_since = Some(now);
        }
    }

    fn end_wait(&mut self, now: SimTime) {
        if let Some(since) = self.wait_since.take() {
            let waited = now.saturating_sub(since);
            self.tw += waited;
            self.record.waiting += waited;
        }
    }
}

/// Events circulating in the system simulation.
#[derive(Debug)]
pub enum SystemEvent {
    /// A device-internal event.
    Gpu(GpuEvent),
    /// Job `idx` arrives (its host process reaches the launch site).
    Arrival(usize),
    /// FFS: job `idx`'s epoch of generation `gen` expires.
    EpochEnd {
        /// Job index.
        idx: usize,
        /// Epoch generation, to ignore stale timers.
        gen: u64,
    },
    /// Watchdog poll tick: reconcile runtime state against the device and
    /// escalate overdue preemptions. Only scheduled when a watchdog is
    /// configured, so fault-free runs see an identical event stream.
    Watchdog,
    /// The backoff for job `idx`'s transiently rejected launch expired.
    RetryLaunch {
        /// Job index.
        idx: usize,
    },
    /// A fault-delayed host notification reaching the runtime at its
    /// deferred delivery time.
    Note(HostNotification),
}

/// The co-simulated system: GPU device + FLEP runtime + workload arrivals.
#[derive(Debug)]
pub struct SystemWorld {
    device: GpuDevice,
    policy: Policy,
    jobs: Vec<Job>,
    /// Index of the job currently granted the GPU (exclusively).
    gpu_job: Option<usize>,
    /// Spatial victims still running alongside `gpu_job`.
    shared_victims: Vec<usize>,
    /// True while a temporal preemption drain is in flight.
    draining: bool,
    /// Per-job preemption-overhead profiles (§4.2).
    profilers: Vec<OverheadProfiler>,
    /// FFS rotation cursor.
    ffs_cursor: usize,
    /// Experiment horizon for looping jobs.
    horizon: Option<SimTime>,
    /// Optional GPUSwap-style working-set manager (§8 integration).
    swap: Option<SwapManager>,
    /// Preemption watchdog, when enabled (always under fault injection).
    watchdog: Option<WatchdogConfig>,
    /// Structured runtime failures, in occurrence order.
    errors: Vec<RuntimeError>,
    /// Watchdog recoveries, in occurrence order.
    recoveries: Vec<RecoveryEvent>,
    /// Preemption-drain outcomes by escalation level reached:
    /// `[flag, forced drain, kill]`.
    escalations: [u64; 3],
    /// Follow-up events produced while handling the current one, drained
    /// by the driver (or an embedding world) after every [`Self::dispatch`]
    /// call. Buffering instead of scheduling directly decouples the
    /// runtime from the engine's `Scheduler`, so a frontend with its own
    /// event type can embed the runtime; drain order equals push order, so
    /// `(time, seq)` tie-breaks — and every golden trace — are unchanged.
    pending: Vec<(SimTime, SystemEvent)>,
    /// Indices of jobs not yet `Done`, in ascending order. The scheduling
    /// and watchdog scans iterate this instead of the full job vector, so
    /// a serving frontend that submits tens of thousands of batch jobs
    /// over a run pays O(active) per decision rather than O(ever
    /// submitted). Ascending order keeps every index-order tie-break
    /// identical to the full-vector loops this replaced.
    active: Vec<usize>,
    /// Completion log `(time, job)`, appended on every completed
    /// invocation; drained by embedding frontends to observe batch
    /// completions without scanning the records.
    completed_log: Vec<(SimTime, usize)>,
    /// Terminal failures `(time, job)` — jobs retired without completing
    /// (permanent launch rejection, exhausted retries, unsatisfiable
    /// working set). Frontends must see these or a failed batch would
    /// leave its tenant waiting forever.
    failed_log: Vec<(SimTime, usize)>,
    /// Whether a watchdog tick is currently scheduled (the ladder must be
    /// re-armed when a job is submitted after the last one finished).
    watchdog_armed: bool,
    /// Jobs currently holding a live grid — the coalesced poll wheel a
    /// watchdog tick fans out over (DESIGN.md §12). Registered on grid
    /// launch, deregistered on retire/evict; ascending-index iteration
    /// replays exactly the order of the full active-list scan it
    /// replaced.
    poll_wheel: PollWheel,
    /// Reusable event-collection harness for [`Self::dispatch`] /
    /// [`Self::submit`] — taken at entry, restored after routing, so the
    /// per-event hot path performs no Vec allocations.
    scratch: CollectorHarness,
    /// Reusable harness for synchronous same-instant notification
    /// processing inside [`Self::route_harness`].
    scratch_sync: CollectorHarness,
    /// Reusable note staging buffer for [`Self::route_harness`].
    scratch_notes: Vec<(SimTime, HostNotification)>,
}

/// One job evicted by [`SystemWorld::decommission`]: everything the
/// cluster layer needs to relaunch it on a surviving device.
#[derive(Debug)]
pub struct EvictedJob {
    /// The job's index in *this* world (the cluster maps it back to its
    /// own job table).
    pub idx: usize,
    /// The spec as submitted to this world.
    pub spec: JobSpec,
    /// Absolute tasks completed so far (including any earlier
    /// incarnations' `resume_from` offset) — the migration resume point.
    pub tasks_done: u64,
    /// This incarnation's partial record, for cross-device aggregation.
    pub record: JobRecord,
}

/// Everything a finished run hands back ([`SystemWorld::into_records`]):
/// per-job records, device busy spans, per-owner `(tag, busy)` totals
/// folded from those spans, and the robustness report.
pub type RunRecords = (Vec<JobRecord>, Vec<Span>, Vec<(u64, SimTime)>, RunReport);

/// Robustness telemetry extracted alongside the job records after a run.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Structured runtime failures, in occurrence order.
    pub errors: Vec<RuntimeError>,
    /// Watchdog recoveries, in occurrence order.
    pub recoveries: Vec<RecoveryEvent>,
    /// Faults the device's injection plan fired (empty without a plan).
    pub faults: Vec<FaultEvent>,
    /// Preemption-drain outcomes by escalation level reached:
    /// `[flag, forced drain, kill]`.
    pub escalations: [u64; 3],
}

impl SystemWorld {
    /// Builds the world from job specs.
    #[must_use]
    pub fn new(
        device: GpuDevice,
        policy: Policy,
        specs: Vec<JobSpec>,
        horizon: Option<SimTime>,
    ) -> Self {
        let jobs: Vec<Job> = specs
            .into_iter()
            .map(|spec| Job::from_spec(spec, device.config()))
            .collect();
        let n = jobs.len();
        SystemWorld {
            device,
            policy,
            jobs,
            gpu_job: None,
            shared_victims: Vec::new(),
            draining: false,
            profilers: (0..n).map(|_| OverheadProfiler::new()).collect(),
            ffs_cursor: 0,
            horizon,
            swap: None,
            watchdog: None,
            errors: Vec::new(),
            recoveries: Vec::new(),
            escalations: [0; 3],
            pending: Vec::new(),
            active: (0..n).collect(),
            completed_log: Vec::new(),
            failed_log: Vec::new(),
            watchdog_armed: false,
            poll_wheel: PollWheel::default(),
            scratch: CollectorHarness::new(),
            scratch_sync: CollectorHarness::new(),
            scratch_notes: Vec::new(),
        }
    }

    /// Enables the preemption watchdog. The driver must also schedule the
    /// first [`SystemEvent::Watchdog`] tick; every tick re-arms itself
    /// until all jobs are done, and a later [`Self::submit`] re-arms it.
    pub fn set_watchdog(&mut self, cfg: WatchdogConfig) {
        self.watchdog = Some(cfg);
        self.watchdog_armed = true;
    }

    /// Submits a job dynamically at virtual time `now`: the serving
    /// frontend's dispatch hook. The job enters the waiting queue
    /// immediately (no [`SystemEvent::Arrival`] needed), a scheduling
    /// decision runs — so a higher-priority submission preempts the
    /// running grid through the normal HPF path — and the watchdog is
    /// re-armed if its ladder had wound down. Returns the job's index.
    ///
    /// Follow-up events land in the pending buffer; the embedding world
    /// must drain them via [`Self::for_each_pending`].
    pub fn submit(&mut self, now: SimTime, spec: JobSpec) -> usize {
        let idx = self.jobs.len();
        let mut job = Job::from_spec(spec, self.device.config());
        job.state = JobState::Queued;
        job.begin_wait(now);
        self.jobs.push(job);
        self.profilers.push(OverheadProfiler::new());
        self.active.push(idx);
        if let Some(wd) = self.watchdog {
            if !self.watchdog_armed {
                self.watchdog_armed = true;
                self.pending
                    .push((now + wd.poll_interval, SystemEvent::Watchdog));
            }
        }
        let mut harness = std::mem::take(&mut self.scratch);
        self.reschedule(now, &mut harness);
        self.route_harness(now, &mut harness);
        self.scratch = harness;
        idx
    }

    /// Enables working-set swapping: launches whose declared working set
    /// is not device-resident pay the swap-in time as launch latency.
    pub fn set_swap(&mut self, swap: SwapManager) {
        self.swap = Some(swap);
    }

    /// Swap statistics, if swapping is enabled.
    #[must_use]
    pub fn swap_stats(&self) -> Option<SwapStats> {
        self.swap.as_ref().map(SwapManager::stats)
    }

    /// Extracts the per-job records and robustness telemetry after the run.
    /// Busy totals are folded from the device's spans, per owner in
    /// first-exit order, so both are empty when span collection is off.
    #[must_use]
    pub fn into_records(self) -> RunRecords {
        let spans = self.device.busy_spans().to_vec();
        let mut totals: Vec<(u64, SimTime)> = Vec::new();
        for s in &spans {
            match totals.iter_mut().find(|(owner, _)| *owner == s.owner) {
                Some((_, total)) => *total += s.duration(),
                None => totals.push((s.owner, s.duration())),
            }
        }
        let report = RunReport {
            errors: self.errors,
            recoveries: self.recoveries,
            faults: self.device.fault_log().to_vec(),
            escalations: self.escalations,
        };
        (
            self.jobs.into_iter().map(|j| j.record).collect(),
            spans,
            totals,
            report,
        )
    }

    /// The device (for span/trace inspection mid-run).
    #[must_use]
    pub fn device(&self) -> &GpuDevice {
        &self.device
    }

    /// Mutable device access, for the cluster's device-fault layer
    /// (doorbell gating on a hang).
    pub fn device_mut(&mut self) -> &mut GpuDevice {
        &mut self.device
    }

    /// Grids this runtime launched whose terminal notification it has
    /// not processed yet (the jobs still linked to a grid). Processing
    /// that note releases the grid, so the device never holds more grids
    /// than this once every earlier note has arrived.
    #[must_use]
    pub fn grids_awaiting_note(&self) -> usize {
        self.jobs.iter().filter(|j| j.grid.is_some()).count()
    }

    /// Jobs not yet done or failed — the cluster placement layer's
    /// same-instant load tie-breaker.
    #[must_use]
    pub fn active_count(&self) -> usize {
        self.active.len()
    }

    /// Device-level failure: resets the device (evicting every resident
    /// CTA with **no** host notifications — a lost device cannot
    /// interrupt the host), folds each live grid's completed-task counter
    /// into its job, and retires every unfinished job, returning their
    /// resume snapshots in ascending job order for the cluster's
    /// migration path. Completions that already reached the logs are
    /// untouched; the caller should drain them first.
    ///
    /// After this call the world is inert: no grids, no active jobs, and
    /// any stale in-flight events (GPU completions, launch arrivals,
    /// retries, watchdog ticks) are dropped by the existing staleness
    /// guards when they fire.
    pub fn decommission(&mut self, now: SimTime) -> Vec<EvictedJob> {
        // First reconcile grids that retired *before* the reset but whose
        // terminal notification is still in flight (it will be dropped by
        // the stale-note guard once the job's grid link is cleared here):
        // their progress lives only in device state, and missing it would
        // re-run completed tasks after migration.
        for k in 0..self.active.len() {
            let idx = self.active[k];
            let Some(grid) = self.jobs[idx].grid else {
                continue;
            };
            if let Some(GridPhase::Completed | GridPhase::Preempted) = self.device.grid_phase(grid)
            {
                let done = self.device.grid_tasks_done(grid).unwrap_or(0);
                let job = &mut self.jobs[idx];
                job.grid = None;
                job.tasks_done += done;
                job.record.tasks_completed += done;
                job.signalled_at = None;
                job.escalation = 0;
            }
        }
        for reset in self.device.reset(now) {
            let idx = reset.tag as usize;
            let Some(job) = self.jobs.get_mut(idx) else {
                continue;
            };
            // Only fold the eviction snapshot of the job's *live* grid; a
            // stale retired grid of the same job was already accounted.
            if job.grid != Some(reset.grid) {
                continue;
            }
            job.grid = None;
            job.tasks_done += reset.tasks_done;
            job.record.tasks_completed += reset.tasks_done;
            // An unresolved preemption drain dies with the device; it
            // reached no escalation outcome, so it is not counted.
            job.signalled_at = None;
            job.escalation = 0;
        }
        let evicted_indices: Vec<usize> = self.active.clone();
        let mut out = Vec::with_capacity(evicted_indices.len());
        for idx in evicted_indices {
            let job = &mut self.jobs[idx];
            job.end_wait(now);
            job.grid = None;
            job.retry_after = None;
            out.push(EvictedJob {
                idx,
                spec: job.spec.clone(),
                tasks_done: job.tasks_done,
                record: std::mem::take(&mut job.record),
            });
            job.state = JobState::Done;
        }
        self.active.clear();
        self.poll_wheel.clear();
        self.gpu_job = None;
        self.draining = false;
        self.shared_victims.clear();
        out
    }

    fn past_horizon(&self, now: SimTime) -> bool {
        self.horizon.is_some_and(|h| now >= h)
    }

    /// Drains the buffered follow-up events in push order. The driver (or
    /// embedding world) forwards each to its own event queue; push order
    /// equals the old direct-scheduling order, so `(time, seq)`
    /// tie-breaking is preserved exactly.
    pub fn for_each_pending(&mut self, mut f: impl FnMut(SimTime, SystemEvent)) {
        // `drain` keeps the buffer's allocation, so steady state is
        // allocation-free on the hot path.
        for (at, ev) in self.pending.drain(..) {
            f(at, ev);
        }
    }

    /// Appends and clears the completion log: every `(time, job)`
    /// invocation completion since the last drain.
    pub fn drain_completions_into(&mut self, out: &mut Vec<(SimTime, usize)>) {
        out.append(&mut self.completed_log);
    }

    /// Appends and clears the failure log: every `(time, job)` terminal
    /// failure since the last drain.
    pub fn drain_failures_into(&mut self, out: &mut Vec<(SimTime, usize)>) {
        out.append(&mut self.failed_log);
    }

    /// Marks a job `Done` and retires it from the active-index scans.
    fn retire(&mut self, idx: usize) {
        self.jobs[idx].state = JobState::Done;
        if let Ok(pos) = self.active.binary_search(&idx) {
            self.active.remove(pos);
        }
    }

    /// Retires a job that will never complete and logs the failure for
    /// embedding frontends.
    fn fail_job(&mut self, now: SimTime, idx: usize) {
        self.retire(idx);
        self.failed_log.push((now, idx));
    }

    // -- Launch helpers ---------------------------------------------------

    /// Launches job `idx`'s (next) grid. Returns `false` when no grid went
    /// out: a transient device rejection (the job re-queues with bounded,
    /// exponentially backed-off retries) or a permanent failure (the job is
    /// marked failed and a [`RuntimeError`] recorded) — both former panic
    /// sites.
    fn launch_job(&mut self, now: SimTime, idx: usize, harness: &mut CollectorHarness) -> bool {
        let job = &mut self.jobs[idx];
        job.end_wait(now);
        if job.record.first_granted.is_none() {
            job.record.first_granted = Some(now);
        }
        let seed = job
            .spec
            .seed
            .wrapping_add(job.launches)
            .wrapping_add(job.completions << 32);
        job.launches += 1;
        let working_set = job.spec.working_set_bytes;
        let mut desc = match self.policy {
            Policy::MpsBaseline | Policy::Reordering => {
                job.spec.profile.original_desc(idx as u64, seed)
            }
            _ => job.spec.profile.persistent_desc(
                idx as u64,
                seed,
                job.tasks_done,
                job.remaining_tasks(),
            ),
        };
        if let Some(swap) = self.swap.as_mut() {
            if working_set > 0 {
                match swap.acquire(idx as u64, working_set, now) {
                    Ok(delay) => desc = desc.with_extra_launch_delay(delay),
                    Err(_) => {
                        // No amount of eviction makes this working set fit:
                        // fail the job instead of poisoning the experiment.
                        self.errors
                            .push(RuntimeError::SwapUnsatisfiable { job: idx });
                        self.fail_job(now, idx);
                        return false;
                    }
                }
            }
        }
        match self.device.launch(now, desc, harness) {
            Ok(grid) => {
                self.poll_wheel.register(idx);
                let job = &mut self.jobs[idx];
                job.grid = Some(grid);
                job.granted_at = Some(now);
                job.retry_attempts = 0;
                job.retry_after = None;
                job.state = JobState::Running;
                true
            }
            Err(e) if e.is_transient() => {
                let wd = self.watchdog.unwrap_or_default();
                let job = &mut self.jobs[idx];
                job.retry_attempts += 1;
                let attempt = job.retry_attempts;
                if attempt > wd.max_launch_retries {
                    self.errors.push(RuntimeError::LaunchRetriesExhausted {
                        job: idx,
                        attempts: attempt - 1,
                    });
                    self.fail_job(now, idx);
                    return false;
                }
                // Exponential backoff, doubling per consecutive rejection.
                let backoff = wd.retry_backoff * (1u64 << u64::from((attempt - 1).min(20)));
                job.state = JobState::Queued;
                job.begin_wait(now);
                job.retry_after = Some(now + backoff);
                self.recoveries.push(RecoveryEvent {
                    at: now,
                    job: idx,
                    action: RecoveryAction::LaunchRetry(attempt),
                });
                self.pending
                    .push((now + backoff, SystemEvent::RetryLaunch { idx }));
                false
            }
            Err(error) => {
                self.errors
                    .push(RuntimeError::LaunchFailed { job: idx, error });
                self.fail_job(now, idx);
                false
            }
        }
    }

    /// The running job's live `T_r`: the prediction at grant minus the
    /// time it has been running since (§5.1: `T_r` decreases on the GPU).
    fn live_tr(&self, idx: usize, now: SimTime) -> SimTime {
        let job = &self.jobs[idx];
        match job.granted_at {
            Some(at) => job.tr.saturating_sub(now.saturating_sub(at)),
            None => job.tr,
        }
    }

    /// Signals the currently granted job to yield `sms` SMs.
    fn signal_preempt(&mut self, now: SimTime, idx: usize, sms: u32) {
        let job = &mut self.jobs[idx];
        if let Some(grid) = job.grid {
            job.signalled_at = Some(now);
            job.signal_sms = sms;
            job.escalation = 0;
            self.device.signal(now, grid, PreemptSignal::YieldSms(sms));
        }
    }

    fn preempt_overhead_estimate(&self, idx: usize) -> SimTime {
        let fallback = self.jobs[idx]
            .spec
            .profile
            .estimate_preempt_overhead(self.device.config());
        self.profilers[idx].mean_or(fallback)
    }

    // -- Scheduling core ----------------------------------------------------

    /// The best waiting job: highest priority first, then shortest
    /// remaining predicted time (queues are ordered by `T_r`, §5.2.1).
    /// Scans only the active index; the comparator's final index
    /// tie-break makes the result independent of scan order.
    fn best_waiting(&self, now: SimTime) -> Option<usize> {
        self.active
            .iter()
            .map(|&i| (i, &self.jobs[i]))
            .filter(|(_, j)| j.is_ready(now))
            .min_by(|(ai, a), (bi, b)| {
                b.spec
                    .priority
                    .cmp(&a.spec.priority)
                    .then(a.tr.cmp(&b.tr))
                    .then(ai.cmp(bi))
            })
            .map(|(i, _)| i)
    }

    /// The central HPF decision procedure (Fig. 6): called on every
    /// arrival, completion, and drain.
    fn reschedule_hpf(
        &mut self,
        now: SimTime,
        spatial: bool,
        overhead_aware: bool,
        forced_yield: Option<u32>,
        harness: &mut CollectorHarness,
    ) {
        if self.draining {
            return; // Decisions resume when the victim has drained.
        }
        let Some(best) = self.best_waiting(now) else {
            return;
        };
        match self.gpu_job {
            None => {
                if self.launch_job(now, best, harness) {
                    self.gpu_job = Some(best);
                }
            }
            Some(running) => {
                let bp = self.jobs[best].spec.priority;
                let rp = self.jobs[running].spec.priority;
                if bp > rp {
                    // Priority preemption: yield just enough SMs when the
                    // waiting kernel underfills the device and spatial mode
                    // is on; otherwise yield everything.
                    let cfg_sms = self.device.config().num_sms;
                    let fit = self.jobs[best]
                        .spec
                        .profile
                        .sms_needed(self.device.config(), self.jobs[best].remaining_tasks());
                    let needed = forced_yield.unwrap_or(fit).max(fit).min(cfg_sms);
                    if spatial && needed < cfg_sms {
                        // Launch the borrower first: if its launch is
                        // rejected (fault injection), the victim keeps its
                        // SMs instead of yielding them to nobody. Both
                        // calls act at the same instant and neither
                        // observes the other, so the order does not change
                        // fault-free runs.
                        if self.launch_job(now, best, harness) {
                            self.signal_preempt(now, running, needed);
                            self.jobs[running].state = JobState::SharedVictim;
                            self.shared_victims.push(running);
                            self.jobs[best].state = JobState::RunningShared;
                            self.gpu_job = Some(best);
                        }
                    } else {
                        self.signal_preempt(now, running, cfg_sms);
                        self.jobs[running].state = JobState::Draining;
                        self.draining = true;
                    }
                } else if bp == rp {
                    // Same priority: shortest-remaining-time, counting the
                    // preemption overhead against the switch (§5.2.1).
                    let overhead = if overhead_aware {
                        self.preempt_overhead_estimate(running)
                    } else {
                        SimTime::ZERO
                    };
                    if self.jobs[best].tr + overhead < self.live_tr(running, now) {
                        self.signal_preempt(now, running, self.device.config().num_sms);
                        self.jobs[running].state = JobState::Draining;
                        self.draining = true;
                    }
                }
            }
        }
    }

    /// FFS: grant the GPU to the next queued job in rotation and arm its
    /// epoch timer.
    fn grant_next_ffs(&mut self, now: SimTime, max_overhead: f64, harness: &mut CollectorHarness) {
        if self.gpu_job.is_some() || self.past_horizon(now) {
            return;
        }
        let n = self.jobs.len();
        let Some(pick) = (0..n)
            .map(|k| (self.ffs_cursor + k) % n)
            .find(|&i| self.jobs[i].is_ready(now))
        else {
            return;
        };
        self.ffs_cursor = (pick + 1) % n;
        if !self.launch_job(now, pick, harness) {
            return; // Rotation already advanced; a retry re-enters here.
        }
        self.gpu_job = Some(pick);

        // Epoch length: T * W_i with T from the §5.2.2 constraint
        //   sum(O_i) / (T * sum(W_i)) <= max_overhead.
        let total_overhead: SimTime = (0..n).map(|i| self.preempt_overhead_estimate(i)).sum();
        let total_weight: u64 = self
            .jobs
            .iter()
            .map(|j| u64::from(j.spec.priority.max(1)))
            .sum();
        let t = SimTime::from_us_f64(
            total_overhead.as_us() / (max_overhead * total_weight as f64).max(1e-9),
        );
        let epoch = t * u64::from(self.jobs[pick].spec.priority.max(1));
        self.jobs[pick].epoch_gen += 1;
        let gen = self.jobs[pick].epoch_gen;
        self.pending
            .push((now + epoch, SystemEvent::EpochEnd { idx: pick, gen }));
    }

    fn reschedule(&mut self, now: SimTime, harness: &mut CollectorHarness) {
        match self.policy {
            Policy::Hpf {
                spatial,
                overhead_aware,
                forced_yield,
            } => self.reschedule_hpf(now, spatial, overhead_aware, forced_yield, harness),
            Policy::Ffs { max_overhead } => self.grant_next_ffs(now, max_overhead, harness),
            Policy::MpsBaseline => {
                // Launch everything that has arrived, immediately; the
                // device FIFO provides the (non-preemptive) ordering. The
                // active list is ascending, so launch order matches the
                // old full-vector scan.
                let arrived: Vec<usize> = self
                    .active
                    .iter()
                    .copied()
                    .filter(|&i| self.jobs[i].is_ready(now))
                    .collect();
                for idx in arrived {
                    self.launch_job(now, idx, harness);
                }
            }
            Policy::Reordering => {
                // No preemption: wait for the device to go idle, then
                // launch the shortest predicted kernel first.
                if self.gpu_job.is_none() {
                    if let Some(best) = self.best_waiting(now) {
                        if self.launch_job(now, best, harness) {
                            self.gpu_job = Some(best);
                        }
                    }
                }
            }
        }
    }

    // -- Watchdog ---------------------------------------------------------

    /// One watchdog pass: reconcile runtime job state against device
    /// ground truth (terminal notifications lost to faults), enforce drain
    /// deadlines through the escalation ladder, and re-run the scheduling
    /// decision so backed-off retries and stalled grants make progress.
    /// Re-arms itself until every active job is done; a later
    /// [`Self::submit`] re-arms it again.
    fn watchdog_scan(&mut self, now: SimTime, harness: &mut CollectorHarness) {
        let Some(wd) = self.watchdog else { return };
        // Fan out over the poll wheel: exactly the jobs holding a live
        // grid, in ascending index order — the same jobs, in the same
        // order, the full active-list scan this replaced acted on (it
        // skipped grid-less jobs). The successor scan tolerates mid-tick
        // register/deregister; states do not change during this loop
        // (device probes buffer their notifications).
        let mut cur = None;
        while let Some(idx) = self.poll_wheel.next_after(cur) {
            cur = Some(idx);
            let Some(grid) = self.jobs[idx].grid else {
                debug_assert!(false, "poll wheel holds only jobs with live grids");
                continue;
            };
            // A lost DispatchStarted only affects the record; patch it from
            // the device's own timestamp.
            if self.jobs[idx].record.first_dispatched.is_none() {
                if let Some(t) = self.device.grid_dispatch_started(grid) {
                    self.jobs[idx].record.first_dispatched = Some(t);
                }
            }
            match self.device.grid_phase(grid) {
                Some(phase @ (GridPhase::Completed | GridPhase::Preempted)) => {
                    // The grid retired but the runtime still thinks it is
                    // live: its terminal notification was lost. Rebuild it
                    // from device state and deliver it through the normal
                    // path (the stale-note guard drops any late copy).
                    let done = self.device.grid_tasks_done(grid).unwrap_or(0);
                    let tag = idx as u64;
                    let note = if phase == GridPhase::Completed {
                        HostNotification::Completed {
                            grid,
                            tag,
                            tasks_done: done,
                        }
                    } else {
                        HostNotification::Preempted {
                            grid,
                            tag,
                            tasks_done: done,
                            remaining_tasks: self.jobs[idx].remaining_tasks() - done,
                        }
                    };
                    self.recoveries.push(RecoveryEvent {
                        at: now,
                        job: idx,
                        action: RecoveryAction::LostNotification,
                    });
                    harness.notify_host(now, note);
                }
                Some(_) => {
                    let job = &self.jobs[idx];
                    let Some(signalled) = job.signalled_at else {
                        continue;
                    };
                    // Compliance probe: does the grid still hold threads on
                    // SMs the signal told it to vacate? Spatial victims
                    // legitimately keep running on their remaining SMs, so
                    // the deadline applies only to the yielded range.
                    if self.device.grid_threads_below(grid, job.signal_sms) == 0 {
                        continue;
                    }
                    if job.escalation == 0 && now >= signalled + wd.drain_deadline {
                        self.jobs[idx].escalation = 1;
                        self.recoveries.push(RecoveryEvent {
                            at: now,
                            job: idx,
                            action: RecoveryAction::ForcedDrain,
                        });
                        self.device.force_drain(now, grid);
                    } else if job.escalation == 1 && now >= signalled + wd.drain_deadline * 2 {
                        self.jobs[idx].escalation = 2;
                        self.recoveries.push(RecoveryEvent {
                            at: now,
                            job: idx,
                            action: RecoveryAction::Killed,
                        });
                        self.device.kill_grid(now, grid, harness);
                    }
                }
                None => {}
            }
        }
        // Backed-off retries and grants stalled by earlier failures resume
        // here even when no other event would trigger a decision.
        self.reschedule(now, harness);
        if self.active.is_empty() {
            self.watchdog_armed = false;
        } else {
            self.pending
                .push((now + wd.poll_interval, SystemEvent::Watchdog));
        }
    }

    // -- Notification handling -------------------------------------------

    fn on_notification(
        &mut self,
        now: SimTime,
        note: HostNotification,
        harness: &mut CollectorHarness,
    ) {
        let idx = note.tag() as usize;
        // Stale-note guard: a kill or watchdog reconciliation may already
        // have resolved this grid on the runtime side while a delayed (or
        // in-flight) copy of its notification was still travelling. Only
        // the note matching the job's live grid is acted on; fault-free
        // runs never take this path (grids outlive their notifications).
        if self
            .jobs
            .get(idx)
            .is_none_or(|j| j.grid != Some(note.grid()))
        {
            return;
        }
        // A terminal note on the live grid is the last time the host needs
        // the retired grid: the watchdog's lost-note reconciliation and
        // `decommission` both read it before this point, so its slot can
        // be freed now. Stale events and notes for it are dropped by the
        // generation checks above and in the device.
        if !matches!(note, HostNotification::DispatchStarted { .. }) {
            self.device.release(note.grid());
        }
        match note {
            HostNotification::DispatchStarted { .. } => {
                let job = &mut self.jobs[idx];
                if job.record.first_dispatched.is_none() {
                    job.record.first_dispatched = Some(now);
                }
            }
            HostNotification::Completed { tasks_done, .. } => {
                // The grid is retiring below; a looping FFS relaunch
                // re-registers through `launch_job`.
                self.poll_wheel.deregister(idx);
                self.completed_log.push((now, idx));
                let finished_state = self.jobs[idx].state;
                // A kernel signalled for preemption may complete before any
                // CTA observes the flag; the drain is then over without a
                // Preempted event.
                if finished_state == JobState::Draining {
                    self.draining = false;
                }
                if self.jobs[idx].signalled_at.take().is_some() {
                    let lvl = usize::from(self.jobs[idx].escalation.min(2));
                    self.escalations[lvl] += 1;
                    self.jobs[idx].escalation = 0;
                }
                let job = &mut self.jobs[idx];
                job.tasks_done += tasks_done;
                job.record.tasks_completed += tasks_done;
                debug_assert_eq!(job.tasks_done, job.spec.profile.total_tasks);
                job.grid = None;
                job.completions += 1;
                job.tr = SimTime::ZERO;
                if job.record.completed.is_none() {
                    job.record.completed = Some(now);
                }
                job.record.completions = job.completions;

                let was_shared = job.state == JobState::SharedVictim;
                let repeat = job.spec.repeat;
                if repeat == RepeatMode::Loop && !self.past_horizon(now) {
                    // The host process immediately re-invokes the kernel.
                    let job = &mut self.jobs[idx];
                    job.tasks_done = 0;
                    job.tr = job.te;
                    // Under FFS a job owns the GPU for its whole epoch: if
                    // an invocation completes early, the next invocation
                    // launches immediately and the pending EpochEnd timer
                    // still bounds the turn. If the epoch already expired
                    // (the job was draining when it completed), the turn is
                    // over and the rotation below takes the GPU away.
                    if matches!(self.policy, Policy::Ffs { .. })
                        && self.gpu_job == Some(idx)
                        && finished_state == JobState::Running
                        && self.launch_job(now, idx, harness)
                    {
                        return;
                    }
                    // (A failed relaunch falls through: the job already
                    // re-queued or failed inside `launch_job`; give the GPU
                    // up either way.)
                    let job = &mut self.jobs[idx];
                    if job.state != JobState::Done {
                        job.state = JobState::Queued;
                        job.begin_wait(now);
                    }
                    if self.gpu_job == Some(idx) {
                        self.gpu_job = None;
                    }
                } else {
                    self.retire(idx);
                    if self.gpu_job == Some(idx) {
                        self.gpu_job = None;
                    }
                }
                if was_shared {
                    self.shared_victims.retain(|&v| v != idx);
                } else {
                    // A spatial borrower finished: give every still-running
                    // victim its yielded SMs back by relaunching persistent
                    // CTAs against the victim's task counter. The (last)
                    // restored victim becomes the GPU's running job again,
                    // so future arrivals preempt it properly.
                    if finished_state == JobState::RunningShared {
                        let victims: Vec<usize> = self.shared_victims.clone();
                        for v in victims {
                            if let Some(grid) = self.jobs[v].grid {
                                self.device.restore_grid(now, grid, harness);
                                self.jobs[v].state = JobState::Running;
                                if self.gpu_job.is_none() {
                                    self.gpu_job = Some(v);
                                }
                            }
                            self.shared_victims.retain(|&x| x != v);
                        }
                    }
                    self.reschedule(now, harness);
                }
            }
            HostNotification::Preempted {
                tasks_done,
                remaining_tasks,
                ..
            } => {
                self.poll_wheel.deregister(idx);
                let job = &mut self.jobs[idx];
                job.tasks_done += tasks_done;
                job.record.tasks_completed += tasks_done;
                debug_assert_eq!(job.remaining_tasks(), remaining_tasks);
                job.grid = None;
                job.record.preemptions += 1;
                if let Some(at) = job.signalled_at.take() {
                    let drain = now.saturating_sub(at);
                    job.record.drain_samples.push(drain);
                    self.profilers[idx].record(drain);
                    self.escalations[usize::from(job.escalation.min(2))] += 1;
                    job.escalation = 0;
                }
                // T_r update (§5.1): scale the prediction by the fraction
                // of tasks still unprocessed.
                let frac =
                    job.remaining_tasks() as f64 / job.spec.profile.total_tasks.max(1) as f64;
                job.tr = job.te.scale(frac);
                job.state = JobState::Queued;
                job.begin_wait(now);
                // A killed spatial victim lands here too; it no longer
                // shares the device with anyone.
                self.shared_victims.retain(|&v| v != idx);
                if self.gpu_job == Some(idx) {
                    self.gpu_job = None;
                }
                self.draining = false;
                self.reschedule(now, harness);
            }
        }
    }
}

impl SystemWorld {
    /// Handles one system event, buffering every follow-up in the pending
    /// list instead of scheduling it directly. [`World::handle`] is a thin
    /// wrapper that drains the buffer into the engine's queue; an
    /// embedding world (the serving frontend) calls this directly and
    /// drains into its own event type via [`Self::for_each_pending`].
    pub fn dispatch(&mut self, now: SimTime, event: SystemEvent) {
        // Reuse the persistent scratch harness: `take` leaves a fresh
        // (allocation-free) default behind, and the restore below hands
        // the drained buffers' capacity back for the next event.
        let mut harness = std::mem::take(&mut self.scratch);
        match event {
            SystemEvent::Gpu(ev) => {
                self.device.handle(now, ev, &mut harness);
            }
            SystemEvent::Arrival(idx) => {
                let job = &mut self.jobs[idx];
                debug_assert_eq!(job.state, JobState::Future);
                job.state = JobState::Queued;
                job.begin_wait(now);
                self.reschedule(now, &mut harness);
            }
            SystemEvent::EpochEnd { idx, gen } => {
                // Only act on the current epoch, and only if the job is
                // still the one on the GPU.
                if self.jobs[idx].epoch_gen == gen
                    && self.gpu_job == Some(idx)
                    && self.jobs[idx].state == JobState::Running
                {
                    let sms = self.device.config().num_sms;
                    self.signal_preempt(now, idx, sms);
                    self.jobs[idx].state = JobState::Draining;
                    self.draining = true;
                }
            }
            SystemEvent::Watchdog => {
                self.watchdog_scan(now, &mut harness);
            }
            SystemEvent::RetryLaunch { idx } => {
                // The backoff expired; re-run the scheduling decision if
                // the job is still waiting (it may have launched, finished,
                // or failed in the meantime).
                if self.jobs[idx].state == JobState::Queued {
                    self.reschedule(now, &mut harness);
                }
            }
            SystemEvent::Note(note) => {
                // A fault-delayed notification arriving at its deferred
                // delivery time.
                self.on_notification(now, note, &mut harness);
            }
        }
        self.route_harness(now, &mut harness);
        self.scratch = harness;
    }

    /// Routes device-scheduled events and host notifications collected in
    /// `harness` into the pending buffer, processing same-instant
    /// notifications synchronously (exactly the old in-`handle` routing,
    /// so the push order — and thus `(time, seq)` tie-breaking — is
    /// bit-identical). All staging goes through persistent scratch
    /// buffers, so the steady-state (note-free) hot path allocates
    /// nothing.
    fn route_harness(&mut self, now: SimTime, harness: &mut CollectorHarness) {
        for (at, ev) in harness.gpu_events.drain(..) {
            self.pending.push((at, SystemEvent::Gpu(ev)));
        }
        if harness.notes.is_empty() {
            return;
        }
        let mut notes = std::mem::take(&mut self.scratch_notes);
        debug_assert!(notes.is_empty());
        notes.append(&mut harness.notes);
        let mut h2 = std::mem::take(&mut self.scratch_sync);
        for (at, note) in notes.drain(..) {
            if at > now {
                // Fault-delayed: deliver when it lands instead of now.
                self.pending.push((at, SystemEvent::Note(note)));
                continue;
            }
            self.on_notification(at, note, &mut h2);
            for (t, ev) in h2.gpu_events.drain(..) {
                self.pending.push((t, SystemEvent::Gpu(ev)));
            }
            debug_assert!(
                h2.notes.is_empty(),
                "notifications must not recurse synchronously"
            );
        }
        self.scratch_sync = h2;
        self.scratch_notes = notes;
    }
}

impl World for SystemWorld {
    type Event = SystemEvent;

    fn handle(&mut self, now: SimTime, event: SystemEvent, sched: &mut Scheduler<'_, SystemEvent>) {
        self.dispatch(now, event);
        for (at, ev) in self.pending.drain(..) {
            sched.schedule_at(at, ev);
        }
    }
}
