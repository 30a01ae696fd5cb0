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

use crate::job::{JobRecord, JobSpec, RepeatMode, Settled};

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
        /// The job's owner index.
        job: usize,
        /// The device's rejection.
        error: LaunchError,
    },
    /// A transiently rejected launch exhausted its bounded retries.
    LaunchRetriesExhausted {
        /// The job's owner index.
        job: usize,
        /// Attempts made before giving up.
        attempts: u32,
    },
    /// A job's declared working set can never fit in device memory, so
    /// swapping cannot make the launch possible.
    SwapUnsatisfiable {
        /// The job's owner index.
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
    /// The job it acted for, by owner index.
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
}

/// Internal per-job state: the §5.1 execution-logging triplet plus launch
/// bookkeeping. It lives only while the job is unsettled: a job that
/// finishes, fails or is evicted leaves the world's table.
#[derive(Debug)]
struct Job {
    /// The job's index: assigned in submission order, never reused. The
    /// world's own key (table order, device tags, events).
    idx: usize,
    /// The index the job's submitter knows it by, carried by everything
    /// that leaves the world about it: records, errors, recoveries,
    /// evictions. Equal to `idx` for jobs built by [`SystemWorld::new`].
    owner: usize,
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
    /// The observable outcome so far; its `name` stays empty until the
    /// record leaves the world ([`Job::into_record`]).
    record: JobRecord,
    /// Observed preemption drain latencies (§4.2).
    profiler: OverheadProfiler,
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
    fn from_spec(idx: usize, owner: usize, spec: JobSpec, config: &flep_gpu_sim::GpuConfig) -> Job {
        let te = spec
            .predicted
            .unwrap_or_else(|| spec.profile.estimate_duration(config));
        let record = JobRecord {
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
            idx,
            owner,
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
            profiler: OverheadProfiler::new(),
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

    /// Unlinks the job's grid and folds the `done` tasks it completed
    /// (the device's completed-task counter, the exactly-once resume
    /// point) into the job's progress and its record. Every grid's
    /// progress enters its job here: a terminal note, or a decommission
    /// reading a retired grid.
    fn fold_grid(&mut self, done: u64) {
        self.grid = None;
        self.tasks_done += done;
        self.record.tasks_completed += done;
    }

    /// The job's record as it leaves the world, named from its spec.
    fn into_record(self) -> JobRecord {
        JobRecord {
            name: self.spec.profile.name,
            ..self.record
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
    /// The jobs not yet settled (future, waiting, running or draining), in
    /// ascending index order: the only per-job state the world holds. A
    /// job that completes its last invocation or fails leaves the table
    /// through `settled`; an evicted job leaves through
    /// [`Self::decommission`]. The scheduling and watchdog scans iterate
    /// this table, so a serving frontend that submits tens of thousands
    /// of batch jobs over a run pays O(unsettled) per decision, in memory
    /// and time, rather than O(ever submitted). Ascending order keeps
    /// every index-order tie-break identical to a scan over all jobs.
    jobs: Vec<Job>,
    /// Jobs registered so far: the next job's index.
    registered: usize,
    /// Index of the job currently granted the GPU (exclusively).
    gpu_job: Option<usize>,
    /// Spatial victims still running alongside `gpu_job`.
    shared_victims: Vec<usize>,
    /// True while a temporal preemption drain is in flight.
    draining: bool,
    /// FFS rotation cursor.
    ffs_cursor: usize,
    /// FFS epoch terms of every job that has left the table: the sums of
    /// their preemption-overhead estimates and of their weights. An FFS
    /// epoch is sized over every registered job, settled ones included,
    /// and a settled job's terms never change again.
    retired_overhead: SimTime,
    retired_weight: u64,
    /// Experiment horizon for looping jobs.
    horizon: Option<SimTime>,
    /// Optional GPUSwap-style working-set manager (§8 integration).
    swap: Option<SwapManager>,
    /// Preemption watchdog, when enabled (always under fault injection).
    watchdog: Option<WatchdogConfig>,
    /// Structured runtime failures, in occurrence order, naming owners.
    errors: Vec<RuntimeError>,
    /// Watchdog recoveries, in occurrence order, naming owners.
    recoveries: Vec<RecoveryEvent>,
    /// Preemption-drain outcomes by escalation level reached:
    /// `[flag, forced drain, kill]`.
    escalations: [u64; 3],
    /// Follow-up events a handler pushes directly; [`Self::route`] hands
    /// them on first. After a buffered call ([`Self::dispatch`],
    /// [`Self::submit`]) it holds every follow-up, in push order, until
    /// the embedding world drains it via [`Self::for_each_pending`].
    /// Buffering decouples the runtime from the engine's `Scheduler`, so
    /// a frontend with its own event type can embed the runtime.
    pending: Vec<(SimTime, SystemEvent)>,
    /// Jobs that completed their last invocation or failed (permanent
    /// launch rejection, exhausted retries, unsatisfiable working set),
    /// one entry each in settle order, naming owners; drained by an
    /// embedding cluster, collected by [`Self::into_records`].
    settled: Vec<Settled>,
    /// Whether a watchdog tick is currently scheduled (the ladder must be
    /// re-armed when a job is submitted after the last one finished).
    watchdog_armed: bool,
    /// Reusable event-collection harness for [`Self::dispatch_to`] /
    /// [`Self::submit`], also reused by [`Self::route`] for the notes it
    /// handles synchronously — taken at entry, restored after routing, so
    /// the per-event hot path performs no Vec allocations.
    scratch: CollectorHarness,
    /// Reusable note staging buffer for [`Self::route`].
    scratch_notes: Vec<(SimTime, HostNotification)>,
    /// The buffered entry points' routing target, swapped with `pending`
    /// after each call (see [`Self::dispatch`]).
    routed: Vec<(SimTime, SystemEvent)>,
}

/// One job evicted by [`SystemWorld::decommission`]: everything the
/// cluster layer needs to relaunch it on a surviving device.
#[derive(Debug)]
pub struct EvictedJob {
    /// The job's owner index (the cluster's own job index).
    pub owner: usize,
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
            .enumerate()
            .map(|(idx, spec)| Job::from_spec(idx, idx, spec, device.config()))
            .collect();
        SystemWorld {
            device,
            policy,
            registered: jobs.len(),
            jobs,
            gpu_job: None,
            shared_victims: Vec::new(),
            draining: false,
            ffs_cursor: 0,
            retired_overhead: SimTime::ZERO,
            retired_weight: 0,
            horizon,
            swap: None,
            watchdog: None,
            errors: Vec::new(),
            recoveries: Vec::new(),
            escalations: [0; 3],
            pending: Vec::new(),
            settled: Vec::new(),
            watchdog_armed: false,
            scratch: CollectorHarness::new(),
            scratch_notes: Vec::new(),
            routed: Vec::new(),
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
    /// re-armed if its ladder had wound down. Everything that leaves the
    /// world about the job names it by `owner`.
    ///
    /// Follow-up events land in the pending buffer; the embedding world
    /// must drain them via [`Self::for_each_pending`].
    pub fn submit(&mut self, now: SimTime, spec: JobSpec, owner: usize) {
        let idx = self.registered;
        self.registered += 1;
        let mut job = Job::from_spec(idx, owner, spec, self.device.config());
        job.state = JobState::Queued;
        job.begin_wait(now);
        // The highest index yet, so the table stays ascending.
        self.jobs.push(job);
        if let Some(wd) = self.watchdog {
            if !self.watchdog_armed {
                self.watchdog_armed = true;
                self.pending
                    .push((now + wd.poll_interval, SystemEvent::Watchdog));
            }
        }
        let mut harness = std::mem::take(&mut self.scratch);
        self.reschedule(now, &mut harness);
        let mut out = std::mem::take(&mut self.routed);
        self.route(now, &mut harness, &mut |at, ev| out.push((at, ev)));
        self.routed = std::mem::replace(&mut self.pending, out);
        self.scratch = harness;
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
    /// The records are those of every job, settled or not, in owner order,
    /// except jobs [`Self::decommission`] evicted and settled jobs an
    /// embedding cluster already drained. Busy totals are
    /// folded from the device's spans, per owner in first-exit order, so
    /// both are empty when span collection is off.
    #[must_use]
    pub fn into_records(self) -> RunRecords {
        let (records, spans, report) = self.finish();
        let mut totals: Vec<(u64, SimTime)> = Vec::new();
        for s in &spans {
            match totals.iter_mut().find(|(owner, _)| *owner == s.owner) {
                Some((_, total)) => *total += s.duration(),
                None => totals.push((s.owner, s.duration())),
            }
        }
        let records = records.into_iter().map(|(_, r)| r).collect();
        (records, spans, totals, report)
    }

    /// Ends the run: every record the world still holds — the undrained
    /// settled log and the unsettled jobs — as `(owner, record)` in owner
    /// order, the device's busy spans, and the robustness report.
    pub(crate) fn finish(self) -> (Vec<(usize, JobRecord)>, Vec<Span>, RunReport) {
        let mut records: Vec<_> = self
            .settled
            .into_iter()
            .map(|s| (s.job, s.record))
            .collect();
        records.extend(self.jobs.into_iter().map(|j| (j.owner, j.into_record())));
        records.sort_unstable_by_key(|&(owner, _)| owner);
        let report = RunReport {
            errors: self.errors,
            recoveries: self.recoveries,
            faults: self.device.fault_log().to_vec(),
            escalations: self.escalations,
        };
        (records, self.device.busy_spans().to_vec(), report)
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

    /// Jobs not yet settled (done, failed or evicted) — the only jobs the
    /// world holds state for, and the cluster placement layer's
    /// same-instant load tie-breaker.
    #[must_use]
    pub fn active_count(&self) -> usize {
        self.jobs.len()
    }

    /// Device-level failure: resets the device (evicting every resident
    /// CTA with **no** host notifications — a lost device cannot
    /// interrupt the host), folds each linked grid's completed-task
    /// counter into its job, and retires every unfinished job, returning
    /// their resume snapshots in ascending job order for the cluster's
    /// migration path. Jobs that already settled are untouched; the
    /// caller should drain them first.
    ///
    /// After this call the world is inert: no grids, no active jobs, and
    /// any stale in-flight events (GPU completions, launch arrivals,
    /// retries, watchdog ticks) are dropped by the existing staleness
    /// guards when they fire.
    pub fn decommission(&mut self, now: SimTime) -> Vec<EvictedJob> {
        // After the reset every grid a job still links is retired with its
        // claims rolled back — the ones the reset evicted, and the ones
        // that retired before it but whose terminal note is still in
        // flight (the stale-note guard drops it once the link is gone) —
        // so one counter read covers both. Once folded, nothing reads the
        // grid again, so it is released as a terminal note would release
        // it: a device that rejoins after a transient loss holds none.
        self.device.reset(now);
        for job in &mut self.jobs {
            let Some(grid) = job.grid else { continue };
            let done = self
                .device
                .grid_tasks_done(grid)
                .expect("invariant: a grid stays held while its job links it");
            self.device.release(grid);
            job.fold_grid(done);
            // An unresolved preemption drain dies with the device; it
            // reached no escalation outcome, so it is not counted.
            job.signalled_at = None;
            job.escalation = 0;
        }
        let jobs = std::mem::take(&mut self.jobs);
        let mut out = Vec::with_capacity(jobs.len());
        for mut job in jobs {
            job.end_wait(now);
            self.fold_retired_terms(&job);
            let record = JobRecord {
                name: job.spec.profile.name.clone(),
                ..job.record
            };
            out.push(EvictedJob {
                owner: job.owner,
                spec: job.spec,
                tasks_done: job.tasks_done,
                record,
            });
        }
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

    /// Whether the settled log holds a job not yet drained.
    pub(crate) fn has_settled(&self) -> bool {
        !self.settled.is_empty()
    }

    /// Appends and clears the settled log: every job that completed its
    /// last invocation or failed since the last drain, in settle order.
    /// A drained job is gone from the world; [`Self::into_records`] no
    /// longer returns it.
    pub(crate) fn drain_settled_into(&mut self, out: &mut Vec<Settled>) {
        out.append(&mut self.settled);
    }

    /// The table slot of unsettled job `idx`, if it is still held.
    fn find(&self, idx: usize) -> Option<usize> {
        self.jobs.binary_search_by_key(&idx, |j| j.idx).ok()
    }

    /// The table slot of job `idx`, which must be unsettled.
    fn slot(&self, idx: usize) -> usize {
        self.find(idx).expect("job is unsettled")
    }

    fn job(&self, idx: usize) -> &Job {
        &self.jobs[self.slot(idx)]
    }

    fn job_mut(&mut self, idx: usize) -> &mut Job {
        let k = self.slot(idx);
        &mut self.jobs[k]
    }

    /// Adds a job leaving the table to the FFS running totals.
    fn fold_retired_terms(&mut self, job: &Job) {
        self.retired_overhead += self.preempt_overhead_estimate(job);
        self.retired_weight += u64::from(job.spec.priority.max(1));
    }

    /// Settles a job, completed or failed: it leaves the table for the
    /// settled log.
    fn retire(&mut self, now: SimTime, idx: usize, completed: bool) {
        let job = self.jobs.remove(self.slot(idx));
        self.fold_retired_terms(&job);
        self.settled.push(Settled {
            at: now,
            job: job.owner,
            completed,
            record: job.into_record(),
        });
    }

    // -- Launch helpers ---------------------------------------------------

    /// Launches job `idx`'s (next) grid. Returns `false` when no grid went
    /// out: a transient device rejection (the job re-queues with bounded,
    /// exponentially backed-off retries) or a permanent failure (the job is
    /// marked failed and a [`RuntimeError`] recorded) — both former panic
    /// sites.
    fn launch_job(&mut self, now: SimTime, idx: usize, harness: &mut CollectorHarness) -> bool {
        let k = self.slot(idx);
        let job = &mut self.jobs[k];
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
        let owner = job.owner;
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
                            .push(RuntimeError::SwapUnsatisfiable { job: owner });
                        self.retire(now, idx, false);
                        return false;
                    }
                }
            }
        }
        match self.device.launch(now, desc, harness) {
            Ok(grid) => {
                let job = &mut self.jobs[k];
                job.grid = Some(grid);
                job.granted_at = Some(now);
                job.retry_attempts = 0;
                job.retry_after = None;
                job.state = JobState::Running;
                true
            }
            Err(e) if e.is_transient() => {
                let wd = self.watchdog.unwrap_or_default();
                let job = &mut self.jobs[k];
                job.retry_attempts += 1;
                let attempt = job.retry_attempts;
                if attempt > wd.max_launch_retries {
                    self.errors.push(RuntimeError::LaunchRetriesExhausted {
                        job: owner,
                        attempts: attempt - 1,
                    });
                    self.retire(now, idx, false);
                    return false;
                }
                // Exponential backoff, doubling per consecutive rejection.
                let backoff = wd.retry_backoff * (1u64 << u64::from((attempt - 1).min(20)));
                job.state = JobState::Queued;
                job.begin_wait(now);
                job.retry_after = Some(now + backoff);
                self.recoveries.push(RecoveryEvent {
                    at: now,
                    job: owner,
                    action: RecoveryAction::LaunchRetry(attempt),
                });
                self.pending
                    .push((now + backoff, SystemEvent::RetryLaunch { idx }));
                false
            }
            Err(error) => {
                self.errors
                    .push(RuntimeError::LaunchFailed { job: owner, error });
                self.retire(now, idx, false);
                false
            }
        }
    }

    /// The running job's live `T_r`: the prediction at grant minus the
    /// time it has been running since (§5.1: `T_r` decreases on the GPU).
    fn live_tr(&self, idx: usize, now: SimTime) -> SimTime {
        let job = self.job(idx);
        match job.granted_at {
            Some(at) => job.tr.saturating_sub(now.saturating_sub(at)),
            None => job.tr,
        }
    }

    /// Signals the currently granted job to yield `sms` SMs.
    fn signal_preempt(&mut self, now: SimTime, idx: usize, sms: u32) {
        let k = self.slot(idx);
        let job = &mut self.jobs[k];
        if let Some(grid) = job.grid {
            job.signalled_at = Some(now);
            job.signal_sms = sms;
            job.escalation = 0;
            self.device.signal(now, grid, PreemptSignal::YieldSms(sms));
        }
    }

    fn preempt_overhead_estimate(&self, job: &Job) -> SimTime {
        let fallback = job
            .spec
            .profile
            .estimate_preempt_overhead(self.device.config());
        job.profiler.mean_or(fallback)
    }

    // -- Scheduling core ----------------------------------------------------

    /// The best waiting job: highest priority first, then shortest
    /// remaining predicted time (queues are ordered by `T_r`, §5.2.1).
    /// The comparator's final index tie-break makes the result
    /// independent of scan order.
    fn best_waiting(&self, now: SimTime) -> Option<usize> {
        self.jobs
            .iter()
            .filter(|j| j.is_ready(now))
            .min_by(|a, b| {
                b.spec
                    .priority
                    .cmp(&a.spec.priority)
                    .then(a.tr.cmp(&b.tr))
                    .then(a.idx.cmp(&b.idx))
            })
            .map(|j| j.idx)
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
                let bp = self.job(best).spec.priority;
                let rp = self.job(running).spec.priority;
                if bp > rp {
                    // Priority preemption: yield just enough SMs when the
                    // waiting kernel underfills the device and spatial mode
                    // is on; otherwise yield everything.
                    let cfg_sms = self.device.config().num_sms;
                    let waiting = self.job(best);
                    let fit = waiting
                        .spec
                        .profile
                        .sms_needed(self.device.config(), waiting.remaining_tasks());
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
                            self.job_mut(running).state = JobState::SharedVictim;
                            self.shared_victims.push(running);
                            self.job_mut(best).state = JobState::RunningShared;
                            self.gpu_job = Some(best);
                        }
                    } else {
                        self.signal_preempt(now, running, cfg_sms);
                        self.job_mut(running).state = JobState::Draining;
                        self.draining = true;
                    }
                } else if bp == rp {
                    // Same priority: shortest-remaining-time, counting the
                    // preemption overhead against the switch (§5.2.1).
                    let overhead = if overhead_aware {
                        self.preempt_overhead_estimate(self.job(running))
                    } else {
                        SimTime::ZERO
                    };
                    if self.job(best).tr + overhead < self.live_tr(running, now) {
                        self.signal_preempt(now, running, self.device.config().num_sms);
                        self.job_mut(running).state = JobState::Draining;
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
        // The rotation runs over every registered index from the cursor
        // on, wrapping. Settled jobs are never ready, so the pick is the
        // first ready unsettled job at or after the cursor, else the
        // first ready one.
        let cursor = self.ffs_cursor;
        let ready = || self.jobs.iter().filter(|j| j.is_ready(now)).map(|j| j.idx);
        let Some(pick) = ready().find(|&i| i >= cursor).or_else(|| ready().next()) else {
            return;
        };
        self.ffs_cursor = (pick + 1) % self.registered;
        if !self.launch_job(now, pick, harness) {
            return; // Rotation already advanced; a retry re-enters here.
        }
        self.gpu_job = Some(pick);

        // Epoch length: T * W_i with T from the §5.2.2 constraint
        //   sum(O_i) / (T * sum(W_i)) <= max_overhead,
        // over every registered job: settled ones through the running
        // totals, the rest here.
        let total_overhead: SimTime = self.retired_overhead
            + self
                .jobs
                .iter()
                .map(|j| self.preempt_overhead_estimate(j))
                .sum::<SimTime>();
        let total_weight: u64 = self.retired_weight
            + self
                .jobs
                .iter()
                .map(|j| u64::from(j.spec.priority.max(1)))
                .sum::<u64>();
        let t = SimTime::from_us_f64(
            total_overhead.as_us() / (max_overhead * total_weight as f64).max(1e-9),
        );
        let job = self.job_mut(pick);
        let epoch = t * u64::from(job.spec.priority.max(1));
        job.epoch_gen += 1;
        let gen = job.epoch_gen;
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
                // job table is ascending, so launch order is index order.
                let arrived: Vec<usize> = self
                    .jobs
                    .iter()
                    .filter(|j| j.is_ready(now))
                    .map(|j| j.idx)
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
        // Visit every job holding a grid, in table (ascending index)
        // order. No job enters or leaves the table and no grid link
        // changes during this loop: the device calls below buffer their
        // notifications in `harness`, which is routed after the tick.
        for k in 0..self.jobs.len() {
            let Some(grid) = self.jobs[k].grid else {
                continue;
            };
            let (idx, owner) = (self.jobs[k].idx, self.jobs[k].owner);
            // A lost DispatchStarted only affects the record; patch it from
            // the device's own timestamp.
            if self.jobs[k].record.first_dispatched.is_none() {
                if let Some(t) = self.device.grid_dispatch_started(grid) {
                    self.jobs[k].record.first_dispatched = Some(t);
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
                            remaining_tasks: self.jobs[k].remaining_tasks() - done,
                        }
                    };
                    self.recoveries.push(RecoveryEvent {
                        at: now,
                        job: owner,
                        action: RecoveryAction::LostNotification,
                    });
                    harness.notify_host(now, note);
                }
                Some(_) => {
                    let job = &self.jobs[k];
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
                        self.jobs[k].escalation = 1;
                        self.recoveries.push(RecoveryEvent {
                            at: now,
                            job: owner,
                            action: RecoveryAction::ForcedDrain,
                        });
                        self.device.force_drain(now, grid);
                    } else if job.escalation == 1 && now >= signalled + wd.drain_deadline * 2 {
                        self.jobs[k].escalation = 2;
                        self.recoveries.push(RecoveryEvent {
                            at: now,
                            job: owner,
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
        if self.jobs.is_empty() {
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
        // the note matching the job's live grid is acted on, and a settled
        // job has none; fault-free runs never take this path (grids
        // outlive their notifications).
        let Some(k) = self.find(idx) else { return };
        if self.jobs[k].grid != Some(note.grid()) {
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
                let job = &mut self.jobs[k];
                if job.record.first_dispatched.is_none() {
                    job.record.first_dispatched = Some(now);
                }
            }
            HostNotification::Completed { tasks_done, .. } => {
                let job = &mut self.jobs[k];
                let finished_state = job.state;
                // A kernel signalled for preemption may complete before any
                // CTA observes the flag; the drain is then over without a
                // Preempted event.
                if finished_state == JobState::Draining {
                    self.draining = false;
                }
                if job.signalled_at.take().is_some() {
                    self.escalations[usize::from(job.escalation.min(2))] += 1;
                    job.escalation = 0;
                }
                job.fold_grid(tasks_done);
                debug_assert_eq!(job.tasks_done, job.spec.profile.total_tasks);
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
                    let job = &mut self.jobs[k];
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
                    // re-queued, or failed and left the table, inside
                    // `launch_job`; give the GPU up either way.)
                    if let Some(k) = self.find(idx) {
                        let job = &mut self.jobs[k];
                        job.state = JobState::Queued;
                        job.begin_wait(now);
                    }
                    if self.gpu_job == Some(idx) {
                        self.gpu_job = None;
                    }
                } else {
                    self.retire(now, idx, true);
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
                            if let Some(grid) = self.job(v).grid {
                                self.device.restore_grid(now, grid, harness);
                                self.job_mut(v).state = JobState::Running;
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
                let job = &mut self.jobs[k];
                job.fold_grid(tasks_done);
                debug_assert_eq!(job.remaining_tasks(), remaining_tasks);
                job.record.preemptions += 1;
                if let Some(at) = job.signalled_at.take() {
                    let drain = now.saturating_sub(at);
                    job.record.drain_samples.push(drain);
                    job.profiler.record(drain);
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
    /// list instead of scheduling it directly. An embedding world calls
    /// this and drains the buffer into its own event type via
    /// [`Self::for_each_pending`]; the cluster does so only for a shard
    /// whose breaker is half-open (see
    /// [`GpuCluster::dispatch_to`](crate::GpuCluster::dispatch_to)).
    /// [`World::handle`], the cluster's other shard events and the epoch
    /// driver's device streams hand the same follow-ups, in the same
    /// order, straight to their queue.
    pub fn dispatch(&mut self, now: SimTime, event: SystemEvent) {
        let mut out = std::mem::take(&mut self.routed);
        self.dispatch_to(now, event, &mut |at, ev| out.push((at, ev)));
        // `route` emptied `pending` into `out` first, so `out` holds every
        // buffered follow-up in push order. Swapping keeps both buffers'
        // capacity, so the hot path stays allocation-free.
        self.routed = std::mem::replace(&mut self.pending, out);
    }

    /// Handles one system event and hands every follow-up to `sink` in
    /// push order (see [`Self::route`]).
    pub(crate) fn dispatch_to(
        &mut self,
        now: SimTime,
        event: SystemEvent,
        sink: &mut impl FnMut(SimTime, SystemEvent),
    ) {
        // Reuse the persistent scratch harness: `take` leaves a fresh
        // (allocation-free) default behind, and the restore below hands
        // the drained buffers' capacity back for the next event.
        let mut harness = std::mem::take(&mut self.scratch);
        match event {
            SystemEvent::Gpu(ev) => {
                self.device.handle(now, ev, &mut harness);
            }
            SystemEvent::Arrival(idx) => {
                let job = self.job_mut(idx);
                debug_assert_eq!(job.state, JobState::Future);
                job.state = JobState::Queued;
                job.begin_wait(now);
                self.reschedule(now, &mut harness);
            }
            SystemEvent::EpochEnd { idx, gen } => {
                // Only act on the current epoch, and only if the job is
                // still the one on the GPU (a settled job never is).
                if self.gpu_job == Some(idx)
                    && self.find(idx).is_some_and(|k| {
                        self.jobs[k].epoch_gen == gen && self.jobs[k].state == JobState::Running
                    })
                {
                    let sms = self.device.config().num_sms;
                    self.signal_preempt(now, idx, sms);
                    self.job_mut(idx).state = JobState::Draining;
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
                if self
                    .find(idx)
                    .is_some_and(|k| self.jobs[k].state == JobState::Queued)
                {
                    self.reschedule(now, &mut harness);
                }
            }
            SystemEvent::Note(note) => {
                // A fault-delayed notification arriving at its deferred
                // delivery time.
                self.on_notification(now, note, &mut harness);
            }
        }
        self.route(now, &mut harness, sink);
        self.scratch = harness;
    }

    /// The one note-routing routine: hands every follow-up of the event
    /// just handled to `sink`, in the order one queue must see them. First
    /// the handler's direct pushes (`pending`), then the device events it
    /// collected in `harness`, then each host notification in turn: a
    /// fault-delayed one goes to `sink` as [`SystemEvent::Note`], to be
    /// delivered when it lands; a same-instant one is handled now, and its
    /// own direct pushes and device events follow. No handler reads the
    /// queue, so routing each follow-up as it appears assigns the same
    /// `(time, seq)` order as buffering them all and draining afterwards.
    /// All staging goes through persistent scratch buffers, so the
    /// steady-state (note-free) hot path allocates nothing.
    fn route(
        &mut self,
        now: SimTime,
        harness: &mut CollectorHarness,
        sink: &mut impl FnMut(SimTime, SystemEvent),
    ) {
        self.flush(harness, sink);
        if harness.notes.is_empty() {
            return;
        }
        let mut notes = std::mem::take(&mut self.scratch_notes);
        debug_assert!(notes.is_empty());
        notes.append(&mut harness.notes);
        // `harness` is empty again: it collects what each note handler
        // produces.
        for (at, note) in notes.drain(..) {
            if at > now {
                // Fault-delayed: deliver when it lands instead of now.
                sink(at, SystemEvent::Note(note));
                continue;
            }
            self.on_notification(at, note, harness);
            debug_assert!(
                harness.notes.is_empty(),
                "notifications must not recurse synchronously"
            );
            self.flush(harness, sink);
        }
        self.scratch_notes = notes;
    }

    /// Hands `pending`, then the device events in `harness`, to `sink`.
    fn flush(
        &mut self,
        harness: &mut CollectorHarness,
        sink: &mut impl FnMut(SimTime, SystemEvent),
    ) {
        for (at, ev) in self.pending.drain(..) {
            sink(at, ev);
        }
        for (at, ev) in harness.gpu_events.drain(..) {
            sink(at, SystemEvent::Gpu(ev));
        }
    }
}

impl World for SystemWorld {
    type Event = SystemEvent;

    fn handle(&mut self, now: SimTime, event: SystemEvent, sched: &mut Scheduler<'_, SystemEvent>) {
        self.dispatch_to(now, event, &mut |at, ev| sched.schedule_at(at, ev));
    }
}
