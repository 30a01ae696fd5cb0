//! The GPU device: launch intake, the non-preemptive hardware CTA
//! dispatcher, and the persistent-threads batch engine.

use std::collections::VecDeque;
use std::error::Error;
use std::fmt;

use flep_sim_core::{GenSlab, SimTime, Span, TraceLog};

use crate::config::GpuConfig;
use crate::fault::{FaultEvent, FaultPlan, LaunchFault, NoteFault, SignalFault};
use crate::grid::{Grid, GridId, GridPhase, GridShape, LaunchDesc, PreemptSignal, StuckMode};
use crate::placement::PlacementIndex;
use crate::sm::{ResidentCta, Sm};

/// Device-internal events. The embedding world routes these back into
/// [`GpuDevice::handle`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GpuEvent {
    /// A launch command has crossed the driver and reached the device FIFO.
    LaunchArrived(GridId),
    /// A CTA of an original-shape grid finished its (single) task.
    CtaDone {
        /// Owning grid.
        grid: GridId,
        /// CTA index within the grid.
        cta: u64,
        /// Hosting SM.
        sm: u32,
    },
    /// A persistent CTA finished a batch of tasks and polls the flag.
    BatchDone {
        /// Owning grid.
        grid: GridId,
        /// CTA index within the grid.
        cta: u64,
        /// Hosting SM.
        sm: u32,
        /// First task index (grid-relative) of the completed batch.
        first_task: u64,
        /// Number of tasks in the completed batch.
        n_tasks: u64,
    },
}

/// Notifications delivered to the host side (the FLEP runtime or a baseline
/// driver).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostNotification {
    /// The grid's first CTA was dispatched onto an SM.
    DispatchStarted {
        /// The grid.
        grid: GridId,
        /// Host correlation tag.
        tag: u64,
    },
    /// The grid processed all of its tasks and retired.
    Completed {
        /// The grid.
        grid: GridId,
        /// Host correlation tag.
        tag: u64,
        /// Tasks processed by this grid (counting from the grid's
        /// `first_task` offset).
        tasks_done: u64,
    },
    /// All of the grid's CTAs exited due to a preemption signal while tasks
    /// remained; the grid retired early.
    Preempted {
        /// The grid.
        grid: GridId,
        /// Host correlation tag.
        tag: u64,
        /// Tasks processed before the preemption took effect.
        tasks_done: u64,
        /// Tasks left unprocessed (to be resumed later).
        remaining_tasks: u64,
    },
}

impl HostNotification {
    /// The host correlation tag carried by any notification variant.
    #[must_use]
    pub fn tag(&self) -> u64 {
        match *self {
            HostNotification::DispatchStarted { tag, .. }
            | HostNotification::Completed { tag, .. }
            | HostNotification::Preempted { tag, .. } => tag,
        }
    }

    /// The grid the notification refers to.
    #[must_use]
    pub fn grid(&self) -> GridId {
        match *self {
            HostNotification::DispatchStarted { grid, .. }
            | HostNotification::Completed { grid, .. }
            | HostNotification::Preempted { grid, .. } => grid,
        }
    }
}

/// The device's link to the embedding simulation: schedules device events
/// and delivers host notifications.
pub trait GpuHarness {
    /// Schedules a device event at absolute time `at`.
    fn schedule_gpu(&mut self, at: SimTime, ev: GpuEvent);
    /// Delivers a notification to the host side at time `at`.
    fn notify_host(&mut self, at: SimTime, note: HostNotification);
}

/// Errors returned by [`GpuDevice::launch`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LaunchError {
    /// A single CTA of the kernel exceeds the SM's resources, so occupancy
    /// is zero and the kernel can never be dispatched.
    Unlaunchable {
        /// The kernel name.
        name: String,
    },
    /// The grid contains no work.
    EmptyGrid {
        /// The kernel name.
        name: String,
    },
    /// A persistent grid was configured with a zero amortizing factor.
    ZeroAmortize {
        /// The kernel name.
        name: String,
    },
    /// The launch was rejected by a transient condition (driver command
    /// queue full, momentary allocation failure). Unlike the other
    /// variants this is retryable: the same launch may succeed later.
    /// Only produced under fault injection.
    Transient {
        /// The kernel name.
        name: String,
    },
}

impl fmt::Display for LaunchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LaunchError::Unlaunchable { name } => {
                write!(f, "kernel `{name}`: a single CTA exceeds SM resources")
            }
            LaunchError::EmptyGrid { name } => {
                write!(f, "kernel `{name}`: grid contains no tasks")
            }
            LaunchError::ZeroAmortize { name } => {
                write!(f, "kernel `{name}`: amortizing factor must be at least 1")
            }
            LaunchError::Transient { name } => {
                write!(f, "kernel `{name}`: transient launch rejection (retryable)")
            }
        }
    }
}

impl LaunchError {
    /// Whether retrying the same launch later can succeed.
    #[must_use]
    pub fn is_transient(&self) -> bool {
        matches!(self, LaunchError::Transient { .. })
    }
}

impl Error for LaunchError {}

/// The simulated GPU device.
///
/// The device is driven by an embedding world: the world calls
/// [`GpuDevice::launch`] / [`GpuDevice::signal`] on host actions and routes
/// every [`GpuEvent`] it scheduled through [`GpuDevice::handle`].
///
/// Scheduling semantics (faithful to §2.1 of the paper): grids enter a
/// single device FIFO in launch-arrival order; the dispatcher places CTAs
/// of the front grid onto SMs as resources permit and **only** advances to
/// a later grid once the front grid has no undispatched CTAs left. This is
/// the head-of-line blocking that makes unmodified GPUs non-preemptable,
/// and the leftover-resource backfill MPS provides.
pub struct GpuDevice {
    cfg: GpuConfig,
    sms: Vec<Sm>,
    /// Dense grid table: a [`GridId`] is the grid's generational slab key,
    /// so every lookup on the event hot path is an array index.
    grids: GenSlab<Grid>,
    fifo: VecDeque<GridId>,
    /// SMs indexed by `(resident_count, sm_id)` for least-loaded placement.
    placement: PlacementIndex,
    /// Persistent grids carrying a non-`None` preemption signal. Visibility
    /// (`signal_visible_at`) is checked per query, so membership changes
    /// only at signal/restore/retire time.
    signalled: Vec<GridId>,
    /// Reusable phase-two placement buffer (see [`GpuDevice::dispatch`]).
    placed_buf: Vec<(GridId, u64, u32)>,
    busy_spans: Vec<Span>,
    /// Whether per-span residency records are kept.
    collect_spans: bool,
    trace: TraceLog,
    /// Per-stream lanes (interned from the launches' stream ids): the live
    /// grid (head of the stream) and grids parked behind it, in launch
    /// order.
    streams: Vec<StreamLane>,
    /// Seeded fault injector. `None` (the default) means the fault layer
    /// is entirely inert: no RNG draws, no timing changes, bit-identical
    /// behavior to a build without it.
    fault: Option<FaultPlan>,
    /// Device-hang state: while set, every doorbell write is lost before
    /// it reaches the flag (the command processor is wedged). Resident
    /// CTAs keep executing. Set/cleared by the cluster's device-fault
    /// layer; never consults the RNG, so it cannot perturb fault draws.
    doorbells_lost: bool,
}

/// One grid's progress snapshot returned by [`GpuDevice::reset`], the
/// host-side record the cluster uses to migrate work to a survivor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResetGrid {
    /// The grid that was evicted (its id is dead after the reset).
    pub grid: GridId,
    /// Host correlation tag.
    pub tag: u64,
    /// Tasks (or CTAs, for original-shape grids) completed before the
    /// reset — the exactly-once resume point.
    pub tasks_done: u64,
    /// Tasks left unprocessed; zero means the grid had actually finished.
    pub remaining_tasks: u64,
}

/// State of one CUDA stream on the device.
#[derive(Debug)]
struct StreamLane {
    /// The user-visible stream id this lane was interned from.
    stream: u32,
    /// The stream's live grid (the one allowed on the device), if any.
    live: Option<GridId>,
    /// Grids launched behind the live one, in launch order.
    parked: VecDeque<GridId>,
}

impl fmt::Debug for GpuDevice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GpuDevice")
            .field("cfg", &self.cfg)
            .field("fifo", &self.fifo)
            .field("grids", &self.grids.len())
            .field("busy_spans", &self.busy_spans.len())
            .finish()
    }
}

/// Invariant message for grid lookups on the dispatch path: an id is only
/// in the device FIFO while its grid is live (retirement and kill both
/// remove it before the slab slot could be reused), so a miss here is a
/// bookkeeping bug, not a recoverable condition.
const FIFO_INVARIANT: &str =
    "invariant: a grid id in the device FIFO resolves; retire/kill remove it first";
/// Invariant message for grid lookups when (re)starting a batch: batches
/// are only started for CTAs placed in this same call chain, while the
/// grid is necessarily live.
const BATCH_INVARIANT: &str =
    "invariant: batches are only started for freshly placed CTAs of a live grid";

impl GpuDevice {
    /// Creates an idle device.
    #[must_use]
    pub fn new(cfg: GpuConfig) -> Self {
        let sms = (0..cfg.num_sms).map(Sm::new).collect();
        let placement = PlacementIndex::new(cfg.num_sms, cfg.max_ctas_per_sm);
        GpuDevice {
            cfg,
            sms,
            grids: GenSlab::new(),
            fifo: VecDeque::new(),
            placement,
            signalled: Vec::new(),
            placed_buf: Vec::new(),
            busy_spans: Vec::new(),
            collect_spans: true,
            trace: TraceLog::disabled(),
            streams: Vec::new(),
            fault: None,
            doorbells_lost: false,
        }
    }

    /// Installs (or removes, with `None`) the seeded fault injector.
    pub fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.fault = plan;
    }

    /// Every fault injected so far (empty without a plan).
    #[must_use]
    pub fn fault_log(&self) -> &[FaultEvent] {
        self.fault.as_ref().map_or(&[], FaultPlan::log)
    }

    /// Enables event tracing (disabled by default to bound memory).
    pub fn enable_trace(&mut self) {
        self.trace = TraceLog::new();
    }

    /// The trace log (empty unless [`GpuDevice::enable_trace`] was called).
    #[must_use]
    pub fn trace(&self) -> &TraceLog {
        &self.trace
    }

    /// The device configuration.
    #[must_use]
    pub fn config(&self) -> &GpuConfig {
        &self.cfg
    }

    /// Read-only view of the SMs.
    #[must_use]
    pub fn sms(&self) -> &[Sm] {
        &self.sms
    }

    /// CTA-residency spans recorded so far (owner = host tag). Used for
    /// GPU-share accounting (Fig. 13). Empty when span collection is
    /// disabled via [`GpuDevice::set_span_collection`].
    #[must_use]
    pub fn busy_spans(&self) -> &[Span] {
        &self.busy_spans
    }

    /// Enables or disables per-span residency recording (on by default).
    /// With it off the device keeps no busy-time record at all, which
    /// bounds memory on long runs that never read one.
    pub fn set_span_collection(&mut self, on: bool) {
        self.collect_spans = on;
    }

    /// The externally observable phase of a grid, if it exists.
    #[must_use]
    pub fn grid_phase(&self, grid: GridId) -> Option<GridPhase> {
        self.grids.get(grid.0).map(|g| g.phase)
    }

    /// Tasks completed so far by a grid.
    #[must_use]
    pub fn grid_tasks_done(&self, grid: GridId) -> Option<u64> {
        self.grids.get(grid.0).map(|g| match g.shape {
            GridShape::Original { .. } => g.completed_ctas,
            GridShape::Persistent { .. } => g.completed_tasks,
        })
    }

    /// Total threads the grid currently holds on SMs with `%smid < n_sms`.
    /// The watchdog's compliance probe: after `YieldSms(n)` a healthy
    /// victim drains this to zero; a stuck one does not.
    #[must_use]
    pub fn grid_threads_below(&self, grid: GridId, n_sms: u32) -> u32 {
        self.grids.get(grid.0).map_or(0, |g| {
            g.threads_on_sm.iter().take(n_sms as usize).copied().sum()
        })
    }

    /// When the grid's first CTA was dispatched.
    #[must_use]
    pub fn grid_dispatch_started(&self, grid: GridId) -> Option<SimTime> {
        self.grids.get(grid.0).and_then(|g| g.dispatch_started)
    }

    /// Grids the device still holds: launched and not yet
    /// [released](GpuDevice::release), retired or not.
    #[must_use]
    pub fn live_grids(&self) -> usize {
        self.grids.len()
    }

    /// Frees a retired (`Completed`/`Preempted`) grid's bookkeeping once
    /// the host no longer needs it; its slot is reused by a later launch.
    /// Afterwards every query on the id returns `None`, and any of its
    /// events or notifications still in flight are dropped by the slab's
    /// generation check. No-op for live or unknown grids.
    pub fn release(&mut self, grid: GridId) {
        if self
            .grids
            .get(grid.0)
            .is_some_and(|g| matches!(g.phase, GridPhase::Completed | GridPhase::Preempted))
        {
            self.grids.remove(grid.0);
        }
    }

    /// Issues a kernel launch. The grid reaches the device FIFO after the
    /// configured launch overhead.
    ///
    /// # Errors
    ///
    /// Returns [`LaunchError`] when the kernel can never be dispatched
    /// (zero occupancy), the grid is empty, or a persistent grid has a zero
    /// amortizing factor.
    pub fn launch<H: GpuHarness + ?Sized>(
        &mut self,
        now: SimTime,
        desc: LaunchDesc,
        harness: &mut H,
    ) -> Result<GridId, LaunchError> {
        let occ = self.cfg.occupancy_per_sm(&desc.resources);
        if occ == 0 {
            return Err(LaunchError::Unlaunchable { name: desc.name });
        }
        if desc.shape.total_tasks() == 0 {
            return Err(LaunchError::EmptyGrid { name: desc.name });
        }
        if let GridShape::Persistent { amortize, .. } = desc.shape {
            if amortize == 0 {
                return Err(LaunchError::ZeroAmortize { name: desc.name });
            }
        }

        let persistent = matches!(desc.shape, GridShape::Persistent { .. });
        let mut stuck = StuckMode::Responsive;
        if let Some(plan) = self.fault.as_mut() {
            match plan.on_launch(now, desc.tag, persistent) {
                LaunchFault::None => {}
                LaunchFault::Reject => {
                    self.trace.record(now, "launch_rejected", desc.tag);
                    return Err(LaunchError::Transient { name: desc.name });
                }
                LaunchFault::StuckVictim => stuck = StuckMode::IgnoreFlag,
                LaunchFault::WedgedExit => stuck = StuckMode::WedgeOnExit,
            }
        }

        let extra_delay = desc.extra_launch_delay;
        let stream_lane = desc.stream.map(|s| self.lane_index(s));

        let planned_ctas = match desc.shape {
            GridShape::Original { ctas } => ctas,
            GridShape::Persistent { total_tasks, .. } => {
                total_tasks.min(self.cfg.device_capacity(&desc.resources))
            }
        };

        let grid = Grid {
            id: GridId(0), // patched below, once the slab assigns the key
            name: desc.name,
            tag: desc.tag,
            resources: desc.resources,
            shape: desc.shape,
            task_cost: desc.task_cost,
            mem_intensity: desc.mem_intensity,
            rng: flep_sim_core::SimRng::seed_from(desc.seed),
            task_fn: desc.task_fn,
            first_task: desc.first_task,
            phase: GridPhase::InFlight,
            pending_ctas: planned_ctas,
            active_ctas: 0,
            completed_ctas: 0,
            next_task: 0,
            completed_tasks: 0,
            round_quota: None,
            signal: PreemptSignal::None,
            signal_visible_at: SimTime::ZERO,
            dispatch_started: None,
            planned_ctas,
            stream_lane,
            threads_on_sm: vec![0; self.cfg.num_sms as usize],
            full_own_load: f64::from(occ * desc.resources.threads_per_cta)
                / f64::from(self.cfg.threads_per_sm),
            stuck,
            stall_left: if stuck == StuckMode::WedgeOnExit {
                1
            } else {
                0
            },
            forced_exit: false,
        };
        self.trace.record(now, "launch", grid.tag);
        let id = GridId(self.grids.insert(grid));
        self.grids
            .get_mut(id.0)
            .expect("invariant: a slab key returned by insert is live until removed")
            .id = id;
        harness.schedule_gpu(
            now + self.cfg.launch_overhead + extra_delay,
            GpuEvent::LaunchArrived(id),
        );
        Ok(id)
    }

    /// The lane index for a user stream id, interning a new lane on first
    /// use.
    fn lane_index(&mut self, stream: u32) -> u32 {
        if let Some(i) = self.streams.iter().position(|l| l.stream == stream) {
            return i as u32;
        }
        self.streams.push(StreamLane {
            stream,
            live: None,
            parked: VecDeque::new(),
        });
        (self.streams.len() - 1) as u32
    }

    /// Writes the pinned preemption flag for a grid. The new value becomes
    /// visible to GPU-side polls after the configured visibility latency.
    ///
    /// Signalling a retired or unknown grid is a no-op (the host may race
    /// with completion; the paper's runtime tolerates this too).
    pub fn signal(&mut self, now: SimTime, grid: GridId, signal: PreemptSignal) {
        let mut latency = self.cfg.flag_visibility_latency;
        let Some(g) = self.grids.get_mut(grid.0) else {
            return;
        };
        if matches!(g.phase, GridPhase::Completed | GridPhase::Preempted) {
            return;
        }
        let tag = g.tag;
        if self.doorbells_lost {
            // Device hang: the write never crosses the bus. Checked before
            // the per-signal fault draw so a hung device's lost doorbells
            // do not consume (and thereby reshuffle) the fault stream.
            self.trace.record(now, "signal_lost", tag);
            return;
        }
        if let Some(plan) = self.fault.as_mut() {
            match plan.on_signal(now, tag) {
                SignalFault::None => {}
                SignalFault::Drop => {
                    // The doorbell write never lands: the grid's flag (and
                    // the signalled-grid list) stay exactly as they were.
                    self.trace.record(now, "signal_lost", tag);
                    return;
                }
                SignalFault::Delay(by) => latency += by,
            }
        }
        let g = self
            .grids
            .get_mut(grid.0)
            .expect("grid checked above; fault bookkeeping cannot remove grids");
        g.signal = signal;
        g.signal_visible_at = now + latency;
        let persistent = matches!(g.shape, GridShape::Persistent { .. });
        self.trace.record(now, "signal", tag);
        // Keep the signalled-grid list in sync: only persistent grids with
        // a live signal contribute "leaving" CTAs to contention queries.
        if persistent && signal != PreemptSignal::None {
            if !self.signalled.contains(&grid) {
                self.signalled.push(grid);
            }
        } else {
            self.signalled.retain(|&x| x != grid);
        }
    }

    /// Restores a spatially preempted persistent grid: clears its
    /// preemption signal and launches supplementary persistent CTAs (up to
    /// device capacity, bounded by unclaimed work) that pull from the same
    /// task counter. This is how the FLEP runtime gives a spatial victim
    /// its yielded SMs back once the preemptor finishes -- in the real
    /// system, a follow-up launch of the transformed kernel sharing the
    /// original grid's task-counter allocation.
    ///
    /// No-op for retired, original-shape, or unknown grids.
    pub fn restore_grid<H: GpuHarness + ?Sized>(
        &mut self,
        now: SimTime,
        grid: GridId,
        harness: &mut H,
    ) {
        let Some(g) = self.grids.get_mut(grid.0) else {
            return;
        };
        if !matches!(g.phase, GridPhase::Running | GridPhase::Queued) {
            return;
        }
        let GridShape::Persistent { .. } = g.shape else {
            return;
        };
        g.signal = PreemptSignal::None;
        g.signal_visible_at = now;
        g.forced_exit = false;
        let capacity = self.cfg.device_capacity(&g.resources);
        let live = g.active_ctas + g.pending_ctas;
        let refill = capacity.saturating_sub(live).min(g.unclaimed_tasks());
        if refill > 0 {
            g.pending_ctas += refill;
            g.planned_ctas += refill;
        }
        let tag = g.tag;
        self.signalled.retain(|&x| x != grid);
        if refill == 0 {
            return;
        }
        self.trace.record(now, "restore", tag);
        if !self.fifo.contains(&grid) {
            self.fifo.push_back(grid);
        }
        self.dispatch(now, harness);
    }

    /// Escalation level 2: forces a persistent grid to drain at its next
    /// batch boundaries regardless of the preemption flag, modelling the
    /// driver's kernel-slicing-style fallback (evict at instrumented slice
    /// boundaries below the flag poll). Effective even when the victim's
    /// flag polls are broken ([`crate::FaultKind::StuckVictim`]); a CTA
    /// wedged in its exit path ([`crate::FaultKind::WedgedExit`]) still
    /// survives this and needs a kill.
    ///
    /// No-op for retired, original-shape, or unknown grids.
    pub fn force_drain(&mut self, now: SimTime, grid: GridId) {
        let Some(g) = self.grids.get_mut(grid.0) else {
            return;
        };
        if matches!(g.phase, GridPhase::Completed | GridPhase::Preempted) {
            return;
        }
        let GridShape::Persistent { .. } = g.shape else {
            return;
        };
        if g.forced_exit {
            return;
        }
        g.forced_exit = true;
        let tag = g.tag;
        self.trace.record(now, "force_drain", tag);
        // Forced grids are "leaving" for contention purposes, exactly like
        // flag-signalled ones.
        if !self.signalled.contains(&grid) {
            self.signalled.push(grid);
        }
    }

    /// Escalation level 3: immediately evicts every CTA of the grid and
    /// retires it, the moral equivalent of `cudaDeviceReset` scoped to one
    /// grid. Work claimed but not completed is discarded — FLEP's
    /// task-pulling makes the completed-task counter the resume point, so
    /// a relaunch re-executes only the discarded tasks (task side effects
    /// fire on batch *completion*, preserving exactly-once execution).
    ///
    /// Emits [`HostNotification::Preempted`] (or `Completed` if the grid
    /// had in fact finished all tasks) through the normal — fault-prone —
    /// notification path. No-op for retired or unknown grids.
    pub fn kill_grid<H: GpuHarness + ?Sized>(
        &mut self,
        now: SimTime,
        grid: GridId,
        harness: &mut H,
    ) {
        let Some(g) = self.grids.get_mut(grid.0) else {
            return;
        };
        if matches!(g.phase, GridPhase::Completed | GridPhase::Preempted) {
            return;
        }
        let usage = g.resources;
        let tag = g.tag;
        g.pending_ctas = 0;
        g.active_ctas = 0;
        // Claimed-but-unfinished batches are lost; roll the claim counter
        // back so the completed-task counter is the single source of truth
        // for the resume point.
        g.next_task = g.completed_tasks;
        for sm_idx in 0..self.sms.len() {
            self.grids
                .get_mut(grid.0)
                .expect("grid checked above; eviction cannot remove grids")
                .threads_on_sm[sm_idx] = 0;
            for evicted in self.sms[sm_idx].evict_grid(&usage, grid) {
                self.placement.on_remove(sm_idx as u32);
                self.record_busy(grid, evicted.since, now);
            }
        }
        self.trace.record(now, "kill", tag);
        let g = self
            .grids
            .get_mut(grid.0)
            .expect("grid checked above; eviction cannot remove grids");
        let (done, total) = match g.shape {
            GridShape::Original { ctas } => (g.completed_ctas, ctas),
            GridShape::Persistent { total_tasks, .. } => (g.completed_tasks, total_tasks),
        };
        let note = if done == total {
            g.phase = GridPhase::Completed;
            HostNotification::Completed {
                grid,
                tag,
                tasks_done: done,
            }
        } else {
            g.phase = GridPhase::Preempted;
            HostNotification::Preempted {
                grid,
                tag,
                tasks_done: done,
                remaining_tasks: total - done,
            }
        };
        let lane = g.stream_lane;
        self.signalled.retain(|&x| x != grid);
        self.fifo.retain(|&x| x != grid);
        // A grid killed while parked behind its stream's live grid must
        // leave the lane, or it would be released as the next live grid
        // (and dropped on arrival), wedging the stream for good.
        if let Some(lane_idx) = lane {
            self.streams[lane_idx as usize]
                .parked
                .retain(|&x| x != grid);
        }
        self.emit_note(now, note, harness);
        self.advance_stream(now, grid, harness);
        // The eviction freed SM resources; let queued grids use them.
        self.dispatch(now, harness);
    }

    /// Sets or clears the device-hang doorbell gate (see
    /// [`GpuDevice::signal`]). Installed by the cluster layer when a
    /// device-scoped hang fault fires.
    pub fn set_doorbells_lost(&mut self, lost: bool) {
        self.doorbells_lost = lost;
    }

    /// Whether doorbell writes are currently being lost to a device hang.
    #[must_use]
    pub fn doorbells_lost(&self) -> bool {
        self.doorbells_lost
    }

    /// Total threads resident across all SMs right now: the cluster
    /// placement layer's load metric (least-loaded device first).
    #[must_use]
    pub fn resident_threads(&self) -> u64 {
        self.sms.iter().map(|sm| u64::from(sm.used_threads())).sum()
    }

    /// Device-level reset: evicts every CTA, retires every live grid, and
    /// clears the FIFO, stream lanes, and signal state — the simulated
    /// equivalent of a driver-level device reset (transient loss) or the
    /// final state of a dead device.
    ///
    /// Unlike [`GpuDevice::kill_grid`] this emits **no** host
    /// notifications: a lost device cannot interrupt the host. The host
    /// learns each grid's resume point from the returned snapshots
    /// (slab-slot order, so deterministic). Work claimed but not completed
    /// is rolled back exactly as in a kill, preserving exactly-once task
    /// execution across a migration.
    pub fn reset(&mut self, now: SimTime) -> Vec<ResetGrid> {
        let live: Vec<GridId> = self
            .grids
            .iter()
            .filter(|(_, g)| !matches!(g.phase, GridPhase::Completed | GridPhase::Preempted))
            .map(|(k, _)| GridId(k))
            .collect();
        let mut out = Vec::with_capacity(live.len());
        for gid in live {
            let g = self
                .grids
                .get_mut(gid.0)
                .expect("invariant: ids collected above are live; nothing removes them here");
            let usage = g.resources;
            let tag = g.tag;
            g.pending_ctas = 0;
            g.active_ctas = 0;
            g.next_task = g.completed_tasks;
            for sm_idx in 0..self.sms.len() {
                self.grids
                    .get_mut(gid.0)
                    .expect("invariant: eviction cannot remove grids")
                    .threads_on_sm[sm_idx] = 0;
                for evicted in self.sms[sm_idx].evict_grid(&usage, gid) {
                    self.placement.on_remove(sm_idx as u32);
                    self.record_busy(gid, evicted.since, now);
                }
            }
            let g = self
                .grids
                .get_mut(gid.0)
                .expect("invariant: eviction cannot remove grids");
            let (done, total) = match g.shape {
                GridShape::Original { ctas } => (g.completed_ctas, ctas),
                GridShape::Persistent { total_tasks, .. } => (g.completed_tasks, total_tasks),
            };
            g.phase = if done == total {
                GridPhase::Completed
            } else {
                GridPhase::Preempted
            };
            self.trace.record(now, "device_reset_evict", tag);
            out.push(ResetGrid {
                grid: gid,
                tag,
                tasks_done: done,
                remaining_tasks: total - done,
            });
        }
        self.fifo.clear();
        self.signalled.clear();
        for lane in &mut self.streams {
            lane.live = None;
            lane.parked.clear();
        }
        self.doorbells_lost = false;
        out
    }

    /// The contention factor a kernel with `usage`/`mem_intensity` sees on
    /// SM `sm_idx` at `now`, counting only co-residents that are *staying*:
    /// persistent CTAs already signalled to yield this SM are about to
    /// leave, so they do not contribute to the sustained load an incoming
    /// batch experiences.
    ///
    /// Computed from the SM's total thread occupancy minus the per-SM
    /// thread totals of signalled persistent grids (see
    /// [`GpuDevice::signalled`]) — O(signalled grids) instead of a hash
    /// lookup per resident CTA, with identical integer arithmetic.
    /// `full_own_load` is the kernel's cached own-SM thread load
    /// ([`Grid::full_own_load`]) — a launch-time constant, so passing it
    /// in keeps this query free of per-call occupancy arithmetic.
    fn effective_contention_factor(
        &self,
        now: SimTime,
        sm_idx: usize,
        full_own_load: f64,
        mem_intensity: f64,
    ) -> f64 {
        let sm = &self.sms[sm_idx];
        let mut threads = sm.used_threads();
        if !self.signalled.is_empty() {
            for &gid in &self.signalled {
                if let Some(g) = self.grids.get(gid.0) {
                    // What the CTAs will act on, not what the host wrote: a
                    // fault-stuck grid that ignores its flag is *not* leaving,
                    // so its threads still count toward sustained load.
                    if g.poll_signal(now).must_exit(sm.id()) {
                        threads -= g.threads_on_sm[sm_idx];
                    }
                }
            }
        }
        let load = f64::from(threads) / f64::from(self.cfg.threads_per_sm);
        let c = mem_intensity.max(0.0);
        (1.0 + c * load) / (1.0 + c * full_own_load)
    }

    /// Delivers a host notification through the fault layer: it may be
    /// dropped or delayed. All device-originated notifications go through
    /// here so the interrupt path has a single fault opportunity per note.
    fn emit_note<H: GpuHarness + ?Sized>(
        &mut self,
        now: SimTime,
        note: HostNotification,
        harness: &mut H,
    ) {
        if let Some(plan) = self.fault.as_mut() {
            match plan.on_note(now, note.tag()) {
                NoteFault::None => {}
                NoteFault::Drop => {
                    self.trace.record(now, "note_lost", note.tag());
                    return;
                }
                NoteFault::Delay(by) => {
                    self.trace.record(now, "note_delayed", note.tag());
                    harness.notify_host(now + by, note);
                    return;
                }
            }
        }
        harness.notify_host(now, note);
    }

    /// Routes a previously scheduled device event.
    pub fn handle<H: GpuHarness + ?Sized>(&mut self, now: SimTime, ev: GpuEvent, harness: &mut H) {
        match ev {
            GpuEvent::LaunchArrived(id) => self.on_launch_arrived(now, id, harness),
            GpuEvent::CtaDone { grid, cta, sm } => self.on_cta_done(now, grid, cta, sm, harness),
            GpuEvent::BatchDone {
                grid,
                cta,
                sm,
                first_task,
                n_tasks,
            } => self.on_batch_done(now, grid, cta, sm, first_task, n_tasks, harness),
        }
    }

    fn on_launch_arrived<H: GpuHarness + ?Sized>(
        &mut self,
        now: SimTime,
        id: GridId,
        harness: &mut H,
    ) {
        // A grid killed (and perhaps already released) while its launch
        // was in flight simply never arrives.
        let Some(grid) = self.grids.get_mut(id.0) else {
            return;
        };
        if matches!(grid.phase, GridPhase::Completed | GridPhase::Preempted) {
            return;
        }
        debug_assert_eq!(grid.phase, GridPhase::InFlight);
        // Same-stream ordering: a grid whose stream still has a live
        // predecessor parks until that predecessor retires.
        if let Some(lane_idx) = grid.stream_lane {
            let lane = &mut self.streams[lane_idx as usize];
            match lane.live {
                Some(live) if live != id => {
                    lane.parked.push_back(id);
                    return;
                }
                Some(_) => {}
                None => lane.live = Some(id),
            }
        }
        let grid = self
            .grids
            .get_mut(id.0)
            .expect("invariant: stream-lane bookkeeping never removes grids");
        grid.phase = GridPhase::Queued;
        self.fifo.push_back(id);
        self.dispatch(now, harness);
    }

    /// On retire of a stream's live grid, release its successor into the
    /// device FIFO.
    fn advance_stream<H: GpuHarness + ?Sized>(
        &mut self,
        now: SimTime,
        retired: GridId,
        harness: &mut H,
    ) {
        let Some(lane_idx) = self.grids.get(retired.0).and_then(|g| g.stream_lane) else {
            return;
        };
        let lane = &mut self.streams[lane_idx as usize];
        if lane.live != Some(retired) {
            return;
        }
        lane.live = None;
        if let Some(next_id) = lane.parked.pop_front() {
            // The successor pays the launch overhead again: starting a
            // dependent kernel involves command-processor work that cannot
            // overlap its predecessor (this is exactly the per-slice cost
            // that makes kernel slicing expensive, Fig. 17).
            lane.live = Some(next_id);
            harness.schedule_gpu(
                now + self.cfg.launch_overhead,
                GpuEvent::LaunchArrived(next_id),
            );
        }
    }

    /// The hardware CTA dispatcher: front-to-back over the FIFO with strict
    /// head-of-line blocking.
    ///
    /// Dispatch is two-phase within one call: all CTAs that fit are
    /// *placed* first (onto the least-loaded fitting SM, modelling the
    /// hardware's round-robin CTA distribution), and only then is their
    /// initial work scheduled, so the contention factor every simultaneous
    /// CTA sees reflects the full post-placement co-residency.
    fn dispatch<H: GpuHarness + ?Sized>(&mut self, now: SimTime, harness: &mut H) {
        if self.fifo.is_empty() {
            return; // Invoked after every CTA/batch exit; usually no-op.
        }
        let mut placed = std::mem::take(&mut self.placed_buf);
        debug_assert!(placed.is_empty());
        while let Some(&gid) = self.fifo.front() {
            self.place_grid(now, gid, harness, &mut placed);
            let fully_dispatched = self.grids.get(gid.0).expect(FIFO_INVARIANT).pending_ctas == 0;
            if fully_dispatched {
                self.fifo.pop_front();
                self.maybe_retire(now, gid, harness);
            } else {
                break;
            }
        }
        for &(gid, cta_idx, sm_idx) in &placed {
            let grid = self.grids.get(gid.0).expect(FIFO_INVARIANT);
            match grid.shape {
                GridShape::Original { .. } => {
                    let (own, mem) = (grid.full_own_load, grid.mem_intensity);
                    let factor = self.effective_contention_factor(now, sm_idx as usize, own, mem);
                    let grid = self.grids.get_mut(gid.0).expect(FIFO_INVARIANT);
                    let dur = grid.task_cost.sample(&mut grid.rng).scale(factor);
                    harness.schedule_gpu(
                        now + dur,
                        GpuEvent::CtaDone {
                            grid: gid,
                            cta: cta_idx,
                            sm: sm_idx,
                        },
                    );
                }
                GridShape::Persistent { .. } => {
                    self.start_batch(now, gid, cta_idx, sm_idx, harness);
                }
            }
        }
        placed.clear();
        self.placed_buf = placed;
    }

    /// Places as many pending CTAs of `gid` as fit right now, appending the
    /// placements to `placed` for phase-two scheduling.
    fn place_grid<H: GpuHarness + ?Sized>(
        &mut self,
        now: SimTime,
        gid: GridId,
        harness: &mut H,
        placed: &mut Vec<(GridId, u64, u32)>,
    ) {
        loop {
            let grid = self.grids.get_mut(gid.0).expect(FIFO_INVARIANT);
            if grid.pending_ctas == 0 {
                return;
            }

            // A persistent grid already signalled for full preemption will
            // have its not-yet-dispatched CTAs observe the flag on entry and
            // return immediately; model that by dropping them.
            if let GridShape::Persistent { .. } = grid.shape {
                let sig = grid.poll_signal(now);
                if (0..self.cfg.num_sms).all(|s| sig.must_exit(s)) {
                    grid.pending_ctas = 0;
                    return;
                }
            }

            let usage = grid.resources;
            let sig = match grid.shape {
                GridShape::Persistent { .. } => grid.poll_signal(now),
                GridShape::Original { .. } => PreemptSignal::None,
            };
            // Least-loaded fitting SM (lowest id breaks ties): the hardware
            // scheduler distributes CTAs across SMs rather than packing.
            // The placement index walks SMs in exactly the
            // `(resident_count, sm_id)` order the old full scan minimized.
            let cfg = &self.cfg;
            let sms = &self.sms;
            let Some(sm) = self
                .placement
                .least_loaded(|i| sms[i as usize].fits(cfg, &usage) && !sig.must_exit(i))
            else {
                return;
            };
            let sm_idx = sm as usize;

            let grid = self.grids.get_mut(gid.0).expect(FIFO_INVARIANT);
            let cta_idx = grid.planned_ctas - grid.pending_ctas;
            grid.pending_ctas -= 1;
            grid.active_ctas += 1;
            grid.threads_on_sm[sm_idx] += usage.threads_per_cta;
            if grid.dispatch_started.is_none() {
                grid.dispatch_started = Some(now);
                grid.phase = GridPhase::Running;
                let tag = grid.tag;
                self.trace.record(now, "dispatch_start", tag);
                self.emit_note(
                    now,
                    HostNotification::DispatchStarted { grid: gid, tag },
                    harness,
                );
            }

            let resident = ResidentCta {
                grid: gid,
                cta: cta_idx,
                since: now,
                threads: usage.threads_per_cta,
            };
            self.sms[sm_idx].place(&self.cfg, &usage, resident);
            self.placement.on_place(sm);
            placed.push((gid, cta_idx, sm));
        }
    }

    /// Claims the next batch of up to `L` tasks for a persistent CTA and
    /// schedules its completion.
    fn start_batch<H: GpuHarness + ?Sized>(
        &mut self,
        now: SimTime,
        gid: GridId,
        cta: u64,
        sm: u32,
        harness: &mut H,
    ) {
        let factor = {
            let grid = self.grids.get(gid.0).expect(BATCH_INVARIANT);
            let (own, mem) = (grid.full_own_load, grid.mem_intensity);
            self.effective_contention_factor(now, sm as usize, own, mem)
        };
        let grid = self.grids.get_mut(gid.0).expect(BATCH_INVARIANT);
        let GridShape::Persistent { amortize, .. } = grid.shape else {
            unreachable!("start_batch on original grid");
        };
        // The real transformed kernel pulls tasks one at a time (one
        // atomicAdd per task) and polls the flag once per `L` tasks, so
        // CTAs stay load-balanced to within a single task. Claiming `L`
        // tasks per simulation event would instead create an artificial
        // tail imbalance of up to `L-1` tasks per CTA. Model the per-task
        // pull's balance while keeping events batched: all claims made at
        // the same instant (one synchronized round) share a quota of
        // `min(L, ceil(unclaimed / active))` computed at the round's first
        // claim, so the final round splits the leftover work evenly.
        // Quota denominator: every worker that exists or is about to be
        // placed, so a lone early CTA cannot claim the whole pool while its
        // siblings are still being dispatched.
        let workers = grid.active_ctas.saturating_add(grid.pending_ctas).max(1);
        let unclaimed = grid.unclaimed_tasks();
        let l = u64::from(amortize);
        let n = if unclaimed == 0 {
            0
        } else {
            let quota = match grid.round_quota {
                Some((t, q)) if t == now => q,
                _ => {
                    let q = l.min(unclaimed.div_ceil(workers)).max(1);
                    grid.round_quota = Some((now, q));
                    q
                }
            };
            quota.min(unclaimed)
        };
        let first_task = grid.next_task;
        grid.next_task += n;

        let work = grid.task_cost.sample_sum(n, &mut grid.rng);
        let dur = work.scale(factor) + self.cfg.poll_cost + self.cfg.pull_cost * n;
        harness.schedule_gpu(
            now + dur,
            GpuEvent::BatchDone {
                grid: gid,
                cta,
                sm,
                first_task,
                n_tasks: n,
            },
        );
    }

    fn on_cta_done<H: GpuHarness + ?Sized>(
        &mut self,
        now: SimTime,
        gid: GridId,
        cta: u64,
        sm: u32,
        harness: &mut H,
    ) {
        // Same stale-event gate as `on_batch_done`: a killed grid's
        // in-flight completions must be dropped, not processed.
        let Some(grid) = self.grids.get_mut(gid.0) else {
            return;
        };
        if matches!(grid.phase, GridPhase::Completed | GridPhase::Preempted) {
            return;
        }
        let first_task = grid.first_task;
        if let Some(f) = grid.task_fn.as_mut() {
            f(first_task + cta);
        }
        grid.completed_ctas += 1;
        grid.active_ctas -= 1;
        let usage = grid.resources;
        grid.threads_on_sm[sm as usize] -= usage.threads_per_cta;
        let removed = self.sms[sm as usize].remove(&usage, gid, cta);
        self.placement.on_remove(sm);
        self.record_busy(gid, removed.since, now);
        self.maybe_retire(now, gid, harness);
        self.dispatch(now, harness);
    }

    #[allow(clippy::too_many_arguments)]
    fn on_batch_done<H: GpuHarness + ?Sized>(
        &mut self,
        now: SimTime,
        gid: GridId,
        cta: u64,
        sm: u32,
        first_task: u64,
        n_tasks: u64,
        harness: &mut H,
    ) {
        // A kill (watchdog escalation) retires a grid while its CTAs'
        // completion events are still in the queue; those events refer to
        // work that was forcibly discarded and must be ignored. Without
        // faults every grid outlives all of its scheduled events, so this
        // gate never fires.
        let Some(grid) = self.grids.get_mut(gid.0) else {
            return;
        };
        if matches!(grid.phase, GridPhase::Completed | GridPhase::Preempted) {
            return;
        }
        grid.completed_tasks += n_tasks;
        let offset = grid.first_task;
        if let Some(f) = grid.task_fn.as_mut() {
            for t in first_task..first_task + n_tasks {
                f(offset + t);
            }
        }

        let must_exit = grid.poll_signal(now).must_exit(sm);
        if must_exit && grid.stuck == StuckMode::WedgeOnExit && grid.stall_left > 0 {
            // The injected wedge fires: the CTA saw the flag but hangs in
            // its exit path. It stays resident (still occupying the SM and
            // counting toward contention) and will never schedule another
            // event; only a kill can reclaim it.
            grid.stall_left -= 1;
            let tag = grid.tag;
            self.trace.record(now, "cta_wedged", tag);
            if let Some(plan) = self.fault.as_mut() {
                plan.record_wedge_fired(now, tag);
            }
            return;
        }
        let out_of_work = grid.unclaimed_tasks() == 0;
        if must_exit || out_of_work {
            grid.active_ctas -= 1;
            let usage = grid.resources;
            grid.threads_on_sm[sm as usize] -= usage.threads_per_cta;
            let removed = self.sms[sm as usize].remove(&usage, gid, cta);
            self.placement.on_remove(sm);
            self.record_busy(gid, removed.since, now);
            self.maybe_retire(now, gid, harness);
            self.dispatch(now, harness);
        } else {
            self.start_batch(now, gid, cta, sm, harness);
        }
    }

    /// Records one CTA-residency interval of `gid` (owner = its tag) as a
    /// span, when span collection is on.
    fn record_busy(&mut self, gid: GridId, start: SimTime, end: SimTime) {
        if !self.collect_spans {
            return;
        }
        let owner = self
            .grids
            .get(gid.0)
            .expect("invariant: a CTA exits only while its grid is held")
            .tag;
        self.busy_spans.push(Span { start, end, owner });
    }

    /// Retires a grid whose CTAs have all left the device, emitting the
    /// appropriate notification.
    fn maybe_retire<H: GpuHarness + ?Sized>(&mut self, now: SimTime, gid: GridId, harness: &mut H) {
        let grid = self
            .grids
            .get_mut(gid.0)
            .expect("invariant: retire is only attempted from paths holding a live grid id");
        if grid.active_ctas > 0 || grid.pending_ctas > 0 {
            return;
        }
        if matches!(grid.phase, GridPhase::Completed | GridPhase::Preempted) {
            return;
        }
        match grid.shape {
            GridShape::Original { ctas } => {
                if grid.completed_ctas == ctas {
                    grid.phase = GridPhase::Completed;
                    let (tag, done) = (grid.tag, grid.completed_ctas);
                    self.trace.record(now, "complete", tag);
                    self.emit_note(
                        now,
                        HostNotification::Completed {
                            grid: gid,
                            tag,
                            tasks_done: done,
                        },
                        harness,
                    );
                    self.advance_stream(now, gid, harness);
                }
            }
            GridShape::Persistent { total_tasks, .. } => {
                // All claimed batches have finished once no CTA is active,
                // so completed == next_task here.
                debug_assert_eq!(grid.completed_tasks, grid.next_task);
                if grid.completed_tasks == total_tasks {
                    grid.phase = GridPhase::Completed;
                    let (tag, done) = (grid.tag, grid.completed_tasks);
                    self.trace.record(now, "complete", tag);
                    self.emit_note(
                        now,
                        HostNotification::Completed {
                            grid: gid,
                            tag,
                            tasks_done: done,
                        },
                        harness,
                    );
                } else {
                    grid.phase = GridPhase::Preempted;
                    let (tag, done) = (grid.tag, grid.completed_tasks);
                    let remaining = total_tasks - done;
                    self.trace.record(now, "preempt", tag);
                    self.emit_note(
                        now,
                        HostNotification::Preempted {
                            grid: gid,
                            tag,
                            tasks_done: done,
                            remaining_tasks: remaining,
                        },
                        harness,
                    );
                }
                self.advance_stream(now, gid, harness);
                // A retired grid has no resident CTAs left, so it no longer
                // influences contention queries; drop it from the list.
                self.signalled.retain(|&g| g != gid);
            }
        }
    }
}
