//! Grids (kernel launches) and their device-side bookkeeping.

use std::fmt;

use flep_sim_core::{u64_to_f64, SimRng, SimTime};

use crate::config::ResourceUsage;
use crate::device::HostNotification;

/// Identifier of a grid (one kernel launch) on a device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GridId(pub u64);

impl fmt::Display for GridId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "grid#{}", self.0)
    }
}

/// How the grid executes on the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GridShape {
    /// The untransformed kernel: one CTA per task, dispatched by the
    /// hardware FIFO; not preemptable.
    Original {
        /// Number of CTAs (= tasks) in the grid.
        ctas: u64,
    },
    /// A FLEP persistent-threads kernel (Fig. 4): `min(device capacity,
    /// total_tasks)` CTAs each pull tasks from a shared counter and poll the
    /// preemption flag every `amortize` tasks.
    Persistent {
        /// Total number of tasks the grid must process.
        total_tasks: u64,
        /// The amortizing factor `L`: tasks processed per flag poll.
        amortize: u32,
    },
}

impl GridShape {
    /// Total tasks this grid represents, independent of shape.
    #[must_use]
    pub fn total_tasks(&self) -> u64 {
        match *self {
            GridShape::Original { ctas } => ctas,
            GridShape::Persistent { total_tasks, .. } => total_tasks,
        }
    }
}

/// The cost model for one task: a base duration plus multiplicative noise.
///
/// `rel_noise` is the relative standard deviation of a per-task factor
/// centered at 1. Irregular kernels (SPMV, MD) get larger values; perfectly
/// regular ones (VA) get ~0.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskCost {
    /// Mean duration of a task at full single-kernel occupancy.
    pub base: SimTime,
    /// Relative per-task duration noise (std dev of the factor around 1).
    pub rel_noise: f64,
}

impl TaskCost {
    /// A fixed-cost task model with no noise.
    #[must_use]
    pub fn fixed(base: SimTime) -> Self {
        TaskCost {
            base,
            rel_noise: 0.0,
        }
    }

    /// Samples the duration of one task (before contention scaling).
    pub fn sample(&self, rng: &mut SimRng) -> SimTime {
        if self.rel_noise <= 0.0 {
            return self.base;
        }
        self.base.scale(rng.noise_factor(self.rel_noise))
    }

    /// Samples the summed duration of `n` tasks with one normal draw.
    ///
    /// The sum of `n` i.i.d. `N(1, σ²)` factors is exactly `N(n, nσ²)`, so
    /// the batch factor is `max(0.05·n, n + σ·√n·z)`: the per-batch
    /// distribution of `n` calls to [`sample`](Self::sample) except for
    /// the per-task 0.05 floor, which becomes `0.05·n` (it binds with
    /// p < 1e-3 even at σ = 0.3). For `n == 1` this is bit-identical to
    /// `sample`, RNG consumption included. `n == 0` and a noiseless cost
    /// draw nothing.
    pub fn sample_sum(&self, n: u64, rng: &mut SimRng) -> SimTime {
        if self.rel_noise <= 0.0 || n == 0 {
            return self.base * n;
        }
        let n = u64_to_f64(n);
        let factor = rng.normal(n, self.rel_noise * n.sqrt()).max(0.05 * n);
        self.base.scale(factor)
    }
}

/// A per-task side effect, used by functional workloads to perform real
/// computation (so tests can assert that preempted + resumed execution
/// produces exactly the results of an uninterrupted run).
pub type TaskFn = Box<dyn FnMut(u64) + Send>;

/// Everything the device needs to execute one kernel launch.
pub struct LaunchDesc {
    /// Kernel name (diagnostics and traces).
    pub name: String,
    /// Host-side correlation tag; resumed launches of the same logical
    /// kernel invocation share a tag.
    pub tag: u64,
    /// Per-CTA resource requirements.
    pub resources: ResourceUsage,
    /// Execution shape (original vs persistent-threads).
    pub shape: GridShape,
    /// Task cost model.
    pub task_cost: TaskCost,
    /// Contention-model slope for this kernel (see the device's
    /// `GpuDevice::effective_contention_factor`).
    pub mem_intensity: f64,
    /// Seed for this grid's private noise stream.
    pub seed: u64,
    /// Optional per-task side effect.
    pub task_fn: Option<TaskFn>,
    /// Index of the first task in this launch. Zero for fresh launches;
    /// resumed launches carry the victim's task offset so functional
    /// workloads see globally consistent task indices.
    pub first_task: u64,
    /// CUDA stream: grids in the same stream execute strictly in launch
    /// order (a grid waits until its predecessor retires). `None` models
    /// an independent stream per launch — the MPS default, where commands
    /// from different processes may run concurrently (§2.1).
    pub stream: Option<u32>,
    /// Additional latency before the grid reaches the device FIFO, on top
    /// of the configured launch overhead. The runtime uses this to charge
    /// working-set swap-in time (GPUSwap integration).
    pub extra_launch_delay: SimTime,
}

impl LaunchDesc {
    /// Convenience constructor with unit tag/seed and no task function.
    #[must_use]
    pub fn new(name: impl Into<String>, shape: GridShape, task_cost: TaskCost) -> Self {
        LaunchDesc {
            name: name.into(),
            tag: 0,
            resources: ResourceUsage::typical_256(),
            shape,
            task_cost,
            mem_intensity: 0.0,
            seed: 0,
            task_fn: None,
            first_task: 0,
            stream: None,
            extra_launch_delay: SimTime::ZERO,
        }
    }

    /// Sets the host correlation tag (builder style).
    #[must_use]
    pub fn with_tag(mut self, tag: u64) -> Self {
        self.tag = tag;
        self
    }

    /// Sets the resource usage (builder style).
    #[must_use]
    pub fn with_resources(mut self, resources: ResourceUsage) -> Self {
        self.resources = resources;
        self
    }

    /// Sets the contention slope (builder style).
    #[must_use]
    pub fn with_mem_intensity(mut self, c: f64) -> Self {
        self.mem_intensity = c;
        self
    }

    /// Sets the grid's noise seed (builder style).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Attaches a per-task side effect (builder style).
    #[must_use]
    pub fn with_task_fn(mut self, f: TaskFn) -> Self {
        self.task_fn = Some(f);
        self
    }

    /// Sets the first task index (builder style); used on resume.
    #[must_use]
    pub fn with_first_task(mut self, first: u64) -> Self {
        self.first_task = first;
        self
    }

    /// Assigns the launch to a CUDA stream (builder style): same-stream
    /// grids serialize in launch order.
    #[must_use]
    pub fn with_stream(mut self, stream: u32) -> Self {
        self.stream = Some(stream);
        self
    }

    /// Adds pre-FIFO launch latency (builder style); used for swap-in
    /// charges.
    #[must_use]
    pub fn with_extra_launch_delay(mut self, delay: SimTime) -> Self {
        self.extra_launch_delay = delay;
        self
    }

    /// A copy of this descriptor without the task closure (task functions
    /// are not cloneable; slices/resumes re-attach their own).
    #[must_use]
    pub fn clone_without_task_fn(&self) -> LaunchDesc {
        LaunchDesc {
            name: self.name.clone(),
            tag: self.tag,
            resources: self.resources,
            shape: self.shape,
            task_cost: self.task_cost,
            mem_intensity: self.mem_intensity,
            seed: self.seed,
            task_fn: None,
            first_task: self.first_task,
            stream: self.stream,
            extra_launch_delay: self.extra_launch_delay,
        }
    }
}

impl fmt::Debug for LaunchDesc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LaunchDesc")
            .field("name", &self.name)
            .field("tag", &self.tag)
            .field("resources", &self.resources)
            .field("shape", &self.shape)
            .field("task_cost", &self.task_cost)
            .field("mem_intensity", &self.mem_intensity)
            .field("seed", &self.seed)
            .field("task_fn", &self.task_fn.as_ref().map(|_| "<fn>"))
            .field("first_task", &self.first_task)
            .field("stream", &self.stream)
            .finish()
    }
}

/// The preemption signal the host writes into the pinned flag.
///
/// Following Fig. 4(c), a single integer (`spa_P`) encodes both temporal and
/// spatial preemption: CTAs whose `%smid` is below the value exit. A value
/// of at least the SM count is therefore equivalent to temporal preemption
/// (yield everything); the paper notes this equivalence explicitly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PreemptSignal {
    /// No preemption requested; CTAs keep pulling tasks.
    None,
    /// CTAs on SMs with `%smid < n` must exit at the next poll.
    YieldSms(u32),
}

impl PreemptSignal {
    /// Whether a CTA hosted on `sm_id` must exit under this signal.
    #[must_use]
    pub fn must_exit(&self, sm_id: u32) -> bool {
        match *self {
            PreemptSignal::None => false,
            PreemptSignal::YieldSms(n) => sm_id < n,
        }
    }
}

/// Lifecycle of a grid as observable from outside the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GridPhase {
    /// Launched, still in flight to the device (launch overhead).
    InFlight,
    /// In the device FIFO, no CTA dispatched yet.
    Queued,
    /// At least one CTA dispatched and work remains.
    Running,
    /// All tasks processed; grid retired.
    Completed,
    /// Preempted before finishing; grid retired with tasks remaining.
    Preempted,
}

/// How (if at all) a grid's CTAs misbehave around preemption, decided at
/// launch time by the device's [`crate::FaultPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StuckMode {
    /// Healthy: CTAs poll the flag and exit when told to.
    Responsive,
    /// CTAs never observe the preemption flag (polls compiled out or the
    /// amortizing factor is effectively infinite). Flag writes are inert;
    /// a forced drain still evicts at batch boundaries.
    IgnoreFlag,
    /// CTAs see the flag, but the first `stall_left` of them that should
    /// exit hang instead of leaving the SM. Only a kill recovers.
    WedgeOnExit,
}

/// Device-internal grid state.
pub(crate) struct Grid {
    pub(crate) id: GridId,
    pub(crate) name: String,
    pub(crate) tag: u64,
    pub(crate) resources: ResourceUsage,
    pub(crate) shape: GridShape,
    pub(crate) task_cost: TaskCost,
    pub(crate) mem_intensity: f64,
    pub(crate) rng: SimRng,
    pub(crate) task_fn: Option<TaskFn>,
    pub(crate) first_task: u64,
    pub(crate) phase: GridPhase,
    /// CTAs not yet dispatched (original: remaining CTAs; persistent:
    /// remaining persistent workers to place).
    pub(crate) pending_ctas: u64,
    /// CTAs currently resident on SMs.
    pub(crate) active_ctas: u64,
    /// Original shape: CTAs fully executed. Persistent: unused.
    pub(crate) completed_ctas: u64,
    /// Persistent shape: next unclaimed task index (relative to launch).
    pub(crate) next_task: u64,
    /// Persistent shape: tasks whose batches have completed.
    pub(crate) completed_tasks: u64,
    /// Persistent shape: per-round claim quota, keyed by the timestamp of
    /// the round's first claim (see `GpuDevice::start_batch`).
    pub(crate) round_quota: Option<(SimTime, u64)>,
    /// Latest host-written preemption signal and when it becomes visible
    /// to GPU-side polls.
    pub(crate) signal: PreemptSignal,
    pub(crate) signal_visible_at: SimTime,
    /// When the first CTA was dispatched.
    pub(crate) dispatch_started: Option<SimTime>,
    /// Total CTAs this grid will try to place.
    pub(crate) planned_ctas: u64,
    /// Index of the launch's interned stream lane on the device, if the
    /// launch named a stream.
    pub(crate) stream_lane: Option<u32>,
    /// Resident thread total per SM, maintained on CTA place/remove so
    /// contention queries need not walk residents.
    pub(crate) threads_on_sm: Vec<u32>,
    /// Cached `occupancy * threads_per_cta / threads_per_sm` — the thread
    /// load this kernel puts on an SM it fully owns. A pure function of
    /// the launch resources and the device config, so it is computed once
    /// at launch (with the exact expression the per-batch contention
    /// query used) instead of on every batch claim.
    pub(crate) full_own_load: f64,
    /// Fault-injected preemption misbehavior (always `Responsive` without
    /// an active fault plan).
    pub(crate) stuck: StuckMode,
    /// With [`StuckMode::WedgeOnExit`]: how many more exiting CTAs will
    /// wedge instead of leaving.
    pub(crate) stall_left: u32,
    /// Set by a forced drain: overrides the flag (and `IgnoreFlag`
    /// stuckness) with an unconditional yield-everything, modelling the
    /// driver's slice-boundary eviction fallback.
    pub(crate) forced_exit: bool,
}

impl Grid {
    /// Signal value visible to a poll happening at `now`.
    pub(crate) fn visible_signal(&self, now: SimTime) -> PreemptSignal {
        if now >= self.signal_visible_at {
            self.signal
        } else {
            PreemptSignal::None
        }
    }

    /// Whether the grid has retired (`Completed` or `Preempted`).
    pub(crate) fn is_retired(&self) -> bool {
        matches!(self.phase, GridPhase::Completed | GridPhase::Preempted)
    }

    /// Remaining unclaimed tasks (persistent shape).
    pub(crate) fn unclaimed_tasks(&self) -> u64 {
        self.shape.total_tasks() - self.next_task
    }

    /// `(done, total)`: CTAs fully executed out of the grid's CTAs for an
    /// original grid, completed tasks out of its tasks for a persistent
    /// one. `done` is the exactly-once resume point.
    pub(crate) fn progress(&self) -> (u64, u64) {
        match self.shape {
            GridShape::Original { ctas } => (self.completed_ctas, ctas),
            GridShape::Persistent { total_tasks, .. } => (self.completed_tasks, total_tasks),
        }
    }

    /// Retires the grid once no CTA of it is left on the device:
    /// `Completed` when every task is done, `Preempted` otherwise. Returns
    /// the matching host notification.
    pub(crate) fn retire(&mut self) -> HostNotification {
        // No claim outlives its CTA: every claimed batch either completed
        // or was rolled back by an eviction.
        debug_assert_eq!(
            self.next_task, self.completed_tasks,
            "retiring {} with claimed tasks unaccounted",
            self.id
        );
        let (done, total) = self.progress();
        let (grid, tag) = (self.id, self.tag);
        if done == total {
            self.phase = GridPhase::Completed;
            HostNotification::Completed {
                grid,
                tag,
                tasks_done: done,
            }
        } else {
            self.phase = GridPhase::Preempted;
            HostNotification::Preempted {
                grid,
                tag,
                tasks_done: done,
                remaining_tasks: total - done,
            }
        }
    }

    /// The signal a CTA's poll actually *acts on* at `now`: what
    /// [`Grid::visible_signal`] returns, filtered through fault-injected
    /// stuckness and overridden by a forced drain. Without faults this is
    /// exactly `visible_signal` (the default `Responsive`/`forced_exit ==
    /// false` path), so fault-free behavior is untouched.
    pub(crate) fn poll_signal(&self, now: SimTime) -> PreemptSignal {
        if self.forced_exit {
            return PreemptSignal::YieldSms(u32::MAX);
        }
        if self.stuck == StuckMode::IgnoreFlag {
            return PreemptSignal::None;
        }
        self.visible_signal(now)
    }
}

impl fmt::Debug for Grid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Grid")
            .field("id", &self.id)
            .field("name", &self.name)
            .field("tag", &self.tag)
            .field("phase", &self.phase)
            .field("shape", &self.shape)
            .field("pending_ctas", &self.pending_ctas)
            .field("active_ctas", &self.active_ctas)
            .field("next_task", &self.next_task)
            .field("completed_tasks", &self.completed_tasks)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preempt_signal_thresholds() {
        let none = PreemptSignal::None;
        assert!(!none.must_exit(0));
        let spatial = PreemptSignal::YieldSms(5);
        assert!(spatial.must_exit(0));
        assert!(spatial.must_exit(4));
        assert!(!spatial.must_exit(5));
        assert!(!spatial.must_exit(14));
        let temporal = PreemptSignal::YieldSms(15);
        assert!((0..15).all(|sm| temporal.must_exit(sm)));
    }

    #[test]
    fn task_cost_fixed_has_no_noise() {
        let mut rng = SimRng::seed_from(1);
        let cost = TaskCost::fixed(SimTime::from_us(5));
        for _ in 0..10 {
            assert_eq!(cost.sample(&mut rng), SimTime::from_us(5));
        }
    }

    #[test]
    fn task_cost_noise_varies_but_stays_positive() {
        let mut rng = SimRng::seed_from(2);
        let cost = TaskCost {
            base: SimTime::from_us(10),
            rel_noise: 0.3,
        };
        let samples: Vec<SimTime> = (0..100).map(|_| cost.sample(&mut rng)).collect();
        assert!(samples.iter().any(|&s| s != samples[0]));
        assert!(samples.iter().all(|s| !s.is_zero()));
    }

    #[test]
    fn sample_sum_of_one_is_bit_identical_to_sample() {
        // σ = 2.0 and 5.0 make the 0.05 floor bind often.
        for rel_noise in [0.01, 0.05, 0.1, 0.3, 0.7, 2.0, 5.0] {
            for seed in 0..200 {
                let cost = TaskCost {
                    base: SimTime::from_ns(1_000 + seed * 37),
                    rel_noise,
                };
                let mut a = SimRng::seed_from(seed);
                let mut b = a.clone();
                for _ in 0..8 {
                    assert_eq!(cost.sample_sum(1, &mut a), cost.sample(&mut b));
                }
                assert_eq!(a.u64(), b.u64(), "RNG state diverged (seed {seed})");
            }
        }
    }

    #[test]
    fn sample_sum_draws_nothing_for_empty_or_noiseless_batches() {
        let noisy = TaskCost {
            base: SimTime::from_us(3),
            rel_noise: 0.2,
        };
        let fixed = TaskCost::fixed(SimTime::from_us(3));
        let mut rng = SimRng::seed_from(9);
        let mut untouched = rng.clone();
        assert_eq!(noisy.sample_sum(0, &mut rng), SimTime::ZERO);
        assert_eq!(fixed.sample_sum(0, &mut rng), SimTime::ZERO);
        assert_eq!(fixed.sample_sum(200, &mut rng), SimTime::from_us(600));
        assert_eq!(rng.u64(), untouched.u64());
    }

    #[test]
    fn shape_total_tasks() {
        assert_eq!(GridShape::Original { ctas: 7 }.total_tasks(), 7);
        assert_eq!(
            GridShape::Persistent {
                total_tasks: 9,
                amortize: 4
            }
            .total_tasks(),
            9
        );
    }

    #[test]
    fn launch_desc_builder_chain() {
        let desc = LaunchDesc::new(
            "k",
            GridShape::Original { ctas: 1 },
            TaskCost::fixed(SimTime::from_us(1)),
        )
        .with_tag(7)
        .with_seed(3)
        .with_mem_intensity(0.5)
        .with_first_task(10);
        assert_eq!(desc.tag, 7);
        assert_eq!(desc.seed, 3);
        assert_eq!(desc.first_task, 10);
        assert!(format!("{desc:?}").contains("\"k\""));
    }
}
