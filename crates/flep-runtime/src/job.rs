//! Kernel invocations as the runtime sees them: specs in, records out.

use flep_gpu_sim::{GpuConfig, GridShape, LaunchDesc, ResourceUsage, TaskCost};
use flep_sim_core::SimTime;
use flep_workloads::{Benchmark, InputClass};

/// Everything the runtime needs to launch (and relaunch) one kernel.
///
/// This is what the transformed CPU code sends to the runtime at a launch
/// site (§5.1): the kernel's identity, configuration, and the preemption
/// parameters baked in by the compilation engine.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelProfile {
    /// Kernel name (for diagnostics).
    pub name: String,
    /// Per-CTA resource usage.
    pub resources: ResourceUsage,
    /// Total tasks of the invocation.
    pub total_tasks: u64,
    /// Per-task cost model.
    pub task_cost: TaskCost,
    /// Contention-model slope.
    pub mem_intensity: f64,
    /// The amortizing factor chosen offline.
    pub amortize: u32,
}

impl KernelProfile {
    /// Builds the profile of a benchmark on an input class, using its
    /// Table 1 amortizing factor.
    #[must_use]
    pub fn of(bench: &Benchmark, class: InputClass) -> Self {
        let p = bench.profile(class);
        KernelProfile {
            name: format!("{}_{:?}", bench.id.name(), class),
            resources: bench.resources,
            total_tasks: p.tasks,
            task_cost: bench.task_cost(class),
            mem_intensity: bench.mem_intensity,
            amortize: bench.table1_amortize,
        }
    }

    /// The FLEP persistent launch descriptor for (a remainder of) this
    /// kernel.
    #[must_use]
    pub fn persistent_desc(&self, tag: u64, seed: u64, first_task: u64, tasks: u64) -> LaunchDesc {
        LaunchDesc::new(
            self.name.clone(),
            GridShape::Persistent {
                total_tasks: tasks,
                amortize: self.amortize,
            },
            self.task_cost,
        )
        .with_tag(tag)
        .with_seed(seed)
        .with_resources(self.resources)
        .with_mem_intensity(self.mem_intensity)
        .with_first_task(first_task)
    }

    /// The untransformed launch descriptor (baselines).
    #[must_use]
    pub fn original_desc(&self, tag: u64, seed: u64) -> LaunchDesc {
        LaunchDesc::new(
            self.name.clone(),
            GridShape::Original {
                ctas: self.total_tasks,
            },
            self.task_cost,
        )
        .with_tag(tag)
        .with_seed(seed)
        .with_resources(self.resources)
        .with_mem_intensity(self.mem_intensity)
    }

    /// A wave-model estimate of the standalone duration (used as `T_e`
    /// when the caller provides no model prediction).
    #[must_use]
    pub fn estimate_duration(&self, config: &GpuConfig) -> SimTime {
        let capacity = config.device_capacity(&self.resources).max(1);
        self.task_cost.base * self.total_tasks.div_ceil(capacity)
    }

    /// An a-priori estimate of the cost of preempting this kernel: the
    /// batch drain (`L × task`), flag visibility, and the relaunch overhead
    /// paid on resume. Replaced by profiled averages once preemptions have
    /// been observed (§4.2).
    #[must_use]
    pub fn estimate_preempt_overhead(&self, config: &GpuConfig) -> SimTime {
        self.task_cost.base * u64::from(self.amortize)
            + config.flag_visibility_latency
            + config.launch_overhead
    }

    /// SMs needed to host all of this kernel's remaining CTAs (bounded by
    /// the device size) — the spatial-preemption target (§3).
    #[must_use]
    pub fn sms_needed(&self, config: &GpuConfig, tasks: u64) -> u32 {
        let ctas = tasks.min(config.device_capacity(&self.resources).max(1));
        config.sms_needed(&self.resources, ctas)
    }
}

/// Does the job run once or loop forever (the FFS experiments run each
/// benchmark "in an infinite loop", §6.3.3)?
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepeatMode {
    /// One invocation.
    Once,
    /// Re-invoke immediately after every completion until the experiment
    /// horizon.
    Loop,
}

/// One kernel invocation submitted to the runtime.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// The kernel.
    pub profile: KernelProfile,
    /// When the host process invokes it.
    pub arrival: SimTime,
    /// Priority (higher wins; equal priorities share a queue).
    pub priority: u32,
    /// The performance model's predicted duration (`T_e`). `None` falls
    /// back to the wave-model estimate.
    pub predicted: Option<SimTime>,
    /// Noise seed for this invocation.
    pub seed: u64,
    /// Once or looping.
    pub repeat: RepeatMode,
    /// Device-memory working set of the kernel, in bytes. With a swap
    /// manager configured on the co-run, launches whose working set is not
    /// resident pay the swap-in time as extra launch latency (the GPUSwap
    /// integration the paper plans in §8).
    pub working_set_bytes: u64,
    /// Tasks already completed by an earlier incarnation of this job on
    /// another device — the cluster migration resume point. The runtime
    /// starts the job's task counter here, so its first launch pulls from
    /// `resume_from` exactly as a post-kill relaunch would (FLEP's
    /// task-counter checkpoint is what makes cross-device migration safe).
    pub resume_from: u64,
    /// Owning tenant, for the cluster's placement constraints (tenant
    /// anti-affinity, spread-across-failure-domain). `None` — and any
    /// value while those constraints are off — changes nothing.
    pub tenant: Option<u32>,
}

impl JobSpec {
    /// A one-shot job with default priority 1.
    #[must_use]
    pub fn new(profile: KernelProfile, arrival: SimTime) -> Self {
        JobSpec {
            profile,
            arrival,
            priority: 1,
            predicted: None,
            seed: 0,
            repeat: RepeatMode::Once,
            working_set_bytes: 0,
            resume_from: 0,
            tenant: None,
        }
    }

    /// Resumes the job from a saved task counter (builder style): used by
    /// the cluster layer when relaunching a migrated job on a survivor.
    #[must_use]
    pub fn resuming_from(mut self, tasks_done: u64) -> Self {
        self.resume_from = tasks_done;
        self
    }

    /// Sets the priority (builder style).
    #[must_use]
    pub fn with_priority(mut self, priority: u32) -> Self {
        self.priority = priority;
        self
    }

    /// Sets the model prediction (builder style).
    #[must_use]
    pub fn with_predicted(mut self, predicted: SimTime) -> Self {
        self.predicted = Some(predicted);
        self
    }

    /// Sets the noise seed (builder style).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Makes the job loop (builder style).
    #[must_use]
    pub fn looping(mut self) -> Self {
        self.repeat = RepeatMode::Loop;
        self
    }

    /// Declares the kernel's device-memory working set (builder style).
    #[must_use]
    pub fn with_working_set(mut self, bytes: u64) -> Self {
        self.working_set_bytes = bytes;
        self
    }

    /// Tags the job with its owning tenant (builder style) — consumed by
    /// the cluster's placement constraints.
    #[must_use]
    pub fn with_tenant(mut self, tenant: u32) -> Self {
        self.tenant = Some(tenant);
        self
    }
}

/// The observable outcome of one job.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JobRecord {
    /// Kernel name.
    pub name: String,
    /// Priority it ran at.
    pub priority: u32,
    /// Arrival time.
    pub arrival: SimTime,
    /// First time the runtime granted it the GPU.
    pub first_granted: Option<SimTime>,
    /// First time one of its CTAs was actually dispatched onto an SM
    /// (later than the grant by the launch overhead and any drain wait).
    pub first_dispatched: Option<SimTime>,
    /// Completion time of the (first) invocation.
    pub completed: Option<SimTime>,
    /// Number of times it was preempted.
    pub preemptions: u32,
    /// Total time spent waiting (active but not granted), `T_w`.
    pub waiting: SimTime,
    /// Completed invocations (1 for `Once` jobs; the loop count for `Loop`
    /// jobs).
    pub completions: u64,
    /// Observed preemption drain latencies (signal → all CTAs exited).
    pub drain_samples: Vec<SimTime>,
    /// Cumulative tasks completed across all invocations (loops included),
    /// for useful-work throughput accounting (Fig. 14).
    pub tasks_completed: u64,
}

impl JobRecord {
    /// Turnaround of the first invocation: arrival → completion.
    #[must_use]
    pub fn turnaround(&self) -> Option<SimTime> {
        self.completed.map(|c| c.saturating_sub(self.arrival))
    }
}

/// A job's final record as it leaves a layer (a device's runtime world or
/// the cluster): the one entry it gets in that layer's settled log.
#[derive(Debug, Clone, PartialEq)]
pub struct Settled {
    /// When it settled.
    pub at: SimTime,
    /// The job's owner index: the index its submitter knows it by.
    pub job: usize,
    /// Finished all tasks (`true`) or failed (`false`).
    pub completed: bool,
    /// The job's record.
    pub record: JobRecord,
}

#[cfg(test)]
mod tests {
    use super::*;
    use flep_workloads::BenchmarkId;

    #[test]
    fn profile_of_benchmark_matches_table1_estimate() {
        let cfg = GpuConfig::k40();
        let b = Benchmark::get(BenchmarkId::Nn);
        let p = KernelProfile::of(&b, InputClass::Large);
        let est = p.estimate_duration(&cfg);
        assert!((est.as_us() - 15_775.0).abs() / 15_775.0 < 0.005);
        assert_eq!(p.amortize, 100);
    }

    #[test]
    fn sms_needed_for_trivial_input() {
        let cfg = GpuConfig::k40();
        let b = Benchmark::get(BenchmarkId::Va);
        let p = KernelProfile::of(&b, InputClass::Trivial);
        // 40 CTAs at 8/SM -> 5 SMs (the paper's example).
        assert_eq!(p.sms_needed(&cfg, p.total_tasks), 5);
        let large = KernelProfile::of(&b, InputClass::Large);
        assert_eq!(large.sms_needed(&cfg, large.total_tasks), 15);
    }

    #[test]
    fn preempt_overhead_scales_with_amortize() {
        let cfg = GpuConfig::k40();
        let va = KernelProfile::of(&Benchmark::get(BenchmarkId::Va), InputClass::Large);
        let cfd = KernelProfile::of(&Benchmark::get(BenchmarkId::Cfd), InputClass::Large);
        // VA: L=200 small tasks; CFD: L=1 huge tasks.
        let o_va = va.estimate_preempt_overhead(&cfg);
        let o_cfd = cfd.estimate_preempt_overhead(&cfg);
        assert!(o_va > o_cfd);
    }

    #[test]
    fn job_spec_builders() {
        let b = Benchmark::get(BenchmarkId::Mm);
        let p = KernelProfile::of(&b, InputClass::Small);
        let j = JobSpec::new(p, SimTime::from_us(3))
            .with_priority(5)
            .with_seed(9)
            .with_predicted(SimTime::from_us(1500))
            .looping();
        assert_eq!(j.priority, 5);
        assert_eq!(j.repeat, RepeatMode::Loop);
        assert_eq!(j.predicted, Some(SimTime::from_us(1500)));
    }

    #[test]
    fn record_turnaround() {
        let mut r = JobRecord {
            arrival: SimTime::from_us(10),
            ..JobRecord::default()
        };
        assert_eq!(r.turnaround(), None);
        r.completed = Some(SimTime::from_us(110));
        assert_eq!(r.turnaround(), Some(SimTime::from_us(100)));
    }
}
