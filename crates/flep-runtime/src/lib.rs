//! The FLEP runtime engine (§5 of the paper): the online phase.
//!
//! The runtime intercepts every kernel invocation, predicts its duration,
//! logs its execution status as the `(T_e, T_w, T_r)` triplet, and decides
//! which kernels to preempt and schedule:
//!
//! * [`Policy::Hpf`] — highest-priority-first (Fig. 6): priority
//!   preemption across levels, shortest-remaining-time within a level, and
//!   a preemption only when the waiting kernel's remaining time plus the
//!   profiled preemption overhead beats the running kernel's remaining
//!   time. Optionally yields just enough SMs for the waiting grid
//!   (spatial preemption, §3).
//! * [`Policy::Ffs`] — fairness-first weighted round-robin whose epoch
//!   length is derived from the §5.2.2 overhead constraint.
//! * [`Policy::MpsBaseline`] / [`Policy::Reordering`] — the two
//!   non-preemptive baselines the evaluation compares against.
//!
//! Experiments are described with [`CoRun`] and return [`CoRunResult`]
//! records; the world itself ([`SystemWorld`]) is public for tests that
//! need event-level control. [`GpuCluster`] shards the runtime across N
//! simulated devices with per-device failure domains and
//! kill-migrate-restart recovery; [`ClusterRun`] is its driver.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cluster;
mod driver;
mod health;
mod job;
mod poll;
mod world;

pub use cluster::{
    ClusterConfig, ClusterEvent, ClusterResult, ClusterRun, DeviceEvent, DeviceEventKind,
    DeviceState, GpuCluster, PlacementConfig, StepMode,
};
pub use driver::{CoRun, CoRunResult, DEFAULT_EVENT_BUDGET};
pub use health::{BreakerState, DeviceHealth, HealthConfig};
pub use job::{JobRecord, JobSpec, KernelProfile, RepeatMode};
pub use world::{
    EvictedJob, Policy, RecoveryAction, RecoveryEvent, RunRecords, RunReport, RuntimeError,
    SystemEvent, SystemWorld, WatchdogConfig,
};
