//! A discrete-event simulator of a Kepler-class GPU, built as the hardware
//! substrate for the FLEP reproduction.
//!
//! The simulator models exactly the execution semantics the FLEP paper's
//! techniques depend on (§2.1 of the paper):
//!
//! * **SMs with occupancy limits** — threads, registers, shared memory, and
//!   a hardware CTA cap determine how many CTAs an SM hosts
//!   ([`GpuConfig::occupancy_per_sm`]).
//! * **A non-preemptive hardware dispatcher** — grids enter one FIFO; the
//!   front grid's CTAs must all be dispatched before any later grid's CTAs
//!   get a chance (head-of-line blocking), which is why unmodified kernels
//!   cannot be preempted. Leftover-resource backfill near a grid's tail
//!   models MPS co-scheduling.
//! * **Persistent-thread grids** ([`GridShape::Persistent`]) — the FLEP
//!   compiled form: `min(capacity, tasks)` CTAs pull tasks from a shared
//!   counter and poll a pinned host flag every `L` tasks, paying the poll
//!   and pull costs of the transformed code.
//! * **Pinned-flag preemption** ([`PreemptSignal`]) — a single integer
//!   encodes both temporal (yield all SMs) and spatial (yield SMs with
//!   `%smid < n`) preemption, exactly as in Fig. 4(c).
//! * **An intra-SM contention model** ([`Sm::contention_factor`]) — per-task
//!   durations scale with SM thread load, giving spatial co-runs and
//!   Fig. 16's SM-sweep their characteristic behaviour.
//!
//! # Quickstart
//!
//! ```
//! use flep_gpu_sim::{
//!     GpuConfig, GridShape, LaunchDesc, PreemptSignal, Scenario, TaskCost,
//! };
//! use flep_sim_core::SimTime;
//!
//! // A persistent-thread kernel with 60,000 tasks, polling every 5 tasks.
//! let desc = LaunchDesc::new(
//!     "demo",
//!     GridShape::Persistent { total_tasks: 60_000, amortize: 5 },
//!     TaskCost::fixed(SimTime::from_us(20)),
//! )
//! .with_tag(7);
//!
//! let mut sc = Scenario::new(GpuConfig::k40());
//! sc.launch_at(SimTime::ZERO, desc);
//! // Preempt the whole device at t = 1ms.
//! sc.signal_at(SimTime::from_ms(1), 7, PreemptSignal::YieldSms(15));
//! let result = sc.run();
//! let record = &result.records[&7];
//! assert_eq!(record.preemptions.len(), 1);
//! assert!(record.preemptions[0].remaining > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod device;
mod fault;
mod grid;
mod placement;
mod scenario;
mod sm;
mod swap;
mod topology;

pub use config::{GpuConfig, ResourceUsage};
pub use device::{GpuDevice, GpuEvent, GpuHarness, HostNotification, LaunchError, ResetGrid};
pub use fault::{
    DeviceFaultConfig, DeviceFaultKind, DeviceFaultPlan, FaultConfig, FaultEvent, FaultKind,
    FaultPlan, DEVICE_FAULT_STREAM, FAULT_STREAM,
};
pub use grid::{GridId, GridPhase, GridShape, LaunchDesc, PreemptSignal, TaskCost, TaskFn};
pub use placement::PlacementIndex;
pub use scenario::{
    run_single, CollectorHarness, LaunchRecord, PreemptionRecord, Scenario, ScenarioResult,
};
pub use sm::{ResidentCta, Sm};
pub use swap::{SwapManager, SwapStats, WorkingSetTooLarge};
pub use topology::{
    CorrelatedFaultConfig, CorrelatedFaultKind, CorrelatedFaultPlan, FailureTopology,
    CORRELATED_FAULT_STREAM,
};
