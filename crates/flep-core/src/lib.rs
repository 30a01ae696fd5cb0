//! **FLEP-rs** — a Rust reproduction of *FLEP: Enabling Flexible and
//! Efficient Preemption on GPUs* (Wu, Liu, Zhou, Jiang — ASPLOS 2017).
//!
//! FLEP is a compiler + runtime system that makes GPU kernels preemptable
//! on hardware whose CTA scheduler is strictly non-preemptive. The
//! compiler rewrites kernels into persistent-thread form that polls a
//! pinned host flag (temporally, amortized over `L` tasks, or spatially
//! gated on `%smid`); the runtime intercepts kernel launches, predicts
//! their durations with lightweight ridge models, and makes preemption +
//! scheduling decisions (highest-priority-first or weighted-fair).
//!
//! Since FLEP requires an NVIDIA GPU and CUDA, this reproduction runs the
//! full system against a discrete-event Kepler-class GPU simulator (see
//! `DESIGN.md` for the substitution argument). The workspace layers:
//!
//! | Crate | Role |
//! |---|---|
//! | `flep-sim-core` | deterministic discrete-event engine |
//! | `flep-gpu-sim` | the simulated K40: SMs, dispatcher, pinned flags |
//! | `flep-minicu` | the mini-CUDA language the compiler transforms |
//! | `flep-compile` | the Fig. 4 transforms, slicing baseline, `L` tuner |
//! | `flep-perfmodel` | ridge regression + overhead profiling |
//! | `flep-runtime` | interception, HPF/FFS policies, baselines |
//! | `flep-workloads` | the 8 calibrated Table 1 benchmarks |
//! | `flep-metrics` | ANTT/STP/fairness metrics |
//! | `flep-core` (this crate) | facade, model store, experiment harness |
//!
//! # Quickstart
//!
//! ```
//! use flep_core::prelude::*;
//!
//! // A long, low-priority kernel is on the GPU; a short, high-priority
//! // kernel arrives. Under FLEP/HPF it preempts the victim.
//! let lo = KernelProfile::of(&Benchmark::get(BenchmarkId::Nn), InputClass::Large);
//! let hi = KernelProfile::of(&Benchmark::get(BenchmarkId::Spmv), InputClass::Small);
//! let result = CoRun::new(GpuConfig::k40(), Policy::hpf())
//!     .job(JobSpec::new(lo, SimTime::ZERO).with_priority(1))
//!     .job(JobSpec::new(hi, SimTime::from_us(10)).with_priority(2))
//!     .run();
//! assert!(result.jobs[1].completed.unwrap() < result.jobs[0].completed.unwrap());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
mod models;
/// The parallel experiment runner; it lives in [`flep_sim_core::runner`].
pub use flep_sim_core::runner;
mod timeline;

pub use models::{ModelStore, DEFAULT_LAMBDA, TRAINING_SAMPLES};
pub use timeline::render_timeline;

/// One-stop imports for examples and downstream users.
pub mod prelude {
    pub use flep_compile::{
        transform, tune, SlicePlan, TransformMode, TransformResult, TuneResult,
    };
    pub use flep_gpu_sim::{
        GpuConfig, GridShape, LaunchDesc, PreemptSignal, ResourceUsage, Scenario, TaskCost,
    };
    pub use flep_metrics::{antt, stp, Turnaround};
    pub use flep_minicu::{analyze, parse, Program};
    pub use flep_perfmodel::{KernelFeatures, RidgeModel};
    pub use flep_runtime::{CoRun, CoRunResult, JobRecord, JobSpec, KernelProfile, Policy};
    pub use flep_sim_core::{SimRng, SimTime};
    pub use flep_workloads::{Benchmark, BenchmarkId, InputClass};

    pub use crate::experiments::{self, ExpConfig};
    pub use crate::{render_timeline, ModelStore};
}
