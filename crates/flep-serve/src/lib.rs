//! SLO-driven multi-tenant inference serving on top of the FLEP runtime.
//!
//! The FLEP evaluation (§6) co-runs a fixed set of batch kernels; this
//! crate adds the serving-system view that motivates preemption in the
//! first place: an **open-loop** stream of inference requests per tenant,
//! each with a latency SLO, competing for one GPU.
//!
//! The pipeline, per tenant:
//!
//! 1. **Arrivals** ([`ArrivalProcess`]) — Poisson or a bursty/diurnal
//!    square-wave trace, seeded from the in-tree deterministic
//!    [`flep_sim_core::SimRng`].
//! 2. **Admission** ([`AdmissionControl`]) — a request whose deadline has
//!    already passed, or that finds the tenant queue at capacity, is
//!    dropped at the door (§2's insight that a late answer is a wrong
//!    answer, applied before spending GPU time).
//! 3. **Queueing** ([`EdfQueue`]) — earliest-deadline-first order with a
//!    FIFO tie-break. A tenant's deadline is its arrival plus a constant
//!    SLO, so its deadlines arrive in order and EDF is FIFO: the queue is
//!    a ring buffer whose push asserts that deadlines never decrease.
//!    Requests that miss their deadline while queued expire lazily, when
//!    admission or a dispatch pass next reads the queue.
//! 4. **Batching + dispatch** ([`ServeWorld`]) — queued requests are
//!    formed into persistent-grid batches (one task = one request) and
//!    submitted into the FLEP runtime, in a pass that runs only after an
//!    event that settled a batch or made an idle tenant's queue
//!    non-empty. Tenant priority maps onto
//!    the HPF preemption policy and the watchdog escalation ladder
//!    (flag → forced drain → kill): a tight-SLO arrival preempts a
//!    running low-priority batch instead of waiting behind it.
//!
//! Everything is a deterministic discrete-event simulation: a
//! [`ServeReport`] is byte-identical for a given seed regardless of
//! `FLEP_THREADS`, and the load sweep ([`sweep_offered_load`]) re-derives
//! per-cell seeds so thread counts only change wall-clock, not results.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arrivals;
mod brownout;
mod frontend;
mod queue;
mod sweep;

pub use arrivals::ArrivalProcess;
pub use brownout::{BrownoutConfig, BrownoutTier};
pub use frontend::{
    run_serve, Request, ServeConfig, ServeOutcome, ServeReport, ServeWorld, TenantReport,
    TenantSpec,
};
pub use queue::{AdmissionControl, DropReason, EdfQueue};
pub use sweep::{reference_tenants, sweep_offered_load, LoadPoint};
