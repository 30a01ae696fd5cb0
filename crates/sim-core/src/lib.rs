//! Deterministic discrete-event simulation engine underpinning the FLEP GPU
//! simulator.
//!
//! This crate provides the time base, event queue, simulation driver, and
//! deterministic random-number utilities shared by every other crate in the
//! workspace. It deliberately knows nothing about GPUs: the GPU device model
//! in `flep-gpu-sim` and the FLEP runtime in `flep-runtime` are both built as
//! "worlds" driven by this engine.
//!
//! # Design
//!
//! * [`SimTime`] is a nanosecond-resolution virtual clock value. All paper
//!   numbers are reported in microseconds; the [`SimTime::as_us`] accessor
//!   converts for reporting.
//! * [`EventQueue`] keeps small packed `(time, seq, slot)` keys in an
//!   indexed 4-ary heap, with payloads parked in a structure-of-arrays
//!   slab arena and a monotonically increasing sequence number as
//!   the tie-breaker, which makes simulations fully deterministic even
//!   when many events share a timestamp.
//! * [`Simulation`] drives a user-supplied [`World`]: each popped event is
//!   handed to the world together with a [`Scheduler`] handle with which the
//!   world may schedule follow-up events. It is the one stepping driver:
//!   single-device co-runs, faulted fleets and the serving frontend all
//!   pop one flat queue. [`PartitionedSimulation`] keeps the retired
//!   partitioned constructor as a thin wrapper over it.
//! * [`SimRng`] is a from-scratch seeded PRNG (SplitMix64-seeded
//!   xoshiro256\*\*) with the distributions the workloads need (uniform,
//!   normal, lognormal) so that every experiment is reproducible from a
//!   single `u64` seed with no third-party dependency.
//! * [`check`] is the in-tree `flep-check` property-testing harness the
//!   workspace's property suites run on, and [`json`] the minimal JSON
//!   emitter used by the experiment harness — both exist so the whole
//!   workspace builds and tests offline with a bare toolchain.
//! * [`runner`] is the one worker pool: the experiment grids and the
//!   cluster epoch driver both fan out through [`runner::run_cells`], and
//!   [`knob`] is the one reader every `FLEP_*` environment knob goes
//!   through (an invalid value warns on stderr, in one format).
//!
//! # Example
//!
//! ```
//! use flep_sim_core::{Simulation, SimTime, World, Scheduler};
//!
//! struct Counter { fired: u32 }
//!
//! #[derive(Debug, Clone, PartialEq, Eq)]
//! enum Ev { Tick }
//!
//! impl World for Counter {
//!     type Event = Ev;
//!     fn handle(&mut self, now: SimTime, _ev: Ev, sched: &mut Scheduler<Ev>) {
//!         self.fired += 1;
//!         if self.fired < 3 {
//!             sched.schedule_in(SimTime::from_us(10), Ev::Tick);
//!         }
//!         let _ = now;
//!     }
//! }
//!
//! let mut sim = Simulation::new(Counter { fired: 0 });
//! sim.schedule_at(SimTime::ZERO, Ev::Tick);
//! sim.run();
//! assert_eq!(sim.world().fired, 3);
//! assert_eq!(sim.now(), SimTime::from_us(20));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
mod engine;
mod event;
pub mod json;
pub mod knob;
mod partition;
mod rng;
pub mod runner;
mod slab;
mod time;
mod trace;

pub use engine::{RunOutcome, Scheduler, Simulation, StepOutcome, World};
pub use event::{EventEntry, EventQueue};
pub use partition::PartitionedSimulation;
pub use rng::SimRng;
pub use slab::GenSlab;
pub use time::{u64_to_f64, SimTime};
pub use trace::{Span, TraceEvent, TraceLog};
