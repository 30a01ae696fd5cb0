//! The traced run: a timing shim around the public `World` impls, driven
//! step by step through sim-core's public simulation drivers.
//!
//! The shim times every `handle` call and files it under the event's kind.
//! It changes nothing the world sees, so a traced replay dispatches the
//! same events in the same order as the untraced public entry point; the
//! harness checks that it does.

use std::time::Instant;

use flep_gpu_sim::GpuEvent;
use flep_runtime::{ClusterEvent, GpuCluster, SystemEvent, SystemWorld};
use flep_serve::ServeWorld;
use flep_sim_core::{PartitionedSimulation, Scheduler, SimTime, Simulation, StepOutcome, World};

/// The serving frontend's event type. `flep-serve` does not re-export it,
/// so it is named through the `World` impl.
pub type ServeEvent = <ServeWorld as World>::Event;

/// Which layer an event's `handle` call is charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// gpu-sim: a launch reached the device FIFO.
    Launch,
    /// gpu-sim: an original-shape CTA finished.
    CtaDone,
    /// gpu-sim: a persistent CTA finished a batch of tasks.
    BatchDone,
    /// flep-runtime: a watchdog poll tick.
    Watchdog,
    /// flep-runtime: a scheduling decision (arrival, FFS epoch end,
    /// launch retry, delayed notification).
    Policy,
    /// flep-runtime cluster control: placement, faults, restores, probes.
    Control,
    /// flep-serve: a request arrival (admission, EDF, batching).
    ServeArrival,
}

impl Kind {
    /// Every kind, in report order.
    pub const ALL: [Kind; 7] = [
        Kind::Launch,
        Kind::CtaDone,
        Kind::BatchDone,
        Kind::Watchdog,
        Kind::Policy,
        Kind::Control,
        Kind::ServeArrival,
    ];

    /// The per-layer metric prefix of this kind.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Launch => "gpu-sim.launch",
            Kind::CtaDone => "gpu-sim.cta_done",
            Kind::BatchDone => "gpu-sim.batch_done",
            Kind::Watchdog => "runtime.watchdog",
            Kind::Policy => "runtime.policy",
            Kind::Control => "cluster.control",
            Kind::ServeArrival => "serve.arrival",
        }
    }
}

/// Count and total host time of one event kind.
#[derive(Debug, Clone, Copy, Default)]
pub struct KindStat {
    /// Events handled.
    pub n: u64,
    /// Host nanoseconds spent inside `handle`.
    pub ns: u64,
}

/// Everything one traced replay measured.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    /// Per-kind aggregates, indexed like [`Kind::ALL`].
    pub kinds: [KindStat; 7],
    /// Tasks carried by `BatchDone` events (one noise draw each).
    pub batch_tasks: u64,
    /// Host nanoseconds of the whole stepping loop.
    pub loop_ns: u64,
    /// Largest pending-event count seen after any step.
    pub peak_pending: usize,
}

impl Layers {
    /// Host nanoseconds spent inside `handle`, all kinds together.
    pub fn handle_ns(&self) -> u64 {
        self.kinds.iter().map(|k| k.ns).sum()
    }

    /// Events handled, all kinds together.
    pub fn events(&self) -> u64 {
        self.kinds.iter().map(|k| k.n).sum()
    }

    /// The stepping loop's own time: queue pops and pushes, clock
    /// advance, and the loop itself.
    pub fn self_ns(&self) -> u64 {
        self.loop_ns.saturating_sub(self.handle_ns())
    }

    /// Adds another replay's aggregates (peak pending keeps the sum, so
    /// the caller can average it per cell).
    pub fn add(&mut self, other: &Layers) {
        for (a, b) in self.kinds.iter_mut().zip(&other.kinds) {
            a.n += b.n;
            a.ns += b.ns;
        }
        self.batch_tasks += other.batch_tasks;
        self.loop_ns += other.loop_ns;
        self.peak_pending += other.peak_pending;
    }
}

/// Maps a world's events to the layer that handles them.
pub trait Classify: World {
    /// The event's kind and, for `BatchDone`, its task count.
    fn classify(ev: &Self::Event) -> (Kind, u64);
}

fn system_kind(ev: &SystemEvent) -> (Kind, u64) {
    match ev {
        SystemEvent::Gpu(GpuEvent::LaunchArrived(_)) => (Kind::Launch, 0),
        SystemEvent::Gpu(GpuEvent::CtaDone { .. }) => (Kind::CtaDone, 0),
        SystemEvent::Gpu(GpuEvent::BatchDone { n_tasks, .. }) => (Kind::BatchDone, *n_tasks),
        SystemEvent::Watchdog => (Kind::Watchdog, 0),
        SystemEvent::Arrival(_)
        | SystemEvent::EpochEnd { .. }
        | SystemEvent::RetryLaunch { .. }
        | SystemEvent::Note(_) => (Kind::Policy, 0),
    }
}

fn cluster_kind(ev: &ClusterEvent) -> (Kind, u64) {
    match ev {
        ClusterEvent::Shard { ev, .. } => system_kind(ev),
        _ => (Kind::Control, 0),
    }
}

impl Classify for SystemWorld {
    fn classify(ev: &SystemEvent) -> (Kind, u64) {
        system_kind(ev)
    }
}

impl Classify for GpuCluster {
    fn classify(ev: &ClusterEvent) -> (Kind, u64) {
        cluster_kind(ev)
    }
}

impl Classify for ServeWorld {
    fn classify(ev: &ServeEvent) -> (Kind, u64) {
        match ev {
            ServeEvent::Arrival { .. } => (Kind::ServeArrival, 0),
            ServeEvent::Sys(ev) => cluster_kind(ev),
        }
    }
}

/// The timing shim: forwards every event to the wrapped world unchanged
/// and charges the host time of the call to the event's kind.
pub struct Traced<W> {
    /// The wrapped world.
    pub inner: W,
    /// Aggregates so far.
    pub layers: Layers,
}

impl<W> Traced<W> {
    /// Wraps `inner` with empty aggregates.
    pub fn new(inner: W) -> Self {
        Traced {
            inner,
            layers: Layers::default(),
        }
    }
}

impl<W: Classify> World for Traced<W> {
    type Event = W::Event;

    fn handle(&mut self, now: SimTime, event: W::Event, sched: &mut Scheduler<'_, W::Event>) {
        let (kind, tasks) = W::classify(&event);
        let t0 = Instant::now();
        self.inner.handle(now, event, sched);
        let ns = t0.elapsed().as_nanos() as u64;
        let stat = &mut self.layers.kinds[kind as usize];
        stat.n += 1;
        stat.ns += ns;
        self.layers.batch_tasks += tasks;
    }
}

/// The public stepping surface shared by both sim-core drivers.
pub trait Stepper {
    /// Pops and dispatches one event.
    fn step(&mut self) -> StepOutcome;
    /// Events still queued.
    fn pending(&self) -> usize;
    /// Current virtual time.
    fn now(&self) -> SimTime;
    /// Events dispatched so far.
    fn dispatched(&self) -> u64;
}

impl<W: World> Stepper for Simulation<W> {
    fn step(&mut self) -> StepOutcome {
        Simulation::step(self)
    }
    fn pending(&self) -> usize {
        Simulation::pending(self)
    }
    fn now(&self) -> SimTime {
        Simulation::now(self)
    }
    fn dispatched(&self) -> u64 {
        Simulation::dispatched(self)
    }
}

impl<W: World> Stepper for PartitionedSimulation<W> {
    fn step(&mut self) -> StepOutcome {
        PartitionedSimulation::step(self)
    }
    fn pending(&self) -> usize {
        PartitionedSimulation::pending(self)
    }
    fn now(&self) -> SimTime {
        PartitionedSimulation::now(self)
    }
    fn dispatched(&self) -> u64 {
        PartitionedSimulation::dispatched(self)
    }
}

/// How a driven run ended.
#[derive(Debug, Clone, Copy)]
pub struct Driven {
    /// Final virtual time.
    pub end: SimTime,
    /// `Some((dispatched, pending))` when the event budget ran out first.
    pub exhausted: Option<(u64, usize)>,
    /// Host nanoseconds of the stepping loop.
    pub loop_ns: u64,
    /// Largest pending-event count seen after any step.
    pub peak_pending: usize,
}

/// Steps `sim` to completion under `budget`, with exactly the semantics of
/// sim-core's `run_with_budget`, sampling the queue depth after each step.
pub fn drive(sim: &mut impl Stepper, budget: u64) -> Driven {
    let t0 = Instant::now();
    let mut spent = 0u64;
    let mut peak = sim.pending();
    let exhausted = loop {
        let pending = sim.pending();
        if spent >= budget && pending > 0 {
            break Some((sim.dispatched(), pending));
        }
        match sim.step() {
            StepOutcome::Dispatched => spent += 1,
            StepOutcome::Idle | StepOutcome::Stopped => break None,
        }
        peak = peak.max(sim.pending());
    };
    Driven {
        end: sim.now(),
        exhausted,
        loop_ns: t0.elapsed().as_nanos() as u64,
        peak_pending: peak,
    }
}
