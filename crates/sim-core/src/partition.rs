//! [`PartitionedSimulation`]: the partitioned driver's constructor over
//! one flat [`Simulation`] (DESIGN.md §13).
//!
//! A flat queue already pops every event in the exact global
//! `(time, seq)` order, so routing events to per-partition queues and
//! merging them back only added heap work. Product drivers step a
//! `Simulation` directly; this wrapper keeps the partitioned signature
//! compiling for callers that still construct it.

use crate::engine::{RunOutcome, StepOutcome, World};
use crate::{SimTime, Simulation};

/// A [`Simulation`] behind the old partitioned constructor: the partition
/// count and route function are accepted and ignored, and every call
/// delegates to the flat driver — same events, same order, same budget
/// semantics.
pub struct PartitionedSimulation<W: World> {
    sim: Simulation<W>,
}

impl<W: World> PartitionedSimulation<W> {
    /// Creates a simulation around `world` at time zero. `partitions` and
    /// `route` no longer affect anything: all events share one queue.
    #[must_use]
    pub fn new(world: W, _partitions: usize, _route: fn(&W::Event) -> u32) -> Self {
        PartitionedSimulation {
            sim: Simulation::new(world),
        }
    }

    /// See [`Simulation::now`].
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// See [`Simulation::dispatched`].
    #[must_use]
    pub fn dispatched(&self) -> u64 {
        self.sim.dispatched()
    }

    /// See [`Simulation::world`].
    #[must_use]
    pub fn world(&self) -> &W {
        self.sim.world()
    }

    /// See [`Simulation::into_world`].
    #[must_use]
    pub fn into_world(self) -> W {
        self.sim.into_world()
    }

    /// See [`Simulation::schedule_at`].
    pub fn schedule_at(&mut self, time: SimTime, payload: W::Event) {
        self.sim.schedule_at(time, payload);
    }

    /// See [`Simulation::pending`].
    #[must_use]
    pub fn pending(&self) -> usize {
        self.sim.pending()
    }

    /// See [`Simulation::step`].
    pub fn step(&mut self) -> StepOutcome {
        self.sim.step()
    }

    /// See [`Simulation::run_with_budget`].
    pub fn run_with_budget(&mut self, max_events: u64) -> RunOutcome {
        self.sim.run_with_budget(max_events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scheduler;

    struct Recorder {
        seen: Vec<(SimTime, u32)>,
    }

    #[derive(Debug, Clone, Copy)]
    struct Tagged {
        part: u32,
        id: u32,
        fanout: bool,
    }

    impl World for Recorder {
        type Event = Tagged;
        fn handle(&mut self, now: SimTime, ev: Tagged, sched: &mut Scheduler<'_, Tagged>) {
            self.seen.push((now, ev.id));
            if ev.fanout {
                for p in 0..3 {
                    sched.schedule_in(
                        SimTime::from_us(u64::from(p) + 1),
                        Tagged {
                            part: p,
                            id: ev.id * 10 + p,
                            fanout: false,
                        },
                    );
                }
            }
        }
    }

    fn route(ev: &Tagged) -> u32 {
        ev.part
    }

    fn seed(sim_schedule: &mut dyn FnMut(SimTime, Tagged)) {
        let events = [(5, 2, 1, true), (5, 0, 2, true), (9, 1, 3, false)];
        for (us, part, id, fanout) in events {
            sim_schedule(SimTime::from_us(us), Tagged { part, id, fanout });
        }
    }

    /// The wrapper dispatches exactly like [`Simulation`]: same events in
    /// the same order (world-scheduled follow-ups included), same end
    /// time, same dispatch and pending counts, and the same budget
    /// outcome at every budget from an early abort to completion.
    #[test]
    fn partitioned_simulation_matches_flat_simulation() {
        for budget in 0..12 {
            let mut flat = Simulation::new(Recorder { seen: Vec::new() });
            let mut parted = PartitionedSimulation::new(Recorder { seen: Vec::new() }, 3, route);
            seed(&mut |t, ev| flat.schedule_at(t, ev));
            seed(&mut |t, ev| parted.schedule_at(t, ev));
            assert_eq!(flat.pending(), parted.pending());
            assert_eq!(
                flat.run_with_budget(budget),
                parted.run_with_budget(budget),
                "budget {budget}"
            );
            assert_eq!(flat.now(), parted.now());
            assert_eq!(flat.dispatched(), parted.dispatched());
            assert_eq!(flat.pending(), parted.pending());
            assert_eq!(flat.world().seen, parted.world().seen);
            // Finish stepping one event at a time.
            loop {
                let (f, p) = (flat.step(), parted.step());
                assert_eq!(f, p);
                if f == StepOutcome::Idle {
                    break;
                }
            }
            assert_eq!(flat.now(), parted.now());
            assert_eq!(flat.into_world().seen, parted.into_world().seen);
        }
    }

    #[test]
    fn budget_semantics_match_flat_driver() {
        let mut parted = PartitionedSimulation::new(Recorder { seen: Vec::new() }, 3, route);
        parted.schedule_at(
            SimTime::from_us(1),
            Tagged {
                part: 0,
                id: 1,
                fanout: true,
            },
        );
        match parted.run_with_budget(2) {
            RunOutcome::BudgetExhausted {
                dispatched,
                pending,
                ..
            } => {
                assert_eq!(dispatched, 2);
                assert_eq!(pending, 2);
            }
            RunOutcome::Completed(_) => panic!("budget 2 cannot finish a 4-event run"),
        }
        assert!(matches!(
            parted.run_with_budget(10),
            RunOutcome::Completed(_)
        ));
        assert_eq!(parted.world().seen.len(), 4);
    }
}
