//! The simulation driver.

use crate::{EventQueue, SimTime};

/// A handle the [`World`] uses to schedule follow-up events while handling
/// the current one.
///
/// The scheduler knows the current virtual time, so worlds can schedule both
/// relative (`schedule_in`) and absolute (`schedule_at`) events.
#[derive(Debug)]
pub struct Scheduler<'a, E> {
    now: SimTime,
    queue: &'a mut EventQueue<E>,
    stop_requested: &'a mut bool,
}

impl<'a, E> Scheduler<'a, E> {
    /// The current virtual time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `payload` to fire `delay` after the current time.
    pub fn schedule_in(&mut self, delay: SimTime, payload: E) {
        self.queue.push(self.now + delay, payload);
    }

    /// Schedules `payload` at an absolute time.
    ///
    /// # Panics
    ///
    /// Panics if `time` is in the past: events may never be scheduled before
    /// the current instant, since that would break causality.
    pub fn schedule_at(&mut self, time: SimTime, payload: E) {
        assert!(
            time >= self.now,
            "cannot schedule event in the past: now={} requested={}",
            self.now,
            time
        );
        self.queue.push(time, payload);
    }

    /// Requests that the simulation stop after the current event completes,
    /// leaving any still-pending events in the queue.
    pub fn stop(&mut self) {
        *self.stop_requested = true;
    }
}

/// The behaviour under simulation.
///
/// A world receives each popped event along with a [`Scheduler`] to emit
/// follow-ups. State lives inside the world; the engine owns only the clock
/// and the queue.
pub trait World {
    /// The event payload type circulating through the queue.
    type Event;

    /// Handles one event at virtual time `now`.
    fn handle(&mut self, now: SimTime, event: Self::Event, sched: &mut Scheduler<'_, Self::Event>);
}

/// What a single [`Simulation::step`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// An event was dispatched to the world.
    Dispatched,
    /// The queue was empty; nothing happened.
    Idle,
    /// The world requested a stop during the dispatched event.
    Stopped,
}

/// How a budgeted run (see [`Simulation::run_with_budget`]) ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The queue drained or the world stopped; the final virtual time.
    Completed(SimTime),
    /// The event budget ran out first — almost certainly a runaway event
    /// feedback loop. The fields are the abort-point diagnostics.
    BudgetExhausted {
        /// Virtual time when the budget ran out.
        now: SimTime,
        /// Events dispatched over the simulation's lifetime.
        dispatched: u64,
        /// Events still pending in the queue.
        pending: usize,
    },
}

/// A discrete-event simulation: a clock, a queue, and a [`World`].
///
/// # Example
///
/// See the crate-level example in [`crate`].
#[derive(Debug)]
pub struct Simulation<W: World> {
    world: W,
    queue: EventQueue<W::Event>,
    now: SimTime,
    dispatched: u64,
}

impl<W: World> Simulation<W> {
    /// Creates a simulation around `world` with an empty queue at time zero.
    #[must_use]
    pub fn new(world: W) -> Self {
        Simulation {
            world,
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            dispatched: 0,
        }
    }

    /// The current virtual time (the timestamp of the last dispatched event).
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events dispatched so far.
    #[must_use]
    pub fn dispatched(&self) -> u64 {
        self.dispatched
    }

    /// Shared access to the world.
    #[must_use]
    pub fn world(&self) -> &W {
        &self.world
    }

    /// Consumes the simulation and returns the world.
    #[must_use]
    pub fn into_world(self) -> W {
        self.world
    }

    /// Schedules an event at an absolute time before or during the run.
    ///
    /// # Panics
    ///
    /// Panics if `time` is earlier than the current virtual time.
    pub fn schedule_at(&mut self, time: SimTime, payload: W::Event) {
        assert!(
            time >= self.now,
            "cannot schedule event in the past: now={} requested={}",
            self.now,
            time
        );
        self.queue.push(time, payload);
    }

    /// Number of pending events.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Pops and dispatches a single event.
    pub fn step(&mut self) -> StepOutcome {
        let Some(entry) = self.queue.pop() else {
            return StepOutcome::Idle;
        };
        debug_assert!(entry.time >= self.now, "event queue went backwards");
        self.now = entry.time;
        self.dispatched += 1;
        let mut stop = false;
        let mut sched = Scheduler {
            now: self.now,
            queue: &mut self.queue,
            stop_requested: &mut stop,
        };
        self.world.handle(entry.time, entry.payload, &mut sched);
        if stop {
            StepOutcome::Stopped
        } else {
            StepOutcome::Dispatched
        }
    }

    /// Runs until the queue is empty or the world requests a stop.
    ///
    /// Returns the final virtual time.
    pub fn run(&mut self) -> SimTime {
        loop {
            match self.step() {
                StepOutcome::Dispatched => {}
                StepOutcome::Idle | StepOutcome::Stopped => return self.now,
            }
        }
    }

    /// Runs until the queue drains, the world stops, or `max_events` have
    /// been dispatched *by this call* — whichever comes first.
    ///
    /// Worlds that reschedule themselves unconditionally (a buggy policy
    /// ping-ponging preemptions, a looping job whose horizon never
    /// triggers) would make [`Simulation::run`] spin forever; the budget
    /// turns that hang into a diagnosable [`RunOutcome::BudgetExhausted`]
    /// carrying the virtual time, total dispatch count, and pending-event
    /// count at the point of abort.
    pub fn run_with_budget(&mut self, max_events: u64) -> RunOutcome {
        let mut spent: u64 = 0;
        loop {
            // Only an *exhausted budget with work still pending* is a
            // runaway; a run that spends exactly its budget and drains is
            // reported as completed.
            if spent >= max_events && !self.queue.is_empty() {
                return RunOutcome::BudgetExhausted {
                    now: self.now,
                    dispatched: self.dispatched,
                    pending: self.queue.len(),
                };
            }
            match self.step() {
                StepOutcome::Dispatched => spent += 1,
                StepOutcome::Idle | StepOutcome::Stopped => return RunOutcome::Completed(self.now),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Recorder {
        seen: Vec<(SimTime, u32)>,
        chain: u32,
    }

    #[derive(Debug)]
    enum Ev {
        Mark(u32),
        Chain,
        StopNow,
    }

    impl World for Recorder {
        type Event = Ev;
        fn handle(&mut self, now: SimTime, ev: Ev, sched: &mut Scheduler<'_, Ev>) {
            match ev {
                Ev::Mark(id) => self.seen.push((now, id)),
                Ev::Chain => {
                    self.chain += 1;
                    if self.chain < 5 {
                        sched.schedule_in(SimTime::from_us(1), Ev::Chain);
                    }
                }
                Ev::StopNow => sched.stop(),
            }
        }
    }

    fn recorder() -> Recorder {
        Recorder {
            seen: Vec::new(),
            chain: 0,
        }
    }

    #[test]
    fn dispatches_in_time_order() {
        let mut sim = Simulation::new(recorder());
        sim.schedule_at(SimTime::from_us(3), Ev::Mark(3));
        sim.schedule_at(SimTime::from_us(1), Ev::Mark(1));
        sim.schedule_at(SimTime::from_us(2), Ev::Mark(2));
        sim.run();
        let ids: Vec<u32> = sim.world().seen.iter().map(|&(_, id)| id).collect();
        assert_eq!(ids, vec![1, 2, 3]);
    }

    #[test]
    fn chained_events_advance_clock() {
        let mut sim = Simulation::new(recorder());
        sim.schedule_at(SimTime::ZERO, Ev::Chain);
        let end = sim.run();
        assert_eq!(sim.world().chain, 5);
        assert_eq!(end, SimTime::from_us(4));
        assert_eq!(sim.dispatched(), 5);
    }

    #[test]
    fn stop_leaves_pending_events() {
        let mut sim = Simulation::new(recorder());
        sim.schedule_at(SimTime::from_us(1), Ev::StopNow);
        sim.schedule_at(SimTime::from_us(2), Ev::Mark(9));
        sim.run();
        assert_eq!(sim.pending(), 1);
        assert!(sim.world().seen.is_empty());
    }

    #[test]
    #[should_panic(expected = "cannot schedule event in the past")]
    fn scheduling_in_the_past_panics() {
        let mut sim = Simulation::new(recorder());
        sim.schedule_at(SimTime::from_us(5), Ev::Mark(1));
        sim.run();
        sim.schedule_at(SimTime::from_us(1), Ev::Mark(2));
    }

    #[test]
    fn idle_step_reports_idle() {
        let mut sim = Simulation::new(recorder());
        assert_eq!(sim.step(), StepOutcome::Idle);
    }

    /// A world that reschedules itself forever: the budget must catch it.
    struct Runaway;
    impl World for Runaway {
        type Event = ();
        fn handle(&mut self, _now: SimTime, _ev: (), sched: &mut Scheduler<'_, ()>) {
            sched.schedule_in(SimTime::from_ns(1), ());
            sched.schedule_in(SimTime::from_ns(2), ());
        }
    }

    #[test]
    fn budget_aborts_runaway_feedback_loop() {
        let mut sim = Simulation::new(Runaway);
        sim.schedule_at(SimTime::ZERO, ());
        match sim.run_with_budget(1_000) {
            RunOutcome::BudgetExhausted {
                now,
                dispatched,
                pending,
            } => {
                assert_eq!(dispatched, 1_000);
                assert!(now > SimTime::ZERO);
                // Each event schedules two more: the queue keeps growing.
                assert!(pending > 1_000, "pending {pending}");
            }
            RunOutcome::Completed(_) => panic!("runaway loop must exhaust the budget"),
        }
    }

    #[test]
    fn budget_completion_matches_plain_run() {
        let mut sim = Simulation::new(recorder());
        sim.schedule_at(SimTime::ZERO, Ev::Chain);
        assert_eq!(
            sim.run_with_budget(1_000_000),
            RunOutcome::Completed(SimTime::from_us(4))
        );
        assert_eq!(sim.dispatched(), 5);
    }

    /// The boundary case: spending *exactly* the budget and then draining
    /// is a completion, not an abort; one event over is an abort with the
    /// straggler still pending.
    #[test]
    fn budget_of_exactly_the_event_count_completes() {
        // The chain dispatches exactly 5 events.
        let mut sim = Simulation::new(recorder());
        sim.schedule_at(SimTime::ZERO, Ev::Chain);
        assert_eq!(
            sim.run_with_budget(5),
            RunOutcome::Completed(SimTime::from_us(4))
        );
        assert_eq!(sim.dispatched(), 5);

        // One short, and the last link stays queued.
        let mut sim = Simulation::new(recorder());
        sim.schedule_at(SimTime::ZERO, Ev::Chain);
        match sim.run_with_budget(4) {
            RunOutcome::BudgetExhausted {
                now,
                dispatched,
                pending,
            } => {
                assert_eq!(dispatched, 4);
                assert_eq!(pending, 1);
                assert_eq!(now, SimTime::from_us(3));
            }
            RunOutcome::Completed(_) => panic!("budget 4 cannot finish a 5-event chain"),
        }
    }

    #[test]
    fn zero_budget_aborts_immediately_with_pending_work() {
        let mut sim = Simulation::new(recorder());
        sim.schedule_at(SimTime::from_us(1), Ev::Mark(1));
        match sim.run_with_budget(0) {
            RunOutcome::BudgetExhausted {
                now,
                dispatched,
                pending,
            } => {
                assert_eq!((now, dispatched, pending), (SimTime::ZERO, 0, 1));
            }
            RunOutcome::Completed(_) => panic!("pending work under a zero budget must abort"),
        }
        // With nothing queued, even a zero budget completes idle.
        let mut idle = Simulation::new(recorder());
        assert_eq!(
            idle.run_with_budget(0),
            RunOutcome::Completed(SimTime::ZERO)
        );
    }

    #[test]
    fn budget_counts_only_this_call() {
        let mut sim = Simulation::new(recorder());
        for i in 0..4u64 {
            sim.schedule_at(SimTime::from_us(i), Ev::Mark(i as u32));
        }
        // First call spends its whole budget of 2...
        assert!(matches!(
            sim.run_with_budget(2),
            RunOutcome::BudgetExhausted { pending: 2, .. }
        ));
        // ...and a fresh call gets a fresh budget for the rest.
        assert!(matches!(sim.run_with_budget(2), RunOutcome::Completed(_)));
        assert_eq!(sim.world().seen.len(), 4);
    }
}
