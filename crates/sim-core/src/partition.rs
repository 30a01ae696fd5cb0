//! Partitioned event scheduling: per-partition [`EventQueue`]s merged by a
//! tiny cursor heap into the exact global `(time, seq)` total order
//! (DESIGN.md §13).
//!
//! A [`PartitionedQueue`] holds one full `EventQueue` per partition (in
//! the cluster: one per device plus one control partition) and stamps
//! every push from a single global sequence counter. A [`HeapCore`]
//! *merge cursor* — the same 4-ary heap every `EventQueue` orders its
//! keys with — tracks, for each non-empty partition, the packed key of
//! that partition's head event, repacked with the partition index in the
//! slot bits, so popping the cursor's minimum yields exactly the event a
//! flat single queue would pop next. Because pushes receive the same
//! sequence numbers in the same order as a flat queue would assign, the
//! merged pop sequence is *identical* to the flat queue's, payload for
//! payload — which is what keeps every golden trace byte-identical when a
//! driver switches to partitioned stepping.
//!
//! # Cursor invariant
//!
//! Every non-empty partition's current head has an entry in the cursor.
//! The cursor is maintained lazily: a push that becomes its partition's
//! new head adds an entry (the *old* head's entry goes stale in place),
//! and a pop re-adds the partition's next head. Stale entries are
//! discarded on the way out by re-validating against the partition's
//! actual head, so the cursor never needs random-access deletion.

use crate::engine::{RunOutcome, SchedSink, Scheduler, StepOutcome, World};
use crate::event::{SLOT_BITS, SLOT_MASK};
use crate::{EventQueue, HeapCore, PackedKey, SimTime};

/// Per-partition event queues merged in exact global `(time, seq)` order.
///
/// # Example
///
/// ```
/// use flep_sim_core::{PartitionedQueue, SimTime};
/// let mut q = PartitionedQueue::new(2);
/// q.push(1, SimTime::from_us(2), "b");
/// q.push(0, SimTime::from_us(1), "a");
/// q.push(0, SimTime::from_us(2), "c"); // same time as "b": FIFO by push order
/// assert_eq!(q.pop().unwrap(), (0, SimTime::from_us(1), "a"));
/// assert_eq!(q.pop().unwrap(), (1, SimTime::from_us(2), "b"));
/// assert_eq!(q.pop().unwrap(), (0, SimTime::from_us(2), "c"));
/// assert!(q.pop().is_none());
/// ```
#[derive(Debug)]
pub struct PartitionedQueue<E> {
    parts: Vec<EventQueue<E>>,
    /// Merge cursor: per-partition head keys, `(time, seq, partition)`
    /// packed, possibly with stale entries (validated on pop).
    cursor: HeapCore,
    /// The single global sequence counter all partitions stamp from.
    next_seq: u64,
    /// Total pending events across partitions (cursor entries can be
    /// stale, so the cursor's length is not authoritative).
    len: usize,
}

impl<E> PartitionedQueue<E> {
    /// Creates `partitions` empty queues.
    ///
    /// # Panics
    ///
    /// Panics if `partitions` is zero or does not fit the cursor's
    /// partition-index field (2^24 partitions).
    #[must_use]
    pub fn new(partitions: usize) -> Self {
        assert!(partitions > 0, "need at least one partition");
        assert!(
            (partitions as u64) <= SLOT_MASK + 1,
            "partition count {partitions} exceeds the cursor index space"
        );
        PartitionedQueue {
            parts: (0..partitions).map(|_| EventQueue::new()).collect(),
            cursor: HeapCore::new(),
            next_seq: 0,
            len: 0,
        }
    }

    /// Number of partitions.
    #[must_use]
    pub fn partitions(&self) -> usize {
        self.parts.len()
    }

    /// Total pending events across all partitions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when every partition is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Schedules `payload` at `time` in partition `part`, stamped from the
    /// global sequence counter.
    ///
    /// # Panics
    ///
    /// Panics if `part` is out of range.
    pub fn push(&mut self, part: u32, time: SimTime, payload: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        debug_assert!(
            seq < 1 << (64 - SLOT_BITS),
            "partitioned queue seq overflow"
        );
        let q = &mut self.parts[part as usize];
        let old_head = q.min_packed();
        q.push_with_seq(time, seq, payload);
        let new_head = q.min_packed().expect("partition head after push");
        // The cursor only needs updating when the pushed key became the
        // partition's head (keys are unique, so comparing heads suffices).
        if old_head != Some(new_head) {
            self.cursor
                .push_key(PackedKey::new(new_head.time(), new_head.seq(), part));
        }
        self.len += 1;
    }

    /// Checks a cursor entry against partition `part`'s actual head.
    fn cursor_entry_is_live(&self, key: PackedKey) -> bool {
        self.parts[key.slot() as usize]
            .min_packed()
            .is_some_and(|h| h.seq() == key.seq() && h.time_ns() == key.time_ns())
    }

    /// Removes and returns the globally earliest event as
    /// `(partition, time, payload)` — exactly the event a flat queue
    /// holding every push would return.
    pub fn pop(&mut self) -> Option<(u32, SimTime, E)> {
        loop {
            let key = self.cursor.pop_min()?;
            if !self.cursor_entry_is_live(key) {
                continue; // stale: this head was superseded or already popped
            }
            let part = key.slot();
            let q = &mut self.parts[part as usize];
            let entry = q.pop().expect("validated head");
            if let Some(next) = q.min_packed() {
                self.cursor
                    .push_key(PackedKey::new(next.time(), next.seq(), part));
            }
            self.len -= 1;
            return Some((part, entry.time, entry.payload));
        }
    }

    /// The timestamp of the globally earliest pending event. Takes `&mut`
    /// because stale cursor entries are garbage-collected on the way.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        loop {
            let key = self.cursor.min_key()?;
            if self.cursor_entry_is_live(key) {
                return Some(key.time());
            }
            self.cursor.pop_min();
        }
    }
}

/// A discrete-event simulation over a [`PartitionedQueue`]: same contract
/// as [`Simulation`](crate::Simulation) — same `World` trait, same
/// dispatch order, same budget semantics — with events routed to
/// partitions by a pure `fn(&Event) -> u32`.
///
/// Because the merged pop order is identical to a flat queue's (see the
/// module docs), a world driven by this produces byte-identical output to
/// the flat driver; the payoff is that each partition's queue stays small
/// and cache-hot, so per-event cost no longer grows with the number of
/// partitions sharing the clock.
#[derive(Debug)]
pub struct PartitionedSimulation<W: World> {
    world: W,
    queue: PartitionedQueue<W::Event>,
    route: fn(&W::Event) -> u32,
    now: SimTime,
    dispatched: u64,
}

impl<W: World> PartitionedSimulation<W> {
    /// Creates a simulation around `world` with `partitions` empty queues
    /// at time zero; `route` maps each event to its partition.
    #[must_use]
    pub fn new(world: W, partitions: usize, route: fn(&W::Event) -> u32) -> Self {
        PartitionedSimulation {
            world,
            queue: PartitionedQueue::new(partitions),
            route,
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
        let part = (self.route)(&payload);
        self.queue.push(part, time, payload);
    }

    /// Number of pending events.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Pops and dispatches the globally earliest event.
    pub fn step(&mut self) -> StepOutcome {
        let Some((_, time, payload)) = self.queue.pop() else {
            return StepOutcome::Idle;
        };
        debug_assert!(time >= self.now, "partitioned queue went backwards");
        self.now = time;
        self.dispatched += 1;
        let mut stop = false;
        let sink = SchedSink::Partitioned {
            queue: &mut self.queue,
            route: self.route,
        };
        let mut sched = Scheduler::new(self.now, sink, &mut stop);
        self.world.handle(time, payload, &mut sched);
        if stop {
            StepOutcome::Stopped
        } else {
            StepOutcome::Dispatched
        }
    }

    /// Runs until the queues drain or the world requests a stop.
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

    /// Runs until the queues drain, the world stops, or `max_events` have
    /// been dispatched *by this call* — same semantics as
    /// [`Simulation::run_with_budget`](crate::Simulation::run_with_budget).
    pub fn run_with_budget(&mut self, max_events: u64) -> RunOutcome {
        let mut spent: u64 = 0;
        loop {
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
    use crate::check::{check, CheckConfig};
    use crate::{require, require_eq, SimRng, Simulation};

    /// One generated queue script: the partition count and a list of
    /// `(op, partition, time slot)` operations.
    type Script = (u64, Vec<(u64, u64, u64)>);

    fn gen_script(rng: &mut SimRng) -> Script {
        // Partition counts span 1..=1025: one partition, a small fleet, a
        // large one, and the cluster_scale maximum (1024 devices plus the
        // control partition).
        let partitions = match rng.uniform_u64(0, 3) {
            0 => 1,
            1 => rng.uniform_u64(2, 16),
            2 => rng.uniform_u64(17, 1024),
            _ => 1025,
        };
        // Few distinct timestamps, so same-timestamp pileups are the norm.
        let slots = rng.uniform_u64(0, 24);
        let ops = (0..rng.uniform_u64(1, 600))
            .map(|_| {
                (
                    rng.uniform_u64(0, 9),
                    rng.uniform_u64(0, partitions - 1),
                    rng.uniform_u64(0, slots),
                )
            })
            .collect();
        (partitions, ops)
    }

    /// The merged cursor is exact: for any partition count and any
    /// interleaving of pushes (single and same-timestamp bursts across
    /// consecutive partitions), pops and `peek_time` calls, a
    /// `PartitionedQueue` returns exactly what one `EventQueue` fed the
    /// same pushes returns — time, payload, and the partition each event
    /// was pushed to. This is the reference every partitioned driver
    /// stands on.
    #[test]
    fn merged_order_matches_flat_queue() {
        check(
            "merged_order_matches_flat_queue",
            CheckConfig::with_cases(CheckConfig::default().cases.max(64)),
            gen_script,
            |(partitions, ops)| {
                // Shrinking may take the count to 0 or below a pick.
                let partitions = (*partitions).max(1);
                let mut flat: EventQueue<u64> = EventQueue::new();
                let mut parted: PartitionedQueue<u64> = PartitionedQueue::new(partitions as usize);
                // The partition each payload (its index here) went to.
                let mut pushed_to: Vec<u32> = Vec::new();
                for &(op, pick, slot) in ops {
                    let t = SimTime::from_ns(slot * 100);
                    match op {
                        0..=4 => {
                            // One push, or a burst of 16 at one timestamp
                            // across consecutive partitions.
                            let n = if op == 4 { 16 } else { 1 };
                            for k in 0..n {
                                let part = ((pick + k) % partitions) as u32;
                                let payload = pushed_to.len() as u64;
                                flat.push(t, payload);
                                parted.push(part, t, payload);
                                pushed_to.push(part);
                            }
                        }
                        5..=7 => {
                            let f = flat.pop().map(|e| (e.time, e.payload));
                            let m = parted.pop();
                            require_eq!(f, m.map(|(_, t, p)| (t, p)));
                            if let Some((part, _, p)) = m {
                                require_eq!(part, pushed_to[p as usize], "payload {p}");
                            }
                        }
                        _ => require_eq!(flat.peek_time(), parted.peek_time()),
                    }
                    require_eq!(flat.len(), parted.len());
                }
                while let Some(f) = flat.pop() {
                    let m = parted.pop().map(|(_, t, p)| (t, p));
                    require_eq!(Some((f.time, f.payload)), m, "drain");
                }
                require!(parted.pop().is_none() && parted.is_empty());
                Ok(())
            },
        );
    }

    #[test]
    fn len_tracks_pushes_and_pops() {
        let mut q: PartitionedQueue<u8> = PartitionedQueue::new(3);
        assert!(q.is_empty());
        q.push(0, SimTime::from_us(1), 1);
        q.push(2, SimTime::from_us(1), 2);
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn same_timestamp_pileup_pops_in_push_order_across_partitions() {
        let mut q: PartitionedQueue<u32> = PartitionedQueue::new(4);
        let t = SimTime::from_us(10);
        for i in 0..16u32 {
            q.push(i % 4, t, i);
        }
        for i in 0..16u32 {
            let (part, time, p) = q.pop().expect("pending");
            assert_eq!((part, time, p), (i % 4, t, i));
        }
    }

    /// Heads that are superseded by an earlier push leave stale cursor
    /// entries; pops must skip them without losing events.
    #[test]
    fn superseded_heads_are_skipped_not_lost() {
        let mut q: PartitionedQueue<&'static str> = PartitionedQueue::new(2);
        q.push(0, SimTime::from_us(30), "c");
        q.push(0, SimTime::from_us(20), "b"); // new head of partition 0
        q.push(0, SimTime::from_us(10), "a"); // newer head still
        q.push(1, SimTime::from_us(15), "x");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop()).map(|(_, _, p)| p).collect();
        assert_eq!(order, vec!["a", "x", "b", "c"]);
    }

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
                // Follow-ups land in other partitions via the route fn.
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

    /// The partitioned driver must replay the flat driver's dispatch
    /// sequence exactly, including world-scheduled follow-ups.
    #[test]
    fn partitioned_simulation_matches_flat_simulation() {
        let seed_events = [
            (
                5,
                Tagged {
                    part: 2,
                    id: 1,
                    fanout: true,
                },
            ),
            (
                5,
                Tagged {
                    part: 0,
                    id: 2,
                    fanout: true,
                },
            ),
            (
                9,
                Tagged {
                    part: 1,
                    id: 3,
                    fanout: false,
                },
            ),
        ];
        let mut flat = Simulation::new(Recorder { seen: Vec::new() });
        let mut parted = PartitionedSimulation::new(Recorder { seen: Vec::new() }, 3, route);
        for (us, ev) in seed_events {
            flat.schedule_at(SimTime::from_us(us), ev);
            parted.schedule_at(SimTime::from_us(us), ev);
        }
        let end_flat = flat.run();
        let end_parted = parted.run();
        assert_eq!(end_flat, end_parted);
        assert_eq!(flat.dispatched(), parted.dispatched());
        assert_eq!(flat.world().seen, parted.world().seen);
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

    #[test]
    #[should_panic(expected = "partition count")]
    fn oversized_partition_count_is_rejected() {
        let _ = PartitionedQueue::<u8>::new(1 << 25);
    }
}
