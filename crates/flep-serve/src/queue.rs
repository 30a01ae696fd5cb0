//! The per-tenant request queue: earliest-deadline-first with admission
//! control.
//!
//! A tenant's deadline is its arrival instant plus a constant SLO, and
//! arrivals come in time order, so each tenant's deadlines are pushed in
//! nondecreasing order. Under that contract earliest-deadline-first with
//! a FIFO tie-break *is* arrival order: the queue is a plain ring buffer,
//! and [`EdfQueue::push`] asserts the contract so that a caller breaking
//! it fails loudly instead of being served out of order.

use std::collections::VecDeque;

use flep_sim_core::SimTime;

/// Why a request was rejected at the door.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// The deadline was already at or before the arrival instant; no
    /// schedule can meet it, so no GPU time is spent on it.
    PastDeadline,
    /// The tenant's queue is at capacity (load shedding).
    QueueFull,
}

impl DropReason {
    /// Short stable name, used in reports.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            DropReason::PastDeadline => "past-deadline",
            DropReason::QueueFull => "queue-full",
        }
    }
}

/// Admission policy for one tenant queue: bounded depth, and no request
/// whose deadline has already passed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionControl {
    /// Maximum queued (admitted, not yet dispatched) requests.
    pub queue_cap: usize,
}

impl AdmissionControl {
    /// Decides admission for a request arriving at `now` with `deadline`,
    /// given the current queue depth.
    ///
    /// A deadline **at or before** `now` is rejected: even a zero-cost
    /// schedule would miss it. The capacity check comes second, so a
    /// doomed request never evicts room a feasible one could use.
    pub fn decide(
        &self,
        now: SimTime,
        deadline: SimTime,
        queue_len: usize,
    ) -> Result<(), DropReason> {
        if deadline <= now {
            return Err(DropReason::PastDeadline);
        }
        if queue_len >= self.queue_cap {
            return Err(DropReason::QueueFull);
        }
        Ok(())
    }
}

/// An earliest-deadline-first queue for monotone deadlines: every push
/// carries a deadline no earlier than the last one pushed, so the queue
/// pops in `(deadline, insertion)` order by popping its front.
#[derive(Debug, Clone)]
pub struct EdfQueue<T> {
    items: VecDeque<(SimTime, T)>,
    /// The latest deadline pushed: the floor of the next push.
    last: SimTime,
}

impl<T> Default for EdfQueue<T> {
    fn default() -> Self {
        EdfQueue::new()
    }
}

impl<T> EdfQueue<T> {
    /// An empty queue.
    #[must_use]
    pub fn new() -> Self {
        EdfQueue {
            items: VecDeque::new(),
            last: SimTime::ZERO,
        }
    }

    /// Number of queued items.
    #[must_use]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when nothing is queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Enqueues `item` with `deadline` as its EDF key.
    ///
    /// # Panics
    ///
    /// If `deadline` is earlier than a deadline pushed before: the queue
    /// would otherwise serve it out of deadline order.
    pub fn push(&mut self, deadline: SimTime, item: T) {
        assert!(
            deadline >= self.last,
            "EdfQueue deadlines must be nondecreasing: {deadline} pushed after {}",
            self.last
        );
        self.last = deadline;
        self.items.push_back((deadline, item));
    }

    /// The earliest queued deadline, if any.
    #[must_use]
    pub fn peek_deadline(&self) -> Option<SimTime> {
        self.items.front().map(|&(d, _)| d)
    }

    /// Pops the earliest-deadline item (FIFO among ties).
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        self.items.pop_front()
    }

    /// Drops every item whose deadline is at or before `now` — already
    /// missed, so dispatching it would waste GPU time. Returns how many
    /// expired.
    pub fn expire(&mut self, now: SimTime) -> usize {
        let before = self.items.len();
        while self.items.front().is_some_and(|&(d, _)| d <= now) {
            self.items.pop_front();
        }
        before - self.items.len()
    }

    /// Removes everything. The deadline floor stays: a cleared queue
    /// still accepts only deadlines no earlier than the last one pushed.
    pub fn clear(&mut self) {
        self.items.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(v: u64) -> SimTime {
        SimTime::from_us(v)
    }

    #[test]
    fn pops_in_deadline_order_fifo_on_ties() {
        let mut q = EdfQueue::new();
        q.push(us(10), "a");
        q.push(us(10), "b");
        q.push(us(20), "mid");
        q.push(us(30), "late");
        assert_eq!(q.peek_deadline(), Some(us(10)));
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, v)| v)).collect();
        assert_eq!(order, ["a", "b", "mid", "late"]);
    }

    #[test]
    #[should_panic(expected = "deadlines must be nondecreasing")]
    fn decreasing_push_panics() {
        let mut q = EdfQueue::new();
        q.push(us(20), "late");
        q.push(us(10), "early");
    }

    #[test]
    fn expiry_pops_exactly_the_missed_prefix() {
        let mut q = EdfQueue::new();
        for d in [5u64, 10, 15, 20] {
            q.push(us(d), d);
        }
        // Deadline == now counts as missed.
        assert_eq!(q.expire(us(10)), 2);
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_deadline(), Some(us(15)));
        assert_eq!(q.pop(), Some((us(15), 15)));
        assert_eq!(q.expire(us(10)), 0);
    }

    #[test]
    fn admission_rejects_past_deadlines_before_capacity() {
        let adm = AdmissionControl { queue_cap: 1 };
        // Past deadline wins even when the queue is also full.
        assert_eq!(adm.decide(us(10), us(10), 1), Err(DropReason::PastDeadline));
        assert_eq!(adm.decide(us(10), us(11), 1), Err(DropReason::QueueFull));
        assert_eq!(adm.decide(us(10), us(11), 0), Ok(()));
    }

    #[test]
    fn clear_empties() {
        let mut q = EdfQueue::new();
        q.push(us(1), ());
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }
}
