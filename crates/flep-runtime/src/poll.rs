//! The watchdog's poll wheel: one coalesced timer fan-out per device
//! tick instead of conceptual per-grid poll events (DESIGN.md §12).
//!
//! The wheel tracks exactly the jobs currently holding a live grid — the
//! only jobs a watchdog tick can act on. Registration happens when a
//! grid launches, deregistration when it retires (completion, preemption,
//! eviction); a tick then visits only registered pollers instead of
//! walking every job the runtime holds. The wheel is a sorted list of
//! job indices, so its size and a tick's scan are both O(live grids):
//! job indices grow with every submission and are never reused, and a
//! structure sized by the highest index would grow with the number of
//! retired jobs.
//!
//! # Contract
//!
//! * **Fan-out order is ascending job index.** [`PollWheel::next_after`]
//!   is a successor search, so iteration visits registered indices in
//!   exactly the order the old full active-list scan visited jobs with
//!   live grids — escalation decisions and lost-note reconciliation fire
//!   in an identical sequence, keeping every golden trace byte-identical.
//! * **Same-tick churn is safe.** Iteration holds no cursor into the
//!   set: each step asks for the successor of the last *visited* index,
//!   so a poller registered mid-tick at a lower index is simply not
//!   revisited, one deregistered mid-tick is never visited again, and a
//!   poller registered and deregistered within one tick fires at most
//!   once.
//! * **The wheel never decides *when* ticks happen** — arming,
//!   re-arming, and disarm-when-idle stay with the watchdog itself; the
//!   wheel only answers *who* a tick visits.

/// Membership set over job indices, kept sorted: O(log n) membership and
/// successor search, O(n) register/deregister over the n live grids.
#[derive(Debug, Default)]
pub(crate) struct PollWheel {
    /// Registered job indices, ascending.
    jobs: Vec<usize>,
}

impl PollWheel {
    /// Registers job `idx` (no-op if already registered).
    pub(crate) fn register(&mut self, idx: usize) {
        if let Err(pos) = self.jobs.binary_search(&idx) {
            self.jobs.insert(pos, idx);
        }
    }

    /// Deregisters job `idx` (no-op if not registered).
    pub(crate) fn deregister(&mut self, idx: usize) {
        if let Ok(pos) = self.jobs.binary_search(&idx) {
            self.jobs.remove(pos);
        }
    }

    /// Whether job `idx` is registered.
    #[cfg(test)]
    pub(crate) fn contains(&self, idx: usize) -> bool {
        self.jobs.binary_search(&idx).is_ok()
    }

    /// Number of registered pollers.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.jobs.len()
    }

    /// The smallest registered index strictly greater than `after`
    /// (or the smallest overall when `after` is `None`). The tick
    /// fan-out loop: `while let Some(i) = wheel.next_after(cur) { ... }`.
    pub(crate) fn next_after(&self, after: Option<usize>) -> Option<usize> {
        let pos = after.map_or(0, |a| self.jobs.partition_point(|&i| i <= a));
        self.jobs.get(pos).copied()
    }

    /// Deregisters everything (device decommission).
    pub(crate) fn clear(&mut self) {
        self.jobs.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::PollWheel;

    fn collect(w: &PollWheel) -> Vec<usize> {
        let mut out = Vec::new();
        let mut cur = None;
        while let Some(i) = w.next_after(cur) {
            out.push(i);
            cur = Some(i);
        }
        out
    }

    #[test]
    fn iterates_in_ascending_index_order() {
        let mut w = PollWheel::default();
        for idx in [130, 2, 64, 63, 5, 129] {
            w.register(idx);
        }
        assert_eq!(collect(&w), vec![2, 5, 63, 64, 129, 130]);
        assert_eq!(w.len(), 6);
    }

    #[test]
    fn register_is_idempotent_and_deregister_is_exact() {
        let mut w = PollWheel::default();
        w.register(7);
        w.register(7);
        assert_eq!(w.len(), 1);
        w.deregister(8); // not registered: no-op
        w.deregister(7);
        assert_eq!(w.len(), 0);
        assert_eq!(collect(&w), Vec::<usize>::new());
        w.deregister(7); // double-deregister: no-op
        assert_eq!(w.len(), 0);
    }

    #[test]
    fn mid_scan_deregister_skips_the_removed_poller() {
        let mut w = PollWheel::default();
        for idx in [3, 70, 200] {
            w.register(idx);
        }
        let first = w.next_after(None).unwrap();
        assert_eq!(first, 3);
        // Visiting 3 deregisters 70 (e.g. a kill retired its grid).
        w.deregister(70);
        assert_eq!(w.next_after(Some(first)), Some(200));
    }

    #[test]
    fn mid_scan_register_below_cursor_is_not_revisited() {
        let mut w = PollWheel::default();
        w.register(100);
        let first = w.next_after(None).unwrap();
        assert_eq!(first, 100);
        // A reschedule during the tick launches job 4: it registers but
        // this tick's scan is already past index 4.
        w.register(4);
        assert_eq!(w.next_after(Some(first)), None);
        // The next tick sees it.
        assert_eq!(w.next_after(None), Some(4));
    }

    #[test]
    fn clear_empties_the_wheel() {
        let mut w = PollWheel::default();
        w.register(1);
        w.register(65);
        w.clear();
        assert_eq!(w.len(), 0);
        assert!(!w.contains(1));
        assert_eq!(w.next_after(None), None);
    }
}
