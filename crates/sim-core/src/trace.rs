//! Lightweight event tracing and span accounting.
//!
//! Experiments need two kinds of observability:
//!
//! * a timestamped log of interesting moments ([`TraceLog`] of
//!   [`TraceEvent`]s) used by tests to assert ordering properties, and
//! * closed intervals of "who held the resource when" ([`Span`]s) used to
//!   compute GPU-share curves (Fig. 13) and busy-time utilization.

use crate::SimTime;

/// One timestamped trace record with a free-form label and an integer tag
/// (typically a kernel or SM identifier).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// When the event happened.
    pub at: SimTime,
    /// What happened (stable, test-matchable label such as `"preempt"`).
    pub label: String,
    /// Which entity it happened to.
    pub tag: u64,
}

/// An append-only in-memory trace.
///
/// # Example
///
/// ```
/// use flep_sim_core::{TraceLog, SimTime};
/// let mut log = TraceLog::new();
/// log.record(SimTime::from_us(1), "launch", 0);
/// log.record(SimTime::from_us(5), "finish", 0);
/// assert_eq!(log.events_labeled("launch").count(), 1);
/// ```
#[derive(Debug, Default, Clone)]
pub struct TraceLog {
    events: Vec<TraceEvent>,
    enabled: bool,
}

impl TraceLog {
    /// Creates an enabled, empty log.
    #[must_use]
    pub fn new() -> Self {
        TraceLog {
            events: Vec::new(),
            enabled: true,
        }
    }

    /// Creates a disabled log: `record` becomes a no-op. Experiments that
    /// run millions of events use this to avoid unbounded memory growth.
    #[must_use]
    pub fn disabled() -> Self {
        TraceLog {
            events: Vec::new(),
            enabled: false,
        }
    }

    /// Appends an event (no-op when disabled).
    pub fn record(&mut self, at: SimTime, label: impl Into<String>, tag: u64) {
        if self.enabled {
            self.events.push(TraceEvent {
                at,
                label: label.into(),
                tag,
            });
        }
    }

    /// All events, in insertion (and therefore time) order.
    #[must_use]
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Iterates over events with the given label.
    pub fn events_labeled<'a>(&'a self, label: &'a str) -> impl Iterator<Item = &'a TraceEvent> {
        self.events.iter().filter(move |e| e.label == label)
    }

    /// The first event carrying `label`, if any.
    #[must_use]
    pub fn first_labeled(&self, label: &str) -> Option<&TraceEvent> {
        self.events.iter().find(|e| e.label == label)
    }

    /// Number of recorded events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// A closed interval of virtual time attributed to an owner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Interval start (inclusive).
    pub start: SimTime,
    /// Interval end (exclusive).
    pub end: SimTime,
    /// Owning entity (kernel id, SM id, ...).
    pub owner: u64,
}

impl Span {
    /// The length of the interval.
    #[must_use]
    pub fn duration(&self) -> SimTime {
        self.end.saturating_sub(self.start)
    }

    /// The part of this span that overlaps `[from, to)`.
    #[must_use]
    pub fn clipped(&self, from: SimTime, to: SimTime) -> SimTime {
        let s = self.start.max(from);
        let e = self.end.min(to);
        e.saturating_sub(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = TraceLog::disabled();
        log.record(SimTime::ZERO, "x", 0);
        assert!(log.is_empty());
    }

    #[test]
    fn label_filtering() {
        let mut log = TraceLog::new();
        log.record(SimTime::from_us(1), "a", 1);
        log.record(SimTime::from_us(2), "b", 2);
        log.record(SimTime::from_us(3), "a", 3);
        assert_eq!(log.events_labeled("a").count(), 2);
        assert_eq!(log.first_labeled("b").unwrap().tag, 2);
        assert_eq!(log.len(), 3);
    }

    #[test]
    fn span_duration_and_clip() {
        let s = Span {
            start: SimTime::from_us(10),
            end: SimTime::from_us(20),
            owner: 1,
        };
        assert_eq!(s.duration(), SimTime::from_us(10));
        assert_eq!(
            s.clipped(SimTime::from_us(15), SimTime::from_us(30)),
            SimTime::from_us(5)
        );
        assert_eq!(
            s.clipped(SimTime::from_us(30), SimTime::from_us(40)),
            SimTime::ZERO
        );
    }
}
