//! Per-device health scoring and the circuit breaker.
//!
//! The cluster's fault handling (migrate, restore, re-place) is purely
//! reactive: a device that flaps — hang, restore, hang again — keeps
//! re-entering the placement rotation and keeps eating jobs, paying the
//! full migration cost on every lap. The health layer adds the memory
//! that reactive handling lacks:
//!
//! * **Scoring** — every fault observation decays into an exponentially
//!   weighted moving score ([`DeviceHealth::observe`]); a single hang
//!   fades harmlessly, a burst accumulates.
//! * **Breaker** — when the score crosses
//!   [`HealthConfig::open_threshold`] the breaker opens
//!   ([`BreakerState::Open`]): the device is quarantined out of the
//!   placement rotation even while its [`DeviceState`] says healthy.
//!   After a cooldown (doubling per failed attempt) the cluster launches
//!   a deterministic *probe* grid ([`BreakerState::HalfOpen`]); only a
//!   completed probe closes the breaker and re-admits the device.
//!
//! Everything here is pure bookkeeping driven by the cluster's own
//! deterministic event stream — no randomness, no wall clock — so health
//! decisions replay exactly, and a run with `health: None` never touches
//! any of it.
//!
//! [`DeviceState`]: crate::DeviceState

use flep_sim_core::SimTime;

/// Circuit-breaker position for one device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BreakerState {
    /// Normal operation: the device is in the placement rotation.
    #[default]
    Closed,
    /// Quarantined: no placements; a probe is (or will be) scheduled.
    Open,
    /// A probe grid is in flight; its completion closes the breaker, any
    /// fresh fault re-opens it.
    HalfOpen,
}

/// Tuning for health scoring and the breaker state machine. Enabled by
/// setting [`ClusterConfig::health`](crate::ClusterConfig::health).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthConfig {
    /// Decay time constant of the fault score: an observation loses
    /// `1/e` of its weight every `tau`.
    pub ewma_tau: SimTime,
    /// Score at (or above) which the breaker opens.
    pub open_threshold: f64,
    /// Cooldown before the first re-admission probe; doubles per failed
    /// probe (capped at 32×).
    pub probe_cooldown: SimTime,
    /// Tasks in the probe grid — small enough to finish fast, real
    /// enough to exercise launch, dispatch, and completion doorbells.
    pub probe_tasks: u64,
    /// Score weight of one device hang.
    pub hang_weight: f64,
    /// Score weight of one transient device loss (seeded or correlated).
    pub loss_weight: f64,
    /// Score weight of one job migrated off the device.
    pub migration_weight: f64,
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig {
            ewma_tau: SimTime::from_ms(5),
            open_threshold: 2.0,
            probe_cooldown: SimTime::from_ms(1),
            probe_tasks: 4,
            hang_weight: 1.0,
            loss_weight: 1.5,
            migration_weight: 0.25,
        }
    }
}

impl HealthConfig {
    /// Sets the open threshold (builder style).
    #[must_use]
    pub fn with_threshold(mut self, threshold: f64) -> Self {
        self.open_threshold = threshold;
        self
    }

    /// Sets the probe cooldown (builder style).
    #[must_use]
    pub fn with_probe_cooldown(mut self, cooldown: SimTime) -> Self {
        self.probe_cooldown = cooldown;
        self
    }

    /// The cooldown before probe attempt `failures + 1`: the base
    /// cooldown doubled per recorded failure, capped at 32×.
    #[must_use]
    pub fn probe_delay(&self, failures: u32) -> SimTime {
        self.probe_cooldown * (1u64 << failures.min(5))
    }
}

/// One device's health record: the decayed fault score plus breaker
/// position. Default state is pristine (score 0, breaker closed).
#[derive(Debug, Clone, Copy, Default)]
pub struct DeviceHealth {
    /// Exponentially decayed fault score.
    pub score: f64,
    /// When the score was last touched (decay reference point).
    pub last_observed: SimTime,
    /// Breaker position.
    pub breaker: BreakerState,
    /// Probe attempts failed since the breaker last closed (drives the
    /// cooldown backoff).
    pub probe_failures: u32,
    /// Whether a probe event is already scheduled (dedupes re-arming
    /// when faults arrive faster than probes fire).
    pub probe_pending: bool,
}

impl DeviceHealth {
    /// Decays the score to `now` and adds one observation of `weight`.
    /// Returns the updated score.
    pub fn observe(&mut self, now: SimTime, weight: f64, tau: SimTime) -> f64 {
        self.score = self.decayed(now, tau) + weight;
        self.last_observed = now;
        self.score
    }

    /// The score as it stands at `now`, decayed but without adding an
    /// observation.
    #[must_use]
    pub fn decayed(&self, now: SimTime, tau: SimTime) -> f64 {
        let dt = now.saturating_sub(self.last_observed);
        if tau.is_zero() || self.score == 0.0 {
            return if dt.is_zero() { self.score } else { 0.0 };
        }
        self.score * (-(dt.as_ns() as f64) / tau.as_ns() as f64).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observations_accumulate_and_decay() {
        let cfg = HealthConfig::default();
        let mut h = DeviceHealth::default();
        let s1 = h.observe(SimTime::from_ms(1), cfg.hang_weight, cfg.ewma_tau);
        assert!((s1 - 1.0).abs() < 1e-12);
        // A second hang immediately after nearly doubles the score.
        let s2 = h.observe(SimTime::from_ms(1), cfg.hang_weight, cfg.ewma_tau);
        assert!((s2 - 2.0).abs() < 1e-12);
        // After many taus the burst has faded to noise.
        let faded = h.decayed(SimTime::from_ms(100), cfg.ewma_tau);
        assert!(faded < 1e-6, "score should decay: {faded}");
    }

    #[test]
    fn decay_is_monotone_in_elapsed_time() {
        let tau = SimTime::from_ms(5);
        let mut h = DeviceHealth::default();
        h.observe(SimTime::ZERO, 3.0, tau);
        let mut prev = h.decayed(SimTime::ZERO, tau);
        for ms in [1, 2, 5, 10, 50] {
            let s = h.decayed(SimTime::from_ms(ms), tau);
            assert!(s < prev);
            prev = s;
        }
    }

    #[test]
    fn zero_tau_forgets_instantly() {
        let mut h = DeviceHealth::default();
        h.observe(SimTime::from_us(10), 5.0, SimTime::ZERO);
        assert_eq!(h.score, 5.0);
        assert_eq!(h.decayed(SimTime::from_us(11), SimTime::ZERO), 0.0);
    }

    #[test]
    fn probe_delay_doubles_and_caps() {
        let cfg = HealthConfig::default().with_probe_cooldown(SimTime::from_ms(1));
        assert_eq!(cfg.probe_delay(0), SimTime::from_ms(1));
        assert_eq!(cfg.probe_delay(1), SimTime::from_ms(2));
        assert_eq!(cfg.probe_delay(3), SimTime::from_ms(8));
        assert_eq!(cfg.probe_delay(5), SimTime::from_ms(32));
        assert_eq!(cfg.probe_delay(40), SimTime::from_ms(32));
    }
}
