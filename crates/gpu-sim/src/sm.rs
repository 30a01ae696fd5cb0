//! The streaming-multiprocessor model: resource slots and residency. The
//! contention model that reads an SM's thread load lives on the device
//! (`GpuDevice::effective_contention_factor`).

use flep_sim_core::SimTime;

use crate::config::{GpuConfig, ResourceUsage};
use crate::grid::GridId;

/// One CTA currently resident on an SM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResidentCta {
    /// The grid the CTA belongs to.
    pub grid: GridId,
    /// CTA index within its grid.
    pub cta: u64,
    /// When the CTA was dispatched onto this SM.
    pub since: SimTime,
}

/// A streaming multiprocessor: tracks resource usage and resident CTAs.
#[derive(Debug, Clone)]
pub struct Sm {
    id: u32,
    used_threads: u32,
    used_regs: u32,
    used_smem: u32,
    resident: Vec<ResidentCta>,
}

impl Sm {
    /// Creates an empty SM with the given hardware index (`%smid`).
    #[must_use]
    pub fn new(id: u32) -> Self {
        Sm {
            id,
            used_threads: 0,
            used_regs: 0,
            used_smem: 0,
            resident: Vec::new(),
        }
    }

    /// The `%smid` of this SM.
    #[must_use]
    pub fn id(&self) -> u32 {
        self.id
    }

    /// The CTAs currently resident.
    #[must_use]
    pub fn resident(&self) -> &[ResidentCta] {
        &self.resident
    }

    /// Number of resident CTAs.
    #[must_use]
    pub fn resident_count(&self) -> u32 {
        self.resident.len() as u32
    }

    /// Total threads of all resident CTAs.
    #[must_use]
    pub fn used_threads(&self) -> u32 {
        self.used_threads
    }

    /// Whether a CTA with `usage` fits on this SM right now.
    #[must_use]
    pub fn fits(&self, cfg: &GpuConfig, usage: &ResourceUsage) -> bool {
        if self.resident.len() as u32 >= cfg.max_ctas_per_sm {
            return false;
        }
        let regs = usage.regs_per_thread.saturating_mul(usage.threads_per_cta);
        usage.threads_per_cta > 0
            && self.used_threads + usage.threads_per_cta <= cfg.threads_per_sm
            && self.used_regs.saturating_add(regs) <= cfg.regs_per_sm
            && self.used_smem + usage.smem_per_cta <= cfg.smem_per_sm
    }

    /// Places a CTA on this SM.
    ///
    /// # Panics
    ///
    /// Panics if the CTA does not fit — callers must check [`Sm::fits`]
    /// first; a failure here is a dispatcher bug.
    pub fn place(&mut self, cfg: &GpuConfig, usage: &ResourceUsage, cta: ResidentCta) {
        assert!(
            self.fits(cfg, usage),
            "dispatcher bug: CTA placed on full SM {}",
            self.id
        );
        self.used_threads += usage.threads_per_cta;
        self.used_regs += usage.regs_per_thread.saturating_mul(usage.threads_per_cta);
        self.used_smem += usage.smem_per_cta;
        self.resident.push(cta);
    }

    /// Removes a CTA, returning its residency record.
    ///
    /// # Panics
    ///
    /// Panics if the CTA is not resident — a failure here is a device
    /// bookkeeping bug.
    pub fn remove(&mut self, usage: &ResourceUsage, grid: GridId, cta: u64) -> ResidentCta {
        let pos = self
            .resident
            .iter()
            .position(|r| r.grid == grid && r.cta == cta)
            .unwrap_or_else(|| panic!("CTA {cta} of grid {grid:?} not resident on SM {}", self.id));
        self.used_threads -= usage.threads_per_cta;
        self.used_regs -= usage.regs_per_thread.saturating_mul(usage.threads_per_cta);
        self.used_smem -= usage.smem_per_cta;
        self.resident.swap_remove(pos)
    }

    /// Hands the slot of finished CTA `cta` of `grid` to the grid's next
    /// CTA `next`, dispatched at `now`, and returns the finished CTA's
    /// dispatch time. Resource usage is unchanged (both CTAs belong to one
    /// grid), and the resident list ends in the order [`Sm::remove`]
    /// followed by [`Sm::place`] would leave it: the last record moves into
    /// the finished CTA's position and the new CTA goes last.
    ///
    /// # Panics
    ///
    /// Panics if the CTA is not resident — a device bookkeeping bug.
    pub fn refill(&mut self, grid: GridId, cta: u64, next: u64, now: SimTime) -> SimTime {
        let pos = self
            .resident
            .iter()
            .position(|r| r.grid == grid && r.cta == cta)
            .unwrap_or_else(|| panic!("CTA {cta} of grid {grid:?} not resident on SM {}", self.id));
        let last = self.resident.len() - 1;
        self.resident.swap(pos, last);
        let slot = &mut self.resident[last];
        let since = slot.since;
        slot.cta = next;
        slot.since = now;
        since
    }

    /// Forcibly removes every resident CTA of `grid`, returning their
    /// residency records (in no particular order). Used by the device's
    /// kill path: unlike [`Sm::remove`], absence is not an error — a kill
    /// must succeed whatever the grid's residency looks like.
    pub fn evict_grid(&mut self, usage: &ResourceUsage, grid: GridId) -> Vec<ResidentCta> {
        let mut evicted = Vec::new();
        let mut i = 0;
        while i < self.resident.len() {
            if self.resident[i].grid == grid {
                self.used_threads -= usage.threads_per_cta;
                self.used_regs -= usage.regs_per_thread.saturating_mul(usage.threads_per_cta);
                self.used_smem -= usage.smem_per_cta;
                evicted.push(self.resident.swap_remove(i));
            } else {
                i += 1;
            }
        }
        evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn usage() -> ResourceUsage {
        ResourceUsage::typical_256()
    }

    fn resident(grid: u64, cta: u64) -> ResidentCta {
        ResidentCta {
            grid: GridId(grid),
            cta,
            since: SimTime::ZERO,
        }
    }

    #[test]
    fn fits_until_occupancy_exhausted() {
        let cfg = GpuConfig::k40();
        let mut sm = Sm::new(0);
        for i in 0..8 {
            assert!(sm.fits(&cfg, &usage()), "iteration {i}");
            sm.place(&cfg, &usage(), resident(1, i));
        }
        assert!(!sm.fits(&cfg, &usage()));
        assert_eq!(sm.resident_count(), 8);
    }

    #[test]
    fn remove_frees_resources() {
        let cfg = GpuConfig::k40();
        let mut sm = Sm::new(0);
        for i in 0..8 {
            sm.place(&cfg, &usage(), resident(1, i));
        }
        sm.remove(&usage(), GridId(1), 3);
        assert!(sm.fits(&cfg, &usage()));
        assert_eq!(sm.resident_count(), 7);
    }

    #[test]
    #[should_panic(expected = "not resident")]
    fn remove_missing_cta_panics() {
        let mut sm = Sm::new(0);
        sm.remove(&usage(), GridId(9), 0);
    }

    #[test]
    #[should_panic(expected = "dispatcher bug")]
    fn place_on_full_sm_panics() {
        let cfg = GpuConfig::k40();
        let mut sm = Sm::new(0);
        for i in 0..8 {
            sm.place(&cfg, &usage(), resident(1, i));
        }
        sm.place(&cfg, &usage(), resident(1, 8));
    }

    #[test]
    fn refill_matches_remove_then_place() {
        let cfg = GpuConfig::k40();
        let mut generic = Sm::new(0);
        for i in 0..8 {
            let since = SimTime::from_ns(i);
            generic.place(
                &cfg,
                &usage(),
                ResidentCta {
                    since,
                    ..resident(1, i)
                },
            );
        }
        let mut refilled = generic.clone();
        let now = SimTime::from_us(5);
        let removed = generic.remove(&usage(), GridId(1), 2);
        generic.place(
            &cfg,
            &usage(),
            ResidentCta {
                grid: GridId(1),
                cta: 8,
                since: now,
            },
        );
        let since = refilled.refill(GridId(1), 2, 8, now);
        assert_eq!(since, removed.since);
        assert_eq!(since, SimTime::from_ns(2));
        assert_eq!(refilled.resident(), generic.resident());
        assert_eq!(refilled.used_threads(), generic.used_threads());
        assert!(!refilled.fits(&cfg, &usage()));
    }

    #[test]
    #[should_panic(expected = "not resident")]
    fn refill_missing_cta_panics() {
        let mut sm = Sm::new(0);
        sm.refill(GridId(9), 0, 1, SimTime::ZERO);
    }
}
