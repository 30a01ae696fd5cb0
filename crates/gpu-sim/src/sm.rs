//! The streaming-multiprocessor model: resource slots, residency, and the
//! intra-SM contention model.

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
    /// Thread count of this CTA (cached for load computation).
    pub threads: u32,
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

    /// Fraction of the SM's thread slots currently occupied, in `[0, 1]`.
    #[must_use]
    pub fn thread_load(&self, cfg: &GpuConfig) -> f64 {
        f64::from(self.used_threads) / f64::from(cfg.threads_per_sm)
    }

    /// The contention slowdown factor applied to work executing on this SM
    /// for a kernel with the given resource usage and memory intensity.
    ///
    /// The model: per-task duration grows linearly with the SM's thread
    /// load, with slope `mem_intensity` (memory-bound kernels suffer more
    /// from co-residents than compute-bound ones). The factor is normalized
    /// to `1.0` at the load the kernel would itself create at full
    /// single-kernel occupancy, so that the standalone calibrated times of
    /// Table 1 are invariant to `mem_intensity`:
    ///
    /// ```text
    /// factor = (1 + c * load_now) / (1 + c * load_full_own)
    /// ```
    ///
    /// Consequences the evaluation relies on:
    /// * fewer co-resident CTAs than standalone ⇒ factor < 1 (tasks speed
    ///   up) — the effect behind Fig. 16;
    /// * an SM packed beyond the kernel's own standalone load by another
    ///   kernel's CTAs ⇒ factor > 1 (cross-kernel interference).
    #[must_use]
    pub fn contention_factor(
        &self,
        cfg: &GpuConfig,
        usage: &ResourceUsage,
        mem_intensity: f64,
    ) -> f64 {
        let c = mem_intensity.max(0.0);
        let occ = cfg.occupancy_per_sm(usage);
        let full_own_load = f64::from(occ * usage.threads_per_cta) / f64::from(cfg.threads_per_sm);
        let load = self.thread_load(cfg);
        (1.0 + c * load) / (1.0 + c * full_own_load)
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
            threads: 256,
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
    fn contention_factor_is_one_at_full_own_occupancy() {
        let cfg = GpuConfig::k40();
        let mut sm = Sm::new(0);
        for i in 0..8 {
            sm.place(&cfg, &usage(), resident(1, i));
        }
        let f = sm.contention_factor(&cfg, &usage(), 1.4);
        assert!((f - 1.0).abs() < 1e-12, "{f}");
    }

    #[test]
    fn contention_factor_below_one_when_underloaded() {
        let cfg = GpuConfig::k40();
        let mut sm = Sm::new(0);
        sm.place(&cfg, &usage(), resident(1, 0));
        let f = sm.contention_factor(&cfg, &usage(), 1.4);
        assert!(f < 1.0, "{f}");
        // Max speedup from a dedicated SM is bounded by (1 + c) / (1 + c/8).
        assert!(f > 1.0 / (1.0 + 1.4), "{f}");
    }

    #[test]
    fn contention_factor_ignores_negative_intensity() {
        let cfg = GpuConfig::k40();
        let sm = Sm::new(0);
        assert_eq!(sm.contention_factor(&cfg, &usage(), -3.0), 1.0);
    }

    #[test]
    fn compute_bound_kernel_insensitive_to_load() {
        let cfg = GpuConfig::k40();
        let mut sm = Sm::new(0);
        sm.place(&cfg, &usage(), resident(1, 0));
        let f = sm.contention_factor(&cfg, &usage(), 0.0);
        assert_eq!(f, 1.0);
    }
}
