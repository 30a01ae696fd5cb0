//! The offered-load sweep: the serving analogue of the paper's co-run
//! sweeps, producing goodput and tail-latency curves versus load.
//!
//! Each load point runs as one independent cell under
//! [`flep_sim_core::runner::run_cells`], with its own seed derived by
//! [`flep_sim_core::runner::cell_seed`]. Cells are merged in index order, so
//! the sweep's output is byte-identical whatever `FLEP_THREADS` says —
//! the same discipline every other experiment in the tree follows.

use crate::arrivals::ArrivalProcess;
use crate::frontend::{run_serve, ServeConfig, ServeReport, TenantSpec};
use flep_sim_core::json::{JsonValue, ToJson};
use flep_sim_core::{runner, SimTime};
use flep_workloads::ModelId;

/// One point of the load sweep.
#[derive(Debug, Clone)]
pub struct LoadPoint {
    /// The multiplier applied to every tenant's arrival rate.
    pub load: f64,
    /// The full serving report at this load.
    pub report: ServeReport,
}

impl ToJson for LoadPoint {
    fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("load", JsonValue::Float(self.load)),
            ("report", self.report.to_json()),
        ])
    }
}

/// The reference four-tenant serving mix: one tenant per model, rates
/// chosen so `load = 1.0` puts the device near 70% utilization (the
/// sweep's upper loads then push it well past saturation), and priorities
/// tightest-SLO-highest so HPF preemption protects the interactive
/// tenants under overload.
#[must_use]
pub fn reference_tenants() -> Vec<TenantSpec> {
    vec![
        TenantSpec::new(
            "dlrm",
            ModelId::Dlrm,
            3,
            ArrivalProcess::Poisson {
                rate_per_s: 40_000.0,
            },
        ),
        TenantSpec::new(
            "resnet50",
            ModelId::Resnet,
            2,
            ArrivalProcess::Poisson {
                rate_per_s: 12_000.0,
            },
        ),
        TenantSpec::new(
            "bert-qa",
            ModelId::Bert,
            1,
            ArrivalProcess::Bursty {
                base_rate_per_s: 1_500.0,
                peak_rate_per_s: 7_500.0,
                period: SimTime::from_ms(200),
                duty: 0.25,
            },
        ),
        TenantSpec::new(
            "gpt2-gen",
            ModelId::Gpt2,
            0,
            ArrivalProcess::Poisson { rate_per_s: 600.0 },
        ),
    ]
}

/// Runs `base` at each offered-load multiplier, one parallel cell per
/// load point. The base config's seed is re-derived per cell, so results
/// do not depend on the thread count.
#[must_use]
pub fn sweep_offered_load(base: &ServeConfig, loads: &[f64]) -> Vec<LoadPoint> {
    let reports = runner::run_cells(loads.len(), |cell| {
        let load = loads[cell];
        let mut cfg = base.clone();
        cfg.seed = runner::cell_seed(base.seed, cell, 0);
        for t in &mut cfg.tenants {
            t.arrivals = t.arrivals.scaled(load);
        }
        run_serve(&cfg)
    });
    loads
        .iter()
        .zip(reports)
        .map(|(&load, report)| LoadPoint { load, report })
        .collect()
}
