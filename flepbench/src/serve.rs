//! `serve_overload`: the multi-tenant serving frontend on one device.
//!
//! Each cell is a `run_serve` of the four `reference_tenants()` with the
//! watchdog armed: a 250 ms (simulated) open-loop arrival slice at load
//! 0.5, 1, 2 or 3 times the reference rates. Arrivals follow a schedule in
//! simulated time whatever the device does, so the queue grows under
//! overload; the host side runs each cell as one batch. Batches are short
//! (about one task per batch event), so the per-task noise path is nearly
//! idle, and host time goes to the event engine, admission and EDF, and
//! the HPF preempt ladder.

use std::time::Instant;

use flep_core::runner::cell_seed;
use flep_gpu_sim::{GpuConfig, TaskCost};
use flep_runtime::{ClusterEvent, CoRun, JobSpec, KernelProfile, Policy, DEFAULT_EVENT_BUDGET};
use flep_serve::{
    reference_tenants, run_serve, ServeConfig, ServeOutcome, ServeReport, ServeWorld, TenantSpec,
};
use flep_sim_core::json::ToJson;
use flep_sim_core::{PartitionedSimulation, SimTime};
use flep_workloads::InferenceModel;

use crate::harness::{Counters, Replay, SetupTimes, Simulated, Workload};
use crate::report::{mean, median};
use crate::shim::{drive, ServeEvent, Traced};

/// Offered-load multipliers of the reference tenant rates.
const LOADS: [f64; 4] = [0.5, 1.0, 2.0, 3.0];
/// Cells per load, each with its own seed.
const SEEDS_PER_LOAD: usize = 12;
/// Simulated arrival window per cell.
const HORIZON: SimTime = SimTime::from_ms(250);
/// Seed salt of the standalone calibration runs.
const CALIBRATION: u64 = 0xCA11;

/// One serving cell.
pub struct ServeCell {
    cfg: ServeConfig,
}

/// The workload: per-tenant single-request standalone times plus cells.
pub struct ServeOverload {
    /// Standalone latency of a one-request batch, per tenant.
    singles: Vec<SimTime>,
    cells: Vec<ServeCell>,
}

/// A one-request batch of `tenant`, shaped as the frontend shapes it.
fn one_request(tenant: &TenantSpec) -> KernelProfile {
    let model = InferenceModel::get(tenant.model);
    KernelProfile {
        name: tenant.name.clone(),
        resources: model.resources,
        total_tasks: 1,
        task_cost: TaskCost {
            base: model.unit_cost,
            rel_noise: model.rel_noise,
        },
        mem_intensity: model.mem_intensity,
        amortize: model.amortize,
    }
}

/// `run_serve`'s routing: shard events to `device + 1`, arrivals and
/// cluster-level events to the control partition 0.
fn route(ev: &ServeEvent) -> u32 {
    match ev {
        ServeEvent::Sys(ClusterEvent::Shard { device, .. }) => device + 1,
        _ => 0,
    }
}

impl Workload for ServeOverload {
    type Cell = ServeCell;
    type Out = ServeReport;

    fn setup(seed: u64, times: &mut SetupTimes) -> Self {
        let tenants = reference_tenants();
        let t0 = Instant::now();
        let singles = tenants
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let job = JobSpec::new(one_request(t), SimTime::ZERO).with_seed(cell_seed(
                    seed ^ CALIBRATION,
                    i,
                    0,
                ));
                CoRun::new(GpuConfig::k40(), Policy::MpsBaseline)
                    .job(job)
                    .run()
                    .jobs[0]
                    .turnaround()
                    .expect("standalone request completes")
            })
            .collect();
        times.standalone = t0.elapsed();
        let cells = LOADS
            .iter()
            .flat_map(|&l| std::iter::repeat_n(l, SEEDS_PER_LOAD))
            .enumerate()
            .map(|(c, load)| {
                let mut tenants = tenants.clone();
                for t in &mut tenants {
                    t.arrivals = t.arrivals.scaled(load);
                }
                ServeCell {
                    cfg: ServeConfig::new(cell_seed(seed, c, 0), HORIZON, tenants),
                }
            })
            .collect();
        let w = ServeOverload { singles, cells };
        std::hint::black_box(w.run(&w.cells[0], DEFAULT_EVENT_BUDGET));
        w
    }

    fn cells(&self) -> &[ServeCell] {
        &self.cells
    }

    fn run(&self, cell: &ServeCell, budget: u64) -> ServeReport {
        let mut cfg = cell.cfg.clone();
        cfg.event_budget = budget;
        run_serve(&cfg)
    }

    /// Mirrors `run_serve`'s driver, with the frontend in the shim. The
    /// report assembly is private to `flep-serve`, so equivalence rests on
    /// the event count and end time.
    fn replay(&self, cell: &ServeCell) -> Replay<ServeReport> {
        let (world, initial) = ServeWorld::new(&cell.cfg);
        let partitions = cell.cfg.devices.max(1) as usize + 1;
        let mut sim = PartitionedSimulation::new(Traced::new(world), partitions, route);
        for (at, ev) in initial {
            sim.schedule_at(at, ev);
        }
        let driven = drive(&mut sim, cell.cfg.event_budget);
        let events = sim.dispatched();
        let mut layers = sim.into_world().layers;
        layers.loop_ns = driven.loop_ns;
        layers.peak_pending = driven.peak_pending;
        Replay {
            events,
            end: driven.end,
            exhausted: driven.exhausted.is_some(),
            layers,
            out: None,
        }
    }

    fn check(&self, out: &ServeReport) -> Result<(), String> {
        if out.outcome != ServeOutcome::Drained || out.leftover > 0 {
            return Err(format!(
                "serving run did not drain ({}, {} requests left)",
                out.outcome.name(),
                out.leftover
            ));
        }
        if !out.reconciles() {
            return Err("request ledger does not reconcile".to_string());
        }
        if out.runtime_errors > 0 {
            return Err(format!("{} runtime errors", out.runtime_errors));
        }
        Ok(())
    }

    fn render(out: &ServeReport) -> String {
        out.to_json().render()
    }

    fn end_time(out: &ServeReport) -> SimTime {
        out.end_time
    }

    fn events(out: &ServeReport) -> Option<u64> {
        Some(out.events)
    }

    fn exhausted_at(out: &ServeReport) -> Option<u64> {
        (out.outcome == ServeOutcome::BudgetExhausted).then_some(out.events)
    }

    /// Requests are the work items: `goodput_frac` counts those completed
    /// within their SLO, `jobs_done_frac` all completed, both over
    /// offered. For ANTT and STP each tenant is one co-running program
    /// whose turnaround is its median request latency, normalized by a
    /// one-request batch alone on the device; tenants that completed
    /// nothing are left out. `hp_*` cover `dlrm`, the top-priority tenant,
    /// as the median over cells of its per-cell NTT and p99.
    fn simulated(&self, outs: &[ServeReport]) -> Simulated {
        let (mut offered, mut good, mut done) = (0u64, 0u64, 0u64);
        let (mut ntt, mut stp, mut hp_ntt, mut hp_p99) = (Vec::new(), 0.0, Vec::new(), Vec::new());
        for out in outs {
            offered += out.offered();
            good += out.goodput();
            let top = out.tenants.iter().map(|t| t.priority).max();
            for (t, single) in out.tenants.iter().zip(&self.singles) {
                done += t.stats.completed;
                let Some(lat) = t.latency else {
                    continue;
                };
                let p50 = SimTime::from_ns(lat.p50_ns);
                ntt.push(p50.ratio(*single));
                stp += single.ratio(p50);
                if Some(t.priority) == top {
                    hp_ntt.push(p50.ratio(*single));
                    hp_p99.push(SimTime::from_ns(lat.p99_ns).as_ms());
                }
            }
        }
        let makespans: Vec<f64> = outs.iter().map(|o| o.end_time.as_ms()).collect();
        Simulated {
            antt: mean(&ntt),
            stp: stp / outs.len().max(1) as f64,
            hp_ntt: median(&hp_ntt),
            goodput_frac: good as f64 / offered.max(1) as f64,
            hp_p99_ms: median(&hp_p99),
            jobs_done_frac: done as f64 / offered.max(1) as f64,
            makespan_ms: median(&makespans),
        }
    }

    fn counters(out: &ServeReport) -> Counters {
        let mut c = Counters::from_summary(out.escalations, &out.summary);
        for t in &out.tenants {
            let s = &t.stats;
            c.offered += s.offered;
            c.admitted += s.admitted;
            c.dropped += s.dropped_past_deadline + s.dropped_queue_full;
            c.expired += s.expired;
            c.shed += s.shed;
            c.batches += s.batches;
            c.batched += s.completed + s.failed;
        }
        c
    }
}
