//! `corun_pairs`: single-device FLEP co-runs, the paper's core (§6).
//!
//! 84 cells: the 28 priority pairs (Large victim at t=0 with priority 1,
//! Small high-priority kernel at 10 µs with priority 2) under temporal
//! HPF and again under spatial HPF, and the 28 equal-priority pairs under
//! FFS with `max_overhead = 0.10`. Jobs carry `ModelStore` predictions.
//! Most host time goes to gpu-sim's `BatchDone` handling, at dozens of
//! tasks (and noise draws) per batch event.

use std::time::Instant;

use flep_core::experiments::{equal_priority_pairs, priority_pairs, standalone};
use flep_core::runner::cell_seed;
use flep_core::ModelStore;
use flep_gpu_sim::{GpuConfig, GpuDevice};
use flep_metrics::{antt, stp, Turnaround};
use flep_runtime::{
    CoRun, CoRunResult, JobSpec, KernelProfile, Policy, RuntimeError, SystemEvent, SystemWorld,
    DEFAULT_EVENT_BUDGET,
};
use flep_sim_core::{SimTime, Simulation};
use flep_workloads::{Benchmark, BenchmarkId, InputClass};

use crate::harness::{Counters, Replay, SetupTimes, Simulated, Workload};
use crate::report::{mean, median};
use crate::shim::{drive, Traced};

/// Seed salt of the standalone calibration runs.
const CALIBRATION: u64 = 0xCA11;

/// One co-run cell.
pub struct PairCell {
    policy: Policy,
    jobs: [JobSpec; 2],
    /// Benchmark and input class of each job (standalone lookup).
    kinds: [(BenchmarkId, InputClass); 2],
    /// Whether job 1 is the high-priority kernel of a priority pair.
    priority_pair: bool,
}

/// The workload: calibration table plus the cell list.
pub struct CorunPairs {
    config: GpuConfig,
    /// Standalone turnaround per (benchmark, Large/Small).
    singles: Vec<((BenchmarkId, InputClass), SimTime)>,
    cells: Vec<PairCell>,
}

fn predicted_job(
    store: &ModelStore,
    id: BenchmarkId,
    class: InputClass,
    arrival: SimTime,
    seed: u64,
) -> JobSpec {
    let bench = Benchmark::get(id);
    JobSpec::new(KernelProfile::of(&bench, class), arrival)
        .with_predicted(store.predict(&bench, class))
        .with_seed(seed)
}

impl CorunPairs {
    fn single(&self, kind: (BenchmarkId, InputClass)) -> SimTime {
        self.singles
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|&(_, t)| t)
            .expect("every benchmark and class is calibrated")
    }
}

impl Workload for CorunPairs {
    type Cell = PairCell;
    type Out = CoRunResult;

    fn setup(seed: u64, times: &mut SetupTimes) -> Self {
        let config = GpuConfig::k40();
        let t0 = Instant::now();
        let store = ModelStore::train(seed);
        times.train = t0.elapsed();

        let t0 = Instant::now();
        let mut singles = Vec::new();
        for (i, id) in BenchmarkId::ALL.into_iter().enumerate() {
            for (j, class) in [InputClass::Large, InputClass::Small]
                .into_iter()
                .enumerate()
            {
                let s = cell_seed(seed ^ CALIBRATION, i, j as u64);
                singles.push(((id, class), standalone(&config, id, class, s)));
            }
        }
        times.standalone = t0.elapsed();

        let mut cells = Vec::new();
        let seeds = |c: usize| (cell_seed(seed, c, 0), cell_seed(seed, c, 1));
        for policy in [Policy::hpf(), Policy::hpf_spatial()] {
            for (lo, hi) in priority_pairs() {
                let (s1, s2) = seeds(cells.len());
                let lo_job = predicted_job(&store, lo, InputClass::Large, SimTime::ZERO, s1);
                let hi_job = predicted_job(&store, hi, InputClass::Small, SimTime::from_us(10), s2);
                cells.push(PairCell {
                    policy,
                    jobs: [lo_job.with_priority(1), hi_job.with_priority(2)],
                    kinds: [(lo, InputClass::Large), (hi, InputClass::Small)],
                    priority_pair: true,
                });
            }
        }
        for (long, short) in equal_priority_pairs() {
            let (s1, s2) = seeds(cells.len());
            cells.push(PairCell {
                policy: Policy::Ffs { max_overhead: 0.10 },
                jobs: [
                    predicted_job(&store, long, InputClass::Large, SimTime::ZERO, s1),
                    predicted_job(&store, short, InputClass::Small, SimTime::from_us(10), s2),
                ],
                kinds: [(long, InputClass::Large), (short, InputClass::Small)],
                priority_pair: false,
            });
        }
        let w = CorunPairs {
            config,
            singles,
            cells,
        };
        std::hint::black_box(w.run(&w.cells[0], DEFAULT_EVENT_BUDGET));
        w
    }

    fn cells(&self) -> &[PairCell] {
        &self.cells
    }

    fn run(&self, cell: &PairCell, budget: u64) -> CoRunResult {
        CoRun::new(self.config.clone(), cell.policy)
            .job(cell.jobs[0].clone())
            .job(cell.jobs[1].clone())
            .with_event_budget(budget)
            .run()
    }

    /// Mirrors `CoRun::run` step for step, with the world in the shim.
    fn replay(&self, cell: &PairCell) -> Replay<CoRunResult> {
        let mut device = GpuDevice::new(self.config.clone());
        device.set_span_collection(false);
        device.set_fault_plan(None);
        let world = SystemWorld::new(device, cell.policy, cell.jobs.to_vec(), None);
        let mut sim = Simulation::new(Traced::new(world));
        for (idx, job) in cell.jobs.iter().enumerate() {
            sim.schedule_at(job.arrival, SystemEvent::Arrival(idx));
        }
        let driven = drive(&mut sim, DEFAULT_EVENT_BUDGET);
        let events = sim.dispatched();
        let Traced { inner, mut layers } = sim.into_world();
        layers.loop_ns = driven.loop_ns;
        layers.peak_pending = driven.peak_pending;
        let swap_stats = inner.swap_stats();
        let (jobs, busy_spans, busy_totals, mut report) = inner.into_records();
        if let Some((dispatched, pending)) = driven.exhausted {
            report.errors.push(RuntimeError::EventBudgetExhausted {
                at: driven.end,
                dispatched,
                pending,
            });
        }
        Replay {
            events,
            end: driven.end,
            exhausted: driven.exhausted.is_some(),
            layers,
            out: Some(CoRunResult {
                jobs,
                busy_spans,
                busy_totals,
                end_time: driven.end,
                swap_stats,
                errors: report.errors,
                recoveries: report.recoveries,
                faults: report.faults,
                escalations: report.escalations,
            }),
        }
    }

    fn check(&self, out: &CoRunResult) -> Result<(), String> {
        if let Some(e) = out.errors.first() {
            return Err(format!("co-run error: {e}"));
        }
        if out.jobs.iter().any(|j| j.completed.is_none()) {
            return Err("a co-run job never completed".to_string());
        }
        Ok(())
    }

    fn render(out: &CoRunResult) -> String {
        format!("{out:?}")
    }

    fn end_time(out: &CoRunResult) -> SimTime {
        out.end_time
    }

    fn events(_: &CoRunResult) -> Option<u64> {
        None
    }

    fn exhausted_at(out: &CoRunResult) -> Option<u64> {
        out.errors.iter().find_map(|e| match e {
            RuntimeError::EventBudgetExhausted { dispatched, .. } => Some(*dispatched),
            _ => None,
        })
    }

    /// Kernel jobs have no deadline, so `goodput_frac` and
    /// `jobs_done_frac` both count completed jobs; `hp_*` cover the
    /// high-priority kernel of the 56 priority cells.
    fn simulated(&self, outs: &[CoRunResult]) -> Simulated {
        let mut all = Vec::new();
        let mut hi_ntt = Vec::new();
        let mut hi_ns = Vec::new();
        let mut done = 0usize;
        for (cell, out) in self.cells.iter().zip(outs) {
            for (j, rec) in out.jobs.iter().enumerate() {
                let Some(multi) = rec.turnaround() else {
                    continue;
                };
                done += 1;
                let t = Turnaround {
                    single: self.single(cell.kinds[j]),
                    multi,
                };
                all.push(t);
                if cell.priority_pair && j == 1 {
                    hi_ntt.push(t.ntt());
                    hi_ns.push(multi.as_ns());
                }
            }
        }
        let done_frac = done as f64 / (2 * outs.len()).max(1) as f64;
        hi_ns.sort_unstable();
        let makespans: Vec<f64> = outs.iter().map(|o| o.end_time.as_ms()).collect();
        Simulated {
            antt: antt(&all),
            stp: stp(&all) / outs.len().max(1) as f64,
            hp_ntt: mean(&hi_ntt),
            goodput_frac: done_frac,
            hp_p99_ms: if hi_ns.is_empty() {
                0.0
            } else {
                SimTime::from_ns(flep_metrics::percentile_ns(&hi_ns, 99, 100)).as_ms()
            },
            jobs_done_frac: done_frac,
            makespan_ms: median(&makespans),
        }
    }

    fn counters(out: &CoRunResult) -> Counters {
        Counters::from_summary(out.escalations, &out.recovery_summary())
    }
}
