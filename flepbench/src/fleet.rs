//! `fleet_chaos`: a 16-device cluster under correlated outages, the only
//! workload where cluster control runs at all.
//!
//! Each cell is a `ClusterRun` on a 2x2x4 failure topology: 64 Small jobs
//! from the 8-benchmark mix, arriving every 100 µs with 3 priorities and
//! 4 tenants, the default health config, anti-affinity and spread
//! placement, `max_migrations = 16`, and zone outages plus rack power
//! cycles at 400 or 1600 events/s. Every cell runs on the merged
//! partitioned driver (17 partitions).

use std::time::Instant;

use flep_core::experiments::standalone;
use flep_core::runner::cell_seed;
use flep_gpu_sim::{CorrelatedFaultConfig, FailureTopology, GpuConfig};
use flep_metrics::{antt, percentile_ns, stp, Summary, Turnaround};
use flep_runtime::{
    ClusterConfig, ClusterEvent, ClusterResult, ClusterRun, GpuCluster, HealthConfig, JobSpec,
    KernelProfile, PlacementConfig, Policy, RuntimeError, StepMode, DEFAULT_EVENT_BUDGET,
};
use flep_sim_core::{PartitionedSimulation, SimTime};
use flep_workloads::{Benchmark, BenchmarkId, InputClass};

use crate::harness::{Counters, Replay, SetupTimes, Simulated, Workload};
use crate::report::median;
use crate::shim::{drive, Traced};

/// Correlated outage rates, events per simulated second.
const RATES: [f64; 2] = [400.0, 1600.0];
/// Cells per rate, each with its own seed.
const SEEDS_PER_RATE: usize = 40;
/// Jobs per cell.
const JOBS: usize = 64;
/// Priority of the highest class.
const TOP_PRIORITY: u32 = 3;
/// Seed salt of the standalone calibration runs.
const CALIBRATION: u64 = 0xCA11;

/// One cluster cell.
pub struct FleetCell {
    cfg: ClusterConfig,
    jobs: Vec<JobSpec>,
}

/// The workload: Small standalone times plus the cell list.
pub struct FleetChaos {
    /// Standalone turnaround of each benchmark's Small input.
    singles: Vec<(String, SimTime)>,
    cells: Vec<FleetCell>,
}

fn cell(rate: f64, seed: u64) -> FleetCell {
    let topo = FailureTopology::new(2, 2, 4);
    let mut cfg = ClusterConfig::new(topo.devices(), GpuConfig::k40(), Policy::hpf());
    cfg.topology = Some(topo);
    cfg.health = Some(HealthConfig::default());
    cfg.placement = PlacementConfig {
        anti_affinity: true,
        spread: true,
    };
    cfg.max_migrations = 16;
    cfg.correlated_faults = Some(
        CorrelatedFaultConfig::quiet(seed)
            .with_zone_outages(rate / 3.0, SimTime::from_ms(1))
            .with_rack_cycles(
                2.0 * rate / 3.0,
                SimTime::from_us(500),
                SimTime::from_us(100),
            ),
    );
    let jobs = (0..JOBS)
        .map(|i| {
            let id = BenchmarkId::ALL[i % BenchmarkId::ALL.len()];
            JobSpec::new(
                KernelProfile::of(&Benchmark::get(id), InputClass::Small),
                SimTime::from_us(100 * i as u64),
            )
            .with_priority(1 + (i as u32 % TOP_PRIORITY))
            .with_tenant(i as u32 % 4)
            .with_seed(cell_seed(seed, i, 1))
        })
        .collect();
    FleetCell { cfg, jobs }
}

/// `ClusterRun::run_merged`'s routing: shard events to `device + 1`,
/// cluster-level events to the control partition 0.
fn route(ev: &ClusterEvent) -> u32 {
    match ev {
        ClusterEvent::Shard { device, .. } => device + 1,
        _ => 0,
    }
}

impl FleetChaos {
    fn single(&self, name: &str) -> SimTime {
        self.singles
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, t)| t)
            .expect("every benchmark is calibrated")
    }
}

impl Workload for FleetChaos {
    type Cell = FleetCell;
    type Out = ClusterResult;

    fn setup(seed: u64, times: &mut SetupTimes) -> Self {
        let config = GpuConfig::k40();
        let t0 = Instant::now();
        let singles = BenchmarkId::ALL
            .into_iter()
            .enumerate()
            .map(|(i, id)| {
                let name = KernelProfile::of(&Benchmark::get(id), InputClass::Small).name;
                let s = cell_seed(seed ^ CALIBRATION, i, 0);
                (name, standalone(&config, id, InputClass::Small, s))
            })
            .collect();
        times.standalone = t0.elapsed();
        let cells = RATES
            .iter()
            .flat_map(|&r| std::iter::repeat_n(r, SEEDS_PER_RATE))
            .enumerate()
            .map(|(c, rate)| cell(rate, cell_seed(seed, c, 0)))
            .collect();
        let w = FleetChaos { singles, cells };
        std::hint::black_box(w.run(&w.cells[0], DEFAULT_EVENT_BUDGET));
        w
    }

    fn cells(&self) -> &[FleetCell] {
        &self.cells
    }

    fn run(&self, cell: &FleetCell, budget: u64) -> ClusterResult {
        let mut run = ClusterRun::new(cell.cfg.clone())
            .with_event_budget(budget)
            .with_step_mode(StepMode::Merged);
        for job in &cell.jobs {
            run = run.job(job.clone());
        }
        run.run()
    }

    /// Mirrors `ClusterRun`'s merged driver, with the cluster in the shim.
    fn replay(&self, cell: &FleetCell) -> Replay<ClusterResult> {
        let (mut cluster, initial) = GpuCluster::new(&cell.cfg);
        for job in &cell.jobs {
            cluster.register(job.clone());
        }
        let partitions = cell.cfg.devices.max(1) as usize + 1;
        let mut sim = PartitionedSimulation::new(Traced::new(cluster), partitions, route);
        for (idx, job) in cell.jobs.iter().enumerate() {
            sim.schedule_at(job.arrival, ClusterEvent::Arrival(idx));
        }
        for (at, ev) in initial {
            sim.schedule_at(at, ev);
        }
        let driven = drive(&mut sim, DEFAULT_EVENT_BUDGET);
        let events = sim.dispatched();
        let Traced { inner, mut layers } = sim.into_world();
        layers.loop_ns = driven.loop_ns;
        layers.peak_pending = driven.peak_pending;
        let mut result = inner.into_result(driven.end);
        if let Some((dispatched, pending)) = driven.exhausted {
            result.errors.push(RuntimeError::EventBudgetExhausted {
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
            out: Some(result),
        }
    }

    /// Jobs lost to chaos are a metric (`jobs_done_frac`), not a failure;
    /// the ledger must still balance and the run must settle every job.
    fn check(&self, out: &ClusterResult) -> Result<(), String> {
        if !out.reconciles() {
            return Err("cluster ledger does not reconcile".to_string());
        }
        if Self::exhausted_at(out).is_some() {
            return Err("cluster run exhausted its event budget".to_string());
        }
        if out.stranded > 0 {
            return Err(format!("{} jobs stranded", out.stranded));
        }
        Ok(())
    }

    fn render(out: &ClusterResult) -> String {
        format!("{out:?}")
    }

    fn end_time(out: &ClusterResult) -> SimTime {
        out.end_time
    }

    fn events(_: &ClusterResult) -> Option<u64> {
        None
    }

    fn exhausted_at(out: &ClusterResult) -> Option<u64> {
        out.errors.iter().find_map(|e| match e {
            RuntimeError::EventBudgetExhausted { dispatched, .. } => Some(*dispatched),
            _ => None,
        })
    }

    /// Chaos makes cells heavy-tailed: a cell that loses a zone at the
    /// wrong moment migrates hundreds of times. So `antt`, `stp`, `hp_ntt`
    /// and `hp_p99_ms` are computed per cell and reported as the geometric
    /// mean over cells, the convention for ratios, which one such cell
    /// cannot dominate; `makespan_ms` is the median over cells. NTT is over
    /// completed jobs against the Small standalone of their benchmark;
    /// `hp_*` cover the priority-3 jobs. Jobs have no deadline, so
    /// `goodput_frac` equals `jobs_done_frac`: completed over registered
    /// jobs, pooled over cells.
    fn simulated(&self, outs: &[ClusterResult]) -> Simulated {
        let mut cell_antt = Vec::new();
        let mut cell_stp = Vec::new();
        let mut cell_hp_ntt = Vec::new();
        let mut cell_hp_p99 = Vec::new();
        let mut makespans = Vec::new();
        let (mut done, mut registered) = (0u64, 0u64);
        for out in outs {
            done += out.completed;
            registered += out.jobs.len() as u64;
            let mut all = Vec::new();
            let mut hi = Vec::new();
            for rec in &out.jobs {
                let Some(multi) = rec.turnaround() else {
                    continue;
                };
                let t = Turnaround {
                    single: self.single(&rec.name),
                    multi,
                };
                all.push(t);
                if rec.priority == TOP_PRIORITY {
                    hi.push(t);
                }
            }
            cell_antt.push(antt(&all));
            cell_stp.push(stp(&all));
            if !hi.is_empty() {
                cell_hp_ntt.push(antt(&hi));
                let mut ns: Vec<u64> = hi.iter().map(|t| t.multi.as_ns()).collect();
                ns.sort_unstable();
                cell_hp_p99.push(SimTime::from_ns(percentile_ns(&ns, 99, 100)).as_ms());
            }
            makespans.push(out.end_time.as_ms());
        }
        let done_frac = done as f64 / registered.max(1) as f64;
        Simulated {
            antt: Summary::of(&cell_antt).geo_mean,
            stp: Summary::of(&cell_stp).geo_mean,
            hp_ntt: Summary::of(&cell_hp_ntt).geo_mean,
            goodput_frac: done_frac,
            hp_p99_ms: Summary::of(&cell_hp_p99).geo_mean,
            jobs_done_frac: done_frac,
            makespan_ms: median(&makespans),
        }
    }

    fn counters(out: &ClusterResult) -> Counters {
        Counters::from_summary(out.escalations, &out.summary)
    }
}
