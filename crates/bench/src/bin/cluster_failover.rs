//! The cluster failover sweep: device count × device-fault rate, each
//! cell one deterministic multi-device co-run under the kill-migrate-
//! restart recovery path. Reports completion accounting (completed /
//! failed / stranded — the reconciliation ledger), migrations, fired
//! faults, and simulated makespan per cell.
//!
//! Every cell is an independent `runner::run_cells` unit seeded by
//! `cell_seed`, so the table and JSON rows are byte-identical at any
//! `FLEP_THREADS`.
//!
//! Knobs: `FLEP_CLUSTER_DEVICES` (comma-separated device counts, default
//! `1,2,4,8`); `FLEP_CLUSTER_FAULTS` (comma-separated death rates per
//! simulated second, default `0,20,100`; hangs and transient losses scale
//! at 4× and 2× the death rate); `FLEP_SEED`; `FLEP_REPEATS` (wall-clock
//! samples); `FLEP_JSON` / `FLEP_BENCH_JSON` (artifacts).

use flep_bench::gate::{write_artifact, ArtifactRow};
use flep_bench::{emit_json, exp_config, header, timed};
use flep_gpu_sim::{DeviceFaultConfig, GpuConfig};
use flep_runtime::{
    ClusterConfig, ClusterResult, ClusterRun, DeviceEventKind, JobSpec, KernelProfile, Policy,
};
use flep_sim_core::json::{JsonValue, ToJson};
use flep_sim_core::knob::{env_knob, parse_finite, parse_list, parse_uint};
use flep_sim_core::runner::{cell_seed, run_cells};
use flep_sim_core::SimTime;
use flep_workloads::{Benchmark, BenchmarkId, InputClass};

/// The eight-job mix every cell runs: one of each benchmark class,
/// arrivals staggered 250µs apart, priorities cycling over three levels.
const MIX: [BenchmarkId; 8] = [
    BenchmarkId::Va,
    BenchmarkId::Spmv,
    BenchmarkId::Pf,
    BenchmarkId::Nn,
    BenchmarkId::Mm,
    BenchmarkId::Pl,
    BenchmarkId::Md,
    BenchmarkId::Cfd,
];

/// One sweep cell: `devices` GPUs, seeded device faults at `rate`
/// deaths/s (hangs at 4×, transient losses at 2×).
fn run_cell(devices: u32, rate: f64, seed: u64) -> ClusterResult {
    let mut cfg = ClusterConfig::new(devices, GpuConfig::k40(), Policy::hpf());
    if rate > 0.0 {
        cfg.device_faults = Some(
            DeviceFaultConfig::quiet(seed)
                .with_hangs(4.0 * rate, SimTime::from_ms(1))
                .with_losses(2.0 * rate, SimTime::from_ms(2))
                .with_deaths(rate),
        );
        cfg.max_migrations = 16;
    }
    let mut run = ClusterRun::new(cfg);
    for (i, id) in MIX.into_iter().enumerate() {
        run = run.job(
            JobSpec::new(
                KernelProfile::of(&Benchmark::get(id), InputClass::Small),
                SimTime::from_us(250 * i as u64),
            )
            .with_priority(1 + (i as u32 % 3))
            .with_seed(seed ^ i as u64),
        );
    }
    run.run()
}

struct Row {
    devices: u32,
    rate: f64,
    completed: u64,
    failed: u64,
    stranded: u64,
    migrations: u64,
    device_faults: usize,
    device_events: usize,
    makespan: SimTime,
}

impl ToJson for Row {
    fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("devices", u64::from(self.devices).to_json()),
            ("fault_rate_per_s", self.rate.to_json()),
            ("completed", self.completed.to_json()),
            ("failed", self.failed.to_json()),
            ("stranded", self.stranded.to_json()),
            ("migrations", self.migrations.to_json()),
            ("device_faults", (self.device_faults as u64).to_json()),
            ("device_events", (self.device_events as u64).to_json()),
            ("makespan_ns", self.makespan.as_ns().to_json()),
        ])
    }
}

fn sweep(seed: u64, devices: &[u32], rates: &[f64]) -> Vec<Row> {
    let cells: Vec<(u32, f64)> = devices
        .iter()
        .flat_map(|&d| rates.iter().map(move |&r| (d, r)))
        .collect();
    run_cells(cells.len(), |i| {
        let (d, r) = cells[i];
        let result = run_cell(d, r, cell_seed(seed, i, 0));
        assert!(
            result.reconciles(),
            "cell {i} (devices {d}, rate {r}) lost or double-ran a job"
        );
        Row {
            devices: d,
            rate: r,
            completed: result.completed,
            failed: result.failed,
            stranded: result.stranded,
            migrations: result.migrations,
            device_faults: result
                .device_events
                .iter()
                .filter(|e| matches!(e.kind, DeviceEventKind::Fault(_)))
                .count(),
            device_events: result.device_events.len(),
            makespan: result.end_time,
        }
    })
}

fn main() {
    header(
        "cluster_failover — kill-migrate-restart under device faults",
        "multi-GPU sharding over the FLEP runtime (robustness; paper §3.2/§6 risk analysis)",
        "faults-off rows complete everything with zero migrations; under faults every job is still accounted exactly once and makespan grows with the fault rate, shrinks with devices",
    );
    let exp = exp_config();
    let devices = env_knob("FLEP_CLUSTER_DEVICES", "1,2,4,8", |s| {
        parse_list(s, |d| parse_uint(d, 1u32))
    });
    let rates = env_knob("FLEP_CLUSTER_FAULTS", "0,20,100", |s| {
        parse_list(s, parse_finite)
    });
    let (rows, median_wall) = timed(exp.repeats, || sweep(exp.seed, &devices, &rates));

    emit_json("cluster_failover", &rows);

    println!(
        "{:>7} {:>8} {:>9} {:>6} {:>8} {:>10} {:>6} {:>7} {:>12}",
        "devices",
        "faults/s",
        "completed",
        "failed",
        "stranded",
        "migrations",
        "faults",
        "events",
        "makespan"
    );
    for r in &rows {
        println!(
            "{:>7} {:>8.1} {:>9} {:>6} {:>8} {:>10} {:>6} {:>7} {:>12}",
            r.devices,
            r.rate,
            r.completed,
            r.failed,
            r.stranded,
            r.migrations,
            r.device_faults,
            r.device_events,
            r.makespan.to_string(),
        );
    }
    println!(
        "total: {} cells ({} device counts x {} fault rates, {} jobs each), sweep wall median {:.2}s",
        rows.len(),
        devices.len(),
        rates.len(),
        MIX.len(),
        median_wall as f64 / 1e9,
    );

    // The deterministic simulated makespan in the timing fields.
    let artifact: Vec<ArtifactRow> = rows
        .iter()
        .map(|r| {
            let name = format!("cluster_failover/d{}_f{:.1}", r.devices, r.rate);
            ArtifactRow::exact(name, r.makespan.as_ns())
                .with("migrations", r.migrations)
                .with("completed", r.completed)
        })
        .collect();
    write_artifact(
        "flep cluster failover",
        exp.repeats,
        &artifact,
        Some(median_wall),
    );
}
