//! The cluster scale-out sweep: fixed per-device workload, growing device
//! count — the epoch driver's headline bench. The epoch driver steps each
//! device's own event stream up to the next cluster-level timestamp, so
//! per-device cost should stay near-flat as the fleet grows: d=1024 lands
//! within ~1.3× the d=8 per-device wall-clock.
//!
//! Each device count runs `FLEP_SCALE_JOBS` jobs per device, arriving in
//! cluster-wide same-timestamp waves (wave `w` drops one job per device
//! at `w × 250µs`) — the worst case for the epoch driver, since every
//! wave is a cross-device barrier. The watchdog is armed so every device
//! carries a poll-tick stream for its whole busy span.
//!
//! Simulated results (makespan, completion ledger) are deterministic and
//! independent of `FLEP_THREADS`; repeats only sample wall-clock.
//!
//! Knobs: `FLEP_SCALE_DEVICES` (comma-separated device counts, default
//! `8,64,256,1024`); `FLEP_SCALE_JOBS` (jobs per device, default `4`);
//! `FLEP_SEED`; `FLEP_REPEATS`; `FLEP_JSON` / `FLEP_BENCH_JSON`
//! (artifacts).

use flep_bench::gate::{write_artifact, ArtifactRow};
use flep_bench::{emit_json, exp_config, header, timed};
use flep_gpu_sim::GpuConfig;
use flep_runtime::{
    ClusterConfig, ClusterResult, ClusterRun, JobSpec, KernelProfile, Policy, WatchdogConfig,
};
use flep_sim_core::json::{JsonValue, ToJson};
use flep_sim_core::knob::{env_knob, parse_list, parse_uint};
use flep_sim_core::runner::cell_seed;
use flep_sim_core::SimTime;
use flep_workloads::{Benchmark, BenchmarkId, InputClass};

/// The benchmark mix cycled across the cluster (same classes as the
/// failover sweep).
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

/// One scale point: `devices` GPUs, `jobs_per_device` waves of one job
/// per device, watchdog armed, faults off (so the epoch driver engages).
fn run_point(devices: u32, jobs_per_device: u64, seed: u64) -> ClusterResult {
    let mut cfg = ClusterConfig::new(devices, GpuConfig::k40(), Policy::hpf());
    cfg.watchdog = Some(WatchdogConfig::default());
    let mut run = ClusterRun::new(cfg);
    let mut job = 0u64;
    for wave in 0..jobs_per_device {
        for d in 0..u64::from(devices) {
            let id = MIX[(job % MIX.len() as u64) as usize];
            run = run.job(
                JobSpec::new(
                    KernelProfile::of(&Benchmark::get(id), InputClass::Small),
                    SimTime::from_us(250 * wave),
                )
                .with_priority(1 + (d % 3) as u32)
                .with_seed(cell_seed(seed, job as usize, 0)),
            );
            job += 1;
        }
    }
    run.run()
}

struct Row {
    devices: u32,
    jobs: u64,
    completed: u64,
    failed: u64,
    stranded: u64,
    makespan: SimTime,
    /// Median wall-clock, ns (kept out of the `FLEP_JSON` rows so those
    /// stay byte-identical across machines and thread counts).
    wall_ns: u64,
}

impl Row {
    fn per_device_wall_ns(&self) -> f64 {
        self.wall_ns as f64 / f64::from(self.devices)
    }
}

impl ToJson for Row {
    fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("devices", u64::from(self.devices).to_json()),
            ("jobs", self.jobs.to_json()),
            ("completed", self.completed.to_json()),
            ("failed", self.failed.to_json()),
            ("stranded", self.stranded.to_json()),
            ("makespan_ns", self.makespan.as_ns().to_json()),
        ])
    }
}

fn main() {
    header(
        "cluster_scale — epoch-driver scale-out over per-device event streams",
        "near-linear cluster scale-out over per-device event streams (DESIGN.md §13)",
        "per-device wall-clock at the largest device count stays within ~1.3x of the smallest; simulated makespan per point is deterministic",
    );
    let exp = exp_config();
    let devices = env_knob("FLEP_SCALE_DEVICES", "8,64,256,1024", |s| {
        parse_list(s, |d| parse_uint(d, 1u32))
    });
    let jobs_per_device = env_knob("FLEP_SCALE_JOBS", "4", |s| parse_uint(s, 1u64));

    let mut rows: Vec<Row> = Vec::new();
    for &d in &devices {
        // The simulated result must be bit-identical on every run.
        let mut makespan = None;
        let (reference, wall_ns) = timed(exp.repeats, || {
            let result = run_point(d, jobs_per_device, exp.seed);
            let first = *makespan.get_or_insert(result.end_time);
            assert_eq!(
                result.end_time, first,
                "devices {d}: nondeterministic makespan"
            );
            result
        });
        assert!(
            reference.reconciles(),
            "devices {d}: lost or double-ran a job"
        );
        rows.push(Row {
            devices: d,
            jobs: jobs_per_device * u64::from(d),
            completed: reference.completed,
            failed: reference.failed,
            stranded: reference.stranded,
            makespan: reference.end_time,
            wall_ns,
        });
    }

    emit_json("cluster_scale", &rows);

    println!(
        "{:>7} {:>6} {:>9} {:>12} {:>10} {:>14} {:>6}",
        "devices", "jobs", "completed", "makespan", "wall_ms", "per_dev_wall", "ratio"
    );
    let base = rows.first().map(Row::per_device_wall_ns).unwrap_or(1.0);
    for r in &rows {
        println!(
            "{:>7} {:>6} {:>9} {:>12} {:>10.1} {:>12.0}us {:>6.2}",
            r.devices,
            r.jobs,
            r.completed,
            r.makespan.to_string(),
            r.wall_ns as f64 / 1e6,
            r.per_device_wall_ns() / 1e3,
            r.per_device_wall_ns() / base,
        );
    }

    // Perf-gate artifact. `makespan_*` rows are deterministic simulated
    // time (any drift is a correctness bug, not noise); the permille
    // ratio row is the scale-out headline (per-device wall at the
    // largest point over the smallest); `wall_*` rows are wall-clock
    // context with no baseline entry, so the gate only notes them.
    let mut artifact: Vec<ArtifactRow> = rows
        .iter()
        .map(|r| {
            ArtifactRow::exact(
                format!("cluster_scale/makespan_d{}", r.devices),
                r.makespan.as_ns(),
            )
            .with("completed", r.completed)
        })
        .collect();
    artifact.extend(
        rows.iter()
            .map(|r| ArtifactRow::exact(format!("cluster_scale/wall_d{}", r.devices), r.wall_ns)),
    );
    if let (Some(first), Some(last)) = (rows.first(), rows.last()) {
        let ratio_permille =
            (last.per_device_wall_ns() / first.per_device_wall_ns() * 1000.0).round() as u64;
        artifact.push(ArtifactRow::exact(
            "cluster_scale/per_device_ratio_permille",
            ratio_permille,
        ));
    }
    write_artifact("flep cluster scale-out", exp.repeats, &artifact, None);
}
