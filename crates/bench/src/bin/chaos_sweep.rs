//! The chaos sweep: correlated-outage rate × failure topology, each cell
//! one deterministic multi-device co-run with the full health-aware
//! control plane engaged — zone outages and rack power-cycles from the
//! dedicated correlated-fault stream, per-device health scoring with the
//! circuit breaker, and tenant anti-affinity / spread placement. Reports
//! the completion ledger (completed / failed / stranded), migrations,
//! correlated events fired, breaker activity (quarantines / probes /
//! readmissions), and simulated makespan per cell.
//!
//! Every cell is an independent `runner::run_cells` unit seeded by
//! `cell_seed`, so the table and JSON rows are byte-identical at any
//! `FLEP_THREADS`.
//!
//! Knobs: `FLEP_CHAOS_TOPOS` (comma-separated `ZxRxD` topologies, default
//! `1x1x8,2x2x2,4x2x1` — all eight-device fleets, sliced into different
//! blast radii); `FLEP_CHAOS_RATES` (comma-separated correlated events
//! per simulated second, default `0,400,1600`; a third are zone outages,
//! two thirds rack power-cycles); `FLEP_SEED`; `FLEP_REPEATS` (wall-clock
//! samples); `FLEP_JSON` / `FLEP_BENCH_JSON` (artifacts).

use flep_bench::gate::{write_artifact, ArtifactRow};
use flep_bench::{
    emit_json, exp_config, header, parse_chaos_topos, timed, CHAOS_RATES_DEFAULT,
    CHAOS_TOPOS_DEFAULT,
};
use flep_gpu_sim::{CorrelatedFaultConfig, FailureTopology, GpuConfig};
use flep_metrics::RecoverySummary;
use flep_runtime::{
    ClusterConfig, ClusterResult, ClusterRun, DeviceEventKind, HealthConfig, JobSpec,
    KernelProfile, PlacementConfig, Policy,
};
use flep_sim_core::json::{JsonValue, ToJson};
use flep_sim_core::knob::{env_knob, parse_finite, parse_list};
use flep_sim_core::runner::{cell_seed, run_cells};
use flep_sim_core::SimTime;
use flep_workloads::{Benchmark, BenchmarkId, InputClass};

/// The eight-job mix every cell runs: one of each benchmark class,
/// arrivals staggered 250µs apart, priorities cycling over three levels,
/// tenants cycling over four (so anti-affinity and spread have something
/// to separate).
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

/// One sweep cell: the fleet shaped by `topo`, correlated outages at
/// `rate` events/s (one third zone outages, two thirds rack cycles),
/// breaker and placement constraints on.
fn run_cell(topo: FailureTopology, rate: f64, seed: u64) -> ClusterResult {
    let mut cfg = ClusterConfig::new(topo.devices(), GpuConfig::k40(), Policy::hpf());
    cfg.topology = Some(topo);
    cfg.health = Some(HealthConfig::default());
    cfg.placement = PlacementConfig {
        anti_affinity: true,
        spread: true,
    };
    if rate > 0.0 {
        cfg.correlated_faults = Some(
            CorrelatedFaultConfig::quiet(seed)
                .with_zone_outages(rate / 3.0, SimTime::from_ms(1))
                .with_rack_cycles(
                    2.0 * rate / 3.0,
                    SimTime::from_us(500),
                    SimTime::from_us(100),
                ),
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
            .with_tenant(i as u32 % 4)
            .with_seed(seed ^ i as u64),
        );
    }
    run.run()
}

struct Row {
    topo: FailureTopology,
    rate: f64,
    completed: u64,
    failed: u64,
    stranded: u64,
    correlated: usize,
    summary: RecoverySummary,
    makespan: SimTime,
}

impl ToJson for Row {
    fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("topology", self.topo.to_string().to_json()),
            ("chaos_rate_per_s", self.rate.to_json()),
            ("completed", self.completed.to_json()),
            ("failed", self.failed.to_json()),
            ("stranded", self.stranded.to_json()),
            ("correlated_faults", (self.correlated as u64).to_json()),
            ("recovery_summary", self.summary.to_json()),
            ("makespan_ns", self.makespan.as_ns().to_json()),
        ])
    }
}

fn sweep(seed: u64, topos: &[FailureTopology], rates: &[f64]) -> Vec<Row> {
    let cells: Vec<(FailureTopology, f64)> = topos
        .iter()
        .flat_map(|&t| rates.iter().map(move |&r| (t, r)))
        .collect();
    run_cells(cells.len(), |i| {
        let (t, r) = cells[i];
        let result = run_cell(t, r, cell_seed(seed, i, 0));
        assert!(
            result.reconciles(),
            "cell {i} (topo {t}, rate {r}) lost or double-ran a job"
        );
        Row {
            topo: t,
            rate: r,
            completed: result.completed,
            failed: result.failed,
            stranded: result.stranded,
            correlated: result
                .device_events
                .iter()
                .filter(|e| matches!(e.kind, DeviceEventKind::CorrelatedFault(_)))
                .count(),
            summary: result.summary,
            makespan: result.end_time,
        }
    })
}

fn main() {
    header(
        "chaos_sweep — correlated outages under the health-aware control plane",
        "failure domains + circuit breakers over the FLEP runtime (robustness; paper §3.2/§6 risk analysis)",
        "chaos-off rows complete everything with no breaker activity; under chaos every job is still accounted exactly once, finer-grained topologies shrink the blast radius, and flapping domains trip the breaker",
    );
    let exp = exp_config();
    let topos = env_knob("FLEP_CHAOS_TOPOS", CHAOS_TOPOS_DEFAULT, parse_chaos_topos);
    let rates = env_knob("FLEP_CHAOS_RATES", CHAOS_RATES_DEFAULT, |s| {
        parse_list(s, parse_finite)
    });
    let (rows, median_wall) = timed(exp.repeats, || sweep(exp.seed, &topos, &rates));

    emit_json("chaos_sweep", &rows);

    println!(
        "{:>8} {:>8} {:>9} {:>6} {:>8} {:>10} {:>10} {:>11} {:>6} {:>12}",
        "topology",
        "chaos/s",
        "completed",
        "failed",
        "stranded",
        "correlated",
        "migrations",
        "quarantines",
        "probes",
        "makespan"
    );
    for r in &rows {
        println!(
            "{:>8} {:>8.1} {:>9} {:>6} {:>8} {:>10} {:>10} {:>11} {:>6} {:>12}",
            r.topo.to_string(),
            r.rate,
            r.completed,
            r.failed,
            r.stranded,
            r.correlated,
            r.summary.migrations,
            r.summary.quarantines,
            r.summary.probes,
            r.makespan.to_string(),
        );
    }
    println!(
        "total: {} cells ({} topologies x {} chaos rates, {} jobs each), sweep wall median {:.2}s",
        rows.len(),
        topos.len(),
        rates.len(),
        MIX.len(),
        median_wall as f64 / 1e9,
    );

    // The deterministic simulated makespan in the timing fields.
    let artifact: Vec<ArtifactRow> = rows
        .iter()
        .map(|r| {
            ArtifactRow::exact(
                format!("chaos/t{}_r{:.1}", r.topo, r.rate),
                r.makespan.as_ns(),
            )
            .with("migrations", r.summary.migrations)
            .with("quarantines", r.summary.quarantines)
            .with("completed", r.completed)
        })
        .collect();
    write_artifact("flep chaos", exp.repeats, &artifact, Some(median_wall));
}
