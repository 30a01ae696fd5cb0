//! A pinned golden of a faulted cluster run's full result.
//!
//! The run is the `fleet_chaos` benchmark shape shrunk to a 2x2x2
//! topology: correlated zone outages and rack power-cycles, health
//! scoring with the circuit breaker, anti-affinity and spread placement,
//! and enough chaos that jobs migrate. The golden is the `{:?}` rendering
//! of the whole `ClusterResult`: per-job records in registration order
//! (merged across incarnations), errors and recoveries per device then
//! the cluster's own, the device-event log, the counters and the
//! placement log. Any change in when or where a record is folded, or in
//! which order the logs are assembled, shows up here.

use flep_gpu_sim::{CorrelatedFaultConfig, FailureTopology, GpuConfig};
use flep_runtime::{
    ClusterConfig, ClusterResult, ClusterRun, HealthConfig, JobSpec, KernelProfile,
    PlacementConfig, Policy,
};
use flep_sim_core::SimTime;
use flep_workloads::{Benchmark, BenchmarkId, InputClass};

/// Jobs in the run (the benchmark cell has 64 over 16 devices).
const JOBS: usize = 32;
/// Correlated outage rate, events per simulated second (the benchmark's
/// higher rate).
const RATE: f64 = 1600.0;
/// Root seed of the outage schedule and of every job's noise.
const SEED: u64 = 0x5EED_2026;

fn chaos_run() -> ClusterResult {
    let topo = FailureTopology::new(2, 2, 2);
    let mut cfg = ClusterConfig::new(topo.devices(), GpuConfig::k40(), Policy::hpf());
    cfg.topology = Some(topo);
    cfg.health = Some(HealthConfig::default());
    cfg.placement = PlacementConfig {
        anti_affinity: true,
        spread: true,
    };
    cfg.max_migrations = 16;
    cfg.correlated_faults = Some(
        CorrelatedFaultConfig::quiet(SEED)
            .with_zone_outages(RATE / 3.0, SimTime::from_ms(1))
            .with_rack_cycles(
                2.0 * RATE / 3.0,
                SimTime::from_us(500),
                SimTime::from_us(100),
            ),
    );
    let mut run = ClusterRun::new(cfg);
    for i in 0..JOBS {
        let id = BenchmarkId::ALL[i % BenchmarkId::ALL.len()];
        run = run.job(
            JobSpec::new(
                KernelProfile::of(&Benchmark::get(id), InputClass::Small),
                SimTime::from_us(100 * i as u64),
            )
            .with_priority(1 + (i as u32 % 3))
            .with_tenant(i as u32 % 4)
            .with_seed(SEED ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        );
    }
    run.run()
}

fn render() -> String {
    format!("{:?}\n", chaos_run())
}

/// The run exercises what the golden is meant to pin, and its result is
/// byte-identical to the pinned golden. Regenerate deliberately with
/// `cargo test -p flep-runtime --test golden_cluster -- --ignored regen`.
#[test]
fn faulted_cluster_result_matches_pinned_golden() {
    let r = chaos_run();
    assert!(r.reconciles(), "ledger must reconcile");
    assert!(r.migrations > 0, "no job migrated");
    assert!(r.summary.quarantines > 0, "no breaker opened");
    assert!(
        !r.placements.is_empty(),
        "health on but no placement logged"
    );
    assert_eq!(
        render(),
        include_str!("golden/cluster_chaos.txt"),
        "cluster result drifted from the pinned golden"
    );
}

/// Writes a fresh golden; kept `#[ignore]`d so it only runs on demand.
#[test]
#[ignore = "regenerates the pinned golden"]
fn regen_golden() {
    let dest = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/cluster_chaos.txt"
    );
    std::fs::create_dir_all(std::path::Path::new(dest).parent().expect("golden dir"))
        .expect("create golden dir");
    std::fs::write(dest, render()).expect("write golden");
}
