//! Seeded end-to-end serving tests: a pinned golden trace for a small
//! Poisson sweep (byte-identical at 1 and 8 worker threads), plus a
//! fault-injected variant checking the watchdog recovery taxonomy still
//! reconciles and goodput degrades monotonically with the fault rate.

use flep_gpu_sim::{FailureTopology, FaultConfig};
use flep_runtime::{HealthConfig, PlacementConfig};
use flep_serve::{
    reference_tenants, run_serve, sweep_offered_load, ArrivalProcess, ServeConfig, ServeWorld,
    TenantSpec,
};
use flep_sim_core::json::{JsonValue, ToJson};
use flep_sim_core::{runner, SimTime, Simulation, StepOutcome};
use flep_workloads::ModelId;

/// A small, Poisson-only two-tenant config: a tight-SLO recommendation
/// tenant over a low-priority generative one, 50ms of arrivals.
fn small_cfg(seed: u64) -> ServeConfig {
    ServeConfig::new(
        seed,
        SimTime::from_ms(50),
        vec![
            TenantSpec::new(
                "dlrm",
                ModelId::Dlrm,
                2,
                ArrivalProcess::Poisson { rate_per_s: 8000.0 },
            ),
            TenantSpec::new(
                "gpt2-gen",
                ModelId::Gpt2,
                0,
                ArrivalProcess::Poisson { rate_per_s: 300.0 },
            ),
        ],
    )
}

/// The document the golden pins: a two-point load sweep of the small
/// config, wrapped exactly like `flep_bench::emit_json` output.
fn sweep_doc() -> String {
    let points = sweep_offered_load(&small_cfg(3), &[0.5, 1.5]);
    JsonValue::object([
        ("experiment", "serve_small".to_json()),
        ("rows", points.to_json()),
    ])
    .render()
        + "\n"
}

/// The pinned golden trace (seed 3): any drift in arrivals, admission,
/// EDF order, batching, runtime scheduling, or the report rendering shows
/// up here. Regenerate deliberately with
/// `cargo test -p flep-serve --test golden_serve -- --ignored regen`.
#[test]
fn small_sweep_matches_pinned_golden() {
    let doc = runner::with_threads(1, sweep_doc);
    assert_eq!(
        doc,
        include_str!("golden/serve_small.json"),
        "serve trace drifted from the pinned golden"
    );
}

/// The same sweep is byte-identical with 8 worker threads: cells derive
/// their seeds from the root and merge in index order.
#[test]
fn small_sweep_is_thread_invariant() {
    let one = runner::with_threads(1, sweep_doc);
    let eight = runner::with_threads(8, sweep_doc);
    assert_eq!(one, eight, "serve sweep depends on the thread count");
    assert_eq!(one, include_str!("golden/serve_small.json"));
}

/// Writes a fresh golden; kept `#[ignore]`d so it only runs on demand.
#[test]
#[ignore = "regenerates the pinned golden"]
fn regen_golden() {
    let doc = runner::with_threads(1, sweep_doc);
    let dest = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/serve_small.json");
    std::fs::write(dest, doc).expect("write golden");
    let dest = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/serve_constrained.txt"
    );
    std::fs::write(dest, constrained_doc()).expect("write golden");
}

/// The reference tenants on four devices in two racks, with tenant
/// anti-affinity, rack spread and health scoring on, so every placement
/// runs the constrained same-tenant tally and lands in the placement log.
fn constrained_cfg() -> ServeConfig {
    let mut cfg = ServeConfig::new(11, SimTime::from_ms(30), reference_tenants());
    cfg.devices = 4;
    cfg.topology = Some(FailureTopology::new(1, 2, 2));
    cfg.health = Some(HealthConfig::default());
    cfg.placement = PlacementConfig {
        anti_affinity: true,
        spread: true,
    };
    cfg
}

/// The constrained run's report JSON, then its placement log, one
/// `time_ns job device` line per placement.
fn constrained_doc() -> String {
    let cfg = constrained_cfg();
    let mut doc = run_serve(&cfg).to_json().render() + "\n";
    let (world, initial) = ServeWorld::new(&cfg);
    let mut sim = Simulation::new(world);
    for (at, ev) in initial {
        sim.schedule_at(at, ev);
    }
    while sim.step() == StepOutcome::Dispatched {}
    for &(at, job, device) in sim.world().cluster().placements() {
        doc += &format!("{} {job} {device}\n", at.as_ns());
    }
    doc
}

/// The pinned constrained-placement golden: any drift in which device a
/// constrained placement picks, or in the report, shows up here.
/// Regenerate deliberately with
/// `cargo test -p flep-serve --test golden_serve -- --ignored regen`.
#[test]
fn constrained_placement_matches_pinned_golden() {
    let doc = constrained_doc();
    let placed = doc.lines().count() - 1;
    assert!(placed > 100, "only {placed} placements logged");
    assert_eq!(
        doc,
        include_str!("golden/serve_constrained.txt"),
        "constrained placement drifted from the pinned golden"
    );
}

/// Runs the small config — scaled up to near-saturation load, where
/// recovery latency actually costs deadlines — under a seeded fault plan
/// of the given strength. Returns (report goodput, faults fired).
fn faulty_goodput(fault_rate: f64) -> (u64, u64) {
    let mut cfg = small_cfg(3);
    for t in &mut cfg.tenants {
        t.arrivals = t.arrivals.scaled(6.0);
    }
    if fault_rate > 0.0 {
        cfg.faults = Some(
            FaultConfig::quiet(17)
                .with_launch_reject(fault_rate)
                .with_signal_drop(fault_rate)
                .with_stuck_flag(fault_rate)
                .with_stuck_exit(fault_rate / 2.0)
                .with_note_drop(fault_rate),
        );
    }
    let r = run_serve(&cfg);
    assert!(
        r.reconciles(),
        "ledger must reconcile at fault rate {fault_rate}: {r:?}"
    );
    // Taxonomy reconciliation: every kill the watchdog reports is also an
    // escalation-ladder kill, and fault injection leaves traces.
    assert!(
        r.recoveries[1] <= r.escalations[2],
        "more watchdog kills than ladder kills: {:?} vs {:?}",
        r.recoveries,
        r.escalations
    );
    if fault_rate > 0.0 {
        assert!(r.faults_fired > 0, "fault plan never fired");
        assert!(
            r.recoveries.iter().sum::<u64>() > 0,
            "faults fired but the watchdog never recovered anything"
        );
    } else {
        assert_eq!(r.faults_fired, 0);
    }
    (r.goodput(), r.faults_fired)
}

/// Goodput degrades monotonically as the injected fault rate grows, and
/// the recovery ledger stays balanced throughout.
#[test]
fn goodput_degrades_monotonically_with_fault_rate() {
    let rates = [0.0, 0.1, 0.3];
    let results: Vec<(u64, u64)> = rates.iter().map(|&p| faulty_goodput(p)).collect();
    for (i, w) in results.windows(2).enumerate() {
        assert!(
            w[0].0 >= w[1].0,
            "goodput rose with the fault rate: {} at {} -> {} at {}",
            w[0].0,
            rates[i],
            w[1].0,
            rates[i + 1]
        );
    }
    assert!(
        results[0].0 > results[2].0,
        "heavy faults did not dent goodput at all"
    );
}
