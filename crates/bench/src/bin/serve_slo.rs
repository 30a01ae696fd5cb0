//! The serving-load sweep: goodput and p50/p99/p999 request latency
//! versus offered load for the reference four-tenant inference mix, under
//! HPF preemption with the watchdog escalation ladder armed.
//!
//! Each load point is one deterministic discrete-event run (one parallel
//! cell); results are byte-identical across `FLEP_THREADS`. The default
//! horizon is sized so the whole sweep simulates over a million requests
//! inside the runtime's default event budget.
//!
//! Knobs: `FLEP_SEED` (root seed, default 42); `FLEP_SERVE_HORIZON_MS`
//! (simulated milliseconds of arrivals per load point, default 2500);
//! `FLEP_SERVE_LOADS` (comma-separated load multipliers, default
//! `0.25,0.5,1,1.5,2,3`); `FLEP_REPEATS` (wall-clock samples for the
//! perf artifact); `FLEP_JSON` / `FLEP_BENCH_JSON` (artifacts).

use flep_bench::gate::{write_artifact, ArtifactRow};
use flep_bench::{
    emit_json, env_knob, exp_config, header, parse_finite, parse_list, parse_uint, timed,
};
use flep_metrics::tail_triple_ns;
use flep_serve::{reference_tenants, sweep_offered_load, ServeConfig};
use flep_sim_core::SimTime;

fn main() {
    header(
        "serve_slo — goodput and tail latency vs offered load",
        "serving frontend over the FLEP runtime (paper §2 motivation, §5 policies)",
        "goodput tracks offered load until saturation then plateaus; tails grow; high-priority tenants keep their SLOs under overload",
    );
    let exp = exp_config();
    let horizon = SimTime::from_ms(env_knob("FLEP_SERVE_HORIZON_MS", "2500", |s| {
        parse_uint(s, 0u64)
    }));
    let loads = env_knob("FLEP_SERVE_LOADS", "0.25,0.5,1,1.5,2,3", |s| {
        parse_list(s, parse_finite)
    });
    let base = ServeConfig::new(exp.seed, horizon, reference_tenants());
    let (points, median_wall) = timed(exp.repeats, || sweep_offered_load(&base, &loads));

    emit_json("serve_slo", &points);

    println!(
        "{:>6} {:>10} {:>10} {:>10} {:>12} {:>12} {:>12} {:>10} {:>9}",
        "load", "offered", "goodput", "dropped", "p50", "p99", "p999", "events", "outcome"
    );
    let mut total_offered = 0u64;
    for p in &points {
        let r = &p.report;
        let dropped = r.offered() - r.goodput();
        let (p50, p99, p999) = tail_triple_ns(r.latency);
        total_offered += r.offered();
        println!(
            "{:>6.2} {:>10} {:>10} {:>10} {:>12} {:>12} {:>12} {:>10} {:>9}",
            p.load,
            r.offered(),
            r.goodput(),
            dropped,
            SimTime::from_ns(p50).to_string(),
            SimTime::from_ns(p99).to_string(),
            SimTime::from_ns(p999).to_string(),
            r.events,
            r.outcome.name(),
        );
    }
    println!(
        "total: {} simulated requests across {} load points ({}ms horizon each), sweep wall median {:.2}s",
        total_offered,
        points.len(),
        horizon.as_ns() / 1_000_000,
        median_wall as f64 / 1e9,
    );

    // Simulated request latency stands in for the timing fields
    // (median = min = p50, max = p999).
    let rows: Vec<ArtifactRow> = points
        .iter()
        .map(|p| {
            let (p50, p99, p999) = tail_triple_ns(p.report.latency);
            ArtifactRow::new(format!("serve_slo/load_{:.2}", p.load), p50, p50, p999)
                .with("p99_ns", p99)
                .with("goodput", p.report.goodput())
                .with("offered", p.report.offered())
        })
        .collect();
    write_artifact("flep serve slo", exp.repeats, &rows, Some(median_wall));
}
