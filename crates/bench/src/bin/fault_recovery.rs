//! Measures watchdog recovery latency under injected preemption faults:
//! for each fault preset (stuck victim, wedged exit, lost doorbell, lost
//! notification, rejected launches), the high-priority kernel's simulated
//! arrival-to-completion latency vs. the fault-free baseline, plus the
//! escalation-ladder histogram that got it there.
//!
//! Knobs: `FLEP_FAULT_SEED` picks the fault-plan seed family (default
//! 42); `FLEP_BENCH_JSON` additionally records the per-preset latencies in
//! the perf-smoke artifact format (`BENCH_fault_recovery.json` in CI).

use flep_bench::gate::{write_artifact, ArtifactRow};
use flep_bench::{emit_json, env_knob, exp_config, header, parse_uint};
use flep_core::prelude::*;

fn main() {
    header(
        "Fault recovery — escalation-ladder latency under injected faults",
        "robustness (paper §3.2/§6 risk analysis)",
        "every preset recovers; forced drains beat kills; latency within a few drain deadlines of baseline",
    );
    let exp = exp_config();
    let seed = env_knob("FLEP_FAULT_SEED", "42", |s| parse_uint(s, 0u64));
    let rows = experiments::fault_recovery(&GpuConfig::k40(), exp, seed);
    emit_json("fault_recovery", &rows);
    println!(
        "{:>18} {:>12} {:>12} {:>12} {:>12} {:>6} {:>14}",
        "preset", "median", "min", "max", "baseline", "recov", "esc [f/d/k]"
    );
    for r in &rows {
        println!(
            "{:>18} {:>12} {:>12} {:>12} {:>12} {:>6} {:>14}",
            r.preset,
            r.median.to_string(),
            r.min.to_string(),
            r.max.to_string(),
            r.baseline.to_string(),
            r.recoveries,
            format!(
                "{}/{}/{}",
                r.escalations[0], r.escalations[1], r.escalations[2]
            ),
        );
    }

    // Simulated recovery latencies in the timing fields.
    let artifact: Vec<ArtifactRow> = rows
        .iter()
        .map(|r| {
            let name = format!("fault_recovery/{}", r.preset);
            ArtifactRow::new(name, r.median.as_ns(), r.min.as_ns(), r.max.as_ns())
        })
        .collect();
    write_artifact("flep fault recovery", exp.repeats, &artifact, None);
}
