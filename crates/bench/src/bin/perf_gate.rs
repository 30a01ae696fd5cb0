//! The perf-regression gate: compares freshly produced perf artifacts
//! against their checked-in baselines and exits nonzero when any baseline
//! row's `median_ns` regressed more than the tolerance, or is missing
//! from the current artifact.
//!
//! Usage: `perf_gate <current.json> <baseline.json> [<current2> <baseline2> ...]`
//!
//! Every pair is compared and every failing row is printed before the
//! process exits — one bad artifact never hides another. A missing
//! baseline file skips that pair with a warning (first run on a new
//! benchmark suite); a missing or unparsable *current* artifact is an
//! error — the producing stage was supposed to have just written it. A
//! current row with no baseline entry (a new benchmark, or the
//! `cluster_scale/wall_*` context rows) is only noted.
//!
//! Knob: `FLEP_PERF_TOLERANCE` — allowed regression in percent
//! (default 15). The applied value is printed in the header so a CI log
//! is self-explanatory.

use flep_bench::gate::{compare, parse_artifact, ArtifactRow};
use flep_bench::{env_knob, parse_finite};
use std::process::ExitCode;

fn load(path: &str, what: &str) -> Result<Vec<ArtifactRow>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{what} {path}: {e}"))?;
    parse_artifact(&text).map_err(|e| format!("{what} {path}: {e}"))
}

/// Compares one `(current, baseline)` pair, printing every row. Returns
/// `Ok(failed_row_count)` or an error string for a broken artifact.
fn gate_pair(current_path: &str, baseline_path: &str, tol: f64) -> Result<usize, String> {
    if !std::path::Path::new(baseline_path).exists() {
        eprintln!(
            "perf_gate: no baseline at {baseline_path}; skipping (record one to arm the gate)"
        );
        return Ok(0);
    }
    let current = load(current_path, "current artifact")?;
    let baseline = load(baseline_path, "baseline")?;

    let rows = compare(&current, &baseline, tol);
    println!("perf_gate: {current_path} vs {baseline_path}");
    println!(
        "{:<40} {:>14} {:>14} {:>8}",
        "benchmark", "baseline_ns", "current_ns", "ratio"
    );
    for r in &rows {
        let (current, verdict) = match r.current_ns {
            None => ("-".to_string(), format!("{:>7} MISSING", "-")),
            Some(ns) => {
                let flag = if r.failed { " REGRESSED" } else { "" };
                (ns.to_string(), format!("{:>7.3}{flag}", r.ratio))
            }
        };
        println!(
            "{:<40} {:>14} {:>14} {verdict}",
            r.name, r.baseline_ns, current
        );
    }
    let unmatched = current
        .iter()
        .filter(|c| baseline.iter().all(|b| b.name != c.name))
        .count();
    if unmatched > 0 {
        eprintln!("perf_gate: {unmatched} benchmark(s) have no baseline entry (not gated)");
    }
    let missing = rows.iter().filter(|r| r.current_ns.is_none()).count();
    let failed = rows.iter().filter(|r| r.failed).count();
    if missing > 0 {
        eprintln!("perf_gate: {missing} baseline row(s) missing from {current_path}");
    }
    if failed > missing {
        eprintln!(
            "perf_gate: {} benchmark(s) regressed more than {tol}% vs {baseline_path}",
            failed - missing
        );
    }
    if failed == 0 {
        println!("perf_gate: ok ({} compared)", rows.len());
    }
    Ok(failed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || !args.len().is_multiple_of(2) {
        eprintln!("usage: perf_gate <current.json> <baseline.json> [<current2> <baseline2> ...]");
        return ExitCode::FAILURE;
    }

    let tol = env_knob("FLEP_PERF_TOLERANCE", "15", parse_finite);
    println!(
        "perf_gate: tolerance {tol}% (FLEP_PERF_TOLERANCE, default 15); {} artifact pair(s)",
        args.len() / 2
    );

    // Walk every pair before deciding the exit code so a failure in the
    // first artifact cannot mask one in the last.
    let mut total_failed = 0usize;
    let mut broken = 0usize;
    for pair in args.chunks_exact(2) {
        match gate_pair(&pair[0], &pair[1], tol) {
            Ok(n) => total_failed += n,
            Err(e) => {
                eprintln!("perf_gate: {e}");
                broken += 1;
            }
        }
    }

    if total_failed > 0 || broken > 0 {
        eprintln!(
            "perf_gate: FAIL — {total_failed} failed row(s), {broken} unreadable artifact(s) across {} pair(s)",
            args.len() / 2
        );
        ExitCode::FAILURE
    } else {
        println!("perf_gate: all pairs ok");
        ExitCode::SUCCESS
    }
}
