//! Shared helpers for the `flep-bench` experiment binaries: consistent
//! table printing, machine-readable JSON emission, the one env-knob
//! reader, and the wall-clock repeat loop.
//!
//! Each binary under `src/bin/` regenerates one table or figure of the
//! paper. Set `FLEP_SEED` / `FLEP_REPEATS` to override the defaults,
//! `FLEP_THREADS` to control the experiment runner's worker-thread count,
//! and `FLEP_JSON` to also emit the structured rows as JSON (see
//! [`emit_json`]). Every knob is read through
//! [`flep_sim_core::knob::env_knob`]: an invalid value warns on stderr and
//! the default is used.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gate;

use flep_core::prelude::ExpConfig;
use flep_sim_core::json::ToJson;
use flep_sim_core::knob::{env_knob, parse_list, parse_uint};

/// Reads the experiment configuration from `FLEP_SEED` / `FLEP_REPEATS`
/// (defaults: 42 / 3). `FLEP_REPEATS=0` is invalid — every figure needs
/// at least one repeat.
///
/// The runner's `FLEP_THREADS` is validated eagerly here too (by asking
/// the runner for its configured count), so a typo like `FLEP_THREADS=all`
/// warns once up front rather than mid-experiment.
#[must_use]
pub fn exp_config() -> ExpConfig {
    let seed = env_knob("FLEP_SEED", "42", |s| parse_uint(s, 0u64));
    let repeats = env_knob("FLEP_REPEATS", "3", |s| parse_uint(s, 1u32));
    let _ = flep_sim_core::runner::configured_threads();
    ExpConfig { seed, repeats }
}

/// Runs `f` once to warm up, then `repeats` timed times, and returns the
/// last result with the median wall-clock nanoseconds of the timed runs.
/// Results are deterministic, so repeats only sample wall-clock.
///
/// # Panics
///
/// Panics when `repeats` is 0 ([`exp_config`] never yields that).
pub fn timed<R>(repeats: u32, mut f: impl FnMut() -> R) -> (R, u64) {
    let mut result = f();
    let mut wall_ns = Vec::new();
    for _ in 0..repeats {
        let t0 = std::time::Instant::now();
        result = f();
        wall_ns.push(t0.elapsed().as_nanos() as u64);
    }
    wall_ns.sort_unstable();
    (result, flep_metrics::percentile_ns(&wall_ns, 50, 100))
}

/// Default correlated-outage rates for the chaos sweep (events per
/// simulated second, fleet-wide).
pub const CHAOS_RATES_DEFAULT: &str = "0,400,1600";

/// Default failure topologies for the chaos sweep (`ZxRxD` form:
/// zones × racks-per-zone × devices-per-rack).
pub const CHAOS_TOPOS_DEFAULT: &str = "1x1x8,2x2x2,4x2x1";

/// Parses the `FLEP_CHAOS_TOPOS` knob: a comma-separated list of `ZxRxD`
/// failure topologies, every level an integer `>= 1`.
///
/// # Errors
///
/// Returns the rule when any topology is invalid.
pub fn parse_chaos_topos(raw: &str) -> Result<Vec<flep_gpu_sim::FailureTopology>, String> {
    parse_list(raw, |spec| {
        let levels: Result<Vec<u32>, _> = spec.split('x').map(|l| parse_uint(l, 1u32)).collect();
        match levels.as_deref() {
            Ok(&[zones, racks, devices]) => {
                Ok(flep_gpu_sim::FailureTopology::new(zones, racks, devices))
            }
            _ => Err("a ZxRxD topology, every level >= 1".into()),
        }
    })
}

/// Emits an experiment's structured rows as JSON when `FLEP_JSON` is set.
///
/// `FLEP_JSON=-` prints the document to stdout; any other value is treated
/// as a directory and the document is written to `<dir>/<name>.json`
/// (creating the directory if needed). Unset means no JSON output, so the
/// default text tables stay untouched.
///
/// The document wraps the rows with the experiment name so files are
/// self-describing: `{"experiment":"fig17_overhead","rows":...}`.
pub fn emit_json(name: &str, rows: &dyn ToJson) {
    let Ok(dest) = std::env::var("FLEP_JSON") else {
        return;
    };
    let doc = flep_sim_core::json::JsonValue::object([
        ("experiment", name.to_json()),
        ("rows", rows.to_json()),
    ]);
    let rendered = doc.render();
    if dest == "-" {
        println!("{rendered}");
    } else {
        let dir = std::path::Path::new(&dest);
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("FLEP_JSON: cannot create {dest}: {e}");
            return;
        }
        let path = dir.join(format!("{name}.json"));
        match std::fs::write(&path, rendered + "\n") {
            Ok(()) => eprintln!("wrote {}", path.display()),
            Err(e) => eprintln!("FLEP_JSON: cannot write {}: {e}", path.display()),
        }
    }
}

/// Prints a header block naming the experiment and the paper reference.
pub fn header(name: &str, paper_ref: &str, expectation: &str) {
    println!("==============================================================");
    println!("{name}");
    println!("paper: {paper_ref}");
    println!("expected shape: {expectation}");
    println!("==============================================================");
}

/// Formats a mean ± std pair.
#[must_use]
pub fn mean_std(mean: f64, std: f64) -> String {
    format!("{mean:.2} ± {std:.2}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use flep_sim_core::knob::{parse_finite, parse_knob};

    #[test]
    fn exp_config_defaults() {
        // Env vars unset in the test environment.
        let c = exp_config();
        assert!(c.repeats >= 1);
    }

    #[test]
    fn mean_std_format() {
        assert_eq!(mean_std(1.234, 0.5), "1.23 ± 0.50");
    }

    #[test]
    fn bad_chaos_topos_warning_text_is_stable() {
        use flep_gpu_sim::FailureTopology;
        assert_eq!(
            parse_chaos_topos("1x1x8, 2x2x2"),
            Ok(vec![
                FailureTopology::new(1, 1, 8),
                FailureTopology::new(2, 2, 2)
            ])
        );
        for bad in ["", "2x2", "2x2x2x2", "0x1x8", "axbxc", "2x2x2,"] {
            assert_eq!(
                parse_knob(
                    "FLEP_CHAOS_TOPOS",
                    bad,
                    &format!("using {CHAOS_TOPOS_DEFAULT}"),
                    parse_chaos_topos
                ),
                Err(format!(
                    "FLEP_CHAOS_TOPOS: invalid value {bad:?} (want a comma-separated list, \
                     each a ZxRxD topology, every level >= 1); using 1x1x8,2x2x2,4x2x1"
                ))
            );
        }
    }

    /// The baked-in defaults must themselves parse (the env reader falls
    /// back to them on a bad value).
    #[test]
    fn chaos_defaults_parse() {
        assert_eq!(
            parse_list(CHAOS_RATES_DEFAULT, parse_finite).unwrap().len(),
            3
        );
        let topos = parse_chaos_topos(CHAOS_TOPOS_DEFAULT).unwrap();
        assert_eq!(topos.len(), 3);
        for t in topos {
            assert_eq!(t.devices(), 8, "chaos cells compare equal fleet sizes");
        }
    }

    /// `timed` warms up once, runs `repeats` timed passes, and hands back
    /// the last pass's result.
    #[test]
    fn timed_warms_up_once_and_returns_the_last_result() {
        let mut calls = 0u32;
        let (last, _wall) = timed(3, || {
            calls += 1;
            calls
        });
        assert_eq!((calls, last), (4, 4));
    }
}
