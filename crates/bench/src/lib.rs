//! Shared helpers for the `flep-bench` experiment binaries: consistent
//! table printing, machine-readable JSON emission, the one env-knob
//! reader, and the wall-clock repeat loop.
//!
//! Each binary under `src/bin/` regenerates one table or figure of the
//! paper. Set `FLEP_SEED` / `FLEP_REPEATS` to override the defaults,
//! `FLEP_THREADS` to control the experiment runner's worker-thread count,
//! and `FLEP_JSON` to also emit the structured rows as JSON (see
//! [`emit_json`]). Every knob is read through [`env_knob`]: an invalid
//! value warns on stderr and the default is used.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gate;

use flep_core::prelude::ExpConfig;
use flep_sim_core::json::ToJson;
use std::fmt::Display;
use std::str::FromStr;

/// Reads env knob `name` through its pure parser `parse`. Unset means
/// `default`; an invalid value prints one warning line on stderr (knob,
/// offending value, the parser's rule, and the default) and also falls
/// back to `default`. Nothing falls back silently.
///
/// # Panics
///
/// Panics if `default` itself does not parse.
pub fn env_knob<T>(name: &str, default: &str, parse: impl Fn(&str) -> Result<T, String>) -> T {
    if let Ok(raw) = std::env::var(name) {
        match parse_knob(name, &raw, default, &parse) {
            Ok(v) => return v,
            Err(warning) => eprintln!("{warning}"),
        }
    }
    parse(default).expect("knob default parses")
}

/// The pure core of [`env_knob`]: `raw` parsed, or the exact (stable)
/// warning line for an invalid value — knob, offending value, the
/// parser's rule, and the default used instead.
fn parse_knob<T>(
    name: &str,
    raw: &str,
    default: &str,
    parse: impl Fn(&str) -> Result<T, String>,
) -> Result<T, String> {
    parse(raw)
        .map_err(|rule| format!("{name}: invalid value {raw:?} (want {rule}); using {default}"))
}

/// Parses an unsigned integer no smaller than `min`, or returns the rule
/// a warning names.
///
/// # Errors
///
/// Returns the rule when `raw` is not such an integer.
pub fn parse_uint<T>(raw: &str, min: T) -> Result<T, String>
where
    T: FromStr + PartialOrd + Display + From<u8>,
{
    match raw.trim().parse::<T>() {
        Ok(v) if v >= min => Ok(v),
        _ if min > T::from(0) => Err(format!("an integer >= {min}")),
        _ => Err("an unsigned integer".into()),
    }
}

/// Parses a finite number `>= 0`, or returns the rule a warning names.
///
/// # Errors
///
/// Returns the rule when `raw` is not such a number.
pub fn parse_finite(raw: &str) -> Result<f64, String> {
    match raw.trim().parse::<f64>() {
        Ok(v) if v.is_finite() && v >= 0.0 => Ok(v),
        _ => Err("a finite number >= 0".into()),
    }
}

/// Parses a comma-separated list whose every entry passes `entry` (for
/// example [`parse_finite`], or [`parse_uint`] with `min` 1). One bad
/// entry rejects the whole list, with the entry's rule.
///
/// # Errors
///
/// Returns the rule when any entry is invalid (an empty entry included).
pub fn parse_list<T>(
    raw: &str,
    entry: impl Fn(&str) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    raw.split(',')
        .map(|s| entry(s.trim()))
        .collect::<Result<_, _>>()
        .map_err(|rule| format!("a comma-separated list, each {rule}"))
}

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
    let _ = flep_core::runner::configured_threads();
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

/// Prints a simple aligned two-column table.
pub fn table2(title_a: &str, title_b: &str, rows: &[(String, String)]) {
    let w = rows
        .iter()
        .map(|(a, _)| a.len())
        .chain([title_a.len()])
        .max()
        .unwrap_or(8);
    println!("{title_a:<w$}  {title_b}");
    for (a, b) in rows {
        println!("{a:<w$}  {b}");
    }
}

/// Formats a mean ± std pair.
#[must_use]
pub fn mean_std(mean: f64, std: f64) -> String {
    format!("{mean:.2} ± {std:.2}")
}

#[cfg(test)]
mod tests {
    use super::*;

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

    fn uint_knob(name: &str, raw: &str, default: &str, min: u64) -> Result<u64, String> {
        parse_knob(name, raw, default, |s| parse_uint(s, min))
    }

    /// The warning lines every knob prints for a bad value are stable,
    /// exact strings: they name the knob, the offending value, the rule,
    /// and the default — nothing machine-dependent.
    #[test]
    fn bad_uint_warning_text_is_stable() {
        assert_eq!(uint_knob("FLEP_SEED", "3", "42", 0), Ok(3));
        assert_eq!(uint_knob("FLEP_SEED", " 0 ", "42", 0), Ok(0));
        assert_eq!(
            uint_knob("FLEP_SEED", "banana", "42", 0),
            Err(r#"FLEP_SEED: invalid value "banana" (want an unsigned integer); using 42"#.into())
        );
        assert_eq!(
            uint_knob("FLEP_SEED", "-1", "42", 0),
            Err(r#"FLEP_SEED: invalid value "-1" (want an unsigned integer); using 42"#.into())
        );
        assert_eq!(
            uint_knob("FLEP_REPEATS", "2.5", "3", 1),
            Err(r#"FLEP_REPEATS: invalid value "2.5" (want an integer >= 1); using 3"#.into())
        );
        assert_eq!(
            parse_knob("FLEP_REPEATS", "5000000000", "3", |s| parse_uint(s, 1u32)),
            Err(
                r#"FLEP_REPEATS: invalid value "5000000000" (want an integer >= 1); using 3"#
                    .into()
            )
        );
    }

    #[test]
    fn zero_repeats_and_zero_scale_jobs_are_rejected() {
        assert_eq!(uint_knob("FLEP_REPEATS", "2", "3", 1), Ok(2));
        assert_eq!(
            uint_knob("FLEP_REPEATS", "0", "3", 1),
            Err(r#"FLEP_REPEATS: invalid value "0" (want an integer >= 1); using 3"#.into())
        );
        assert_eq!(
            uint_knob("FLEP_SCALE_JOBS", "0", "4", 1),
            Err(r#"FLEP_SCALE_JOBS: invalid value "0" (want an integer >= 1); using 4"#.into())
        );
    }

    /// `FLEP_BENCH_SAMPLES=0` used to index an empty timing vector in the
    /// micro-bench harness; it is now rejected like garbage. Zero warmup
    /// iterations are fine.
    #[test]
    fn micro_bench_knobs_reject_zero_samples_and_garbage() {
        assert_eq!(uint_knob("FLEP_BENCH_SAMPLES", "5", "15", 1), Ok(5));
        assert_eq!(
            uint_knob("FLEP_BENCH_SAMPLES", "0", "15", 1),
            Err(r#"FLEP_BENCH_SAMPLES: invalid value "0" (want an integer >= 1); using 15"#.into())
        );
        assert_eq!(
            uint_knob("FLEP_BENCH_SAMPLES", "many", "15", 1),
            Err(
                r#"FLEP_BENCH_SAMPLES: invalid value "many" (want an integer >= 1); using 15"#
                    .into()
            )
        );
        assert_eq!(uint_knob("FLEP_BENCH_WARMUP", "0", "3", 0), Ok(0));
        assert_eq!(
            uint_knob("FLEP_BENCH_WARMUP", "1e3", "3", 0),
            Err(
                r#"FLEP_BENCH_WARMUP: invalid value "1e3" (want an unsigned integer); using 3"#
                    .into()
            )
        );
    }

    /// A list knob is rejected whole when any entry is bad — no entry is
    /// silently dropped.
    #[test]
    fn bad_list_warning_text_is_stable() {
        let rates = |raw: &str| {
            parse_knob("FLEP_CHAOS_RATES", raw, CHAOS_RATES_DEFAULT, |s| {
                parse_list(s, parse_finite)
            })
        };
        assert_eq!(rates("0, 150,600"), Ok(vec![0.0, 150.0, 600.0]));
        for bad in ["", "fast", "10,-5", "10,inf", "10,,20", "NaN"] {
            assert_eq!(
                rates(bad),
                Err(format!(
                    "FLEP_CHAOS_RATES: invalid value {bad:?} (want a comma-separated list, \
                     each a finite number >= 0); using 0,400,1600"
                ))
            );
        }
        let devices = |raw: &str| {
            parse_knob("FLEP_CLUSTER_DEVICES", raw, "1,2,4,8", |s| {
                parse_list(s, |e| parse_uint(e, 1u32))
            })
        };
        assert_eq!(devices("2, 8"), Ok(vec![2, 8]));
        for bad in ["2,0", "2,2.5", "2,x", "2,"] {
            assert_eq!(
                devices(bad),
                Err(format!(
                    "FLEP_CLUSTER_DEVICES: invalid value {bad:?} (want a comma-separated list, \
                     each an integer >= 1); using 1,2,4,8"
                ))
            );
        }
    }

    #[test]
    fn bad_tolerance_warning_text_is_stable() {
        let tol = |raw: &str| parse_knob("FLEP_PERF_TOLERANCE", raw, "15", parse_finite);
        assert_eq!(tol("7.5"), Ok(7.5));
        for bad in ["-1", "lots", "inf", "5,10"] {
            assert_eq!(
                tol(bad),
                Err(format!(
                    "FLEP_PERF_TOLERANCE: invalid value {bad:?} (want a finite number >= 0); using 15"
                ))
            );
        }
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
                    CHAOS_TOPOS_DEFAULT,
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

    /// The `FLEP_THREADS` warning (validated eagerly by `exp_config` via
    /// the runner) is stable too, with no available-parallelism number
    /// baked in.
    #[test]
    fn bad_threads_warning_text_is_stable() {
        use flep_core::runner::parse_threads;
        assert_eq!(parse_threads("8"), Ok(8));
        assert_eq!(
            parse_threads("all"),
            Err(
                r#"FLEP_THREADS: invalid value "all" (want an integer >= 1); using available parallelism"#
                    .into()
            )
        );
        assert_eq!(
            parse_threads("0"),
            Err(
                r#"FLEP_THREADS: invalid value "0" (want an integer >= 1); using available parallelism"#
                    .into()
            )
        );
    }
}
