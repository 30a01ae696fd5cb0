//! The one reader for `FLEP_*` environment knobs.
//!
//! Every knob in the workspace — the experiment runner's `FLEP_THREADS`,
//! the property harness's `FLEP_CHECK_*`, and every `flep-bench` sweep
//! and harness knob — is read through [`env_knob`] or [`env_opt`] with a
//! pure parser. A parser returns the value, or the *rule* the value broke
//! (`"an integer >= 1"`); this module turns a broken rule into one warning
//! line on stderr, and the knob's fallback is used. Nothing falls back
//! silently, and every warning has the same shape:
//!
//! ```text
//! FLEP_REPEATS: invalid value "0" (want an integer >= 1); using 3
//! ```
//!
//! The warning names nothing machine-dependent, so tests pin it through
//! the pure [`parse_knob`].

use std::fmt::Display;
use std::str::FromStr;

/// Reads env knob `name` through its pure parser `parse`. Unset means
/// `default`; an invalid value prints one warning line on stderr (knob,
/// offending value, the parser's rule, and `using {default}`) and also
/// falls back to `default`.
///
/// # Panics
///
/// Panics if `default` itself does not parse.
pub fn env_knob<T>(name: &str, default: &str, parse: impl Fn(&str) -> Result<T, String>) -> T {
    env_opt(name, &format!("using {default}"), &parse)
        .unwrap_or_else(|| parse(default).expect("knob default parses"))
}

/// Reads env knob `name` through `parse`, for knobs whose fallback is not
/// a parsable value: `None` when unset, and also when invalid — after
/// printing the warning line, which ends in `fallback` (what happens
/// instead, e.g. `"using available parallelism"`).
pub fn env_opt<T>(
    name: &str,
    fallback: &str,
    parse: impl Fn(&str) -> Result<T, String>,
) -> Option<T> {
    let raw = std::env::var(name).ok()?;
    parse_knob(name, &raw, fallback, parse)
        .map_err(|warning| eprintln!("{warning}"))
        .ok()
}

/// The pure core of [`env_knob`] and [`env_opt`]: `raw` parsed, or the
/// exact warning line for an invalid value — knob, offending value, the
/// parser's rule, and the fallback clause.
///
/// # Errors
///
/// Returns the warning line when `parse` rejects `raw`.
///
/// # Example
///
/// ```
/// use flep_sim_core::knob::{parse_knob, parse_uint};
/// assert_eq!(parse_knob("FLEP_REPEATS", "2", "using 3", |s| parse_uint(s, 1u32)), Ok(2));
/// assert_eq!(
///     parse_knob("FLEP_REPEATS", "0", "using 3", |s| parse_uint(s, 1u32)),
///     Err(r#"FLEP_REPEATS: invalid value "0" (want an integer >= 1); using 3"#.into())
/// );
/// ```
pub fn parse_knob<T>(
    name: &str,
    raw: &str,
    fallback: &str,
    parse: impl Fn(&str) -> Result<T, String>,
) -> Result<T, String> {
    parse(raw).map_err(|rule| format!("{name}: invalid value {raw:?} (want {rule}); {fallback}"))
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

#[cfg(test)]
mod tests {
    use super::*;

    fn uint_knob(name: &str, raw: &str, default: &str, min: u64) -> Result<u64, String> {
        parse_knob(name, raw, &format!("using {default}"), |s| {
            parse_uint(s, min)
        })
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
            parse_knob("FLEP_REPEATS", "5000000000", "using 3", |s| parse_uint(
                s, 1u32
            )),
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

    /// `FLEP_BENCH_SAMPLES=0` would index an empty timing vector in the
    /// micro-bench harness, so it is rejected like garbage. Zero warmup
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
            parse_knob("FLEP_CHAOS_RATES", raw, "using 0,400,1600", |s| {
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
            parse_knob("FLEP_CLUSTER_DEVICES", raw, "using 1,2,4,8", |s| {
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
        let tol = |raw: &str| parse_knob("FLEP_PERF_TOLERANCE", raw, "using 15", parse_finite);
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

    /// An unset knob reads as its default (or `None`); the variable
    /// names here are never set by the suite.
    #[test]
    fn unset_knobs_use_their_fallback() {
        assert_eq!(
            env_knob("FLEP_KNOB_TEST_UNSET", "7", |s| parse_uint(s, 1u32)),
            7
        );
        assert_eq!(
            env_opt("FLEP_KNOB_TEST_UNSET", "using nothing", parse_finite),
            None
        );
    }
}
