//! The one parser for the `FLEP_THREADS` knob.
//!
//! Two callers read it with different defaults — `flep-core`'s experiment
//! runner fans cells out across all cores, while the cluster epoch driver
//! steps device streams on one thread unless told otherwise — but both
//! accept the same values and warn with the same wording.

/// Parses a `FLEP_THREADS` value: the thread count for valid input (an
/// integer >= 1, surrounding whitespace ignored), or the exact warning
/// line the caller prints before falling back to `fallback`.
///
/// The message is deliberately stable — it names the knob, the rule, and
/// the caller's fallback — so tests can pin it.
///
/// # Example
///
/// ```
/// use flep_runtime::parse_threads;
/// assert_eq!(parse_threads("8", "1 thread"), Ok(8));
/// assert_eq!(
///     parse_threads("0", "1 thread"),
///     Err(r#"FLEP_THREADS: invalid value "0" (want an integer >= 1); using 1 thread"#.into())
/// );
/// ```
pub fn parse_threads(raw: &str, fallback: &str) -> Result<usize, String> {
    match raw.trim().parse::<usize>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(format!(
            "FLEP_THREADS: invalid value {raw:?} (want an integer >= 1); using {fallback}"
        )),
    }
}
