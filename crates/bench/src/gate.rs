//! The perf-artifact format and the regression gate over it.
//!
//! Every `BENCH_*.json` artifact — the micro-bench recorder and the
//! `serve_slo`, `fault_recovery`, `cluster_failover`, `cluster_scale` and
//! `chaos_sweep` sweeps — is one document:
//! `{"suite":…,"samples":…,"results":[{"name":…,"median_ns":…,"min_ns":…,"max_ns":…,<extras>}],"sweep_wall_ns":…}`
//! with `sweep_wall_ns` optional. [`write_artifact`] is its only writer,
//! [`parse_artifact`] its only reader, and [`compare`] checks every
//! baseline row's `median_ns` against the current artifact.
//!
//! `flep-sim-core`'s JSON module is an emitter only, so the reader is
//! hand-written and scoped to exactly this shape: flat row objects with a
//! `name` string (no escapes) and unsigned-integer fields. Anything else
//! is reported as a parse error rather than guessed at.

use flep_sim_core::json::{JsonValue, ToJson};

/// One artifact row: a named median / min / max in nanoseconds (wall
/// clock, or simulated time for the sweeps), plus named counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArtifactRow {
    /// Benchmark name.
    pub name: String,
    /// Median, nanoseconds — the field the gate compares.
    pub median_ns: u64,
    /// Minimum, nanoseconds.
    pub min_ns: u64,
    /// Maximum, nanoseconds.
    pub max_ns: u64,
    /// Named counters, rendered after the timing fields in this order.
    pub extras: Vec<(String, u64)>,
}

impl ArtifactRow {
    /// A row with a spread (wall-clock samples, or latency percentiles).
    #[must_use]
    pub fn new(name: impl Into<String>, median_ns: u64, min_ns: u64, max_ns: u64) -> Self {
        ArtifactRow {
            name: name.into(),
            median_ns,
            min_ns,
            max_ns,
            extras: Vec::new(),
        }
    }

    /// A deterministic simulated quantity: min = median = max = `ns`.
    #[must_use]
    pub fn exact(name: impl Into<String>, ns: u64) -> Self {
        ArtifactRow::new(name, ns, ns, ns)
    }

    /// Appends the named counter `key`.
    #[must_use]
    pub fn with(mut self, key: &str, value: u64) -> Self {
        self.extras.push((key.to_string(), value));
        self
    }
}

impl ToJson for ArtifactRow {
    fn to_json(&self) -> JsonValue {
        let mut fields = vec![
            ("name".to_string(), self.name.to_json()),
            ("median_ns".to_string(), self.median_ns.to_json()),
            ("min_ns".to_string(), self.min_ns.to_json()),
            ("max_ns".to_string(), self.max_ns.to_json()),
        ];
        fields.extend(self.extras.iter().map(|(k, v)| (k.clone(), v.to_json())));
        JsonValue::Object(fields)
    }
}

/// The artifact document exactly as [`write_artifact`] writes it,
/// trailing newline included.
fn render_artifact(
    suite: &str,
    samples: u32,
    rows: &[ArtifactRow],
    sweep_wall_ns: Option<u64>,
) -> String {
    let mut fields = vec![
        ("suite", suite.to_json()),
        ("samples", samples.to_json()),
        ("results", JsonValue::array(rows)),
    ];
    fields.extend(sweep_wall_ns.map(|ns| ("sweep_wall_ns", ns.to_json())));
    JsonValue::object(fields).render() + "\n"
}

/// Writes the artifact to the path in `FLEP_BENCH_JSON`, if set, and
/// reports the outcome on stderr (a failed write is not fatal).
pub fn write_artifact(suite: &str, samples: u32, rows: &[ArtifactRow], sweep_wall_ns: Option<u64>) {
    let Ok(path) = std::env::var("FLEP_BENCH_JSON") else {
        return;
    };
    match std::fs::write(&path, render_artifact(suite, samples, rows, sweep_wall_ns)) {
        Ok(()) => eprintln!("{suite}: artifact written to {path}"),
        Err(e) => eprintln!("FLEP_BENCH_JSON: cannot write {path}: {e}"),
    }
}

/// Extracts the `results` rows from an artifact document.
///
/// # Errors
///
/// Returns a description when the document has no `results` array, or a
/// row is malformed or lacks `name` / `median_ns` / `min_ns` / `max_ns`.
pub fn parse_artifact(text: &str) -> Result<Vec<ArtifactRow>, String> {
    let (_, mut rest) = text
        .split_once("\"results\":[")
        .ok_or("no \"results\" array")?;
    let mut rows = Vec::new();
    if rest.starts_with(']') {
        return Ok(rows);
    }
    loop {
        let (row, tail) = parse_row(rest)?;
        rows.push(row);
        match tail.as_bytes().first() {
            Some(b',') => rest = &tail[1..],
            Some(b']') => return Ok(rows),
            _ => return Err("unterminated results array".into()),
        }
    }
}

/// Parses the flat row object at the start of `text`, returning it and
/// the text after its closing brace.
fn parse_row(text: &str) -> Result<(ArtifactRow, &str), String> {
    let mut rest = text.strip_prefix('{').ok_or("unterminated results array")?;
    let malformed = |at: &str| {
        format!(
            "malformed row at {:?}",
            at.chars().take(40).collect::<String>()
        )
    };
    let mut name = None;
    let mut fields: Vec<(String, u64)> = Vec::new();
    loop {
        let (key, tail) = rest
            .strip_prefix('"')
            .and_then(|s| s.split_once("\":"))
            .ok_or_else(|| malformed(rest))?;
        if key == "name" {
            let (value, tail) = tail
                .strip_prefix('"')
                .and_then(|s| s.split_once('"'))
                .ok_or_else(|| malformed(rest))?;
            name = Some(value.to_string());
            rest = tail;
        } else {
            let end = tail
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(tail.len());
            let value = tail[..end].parse().map_err(|_| malformed(rest))?;
            fields.push((key.to_string(), value));
            rest = &tail[end..];
        }
        match rest.as_bytes().first() {
            Some(b',') => rest = &rest[1..],
            Some(b'}') => break,
            _ => return Err(malformed(rest)),
        }
    }
    let name = name.ok_or("row without name")?;
    let mut take = |key: &str| match fields.iter().position(|(k, _)| k == key) {
        Some(i) => Ok(fields.remove(i).1),
        None => Err(format!("{name}: no {key} field")),
    };
    let (median_ns, min_ns, max_ns) = (take("median_ns")?, take("min_ns")?, take("max_ns")?);
    let row = ArtifactRow {
        name,
        median_ns,
        min_ns,
        max_ns,
        extras: fields,
    };
    Ok((row, &rest[1..]))
}

/// One baseline row checked against the current artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct GateRow {
    /// Benchmark name.
    pub name: String,
    /// Baseline median, nanoseconds.
    pub baseline_ns: u64,
    /// Current median, nanoseconds; `None` when the current artifact lost
    /// the row (a rename or a dropped benchmark).
    pub current_ns: Option<u64>,
    /// `current / baseline` (infinite for a zero baseline with nonzero
    /// current, NaN for a lost row).
    pub ratio: f64,
    /// Whether the row fails the gate: lost, or its median exceeds the
    /// tolerance.
    pub failed: bool,
}

/// Checks every baseline row against `current` at `tolerance_percent`.
///
/// A baseline row missing from `current` fails: a renamed or dropped row
/// must not silently stop being checked. Current rows without a baseline
/// are not compared (the caller warns about them). A zero baseline
/// median never regresses — there is nothing meaningful to be 15% worse
/// than.
#[must_use]
pub fn compare(
    current: &[ArtifactRow],
    baseline: &[ArtifactRow],
    tolerance_percent: f64,
) -> Vec<GateRow> {
    baseline
        .iter()
        .map(|b| {
            let current_ns = current
                .iter()
                .find(|c| c.name == b.name)
                .map(|c| c.median_ns);
            let (ratio, failed) = match current_ns {
                None => (f64::NAN, true),
                Some(c) if b.median_ns == 0 => (if c == 0 { 1.0 } else { f64::INFINITY }, false),
                Some(c) => {
                    let limit = b.median_ns as f64 * (1.0 + tolerance_percent / 100.0);
                    (c as f64 / b.median_ns as f64, c as f64 > limit)
                }
            };
            GateRow {
                name: b.name.clone(),
                baseline_ns: b.median_ns,
                current_ns,
                ratio,
                failed,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = r#"{"suite":"flep micro","samples":3,"results":[{"name":"a/b","median_ns":100,"min_ns":90,"max_ns":110},{"name":"c","median_ns":250,"min_ns":250,"max_ns":250,"goodput":7}],"sweep_wall_ns":5}"#;

    #[test]
    fn parses_artifact_entries() {
        let e = parse_artifact(DOC).unwrap();
        assert_eq!(
            e,
            vec![
                ArtifactRow::new("a/b", 100, 90, 110),
                ArtifactRow::exact("c", 250).with("goodput", 7),
            ]
        );
    }

    #[test]
    fn parse_rejects_shapeless_documents() {
        assert!(parse_artifact("{}").is_err());
        assert!(parse_artifact(r#"{"results":["#).is_err());
        assert!(parse_artifact(r#"{"results":[{"median_ns":1}]}"#).is_err());
        assert!(parse_artifact(r#"{"results":[{"name":"x"}]}"#).is_err());
        assert!(parse_artifact(r#"{"results":[{"name":"x","median_ns":1}]}"#).is_err());
        assert!(parse_artifact(
            r#"{"results":[{"name":"x","median_ns":-1,"min_ns":1,"max_ns":1}]}"#
        )
        .is_err());
        assert!(
            parse_artifact(r#"{"results":[{"name":"x","median_ns":1,"min_ns":1,"max_ns":1}"#)
                .is_err()
        );
    }

    #[test]
    fn empty_results_array_is_empty_not_an_error() {
        assert_eq!(parse_artifact(r#"{"results":[]}"#).unwrap(), vec![]);
    }

    /// Every row shape the writers produce survives `render_artifact` →
    /// `parse_artifact` unchanged, with and without `sweep_wall_ns`.
    #[test]
    fn every_row_shape_round_trips() {
        let rows = vec![
            ArtifactRow::new("micro/a", 1_200, 1_100, 9_000),
            ArtifactRow::exact("cluster_failover/d1_f0.0", 7_063_299)
                .with("migrations", 0)
                .with("completed", 8),
            ArtifactRow::new("serve_slo/load_0.25", 114_650, 114_650, 14_704_490)
                .with("p99_ns", 1_842_184)
                .with("goodput", 2_808)
                .with("offered", 2_808),
            ArtifactRow::exact("cluster_scale/per_device_ratio_permille", 0),
        ];
        for wall in [None, Some(81_322_129)] {
            let text = render_artifact("flep test", 3, &rows, wall);
            assert_eq!(parse_artifact(&text).unwrap(), rows);
            assert_eq!(text.contains("sweep_wall_ns"), wall.is_some());
        }
        let empty = render_artifact("flep test", 1, &[], None);
        assert_eq!(parse_artifact(&empty).unwrap(), vec![]);
    }

    /// The rendered bytes are pinned: the checked-in baselines and every
    /// consumer of `BENCH_*.json` depend on this exact layout.
    #[test]
    fn rendered_bytes_are_pinned() {
        let rows = [
            ArtifactRow::exact("cluster_failover/d1_f0.0", 7_063_299)
                .with("migrations", 0)
                .with("completed", 8),
            ArtifactRow::new("fault_recovery/stuck_flag", 2_684_315, 2_682_459, 2_686_967),
        ];
        assert_eq!(
            render_artifact("flep cluster failover", 3, &rows, Some(95_822_916)),
            "{\"suite\":\"flep cluster failover\",\"samples\":3,\"results\":[\
             {\"name\":\"cluster_failover/d1_f0.0\",\"median_ns\":7063299,\"min_ns\":7063299,\
             \"max_ns\":7063299,\"migrations\":0,\"completed\":8},\
             {\"name\":\"fault_recovery/stuck_flag\",\"median_ns\":2684315,\"min_ns\":2682459,\
             \"max_ns\":2686967}],\"sweep_wall_ns\":95822916}\n"
        );
        assert_eq!(
            render_artifact("flep-bench micro", 3, &[], None),
            "{\"suite\":\"flep-bench micro\",\"samples\":3,\"results\":[]}\n"
        );
    }

    #[test]
    fn compare_flags_only_over_tolerance() {
        let baseline = [
            ArtifactRow::exact("a", 100),
            ArtifactRow::exact("b", 100),
            ArtifactRow::exact("c", 100),
        ];
        let current = [
            ArtifactRow::exact("a", 114),
            ArtifactRow::exact("b", 116),
            ArtifactRow::exact("c", 90),
        ];
        let rows = compare(&current, &baseline, 15.0);
        assert_eq!(
            rows.iter().map(|r| r.failed).collect::<Vec<_>>(),
            vec![false, true, false]
        );
        assert!((rows[1].ratio - 1.16).abs() < 1e-9);
    }

    #[test]
    fn compare_fails_lost_rows_and_skips_new_and_zero_baselines() {
        let baseline = [ArtifactRow::exact("gone", 100), ArtifactRow::exact("z", 0)];
        let current = [ArtifactRow::exact("new", 500), ArtifactRow::exact("z", 400)];
        let rows = compare(&current, &baseline, 15.0);
        // "gone" lost its current row: a failure, never a silent skip.
        assert_eq!(rows[0].name, "gone");
        assert_eq!(rows[0].current_ns, None);
        assert!(rows[0].failed);
        // "new" has no baseline, so it is not a row; "z"'s zero baseline
        // cannot regress.
        assert_eq!(rows.len(), 2);
        assert!(!rows[1].failed);
        assert!(rows[1].ratio.is_infinite());
    }
}
