//! Result assembly: metrics, per-cell spans, the printed table and the
//! final JSON line.

use std::fmt::Write as _;

use crate::shim::{Kind, Layers};

/// One named metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric; non-finite values (an empty ratio) read as 0.
    pub fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.to_string(),
            value: if value.is_finite() { value } else { 0.0 },
            unit,
        }
    }
}

/// One traced cell: its timing and per-kind child aggregates.
#[derive(Debug, Clone)]
pub struct Span {
    /// Cell index in the workload's list.
    pub cell: usize,
    /// Pass over the list.
    pub pass: usize,
    /// Start, host ns after the traced loop began.
    pub start_ns: u64,
    /// Host ns of the traced replay.
    pub traced_ns: u64,
    /// Host ns of the untraced public run of the same cell.
    pub untraced_ns: u64,
    /// Events dispatched.
    pub events: u64,
    /// Simulated end time, ns.
    pub end_sim_ns: u64,
    /// Per-kind aggregates.
    pub layers: Layers,
}

/// Everything one benchmark run prints.
#[derive(Debug, Default)]
pub struct Report {
    /// Cell runs attempted.
    pub attempted: u64,
    /// Cell runs that failed a check.
    pub failed: u64,
    /// The metrics, in print order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the JSON line.
    pub notes: Vec<String>,
    /// Traced-cell spans, written once at the end.
    pub spans: Vec<Span>,
    /// File name for the spans, under the benchmark's `spans/` directory.
    pub span_file: Option<String>,
}

/// Failure messages printed per run at most.
const MAX_FAILURE_NOTES: usize = 8;

impl Report {
    /// Counts one cell run and records why it failed, if it did.
    pub fn tally(&mut self, cell: usize, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = verdict {
            self.failed += 1;
            if self.failed as usize <= MAX_FAILURE_NOTES {
                self.notes.push(format!("FAILED cell {cell}: {why}"));
            }
        }
    }

    /// Writes the spans, prints the table, then the JSON result line.
    pub fn print(&self, header: &str) {
        if let Some(name) = &self.span_file {
            match write_spans(name, &self.spans) {
                Ok(path) => println!("spans: {} cells -> {path}", self.spans.len()),
                Err(e) => eprintln!("spans not written: {e}"),
            }
        }
        println!("{header}");
        for m in &self.metrics {
            println!("  {:<32} {:>16.6} {}", m.name, m.value, m.unit);
        }
        for n in &self.notes {
            println!("  {n}");
        }
        let mut json = String::new();
        let _ = write!(
            json,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                json,
                "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        json.push_str("}}");
        println!("{json}");
    }
}

fn write_spans(name: &str, spans: &[Span]) -> std::io::Result<String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("spans");
    std::fs::create_dir_all(&dir)?;
    let mut out = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        let _ = write!(
            out,
            "{{\"cell\": {}, \"pass\": {}, \"start_ns\": {}, \"traced_ns\": {}, \
             \"untraced_ns\": {}, \"events\": {}, \"end_sim_ns\": {}, \
             \"sim-core.self_ns\": {}, \"children\": {{",
            s.cell,
            s.pass,
            s.start_ns,
            s.traced_ns,
            s.untraced_ns,
            s.events,
            s.end_sim_ns,
            s.layers.self_ns()
        );
        for (j, kind) in Kind::ALL.iter().enumerate() {
            let k = s.layers.kinds[*kind as usize];
            let sep = if j == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}\"{}\": [{}, {}]", kind.name(), k.n, k.ns);
        }
        out.push_str("}}");
        out.push_str(if i + 1 == spans.len() { "\n" } else { ",\n" });
    }
    out.push_str("]\n");
    let path = dir.join(name);
    std::fs::write(&path, out)?;
    Ok(path.display().to_string())
}

/// Median of a sample (mean of the middle pair for even sizes); 0 when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Arithmetic mean of a sample; 0 when empty.
pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len().max(1) as f64
}

/// Nearest-rank percentile `pct` (0–100) of a sample; 0 when empty.
pub fn nearest_rank(xs: &[f64], pct: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((pct / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}
