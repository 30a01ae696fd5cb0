//! The workload-independent part of the benchmark: repeated set-up, the
//! timed cell loop, the traced cell loop with its equivalence checks, and
//! the metrics both loops report.

use std::time::{Duration, Instant};

use flep_metrics::RecoverySummary;
use flep_runtime::DEFAULT_EVENT_BUDGET;
use flep_sim_core::SimTime;

use crate::report::{median, nearest_rank, Metric, Report, Span};
use crate::shim::{Kind, Layers};

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// Complete passes over the cell list before the timed loop may stop; the
/// second pass is what the byte-identity check compares against.
pub const MIN_PASSES: usize = 2;

/// Host time spent in the parts of set-up the trace reports separately.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Standalone calibration runs.
    pub standalone: Duration,
    /// Performance-model training.
    pub train: Duration,
}

/// Deterministic work and outcome counters read from one cell's result.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    /// Preemption drains by the rung that resolved them: flag, forced, kill.
    pub escalations: [u64; 3],
    /// Watchdog recoveries: forced drains, kills, rebuilt notifications
    /// and launch retries.
    pub recoveries: u64,
    /// Jobs migrated off a lost device.
    pub migrations: u64,
    /// Circuit-breaker quarantines.
    pub quarantines: u64,
    /// Breaker probe launches.
    pub probes: u64,
    /// Devices readmitted after a probe.
    pub readmissions: u64,
    /// Requests offered to the serving frontend.
    pub offered: u64,
    /// Requests past admission control.
    pub admitted: u64,
    /// Requests dropped at the door (past deadline or queue full).
    pub dropped: u64,
    /// Admitted requests that expired in the queue.
    pub expired: u64,
    /// Requests shed by a brownout tier.
    pub shed: u64,
    /// Batches submitted to the runtime.
    pub batches: u64,
    /// Requests carried by those batches.
    pub batched: u64,
}

impl Counters {
    /// Reads the watchdog and cluster-control counters of a recovery
    /// summary.
    pub fn from_summary(escalations: [u64; 3], s: &RecoverySummary) -> Counters {
        Counters {
            escalations,
            recoveries: s.forced_drains + s.kills + s.lost_notifications + s.launch_retries,
            migrations: s.migrations,
            quarantines: s.quarantines,
            probes: s.probes,
            readmissions: s.readmissions,
            ..Counters::default()
        }
    }

    fn add(&mut self, o: &Counters) {
        for (a, b) in self.escalations.iter_mut().zip(o.escalations) {
            *a += b;
        }
        self.recoveries += o.recoveries;
        self.migrations += o.migrations;
        self.quarantines += o.quarantines;
        self.probes += o.probes;
        self.readmissions += o.readmissions;
        self.offered += o.offered;
        self.admitted += o.admitted;
        self.dropped += o.dropped;
        self.expired += o.expired;
        self.shed += o.shed;
        self.batches += o.batches;
        self.batched += o.batched;
    }
}

/// The simulated end-to-end metrics of one workload (deterministic per
/// seed). Each workload documents how it defines them.
#[derive(Debug, Clone, Copy)]
pub struct Simulated {
    /// Average normalized turnaround time.
    pub antt: f64,
    /// System throughput per cell.
    pub stp: f64,
    /// Mean normalized turnaround of the highest-priority work.
    pub hp_ntt: f64,
    /// Work completed within its deadline over work offered.
    pub goodput_frac: f64,
    /// p99 latency of the highest-priority work, simulated ms.
    pub hp_p99_ms: f64,
    /// Work completed over work offered.
    pub jobs_done_frac: f64,
    /// Median simulated makespan per cell, ms.
    pub makespan_ms: f64,
}

/// What a traced replay hands back.
pub struct Replay<O> {
    /// Events the replay dispatched.
    pub events: u64,
    /// Simulated time the replay ended at.
    pub end: SimTime,
    /// Whether the replay ran out of event budget.
    pub exhausted: bool,
    /// The per-layer aggregates.
    pub layers: Layers,
    /// The rebuilt result, where the crate's public API allows it.
    pub out: Option<O>,
}

/// One benchmark workload: a seeded, fixed list of independent cells,
/// each run through a crate's public entry point.
pub trait Workload: Sized {
    /// One cell's description.
    type Cell;
    /// One cell's result.
    type Out;

    /// Builds everything the cells need: calibration runs, models,
    /// configs, and one untimed warm-up cell.
    fn setup(seed: u64, times: &mut SetupTimes) -> Self;
    /// The fixed cell list.
    fn cells(&self) -> &[Self::Cell];
    /// Runs one cell through the public entry point under `budget` events.
    fn run(&self, cell: &Self::Cell, budget: u64) -> Self::Out;
    /// Replays one cell with every `World::handle` call timed.
    fn replay(&self, cell: &Self::Cell) -> Replay<Self::Out>;
    /// The cell's correctness checks.
    fn check(&self, out: &Self::Out) -> Result<(), String>;
    /// A byte rendering of the result, for the re-run check.
    fn render(out: &Self::Out) -> String;
    /// Simulated end time.
    fn end_time(out: &Self::Out) -> SimTime;
    /// Events dispatched, where the result reports them.
    fn events(out: &Self::Out) -> Option<u64>;
    /// Events dispatched when the budget ran out, if it did.
    fn exhausted_at(out: &Self::Out) -> Option<u64>;
    /// The simulated end-to-end metrics over one pass's results.
    fn simulated(&self, outs: &[Self::Out]) -> Simulated;
    /// The per-layer counters of one result.
    fn counters(out: &Self::Out) -> Counters;
}

/// Runs set-up [`SETUP_REPS`] times; returns the last instance, the median
/// set-up seconds, and the part times of the median repetition.
fn setup<W: Workload>(seed: u64) -> (W, f64, SetupTimes) {
    let mut reps: Vec<(f64, SetupTimes)> = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        let mut times = SetupTimes::default();
        let t0 = Instant::now();
        let w = W::setup(seed, &mut times);
        reps.push((t0.elapsed().as_secs_f64(), times));
        last = Some(w);
    }
    reps.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (secs, times) = reps[reps.len() / 2];
    (last.expect("at least one set-up repetition"), secs, times)
}

/// The tail percentile over `n` samples: the highest one that has at
/// least ten samples beyond it.
pub fn tail_percentile(n: usize) -> f64 {
    let n = n as f64;
    (100.0 * (n - 10.0) / n).max(0.0)
}

/// Peak resident set size of this process, MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The end-to-end run: tracing off, every cell timed around the public
/// entry point, passes repeated until `seconds` have elapsed.
pub fn untraced<W: Workload>(seed: u64, seconds: u64) -> Report {
    let (w, setup_s, _) = setup::<W>(seed);
    let cells = w.cells();
    let mut report = Report::default();
    let mut per_cell: Vec<Vec<f64>> = vec![Vec::new(); cells.len()];
    let mut renders: Vec<String> = Vec::with_capacity(cells.len());
    let mut outs: Vec<W::Out> = Vec::with_capacity(cells.len());
    let deadline = Duration::from_secs(seconds);
    let start = Instant::now();
    'passes: for pass in 0.. {
        for (i, cell) in cells.iter().enumerate() {
            if pass >= MIN_PASSES && start.elapsed() >= deadline {
                break 'passes;
            }
            let t0 = Instant::now();
            let out = std::hint::black_box(w.run(cell, DEFAULT_EVENT_BUDGET));
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            per_cell[i].push(ms);
            let text = W::render(&out);
            let verdict = w.check(&out).and_then(|()| {
                if pass > 0 && text != renders[i] {
                    Err("re-run rendered different bytes".to_string())
                } else {
                    Ok(())
                }
            });
            report.tally(i, verdict);
            if pass == 0 {
                renders.push(text);
                outs.push(out);
            }
        }
    }

    // Host noise on a shared machine only ever adds time, so each cell's
    // host time is its fastest pass.
    let fastest: Vec<f64> = per_cell
        .iter()
        .map(|s| s.iter().copied().fold(f64::INFINITY, f64::min))
        .collect();
    let pct = tail_percentile(cells.len());
    let sim = w.simulated(&outs);
    report.notes.push(format!(
        "{} cells, {} timed runs ({} to {} per cell); cell_ms_tail is p{pct:.1} of {} cells",
        cells.len(),
        per_cell.iter().map(Vec::len).sum::<usize>(),
        per_cell.iter().map(Vec::len).min().unwrap_or(0),
        per_cell.iter().map(Vec::len).max().unwrap_or(0),
        cells.len()
    ));
    report.metrics = vec![
        Metric::new("setup_s", setup_s, "s"),
        Metric::new(
            "cells_per_s",
            cells.len() as f64 / (fastest.iter().sum::<f64>() / 1e3),
            "1/s",
        ),
        Metric::new("cell_ms_p50", median(&fastest), "ms"),
        Metric::new("cell_ms_tail", nearest_rank(&fastest, pct), "ms"),
        Metric::new("peak_rss_mb", peak_rss_mb(), "MiB"),
        Metric::new("antt", sim.antt, "ratio"),
        Metric::new("stp", sim.stp, "ratio"),
        Metric::new("hp_ntt", sim.hp_ntt, "ratio"),
        Metric::new("goodput_frac", sim.goodput_frac, "frac"),
        Metric::new("hp_p99_ms", sim.hp_p99_ms, "ms"),
        Metric::new("jobs_done_frac", sim.jobs_done_frac, "frac"),
        Metric::new("makespan_ms", sim.makespan_ms, "ms"),
    ];
    report
}

/// Checks one traced replay against its untraced public entry point; on
/// success returns the untraced result and its host time.
fn verify<W: Workload>(
    w: &W,
    cell: &W::Cell,
    replay: &Replay<W::Out>,
) -> Result<(W::Out, Duration), String> {
    if replay.exhausted {
        return Err("traced replay exhausted its event budget".to_string());
    }
    // The replay's own event count is the budget: the public run must
    // complete within it ...
    let t0 = Instant::now();
    let out = std::hint::black_box(w.run(cell, replay.events));
    let wall = t0.elapsed();
    w.check(&out)?;
    if W::exhausted_at(&out).is_some() {
        return Err(format!(
            "public run did not finish within the replay's {} events",
            replay.events
        ));
    }
    if W::end_time(&out) != replay.end {
        return Err(format!(
            "end time differs: traced {} vs untraced {}",
            replay.end,
            W::end_time(&out)
        ));
    }
    if let Some(traced) = &replay.out {
        if W::render(traced) != W::render(&out) {
            return Err("traced result renders differently from the untraced one".to_string());
        }
    }
    // ... and dispatch exactly as many events: read directly where the
    // result reports them, otherwise pinned by one event less of budget.
    match W::events(&out) {
        Some(n) if n != replay.events => Err(format!(
            "event count differs: traced {} vs untraced {n}",
            replay.events
        )),
        Some(_) => Ok((out, wall)),
        None => {
            let short = w.run(cell, replay.events - 1);
            match W::exhausted_at(&short) {
                Some(n) if n == replay.events - 1 => Ok((out, wall)),
                got => Err(format!(
                    "event count differs: traced {} but a budget one short ended with {got:?}",
                    replay.events
                )),
            }
        }
    }
}

/// The traced run: every cell replayed through the timing shim, checked
/// against its untraced public entry point, and aggregated per layer.
pub fn traced<W: Workload>(workload: &str, seed: u64, seconds: u64) -> Report {
    let (w, _, setup_times) = setup::<W>(seed);
    let cells = w.cells();
    let mut report = Report::default();
    let mut layers = Layers::default();
    let mut counters = Counters::default();
    let mut traced_ns = 0u64;
    let mut untraced_ns = 0u64;
    let mut events = 0u64;
    let mut k = 0u64;
    let deadline = Duration::from_secs(seconds);
    let start = Instant::now();
    'passes: for pass in 0.. {
        for (i, cell) in cells.iter().enumerate() {
            if pass >= 1 && start.elapsed() >= deadline {
                break 'passes;
            }
            let t0 = Instant::now();
            let replay = w.replay(cell);
            let wall = t0.elapsed();
            let verdict = verify(&w, cell, &replay);
            let untraced_wall = verdict.as_ref().map_or(Duration::ZERO, |(_, d)| *d);
            report.spans.push(Span {
                cell: i,
                pass,
                start_ns: (t0 - start).as_nanos() as u64,
                traced_ns: wall.as_nanos() as u64,
                untraced_ns: untraced_wall.as_nanos() as u64,
                events: replay.events,
                end_sim_ns: replay.end.as_ns(),
                layers: replay.layers.clone(),
            });
            if let Ok((out, _)) = &verdict {
                counters.add(&W::counters(out));
                layers.add(&replay.layers);
                traced_ns += wall.as_nanos() as u64;
                untraced_ns += untraced_wall.as_nanos() as u64;
                events += replay.events;
                k += 1;
            }
            report.tally(i, verdict.map(|_| ()));
        }
    }
    report.span_file = Some(format!("{workload}-seed{seed}.json"));

    let per_cell = |x: u64| x as f64 / k.max(1) as f64;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let kind = |kd: Kind| layers.kinds[kd as usize];
    let mut m = vec![
        Metric::new("sim-core.events", per_cell(events), "count"),
        Metric::new(
            "sim-core.self_ns_per_event",
            ratio(layers.self_ns(), layers.events()),
            "ns",
        ),
        Metric::new(
            "sim-core.peak_pending",
            per_cell(layers.peak_pending as u64),
            "count",
        ),
    ];
    for kd in Kind::ALL {
        let s = kind(kd);
        m.push(Metric::new(
            &format!("{}.n", kd.name()),
            per_cell(s.n),
            "count",
        ));
        m.push(Metric::new(
            &format!("{}.ns", kd.name()),
            ratio(s.ns, s.n),
            "ns",
        ));
    }
    let esc = counters.escalations;
    let drains: u64 = esc.iter().sum();
    m.extend([
        Metric::new(
            "gpu-sim.tasks_per_batch",
            ratio(layers.batch_tasks, kind(Kind::BatchDone).n),
            "count",
        ),
        Metric::new("runtime.escalations.flag", per_cell(esc[0]), "count"),
        Metric::new("runtime.escalations.forced", per_cell(esc[1]), "count"),
        Metric::new("runtime.escalations.kill", per_cell(esc[2]), "count"),
        Metric::new("runtime.flag_drain_ratio", ratio(esc[0], drains), "ratio"),
        Metric::new(
            "runtime.watchdog_useful_ratio",
            ratio(counters.recoveries, kind(Kind::Watchdog).n),
            "ratio",
        ),
        Metric::new("cluster.migrations", per_cell(counters.migrations), "count"),
        Metric::new(
            "cluster.quarantines",
            per_cell(counters.quarantines),
            "count",
        ),
        Metric::new("cluster.probes", per_cell(counters.probes), "count"),
        Metric::new(
            "cluster.readmissions",
            per_cell(counters.readmissions),
            "count",
        ),
        Metric::new(
            "cluster.readmit_ratio",
            ratio(counters.readmissions, counters.probes),
            "ratio",
        ),
        Metric::new(
            "serve.requests_per_batch",
            ratio(counters.batched, counters.batches),
            "count",
        ),
        Metric::new(
            "serve.admit_ratio",
            ratio(counters.admitted, counters.offered),
            "ratio",
        ),
        Metric::new("serve.dropped", per_cell(counters.dropped), "count"),
        Metric::new("serve.expired", per_cell(counters.expired), "count"),
        Metric::new("serve.shed", per_cell(counters.shed), "count"),
        Metric::new(
            "setup.standalone_ms",
            setup_times.standalone.as_secs_f64() * 1e3,
            "ms",
        ),
        Metric::new(
            "setup.train_ms",
            setup_times.train.as_secs_f64() * 1e3,
            "ms",
        ),
        Metric::new("trace.wall_ms", per_cell(traced_ns) / 1e6, "ms"),
        Metric::new(
            "trace.overhead_ms",
            (traced_ns as f64 - untraced_ns as f64) / k.max(1) as f64 / 1e6,
            "ms",
        ),
        Metric::new(
            "trace.accounted_frac",
            ratio(layers.loop_ns, traced_ns),
            "frac",
        ),
    ]);
    report.metrics = m;
    report.notes.push(format!(
        "{k} traced cells; handle time {:.1} ms + sim-core self {:.1} ms of {:.1} ms traced wall",
        layers.handle_ns() as f64 / 1e6,
        layers.self_ns() as f64 / 1e6,
        traced_ns as f64 / 1e6
    ));
    report
}
