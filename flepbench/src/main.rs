//! The FLEP-rs benchmark: one command that runs a named workload at a
//! given seed, checks every cell's output, and prints each metric by name
//! and unit. `--trace 1` replays the same cells through a timing shim and
//! prints the per-layer split instead.
//!
//! ```text
//! flepbench --workload <corun_pairs|serve_overload|fleet_chaos>
//!           --seed <u64> --seconds <n> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. See `README.md` for the
//! workloads, the metric definitions, and which layer should move which
//! metric.

mod corun;
mod fleet;
mod harness;
mod report;
mod serve;
mod shim;

use std::process::ExitCode;

use harness::Workload;
use report::Report;

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str =
    "usage: flepbench --workload <corun_pairs|serve_overload|fleet_chaos> --seed <u64> --seconds <n> --trace <0|1>";

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {value:?} is not {what}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("a u64"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|&s| s >= 1)
                        .ok_or_else(|| bad("a whole number of seconds >= 1"))?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn run<W: Workload>(args: &Args) -> Report {
    if args.trace {
        harness::traced::<W>(&args.workload, args.seed, args.seconds)
    } else {
        harness::untraced::<W>(args.seed, args.seconds)
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = match args.workload.as_str() {
        "corun_pairs" => run::<corun::CorunPairs>(&args),
        "serve_overload" => run::<serve::ServeOverload>(&args),
        "fleet_chaos" => run::<fleet::FleetChaos>(&args),
        other => {
            eprintln!("unknown workload {other:?}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    report.print(&format!(
        "flepbench {} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    ));
    ExitCode::SUCCESS
}
