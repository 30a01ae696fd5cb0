//! Thread-count independence of the parallel experiment runner: the
//! `FLEP_JSON` document an experiment emits must be byte-identical
//! whether the cells ran sequentially (`FLEP_THREADS=1`, the reference
//! path) or fanned out across eight workers. This is the contract that
//! lets the figure binaries use every core by default without anyone
//! auditing the output for scheduling nondeterminism.
//!
//! The thread counts are pinned programmatically with
//! [`runner::with_threads`] rather than via the environment, so this
//! test cannot race other tests over process-global env state.

use flep_core::prelude::*;
use flep_sim_core::json::ToJson;
use flep_sim_core::runner;

/// Renders the exact document `FLEP_JSON` would write for an experiment,
/// mirroring `flep_bench::emit_json`.
fn json_doc(name: &str, rows: &dyn ToJson) -> String {
    flep_sim_core::json::JsonValue::object([
        ("experiment", name.to_json()),
        ("rows", rows.to_json()),
    ])
    .render()
}

fn fig08_doc(threads: usize) -> String {
    runner::with_threads(threads, || {
        json_doc(
            "fig08_hpf_speedups",
            &experiments::fig08_hpf_speedups(&GpuConfig::k40(), ExpConfig::quick(3)),
        )
    })
}

fn fig13_doc(threads: usize) -> String {
    runner::with_threads(threads, || {
        json_doc(
            "fig13_ffs_share",
            &experiments::fig13_14_ffs(&GpuConfig::k40(), ExpConfig::quick(3)),
        )
    })
}

#[test]
fn fig08_json_is_identical_at_one_and_eight_threads() {
    let sequential = fig08_doc(1);
    let parallel = fig08_doc(8);
    assert!(!sequential.is_empty());
    assert_eq!(
        sequential, parallel,
        "fig08 FLEP_JSON output must not depend on FLEP_THREADS"
    );
}

#[test]
fn fig13_json_is_identical_at_one_and_eight_threads() {
    let sequential = fig13_doc(1);
    let parallel = fig13_doc(8);
    assert!(!sequential.is_empty());
    assert_eq!(
        sequential, parallel,
        "fig13 FLEP_JSON output must not depend on FLEP_THREADS"
    );
}
