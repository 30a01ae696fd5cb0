//! Tests for CUDA-stream semantics: same-stream grids serialize in launch
//! order; different streams co-schedule under MPS backfill.

use flep_gpu_sim::{GpuConfig, GridShape, LaunchDesc, Scenario, TaskCost};
use flep_sim_core::SimTime;

fn clean_cfg() -> GpuConfig {
    GpuConfig {
        launch_overhead: SimTime::ZERO,
        poll_cost: SimTime::ZERO,
        pull_cost: SimTime::ZERO,
        flag_visibility_latency: SimTime::ZERO,
        ..GpuConfig::k40()
    }
}

fn small(tag: u64, ctas: u64, task_us: u64) -> LaunchDesc {
    LaunchDesc::new(
        format!("k{tag}"),
        GridShape::Original { ctas },
        TaskCost::fixed(SimTime::from_us(task_us)),
    )
    .with_tag(tag)
}

#[test]
fn same_stream_grids_serialize() {
    // Two 40-CTA grids that would co-schedule concurrently... but in the
    // same stream the second waits for the first to complete.
    let mut sc = Scenario::new(clean_cfg());
    sc.launch_at(SimTime::ZERO, small(1, 40, 100).with_stream(3));
    sc.launch_at(SimTime::ZERO, small(2, 40, 100).with_stream(3));
    let r = sc.run();
    assert_eq!(r.records[&1].completed_at.unwrap(), SimTime::from_us(100));
    assert_eq!(
        r.records[&2].dispatch_started.unwrap(),
        SimTime::from_us(100),
        "same-stream successor must wait for the predecessor"
    );
    assert_eq!(r.records[&2].completed_at.unwrap(), SimTime::from_us(200));
}

#[test]
fn different_streams_coschedule() {
    let mut sc = Scenario::new(clean_cfg());
    sc.launch_at(SimTime::ZERO, small(1, 40, 100).with_stream(1));
    sc.launch_at(SimTime::ZERO, small(2, 40, 100).with_stream(2));
    let r = sc.run();
    assert_eq!(r.records[&2].dispatch_started.unwrap(), SimTime::ZERO);
    assert_eq!(r.records[&2].completed_at.unwrap(), SimTime::from_us(100));
}

#[test]
fn streamless_grids_behave_as_before() {
    let mut sc = Scenario::new(clean_cfg());
    sc.launch_at(SimTime::ZERO, small(1, 40, 100));
    sc.launch_at(SimTime::ZERO, small(2, 40, 100));
    let r = sc.run();
    assert_eq!(r.records[&2].dispatch_started.unwrap(), SimTime::ZERO);
}

#[test]
fn stream_chain_of_many_grids_preserves_order() {
    let mut sc = Scenario::new(clean_cfg());
    for i in 0..6u64 {
        sc.launch_at(SimTime::ZERO, small(i + 1, 10, 10).with_stream(7));
    }
    let r = sc.run();
    let mut last_done = SimTime::ZERO;
    for i in 1..=6u64 {
        let started = r.records[&i].dispatch_started.unwrap();
        let done = r.records[&i].completed_at.unwrap();
        assert!(
            started >= last_done,
            "grid {i} started {started} before predecessor finished {last_done}"
        );
        last_done = done;
    }
    assert_eq!(last_done, SimTime::from_us(60));
}

#[test]
fn stream_interleaves_with_other_work() {
    // A stream chain shares the device with an independent kernel: the
    // chain serializes internally but overlaps the outsider.
    let mut sc = Scenario::new(clean_cfg());
    sc.launch_at(SimTime::ZERO, small(1, 40, 50).with_stream(1));
    sc.launch_at(SimTime::ZERO, small(2, 40, 50).with_stream(1));
    sc.launch_at(SimTime::ZERO, small(3, 40, 120));
    let r = sc.run();
    // The outsider ran concurrently with the whole chain.
    assert_eq!(r.records[&3].dispatch_started.unwrap(), SimTime::ZERO);
    assert_eq!(r.records[&3].completed_at.unwrap(), SimTime::from_us(120));
    assert_eq!(r.records[&2].completed_at.unwrap(), SimTime::from_us(100));
}

#[test]
fn launch_overhead_applies_per_stream_launch() {
    let cfg = GpuConfig {
        launch_overhead: SimTime::from_us(8),
        ..clean_cfg()
    };
    let mut sc = Scenario::new(cfg);
    sc.launch_at(SimTime::ZERO, small(1, 40, 100).with_stream(3));
    sc.launch_at(SimTime::ZERO, small(2, 40, 100).with_stream(3));
    let r = sc.run();
    // Grid 1: 8us launch + 100us work. Grid 2 parked behind it; on release
    // it pays the dependent-kernel start latency (another 8us) before
    // dispatching — the per-slice cost that makes kernel slicing expensive.
    assert_eq!(r.records[&1].completed_at.unwrap(), SimTime::from_us(108));
    assert_eq!(
        r.records[&2].dispatch_started.unwrap(),
        SimTime::from_us(116)
    );
}

#[test]
fn killing_a_parked_grid_does_not_wedge_its_stream() {
    // Grid 2 is killed while still parked behind grid 1; grid 3, launched
    // behind it, must take over the stream once grid 1 retires.
    let mut sc = Scenario::new(clean_cfg());
    for tag in 1..=3u64 {
        sc.launch_at(SimTime::ZERO, small(tag, 40, 100).with_stream(7));
    }
    sc.kill_at(SimTime::from_us(50), 2);
    let r = sc.run();
    assert_eq!(r.records[&1].completed_at.unwrap(), SimTime::from_us(100));
    assert_eq!(r.records[&2].dispatch_started, None);
    assert_eq!(r.records[&2].preemptions.len(), 1);
    assert_eq!(
        r.records[&3].dispatch_started.unwrap(),
        SimTime::from_us(100)
    );
    assert_eq!(r.records[&3].completed_at.unwrap(), SimTime::from_us(200));
}
