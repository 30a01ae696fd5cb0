//! Bounded device state under serving load. Every batch is a fresh grid,
//! and the runtime releases each one once it has processed the grid's
//! terminal notification, or once a lost device's decommission has
//! folded the grid's progress into its batch. So a device's grid table
//! holds only the batches still awaiting that note, however many batches
//! the run has launched and however often the device was lost.

use flep_gpu_sim::DeviceFaultKind;
use flep_serve::{reference_tenants, run_serve, ServeConfig, ServeOutcome, ServeWorld};
use flep_sim_core::{SimTime, Simulation, StepOutcome};

/// The reference mix at 3× its offered load, on two devices.
fn overload_cfg() -> ServeConfig {
    let mut tenants = reference_tenants();
    for t in &mut tenants {
        t.arrivals = t.arrivals.scaled(3.0);
    }
    let mut cfg = ServeConfig::new(20_261_018, SimTime::from_ms(60), tenants);
    cfg.devices = 2;
    cfg
}

#[test]
fn devices_hold_only_grids_awaiting_their_terminal_note() {
    let cfg = overload_cfg();
    let (events, peak) = step_checking_held_grids(&cfg);

    // The same config through the public driver drains, and launched
    // far more grids than a device ever held at once.
    let report = run_serve(&cfg);
    assert_eq!(report.outcome, ServeOutcome::Drained);
    assert_eq!(report.events, events, "stepped run diverged from run_serve");
    let batches: u64 = report.tenants.iter().map(|t| t.stats.batches).sum();
    assert!(peak >= 1, "no grid was ever held");
    assert!(
        batches > 100 * peak as u64,
        "{batches} batches against a peak of {peak} held grids"
    );
}

/// A device lost mid-run has its in-flight batches evicted and migrated;
/// the grids it evicted must leave its table too, so a device that
/// rejoins (or dies) holds nothing for the batches that moved away.
#[test]
fn lost_devices_hold_no_evicted_grids() {
    let mut cfg = overload_cfg();
    cfg.scripted_device_faults = vec![
        (SimTime::from_ms(15), 0, DeviceFaultKind::TransientLoss),
        (SimTime::from_ms(30), 1, DeviceFaultKind::TransientLoss),
        (SimTime::from_ms(45), 0, DeviceFaultKind::Death),
    ];
    step_checking_held_grids(&cfg);
}

/// Steps a serving run of `cfg` event by event, checking after each that
/// no device holds a grid that is not awaiting its terminal note, and at
/// the end that every device holds none. Returns the events dispatched
/// and the most grids one device held at once.
fn step_checking_held_grids(cfg: &ServeConfig) -> (u64, usize) {
    let (world, initial) = ServeWorld::new(cfg);
    let mut sim = Simulation::new(world);
    for (at, ev) in initial {
        sim.schedule_at(at, ev);
    }
    let mut peak = 0;
    let mut events = 0u64;
    while sim.step() == StepOutcome::Dispatched {
        events += 1;
        assert!(events <= cfg.event_budget, "run did not drain");
        let cluster = sim.world().cluster();
        for d in 0..cluster.devices() {
            let sys = cluster.world(d);
            let held = sys.device().live_grids();
            let awaiting = sys.grids_awaiting_note();
            assert!(
                held <= awaiting,
                "device {d} after {events} events holds {held} grids, \
                 but only {awaiting} await their terminal note"
            );
            peak = peak.max(held);
        }
    }
    let cluster = sim.world().cluster();
    for d in 0..cluster.devices() {
        assert_eq!(cluster.world(d).device().live_grids(), 0, "device {d}");
    }
    (events, peak)
}
