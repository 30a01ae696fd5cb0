//! Property tests for the serving frontend's EDF queue and admission
//! control, and for the serving world's held state over whole runs, on
//! the in-tree `flep-check` harness (64+ seeded cases each).

use flep_serve::{
    reference_tenants, run_serve, AdmissionControl, DropReason, EdfQueue, ServeConfig,
    ServeOutcome, ServeWorld,
};
use flep_sim_core::check::{check, CheckConfig};
use flep_sim_core::json::ToJson;
use flep_sim_core::{assume, require, require_eq, SimRng, SimTime, Simulation, StepOutcome};

/// A naive reference model of an EDF queue: a plain vector popped by
/// linear scan for the `(deadline, seq)` minimum. Obviously correct,
/// obviously slow.
#[derive(Default)]
struct NaiveEdf {
    items: Vec<(SimTime, u64)>,
    next_seq: u64,
}

impl NaiveEdf {
    fn push(&mut self, deadline: SimTime) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.items.push((deadline, seq));
        seq
    }

    fn pop(&mut self) -> Option<(SimTime, u64)> {
        let at = self
            .items
            .iter()
            .enumerate()
            .min_by_key(|(_, &(d, s))| (d, s))
            .map(|(i, _)| i)?;
        Some(self.items.remove(at))
    }

    fn expire(&mut self, now: SimTime) -> Vec<(SimTime, u64)> {
        let mut gone = Vec::new();
        while let Some(&(d, _)) = self
            .items
            .iter()
            .min_by_key(|&&(d, s)| (d, s))
            .filter(|&&(d, _)| d <= now)
        {
            let _ = d;
            let popped = self.pop().expect("invariant: a minimum was just found");
            gone.push(popped);
        }
        gone
    }
}

/// Op stream: `(code % 3, value)` where 0 = push, 1 = pop, 2 =
/// expire(value as now). A push's value is the step from the previous
/// push's deadline (0 to 2 us, from 0), so pushed deadlines are
/// nondecreasing, the queue's contract (a tenant's deadline is its
/// arrival plus a constant SLO), and stay so when the harness shrinks a
/// failing stream. Expiry instants fall in the same narrow window, so
/// deadline ties and already-expired pushes both occur often.
fn gen_ops(rng: &mut SimRng) -> Vec<(u8, u64)> {
    let n = rng.uniform_u64(1, 60) as usize;
    (0..n)
        .map(|_| {
            let code = rng.uniform_u64(0, 6) as u8;
            let hi = if code.is_multiple_of(3) { 2 } else { 24 };
            (code, rng.uniform_u64(0, hi))
        })
        .collect()
}

/// The EDF queue agrees with the naive model op for op: same pop results
/// (deadline and insertion sequence), same expiry counts, same lengths —
/// under arbitrary push/pop/expire interleavings of monotone deadlines.
#[test]
fn edf_queue_matches_naive_model() {
    check(
        "edf_queue_matches_naive_model",
        CheckConfig::default(),
        gen_ops,
        |ops| {
            let mut real: EdfQueue<u64> = EdfQueue::new();
            let mut model = NaiveEdf::default();
            let mut deadline = SimTime::ZERO;
            for &(code, value) in ops {
                match code % 3 {
                    0 => {
                        deadline += SimTime::from_us(value);
                        let seq = model.push(deadline);
                        real.push(deadline, seq);
                    }
                    1 => {
                        let got = real.pop();
                        let want = model.pop();
                        require_eq!(got, want, "pop diverged");
                    }
                    _ => {
                        let now = SimTime::from_us(value);
                        let got = real.expire(now);
                        let want = model.expire(now).len();
                        require_eq!(got, want, "expiry diverged at now={now}");
                        require!(
                            real.peek_deadline().is_none_or(|d| d > now),
                            "live head still expired"
                        );
                    }
                }
                require_eq!(real.len(), model.items.len(), "length diverged");
                let head = real.peek_deadline();
                let model_head = model.items.iter().map(|&(d, _)| d).min();
                require_eq!(head, model_head, "head deadline diverged");
            }
            Ok(())
        },
    );
}

/// Draining the queue after any op sequence yields deadlines in
/// non-decreasing order with FIFO sequence numbers among ties.
#[test]
fn edf_drain_order_is_sorted_fifo_on_ties() {
    check(
        "edf_drain_order_is_sorted_fifo_on_ties",
        CheckConfig::default(),
        gen_ops,
        |ops| {
            let mut q: EdfQueue<u64> = EdfQueue::new();
            let mut seq = 0u64;
            let mut deadline = SimTime::ZERO;
            for &(code, value) in ops {
                match code % 3 {
                    0 => {
                        deadline += SimTime::from_us(value);
                        q.push(deadline, seq);
                        seq += 1;
                    }
                    1 => {
                        let _ = q.pop();
                    }
                    _ => {
                        q.expire(SimTime::from_us(value));
                    }
                }
            }
            let mut drained = Vec::new();
            while let Some(pair) = q.pop() {
                drained.push(pair);
            }
            for w in drained.windows(2) {
                let (d0, s0) = w[0];
                let (d1, s1) = w[1];
                require!(d0 <= d1, "deadlines out of order: {d0} after {d1}");
                if d0 == d1 {
                    require!(s0 < s1, "tie broke LIFO: seq {s0} before {s1}");
                }
            }
            Ok(())
        },
    );
}

/// Admission control never admits a request whose deadline has already
/// passed, never admits past capacity, and admits everything else.
#[test]
fn admission_never_admits_past_deadlines() {
    check(
        "admission_never_admits_past_deadlines",
        CheckConfig::default(),
        |rng| {
            (
                rng.uniform_u64(0, 50),  // now (us)
                rng.uniform_u64(0, 100), // deadline (us)
                rng.uniform_u64(0, 8),   // queue length
                rng.uniform_u64(0, 8),   // queue cap
            )
        },
        |&(now_us, deadline_us, len, cap)| {
            let adm = AdmissionControl {
                queue_cap: cap as usize,
            };
            let now = SimTime::from_us(now_us);
            let deadline = SimTime::from_us(deadline_us);
            let decision = adm.decide(now, deadline, len as usize);
            match decision {
                Ok(()) => {
                    require!(deadline > now, "admitted a past deadline");
                    require!(len < cap, "admitted past capacity");
                }
                Err(DropReason::PastDeadline) => require!(deadline <= now),
                Err(DropReason::QueueFull) => {
                    require!(deadline > now, "capacity drop hid a past deadline");
                    require!(len >= cap);
                }
            }
            Ok(())
        },
    );
}

/// One serving case: reference tenants used, offered load in permille of
/// the reference rates, horizon in ms, devices, and the root seed. Plain
/// scalars so the harness shrinks toward the smallest failing run.
type ServeCase = (u64, u64, u64, u64, u64);

fn gen_serve_case(rng: &mut SimRng) -> ServeCase {
    (
        rng.uniform_u64(1, 4),      // tenants
        rng.uniform_u64(500, 3000), // load, permille
        rng.uniform_u64(20, 300),   // horizon, ms
        rng.uniform_u64(1, 3),      // devices
        rng.u64(),                  // seed
    )
}

/// Serving state is O(in-flight): stepped event by event over random
/// tenant mixes, loads, horizons and fleet sizes, the cluster never holds
/// a job beyond the tenants' in-flight batches (at most one each; no
/// faults or breaker are configured, so no probe is ever in flight),
/// however many batches the run has settled. At the end the stepped run
/// reconciles and reports the same bytes as `run_serve`.
#[test]
fn serving_holds_only_in_flight_jobs() {
    let mut cfg = CheckConfig::default();
    cfg.cases = cfg.cases.max(64);
    check(
        "serving_holds_only_in_flight_jobs",
        cfg,
        gen_serve_case,
        |&(tenants, load, horizon_ms, devices, seed)| {
            assume!((1..=4).contains(&tenants) && load > 0 && horizon_ms > 0 && devices > 0);
            let mut mix = reference_tenants();
            mix.truncate(tenants as usize);
            for t in &mut mix {
                t.arrivals = t.arrivals.scaled(load as f64 / 1000.0);
            }
            let mut serve = ServeConfig::new(seed, SimTime::from_ms(horizon_ms), mix);
            serve.devices = devices as u32;

            let (world, initial) = ServeWorld::new(&serve);
            let mut sim = Simulation::new(world);
            for (at, ev) in initial {
                sim.schedule_at(at, ev);
            }
            while sim.step() == StepOutcome::Dispatched {
                let held = sim.world().cluster().held_jobs();
                require!(
                    held <= tenants as usize,
                    "{held} jobs held for {tenants} tenants after {} events",
                    sim.dispatched()
                );
            }
            let (now, events) = (sim.now(), sim.dispatched());
            let report = sim
                .into_world()
                .into_report(now, ServeOutcome::Drained, events);
            require!(report.reconciles(), "stepped ledger does not reconcile");
            require_eq!(
                report.to_json().render(),
                run_serve(&serve).to_json().render(),
                "stepped run diverged from run_serve"
            );
            Ok(())
        },
    );
}
