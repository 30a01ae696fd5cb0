//! Property-based tests for the GPU device's conservation invariants: no
//! task is ever lost or duplicated, whatever the workload shape or the
//! preemption timing. Runs on the in-tree `flep-check` harness.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use flep_gpu_sim::{
    CollectorHarness, GpuConfig, GpuDevice, GpuEvent, GridId, GridPhase, GridShape,
    HostNotification, LaunchDesc, PreemptSignal, ResourceUsage, Scenario, TaskCost,
};
use flep_sim_core::check::{check, CheckConfig};
use flep_sim_core::{assume, require, require_eq, Scheduler, SimRng, SimTime, Simulation, World};

fn clean_cfg() -> GpuConfig {
    GpuConfig {
        launch_overhead: SimTime::ZERO,
        flag_visibility_latency: SimTime::ZERO,
        ..GpuConfig::k40()
    }
}

/// A persistent grid preempted at an arbitrary time partitions its tasks
/// exactly: done + remaining == total, and the task function ran exactly
/// `done` times.
#[test]
fn preemption_conserves_tasks() {
    check(
        "preemption_conserves_tasks",
        CheckConfig::default(),
        |rng: &mut SimRng| {
            (
                rng.uniform_u64(1, 4_999),     // total_tasks
                rng.uniform_u64(1, 63) as u32, // amortize
                rng.uniform_u64(1, 39),        // task_us
                rng.uniform_u64(0, 1_999),     // signal_at_us
                rng.uniform_u64(1, 15) as u32, // yield_sms
            )
        },
        |&(total_tasks, amortize, task_us, signal_at_us, yield_sms)| {
            assume!(total_tasks >= 1 && amortize >= 1 && task_us >= 1);
            assume!((1..=15).contains(&yield_sms));
            let counter = Arc::new(AtomicU64::new(0));
            let c = counter.clone();
            let mut sc = Scenario::new(clean_cfg());
            sc.launch_at(
                SimTime::ZERO,
                LaunchDesc::new(
                    "prop",
                    GridShape::Persistent {
                        total_tasks,
                        amortize,
                    },
                    TaskCost::fixed(SimTime::from_us(task_us)),
                )
                .with_tag(1)
                .with_task_fn(Box::new(move |_| {
                    c.fetch_add(1, Ordering::Relaxed);
                })),
            );
            sc.signal_at(
                SimTime::from_us(signal_at_us),
                1,
                PreemptSignal::YieldSms(yield_sms),
            );
            let result = sc.run();
            let rec = &result.records[&1];
            let executed = counter.load(Ordering::Relaxed);
            match (&rec.completed_at, rec.preemptions.first()) {
                (Some(_), None) => require_eq!(executed, total_tasks),
                (None, Some(p)) => {
                    require_eq!(p.tasks_done + p.remaining, total_tasks);
                    require_eq!(executed, p.tasks_done);
                    require!(p.remaining > 0);
                }
                // Spatial yields (< 15 SMs) never retire the grid early: it
                // completes on the remaining SMs.
                (Some(_), Some(_)) => require!(false, "completed grid recorded a preemption"),
                (None, None) => require!(false, "grid neither completed nor preempted"),
            }
            Ok(())
        },
    );
}

/// Original grids complete every CTA exactly once whatever the grid size,
/// and the makespan respects the wave lower bound.
#[test]
fn original_grid_runs_each_cta_once() {
    check(
        "original_grid_runs_each_cta_once",
        CheckConfig::default(),
        |rng: &mut SimRng| (rng.uniform_u64(1, 2_999), rng.uniform_u64(1, 29)),
        |&(ctas, task_us)| {
            assume!(ctas >= 1 && task_us >= 1);
            let counter = Arc::new(AtomicU64::new(0));
            let c = counter.clone();
            let mut sc = Scenario::new(clean_cfg());
            sc.launch_at(
                SimTime::ZERO,
                LaunchDesc::new(
                    "orig",
                    GridShape::Original { ctas },
                    TaskCost::fixed(SimTime::from_us(task_us)),
                )
                .with_tag(1)
                .with_task_fn(Box::new(move |_| {
                    c.fetch_add(1, Ordering::Relaxed);
                })),
            );
            let result = sc.run();
            require_eq!(counter.load(Ordering::Relaxed), ctas);
            let t = result.records[&1].turnaround().unwrap();
            let waves = ctas.div_ceil(120);
            // Lower bound: full-occupancy waves; upper bound: generous slack
            // for underfilled waves running faster and noise-free tasks.
            require!(t >= SimTime::from_us(task_us * waves).scale(0.3));
            require!(t <= SimTime::from_us(task_us * (waves + 1)) + SimTime::from_us(10));
            Ok(())
        },
    );
}

/// Per-CTA `(threads, regs/thread, smem bytes)` shapes for
/// [`original_grid_mixes_run_each_cta_once`]: occupancies from 2 to 16
/// CTAs per SM, limited by threads, registers, shared memory or the CTA
/// cap, so a blocked head leaves room a later grid can backfill.
const MIX_SHAPES: [(u32, u32, u32); 6] = [
    (256, 32, 0),
    (128, 64, 8 * 1024),
    (512, 24, 0),
    (64, 16, 12 * 1024),
    (1024, 32, 2 * 1024),
    (96, 40, 0),
];

/// Events of [`MixWorld`]: launches, kills and a device reset scheduled
/// by the property, and the device's own events.
enum MixEv {
    Launch(usize),
    Kill(usize),
    Reset,
    Gpu(GpuEvent),
}

/// A bare device driven launch by launch, checking after every event that
/// each SM's resident CTAs account for exactly its used threads, and
/// after a reset that the device is empty with every grid retired.
struct MixWorld {
    device: GpuDevice,
    descs: Vec<Option<LaunchDesc>>,
    /// Grid id and threads per CTA of each launched grid, by launch index.
    launched: Vec<Option<(GridId, u32)>>,
    /// Tags of the grids whose `Completed` note arrived.
    completed: Vec<u64>,
    /// The last terminal note of each grid, by tag (= launch index).
    terminal: Vec<Option<HostNotification>>,
    /// The first broken device invariant.
    violation: Option<String>,
}

impl MixWorld {
    fn new(descs: Vec<Option<LaunchDesc>>) -> Self {
        let n = descs.len();
        MixWorld {
            device: GpuDevice::new(GpuConfig::k40()),
            descs,
            launched: vec![None; n],
            completed: Vec::new(),
            terminal: vec![None; n],
            violation: None,
        }
    }

    fn violate(&mut self, v: String) {
        self.violation.get_or_insert(v);
    }

    /// Every SM is empty and every launched grid is retired.
    fn check_drained(&mut self, now: SimTime, what: &str) {
        for sm in self.device.sms() {
            if !sm.resident().is_empty() || sm.used_threads() != 0 {
                let v = format!("at {now}: SM {} not empty after {what}", sm.id());
                self.violate(v);
                return;
            }
        }
        for &(gid, _) in self.launched.iter().flatten() {
            let phase = self.device.grid_phase(gid);
            if !matches!(phase, Some(GridPhase::Completed | GridPhase::Preempted)) {
                self.violate(format!("at {now}: {gid} is {phase:?} after {what}"));
                return;
            }
        }
    }
}

impl World for MixWorld {
    type Event = MixEv;
    fn handle(&mut self, now: SimTime, ev: MixEv, sched: &mut Scheduler<'_, MixEv>) {
        let mut h = CollectorHarness::new();
        match ev {
            MixEv::Launch(i) => {
                let desc = self.descs[i].take().expect("each grid launches once");
                let threads = desc.resources.threads_per_cta;
                let gid = self.device.launch(now, desc, &mut h).expect("launchable");
                self.launched[i] = Some((gid, threads));
            }
            MixEv::Kill(i) => {
                if let Some((gid, _)) = self.launched[i] {
                    self.device.kill_grid(now, gid, &mut h);
                }
            }
            MixEv::Reset => {
                self.device.reset(now);
                self.check_drained(now, "the reset");
            }
            MixEv::Gpu(g) => self.device.handle(now, g, &mut h),
        }
        for (at, g) in h.gpu_events {
            sched.schedule_at(at, MixEv::Gpu(g));
        }
        for (_, note) in h.notes {
            if let HostNotification::Completed { tag, .. } = note {
                self.completed.push(tag);
            }
            if !matches!(note, HostNotification::DispatchStarted { .. }) {
                self.terminal[note.tag() as usize] = Some(note);
            }
        }
        if self.violation.is_some() {
            return;
        }
        for sm in self.device.sms() {
            let resident: u32 = sm
                .resident()
                .iter()
                .map(|r| {
                    self.launched
                        .iter()
                        .flatten()
                        .find(|&&(g, _)| g == r.grid)
                        .map_or(0, |&(_, t)| t)
                })
                .sum();
            if resident != sm.used_threads() {
                let v = format!(
                    "at {now}: SM {} residents hold {resident} threads, used_threads {}",
                    sm.id(),
                    sm.used_threads()
                );
                self.violate(v);
                return;
            }
        }
    }
}

/// A descriptor for [`MixWorld`]: grid `i` of shape `shape` (index into
/// [`MIX_SHAPES`]) whose task function counts each global task index's
/// executions in `runs`, starting at `first_task`.
fn mix_desc(
    i: usize,
    grid: GridShape,
    shape: u64,
    task_us: u64,
    first_task: u64,
    runs: &Arc<Mutex<Vec<u32>>>,
) -> LaunchDesc {
    let (threads, regs, smem) = MIX_SHAPES[shape as usize % MIX_SHAPES.len()];
    let r = runs.clone();
    LaunchDesc::new(
        "mix",
        grid,
        TaskCost {
            base: SimTime::from_us(task_us),
            rel_noise: 0.2,
        },
    )
    .with_tag(i as u64)
    .with_seed(i as u64 + 1)
    .with_mem_intensity(0.8)
    .with_resources(ResourceUsage {
        threads_per_cta: threads,
        regs_per_thread: regs,
        smem_per_cta: smem,
    })
    .with_first_task(first_task)
    .with_task_fn(Box::new(move |t| {
        r.lock().unwrap()[t as usize] += 1;
    }))
}

/// Random mixes of one to four original grids — mixed per-CTA resources,
/// 1 to 3000 CTAs each, staggered arrivals, some grids sharing one
/// stream, noisy task times — run every CTA exactly once and complete
/// every grid. After every device event, each SM's resident CTAs account
/// for exactly its used threads. This drives the dispatcher's in-place
/// slot refill (a finished CTA's slot handed to the FIFO head's next CTA)
/// alongside the generic placement path it must agree with, across the
/// head's last two pending CTAs where the two hand over.
#[test]
fn original_grid_mixes_run_each_cta_once() {
    check(
        "original_grid_mixes_run_each_cta_once",
        CheckConfig::default(),
        |rng: &mut SimRng| {
            let n = rng.uniform_u64(1, 4);
            (0..n)
                .map(|_| {
                    // Tiny grids (the one- and two-CTA boundary) as often as
                    // sub-wave and multi-wave ones.
                    let ctas = match rng.uniform_u64(0, 2) {
                        0 => rng.uniform_u64(1, 2),
                        1 => rng.uniform_u64(3, 200),
                        _ => rng.uniform_u64(1, 3_000),
                    };
                    (
                        ctas,
                        rng.uniform_u64(0, MIX_SHAPES.len() as u64 - 1), // shape
                        rng.uniform_u64(0, 400),                         // arrival_us
                        rng.uniform_u64(1, 30),                          // task_us
                        rng.uniform_u64(0, 2) == 0,                      // on stream 0
                    )
                })
                .collect::<Vec<_>>()
        },
        |grids: &Vec<(u64, u64, u64, u64, bool)>| {
            assume!(!grids.is_empty() && grids.len() <= 4);
            let total: u64 = grids.iter().map(|g| g.0).sum();
            let runs = Arc::new(Mutex::new(vec![0u32; total as usize]));
            let mut descs = Vec::new();
            let mut offset = 0;
            for (i, &(ctas, shape, _, task_us, on_stream)) in grids.iter().enumerate() {
                assume!((1..=3_000).contains(&ctas) && task_us >= 1);
                let shape_ = GridShape::Original { ctas };
                let mut desc = mix_desc(i, shape_, shape, task_us, offset, &runs);
                if on_stream {
                    desc = desc.with_stream(0);
                }
                descs.push(Some(desc));
                offset += ctas;
            }
            let mut sim = Simulation::new(MixWorld::new(descs));
            for (i, g) in grids.iter().enumerate() {
                sim.schedule_at(SimTime::from_us(g.2), MixEv::Launch(i));
            }
            sim.run();
            let world = sim.into_world();
            if let Some(v) = world.violation {
                require!(false, "{v}");
            }
            let mut completed = world.completed;
            completed.sort_unstable();
            require_eq!(completed, (0..grids.len() as u64).collect::<Vec<_>>());
            let runs = runs.lock().unwrap();
            if let Some(t) = runs.iter().position(|&n| n != 1) {
                require!(false, "task {t} ran {} times", runs[t]);
            }
            for sm in world.device.sms() {
                require!(sm.resident().is_empty() && sm.used_threads() == 0);
            }
            Ok(())
        },
    );
}

/// Device-level exactly-once through kill and reset: random mixes of one
/// to four persistent and original grids, some killed at random times,
/// and the whole device reset once at a random time. No task ever fires
/// twice, and every grid's completed counter (`grid_tasks_done`, the
/// resume point a host relaunches from) equals the number of its tasks
/// that fired and the count its terminal note carried. Right after the
/// reset, and again at the end, every SM is empty and every grid is
/// retired, so an eviction that skips an SM, or a claim an eviction
/// fails to roll back, cannot hide.
#[test]
fn grids_run_each_task_at_most_once_through_kill_and_reset() {
    check(
        "grids_run_each_task_at_most_once_through_kill_and_reset",
        CheckConfig::default(),
        |rng: &mut SimRng| {
            let n = rng.uniform_u64(1, 4);
            let grids = (0..n)
                .map(|_| {
                    let tasks = match rng.uniform_u64(0, 2) {
                        0 => rng.uniform_u64(1, 2),
                        1 => rng.uniform_u64(3, 300),
                        _ => rng.uniform_u64(1, 3_000),
                    };
                    let arrival_us = rng.uniform_u64(0, 400);
                    let kill_at_us = match rng.uniform_u64(0, 2) {
                        0 => Some(arrival_us + rng.uniform_u64(0, 1_500)),
                        _ => None,
                    };
                    (
                        (
                            tasks,
                            rng.uniform_u64(0, 32), // amortize; 0 = original grid
                            rng.uniform_u64(0, MIX_SHAPES.len() as u64 - 1), // shape
                            rng.uniform_u64(1, 30), // task_us
                        ),
                        (arrival_us, rng.uniform_u64(0, 2) == 0, kill_at_us),
                    )
                })
                .collect::<Vec<_>>();
            (grids, rng.uniform_u64(0, 3_000)) // reset_at_us
        },
        |(grids, reset_at_us): &(MixGrids, u64)| {
            assume!(!grids.is_empty() && grids.len() <= 4);
            let total: u64 = grids.iter().map(|g| g.0 .0).sum();
            let runs = Arc::new(Mutex::new(vec![0u32; total as usize]));
            let mut descs = Vec::new();
            let mut ranges = Vec::new();
            let mut offset = 0;
            for (i, &((tasks, amortize, shape, task_us), (_, on_stream, _))) in
                grids.iter().enumerate()
            {
                assume!((1..=3_000).contains(&tasks) && amortize <= 32 && task_us >= 1);
                let grid = match amortize {
                    0 => GridShape::Original { ctas: tasks },
                    l => GridShape::Persistent {
                        total_tasks: tasks,
                        amortize: l as u32,
                    },
                };
                let mut desc = mix_desc(i, grid, shape, task_us, offset, &runs);
                if on_stream {
                    desc = desc.with_stream(0);
                }
                descs.push(Some(desc));
                ranges.push(offset..offset + tasks);
                offset += tasks;
            }
            let mut sim = Simulation::new(MixWorld::new(descs));
            for (i, &(_, (arrival_us, _, kill_at_us))) in grids.iter().enumerate() {
                sim.schedule_at(SimTime::from_us(arrival_us), MixEv::Launch(i));
                if let Some(at) = kill_at_us {
                    sim.schedule_at(SimTime::from_us(at), MixEv::Kill(i));
                }
            }
            sim.schedule_at(SimTime::from_us(*reset_at_us), MixEv::Reset);
            let end = sim.run();
            let mut world = sim.into_world();
            world.check_drained(end, "the run");
            if let Some(v) = world.violation {
                require!(false, "{v}");
            }
            let runs = runs.lock().unwrap();
            if let Some(t) = runs.iter().position(|&n| n > 1) {
                require!(false, "task {t} ran {} times", runs[t]);
            }
            for (i, range) in ranges.into_iter().enumerate() {
                let (gid, _) = world.launched[i].expect("every grid launched");
                let fired = runs[range.start as usize..range.end as usize]
                    .iter()
                    .filter(|&&n| n == 1)
                    .count() as u64;
                let done = world.device.grid_tasks_done(gid);
                require_eq!(done, Some(fired), "grid {i}");
                // A reset tells the host nothing; it reads the counter.
                if let Some(note) = world.terminal[i] {
                    let noted = match note {
                        HostNotification::Completed { tasks_done, .. }
                        | HostNotification::Preempted { tasks_done, .. } => tasks_done,
                        HostNotification::DispatchStarted { .. } => unreachable!(),
                    };
                    require_eq!(noted, fired, "grid {i}'s terminal note");
                }
            }
            Ok(())
        },
    );
}

/// Generated input of
/// [`grids_run_each_task_at_most_once_through_kill_and_reset`]: per grid
/// `((tasks, amortize or 0 for an original grid, shape, task_us),
/// (arrival_us, on_stream, kill_at_us))`.
type MixGrids = Vec<((u64, u64, u64, u64), (u64, bool, Option<u64>))>;

/// Two kernels launched in any order both eventually complete (no deadlock
/// in the dispatcher), and tags never mix.
#[test]
fn two_kernel_corun_always_drains() {
    check(
        "two_kernel_corun_always_drains",
        CheckConfig::default(),
        |rng: &mut SimRng| {
            (
                rng.uniform_u64(1, 1_499), // a_ctas
                rng.uniform_u64(1, 1_499), // b_ctas
                rng.uniform_u64(0, 499),   // gap_us
                rng.uniform_u64(1, 24),    // a_task
                rng.uniform_u64(1, 24),    // b_task
            )
        },
        |&(a_ctas, b_ctas, gap_us, a_task, b_task)| {
            assume!(a_ctas >= 1 && b_ctas >= 1 && a_task >= 1 && b_task >= 1);
            let mut sc = Scenario::new(clean_cfg());
            sc.launch_at(
                SimTime::ZERO,
                LaunchDesc::new(
                    "a",
                    GridShape::Original { ctas: a_ctas },
                    TaskCost::fixed(SimTime::from_us(a_task)),
                )
                .with_tag(1),
            );
            sc.launch_at(
                SimTime::from_us(gap_us),
                LaunchDesc::new(
                    "b",
                    GridShape::Original { ctas: b_ctas },
                    TaskCost::fixed(SimTime::from_us(b_task)),
                )
                .with_tag(2),
            );
            let result = sc.run();
            require!(result.records[&1].completed_at.is_some());
            require!(result.records[&2].completed_at.is_some());
            // The second kernel never starts before its launch.
            require!(result.records[&2].dispatch_started.unwrap() >= SimTime::from_us(gap_us));
            Ok(())
        },
    );
}

/// Occupancy is consistent: a grid of CTAs that individually fit is always
/// dispatchable, and per-SM residency never exceeds the occupancy bound
/// (checked indirectly via busy-span concurrency).
#[test]
fn occupancy_bound_holds() {
    const THREAD_CHOICES: [u32; 5] = [64, 128, 256, 512, 1024];
    check(
        "occupancy_bound_holds",
        CheckConfig::default(),
        |rng: &mut SimRng| {
            (
                rng.uniform_u64(0, 4),         // index into THREAD_CHOICES
                rng.uniform_u64(8, 63) as u32, // regs
                rng.uniform_u64(1, 599),       // ctas
            )
        },
        |&(threads_idx, regs, ctas)| {
            assume!(threads_idx < 5 && (8..64).contains(&regs) && ctas >= 1);
            let threads = THREAD_CHOICES[threads_idx as usize];
            let cfg = clean_cfg();
            let usage = ResourceUsage {
                threads_per_cta: threads,
                regs_per_thread: regs,
                smem_per_cta: 0,
            };
            let occ = cfg.occupancy_per_sm(&usage);
            assume!(occ > 0);
            let capacity = cfg.device_capacity(&usage);
            let mut sc = Scenario::new(cfg);
            sc.launch_at(
                SimTime::ZERO,
                LaunchDesc::new(
                    "o",
                    GridShape::Original { ctas },
                    TaskCost::fixed(SimTime::from_us(10)),
                )
                .with_tag(1)
                .with_resources(usage),
            );
            let result = sc.run();
            require!(result.records[&1].completed_at.is_some());
            // Concurrency check: at any instant, at most `capacity` CTAs run.
            let spans = result.device.busy_spans();
            let mut events: Vec<(u64, i64)> = Vec::new();
            for s in spans {
                events.push((s.start.as_ns(), 1));
                events.push((s.end.as_ns(), -1));
            }
            events.sort();
            let mut live = 0i64;
            for (_, delta) in events {
                live += delta;
                require!(
                    live as u64 <= capacity,
                    "{live} concurrent CTAs > capacity {capacity}"
                );
            }
            Ok(())
        },
    );
}

/// The SM-placement index picks exactly the SM the naive filtered
/// `min_by_key((resident_count, sm_id))` scan would pick, under random
/// interleavings of CTA placements, CTA removals, and preemption-signal
/// flips. This pins the index's total order — buckets ascending by count,
/// SM ids ascending within a bucket — against the specification it
/// replaced on the dispatch hot path.
#[test]
fn placement_index_matches_naive_scan() {
    use flep_gpu_sim::{GridId, PlacementIndex, ResidentCta, ResourceUsage, Sm};

    check(
        "placement_index_matches_naive_scan",
        CheckConfig::default(),
        |rng: &mut SimRng| (rng.uniform_u64(0, u64::MAX - 1), rng.uniform_u64(50, 299)),
        |&(seed, ops)| {
            let cfg = GpuConfig::k40();
            let usage = ResourceUsage::typical_256();
            let mut rng = SimRng::seed_from(seed);
            let mut sms: Vec<Sm> = (0..cfg.num_sms).map(Sm::new).collect();
            let mut idx = PlacementIndex::new(cfg.num_sms, cfg.max_ctas_per_sm);
            let mut sig = PreemptSignal::None;
            let mut resident: Vec<(u32, u64)> = Vec::new(); // (sm, cta)
            let mut next_cta = 0u64;

            for _ in 0..ops {
                // Both answers must agree at every step, for the exact
                // predicate the dispatcher uses: fits && !must_exit.
                let got =
                    idx.least_loaded(|i| sms[i as usize].fits(&cfg, &usage) && !sig.must_exit(i));
                let want = sms
                    .iter()
                    .enumerate()
                    .filter(|(i, sm)| sm.fits(&cfg, &usage) && !sig.must_exit(*i as u32))
                    .min_by_key(|(i, sm)| (sm.resident_count(), *i))
                    .map(|(i, _)| i as u32);
                require_eq!(got, want);
                for (i, sm) in sms.iter().enumerate() {
                    require_eq!(idx.count(i as u32), sm.resident_count(), "SM {i} count");
                }

                match rng.uniform_u64(0, 9) {
                    // Place a CTA on the chosen least-loaded SM (if any).
                    0..=4 => {
                        if let Some(sm) = got {
                            let cta = next_cta;
                            next_cta += 1;
                            sms[sm as usize].place(
                                &cfg,
                                &usage,
                                ResidentCta {
                                    grid: GridId(1),
                                    cta,
                                    since: SimTime::ZERO,
                                },
                            );
                            idx.on_place(sm);
                            resident.push((sm, cta));
                        }
                    }
                    // Remove a random resident CTA.
                    5..=7 => {
                        if !resident.is_empty() {
                            let pick = rng.uniform_u64(0, resident.len() as u64 - 1) as usize;
                            let (sm, cta) = resident.swap_remove(pick);
                            sms[sm as usize].remove(&usage, GridId(1), cta);
                            idx.on_remove(sm);
                        }
                    }
                    // Flip the preemption signal: None or YieldSms(1..=15).
                    _ => {
                        let n = rng.uniform_u64(0, u64::from(cfg.num_sms)) as u32;
                        sig = if n == 0 {
                            PreemptSignal::None
                        } else {
                            PreemptSignal::YieldSms(n)
                        };
                    }
                }
            }
            Ok(())
        },
    );
}

/// One draw per batch keeps the batch's distribution: over a fixed number
/// of samples, `sample_sum(n)` has mean `n·base` (within 4 standard
/// errors), variance `n·σ²·base²` (within a tolerance well above its
/// sampling error), and never falls below the `0.05·n` floor.
#[test]
fn batch_sample_matches_sum_of_task_samples() {
    const SAMPLES: u32 = 4_000;
    check(
        "batch_sample_matches_sum_of_task_samples",
        CheckConfig::default(),
        |rng: &mut SimRng| {
            (
                rng.uniform_u64(1, 200),          // n
                rng.uniform_u64(10, 300),         // σ in thousandths
                rng.uniform_u64(1_000, 100_000),  // base_ns
                rng.uniform_u64(0, u64::MAX - 1), // seed
            )
        },
        |&(n, sigma_milli, base_ns, seed)| {
            assume!((1..=200).contains(&n));
            assume!((10..=300).contains(&sigma_milli));
            assume!(base_ns >= 1_000);
            let sigma = sigma_milli as f64 / 1_000.0;
            let cost = TaskCost {
                base: SimTime::from_ns(base_ns),
                rel_noise: sigma,
            };
            let floor = cost.base.scale(0.05 * n as f64);
            let mut rng = SimRng::seed_from(seed);
            let (mut sum, mut sum_sq) = (0.0f64, 0.0f64);
            for _ in 0..SAMPLES {
                let s = cost.sample_sum(n, &mut rng);
                require!(s >= floor, "sample {s:?} below floor {floor:?}");
                let x = s.as_ns() as f64;
                sum += x;
                sum_sq += x * x;
            }
            let k = f64::from(SAMPLES);
            let mean = sum / k;
            let var = (sum_sq - sum * mean) / (k - 1.0);
            let want_mean = (n * base_ns) as f64;
            let want_var = n as f64 * (sigma * base_ns as f64).powi(2);
            // Rounding to whole nanoseconds shifts each sample by at most
            // half a nanosecond.
            let se = (want_var / k).sqrt();
            require!(
                (mean - want_mean).abs() <= 4.0 * se + 0.5,
                "mean {mean} vs {want_mean} (se {se})"
            );
            // The sample variance of a normal has relative standard error
            // sqrt(2/(k-1)) ≈ 2.2% at k = 4000; 12% is over 5 of them.
            require!(
                (var - want_var).abs() <= 0.12 * want_var + 0.25,
                "variance {var} vs {want_var}"
            );
            Ok(())
        },
    );
}
