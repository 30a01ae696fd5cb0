//! The GPU cluster: N simulated devices behind one scheduler, with
//! per-device failure domains and kill-migrate-restart recovery.
//!
//! Each device is a full [`SystemWorld`] shard (its own FIFO, watchdog
//! ladder, and fault plan); the cluster adds the layers a fleet needs on
//! top:
//!
//! * **Placement** — every submitted job goes to the least-loaded healthy
//!   device, measured in resident threads with a deterministic
//!   `(load, active jobs, device id)` tie-break — the same discipline the
//!   intra-device [`PlacementIndex`](flep_gpu_sim::PlacementIndex) uses
//!   for SMs, lifted one level up.
//! * **Failure domains** — device-scoped faults (hang, transient loss,
//!   permanent death) fire per device from a private RNG stream
//!   ([`DeviceFaultPlan`]); a fault on one device cannot perturb another
//!   device's event stream or fault draws.
//! * **Migration** — FLEP's task-counter checkpoint makes a killed grid
//!   resumable *anywhere*: when a device is lost, every unfinished job is
//!   folded back to its completed-task counter and relaunched on a
//!   survivor ([`RecoveryAction::Migrated`]), bounded by a migration
//!   budget ([`RuntimeError::MigrationFailed`] past it).
//! * **Drain-and-deregister** — a device can be taken out of rotation
//!   gracefully: no new placements, resident jobs run to completion, then
//!   the device deregisters.
//! * **Correlated failure domains** — an optional `zone → rack → device`
//!   topology ([`FailureTopology`]) with fleet-level outage events
//!   (zone-wide transient loss, rack power-cycles with staggered
//!   per-device rejoin latencies) drawn on their own RNG stream
//!   ([`CorrelatedFaultPlan`]), so real burst-failure regimes replay
//!   exactly from a seed.
//! * **Health scoring and circuit breaking** — with
//!   [`ClusterConfig::health`] set, every fault decays into a per-device
//!   EWMA score; past the threshold the breaker opens and quarantines
//!   the device out of rotation even while it looks healthy, and only a
//!   completed deterministic probe grid re-admits it
//!   (closed → open → half-open, DESIGN.md §14).
//! * **Placement constraints** — tenant anti-affinity and
//!   spread-across-failure-domain ([`PlacementConfig`]) layer extra key
//!   components onto the least-loaded index, keeping the same
//!   deterministic tie-breaking.
//!
//! # Routing
//!
//! [`GpuCluster::dispatch`] and [`GpuCluster::submit`] hand every
//! follow-up event to the caller's sink before they return; the cluster
//! holds no event between calls (DESIGN.md §10).
//!
//! # Determinism
//!
//! With one device and no device faults, a cluster run is byte-identical
//! to driving the underlying [`SystemWorld`] directly: the cluster wraps
//! each shard follow-up one-to-one, in push order, so the engine assigns
//! identical `(time, seq)` keys. Device faults draw from per-device
//! streams seeded independently of every workload stream, so
//! enabling them never reshuffles grid-level fault draws, and all cluster
//! decisions (placement, migration targets) are pure functions of
//! deterministic state — `FLEP_THREADS` cannot change any byte of output.

use std::collections::VecDeque;
use std::sync::Mutex;

use flep_gpu_sim::{
    CorrelatedFaultConfig, CorrelatedFaultKind, CorrelatedFaultPlan, DeviceFaultConfig,
    DeviceFaultKind, DeviceFaultPlan, FailureTopology, FaultConfig, FaultPlan, GpuConfig,
    GpuDevice, ResourceUsage, TaskCost,
};
use flep_metrics::RecoverySummary;
use flep_sim_core::runner::run_cells;
use flep_sim_core::{EventQueue, RunOutcome, Scheduler, SimTime, Simulation, World};

use crate::driver::{settle_budget, DEFAULT_EVENT_BUDGET};
use crate::health::{BreakerState, DeviceHealth, HealthConfig};
use crate::job::{JobRecord, JobSpec, KernelProfile, Settled};
use crate::world::{
    Policy, RecoveryAction, RecoveryEvent, RuntimeError, SystemEvent, SystemWorld, WatchdogConfig,
};

/// Owner index of a breaker probe grid: probes live in a shard's job
/// table but have no cluster job, so no registered index equals it.
const PROBE: usize = usize::MAX;

/// Cluster-wide configuration: the per-device template plus the failure
/// and migration policy.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of devices (at least 1).
    pub devices: u32,
    /// Per-device hardware configuration (all devices identical).
    pub gpu: GpuConfig,
    /// Scheduling policy, applied per shard.
    pub policy: Policy,
    /// Watchdog configuration, applied per shard. `None` keeps the
    /// watchdog off (so fault-free runs replay [`CoRun`](crate::CoRun)'s
    /// exact event stream) — unless any fault injection is configured,
    /// which implies a default watchdog exactly as `CoRun` does.
    pub watchdog: Option<WatchdogConfig>,
    /// Grid-level fault injection. Each device derives its own plan from
    /// this seed (device 0 uses it verbatim, so a one-device cluster
    /// replays single-device runs bit-for-bit).
    pub grid_faults: Option<FaultConfig>,
    /// Device-level fault injection (hang / transient loss / death).
    pub device_faults: Option<DeviceFaultConfig>,
    /// Scripted device faults `(time, device, kind)` — injected in
    /// addition to (and independent of) the seeded plan; the reproducible
    /// way to stage "device 3 dies mid-run" scenarios.
    pub scripted_faults: Vec<(SimTime, u32, DeviceFaultKind)>,
    /// Migration budget per job: one more eviction than this fails the
    /// job with [`RuntimeError::MigrationFailed`].
    pub max_migrations: u32,
    /// The `zone → rack → device` failure-domain tree. `None` treats the
    /// fleet as one flat rack in one zone (for correlated-fault targeting
    /// and the spread placement constraint alike).
    pub topology: Option<FailureTopology>,
    /// Seeded correlated outage injection (zone outages, rack
    /// power-cycles). `None` draws nothing.
    pub correlated_faults: Option<CorrelatedFaultConfig>,
    /// Scripted correlated outages — the reproducible way to stage "zone
    /// 0 drops at t" scenarios, independent of the seeded plan.
    pub scripted_correlated: Vec<(SimTime, CorrelatedFaultKind)>,
    /// Health scoring + circuit breaker. `None` (the default) keeps the
    /// control plane purely reactive — byte-identical to builds without
    /// the health layer.
    pub health: Option<HealthConfig>,
    /// Placement constraints layered onto the least-loaded index.
    pub placement: PlacementConfig,
}

/// Optional placement constraints. Both default off, which degrades the
/// placement key exactly to the original
/// `(resident threads, active jobs, device id)` tuple.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlacementConfig {
    /// Prefer devices hosting fewer jobs of the submitting tenant
    /// (spreads one tenant's jobs across devices before load decides).
    pub anti_affinity: bool,
    /// Prefer failure domains (racks) hosting fewer jobs of the
    /// submitting tenant, so one rack outage cannot take out all of a
    /// tenant's work. Ranked after anti-affinity, before load.
    pub spread: bool,
}

impl ClusterConfig {
    /// A cluster of `devices` identical GPUs with default watchdog and
    /// migration settings and no fault injection.
    #[must_use]
    pub fn new(devices: u32, gpu: GpuConfig, policy: Policy) -> Self {
        ClusterConfig {
            devices: devices.max(1),
            gpu,
            policy,
            watchdog: None,
            grid_faults: None,
            device_faults: None,
            scripted_faults: Vec::new(),
            max_migrations: 8,
            topology: None,
            correlated_faults: None,
            scripted_correlated: Vec::new(),
            health: None,
            placement: PlacementConfig::default(),
        }
    }
}

/// Lifecycle of one device in the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceState {
    /// In rotation, accepting placements.
    Healthy,
    /// Hung: resident work executes but doorbells are lost; still accepts
    /// placements (the host cannot tell a hang from a slow drain until
    /// the watchdog escalates).
    Hung,
    /// Transiently lost; rejoins after the reset latency.
    Resetting,
    /// Being drained for deregistration: no new placements, resident jobs
    /// run to completion.
    Draining,
    /// Permanently out (death, or drain completed).
    Dead,
}

/// What happened to a device, for the cluster's device-event log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceEventKind {
    /// A device fault fired (seeded or scripted).
    Fault(DeviceFaultKind),
    /// The device was caught in a correlated outage (its zone dropped or
    /// its rack power-cycled); applied as a transient loss with the
    /// outage's own rejoin latency.
    CorrelatedFault(CorrelatedFaultKind),
    /// The device rejoined rotation (hang cleared or reset finished).
    Restored,
    /// A graceful drain was requested.
    DrainStarted,
    /// The drain finished; the device deregistered.
    Deregistered,
    /// The circuit breaker opened: quarantined out of rotation.
    Quarantined,
    /// A breaker probe grid was launched (breaker half-open).
    ProbeLaunched,
    /// A probe completed; the breaker closed and the device rejoined the
    /// rotation.
    Readmitted,
}

/// One entry of the device lifecycle log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceEvent {
    /// When it happened.
    pub at: SimTime,
    /// Which device.
    pub device: u32,
    /// What happened.
    pub kind: DeviceEventKind,
}

/// Events circulating in a cluster simulation.
#[derive(Debug)]
pub enum ClusterEvent {
    /// A shard-internal event, routed to device `device`'s world.
    Shard {
        /// Owning device.
        device: u32,
        /// The wrapped runtime event.
        ev: SystemEvent,
    },
    /// Pre-registered job `idx` arrives and is placed.
    Arrival(usize),
    /// A device fault fires on `device`.
    DeviceFault {
        /// The failing device.
        device: u32,
        /// The fault class.
        kind: DeviceFaultKind,
    },
    /// Device `device` rejoins rotation, if its generation still matches
    /// (a later fault invalidates earlier restores).
    DeviceRestore {
        /// The recovering device.
        device: u32,
        /// Generation stamp taken when the restore was scheduled.
        gen: u64,
    },
    /// A correlated outage (zone/rack) fires across its failure domain.
    CorrelatedFault {
        /// The outage class and target domain.
        kind: CorrelatedFaultKind,
    },
    /// The breaker's re-admission attempt for `device` comes due: launch
    /// a probe if the device looks healthy, otherwise back off.
    BreakerProbe {
        /// The quarantined device.
        device: u32,
    },
}

/// Where a cluster job currently lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CJobState {
    /// Registered, waiting for its arrival event.
    Future,
    /// Placed on a device.
    Placed { device: u32 },
    /// Evicted (or arrived) with no eligible device; waiting for one.
    Parked,
}

/// Cluster-level per-job state, held only until the job settles (done or
/// failed).
#[derive(Debug)]
struct ClusterJob {
    /// Cluster job index: registration order, never reused.
    idx: usize,
    spec: JobSpec,
    state: CJobState,
    /// Absolute tasks completed across all incarnations.
    done: u64,
    /// Evictions survived so far.
    migrations: u32,
    /// Device of the last incarnation (for migration provenance).
    last_device: Option<u32>,
    /// Records of finished incarnations, folded in the order they left
    /// their devices.
    record: Option<JobRecord>,
}

impl ClusterJob {
    /// The job's merged record as it leaves the cluster: a job that never
    /// reached a device gets its bare identity.
    fn into_record(self) -> JobRecord {
        self.record.unwrap_or_else(|| JobRecord {
            name: self.spec.profile.name,
            priority: self.spec.priority,
            arrival: self.spec.arrival,
            ..JobRecord::default()
        })
    }
}

/// One device shard: a full runtime world plus its failure-domain state.
struct Shard {
    sys: SystemWorld,
    state: DeviceState,
    /// Bumped on every state transition; stale restore events (scheduled
    /// before a newer fault) carry an older generation and are dropped.
    gen: u64,
    plan: Option<DeviceFaultPlan>,
    /// Health score + breaker position (untouched when health is off).
    health: DeviceHealth,
}

/// The cluster: shards plus placement, migration, and accounting.
pub struct GpuCluster {
    shards: Vec<Shard>,
    fault_cfg: DeviceFaultConfig,
    max_migrations: u32,
    /// Failure-domain tree (flat single-rack when not configured).
    topo: FailureTopology,
    /// Correlated outage magnitudes (durations/staggers), also used for
    /// scripted correlated events.
    corr_cfg: CorrelatedFaultConfig,
    /// Seeded correlated outage schedule.
    corr_plan: Option<CorrelatedFaultPlan>,
    health_cfg: Option<HealthConfig>,
    placement: PlacementConfig,
    /// The jobs not yet settled (future, placed or parked), in ascending
    /// index order: the only per-job state the cluster holds. A settled
    /// job leaves the table through `settled`.
    jobs: Vec<ClusterJob>,
    /// Jobs registered so far: the next job's index.
    registered: usize,
    /// Jobs that finished all tasks, and jobs abandoned.
    completed: u64,
    failed: u64,
    /// Settled jobs with their merged records, in settle order; drained
    /// by a serving frontend, collected by [`Self::into_result`].
    settled: Vec<Settled>,
    /// Jobs waiting for any eligible device, FIFO.
    parked: VecDeque<usize>,
    /// Cluster-level errors (device loss, migration failures).
    errors: Vec<RuntimeError>,
    /// Cluster-level recoveries (migrations).
    recoveries: Vec<RecoveryEvent>,
    device_events: Vec<DeviceEvent>,
    /// `(time, job)` per completed migration, for frontend accounting.
    migrated_log: Vec<(SimTime, usize)>,
    /// `(time, job, device)` per placement — the evidence trail the
    /// quarantine invariant checks. Only recorded when health is on, so
    /// serving-scale runs without a breaker pay nothing.
    placements: Vec<(SimTime, usize, u32)>,
    /// The outbox: follow-ups of the cluster's handlers and of the shards
    /// it submits to. Every entry point empties it into the caller's sink.
    pending: Vec<(SimTime, ClusterEvent)>,
    /// `(device, count)` while the first `count` outbox entries are a
    /// half-open shard's held follow-ups ([`Self::absorb_held`]).
    held: Option<(u32, usize)>,
    /// Scratch for the shard entries [`Self::absorb_shard`] settles.
    settled_scratch: Vec<Settled>,
    /// Scratch for placement-constraint tallies (one slot per device).
    tenant_scratch: Vec<u32>,
}

impl std::fmt::Debug for GpuCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GpuCluster")
            .field("devices", &self.shards.len())
            .field("jobs", &self.jobs.len())
            .field("parked", &self.parked.len())
            .finish()
    }
}

/// Salts the grid-fault seed per device so sibling devices draw
/// independent fault sequences. Device 0 keeps the seed verbatim: a
/// one-device cluster replays existing single-device goldens bit-for-bit.
fn salt_seed(seed: u64, device: u32) -> u64 {
    seed ^ u64::from(device).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

impl GpuCluster {
    /// Builds the cluster and the initial events the driver must
    /// schedule: one watchdog tick per device, each device's first seeded
    /// fault, then the scripted faults in config order.
    #[must_use]
    pub fn new(cfg: &ClusterConfig) -> (GpuCluster, Vec<(SimTime, ClusterEvent)>) {
        let n = cfg.devices.max(1);
        // Faults without recovery machinery would livelock, so any fault
        // injection implies a default watchdog — the `CoRun` rule.
        let has_faults = cfg.grid_faults.is_some()
            || cfg.device_faults.is_some()
            || !cfg.scripted_faults.is_empty()
            || cfg.correlated_faults.is_some()
            || !cfg.scripted_correlated.is_empty();
        let watchdog = cfg
            .watchdog
            .or_else(|| has_faults.then(WatchdogConfig::default));
        let mut initial = Vec::new();
        let mut shards = Vec::with_capacity(n as usize);
        for d in 0..n {
            let mut device = GpuDevice::new(cfg.gpu.clone());
            device.set_span_collection(false);
            if let Some(gf) = cfg.grid_faults {
                let salted = FaultConfig {
                    seed: salt_seed(gf.seed, d),
                    ..gf
                };
                device.set_fault_plan(Some(FaultPlan::new(salted)));
            }
            let mut sys = SystemWorld::new(device, cfg.policy, Vec::new(), None);
            if let Some(wd) = watchdog {
                sys.set_watchdog(wd);
                initial.push((
                    wd.poll_interval,
                    ClusterEvent::Shard {
                        device: d,
                        ev: SystemEvent::Watchdog,
                    },
                ));
            }
            let plan = cfg.device_faults.map(|fc| DeviceFaultPlan::new(fc, d));
            shards.push(Shard {
                sys,
                state: DeviceState::Healthy,
                gen: 0,
                plan,
                health: DeviceHealth::default(),
            });
        }
        // Draw each device's first seeded fault (device order).
        for (d, shard) in shards.iter_mut().enumerate() {
            if let Some(plan) = shard.plan.as_mut() {
                if let Some((at, kind)) = plan.next_fault() {
                    initial.push((
                        at,
                        ClusterEvent::DeviceFault {
                            device: d as u32,
                            kind,
                        },
                    ));
                }
            }
        }
        for &(at, device, kind) in &cfg.scripted_faults {
            if device < n {
                initial.push((at, ClusterEvent::DeviceFault { device, kind }));
            }
        }
        // The failure-domain tree: configured, or the whole fleet as one
        // flat rack. Correlated targeting and spread placement both use it.
        let topo = cfg.topology.unwrap_or_else(|| FailureTopology::flat(n));
        // An all-quiet config (both rates zero) draws nothing and must
        // not count as a live fault source either — otherwise the
        // settled-early-stop below would cut the run at a different point
        // than the identical config-free run.
        let mut corr_plan = cfg
            .correlated_faults
            .filter(|cc| cc.total_rate() > 0.0)
            .map(|cc| CorrelatedFaultPlan::new(cc, topo));
        if let Some(plan) = corr_plan.as_mut() {
            if let Some((at, kind)) = plan.next_event() {
                initial.push((at, ClusterEvent::CorrelatedFault { kind }));
            }
        }
        for &(at, kind) in &cfg.scripted_correlated {
            initial.push((at, ClusterEvent::CorrelatedFault { kind }));
        }
        let cluster = GpuCluster {
            shards,
            fault_cfg: cfg
                .device_faults
                .unwrap_or_else(|| DeviceFaultConfig::quiet(0)),
            max_migrations: cfg.max_migrations,
            topo,
            corr_cfg: cfg
                .correlated_faults
                .unwrap_or_else(|| CorrelatedFaultConfig::quiet(0)),
            corr_plan,
            health_cfg: cfg.health,
            placement: cfg.placement,
            jobs: Vec::new(),
            registered: 0,
            completed: 0,
            failed: 0,
            settled: Vec::new(),
            parked: VecDeque::new(),
            errors: Vec::new(),
            recoveries: Vec::new(),
            device_events: Vec::new(),
            migrated_log: Vec::new(),
            placements: Vec::new(),
            pending: Vec::new(),
            held: None,
            settled_scratch: Vec::new(),
            tenant_scratch: Vec::new(),
        };
        (cluster, initial)
    }

    /// Number of devices (in any state).
    #[must_use]
    pub fn devices(&self) -> u32 {
        self.shards.len() as u32
    }

    /// A device's current lifecycle state.
    #[must_use]
    pub fn device_state(&self, device: u32) -> DeviceState {
        self.shards[device as usize].state
    }

    /// A device's runtime shard (its [`SystemWorld`] and, through it,
    /// the device).
    #[must_use]
    pub fn world(&self, device: u32) -> &SystemWorld {
        &self.shards[device as usize].sys
    }

    /// The device lifecycle log.
    #[must_use]
    pub fn device_events(&self) -> &[DeviceEvent] {
        &self.device_events
    }

    /// Jobs whose state the cluster still holds: every cluster-table entry
    /// (future, placed or parked) plus every shard-table job with no
    /// cluster entry behind it (breaker probes, or a job a shard failed
    /// to retire). A placed job counts once. Settled jobs are held
    /// nowhere, so a serving run holds at most its tenants' in-flight
    /// batches plus in-flight probes, however long it runs.
    #[must_use]
    pub fn held_jobs(&self) -> usize {
        let placed = self
            .jobs
            .iter()
            .filter(|j| matches!(j.state, CJobState::Placed { .. }))
            .count();
        let sharded: usize = self.shards.iter().map(|s| s.sys.active_count()).sum();
        self.jobs.len() + sharded.saturating_sub(placed)
    }

    /// The table slot of unsettled job `idx`, if it is still held.
    fn find(&self, idx: usize) -> Option<usize> {
        self.jobs.binary_search_by_key(&idx, |j| j.idx).ok()
    }

    /// The table slot of job `idx`, which must be unsettled.
    fn slot(&self, idx: usize) -> usize {
        self.find(idx).expect("cluster job is unsettled")
    }

    /// Settles the job in slot `k` as completed or failed: it leaves the
    /// table for the settled log with its merged record.
    fn settle(&mut self, at: SimTime, k: usize, completed: bool) {
        if completed {
            self.completed += 1;
        } else {
            self.failed += 1;
        }
        let job = self.jobs.remove(k);
        self.settled.push(Settled {
            at,
            job: job.idx,
            completed,
            record: job.into_record(),
        });
    }

    /// Pre-registers a job without placing it; an
    /// [`ClusterEvent::Arrival`] with the returned index places it at its
    /// arrival time. Used by the [`ClusterRun`] driver so cluster job
    /// indices match spec order regardless of arrival times.
    pub fn register(&mut self, spec: JobSpec) -> usize {
        let idx = self.registered;
        self.registered += 1;
        // The highest index yet, so the table stays ascending.
        self.jobs.push(ClusterJob {
            idx,
            spec,
            state: CJobState::Future,
            done: 0,
            migrations: 0,
            last_device: None,
            record: None,
        });
        idx
    }

    /// Submits a job dynamically at `now` (the serving frontend's hook):
    /// registers it and places it on the least-loaded eligible device, or
    /// parks it until a device is eligible. Hands every follow-up to
    /// `sink` before it returns. Returns the cluster job index.
    pub fn submit(
        &mut self,
        now: SimTime,
        spec: JobSpec,
        sink: &mut impl FnMut(SimTime, ClusterEvent),
    ) -> usize {
        debug_assert!(self.pending.is_empty(), "no follow-up outlives a call");
        let idx = self.register(spec);
        self.place(now, idx);
        self.pending.drain(..).for_each(|(at, ev)| sink(at, ev));
        idx
    }

    /// Whether a device can take new placements: in-rotation lifecycle
    /// state *and* a closed breaker.
    fn eligible(&self, d: usize) -> bool {
        let s = &self.shards[d];
        matches!(s.state, DeviceState::Healthy | DeviceState::Hung)
            && s.health.breaker == BreakerState::Closed
    }

    /// Devices currently accepting placements — the serving frontend's
    /// surviving-capacity signal for brownout tiers.
    #[must_use]
    pub fn placement_eligible(&self) -> u32 {
        (0..self.shards.len()).filter(|&d| self.eligible(d)).count() as u32
    }

    /// The placement log `(time, job, device)` — recorded only when
    /// health is configured (the chaos suite's quarantine evidence).
    #[must_use]
    pub fn placements(&self) -> &[(SimTime, usize, u32)] {
        &self.placements
    }

    /// The least-loaded eligible device: fewest resident threads, then
    /// fewest active jobs (so same-instant submissions spread before any
    /// CTA dispatches), then lowest device id. Placement constraints
    /// prepend tenant tallies to that key — anti-affinity (same-tenant
    /// jobs on the device), then domain spread (same-tenant jobs in the
    /// device's rack) — and are identically zero when disabled, so the
    /// constrained key degrades to the original tuple byte-for-byte.
    fn pick_device(&mut self, tenant: Option<u32>) -> Option<u32> {
        let constrained =
            (self.placement.anti_affinity || self.placement.spread) && tenant.is_some();
        let mut tenant_scratch = std::mem::take(&mut self.tenant_scratch);
        if constrained {
            // Same-tenant placed-job tally per device, one pass over the
            // unsettled jobs (settled ones are placed nowhere).
            tenant_scratch.clear();
            tenant_scratch.resize(self.shards.len(), 0);
            for job in &self.jobs {
                if let CJobState::Placed { device } = job.state {
                    if job.spec.tenant == tenant {
                        tenant_scratch[device as usize] += 1;
                    }
                }
            }
        }
        let rack_count = |d: usize| -> u32 {
            self.topo
                .rack_devices(self.topo.rack_of(d as u32))
                .map(|rd| tenant_scratch.get(rd as usize).copied().unwrap_or(0))
                .sum()
        };
        let picked = self
            .shards
            .iter()
            .enumerate()
            .filter(|&(d, _)| self.eligible(d))
            .min_by_key(|&(d, s)| {
                let anti = if constrained && self.placement.anti_affinity {
                    tenant_scratch[d]
                } else {
                    0
                };
                let spread = if constrained && self.placement.spread {
                    rack_count(d)
                } else {
                    0
                };
                (
                    anti,
                    spread,
                    s.sys.device().resident_threads(),
                    s.sys.active_count(),
                    d,
                )
            })
            .map(|(d, _)| d as u32);
        self.tenant_scratch = tenant_scratch;
        picked
    }

    /// Places (or parks) cluster job `idx`, resuming from its saved task
    /// counter. Emits the [`RecoveryAction::Migrated`] record when this
    /// placement completes a migration.
    fn place(&mut self, now: SimTime, idx: usize) {
        let k = self.slot(idx);
        debug_assert!(matches!(
            self.jobs[k].state,
            CJobState::Future | CJobState::Parked
        ));
        let Some(device) = self.pick_device(self.jobs[k].spec.tenant) else {
            self.jobs[k].state = CJobState::Parked;
            if !self.parked.contains(&idx) {
                self.parked.push_back(idx);
            }
            return;
        };
        if self.health_cfg.is_some() {
            self.placements.push((now, idx, device));
        }
        let job = &mut self.jobs[k];
        let spec = job.spec.clone().resuming_from(job.done);
        let from = job.last_device;
        job.last_device = Some(device);
        // This shard's held follow-ups go out ahead of the new job's.
        if let Some((_, count)) = self.held.take_if(|(held, _)| *held == device) {
            self.pending.rotate_left(count);
        }
        self.shards[device as usize]
            .sys
            .submit(now, spec, idx, &mut |at, ev| {
                self.pending.push((at, ClusterEvent::Shard { device, ev }));
            });
        self.jobs[k].state = CJobState::Placed { device };
        if let Some(from) = from {
            self.recoveries.push(RecoveryEvent {
                at: now,
                job: idx,
                action: RecoveryAction::Migrated { from, to: device },
            });
            self.migrated_log.push((now, idx));
        }
        let pushed = self.pending.len();
        self.absorb_shard(now, device); // A closed breaker: pushes nothing.
        debug_assert_eq!(self.pending.len(), pushed);
    }

    /// Pulls a shard's settled jobs into the cluster after any
    /// interaction with it. A job leaves its shard exactly when it
    /// settles there, which settles its cluster job with the folded
    /// record; a settled probe closes or re-opens the breaker.
    fn absorb_shard(&mut self, now: SimTime, device: u32) {
        // Most shard events settle nothing: skip the settled block, which
        // would only move empty buffers and leave both probe flags false.
        if self.shards[device as usize].sys.has_settled() {
            self.absorb_settled(now, device);
        }

        // A draining device deregisters the moment its last job retires.
        let shard = &mut self.shards[device as usize];
        if shard.state == DeviceState::Draining && shard.sys.active_count() == 0 {
            shard.state = DeviceState::Dead;
            shard.gen += 1;
            self.device_events.push(DeviceEvent {
                at: now,
                device,
                kind: DeviceEventKind::Deregistered,
            });
        }
    }

    /// Settles the cluster jobs behind a shard's settled log, then closes
    /// or re-opens the breaker on a settled probe.
    fn absorb_settled(&mut self, now: SimTime, device: u32) {
        let mut settled = std::mem::take(&mut self.settled_scratch);
        self.shards[device as usize]
            .sys
            .drain_settled_into(&mut settled);
        let (mut probe_done, mut probe_failed) = (false, false);
        for s in settled.drain(..) {
            if s.job == PROBE {
                probe_done |= s.completed;
                probe_failed |= !s.completed;
                continue;
            }
            let k = self.slot(s.job);
            fold_record(&mut self.jobs[k].record, s.record);
            self.settle(s.at, k, s.completed);
        }
        self.settled_scratch = settled;
        if probe_done {
            self.on_probe_done(now, device);
        }
        if probe_failed {
            self.on_probe_failed(now, device);
        }
    }

    /// Starts a graceful drain: the device leaves the placement rotation
    /// immediately, resident jobs run to completion, then it deregisters.
    pub fn drain_device(&mut self, now: SimTime, device: u32) {
        let shard = &mut self.shards[device as usize];
        if !matches!(shard.state, DeviceState::Healthy | DeviceState::Hung) {
            return;
        }
        self.device_events.push(DeviceEvent {
            at: now,
            device,
            kind: DeviceEventKind::DrainStarted,
        });
        shard.state = DeviceState::Draining;
        shard.gen += 1;
        if shard.sys.active_count() == 0 {
            shard.state = DeviceState::Dead;
            self.device_events.push(DeviceEvent {
                at: now,
                device,
                kind: DeviceEventKind::Deregistered,
            });
        }
    }

    /// Applies one device fault (seeded or scripted), then draws the
    /// shard's next seeded fault so the per-device schedule stays chained.
    fn on_device_fault(&mut self, now: SimTime, device: u32, kind: DeviceFaultKind) {
        let d = device as usize;
        if self.shards[d].state == DeviceState::Dead {
            return; // Dead devices neither fault further nor re-chain.
        }
        self.device_events.push(DeviceEvent {
            at: now,
            device,
            kind: DeviceEventKind::Fault(kind),
        });
        match kind {
            DeviceFaultKind::Hang => {
                // Only a healthy (or draining) device can hang; a device
                // already hung or resetting keeps its current trajectory.
                if matches!(
                    self.shards[d].state,
                    DeviceState::Healthy | DeviceState::Draining
                ) {
                    let was_draining = self.shards[d].state == DeviceState::Draining;
                    self.shards[d].sys.device_mut().set_doorbells_lost(true);
                    if !was_draining {
                        self.shards[d].state = DeviceState::Hung;
                    }
                    self.shards[d].gen += 1;
                    let gen = self.shards[d].gen;
                    self.pending.push((
                        now + self.fault_cfg.hang_duration,
                        ClusterEvent::DeviceRestore { device, gen },
                    ));
                }
                self.note_fault(now, device, |hc| hc.hang_weight);
            }
            DeviceFaultKind::TransientLoss => {
                self.transient_loss(now, device, self.fault_cfg.reset_latency);
                self.note_fault(now, device, |hc| hc.loss_weight);
            }
            DeviceFaultKind::Death => {
                self.errors.push(RuntimeError::DeviceLost {
                    device,
                    permanent: true,
                });
                self.shards[d].state = DeviceState::Dead;
                self.shards[d].gen += 1;
                self.evacuate(now, device);
                self.device_events.push(DeviceEvent {
                    at: now,
                    device,
                    kind: DeviceEventKind::Deregistered,
                });
            }
        }
        // Chain the next seeded fault (dead devices stop drawing).
        if self.shards[d].state != DeviceState::Dead {
            if let Some(plan) = self.shards[d].plan.as_mut() {
                if let Some((at, next)) = plan.next_fault() {
                    debug_assert!(at > now);
                    self.pending
                        .push((at, ClusterEvent::DeviceFault { device, kind: next }));
                }
            }
        }
    }

    /// Transient device loss with an explicit rejoin latency: the shared
    /// core of the seeded `TransientLoss` class and every correlated
    /// outage. No-op if the device is already resetting or dead.
    fn transient_loss(&mut self, now: SimTime, device: u32, rejoin_after: SimTime) {
        let d = device as usize;
        if matches!(
            self.shards[d].state,
            DeviceState::Resetting | DeviceState::Dead
        ) {
            return;
        }
        self.errors.push(RuntimeError::DeviceLost {
            device,
            permanent: false,
        });
        // Leave rotation *before* evacuating, or the evicted jobs would
        // be placed right back on this device.
        self.shards[d].state = DeviceState::Resetting;
        self.shards[d].gen += 1;
        let gen = self.shards[d].gen;
        self.evacuate(now, device);
        self.pending.push((
            now + rejoin_after,
            ClusterEvent::DeviceRestore { device, gen },
        ));
    }

    /// Expands one correlated outage over its failure domain: every
    /// affected device (ascending id) takes a transient loss with the
    /// outage's own rejoin latency — shared for a zone outage, staggered
    /// per rack position for a power-cycle — then the next seeded
    /// correlated event is chained.
    fn on_correlated_fault(&mut self, now: SimTime, kind: CorrelatedFaultKind) {
        let n = self.shards.len() as u32;
        let targets: Vec<(u32, SimTime)> = match kind {
            CorrelatedFaultKind::ZoneOutage { zone } => self
                .topo
                .zone_devices(zone)
                .filter(|&d| d < n)
                .map(|d| (d, self.corr_cfg.zone_outage_duration))
                .collect(),
            CorrelatedFaultKind::RackPowerCycle { rack } => self
                .topo
                .rack_devices(rack)
                .filter(|&d| d < n)
                .enumerate()
                .map(|(i, d)| {
                    (
                        d,
                        self.corr_cfg.rack_reset_base + self.corr_cfg.rack_reset_stagger * i as u64,
                    )
                })
                .collect(),
        };
        for (device, rejoin_after) in targets {
            if self.shards[device as usize].state == DeviceState::Dead {
                continue;
            }
            self.device_events.push(DeviceEvent {
                at: now,
                device,
                kind: DeviceEventKind::CorrelatedFault(kind),
            });
            self.transient_loss(now, device, rejoin_after);
            self.note_fault(now, device, |hc| hc.loss_weight);
        }
        if let Some(plan) = self.corr_plan.as_mut() {
            if let Some((at, next)) = plan.next_event() {
                debug_assert!(at > now);
                self.pending
                    .push((at, ClusterEvent::CorrelatedFault { kind: next }));
            }
        }
    }

    /// Feeds one fault observation into a device's health score and runs
    /// the breaker state machine: past the threshold the breaker opens
    /// (quarantine), a fault during probation re-opens it, and any open
    /// breaker keeps exactly one probe scheduled. No-op without a health
    /// config, and never for dead devices (nothing to re-admit).
    fn note_fault(&mut self, now: SimTime, device: u32, weight: impl Fn(&HealthConfig) -> f64) {
        let Some(hc) = self.health_cfg else { return };
        let d = device as usize;
        if self.shards[d].state == DeviceState::Dead {
            return;
        }
        let health = &mut self.shards[d].health;
        let score = health.observe(now, weight(&hc), hc.ewma_tau);
        match health.breaker {
            BreakerState::Closed if score >= hc.open_threshold => {
                health.breaker = BreakerState::Open;
                self.device_events.push(DeviceEvent {
                    at: now,
                    device,
                    kind: DeviceEventKind::Quarantined,
                });
                self.schedule_probe(now, device);
            }
            BreakerState::HalfOpen => {
                // The device faulted while its probe was in flight: the
                // probation failed, back off harder.
                health.breaker = BreakerState::Open;
                health.probe_failures = health.probe_failures.saturating_add(1);
                self.schedule_probe(now, device);
            }
            BreakerState::Open => self.schedule_probe(now, device),
            BreakerState::Closed => {}
        }
    }

    /// Arms the (single) re-admission probe for an open breaker, with the
    /// exponential-backoff cooldown.
    fn schedule_probe(&mut self, now: SimTime, device: u32) {
        let Some(hc) = self.health_cfg else { return };
        let health = &mut self.shards[device as usize].health;
        if health.probe_pending {
            return;
        }
        health.probe_pending = true;
        self.pending.push((
            now + hc.probe_delay(health.probe_failures),
            ClusterEvent::BreakerProbe { device },
        ));
    }

    /// The probe timer fired: if the device looks healthy, enter
    /// half-open and launch the probe grid; if it is mid-fault, count a
    /// failed attempt and back off; if it died, stay open forever.
    fn on_breaker_probe(&mut self, now: SimTime, device: u32) {
        let Some(hc) = self.health_cfg else { return };
        let d = device as usize;
        self.shards[d].health.probe_pending = false;
        if self.shards[d].health.breaker != BreakerState::Open {
            return;
        }
        match self.shards[d].state {
            DeviceState::Dead => {} // Permanent: never re-admitted.
            DeviceState::Healthy => {
                self.shards[d].health.breaker = BreakerState::HalfOpen;
                self.device_events.push(DeviceEvent {
                    at: now,
                    device,
                    kind: DeviceEventKind::ProbeLaunched,
                });
                let spec = probe_spec(now, &hc);
                self.shards[d].sys.submit(now, spec, PROBE, &mut |at, ev| {
                    self.pending.push((at, ClusterEvent::Shard { device, ev }));
                });
                self.absorb_held(now, device);
            }
            // Hung / resetting / draining: not probe-worthy yet.
            _ => {
                let health = &mut self.shards[d].health;
                health.probe_failures = health.probe_failures.saturating_add(1);
                self.schedule_probe(now, device);
            }
        }
    }

    /// A probe grid completed: if the breaker is still half-open the
    /// device has earned its way back — close the breaker, reset the
    /// backoff, and land parked jobs. A completion arriving after a
    /// fresh fault already re-opened the breaker proves nothing.
    fn on_probe_done(&mut self, now: SimTime, device: u32) {
        if self.health_cfg.is_none()
            || self.shards[device as usize].health.breaker != BreakerState::HalfOpen
        {
            return;
        }
        let health = &mut self.shards[device as usize].health;
        health.breaker = BreakerState::Closed;
        health.probe_failures = 0;
        // A clean probation wipes the score: re-admission is a fresh
        // start, not a countdown to re-tripping on stale history.
        health.score = 0.0;
        self.device_events.push(DeviceEvent {
            at: now,
            device,
            kind: DeviceEventKind::Readmitted,
        });
        self.land_parked(now);
    }

    /// A probe grid failed terminally (e.g. launch retries exhausted):
    /// the probation failed without a device fault — back off and retry.
    fn on_probe_failed(&mut self, now: SimTime, device: u32) {
        if self.health_cfg.is_none() {
            return;
        }
        let health = &mut self.shards[device as usize].health;
        if health.breaker == BreakerState::HalfOpen {
            health.breaker = BreakerState::Open;
            health.probe_failures = health.probe_failures.saturating_add(1);
            self.schedule_probe(now, device);
        }
    }

    /// Lands parked jobs FIFO while capacity lasts.
    fn land_parked(&mut self, now: SimTime) {
        let parked = |c: &Self, idx| {
            c.find(idx)
                .is_some_and(|k| c.jobs[k].state == CJobState::Parked)
        };
        while let Some(idx) = self.parked.pop_front() {
            if parked(self, idx) {
                self.place(now, idx);
                if parked(self, idx) {
                    break; // Re-parked: still no capacity; stop trying.
                }
            }
        }
    }

    /// Kill-migrate-restart: decommissions a lost device's world, folds
    /// every evicted job back to its completed-task counter, and
    /// relaunches each on a survivor (or parks it when none is eligible).
    fn evacuate(&mut self, now: SimTime, device: u32) {
        // Settle completions that already landed before taking the world
        // apart, so a finished job is never "migrated".
        self.absorb_shard(now, device);
        let evicted = self.shards[device as usize].sys.decommission(now);
        for e in evicted {
            let cidx = e.owner;
            if cidx == PROBE {
                // The probe grid died with its device: a failed probation.
                self.on_probe_failed(now, device);
                continue;
            }
            let k = self.slot(cidx);
            // Each job actually forced off this device (not merely
            // finished with a lost notification) is one more strike —
            // flapping devices accumulate migration weight.
            if e.tasks_done < self.jobs[k].spec.profile.total_tasks {
                self.note_fault(now, device, |hc| hc.migration_weight);
            }
            let job = &mut self.jobs[k];
            debug_assert!(matches!(job.state, CJobState::Placed { .. }));
            job.done = e.tasks_done;
            fold_record(&mut job.record, e.record);
            let total = job.spec.profile.total_tasks;
            if job.done >= total {
                // The grid had in fact finished; only its notification was
                // lost with the device. Count the completion here.
                self.settle(now, k, true);
                continue;
            }
            job.migrations += 1;
            if job.migrations > self.max_migrations {
                let attempts = job.migrations - 1;
                self.errors.push(RuntimeError::MigrationFailed {
                    job: cidx,
                    attempts,
                });
                self.settle(now, k, false);
                continue;
            }
            job.state = CJobState::Parked;
            self.place(now, cidx);
        }
    }

    /// Handles a device rejoining rotation after a hang or reset.
    fn on_device_restore(&mut self, now: SimTime, device: u32, gen: u64) {
        let d = device as usize;
        if self.shards[d].gen != gen {
            return; // A newer fault superseded this restore.
        }
        match self.shards[d].state {
            DeviceState::Hung => {
                self.shards[d].sys.device_mut().set_doorbells_lost(false);
                self.shards[d].state = DeviceState::Healthy;
            }
            DeviceState::Resetting => {
                self.shards[d].state = DeviceState::Healthy;
            }
            DeviceState::Draining => {
                // A hang during a drain clears without rejoining rotation.
                self.shards[d].sys.device_mut().set_doorbells_lost(false);
                return;
            }
            _ => return,
        }
        self.device_events.push(DeviceEvent {
            at: now,
            device,
            kind: DeviceEventKind::Restored,
        });
        // Capacity is back: land every parked job (FIFO order). With the
        // breaker open the device is restored but still quarantined, so
        // landing only helps if *other* capacity exists — which is
        // exactly what `place` checks.
        self.land_parked(now);
    }

    /// Routes one cluster event and hands every follow-up to `sink`, in
    /// push order, before it returns. A shard event's follow-ups go
    /// straight to `sink` unless the shard's breaker is half-open: only
    /// then can absorbing the shard push events (a settled probe lands
    /// parked jobs or re-arms its timer), and those go first
    /// (DESIGN.md §10).
    pub fn dispatch(
        &mut self,
        now: SimTime,
        ev: ClusterEvent,
        sink: &mut impl FnMut(SimTime, ClusterEvent),
    ) {
        debug_assert!(self.pending.is_empty(), "no follow-up outlives a call");
        match ev {
            ClusterEvent::Shard { device, ev }
                if self.shards[device as usize].health.breaker != BreakerState::HalfOpen =>
            {
                self.shards[device as usize]
                    .sys
                    .dispatch(now, ev, &mut |at, ev| {
                        sink(at, ClusterEvent::Shard { device, ev });
                    });
                self.absorb_shard(now, device);
                debug_assert!(
                    self.pending.is_empty(),
                    "only a half-open breaker's settled probe pushes events"
                );
                return;
            }
            ClusterEvent::Shard { device, ev } => {
                self.shards[device as usize]
                    .sys
                    .dispatch(now, ev, &mut |at, ev| {
                        self.pending.push((at, ClusterEvent::Shard { device, ev }));
                    });
                self.absorb_held(now, device);
            }
            ClusterEvent::Arrival(idx) => {
                if self
                    .find(idx)
                    .is_some_and(|k| self.jobs[k].state == CJobState::Future)
                {
                    self.place(now, idx);
                }
            }
            ClusterEvent::DeviceFault { device, kind } => {
                self.on_device_fault(now, device, kind);
            }
            ClusterEvent::DeviceRestore { device, gen } => {
                self.on_device_restore(now, device, gen);
            }
            ClusterEvent::CorrelatedFault { kind } => {
                self.on_correlated_fault(now, kind);
            }
            ClusterEvent::BreakerProbe { device } => {
                self.on_breaker_probe(now, device);
            }
        }
        self.pending.drain(..).for_each(|(at, ev)| sink(at, ev));
    }

    /// Absorbs shard `device` after a step whose follow-ups make up the
    /// whole outbox, then moves them behind whatever absorbing pushed.
    /// Landing a job on this shard meanwhile releases them ahead of the
    /// job's own ([`Self::place`]).
    fn absorb_held(&mut self, now: SimTime, device: u32) {
        debug_assert!(self.held.is_none(), "holds do not nest");
        self.held = Some((device, self.pending.len()));
        self.absorb_shard(now, device);
        if let Some((_, count)) = self.held.take() {
            self.pending.rotate_left(count);
        }
    }

    /// Whether the settled log or the migration log holds an entry not
    /// yet drained: the only cluster changes a serving frontend acts on.
    #[must_use]
    pub fn needs_drain(&self) -> bool {
        !self.settled.is_empty() || !self.migrated_log.is_empty()
    }

    /// Appends and clears the migration log (`(time, job)`).
    pub fn drain_migrations_into(&mut self, out: &mut Vec<(SimTime, usize)>) {
        out.append(&mut self.migrated_log);
    }

    /// Appends and clears the settled log: every job that completed or
    /// failed since the last drain, with its merged record, in settle
    /// order. A drained job is gone from the cluster; the
    /// [`ClusterResult::jobs`] of [`Self::into_result`] no longer holds
    /// its record.
    pub fn drain_settled_into(&mut self, out: &mut Vec<Settled>) {
        out.append(&mut self.settled);
    }

    /// Extracts the merged per-job records and cluster telemetry. The
    /// records are those of every job not drained earlier
    /// ([`Self::drain_settled_into`]), in registration order.
    #[must_use]
    pub fn into_result(mut self, end_time: SimTime) -> ClusterResult {
        let mut errors = Vec::new();
        let mut recoveries = Vec::new();
        let mut escalations = [0u64; 3];
        let mut faults_fired = 0u64;
        // Shard telemetry first (device order, matching a single-device
        // run's layout; probe entries dropped), then the cluster's own
        // entries. A shard still holds only its unsettled jobs' records (a
        // budget abort's stranded work): fold them into their cluster jobs.
        for shard in std::mem::take(&mut self.shards) {
            let (records, _, report) = shard.sys.finish();
            for (owner, record) in records {
                if let Some(k) = self.find(owner) {
                    fold_record(&mut self.jobs[k].record, record);
                }
            }
            errors.extend(report.errors.into_iter().filter(|e| !is_probe_error(e)));
            recoveries.extend(report.recoveries.into_iter().filter(|r| r.job != PROBE));
            for (i, n) in report.escalations.iter().enumerate() {
                escalations[i] += n;
            }
            faults_fired += report.faults.len() as u64;
        }
        errors.extend(self.errors);
        recoveries.extend(self.recoveries);
        let mut summary = summarize_recoveries(&recoveries);
        for ev in &self.device_events {
            match ev.kind {
                DeviceEventKind::Quarantined => summary.quarantines += 1,
                DeviceEventKind::ProbeLaunched => summary.probes += 1,
                DeviceEventKind::Readmitted => summary.readmissions += 1,
                _ => {}
            }
        }
        let migrations = summary.migrations;
        let stranded = self.jobs.len() as u64;
        let mut records: Vec<_> = self
            .settled
            .into_iter()
            .map(|s| (s.job, s.record))
            .collect();
        records.extend(self.jobs.into_iter().map(|j| (j.idx, j.into_record())));
        records.sort_unstable_by_key(|&(idx, _)| idx);
        ClusterResult {
            jobs: records.into_iter().map(|(_, r)| r).collect(),
            end_time,
            errors,
            recoveries,
            escalations,
            faults_fired,
            device_events: self.device_events,
            migrations,
            completed: self.completed,
            failed: self.failed,
            stranded,
            summary,
            placements: self.placements,
        }
    }
}

/// Folds a recovery-event list into the shared [`RecoverySummary`]
/// counters (quarantines/probes/readmissions/shed are counted by their
/// own producers).
pub(crate) fn summarize_recoveries(recoveries: &[RecoveryEvent]) -> RecoverySummary {
    let mut s = RecoverySummary::default();
    for r in recoveries {
        match r.action {
            RecoveryAction::ForcedDrain => s.forced_drains += 1,
            RecoveryAction::Killed => s.kills += 1,
            RecoveryAction::LostNotification => s.lost_notifications += 1,
            RecoveryAction::LaunchRetry(_) => s.launch_retries += 1,
            RecoveryAction::Migrated { .. } => s.migrations += 1,
        }
    }
    s
}

/// Folds one incarnation's record into the job's accumulator: counters
/// add, first-observation timestamps keep the earliest incarnation's
/// value, and the completion stamp comes from whichever incarnation
/// finished. With a single incarnation this is the identity.
fn fold_record(acc: &mut Option<JobRecord>, mut inc: JobRecord) {
    match acc {
        None => *acc = Some(inc),
        Some(base) => {
            base.first_granted = base.first_granted.or(inc.first_granted);
            base.first_dispatched = base.first_dispatched.or(inc.first_dispatched);
            base.completed = base.completed.or(inc.completed);
            base.preemptions += inc.preemptions;
            base.waiting += inc.waiting;
            base.completions += inc.completions;
            base.tasks_completed += inc.tasks_completed;
            base.drain_samples.append(&mut inc.drain_samples);
        }
    }
}

/// Whether an error belongs to a probe grid, which has no cluster job to
/// charge (the breaker already accounted the failure).
fn is_probe_error(e: &RuntimeError) -> bool {
    match *e {
        RuntimeError::LaunchFailed { job, .. }
        | RuntimeError::LaunchRetriesExhausted { job, .. }
        | RuntimeError::SwapUnsatisfiable { job }
        | RuntimeError::MigrationFailed { job, .. } => job == PROBE,
        RuntimeError::EventBudgetExhausted { .. } | RuntimeError::DeviceLost { .. } => false,
    }
}

/// The deterministic re-admission probe: a tiny low-priority persistent
/// grid that exercises launch, dispatch, and completion doorbells without
/// meaningfully competing with real work.
fn probe_spec(now: SimTime, hc: &HealthConfig) -> JobSpec {
    JobSpec::new(
        KernelProfile {
            name: "breaker_probe".to_string(),
            resources: ResourceUsage::typical_256(),
            total_tasks: hc.probe_tasks.max(1),
            task_cost: TaskCost::fixed(SimTime::from_us(5)),
            mem_intensity: 0.0,
            amortize: 1,
        },
        now,
    )
    .with_priority(0)
}

impl World for GpuCluster {
    type Event = ClusterEvent;

    fn handle(
        &mut self,
        now: SimTime,
        event: ClusterEvent,
        sched: &mut Scheduler<'_, ClusterEvent>,
    ) {
        self.dispatch(now, event, &mut |at, ev| sched.schedule_at(at, ev));
        debug_assert_eq!(
            self.completed + self.failed + self.jobs.len() as u64,
            self.registered as u64,
            "settled-job count drifted from the job table"
        );
        // A seeded device-fault plan re-arms itself after every draw, so
        // it outlives the workload: left alone, the run would only end
        // when every device has died. Once all jobs have settled there is
        // nothing left for faults to hit — stop instead of simulating the
        // cluster's slow death by injection. (Faults-off runs never take
        // this path, preserving exact CoRun equivalence.)
        if self.jobs.is_empty()
            && self.registered > 0
            && (self.corr_plan.is_some() || self.shards.iter().any(|s| s.plan.is_some()))
        {
            sched.stop();
        }
    }
}

/// How [`ClusterRun`] steps the cluster (DESIGN.md §13).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StepMode {
    /// Choose automatically: epoch stepping — per-device event streams
    /// stepped independently (through the [`run_cells`] worker pool) up to
    /// the next cluster-level interaction timestamp, with a barrier there
    /// — when the run has no device-level faults (seeded or scripted);
    /// [`StepMode::Merged`] otherwise.
    #[default]
    Auto,
    /// Always the merged driver: every device's events and the
    /// cluster-level ones in one flat sim-core [`Simulation`], whose
    /// `(time, seq)` order is exact for *every* run, faults included.
    Merged,
}

/// Drains one device stream: every event strictly before `bound` (all of
/// them when `None`), capped at `cap` dispatches. Follow-ups the shard
/// emits go straight back into its own stream with device-local sequence
/// numbers — the same relative order one global queue would assign, since a
/// device's pushes arrive in the same order either way.
fn step_stream(
    shard: &mut Shard,
    stream: &mut EventQueue<SystemEvent>,
    bound: Option<SimTime>,
    cap: u64,
) -> (u64, Option<SimTime>) {
    let mut count = 0u64;
    let mut last = None;
    while count < cap {
        let entry = match bound {
            Some(b) => stream.pop_before(b),
            None => stream.pop(),
        };
        let Some(entry) = entry else { break };
        shard
            .sys
            .dispatch(entry.time, entry.payload, &mut |at, ev| stream.push(at, ev));
        last = Some(entry.time);
        count += 1;
    }
    (count, last)
}

/// Combines two `(dispatch count, last timestamp)` accumulators.
fn merge_step(a: (u64, Option<SimTime>), b: (u64, Option<SimTime>)) -> (u64, Option<SimTime>) {
    let last = match (a.1, b.1) {
        (Some(x), Some(y)) => Some(x.max(y)),
        (x, y) => x.or(y),
    };
    (a.0 + b.0, last)
}

/// Steps every device stream up to `bound`. Fleets of 8 or more devices
/// fan out one device per cell through [`run_cells`], so the worker count
/// is the runner's (`FLEP_THREADS`, or 1 inside another run's cell);
/// smaller fleets step inline. Device streams are independent between
/// cluster-level timestamps (see [`ClusterRun::run_epoch`]), and results
/// fold in device order, so the split changes wall-clock only — never a
/// byte of output.
fn step_streams(
    shards: &mut [Shard],
    streams: &mut [EventQueue<SystemEvent>],
    bound: Option<SimTime>,
    cap: u64,
) -> (u64, Option<SimTime>) {
    let small = shards.len() < 8;
    let devices = shards.iter_mut().zip(streams.iter_mut());
    if small {
        return devices
            .map(|(s, q)| step_stream(s, q, bound, cap))
            .fold((0, None), merge_step);
    }
    // Each cell owns exactly one device; the lock is never contended.
    let cells: Vec<Mutex<_>> = devices.map(Mutex::new).collect();
    run_cells(cells.len(), |d| {
        let mut cell = cells[d].lock().expect("device cell poisoned");
        let (shard, stream) = &mut *cell;
        step_stream(shard, stream, bound, cap)
    })
    .into_iter()
    .fold((0, None), merge_step)
}

/// A complete cluster run description — the [`CoRun`](crate::CoRun)
/// analog, one level up.
#[derive(Debug)]
pub struct ClusterRun {
    cfg: ClusterConfig,
    jobs: Vec<JobSpec>,
    budget: u64,
    mode: StepMode,
}

impl ClusterRun {
    /// Starts an empty cluster run.
    #[must_use]
    pub fn new(cfg: ClusterConfig) -> Self {
        ClusterRun {
            cfg,
            jobs: Vec::new(),
            budget: DEFAULT_EVENT_BUDGET,
            mode: StepMode::Auto,
        }
    }

    /// Adds a job (builder style). Cluster job indices follow the order
    /// jobs are added, independent of arrival times.
    #[must_use]
    pub fn job(mut self, spec: JobSpec) -> Self {
        self.jobs.push(spec);
        self
    }

    /// Overrides the event budget (builder style).
    #[must_use]
    pub fn with_event_budget(mut self, budget: u64) -> Self {
        self.budget = budget;
        self
    }

    /// Pins the stepping mode (builder style), overriding the automatic
    /// choice. The equivalence tests use this to drive the same run
    /// through both modes.
    #[must_use]
    pub fn with_step_mode(mut self, mode: StepMode) -> Self {
        self.mode = mode;
        self
    }

    /// Whether epoch stepping reproduces the global event order for this
    /// configuration: true exactly when no device-level faults (seeded or
    /// scripted) can create cross-device interactions between arrival
    /// timestamps. Grid-level fault injection stays eligible — those
    /// draws, retries, and watchdog escalations are all shard-local.
    /// Correlated outages are device-level faults with extra blast
    /// radius, so they disqualify epoch stepping the same way.
    fn epoch_eligible(&self) -> bool {
        self.cfg.device_faults.is_none()
            && self.cfg.scripted_faults.is_empty()
            && self.cfg.correlated_faults.is_none()
            && self.cfg.scripted_correlated.is_empty()
    }

    /// Executes the run to completion (or budget exhaustion).
    ///
    /// # Stepping modes
    ///
    /// The default ([`StepMode::Auto`]) picks *epoch* stepping (one
    /// event stream per device, barriers at cluster-level timestamps) for
    /// runs without device-level faults and the merged driver (one flat
    /// [`Simulation`]) otherwise; epoch stepping replays the flat queue's
    /// event order exactly (DESIGN.md §13 gives the ordering argument;
    /// the `partition` test suite pins merged == epoch).
    #[must_use]
    pub fn run(self) -> ClusterResult {
        if self.mode == StepMode::Auto && self.epoch_eligible() {
            self.run_epoch()
        } else {
            self.run_merged()
        }
    }

    /// Builds the cluster, registers the jobs, and returns it together
    /// with the events that seed the run: job arrivals (registration
    /// order) first, then the cluster's own initial events — the same
    /// seq-order discipline as `CoRun::run`.
    fn build(&mut self) -> (GpuCluster, Vec<(SimTime, ClusterEvent)>) {
        let (mut cluster, initial) = GpuCluster::new(&self.cfg);
        let mut seeds: Vec<(SimTime, ClusterEvent)> = self
            .jobs
            .iter()
            .enumerate()
            .map(|(idx, j)| (j.arrival, ClusterEvent::Arrival(idx)))
            .collect();
        seeds.extend(initial);
        for spec in self.jobs.drain(..) {
            cluster.register(spec);
        }
        (cluster, seeds)
    }

    /// One flat [`Simulation`] over the whole cluster: every device's
    /// events and the cluster-level ones share one `(time, seq)` queue,
    /// the global order the epoch driver reproduces.
    fn run_merged(mut self) -> ClusterResult {
        let (cluster, seeds) = self.build();
        let mut sim = Simulation::new(cluster);
        for (at, ev) in seeds {
            sim.schedule_at(at, ev);
        }
        let outcome = sim.run_with_budget(self.budget);
        finish(sim.into_world(), outcome)
    }

    /// Epoch stepping: device streams run independently — and in parallel
    /// when the runner has workers to spare — up to the next cluster-level
    /// timestamp, with a barrier there.
    ///
    /// # Why this reproduces the global order
    ///
    /// For eligible runs (no device faults) the only cluster-level events
    /// are the pre-scheduled job arrivals, which carry the globally
    /// lowest sequence numbers; every run-time event is shard-local and
    /// all its follow-ups target the same shard. At a shared timestamp
    /// one global queue therefore dispatches arrivals before any shard
    /// event (lower seq), and orders each device's own events by that
    /// device's push order — exactly what "drain streams strictly below
    /// the bound, then dispatch the bound's arrivals, device-local FIFO
    /// within a stream" produces. Events of *different* devices at equal
    /// timestamps commute: a shard event touches only its shard, and the
    /// completion/failure bookkeeping both orders produce is absorbed
    /// per-device in device order at the barrier, which no result field
    /// observes differently.
    fn run_epoch(mut self) -> ClusterResult {
        let (mut cluster, seeds) = self.build();
        let n = cluster.shards.len();
        // The control stream holds cluster-level events; one per-device
        // stream holds each shard's (device-local FIFO ordering).
        let mut control: EventQueue<ClusterEvent> = EventQueue::new();
        let mut streams: Vec<EventQueue<SystemEvent>> = (0..n).map(|_| EventQueue::new()).collect();
        fn route(
            control: &mut EventQueue<ClusterEvent>,
            streams: &mut [EventQueue<SystemEvent>],
            at: SimTime,
            ev: ClusterEvent,
        ) {
            match ev {
                ClusterEvent::Shard { device, ev } => streams[device as usize].push(at, ev),
                other => control.push(at, other),
            }
        }
        for (at, ev) in seeds {
            route(&mut control, &mut streams, at, ev);
        }
        let mut spent: u64 = 0;
        let mut end = SimTime::ZERO;
        let outcome = loop {
            // Epoch: drain every stream strictly below the next
            // cluster-level timestamp (fully, when none is left). Each
            // stream is capped at the remaining budget, so the abort
            // point is deterministic at any `FLEP_THREADS`.
            let bound = control.peek_time();
            let cap = self.budget.saturating_sub(spent);
            let (count, last) = step_streams(&mut cluster.shards, &mut streams, bound, cap);
            spent += count;
            if let Some(t) = last {
                end = end.max(t);
            }
            // Barrier: fold shard outputs (completions, failures) into
            // the cluster's job table, in device order.
            for d in 0..n as u32 {
                cluster.absorb_shard(end, d);
            }
            debug_assert!(cluster.pending.is_empty(), "epoch workers route directly");
            let pending = control.len() + streams.iter().map(EventQueue::len).sum::<usize>();
            if spent >= self.budget && pending > 0 {
                break RunOutcome::BudgetExhausted {
                    now: end,
                    dispatched: spent,
                    pending,
                };
            }
            // Cluster-level interaction point: dispatch everything at the
            // bound timestamp, routing follow-ups to their streams.
            let Some(t) = bound else {
                break RunOutcome::Completed(end);
            };
            end = end.max(t);
            while control.peek_time() == Some(t) {
                let entry = control.pop().expect("peeked control event");
                spent += 1;
                cluster.dispatch(t, entry.payload, &mut |at, ev| {
                    route(&mut control, &mut streams, at, ev);
                });
            }
        };
        finish(cluster, outcome)
    }
}

/// Folds a finished cluster and its run outcome into the result, with a
/// budget abort reported as the last structured error.
fn finish(cluster: GpuCluster, outcome: RunOutcome) -> ClusterResult {
    let (end_time, budget_error) = settle_budget(outcome);
    let mut result = cluster.into_result(end_time);
    result.errors.extend(budget_error);
    result
}

/// Results of a cluster run.
#[derive(Debug, Clone)]
pub struct ClusterResult {
    /// Per-job records in registration order, merged across incarnations
    /// (a migrated job's counters accumulate over every device it ran
    /// on). Every registered job has one, stranded jobs included, unless
    /// it was drained with [`GpuCluster::drain_settled_into`].
    pub jobs: Vec<JobRecord>,
    /// When the last event fired.
    pub end_time: SimTime,
    /// Structured failures: per-shard errors (probe grids' dropped) then
    /// cluster-level ones, naming cluster job indices.
    pub errors: Vec<RuntimeError>,
    /// Recovery actions: per-shard ladders then cluster migrations.
    pub recoveries: Vec<RecoveryEvent>,
    /// Preemption-drain outcomes summed across shards.
    pub escalations: [u64; 3],
    /// Grid-level faults fired across all shards.
    pub faults_fired: u64,
    /// The device lifecycle log.
    pub device_events: Vec<DeviceEvent>,
    /// Completed migrations.
    pub migrations: u64,
    /// Jobs that finished all tasks.
    pub completed: u64,
    /// Jobs abandoned (launch failure or migration budget).
    pub failed: u64,
    /// Jobs neither finished nor failed at the end (parked with no
    /// capacity, or stranded by a budget abort).
    pub stranded: u64,
    /// Structured recovery tally across every layer: watchdog ladder,
    /// migrations, breaker quarantines/probes/re-admissions.
    pub summary: RecoverySummary,
    /// The placement log `(time, job, device)`; recorded only when
    /// health is configured (empty otherwise).
    pub placements: Vec<(SimTime, usize, u32)>,
}

impl ClusterResult {
    /// True when every registered job is accounted exactly once:
    /// completed, failed, or stranded.
    #[must_use]
    pub fn reconciles(&self) -> bool {
        self.completed + self.failed + self.stranded == self.jobs.len() as u64
    }

    /// True when no structured errors were recorded.
    #[must_use]
    pub fn succeeded(&self) -> bool {
        self.errors.is_empty()
    }
}
